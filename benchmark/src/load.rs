//! The timed phase: a closed loop over loopback TCP. Each connection
//! sends its next op only after the previous one completed (`mdq/1`
//! allows one query in flight per connection), so there are never more
//! closed-loop load threads than [`CONNECTIONS`]; `standing_mix` adds
//! its scheduled maintenance connection. The window is cut into
//! [`SLICES`] slices; throughput and CPU are the median slice.

use crate::stats::{
    machine_probe_seconds, median, peak_rss_mb, process_cpu_seconds, ratio, thread_cpu_seconds,
    Summary,
};
use crate::world::{query_done, Generated, Standing, System, Workload, CONNECTIONS};
use mdq_runtime::NetClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Slices the measured window is cut into.
pub const SLICES: usize = 12;
/// `standing_mix`: one maintenance cycle is due every 20 ms.
pub const CYCLE_EVERY: Duration = Duration::from_millis(20);
/// Resolution of a logged latency (a `u32` of these spans 68 s).
const LATENCY_UNIT_NS: u64 = 16;
/// `cold_templates`: one op in this many is kept for the oracle check.
pub const COLD_SAMPLE_EVERY: u64 = 32;

/// What one load thread saw.
#[derive(Default)]
struct ClientLog {
    /// Per completed op: completion time (µs since the epoch instant)
    /// and client-observed latency ([`LATENCY_UNIT_NS`]s) — 8 bytes, so
    /// that the log of a fast run does not show in `peak_rss_mb`.
    samples: Vec<(u32, u32)>,
    attempted: u64,
    failed: u64,
    /// Summed `DONE calls=` (and `REFRESHED calls=`).
    calls: u64,
    /// `cold_templates`: sampled `(op index, answers)` for the oracle.
    cold: Vec<(u64, Vec<String>)>,
    /// `standing_mix` connection A: per cycle, how late it started and
    /// how long it took from when it was due (ns).
    cycles: Vec<(u64, u64)>,
    first_failure: Option<String>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// The three timings of a closed loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Completed ops per second, median slice.
    pub throughput_ops_s: f64,
    /// Process CPU (user + system) per op, µs, median slice —
    /// capacity per core, server and load generator together.
    pub cpu_us_per_op: f64,
    /// Client-observed op latency (frame written → last frame read), µs,
    /// over every sample of the window.
    pub latency_us: Summary,
}

/// How much slower than the reference the machine ran while `probes`
/// were taken: their mean over [`REFERENCE_PROBE_S`].
///
/// The box the bounds were measured on drops into phases, a minute or
/// so long, in which the probe, the optimizer and a warm round trip all
/// run up to 1.5–2× slower, then recovers (`BENCHMARK.md` has the log).
/// Ten runs either straddle such a phase or do not, so wall-clock
/// medians of back-to-back sets of runs differ by more than any bound
/// worth having. The interference comes in bursts of milliseconds, so
/// the timed phase probes all through each slice ([`PROBE_EVERY`]) and
/// takes the mean — what the load, spread over the same slice, met on
/// average. Dividing the slice's timings by that factor takes the
/// machine's phase out and leaves the program's cost.
pub fn machine_factor(probes: &[f64]) -> f64 {
    ratio(probes.iter().sum::<f64>(), probes.len() as f64) / REFERENCE_PROBE_S
}

/// A burst of probes, for timing something too short to probe through
/// (a set-up): one burst before, one after.
pub fn probe_burst() -> Vec<f64> {
    (0..7).map(|_| machine_probe_seconds()).collect()
}

/// The timed phase probes the machine's speed this often (≈1 ms of
/// CPU each time: 2–3 % of one core, on the measuring thread, whose CPU
/// is not counted as the load's).
const PROBE_EVERY: Duration = Duration::from_millis(40);
/// CPU seconds the probe takes on the reference machine (the measured
/// box between its slow phases).
const REFERENCE_PROBE_S: f64 = 0.001;

/// The timed phase's measurements.
pub struct LoadOutcome {
    /// Ops attempted inside the window (plus maintenance cycles).
    pub attempted: u64,
    /// Ops that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Service calls the server reported forwarding (`calls=` frames).
    pub reported_calls: u64,
    /// Ops completed, in the window or in flight at its edges.
    pub completed: u64,
    /// The timings as the clocks read them.
    pub raw: Timing,
    /// The same timings at reference machine speed: every slice's
    /// numbers divided by that slice's [`machine_factor`], raised to
    /// the workload's [`Workload::machine_sensitivity`].
    pub at_reference: Timing,
    /// How much slower than the reference the machine ran, median slice.
    pub machine_factor: f64,
    /// Completed ops per second as measured, every slice in time order.
    pub slice_ops_s: Vec<f64>,
    /// `VmHWM` when the load threads had just finished, MB — before the
    /// benchmark's own post-processing of their logs.
    pub peak_rss_mb: f64,
    /// `cold_templates`: the sampled answers awaiting the oracle.
    pub cold_samples: Vec<(u64, Vec<String>)>,
    /// `standing_mix`: maintenance-cycle latency from due time, ms.
    pub cycle_ms: Summary,
    /// `standing_mix`: how late cycles started, ms.
    pub cycle_late_ms: Summary,
}

/// One connection's ops, until `stop`.
#[allow(clippy::too_many_arguments)] // one closed loop: its inputs are what they are
fn client_loop(
    workload: Workload,
    gen: &Generated,
    expected: &[Vec<String>],
    addr: SocketAddr,
    lane: usize,
    epoch: Instant,
    go: &Barrier,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let k = workload.k();
    let mut held = if workload == Workload::ConnChurn {
        None
    } else {
        Some(NetClient::connect(addr).expect("loopback connects"))
    };
    // lanes walk the generated order from evenly spaced offsets
    let mut pos = lane * gen.order.len() / CONNECTIONS;
    let mut n = 0u64;
    go.wait();
    while !stop.load(Ordering::Relaxed) {
        let template = gen.order[pos % gen.order.len()];
        pos += 1;
        let cold_index = n * CONNECTIONS as u64 + lane as u64;
        n += 1;
        let cold_text;
        let text = if workload == Workload::ColdTemplates {
            cold_text = gen.cold_query(cold_index);
            &cold_text
        } else {
            &gen.templates[template]
        };
        log.attempted += 1;
        let sent = Instant::now();
        let served = match held.as_mut() {
            Some(client) => query_done(client, text, k),
            None => NetClient::connect(addr).and_then(|mut client| {
                let served = query_done(&mut client, text, k)?;
                client.quit()?;
                Ok(served)
            }),
        };
        let done = Instant::now();
        match served {
            Ok((answers, calls)) => {
                log.calls += calls;
                log.samples.push((
                    (done - epoch).as_micros() as u32,
                    ((done - sent).as_nanos() as u64 / LATENCY_UNIT_NS) as u32,
                ));
                match workload {
                    Workload::ColdTemplates => {
                        if cold_index.is_multiple_of(COLD_SAMPLE_EVERY) {
                            log.cold.push((cold_index, answers));
                        }
                    }
                    // the data drifts under the reader: its answers are
                    // checked against the subscriptions once quiesced
                    Workload::StandingMix => {
                        if answers.len() as u64 > k {
                            log.fail(format!("{} answers for k={k}", answers.len()));
                        }
                    }
                    _ => {
                        if answers != expected[template] {
                            log.fail(format!("wrong answers for template {template}"));
                        }
                    }
                }
            }
            Err(e) => {
                log.fail(e.to_string());
                if workload != Workload::ConnChurn {
                    break; // a held connection is unusable after an I/O error
                }
            }
        }
    }
    if let Some(client) = held {
        let _ = client.quit();
    }
    log
}

/// Folds one poll's rows into a subscription's answers: frames arrive
/// retractions first, so applying them in order never overshoots.
fn fold(answers: &mut Vec<String>, rows: Vec<(u64, bool, String)>) -> Result<(), String> {
    for (_epoch, added, tuple) in rows {
        if added {
            answers.push(tuple);
        } else {
            let at = answers
                .iter()
                .position(|t| *t == tuple)
                .ok_or_else(|| format!("retraction of a row never delivered: {tuple}"))?;
            answers.remove(at);
        }
    }
    Ok(())
}

/// One maintenance cycle: `REFRESH`→`REFRESHED`, then `POLL`→`SYNCED`
/// for every subscription. Returns the calls the pass issued.
fn maintenance_cycle(standing: &mut Standing) -> Result<u64, String> {
    let (_epoch, _refreshed, _changed, calls, _deltas) =
        standing.client.refresh_all().map_err(|e| e.to_string())?;
    for (id, answers) in &mut standing.subs {
        let rows = standing.client.poll(*id).map_err(|e| e.to_string())?;
        fold(answers, rows)?;
    }
    Ok(calls)
}

/// Connection A of `standing_mix`: a cycle is due every
/// [`CYCLE_EVERY`]; each is timed from when it was due, so a stall
/// charges the cycles it delays (an open loop beside B's closed one).
fn maintenance_loop(standing: &mut Standing, go: &Barrier, stop: &AtomicBool) -> ClientLog {
    let mut log = ClientLog::default();
    go.wait();
    let first_due = Instant::now();
    for i in 0u32.. {
        let due = first_due + CYCLE_EVERY * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let began = Instant::now();
        log.attempted += 1;
        match maintenance_cycle(standing) {
            Ok(calls) => {
                log.calls += calls;
                let done = Instant::now();
                log.cycles.push((
                    (began - due).as_nanos() as u64,
                    (done - due).as_nanos() as u64,
                ));
            }
            Err(e) => {
                log.fail(e);
                break;
            }
        }
    }
    log
}

/// Runs the closed loop for `seconds` and summarises it.
pub fn run(
    workload: Workload,
    gen: &Generated,
    expected: &[Vec<String>],
    system: &mut System,
    seconds: f64,
) -> LoadOutcome {
    let addr = system.net.addr();
    // standing_mix runs connection A's scheduled cycles beside the
    // readers, not in place of one: with a single reader the second
    // processor idles between cycles, and the reader's hand-offs flip
    // between same-processor and cross-processor wake-ups — a 2× change
    // in latency, from run to run and inside one (`BENCHMARK.md`)
    let threads = CONNECTIONS + usize::from(system.standing.is_some());
    let go = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let mut cpu = Vec::with_capacity(SLICES + 1);
    let mut edges_us = Vec::with_capacity(SLICES + 1);
    let mut slice_probes: Vec<Vec<f64>> = Vec::with_capacity(SLICES);

    let (go, stop) = (&go, &stop);
    let logs: Vec<ClientLog> =
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for lane in 0..CONNECTIONS {
                handles.push(scope.spawn(move || {
                    client_loop(workload, gen, expected, addr, lane, epoch, go, stop)
                }));
            }
            if let Some(standing) = system.standing.as_mut() {
                handles.push(scope.spawn(move || maintenance_loop(standing, go, stop)));
            }
            go.wait();
            let start = Instant::now();
            for i in 0..=SLICES {
                edges_us.push(epoch.elapsed().as_micros() as u32);
                // the load's CPU: the process's minus this thread's probing
                cpu.push(process_cpu_seconds() - thread_cpu_seconds());
                if i == SLICES {
                    break;
                }
                // probe the machine's speed all through the slice
                let end = start + slice * (i as u32 + 1);
                let mut probes = Vec::new();
                while let Some(left) = end.checked_duration_since(Instant::now()) {
                    probes.push(machine_probe_seconds());
                    std::thread::sleep(left.min(PROBE_EVERY));
                }
                slice_probes.push(probes);
            }
            stop.store(true, Ordering::Relaxed);
            handles
                .into_iter()
                .map(|h| h.join().expect("load threads do not panic"))
                .collect()
        });

    let peak_rss_mb = peak_rss_mb();

    // bin completed ops into slices by completion time
    let (first, last) = (edges_us[0], edges_us[SLICES]);
    let factor: Vec<f64> = slice_probes.iter().map(|p| machine_factor(p)).collect();
    let (wall_alpha, cpu_alpha) = workload.machine_sensitivity();
    let wall_factor: Vec<f64> = factor.iter().map(|f| f.powf(wall_alpha)).collect();
    let cpu_factor: Vec<f64> = factor.iter().map(|f| f.powf(cpu_alpha)).collect();
    let mut per_slice = [0u64; SLICES];
    let (mut latencies, mut latencies_ref) = (Vec::new(), Vec::new());
    for &(done, latency) in logs.iter().flat_map(|l| &l.samples) {
        if done < first || done >= last {
            continue;
        }
        let i = edges_us[1..].partition_point(|&edge| edge <= done);
        let latency_us = (u64::from(latency) * LATENCY_UNIT_NS) as f64 / 1e3;
        per_slice[i] += 1;
        latencies.push(latency_us);
        latencies_ref.push(latency_us / wall_factor[i]);
    }
    let (mut slice_ops_s, mut slice_ops_s_ref) = (Vec::new(), Vec::new());
    let (mut slice_cpu, mut slice_cpu_ref) = (Vec::new(), Vec::new());
    for i in 0..SLICES {
        let secs = f64::from(edges_us[i + 1] - edges_us[i]) / 1e6;
        let ops_s = ratio(per_slice[i] as f64, secs);
        let cpu_us = ratio((cpu[i + 1] - cpu[i]) * 1e6, per_slice[i] as f64);
        slice_ops_s.push(ops_s);
        slice_ops_s_ref.push(ops_s * wall_factor[i]);
        slice_cpu.push(cpu_us);
        slice_cpu_ref.push(cpu_us / cpu_factor[i]);
    }
    let (mut late, mut cycle): (Vec<f64>, Vec<f64>) = logs
        .iter()
        .flat_map(|l| &l.cycles)
        .map(|&(late, whole)| (late as f64 / 1e6, whole as f64 / 1e6))
        .unzip();
    let mut first_failure = None;
    let mut cold_samples = Vec::new();
    let (mut attempted, mut failed, mut reported_calls, mut completed) = (0, 0, 0, 0);
    for log in logs {
        completed += log.samples.len() as u64;
        attempted += log.attempted;
        failed += log.failed;
        reported_calls += log.calls;
        cold_samples.extend(log.cold);
        first_failure = first_failure.or(log.first_failure);
    }
    LoadOutcome {
        attempted,
        failed,
        first_failure,
        reported_calls,
        completed,
        slice_ops_s: slice_ops_s.clone(),
        raw: Timing {
            throughput_ops_s: median(&mut slice_ops_s),
            cpu_us_per_op: median(&mut slice_cpu),
            latency_us: Summary::of(&mut latencies),
        },
        at_reference: Timing {
            throughput_ops_s: median(&mut slice_ops_s_ref),
            cpu_us_per_op: median(&mut slice_cpu_ref),
            latency_us: Summary::of(&mut latencies_ref),
        },
        machine_factor: median(&mut factor.clone()),
        peak_rss_mb,
        cold_samples,
        cycle_ms: Summary::of(&mut cycle),
        cycle_late_ms: Summary::of(&mut late),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_applies_rows_in_order_and_rejects_unknown_retractions() {
        let mut answers = vec!["a".to_string(), "b".to_string()];
        fold(
            &mut answers,
            vec![(1, false, "a".to_string()), (1, true, "c".to_string())],
        )
        .expect("folds");
        assert_eq!(answers, ["b", "c"]);
        assert!(fold(&mut answers, vec![(2, false, "zzz".to_string())]).is_err());
    }
}
