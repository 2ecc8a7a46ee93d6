//! One end-to-end benchmark for the `mdq/1` query journey.
//!
//! Starts a `QueryServer` + `NetServer` in-process, drives it over
//! loopback TCP with the blocking `NetClient` in a closed loop, checks
//! every answer, prints every metric by name and unit, and ends with
//! the one-line JSON result the driver reads. See `BENCHMARK.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! benchmark --all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]
//! benchmark --smoke
//! benchmark --compare <a> <b>
//! benchmark --manifest
//! ```

mod layers;
mod load;
mod manifest;
mod spans;
mod stats;
mod world;

use layers::Counters;
use manifest::{MetricDef, Values, DEV_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER, RUN_SECONDS};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use world::{Generated, System, Workload, CONNECTIONS, OPERATOR};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// How one workload run is shaped.
struct RunSpec {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
    /// Overrides [`Workload::replay_ops`] (the smoke run's 50).
    replay_ops: Option<usize>,
    out: Option<PathBuf>,
}

/// What a run reports: the contract's result line, in parts.
struct RunReport {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Values,
}

fn sorted(mut rows: Vec<String>) -> Vec<String> {
    rows.sort();
    rows
}

/// Where the traced run leaves its spans: inside the package, whatever
/// the working directory.
fn trace_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", workload.name()))
}

fn run_workload(spec: &RunSpec) -> Result<RunReport, String> {
    let workload = spec.workload;
    let k = workload.k();
    let gen = Generated::new(spec.seed, workload);
    let expected = world::expected_answers(&gen, k);
    let io = |e: std::io::Error| format!("set-up failed: {e}");

    // set up several times, keep the last: one set-up is too short a
    // time to report from a single reading
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut system = None;
    for _ in 0..spec.setups {
        if let Some(previous) = system.take() {
            System::stop(previous);
        }
        let mut probes = load::probe_burst();
        let started = Instant::now();
        system = Some(System::start(workload, &gen).map_err(io)?);
        let took = started.elapsed().as_secs_f64();
        probes.extend(load::probe_burst());
        setup_s.push(took / load::machine_factor(&probes));
    }
    let mut system = system.ok_or("at least one set-up")?;

    // the traced run spends half its time on the counted load phase
    // and the other half replaying
    let load_seconds = if spec.trace {
        spec.seconds / 2.0
    } else {
        spec.seconds
    };
    let before = Counters::read(&system);
    let load = load::run(workload, &gen, &expected, &mut system, load_seconds);
    let after = Counters::read(&system);

    // what the checks after the timed phase find, beyond `load.failed`
    let mut failures: Vec<String> = Vec::new();

    // the server's `calls=` frames must account for every request the
    // services answered
    // (a refresh pass's re-evaluations forward calls no frame reports)
    let forwarded = after.services.0 - before.services.0;
    if forwarded != load.reported_calls && workload != Workload::StandingMix {
        failures.push(format!(
            "services answered {forwarded} calls, DONE/REFRESHED frames reported {}",
            load.reported_calls
        ));
    }
    if !load.cold_samples.is_empty() {
        let oracle = world::engine(gen.seed, world::EngineKind::Plain, None);
        for (i, answers) in &load.cold_samples {
            if *answers != world::oracle_answers(&oracle, &gen.cold_query(*i), k) {
                failures.push(format!("cold template {i} differs from the oracle"));
            }
        }
    }
    if let Some(standing) = &system.standing {
        let operator = system
            .server
            .tenant_id(OPERATOR)
            .expect("set-up registered the operator");
        let mut reader = mdq_runtime::NetClient::connect(system.net.addr()).map_err(io)?;
        for ((id, folded), text) in standing.subs.iter().zip(&gen.templates) {
            let current: Vec<String> = system
                .server
                .subscription_answers(operator, *id)
                .ok_or("subscription vanished")?
                .iter()
                .map(ToString::to_string)
                .collect();
            if sorted(folded.clone()) != sorted(current.clone()) {
                failures.push(format!(
                    "subscription {id}: folded deltas differ from its answers"
                ));
            }
            // quiesced, an ad-hoc read of the same template sees what
            // the subscription maintains
            let (read, _calls) = world::query_done(&mut reader, text, k).map_err(io)?;
            if sorted(read) != sorted(current) {
                failures.push(format!(
                    "subscription {id}: an ad-hoc read differs from its answers"
                ));
            }
        }
        reader.quit().map_err(io)?;
    }

    let values: Values = if spec.trace {
        let replay_ops = spec.replay_ops.unwrap_or(workload.replay_ops());
        let (values, trace) = layers::measure(
            workload,
            &gen,
            &expected,
            &system,
            &load,
            &before,
            &after,
            replay_ops,
            &mut failures,
        );
        let path = trace_path(workload);
        let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut f = std::io::BufWriter::new(f);
                spans::write_jsonl(&mut f, &trace)?;
                f.flush()
            });
        match written {
            Ok(()) => println!("# {} spans -> {}", trace.len(), path.display()),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
        values
    } else {
        let timing = &load.at_reference;
        vec![
            ("setup_s", stats::median(&mut setup_s)),
            ("throughput_ops_s", timing.throughput_ops_s),
            ("latency_p50_us", timing.latency_us.p50),
            ("latency_p95_us", timing.latency_us.p95),
            ("peak_rss_mb", load.peak_rss_mb),
        ]
    };
    System::stop(system);

    let failed = load.failed + failures.len() as u64;
    println!(
        "# {} seed={} seconds={} trace={} connections={CONNECTIONS} cores={}",
        workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let lat = &load.raw.latency_us;
    println!(
        "# as the clocks read: {:.1} ops/s, {:.1} cpu us/op; latency n={} min={:.1} p50={:.1} \
         p95={:.1} p99={:.1} max={:.1} us; machine {:.3}x slower than the reference \
         ({:.1} cpu us/op at reference speed)",
        load.raw.throughput_ops_s,
        load.raw.cpu_us_per_op,
        lat.n,
        lat.min,
        lat.p50,
        lat.p95,
        lat.p99,
        lat.max,
        load.machine_factor,
        load.at_reference.cpu_us_per_op
    );
    let slices: Vec<String> = load.slice_ops_s.iter().map(|v| format!("{v:.0}")).collect();
    println!("# ops/s per slice: {}", slices.join(" "));
    if load.cycle_ms.n > 0 {
        println!(
            "# maintenance cycles: n={} p50={:.3} p95={:.3} max={:.3} ms, late p50={:.3} ms",
            load.cycle_ms.n,
            load.cycle_ms.p50,
            load.cycle_ms.p95,
            load.cycle_ms.max,
            load.cycle_late_ms.p50
        );
    }
    if workload == Workload::CachePressure {
        let m = &after.metrics;
        let held: u64 = m.page_cache_shards.iter().map(|s| s.entries).sum();
        println!(
            "# page cache: bound {} keys, {held} held; {} evictions in the timed phase",
            world::CACHE_PRESSURE_ENTRIES,
            m.page_cache_evictions - before.metrics.page_cache_evictions
        );
    }
    println!(
        "# failed_share={} ({failed} of {} attempted)",
        stats::ratio(failed as f64, load.attempted as f64),
        load.attempted
    );
    for why in load.first_failure.iter().chain(&failures) {
        println!("# FAILED: {why}");
    }
    Ok(RunReport {
        correct: failed == 0,
        attempted: load.attempted.max(1),
        failed,
        values,
    })
}

/// Prints the metrics by name and unit, appends them to `--out`, and
/// ends with the contract's one-line JSON object.
fn report(spec: &RunSpec, report: &RunReport) -> Result<(), String> {
    let defs: &[MetricDef] = if spec.trace { &PER_LAYER } else { &END_TO_END };
    for m in defs {
        if let Some((_, v)) = report.values.iter().find(|(name, _)| *name == m.name) {
            println!("{:<42} {v:>16.4} {}", m.name, m.unit);
        }
    }
    if let Some(path) = &spec.out {
        let mut lines = String::new();
        for (name, v) in &report.values {
            lines.push_str(&format!("{}\t{name}\t{v}\n", spec.workload.name()));
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(lines.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        manifest::result_json(
            report.correct,
            report.attempted,
            report.failed,
            defs,
            &report.values
        )
    );
    Ok(())
}

/// Every workload in a child process of its own (so set-up time and
/// peak memory belong to that workload alone): `runs` end-to-end runs,
/// then one traced run.
fn run_all(seed: u64, seconds: f64, runs: usize, out: Option<&Path>) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for workload in Workload::ALL {
        for run in 0..=runs {
            let trace = run == runs;
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let (Some(out), false) = (out, trace) {
                child.arg("--out").arg(out);
            }
            ok &= child.status().map_err(|e| e.to_string())?.success();
        }
    }
    Ok(ok)
}

/// All five workloads for 1 s each plus a 50-op traced replay: checks
/// that every metric in the tables is reported and every answer right,
/// not how fast anything is.
fn smoke() -> Result<bool, String> {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let spec = RunSpec {
                workload,
                seed: DEV_SEED,
                seconds: 1.0,
                trace,
                setups: 1,
                replay_ops: Some(50),
                out: None,
            };
            let run = run_workload(&spec)?;
            report(&spec, &run)?;
            ok &= run.correct;
        }
    }
    Ok(ok)
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n\
         \x20      benchmark --all [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]\n\
         \x20      benchmark --smoke | --manifest | --compare <a> <b>\n\
         seeds: {DEV_SEED} while developing a change, {HELD_OUT_SEED} held out to confirm it"
    )
}

fn parsed<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
}

fn real_main() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, DEV_SEED, RUN_SECONDS as f64);
    let (mut trace, mut runs, mut out, mut all) = (false, 1usize, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => {
                let name: String = parsed(&arg, args.next())?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = parsed(&arg, args.next())?,
            "--seconds" => seconds = parsed(&arg, args.next())?,
            "--trace" => trace = parsed::<u8>(&arg, args.next())? != 0,
            "--runs" => runs = parsed(&arg, args.next())?,
            "--out" => out = Some(PathBuf::from(parsed::<String>(&arg, args.next())?)),
            "--all" => all = true,
            "--smoke" => return smoke(),
            "--manifest" => {
                print!("{}", manifest::manifest_json());
                return Ok(true);
            }
            "--compare" => {
                let read = |p: Option<String>| -> Result<String, String> {
                    let p = p.ok_or_else(usage)?;
                    std::fs::read_to_string(&p).map_err(|e| format!("{p}: {e}"))
                };
                let (a, b) = (read(args.next())?, read(args.next())?);
                return Ok(manifest::compare(&a, &b)? == 0);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    if all {
        return run_all(seed, seconds, runs, out.as_deref());
    }
    let spec = RunSpec {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        setups: SETUPS,
        replay_ops: None,
        out,
    };
    let run = run_workload(&spec)?;
    report(&spec, &run)?;
    Ok(run.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
