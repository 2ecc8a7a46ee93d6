//! The statistics every reported number goes through: nearest-rank
//! percentiles, a [`Summary`] of one sample set, and the process-level
//! gauges (CPU time, peak resident memory) read at slice boundaries.

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `q` of the
/// samples at or below it. An empty slice reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` and returns their nearest-rank median — the
/// per-slice statistic: one slow slice (a scheduler hiccup on the
/// shared cores) cannot move it.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Order statistics of one sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Sorts `samples` and summarises them (all zero when empty).
    pub fn of(samples: &mut [f64]) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary {
            n: samples.len(),
            min: percentile(samples, 0.0),
            p50: percentile(samples, 0.5),
            p95: percentile(samples, 0.95),
            p99: percentile(samples, 0.99),
            max: percentile(samples, 1.0),
        }
    }
}

/// `num / den`, reading 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process clocks and /proc; it runs on 64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux, enforced by the cfg above)
    // and the call writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds (user + system) this process has consumed, all threads
/// — exited connection handlers included, which `/proc/self/task`
/// would lose. Nanosecond resolution, where `/proc/self/stat` counts
/// 10 ms ticks: a `conn_churn` slice burns only two or three ticks.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has consumed.
pub fn thread_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID)
}

/// How fast the machine is right now: the calling thread's CPU seconds
/// for a fixed piece of work of the engine's kind — sorting, hashing,
/// formatting, allocating. CPU time, not wall time, so being preempted
/// by the load does not count; what counts is how fast instructions
/// retire, which on a shared box changes by the minute.
pub fn machine_probe_seconds() -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    let started = thread_cpu_seconds();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..4096).map(|_| next()).collect();
    keys.sort_unstable();
    // a fixed hasher: the same work in every process
    let mut table: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, k) in keys.iter().enumerate() {
        *table
            .entry(format!("city{:02}-{}", k % 54, k % 977))
            .or_insert(0) += i as u64;
    }
    let hits = keys
        .iter()
        .filter(|k| table.contains_key(&format!("city{:02}-{}", *k % 54, *k % 977)))
        .count();
    std::hint::black_box((hits, table.len()));
    thread_cpu_seconds() - started
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn median_ignores_one_slow_slice() {
        let mut slices = [
            100.0, 101.0, 99.0, 5.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ];
        let m = median(&mut slices);
        assert!((99.0..=101.0).contains(&m), "median {m}");
    }

    #[test]
    fn summary_orders_its_fields() {
        let mut v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&mut v);
        assert_eq!(s.n, 1000);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert_eq!(Summary::of(&mut []), Summary::default());
    }

    #[test]
    fn process_gauges_read_and_advance() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
        let probe = machine_probe_seconds();
        assert!(probe > 0.0 && probe < 1.0, "probe took {probe} s");
    }
}
