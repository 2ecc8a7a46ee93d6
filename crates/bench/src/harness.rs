//! A minimal micro-benchmark harness.
//!
//! The workspace builds offline (no `criterion`), so the `benches/`
//! targets use this: wall-clock timing with a warm-up pass, adaptive
//! iteration counts (at least 50 for a case under 20 ms) split into
//! [`BATCHES`] timed batches, and a `name-substring` filter from the
//! command line. Invoke through `cargo bench -p mdq-bench [-- <filter>]`.
//!
//! Each entry records the mean per iteration and, over the batches'
//! per-iteration times, the median and quartiles (nearest rank): the
//! spread says whether two runs differ by more than their noise.
//!
//! Besides the per-line console output, every run records its results;
//! a bench target ends with [`Bench::write_json`], which emits a
//! machine-readable `BENCH_<target>.json` at the workspace root so the
//! perf trajectory is tracked across PRs. Set `MDQ_BENCH_DIR` to
//! redirect the output directory.
//!
//! Allocation gauges: a bench binary that declares
//! `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
//! counts every heap allocation the process makes, and
//! [`count_allocations`] reads the counters around one closure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// The system allocator, counting every allocation (`alloc`,
/// `alloc_zeroed` and `realloc` alike) and the bytes it requests. It
/// counts only in a binary that declares it its `#[global_allocator]`.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap allocations and bytes requested so far by the whole process
/// (every thread), as [`CountingAlloc`] counted them.
pub fn allocated() -> (u64, u64) {
    (ALLOCATIONS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Runs `f` and returns its result with the heap allocations and bytes
/// the process made meanwhile. The result is dropped by the caller,
/// outside the count; on a single thread the count is exactly `f`'s.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocations, bytes) = allocated();
    let out = f();
    let (allocations_after, bytes_after) = allocated();
    (out, allocations_after - allocations, bytes_after - bytes)
}

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(300);
/// Iteration bounds. The floor is 50 wherever 50 iterations fit in a
/// second (a mean over five says little), and 5 for slower cases.
const MIN_ITERS: u32 = 5;
const MIN_ITERS_SUBSECOND: u32 = 50;
const MAX_ITERS: u32 = 10_000;
/// Timed batches per entry; the iterations are split evenly across them
/// (at least one each).
pub const BATCHES: u32 = 10;

/// One measured entry.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name (`target/case/...`).
    pub name: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: u128,
    /// Median over the batches of the wall time per iteration,
    /// nanoseconds.
    pub median_ns: u128,
    /// First quartile of the same, nanoseconds.
    pub p25_ns: u128,
    /// Third quartile of the same, nanoseconds.
    pub p75_ns: u128,
    /// Iterations measured (after the warm-up/calibration pass).
    pub iters: u32,
}

/// One recorded gauge: a named counter pinned alongside the timings
/// (call counts, savings ratios — anything worth tracking across PRs
/// that is not a wall time).
#[derive(Clone, Debug)]
pub struct GaugeResult {
    /// Gauge name (`target/case/...`).
    pub name: String,
    /// The recorded value.
    pub value: u64,
    /// The value's unit, e.g. `"calls"` or `"percent"`.
    pub unit: String,
}

/// A benchmark runner: times closures, prints one line per entry and
/// records every result for JSON emission.
pub struct Bench {
    filter: Option<String>,
    results: RefCell<Vec<BenchResult>>,
    gauges: RefCell<Vec<GaugeResult>>,
}

impl Bench {
    /// Builds a runner from the process arguments (`cargo bench`
    /// forwards everything after `--`; the harness flag `--bench` is
    /// ignored, anything else filters benchmark names by substring).
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Bench {
            filter,
            results: RefCell::new(Vec::new()),
            gauges: RefCell::new(Vec::new()),
        }
    }

    /// Records a named counter (unfiltered — gauges are cheap and the
    /// committed JSON should always carry the full set).
    pub fn gauge(&self, name: &str, value: u64, unit: &str) {
        println!("{name:<44} {value:>12} {unit}");
        self.gauges.borrow_mut().push(GaugeResult {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Whether the name filter (if any) selects `name` — for a case
    /// whose gauges cost too much to take when it is filtered out.
    pub fn selects(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| name.contains(filter.as_str()))
    }

    /// Times `f` in [`BATCHES`] batches, printing the mean per
    /// iteration, the batches' median and quartiles, and the iteration
    /// count. The closure's result is passed through [`black_box`] so
    /// the optimiser cannot elide the work.
    pub fn measure<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        if !self.selects(name) {
            return;
        }
        // warm-up + calibration pass
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let floor = if once * MIN_ITERS_SUBSECOND <= Duration::from_secs(1) {
            MIN_ITERS_SUBSECOND
        } else {
            MIN_ITERS
        };
        let iters = ((TARGET.as_nanos() / once.as_nanos()).max(1) as u32).clamp(floor, MAX_ITERS);
        let per_batch = iters.div_ceil(BATCHES);
        let mut total = Duration::ZERO;
        let mut batches: Vec<u128> = (0..BATCHES)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..per_batch {
                    black_box(f());
                }
                let elapsed = start.elapsed();
                total += elapsed;
                elapsed.as_nanos() / u128::from(per_batch)
            })
            .collect();
        batches.sort_unstable();
        let iters = per_batch * BATCHES;
        let per_iter = total / iters;
        let quantile = |q: f64| nearest_rank(&batches, q);
        let (p25, median, p75) = (quantile(0.25), quantile(0.5), quantile(0.75));
        println!(
            "{name:<44} {per_iter:>12.2?}/iter ({iters} iters; median {:.2?} [{:.2?}, {:.2?}])",
            Duration::from_nanos(median as u64),
            Duration::from_nanos(p25 as u64),
            Duration::from_nanos(p75 as u64),
        );
        self.results.borrow_mut().push(BenchResult {
            name: name.to_string(),
            mean_ns: per_iter.as_nanos(),
            median_ns: median,
            p25_ns: p25,
            p75_ns: p75,
            iters,
        });
    }

    /// The mean of the entry measured under exactly `name`, if it ran
    /// (a filtered run may have skipped it) — what a relational band
    /// compares.
    pub fn mean_ns(&self, name: &str) -> Option<u128> {
        self.results
            .borrow()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.mean_ns)
    }

    /// The results recorded so far, in measurement order.
    pub fn results(&self) -> Vec<BenchResult> {
        self.results.borrow().clone()
    }

    /// Writes the recorded results as `BENCH_<target>.json` (workspace
    /// root, or `MDQ_BENCH_DIR`) and returns the path. A filtered run
    /// that measured nothing writes nothing and returns `None`.
    pub fn write_json(&self, target: &str) -> Option<PathBuf> {
        let results = self.results.borrow();
        let gauges = self.gauges.borrow();
        if results.is_empty() {
            return None;
        }
        let dir = std::env::var_os("MDQ_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                // crates/bench/../.. = the workspace root
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("..")
                    .join("..")
            });
        let dir = dir.canonicalize().unwrap_or(dir);
        let path = dir.join(format!("BENCH_{target}.json"));
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"target\": \"{}\",\n", escape(target)));
        json.push_str("  \"unit\": \"ns/iter\",\n");
        json.push_str("  \"results\": [\n");
        for (i, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"mean_ns\": {}, \"median_ns\": {}, \"p25_ns\": {}, \"p75_ns\": {}, \"iters\": {}}}{}\n",
                escape(&r.name),
                r.mean_ns,
                r.median_ns,
                r.p25_ns,
                r.p75_ns,
                r.iters,
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        if gauges.is_empty() {
            json.push_str("  ]\n}\n");
        } else {
            json.push_str("  ],\n  \"gauges\": [\n");
            for (i, g) in gauges.iter().enumerate() {
                json.push_str(&format!(
                    "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{}\n",
                    escape(&g.name),
                    g.value,
                    escape(&g.unit),
                    if i + 1 < gauges.len() { "," } else { "" }
                ));
            }
            json.push_str("  ]\n}\n");
        }
        match std::fs::write(&path, json) {
            Ok(()) => {
                println!("wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("could not write {}: {e}", path.display());
                None
            }
        }
    }
}

/// The nearest-rank `q`-quantile of ascending `sorted` (non-empty).
fn nearest_rank(sorted: &[u128], q: f64) -> u128 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Minimal JSON string escaping (names are ASCII identifiers + `/`).
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl Default for Bench {
    fn default() -> Self {
        Bench::from_args()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_serialises() {
        let bench = Bench {
            filter: None,
            results: RefCell::new(Vec::new()),
            gauges: RefCell::new(Vec::new()),
        };
        bench.measure("unit/no-op", || 1 + 1);
        bench.gauge("unit/gauge", 42, "calls");
        let results = bench.results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "unit/no-op");
        assert!(results[0].iters >= MIN_ITERS.max(BATCHES));
        let r = &results[0];
        assert!(r.p25_ns <= r.median_ns && r.median_ns <= r.p75_ns, "{r:?}");
        let dir = std::env::temp_dir().join("mdq-bench-harness-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::env::set_var("MDQ_BENCH_DIR", &dir);
        let path = bench.write_json("unit").expect("writes");
        std::env::remove_var("MDQ_BENCH_DIR");
        let text = std::fs::read_to_string(&path).expect("reads");
        assert!(text.contains("\"target\": \"unit\""), "{text}");
        assert!(text.contains("\"name\": \"unit/no-op\""), "{text}");
        assert!(text.contains("\"median_ns\": "), "{text}");
        assert!(text.contains("\"p75_ns\": "), "{text}");
        assert!(
            text.contains("\"name\": \"unit/gauge\", \"value\": 42, \"unit\": \"calls\""),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nearest_rank_quartiles() {
        let ten: Vec<u128> = (1..=10).collect();
        assert_eq!(nearest_rank(&ten, 0.25), 3);
        assert_eq!(nearest_rank(&ten, 0.5), 5);
        assert_eq!(nearest_rank(&ten, 0.75), 8);
        assert_eq!(nearest_rank(&[7], 0.25), 7);
    }

    #[test]
    fn filter_skips_and_writes_nothing() {
        let bench = Bench {
            filter: Some("nomatch".into()),
            results: RefCell::new(Vec::new()),
            gauges: RefCell::new(Vec::new()),
        };
        bench.measure("unit/no-op", || 1);
        assert!(bench.results().is_empty());
        assert!(bench.write_json("unit").is_none());
    }
}
