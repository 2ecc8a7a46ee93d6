//! What the benchmark promises: its workloads, its metrics with unit,
//! direction and regression bound, and the `BENCHMARK.json` text the
//! repository root carries (`--manifest` prints it; a unit test holds
//! the committed file to it). `--compare` judges two result files under
//! the same bounds.

use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;
/// The seed used while the benchmark was developed.
pub const DEV_SEED: u64 = 2008;
/// The held-out seed a later performance claim must also hold on.
pub const HELD_OUT_SEED: u64 = 4242;

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadDef {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
}

/// The five workloads, all over `travel_world(seed)`.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "warm_repeat",
        why: "16 planned, paged templates repeat: no optimizer run, no service call; codec, socket, scheduler, plan-cache probe and operator kernel only",
    },
    WorkloadDef {
        name: "cold_templates",
        why: "every query a never-seen template over warm pages: the plan cache always misses, so the three-phase optimizer is >90% of each op",
    },
    WorkloadDef {
        name: "cache_pressure",
        why: "k=20 over a 32-entry page cache against a larger working set: every op evicts, misses and forwards service calls",
    },
    WorkloadDef {
        name: "conn_churn",
        why: "one connection per query (connect, HELLO, QUERY, QUIT): accept loop, handler spawn and handshake, which held-open connections bypass",
    },
    WorkloadDef {
        name: "standing_mix",
        why: "reads beside writes: 16 subscriptions refreshed every 20 ms invalidate and install pages in the cache the query connections read",
    },
];

/// One metric: name, unit, which way is better, and for end-to-end
/// metrics the share of the parent's median it may worsen by.
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a client of the server sees. One "op" is defined per workload
/// (see `BENCHMARK.md`).
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_ops_s", "ops/s", true, 0.25),
    e2e("latency_p50_us", "us", false, 0.25),
    e2e("latency_p95_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Single layers, named after the crates.
pub const PER_LAYER: [MetricDef; 54] = [
    layer("process.cpu_us_per_op", "us", false),
    layer("raw.throughput_ops_s", "ops/s", true),
    layer("raw.latency_p50_us", "us", false),
    layer("raw.latency_p95_us", "us", false),
    layer("raw.cpu_us_per_op", "us", false),
    layer("bench.machine_factor", "ratio", false),
    layer("model.parse_us", "us", false),
    layer("model.fingerprint_us", "us", false),
    layer("runtime.plan_cache.probe_us", "us", false),
    layer("runtime.plan_cache.hit_rate", "ratio", true),
    layer("optimizer.optimize_us", "us", false),
    layer("optimizer.runs_per_op", "count", false),
    layer("optimizer.sequences_permissible", "count", false),
    layer("optimizer.sequences_pruned", "count", true),
    layer("optimizer.topologies_complete", "count", false),
    layer("optimizer.partials_considered", "count", false),
    layer("optimizer.partials_pruned", "count", true),
    layer("cost.annotate_us", "us", false),
    layer("plan.build_us", "us", false),
    layer("exec.topk.build_us", "us", false),
    layer("exec.topk.pull_us", "us", false),
    layer("exec.topk.self_us", "us", false),
    layer("exec.topk.share_pct", "%", false),
    layer("exec.gateway.hit_fetch_ns", "ns", false),
    layer("exec.gateway.miss_fetch_ns", "ns", false),
    layer("exec.cache.hit_rate", "ratio", true),
    layer("exec.cache.evictions_per_op", "count", false),
    layer("services.fetch_us", "us", false),
    layer("services.calls_per_op", "calls", false),
    layer("services.sim_s_per_call", "s", false),
    layer("services.sim_s_per_op", "s", false),
    layer("runtime.server.inproc_us", "us", false),
    layer("runtime.server.overhead_us", "us", false),
    layer("runtime.server.queue_wait_gt100us_pct", "%", false),
    layer("runtime.net.roundtrip_us", "us", false),
    layer("runtime.net.wire_us", "us", false),
    layer("runtime.net.frame_decode_us", "us", false),
    layer("runtime.net.frame_encode_us", "us", false),
    layer("runtime.net.latency_p99_us", "us", false),
    layer("runtime.net.connect_us", "us", false),
    layer("runtime.net.close_us", "us", false),
    layer("runtime.subscribe.cycle_p50_ms", "ms", false),
    layer("runtime.subscribe.cycle_p95_ms", "ms", false),
    layer("runtime.subscribe.cycle_late_ms", "ms", false),
    layer("runtime.subscribe.refresh_us", "us", false),
    layer("runtime.subscribe.poll_us", "us", false),
    layer("runtime.subscribe.refresh_calls_per_pass", "calls", false),
    layer("runtime.subscribe.changed_per_pass", "count", false),
    layer("runtime.subscribe.delta_rows_per_pass", "count", false),
    layer("runtime.subscribe.sub_results_retained", "count", true),
    layer("obs.tracing_cost_pct", "%", false),
    layer("bench.trace_overhead_pct", "%", false),
    layer("budget.steps_us", "us", false),
    layer("budget.gap_pct", "%", false),
];

/// Whether `name` fits the contract's name rule: at most 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the contract's unit rule.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn better(m: &MetricDef) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"benchmark\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            better(m),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            better(m)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// One run's reported values, in the order of the metric table they
/// were measured for.
pub type Values = Vec<(&'static str, f64)>;

/// The last stdout line of a run: the contract's result object.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in defs.iter().enumerate() {
        let value = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
            .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
        let sep = if i + 1 < defs.len() { ", " } else { "" };
        // `{}` on an f64 prints the shortest text that reads back
        // exactly: every measured digit, and never `NaN`/`inf` here
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}{sep}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Result files (`--out`) hold one `workload<TAB>metric<TAB>value` line
/// per run and metric; repeated runs repeat the key.
pub fn parse_results(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let mut cols = line.split('\t');
        match (cols.next(), cols.next(), cols.next().map(str::parse::<f64>)) {
            (Some(w), Some(m), Some(Ok(v))) => {
                out.entry((w.to_string(), m.to_string()))
                    .or_default()
                    .push(v);
            }
            _ => {
                return Err(format!(
                    "line {}: expected workload<TAB>metric<TAB>value",
                    n + 1
                ))
            }
        }
    }
    Ok(out)
}

/// The verdict on one workload × end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The second median is no worse than the first by more than the bound.
    Ok,
    /// It is worse by more than the bound.
    Regressed,
    /// The first file's own runs spread wider than the bound (or a side
    /// is missing), and the second's runs do not all beat the first's.
    Unresolved,
}

/// Judges `b` against `a` for one metric: medians under `bound`, unless
/// `a`'s own quartile spread exceeds the bound — then only "every run
/// of `b` better than every run of `a`" resolves it.
pub fn judge(m: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.expect("judged metrics carry a bound");
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    // judge as if lower were better: negate a higher-is-better metric
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let mut a: Vec<f64> = a.iter().map(|v| sign * v).collect();
    let mut b: Vec<f64> = b.iter().map(|v| sign * v).collect();
    let (ma, mb) = (median(&mut a), median(&mut b));
    let spread = if a.len() >= 4 && ma != 0.0 {
        (percentile(&a, 0.75) - percentile(&a, 0.25)) / ma.abs()
    } else {
        0.0
    };
    let all_better = b[b.len() - 1] < a[0];
    let worse_by = (mb - ma) / ma.abs();
    if spread > bound {
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints one verdict row per workload × end-to-end metric; returns how
/// many regressed.
pub fn compare(a: &str, b: &str) -> Result<usize, String> {
    let (a, b) = (parse_results(a)?, parse_results(b)?);
    let mut regressed = 0;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "median(a)", "median(b)", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let mut va = a.get(&key).cloned().unwrap_or_default();
            let mut vb = b.get(&key).cloned().unwrap_or_default();
            let verdict = judge(m, &va, &vb);
            if verdict == Verdict::Regressed {
                regressed += 1;
            }
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>6}  {}",
                w.name,
                m.name,
                median(&mut va),
                median(&mut vb),
                m.bound.expect("end-to-end metrics carry a bound"),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "{name:?} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)) && valid_name(&"x".repeat(64)));
        assert!(!valid_unit("µs") && valid_unit("ops/s") && valid_unit("%"));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark --manifest`"
        );
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let defs = [
            e2e("setup_s", "s", false, 0.25),
            e2e("x.y", "ops/s", true, 0.1),
        ];
        let line = result_json(true, 10, 0, &defs, &vec![("x.y", 2.5), ("setup_s", 0.125)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"x.y\": {\"value\": 2.5, \"unit\": \"ops/s\"}}}"
        );
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let lower = e2e("l", "us", false, 0.10);
        let higher = e2e("h", "ops/s", true, 0.10);
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(&lower, &tight, &[105.0, 106.0, 104.0]), Verdict::Ok);
        assert_eq!(
            judge(&lower, &tight, &[115.0, 116.0, 114.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, &tight, &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(judge(&higher, &tight, &[115.0, 116.0, 114.0]), Verdict::Ok);
        let wide = [100.0, 140.0, 70.0, 125.0, 80.0];
        assert_eq!(
            judge(&lower, &wide, &[100.0, 90.0, 110.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(&lower, &wide, &[60.0, 65.0, 69.0]), Verdict::Ok);
        assert_eq!(judge(&lower, &[], &[1.0]), Verdict::Unresolved);
    }

    #[test]
    fn result_files_round_trip() {
        let parsed = parse_results("w\tm\t1.5\nw\tm\t2.5\n\nw\tn\t3\n").expect("parses");
        assert_eq!(parsed[&("w".to_string(), "m".to_string())], vec![1.5, 2.5]);
        assert_eq!(parsed[&("w".to_string(), "n".to_string())], vec![3.0]);
        assert!(parse_results("w\tm\n").is_err());
    }
}
