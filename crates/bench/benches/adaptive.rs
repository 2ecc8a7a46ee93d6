//! Adaptive re-optimization vs. the frozen plan on the deliberately
//! mis-estimated catalog workload, plus the no-divergence overhead
//! check on its truthful twin.
//!
//! Besides wall time per execution, the entry *names* and a set of
//! gauges carry the forwarded-call totals (the cost metric the paper
//! optimizes) and the re-plan counts, so the committed
//! `BENCH_adaptive.json` records the adaptive win: on the mis-estimated
//! workload the adaptive run must complete with strictly fewer total
//! service calls than the frozen plan, and on the well-estimated one it
//! must spend exactly the frozen bill (zero re-plans, zero overhead).
//! The gauges are deterministic; CI holds them `equal` to the committed
//! values (`gauge_gate.py adaptive equal`).
//!
//! Emits `BENCH_adaptive.json` at the workspace root.

use mdq_bench::harness::Bench;
use mdq_core::Mdq;
use mdq_cost::divergence::AdaptiveConfig;
use mdq_cost::estimate::CacheSetting;
use mdq_cost::metrics::ExecutionTime;
use mdq_exec::cache::CacheSetting as ExecCache;
use mdq_exec::gateway::SharedServiceState;
use mdq_exec::pipeline::{run, ExecConfig};
use mdq_exec::ExecContext;
use mdq_optimizer::bnb::OptimizerConfig;
use mdq_services::domains::catalog::catalog_world;
use std::sync::Arc;

const QUERY: &str = "q(Item, Part, Vendor, Price) :- seed('widgets', Item), \
     parts(Item, Part), offers(Part, Vendor, Price), Price <= 100.0.";
const K: u64 = 10;

fn engine(mis_estimated: bool) -> Mdq {
    Mdq::from_world(catalog_world(mis_estimated).world)
}

/// One frozen full execution over a fresh memoizing state; returns the
/// forwarded-call total.
fn frozen_run(engine: &Mdq) -> u64 {
    let query = engine.parse(QUERY).expect("parses");
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: K,
                cache: CacheSetting::Optimal,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
    let report = run(
        &optimized.candidate.plan,
        engine.schema(),
        engine.registry(),
        &ExecConfig {
            k: Some(K as usize),
            ..ExecConfig::default()
        },
        ExecContext::shared(shared),
    )
    .expect("executes");
    report.calls.values().sum()
}

/// One adaptive execution (optimize + adaptive stage driver); returns
/// (forwarded calls, re-plans).
fn adaptive_run(engine: &Mdq) -> (u64, u32) {
    let out = engine
        .run_adaptive(QUERY, K, &AdaptiveConfig::default())
        .expect("executes");
    (out.report.calls.values().sum(), out.report.replans)
}

fn main() {
    let bench = Bench::from_args();

    let mis = engine(true);
    let truthful = engine(false);

    // measured once up front so the call totals label the entries
    let frozen_mis = frozen_run(&mis);
    let (adaptive_mis, replans_mis) = adaptive_run(&mis);
    let frozen_ok = frozen_run(&truthful);
    let (adaptive_ok, replans_ok) = adaptive_run(&truthful);
    assert!(replans_mis >= 1, "the mis-estimate must force a re-plan");
    assert!(
        adaptive_mis < frozen_mis,
        "adaptive ({adaptive_mis} calls) must beat frozen ({frozen_mis})"
    );
    assert_eq!(replans_ok, 0, "truthful estimates must not re-plan");
    assert_eq!(
        adaptive_ok, frozen_ok,
        "below-threshold divergence must cost nothing"
    );
    for (world, frozen, adaptive, replans) in [
        ("mis-estimated", frozen_mis, adaptive_mis, replans_mis),
        ("well-estimated", frozen_ok, adaptive_ok, replans_ok),
    ] {
        bench.gauge(&format!("adaptive/{world}/frozen-calls"), frozen, "calls");
        bench.gauge(
            &format!("adaptive/{world}/adaptive-calls"),
            adaptive,
            "calls",
        );
        bench.gauge(
            &format!("adaptive/{world}/adaptive-replans"),
            u64::from(replans),
            "replans",
        );
    }

    bench.measure(
        &format!("adaptive/mis-estimated/frozen/{frozen_mis}-calls"),
        || frozen_run(&mis),
    );
    bench.measure(
        &format!("adaptive/mis-estimated/adaptive/{adaptive_mis}-calls-{replans_mis}-replans"),
        || adaptive_run(&mis),
    );
    bench.measure(
        &format!("adaptive/well-estimated/frozen/{frozen_ok}-calls"),
        || frozen_run(&truthful),
    );
    bench.measure(
        &format!("adaptive/well-estimated/adaptive/{adaptive_ok}-calls-0-replans"),
        || adaptive_run(&truthful),
    );

    bench.write_json("adaptive");
}
