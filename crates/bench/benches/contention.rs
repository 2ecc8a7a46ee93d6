//! Shared-state contention: throughput scaling of concurrent workers
//! over one `Arc<SharedServiceState>` on a shared-cache-heavy workload.
//!
//! Each worker owns a [`ServiceGateway`] bound to the same shared state
//! (the `mdq-runtime` serving topology) and alternates between a hot
//! phase — fetches against a small shared working set that stays
//! resident in the sharded page cache, so every fetch is a cache hit
//! taking a shard lock — and one cold fetch of a fresh key, whose
//! simulated service latency the worker sleeps for real (scaled). Like
//! the paper's web services, the workload is latency-dominated:
//! overlapping the waits is where concurrent throughput comes from, and
//! the shared-state locks are what could serialise it away.
//!
//! Measures a fixed total of operations split over 1 / 2 / 4 / 8
//! workers, plus hot-only (no-sleep) passes that isolate lock-wait from
//! work time. Gauges record the 8-worker speedup and the lock-wait
//! estimate; `BENCH_contention.json` lands at the workspace root.

use mdq_bench::harness::Bench;
use mdq_exec::cache::CacheSetting;
use mdq_exec::gateway::SharedServiceState;
use mdq_exec::ExecContext;
use mdq_model::binding::ApChoice;
use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq_model::value::Value;
use mdq_plan::builder::{build_plan, StrategyRule};
use mdq_plan::dag::Plan;
use mdq_plan::poset::Poset;
use mdq_services::domains::travel::{travel_world, TravelWorld};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Total operations per measured pass, split across the workers.
const TOTAL_OPS: usize = 192;
/// Hot cache-hit fetches per operation.
const HOT_FETCHES: usize = 24;
/// Distinct keys in the shared hot working set.
const HOT_KEYS: usize = 32;
/// Real seconds slept per simulated second of cold-call latency.
const TIME_SCALE: f64 = 1e-3;

fn chain_plan(world: &TravelWorld) -> Plan {
    let poset = Poset::from_pairs(
        4,
        &[
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_FLIGHT, ATOM_HOTEL),
        ],
    )
    .expect("valid");
    build_plan(
        Arc::new(world.query.clone()),
        &world.schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("builds")
}

fn hot_key(slot: usize) -> Vec<Value> {
    vec![Value::str(format!("hot-topic-{:02}", slot % HOT_KEYS))]
}

/// Runs `TOTAL_OPS` operations split over `workers` threads against the
/// shared state. `sleep_cold` turns the per-operation cold fetch (and
/// its scaled latency sleep) on or off — off isolates pure shard-lock
/// work for the lock-wait gauge.
fn run_pass(
    world: &TravelWorld,
    plan: &Plan,
    shared: &Arc<SharedServiceState>,
    fresh: &AtomicU64,
    workers: usize,
    sleep_cold: bool,
) {
    let per_worker = TOTAL_OPS / workers;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let shared = Arc::clone(shared);
            scope.spawn(move || {
                let mut g = ExecContext::shared(shared)
                    .gateway(plan, &world.schema, &world.registry)
                    .expect("gateway builds");
                for i in 0..per_worker {
                    for j in 0..HOT_FETCHES {
                        let f = g.fetch_page(world.ids.conf, 0, &hot_key(i * 7 + j * 3 + w), 0);
                        assert!(f.fault.is_none(), "healthy services");
                        assert!(f.forwarded_latency.is_none(), "hot keys stay cached");
                    }
                    if sleep_cold {
                        let key = vec![Value::str(format!(
                            "cold-topic-{}",
                            fresh.fetch_add(1, Ordering::Relaxed)
                        ))];
                        let f = g.fetch_page(world.ids.conf, 0, &key, 0);
                        assert!(f.fault.is_none(), "healthy services");
                        let latency = f.forwarded_latency.expect("fresh keys forward");
                        std::thread::sleep(Duration::from_secs_f64(latency * TIME_SCALE));
                    }
                }
            });
        }
    });
}

/// The median of `name`'s timed batches — the gauges below are ratios
/// of medians, so one descheduled batch cannot move them.
fn median_ns(bench: &Bench, name: &str) -> Option<u128> {
    bench
        .results()
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.median_ns)
}

/// Pre-warms the hot working set so every measured hot fetch is a hit.
fn warm(world: &TravelWorld, plan: &Plan, shared: &Arc<SharedServiceState>) {
    let mut g = ExecContext::shared(Arc::clone(shared))
        .gateway(plan, &world.schema, &world.registry)
        .expect("gateway builds");
    for slot in 0..HOT_KEYS {
        g.fetch_page(world.ids.conf, 0, &hot_key(slot), 0);
    }
}

fn main() {
    let bench = Bench::from_args();
    let world = travel_world(2008);
    let plan = chain_plan(&world);
    // unbounded memoizing cache: the sharded layout, no flow limit
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
    let fresh = AtomicU64::new(0);
    warm(&world, &plan, &shared);

    for workers in [1usize, 2, 4, 8] {
        bench.measure(
            &format!("contention/{TOTAL_OPS}-ops/{workers}-workers"),
            || run_pass(&world, &plan, &shared, &fresh, workers, true),
        );
    }
    for workers in [1usize, 8] {
        bench.measure(
            &format!("contention/hot-only/{TOTAL_OPS}-ops/{workers}-workers"),
            || run_pass(&world, &plan, &shared, &fresh, workers, false),
        );
    }

    // the same hot-only pass with a span recorder attached: what
    // *enabling* tracing costs per cache hit. The untraced passes above
    // run the identical instrumented code with the recorder absent —
    // their ns-per-hot-fetch gauge is the tracing-disabled overhead
    // pin, directly comparable against the pre-instrumentation baseline
    // committed in BENCH_contention.json.
    let traced_shared = Arc::new(
        SharedServiceState::new(CacheSetting::Optimal, 0)
            .with_trace(mdq_exec::prelude::TraceRecorder::new()),
    );
    warm(&world, &plan, &traced_shared);
    bench.measure(
        &format!("contention/hot-only-traced/{TOTAL_OPS}-ops/1-workers"),
        || run_pass(&world, &plan, &traced_shared, &fresh, 1, false),
    );

    // speedup of the full workload at 8 workers vs 1 (percent; 800 is
    // ideal latency overlap, ≥200 is the regression floor)
    if let (Some(t1), Some(t8)) = (
        median_ns(&bench, &format!("contention/{TOTAL_OPS}-ops/1-workers")),
        median_ns(&bench, &format!("contention/{TOTAL_OPS}-ops/8-workers")),
    ) {
        bench.gauge(
            "contention/speedup/8-workers-vs-1",
            (t1 * 100 / t8.max(1)) as u64,
            "percent",
        );
    }
    // lock-wait vs work: the hot-only pass does nothing but shard-lock
    // acquisitions and cache reads, so the 8-worker excess over the
    // uncontended single worker estimates time lost to the locks
    if let (Some(w1), Some(w8)) = (
        median_ns(
            &bench,
            &format!("contention/hot-only/{TOTAL_OPS}-ops/1-workers"),
        ),
        median_ns(
            &bench,
            &format!("contention/hot-only/{TOTAL_OPS}-ops/8-workers"),
        ),
    ) {
        let fetches = (TOTAL_OPS * HOT_FETCHES) as u128;
        bench.gauge(
            "contention/work/ns-per-hot-fetch",
            (w1 / fetches) as u64,
            "ns",
        );
        bench.gauge(
            "contention/lock-wait/ns-per-hot-fetch/8-workers",
            (w8.saturating_sub(w1) / fetches) as u64,
            "ns",
        );
        // tracing-enabled cost relative to the untraced hot path
        // (percent; 100 = free)
        if let Some(t1) = median_ns(
            &bench,
            &format!("contention/hot-only-traced/{TOTAL_OPS}-ops/1-workers"),
        ) {
            bench.gauge(
                "contention/tracing-enabled-cost/percent-of-untraced",
                (t1 * 100 / w1.max(1)) as u64,
                "percent",
            );
        }
    }

    bench.write_json("contention");
}
