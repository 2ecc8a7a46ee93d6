//! Concurrent-correctness stress tests for the `mdq-runtime` serving
//! layer, including the amortization acceptance check: a workload of
//! repeated-shape queries through the [`QueryServer`] must cost ≥ 2×
//! fewer service calls *and* ≥ 2× fewer optimizer invocations than the
//! same queries as independent single-query runs — with identical
//! answers.

use mdq::cost::metrics::ExecutionTime;
use mdq::exec::cache::CacheSetting;
use mdq::exec::gateway::SharedServiceState;
use mdq::exec::pipeline::ExecConfig;
use mdq::exec::ExecContext;
use mdq::model::value::{Tuple, Value};
use mdq::optimizer::bnb::OptimizerConfig;
use mdq::services::domains::travel::travel_world;
use mdq::services::domains::World;
use mdq::{Mdq, QueryServer, RuntimeConfig};
use std::sync::Arc;

const K: u64 = 5;

fn travel_engine() -> Mdq {
    let w = travel_world(2008);
    Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    })
}

fn travel_query(budget: u32) -> String {
    format!(
        "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < {budget}.0."
    )
}

/// One independent single-query run, configured exactly like the
/// server's execution path (same optimizer metric/k/cache setting), on
/// its own private gateway state. Returns (answers, forwarded calls).
fn independent_run(engine: &Mdq, text: &str) -> (Vec<Tuple>, u64) {
    let query = engine.parse(text).expect("parses");
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
    let report = engine
        .execute(
            &optimized.candidate.plan,
            &ExecConfig {
                k: Some(K as usize),
                ..ExecConfig::default()
            },
            ExecContext::private(CacheSetting::Optimal),
        )
        .expect("executes");
    (report.answers.clone(), report.calls.values().sum())
}

#[test]
fn concurrent_identical_queries_match_sequential_answers() {
    let engine = travel_engine();
    let text = travel_query(2000);
    let (expected, _) = independent_run(&engine, &text);
    assert_eq!(expected.len(), K as usize, "baseline produces k answers");

    let server = QueryServer::new(
        travel_engine(),
        RuntimeConfig {
            workers: 8,
            per_service_concurrency: 2,
            ..RuntimeConfig::default()
        },
    );
    let sessions: Vec<_> = (0..12).map(|_| server.submit(&text, Some(K))).collect();
    for session in sessions {
        let result = session.collect().expect("runs");
        assert_eq!(
            result.answers, expected,
            "a concurrent run returned different answers than the sequential baseline"
        );
    }
    let m = server.metrics();
    assert_eq!((m.completed, m.failed), (12, 0));
}

#[test]
fn concurrent_mixed_shapes_match_sequential_answers() {
    // four distinct templates (different constants ⇒ different plans,
    // different page demands) × 5 submissions each, all in flight at
    // once over one shared state
    let engine = travel_engine();
    let budgets = [1400u32, 1600, 1800, 2000];
    let expected: Vec<Vec<Tuple>> = budgets
        .iter()
        .map(|&b| independent_run(&engine, &travel_query(b)).0)
        .collect();

    let server = QueryServer::new(
        travel_engine(),
        RuntimeConfig {
            workers: 8,
            ..RuntimeConfig::default()
        },
    );
    let sessions: Vec<(usize, _)> = (0..20)
        .map(|i| {
            let which = i % budgets.len();
            (which, server.submit(&travel_query(budgets[which]), Some(K)))
        })
        .collect();
    for (which, session) in sessions {
        let result = session.collect().expect("runs");
        assert_eq!(
            result.answers, expected[which],
            "budget {} answers diverged under contention",
            budgets[which]
        );
    }
    assert_eq!(server.metrics().failed, 0);
}

#[test]
fn amortizes_calls_and_optimizer_invocations_2x() {
    // the acceptance criterion: 20 repeated-shape queries, server vs.
    // 20 independent single-query runs
    let text = travel_query(2000);

    // independent: every run parses, optimizes and executes on its own
    let engine = travel_engine();
    let mut independent_calls = 0u64;
    let mut expected: Option<Vec<Tuple>> = None;
    for _ in 0..20 {
        let (answers, calls) = independent_run(&engine, &text);
        independent_calls += calls;
        match &expected {
            Some(e) => assert_eq!(e, &answers, "independent runs are deterministic"),
            None => expected = Some(answers),
        }
    }
    let expected = expected.expect("twenty runs");
    let independent_optimizations = 20u64;

    // server: same twenty queries, concurrently, one shared state
    let server = QueryServer::new(travel_engine(), RuntimeConfig::default());
    let sessions: Vec<_> = (0..20).map(|_| server.submit(&text, Some(K))).collect();
    for session in sessions {
        let result = session.collect().expect("runs");
        assert_eq!(result.answers, expected, "identical answer sets");
    }
    let m = server.metrics();
    assert_eq!((m.completed, m.failed), (20, 0));
    assert!(
        m.total_service_calls * 2 <= independent_calls,
        "server forwarded {} calls, independent runs {} — expected ≥ 2× fewer",
        m.total_service_calls,
        independent_calls
    );
    assert!(
        m.optimizer_invocations * 2 <= independent_optimizations,
        "server optimized {}×, independent {}× — expected ≥ 2× fewer",
        m.optimizer_invocations,
        independent_optimizations
    );
    assert_eq!(
        m.optimizer_invocations, 1,
        "single-flight: one template, one optimization"
    );
}

#[test]
fn shared_page_cache_never_fabricates_or_drops_pages() {
    // 8 threads page through a chunked search service via gateways over
    // one shared state while also hammering a second key — every page
    // anyone observes must equal the uncontended reference stream
    let engine = Arc::new(Mdq::from_world(
        mdq::services::domains::bibliography::bibliography_world(7),
    ));
    let query = engine
        .parse(
            "q(Author, Title) :- pubsearch('service computing', Author, Title, Y, C), \
             projects(Author, P, 'FP7', F).",
        )
        .expect("parses");
    let plan = Arc::new(
        engine
            .optimize(query, &ExecutionTime, OptimizerConfig::default())
            .expect("optimizes")
            .candidate
            .plan,
    );
    let pubsearch = engine.schema().service_by_name("pubsearch").expect("id");
    let keys = [
        vec![Value::str("service computing")],
        vec![Value::str("data integration")],
    ];
    const PAGES: u32 = 4;

    // uncontended reference stream, private state
    let mut reference = ExecContext::private(CacheSetting::Optimal)
        .gateway(&plan, engine.schema(), engine.registry())
        .expect("builds");
    let expected: Vec<Vec<Vec<Tuple>>> = keys
        .iter()
        .map(|key| {
            (0..PAGES)
                .map(|p| reference.fetch_page(pubsearch, 0, key, p).tuples)
                .collect()
        })
        .collect();

    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 2));
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let engine = Arc::clone(&engine);
            let plan = Arc::clone(&plan);
            let shared = Arc::clone(&shared);
            let keys = &keys;
            let expected = &expected;
            scope.spawn(move || {
                let mut g = ExecContext::shared(shared)
                    .gateway(&plan, engine.schema(), engine.registry())
                    .expect("builds");
                // pages are demanded in order per key (as the Invoke
                // operator does), but workers interleave the keys
                // differently, so stores and waits contend
                for page in 0..PAGES {
                    for k in 0..keys.len() {
                        let ki = (k + worker) % keys.len();
                        let fetch = g.fetch_page(pubsearch, 0, &keys[ki], page);
                        assert_eq!(
                            fetch.tuples, expected[ki][page as usize],
                            "worker {worker} saw a wrong page (key {ki}, page {page})"
                        );
                    }
                }
            });
        }
    });
    // single-flight + optimal cache: each distinct page forwarded once
    assert_eq!(
        shared.total_calls(),
        keys.len() as u64 * PAGES as u64,
        "no duplicated and no dropped forwards under contention"
    );
}

#[test]
fn metrics_sampled_mid_flight_reconcile_exactly() {
    // one merged ledger snapshot per `metrics()` call: the total and the
    // per-service split come from the same instant, so they must agree
    // on EVERY sample — including the ones taken while 4 workers are in
    // the middle of forwarding calls (no page cache: every query
    // forwards its whole demand, so the ledger moves throughout)
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;
    let server = QueryServer::new(
        travel_engine(),
        RuntimeConfig {
            workers: 4,
            cache: CacheSetting::NoCache,
            ..RuntimeConfig::default()
        },
    );
    let text = travel_query(2000);
    // samples taken, and how many of them saw the ledger move since
    // the previous one (proof the sampler overlapped forwarding)
    let (samples, moving) = (AtomicU64::new(0), AtomicU64::new(0));
    // each round of load meets the sampler twice: once its queries are
    // submitted, and once they are collected — so every round is
    // sampled while its queries run, however the threads are scheduled
    let (submitted, collected) = (Barrier::new(2), AtomicBool::new(false));
    let load_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut last = 0u64;
            loop {
                submitted.wait();
                if load_done.load(Ordering::SeqCst) {
                    break;
                }
                // at least one sample per round, the first one mid-flight
                loop {
                    let m = server.metrics();
                    let split: u64 = m.per_service_calls.iter().map(|(_, n)| n).sum();
                    assert_eq!(
                        m.total_service_calls, split,
                        "total vs per-service calls, sampled mid-flight"
                    );
                    let split: f64 = m.per_service_latency.iter().map(|(_, l)| l.total).sum();
                    assert!(
                        (split - m.total_service_latency).abs()
                            < 1e-9 * m.total_service_latency.max(1.0),
                        "per-service latency {split} vs total {}",
                        m.total_service_latency
                    );
                    moving.fetch_add(u64::from(m.total_service_calls != last), Ordering::SeqCst);
                    last = m.total_service_calls;
                    samples.fetch_add(1, Ordering::SeqCst);
                    if collected.load(Ordering::SeqCst) {
                        break;
                    }
                }
                submitted.wait();
            }
        });
        // keep 4 workers forwarding until the sampler has what it needs
        // (bounded, so a sampler that never overlaps fails, not hangs)
        for _round in 0..400 {
            if samples.load(Ordering::SeqCst) >= 200 && moving.load(Ordering::SeqCst) >= 50 {
                break;
            }
            collected.store(false, Ordering::SeqCst);
            let sessions: Vec<_> = (0..8).map(|_| server.submit(&text, Some(K))).collect();
            submitted.wait();
            for session in sessions {
                session.collect().expect("runs");
            }
            collected.store(true, Ordering::SeqCst);
            submitted.wait();
        }
        load_done.store(true, Ordering::SeqCst);
        submitted.wait();
    });
    assert!(samples.load(Ordering::SeqCst) >= 200);
    assert!(
        moving.load(Ordering::SeqCst) >= 50,
        "the sampler never overlapped the load"
    );
}
