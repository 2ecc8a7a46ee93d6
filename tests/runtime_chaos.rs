//! Chaos stress for the `mdq-runtime` serving layer: an 8-worker
//! [`QueryServer`] over flaky services.
//!
//! Invariants pinned here:
//! * the 20-query flaky workload **completes** — zero hung sessions
//!   (a watchdog fails the test instead of letting CI time out), zero
//!   hard failures, and at least one `PartialResults` completion;
//! * the shared [`PageCache`] never serves a tuple from a failed page —
//!   a degraded page stays empty and is answered from the failed-page
//!   memo, not the cache;
//! * the server's retry/timeout metrics reconcile exactly with the
//!   shared gateway state's fault accounting *and* with the per-session
//!   statistics the workers reported.
//!
//! [`PageCache`]: mdq::exec::cache::PageCache

use mdq::cost::metrics::ExecutionTime;
use mdq::exec::gateway::RetryPolicy;
use mdq::exec::ExecContext;
use mdq::model::value::Value;
use mdq::optimizer::bnb::OptimizerConfig;
use mdq::runtime::session::QueryStats;
use mdq::services::domains::travel::travel_world;
use mdq::services::domains::World;
use mdq::services::fault::{FaultConfig, FaultPlan, FaultProfile, PlannedFault};
use mdq::{Mdq, QueryServer, RuntimeConfig};
use std::sync::mpsc;
use std::time::Duration;

const K: u64 = 5;

fn travel_query(topic: &str, budget: u32) -> String {
    format!(
        "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('{topic}', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < {budget}.0."
    )
}

/// A travel engine whose services are flaky:
/// * `conf` *always* fails for topic `'AI'` (a permanently dead
///   endpoint) while staying healthy for `'DB'`;
/// * `weather` and `flight` fault probabilistically (seeded), at rates
///   the default retry policy absorbs.
fn flaky_engine() -> Mdq {
    let mut w = travel_world(2008);
    let conf = w.ids.conf;
    let inner = w.registry.get(conf).expect("conf").clone();
    w.registry.register(
        conf,
        FaultProfile::scripted(
            inner,
            FaultPlan::new().fail_inputs(vec![Value::str("AI")], u32::MAX, PlannedFault::Timeout),
        ),
    );
    for id in [w.ids.weather, w.ids.flight] {
        let inner = w.registry.get(id).expect("registered").clone();
        let cfg = FaultConfig::seeded(0xC0FFEE ^ id.0 as u64)
            .with_errors(0.05)
            .with_rate_limits(0.03);
        w.registry.register(id, FaultProfile::seeded(inner, cfg));
    }
    Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    })
}

/// Runs `f` on its own thread, panicking if it does not finish within
/// `secs` — the "zero hung sessions" watchdog.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(secs))
        .expect("chaos workload hung: a session never completed");
    handle.join().expect("workload thread");
    out
}

#[test]
fn flaky_workload_completes_with_partials_and_reconciled_metrics() {
    let server = QueryServer::new(
        flaky_engine(),
        RuntimeConfig {
            workers: 8,
            per_service_concurrency: 2,
            retry: RetryPolicy::retries(3),
            ..RuntimeConfig::default()
        },
    );

    // 20 concurrent queries: 16 healthy-topic ('DB', mixed budgets so
    // several distinct plans contend) + 4 against the dead 'AI' topic
    let (all_stats, healthy_answer_counts) = {
        let sessions: Vec<(bool, _)> = (0..20)
            .map(|i| {
                if i % 5 == 4 {
                    (false, server.submit(&travel_query("AI", 2000), Some(K)))
                } else {
                    let budget = 1400 + 200 * (i as u32 % 4);
                    (true, server.submit(&travel_query("DB", budget), Some(K)))
                }
            })
            .collect();
        with_watchdog(120, move || {
            let mut stats: Vec<QueryStats> = Vec::new();
            let mut healthy_counts = Vec::new();
            for (healthy, session) in sessions {
                let result = session.collect().expect("no hard failures under chaos");
                if healthy {
                    healthy_counts.push(result.answers.len());
                    assert!(
                        !result.is_partial(),
                        "retries(3) absorb the seeded fault rates: {:?}",
                        result.stats.degraded_services
                    );
                } else {
                    assert!(result.is_partial(), "the dead topic must degrade");
                    assert_eq!(
                        result.stats.degraded_services,
                        vec!["conf".to_string()],
                        "partial results name the degraded service"
                    );
                    assert!(result.answers.is_empty(), "conf fed every downstream atom");
                }
                stats.push(result.stats);
            }
            (stats, healthy_counts)
        })
    };

    // every healthy query produced its k answers despite the faults
    assert!(
        healthy_answer_counts.iter().all(|&n| n == K as usize),
        "flaky-but-recovering services still serve k answers: {healthy_answer_counts:?}"
    );

    let m = server.metrics();
    assert_eq!((m.submitted, m.completed, m.failed), (20, 20, 0));
    assert!(
        m.partial_completions >= 4,
        "at least the four dead-topic queries completed partially: {}",
        m.partial_completions
    );

    // reconciliation 1: server counters == shared gateway accounting
    let shared = server.shared_state().total_fault_stats();
    assert_eq!(m.retries, shared.retries, "metrics vs gateway retries");
    assert_eq!(m.timeouts, shared.timeouts, "metrics vs gateway timeouts");
    assert_eq!(
        m.rate_limited, shared.rate_limited,
        "metrics vs gateway rate limits"
    );

    // reconciliation 2: per-session statistics sum to the same totals
    let session_retries: u64 = all_stats.iter().map(|s| s.retries).sum();
    let session_timeouts: u64 = all_stats.iter().map(|s| s.timeouts).sum();
    assert_eq!(
        session_retries, shared.retries,
        "sessions vs gateway retries"
    );
    assert_eq!(
        session_timeouts, shared.timeouts,
        "sessions vs gateway timeouts"
    );
    // the dead endpoint really timed out (and was retried) at least
    // once per distinct failing page
    assert!(
        shared.timeouts >= 4,
        "dead-topic timeouts: {}",
        shared.timeouts
    );

    server.shutdown();
}

#[test]
fn shared_cache_never_stores_tuples_from_failed_pages() {
    let server = QueryServer::new(
        flaky_engine(),
        RuntimeConfig {
            workers: 8,
            ..RuntimeConfig::default()
        },
    );
    // drive the dead topic (and a healthy one) through the server
    let sessions: Vec<_> = (0..8)
        .map(|i| {
            let topic = if i % 2 == 0 { "AI" } else { "DB" };
            server.submit(&travel_query(topic, 2000), Some(K))
        })
        .collect();
    with_watchdog(120, move || {
        for s in sessions {
            let _ = s.collect().expect("completes");
        }
    });

    // probe the shared state directly: the failed conf('AI') page must
    // come back degraded from the failed-page memo — empty, with no
    // forwarded call — never as a cache hit with fabricated tuples
    let engine = server.engine();
    let query = engine.parse(&travel_query("AI", 2000)).expect("parses");
    let plan = engine
        .optimize(query, &ExecutionTime, OptimizerConfig::default())
        .expect("optimizes")
        .candidate
        .plan;
    let conf = engine.schema().service_by_name("conf").expect("conf id");
    let mut probe = ExecContext::shared(std::sync::Arc::clone(server.shared_state()))
        .gateway(&plan, engine.schema(), engine.registry())
        .expect("builds");
    let calls_before = server.shared_state().total_calls();
    let fetch = probe.fetch_page(conf, 0, &[Value::str("AI")], 0);
    assert!(fetch.tuples.is_empty(), "no fabricated tuples");
    assert!(fetch.fault.is_some(), "the memo preserves the fault");
    assert!(
        fetch.forwarded_latency.is_none(),
        "served without forwarding"
    );
    assert_eq!(
        server.shared_state().total_calls(),
        calls_before,
        "the probe forwarded nothing"
    );
    // ground truth: the underlying table does hold 'AI' rows — only the
    // fault kept them out of the cache
    let raw = engine
        .registry()
        .get(conf)
        .expect("conf")
        .fetch(0, &[Value::str("AI")], 0);
    assert!(
        !raw.tuples.is_empty(),
        "the fault-free view proves the page would have had tuples"
    );

    // and the healthy topic's pages are genuine cache hits
    let healthy = probe.fetch_page(conf, 0, &[Value::str("DB")], 0);
    assert!(healthy.fault.is_none());
    assert!(!healthy.tuples.is_empty());
    assert!(healthy.forwarded_latency.is_none(), "cache hit");

    server.shutdown();
}

/// Determinism at the serving layer: two identically-configured servers
/// given the same (sequentialised) workload agree on every session's
/// retry/timeout accounting and on the cumulative fault totals.
#[test]
fn chaos_accounting_replays_across_servers() {
    let run_once = || {
        let server = QueryServer::new(
            flaky_engine(),
            RuntimeConfig {
                workers: 1, // sequential: identical global call order
                retry: RetryPolicy::retries(3),
                ..RuntimeConfig::default()
            },
        );
        let stats: Vec<(u64, u64, Vec<String>)> = (0..6)
            .map(|i| {
                let topic = if i % 3 == 2 { "AI" } else { "DB" };
                let s = server
                    .submit(&travel_query(topic, 2000), Some(K))
                    .collect()
                    .expect("completes")
                    .stats;
                (s.retries, s.timeouts, s.degraded_services)
            })
            .collect();
        let totals = server.shared_state().total_fault_stats();
        server.shutdown();
        (stats, totals)
    };
    let (a, at) = with_watchdog(120, run_once);
    let (b, bt) = with_watchdog(120, run_once);
    assert_eq!(a, b, "per-session accounting replays");
    assert_eq!(at, bt, "cumulative accounting replays");
}
