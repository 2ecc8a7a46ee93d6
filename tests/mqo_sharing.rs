//! Cross-query multi-query optimization, end to end: a batch of
//! concurrent queries sharing a 2-invoke prefix (the running example's
//! `conf('DB', …) → weather` chain) must produce exactly the answers of
//! sequential isolated runs while issuing far fewer total service calls
//! than PR 2's page-cache-only sharing on the same workload — and with
//! batching/sub-results disabled the serving path must behave exactly
//! as before (the counts are pinned relative, not absolute, so the
//! suite is robust to world recalibration; the absolute numbers are
//! committed in `BENCH_mqo.json`).
//!
//! The workload uses the *one-call* cache (§5.1's realistic client
//! cache): concurrent queries cycling twenty weather cities evict each
//! other's single entry per service, so page caching alone cannot
//! absorb the shared prefix — the signature-keyed sub-result store can,
//! because it materializes the prefix's *bindings* once and replays
//! them to every subscriber regardless of page-cache churn.

use mdq::cost::metrics::ExecutionTime;
use mdq::exec::cache::CacheSetting;
use mdq::exec::pipeline::ExecConfig;
use mdq::exec::ExecContext;
use mdq::model::value::Tuple;
use mdq::optimizer::bnb::OptimizerConfig;
use mdq::services::domains::travel::travel_world;
use mdq::services::domains::World;
use mdq::{Mdq, QueryServer, RuntimeConfig};
use std::time::Duration;

const K: u64 = 5;
/// The batch size of the acceptance scenario.
const BATCH: usize = 16;

fn travel_engine() -> Mdq {
    let w = travel_world(2008);
    Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    })
}

/// Sixteen templates sharing the `conf('DB') → weather` invoke prefix:
/// only the price-budget constant differs, and it is applied at the
/// flight ⋈ hotel join — *outside* the prefix — so every member has a
/// distinct fingerprint (no plan-cache collisions) but an identical
/// prefix signature. The budgets sit near the cheapest-package
/// threshold, so every query has to search deep into the shared stream
/// (some exhaust it and return fewer than `k` answers — which the
/// isolated-run comparison must reproduce too).
fn overlapping_queries() -> Vec<String> {
    (0..BATCH)
        .map(|i| {
            let budget = 520 + (i as u32) * 10;
            format!(
                "q(Conf, City, HPrice, FPrice, Hotel) :- \
                 flight('Milano', City, Start, End, ST, ET, FPrice), \
                 hotel(Hotel, City, 'luxury', Start, End, HPrice), \
                 conf('DB', Conf, Start, End, City), \
                 weather(City, Temp, Start), \
                 Start >= '2007/3/14', End <= '2007/3/14' + 180, \
                 Temp >= 28, FPrice + HPrice < {budget}.0."
            )
        })
        .collect()
}

/// One isolated single-query run, configured exactly like the server's
/// execution path (same metric, `k`, one-call cache), on a private
/// gateway state — the paper's one-query-at-a-time semantics.
fn isolated_run(engine: &Mdq, text: &str) -> Vec<Tuple> {
    let query = engine.parse(text).expect("parses");
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: K,
                cache: CacheSetting::OneCall,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    engine
        .execute(
            &optimized.candidate.plan,
            &ExecConfig {
                k: Some(K as usize),
                ..ExecConfig::default()
            },
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes")
        .answers
}

fn one_call_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 8,
        cache: CacheSetting::OneCall,
        ..RuntimeConfig::default()
    }
}

fn mqo_config() -> RuntimeConfig {
    RuntimeConfig {
        sub_results: 64,
        batch_window: Some(Duration::from_millis(25)),
        batch_max: BATCH,
        ..one_call_config()
    }
}

/// Submits the whole workload concurrently and collects every session.
fn drive(server: &QueryServer, queries: &[String]) -> Vec<mdq::runtime::QueryResult> {
    let sessions: Vec<_> = queries.iter().map(|q| server.submit(q, Some(K))).collect();
    sessions
        .into_iter()
        .map(|s| s.collect().expect("runs"))
        .collect()
}

#[test]
fn shared_prefix_batch_saves_40_percent_over_page_cache_only() {
    let queries = overlapping_queries();
    let engine = travel_engine();
    let expected: Vec<Vec<Tuple>> = queries.iter().map(|q| isolated_run(&engine, q)).collect();
    assert!(
        expected.iter().any(|a| !a.is_empty()),
        "the workload produces answers"
    );

    // arm A — PR 2 semantics: shared page cache only
    let baseline = QueryServer::new(travel_engine(), one_call_config());
    let base_results = drive(&baseline, &queries);
    for (r, e) in base_results.iter().zip(&expected) {
        assert_eq!(&r.answers, e, "baseline server matches isolated runs");
    }
    let base_calls = baseline.shared_state().total_calls();
    let bm = baseline.metrics();
    assert_eq!(
        (bm.sub_result_hits, bm.shared_prefix_hits),
        (0, 0),
        "MQO disabled: no sharing counted"
    );

    // arm B — MQO: admission batching + sub-result store
    let mqo = QueryServer::new(travel_engine(), mqo_config());
    let mqo_results = drive(&mqo, &queries);
    for (r, e) in mqo_results.iter().zip(&expected) {
        assert_eq!(
            &r.answers, e,
            "a replayed prefix must yield byte-identical answers"
        );
    }
    let mqo_calls = mqo.shared_state().total_calls();
    assert!(
        mqo_calls * 10 <= base_calls * 6,
        "acceptance: ≥40% fewer calls with prefix sharing \
         (mqo {mqo_calls} vs page-cache-only {base_calls})"
    );

    let m = mqo.metrics();
    assert!(
        m.sub_result_hits >= BATCH as u64 / 2,
        "most of the batch replays the materialized prefix \
         ({} replays)",
        m.sub_result_hits
    );
    assert!(m.sub_result_calls_saved > 0);
    assert!(
        m.shared_prefix_hits > 0,
        "the batcher saw the overlap at admission time"
    );
}

#[test]
fn mqo_accounting_reconciles_exactly_with_the_gateway() {
    let queries = overlapping_queries();
    let server = QueryServer::new(travel_engine(), mqo_config());
    let results = drive(&server, &queries);

    let m = server.metrics();
    let store = server.shared_state().sub_result_stats();

    // per-query attribution == server counters == store counters
    let per_query_hits: u64 = results.iter().map(|r| r.stats.sub_result_hits).sum();
    let per_query_saved: u64 = results.iter().map(|r| r.stats.sub_result_calls_saved).sum();
    assert_eq!(per_query_hits, m.sub_result_hits);
    assert_eq!(per_query_hits, store.hits);
    assert_eq!(per_query_saved, m.sub_result_calls_saved);
    assert_eq!(per_query_saved, store.calls_saved);
    let flagged = results.iter().filter(|r| r.stats.shared_prefix_hit).count() as u64;
    assert_eq!(flagged, m.shared_prefix_hits);

    // the per-service latency satellite: the split sums to the total
    let split: f64 = m.per_service_latency.iter().map(|(_, l)| l.total).sum();
    assert!(
        (split - m.total_service_latency).abs() < 1e-9,
        "per-service latency ({split:.9}) reconciles with the total \
         ({:.9})",
        m.total_service_latency
    );
    assert!(!m.per_service_latency.is_empty());
}

#[test]
fn disabled_mqo_is_byte_for_byte_pr2_serving() {
    // two servers, both with MQO off (the default config): same
    // workload, identical call counts and zero MQO accounting — the
    // sub-result and batching paths must be completely inert
    let queries = overlapping_queries();
    let a = QueryServer::new(travel_engine(), one_call_config());
    let b = QueryServer::new(travel_engine(), one_call_config());
    // sequential submission makes the one-call interleavings (and so
    // the call counts) deterministic per server
    let collect_seq = |server: &QueryServer| -> Vec<Vec<Tuple>> {
        queries
            .iter()
            .map(|q| server.submit(q, Some(K)).collect().expect("runs").answers)
            .collect()
    };
    assert_eq!(collect_seq(&a), collect_seq(&b));
    assert_eq!(
        a.shared_state().total_calls(),
        b.shared_state().total_calls(),
        "disabled MQO is deterministic and identical"
    );
    for server in [&a, &b] {
        let m = server.metrics();
        assert_eq!(m.sub_result_hits, 0);
        assert_eq!(m.sub_result_calls_saved, 0);
        assert_eq!(m.shared_prefix_hits, 0);
        assert_eq!(m.sub_results_materialized, 0);
        assert_eq!(m.sub_result_evictions, 0);
    }
}

#[test]
fn disjoint_prefixes_share_nothing_but_still_answer_correctly() {
    // eight queries whose *start-date constant* differs: that predicate
    // is applied at the chain's first invocation (`conf`), so every
    // prefix level of every member has a distinct signature — batching
    // finds no overlap, nothing replays across members, and answers
    // still match isolated runs
    let queries: Vec<String> = (0..8)
        .map(|i| {
            let day = 10 + i;
            format!(
                "q(Conf, City, HPrice, FPrice, Hotel) :- \
                 flight('Milano', City, Start, End, ST, ET, FPrice), \
                 hotel(Hotel, City, 'luxury', Start, End, HPrice), \
                 conf('DB', Conf, Start, End, City), \
                 weather(City, Temp, Start), \
                 Start >= '2007/3/{day}', End <= '2007/3/14' + 180, \
                 Temp >= 28, FPrice + HPrice < 2000.0."
            )
        })
        .collect();
    let engine = travel_engine();
    let expected: Vec<Vec<Tuple>> = queries.iter().map(|q| isolated_run(&engine, q)).collect();
    let server = QueryServer::new(travel_engine(), mqo_config());
    let results = drive(&server, &queries);
    for (r, e) in results.iter().zip(&expected) {
        assert_eq!(&r.answers, e);
    }
    let m = server.metrics();
    assert_eq!(
        m.shared_prefix_hits, 0,
        "disjoint prefixes: the batcher finds no overlap"
    );
    assert_eq!(m.sub_result_hits, 0, "nothing replays across members");
}

#[test]
fn bounded_page_cache_reports_evictions() {
    // the configurable-capacity satellite: a tiny optimal page cache
    // under the repeated workload must evict (and count it) while still
    // serving correct answers
    let queries = overlapping_queries();
    let engine = travel_engine();
    let expected: Vec<Vec<Tuple>> = queries
        .iter()
        .map(|q| {
            let query = engine.parse(q).expect("parses");
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
            engine
                .execute(
                    &optimized.candidate.plan,
                    &ExecConfig {
                        k: Some(K as usize),
                        ..ExecConfig::default()
                    },
                    ExecContext::private(CacheSetting::Optimal),
                )
                .expect("executes")
                .answers
        })
        .collect();
    let server = QueryServer::new(
        travel_engine(),
        RuntimeConfig {
            workers: 4,
            cache: CacheSetting::Optimal,
            page_cache_entries: 4,
            ..RuntimeConfig::default()
        },
    );
    let results = drive(&server, &queries);
    for (r, e) in results.iter().zip(&expected) {
        assert_eq!(&r.answers, e, "evictions never corrupt answers");
    }
    let m = server.metrics();
    assert!(
        m.page_cache_evictions > 0,
        "4-entry cache under a 20-city workload must evict"
    );
    // and the unbounded default never evicts
    let unbounded = QueryServer::new(travel_engine(), RuntimeConfig::default());
    drive(&unbounded, &queries[..4]);
    assert_eq!(unbounded.metrics().page_cache_evictions, 0);
}
