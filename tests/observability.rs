//! Trace completeness and runtime-stats reconciliation: every gateway
//! call, retry and re-plan lands in exactly one span, and span-summed
//! totals equal the accounting totals — per driver (pipeline, top-k)
//! and through the serving layer under seeded faults with adaptive
//! re-planning and MQO sharing. The EXPLAIN ANALYZE stats ride
//! the same per-node counters, so they are pinned against the same
//! accounting truth.

use mdq::cost::divergence::AdaptiveConfig;
use mdq::model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq::prelude::*;
use mdq::services::domains::travel::{travel_world, TravelWorld};
use mdq::services::domains::World;
use mdq::services::fault::{FaultConfig, FaultPlan, FaultProfile, PlannedFault};
use mdq::{Mdq, QueryServer, RuntimeConfig};
use std::sync::Arc;
use std::time::Duration;

/// The running example's plan O (conf → weather → {flight, hotel}).
fn plan_o(world: &TravelWorld) -> Plan {
    let poset = Poset::from_pairs(
        4,
        &[
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_WEATHER, ATOM_HOTEL),
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

/// Re-registers the flight service wrapped in a scripted fault profile:
/// every page errors twice before succeeding, so the run retries on a
/// known schedule.
fn script_flight(world: &mut TravelWorld) {
    let id = world.ids.flight;
    let inner = world.registry.get(id).expect("registered").clone();
    world.registry.register(
        id,
        FaultProfile::scripted(inner, FaultPlan::new().fail_first(2, PlannedFault::Error)),
    );
}

/// A fresh shared state with a recorder attached.
fn traced_state() -> (Arc<SharedServiceState>, Arc<TraceRecorder>) {
    let rec = TraceRecorder::new();
    let shared =
        Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0).with_trace(Arc::clone(&rec)));
    (shared, rec)
}

/// The hard contract: every forwarded attempt is exactly one
/// `ServiceCall` span (dur = its simulated latency) and every retry is
/// exactly one `Retry` span (dur = its accounted backoff), so the
/// span-summed totals equal the gateway accounting totals.
fn spans_reconcile(events: &[TraceEvent], shared: &SharedServiceState) {
    let calls: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::ServiceCall { .. }))
        .collect();
    assert_eq!(
        calls.len() as u64,
        shared.total_calls(),
        "one span per call"
    );
    let span_latency: f64 = calls.iter().map(|e| e.dur).sum();
    assert!(
        (span_latency - shared.total_latency()).abs() < 1e-6,
        "span latency {span_latency} == accounted {}",
        shared.total_latency()
    );
    let faults = shared.total_fault_stats();
    let retries: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Retry { .. }))
        .collect();
    assert_eq!(retries.len() as u64, faults.retries, "one span per retry");
    let span_backoff: f64 = retries.iter().map(|e| e.dur).sum();
    assert!(
        (span_backoff - faults.backoff_seconds).abs() < 1e-6,
        "span backoff {span_backoff} == accounted {}",
        faults.backoff_seconds
    );
}

/// The EXPLAIN ANALYZE side of the same contract: per-node stats sum
/// to the gateway accounting totals (sim-time includes backoff).
fn stats_reconcile(stats: &[OperatorStats], shared: &SharedServiceState) {
    let faults = shared.total_fault_stats();
    assert_eq!(
        stats.iter().map(|s| s.calls).sum::<u64>(),
        shared.total_calls(),
        "node calls sum to the accounting total"
    );
    assert_eq!(stats.iter().map(|s| s.retries).sum::<u64>(), faults.retries);
    let sim: f64 = stats.iter().map(|s| s.sim_seconds).sum();
    let accounted = shared.total_latency() + faults.backoff_seconds;
    assert!(
        (sim - accounted).abs() < 1e-6,
        "node sim-seconds {sim} == latency + backoff {accounted}"
    );
}

#[test]
fn pipeline_trace_reconciles_with_accounting_under_faults() {
    let mut w = travel_world(2008);
    script_flight(&mut w);
    let plan = plan_o(&w);
    let (shared, rec) = traced_state();
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("runs");
    assert!(!report.answers.is_empty());
    let events = rec.events();
    assert!(!events.is_empty(), "tracing recorded spans");
    spans_reconcile(&events, &shared);
    stats_reconcile(&report.operator_stats, &shared);
    assert_eq!(
        report.operator_stats[plan.output_node().0].rows_out as usize,
        report.answers.len(),
        "the output node's rows_out is the answer count"
    );
}

#[test]
fn topk_early_halt_stats_reconcile() {
    let mut w = travel_world(2008);
    script_flight(&mut w);
    let plan = plan_o(&w);
    let (shared, rec) = traced_state();
    let mut exec = TopKExecution::start(
        &plan,
        &w.schema,
        &w.registry,
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("prepares");
    let answers: Vec<_> = std::iter::from_fn(|| exec.next_answer()).take(3).collect();
    assert_eq!(answers.len(), 3, "the travel world yields at least 3");
    // finalizing drops the halted operator tree, flushing every probe
    let stats = exec.operator_stats(&plan);
    spans_reconcile(&rec.events(), &shared);
    stats_reconcile(&stats, &shared);
}

#[test]
fn untraced_run_records_nothing_but_keeps_operator_stats() {
    let w = travel_world(2008);
    let plan = plan_o(&w);
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
    assert!(shared.trace_recorder().is_none());
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("runs");
    // per-node stats are always on — EXPLAIN ANALYZE needs no opt-in
    stats_reconcile(&report.operator_stats, &shared);
}

#[test]
fn explain_analyze_renders_the_observed_run() {
    let w = travel_world(2008);
    let plan = plan_o(&w);
    let (shared, _rec) = traced_state();
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("runs");
    let sel = SelectivityModel::default();
    let ann = Estimator::new(&w.schema, &sel, CacheSetting::Optimal).annotate(&plan);
    let text = explain_analyze(&plan, &w.schema, &ann, &report.operator_stats);
    assert!(text.contains("obs calls"), "{text}");
    // a join node verifies at least the pairs it emits; no other node
    // verifies any
    assert!(text.contains("candidates"), "{text}");
    for (node, stats) in plan.nodes.iter().zip(&report.operator_stats) {
        match node.kind {
            NodeKind::Join { .. } => assert!(stats.candidates >= stats.rows_out, "{text}"),
            _ => assert_eq!(stats.candidates, 0, "{text}"),
        }
    }
    assert!(
        text.contains(&format!("observed answers: {}", report.answers.len())),
        "{text}"
    );
    assert_eq!(text.lines().count(), plan.nodes.len() + 3, "{text}");
}

const CATALOG_QUERY: &str = "q(Item, Part, Vendor, Price) :- seed('widgets', Item), \
     parts(Item, Part), offers(Part, Vendor, Price), Price <= 100.0.";

#[test]
fn server_trace_is_complete_under_adaptive_faulty_workload() {
    // the acceptance scenario: seeded faults + mis-estimated services
    // force retries and a mid-flight re-plan; the trace must carry all
    // of it, reconciling exactly with the accounting and the metrics
    let mut c = mdq::services::domains::catalog::catalog_world(true);
    for id in [c.ids.seed, c.ids.parts, c.ids.offers] {
        let inner = c.world.registry.get(id).expect("registered").clone();
        let cfg = FaultConfig::seeded(0x5EED ^ id.0 as u64)
            .with_errors(0.08)
            .with_timeouts(0.04);
        c.world
            .registry
            .register(id, FaultProfile::seeded(inner, cfg));
    }
    let server = QueryServer::new(
        Mdq::from_world(c.world),
        RuntimeConfig {
            adaptive: Some(AdaptiveConfig::default()),
            workers: 1,
            ..RuntimeConfig::default()
        },
    );
    let rec = server.enable_tracing();
    let first = server
        .submit(CATALOG_QUERY, Some(10))
        .collect()
        .expect("runs despite faults");
    assert!(
        first.stats.replans >= 1,
        "the mis-estimate forces a re-plan"
    );
    server
        .submit(CATALOG_QUERY, Some(10))
        .collect()
        .expect("runs");

    let m = server.metrics();
    let events = rec.events();
    spans_reconcile(&events, server.shared_state());

    let count = |f: &dyn Fn(&SpanKind) -> bool| events.iter().filter(|e| f(&e.kind)).count() as u64;
    assert_eq!(
        count(&|k| matches!(k, SpanKind::Replan { .. })),
        m.replans,
        "every re-plan splice is one span"
    );
    assert_eq!(
        count(&|k| matches!(k, SpanKind::PlanCacheHit { .. })),
        m.plan_cache_hits
    );
    assert_eq!(
        count(&|k| matches!(k, SpanKind::PlanCacheMiss { .. })),
        m.plan_cache_misses
    );
    assert_eq!(
        count(&|k| matches!(k, SpanKind::Optimize)),
        m.optimizer_invocations,
        "every optimizer run is one control span"
    );
    assert_eq!(
        count(&|k| matches!(k, SpanKind::QueryStart { .. })),
        m.completed
    );
    assert_eq!(
        count(&|k| matches!(k, SpanKind::QueryDone { .. })),
        m.completed
    );

    // the seeded faults also populate the new histogram metrics
    let service_observations: u64 = m.service_latency_buckets.iter().map(|(_, n)| n).sum();
    assert_eq!(service_observations, m.total_service_calls);
    let summary_count: u64 = m.per_service_latency.iter().map(|(_, s)| s.count).sum();
    assert_eq!(summary_count, m.total_service_calls);
    let summary_total: f64 = m.per_service_latency.iter().map(|(_, s)| s.total).sum();
    assert!((summary_total - m.total_service_latency).abs() < 1e-6);

    // the export is loadable: array form, balanced, every event present
    let json = chrome_trace_json(&rec);
    assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(jsonl(&rec).lines().count(), events.len());
}

#[test]
fn mqo_server_traces_admission_and_replay() {
    let w = travel_world(2008);
    let engine = Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    });
    let server = QueryServer::new(
        engine,
        RuntimeConfig {
            workers: 2,
            cache: CacheSetting::OneCall,
            sub_results: 16,
            batch_window: Some(Duration::from_millis(5)),
            ..RuntimeConfig::default()
        },
    );
    let rec = server.enable_tracing();
    // same template three times, sequentially: the first admission
    // registers the prefix, the second is flagged shared and
    // materializes, the third replays from the sub-result store
    let query = "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < 2000.";
    for _ in 0..3 {
        server.submit(query, Some(5)).collect().expect("runs");
    }
    let m = server.metrics();
    let events = rec.events();
    spans_reconcile(&events, server.shared_state());

    let batches: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            SpanKind::AdmissionBatch {
                members,
                shared_prefix_hits,
            } => Some((members, shared_prefix_hits)),
            _ => None,
        })
        .collect();
    assert_eq!(
        batches.iter().map(|(m, _)| m).sum::<u64>(),
        m.submitted,
        "every submission lands in exactly one admission-batch span"
    );
    assert_eq!(
        batches.iter().map(|(_, h)| h).sum::<u64>(),
        m.shared_prefix_hits
    );
    assert_eq!(
        m.batch_size_buckets.iter().map(|(_, n)| n).sum::<u64>(),
        batches.len() as u64,
        "one batch-size observation per admission batch"
    );
    let replays = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::SubResultReplay { .. }))
        .count() as u64;
    assert_eq!(replays, m.sub_result_hits);
    assert!(replays >= 1, "the third submission replays the prefix");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, SpanKind::SubResultMaterialize { .. })),
        "the flagged member's materialization is traced"
    );
}

#[test]
fn snapshot_histograms_cover_the_workload() {
    let w = travel_world(2008);
    let engine = Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    });
    let server = QueryServer::new(engine, RuntimeConfig::default());
    let query = "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < 2000.";
    for _ in 0..2 {
        server.submit(query, Some(5)).collect().expect("runs");
    }
    let m = server.metrics();
    assert_eq!(
        m.latency_buckets.iter().map(|(_, n)| n).sum::<u64>(),
        m.completed,
        "one wall-latency observation per completed query"
    );
    assert_eq!(
        m.queue_wait_buckets.iter().map(|(_, n)| n).sum::<u64>(),
        m.submitted,
        "one queue-wait observation per dequeued job"
    );
    assert_eq!(
        m.service_latency_buckets
            .iter()
            .map(|(_, n)| n)
            .sum::<u64>(),
        m.total_service_calls,
        "one latency observation per forwarded attempt"
    );
    assert_eq!(
        m.batch_size_buckets.iter().map(|(_, n)| n).sum::<u64>(),
        0,
        "no admission batching, no batch observations"
    );
    assert!(!m.page_cache_shards.is_empty());
    assert!(
        m.page_cache_shards.iter().map(|s| s.entries).sum::<u64>() > 0,
        "the optimal cache memoized invocations across shards"
    );
    // the Display surface carries the new histograms
    let text = m.to_string();
    assert!(text.contains("queue wait:"), "{text}");
    assert!(text.contains("service call latency:"), "{text}");
}
