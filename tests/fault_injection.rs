//! Deterministic chaos: scripted [`FaultPlan`] scenarios against the
//! resilient gateway.
//!
//! Every scenario pins *exact* call/retry/backoff counts — the fault
//! schedules are functions of call identity, never of wall-clock or
//! global order, so three consecutive runs must agree to the digit
//! (see `replays_identically`).

use mdq::model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq::prelude::*;
use mdq::services::domains::travel::TravelWorld;
use mdq::services::fault::{FaultPlan, FaultProfile, PlannedFault};
use mdq::services::service::{ServiceFault, ServiceResponse};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

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

/// Re-registers the service picked by `which` wrapped in a scripted
/// fault profile.
fn script(world: &mut TravelWorld, which: fn(&TravelWorld) -> ServiceId, plan: FaultPlan) {
    let id = which(world);
    let inner = world.registry.get(id).expect("registered").clone();
    world
        .registry
        .register(id, FaultProfile::scripted(inner, plan));
}

fn run_optimal(world: &TravelWorld, plan: &Plan) -> ExecReport {
    run(
        plan,
        &world.schema,
        &world.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("executes")
}

/// Retry-then-succeed: a service whose every call errors twice before
/// succeeding yields *identical answers* to the clean run, with exactly
/// `3×` the attempts and `2×` the retries (default policy: 2 retries).
#[test]
fn retry_then_succeed_identical_answers_exact_counts() {
    let clean_world = travel_world(2008);
    let plan = plan_o(&clean_world);
    let clean = run_optimal(&clean_world, &plan);
    assert_eq!(clean.calls_to(clean_world.ids.flight), 11, "baseline");

    let mut w = travel_world(2008);
    script(
        &mut w,
        |w| w.ids.flight,
        FaultPlan::new().fail_first(2, PlannedFault::Error),
    );
    let report = run_optimal(&w, &plan);

    assert_eq!(report.answers, clean.answers, "answers survive the faults");
    assert!(report.is_complete(), "retries absorbed every fault");
    assert_eq!(
        report.calls_to(w.ids.flight),
        3 * clean.calls_to(w.ids.flight),
        "every page: 2 failed attempts + 1 success"
    );
    let flight = report.fault_stats[&w.ids.flight];
    assert_eq!(flight.errors, 22);
    assert_eq!(flight.retries, 22);
    assert_eq!(flight.exhausted, 0);
    // the other services never faulted
    assert_eq!(report.retries_to(w.ids.weather), 0);
    assert_eq!(
        report.calls_to(w.ids.weather),
        clean.calls_to(w.ids.weather)
    );
}

/// Exhausted retries degrade the service into `PartialResults` naming
/// it — the query completes instead of failing.
#[test]
fn exhausted_retries_yield_partial_results_naming_the_service() {
    let clean_world = travel_world(2008);
    let plan = plan_o(&clean_world);
    let clean = run_optimal(&clean_world, &plan);

    let mut w = travel_world(2008);
    script(
        &mut w,
        |w| w.ids.hotel,
        FaultPlan::new().fail_always(PlannedFault::Error),
    );
    let report = run_optimal(&w, &plan);

    let partial = report.partial.as_ref().expect("hotel degraded");
    assert!(partial.names("hotel"), "{partial}");
    assert_eq!(partial.degraded.len(), 1, "only hotel degraded");
    assert!(
        report.answers.is_empty(),
        "every answer needs a hotel binding"
    );
    // hotel: 11 page identities × (1 attempt + 2 retries), all exhausted
    let hotel = report.fault_stats[&w.ids.hotel];
    assert_eq!(report.calls_to(w.ids.hotel), 33);
    assert_eq!(hotel.errors, 33);
    assert_eq!(hotel.retries, 22);
    assert_eq!(hotel.exhausted, 11);
    // upstream services unaffected
    assert_eq!(report.calls_to(w.ids.conf), clean.calls_to(w.ids.conf));
    assert_eq!(
        report.calls_to(w.ids.weather),
        clean.calls_to(w.ids.weather)
    );
    assert_eq!(report.calls_to(w.ids.flight), clean.calls_to(w.ids.flight));
}

/// The failed-page memo: once a page exhausts its retries, later
/// executions over the same shared state observe the degradation
/// without re-fetching the fault storm.
#[test]
fn failed_pages_are_memoized_across_executions() {
    let mut w = travel_world(2008);
    let plan = plan_o(&w);
    script(
        &mut w,
        |w| w.ids.hotel,
        FaultPlan::new().fail_always(PlannedFault::Timeout),
    );
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));

    let first = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("executes");
    assert!(first.partial.as_ref().expect("degraded").names("hotel"));
    let calls_after_first = shared.total_calls();
    assert_eq!(shared.failed_pages(), 11, "one memo entry per hotel page");

    let second = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("executes");
    assert!(
        second
            .partial
            .as_ref()
            .expect("still degraded")
            .names("hotel"),
        "memoized failures surface as partial results"
    );
    assert_eq!(
        shared.total_calls(),
        calls_after_first,
        "no page and no fault re-fetched: healthy pages hit the cache, \
         failed pages hit the memo"
    );
    assert_eq!(second.retries_to(w.ids.hotel), 0, "memo path never retries");
}

/// Recovery after an outage: the memo holds a condemned page until
/// `clear_failed_pages` — after clearing, a recovered service serves
/// the page and the query completes fully.
#[test]
fn clearing_the_memo_recovers_a_healed_service() {
    let mut w = travel_world(2008);
    let plan = plan_o(&w);
    // an outage exactly as long as the retry budget: attempts 0-2 of
    // the single conf page fail, attempt 3 (after "the outage ends")
    // succeeds
    script(
        &mut w,
        |w| w.ids.conf,
        FaultPlan::new().fail_first(3, PlannedFault::Error),
    );
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));

    let outage = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("executes");
    assert!(outage.partial.as_ref().expect("degraded").names("conf"));
    assert_eq!(shared.failed_pages(), 1);

    // while the memo stands, even the healed service stays condemned
    let still_down = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("executes");
    assert!(still_down.partial.is_some(), "memo outlives the outage");

    assert_eq!(shared.clear_failed_pages(), 1, "operator recovery lever");
    let recovered = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("executes");
    assert!(recovered.is_complete(), "the healed page serves again");
    assert!(!recovered.answers.is_empty());
    assert_eq!(shared.failed_pages(), 0);
}

/// The failed-page memo is bounded: 1 025 distinct pages whose retries
/// exhausted leave at most 1 024 memoized, however the shards split
/// them.
#[test]
fn the_failed_page_memo_is_bounded() {
    let mut w = travel_world(2008);
    let plan = plan_o(&w);
    script(
        &mut w,
        |w| w.ids.conf,
        FaultPlan::new().fail_always(PlannedFault::Error),
    );
    let shared =
        Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0).with_retry(RetryPolicy::NONE));
    let mut g = ExecContext::shared(Arc::clone(&shared))
        .gateway(&plan, &w.schema, &w.registry)
        .expect("builds");
    for i in 0..1_025 {
        let key = [mdq::model::value::Value::str(format!("area-{i}"))];
        assert!(g.fetch_page(w.ids.conf, 0, &key, 0).fault.is_some());
    }
    let memoized = shared.failed_pages();
    assert!(memoized > 0 && memoized <= 1_024, "{memoized} memoized");
}

/// A rate-limited service's `retry_after` dominates the policy backoff
/// and is accounted exactly, in simulated seconds.
#[test]
fn rate_limit_respects_backoff_accounting() {
    let clean_world = travel_world(2008);
    let plan = plan_o(&clean_world);
    let clean = run_optimal(&clean_world, &plan);

    let mut w = travel_world(2008);
    script(
        &mut w,
        |w| w.ids.conf,
        FaultPlan::new().fail_first(1, PlannedFault::RateLimited(3.0)),
    );
    let report = run_optimal(&w, &plan);

    assert_eq!(report.answers, clean.answers);
    let conf = report.fault_stats[&w.ids.conf];
    assert_eq!(conf.rate_limited, 1);
    assert_eq!(conf.retries, 1);
    assert!(
        (conf.backoff_seconds - 3.0).abs() < 1e-9,
        "retry_after (3.0) > default backoff (0.5): {}",
        conf.backoff_seconds
    );
    // the throttle response (0.05 s) plus the accounted wait shift the
    // whole virtual timeline, conf being the root of the plan
    assert!(
        (report.virtual_time - clean.virtual_time - 3.05).abs() < 1e-9,
        "virtual time accounts the backoff: {} vs {}",
        report.virtual_time,
        clean.virtual_time
    );
}

/// A custom policy's exponential backoff schedule is accounted term by
/// term: 0.5 + 1.0 + 2.0 for three retries at base 0.5, multiplier 2.
#[test]
fn custom_policy_backoff_escalates_deterministically() {
    let mut w = travel_world(2008);
    let plan = plan_o(&w);
    script(
        &mut w,
        |w| w.ids.conf,
        FaultPlan::new().fail_first(3, PlannedFault::Error),
    );
    let shared = Arc::new(
        SharedServiceState::new(CacheSetting::Optimal, 0).with_retry(RetryPolicy {
            max_retries: 3,
            base_backoff: 0.5,
            multiplier: 2.0,
        }),
    );
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(shared),
    )
    .expect("executes");
    assert!(report.is_complete());
    let conf = report.fault_stats[&w.ids.conf];
    assert_eq!(report.calls_to(w.ids.conf), 4, "3 faults + 1 success");
    assert_eq!(conf.retries, 3);
    assert!(
        (conf.backoff_seconds - 3.5).abs() < 1e-9,
        "0.5 + 1.0 + 2.0 accounted: {}",
        conf.backoff_seconds
    );
}

/// Retries are call-budget aware: a generous retry policy stops
/// retrying the moment the per-query budget is consumed, degrading the
/// page instead of overdrawing.
#[test]
fn retries_respect_the_call_budget() {
    let mut w = travel_world(2008);
    let plan = plan_o(&w);
    script(
        &mut w,
        |w| w.ids.conf,
        FaultPlan::new().fail_always(PlannedFault::Error),
    );
    let shared = Arc::new(
        SharedServiceState::new(CacheSetting::Optimal, 0).with_retry(RetryPolicy::retries(5)),
    );
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext {
            budget: Some(2),
            ..ExecContext::shared(shared)
        },
    )
    .expect("budget degradation is not a hard failure");
    assert_eq!(
        report.calls_to(w.ids.conf),
        2,
        "5 retries allowed, budget caps at 2 attempts"
    );
    let conf = report.fault_stats[&w.ids.conf];
    assert_eq!((conf.retries, conf.exhausted), (1, 1));
    assert!(report.partial.as_ref().expect("degraded").names("conf"));
}

/// One query running out of its *own* call budget mid-fault must not
/// condemn a transiently-failing page in the shared failed-page memo:
/// the next query (with budget to retry) recovers the page fully.
#[test]
fn budget_starved_query_does_not_poison_the_page_for_others() {
    let mut w = travel_world(2008);
    let plan = plan_o(&w);
    // transient: the first attempt of each call fails, retries succeed
    script(
        &mut w,
        |w| w.ids.conf,
        FaultPlan::new().fail_first(1, PlannedFault::Error),
    );
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));

    // query A: budget 1 — its only allowed attempt faults, so it
    // degrades without ever exercising its retry policy
    let starved = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext {
            budget: Some(1),
            ..ExecContext::shared(Arc::clone(&shared))
        },
    )
    .expect("degrades, does not fail");
    assert!(starved
        .partial
        .as_ref()
        .expect("conf degraded")
        .names("conf"));
    assert_eq!(
        shared.failed_pages(),
        0,
        "a budget limit is a property of the query, not of the page"
    );

    // query B: unconstrained — the page's second attempt succeeds and
    // the query completes fully
    let healthy = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(shared),
    )
    .expect("executes");
    assert!(
        healthy.is_complete(),
        "the page was never globally condemned"
    );
    assert!(!healthy.answers.is_empty());
}

/// Per-service retry overrides: a service can be declared fail-fast
/// while the rest of the workload keeps the default policy.
#[test]
fn per_service_retry_override() {
    let mut w = travel_world(2008);
    let plan = plan_o(&w);
    script(
        &mut w,
        |w| w.ids.flight,
        FaultPlan::new().fail_first(1, PlannedFault::Error),
    );
    script(
        &mut w,
        |w| w.ids.hotel,
        FaultPlan::new().fail_first(1, PlannedFault::Error),
    );
    let shared = Arc::new(
        SharedServiceState::new(CacheSetting::Optimal, 0)
            .with_service_retry(w.ids.hotel, RetryPolicy::NONE),
    );
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(shared),
    )
    .expect("executes");
    // flight (default policy) recovered; hotel (fail-fast) degraded
    assert_eq!(report.retries_to(w.ids.flight), 11);
    assert_eq!(report.retries_to(w.ids.hotel), 0);
    let partial = report.partial.as_ref().expect("hotel degraded");
    assert!(partial.names("hotel") && !partial.names("flight"));
}

/// The whole suite's premise: a faulty run replays identically —
/// answers, calls, retries, backoff — when the world is rebuilt with
/// the same script.
#[test]
fn replays_identically() {
    let reports: Vec<ExecReport> = (0..3)
        .map(|_| {
            let mut w = travel_world(2008);
            let plan = plan_o(&w);
            script(
                &mut w,
                |w| w.ids.flight,
                FaultPlan::new()
                    .fail_page(0, 1, PlannedFault::Timeout)
                    .fail_first(1, PlannedFault::Error),
            );
            script(
                &mut w,
                |w| w.ids.weather,
                FaultPlan::new().fail_first(1, PlannedFault::RateLimited(0.25)),
            );
            run_optimal(&w, &plan)
        })
        .collect();
    for r in &reports[1..] {
        assert_eq!(r.answers, reports[0].answers);
        assert_eq!(r.calls, reports[0].calls);
        assert_eq!(r.fault_stats, reports[0].fault_stats);
        assert_eq!(r.partial, reports[0].partial);
    }
}

/// A service that blocks until released, then faults — the rendezvous
/// for the single-flight regression test below.
struct Blocking {
    entered: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
    calls: AtomicU64,
}

impl Service for Blocking {
    fn name(&self) -> &str {
        "conf"
    }

    fn fetch(&self, _pattern: usize, _inputs: &[Value], _page: u32) -> ServiceResponse {
        unreachable!("the gateway drives try_fetch")
    }

    fn try_fetch(
        &self,
        _pattern: usize,
        _inputs: &[Value],
        _page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let _ = self.entered.send(());
        let _ = self.release.lock().expect("release lock").recv();
        Err(ServiceFault::Error {
            message: "leader fails while a waiter is blocked".into(),
            latency: 0.1,
        })
    }
}

/// Regression (latent `poison` × single-flight bug): a waiter blocked
/// on an in-flight page whose leader errors must wake *with the error*
/// — served from the failed-page memo — not hang, and not duplicate
/// the fault storm by re-fetching the page itself.
#[test]
fn single_flight_waiter_wakes_with_the_leaders_error() {
    let mut w = travel_world(2008);
    let plan = Arc::new(plan_o(&w));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let blocking = Arc::new(Blocking {
        entered: entered_tx,
        release: Mutex::new(release_rx),
        calls: AtomicU64::new(0),
    });
    w.registry.register(w.ids.conf, Arc::clone(&blocking));
    let w = Arc::new(w);
    let shared =
        Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0).with_retry(RetryPolicy::NONE));
    let key = vec![Value::str("DB")];

    let (leader_fetch, waiter_fetch) = std::thread::scope(|scope| {
        let leader = {
            let (w, plan, shared, key) = (
                Arc::clone(&w),
                Arc::clone(&plan),
                Arc::clone(&shared),
                key.clone(),
            );
            scope.spawn(move || {
                let mut g = ExecContext::shared(shared)
                    .gateway(&plan, &w.schema, &w.registry)
                    .expect("builds");
                g.fetch_page(w.ids.conf, 0, &key, 0)
            })
        };
        // the leader holds the single-flight claim once it is inside
        // the service call
        entered_rx.recv().expect("leader entered the service");
        let waiter = {
            let (w, plan, shared, key) = (
                Arc::clone(&w),
                Arc::clone(&plan),
                Arc::clone(&shared),
                key.clone(),
            );
            scope.spawn(move || {
                let mut g = ExecContext::shared(shared)
                    .gateway(&plan, &w.schema, &w.registry)
                    .expect("builds");
                g.fetch_page(w.ids.conf, 0, &key, 0)
            })
        };
        // give the waiter time to block on the in-flight page, then
        // let the leader's call fail
        std::thread::sleep(std::time::Duration::from_millis(100));
        release_tx.send(()).expect("leader still blocked");
        (
            leader.join().expect("leader"),
            waiter.join().expect("waiter"),
        )
    });

    assert!(leader_fetch.fault.is_some(), "leader observed the fault");
    let waiter_fault = waiter_fetch
        .fault
        .as_ref()
        .expect("waiter woke with the error");
    assert!(
        matches!(waiter_fault, ServiceFault::Error { .. }),
        "{waiter_fault}"
    );
    assert!(
        waiter_fetch.forwarded_latency.is_none(),
        "the waiter was served from the failed-page memo, not a re-fetch"
    );
    assert_eq!(
        blocking.calls.load(Ordering::SeqCst),
        1,
        "exactly one request-response: the waiter never duplicated it"
    );
    assert_eq!(shared.total_calls(), 1);
    assert_eq!(shared.total_fault_stats().exhausted, 1);
}

/// One ledger per execution: a lone execution over a fresh shared state
/// *is* the state's whole history, so its own ledger and the state's
/// merged ledger must be equal field by field — read from the live cell
/// while the execution exists, and from the retired totals once it is
/// dropped. Faults of every kind are in play so no field is trivially
/// empty.
#[test]
fn lone_execution_ledger_equals_the_shared_ledger_live_and_retired() {
    let mut w = travel_world(2008);
    script(
        &mut w,
        |w| w.ids.flight,
        FaultPlan::new().fail_first(2, PlannedFault::Error),
    );
    script(
        &mut w,
        |w| w.ids.hotel,
        FaultPlan::new().fail_always(PlannedFault::Timeout),
    );
    let plan = plan_o(&w);
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
    let mut exec = TopKExecution::start(
        &plan,
        &w.schema,
        &w.registry,
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("builds");
    exec.answers(usize::MAX >> 1);

    let own = exec.ledger();
    let faults = own.total_faults();
    assert!(faults.errors > 0 && faults.timeouts > 0, "{faults:?}");
    assert!(faults.retries > 0 && faults.exhausted > 0, "{faults:?}");
    assert!(own.total_cache_stats().misses > 0, "invocations recorded");
    assert_eq!(own.total_calls(), exec.total_calls());
    assert_eq!(
        own.observed().values().map(|o| o.calls).sum::<u64>(),
        own.total_calls(),
        "every forwarded attempt is an observation"
    );
    assert_eq!(own, shared.ledger(), "live cell: merged in place");
    drop(exec);
    assert_eq!(own, shared.ledger(), "retired totals: nothing lost");
}
