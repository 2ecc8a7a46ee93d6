//! Chaos for standing queries: subscriptions over refreshing sources
//! that *also* fault, per seeded and scripted schedules.
//!
//! Invariants pinned here:
//! * **no lost or duplicated deltas** — after every refresh pass, each
//!   subscription's folded delta stream reconciles exactly with the
//!   server's own answer snapshot (folding panics on a retraction of a
//!   row that is not live);
//! * **determinism** — two servers driven identically from the same
//!   seeds emit byte-identical delta streams and refresh summaries,
//!   faults and all — at *every* `refresh_workers` setting;
//! * **metrics reconcile** — the server's cumulative refresh/delta
//!   counters equal the sums of the per-pass [`RefreshSummary`]s and
//!   the deltas the client actually polled, and the registry's call
//!   counters account for exactly every gateway and refresh attempt;
//! * **stale-kept on failure** — an invocation whose refresh exhausts
//!   its retries keeps its stale pages whole: it counts as `failed`,
//!   emits no delta, and the subscription keeps serving its last
//!   answers.

use mdq::model::schema::ServiceId;
use mdq::model::value::{Tuple, Value};
use mdq::runtime::{RefreshSummary, DEFAULT_TENANT};
use mdq::services::domains::travel::{travel_world, TravelIds};
use mdq::services::domains::World;
use mdq::services::fault::{FaultConfig, FaultPlan, FaultProfile, PlannedFault};
use mdq::services::refresh::{refreshing_registry, EpochClock, RefreshConfig, RefreshPolicy};
use mdq::services::registry::ServiceRegistry;
use mdq::{Mdq, QueryServer, RuntimeConfig};
use std::sync::mpsc;
use std::sync::Arc;

const K: u64 = 5;
const EPOCHS: u64 = 4;

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

/// A refreshing travel engine whose `weather` and `flight` services
/// fault probabilistically (seeded), at rates the retry budgets absorb.
fn chaotic_engine(seed: u64, clock: &Arc<EpochClock>) -> Mdq {
    let w = travel_world(2008);
    let mut registry = refreshing_registry(&w.registry, clock, RefreshConfig::seeded(seed));
    for id in [w.ids.weather, w.ids.flight] {
        let inner = Arc::clone(registry.get(id).expect("registered"));
        let cfg = FaultConfig::seeded(seed ^ 0xC0FFEE ^ id.0 as u64)
            .with_errors(0.05)
            .with_rate_limits(0.03);
        registry.register(id, FaultProfile::seeded(inner, cfg));
    }
    Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry,
    })
}

/// One polled delta, flattened for stream comparison.
type DeltaRecord = (u64, u64, Vec<Tuple>, Vec<Tuple>);

/// Folds one delta into `rows` as a multiset; panics on a retraction
/// of a row that is not live (a lost or duplicated delta).
fn fold(rows: &mut Vec<Tuple>, added: &[Tuple], retracted: &[Tuple]) {
    for r in retracted {
        let at = rows
            .iter()
            .position(|t| t == r)
            .unwrap_or_else(|| panic!("retraction of a row not in the folded set: {r:?}"));
        rows.swap_remove(at);
    }
    rows.extend(added.iter().cloned());
}

/// Cumulative request-responses across every service of `reg`.
fn total_calls(reg: &ServiceRegistry) -> u64 {
    reg.ids()
        .filter_map(|id| reg.counter(id))
        .map(|c| c.calls())
        .sum()
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Runs `f` on its own thread, panicking if it does not finish within
/// `secs` — fail fast instead of letting CI time out on a hang.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(std::time::Duration::from_secs(secs))
        .expect("watchdog: subscription chaos run hung");
    handle.join().expect("runner thread panicked");
    out
}

/// Everything one chaotic run produced, for determinism comparison.
struct RunTrace {
    deltas: Vec<DeltaRecord>,
    summaries: Vec<RefreshSummary>,
    final_answers: Vec<Vec<Tuple>>,
}

/// Drives one chaotic server: subscribe 6 standing queries, run
/// `EPOCHS` refresh passes with `workers` refresh threads, poll + fold
/// + reconcile after each, and return the full trace.
fn chaotic_run(seed: u64, workers: usize) -> RunTrace {
    let clock = EpochClock::new();
    let server = QueryServer::new(
        chaotic_engine(seed, &clock),
        RuntimeConfig {
            refresh_workers: workers,
            ..RuntimeConfig::default()
        },
    );
    server.attach_refresh(Arc::clone(&clock), RefreshPolicy::every(1));

    let queries = [
        travel_query("DB", 850),
        travel_query("DB", 950),
        travel_query("DB", 1050),
        travel_query("AI", 850),
        travel_query("AI", 950),
        travel_query("AI", 1050),
    ];
    let mut subs = Vec::new();
    for text in &queries {
        let ticket = server
            .subscribe(DEFAULT_TENANT, text, Some(K))
            .expect("subscribe");
        subs.push((ticket.id, ticket.answers));
    }

    let mut trace = RunTrace {
        deltas: Vec::new(),
        summaries: Vec::new(),
        final_answers: Vec::new(),
    };
    for _ in 1..=EPOCHS {
        let summary = server.refresh();
        for (id, folded) in &mut subs {
            for delta in server
                .poll_deltas(DEFAULT_TENANT, *id)
                .expect("live subscription")
            {
                fold(folded, &delta.added, &delta.retracted);
                trace
                    .deltas
                    .push((*id, delta.epoch, delta.added, delta.retracted));
            }
            // exact reconciliation: the folded stream equals the
            // server's own snapshot — nothing lost, nothing duplicated
            assert_eq!(
                sorted(folded.clone()),
                sorted(
                    server
                        .subscription_answers(DEFAULT_TENANT, *id)
                        .expect("live")
                ),
                "seed {seed}: folded deltas diverge from the server snapshot"
            );
        }
        trace.summaries.push(summary);
    }

    // the server's cumulative counters reconcile with the per-pass
    // summaries and with what the client actually received
    let m = server.metrics();
    let sum = |f: fn(&RefreshSummary) -> u64| trace.summaries.iter().map(f).sum::<u64>();
    assert_eq!(m.refresh_passes, EPOCHS);
    assert_eq!(m.refresh_calls, sum(|s| s.calls));
    assert_eq!(m.refresh_failures, sum(|s| s.failed));
    assert_eq!(m.invocations_refreshed, sum(|s| s.refreshed));
    assert_eq!(m.invocations_changed, sum(|s| s.invocations_changed));
    assert_eq!(m.deltas_emitted, sum(|s| s.deltas_emitted));
    assert_eq!(m.delta_rows_added, sum(|s| s.rows_added));
    assert_eq!(m.delta_rows_retracted, sum(|s| s.rows_retracted));
    assert_eq!(m.deltas_emitted, trace.deltas.len() as u64);
    assert_eq!(
        m.delta_rows_added,
        trace.deltas.iter().map(|d| d.2.len() as u64).sum::<u64>()
    );
    assert_eq!(
        m.delta_rows_retracted,
        trace.deltas.iter().map(|d| d.3.len() as u64).sum::<u64>()
    );
    assert_eq!(m.subscriptions_active, subs.len() as u64);

    for (_, folded) in subs {
        trace.final_answers.push(sorted(folded));
    }
    trace
}

/// Faulting, refreshing sources: every subscription's delta stream
/// reconciles exactly, metrics account for every pass, and identically
/// seeded runs are byte-identical — faults included.
#[test]
fn chaotic_refresh_loses_and_duplicates_nothing() {
    with_watchdog(300, || {
        for seed in [3, 77] {
            let a = chaotic_run(seed, 1);
            assert!(
                !a.deltas.is_empty(),
                "seed {seed}: a drifting world must produce deltas"
            );
            let b = chaotic_run(seed, 1);
            assert_eq!(
                a.deltas, b.deltas,
                "seed {seed}: identical runs must emit byte-identical delta streams"
            );
            assert_eq!(a.final_answers, b.final_answers);
            for (x, y) in a.summaries.iter().zip(&b.summaries) {
                assert_eq!(
                    (x.calls, x.refreshed, x.invocations_changed, x.failed),
                    (y.calls, y.refreshed, y.invocations_changed, y.failed),
                    "seed {seed}: refresh passes must replay identically"
                );
            }
        }
    });
}

/// The pipeline's determinism contract under seeded faults: delta
/// streams, final answers, and per-pass counters — retries and
/// failures included — are byte-identical at every `refresh_workers`
/// setting. Faults make this the sharp edge of the contract: a racy
/// fan-out would reorder fault draws and diverge immediately.
#[test]
fn chaotic_refresh_is_worker_count_invariant() {
    with_watchdog(600, || {
        for seed in [3, 77] {
            let serial = chaotic_run(seed, 1);
            assert!(
                !serial.deltas.is_empty(),
                "seed {seed}: a drifting world must produce deltas"
            );
            for workers in [2, 8] {
                let parallel = chaotic_run(seed, workers);
                assert_eq!(
                    serial.deltas, parallel.deltas,
                    "seed {seed}: {workers} workers must emit the serial delta stream"
                );
                assert_eq!(serial.final_answers, parallel.final_answers);
                for (x, y) in serial.summaries.iter().zip(&parallel.summaries) {
                    assert_eq!(
                        (x.calls, x.refreshed, x.invocations_changed, x.failed),
                        (y.calls, y.refreshed, y.invocations_changed, y.failed),
                        "seed {seed}: {workers}-worker passes must replay the serial counters"
                    );
                }
            }
        }
    });
}

/// A permanently dead input: `conf('AI')` times out forever. The 'AI'
/// subscription materializes degraded (empty), every refresh pass
/// counts its invocation as failed and keeps the stale pages whole —
/// no delta is ever fabricated — while the healthy 'DB' subscription
/// keeps reconciling exactly.
#[test]
fn dead_source_keeps_stale_pages_and_emits_no_deltas() {
    with_watchdog(300, || {
        let clock = EpochClock::new();
        let w = travel_world(2008);
        let mut registry = refreshing_registry(&w.registry, &clock, RefreshConfig::seeded(19));
        let conf = Arc::clone(registry.get(w.ids.conf).expect("conf"));
        registry.register(
            w.ids.conf,
            FaultProfile::scripted(
                conf,
                FaultPlan::new().fail_inputs(
                    vec![Value::str("AI")],
                    u32::MAX,
                    PlannedFault::Timeout,
                ),
            ),
        );
        let engine = Mdq::from_world(World {
            schema: w.schema,
            query: w.query,
            registry,
        });
        let server = QueryServer::new(engine, RuntimeConfig::default());
        server.attach_refresh(Arc::clone(&clock), RefreshPolicy::every(1));

        let db = server
            .subscribe(DEFAULT_TENANT, &travel_query("DB", 950), Some(K))
            .expect("healthy subscription");
        let ai = server
            .subscribe(DEFAULT_TENANT, &travel_query("AI", 950), Some(K))
            .expect("degraded subscription still registers");
        assert!(
            ai.answers.is_empty(),
            "a dead conf('AI') endpoint can produce no answers"
        );

        let mut db_folded = db.answers;
        let mut failed = 0u64;
        for _ in 1..=EPOCHS {
            let summary = server.refresh();
            assert!(
                summary.failed >= 1,
                "the dead invocation must count as failed every due pass"
            );
            failed += summary.failed;
            for delta in server.poll_deltas(DEFAULT_TENANT, db.id).expect("live") {
                fold(&mut db_folded, &delta.added, &delta.retracted);
            }
            assert_eq!(
                sorted(db_folded.clone()),
                sorted(
                    server
                        .subscription_answers(DEFAULT_TENANT, db.id)
                        .expect("live")
                ),
                "the healthy subscription keeps reconciling"
            );
            assert!(
                server
                    .poll_deltas(DEFAULT_TENANT, ai.id)
                    .expect("live")
                    .is_empty(),
                "a stale-kept invocation must not fabricate deltas"
            );
            assert_eq!(
                server
                    .subscription_answers(DEFAULT_TENANT, ai.id)
                    .expect("live"),
                Vec::<Tuple>::new()
            );
        }
        assert_eq!(server.metrics().refresh_failures, failed);
        // every attempt the registry saw was either forwarded by a
        // gateway or issued by a refresh pass — nothing fetches off
        // the books
        let m = server.metrics();
        assert_eq!(
            total_calls(server.engine().registry()),
            m.total_service_calls + m.refresh_calls,
            "registry attempts reconcile exactly with gateway + refresh calls"
        );
    });
}

/// A still, seeded travel world (no drift) whose service `faulty`
/// picks is scripted to fault per `faults`: subscribe the travel query
/// once and refresh 3 times. Returns the subscription's folded
/// answers after the last pass beside a from-scratch run of the same
/// query on an unfaulted twin world.
fn degraded_then_refreshed(
    faulty: fn(&TravelIds) -> ServiceId,
    faults: FaultPlan,
    budget: u32,
    k: u64,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let world = |clock: &Arc<EpochClock>, faults: Option<FaultPlan>| {
        let w = travel_world(2008);
        let still = RefreshConfig::seeded(3)
            .with_change_rate(0.0)
            .with_drop_rate(0.0);
        let mut registry = refreshing_registry(&w.registry, clock, still);
        if let Some(plan) = faults {
            let id = faulty(&w.ids);
            let inner = Arc::clone(registry.get(id).expect("registered"));
            registry.register(id, FaultProfile::scripted(inner, plan));
        }
        Mdq::from_world(World {
            schema: w.schema,
            query: w.query,
            registry,
        })
    };
    let text = travel_query("DB", budget);
    let clock = EpochClock::new();
    let server = QueryServer::new(world(&clock, Some(faults)), RuntimeConfig::default());
    server.attach_refresh(Arc::clone(&clock), RefreshPolicy::every(1));
    let ticket = server
        .subscribe(DEFAULT_TENANT, &text, Some(k))
        .expect("a degraded subscription still registers");
    let mut folded = ticket.answers;
    for _ in 0..3 {
        server.refresh();
        for delta in server.poll_deltas(DEFAULT_TENANT, ticket.id).expect("live") {
            fold(&mut folded, &delta.added, &delta.retracted);
        }
    }
    let twin = QueryServer::new(world(&EpochClock::new(), None), RuntimeConfig::default());
    let rerun = twin
        .submit(&text, Some(k))
        .collect()
        .expect("unfaulted rerun succeeds");
    (sorted(folded), sorted(rerun.answers))
}

/// A subscription whose first evaluation was served a degraded
/// `conf('DB')` page (3 timeouts, more than the gateway retries) holds
/// partial answers. The refresh pass re-fetches that invocation
/// healthily and finds it unchanged — so only the degraded evaluation
/// itself marks the subscription for re-evaluation, and the next pass
/// must heal it to what a rerun returns.
#[test]
fn degraded_first_evaluation_heals_on_the_next_pass() {
    with_watchdog(300, || {
        let (healed, rerun) = degraded_then_refreshed(
            |ids| ids.conf,
            FaultPlan::new().fail_inputs(vec![Value::str("DB")], 3, PlannedFault::Timeout),
            950,
            K,
        );
        assert_eq!(rerun.len(), 5, "the unfaulted world answers k rows");
        assert_eq!(healed, rerun, "partial answers must not outlive the fault");
    });
}

/// The same with a degraded *second* hotel page: the refresh pass
/// re-demands only the tracked page depth, so the fault is invisible
/// to it; the degraded evaluation must still be retried until whole.
#[test]
fn degraded_deeper_page_heals_on_the_next_pass() {
    with_watchdog(300, || {
        let (healed, rerun) = degraded_then_refreshed(
            |ids| ids.hotel,
            FaultPlan::new().fail_page(1, 3, PlannedFault::Timeout),
            5_000,
            200,
        );
        assert_eq!(rerun.len(), 57, "the unfaulted world answers 57 rows");
        assert_eq!(healed, rerun, "partial answers must not outlive the fault");
    });
}
