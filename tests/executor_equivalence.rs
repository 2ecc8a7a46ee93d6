//! Cross-executor equivalence: the two drivers over the shared
//! operator kernel — stage-materialised and pull-based top-k — must
//! return **identical answer sets and identical per-service call
//! counts** on randomized travel-world plans, under every cache
//! setting. The parallel-dispatch stage model shuffles its inputs (its
//! point is showing the cache degradation), so it must agree on answers
//! but is exempt from the call-count check.
//!
//! Plans are randomized over topology (random admissible precedence
//! pairs), fetch factors and cache setting, generated with the
//! workspace's deterministic [`Rng`](mdq::model::rng::Rng); assertion
//! messages carry the case description for replay.

use mdq::model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq::model::rng::Rng;
use mdq::prelude::*;
use std::sync::Arc;

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// Builds a random admissible α1 plan over the travel world: conf first
/// (it alone is callable from the query constants), then a random
/// acyclic set of extra precedences among weather / flight / hotel, and
/// random fetch factors for the chunked services.
fn random_plan(rng: &mut Rng, world: &mdq_services::domains::travel::TravelWorld) -> Plan {
    let mut pairs = vec![
        (ATOM_CONF, ATOM_WEATHER),
        (ATOM_CONF, ATOM_FLIGHT),
        (ATOM_CONF, ATOM_HOTEL),
    ];
    // a random linear refinement over the tail atoms keeps the poset
    // acyclic; each candidate edge joins independently
    let mut tail = [ATOM_WEATHER, ATOM_FLIGHT, ATOM_HOTEL];
    rng.shuffle(&mut tail);
    for i in 0..tail.len() {
        for j in (i + 1)..tail.len() {
            if rng.bool(0.5) {
                pairs.push((tail[i], tail[j]));
            }
        }
    }
    let poset = Poset::from_pairs(4, &pairs).expect("acyclic by construction");
    let mut plan = build_plan(
        Arc::new(world.query.clone()),
        &world.schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("conf-first α1 plans are admissible");
    plan.set_fetch(ATOM_FLIGHT, rng.range_u64(1, 4));
    plan.set_fetch(ATOM_HOTEL, rng.range_u64(1, 5));
    plan
}

/// The materialised and pull drivers agree on answers *and* call
/// counts; parallel dispatch agrees on answers.
#[test]
fn randomized_plans_executors_agree() {
    let mut rng = Rng::new(0xEC_EC);
    for case in 0..12 {
        let cache = *rng.choose(&CacheSetting::ALL).expect("three settings");
        let w = travel_world(2008);
        let plan = random_plan(&mut rng, &w);
        let desc = format!(
            "case {case}: cache {cache:?}, fetches {:?}, poset {}",
            plan.fetches, plan.poset
        );

        let pipeline = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(cache),
        )
        .unwrap_or_else(|e| panic!("{desc}: pipeline fails: {e}"));
        let baseline = sorted(pipeline.answers.clone());

        // pull executor, drained to exhaustion
        let mut pull =
            TopKExecution::start(&plan, &w.schema, &w.registry, ExecContext::private(cache))
                .unwrap_or_else(|e| panic!("{desc}: pull fails: {e}"));
        let pulled = sorted(pull.answers(1 << 20));
        assert!(
            pull.error().is_none(),
            "{desc}: pull stream poisoned: {:?}",
            pull.error()
        );
        assert_eq!(pulled, baseline, "{desc}: pull answers");

        // parallel dispatch: same answers (its shuffled invocation order
        // legitimately changes the call counts)
        let par = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig {
                k: None,
                stage: StageModel::ParallelDispatch {
                    threads: 16,
                    spawn_overhead: 0.05,
                    shuffle_seed: case as u64,
                },
            },
            ExecContext::private(cache),
        )
        .unwrap_or_else(|e| panic!("{desc}: parallel fails: {e}"));
        assert_eq!(
            sorted(par.answers.clone()),
            baseline,
            "{desc}: parallel answers"
        );

        // call counts: every deterministic driver forwards exactly the
        // same number of request-responses to every service
        for (name, id) in [
            ("conf", w.ids.conf),
            ("weather", w.ids.weather),
            ("flight", w.ids.flight),
            ("hotel", w.ids.hotel),
        ] {
            let p = pipeline.calls_to(id);
            assert_eq!(
                pull.calls_to(id),
                p,
                "{desc}: pull vs pipeline calls to {name}"
            );
        }

        // truncation: every driver that takes a `k` returns exactly
        // min(k, available) answers — none at all for k = 0
        for k in [0usize, 1] {
            let want = k.min(baseline.len());
            let cut = run(
                &plan,
                &w.schema,
                &w.registry,
                &ExecConfig {
                    k: Some(k),
                    ..ExecConfig::default()
                },
                ExecContext::private(cache),
            )
            .unwrap_or_else(|e| panic!("{desc}: pipeline k={k} fails: {e}"));
            assert_eq!(cut.answers.len(), want, "{desc}: pipeline k={k}");
            let mut pull =
                TopKExecution::start(&plan, &w.schema, &w.registry, ExecContext::private(cache))
                    .unwrap_or_else(|e| panic!("{desc}: pull k={k} fails: {e}"));
            assert_eq!(pull.answers(k).len(), want, "{desc}: pull k={k}");
        }
    }
}

/// Rebuilds the travel world with every service wrapped in a seeded
/// [`FaultProfile`]: the fault schedule is a function of call identity
/// only, so identically-seeded worlds replay identical faults no matter
/// which driver issues the calls.
fn faulty_world(fault_seed: u64) -> mdq_services::domains::travel::TravelWorld {
    use mdq::services::fault::{FaultConfig, FaultProfile};
    let mut w = travel_world(2008);
    let ids = [w.ids.conf, w.ids.weather, w.ids.flight, w.ids.hotel];
    for id in ids {
        let inner = w.registry.get(id).expect("registered").clone();
        let cfg = FaultConfig::seeded(fault_seed ^ id.0 as u64)
            .with_errors(0.10)
            .with_timeouts(0.06)
            .with_rate_limits(0.04)
            .with_spikes(0.05, 3.0);
        w.registry.register(id, FaultProfile::seeded(inner, cfg));
    }
    w
}

/// Seeded-fault equivalence: both deterministic drivers produce
/// identical answers, identical per-service call counts (faulted
/// attempts included) and identical retry counts under the same seeded
/// fault schedule — and agree on which services, if any, degraded.
#[test]
fn randomized_plans_executors_agree_under_seeded_faults() {
    let mut rng = Rng::new(0xFA_17);
    for case in 0..8 {
        let cache = *rng.choose(&CacheSetting::ALL).expect("three settings");
        let fault_seed = rng.next_u64();
        let plan = random_plan(&mut rng, &travel_world(2008));
        let desc = format!(
            "case {case}: cache {cache:?}, fault seed {fault_seed:#x}, fetches {:?}, poset {}",
            plan.fetches, plan.poset
        );

        // each driver gets a freshly wrapped world so per-identity
        // attempt counters start from zero every time
        let wp = faulty_world(fault_seed);
        let pipeline = run(
            &plan,
            &wp.schema,
            &wp.registry,
            &ExecConfig::default(),
            ExecContext::private(cache),
        )
        .unwrap_or_else(|e| panic!("{desc}: pipeline fails: {e}"));
        let baseline = sorted(pipeline.answers.clone());

        let wq = faulty_world(fault_seed);
        let mut pull =
            TopKExecution::start(&plan, &wq.schema, &wq.registry, ExecContext::private(cache))
                .unwrap_or_else(|e| panic!("{desc}: pull fails: {e}"));
        let pulled = sorted(pull.answers(1 << 20));
        assert_eq!(pulled, baseline, "{desc}: pull answers");

        // identical attempts AND identical retries, service by service
        let pull_ledger = pull.ledger();
        for (name, id) in [
            ("conf", wp.ids.conf),
            ("weather", wp.ids.weather),
            ("flight", wp.ids.flight),
            ("hotel", wp.ids.hotel),
        ] {
            let calls = pipeline.calls_to(id);
            assert_eq!(
                pull.calls_to(id),
                calls,
                "{desc}: pull vs pipeline calls to {name}"
            );
            let retries = pipeline.retries_to(id);
            assert_eq!(
                pull_ledger.faults_for(id).retries,
                retries,
                "{desc}: pull vs pipeline retries to {name}"
            );
        }

        // and on the degraded-service report itself
        assert_eq!(
            pull.partial_results(),
            pipeline.partial,
            "{desc}: pull vs pipeline partial report"
        );
    }
}

/// Builds the adaptive-equivalence fixture: a freshly mis-estimated
/// catalog world (optionally fault-wrapped with a seeded schedule), the
/// plan its stale estimates produce, and a fresh memoizing shared
/// state. Every driver gets its own copy so fault-attempt counters and
/// cache state start from zero.
fn adaptive_fixture(
    fault_seed: Option<u64>,
) -> (
    mdq::services::domains::catalog::CatalogWorld,
    Plan,
    std::sync::Arc<SharedServiceState>,
) {
    use mdq::services::fault::{FaultConfig, FaultProfile};
    let mut c = mdq::services::domains::catalog::catalog_world(true);
    if let Some(seed) = fault_seed {
        for id in [c.ids.seed, c.ids.parts, c.ids.offers] {
            let inner = c.world.registry.get(id).expect("registered").clone();
            let cfg = FaultConfig::seeded(seed ^ id.0 as u64)
                .with_errors(0.08)
                .with_timeouts(0.04);
            c.world
                .registry
                .register(id, FaultProfile::seeded(inner, cfg));
        }
    }
    let optimized = optimize(
        Arc::new(c.world.query.clone()),
        &c.world.schema,
        &ExecutionTime,
        &OptimizerConfig {
            k: 10,
            cache: mdq::cost::estimate::CacheSetting::Optimal,
            ..OptimizerConfig::default()
        },
    )
    .expect("optimizes");
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
    (c, optimized.candidate.plan, shared)
}

fn adaptive_replanner<'a>(
    world: &'a mdq::services::domains::catalog::CatalogWorld,
) -> OptimizerReplanner<'a> {
    OptimizerReplanner::new(
        &world.world.schema,
        &ExecutionTime,
        OptimizerConfig {
            k: 10,
            cache: mdq::cost::estimate::CacheSetting::Optimal,
            ..OptimizerConfig::default()
        },
    )
}

/// The adaptive variant of the equivalence suite: on a mis-estimated
/// workload that forces at least one re-plan, the stage-materialised
/// and pull drivers under a re-planner must produce
/// identical answer sets, identical per-service call counts and
/// identical re-plan counts — healthy and under a seeded fault
/// schedule (where retries spent before the splice must stay counted
/// exactly once).
#[test]
fn adaptive_drivers_agree_on_answers_calls_and_replans() {
    for fault_seed in [None, Some(0xAD_A9u64)] {
        let desc = match fault_seed {
            None => "healthy".to_string(),
            Some(s) => format!("seeded faults {s:#x}"),
        };

        let (wp, plan, shared) = adaptive_fixture(fault_seed);
        let mut rp = adaptive_replanner(&wp);
        let pipeline = run(
            &plan,
            &wp.world.schema,
            &wp.world.registry,
            &ExecConfig::default(),
            ExecContext {
                adaptive: Some((AdaptiveConfig::default(), &mut rp)),
                ..ExecContext::shared(shared)
            },
        )
        .unwrap_or_else(|e| panic!("{desc}: adaptive pipeline fails: {e}"));
        assert!(
            pipeline.replans >= 1,
            "{desc}: the mis-estimate must force a re-plan"
        );
        let baseline = sorted(pipeline.answers.clone());
        assert!(!baseline.is_empty(), "{desc}: answers exist");

        let (wq, plan_q, shared_q) = adaptive_fixture(fault_seed);
        let mut rp = adaptive_replanner(&wq);
        let mut pull = TopKExecution::start(
            &plan_q,
            &wq.world.schema,
            &wq.world.registry,
            ExecContext {
                adaptive: Some((AdaptiveConfig::default(), &mut rp)),
                ..ExecContext::shared(shared_q)
            },
        )
        .unwrap_or_else(|e| panic!("{desc}: adaptive pull fails: {e}"));
        let pulled = sorted(pull.answers(1 << 20));
        assert!(
            pull.error().is_none(),
            "{desc}: pull poisoned: {:?}",
            pull.error()
        );
        assert_eq!(pulled, baseline, "{desc}: pull answers");
        assert_eq!(pull.replans(), pipeline.replans, "{desc}: pull replans");

        // identical per-service forwarded calls (faulted attempts
        // included) and identical retries, driver by driver
        for (name, id) in [
            ("seed", wp.ids.seed),
            ("parts", wp.ids.parts),
            ("offers", wp.ids.offers),
        ] {
            let calls = pipeline.calls_to(id);
            assert_eq!(
                pull.calls_to(id),
                calls,
                "{desc}: pull vs pipeline calls to {name}"
            );
            let retries = pipeline.retries_to(id);
            assert_eq!(
                pull.ledger().faults_for(id).retries,
                retries,
                "{desc}: pull vs pipeline retries to {name}"
            );
        }
        assert_eq!(
            pull.partial_results(),
            pipeline.partial,
            "{desc}: pull vs pipeline partial report"
        );
    }
}

/// The operator batch size is a pure amortisation knob: sweeping it
/// across 1 (tuple-at-a-time), 2, 7 (deliberately unaligned with page
/// and chunk sizes) and 64 must leave answers, per-service call counts
/// and retry counts byte-identical for the stage-materialised and pull
/// drivers — healthy and under a seeded fault schedule.
#[test]
fn batch_size_sweep_is_equivalent_to_tuple_at_a_time() {
    let mut rng = Rng::new(0xBA_7C);
    for fault_seed in [None, Some(0x5EEDu64)] {
        for case in 0..3 {
            let cache = *rng.choose(&CacheSetting::ALL).expect("three settings");
            let plan = random_plan(&mut rng, &travel_world(2008));
            let world = || match fault_seed {
                None => travel_world(2008),
                Some(s) => faulty_world(s),
            };
            let desc = format!(
                "case {case}: cache {cache:?}, faults {fault_seed:?}, fetches {:?}, poset {}",
                plan.fetches, plan.poset
            );

            // tuple-at-a-time baseline: every batched run must match it
            let wb = world();
            let base = run(
                &plan,
                &wb.schema,
                &wb.registry,
                &ExecConfig::default(),
                ExecContext {
                    batch: 1,
                    ..ExecContext::private(cache)
                },
            )
            .unwrap_or_else(|e| panic!("{desc}: batch=1 pipeline fails: {e}"));
            let base_answers = sorted(base.answers.clone());
            let services = [wb.ids.conf, wb.ids.weather, wb.ids.flight, wb.ids.hotel];

            for batch in [2usize, 7, 64] {
                let wp = world();
                let pipeline = run(
                    &plan,
                    &wp.schema,
                    &wp.registry,
                    &ExecConfig::default(),
                    ExecContext {
                        batch,
                        ..ExecContext::private(cache)
                    },
                )
                .unwrap_or_else(|e| panic!("{desc}: batch={batch} pipeline fails: {e}"));
                assert_eq!(
                    sorted(pipeline.answers.clone()),
                    base_answers,
                    "{desc}: batch={batch} pipeline answers"
                );

                // the pull driver's batch size is the demand chunk:
                // drain it `batch` answers at a time
                let wq = world();
                let mut pull = TopKExecution::start(
                    &plan,
                    &wq.schema,
                    &wq.registry,
                    ExecContext::private(cache),
                )
                .unwrap_or_else(|e| panic!("{desc}: batch={batch} pull fails: {e}"));
                let mut pulled = Vec::new();
                loop {
                    let chunk = pull.answers(batch);
                    let done = chunk.len() < batch;
                    pulled.extend(chunk);
                    if done {
                        break;
                    }
                }
                assert!(
                    pull.error().is_none(),
                    "{desc}: batch={batch} pull poisoned: {:?}",
                    pull.error()
                );
                assert_eq!(
                    sorted(pulled),
                    base_answers,
                    "{desc}: batch={batch} pull answers"
                );

                let pull_ledger = pull.ledger();
                for id in services {
                    let calls = base.calls_to(id);
                    let retries = base.retries_to(id);
                    assert_eq!(
                        pipeline.calls_to(id),
                        calls,
                        "{desc}: batch={batch} pipeline calls to {id:?}"
                    );
                    assert_eq!(
                        pipeline.retries_to(id),
                        retries,
                        "{desc}: batch={batch} pipeline retries to {id:?}"
                    );
                    assert_eq!(
                        pull.calls_to(id),
                        calls,
                        "{desc}: batch={batch} pull calls to {id:?}"
                    );
                    assert_eq!(
                        pull_ledger.faults_for(id).retries,
                        retries,
                        "{desc}: batch={batch} pull retries to {id:?}"
                    );
                }
            }
        }
    }
}

/// The adaptive driver under the same sweep: answers, per-service call
/// counts *and re-plan decisions* are invariant in the batch size (the
/// divergence checks run at the same stage boundaries with the same
/// observed statistics, whatever the batch).
#[test]
fn adaptive_batch_sweep_preserves_replans() {
    for fault_seed in [None, Some(0xAD_A9u64)] {
        let desc = match fault_seed {
            None => "healthy".to_string(),
            Some(s) => format!("seeded faults {s:#x}"),
        };

        let (wb, plan_b, shared_b) = adaptive_fixture(fault_seed);
        let mut rp = adaptive_replanner(&wb);
        let base = run(
            &plan_b,
            &wb.world.schema,
            &wb.world.registry,
            &ExecConfig::default(),
            ExecContext {
                batch: 1,
                adaptive: Some((AdaptiveConfig::default(), &mut rp)),
                ..ExecContext::shared(shared_b)
            },
        )
        .unwrap_or_else(|e| panic!("{desc}: batch=1 adaptive fails: {e}"));
        assert!(
            base.replans >= 1,
            "{desc}: the mis-estimate forces a re-plan"
        );
        let base_answers = sorted(base.answers.clone());

        for batch in [2usize, 7, 64] {
            let (w, plan, shared) = adaptive_fixture(fault_seed);
            let mut rp = adaptive_replanner(&w);
            let out = run(
                &plan,
                &w.world.schema,
                &w.world.registry,
                &ExecConfig::default(),
                ExecContext {
                    batch,
                    adaptive: Some((AdaptiveConfig::default(), &mut rp)),
                    ..ExecContext::shared(shared)
                },
            )
            .unwrap_or_else(|e| panic!("{desc}: batch={batch} adaptive fails: {e}"));
            assert_eq!(
                sorted(out.answers.clone()),
                base_answers,
                "{desc}: batch={batch} adaptive answers"
            );
            assert_eq!(
                out.replans, base.replans,
                "{desc}: batch={batch} adaptive replans"
            );
            for id in [w.ids.seed, w.ids.parts, w.ids.offers] {
                assert_eq!(
                    out.calls_to(id),
                    base.calls_to(id),
                    "{desc}: batch={batch} adaptive calls to {id:?}"
                );
                assert_eq!(
                    out.retries_to(id),
                    base.retries_to(id),
                    "{desc}: batch={batch} adaptive retries to {id:?}"
                );
            }
        }
    }
}

/// Early halting never changes *which* answers arrive, only how many
/// calls are spent: the first k pulled answers are a prefix-equivalent
/// subset of the materialised answer set.
#[test]
fn randomized_plans_topk_prefix_is_subset() {
    let mut rng = Rng::new(0x70CC);
    for case in 0..8 {
        let w = travel_world(2008);
        let plan = random_plan(&mut rng, &w);
        let k = rng.range_usize(1, 12);
        let full = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("pipeline");
        let full_set = sorted(full.answers.clone());
        let mut pull = TopKExecution::start(
            &plan,
            &w.schema,
            &w.registry,
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("pull");
        let first_k = pull.answers(k);
        assert_eq!(
            first_k.len(),
            k.min(full_set.len()),
            "case {case}: k={k} answers available"
        );
        for a in &first_k {
            assert!(
                full_set.binary_search(a).is_ok(),
                "case {case}: pulled answer {a} missing from materialised set"
            );
        }
        if !first_k.is_empty() && first_k.len() < full_set.len() {
            assert!(
                pull.total_calls() <= full.calls.values().sum::<u64>(),
                "case {case}: early halt never spends more calls"
            );
        }
    }
}
