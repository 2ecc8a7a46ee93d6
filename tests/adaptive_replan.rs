//! Adaptive mid-flight re-optimization, end to end on the catalog
//! world: a deliberately mis-estimated workload must trigger a re-plan
//! that completes with strictly fewer total service calls than the
//! frozen plan, pages fetched before the splice must never be
//! re-requested, and a well-estimated workload must see zero re-plans
//! (no overhead when the estimates hold).

use mdq::cost::divergence::AdaptiveConfig;
use mdq::exec::adaptive::ReplanRequest;
use mdq::exec::cache::CacheSetting as ExecCache;
use mdq::exec::gateway::SharedServiceState;
use mdq::prelude::*;
use mdq::services::domains::catalog::{catalog_world, CatalogWorld, SEED_ITEMS};
use std::sync::Arc;

const K: u64 = 10;

fn engine_of(c: CatalogWorld) -> (Mdq, mdq::services::domains::catalog::CatalogIds) {
    (Mdq::from_world(c.world), c.ids)
}

fn query_text(c: &CatalogWorld) -> String {
    // the canonical catalog query, as text for the facade entry points
    let _ = c;
    "q(Item, Part, Vendor, Price) :- seed('widgets', Item), parts(Item, Part), \
     offers(Part, Vendor, Price), Price <= 100.0."
        .to_string()
}

/// The frozen plan executed as-is over a fresh memoizing shared state
/// (returned, with everything the run observed): the baseline the
/// adaptive run must beat.
fn frozen_run(engine: &Mdq, text: &str) -> (Arc<SharedServiceState>, Plan) {
    let query = engine.parse(text).expect("parses");
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: K,
                cache: mdq::cost::estimate::CacheSetting::Optimal,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
    run(
        &optimized.candidate.plan,
        engine.schema(),
        engine.registry(),
        &ExecConfig {
            k: Some(K as usize),
            ..ExecConfig::default()
        },
        ExecContext::shared(Arc::clone(&shared)),
    )
    .expect("frozen run executes");
    (shared, optimized.candidate.plan)
}

fn frozen_calls(engine: &Mdq, text: &str) -> (u64, Plan) {
    let (shared, plan) = frozen_run(engine, text);
    (shared.total_calls(), plan)
}

#[test]
fn mis_estimated_workload_replans_and_saves_calls() {
    let (engine, ids) = engine_of(catalog_world(true));
    let text = query_text(&catalog_world(true));
    let (frozen, frozen_plan) = frozen_calls(&engine, &text);

    let out = engine
        .run_adaptive(&text, K, &AdaptiveConfig::default())
        .expect("adaptive run executes");
    let adaptive: u64 = out.report.calls.values().sum();

    assert!(
        out.report.replans >= 1,
        "the mis-estimate must force a re-plan"
    );
    assert!(
        adaptive < frozen,
        "adaptive ({adaptive} calls) must beat the frozen plan ({frozen} calls)"
    );
    // the stale registration made the optimizer over-fetch the chunked
    // suffix; the savings are substantial, not marginal
    assert!(
        adaptive * 2 <= frozen,
        "adaptive ({adaptive}) should halve the frozen bill ({frozen})"
    );
    // answers are genuine top-k answers of the final plan
    assert_eq!(out.answers().len(), K as usize);
    for a in out.answers() {
        assert!(a.get(3).as_f64().expect("price") <= 100.0);
    }
    // the re-plan event names the drifted service
    assert_eq!(out.report.events.len(), out.report.replans as usize);
    assert!(out.report.events[0].services.contains(&"parts".to_string()));
    assert!(out.report.events[0].worst_ratio > 10.0);
    // the splice kept the executed prefix: seed and parts fetch factors
    // and patterns unchanged
    let fp = &out.report.final_plan;
    for atom in 0..2 {
        assert_eq!(fp.choice.0[atom], frozen_plan.choice.0[atom]);
    }
    // and the suffix was re-tuned down: strictly fewer offer pages
    let offers_pos = fp
        .atoms
        .iter()
        .position(|&a| fp.query.atoms[a].service == ids.offers)
        .expect("offers covered");
    assert!(
        fp.fetch_of(offers_pos) < frozen_plan.fetch_of(offers_pos),
        "re-planned F ({}) must undercut the frozen F ({})",
        fp.fetch_of(offers_pos),
        frozen_plan.fetch_of(offers_pos)
    );
}

#[test]
fn replan_never_repeats_a_cached_page() {
    // every (service, key, page) the adaptive execution demands is
    // forwarded exactly once: total forwarded calls equal the distinct
    // page-cache misses, splices notwithstanding
    let (engine, ids) = engine_of(catalog_world(true));
    let text = query_text(&catalog_world(true));
    let out = engine
        .run_adaptive(&text, K, &AdaptiveConfig::default())
        .expect("adaptive run executes");
    assert!(out.report.replans >= 1);
    // the prefix was re-executed after the splice, yet seed and parts
    // forwarded exactly one call per distinct input
    assert_eq!(out.report.calls_to(ids.seed), 1);
    assert_eq!(
        out.report.calls_to(ids.parts),
        SEED_ITEMS as u64,
        "one parts call per seeded item, splice included"
    );
}

#[test]
fn below_threshold_divergence_causes_zero_replans() {
    let (engine, _) = engine_of(catalog_world(false));
    let text = query_text(&catalog_world(false));
    let (frozen, _) = frozen_calls(&engine, &text);

    let out = engine
        .run_adaptive(&text, K, &AdaptiveConfig::default())
        .expect("adaptive run executes");
    assert_eq!(out.report.replans, 0, "truthful estimates must not re-plan");
    assert!(out.report.events.is_empty());
    let adaptive: u64 = out.report.calls.values().sum();
    assert_eq!(
        adaptive, frozen,
        "zero re-plans means zero overhead: identical call bills"
    );
    assert_eq!(out.answers().len(), K as usize);
}

#[test]
fn max_replans_zero_disables_adaptivity() {
    let (engine, _) = engine_of(catalog_world(true));
    let text = query_text(&catalog_world(true));
    let (frozen, _) = frozen_calls(&engine, &text);
    let out = engine
        .run_adaptive(
            &text,
            K,
            &AdaptiveConfig {
                max_replans: 0,
                ..AdaptiveConfig::default()
            },
        )
        .expect("adaptive run executes");
    assert_eq!(out.report.replans, 0);
    let adaptive: u64 = out.report.calls.values().sum();
    assert_eq!(adaptive, frozen, "disabled adaptivity = the frozen plan");
}

/// A head that projects body variables away makes duplicate answers
/// legal output; the adaptive pull driver must preserve them — exactly
/// like the frozen driver when no splice happens, and with the same
/// multiset as the adaptive stage driver when one does.
#[test]
fn projection_duplicates_survive_adaptive_pull() {
    let projected = "q(Item, Part) :- seed('widgets', Item), parts(Item, Part), \
         offers(Part, Vendor, Price), Price <= 100.0.";
    let plan_for = |engine: &Mdq| {
        let query = engine.parse(projected).expect("parses");
        engine
            .optimize(
                query,
                &ExecutionTime,
                OptimizerConfig {
                    k: K,
                    cache: mdq::cost::estimate::CacheSetting::Optimal,
                    ..OptimizerConfig::default()
                },
            )
            .expect("optimizes")
            .candidate
            .plan
    };

    // truthful world, zero re-plans: the adaptive pull stream must be
    // *identical* (order and duplicates) to the frozen pull stream
    let (engine, _) = engine_of(catalog_world(false));
    let plan = plan_for(&engine);
    let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
    let mut frozen = TopKExecution::start(
        &plan,
        engine.schema(),
        engine.registry(),
        ExecContext::shared(shared),
    )
    .expect("frozen pull builds");
    let frozen_answers = frozen.answers(1 << 20);
    let mut dedup = frozen_answers.clone();
    dedup.sort();
    dedup.dedup();
    assert!(
        dedup.len() < frozen_answers.len(),
        "the projection must produce duplicate heads"
    );
    let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
    let mut replanner = engine.replanner(
        &ExecutionTime,
        OptimizerConfig {
            k: K,
            cache: mdq::cost::estimate::CacheSetting::Optimal,
            ..OptimizerConfig::default()
        },
    );
    let mut adaptive = TopKExecution::start(
        &plan,
        engine.schema(),
        engine.registry(),
        ExecContext {
            adaptive: Some((AdaptiveConfig::default(), &mut replanner)),
            ..ExecContext::shared(shared)
        },
    )
    .expect("adaptive pull builds");
    let adaptive_answers = adaptive.answers(1 << 20);
    assert_eq!(adaptive.replans(), 0);
    assert_eq!(
        adaptive_answers, frozen_answers,
        "no splice: the adaptive stream is the frozen stream"
    );

    // mis-estimated world, ≥1 splice: the pull multiset must equal the
    // adaptive stage driver's on the same final plan — duplicates kept
    let (engine, _) = engine_of(catalog_world(true));
    let plan = plan_for(&engine);
    let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
    let mut replanner = engine.replanner(
        &ExecutionTime,
        OptimizerConfig {
            k: K,
            cache: mdq::cost::estimate::CacheSetting::Optimal,
            ..OptimizerConfig::default()
        },
    );
    let stage = run(
        &plan,
        engine.schema(),
        engine.registry(),
        &ExecConfig::default(),
        ExecContext {
            adaptive: Some((AdaptiveConfig::default(), &mut replanner)),
            ..ExecContext::shared(shared)
        },
    )
    .expect("stage driver executes");
    assert!(stage.replans >= 1);
    let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
    let mut replanner = engine.replanner(
        &ExecutionTime,
        OptimizerConfig {
            k: K,
            cache: mdq::cost::estimate::CacheSetting::Optimal,
            ..OptimizerConfig::default()
        },
    );
    let mut pull = TopKExecution::start(
        &plan,
        engine.schema(),
        engine.registry(),
        ExecContext {
            adaptive: Some((AdaptiveConfig::default(), &mut replanner)),
            ..ExecContext::shared(shared)
        },
    )
    .expect("adaptive pull builds");
    let pulled = pull.answers(1 << 20);
    assert_eq!(pull.replans(), stage.replans);
    let mut a = stage.answers.clone();
    let mut b = pulled;
    a.sort();
    b.sort();
    assert_eq!(a, b, "spliced pull keeps the duplicate multiset");
    let mut dedup = a.clone();
    dedup.dedup();
    assert!(dedup.len() < a.len(), "duplicates survive the splice");
}

#[test]
fn settled_divergence_does_not_rerun_the_optimizer() {
    // a replanner that refuses must be consulted once per diverging
    // service set, not at every subsequent suspension point
    let c = catalog_world(true);
    let engine = Mdq::from_world(c.world);
    let text = query_text(&catalog_world(true));
    let query = engine.parse(&text).expect("parses");
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: K,
                cache: mdq::cost::estimate::CacheSetting::Optimal,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
    let mut consults = 0u32;
    let mut refuse = |_req: &ReplanRequest<'_>| {
        consults += 1;
        None
    };
    let out = run(
        &optimized.candidate.plan,
        engine.schema(),
        engine.registry(),
        &ExecConfig {
            k: Some(K as usize),
            ..ExecConfig::default()
        },
        ExecContext {
            adaptive: Some((AdaptiveConfig::default(), &mut refuse)),
            ..ExecContext::shared(shared)
        },
    )
    .expect("executes");
    assert_eq!(out.replans, 0);
    drop(out);
    assert_eq!(
        consults, 1,
        "a settled divergence must not re-trigger the re-planner"
    );
}

/// Tenant attribution and re-planning are options of the one pull
/// driver, so they compose: every forwarded call, across the spliced
/// plan too (a re-plan keeps the gateway), is charged to the tenant —
/// and a tenant budget that runs out after the splice poisons the
/// stream without a single call having been repeated.
#[test]
fn tenant_budget_spans_the_splice_in_the_pull_driver() {
    use mdq::exec::pipeline::ExecError;
    const TENANT: u32 = 7;
    let optimizer_config = || OptimizerConfig {
        k: K,
        cache: mdq::cost::estimate::CacheSetting::Optimal,
        ..OptimizerConfig::default()
    };
    let (engine, ids) = engine_of(catalog_world(true));
    let query = engine
        .parse(&query_text(&catalog_world(true)))
        .expect("parses");
    let plan = engine
        .optimize(query, &ExecutionTime, optimizer_config())
        .expect("optimizes")
        .candidate
        .plan;
    // one tenant-attributed adaptive pull under `budget`; returns the
    // forwarded calls at the first splice too
    let pull = |budget: Option<u64>| {
        let shared = Arc::new(SharedServiceState::new(ExecCache::Optimal, 0));
        shared.set_tenant_budget(TENANT, budget);
        let mut replanner = engine.replanner(&ExecutionTime, optimizer_config());
        let mut exec = TopKExecution::start(
            &plan,
            engine.schema(),
            engine.registry(),
            ExecContext {
                tenant: Some(TENANT),
                adaptive: Some((AdaptiveConfig::default(), &mut replanner)),
                ..ExecContext::shared(Arc::clone(&shared))
            },
        )
        .expect("adaptive pull builds");
        let mut calls_at_splice = None;
        while exec.next_answer().is_some() {
            if exec.replans() > 0 && calls_at_splice.is_none() {
                calls_at_splice = Some(exec.total_calls());
            }
        }
        let per_service = [ids.seed, ids.parts, ids.offers].map(|id| exec.calls_to(id));
        (
            shared.tenant_calls(TENANT),
            exec.total_calls(),
            exec.replans(),
            exec.error(),
            calls_at_splice,
            per_service,
        )
    };

    let (charged, total, replans, error, at_splice, unbounded) = pull(None);
    assert_eq!(replans, 1, "the mis-estimate splices exactly once");
    assert!(error.is_none());
    assert_eq!(charged, total, "every call of both plans is the tenant's");
    let at_splice = at_splice.expect("answers follow the splice");
    assert!(at_splice < total, "the spliced plan forwards calls too");

    // a budget the splice fits under but the whole run does not
    let budget = total - 1;
    assert!(budget >= at_splice);
    let (charged, total, replans, error, _, bounded) = pull(Some(budget));
    assert_eq!(replans, 1, "the budget runs out after the splice");
    assert!(
        matches!(
            error,
            Some(ExecError::TenantBudgetExhausted {
                tenant: TENANT,
                budget: b,
            }) if b == budget
        ),
        "unexpected {error:?}"
    );
    assert_eq!((charged, total), (budget, budget));
    // the same distinct pages as the unbounded run, minus the refused
    // tail: had the splice repeated a call, some service would exceed
    for (b, u) in bounded.iter().zip(&unbounded) {
        assert!(b <= u, "bounded {bounded:?} vs unbounded {unbounded:?}");
    }
}

/// The profiler-free re-estimation loop README advertises: run over a
/// shared state, seed the schema from the state's own observations,
/// re-optimize — the new plan forwards strictly fewer calls than the
/// one the stale profile produced.
#[test]
fn observed_snapshot_reseeds_profiles_for_a_cheaper_plan() {
    let (mut engine, _) = engine_of(catalog_world(true));
    let text = query_text(&catalog_world(true));
    let (stale, _) = frozen_run(&engine, &text);
    let changed = engine.seed_profiles_from_observed(&stale.observed_snapshot(), 1);
    assert!(changed > 0, "the drifted service's profile is refreshed");
    let (reseeded, _) = frozen_run(&engine, &text);
    assert!(
        reseeded.total_calls() < stale.total_calls(),
        "re-seeded plan ({}) must undercut the stale one ({})",
        reseeded.total_calls(),
        stale.total_calls()
    );
}
