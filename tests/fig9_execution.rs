//! Executing the Fig. 9 alternative plan (α2 patterns: hotel② scan
//! branch, nested-loop join) against the calibrated travel world — the
//! engine path not exercised by the Fig. 11 plans (which are all-α1 and
//! merge-scan).

use mdq::prelude::*;
use mdq_bench::experiments::fig11::{build_shape, PlanShape};
use mdq_bench::experiments::fig8::fig9_plan;

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// Fig. 9 executes: the hotel scan runs directly off the query input,
/// the conf → weather → flight chain runs beside it, and the NL join
/// (hotel as the bounded outer side) merges them.
#[test]
fn fig9_plan_executes_with_nl_join() {
    let w = travel_world(2008);
    // fig9_plan builds against the canonical schema; rebuild against the
    // world's (they are identical — same constructor)
    let plan = fig9_plan();
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::OneCall),
    )
    .expect("executes");
    // the hotel scan is one invocation of F = 2 pages = 2 calls
    assert_eq!(report.calls_to(w.ids.hotel), 2, "one scan, two fetches");
    assert_eq!(report.calls_to(w.ids.conf), 1);
    assert_eq!(report.calls_to(w.ids.weather), 71);
    assert_eq!(report.calls_to(w.ids.flight), 16);
    // answers satisfy every predicate
    for a in &report.answers {
        let hp = a.get(2).as_f64().expect("HPrice");
        let fp = a.get(3).as_f64().expect("FPrice");
        assert!(fp + hp < 2000.0);
    }
}

/// Fig. 9's answers are a subset of plan O's: the bounded hotel scan
/// (F = 2 → the 10 globally cheapest hotels) sees only some cities.
#[test]
fn fig9_answers_subset_of_plan_o() {
    let w = travel_world(2008);
    let fig9 = fig9_plan();
    let nine = run(
        &w.schema
            .service_by_name("hotel")
            .map(|_| fig9)
            .expect("schema matches"),
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("executes");

    let w2 = travel_world(2008);
    let plan_o = build_shape(&w2, PlanShape::O);
    let full = run(
        &plan_o,
        &w2.schema,
        &w2.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("executes");
    let full_set = sorted(full.answers);
    for a in sorted(nine.answers) {
        assert!(
            full_set.binary_search(&a).is_ok(),
            "Fig. 9 answer {a} must be among plan O's answers"
        );
    }
}

/// The same plan through the pull executor agrees with the pipeline and
/// halts the hotel scan early when only a few answers are needed.
#[test]
fn fig9_pull_agrees_and_halts() {
    let w = travel_world(2008);
    let plan = fig9_plan();
    let all = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("executes");
    let w2 = travel_world(2008);
    let mut pull = TopKExecution::start(
        &plan,
        &w2.schema,
        &w2.registry,
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("builds");
    let pulled = pull.answers(1 << 20);
    assert_eq!(sorted(pulled), sorted(all.answers.clone()));

    // asking for just one answer issues fewer calls
    let w3 = travel_world(2008);
    let mut one = TopKExecution::start(
        &plan,
        &w3.schema,
        &w3.registry,
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("builds");
    if one.next_answer().is_some() {
        let total_calls: u64 = all.calls.values().sum();
        assert!(one.total_calls() < total_calls);
    }
}
