//! Semantic equivalence of the plan space: every admissible topology is
//! a different *schedule* for the same conjunctive query, so — given
//! fetch budgets that cover the full data — all 19 α1 topologies of
//! Example 5.1 must produce exactly the same answer set on the travel
//! world. This pins the whole stack (topology enumeration → plan
//! lowering → join placement → execution) to the declarative semantics.

use mdq::prelude::*;
use std::sync::Arc;

#[test]
fn all_19_topologies_agree_on_answers() {
    let w = travel_world(2008);
    let query = Arc::new(w.query.clone());
    let choice = ApChoice(vec![0, 0, 0, 0]);
    let suppliers = SupplierMap::build(&query, &w.schema, &choice);
    let topologies = all_topologies(query.atoms.len(), &suppliers);
    assert_eq!(topologies.len(), 19);

    let mut reference: Option<Vec<Tuple>> = None;
    for (i, poset) in topologies.into_iter().enumerate() {
        let mut plan = build_plan(
            Arc::clone(&query),
            &w.schema,
            choice.clone(),
            poset.clone(),
            (0..query.atoms.len()).collect(),
            &StrategyRule::default(),
        )
        .expect("admissible topology lowers");
        // cover the whole data: the largest per-city result is 20 flights
        // (one chunk of 25) and 5 hotels (one chunk), so F = 2 suffices —
        // use a comfortable margin
        for pos in plan.chunked_positions(&w.schema) {
            plan.set_fetch(pos, 4);
        }
        let report = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::Optimal),
        )
        .expect("executes");
        let mut answers = report.answers;
        answers.sort();
        match &reference {
            None => reference = Some(answers),
            Some(want) => assert_eq!(
                &answers, want,
                "topology #{i} ({poset}) disagrees with the reference answers"
            ),
        }
    }
    assert!(
        reference.map(|r| !r.is_empty()).unwrap_or(false),
        "the reference answer set is non-empty"
    );
}

/// The same holds across the three permissible pattern sequences: the
/// *accessible* answers may shrink (bounded scans), but answers produced
/// under α2/α4 are always a subset of the α1-complete set.
#[test]
fn alternative_sequences_answer_subsets() {
    let w = travel_world(2008);
    let query = Arc::new(w.query.clone());

    let full = {
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let poset = Poset::from_pairs(
            4,
            &[
                (
                    mdq::model::examples::ATOM_CONF,
                    mdq::model::examples::ATOM_WEATHER,
                ),
                (
                    mdq::model::examples::ATOM_WEATHER,
                    mdq::model::examples::ATOM_FLIGHT,
                ),
                (
                    mdq::model::examples::ATOM_WEATHER,
                    mdq::model::examples::ATOM_HOTEL,
                ),
            ],
        )
        .expect("acyclic");
        let mut plan = build_plan(
            Arc::clone(&query),
            &w.schema,
            choice,
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        for pos in plan.chunked_positions(&w.schema) {
            plan.set_fetch(pos, 4);
        }
        let mut answers = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::Optimal),
        )
        .expect("executes")
        .answers;
        answers.sort();
        answers
    };

    for choice in permissible_sequences(&query, &w.schema) {
        let suppliers = SupplierMap::build(&query, &w.schema, &choice);
        // one representative topology per sequence: max-parallel
        let Some(poset) = max_parallel_topology(&query, &w.schema, &choice) else {
            continue;
        };
        let _ = &suppliers;
        let mut plan = build_plan(
            Arc::clone(&query),
            &w.schema,
            choice.clone(),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        for pos in plan.chunked_positions(&w.schema) {
            plan.set_fetch(pos, 4);
        }
        let report = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::Optimal),
        )
        .expect("executes");
        for a in &report.answers {
            assert!(
                full.binary_search(a).is_ok(),
                "answer {a} under {choice} is not in the α1-complete set"
            );
        }
    }
}
