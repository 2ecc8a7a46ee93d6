//! Golden integration tests: every number the paper states about the
//! running example, checked end-to-end through the public API.

use mdq::prelude::*;
use mdq_bench::experiments::fig11::{self, PlanShape, PAPER_CALLS};
use mdq_bench::experiments::{fig7, fig8, table1};
use std::sync::Arc;

fn schema_and_query() -> (Schema, ConjunctiveQuery) {
    let schema = mdq::model::examples::running_example_schema();
    let query = mdq::model::examples::running_example_query(&schema);
    (schema, query)
}

/// Fig. 3 parses, validates, and round-trips through its own display.
#[test]
fn fig3_query_roundtrip() {
    let (schema, query) = schema_and_query();
    assert_eq!(query.atoms.len(), 4);
    assert_eq!(query.predicates.len(), 4);
    assert_eq!(query.head.len(), 9);
    let text = format!("{}", query.display(&schema));
    let reparsed = parse_query(&text, &schema).expect("round-trip parses");
    assert_eq!(format!("{}", reparsed.display(&schema)), text);
}

/// Example 4.1: 4 raw choices, α3 impermissible, {α1, α4} most cogent.
#[test]
fn example_41_golden() {
    let (schema, query) = schema_and_query();
    let seqs = permissible_sequences(&query, &schema);
    assert_eq!(seqs.len(), 3);
    assert!(
        !seqs.contains(&ApChoice(vec![0, 0, 1, 0])),
        "α3 impermissible"
    );
    let best = most_cogent(&query, &schema, &seqs);
    assert_eq!(best.len(), 2);
}

/// Example 5.1: 19 plans under α1, 6 of them serial.
#[test]
fn example_51_nineteen_plans() {
    let priced = fig7::priced_topologies();
    assert_eq!(priced.len(), 19);
    assert_eq!(priced.iter().filter(|p| p.is_chain).count(), 6);
}

/// Fig. 8: F = (3, 4) from Eq. 6 and the annotated cardinalities.
#[test]
fn fig8_golden() {
    let (_, values) = fig8::compute();
    assert_eq!(values, fig8::PAPER);
}

/// Table 1: chunk sizes and response times recovered by the profiler.
#[test]
fn table1_golden() {
    let reports = table1::profile_all(2008);
    assert_eq!(reports[2].chunk_size, Some(25), "flight chunk");
    assert_eq!(reports[3].chunk_size, Some(5), "hotel chunk");
    assert!((reports[0].avg_response_time - 1.2).abs() < 1e-9);
    assert!((reports[1].avg_response_time - 1.5).abs() < 1e-9);
    assert!((reports[3].avg_response_time - 4.9).abs() < 1e-9);
}

/// Fig. 11: the full 3 × 3 call matrix, exactly as published.
#[test]
fn fig11_call_matrix_golden() {
    let m = fig11::run_matrix(2008);
    for ci in 0..3 {
        for si in 0..3 {
            let c = m[ci][si];
            assert_eq!(
                (c.weather, c.flight, c.hotel),
                PAPER_CALLS[ci][si],
                "cache row {ci}, plan column {si}"
            );
        }
    }
}

/// Fig. 11 totals: conf always contributes exactly one call.
#[test]
fn conf_is_called_once_everywhere() {
    for shape in PlanShape::ALL {
        for cache in CacheSetting::ALL {
            let world = travel_world(2008);
            let plan = fig11::build_shape(&world, shape);
            let report = mdq::exec::pipeline::run(
                &plan,
                &world.schema,
                &world.registry,
                &ExecConfig::default(),
                ExecContext::private(cache),
            )
            .expect("executes");
            assert_eq!(report.calls_to(world.ids.conf), 1);
        }
    }
}

/// The multithreading experiment's qualitative claims (§6).
#[test]
fn multithreading_golden() {
    let t = fig11::threading_experiment(2008);
    assert_eq!(t.sequential_hotel_calls, 15);
    assert!(t.parallel_hotel_calls > 150 && t.parallel_hotel_calls <= 284);
    assert!(t.parallel_time < 120.0, "{}", t.parallel_time);
}

/// End-to-end through the facade: the optimizer's chosen plan answers
/// the Fig. 3 query with at least k = 10 tuples satisfying every
/// predicate.
#[test]
fn facade_answers_running_example() {
    let world = travel_world(2008);
    let engine = mdq::Mdq::from_world(mdq::services::domains::World {
        schema: world.schema,
        query: world.query,
        registry: world.registry,
    });
    // the Fig. 3 query with its default selectivities: hard-coding
    // optimistic hints (e.g. `Temp >= 28 @1.0`) makes the optimizer pick
    // a hotel-scan plan whose real output is empty — the calibrated
    // world's cheap hotels all sit in cold cities
    let out = engine
        .run(
            "q(Conf, City, HPrice, FPrice, Hotel) :- \
             flight('Milano', City, Start, End, ST, ET, FPrice), \
             hotel(Hotel, City, 'luxury', Start, End, HPrice), \
             conf('DB', Conf, Start, End, City), \
             weather(City, Temp, Start), \
             Start >= '2007/3/14', End <= '2007/3/14' + 180, \
             Temp >= 28, FPrice + HPrice < 2000.",
            10,
        )
        .expect("runs");
    assert_eq!(out.answers().len(), 10);
    for a in out.answers() {
        let hp = a.get(2).as_f64().expect("HPrice");
        let fp = a.get(3).as_f64().expect("FPrice");
        assert!(fp + hp < 2000.0);
    }
}

/// The optimizer beats (or ties) all three measured plans of Fig. 11
/// under ETM with estimates, and its plan executes at least as fast as
/// S and P in measured virtual time.
#[test]
fn optimizer_beats_measured_plans() {
    let (schema, query) = schema_and_query();
    let query = Arc::new(query);
    let optimized = optimize(
        Arc::clone(&query),
        &schema,
        &ExecutionTime,
        &OptimizerConfig::default(),
    )
    .expect("optimizes");

    let world = travel_world(2008);
    let chosen = mdq::plan::builder::build_plan(
        Arc::new(world.query.clone()),
        &world.schema,
        optimized.candidate.plan.choice.clone(),
        optimized.candidate.plan.poset.clone(),
        optimized.candidate.plan.atoms.clone(),
        &StrategyRule::default(),
    )
    .expect("rebuilds");
    let mut chosen = chosen;
    chosen
        .fetches
        .copy_from_slice(&optimized.candidate.plan.fetches);
    let chosen_report = mdq::exec::pipeline::run(
        &chosen,
        &world.schema,
        &world.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::OneCall),
    )
    .expect("executes");

    for shape in [PlanShape::S, PlanShape::P] {
        let w = travel_world(2008);
        let p = fig11::build_shape(&w, shape);
        let r = mdq::exec::pipeline::run(
            &p,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes");
        assert!(
            chosen_report.virtual_time <= r.virtual_time + 1e-9,
            "optimizer plan ({:.1}s) beats {} ({:.1}s)",
            chosen_report.virtual_time,
            shape.label(),
            r.virtual_time
        );
    }
}
