//! Cross-crate integration: all executors agree, all domains run, and
//! failure paths surface as errors rather than wrong answers.

use mdq::prelude::*;
use mdq_bench::experiments::fig11::{build_shape, PlanShape};
use std::collections::HashMap;

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// The executors (stage-materialised, pull, parallel-dispatch) produce
/// the same answer set on the travel workload.
#[test]
fn all_executors_agree() {
    let w = travel_world(2008);
    let plan = build_shape(&w, PlanShape::O);
    let baseline = sorted(
        run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::Optimal),
        )
        .expect("pipeline")
        .answers,
    );

    let mut pull = TopKExecution::start(
        &plan,
        &w.schema,
        &w.registry,
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("pull");
    assert_eq!(sorted(pull.answers(1 << 20)), baseline, "pull executor");

    let par = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig {
            k: None,
            stage: StageModel::ParallelDispatch {
                threads: 16,
                spawn_overhead: 0.05,
                shuffle_seed: 1,
            },
        },
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("parallel dispatch");
    assert_eq!(sorted(par.answers), baseline, "parallel dispatch");
}

/// Caching never changes the answers — only the number of calls.
#[test]
fn cache_settings_preserve_answers() {
    for shape in PlanShape::ALL {
        let mut per_cache: Vec<(u64, Vec<Tuple>)> = Vec::new();
        for cache in CacheSetting::ALL {
            let w = travel_world(2008);
            let plan = build_shape(&w, shape);
            let r = run(
                &plan,
                &w.schema,
                &w.registry,
                &ExecConfig::default(),
                ExecContext::private(cache),
            )
            .expect("executes");
            per_cache.push((r.calls.values().sum(), sorted(r.answers)));
        }
        assert_eq!(per_cache[0].1, per_cache[1].1);
        assert_eq!(per_cache[1].1, per_cache[2].1);
        assert!(per_cache[0].0 >= per_cache[1].0, "one-call saves calls");
        assert!(per_cache[1].0 >= per_cache[2].0, "optimal saves more");
    }
}

/// Each simulated domain optimizes and executes through the facade.
#[test]
fn every_domain_runs_end_to_end() {
    let worlds: Vec<(&str, World, String, u64)> = vec![
        (
            "protein",
            mdq::services::domains::protein::protein_world(5),
            "q(H, M, D, S) :- kegg('glycolysis', H), interpro(H, D, 'yes'), \
             blast(H, M, 'mouse', S), uniprot(M, 'mouse', G), S >= 500."
                .to_string(),
            10,
        ),
        (
            "bibliography",
            mdq::services::domains::bibliography::bibliography_world(5),
            "q(A, T, P, F) :- pubsearch('service computing', A, T, Y, C), \
             projects(A, P, 'FP7', F), Y >= 2005."
                .to_string(),
            5,
        ),
        (
            "news",
            mdq::services::domains::news::news_world(),
            "q(City, V, P) :- events('mahler-2', City, V, D), \
             lowcost('Milano', City, P), P <= 60.0."
                .to_string(),
            3,
        ),
    ];
    for (name, world, text, k) in worlds {
        let engine = mdq::Mdq::from_world(world);
        let out = engine.run(&text, k).expect("runs");
        assert!(
            !out.answers().is_empty(),
            "domain `{name}` produced no answers"
        );
        assert!(out.virtual_time() > 0.0, "domain `{name}` has zero time");
    }
}

/// Answers arrive in an order consistent with the search services'
/// rankings: for the bibliography query, the first answer's author has
/// the best publication-relevance rank among all answered authors.
#[test]
fn global_order_respects_search_ranking() {
    let w = mdq::services::domains::bibliography::bibliography_world(5);
    let pubs_id = w.schema.service_by_name("pubsearch").expect("exists");
    let pubsearch = w.registry.get(pubs_id).expect("registered").clone();
    // ranking: author of the globally top publication hit
    let top_hit_author = pubsearch
        .fetch(0, &[Value::str("service computing")], 0)
        .tuples[0]
        .get(1)
        .clone();
    let engine = mdq::Mdq::from_world(w);
    let out = engine
        .run(
            "q(A, T, P, F) :- pubsearch('service computing', A, T, Y, C), \
             projects(A, P, 'FP7', F), Y >= 2005.",
            5,
        )
        .expect("runs");
    // top-ranked author coordinates an FP7 project in this world, so the
    // first answer must be theirs
    assert_eq!(out.answers()[0].get(0), &top_hit_author);
}

/// A query that needs an unregistered service fails at execution, not
/// with silent emptiness.
#[test]
fn missing_runtime_service_errors() {
    let schema = mdq::model::examples::running_example_schema();
    let mut engine = mdq::Mdq::new();
    *engine.schema_mut() = schema;
    // no registry entries at all
    match engine.run("q(C) :- conf('DB', C, S, E, City), weather(City, T, S).", 3) {
        Err(err) => assert!(matches!(err, mdq::MdqError::Exec(_)), "{err}"),
        Ok(_) => panic!("expected a MissingService error"),
    }
}

/// Failure injection: a service returning empty chunks early (decayed
/// stream shorter than the requested fetches) degrades gracefully.
#[test]
fn short_streams_degrade_gracefully() {
    let mut schema = Schema::new();
    let tiny = ServiceBuilder::new(&mut schema, "tiny")
        .attr_kinded("K", "DK", DomainKind::Str)
        .attr_kinded("V", "DV", DomainKind::Int)
        .pattern("io")
        .search()
        .chunked(10)
        .profile(ServiceProfile::new(10.0, 0.1))
        .register()
        .expect("registers");
    let mut engine = mdq::Mdq::new();
    *engine.schema_mut() = schema;
    // only 3 rows exist although the optimizer may ask for many pages
    let rows: Vec<Tuple> = (0..3)
        .map(|i| Tuple::new(vec![Value::str("k"), Value::Int(i)]))
        .collect();
    engine.registry_mut().register(
        tiny,
        SyntheticSource::new(
            "tiny",
            vec![AccessPattern::parse("io").expect("valid")],
            rows,
            Some(10),
            LatencyModel::fixed(0.1),
        ),
    );
    let out = engine.run("q(V) :- tiny('k', V).", 50).expect("runs");
    assert_eq!(out.answers().len(), 3, "all available tuples, no more");
}

/// Per-service counters aggregate across runs in the registry while the
/// per-run report stays isolated.
#[test]
fn registry_counters_accumulate() {
    let w = travel_world(2008);
    let plan = build_shape(&w, PlanShape::O);
    let mut totals: HashMap<&str, u64> = HashMap::new();
    for _ in 0..2 {
        let r = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::NoCache),
        )
        .expect("executes");
        *totals.entry("weather").or_insert(0) += r.calls_to(w.ids.weather);
    }
    assert_eq!(totals["weather"], 142, "71 per run");
    let counter = w.registry.counter(w.ids.weather).expect("counter");
    assert_eq!(counter.calls(), 142, "registry counter saw both runs");
}
