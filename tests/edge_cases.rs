//! Cross-crate edge cases: degenerate queries, single atoms, Cartesian
//! joins, deep paging, and cache corner behaviour.

use mdq::prelude::*;
use mdq::Mdq;

fn single_service_engine() -> (Mdq, ServiceId) {
    let mut engine = Mdq::new();
    let svc = ServiceBuilder::new(engine.schema_mut(), "catalog")
        .attr_kinded("Topic", "Topic", DomainKind::Str)
        .attr_kinded("Item", "Item", DomainKind::Str)
        .attr_kinded("Price", "Price", DomainKind::Float)
        .pattern("ioo")
        .search()
        .chunked(2)
        .profile(ServiceProfile::new(2.0, 0.3))
        .register()
        .expect("registers");
    let rows: Vec<Tuple> = (0..7)
        .map(|i| {
            Tuple::new(vec![
                Value::str("t"),
                Value::str(format!("item{i}")),
                Value::float(10.0 + i as f64),
            ])
        })
        .collect();
    engine.registry_mut().register(
        svc,
        SyntheticSource::new(
            "catalog",
            vec![AccessPattern::parse("ioo").expect("valid")],
            rows,
            Some(2),
            LatencyModel::fixed(0.3),
        ),
    );
    (engine, svc)
}

/// A single-atom query: one topology, one sequence, fetch assignment
/// drives everything.
#[test]
fn single_atom_query() {
    let (engine, svc) = single_service_engine();
    let out = engine
        .run("q(Item, Price) :- catalog('t', Item, Price).", 5)
        .expect("runs");
    assert_eq!(out.answers().len(), 5);
    // 5 answers at chunk 2 need 3 fetches
    assert_eq!(out.calls_to(svc), 3);
    // ranked order is preserved (ascending price = rank order here)
    let prices: Vec<f64> = out
        .answers()
        .iter()
        .map(|a| a.get(1).as_f64().expect("price"))
        .collect();
    for w in prices.windows(2) {
        assert!(w[0] <= w[1], "{prices:?}");
    }
}

/// Asking for more answers than exist terminates cleanly.
#[test]
fn overshooting_k_terminates() {
    let (engine, _) = single_service_engine();
    let out = engine
        .run("q(Item) :- catalog('t', Item, Price).", 500)
        .expect("runs");
    assert_eq!(out.answers().len(), 7, "all items, no hang");
}

/// An unknown topic yields zero answers (and a fast empty response).
#[test]
fn empty_result_set() {
    let (engine, svc) = single_service_engine();
    let out = engine
        .run("q(Item) :- catalog('nope', Item, Price).", 5)
        .expect("runs");
    assert!(out.answers().is_empty());
    assert!(out.calls_to(svc) >= 1);
}

/// Two services with no shared variables: a Cartesian-product join.
#[test]
fn cartesian_join_without_shared_vars() {
    let mut engine = Mdq::new();
    let a = ServiceBuilder::new(engine.schema_mut(), "xs")
        .attr_kinded("K", "KX", DomainKind::Str)
        .attr_kinded("X", "DX", DomainKind::Int)
        .pattern("io")
        .profile(ServiceProfile::new(2.0, 0.1))
        .register()
        .expect("registers");
    let b = ServiceBuilder::new(engine.schema_mut(), "ys")
        .attr_kinded("K", "KY", DomainKind::Str)
        .attr_kinded("Y", "DY", DomainKind::Int)
        .pattern("io")
        .profile(ServiceProfile::new(3.0, 0.1))
        .register()
        .expect("registers");
    engine.registry_mut().register(
        a,
        SyntheticSource::new(
            "xs",
            vec![AccessPattern::parse("io").expect("valid")],
            (0..2)
                .map(|i| Tuple::new(vec![Value::str("k"), Value::Int(i)]))
                .collect::<Vec<_>>(),
            None,
            LatencyModel::fixed(0.1),
        ),
    );
    engine.registry_mut().register(
        b,
        SyntheticSource::new(
            "ys",
            vec![AccessPattern::parse("io").expect("valid")],
            (0..3)
                .map(|i| Tuple::new(vec![Value::str("k"), Value::Int(10 + i)]))
                .collect::<Vec<_>>(),
            None,
            LatencyModel::fixed(0.1),
        ),
    );
    let out = engine
        .run("q(X, Y) :- xs('k', X), ys('k', Y).", 100)
        .expect("runs");
    assert_eq!(out.answers().len(), 6, "2 × 3 cross product");
}

/// Repeated variables inside one atom enforce equality on the results.
#[test]
fn repeated_variable_filters_results() {
    let mut engine = Mdq::new();
    let svc = ServiceBuilder::new(engine.schema_mut(), "pairs")
        .attr_kinded("K", "DK", DomainKind::Str)
        .attr_kinded("A", "DA", DomainKind::Int)
        .attr_kinded("B", "DA", DomainKind::Int)
        .pattern("ioo")
        .profile(ServiceProfile::new(3.0, 0.1))
        .register()
        .expect("registers");
    let rows = vec![
        Tuple::new(vec![Value::str("k"), Value::Int(1), Value::Int(1)]),
        Tuple::new(vec![Value::str("k"), Value::Int(1), Value::Int(2)]),
        Tuple::new(vec![Value::str("k"), Value::Int(3), Value::Int(3)]),
    ];
    engine.registry_mut().register(
        svc,
        SyntheticSource::new(
            "pairs",
            vec![AccessPattern::parse("ioo").expect("valid")],
            rows,
            None,
            LatencyModel::fixed(0.1),
        ),
    );
    // q(X) :- pairs('k', X, X): only the diagonal rows survive
    let out = engine.run("q(X) :- pairs('k', X, X).", 10).expect("runs");
    assert_eq!(out.answers().len(), 2);
}

/// Deep paging through the pull executor in elastic mode: one input key,
/// many pages, the stream ends exactly at the data boundary.
#[test]
fn deep_elastic_paging() {
    let (engine, svc) = single_service_engine();
    let query = engine
        .parse("q(Item, Price) :- catalog('t', Item, Price).")
        .expect("parses");
    let optimized = engine
        .optimize(query, &RequestResponse, OptimizerConfig::default())
        .expect("optimizes");
    let mut pull = engine
        .pull(
            &optimized.candidate.plan,
            ExecContext {
                elastic: true,
                ..ExecContext::private(CacheSetting::Optimal)
            },
        )
        .expect("builds");
    let got = pull.answers(1000);
    assert_eq!(got.len(), 7);
    // 4 pages needed (2+2+2+1); the last short page signals exhaustion,
    // so no probing fifth call is made under a caching setting
    assert_eq!(pull.calls_to(svc), 4);
}

/// The one-call page cache forwards deeper fetches for a known key, and
/// marks exhaustion so no probing call is made past the end.
#[test]
fn one_call_cache_page_upgrade() {
    let mut cache = PageCache::new(CacheSetting::OneCall);
    let id = ServiceId(0);
    let key = vec![Value::str("k")];
    cache.store(id, &key, 0, vec![], true);
    assert!(matches!(cache.lookup(id, &key, 0), PageLookup::Hit(..)));
    assert!(
        matches!(cache.lookup(id, &key, 1), PageLookup::Unknown),
        "needs a deeper fetch"
    );
    cache.store(id, &key, 1, vec![], true);
    cache.store(id, &key, 2, vec![], false);
    assert!(matches!(
        cache.lookup(id, &key, 2),
        PageLookup::Hit(_, false)
    ));
    assert!(
        matches!(cache.lookup(id, &key, 5), PageLookup::PastEnd),
        "exhaustion answers any deeper request"
    );
}

/// Date arithmetic across month/year boundaries, used by the query's
/// six-month window.
#[test]
fn date_window_boundaries() {
    let base = Date::parse("2007/3/14").expect("parses");
    assert_eq!(format!("{}", base.plus_days(180)), "2007/09/10");
    assert_eq!(format!("{}", base.plus_days(-73)), "2006/12/31");
    let leap = Date::parse("2008/2/29").expect("leap day parses");
    assert_eq!(format!("{}", leap.plus_days(1)), "2008/03/01");
    assert_eq!(
        Value::Date(base)
            .checked_add(&Value::Int(180))
            .expect("date + int"),
        Value::Date(Date::parse("2007/9/10").expect("parses"))
    );
}

/// Optimizing with every metric yields a plan that actually executes.
#[test]
fn all_metrics_produce_executable_plans() {
    let w = travel_world(2008);
    let engine = Mdq::from_world(mdq::services::domains::World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    });
    let text = "q(Conf, City) :- conf('DB', Conf, S, E, City), weather(City, T, S), T >= 28 @1.0.";
    for metric in all_metrics() {
        let query = engine.parse(text).expect("parses");
        let optimized = engine
            .optimize(query, metric.as_ref(), OptimizerConfig::default())
            .expect("optimizes");
        let report = engine
            .execute(
                &optimized.candidate.plan,
                &ExecConfig {
                    k: Some(5),
                    ..ExecConfig::default()
                },
                ExecContext::private(CacheSetting::OneCall),
            )
            .expect("executes");
        assert!(
            !report.answers.is_empty(),
            "{} produced an unexecutable plan",
            metric.name()
        );
    }
}
