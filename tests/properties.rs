//! Property-based test suites for the core invariants: topology
//! enumeration, rank-preserving joins, estimator monotonicity, cache
//! orderings, parser stability, and — most importantly — agreement
//! between branch and bound and the exhaustive oracle under randomised
//! service profiles.
//!
//! Cases are generated with the workspace's deterministic
//! [`Rng`](mdq::model::rng::Rng) (the workspace builds offline, without
//! `proptest`); every assertion carries the case number, so a failure
//! names the seed that reproduces it.

use mdq::model::fingerprint::SubplanSignature;
use mdq::model::rng::Rng;
use mdq::plan::signature::invoke_prefixes;
use mdq::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Topology enumeration
// ---------------------------------------------------------------------

/// Every enumerated topology extends the required precedences, is a
/// valid strict partial order, and no two are equal.
#[test]
fn topologies_extend_constraints() {
    let mut rng = Rng::new(0x0007);
    for case in 0..64 {
        let n_pairs = rng.range_usize(0, 4);
        let pairs: Vec<(usize, usize)> = (0..n_pairs)
            .map(|_| (rng.range_usize(0, 4), rng.range_usize(0, 4)))
            .filter(|(a, b)| a != b)
            .collect();
        let Some(required) = Poset::from_pairs(4, &pairs) else {
            continue; // cyclic constraint set: nothing to enumerate
        };
        struct Constrained(Poset);
        impl Admissibility for Constrained {
            fn placeable(&self, b: usize, preds: &std::collections::HashSet<usize>) -> bool {
                (0..self.0.len()).all(|a| !self.0.lt(a, b) || preds.contains(&a))
            }
        }
        let all = all_topologies(4, &Constrained(required.clone()));
        assert!(!all.is_empty(), "case {case}: {pairs:?}");
        let mut seen = std::collections::HashSet::new();
        for p in &all {
            assert!(p.check_invariants(), "case {case}");
            assert!(
                p.extends(&required),
                "case {case}: {p} must extend the constraints {pairs:?}"
            );
            assert!(
                seen.insert(format!("{p:?}")),
                "case {case}: duplicate topology {p}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rank-preserving joins
// ---------------------------------------------------------------------

fn make_stream(var_key: u32, var_val: u32, keys: &[u8]) -> Vec<Binding> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            Binding::empty(4)
                .bind_atom(
                    &Atom {
                        service: ServiceId(0),
                        terms: vec![Term::Var(VarId(var_key)), Term::Var(VarId(var_val))],
                    },
                    &Tuple::new(vec![Value::Int(k as i64), Value::Int(i as i64)]),
                )
                .expect("binds")
        })
        .collect()
}

fn indices_of(results: &[Binding]) -> Vec<(i64, i64)> {
    results
        .iter()
        .map(|b| {
            let l = match b.get(VarId(1)) {
                Some(Value::Int(v)) => *v,
                _ => panic!("left index missing"),
            };
            let r = match b.get(VarId(2)) {
                Some(Value::Int(v)) => *v,
                _ => panic!("right index missing"),
            };
            (l, r)
        })
        .collect()
}

/// MS and NL compute exactly the brute-force equi-join result set, and
/// both emission orders are consistent with the input rankings.
#[test]
fn joins_correct_and_rank_consistent() {
    let mut rng = Rng::new(0x1013);
    for case in 0..128 {
        let left: Vec<u8> = (0..rng.range_usize(0, 12))
            .map(|_| rng.range_u64(0, 4) as u8)
            .collect();
        let right: Vec<u8> = (0..rng.range_usize(0, 12))
            .map(|_| rng.range_u64(0, 4) as u8)
            .collect();
        let expected: Vec<(i64, i64)> = {
            let mut v = Vec::new();
            for (i, a) in left.iter().enumerate() {
                for (j, b) in right.iter().enumerate() {
                    if a == b {
                        v.push((i as i64, j as i64));
                    }
                }
            }
            v.sort_unstable();
            v
        };
        let ms: Vec<Binding> = drain_all(
            MsJoin::new(
                Source(make_stream(0, 1, &left).into_iter()),
                Source(make_stream(0, 2, &right).into_iter()),
                vec![VarId(0)],
            ),
            DEFAULT_BATCH,
        );
        let nl: Vec<Binding> = drain_all(
            NlJoin::new(
                Source(make_stream(0, 1, &left).into_iter()),
                Source(make_stream(0, 2, &right).into_iter()),
                vec![VarId(0)],
                true,
            ),
            DEFAULT_BATCH,
        );
        for (name, got) in [("ms", indices_of(&ms)), ("nl", indices_of(&nl))] {
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted, expected,
                "case {case}: {name} result set on {left:?} ⋈ {right:?}"
            );
            // rank consistency: a componentwise-dominating pair never
            // appears after a dominated one
            for (pa, &a) in got.iter().enumerate() {
                for &b in got.iter().skip(pa + 1) {
                    assert!(
                        !(b.0 <= a.0 && b.1 <= a.1 && b != a),
                        "case {case}: {name}: {a:?} emitted before dominating {b:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Estimator monotonicity and cache ordering
// ---------------------------------------------------------------------

fn fig6_plan_with(f_flight: u64, f_hotel: u64) -> (Plan, Schema) {
    use mdq::model::examples::*;
    let schema = running_example_schema();
    let query = Arc::new(running_example_query(&schema));
    let poset = Poset::from_pairs(
        4,
        &[
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_WEATHER, ATOM_HOTEL),
        ],
    )
    .expect("acyclic");
    let mut plan = build_plan(
        query,
        &schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("builds");
    plan.set_fetch(ATOM_FLIGHT, f_flight);
    plan.set_fetch(ATOM_HOTEL, f_hotel);
    (plan, schema)
}

/// Output size and every metric are monotone in the fetch vector, and
/// per-node calls are ordered Optimal ≤ OneCall ≤ NoCache.
#[test]
fn estimates_monotone() {
    let mut rng = Rng::new(0x2025);
    for case in 0..64 {
        let f1 = rng.range_u64(1, 6);
        let f2 = rng.range_u64(1, 6);
        let d1 = rng.range_u64(0, 3);
        let d2 = rng.range_u64(0, 3);
        let sel = SelectivityModel::default();
        let (small, schema) = fig6_plan_with(f1, f2);
        let (big, _) = fig6_plan_with(f1 + d1, f2 + d2);
        for cache in CacheSetting::ALL {
            let est = Estimator::new(&schema, &sel, cache);
            let a = est.annotate(&small);
            let b = est.annotate(&big);
            assert!(
                b.out_size() >= a.out_size() - 1e-9,
                "case {case}: out_size monotone (F {f1},{f2} + {d1},{d2})"
            );
            for metric in all_metrics() {
                let ca = metric.cost(&small, &a, &schema);
                let cb = metric.cost(&big, &b, &schema);
                assert!(
                    cb >= ca - 1e-9,
                    "case {case}: {} monotone ({ca} vs {cb})",
                    metric.name()
                );
            }
        }
        let (plan, schema) = fig6_plan_with(f1, f2);
        let none = Estimator::new(&schema, &sel, CacheSetting::NoCache).annotate(&plan);
        let one = Estimator::new(&schema, &sel, CacheSetting::OneCall).annotate(&plan);
        let opt = Estimator::new(&schema, &sel, CacheSetting::Optimal).annotate(&plan);
        for i in 0..plan.nodes.len() {
            assert!(
                one.calls[i] <= none.calls[i] + 1e-9,
                "case {case}, node {i}"
            );
            assert!(opt.calls[i] <= one.calls[i] + 1e-9, "case {case}, node {i}");
        }
    }
}

// ---------------------------------------------------------------------
// Parser stability
// ---------------------------------------------------------------------

/// display → parse → display is a fixpoint for queries assembled from
/// random subsets of the running example's atoms.
#[test]
fn parser_display_fixpoint() {
    let mut rng = Rng::new(0x3031);
    for case in 0..64 {
        let use_hotel = rng.bool(0.5);
        let use_weather = rng.bool(0.5);
        let temp = rng.range_i64(20, 35);
        let schema = mdq::model::examples::running_example_schema();
        let mut text = String::from("q(Conf, City) :- conf('DB', Conf, Start, End, City)");
        if use_hotel {
            text.push_str(", hotel(Hotel, City, 'luxury', Start, End, HPrice)");
        }
        if use_weather {
            text.push_str(", weather(City, Temp, Start)");
            text.push_str(&format!(", Temp >= {temp}"));
        }
        text.push('.');
        let q1 = parse_query(&text, &schema).expect("parses");
        let d1 = format!("{}", q1.display(&schema));
        let q2 = parse_query(&d1, &schema).expect("reparses");
        let d2 = format!("{}", q2.display(&schema));
        assert_eq!(d1, d2, "case {case}: fixpoint for {text}");
    }
}

// ---------------------------------------------------------------------
// Branch and bound = exhaustive oracle under random profiles
// ---------------------------------------------------------------------

/// Under randomised service statistics (erspi, response times, chunk
/// sizes, join selectivity), the branch-and-bound optimum equals the
/// independent exhaustive optimum for both ETM and RRM — standalone and
/// when pricing against a non-empty shared-work oracle.
#[test]
fn bnb_equals_exhaustive_random_profiles() {
    let mut rng = Rng::new(0x4047);
    for case in 0..12 {
        let conf_erspi = rng.range_f64(2.0, 30.0);
        let weather_erspi = rng.range_f64(0.05, 1.5);
        let tau_flight = rng.range_f64(1.0, 12.0);
        let tau_hotel = rng.range_f64(1.0, 12.0);
        let cs_flight = rng.range_u64(5, 30) as u32;
        let cs_hotel = rng.range_u64(2, 10) as u32;
        let sigma = rng.range_f64(0.005, 0.2);
        let mut schema = mdq::model::examples::running_example_schema();
        {
            let id = schema.service_by_name("conf").expect("conf");
            schema.service_mut(id).profile.erspi = conf_erspi;
        }
        {
            let id = schema.service_by_name("weather").expect("weather");
            schema.service_mut(id).profile.erspi = weather_erspi;
        }
        {
            let id = schema.service_by_name("flight").expect("flight");
            schema.service_mut(id).profile.response_time = tau_flight;
            schema.service_mut(id).chunking = Chunking::Chunked {
                chunk_size: cs_flight,
            };
        }
        {
            let id = schema.service_by_name("hotel").expect("hotel");
            schema.service_mut(id).profile.response_time = tau_hotel;
            schema.service_mut(id).chunking = Chunking::Chunked {
                chunk_size: cs_hotel,
            };
        }
        let mut query = mdq::model::examples::running_example_query(&schema);
        query.predicates[3].selectivity_hint = Some(sigma);
        let query = Arc::new(query);
        let sel = SelectivityModel::default();
        let strategy = StrategyRule::default();
        let config = OptimizerConfig {
            k: 8,
            max_fetch: 5,
            ..OptimizerConfig::default()
        };
        for metric in [&ExecutionTime as &dyn CostMetric, &RequestResponse] {
            let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, metric);
            let standalone = optimize(Arc::clone(&query), &schema, metric, &config);
            let standalone = standalone.expect("bnb runs");
            agrees_with_exhaustive(
                &format!("case {case}: {}", metric.name()),
                exhaustive_optimum(&query, &ctx, &strategy, 8.0, 5),
                &standalone,
            );

            // the discounted path: every invoke prefix of the standalone
            // optimum is already materialized by some other query
            let materialized: HashSet<SubplanSignature> =
                invoke_prefixes(&standalone.candidate.plan)
                    .iter()
                    .map(|p| p.signature)
                    .collect();
            assert!(!materialized.is_empty(), "case {case}: optimum has a chain");
            let ctx = ctx.with_oracle(&materialized);
            let shared =
                optimize_shared(Arc::clone(&query), &schema, metric, &config, &materialized);
            agrees_with_exhaustive(
                &format!("case {case}: {} with shared work", metric.name()),
                exhaustive_optimum(&query, &ctx, &strategy, 8.0, 5),
                &shared.expect("bnb runs"),
            );
        }
    }
}

/// The branch-and-bound result against the exhaustive oracle's.
fn agrees_with_exhaustive(what: &str, oracle: Option<(Plan, f64)>, bnb: &Optimized) {
    match oracle {
        Some((_, oracle_cost)) => {
            assert!(bnb.meets_k(), "{what}: oracle found a plan, bnb must too");
            assert!(
                (oracle_cost - bnb.candidate.cost).abs() < 1e-6,
                "{what}: oracle {oracle_cost} vs bnb {}",
                bnb.candidate.cost
            );
        }
        None => assert!(!bnb.meets_k(), "{what}: no feasible plan exists"),
    }
}

// ---------------------------------------------------------------------
// Execution invariance across seeds
// ---------------------------------------------------------------------

/// For any world seed, all cache settings agree on the answer set and
/// the calibrated call counts still hold (they are seed-independent).
#[test]
fn calibration_is_seed_independent() {
    use mdq_bench::experiments::fig11::{run_cell, PlanShape};
    let mut rng = Rng::new(0x5059);
    for case in 0..8 {
        let seed = rng.range_u64(0, 1000);
        let cell = run_cell(seed, PlanShape::S, CacheSetting::NoCache);
        assert_eq!(cell.weather, 71, "case {case}, seed {seed}");
        assert_eq!(cell.flight, 16, "case {case}, seed {seed}");
        assert_eq!(cell.hotel, 284, "case {case}, seed {seed}");
        let one = run_cell(seed, PlanShape::S, CacheSetting::OneCall);
        assert_eq!(one.hotel, 15, "case {case}, seed {seed}");
        assert_eq!(cell.answers, one.answers, "case {case}, seed {seed}");
    }
}
