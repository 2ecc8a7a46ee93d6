//! Integration coverage for the template-normalization fingerprint
//! (`mdq::model::fingerprint`) — the plan-cache key of the serving
//! layer: alpha-renaming and predicate order must not matter; constants
//! and shape must. The same canonicalization rules govern the *subplan
//! signatures* (`mdq::plan::signature`) the MQO sub-result store keys
//! shared invoke prefixes on, tested below property-style: every
//! alpha-renaming and every atom listing order of a template must sign
//! identically at every prefix level, while perturbing a constant must
//! change exactly the levels whose work it participates in.

use mdq::cost::metrics::ExecutionTime;
use mdq::exec::cache::CacheSetting;
use mdq::model::fingerprint::{canonical_text, fingerprint, QueryFingerprint, SubplanSignature};
use mdq::model::template::QueryTemplate;
use mdq::model::value::Value;
use mdq::optimizer::bnb::OptimizerConfig;
use mdq::plan::signature::invoke_prefixes;
use mdq::services::domains::travel::travel_world;
use mdq::Mdq;

fn engine() -> Mdq {
    let w = travel_world(2008);
    Mdq::from_world(mdq::services::domains::World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    })
}

fn fp(engine: &Mdq, text: &str) -> QueryFingerprint {
    fingerprint(&engine.parse(text).expect("parses"))
}

const FULL: &str = "q(Conf, City, HPrice, FPrice, Hotel) :- \
     flight('Milano', City, Start, End, ST, ET, FPrice), \
     hotel(Hotel, City, 'luxury', Start, End, HPrice), \
     conf('DB', Conf, Start, End, City), \
     weather(City, Temp, Start), \
     Start >= '2007/3/14', End <= '2007/3/14' + 180, \
     Temp >= 28, FPrice + HPrice < 2000.";

#[test]
fn alpha_renaming_and_predicate_order_are_invisible() {
    let e = engine();
    // every variable renamed, predicates listed in a different order
    let variant = "q(C, Town, HP, FP, H) :- \
         flight('Milano', Town, S, E, T1, T2, FP), \
         hotel(H, Town, 'luxury', S, E, HP), \
         conf('DB', C, S, E, Town), \
         weather(Town, Deg, S), \
         FP + HP < 2000, Deg >= 28, \
         E <= '2007/3/14' + 180, S >= '2007/3/14'.";
    assert_eq!(fp(&e, FULL), fp(&e, variant));
}

#[test]
fn constants_are_part_of_the_template() {
    let e = engine();
    let other_topic = FULL.replace("'DB'", "'AI'");
    let other_budget = FULL.replace("2000", "1800");
    let base = fp(&e, FULL);
    assert_ne!(base, fp(&e, &other_topic));
    assert_ne!(base, fp(&e, &other_budget));
    assert_ne!(fp(&e, &other_topic), fp(&e, &other_budget));
}

#[test]
fn shape_changes_change_the_fingerprint() {
    let e = engine();
    let base = fp(&e, FULL);
    // one atom fewer
    let no_weather = "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         Start >= '2007/3/14', FPrice + HPrice < 2000.";
    assert_ne!(base, fp(&e, no_weather));
    // same atoms, different head projection
    let narrower_head = "q(Conf, City) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < 2000.";
    assert_ne!(base, fp(&e, narrower_head));
}

#[test]
fn template_instantiations_share_fingerprints_per_binding() {
    // §2.2: the same form resubmitted with the same keywords is the
    // same template instance — and the plan cache treats it as such
    let e = engine();
    let template = QueryTemplate::new(
        "q(Conf, City) :- conf($topic, Conf, S, E, City), \
         weather(City, T, S), T >= $min.",
    )
    .expect("builds");
    let inst = |topic: &str, min: i64| {
        let q = template
            .instantiate(
                e.schema(),
                &[("topic", Value::str(topic)), ("min", Value::Int(min))],
            )
            .expect("instantiates");
        fingerprint(&q)
    };
    assert_eq!(inst("DB", 28), inst("DB", 28), "same keywords, same key");
    assert_ne!(inst("DB", 28), inst("AI", 28), "keyword is part of the key");
    assert_ne!(inst("DB", 28), inst("DB", 30));
}

/// Optimizes `text` exactly like the serving layer and signs every
/// invoke prefix of the chosen plan.
fn prefix_sigs(engine: &Mdq, text: &str) -> Vec<SubplanSignature> {
    let query = engine.parse(text).expect("parses");
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: 5,
                cache: CacheSetting::OneCall,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    invoke_prefixes(&optimized.candidate.plan)
        .iter()
        .map(|p| p.signature)
        .collect()
}

/// The travel template with its four body atoms in a chosen listing
/// order and its variables renamed through `rename`.
fn travel_variant(order: &[usize; 4], rename: &dyn Fn(&str) -> String) -> String {
    let atoms = [
        "flight('Milano', City, Start, End, ST, ET, FPrice)",
        "hotel(Hotel, City, 'luxury', Start, End, HPrice)",
        "conf('DB', Conf, Start, End, City)",
        "weather(City, Temp, Start)",
    ];
    let body: Vec<String> = order.iter().map(|&i| atoms[i].to_string()).collect();
    let text = format!(
        "q(Conf, City, HPrice, FPrice, Hotel) :- {}, \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < 700.0.",
        body.join(", ")
    );
    // rename every variable occurrence: the names are case-sensitively
    // distinct from the (lowercase) service names and from each other's
    // substrings, so plain textual replacement is unambiguous
    let mut out = text;
    for v in [
        "Conf", "City", "HPrice", "FPrice", "Hotel", "Start", "End", "ST", "ET", "Temp",
    ] {
        out = out.replace(v, &rename(v));
    }
    out
}

#[test]
fn subplan_signatures_survive_renaming_and_listing_order() {
    // property-style: every atom listing order × every renaming of the
    // same template must optimize to a plan whose invoke prefixes sign
    // identically at every level
    let e = engine();
    let renamings: [&dyn Fn(&str) -> String; 3] = [
        &|v: &str| v.to_string(),
        &|v: &str| format!("{v}X"),
        &|v: &str| format!("Zz{v}Q"),
    ];
    let orders: [[usize; 4]; 5] = [
        [0, 1, 2, 3],
        [3, 2, 1, 0],
        [2, 3, 0, 1],
        [1, 0, 3, 2],
        [2, 0, 3, 1],
    ];
    let base = prefix_sigs(&e, &travel_variant(&orders[0], renamings[0]));
    assert!(
        base.len() >= 2,
        "the travel plan has a sharable chain ({} levels)",
        base.len()
    );
    for order in &orders {
        for rename in &renamings {
            let sigs = prefix_sigs(&e, &travel_variant(order, rename));
            assert_eq!(
                sigs, base,
                "order {order:?} signed differently under a renaming"
            );
        }
    }
}

#[test]
fn subplan_signatures_change_exactly_where_a_constant_participates() {
    // the serving layer's sharing boundary: perturbing a constant must
    // invalidate precisely the prefix levels whose work it affects
    let e = engine();
    let ident: &dyn Fn(&str) -> String = &|v: &str| v.to_string();
    let base_text = travel_variant(&[0, 1, 2, 3], ident);
    let base = prefix_sigs(&e, &base_text);
    let levels = base.len();

    // the price budget binds only at the flight ⋈ hotel join — outside
    // the serial chain entirely, so *every* prefix level still shares:
    // this is precisely what lets a batch of different-budget queries
    // replay one materialized `conf → weather` prefix
    let budget = prefix_sigs(&e, &base_text.replace("700.0", "650.0"));
    assert_eq!(
        budget, base,
        "a join-level constant must not invalidate any prefix level"
    );

    // the conference topic feeds the chain's first invocation: no level
    // survives
    let topic = prefix_sigs(&e, &base_text.replace("'DB'", "'AI'"));
    for (lvl, (a, b)) in topic.iter().zip(&base).enumerate() {
        assert_ne!(a, b, "level {} shares across different topics", lvl + 1);
    }

    // the weather threshold applies at the weather invocation: the
    // conf-only level 1 still shares, everything from weather on differs
    let temp = prefix_sigs(&e, &base_text.replace("Temp >= 28", "Temp >= 30"));
    assert_eq!(temp[0], base[0], "level 1 (conf) is untouched by Temp");
    let weather_level = (1..levels)
        .find(|&i| temp[i] != base[i])
        .expect("some level applies the Temp predicate");
    for i in weather_level..levels {
        assert_ne!(temp[i], base[i], "levels from weather on must differ");
    }
}

#[test]
fn canonical_text_is_deterministic_across_parses() {
    let e = engine();
    let a = e.parse(FULL).expect("parses");
    let b = e.parse(FULL).expect("parses");
    assert_eq!(canonical_text(&a), canonical_text(&b));
    assert_eq!(format!("{}", fingerprint(&a)).len(), 16, "hex digest");
}

/// A string constant whose text contains the canonical form's own
/// punctuation (a quote, then `;?3='…`).
const FORGED: &str = "q(Conf) :- conf('DB', Conf, Start, End, City), \
                      Conf = \"conf-city41-1';?3='city41\".";
/// The template the forged constant imitates: the same atom with two
/// equality predicates.
const IMITATED: &str = "q(Conf) :- conf('DB', Conf, Start, End, City), \
                        Conf = 'conf-city41-1', City = 'city41'.";

#[test]
fn a_quote_in_a_string_constant_cannot_forge_another_template() {
    let e = engine();
    let forged = e.parse(FORGED).expect("parses");
    let imitated = e.parse(IMITATED).expect("parses");
    assert_ne!(canonical_text(&forged), canonical_text(&imitated));
    assert_ne!(fingerprint(&forged), fingerprint(&imitated));
}

#[test]
fn the_plan_cache_never_runs_a_forged_template_as_another() {
    use mdq::runtime::{QueryServer, RuntimeConfig};
    // alone, the forged query's single constant matches no conference
    let alone = QueryServer::new(engine(), RuntimeConfig::default())
        .submit(FORGED, Some(5))
        .collect()
        .expect("runs");
    assert!(alone.answers.is_empty(), "{:?}", alone.answers);
    // after the imitated template is cached, it still answers as itself
    let server = QueryServer::new(engine(), RuntimeConfig::default());
    let imitated = server.submit(IMITATED, Some(5)).collect().expect("runs");
    assert!(!imitated.answers.is_empty(), "the imitated query answers");
    let forged = server.submit(FORGED, Some(5)).collect().expect("runs");
    assert!(!forged.stats.plan_cache_hit, "a forged template misses");
    assert_eq!(forged.answers, alone.answers);
}
