//! The front end's input corpus, shared by the parse golden and the
//! front-end fuzzer: the `optimizer_golden` corpus rendered as query
//! text, each world's example query, the end-to-end benchmark's
//! template shapes and malformed inputs.

use mdq::model::examples::{running_example_query, running_example_schema};
use mdq::model::query::{ConjunctiveQuery, Expr, Term};
use mdq::model::rng::Rng;
use mdq::model::schema::{Chunking, Schema};
use mdq::model::value::Value;
use mdq::services::domains::bibliography::bibliography_world;
use mdq::services::domains::catalog::catalog_world;
use mdq::services::domains::news::news_world;
use mdq::services::domains::protein::protein_world;
use mdq::services::domains::travel::travel_world;
use std::fmt::Write as _;

/// The `optimizer_golden` perturbation, draw for draw: only the
/// selectivity hints reach the query text, but the schema draws come
/// first and fix which hints are drawn.
fn perturbed(schema: &Schema, query: &ConjunctiveQuery, rng: &mut Rng) -> ConjunctiveQuery {
    let mut schema = schema.clone();
    let mut query = query.clone();
    let services: Vec<_> = schema.services().map(|(id, _)| id).collect();
    for id in services {
        let sig = schema.service_mut(id);
        sig.profile.erspi *= rng.range_f64(0.25, 4.0);
        sig.profile.response_time *= rng.range_f64(0.25, 4.0);
        sig.profile.invocation_cost = rng.range_f64(0.5, 3.0);
        if sig.chunking.is_chunked() {
            let chunk_size = rng.range_u64(2, 30) as u32;
            sig.chunking = Chunking::Chunked { chunk_size };
            sig.profile.decay = rng
                .bool(0.2)
                .then(|| chunk_size as u64 * rng.range_u64(1, 4));
        }
    }
    let domains: Vec<_> = schema.domains().map(|(id, _)| id).collect();
    for id in domains {
        if rng.bool(0.3) {
            let cardinality = rng.range_u64(2, 400) as f64;
            schema.set_domain_cardinality(id, cardinality);
        }
    }
    for p in &mut query.predicates {
        if rng.bool(0.5) {
            p.selectivity_hint = Some(rng.range_f64(0.005, 0.5));
        }
    }
    query
}

/// A constant as query-literal text.
fn literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        Value::Date(d) => format!("'{d}'"),
        Value::Int(i) => i.to_string(),
        Value::Float(x) if x.get().fract() == 0.0 => format!("{:.1}", x.get()),
        Value::Float(x) => x.to_string(),
        other => panic!("no literal syntax for {other:?}"),
    }
}

fn expr_text(q: &ConjunctiveQuery, e: &Expr) -> String {
    match e {
        Expr::Term(Term::Var(v)) => q.var_name(*v).to_string(),
        Expr::Term(Term::Const(c)) => literal(c),
        Expr::Add(a, b) => format!("{} + {}", expr_text(q, a), expr_text(q, b)),
        Expr::Sub(a, b) => format!("{} - {}", expr_text(q, a), expr_text(q, b)),
        Expr::Mul(a, b) => format!("{} * {}", expr_text(q, a), expr_text(q, b)),
    }
}

/// `q` as the text a client would submit, selectivity hints included.
fn source_text(q: &ConjunctiveQuery, schema: &Schema) -> String {
    let head: Vec<&str> = q.head.iter().map(|v| q.var_name(*v)).collect();
    let mut items: Vec<String> = q
        .atoms
        .iter()
        .map(|a| {
            let terms: Vec<String> = a
                .terms
                .iter()
                .map(|t| expr_text(q, &Expr::Term(t.clone())))
                .collect();
            format!("{}({})", schema.service(a.service).name, terms.join(", "))
        })
        .collect();
    for p in &q.predicates {
        let mut item = format!("{} {} {}", expr_text(q, &p.lhs), p.op, expr_text(q, &p.rhs));
        if let Some(sigma) = p.selectivity_hint {
            write!(item, " @{sigma}").expect("writes to a String");
        }
        items.push(item);
    }
    format!("{}({}) :- {}.", q.name, head.join(", "), items.join(", "))
}

/// The end-to-end benchmark's template: the running example with the
/// two constants its workloads vary.
fn travel_template(temp: u32, budget: f64) -> String {
    format!(
        "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= {temp}, FPrice + HPrice < {budget:?}."
    )
}

/// Inputs the front end must refuse, over the travel schema: lexer
/// errors, parser errors and validation errors.
pub const MALFORMED: [&str; 42] = [
    "",
    "   % only a comment",
    "q",
    "q(",
    "q(X",
    "q(X)",
    "q(X) :-",
    "q(X) :- .",
    "q(X) : conf('DB', X, S, E, C).",
    "q(X) :- conf('DB', X, S, E, C",
    "q(X) :- conf('DB, X, S, E, C).",
    "q(X) :- conf(\"DB, X, S, E, C).",
    "q(X) :- conf('DB', X, S, E, C) # 1.",
    "q(X) :- conf('DB', X, S, E, C), $.",
    "q(X) :- conf('DB', X, S, E, C), X ! 3.",
    "q(X) :- conf('DB', X, S, E, C), X {} 3.",
    "q(X) :- nosuch(X).",
    "q(x) :- conf('DB', x, S, E, C).",
    "q('X') :- conf('DB', X, S, E, C).",
    "(X) :- conf('DB', X, S, E, C).",
    "q(X) :- conf('DB', _, S, E, C).",
    "q(X) :- conf('DB', X, S, E, C), S >= -'2007/3/14'.",
    "q(X) :- conf('DB', X, S, E, C), S >= .",
    "q(X) :- conf('DB', X, S, E, C), S S.",
    "q(X) :- conf('DB', X, S, E, C), S >= 1 @2.5.",
    "q(X) :- conf('DB', X, S, E, C), S >= 1 @x.",
    "q(X) :- conf('DB', X, S, E, C), S >= 1 @.",
    "q(X) :- conf('DB', X, S, E, C), S >= 99999999999999999999.",
    "q(X) :- conf('DB', X, S, E, C), S >= 1.5.5.",
    "q(X) :- conf('DB', X, S, E, C). trailing",
    "q(X) :- conf('DB', X, S, E, C) weather(C, T, S).",
    "q(X) :- conf('DB', X, S, E, C),, weather(C, T, S).",
    "q(X) :- conf('DB', X, S, E, C), weather(C, T, S) ,",
    "q(X) :- conf('DB', X, S, E).",
    "q(X) :- conf('DB', X, S, E, C, Extra).",
    "q(Y) :- conf('DB', X, S, E, C).",
    "q(X) :- conf('DB', X, S, E, C), Ghost > 3.",
    "q(X) :- conf('DB', X, S, E, C), weather(C, 'hot', S).",
    "q(X) :- X > 3.",
    "q(X) :- conf('DB', X, S, E, C), 3 < 4 + * 5.",
    "q(X) :- :- conf('DB', X, S, E, C).",
    "q(X) :- conf('DB', X, S, E, C), S >= 1 @0.5 @0.5.",
];

/// `(id, schema, text)` for every corpus input.
pub fn corpus() -> Vec<(String, Schema, String)> {
    let mut out = Vec::new();
    let travel_schema = running_example_schema();
    let travel_query = running_example_query(&travel_schema);
    let biblio = bibliography_world(2008);
    let protein = protein_world(2008);
    let worlds = [
        (
            "travel",
            travel_schema.clone(),
            travel_query.clone(),
            40usize,
            0x7472_6176u64,
        ),
        (
            "biblio",
            biblio.schema.clone(),
            biblio.query.clone(),
            80,
            0x6269_626c,
        ),
        (
            "protein",
            protein.schema.clone(),
            protein.query.clone(),
            90,
            0x7072_6f74,
        ),
    ];
    for (name, schema, query, cases, seed) in worlds {
        let mut rng = Rng::new(seed);
        for case in 0..cases {
            let q = if case == 0 {
                query.clone()
            } else {
                perturbed(&schema, &query, &mut rng)
            };
            let text = source_text(&q, &schema);
            out.push((format!("corpus/{name}/{case:03}"), schema.clone(), text));
        }
    }

    let travel = travel_world(2008);
    let news = news_world();
    let catalog = catalog_world(true).world;
    for (name, schema, query) in [
        ("running-example", &travel_schema, &travel_query),
        ("travel", &travel.schema, &travel.query),
        ("bibliography", &biblio.schema, &biblio.query),
        ("protein", &protein.schema, &protein.query),
        ("news", &news.schema, &news.query),
        ("catalog", &catalog.schema, &catalog.query),
    ] {
        let text = source_text(query, schema);
        out.push((format!("world/{name}"), schema.clone(), text));
    }

    for temp in [28, 29] {
        for step in 0..4 {
            let budget = 900.5 + 25.0 * f64::from(step * 2 + (temp - 28));
            out.push((
                format!("warm/{temp}/{budget}"),
                travel.schema.clone(),
                travel_template(temp, budget),
            ));
        }
    }
    for i in 0..8u32 {
        let budget = 937.0 + f64::from(2 * i + 1) / 64.0;
        out.push((
            format!("cold/{i}"),
            travel.schema.clone(),
            travel_template(28 + i % 2, budget),
        ));
    }

    for (i, text) in MALFORMED.iter().enumerate() {
        out.push((
            format!("malformed/{i:02}"),
            travel.schema.clone(),
            text.to_string(),
        ));
    }
    out
}
