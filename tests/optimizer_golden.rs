//! Plan identity: the optimizer must keep choosing the plans recorded
//! in `tests/golden/optimizer_plans.txt`, bit for bit.
//!
//! The corpus is 210 seeded variants of the travel, bibliography and
//! protein queries (perturbed profiles, chunk sizes, decays, domain
//! cardinalities and selectivity hints), each optimized under
//! {ETM, RRM, SCM} × the three cache settings × k ∈ {1, 5, 10, 20}
//! (`max_fetch` 8 keeps phase 3's frontier small enough for a debug
//! run). A row records the chosen access patterns, poset, fetch factors, the
//! cost's bit pattern, `meets_k` and the search-effort counters.
//!
//! The golden file was generated by this corpus at the commit *before*
//! the prepared cost evaluator landed; regenerate it (only when a plan
//! change is intended) with `MDQ_WRITE_GOLDEN=1 cargo test --release
//! --test optimizer_golden`.
//!
//! That change also made phase 2 prune against a carried-over incumbent
//! while a sequence's own heuristic seeds miss `k`, which can only
//! raise `partials` counts. Rows it affects: none — no corpus query
//! has a sequence whose seeds both miss `k` after an earlier sequence
//! reached it (the optimizer's unit tests build that case by hand), so
//! every row is compared whole.
//!
//! The second test runs the plans the corpus chose through the
//! prepared estimator and a fresh one, over a sweep of fetch vectors.

use mdq::model::rng::Rng;
use mdq::model::schema::Chunking;
use mdq::prelude::*;
use mdq::services::domains::bibliography::bibliography_world;
use mdq::services::domains::protein::protein_world;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/optimizer_plans.txt"
);
const KS: [u64; 4] = [1, 5, 10, 20];

/// One seeded variant of a world's canonical query: every profile
/// figure the estimator and the metrics read is perturbed, so the
/// corpus reaches different access-pattern sequences, topologies, fetch
/// vectors — and, through decays, plans that cannot reach `k`.
fn perturbed(
    schema: &Schema,
    query: &ConjunctiveQuery,
    rng: &mut Rng,
) -> (Schema, ConjunctiveQuery) {
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
    (schema, query)
}

/// The corpus: `(id, schema, query)`; case 0 of each world is the
/// unperturbed canonical query.
fn corpus() -> &'static [(String, Schema, Arc<ConjunctiveQuery>)] {
    static CORPUS: OnceLock<Vec<(String, Schema, Arc<ConjunctiveQuery>)>> = OnceLock::new();
    CORPUS.get_or_init(build_corpus)
}

fn build_corpus() -> Vec<(String, Schema, Arc<ConjunctiveQuery>)> {
    let travel_schema = mdq::model::examples::running_example_schema();
    let travel_query = mdq::model::examples::running_example_query(&travel_schema);
    let biblio = bibliography_world(2008);
    let protein = protein_world(2008);
    let worlds = [
        (
            "travel",
            travel_schema,
            travel_query,
            40usize,
            0x7472_6176u64,
        ),
        ("biblio", biblio.schema, biblio.query, 80, 0x6269_626c),
        ("protein", protein.schema, protein.query, 90, 0x7072_6f74),
    ];
    let mut out = Vec::new();
    for (name, schema, query, cases, seed) in worlds {
        let mut rng = Rng::new(seed);
        for case in 0..cases {
            let (s, q) = if case == 0 {
                (schema.clone(), query.clone())
            } else {
                perturbed(&schema, &query, &mut rng)
            };
            out.push((format!("{name}/{case:03}"), s, Arc::new(q)));
        }
    }
    out
}

/// One optimized corpus entry.
struct Row {
    /// `world/case metric cache k=…`.
    id: String,
    /// Access patterns and poset.
    shape: String,
    /// Fetches, cost bits, `meets_k`.
    priced: String,
    /// Sequence / topology / partial counters.
    counts: String,
    /// Index into [`corpus`].
    case: usize,
    cache: CacheSetting,
    chosen: Plan,
}

impl Row {
    /// The row as the golden file holds it.
    fn line(&self) -> String {
        format!(
            "{}\t{} {}\t{}",
            self.id, self.shape, self.priced, self.counts
        )
    }
}

fn optimized_rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let scm = SumCost {
            join_cost_per_pair: 0.01,
        };
        let metrics: [&dyn CostMetric; 3] = [&ExecutionTime, &RequestResponse, &scm];
        let mut rows = Vec::new();
        for (case, (id, schema, query)) in corpus().iter().enumerate() {
            for metric in metrics {
                for cache in CacheSetting::ALL {
                    for k in KS {
                        let config = OptimizerConfig {
                            k,
                            cache,
                            max_fetch: 8,
                            ..OptimizerConfig::default()
                        };
                        let out = optimize(Arc::clone(query), schema, metric, &config)
                            .expect("corpus queries are executable");
                        rows.push(row(case, id, metric.name(), cache, k, out));
                    }
                }
            }
        }
        rows
    })
}

fn row(case: usize, id: &str, metric: &str, cache: CacheSetting, k: u64, out: Optimized) -> Row {
    let plan = &out.candidate.plan;
    let n = plan.poset.len();
    let mut order = String::new();
    for a in 0..n {
        for b in 0..n {
            if plan.poset.lt(a, b) {
                write!(order, "{a}<{b} ").expect("writes to a String");
            }
        }
    }
    let s = &out.stats;
    Row {
        id: format!("{id} {metric} {} k={k}", cache.label().replace(' ', "-")),
        shape: format!("ap={:?} poset=[{}]", plan.choice.0, order.trim_end()),
        priced: format!(
            "fetches={:?} cost={:016x} meets_k={}",
            plan.fetches,
            out.candidate.cost.to_bits(),
            out.meets_k()
        ),
        counts: format!(
            "seq={}/{} topo={} partials={}/{}",
            s.sequences_permissible,
            s.sequences_pruned,
            s.phase2.topologies_complete,
            s.phase2.partials_considered,
            s.phase2.partials_pruned
        ),
        case,
        cache,
        chosen: out.candidate.plan,
    }
}

#[test]
fn optimizer_reproduces_the_golden_plans() {
    let rows = optimized_rows();
    if std::env::var_os("MDQ_WRITE_GOLDEN").is_some() {
        let mut text = String::new();
        for r in rows {
            writeln!(text, "{}", r.line()).expect("writes to a String");
        }
        std::fs::write(GOLDEN, text).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), rows.len(), "corpus size changed");
    for (want, got) in golden.iter().zip(rows) {
        assert_eq!(
            *want,
            got.line(),
            "row `{}` differs from the golden file",
            got.id
        );
    }
}

/// `t_in`, `t_out` and `calls` as bit patterns.
fn bits(ann: &Annotation) -> Vec<u64> {
    ann.t_in
        .iter()
        .chain(&ann.t_out)
        .chain(&ann.calls)
        .map(|x| x.to_bits())
        .collect()
}

/// For every plan the corpus chose, evaluating the prepared plan under
/// a fetch vector equals a fresh `annotate` of the plan with those
/// fetches, and nothing of one evaluation survives into the next.
#[test]
fn prepared_evaluation_equals_fresh_annotation() {
    const FACTORS: [u64; 4] = [1, 2, 5, 8];
    let selectivity = SelectivityModel::default();
    let mut seen = HashSet::new();
    for r in optimized_rows() {
        // one sweep per distinct topology: the fetches are swept anyway
        if !seen.insert((r.case, r.cache, &r.shape)) {
            continue;
        }
        let schema = &corpus()[r.case].1;
        let estimator = Estimator::new(schema, &selectivity, r.cache);
        let mut prepared = estimator.prepare(&r.chosen);
        let fresh = |fetches: &[u64]| {
            let mut plan = r.chosen.clone();
            plan.fetches.copy_from_slice(fetches);
            bits(&estimator.annotate(&plan))
        };

        // every combination of FACTORS over the chunked positions
        let chunked = r.chosen.chunked_positions(schema);
        let mut sweep = vec![vec![1u64; r.chosen.atoms.len()]];
        for &pos in &chunked {
            sweep = sweep
                .iter()
                .flat_map(|v| {
                    FACTORS.map(|f| {
                        let mut v = v.clone();
                        v[pos] = f;
                        v
                    })
                })
                .collect();
        }
        for fetches in &sweep {
            assert_eq!(
                bits(prepared.evaluate(fetches)),
                fresh(fetches),
                "`{}` under fetches {fetches:?}",
                r.id
            );
        }

        // A, then B, then A again: A's bits both times
        let (a, b) = (&r.chosen.fetches, sweep.last().expect("non-empty"));
        let first = bits(prepared.evaluate(a));
        prepared.evaluate(b);
        assert_eq!(
            bits(prepared.evaluate(a)),
            first,
            "`{}`: state leaked",
            r.id
        );
        assert_eq!(first, fresh(a), "`{}` under its own fetches", r.id);
    }
}
