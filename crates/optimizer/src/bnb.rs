//! The global three-phase branch-and-bound optimizer (§2.4, Fig. 1).
//!
//! Drives the exploration sketched in Fig. 1: rewrite the query over
//! access patterns ("bound is better"), fix execution order and joins
//! ("selective and parallel are better"), assign fetch counts
//! ("greedy and square are better") — with one shared incumbent across
//! all phases, so a good heuristic first choice rapidly prunes the
//! remaining space.

use crate::context::{CostContext, CostingEffort};
use crate::phase1::{ordered_sequences, sequence_lower_bound};
use crate::phase2::{optimize_topology, Leaders, Phase2Stats, PlanCandidate, SearchOptions};
use crate::phase3::FetchHeuristic;
use mdq_cost::estimate::CacheSetting;
use mdq_cost::metrics::CostMetric;
use mdq_cost::selectivity::SelectivityModel;
use mdq_cost::shared::SharedWorkOracle;
use mdq_model::query::ConjunctiveQuery;
use mdq_model::schema::Schema;
use mdq_plan::builder::StrategyRule;
use mdq_plan::poset::MAX_ATOMS;
use std::fmt;
use std::sync::Arc;

/// Optimizer configuration. Defaults follow the paper's experimental
/// setup: `k = 10`, one-call cache, greedy fetch heuristic, full
/// exploration with bounds enabled.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Number of answers the plan must be able to produce (§2.2).
    pub k: u64,
    /// Cache setting assumed by the call estimator (§5.1).
    pub cache: CacheSetting,
    /// Predicate selectivity model.
    pub selectivity: SelectivityModel,
    /// Join-strategy oracle (per service pair, §3.3).
    pub strategy: StrategyRule,
    /// Fetch heuristic seeding phase 3 (§4.3.1).
    pub fetch_heuristic: FetchHeuristic,
    /// Cap on any single fetch factor (safety valve; decay bounds still
    /// apply, §4.3.2).
    pub max_fetch: u64,
    /// Run the exact phase-3 frontier search after the heuristic.
    pub explore_fetches: bool,
    /// Enable incumbent pruning. Disable to measure raw search effort
    /// (the ablation benches do).
    pub use_bounds: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            k: 10,
            cache: CacheSetting::OneCall,
            selectivity: SelectivityModel::default(),
            strategy: StrategyRule::default(),
            fetch_heuristic: FetchHeuristic::Greedy,
            max_fetch: 64,
            explore_fetches: true,
            use_bounds: true,
        }
    }
}

/// Aggregated optimizer effort counters, suitable for the ablation
/// experiments (heuristics on/off, bounds on/off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Permissible access-pattern sequences found by phase 1.
    pub sequences_permissible: usize,
    /// Sequences skipped by the phase-1 lower bound.
    pub sequences_pruned: usize,
    /// Phase-2/3 effort, summed over explored sequences.
    pub phase2: Phase2Stats,
    /// Exact costing work of the whole search: plans built and
    /// prepared, fetch vectors evaluated, prefixes signed.
    pub costing: CostingEffort,
}

/// The optimization result: the chosen plan plus search statistics.
pub struct Optimized {
    /// Best plan found (meets `k` unless [`Optimized::meets_k`] is false).
    pub candidate: PlanCandidate,
    /// Search statistics.
    pub stats: OptimizerStats,
}

impl Optimized {
    /// Whether the plan reaches the requested `k` answers.
    pub fn meets_k(&self) -> bool {
        self.candidate.meets_k
    }
}

impl OptimizerConfig {
    /// The settings phases 2 and 3 read.
    pub(crate) fn search_options(&self) -> SearchOptions {
        SearchOptions {
            fetch_heuristic: self.fetch_heuristic,
            max_fetch: self.max_fetch,
            explore_fetches: self.explore_fetches,
            use_bounds: self.use_bounds,
        }
    }
}

/// Optimization failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptimizeError {
    /// No permissible sequence of access patterns exists (Def. 3.1): the
    /// query is not executable as written. (§7 discusses recursive
    /// off-query expansions as an out-of-scope remedy.)
    NotExecutable,
    /// The query has no atoms.
    EmptyQuery,
    /// The body has more atoms than the topology search handles
    /// ([`MAX_ATOMS`]).
    TooManyAtoms {
        /// Atoms in the query body.
        atoms: usize,
    },
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::NotExecutable => write!(
                f,
                "no permissible access-pattern sequence: the query is not executable"
            ),
            OptimizeError::EmptyQuery => write!(f, "query body has no atoms"),
            OptimizeError::TooManyAtoms { atoms } => write!(
                f,
                "query body has {atoms} atoms; the optimizer handles at most {MAX_ATOMS}"
            ),
        }
    }
}

/// Refuses bodies wider than the topology search handles.
pub(crate) fn check_width(query: &ConjunctiveQuery) -> Result<(), OptimizeError> {
    match query.atoms.len() {
        atoms if atoms > MAX_ATOMS => Err(OptimizeError::TooManyAtoms { atoms }),
        _ => Ok(()),
    }
}

impl std::error::Error for OptimizeError {}

/// Runs the full three-phase optimization of `query` under `metric`.
///
/// Returns the cheapest plan able to produce `k` answers; when decay or
/// fetch caps make `k` unreachable under every plan, the best-effort plan
/// (maximal estimated output) is returned with `meets_k() == false`.
///
/// This is the paper's standalone costing: no shared-work oracle, so no
/// invoke prefix is ever signed.
pub fn optimize(
    query: Arc<ConjunctiveQuery>,
    schema: &Schema,
    metric: &dyn CostMetric,
    config: &OptimizerConfig,
) -> Result<Optimized, OptimizeError> {
    let ctx = CostContext::new(schema, &config.selectivity, config.cache, metric);
    search(query, &ctx, config)
}

/// [`optimize`] with a [`SharedWorkOracle`]: every candidate is priced
/// with the calls of its longest already-materialized invoke prefix
/// discounted, so the search prefers plans that start with work another
/// concurrent query has paid for.
pub fn optimize_shared(
    query: Arc<ConjunctiveQuery>,
    schema: &Schema,
    metric: &dyn CostMetric,
    config: &OptimizerConfig,
    oracle: &dyn SharedWorkOracle,
) -> Result<Optimized, OptimizeError> {
    let ctx =
        CostContext::new(schema, &config.selectivity, config.cache, metric).with_oracle(oracle);
    search(query, &ctx, config)
}

/// The three-phase search under a ready costing context.
pub(crate) fn search(
    query: Arc<ConjunctiveQuery>,
    ctx: &CostContext<'_>,
    config: &OptimizerConfig,
) -> Result<Optimized, OptimizeError> {
    if query.atoms.is_empty() {
        return Err(OptimizeError::EmptyQuery);
    }
    check_width(&query)?;
    let sequences = ordered_sequences(&query, ctx);
    if sequences.is_empty() {
        return Err(OptimizeError::NotExecutable);
    }

    let mut stats = OptimizerStats {
        sequences_permissible: sequences.len(),
        ..OptimizerStats::default()
    };
    let mut leaders = Leaders::default();

    for choice in sequences {
        if config.use_bounds {
            if let Some(b) = &leaders.best {
                let lb = sequence_lower_bound(&query, ctx, &choice, &config.strategy);
                if lb >= b.cost {
                    stats.sequences_pruned += 1;
                    continue;
                }
            }
        }
        let incumbent = leaders.best.as_ref().map(|b| b.cost);
        let outcome = optimize_topology(
            &query,
            ctx,
            &choice,
            &config.strategy,
            config.k as f64,
            config.search_options(),
            incumbent,
        );
        stats.phase2.add(&outcome.stats);
        leaders.absorb(Leaders {
            best: outcome.best,
            best_effort: outcome.best_effort,
        });
    }

    // no topology of any sequence lowered (none admissible): nothing to
    // execute
    let candidate = leaders
        .best
        .or(leaders.best_effort)
        .ok_or(OptimizeError::NotExecutable)?;
    stats.costing = ctx.effort();
    Ok(Optimized { candidate, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::running_example_parts;
    use mdq_cost::metrics::{ExecutionTime, RequestResponse};
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};

    /// The *global* optimum may use the α4 sequence (hotel's all-output
    /// pattern first): Example 5.1 fixes α1 before claiming Fig. 8
    /// optimal, and indeed across all three permissible sequences the
    /// optimizer finds a plan at least as cheap as the α1 optimum (the
    /// α1-restricted shape is asserted in the phase-2 tests).
    #[test]
    fn optimizes_running_example_under_etm() {
        use crate::context::CostContext;
        use crate::phase2::{optimize_topology, SearchOptions};
        use mdq_model::binding::ApChoice;
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        let out = optimize(
            Arc::clone(&query),
            &schema,
            &ExecutionTime,
            &OptimizerConfig::default(),
        )
        .expect("optimizes");
        assert!(out.meets_k());
        assert_eq!(out.stats.sequences_permissible, 3);
        // global optimum ≤ α1-restricted optimum (= the Fig. 7(d) plan)
        let sel = SelectivityModel::default();
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &ExecutionTime);
        let alpha1 = optimize_topology(
            &query,
            &ctx,
            &ApChoice(vec![0, 0, 0, 0]),
            &StrategyRule::default(),
            10.0,
            crate::phase2::SearchOptions::default(),
            None,
        )
        .best
        .expect("α1 optimum exists");
        let _ = SearchOptions::default();
        assert!(out.candidate.cost <= alpha1.cost + 1e-9);
        let poset = &alpha1.plan.poset;
        assert!(poset.lt(ATOM_CONF, ATOM_WEATHER));
        assert!(poset.incomparable(ATOM_FLIGHT, ATOM_HOTEL));
    }

    #[test]
    fn fig8_fetch_factors_under_etm() {
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        // Disable the frontier search: the heuristic + closed-form regime
        // of the paper yields F_flight·F_hotel ≥ 8; with exploration the
        // optimizer may find cheaper integer splits. Here we check the
        // feasibility invariant.
        let out = optimize(
            Arc::clone(&query),
            &schema,
            &ExecutionTime,
            &OptimizerConfig::default(),
        )
        .expect("optimizes");
        let plan = &out.candidate.plan;
        assert!(
            plan.fetch_of(ATOM_FLIGHT) * plan.fetch_of(ATOM_HOTEL) >= 8,
            "K' = 8 must be covered: F = {:?}",
            plan.fetches
        );
        assert!(out.candidate.annotation.out_size() >= 10.0);
    }

    #[test]
    fn bounds_do_not_change_the_optimum() {
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        for metric in [&ExecutionTime as &dyn CostMetric, &RequestResponse] {
            let with = optimize(
                Arc::clone(&query),
                &schema,
                metric,
                &OptimizerConfig::default(),
            )
            .expect("optimizes");
            let without = optimize(
                Arc::clone(&query),
                &schema,
                metric,
                &OptimizerConfig {
                    use_bounds: false,
                    ..OptimizerConfig::default()
                },
            )
            .expect("optimizes");
            assert!(
                (with.candidate.cost - without.candidate.cost).abs() < 1e-9,
                "{}: bounded {} vs unbounded {}",
                metric.name(),
                with.candidate.cost,
                without.candidate.cost
            );
        }
    }

    #[test]
    fn unexecutable_query_reports_error() {
        use mdq_model::parser::parse_query;
        use mdq_model::schema::{Schema, ServiceBuilder};
        let mut s = Schema::new();
        ServiceBuilder::new(&mut s, "needs_x")
            .attr("X", "DX")
            .attr("Y", "DY")
            .pattern("io")
            .register()
            .expect("registers");
        let q = parse_query("q(Y) :- needs_x(X, Y).", &s).expect("parses");
        match optimize(
            Arc::new(q),
            &s,
            &RequestResponse,
            &OptimizerConfig::default(),
        ) {
            Err(err) => assert_eq!(err, OptimizeError::NotExecutable),
            Ok(_) => panic!("expected NotExecutable"),
        }
    }

    /// A body of `atoms` atoms of one directly callable service.
    fn wide_query(atoms: usize) -> (Schema, ConjunctiveQuery) {
        use mdq_model::parser::parse_query;
        use mdq_model::schema::ServiceBuilder;
        let mut s = Schema::new();
        ServiceBuilder::new(&mut s, "s")
            .attr("X", "DX")
            .pattern("o")
            .register()
            .expect("registers");
        let body: Vec<String> = (0..atoms).map(|i| format!("s(X{i})")).collect();
        let q = parse_query(&format!("q(X0) :- {}.", body.join(", ")), &s).expect("parses");
        (s, q)
    }

    /// Topology enumeration keeps atom sets in a `u64`; a 64-atom level
    /// used to make `1 << 64` — masked to `1 << 0` in release, so the
    /// level silently enumerated nothing and the heuristic seeds came
    /// back as if searched (a debug build overflowed instead). Wider
    /// bodies are now refused with a typed error, before any search.
    #[test]
    fn bodies_wider_than_max_atoms_are_refused() {
        let (s, q) = wide_query(MAX_ATOMS + 1);
        let out = optimize(
            Arc::new(q),
            &s,
            &RequestResponse,
            &OptimizerConfig::default(),
        );
        assert_eq!(
            out.err(),
            Some(OptimizeError::TooManyAtoms {
                atoms: MAX_ATOMS + 1
            })
        );
        let (_, q) = wide_query(MAX_ATOMS);
        assert_eq!(check_width(&q), Ok(()));
    }

    #[test]
    fn unreachable_k_returns_best_effort() {
        let (mut schema, _) = running_example_parts();
        for name in ["flight", "hotel"] {
            let id = schema.service_by_name(name).expect("exists");
            schema.service_mut(id).profile.decay = Some(1);
        }
        let query = Arc::new(mdq_model::examples::running_example_query(&schema));
        let out = optimize(query, &schema, &ExecutionTime, &OptimizerConfig::default())
            .expect("optimizes best-effort");
        assert!(!out.meets_k());
        assert!(out.candidate.annotation.out_size() < 10.0);
    }
}
