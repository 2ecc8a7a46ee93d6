//! Phase 2 — selection of the plan topology (§4.2).
//!
//! Fixes the execution order of the services and the position of joins:
//! the space is the set of admissible partial orders extending the
//! access-pattern precedences (19 alternatives in Example 5.1). Branch
//! and bound explores the paper's incremental batch construction; after
//! each batch the partially constructed plan is priced (a lower bound on
//! all completions, by metric monotonicity) and pruned against the
//! incumbent.
//!
//! Heuristics (§4.2.1) seed the incumbent: **selective-serial** (one
//! single path ordered by increasing erspi wherever possible — favours
//! invocation-counting metrics) and **max-parallel** (always place every
//! callable atom — favours time metrics).

use crate::context::{CostContext, Pricer};
use crate::phase3::{self, FetchHeuristic, FetchParams, FetchScratch, FetchStats, Priced};
use mdq_cost::estimate::Annotation;
use mdq_model::binding::{ApChoice, SupplierMap};
use mdq_model::bitset::BitSet;
use mdq_model::query::ConjunctiveQuery;
use mdq_model::schema::Schema;
use mdq_plan::builder::StrategyRule;
use mdq_plan::dag::Plan;
use mdq_plan::poset::{enumerate_topologies, PartialTopology, Poset, TopologyVisitor};
use std::sync::Arc;

/// The §4.2.1 topology heuristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TopologyHeuristic {
    /// A single chain ordered by increasing erspi wherever admissible.
    #[default]
    SelectiveSerial,
    /// Maximal parallelism: place every callable atom at each step.
    MaxParallel,
}

/// A fully instantiated plan with its price.
#[derive(Clone, Debug)]
pub struct PlanCandidate {
    /// The plan (fetch factors installed).
    pub plan: Plan,
    /// Cost under the optimization metric.
    pub cost: f64,
    /// Final annotation.
    pub annotation: Annotation,
    /// Whether the estimated output reaches the requested `k`.
    pub meets_k: bool,
}

/// Effort counters for phase 2 (+ nested phase 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Phase2Stats {
    /// Complete topologies reached by the enumeration.
    pub topologies_complete: usize,
    /// Partial topologies priced.
    pub partials_considered: usize,
    /// Partial topologies pruned by the incumbent bound.
    pub partials_pruned: usize,
    /// Aggregated phase-3 effort.
    pub fetch: FetchStats,
}

impl Phase2Stats {
    /// Adds another search's counters.
    pub(crate) fn add(&mut self, other: &Phase2Stats) {
        self.topologies_complete += other.topologies_complete;
        self.partials_considered += other.partials_considered;
        self.partials_pruned += other.partials_pruned;
        self.fetch.vectors_costed += other.fetch.vectors_costed;
        self.fetch.pruned_by_bound += other.fetch.pruned_by_bound;
        self.fetch.pruned_infeasible += other.fetch.pruned_infeasible;
    }
}

/// Search-control options shared by phase 2/3.
#[derive(Clone, Copy, Debug)]
pub struct SearchOptions {
    /// Fetch heuristic seeding phase 3.
    pub fetch_heuristic: FetchHeuristic,
    /// Cap on any single fetch factor.
    pub max_fetch: u64,
    /// Run the exact phase-3 frontier search after the heuristic.
    pub explore_fetches: bool,
    /// Use incumbent pruning (disable to measure raw search effort).
    pub use_bounds: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            fetch_heuristic: FetchHeuristic::Greedy,
            max_fetch: 64,
            explore_fetches: true,
            use_bounds: true,
        }
    }
}

/// Builds the selective-serial heuristic topology: a greedy chain taking,
/// at each step, the callable atom with the smallest effective result
/// size (erspi for bulk services, one chunk for chunked ones).
pub fn selective_serial_topology(
    query: &ConjunctiveQuery,
    schema: &Schema,
    choice: &ApChoice,
) -> Option<Poset> {
    selective_serial(query, schema, &SupplierMap::build(query, schema, choice))
}

/// [`selective_serial_topology`] over the supplier map of the choice.
fn selective_serial(
    query: &ConjunctiveQuery,
    schema: &Schema,
    suppliers: &SupplierMap,
) -> Option<Poset> {
    let n = query.atoms.len();
    let size_of = |atom: usize| -> f64 {
        let sig = schema.service(query.atoms[atom].service);
        match sig.chunk_size() {
            Some(cs) => cs as f64,
            None => sig.profile.erspi,
        }
    };
    let mut placed = BitSet::new();
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    while chain.len() < n {
        let next =
            callable(suppliers, &placed).min_by(|&a, &b| size_of(a).total_cmp(&size_of(b)))?;
        chain.push(next);
        placed.insert(next);
    }
    let pairs: Vec<(usize, usize)> = chain.windows(2).map(|w| (w[0], w[1])).collect();
    Poset::from_pairs(n, &pairs)
}

/// Builds the max-parallel heuristic topology: place all callable atoms
/// at every step, each preceded by everything placed before.
pub fn max_parallel_topology(
    query: &ConjunctiveQuery,
    schema: &Schema,
    choice: &ApChoice,
) -> Option<Poset> {
    max_parallel(&SupplierMap::build(query, schema, choice))
}

/// [`max_parallel_topology`] over the supplier map of the choice.
fn max_parallel(suppliers: &SupplierMap) -> Option<Poset> {
    let n = suppliers.per_atom.len();
    let mut placed = BitSet::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    while placed.len() < n {
        let batch: Vec<usize> = callable(suppliers, &placed).collect();
        if batch.is_empty() {
            return None;
        }
        for &b in &batch {
            pairs.extend(placed.iter().map(|a| (a, b)));
        }
        for b in batch {
            placed.insert(b);
        }
    }
    Poset::from_pairs(n, &pairs)
}

/// The atoms not in `placed` whose every input variable some atom in
/// `placed` supplies — `callable_after` (§3.3) read off the supplier map,
/// ascending.
fn callable<'a>(
    suppliers: &'a SupplierMap,
    placed: &'a BitSet,
) -> impl Iterator<Item = usize> + 'a {
    suppliers
        .per_atom
        .iter()
        .enumerate()
        .filter(move |&(b, inputs)| {
            !placed.contains(b)
                && inputs
                    .iter()
                    .all(|(_, sup)| sup.iter().any(|&s| placed.contains(s)))
        })
        .map(|(b, _)| b)
}

/// The best plan reaching `k` and the best-effort fallback for when none
/// does — what every level of the search keeps.
#[derive(Default)]
pub(crate) struct Leaders {
    pub(crate) best: Option<PlanCandidate>,
    pub(crate) best_effort: Option<PlanCandidate>,
}

impl Leaders {
    /// Keeps a candidate priced at `priced` if it leads its kind: among
    /// plans reaching `k` the cheaper; otherwise the larger estimated
    /// output, then the cheaper. `take` produces the candidate — cloning
    /// it out of the workspace — only then.
    pub(crate) fn offer(&mut self, priced: Priced, take: impl FnOnce() -> PlanCandidate) {
        let (slot, better) = if priced.meets_k {
            let better = self.best.as_ref().is_none_or(|b| priced.cost < b.cost);
            (&mut self.best, better)
        } else {
            let better = self.best_effort.as_ref().is_none_or(|b| {
                let (co, bo) = (priced.out_size, b.annotation.out_size());
                co > bo || (co == bo && priced.cost < b.cost)
            });
            (&mut self.best_effort, better)
        };
        if better {
            *slot = Some(take());
        }
    }

    /// Offers another level's leaders.
    pub(crate) fn absorb(&mut self, other: Leaders) {
        for candidate in [other.best, other.best_effort].into_iter().flatten() {
            let priced = Priced {
                cost: candidate.cost,
                meets_k: candidate.meets_k,
                out_size: candidate.annotation.out_size(),
            };
            self.offer(priced, || candidate);
        }
    }
}

/// Prices one complete topology — lowers it onto the context's
/// workspace stack (nothing, when it is the prefix just priced) and runs
/// phase 3 on it, with `pinned` positions fixed — and offers the result
/// to `leaders`, which clone it out only if it leads. Returns its
/// figures; `None` when the topology is not admissible. `suppliers` is
/// the supplier map of `(query, choice)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn instantiate_topology(
    query: &Arc<ConjunctiveQuery>,
    ctx: &CostContext<'_>,
    choice: &ApChoice,
    suppliers: &SupplierMap,
    topology: Complete<'_>,
    strategy: &StrategyRule,
    params: FetchParams<'_>,
    fetch_stats: &mut FetchStats,
    leaders: &mut Leaders,
) -> Option<Priced> {
    let instantiate = |pricer: &mut Pricer<'_, '_>, scratch: &mut FetchScratch| {
        let priced = phase3::search(pricer, scratch, params, fetch_stats);
        leaders.offer(priced, || PlanCandidate {
            plan: pricer.plan().clone(),
            cost: priced.cost,
            annotation: scratch.best_annotation().clone(),
            meets_k: priced.meets_k,
        });
        priced
    };
    match topology {
        Complete::Placed(state) => {
            ctx.with_topology(suppliers, query, choice, state, strategy, instantiate)
        }
        Complete::Poset(poset) => {
            ctx.with_poset(suppliers, query, choice, poset, strategy, instantiate)
        }
    }
}

/// A complete topology: the enumeration's state once every atom is
/// placed, or a poset from elsewhere (a heuristic seed, a splice).
#[derive(Clone, Copy)]
pub(crate) enum Complete<'a> {
    /// Placed batch by batch — the prefix priced last, as a rule.
    Placed(&'a PartialTopology),
    /// A poset over the query's atoms.
    Poset(&'a Poset),
}

struct Phase2Visitor<'a, 'c> {
    query: &'a Arc<ConjunctiveQuery>,
    ctx: &'a CostContext<'c>,
    choice: &'a ApChoice,
    suppliers: &'a SupplierMap,
    strategy: &'a StrategyRule,
    k: f64,
    opts: SearchOptions,
    incumbent: f64,
    leaders: Leaders,
    stats: Phase2Stats,
}

impl Phase2Visitor<'_, '_> {
    /// Prices a complete topology against `incumbent`, keeping it if it
    /// leads and lowering the incumbent when it reaches `k` cheaper.
    fn instantiate(&mut self, topology: Complete<'_>, incumbent: Option<f64>) {
        let params = FetchParams {
            k: self.k,
            heuristic: self.opts.fetch_heuristic,
            max_fetch: self.opts.max_fetch,
            explore: self.opts.explore_fetches,
            incumbent,
            pinned: &[],
        };
        let priced = instantiate_topology(
            self.query,
            self.ctx,
            self.choice,
            self.suppliers,
            topology,
            self.strategy,
            params,
            &mut self.stats.fetch,
            &mut self.leaders,
        );
        if let Some(priced) = priced.filter(|p| p.meets_k) {
            self.incumbent = self.incumbent.min(priced.cost);
        }
    }
}

impl TopologyVisitor for Phase2Visitor<'_, '_> {
    fn on_partial(&mut self, state: &PartialTopology) -> bool {
        // nothing to prune against until some plan — of this sequence
        // or an earlier one — has reached k
        if !self.opts.use_bounds || !self.incumbent.is_finite() {
            return true;
        }
        self.stats.partials_considered += 1;
        let Some(lower_bound) = self.ctx.price_prefix(
            self.suppliers,
            self.query,
            self.choice,
            state,
            self.strategy,
        ) else {
            return true;
        };
        if lower_bound >= self.incumbent {
            self.stats.partials_pruned += 1;
            return false;
        }
        true
    }

    fn on_complete(&mut self, state: &PartialTopology) {
        self.stats.topologies_complete += 1;
        let incumbent = self.opts.use_bounds.then_some(self.incumbent);
        self.instantiate(Complete::Placed(state), incumbent);
    }
}

/// Result of the phase-2 search for one access-pattern sequence.
pub struct Phase2Outcome {
    /// Best plan that reaches `k`, if any.
    pub best: Option<PlanCandidate>,
    /// Best best-effort plan when `k` is unreachable.
    pub best_effort: Option<PlanCandidate>,
    /// Search-effort counters.
    pub stats: Phase2Stats,
}

/// Searches all admissible topologies for `choice`, seeding the incumbent
/// with both §4.2.1 heuristics (and `initial_incumbent` carried over from
/// previously explored pattern sequences).
#[allow(clippy::too_many_arguments)]
pub fn optimize_topology(
    query: &Arc<ConjunctiveQuery>,
    ctx: &CostContext<'_>,
    choice: &ApChoice,
    strategy: &StrategyRule,
    k: f64,
    opts: SearchOptions,
    initial_incumbent: Option<f64>,
) -> Phase2Outcome {
    let suppliers = SupplierMap::build(query, ctx.schema, choice);
    let mut visitor = Phase2Visitor {
        query,
        ctx,
        choice,
        suppliers: &suppliers,
        strategy,
        k,
        opts,
        incumbent: initial_incumbent.unwrap_or(f64::INFINITY),
        leaders: Leaders::default(),
        stats: Phase2Stats::default(),
    };

    // Heuristic first choices build the initial upper bound (§4).
    for heuristic in [
        TopologyHeuristic::SelectiveSerial,
        TopologyHeuristic::MaxParallel,
    ] {
        let topo = match heuristic {
            TopologyHeuristic::SelectiveSerial => selective_serial(query, ctx.schema, &suppliers),
            TopologyHeuristic::MaxParallel => max_parallel(&suppliers),
        };
        if let Some(poset) = topo {
            let incumbent = initial_incumbent.filter(|_| opts.use_bounds);
            visitor.instantiate(Complete::Poset(&poset), incumbent);
        }
    }

    enumerate_topologies(query.atoms.len(), &suppliers, &mut visitor);

    Phase2Outcome {
        best: visitor.leaders.best,
        best_effort: visitor.leaders.best_effort,
        stats: visitor.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::running_example_parts;
    use mdq_cost::estimate::CacheSetting;
    use mdq_cost::metrics::{ExecutionTime, RequestResponse};
    use mdq_cost::selectivity::SelectivityModel;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};

    #[test]
    fn selective_serial_orders_by_erspi() {
        let (schema, query) = running_example_parts();
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let poset = selective_serial_topology(&query, &schema, &choice).expect("chain exists");
        assert!(poset.is_chain());
        // conf must come first (only callable); then weather (0.05),
        // hotel (chunk 5), flight (chunk 25)
        assert_eq!(
            poset.topological_order(),
            vec![ATOM_CONF, ATOM_WEATHER, ATOM_HOTEL, ATOM_FLIGHT]
        );
    }

    #[test]
    fn max_parallel_puts_all_after_conf() {
        let (schema, query) = running_example_parts();
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let poset = max_parallel_topology(&query, &schema, &choice).expect("exists");
        assert_eq!(poset.levels().len(), 2);
        assert_eq!(poset.levels()[0], vec![ATOM_CONF]);
        let mut batch = poset.levels()[1].clone();
        batch.sort_unstable();
        assert_eq!(batch, vec![ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER]);
    }

    #[test]
    fn phase2_explores_19_topologies_for_alpha1() {
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let sel = SelectivityModel::default();
        let metric = RequestResponse;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let opts = SearchOptions {
            use_bounds: false, // count the full space
            ..SearchOptions::default()
        };
        let out = optimize_topology(
            &query,
            &ctx,
            &choice,
            &StrategyRule::default(),
            10.0,
            opts,
            None,
        );
        assert_eq!(
            out.stats.topologies_complete, 19,
            "Example 5.1's plan count"
        );
        assert!(out.best.is_some());
    }

    #[test]
    fn pruning_reduces_work_but_preserves_optimum() {
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let sel = SelectivityModel::default();
        let metric = ExecutionTime;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let free = optimize_topology(
            &query,
            &ctx,
            &choice,
            &StrategyRule::default(),
            10.0,
            SearchOptions {
                use_bounds: false,
                ..SearchOptions::default()
            },
            None,
        );
        let bounded = optimize_topology(
            &query,
            &ctx,
            &choice,
            &StrategyRule::default(),
            10.0,
            SearchOptions::default(),
            None,
        );
        let (a, b) = (
            free.best.as_ref().expect("optimum exists").cost,
            bounded.best.as_ref().expect("optimum exists").cost,
        );
        assert!(
            (a - b).abs() < 1e-9,
            "pruning changed the optimum: {a} vs {b}"
        );
        assert!(
            bounded.stats.topologies_complete <= free.stats.topologies_complete,
            "bounding should not explore more complete topologies"
        );
        assert!(bounded.stats.partials_pruned > 0, "some pruning must fire");
    }

    /// A sequence whose heuristic seeds both miss `k` has no `best` of its
    /// own, but must still prune against the incumbent carried over from
    /// the sequences explored before it.
    #[test]
    fn carried_incumbent_prunes_when_the_seeds_miss_k() {
        let (mut schema, _) = running_example_parts();
        // one chunk each and no more: k = 10 is out of every plan's reach
        for name in ["flight", "hotel"] {
            let id = schema.service_by_name(name).expect("exists");
            schema.service_mut(id).profile.decay = Some(1);
        }
        let query = Arc::new(mdq_model::examples::running_example_query(&schema));
        let sel = SelectivityModel::default();
        let metric = ExecutionTime;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let second = &crate::phase1::ordered_sequences(&query, &ctx)[1];
        let out = optimize_topology(
            &query,
            &ctx,
            second,
            &StrategyRule::default(),
            10.0,
            SearchOptions::default(),
            Some(10.0), // an earlier sequence's plan reached k at cost 10
        );
        assert!(out.best.is_none(), "no plan of this sequence reaches k");
        assert!(
            out.best_effort.is_some(),
            "the seeds are kept as best effort"
        );
        assert!(
            out.stats.partials_pruned > 0,
            "partials are bounded by the carried incumbent: {:?}",
            out.stats
        );
    }

    #[test]
    fn etm_prefers_parallel_fig7d_shape() {
        // Under ETM the optimal topology parallelises flight and hotel
        // after weather (Fig. 7d / Fig. 8), per Example 5.1.
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let sel = SelectivityModel::default();
        let metric = ExecutionTime;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let out = optimize_topology(
            &query,
            &ctx,
            &choice,
            &StrategyRule::default(),
            10.0,
            SearchOptions::default(),
            None,
        );
        let best = out.best.expect("optimum exists");
        let poset = &best.plan.poset;
        assert!(poset.lt(ATOM_CONF, ATOM_WEATHER));
        assert!(poset.lt(ATOM_WEATHER, ATOM_FLIGHT));
        assert!(poset.lt(ATOM_WEATHER, ATOM_HOTEL));
        assert!(poset.incomparable(ATOM_FLIGHT, ATOM_HOTEL));
        assert!(best.meets_k);
    }
}
