//! The per-search costing context and the workspace candidates are
//! priced in.
//!
//! Pricing a candidate is arithmetic: a lowered plan is analysed once
//! ([`Estimator::prepare_from`]) and every fetch vector tried on it is
//! one pass over the prepared nodes plus one metric evaluation
//! (`Pricer`). Invoke prefixes are signed only when the context carries
//! a [`SharedWorkOracle`] to show them to — standalone optimization has
//! none and is the paper's costing exactly.
//!
//! **The workspace.** A [`CostContext`] privately owns one workspace:
//! the plan every candidate of its search is lowered into, the stack of
//! batches that plan was lowered as ([`Lowering`]), the preparation
//! buffers, the query's [`QueryFacts`] and phase 3's vectors. Phase 2's
//! enumeration places and undoes one batch at a time, so the candidate
//! it prices next shares all but its last batches with the one priced
//! before: [`lower_onto`] pops the batches they do not share and the
//! cap (the join of the maximal streams and the Output node), lowers
//! only the new batches and a new cap, and reports the first node that
//! changed, `k`. Only nodes `k..` are prepared
//! ([`Estimator::prepare_from`]) and estimated
//! ([`PreparedPlan::evaluate`] keeps every node before the first one
//! not estimated since or whose own fetch factor moved) — the rest keep
//! their steps and figures. A complete topology is the prefix just
//! priced, so phase 3 starts on it with nothing lowered or prepared,
//! and each fetch vector it tries is estimated from the first factor
//! that moved. The heuristic seeds, phase 1's single-atom bounds and
//! re-planning's topologies go through the same stack; a plan from
//! outside ([`CostContext::cost`]) is prepared whole. A candidate is
//! cloned out only when it becomes the incumbent or the best-effort
//! plan. The workspace is never shared: a context is built per search
//! (or per caller that prices a batch of plans) and is not `Sync`, and
//! the workspace dies with it — nothing survives the search, and no
//! other search or thread ever sees it.
//!
//! **Why the bits are the same.** A fresh lowering orders a topology's
//! nodes by (level, atom): the Input node, then per atom in that order
//! the join of its covering predecessors' streams and its invoke node,
//! then the cap. The enumeration's batches *are* the levels — every
//! atom of batch `i + 1` has a predecessor in batch `i` — and a batch
//! is placed in ascending atom order, so the nodes a stack keeps are
//! exactly the first nodes of a fresh lowering of the new candidate:
//! placing atoms adds no relation to any atom placed before (an atom's
//! covering predecessors, hence its join tree and its invoke node, are
//! fixed when it is placed), and `plan.atoms` being sorted moves
//! positions, never node indices. Every estimator figure of a node —
//! its applied predicates, carriers, divergence node, `t_in`, `t_out`,
//! calls — depends only on its ancestors, which precede it, and on its
//! own atom's fetch factor, which steps read by atom, not by the
//! position a newly placed atom may have shifted. So the kept steps and
//! figures are those a fresh preparation and estimate would compute,
//! and the new ones are computed by the same code in the same order.
//! The metric is not split: ETM prices a path with that path's total
//! τ, so every candidate's metric walk runs whole. The same candidates
//! are priced in the same order, and each figure is produced by the
//! same floating-point operations as by a fresh `build_plan` +
//! `Estimator::prepare` + metric — which the tests below check
//! candidate by candidate.

use crate::phase3::FetchScratch;
use mdq_cost::estimate::{Annotation, CacheSetting, Estimator, PreparedPlan, QueryFacts};
use mdq_cost::metrics::CostMetric;
use mdq_cost::selectivity::SelectivityModel;
use mdq_cost::shared::{discount_materialized, SharedWorkOracle};
use mdq_model::binding::{ApChoice, SupplierMap};
use mdq_model::query::ConjunctiveQuery;
use mdq_model::schema::Schema;
use mdq_plan::builder::{lower_onto, Lowering, StrategyRule};
use mdq_plan::dag::Plan;
use mdq_plan::poset::{PartialTopology, Poset};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Exact counts of the costing work one search performed — the
/// optimizer's deterministic effort figures, tracked across PRs by the
/// `optimizer` bench next to its wall times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostingEffort {
    /// Candidates (complete and prefix) whose operator DAG was lowered:
    /// one per candidate that differs from the one lowered before, however
    /// many batches it pushed.
    pub plans_built: usize,
    /// Candidates analysed by [`Estimator::prepare_from`] (each from its
    /// first changed node).
    pub plans_prepared: usize,
    /// Fetch vectors run through [`PreparedPlan::evaluate`].
    pub evaluations: usize,
    /// Priced candidates whose invoke prefixes were signed and shown to
    /// the shared-work oracle (0 without an oracle).
    pub prefix_signings: usize,
}

/// Bundles everything needed to price a plan: schema, selectivity model,
/// cache setting, the cost metric being minimised — and, when the
/// serving layer plans against work other queries have already
/// materialized, its [`SharedWorkOracle`]. Without one (the default)
/// nothing is discounted and no prefix is signed.
///
/// Every plan priced through a context is priced in its private
/// workspace (see the module docs).
pub struct CostContext<'a> {
    /// Service signatures and domains.
    pub schema: &'a Schema,
    /// Predicate selectivity model.
    pub selectivity: &'a SelectivityModel,
    /// Cache setting assumed by the call estimator.
    pub cache: CacheSetting,
    /// The metric to minimise.
    pub metric: &'a dyn CostMetric,
    /// Already-materialized shared work to discount when pricing;
    /// `None` = standalone costing.
    pub oracle: Option<&'a dyn SharedWorkOracle>,
    effort: Cell<CostingEffort>,
    workspace: RefCell<Workspace>,
    #[cfg(test)]
    pub(crate) log: RefCell<PricingLog>,
}

/// The buffers one search lowers, prepares and prices its candidates in.
#[derive(Default)]
pub(crate) struct Workspace {
    /// The candidate lowered last (`None` before the first lowering).
    plan: Option<Plan>,
    /// The stack of batches `plan` was lowered as.
    lowering: Lowering,
    /// A complete topology given as a poset, as placed batches.
    whole: Option<PartialTopology>,
    pricing: Pricing,
    /// Phase 3's vectors and the best candidate's annotation.
    fetch: FetchScratch,
}

/// Preparation buffers, the facts of the query they were last used for,
/// and how much of them is current.
#[derive(Default)]
pub(crate) struct Pricing {
    facts: Option<QueryFacts>,
    prepared: PreparedPlan,
    /// Leading nodes of the workspace's plan whose prepared steps are
    /// current (0 once a plan from outside was prepared).
    steps: usize,
}

impl<'a> CostContext<'a> {
    /// Creates a context with no oracle (standalone costing).
    pub fn new(
        schema: &'a Schema,
        selectivity: &'a SelectivityModel,
        cache: CacheSetting,
        metric: &'a dyn CostMetric,
    ) -> Self {
        CostContext {
            schema,
            selectivity,
            cache,
            metric,
            oracle: None,
            effort: Cell::new(CostingEffort::default()),
            workspace: RefCell::new(Workspace::default()),
            #[cfg(test)]
            log: RefCell::default(),
        }
    }

    /// Prices against `oracle`'s materialized work (builder style).
    pub fn with_oracle(mut self, oracle: &'a dyn SharedWorkOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// The costing work done through this context so far.
    pub fn effort(&self) -> CostingEffort {
        self.effort.get()
    }

    fn count(&self, bump: impl FnOnce(&mut CostingEffort)) {
        let mut effort = self.effort.get();
        bump(&mut effort);
        self.effort.set(effort);
    }

    /// Analyses `plan` into the workspace's prepared plan from node
    /// `from` on — from its first node when the workspace holds another
    /// query's facts, which are read first.
    fn prepare(&self, plan: &Plan, pricing: &mut Pricing, from: usize) {
        self.count(|e| e.plans_prepared += 1);
        let estimator = Estimator::new(self.schema, self.selectivity, self.cache);
        let (facts, from) = match &mut pricing.facts {
            Some(facts) if facts.is_for(&plan.query) => (facts, from),
            slot => (slot.insert(estimator.facts(&plan.query)), 0),
        };
        estimator.prepare_from(plan, facts, &mut pricing.prepared, from);
    }

    /// Prepares a plan from outside the workspace's stack, whole.
    fn prepare_outside(&self, plan: &Plan, pricing: &mut Pricing) {
        self.prepare(plan, pricing, 0);
        pricing.steps = 0;
    }

    /// Estimates the prepared plan under `fetches` (from its first node
    /// whose figures can have changed).
    fn evaluate<'p>(&self, pricing: &'p mut Pricing, fetches: &[u64]) -> &'p Annotation {
        self.count(|e| e.evaluations += 1);
        pricing.prepared.evaluate(fetches)
    }

    /// Prices the estimate just evaluated of `plan`: discounts the calls
    /// of the longest invoke prefix the oracle (if any) reports
    /// materialized, then applies the metric.
    fn price(&self, plan: &Plan, pricing: &mut Pricing) -> f64 {
        if let Some(oracle) = self.oracle {
            self.count(|e| e.prefix_signings += 1);
            discount_materialized(plan, pricing.prepared.annotation_mut(), oracle);
        }
        let ann = pricing.prepared.annotation();
        let cost = self.metric.cost(plan, ann, self.schema);
        #[cfg(test)]
        {
            let mut log = self.log.borrow_mut();
            let lowering = log.lowered.len().wrapping_sub(1);
            log.priced.push((lowering, plan.clone(), ann.clone(), cost));
        }
        cost
    }

    /// Annotates a plan under this context's estimator settings.
    pub fn annotate(&self, plan: &Plan) -> Annotation {
        let pricing = &mut self.workspace.borrow_mut().pricing;
        self.prepare_outside(plan, pricing);
        self.evaluate(pricing, &plan.fetches).clone()
    }

    /// Annotates and prices a plan under its own fetch factors.
    pub fn cost(&self, plan: &Plan) -> (f64, Annotation) {
        let pricing = &mut self.workspace.borrow_mut().pricing;
        self.prepare_outside(plan, pricing);
        self.evaluate(pricing, &plan.fetches);
        let cost = self.price(plan, pricing);
        (cost, pricing.prepared.annotation().clone())
    }

    /// Runs `f` on a pricer of `plan` (prepared once) and phase 3's
    /// workspace vectors.
    pub(crate) fn with_pricer<R>(
        &self,
        plan: &mut Plan,
        f: impl FnOnce(&mut Pricer<'_, '_>, &mut FetchScratch) -> R,
    ) -> R {
        let workspace = &mut *self.workspace.borrow_mut();
        self.prepare_outside(plan, &mut workspace.pricing);
        let mut pricer = Pricer {
            ctx: self,
            plan,
            pricing: &mut workspace.pricing,
        };
        f(&mut pricer, &mut workspace.fetch)
    }

    /// Lowers `topology` — a topology of `choice`, complete or partial —
    /// onto the workspace's stack and runs `f` on a pricer of it; `None`
    /// when the topology is not admissible. Only the nodes that differ
    /// from the candidate lowered before are lowered and prepared (see
    /// the module docs). `suppliers` is the supplier map of
    /// `(query, choice)`.
    pub(crate) fn with_topology<R>(
        &self,
        suppliers: &SupplierMap,
        query: &Arc<ConjunctiveQuery>,
        choice: &ApChoice,
        topology: &PartialTopology,
        strategy: &StrategyRule,
        f: impl FnOnce(&mut Pricer<'_, '_>, &mut FetchScratch) -> R,
    ) -> Option<R> {
        let workspace = &mut *self.workspace.borrow_mut();
        self.on_stack(workspace, suppliers, query, choice, topology, strategy, f)
    }

    /// [`CostContext::with_topology`] of a complete topology given as a
    /// poset over the query's atoms.
    pub(crate) fn with_poset<R>(
        &self,
        suppliers: &SupplierMap,
        query: &Arc<ConjunctiveQuery>,
        choice: &ApChoice,
        poset: &Poset,
        strategy: &StrategyRule,
        f: impl FnOnce(&mut Pricer<'_, '_>, &mut FetchScratch) -> R,
    ) -> Option<R> {
        let workspace = &mut *self.workspace.borrow_mut();
        let mut whole = workspace
            .whole
            .take()
            .unwrap_or_else(|| PartialTopology::of(&Poset::antichain(0)));
        whole.set_complete(poset);
        let out = self.on_stack(workspace, suppliers, query, choice, &whole, strategy, f);
        workspace.whole = Some(whole);
        out
    }

    /// [`CostContext::with_topology`] on the workspace it borrowed.
    #[allow(clippy::too_many_arguments)]
    fn on_stack<R>(
        &self,
        workspace: &mut Workspace,
        suppliers: &SupplierMap,
        query: &Arc<ConjunctiveQuery>,
        choice: &ApChoice,
        topology: &PartialTopology,
        strategy: &StrategyRule,
        f: impl FnOnce(&mut Pricer<'_, '_>, &mut FetchScratch) -> R,
    ) -> Option<R> {
        let pricing = &mut workspace.pricing;
        let plan = workspace.plan.get_or_insert_with(|| Plan {
            query: Arc::clone(query),
            choice: choice.clone(),
            poset: Poset::antichain(0),
            atoms: Vec::new(),
            nodes: Vec::new(),
            fetches: Vec::new(),
        });
        if !Arc::ptr_eq(&plan.query, query) {
            plan.query = Arc::clone(query);
        }
        if plan.choice != *choice {
            plan.choice.0.clone_from(&choice.0);
        }
        let changed = lower_onto(
            plan,
            &mut workspace.lowering,
            suppliers,
            self.schema,
            strategy,
            topology,
        )
        .ok()?;
        if let Some(first) = changed {
            self.count(|e| e.plans_built += 1);
            pricing.steps = pricing.steps.min(first);
            #[cfg(test)]
            self.log.borrow_mut().lowered.push((
                choice.clone(),
                topology.poset.clone(),
                plan.atoms.clone(),
            ));
        }
        if pricing.steps < plan.nodes.len() {
            self.prepare(plan, pricing, pricing.steps);
            pricing.steps = plan.nodes.len();
        }
        let mut pricer = Pricer {
            ctx: self,
            plan,
            pricing,
        };
        Some(f(&mut pricer, &mut workspace.fetch))
    }

    /// Lowers a prefix (see [`CostContext::with_topology`]) and prices it
    /// with every fetch factor at 1 — the lower bound branch and bound
    /// prunes with.
    pub(crate) fn price_prefix(
        &self,
        suppliers: &SupplierMap,
        query: &Arc<ConjunctiveQuery>,
        choice: &ApChoice,
        prefix: &PartialTopology,
        strategy: &StrategyRule,
    ) -> Option<f64> {
        self.with_topology(suppliers, query, choice, prefix, strategy, |pricer, _| {
            pricer.price_as_is()
        })
    }
}

/// One plan prepared for pricing under many fetch vectors — phase 3's
/// unit of work. A vector is installed and estimated once
/// ([`Pricer::out_size`]); its cost, when wanted, is read off that same
/// evaluation ([`Pricer::cost`]).
pub(crate) struct Pricer<'a, 'c> {
    ctx: &'a CostContext<'c>,
    plan: &'a mut Plan,
    pricing: &'a mut Pricing,
}

impl Pricer<'_, '_> {
    /// The plan being priced (its fetch factors are those of the last
    /// [`Pricer::out_size`]).
    pub(crate) fn plan(&self) -> &Plan {
        self.plan
    }

    /// The schema the plan is priced under.
    pub(crate) fn schema(&self) -> &Schema {
        self.ctx.schema
    }

    /// Installs `fetches` in the plan, estimates it and returns the
    /// estimated answer size.
    pub(crate) fn out_size(&mut self, fetches: &[u64]) -> f64 {
        self.plan.fetches.copy_from_slice(fetches);
        self.ctx.evaluate(self.pricing, fetches).out_size()
    }

    /// The cost of the vector last passed to [`Pricer::out_size`].
    pub(crate) fn cost(&mut self) -> f64 {
        self.ctx.price(self.plan, self.pricing)
    }

    /// Estimates and prices the plan under the fetch factors it holds.
    pub(crate) fn price_as_is(&mut self) -> f64 {
        self.ctx.evaluate(self.pricing, &self.plan.fetches);
        self.ctx.price(self.plan, self.pricing)
    }

    /// The annotation behind the last [`Pricer::out_size`] (discounted
    /// once [`Pricer::cost`] ran on it).
    pub(crate) fn annotation(&self) -> &Annotation {
        self.pricing.prepared.annotation()
    }

    /// Installs `fetches` in the plan without estimating it.
    pub(crate) fn install(&mut self, fetches: &[u64]) {
        self.plan.fetches.copy_from_slice(fetches);
    }
}

/// What a context lowered and priced, in order — the record the tests
/// re-price from scratch.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct PricingLog {
    /// Each lowering's input: the pattern choice, the topology over the
    /// query's atoms and the atoms it was restricted to.
    pub(crate) lowered: Vec<(ApChoice, Poset, Vec<usize>)>,
    /// Each pricing: the lowering it priced (an index into `lowered`),
    /// the plan as priced — fetch factors included — its annotation and
    /// its cost.
    pub(crate) priced: Vec<(usize, Plan, Annotation, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{search, OptimizerConfig};
    use mdq_cost::metrics::{ExecutionTime, RequestResponse, SumCost};
    use mdq_model::examples::{scale_body, ScaleShape};
    use mdq_model::rng::Rng;
    use mdq_model::schema::Chunking;
    use mdq_plan::builder::build_plan;
    use mdq_services::domains::bibliography::bibliography_world;
    use mdq_services::domains::protein::protein_world;

    /// One seeded variant of a world's query, perturbed like the golden
    /// corpus's (`tests/optimizer_golden.rs`): profiles, chunk sizes,
    /// decays, domain cardinalities and selectivity hints.
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
                schema.set_domain_cardinality(id, rng.range_u64(2, 400) as f64);
            }
        }
        for p in &mut query.predicates {
            if rng.bool(0.5) {
                p.selectivity_hint = Some(rng.range_f64(0.005, 0.5));
            }
        }
        (schema, query)
    }

    /// Travel, bibliography and protein queries: each world's canonical
    /// query and seeded variants of it.
    fn corpus() -> Vec<(Schema, Arc<ConjunctiveQuery>)> {
        let travel_schema = mdq_model::examples::running_example_schema();
        let travel_query = mdq_model::examples::running_example_query(&travel_schema);
        let biblio = bibliography_world(2008);
        let protein = protein_world(2008);
        let mut out = Vec::new();
        for (schema, query, seed) in [
            (travel_schema, travel_query, 0x7472_6176),
            (biblio.schema, biblio.query, 0x6269_626c),
            (protein.schema, protein.query, 0x7072_6f74),
        ] {
            let mut rng = Rng::new(seed);
            out.push((schema.clone(), Arc::new(query.clone())));
            for _ in 0..5 {
                let (s, q) = perturbed(&schema, &query, &mut rng);
                out.push((s, Arc::new(q)));
            }
        }
        out
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

    /// The workspace-reuse oracle. A stale tail — a node, a join
    /// variable, a predicate bit, a carrier or an annotation entry one
    /// candidate leaves behind for the next — would show as a candidate
    /// the workspace prices differently from a fresh lowering and
    /// preparation of the same candidate. So for every search of the
    /// corpus under {ETM, RRM, SCM} × the three cache settings × k ∈
    /// {1, 5, 20}: every candidate it priced — each prefix and each
    /// (plan, fetch vector) pair of phase 3 — is lowered afresh with
    /// `build_plan` from what the search lowered, must equal the
    /// workspace's plan node for node, and is re-priced through
    /// `Estimator::prepare` + `evaluate` + the metric to the same bits.
    #[test]
    fn workspace_pricing_equals_fresh_pricing() {
        let scm = SumCost {
            join_cost_per_pair: 0.01,
        };
        let metrics: [&dyn CostMetric; 3] = [&ExecutionTime, &RequestResponse, &scm];
        let (mut searches, mut candidates, mut shrinks) = (0, 0, 0);
        for (schema, query) in corpus() {
            for metric in metrics {
                for cache in CacheSetting::ALL {
                    for k in [1, 5, 20] {
                        let config = OptimizerConfig {
                            k,
                            cache,
                            max_fetch: 8,
                            ..OptimizerConfig::default()
                        };
                        let ctx = CostContext::new(&schema, &config.selectivity, cache, metric);
                        search(Arc::clone(&query), &ctx, &config).expect("corpus queries optimize");
                        let estimator = Estimator::new(&schema, &config.selectivity, cache);
                        let log = ctx.log.take();
                        let mut previous = 0;
                        for (lowering, plan, annotation, cost) in &log.priced {
                            let (choice, poset, atoms) = &log.lowered[*lowering];
                            let mut fresh = build_plan(
                                Arc::clone(&query),
                                &schema,
                                choice.clone(),
                                poset.restrict(atoms),
                                atoms.clone(),
                                &config.strategy,
                            )
                            .expect("a priced candidate lowers afresh");
                            assert_eq!(plan.choice, fresh.choice);
                            assert_eq!(plan.atoms, fresh.atoms);
                            assert_eq!(plan.poset, fresh.poset);
                            assert_eq!(
                                format!("{:?}", plan.nodes),
                                format!("{:?}", fresh.nodes),
                                "the workspace lowered another DAG"
                            );
                            fresh.fetches.copy_from_slice(&plan.fetches);
                            let mut prepared = estimator.prepare(&fresh);
                            let ann = prepared.evaluate(&fresh.fetches);
                            assert_eq!(bits(annotation), bits(ann), "annotations differ");
                            assert_eq!(
                                metric.cost(&fresh, ann, &schema).to_bits(),
                                cost.to_bits(),
                                "{} under {cache:?}, k = {k}: {:?} at {:?}",
                                metric.name(),
                                fresh.poset,
                                fresh.fetches
                            );
                            shrinks += usize::from(plan.nodes.len() < previous);
                            previous = plan.nodes.len();
                        }
                        searches += 1;
                        candidates += log.priced.len();
                    }
                }
            }
        }
        assert_eq!(searches, 18 * 27);
        assert!(candidates > 100 * searches, "{candidates} candidates");
        assert!(
            shrinks > 0,
            "no search priced a smaller candidate right after a larger one"
        );
    }

    /// What [`assert_log_reprices_fresh`] re-priced.
    #[derive(Default)]
    struct Repriced {
        candidates: usize,
        /// Candidates whose atoms were the previous candidate's plus new
        /// ones placed before some of them (shifting those to later
        /// positions).
        shifts: usize,
        /// Candidates the oracle discounted.
        discounted: usize,
    }

    /// Re-prices every candidate of `log` from scratch — the check of
    /// [`workspace_pricing_equals_fresh_pricing`], for the wider corpora
    /// below, with the calls `oracle` reports materialized discounted
    /// when there is one.
    fn assert_log_reprices_fresh(
        schema: &Schema,
        query: &Arc<ConjunctiveQuery>,
        config: &OptimizerConfig,
        metric: &dyn CostMetric,
        oracle: Option<&dyn SharedWorkOracle>,
        log: PricingLog,
    ) -> Repriced {
        let estimator = Estimator::new(schema, &config.selectivity, config.cache);
        let mut out = Repriced {
            candidates: log.priced.len(),
            ..Repriced::default()
        };
        let mut previous: &[usize] = &[];
        for (lowering, plan, annotation, cost) in &log.priced {
            let (choice, poset, atoms) = &log.lowered[*lowering];
            let mut fresh = build_plan(
                Arc::clone(query),
                schema,
                choice.clone(),
                poset.restrict(atoms),
                atoms.clone(),
                &config.strategy,
            )
            .expect("a priced candidate lowers afresh");
            assert_eq!(plan.choice, fresh.choice);
            assert_eq!(plan.atoms, fresh.atoms);
            assert_eq!(plan.poset, fresh.poset);
            assert_eq!(
                format!("{:?}", plan.nodes),
                format!("{:?}", fresh.nodes),
                "the workspace lowered another DAG"
            );
            fresh.fetches.copy_from_slice(&plan.fetches);
            let mut prepared = estimator.prepare(&fresh);
            prepared.evaluate(&fresh.fetches);
            let ann = prepared.annotation_mut();
            if let Some(oracle) = oracle {
                out.discounted += usize::from(discount_materialized(&fresh, ann, oracle) > 0);
            }
            assert_eq!(bits(annotation), bits(ann), "annotations differ");
            assert_eq!(
                metric.cost(&fresh, ann, schema).to_bits(),
                cost.to_bits(),
                "{}: {:?} at {:?}",
                metric.name(),
                fresh.poset,
                fresh.fetches
            );
            let grew = plan.atoms.len() > previous.len();
            let kept = previous.iter().all(|a| plan.atoms.contains(a));
            let shifted = plan.atoms.iter().zip(previous).any(|(a, b)| a != b);
            out.shifts += usize::from(grew && kept && shifted);
            previous = &plan.atoms;
        }
        out
    }

    /// The oracle on the optimizer's scaling bodies: 5-atom chains,
    /// stars and cliques of chunked and bulk services under ETM and RRM,
    /// and a 6-atom chain under ETM, where atoms are placed out of index
    /// order (a placed atom shifts those placed before it to later
    /// positions) across many pushes and pops.
    #[test]
    fn workspace_pricing_equals_fresh_pricing_on_scale_bodies() {
        let both: [&dyn CostMetric; 2] = [&ExecutionTime, &RequestResponse];
        let (mut candidates, mut shifts) = (0, 0);
        for shape in ScaleShape::ALL {
            for n in [5, 6] {
                let metrics = match (shape, n) {
                    (_, 5) => &both[..],
                    (ScaleShape::Chain, _) => &both[..1],
                    _ => continue,
                };
                let (schema, query) = scale_body(shape, n);
                let query = Arc::new(query);
                for &metric in metrics {
                    let config = OptimizerConfig {
                        max_fetch: 8,
                        ..OptimizerConfig::default()
                    };
                    let ctx = CostContext::new(&schema, &config.selectivity, config.cache, metric);
                    search(Arc::clone(&query), &ctx, &config).expect("scale bodies optimize");
                    let log = ctx.log.take();
                    let repriced =
                        assert_log_reprices_fresh(&schema, &query, &config, metric, None, log);
                    candidates += repriced.candidates;
                    shifts += repriced.shifts;
                }
            }
        }
        assert!(candidates > 20_000, "{candidates} candidates");
        assert!(shifts > 2_000, "{shifts} placements shifted earlier atoms");
    }

    /// The oracle on re-planning: `reoptimize_suffix_in` over 7- and
    /// 8-atom scaling bodies with the first atoms of a running plan
    /// executed — their positions' fetch factors pinned, their sub-poset
    /// frozen — so every complete topology of the suffix space is
    /// lowered onto the stack the one before left.
    #[test]
    fn suffix_pricing_equals_fresh_pricing() {
        let (mut candidates, mut searches) = (0, 0);
        for shape in ScaleShape::ALL {
            for n in [7, 8] {
                let (schema, query) = scale_body(shape, n);
                let query = Arc::new(query);
                let config = OptimizerConfig {
                    max_fetch: 8,
                    ..OptimizerConfig::default()
                };
                let metric = ExecutionTime;
                let setup = CostContext::new(&schema, &config.selectivity, config.cache, &metric);
                let choice = crate::phase1::ordered_sequences(&query, &setup).remove(0);
                let poset = crate::phase2::selective_serial_topology(&query, &schema, &choice)
                    .expect("scale bodies have a serial plan");
                let mut running = build_plan(
                    Arc::clone(&query),
                    &schema,
                    choice,
                    poset.clone(),
                    (0..n).collect(),
                    &config.strategy,
                )
                .expect("the serial plan lowers");
                for pos in running.chunked_positions(&schema) {
                    running.set_fetch(pos, 2);
                }
                let order = poset.topological_order();
                for executed in [3, 4] {
                    let ctx = CostContext::new(&schema, &config.selectivity, config.cache, &metric);
                    crate::replan::reoptimize_suffix_in(
                        &running,
                        &order[..n - executed],
                        &ctx,
                        &config,
                    )
                    .expect("suffixes re-optimize");
                    let log = ctx.log.take();
                    let repriced =
                        assert_log_reprices_fresh(&schema, &query, &config, &metric, None, log);
                    candidates += repriced.candidates;
                    searches += 1;
                }
            }
        }
        assert_eq!(searches, 12);
        assert!(candidates > 300 * searches, "{candidates} candidates");
    }

    /// The oracle under shared work: each corpus query searched again
    /// with the invoke prefixes of its standalone optimum reported
    /// materialized, so priced candidates that start with one have its
    /// calls discounted — in the workspace's annotation, which the next
    /// candidate's estimate must not build on.
    #[test]
    fn workspace_pricing_equals_fresh_pricing_with_shared_work() {
        let (mut candidates, mut discounted, mut searches) = (0, 0, 0);
        for (schema, query) in corpus() {
            let config = OptimizerConfig {
                k: 5,
                max_fetch: 8,
                ..OptimizerConfig::default()
            };
            let metric = ExecutionTime;
            let alone = CostContext::new(&schema, &config.selectivity, config.cache, &metric);
            let best =
                search(Arc::clone(&query), &alone, &config).expect("corpus queries optimize");
            let shared: std::collections::HashSet<_> =
                mdq_plan::signature::invoke_prefixes(&best.candidate.plan)
                    .iter()
                    .map(|prefix| prefix.signature)
                    .collect();
            if shared.is_empty() {
                continue;
            }
            let ctx = CostContext::new(&schema, &config.selectivity, config.cache, &metric)
                .with_oracle(&shared);
            search(Arc::clone(&query), &ctx, &config).expect("corpus queries optimize");
            let log = ctx.log.take();
            let repriced =
                assert_log_reprices_fresh(&schema, &query, &config, &metric, Some(&shared), log);
            candidates += repriced.candidates;
            discounted += repriced.discounted;
            searches += 1;
        }
        assert!(searches >= 12, "{searches} searches had a prefix to share");
        assert!(candidates > 50 * searches, "{candidates} candidates");
        assert!(
            discounted > candidates / 10,
            "{discounted} of {candidates} discounted"
        );
    }

    /// A chain over the running example's atoms, placed one batch per
    /// atom: a partial topology of the enumeration's kind.
    fn chain(atoms: &[usize]) -> PartialTopology {
        let n = 4;
        let mut poset = Poset::antichain(n);
        let mut preds = vec![0u64; n];
        for (i, &b) in atoms.iter().enumerate() {
            for &a in &atoms[..i] {
                poset.add_lt(a, b);
                preds[b] |= 1 << a;
            }
        }
        PartialTopology {
            batches: atoms.iter().map(|&a| vec![a]).collect(),
            poset,
            placed: atoms.iter().fold(0, |set, &a| set | 1 << a),
            preds,
        }
    }

    /// A discount belongs to the candidate it was priced for: when the
    /// next candidate keeps the discounted nodes but no longer starts
    /// with the materialized prefix — a chain's parent priced after it —
    /// its kept nodes are estimated again, undiscounted.
    #[test]
    fn a_discount_is_not_kept_for_the_next_candidate() {
        use mdq_model::examples::{ATOM_CONF, ATOM_HOTEL, ATOM_WEATHER};
        let schema = mdq_model::examples::running_example_schema();
        let query = Arc::new(mdq_model::examples::running_example_query(&schema));
        let config = OptimizerConfig::default();
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let suppliers = SupplierMap::build(&query, &schema, &choice);
        let (long, short) = (
            chain(&[ATOM_CONF, ATOM_WEATHER, ATOM_HOTEL]),
            chain(&[ATOM_CONF, ATOM_WEATHER]),
        );
        let fresh = |topology: &PartialTopology| {
            let atoms: Vec<usize> = topology.placed_atoms().collect();
            let poset = topology.poset.restrict(&atoms);
            build_plan(
                Arc::clone(&query),
                &schema,
                choice.clone(),
                poset,
                atoms,
                &config.strategy,
            )
            .expect("chains lower")
        };
        let longest = mdq_plan::signature::invoke_prefixes(&fresh(&long))
            .pop()
            .expect("a chain has invoke prefixes");
        let shared: std::collections::HashSet<_> = [longest.signature].into_iter().collect();
        let metric = ExecutionTime;
        let ctx = CostContext::new(&schema, &config.selectivity, config.cache, &metric)
            .with_oracle(&shared);
        let price = |topology| {
            ctx.price_prefix(&suppliers, &query, &choice, topology, &config.strategy)
                .expect("chains are admissible")
        };
        let (discounted, undiscounted) = (price(&long), price(&short));
        let estimator = Estimator::new(&schema, &config.selectivity, config.cache);
        let plan = fresh(&short);
        let ann = estimator.annotate(&plan);
        assert_eq!(
            undiscounted.to_bits(),
            metric.cost(&plan, &ann, &schema).to_bits()
        );
        let plan = fresh(&long);
        let mut ann = estimator.annotate(&plan);
        assert_eq!(discount_materialized(&plan, &mut ann, &shared), 3);
        assert_eq!(
            discounted.to_bits(),
            metric.cost(&plan, &ann, &schema).to_bits()
        );
    }
}
