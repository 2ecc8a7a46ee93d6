//! The per-search costing context and the workspace candidates are
//! priced in.
//!
//! Pricing a candidate is arithmetic: a lowered plan is analysed once
//! ([`Estimator::prepare_into`]) and every fetch vector tried on it is
//! one pass over the prepared nodes plus one metric evaluation
//! (`Pricer`). Invoke prefixes are signed only when the context carries
//! a [`SharedWorkOracle`] to show them to — standalone optimization has
//! none and is the paper's costing exactly.
//!
//! **The workspace.** A [`CostContext`] privately owns one workspace:
//! the plan every candidate of its search is lowered into, the lowering
//! and preparation buffers, the query's [`QueryFacts`] and phase 3's
//! vectors. Candidates are lowered, prepared and priced in place; a
//! candidate is cloned out only when it becomes the incumbent or the
//! best-effort plan. The workspace is never shared: a context is built
//! per search (or per caller that prices a batch of plans) and is not
//! `Sync`, and the workspace dies with it — nothing survives the search,
//! and no other search or thread ever sees it.
//!
//! **Why the bits are the same.** The workspace changes where a
//! candidate's nodes and the estimator's tables live, not what is
//! computed: the one lowering ([`mdq_plan::builder::lower`]) and the one
//! preparation ([`Estimator::prepare_into`]) rewrite every entry they
//! later read, the same candidates are priced in the same order, and each
//! figure is produced by the same floating-point operations in the same
//! order as by a fresh `build_plan` + `Estimator::prepare` + metric —
//! which the optimizer's tests check candidate by candidate.

use crate::phase3::FetchScratch;
use mdq_cost::estimate::{Annotation, CacheSetting, Estimator, PreparedPlan, QueryFacts};
use mdq_cost::metrics::CostMetric;
use mdq_cost::selectivity::SelectivityModel;
use mdq_cost::shared::{discount_materialized, SharedWorkOracle};
use mdq_model::binding::{ApChoice, SupplierMap};
use mdq_model::query::ConjunctiveQuery;
use mdq_model::schema::Schema;
use mdq_plan::builder::{lower, Lowering, StrategyRule};
use mdq_plan::dag::Plan;
use mdq_plan::poset::Poset;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Exact counts of the costing work one search performed — the
/// optimizer's deterministic effort figures, tracked across PRs by the
/// `optimizer` bench next to its wall times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostingEffort {
    /// Plans (complete and prefix) lowered to operator DAGs.
    pub plans_built: usize,
    /// Plans analysed by [`Estimator::prepare_into`].
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

/// The buffers one search lowers, prepares and prices its candidates in.
#[derive(Default)]
pub(crate) struct Workspace {
    /// The candidate lowered last (`None` before the first lowering).
    plan: Option<Plan>,
    lowering: Lowering,
    pricing: Pricing,
    /// Phase 3's vectors and the best candidate's annotation.
    fetch: FetchScratch,
}

/// Preparation buffers and the facts of the query they were last used
/// for.
#[derive(Default)]
pub(crate) struct Pricing {
    facts: Option<QueryFacts>,
    prepared: PreparedPlan,
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

    /// Analyses `plan` into the workspace's prepared plan, reading the
    /// query's facts first if the workspace holds another query's.
    fn prepare<'p>(&self, plan: &Plan, pricing: &'p mut Pricing) -> &'p mut PreparedPlan {
        self.count(|e| e.plans_prepared += 1);
        let estimator = Estimator::new(self.schema, self.selectivity, self.cache);
        let facts = match &mut pricing.facts {
            Some(facts) if facts.is_for(&plan.query) => facts,
            slot => slot.insert(estimator.facts(&plan.query)),
        };
        estimator.prepare_into(plan, facts, &mut pricing.prepared);
        &mut pricing.prepared
    }

    fn evaluate<'p>(&self, prepared: &'p mut PreparedPlan, fetches: &[u64]) -> &'p Annotation {
        self.count(|e| e.evaluations += 1);
        prepared.evaluate(fetches)
    }

    /// Prices an evaluated annotation of `plan`: discounts the calls of
    /// the longest invoke prefix the oracle (if any) reports
    /// materialized, then applies the metric.
    fn price(&self, plan: &Plan, ann: &mut Annotation) -> f64 {
        if let Some(oracle) = self.oracle {
            self.count(|e| e.prefix_signings += 1);
            discount_materialized(plan, ann, oracle);
        }
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
        let prepared = self.prepare(plan, pricing);
        self.evaluate(prepared, &plan.fetches).clone()
    }

    /// Annotates and prices a plan under its own fetch factors.
    pub fn cost(&self, plan: &Plan) -> (f64, Annotation) {
        let pricing = &mut self.workspace.borrow_mut().pricing;
        let prepared = self.prepare(plan, pricing);
        self.evaluate(prepared, &plan.fetches);
        let cost = self.price(plan, prepared.annotation_mut());
        (cost, prepared.annotation().clone())
    }

    /// Runs `f` on a pricer of `plan` (prepared once) and phase 3's
    /// workspace vectors.
    pub(crate) fn with_pricer<R>(
        &self,
        plan: &mut Plan,
        f: impl FnOnce(&mut Pricer<'_, '_>, &mut FetchScratch) -> R,
    ) -> R {
        let workspace = &mut *self.workspace.borrow_mut();
        let mut pricer = Pricer::new(self, plan, &mut workspace.pricing);
        f(&mut pricer, &mut workspace.fetch)
    }

    /// Lowers `poset` restricted to `atoms` — a topology, or a prefix of
    /// one, of `choice` — into the workspace and runs `f` on a pricer of
    /// it; `None` when the topology is not admissible. `suppliers` is the
    /// supplier map of `(query, choice)`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_lowered<R>(
        &self,
        suppliers: &SupplierMap,
        query: &Arc<ConjunctiveQuery>,
        choice: &ApChoice,
        poset: &Poset,
        atoms: impl IntoIterator<Item = usize>,
        strategy: &StrategyRule,
        f: impl FnOnce(&mut Pricer<'_, '_>, &mut FetchScratch) -> R,
    ) -> Option<R> {
        let workspace = &mut *self.workspace.borrow_mut();
        self.count(|e| e.plans_built += 1);
        let plan = workspace.plan.get_or_insert_with(|| Plan {
            query: Arc::clone(query),
            choice: choice.clone(),
            poset: Poset::antichain(0),
            atoms: Vec::new(),
            nodes: Vec::new(),
            fetches: Vec::new(),
        });
        plan.query = Arc::clone(query);
        plan.choice.0.clone_from(&choice.0);
        plan.atoms.clear();
        plan.atoms.extend(atoms);
        #[cfg(test)]
        self.log
            .borrow_mut()
            .lowered
            .push((choice.clone(), poset.clone(), plan.atoms.clone()));
        poset.restrict_into(&plan.atoms, &mut plan.poset);
        lower(
            plan,
            &mut workspace.lowering,
            suppliers,
            self.schema,
            strategy,
        )
        .ok()?;
        let mut pricer = Pricer::new(self, plan, &mut workspace.pricing);
        Some(f(&mut pricer, &mut workspace.fetch))
    }

    /// Lowers a prefix (see [`CostContext::with_lowered`]) and prices it
    /// with every fetch factor at 1 — the lower bound branch and bound
    /// prunes with.
    pub(crate) fn price_prefix(
        &self,
        suppliers: &SupplierMap,
        query: &Arc<ConjunctiveQuery>,
        choice: &ApChoice,
        poset: &Poset,
        atoms: impl IntoIterator<Item = usize>,
        strategy: &StrategyRule,
    ) -> Option<f64> {
        self.with_lowered(
            suppliers,
            query,
            choice,
            poset,
            atoms,
            strategy,
            |pricer, _| pricer.price_as_is(),
        )
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

impl<'a, 'c> Pricer<'a, 'c> {
    /// Prepares `plan` under `ctx` into `pricing`.
    fn new(ctx: &'a CostContext<'c>, plan: &'a mut Plan, pricing: &'a mut Pricing) -> Self {
        ctx.prepare(plan, pricing);
        Pricer { ctx, plan, pricing }
    }

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
        self.ctx
            .evaluate(&mut self.pricing.prepared, fetches)
            .out_size()
    }

    /// The cost of the vector last passed to [`Pricer::out_size`].
    pub(crate) fn cost(&mut self) -> f64 {
        self.ctx
            .price(self.plan, self.pricing.prepared.annotation_mut())
    }

    /// Estimates and prices the plan under the fetch factors it holds.
    pub(crate) fn price_as_is(&mut self) -> f64 {
        let prepared = &mut self.pricing.prepared;
        self.ctx.evaluate(prepared, &self.plan.fetches);
        self.ctx.price(self.plan, prepared.annotation_mut())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::{search, OptimizerConfig};
    use mdq_cost::metrics::{ExecutionTime, RequestResponse, SumCost};
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
}
