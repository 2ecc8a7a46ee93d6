//! Shared costing context threaded through the optimizer phases.
//!
//! Pricing a candidate is arithmetic: a built plan is analysed once
//! ([`Estimator::prepare`]) and every fetch vector tried on it is one
//! pass over the prepared nodes plus one metric evaluation
//! ([`Pricer`]). Invoke prefixes are signed only when the context
//! carries a [`SharedWorkOracle`] to show them to — standalone
//! optimization has none and is the paper's costing exactly.

use mdq_cost::estimate::{Annotation, CacheSetting, Estimator, PreparedPlan};
use mdq_cost::metrics::CostMetric;
use mdq_cost::selectivity::SelectivityModel;
use mdq_cost::shared::{discount_materialized, SharedWorkOracle};
use mdq_model::binding::{ApChoice, SupplierMap};
use mdq_model::query::ConjunctiveQuery;
use mdq_model::schema::Schema;
use mdq_plan::builder::{build_plan_with, BuildError, StrategyRule};
use mdq_plan::dag::Plan;
use mdq_plan::poset::Poset;
use std::cell::Cell;
use std::sync::Arc;

/// Exact counts of the costing work one search performed — the
/// optimizer's deterministic effort figures, tracked across PRs by the
/// `optimizer` bench next to its wall times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostingEffort {
    /// Plans (complete and prefix) lowered to operator DAGs.
    pub plans_built: usize,
    /// Plans analysed by [`Estimator::prepare`].
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

    /// Lowers a topology (or prefix) of `choice` under this context's
    /// schema; `suppliers` is the supplier map of `(query, choice)`.
    pub fn build_plan(
        &self,
        suppliers: &SupplierMap,
        query: &Arc<ConjunctiveQuery>,
        choice: &ApChoice,
        poset: Poset,
        atoms: Vec<usize>,
        strategy: &StrategyRule,
    ) -> Result<Plan, BuildError> {
        self.count(|e| e.plans_built += 1);
        build_plan_with(
            suppliers,
            Arc::clone(query),
            self.schema,
            choice.clone(),
            poset,
            atoms,
            strategy,
        )
    }

    fn prepare(&self, plan: &Plan) -> PreparedPlan {
        self.count(|e| e.plans_prepared += 1);
        Estimator::new(self.schema, self.selectivity, self.cache).prepare(plan)
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
        self.metric.cost(plan, ann, self.schema)
    }

    /// Annotates a plan under this context's estimator settings.
    pub fn annotate(&self, plan: &Plan) -> Annotation {
        let mut prepared = self.prepare(plan);
        self.evaluate(&mut prepared, &plan.fetches);
        prepared.into_annotation()
    }

    /// Annotates and prices a plan under its own fetch factors.
    pub fn cost(&self, plan: &Plan) -> (f64, Annotation) {
        let mut prepared = self.prepare(plan);
        self.evaluate(&mut prepared, &plan.fetches);
        let cost = self.price(plan, prepared.annotation_mut());
        (cost, prepared.into_annotation())
    }
}

/// One built plan prepared for pricing under many fetch vectors — phase
/// 3's unit of work. A vector is installed and estimated once
/// ([`Pricer::out_size`]); its cost, when wanted, is read off that same
/// evaluation ([`Pricer::cost`]).
pub struct Pricer<'a, 'c> {
    ctx: &'a CostContext<'c>,
    plan: &'a mut Plan,
    prepared: PreparedPlan,
}

impl<'a, 'c> Pricer<'a, 'c> {
    /// Prepares `plan` under `ctx`.
    pub fn new(ctx: &'a CostContext<'c>, plan: &'a mut Plan) -> Self {
        let prepared = ctx.prepare(plan);
        Pricer {
            ctx,
            plan,
            prepared,
        }
    }

    /// The plan being priced (its fetch factors are those of the last
    /// [`Pricer::out_size`]).
    pub fn plan(&self) -> &Plan {
        self.plan
    }

    /// The schema the plan is priced under.
    pub fn schema(&self) -> &Schema {
        self.ctx.schema
    }

    /// Installs `fetches` in the plan, estimates it and returns the
    /// estimated answer size.
    pub fn out_size(&mut self, fetches: &[u64]) -> f64 {
        self.plan.fetches.copy_from_slice(fetches);
        self.ctx.evaluate(&mut self.prepared, fetches).out_size()
    }

    /// The cost of the vector last passed to [`Pricer::out_size`].
    pub fn cost(&mut self) -> f64 {
        self.ctx.price(self.plan, self.prepared.annotation_mut())
    }

    /// The annotation behind the last [`Pricer::out_size`] (discounted
    /// once [`Pricer::cost`] ran on it).
    pub fn annotation(&self) -> &Annotation {
        self.prepared.annotation()
    }
}
