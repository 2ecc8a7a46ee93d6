//! # mdq-core — the high-level multi-domain query API
//!
//! One-stop facade over the full pipeline of *Braga et al., VLDB 2008*:
//! register services → parse a datalog-like query → optimize with
//! three-phase branch and bound → execute with logical caching and
//! rank-preserving joins.
//!
//! ```
//! use mdq_core::Mdq;
//! use mdq_services::domains::news::news_world;
//!
//! let engine = Mdq::from_world(news_world());
//! let outcome = engine
//!     .run(
//!         "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
//!          lowcost('Milano', City, Price), Price <= 60.0.",
//!         5,
//!     )
//!     .expect("runs");
//! assert!(!outcome.answers().is_empty());
//! println!("{}", outcome.table(10));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mdq_cost::divergence::{refresh_profiles, AdaptiveConfig, ObservedService};
use mdq_cost::estimate::CacheSetting;
use mdq_cost::metrics::{CostMetric, ExecutionTime};
use mdq_cost::selectivity::SelectivityModel;
use mdq_cost::shared::SharedWorkOracle;
use mdq_exec::adaptive::{ReplanRequest, Replanner};
use mdq_exec::pipeline::{ExecConfig, ExecError, ExecReport};
use mdq_exec::topk::TopKExecution;
use mdq_exec::ExecContext;
use mdq_model::parser::ParseError;
use mdq_model::query::{ConjunctiveQuery, QueryError};
use mdq_model::schema::{Schema, ServiceId};
use mdq_model::template::{QueryTemplate, TemplateError};
use mdq_model::value::Tuple;
use mdq_optimizer::bnb::{OptimizeError, Optimized, OptimizerConfig};
use mdq_optimizer::context::CostContext;
use mdq_optimizer::expansion::{expand_for_executability, Expansion, ExpansionError};
use mdq_plan::builder::StrategyRule;
use mdq_plan::dag::Plan;
use mdq_services::domains::World;
use mdq_services::registry::ServiceRegistry;
use std::fmt;
use std::sync::Arc;

/// Unified error type for the facade.
#[derive(Debug)]
pub enum MdqError {
    /// Query text did not parse.
    Parse(ParseError),
    /// Query failed validation (safety, arity, domains).
    Query(QueryError),
    /// No executable plan exists / optimization failed.
    Optimize(OptimizeError),
    /// Off-query expansion could not make the query executable (§7).
    Expansion(ExpansionError),
    /// Template placeholder handling failed (§2.2 query templates).
    Template(TemplateError),
    /// Execution failed.
    Exec(ExecError),
}

impl fmt::Display for MdqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MdqError::Parse(e) => write!(f, "{e}"),
            MdqError::Query(e) => write!(f, "{e}"),
            MdqError::Optimize(e) => write!(f, "{e}"),
            MdqError::Expansion(e) => write!(f, "{e}"),
            MdqError::Template(e) => write!(f, "{e}"),
            MdqError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MdqError {}

impl From<ParseError> for MdqError {
    fn from(e: ParseError) -> Self {
        MdqError::Parse(e)
    }
}
impl From<QueryError> for MdqError {
    fn from(e: QueryError) -> Self {
        MdqError::Query(e)
    }
}
impl From<OptimizeError> for MdqError {
    fn from(e: OptimizeError) -> Self {
        MdqError::Optimize(e)
    }
}
impl From<ExpansionError> for MdqError {
    fn from(e: ExpansionError) -> Self {
        MdqError::Expansion(e)
    }
}
impl From<TemplateError> for MdqError {
    fn from(e: TemplateError) -> Self {
        MdqError::Template(e)
    }
}
impl From<ExecError> for MdqError {
    fn from(e: ExecError) -> Self {
        MdqError::Exec(e)
    }
}

/// The multi-domain query engine: schema + runtime services + policies.
pub struct Mdq {
    schema: Schema,
    registry: ServiceRegistry,
    selectivity: SelectivityModel,
    strategy: StrategyRule,
}

impl Mdq {
    /// An engine over an empty schema (register services through
    /// [`Mdq::schema_mut`] / [`Mdq::registry_mut`]).
    pub fn new() -> Self {
        Mdq {
            schema: Schema::new(),
            registry: ServiceRegistry::new(),
            selectivity: SelectivityModel::default(),
            strategy: StrategyRule::default(),
        }
    }

    /// Adopts a ready-made simulated [`World`].
    pub fn from_world(world: World) -> Self {
        Mdq {
            schema: world.schema,
            registry: world.registry,
            selectivity: SelectivityModel::default(),
            strategy: StrategyRule::default(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access (service registration / profile updates).
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// The runtime service registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// Mutable registry access.
    pub fn registry_mut(&mut self) -> &mut ServiceRegistry {
        &mut self.registry
    }

    /// Overrides predicate-selectivity defaults.
    pub fn set_selectivity(&mut self, model: SelectivityModel) {
        self.selectivity = model;
    }

    /// Parses and validates a query.
    pub fn parse(&self, text: &str) -> Result<ConjunctiveQuery, MdqError> {
        let q = mdq_model::parser::parse_query(text, &self.schema)?;
        q.validate(&self.schema)?;
        Ok(q)
    }

    /// Optimizes a query under `metric` with the given config (the
    /// engine's strategy rule and selectivity model are injected).
    pub fn optimize(
        &self,
        query: ConjunctiveQuery,
        metric: &dyn CostMetric,
        config: OptimizerConfig,
    ) -> Result<Optimized, MdqError> {
        Ok(mdq_optimizer::bnb::optimize(
            Arc::new(query),
            &self.schema,
            metric,
            &self.injected(config),
        )?)
    }

    /// [`Mdq::optimize`] with a [`SharedWorkOracle`]: candidate plans
    /// are priced with already-materialized invoke prefixes discounted,
    /// so the search prefers plans that start with work the serving
    /// layer has paid for. The serving layer passes its shared gateway
    /// state (whose sub-result store implements the oracle) or the
    /// admission batcher's combined view of a batch being planned.
    pub fn optimize_shared(
        &self,
        query: ConjunctiveQuery,
        metric: &dyn CostMetric,
        config: OptimizerConfig,
        oracle: &dyn SharedWorkOracle,
    ) -> Result<Optimized, MdqError> {
        Ok(mdq_optimizer::bnb::optimize_shared(
            Arc::new(query),
            &self.schema,
            metric,
            &self.injected(config),
            oracle,
        )?)
    }

    /// `config` with the engine's selectivity model and strategy rule.
    fn injected(&self, mut config: OptimizerConfig) -> OptimizerConfig {
        config.selectivity = self.selectivity;
        config.strategy = self.strategy.clone();
        config
    }

    /// Executes a plan with the stage-materialised engine.
    pub fn execute(
        &self,
        plan: &Plan,
        config: &ExecConfig,
        ctx: ExecContext<'_>,
    ) -> Result<ExecReport, MdqError> {
        Ok(mdq_exec::pipeline::run(
            plan,
            &self.schema,
            &self.registry,
            config,
            ctx,
        )?)
    }

    /// Starts a pull-based top-k execution (§2.2 continuation).
    pub fn pull<'a>(
        &'a self,
        plan: &Plan,
        ctx: ExecContext<'a>,
    ) -> Result<TopKExecution<'a>, MdqError> {
        Ok(TopKExecution::start(
            plan,
            &self.schema,
            &self.registry,
            ctx,
        )?)
    }

    /// The one-stop entry point: parse → validate → optimize for the
    /// first `k` answers under the execution-time metric with a one-call
    /// cache (the paper's default scenario) → execute → return answers.
    pub fn run(&self, text: &str, k: u64) -> Result<RunOutcome, MdqError> {
        let query = self.parse(text)?;
        let optimized = self.optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k,
                cache: CacheSetting::OneCall,
                ..OptimizerConfig::default()
            },
        )?;
        let report = self.execute(
            &optimized.candidate.plan,
            &ExecConfig {
                k: Some(k as usize),
                ..ExecConfig::default()
            },
            ExecContext::private(CacheSetting::OneCall),
        )?;
        Ok(RunOutcome { optimized, report })
    }

    /// Attempts off-query expansion (§7) on an unexecutable query:
    /// appends up to `budget` schema services whose outputs seed the
    /// blocked input variables (matched by abstract domain). Returns a
    /// trivial expansion when the query is already executable.
    pub fn expand(&self, query: &ConjunctiveQuery, budget: usize) -> Result<Expansion, MdqError> {
        Ok(expand_for_executability(query, &self.schema, budget)?)
    }

    /// Prepares a query *template* (§2.2: "optimization is performed for
    /// each query template"): the text may contain `$name` placeholders
    /// in constant positions; `sample` provides representative values
    /// used to optimize once. The returned [`PreparedQuery`] re-executes
    /// with different keywords without re-optimizing.
    pub fn prepare(
        &self,
        text: &str,
        k: u64,
        sample: &[(&str, mdq_model::value::Value)],
    ) -> Result<PreparedQuery, MdqError> {
        let template = QueryTemplate::new(text)?;
        let query = template.instantiate(&self.schema, sample)?;
        query.validate(&self.schema)?;
        let optimized = self.optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k,
                cache: CacheSetting::OneCall,
                ..OptimizerConfig::default()
            },
        )?;
        Ok(PreparedQuery {
            template,
            choice: optimized.candidate.plan.choice.clone(),
            poset: optimized.candidate.plan.poset.clone(),
            fetches: optimized.candidate.plan.fetches.clone(),
            k,
        })
    }

    /// Executes a prepared template with fresh keyword bindings, reusing
    /// the plan chosen at preparation time (access patterns, topology
    /// and fetch factors are template-level decisions).
    pub fn run_prepared(
        &self,
        prepared: &PreparedQuery,
        bindings: &[(&str, mdq_model::value::Value)],
    ) -> Result<ExecReport, MdqError> {
        let query = prepared.template.instantiate(&self.schema, bindings)?;
        query.validate(&self.schema)?;
        let mut plan = mdq_plan::builder::build_plan(
            Arc::new(query),
            &self.schema,
            prepared.choice.clone(),
            prepared.poset.clone(),
            (0..prepared.choice.len()).collect(),
            &self.strategy,
        )
        .map_err(|_| MdqError::Optimize(OptimizeError::NotExecutable))?;
        plan.fetches.copy_from_slice(&prepared.fetches);
        self.execute(
            &plan,
            &ExecConfig {
                k: Some(prepared.k as usize),
                ..ExecConfig::default()
            },
            ExecContext::private(CacheSetting::OneCall),
        )
    }

    /// Like [`Mdq::run`], but falls back to off-query expansion when the
    /// query as written admits no permissible access-pattern sequence.
    /// The expanded query's answers are a *subset* of the original
    /// query's semantics, restricted to bindings the auxiliary services
    /// enumerate (§7's approximation).
    pub fn run_with_expansion(
        &self,
        text: &str,
        k: u64,
        budget: usize,
    ) -> Result<(RunOutcome, Expansion), MdqError> {
        let query = self.parse(text)?;
        let expansion = self.expand(&query, budget)?;
        let optimized = self.optimize(
            expansion.query.clone(),
            &ExecutionTime,
            OptimizerConfig {
                k,
                cache: CacheSetting::OneCall,
                ..OptimizerConfig::default()
            },
        )?;
        let report = self.execute(
            &optimized.candidate.plan,
            &ExecConfig {
                k: Some(k as usize),
                ..ExecConfig::default()
            },
            ExecContext::private(CacheSetting::OneCall),
        )?;
        Ok((RunOutcome { optimized, report }, expansion))
    }
}

impl Default for Mdq {
    fn default() -> Self {
        Mdq::new()
    }
}

/// The optimizer-backed [`Replanner`]: at a suspension point it clones
/// the schema, refreshes the profiles of every observed service from
/// the execution's live statistics, re-runs the three-phase search over
/// the unexecuted suffix
/// ([`reoptimize_suffix_in`](mdq_optimizer::replan::reoptimize_suffix_in)),
/// and splices the result in only when it is a *strict* improvement
/// over the running plan re-priced under the same refreshed schema —
/// a confirmed plan never churns.
pub struct OptimizerReplanner<'a> {
    schema: &'a Schema,
    metric: &'a dyn CostMetric,
    config: OptimizerConfig,
    /// Shared-work oracle consulted when pricing suffix candidates: a
    /// splice prefers plans whose invoke prefix the serving layer has
    /// already materialized. `None` = nothing shared (standalone).
    oracle: Option<Arc<dyn SharedWorkOracle + Send + Sync>>,
}

impl<'a> OptimizerReplanner<'a> {
    /// Builds a re-planner over the engine's registration-time schema.
    /// `config` should match the configuration the running plan was
    /// optimized with (same `k`, cache setting, strategy rule).
    pub fn new(schema: &'a Schema, metric: &'a dyn CostMetric, config: OptimizerConfig) -> Self {
        OptimizerReplanner {
            schema,
            metric,
            config,
            oracle: None,
        }
    }

    /// Consults `oracle` when pricing re-plan candidates, so a splice
    /// prefers suffix plans that start with already-materialized work.
    /// The serving layer passes its shared gateway state here.
    pub fn with_oracle(mut self, oracle: Arc<dyn SharedWorkOracle + Send + Sync>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Refreshes a clone of the base schema from `observed` — every
    /// service with at least one observed call.
    fn refreshed(
        &self,
        observed: &std::collections::HashMap<ServiceId, ObservedService>,
    ) -> Schema {
        let mut schema = self.schema.clone();
        refresh_profiles(&mut schema, observed, 1);
        schema
    }
}

impl Replanner for OptimizerReplanner<'_> {
    fn replan(&mut self, req: &ReplanRequest<'_>) -> Option<mdq_plan::dag::Plan> {
        let schema = self.refreshed(req.observed);
        // both plans are priced under the *refreshed* schema (and the
        // same shared-work discount, if any), so the comparison is
        // apples to apples
        let ctx = CostContext::new(
            &schema,
            &self.config.selectivity,
            self.config.cache,
            self.metric,
        );
        let ctx = match &self.oracle {
            Some(oracle) => ctx.with_oracle(oracle.as_ref()),
            None => ctx,
        };
        let redone =
            mdq_optimizer::replan::reoptimize_suffix_in(req.plan, req.executed, &ctx, &self.config)
                .ok()?;
        // splice only a strict improvement
        let (current_cost, _) = ctx.cost(req.plan);
        (redone.candidate.cost + 1e-9 < current_cost).then_some(redone.candidate.plan)
    }
}

impl Mdq {
    /// Builds the optimizer-backed re-planner for this engine's schema
    /// (selectivity model and strategy rule injected, like
    /// [`Mdq::optimize`]).
    pub fn replanner<'a>(
        &'a self,
        metric: &'a dyn CostMetric,
        mut config: OptimizerConfig,
    ) -> OptimizerReplanner<'a> {
        config.selectivity = self.selectivity;
        config.strategy = self.strategy.clone();
        OptimizerReplanner::new(&self.schema, metric, config)
    }

    /// Parse → optimize → execute *adaptively*: the stage-materialised
    /// driver with mid-flight re-optimization under `adaptive`, over a
    /// fresh memoizing shared gateway state (so a re-plan re-demands
    /// only cached pages). Uses the execution-time metric, mirroring
    /// [`Mdq::run`]; the report carries the re-plan count and events
    /// and the plan that actually produced the answers.
    pub fn run_adaptive(
        &self,
        text: &str,
        k: u64,
        adaptive: &AdaptiveConfig,
    ) -> Result<RunOutcome, MdqError> {
        let query = self.parse(text)?;
        let config = OptimizerConfig {
            k,
            cache: CacheSetting::Optimal,
            ..OptimizerConfig::default()
        };
        let optimized = self.optimize(query, &ExecutionTime, config.clone())?;
        let mut replanner = self.replanner(&ExecutionTime, config);
        let report = self.execute(
            &optimized.candidate.plan,
            &ExecConfig {
                k: Some(k as usize),
                ..ExecConfig::default()
            },
            ExecContext {
                adaptive: Some((*adaptive, &mut replanner)),
                ..ExecContext::private(CacheSetting::Optimal)
            },
        )?;
        Ok(RunOutcome { optimized, report })
    }

    /// Seeds the schema's service profiles from live gateway
    /// observations
    /// ([`SharedServiceState::observed_snapshot`](mdq_exec::gateway::SharedServiceState::observed_snapshot)),
    /// replacing a separate
    /// sampling-profiler pass: every service observed for at least
    /// `min_calls` forwarded calls gets its response time, failure rate
    /// and (for bulk services) erspi refreshed. Returns how many
    /// profiles changed.
    pub fn seed_profiles_from_observed(
        &mut self,
        observed: &std::collections::HashMap<ServiceId, ObservedService>,
        min_calls: u64,
    ) -> usize {
        refresh_profiles(&mut self.schema, observed, min_calls)
    }
}

/// A query template optimized once (per §2.2) and re-executable with
/// fresh keyword bindings.
pub struct PreparedQuery {
    template: QueryTemplate,
    choice: mdq_model::binding::ApChoice,
    poset: mdq_plan::poset::Poset,
    fetches: Vec<u64>,
    k: u64,
}

impl PreparedQuery {
    /// The placeholder names the template expects.
    pub fn placeholders(&self) -> &[String] {
        self.template.placeholders()
    }
}

/// Everything produced by [`Mdq::run`] and [`Mdq::run_adaptive`].
pub struct RunOutcome {
    /// The optimization result (plan, estimated cost, search stats).
    pub optimized: Optimized,
    /// The execution report (answers, calls, virtual time).
    pub report: ExecReport,
}

impl RunOutcome {
    /// The answers, projected on the query head, in rank order.
    pub fn answers(&self) -> &[Tuple] {
        &self.report.answers
    }

    /// The plan execution started with (`report.final_plan` is the one
    /// that finished, after any mid-flight re-plan).
    pub fn plan(&self) -> &Plan {
        &self.optimized.candidate.plan
    }

    /// The optimizer's cost estimate for the plan.
    pub fn estimated_cost(&self) -> f64 {
        self.optimized.candidate.cost
    }

    /// Simulated execution time, seconds.
    pub fn virtual_time(&self) -> f64 {
        self.report.virtual_time
    }

    /// Calls forwarded to a service during execution.
    pub fn calls_to(&self, id: ServiceId) -> u64 {
        self.report.calls_to(id)
    }

    /// Renders the answers as a Fig. 10-style table.
    pub fn table(&self, limit: usize) -> String {
        mdq_exec::results::result_table(
            &self.optimized.candidate.plan.query,
            &self.report.answers,
            limit,
        )
    }
}

/// Re-exports of the full public API, one `use` away.
pub mod prelude {
    pub use crate::{Mdq, MdqError, OptimizerReplanner, PreparedQuery, RunOutcome};
    pub use mdq_cost::prelude::*;
    pub use mdq_exec::prelude::*;
    pub use mdq_model::prelude::*;
    pub use mdq_optimizer::prelude::*;
    pub use mdq_plan::prelude::*;
    pub use mdq_services::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_services::domains::news::news_world;
    use mdq_services::domains::travel::travel_world;

    #[test]
    fn end_to_end_news() {
        let engine = Mdq::from_world(news_world());
        let out = engine
            .run(
                "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                 lowcost('Milano', City, Price), Price <= 60.0.",
                5,
            )
            .expect("runs");
        assert!(!out.answers().is_empty());
        // every answer satisfies the price predicate
        for a in out.answers() {
            assert!(a.get(2).as_f64().expect("price") <= 60.0);
        }
        let table = out.table(10);
        assert!(table.contains("City"), "{table}");
    }

    #[test]
    fn end_to_end_travel_running_example() {
        let w = travel_world(2008);
        let engine = Mdq {
            schema: w.schema,
            registry: w.registry,
            selectivity: SelectivityModel::default(),
            strategy: StrategyRule::default(),
        };
        // the full Fig. 3 query: the date-window predicates matter — they
        // are what steers the optimizer towards the conf-first plan that
        // actually yields k answers on the calibrated world
        let out = engine
            .run(
                "q(Conf, City, HPrice, FPrice, Hotel) :- \
                 flight('Milano', City, Start, End, ST, ET, FPrice), \
                 hotel(Hotel, City, 'luxury', Start, End, HPrice), \
                 conf('DB', Conf, Start, End, City), \
                 weather(City, Temp, Start), \
                 Start >= '2007/3/14', End <= '2007/3/14' + 180, \
                 Temp >= 28, FPrice + HPrice < 2000.",
                10,
            )
            .expect("runs");
        assert_eq!(out.answers().len(), 10);
        assert!(out.virtual_time() > 0.0);
        assert!(out.estimated_cost() > 0.0);
    }

    #[test]
    fn parse_errors_surface() {
        let engine = Mdq::from_world(news_world());
        assert!(matches!(
            engine.run("q(X) :- nosuch(X).", 3),
            Err(MdqError::Parse(_))
        ));
        assert!(matches!(
            engine.run("q(X, Ghost) :- events('mahler-2', X, V, D).", 3),
            Err(MdqError::Query(_))
        ));
    }

    #[test]
    fn pull_interface_via_facade() {
        let engine = Mdq::from_world(news_world());
        let query = engine
            .parse(
                "q(City, Venue) :- events('mahler-2', City, Venue, D), \
                 lowcost('Milano', City, P).",
            )
            .expect("parses");
        let optimized = engine
            .optimize(query, &ExecutionTime, OptimizerConfig::default())
            .expect("optimizes");
        let mut pull = engine
            .pull(
                &optimized.candidate.plan,
                ExecContext {
                    elastic: true,
                    ..ExecContext::private(CacheSetting::OneCall)
                },
            )
            .expect("builds");
        let first = pull.next_answer();
        assert!(first.is_some());
    }
}
