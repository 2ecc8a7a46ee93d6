//! The stage-materialised executor with virtual time.
//!
//! Mirrors the paper's experimental engine (§6): each plan node runs to
//! completion over its whole input before its successors start; parallel
//! branches (incomparable in the topology) overlap in time. *Virtual
//! time* is accounted per node — an invoke node's completion time is its
//! upstream's completion plus the summed latency of the service calls it
//! actually forwarded (cache hits are free); a join completes when both
//! inputs have. The plan's execution time is the Output node's
//! completion — the "total time" bars of Fig. 11, deterministic and
//! independent of the host machine.
//!
//! [`run`] is a thin driver over the one compile path: it runs the pull
//! executor in *stage mode*, which forces every invoke node to
//! exhaustion in node order, drains the answers and reads the virtual
//! time off the per-node statistics (`virtual_time`, a pure
//! function). Under [`StageModel::ParallelDispatch`] it is the §6
//! multithreading experiment in virtual time: a stage dispatches *all*
//! its calls to parallel workers at once. Stage time collapses towards
//! the slowest single call (plus thread-management overhead), but
//! completion order is randomised — which, exactly as the paper
//! reports, largely defeats the one-call cache (284 → ~212 hotel calls
//! instead of → 16).

use crate::adaptive::ReplanEvent;
use crate::cache::CacheStats;
use crate::context::ExecContext;
use crate::gateway::{FaultStats, PartialResults};
use crate::operator::Wiring;
use crate::topk::TopKExecution;
use mdq_cost::divergence::ObservedService;
use mdq_model::schema::{Schema, ServiceId};
use mdq_model::value::Tuple;
use mdq_obs::span::OperatorStats;
use mdq_plan::dag::{NodeKind, Plan};
use mdq_services::registry::ServiceRegistry;
use std::collections::HashMap;

pub use crate::operator::ExecError;

/// Options of the stage-materialised driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecConfig {
    /// Truncate the answer list to the best `k` (calls are still made —
    /// the stage-materialised engine does not halt early; see
    /// [`crate::topk`] for the pulling executor that does).
    pub k: Option<usize>,
    /// How a stage's busy time is derived from its forwarded calls.
    pub stage: StageModel,
}

/// The outcome of executing a plan. With a re-planner in the context,
/// calls, cache, fault and partial-results accounting span the whole
/// execution, splices included; answers, the virtual time and the
/// operator statistics describe the final plan's pass.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Answers projected on the query head, in emission (rank) order.
    pub answers: Vec<Tuple>,
    /// The Output node's virtual completion time, seconds.
    pub virtual_time: f64,
    /// Request-responses forwarded to each service during this run.
    pub calls: HashMap<ServiceId, u64>,
    /// Client-cache statistics per service.
    pub cache_stats: HashMap<ServiceId, CacheStats>,
    /// Per-node runtime statistics (EXPLAIN ANALYZE's observed side),
    /// indexed like `plan.nodes`.
    pub operator_stats: Vec<OperatorStats>,
    /// Fault accounting per service (empty with healthy services).
    pub fault_stats: HashMap<ServiceId, FaultStats>,
    /// `Some` when at least one service degraded: the answers are valid
    /// but possibly incomplete, and this names the degraded services.
    pub partial: Option<PartialResults>,
    /// Re-plans performed (0 without a re-planner, or when the
    /// estimates held up).
    pub replans: u32,
    /// One entry per performed re-plan.
    pub events: Vec<ReplanEvent>,
    /// The plan that produced the answers (identical to the input plan
    /// when `replans == 0`).
    pub final_plan: Plan,
    /// The execution's final per-service observations — feed to
    /// [`refresh_profiles`](mdq_cost::divergence::refresh_profiles) to
    /// seed the schema for later queries (or to explain the final plan
    /// under the statistics that were actually observed).
    pub observed: HashMap<ServiceId, ObservedService>,
}

impl ExecReport {
    /// Calls forwarded to `id` (0 when the service was never invoked).
    pub fn calls_to(&self, id: ServiceId) -> u64 {
        self.calls.get(&id).copied().unwrap_or(0)
    }

    /// Retries issued against `id` during this run.
    pub fn retries_to(&self, id: ServiceId) -> u64 {
        self.fault_stats.get(&id).map(|s| s.retries).unwrap_or(0)
    }

    /// Whether the run completed with every service healthy.
    pub fn is_complete(&self) -> bool {
        self.partial.is_none()
    }
}

/// How a stage's busy time is derived from its forwarded-call latencies.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StageModel {
    /// One call at a time: busy = summed latency (the paper's
    /// experimental engine).
    #[default]
    Sequential,
    /// All of a stage's calls dispatched to parallel workers at once
    /// (§6's multithreading test). Virtual stage time:
    /// `max(slowest call, total latency / threads) + overhead · inputs`;
    /// input order is shuffled per stage to model racy completions.
    ParallelDispatch {
        /// Worker threads available per stage.
        threads: usize,
        /// Virtual seconds of thread-management overhead per input
        /// (the paper attributes a sizeable share of its 76 s to this).
        spawn_overhead: f64,
        /// Seed for the completion-order shuffle.
        shuffle_seed: u64,
    },
}

/// The Output node's virtual completion time: per node in order, the
/// latest completion among its inputs plus its busy time — for an
/// invoke node, under `stage`, from its [`OperatorStats`]'
/// `input_seconds`, `slowest_input` and `rows_in` (the input count);
/// nothing for every other node.
pub(crate) fn virtual_time(plan: &Plan, stats: &[OperatorStats], stage: StageModel) -> f64 {
    let mut completion = vec![0.0; plan.nodes.len()];
    for (i, (node, s)) in plan.nodes.iter().zip(stats).enumerate() {
        let busy = match stage {
            _ if !matches!(node.kind, NodeKind::Invoke { .. }) => 0.0,
            StageModel::Sequential => s.input_seconds,
            StageModel::ParallelDispatch {
                threads,
                spawn_overhead,
                ..
            } => {
                s.slowest_input.max(s.input_seconds / threads.max(1) as f64)
                    + spawn_overhead * s.rows_in as f64
            }
        };
        let start = node
            .inputs
            .iter()
            .map(|inp| completion[inp.0])
            .fold(0.0, f64::max);
        completion[i] = start + busy;
    }
    completion[plan.output_node().0]
}

/// Executes `plan` stage by stage — the paper's experimental engine —
/// keeping the best `config.k` answers and accounting virtual time
/// under `config.stage`. `ctx` names the gateway state, call budget,
/// tenant and optionally a re-planner: with one, every invoke stage but
/// the last is a suspension point, and a splice recompiles the new plan
/// over the *same* gateway, so the executed prefix replays from the
/// page cache. A stage that poisons the execution ends the run.
pub fn run(
    plan: &Plan,
    schema: &Schema,
    registry: &ServiceRegistry,
    config: &ExecConfig,
    ctx: ExecContext<'_>,
) -> Result<ExecReport, ExecError> {
    let (config, batch) = (*config, ctx.batch.max(1));
    let mut exec = TopKExecution::compile(
        plan,
        schema,
        registry,
        ctx,
        Wiring::Stages { config, batch },
    )?;
    if let Some(err) = exec.error() {
        return Err(err);
    }
    let answers = exec.drain();
    let final_plan = exec.spliced_plan().unwrap_or(plan).clone();
    let operator_stats = exec.operator_stats(&final_plan);
    let (ledger, partial) = (exec.ledger(), exec.partial_results());
    let (replans, events) = exec.into_replans();
    Ok(ExecReport {
        answers,
        virtual_time: virtual_time(&final_plan, &operator_stats, config.stage),
        calls: ledger.calls().clone(),
        cache_stats: registry
            .ids()
            .map(|id| (id, ledger.cache_stats(id)))
            .collect(),
        fault_stats: ledger.faults().clone(),
        partial,
        operator_stats,
        replans,
        events,
        final_plan,
        observed: ledger.observed().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSetting;
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::Poset;
    use mdq_services::domains::travel::{travel_world, TravelWorld};
    use std::sync::Arc;

    fn plan_over(world: &TravelWorld, precedences: &[(usize, usize)]) -> Plan {
        build_plan(
            Arc::new(world.query.clone()),
            &world.schema,
            ApChoice(vec![0, 0, 0, 0]),
            Poset::from_pairs(4, precedences).expect("valid"),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds")
    }

    fn plan_o(world: &TravelWorld) -> Plan {
        plan_over(
            world,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_WEATHER, ATOM_HOTEL),
            ],
        )
    }

    fn plan_s(world: &TravelWorld) -> Plan {
        plan_over(
            world,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_FLIGHT, ATOM_HOTEL),
            ],
        )
    }

    const PARALLEL: ExecConfig = ExecConfig {
        k: None,
        stage: StageModel::ParallelDispatch {
            threads: 16,
            spawn_overhead: 0.05,
            shuffle_seed: 1,
        },
    };

    #[test]
    fn plan_o_call_counts_match_fig11_no_cache() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let report = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::NoCache),
        )
        .expect("executes");
        assert_eq!(report.calls_to(w.ids.conf), 1);
        assert_eq!(report.calls_to(w.ids.weather), 71);
        assert_eq!(report.calls_to(w.ids.flight), 16);
        assert_eq!(report.calls_to(w.ids.hotel), 16);
        assert!(!report.answers.is_empty());
    }

    #[test]
    fn plan_o_optimal_cache_counts() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let report = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::Optimal),
        )
        .expect("executes");
        assert_eq!(report.calls_to(w.ids.weather), 54);
        assert_eq!(report.calls_to(w.ids.flight), 11);
        assert_eq!(report.calls_to(w.ids.hotel), 11);
    }

    #[test]
    fn answers_satisfy_all_predicates() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let report = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes");
        // head: Conf City HPrice FPrice Start StartTime End EndTime Hotel
        for a in &report.answers {
            let h = a.get(2).as_f64().expect("HPrice");
            let f = a.get(3).as_f64().expect("FPrice");
            assert!(f + h < 2000.0, "price predicate enforced: {a}");
        }
    }

    #[test]
    fn k_truncates_answers() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let full = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes");
        let topk = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig {
                k: Some(10),
                ..ExecConfig::default()
            },
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("executes");
        assert_eq!(topk.answers.len(), 10.min(full.answers.len()));
        assert_eq!(&full.answers[..topk.answers.len()], &topk.answers[..]);
    }

    #[test]
    fn virtual_time_parallel_branch_is_max() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let report = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::NoCache),
        )
        .expect("executes");
        // flight branch dominates hotel branch; join completion = max:
        // each service is invoked by one node, so its summed latency is
        // that node's busy time
        let busy = |id| report.observed[&id].latency;
        assert!(busy(w.ids.flight) > busy(w.ids.hotel));
        let want =
            busy(w.ids.conf) + busy(w.ids.weather) + busy(w.ids.flight).max(busy(w.ids.hotel));
        assert!(
            (report.virtual_time - want).abs() < 1e-9 * want,
            "{} vs {want}",
            report.virtual_time
        );
    }

    #[test]
    fn missing_service_is_reported() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let empty = mdq_services::registry::ServiceRegistry::new();
        let err = run(
            &plan,
            &w.schema,
            &empty,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect_err("no services registered");
        assert!(matches!(err, ExecError::MissingService(_)));
    }

    #[test]
    fn parallel_dispatch_degrades_one_call_cache() {
        // §6: with multithreading, hotel's one-call savings largely vanish
        // (284 → ~212 instead of → 15)
        let w = travel_world(2008);
        let plan = plan_s(&w);
        let seq = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("sequential");
        let par = run(
            &plan,
            &w.schema,
            &w.registry,
            &PARALLEL,
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("parallel");
        let seq_hotel = seq.calls_to(w.ids.hotel);
        let par_hotel = par.calls_to(w.ids.hotel);
        assert_eq!(seq_hotel, 15, "sequential one-call absorbs the blocks");
        assert!(
            par_hotel > 150 && par_hotel <= 284,
            "randomised order defeats the cache: {par_hotel}"
        );
        // and the parallel run is much faster in virtual time
        assert!(par.virtual_time < seq.virtual_time / 2.0);
    }

    /// Hand-built stats for `plan`: each invoke node gets
    /// `(input_seconds, slowest_input, rows_in)` from `figures`, indexed
    /// by the atom it invokes; every other node stays zero.
    fn stats_for(plan: &Plan, figures: [(f64, f64, u64); 4]) -> Vec<OperatorStats> {
        plan.nodes
            .iter()
            .map(|node| match node.kind {
                NodeKind::Invoke { atom } => {
                    let (input_seconds, slowest_input, rows_in) = figures[atom];
                    OperatorStats {
                        input_seconds,
                        slowest_input,
                        rows_in,
                        ..OperatorStats::default()
                    }
                }
                _ => OperatorStats::default(),
            })
            .collect()
    }

    /// `(input_seconds, slowest_input, rows_in)` per atom, in the atom
    /// order flight, hotel, conf, weather.
    fn figures(flight: f64, hotel: f64, conf: f64, weather: f64) -> [(f64, f64, u64); 4] {
        let mut f = [(0.0, 0.0, 0); 4];
        f[ATOM_FLIGHT] = (flight, flight, 1);
        f[ATOM_HOTEL] = (hotel, hotel, 1);
        f[ATOM_CONF] = (conf, conf, 1);
        f[ATOM_WEATHER] = (weather, weather, 1);
        f
    }

    #[test]
    fn virtual_time_of_a_chain_sums_its_stages() {
        let w = travel_world(2008);
        let plan = plan_s(&w);
        let stats = stats_for(&plan, figures(4.0, 8.0, 1.0, 2.0));
        assert_eq!(virtual_time(&plan, &stats, StageModel::Sequential), 15.0);
    }

    #[test]
    fn virtual_time_of_a_diamond_waits_for_the_slower_branch() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        assert!(plan
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Join { .. })));
        // conf → weather → {flight ∥ hotel}: the join completes with
        // whichever branch finishes last
        let hotel_last = stats_for(&plan, figures(4.0, 8.0, 1.0, 2.0));
        assert_eq!(
            virtual_time(&plan, &hotel_last, StageModel::Sequential),
            11.0
        );
        let flight_last = stats_for(&plan, figures(16.0, 8.0, 1.0, 2.0));
        assert_eq!(
            virtual_time(&plan, &flight_last, StageModel::Sequential),
            19.0
        );
    }

    #[test]
    fn parallel_dispatch_stage_time_is_the_slowest_call_or_the_spread_plus_overhead() {
        let w = travel_world(2008);
        let plan = plan_s(&w);
        // only conf forwarded: 12 s over 4 inputs, the slowest taking 5 s
        let mut f = [(0.0, 0.0, 0); 4];
        f[ATOM_CONF] = (12.0, 5.0, 4);
        let stats = stats_for(&plan, f);
        let parallel = |threads| StageModel::ParallelDispatch {
            threads,
            spawn_overhead: 0.5,
            shuffle_seed: 0,
        };
        // max(slowest, total / threads) + overhead · inputs
        assert_eq!(virtual_time(&plan, &stats, parallel(2)), 6.0 + 2.0);
        assert_eq!(virtual_time(&plan, &stats, parallel(4)), 5.0 + 2.0);
        // no threads at all is one thread
        assert_eq!(virtual_time(&plan, &stats, parallel(1)), 12.0 + 2.0);
        assert_eq!(virtual_time(&plan, &stats, parallel(0)), 12.0 + 2.0);
    }

    #[test]
    fn an_invoke_node_that_forwarded_nothing_costs_only_its_overhead() {
        let w = travel_world(2008);
        let plan = plan_s(&w);
        // weather served every one of its 3 inputs from the cache
        let mut f = figures(4.0, 8.0, 1.0, 0.0);
        f[ATOM_WEATHER] = (0.0, 0.0, 3);
        let stats = stats_for(&plan, f);
        assert_eq!(virtual_time(&plan, &stats, StageModel::Sequential), 13.0);
        let parallel = StageModel::ParallelDispatch {
            threads: 8,
            spawn_overhead: 0.25,
            shuffle_seed: 0,
        };
        // flight, hotel and conf: one input each, busy = its one call
        assert_eq!(virtual_time(&plan, &stats, parallel), 13.0 + 0.25 * 6.0);
    }

    #[test]
    fn parallel_dispatch_same_answer_set() {
        let w = travel_world(2008);
        let plan = plan_s(&w);
        let seq = run(
            &plan,
            &w.schema,
            &w.registry,
            &ExecConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("sequential");
        let par = run(
            &plan,
            &w.schema,
            &w.registry,
            &PARALLEL,
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("parallel");
        let mut a = seq.answers.clone();
        let mut b = par.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
