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
//! This module is a thin *driver* over the [operator
//! kernel](crate::operator): per node it drains one operator into a
//! materialised stream and reads the invoke operator's forwarded
//! latencies for the time accounting. The same driver, under
//! [`StageModel::ParallelDispatch`], implements the §6 multithreading
//! experiment in virtual time: within each stage, *all* available calls
//! are dispatched to parallel workers at once. Stage time collapses
//! towards the slowest single call (plus thread-management overhead),
//! but completion order is randomised — which, exactly as the paper
//! reports, largely defeats the one-call cache (284 → ~212 hotel calls
//! instead of → 16).

use crate::adaptive::{Controller, ReplanEvent};
use crate::binding::Binding;
use crate::cache::CacheStats;
use crate::context::ExecContext;
use crate::gateway::{FaultStats, LocalGateway, PartialResults};
use crate::operator::{derive_rows_in, drain_all, Filter, Invoke, Join, Probe, Select, Source};
use crate::plan_info::analyze;
use mdq_cost::divergence::ObservedService;
use mdq_model::rng::Rng;
use mdq_model::schema::{Schema, ServiceId};
use mdq_model::value::Tuple;
use mdq_obs::span::OperatorStats;
use mdq_plan::dag::{NodeKind, Plan};
use mdq_services::registry::ServiceRegistry;
use std::borrow::Cow;
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

/// Per-node execution trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeTrace {
    /// Summed latency of the calls this node forwarded (0 for joins).
    pub busy: f64,
    /// Virtual completion time.
    pub completion: f64,
    /// Tuples received.
    pub in_tuples: usize,
    /// Tuples emitted.
    pub out_tuples: usize,
}

/// The outcome of executing a plan. With a re-planner in the context,
/// calls, cache, fault and partial-results accounting span the whole
/// execution, splices included; answers, bindings, the node trace and
/// the operator statistics describe the final plan's pass.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Answers projected on the query head, in emission (rank) order.
    pub answers: Vec<Tuple>,
    /// Full bindings (for downstream composition / resumption).
    pub bindings: Vec<Binding>,
    /// The Output node's virtual completion time, seconds.
    pub virtual_time: f64,
    /// Request-responses forwarded to each service during this run.
    pub calls: HashMap<ServiceId, u64>,
    /// Client-cache statistics per service.
    pub cache_stats: HashMap<ServiceId, CacheStats>,
    /// Per-node trace, indexed like `plan.nodes`.
    pub node_trace: Vec<NodeTrace>,
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

/// Deterministic shuffle: the workspace PRNG seeded per (run, node).
fn shuffle<T>(items: &mut [T], seed: u64) {
    Rng::new(seed).shuffle(items);
}

/// Executes `plan` against the registered services, stage by stage:
/// the paper's experimental engine. Drains one kernel operator per plan
/// node, in node order, accounting stage time under `config.stage`.
/// `ctx` names the gateway state (a private cache setting or a
/// cross-query shared state), the call budget and tenant, and
/// optionally a re-planner: with one, every completed invoke stage but
/// the last is a suspension point, and a splice restarts the loop under
/// the new plan over the *same* gateway, so the executed prefix replays
/// from the page cache.
pub fn run(
    plan: &Plan,
    schema: &Schema,
    registry: &ServiceRegistry,
    config: &ExecConfig,
    ctx: ExecContext<'_>,
) -> Result<ExecReport, ExecError> {
    let ExecConfig { k, stage } = *config;
    let batch = ctx.batch.max(1);
    let gateway = LocalGateway::new(ctx.gateway(plan, schema, registry)?);
    let mut ctl = ctx.adaptive.map(Controller::new);
    let mut plan = Cow::Borrowed(plan);
    let (mut streams, trace) = 'restart: loop {
        let info = analyze(&plan, schema);
        let n = plan.nodes.len();
        let total_invokes = plan
            .nodes
            .iter()
            .filter(|nd| matches!(nd.kind, NodeKind::Invoke { .. }))
            .count();
        let mut streams: Vec<Vec<Binding>> = vec![Vec::new(); n];
        let mut trace = vec![NodeTrace::default(); n];
        let mut executed: Vec<usize> = Vec::new();

        for i in 0..n {
            let node = &plan.nodes[i];
            match &node.kind {
                NodeKind::Input => {
                    streams[i] = vec![Binding::empty(plan.query.var_count())];
                    gateway.with(|g| g.record_node_output(i, 1, 0, 0));
                    trace[i] = NodeTrace {
                        busy: 0.0,
                        completion: 0.0,
                        in_tuples: 0,
                        out_tuples: 1,
                    };
                }
                NodeKind::Invoke { atom } => {
                    let up = node.inputs[0].0;
                    let mut inputs = streams[up].clone();
                    if let StageModel::ParallelDispatch { shuffle_seed, .. } = stage {
                        shuffle(&mut inputs, shuffle_seed ^ ((i as u64) << 7));
                    }
                    let in_tuples = inputs.len();
                    let mut invoke = Invoke::for_node(
                        &plan,
                        schema,
                        &info,
                        i,
                        Source(inputs.into_iter()),
                        gateway.clone(),
                        false,
                    );
                    let out: Vec<Binding> =
                        drain_all(Probe::new(&mut invoke, gateway.clone(), i), batch);
                    if let Some(err) = gateway.with(|g| g.take_error()) {
                        return Err(err);
                    }
                    let busy = match stage {
                        StageModel::Sequential => invoke.busy(),
                        StageModel::ParallelDispatch {
                            threads,
                            spawn_overhead,
                            ..
                        } => {
                            let lats = invoke.input_latencies();
                            let total = invoke.busy();
                            let slowest = lats.iter().copied().fold(0.0, f64::max);
                            slowest.max(total / threads.max(1) as f64)
                                + spawn_overhead * in_tuples as f64
                        }
                    };
                    trace[i] = NodeTrace {
                        busy,
                        completion: trace[up].completion + busy,
                        in_tuples,
                        out_tuples: out.len(),
                    };
                    streams[i] = out;
                    executed.push(*atom);
                    // suspension point: the stage is complete, no call
                    // is in flight — safe to splice a new suffix in
                    if executed.len() < total_invokes {
                        if let Some(new_plan) = ctl
                            .as_mut()
                            .and_then(|c| c.consider(&plan, schema, &executed, &gateway))
                        {
                            // per-node statistics describe the plan
                            // that finishes — node indices change
                            // across splices, so the new pass starts
                            // clean (like `node_trace`; calls, cache
                            // and fault accounting still span the
                            // whole execution)
                            gateway.with(|g| g.reset_node_stats(new_plan.nodes.len()));
                            plan = Cow::Owned(new_plan);
                            continue 'restart;
                        }
                    }
                }
                NodeKind::Join {
                    left,
                    right,
                    strategy,
                    on,
                } => {
                    let (l, r) = (left.0, right.0);
                    let joined: Vec<Binding> = drain_all(
                        Probe::new(
                            Join::new(
                                Source(streams[l].iter().cloned()),
                                Source(streams[r].iter().cloned()),
                                strategy,
                                on.clone(),
                                info.predicates_at(&plan, i),
                            ),
                            gateway.clone(),
                            i,
                        ),
                        batch,
                    );
                    trace[i] = NodeTrace {
                        busy: 0.0,
                        completion: trace[l].completion.max(trace[r].completion),
                        in_tuples: streams[l].len() + streams[r].len(),
                        out_tuples: joined.len(),
                    };
                    streams[i] = joined;
                }
                NodeKind::Output => {
                    let up = node.inputs[0].0;
                    let filtered =
                        Filter::for_node(&plan, &info, i, Source(streams[up].iter().cloned()));
                    let out: Vec<Binding> = match k {
                        Some(k) => drain_all(
                            Probe::new(Select::new(filtered, k), gateway.clone(), i),
                            batch,
                        ),
                        None => drain_all(Probe::new(filtered, gateway.clone(), i), batch),
                    };
                    trace[i] = NodeTrace {
                        busy: 0.0,
                        completion: trace[up].completion,
                        in_tuples: streams[up].len(),
                        out_tuples: out.len(),
                    };
                    streams[i] = out;
                }
            }
        }
        break (streams, trace);
    };

    let out_idx = plan.output_node().0;
    let bindings = std::mem::take(&mut streams[out_idx]);
    let answers = bindings
        .iter()
        .map(|b| b.project_head(&plan.query))
        .collect();
    let (ledger, partial, mut operator_stats) =
        gateway.with(|g| (g.ledger(), g.partial_results(), g.node_stats().to_vec()));
    derive_rows_in(&plan, &mut operator_stats);
    let (replans, events) = ctl.map(|c| (c.replans, c.events)).unwrap_or_default();
    Ok(ExecReport {
        answers,
        bindings,
        virtual_time: trace[out_idx].completion,
        calls: ledger.calls().clone(),
        cache_stats: registry
            .ids()
            .map(|id| (id, ledger.cache_stats(id)))
            .collect(),
        node_trace: trace,
        fault_stats: ledger.faults().clone(),
        partial,
        operator_stats,
        replans,
        events,
        final_plan: plan.into_owned(),
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
        // flight branch dominates hotel branch; join completion = max
        let flight_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Invoke { atom } if atom == ATOM_FLIGHT))
            .expect("flight");
        let hotel_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Invoke { atom } if atom == ATOM_HOTEL))
            .expect("hotel");
        let join_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Join { .. }))
            .expect("join");
        let t = &report.node_trace;
        assert!(t[flight_node].completion > t[hotel_node].completion);
        assert!(
            (t[join_node].completion - t[flight_node].completion.max(t[hotel_node].completion))
                .abs()
                < 1e-9
        );
        assert!((report.virtual_time - t[join_node].completion).abs() < 1e-9);
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
