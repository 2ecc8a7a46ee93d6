//! Multi-threaded execution (§5 "multi-threading", §6's separate test).
//!
//! Two flavours, both thin drivers over the [operator
//! kernel](crate::operator):
//!
//! * [`run_parallel_dispatch`] — the §6 experiment model in virtual time:
//!   the same materialised driver as [`crate::pipeline::run`], under the
//!   parallel stage-time model — within each stage, *all* available calls
//!   are dispatched to parallel worker threads at once. Stage time
//!   collapses towards the slowest single call (plus thread-management
//!   overhead), but completion order is randomised — which, exactly as
//!   the paper reports, largely defeats the one-call cache
//!   (284 → ~212 hotel calls instead of → 16).
//!
//! * [`run_threaded`] — a real OS-thread dataflow engine: one worker per
//!   plan node connected by bounded channels, each worker driving its
//!   node's kernel operator over a channel-fed upstream, service calls
//!   shared through one thread-safe gateway, latencies slept at a
//!   configurable scale. Used to validate that the pipelined, concurrent
//!   execution produces the same answers as the deterministic executors,
//!   and that dropping the answer stream cancels upstream fetching
//!   (top-k halting).

use crate::binding::Binding;
use crate::context::ExecContext;
use crate::gateway::{FaultStats, GatewayHandle, PartialResults, SharedGateway};
use crate::operator::{derive_rows_in, Batch, ExecError, Filter, Invoke, Join, Operator, Probe};
use crate::pipeline::{run_materialised, ExecReport, StageModel};
use crate::plan_info::analyze;
use mdq_model::schema::{Schema, ServiceId};
use mdq_obs::span::OperatorStats;
use mdq_plan::dag::{NodeKind, Plan};
use mdq_services::registry::ServiceRegistry;
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;

/// Options for [`run_parallel_dispatch`].
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker threads available per stage.
    pub threads: usize,
    /// Virtual seconds of thread-management overhead per dispatched call
    /// (the paper attributes a sizeable share of its 76 s to this).
    pub spawn_overhead: f64,
    /// Seed for the completion-order shuffle.
    pub shuffle_seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 16,
            spawn_overhead: 0.05,
            shuffle_seed: 1,
        }
    }
}

/// Stage-materialised execution where every stage dispatches all its
/// calls to `threads` parallel workers. Virtual stage time:
/// `max(slowest call, total latency / threads) + overhead · dispatched`.
/// Input order is shuffled per stage to model racy completions.
pub fn run_parallel_dispatch(
    plan: &Plan,
    schema: &Schema,
    registry: &ServiceRegistry,
    config: &ParallelConfig,
    ctx: ExecContext<'_>,
) -> Result<ExecReport, ExecError> {
    run_materialised(
        plan,
        schema,
        registry,
        ctx,
        None,
        &StageModel::ParallelDispatch {
            threads: config.threads,
            spawn_overhead: config.spawn_overhead,
            shuffle_seed: config.shuffle_seed,
        },
    )
    .map(|outcome| outcome.report)
}

/// Options for the real-thread dataflow engine.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Real seconds slept per simulated second (e.g. `1e-4`: a 9.7 s
    /// flight call sleeps 0.97 ms).
    pub time_scale: f64,
    /// Bounded channel capacity between workers.
    pub channel_capacity: usize,
    /// Stop after this many answers (dropping the stream cancels
    /// upstream work).
    pub k: Option<usize>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            time_scale: 1e-5,
            channel_capacity: 64,
            k: None,
        }
    }
}

/// Result of a real-thread run.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    /// Answers projected on the head, in arrival order.
    pub answers: Vec<mdq_model::value::Tuple>,
    /// Real elapsed wall-clock seconds.
    pub elapsed: f64,
    /// Request-responses forwarded per service.
    pub calls: HashMap<ServiceId, u64>,
    /// Fault accounting per service (empty with healthy services).
    pub fault_stats: HashMap<ServiceId, FaultStats>,
    /// `Some` when at least one service degraded during the run.
    pub partial: Option<PartialResults>,
    /// Per-node runtime statistics (EXPLAIN ANALYZE's observed side),
    /// indexed like `plan.nodes`.
    pub operator_stats: Vec<OperatorStats>,
}

impl ThreadedReport {
    /// Retries issued against `id` during this run.
    pub fn retries_to(&self, id: ServiceId) -> u64 {
        self.fault_stats.get(&id).map(|s| s.retries).unwrap_or(0)
    }
}

struct ChannelStream {
    rx: mpsc::Receiver<Binding>,
}

impl Operator for ChannelStream {
    fn next_binding(&mut self) -> Option<Binding> {
        self.rx.recv().ok()
    }
}

/// A producer-side edge: bounded towards streaming consumers (so top-k
/// cancellation back-pressures upstream fetching), unbounded towards
/// join consumers. A join must be able to buffer one side while the
/// other lags — with bounded edges, a fan-out ancestor feeding both
/// sides of a join deadlocks as soon as the join drains one side far
/// ahead of the other (nested-loop joins materialise a whole side
/// first). The buffering is bounded by the stream size, which the
/// stage-materialised engine holds in memory anyway.
enum EdgeSender {
    Bounded(mpsc::SyncSender<Binding>),
    Unbounded(mpsc::Sender<Binding>),
}

impl EdgeSender {
    fn send(&self, b: Binding) -> Result<(), ()> {
        match self {
            EdgeSender::Bounded(tx) => tx.send(b).map_err(|_| ()),
            EdgeSender::Unbounded(tx) => tx.send(b).map_err(|_| ()),
        }
    }
}

/// Runs `plan` with one OS thread per node, bounded channels between
/// them, and service latencies slept at `time_scale`. One gateway built
/// from `ctx` is shared by every worker behind a mutex; each worker
/// pulls up to `ctx.batch` bindings per kernel call before forwarding
/// them downstream. The dataflow has no suspension point, so
/// `ctx.adaptive` is not consulted.
pub fn run_threaded(
    plan: &Plan,
    schema: &Schema,
    registry: &ServiceRegistry,
    config: &ThreadedConfig,
    ctx: ExecContext<'_>,
) -> Result<ThreadedReport, ExecError> {
    let batch = ctx.batch.max(1);
    let gateway = SharedGateway::new(ctx.gateway(plan, schema, registry)?);
    let info = Arc::new(analyze(plan, schema));
    let n = plan.nodes.len();

    // one sender per (producer, consumer) edge; build consumer-side recvs
    let mut senders: Vec<Vec<EdgeSender>> = (0..n).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<mpsc::Receiver<Binding>>> = (0..n).map(|_| Vec::new()).collect();
    for (i, node) in plan.nodes.iter().enumerate() {
        let into_join = matches!(node.kind, NodeKind::Join { .. });
        for inp in &node.inputs {
            let (tx, rx) = if into_join {
                let (tx, rx) = mpsc::channel::<Binding>();
                (EdgeSender::Unbounded(tx), rx)
            } else {
                let (tx, rx) = mpsc::sync_channel::<Binding>(config.channel_capacity.max(1));
                (EdgeSender::Bounded(tx), rx)
            };
            senders[inp.0].push(tx);
            receivers[i].push(rx);
        }
    }
    let (answer_tx, answer_rx) = mpsc::sync_channel::<Binding>(config.channel_capacity.max(1));
    senders[plan.output_node().0].push(EdgeSender::Bounded(answer_tx));

    let started = std::time::Instant::now();
    let answers = std::thread::scope(|scope| {
        for i in 0..n {
            let node = plan.nodes[i].clone();
            let my_senders = std::mem::take(&mut senders[i]);
            let mut my_receivers = std::mem::take(&mut receivers[i]);
            let info = Arc::clone(&info);
            let gateway = gateway.clone();
            let query = Arc::clone(&plan.query);
            let plan_ref = &*plan;
            let schema_ref = schema;
            let time_scale = config.time_scale;
            scope.spawn(move || {
                let send_all = |b: Binding| -> bool {
                    for tx in &my_senders {
                        if tx.send(b.clone()).is_err() {
                            return false; // downstream hung up: cancel
                        }
                    }
                    true
                };
                let forward = |op: &mut dyn Operator| {
                    let mut buf = Batch::new();
                    loop {
                        let got = op.next_batch(batch, &mut buf);
                        for b in buf.drain(..) {
                            if !send_all(b) {
                                return;
                            }
                        }
                        if got < batch {
                            return;
                        }
                    }
                };
                match &node.kind {
                    NodeKind::Input => {
                        gateway.with(|g| g.record_node_output(i, 1, 0));
                        send_all(Binding::empty(query.var_count()));
                    }
                    NodeKind::Output => {
                        let rx = my_receivers.pop().expect("output has one input");
                        let mut stream = Probe::new(
                            Filter::for_node(plan_ref, &info, i, ChannelStream { rx }),
                            gateway.clone(),
                            i,
                        );
                        forward(&mut stream);
                    }
                    NodeKind::Invoke { .. } => {
                        let rx = my_receivers.pop().expect("invoke has one input");
                        let invoke = Invoke::for_node(
                            plan_ref,
                            schema_ref,
                            &info,
                            i,
                            ChannelStream { rx },
                            gateway.clone(),
                            false,
                            time_scale,
                        );
                        let mut stream = Probe::new(
                            Filter::for_node(plan_ref, &info, i, invoke),
                            gateway.clone(),
                            i,
                        );
                        forward(&mut stream);
                    }
                    NodeKind::Join { strategy, on, .. } => {
                        let right_rx = my_receivers.pop().expect("join right");
                        let left_rx = my_receivers.pop().expect("join left");
                        let joined = Join::new(
                            ChannelStream { rx: left_rx },
                            ChannelStream { rx: right_rx },
                            strategy,
                            on.clone(),
                        );
                        let mut stream = Probe::new(
                            Filter::for_node(plan_ref, &info, i, joined),
                            gateway.clone(),
                            i,
                        );
                        forward(&mut stream);
                    }
                }
                // dropping my_senders closes downstream channels
            });
        }

        // collect answers on the scope's main thread; dropping
        // answer_rx at the k-th one cancels the pipeline
        let answers: Vec<_> = answer_rx
            .iter()
            .take(config.k.unwrap_or(usize::MAX))
            .map(|b| b.project_head(&plan.query))
            .collect();
        drop(answer_rx);
        answers
    });
    let elapsed = started.elapsed().as_secs_f64();
    let (ledger, error, partial, mut operator_stats) = gateway.with(|g| {
        (
            g.ledger(),
            g.take_error(),
            g.partial_results(),
            g.node_stats().to_vec(),
        )
    });
    derive_rows_in(plan, &mut operator_stats);
    if let Some(err) = error {
        return Err(err);
    }
    Ok(ThreadedReport {
        answers,
        elapsed,
        calls: ledger.calls().clone(),
        fault_stats: ledger.faults().clone(),
        partial,
        operator_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheSetting;
    use crate::pipeline::{run, ExecConfig};
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::Poset;
    use mdq_services::domains::travel::travel_world;

    fn plan_s(world: &mdq_services::domains::travel::TravelWorld) -> Plan {
        let poset = Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_FLIGHT, ATOM_HOTEL),
            ],
        )
        .expect("valid");
        build_plan(
            Arc::new(world.query.clone()),
            &world.schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds")
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
            &ExecConfig { k: None },
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("sequential");
        let par = run_parallel_dispatch(
            &plan,
            &w.schema,
            &w.registry,
            &ParallelConfig::default(),
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
        let par = run_parallel_dispatch(
            &plan,
            &w.schema,
            &w.registry,
            &ParallelConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect("parallel");
        let mut a = seq.answers.clone();
        let mut b = par.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn real_threads_match_sequential_answers() {
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
        let thr = run_threaded(
            &plan,
            &w.schema,
            &w.registry,
            &ThreadedConfig {
                time_scale: 0.0,
                channel_capacity: 8,
                k: None,
            },
            ExecContext::private(CacheSetting::NoCache),
        )
        .expect("threads");
        let mut a = seq.answers.clone();
        let mut b = thr.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn real_threads_topk_halts_early() {
        let w = travel_world(2008);
        let plan = plan_s(&w);
        let thr = run_threaded(
            &plan,
            &w.schema,
            &w.registry,
            &ThreadedConfig {
                time_scale: 0.0,
                channel_capacity: 4,
                k: Some(5),
            },
            ExecContext::private(CacheSetting::NoCache),
        )
        .expect("threads");
        assert_eq!(thr.answers.len(), 5);
        let total: u64 = thr.calls.values().sum();
        // the full no-cache run makes 1 + 71 + 16 + 284 = 372 calls;
        // halting after 5 answers must cut that substantially
        assert!(total < 372, "early halt saved calls: {total}");
    }

    #[test]
    fn missing_service_fails_before_spawning() {
        let w = travel_world(2008);
        let plan = plan_s(&w);
        let empty = ServiceRegistry::new();
        let err = run_threaded(
            &plan,
            &w.schema,
            &empty,
            &ThreadedConfig::default(),
            ExecContext::private(CacheSetting::OneCall),
        )
        .expect_err("no services registered");
        assert!(matches!(err, ExecError::MissingService(_)));
    }
}
