//! The traced run: per-layer numbers. End-to-end numbers are always
//! measured with this off.
//!
//! After the timed phase the workload's first generated ops are
//! replayed single-threaded through the layers' **public functions**
//! in the order `mdq_runtime::server::process` / `resolve_plan` call
//! them — `ClientFrame::parse` → `Mdq::parse` → `fingerprint` →
//! `PlanCache::get` → `Mdq::optimize` on a miss →
//! `TopKExecution::with_shared_tenant` → `next_answer` × k →
//! `ServerFrame::encode` — each inside a [`spans::span`]. The same ops
//! are then timed whole, one at a time, through
//! `QueryServer::submit().collect()` and through one `NetClient`; the
//! two residuals (`runtime.server.overhead_us`, `runtime.net.wire_us`)
//! close the budget. Counts come from the server's public counters,
//! read before and after the timed phase.

use crate::load::LoadOutcome;
use crate::manifest::Values;
use crate::spans::{self, Span};
use crate::stats::{median, ratio};
use crate::world::{engine, query_done, EngineKind, Generated, System, Workload, OPERATOR};
use mdq_core::Mdq;
use mdq_cost::estimate::Estimator;
use mdq_cost::metrics::ExecutionTime;
use mdq_cost::selectivity::SelectivityModel;
use mdq_exec::gateway::{ServiceGateway, SharedServiceState};
use mdq_exec::topk::TopKExecution;
use mdq_model::fingerprint::fingerprint;
use mdq_model::value::Value;
use mdq_optimizer::bnb::{OptimizerConfig, OptimizerStats};
use mdq_plan::builder::{build_plan, StrategyRule};
use mdq_plan::dag::Plan;
use mdq_runtime::plan_cache::PlanCache;
use mdq_runtime::{
    ClientFrame, MetricsSnapshot, NetClient, RuntimeConfig, ServerFrame, DEFAULT_TENANT,
};
use mdq_services::refresh::EpochClock;
use std::sync::Arc;
use std::time::Instant;

/// Step spans that make up the in-process op, as `process` runs them.
const STEPS: [&str; 7] = [
    "model.parse",
    "model.fingerprint",
    "runtime.plan_cache.probe",
    "optimizer.optimize",
    "runtime.plan_cache.insert",
    "exec.topk.build",
    "exec.topk.pull",
];
/// Frame codec spans: paid around the in-process op on a round trip.
const CODEC: [&str; 2] = ["runtime.net.frame_decode", "runtime.net.frame_encode"];
/// Ops per turn of the recording and the plain replay.
const REPLAY_BLOCK: usize = 50;
/// Fetches timed per side by the gateway probe.
const GATEWAY_PROBES: usize = 2000;
/// Round trips per block of the tracing-cost A/B, and blocks per side.
const TRACING_BLOCK: usize = 500;
const TRACING_BLOCKS: usize = 4;

/// The server's public counters, read around the timed phase.
pub struct Counters {
    /// `QueryServer::metrics()`.
    pub metrics: MetricsSnapshot,
    /// Registry `CallCounter`s: calls answered, simulated seconds.
    pub services: (u64, f64),
}

impl Counters {
    /// Reads the counters of a started system.
    pub fn read(system: &System) -> Counters {
        Counters {
            metrics: system.server.metrics(),
            services: crate::world::service_totals(system.server.engine()),
        }
    }
}

/// The server's request path, rebuilt from the layers' public parts:
/// an engine whose services record `services.fetch` spans, a shared
/// gateway state configured as `QueryServer::new` configures its own,
/// and a plan cache.
struct Replay {
    engine: Mdq,
    shared: Arc<SharedServiceState>,
    plans: PlanCache,
    config: RuntimeConfig,
    /// Optimizer effort of the ops that missed the plan cache.
    optimized: Vec<OptimizerStats>,
    last_plan: Option<Arc<Plan>>,
}

impl Replay {
    /// Builds the path and warms it as `System::start` warms the
    /// server: every warm template once.
    fn warmed(workload: Workload, gen: &Generated) -> Replay {
        let clock = (workload == Workload::StandingMix).then(EpochClock::new);
        let config = workload.config();
        let mut replay = Replay {
            engine: engine(gen.seed, EngineKind::Timed, clock.as_ref()),
            shared: Arc::new(
                SharedServiceState::new(config.cache, config.per_service_concurrency)
                    .with_retry(config.retry)
                    .with_page_capacity(config.page_cache_entries)
                    .with_sub_results(config.sub_results),
            ),
            plans: PlanCache::new(config.plan_cache_capacity),
            config,
            optimized: Vec::new(),
            last_plan: None,
        };
        for text in &gen.templates {
            replay.op(text, workload.k());
        }
        replay.optimized.clear();
        replay
    }

    /// One QUERY→DONE op, step by step. Returns the rendered answers.
    fn op(&mut self, text: &str, k: u64) -> Vec<String> {
        let mut missed = None;
        let answers = spans::span("op", || {
            let line = spans::span("runtime.net.frame_encode", || {
                ClientFrame::Query {
                    k: Some(k),
                    text: text.to_string(),
                }
                .encode()
            });
            let frame = spans::span("runtime.net.frame_decode", || ClientFrame::parse(&line));
            let Ok(ClientFrame::Query { k: Some(k), text }) = frame else {
                panic!("an encoded QUERY frame parses back");
            };
            let query = spans::span("model.parse", || self.engine.parse(&text))
                .expect("generated queries parse");
            let key = spans::span("model.fingerprint", || (fingerprint(&query), k));
            let cached = spans::span("runtime.plan_cache.probe", || self.plans.get(&key));
            let plan = match cached {
                Some((plan, _discounted)) => plan,
                None => {
                    let optimized = spans::span("optimizer.optimize", || {
                        self.engine.optimize(
                            query,
                            &ExecutionTime,
                            OptimizerConfig {
                                k,
                                cache: self.config.cache,
                                ..OptimizerConfig::default()
                            },
                        )
                    })
                    .expect("generated queries optimize");
                    self.optimized.push(optimized.stats);
                    let plan = Arc::new(optimized.candidate.plan);
                    spans::span("runtime.plan_cache.insert", || {
                        self.plans.insert(key, Arc::clone(&plan));
                    });
                    missed = Some(Arc::clone(&plan));
                    plan
                }
            };
            let mut exec = spans::span("exec.topk.build", || {
                TopKExecution::with_shared_tenant(
                    &plan,
                    self.engine.schema(),
                    self.engine.registry(),
                    Arc::clone(&self.shared),
                    self.config.call_budget,
                    false,
                    true,
                    Some(DEFAULT_TENANT),
                )
            })
            .expect("optimized plans execute");
            let tuples = spans::span("exec.topk.pull", || {
                let mut tuples = Vec::with_capacity(k as usize);
                while (tuples.len() as u64) < k {
                    match exec.next_answer() {
                        Some(t) => tuples.push(t),
                        None => break,
                    }
                }
                tuples
            });
            let frames = spans::span("runtime.net.frame_encode", || {
                let mut frames: Vec<String> = tuples
                    .iter()
                    .map(|t| {
                        ServerFrame::Answer {
                            tuple: t.to_string(),
                        }
                        .encode()
                    })
                    .collect();
                frames.push(
                    ServerFrame::Done {
                        answers: tuples.len() as u64,
                        calls: exec.total_calls(),
                        wall_ms: 0,
                        partial: false,
                    }
                    .encode(),
                );
                frames
            });
            self.last_plan = Some(plan);
            spans::span("runtime.net.frame_decode", || {
                frames
                    .iter()
                    .filter_map(|f| match ServerFrame::parse(f) {
                        Ok(ServerFrame::Answer { tuple }) => Some(tuple),
                        _ => None,
                    })
                    .collect()
            })
        });
        // unit costs of the two calls the optimizer makes most, on the
        // plan it chose (root spans: not part of the op's budget)
        if let Some(plan) = missed {
            let selectivity = SelectivityModel::default();
            let estimator = Estimator::new(self.engine.schema(), &selectivity, self.config.cache);
            spans::span("cost.annotate", || estimator.annotate(&plan));
            spans::span("plan.build", || {
                build_plan(
                    Arc::clone(&plan.query),
                    self.engine.schema(),
                    plan.choice.clone(),
                    plan.poset.clone(),
                    plan.atoms.clone(),
                    &StrategyRule::default(),
                )
            })
            .expect("the chosen plan rebuilds");
        }
        answers
    }
}

/// The query texts the replay and the whole-op passes run. Each pass of
/// `cold_templates` takes a range of never-seen templates of its own
/// (`pass` ≥ 1), past any index the timed phase can have reached.
fn op_texts(workload: Workload, gen: &Generated, n: usize, pass: u64) -> Vec<String> {
    (0..n)
        .map(|i| match workload {
            Workload::ColdTemplates => gen.cold_query((pass << 16) + i as u64),
            _ => gen.templates[gen.order[i % gen.order.len()]].clone(),
        })
        .collect()
}

/// Median over ops of the per-op time the picked spans sum to, µs.
fn per_op_us(spans: &[Span], own: Option<&[u64]>, pick: impl Fn(&Span) -> bool) -> f64 {
    let mut v: Vec<f64> = spans::per_op_ns(spans, own, pick)
        .into_values()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    median(&mut v)
}

fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// Times hit and miss fetches through a gateway over `shared`, ns each.
fn gateway_probe(replay: &Replay, gen: &Generated) -> (f64, f64) {
    let plan = replay.last_plan.as_ref().expect("the replay ran an op");
    let conf = replay
        .engine
        .schema()
        .service_by_name("conf")
        .expect("the travel world has conf");
    let mut gateway = ServiceGateway::with_shared(
        plan,
        replay.engine.schema(),
        replay.engine.registry(),
        Arc::clone(&replay.shared),
        None,
    )
    .expect("gateway builds");
    let hot = [Value::str("DB")];
    gateway.fetch_page(conf, 0, &hot, 0);
    let started = Instant::now();
    for _ in 0..GATEWAY_PROBES {
        std::hint::black_box(gateway.fetch_page(conf, 0, &hot, 0));
    }
    let hit_ns = elapsed_us(started) * 1e3 / GATEWAY_PROBES as f64;
    let fresh: Vec<[Value; 1]> = (0..GATEWAY_PROBES)
        .map(|i| [Value::str(format!("probe-{}-{i}", gen.seed))])
        .collect();
    let started = Instant::now();
    for key in &fresh {
        std::hint::black_box(gateway.fetch_page(conf, 0, key, 0));
    }
    let miss_ns = elapsed_us(started) * 1e3 / GATEWAY_PROBES as f64;
    (hit_ns, miss_ns)
}

/// The four passes over the same ops, taking turns a block of ops at a
/// time so that the machine's drift lands on all of them alike: the
/// replay recording spans, the replay not recording, the live server
/// in-process, and the live server over one connection.
struct Passes {
    trace: Vec<Span>,
    recorded: Replay,
    /// Per-op wall time of each pass, µs.
    whole_recorded: Vec<f64>,
    whole_plain: Vec<f64>,
    inproc: Vec<f64>,
    roundtrip: Vec<f64>,
    /// `conn_churn` only: connect + HELLO, and QUIT→BYE, µs.
    connect: Vec<f64>,
    close: Vec<f64>,
}

fn run_passes(
    workload: Workload,
    gen: &Generated,
    expected: &[Vec<String>],
    system: &System,
    ops: usize,
    failures: &mut Vec<String>,
) -> Passes {
    let k = workload.k();
    let addr = system.net.addr();
    let churn = workload == Workload::ConnChurn;
    let mut p = Passes {
        trace: Vec::new(),
        recorded: Replay::warmed(workload, gen),
        whole_recorded: Vec::with_capacity(ops),
        whole_plain: Vec::with_capacity(ops),
        inproc: Vec::with_capacity(ops),
        roundtrip: Vec::with_capacity(ops),
        connect: Vec::new(),
        close: Vec::new(),
    };
    let mut plain = Replay::warmed(workload, gen);
    let mut held = (!churn).then(|| NetClient::connect(addr).expect("loopback connects"));
    // each pass of `cold_templates` needs never-seen templates of its own
    let texts: Vec<Vec<String>> = (1..=4)
        .map(|pass| op_texts(workload, gen, ops, pass))
        .collect();
    spans::start_recording();
    for block in (0..ops).step_by(REPLAY_BLOCK) {
        let turn = block..(block + REPLAY_BLOCK).min(ops);
        for i in turn.clone() {
            spans::set_op(i as u32);
            let started = Instant::now();
            let answers = p.recorded.op(&texts[0][i], k);
            p.whole_recorded.push(elapsed_us(started));
            // the replay's services do not drift and its cache starts
            // as the server's did, so warm templates answer as the oracle
            if !matches!(workload, Workload::ColdTemplates | Workload::StandingMix)
                && answers != expected[gen.order[i % gen.order.len()]]
            {
                failures.push(format!("replayed op {i} differs from the oracle"));
            }
        }
        spans::unrecorded(|| {
            for i in turn.clone() {
                let started = Instant::now();
                std::hint::black_box(plain.op(&texts[1][i], k));
                p.whole_plain.push(elapsed_us(started));
            }
        });
        for i in turn.clone() {
            let started = Instant::now();
            if let Err(e) = system.server.submit(&texts[2][i], Some(k)).collect() {
                failures.push(format!("in-process op failed: {e}"));
            }
            p.inproc.push(elapsed_us(started));
        }
        for i in turn {
            let t0 = Instant::now();
            if churn {
                held = NetClient::connect(addr).ok();
                p.connect.push(elapsed_us(t0));
            }
            let Some(client) = held.as_mut() else {
                failures.push("loopback connect failed".to_string());
                continue;
            };
            let t1 = Instant::now();
            if let Err(e) = query_done(client, &texts[3][i], k) {
                failures.push(format!("round-trip op failed: {e}"));
            }
            p.roundtrip.push(elapsed_us(t1));
            if churn {
                let t2 = Instant::now();
                if let Some(Err(e)) = held.take().map(NetClient::quit) {
                    failures.push(format!("close failed: {e}"));
                }
                p.close.push(elapsed_us(t2));
            }
        }
    }
    p.trace = spans::finish_recording();
    if let Some(client) = held {
        let _ = client.quit();
    }
    p
}

/// What `QueryServer::enable_tracing()` costs a warm round trip:
/// alternating blocks with the server's span recorder off and on, as
/// 100 × time on / time off (100 = free).
fn tracing_cost_pct(gen: &Generated, system: &System, failures: &mut Vec<String>) -> f64 {
    let Ok(mut client) = NetClient::connect(system.net.addr()) else {
        failures.push("loopback connect failed".to_string());
        return 0.0;
    };
    let k = Workload::WarmRepeat.k();
    let mut spent = [0.0f64; 2]; // [off, on]
    for block in 0..2 * TRACING_BLOCKS {
        let on = block % 2 == 1;
        if on {
            system.server.enable_tracing();
        } else {
            system.server.shared_state().set_trace(None);
        }
        let started = Instant::now();
        for &template in gen.order.iter().take(TRACING_BLOCK) {
            if let Err(e) = query_done(&mut client, &gen.templates[template], k) {
                failures.push(format!("traced round trip failed: {e}"));
            }
        }
        spent[usize::from(on)] += elapsed_us(started);
    }
    system.server.shared_state().set_trace(None);
    let _ = client.quit();
    100.0 * ratio(spent[1], spent[0])
}

/// Measures every per-layer metric. `before`/`after` bracket the timed
/// phase `load` summarises. Failures met on the way (a query refused, a
/// replayed answer differing from the oracle's) are added to
/// `failures`.
#[allow(clippy::too_many_arguments)] // the traced run reads everything the timed run produced
pub fn measure(
    workload: Workload,
    gen: &Generated,
    expected: &[Vec<String>],
    system: &System,
    load: &LoadOutcome,
    before: &Counters,
    after: &Counters,
    replay_ops: usize,
    failures: &mut Vec<String>,
) -> (Values, Vec<Span>) {
    let mut out: Values = Vec::new();

    // ── counts at the boundaries, over the timed phase ─────────────
    // (every op the phase started also completed inside the bracket)
    let ops = load.completed as f64;
    let (m0, m1) = (&before.metrics, &after.metrics);
    let delta = |f: fn(&MetricsSnapshot) -> u64| (f(m1) - f(m0)) as f64;
    let plan_hits = delta(|m| m.plan_cache_hits);
    let plan_misses = delta(|m| m.plan_cache_misses);
    let page_hits = delta(|m| m.page_cache_hits);
    let page_misses = delta(|m| m.page_cache_misses);
    let calls = (after.services.0 - before.services.0) as f64;
    let sim_s = after.services.1 - before.services.1;
    let waited = |m: &MetricsSnapshot| -> (u64, u64) {
        let total = m.queue_wait_buckets.iter().map(|b| b.1).sum();
        (total, total - m.queue_wait_buckets[0].1)
    };
    let (jobs0, slow0) = waited(m0);
    let (jobs1, slow1) = waited(m1);
    out.push((
        "runtime.plan_cache.hit_rate",
        ratio(plan_hits, plan_hits + plan_misses),
    ));
    out.push((
        "optimizer.runs_per_op",
        ratio(delta(|m| m.optimizer_invocations), ops),
    ));
    out.push((
        "exec.cache.hit_rate",
        ratio(page_hits, page_hits + page_misses),
    ));
    out.push((
        "exec.cache.evictions_per_op",
        ratio(delta(|m| m.page_cache_evictions), ops),
    ));
    out.push(("services.calls_per_op", ratio(calls, ops)));
    out.push(("services.sim_s_per_call", ratio(sim_s, calls)));
    out.push(("services.sim_s_per_op", ratio(sim_s, ops)));
    out.push((
        "runtime.server.queue_wait_gt100us_pct",
        100.0 * ratio((slow1 - slow0) as f64, (jobs1 - jobs0) as f64),
    ));
    out.push(("runtime.net.latency_p99_us", load.raw.latency_us.p99));
    out.push(("process.cpu_us_per_op", load.at_reference.cpu_us_per_op));
    out.push(("raw.throughput_ops_s", load.raw.throughput_ops_s));
    out.push(("raw.latency_p50_us", load.raw.latency_us.p50));
    out.push(("raw.latency_p95_us", load.raw.latency_us.p95));
    out.push(("raw.cpu_us_per_op", load.raw.cpu_us_per_op));
    out.push(("bench.machine_factor", load.machine_factor));
    out.push(("runtime.subscribe.cycle_p50_ms", load.cycle_ms.p50));
    out.push(("runtime.subscribe.cycle_p95_ms", load.cycle_ms.p95));
    out.push(("runtime.subscribe.cycle_late_ms", load.cycle_late_ms.p50));

    // ── times from the traced replay and the whole-op passes ───────
    let mut p = run_passes(workload, gen, expected, system, replay_ops, failures);
    let trace = &p.trace;
    let own = spans::self_times_ns(trace);
    let named = |name: &'static str| per_op_us(trace, None, |s| s.name == name);
    let pull_self_us = per_op_us(trace, Some(&own), |s| s.name == "exec.topk.pull");
    let steps_us = per_op_us(trace, None, |s| STEPS.contains(&s.name));
    let codec_us = per_op_us(trace, None, |s| CODEC.contains(&s.name));
    let mut fetches: Vec<f64> = trace
        .iter()
        .filter(|s| s.name == "services.fetch")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    out.push(("model.parse_us", named("model.parse")));
    out.push(("model.fingerprint_us", named("model.fingerprint")));
    out.push((
        "runtime.plan_cache.probe_us",
        named("runtime.plan_cache.probe"),
    ));
    out.push(("optimizer.optimize_us", named("optimizer.optimize")));
    out.push(("cost.annotate_us", named("cost.annotate")));
    out.push(("plan.build_us", named("plan.build")));
    out.push(("exec.topk.build_us", named("exec.topk.build")));
    out.push(("exec.topk.pull_us", named("exec.topk.pull")));
    out.push(("exec.topk.self_us", pull_self_us));
    out.push((
        "runtime.net.frame_decode_us",
        named("runtime.net.frame_decode"),
    ));
    out.push((
        "runtime.net.frame_encode_us",
        named("runtime.net.frame_encode"),
    ));
    out.push(("services.fetch_us", median(&mut fetches)));
    out.push(("budget.steps_us", steps_us));

    let runs = p.recorded.optimized.len() as f64;
    let mean = |f: fn(&OptimizerStats) -> usize| {
        ratio(
            p.recorded.optimized.iter().map(f).sum::<usize>() as f64,
            runs,
        )
    };
    out.push((
        "optimizer.sequences_permissible",
        mean(|s| s.sequences_permissible),
    ));
    out.push(("optimizer.sequences_pruned", mean(|s| s.sequences_pruned)));
    out.push((
        "optimizer.topologies_complete",
        mean(|s| s.phase2.topologies_complete),
    ));
    out.push((
        "optimizer.partials_considered",
        mean(|s| s.phase2.partials_considered),
    ));
    out.push((
        "optimizer.partials_pruned",
        mean(|s| s.phase2.partials_pruned),
    ));

    let (recorded_us, plain_us) = (median(&mut p.whole_recorded), median(&mut p.whole_plain));
    let (inproc_us, roundtrip_us) = (median(&mut p.inproc), median(&mut p.roundtrip));
    out.push((
        "bench.trace_overhead_pct",
        100.0 * ratio(recorded_us - plain_us, plain_us),
    ));
    out.push(("runtime.server.inproc_us", inproc_us));
    out.push(("runtime.server.overhead_us", inproc_us - steps_us));
    out.push(("runtime.net.roundtrip_us", roundtrip_us));
    out.push(("runtime.net.wire_us", roundtrip_us - inproc_us - codec_us));
    out.push(("runtime.net.connect_us", median(&mut p.connect)));
    out.push(("runtime.net.close_us", median(&mut p.close)));
    out.push((
        "exec.topk.share_pct",
        100.0 * ratio(named("exec.topk.build") + pull_self_us, inproc_us),
    ));
    out.push((
        "budget.gap_pct",
        100.0 * ratio(roundtrip_us - steps_us - codec_us, roundtrip_us),
    ));
    // steps ≤ in-process ≤ round trip, beyond noise — else the replay
    // no longer mirrors the server's path and the split above is void
    if steps_us > inproc_us * 1.25 || inproc_us > roundtrip_us * 1.25 {
        eprintln!(
            "warning: budget out of order: steps {steps_us:.1} us, in-process {inproc_us:.1} us, \
             round trip {roundtrip_us:.1} us"
        );
    }

    let (hit_ns, miss_ns) = gateway_probe(&p.recorded, gen);
    out.push(("exec.gateway.hit_fetch_ns", hit_ns));
    out.push(("exec.gateway.miss_fetch_ns", miss_ns));

    // ── standing queries: the refresh pass and the polls, in-process ─
    // (these polls drain deltas connection A never sees, so its folded
    // answers are checked before this runs, not after)
    let (mut refresh_us, mut poll_us) = (Vec::new(), Vec::new());
    let (mut pass_calls, mut changed, mut delta_rows, mut retained) = (0u64, 0u64, 0u64, 0u64);
    if let Some(standing) = system.standing.as_ref() {
        let operator = system
            .server
            .tenant_id(OPERATOR)
            .expect("set-up registered the operator");
        for _ in 0..replay_ops {
            let t0 = Instant::now();
            let summary = system.server.refresh();
            refresh_us.push(elapsed_us(t0));
            pass_calls += summary.calls;
            changed += summary.invocations_changed;
            delta_rows += summary.rows_added + summary.rows_retracted;
            retained += summary.sub_results_retained;
            let t1 = Instant::now();
            for (id, _) in &standing.subs {
                std::hint::black_box(system.server.poll_deltas(operator, *id));
            }
            poll_us.push(elapsed_us(t1));
        }
    }
    let passes = refresh_us.len() as f64;
    out.push(("runtime.subscribe.refresh_us", median(&mut refresh_us)));
    out.push(("runtime.subscribe.poll_us", median(&mut poll_us)));
    out.push((
        "runtime.subscribe.refresh_calls_per_pass",
        ratio(pass_calls as f64, passes),
    ));
    out.push((
        "runtime.subscribe.changed_per_pass",
        ratio(changed as f64, passes),
    ));
    out.push((
        "runtime.subscribe.delta_rows_per_pass",
        ratio(delta_rows as f64, passes),
    ));
    out.push((
        "runtime.subscribe.sub_results_retained",
        ratio(retained as f64, passes),
    ));

    let tracing = if workload == Workload::WarmRepeat {
        tracing_cost_pct(gen, system, failures)
    } else {
        0.0
    };
    out.push(("obs.tracing_cost_pct", tracing));
    (out, p.trace)
}
