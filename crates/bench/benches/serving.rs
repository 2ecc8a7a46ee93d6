//! Serving-edge benches: the TCP wire protocol and the tenant-fair
//! admission path, measured against in-process submission of the same
//! workload — what the network front door costs on top of the
//! [`QueryServer`], and what frame encode/decode costs on its own.
//!
//! Emits `BENCH_serving.json` at the workspace root, and fails when a
//! connection costs more than a relational band allows: 16 queries on
//! 16 connections may take at most 25× the same 16 on one connection.
//! Both sides run on the same machine in the same minute, so the band
//! needs no calibration; a timer on the accept path (25 ms per
//! connection made it 482×) breaks it, a slow runner does not. A second
//! relational gauge, one connection against in-process submission of
//! the same 16 queries, is printed and recorded but holds no threshold.
//!
//! The warm op — the end-to-end benchmark's `warm_repeat` query: a
//! travel template whose plan is cached and whose pages are resident —
//! is also taken apart layer by layer, with the heap allocations of
//! each stage (parse, fingerprint, execution start, five pulls, five
//! answer frames) and of the whole op submitted in process, counted by
//! this target's global allocator. CI holds those gauges `at-most`.
//!
//! The pressure op is the benchmark's `cache_pressure` query in
//! process: a planned travel template asking k = 20 under a budget no
//! 20 trips fit, over a 32-entry page cache the 16 templates' working set
//! overflows, so every op evicts, misses and forwards through the
//! gateway's miss path. Single-threaded, the evictions and the calls are
//! the same run to run; its allocations per op are a gauge CI holds
//! `at-most` too.

use mdq_bench::harness::{allocated, count_allocations, Bench, CountingAlloc};
use mdq_core::Mdq;
use mdq_cost::metrics::ExecutionTime;
use mdq_exec::gateway::SharedServiceState;
use mdq_exec::topk::TopKExecution;
use mdq_exec::ExecContext;
use mdq_model::fingerprint::fingerprint;
use mdq_model::value::Tuple;
use mdq_optimizer::bnb::OptimizerConfig;
use mdq_runtime::net::{ClientFrame, NetClient, NetServer, ServerFrame};
use mdq_runtime::{QueryOutcome, QueryServer, RuntimeConfig, TenantPolicy, DEFAULT_TENANT};
use mdq_services::domains::news::news_world;
use mdq_services::domains::travel::travel_world;
use mdq_services::domains::World;
use std::hint::black_box;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const QUERY: &str = "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                     lowcost('Milano', City, Price), Price <= 60.0.";
const N: usize = 16;
/// How many times the one-connection wall time `N` connections may
/// cost (measured: under 10×).
const CONNECTION_BAND: u128 = 25;

/// One `warm_repeat` template: the running example with a budget every
/// answer of the top 5 fits under.
const WARM_QUERY: &str = "q(Conf, City, HPrice, FPrice, Hotel) :- \
     flight('Milano', City, Start, End, ST, ET, FPrice), \
     hotel(Hotel, City, 'luxury', Start, End, HPrice), \
     conf('DB', Conf, Start, End, City), \
     weather(City, Temp, Start), \
     Start >= '2007/3/14', End <= '2007/3/14' + 180, \
     Temp >= 28, FPrice + HPrice < 1000.5.";
const WARM_K: u64 = 5;
/// In-process warm ops whose allocation counts the median is taken over.
const WARM_OPS: usize = 1000;

/// Answers a pressure op asks for, and its page-cache bound in
/// invocation keys (the benchmark's `cache_pressure` settings).
const PRESSURE_K: u64 = 20;
const PRESSURE_ENTRIES: usize = 32;
/// The pressure templates: two temperature thresholds × eight budgets.
const PRESSURE_TEMPLATES: usize = 16;

/// The `i`-th pressure template: `WARM_QUERY` with a budget below the
/// 20th cheapest trip, so each op pulls the whole frontier.
fn pressure_query(i: usize) -> String {
    let (temp, budget) = (28 + i % 2, 505.5 + 10.0 * (i / 2) as f64);
    WARM_QUERY
        .replace("Temp >= 28", &format!("Temp >= {temp}"))
        .replace("1000.5", &format!("{budget:?}"))
}

fn travel_engine() -> Mdq {
    let w = travel_world(2008);
    Mdq::from_world(World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    })
}

/// Appends one `ANSWER` frame for `tuple` to `out`.
fn render(out: &mut String, tuple: &Tuple) {
    ServerFrame::encode_answer(out, tuple);
    out.push('\n');
}

/// The warm op, stage by stage, single-threaded over a shared state
/// configured as `QueryServer` configures its own: wall times, and the
/// heap allocations of each stage (exact run to run).
fn warm_op_stages(bench: &Bench) {
    let engine = travel_engine();
    let config = RuntimeConfig::default();
    let shared = Arc::new(
        SharedServiceState::new(config.cache, config.per_service_concurrency)
            .with_retry(config.retry)
            .with_page_capacity(config.page_cache_entries)
            .with_sub_results(config.sub_results),
    );
    let query = engine.parse(WARM_QUERY).expect("the warm template parses");
    let plan = engine
        .optimize(
            query.clone(),
            &ExecutionTime,
            OptimizerConfig {
                k: WARM_K,
                cache: config.cache,
                ..OptimizerConfig::default()
            },
        )
        .expect("the warm template optimizes")
        .candidate
        .plan;
    let start = || {
        TopKExecution::start(
            &plan,
            engine.schema(),
            engine.registry(),
            ExecContext {
                budget: config.call_budget,
                tenant: Some(DEFAULT_TENANT),
                ..ExecContext::shared(Arc::clone(&shared))
            },
        )
        .expect("the cached plan starts")
    };
    let pull = |exec: &mut TopKExecution, answers: &mut Vec<Tuple>| {
        answers.extend((0..WARM_K).map_while(|_| exec.next_answer()));
    };
    // page everything the op touches in
    let mut answers = Vec::with_capacity(WARM_K as usize);
    pull(&mut start(), &mut answers);
    assert_eq!(answers.len(), WARM_K as usize, "the warm op fills k");

    bench.measure("serving/warm-op/parse", || engine.parse(WARM_QUERY));
    bench.measure("serving/warm-op/fingerprint", || fingerprint(&query));
    bench.measure("serving/warm-op/start", start);
    bench.measure("serving/warm-op/start-pull-5", || {
        let mut answers = Vec::with_capacity(WARM_K as usize);
        pull(&mut start(), &mut answers);
        answers
    });
    let mut frames = String::with_capacity(4096);
    bench.measure("serving/warm-op/render-5", || {
        frames.clear();
        for t in &answers {
            render(&mut frames, t);
        }
        frames.len()
    });

    let gauge = |stage: &str, allocations: u64| {
        bench.gauge(
            &format!("serving/warm-op/{stage}/allocations"),
            allocations,
            "allocations",
        )
    };
    let (parsed, n, _) = count_allocations(|| engine.parse(WARM_QUERY));
    gauge("parse", n);
    let parsed = parsed.expect("the warm template parses");
    let (_, n, _) = count_allocations(|| fingerprint(&parsed));
    gauge("fingerprint", n);
    let (mut exec, n, _) = count_allocations(start);
    gauge("start", n);
    let mut pulled = Vec::with_capacity(WARM_K as usize);
    let (_, n, _) = count_allocations(|| pull(&mut exec, &mut pulled));
    gauge("pull-5", n);
    frames.clear();
    let (_, n, _) = count_allocations(|| {
        for t in &pulled {
            render(&mut frames, t);
        }
    });
    gauge("render-5", n);
}

/// The whole warm op through `QueryServer::submit().collect()`: the
/// median, over [`WARM_OPS`] ops, of the allocations (every thread's)
/// and bytes one op makes.
fn warm_op_in_process(bench: &Bench) {
    let server = QueryServer::new(travel_engine(), RuntimeConfig::default());
    let run = || {
        let result = server
            .submit(WARM_QUERY, Some(WARM_K))
            .collect()
            .expect("the warm op runs");
        assert_eq!(result.answers.len(), WARM_K as usize);
        result
    };
    run();
    bench.measure("serving/warm-op/in-process", run);
    let (mut counts, mut bytes): (Vec<u64>, Vec<u64>) = (0..WARM_OPS)
        .map(|_| {
            let before = allocated();
            black_box(run());
            let after = allocated();
            (after.0 - before.0, after.1 - before.1)
        })
        .unzip();
    counts.sort_unstable();
    bytes.sort_unstable();
    bench.gauge(
        "serving/warm-op/in-process/allocations",
        counts[WARM_OPS / 2],
        "allocations",
    );
    bench.gauge(
        "serving/warm-op/in-process/alloc-bytes",
        bytes[WARM_OPS / 2],
        "bytes",
    );
}

/// The pressure op, single-threaded over a shared state configured as
/// `QueryServer` configures its own but with a 32-entry page cache:
/// its wall time over the 16 templates in turn, and the allocations of
/// one such cycle per op, after a cycle that filled the cache.
fn pressure_op(bench: &Bench) {
    let engine = travel_engine();
    let config = RuntimeConfig::default();
    let shared = Arc::new(
        SharedServiceState::new(config.cache, config.per_service_concurrency)
            .with_retry(config.retry)
            .with_page_capacity(PRESSURE_ENTRIES)
            .with_sub_results(config.sub_results),
    );
    let plans: Vec<_> = (0..PRESSURE_TEMPLATES)
        .map(|i| {
            let query = engine.parse(&pressure_query(i)).expect("parses");
            let config = OptimizerConfig {
                k: PRESSURE_K,
                cache: config.cache,
                ..OptimizerConfig::default()
            };
            let best = engine.optimize(query, &ExecutionTime, config);
            best.expect("optimizes").candidate.plan
        })
        .collect();
    let op = |i: usize| {
        let mut exec = TopKExecution::start(
            &plans[i % PRESSURE_TEMPLATES],
            engine.schema(),
            engine.registry(),
            ExecContext {
                budget: config.call_budget,
                tenant: Some(DEFAULT_TENANT),
                ..ExecContext::shared(Arc::clone(&shared))
            },
        )
        .expect("the plan starts");
        (0..PRESSURE_K).map_while(|_| exec.next_answer()).count()
    };
    for i in 0..PRESSURE_TEMPLATES {
        op(i);
    }
    let calls = shared.total_calls();
    let (_, allocations, _) = count_allocations(|| (0..PRESSURE_TEMPLATES).map(op).sum::<usize>());
    let calls = (shared.total_calls() - calls) / PRESSURE_TEMPLATES as u64;
    assert!(calls > 0, "every pressure op forwards calls");
    bench.gauge(
        "serving/pressure-op/allocations",
        allocations / PRESSURE_TEMPLATES as u64,
        "allocations",
    );
    bench.gauge("serving/pressure-op/calls", calls, "calls");
    let mut next = 0;
    bench.measure("serving/pressure-op/in-process", || {
        next += 1;
        op(next)
    });
}

/// Drains `n` queries through one TCP connection; answers counted.
fn drive_tcp(client: &mut NetClient, n: usize) -> usize {
    (0..n)
        .map(|_| match client.query(QUERY, Some(5)).expect("serves") {
            QueryOutcome::Done { answers, .. } => answers.len(),
            other => panic!("unexpected outcome: {other:?}"),
        })
        .sum()
}

/// Drains `n` queries submitted in-process, concurrently.
fn drive_local(server: &QueryServer, n: usize) -> usize {
    let sessions: Vec<_> = (0..n).map(|_| server.submit(QUERY, Some(5))).collect();
    sessions
        .into_iter()
        .map(|s| s.collect().expect("runs").answers.len())
        .sum()
}

fn main() {
    let bench = Bench::from_args();

    warm_op_stages(&bench);
    warm_op_in_process(&bench);
    pressure_op(&bench);

    // the in-process baseline: same warm server, no wire
    let local = QueryServer::from_world(news_world(), RuntimeConfig::default());
    drive_local(&local, N);
    bench.measure(&format!("serving/{N}-queries/in-process"), || {
        drive_local(&local, N)
    });

    // one connection, N queries end to end over loopback TCP (frame
    // encode + kernel round trips + session streaming)
    let server = Arc::new(QueryServer::from_world(
        news_world(),
        RuntimeConfig::default(),
    ));
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds");
    let mut warm = NetClient::connect(net.addr()).expect("connects");
    drive_tcp(&mut warm, N);
    bench.measure(&format!("serving/{N}-queries/tcp/one-connection"), || {
        drive_tcp(&mut warm, N)
    });

    // N connections, one query each: connection setup + HELLO dominates
    bench.measure(
        &format!("serving/{N}-queries/tcp/one-per-connection"),
        || {
            (0..N)
                .map(|_| {
                    let mut c = NetClient::connect(net.addr()).expect("connects");
                    let served = drive_tcp(&mut c, 1);
                    c.quit().expect("clean close");
                    served
                })
                .sum::<usize>()
        },
    );

    // the tenant-scoped path: handshake + per-tenant scheduling queue
    server.register_tenant("bench", TenantPolicy::default());
    let mut tenant = NetClient::connect(net.addr()).expect("connects");
    tenant.tenant("bench").expect("handshake");
    drive_tcp(&mut tenant, N);
    bench.measure(&format!("serving/{N}-queries/tcp/tenant-scoped"), || {
        drive_tcp(&mut tenant, N)
    });

    // pure frame codec cost, no sockets: a QUERY line in, the DONE
    // line out, round-tripped through encode/parse
    let query_line = ClientFrame::Query {
        k: Some(5),
        text: QUERY.to_string(),
    }
    .encode();
    let done_line = ServerFrame::Done {
        answers: 5,
        calls: 7,
        wall_ms: 3,
        partial: false,
    }
    .encode();
    bench.measure("serving/frame-codec/roundtrip", || {
        let q = ClientFrame::parse(&query_line).expect("parses");
        let d = ServerFrame::parse(&done_line).expect("parses");
        (q.encode().len(), d.encode().len())
    });

    drop(warm);
    drop(tenant);
    net.shutdown();

    let mean = |case: &str| bench.mean_ns(&format!("serving/{N}-queries/{case}"));
    let band = mean("tcp/one-per-connection").zip(mean("tcp/one-connection"));
    if let Some((churned, held)) = band {
        bench.gauge(
            &format!("serving/{N}-queries/tcp/per-connection-vs-one-x100"),
            (churned * 100 / held.max(1)) as u64,
            "ratio",
        );
    }
    // what the wire costs on top of the server: reported, never gated —
    // the ratio moves with the machine (2.5x and 6.6x on record)
    if let Some((held, local)) = mean("tcp/one-connection").zip(mean("in-process")) {
        bench.gauge(
            &format!("serving/{N}-queries/tcp/one-connection-vs-in-process-x100"),
            (held * 100 / local.max(1)) as u64,
            "ratio",
        );
    }
    bench.write_json("serving");
    if let Some((churned, held)) = band {
        if churned > CONNECTION_BAND * held {
            eprintln!(
                "one query per connection costs {churned} ns per {N}, over {CONNECTION_BAND}x \
                 the {held} ns of one connection: something waits on the connection path"
            );
            std::process::exit(1);
        }
    }
}
