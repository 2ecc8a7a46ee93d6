//! Overload acceptance test for the TCP serving edge: drive far more
//! concurrent demand than the worker pool's capacity through real
//! loopback connections and check the three serving-tier promises:
//!
//! 1. **Deterministic shedding** — with both workers wedged and the
//!    admission queue full, the next query is refused *promptly* with
//!    the configured `retry-after` hint instead of queueing unboundedly;
//! 2. **Bounded admitted latency** — queries that are admitted finish
//!    (no starvation under a 10×-capacity closed-loop flood);
//! 3. **Exact accounting** — the counters in [`MetricsSnapshot`]
//!    reconcile, to the query, with what the clients observed on the
//!    wire: every submission is completed or shed, nothing double
//!    counted, nothing lost.

use mdq::model::value::Value;
use mdq::runtime::net::{NetClient, NetServer, QueryOutcome, ServerFrame};
use mdq::runtime::{QueryServer, RuntimeConfig};
use mdq::services::domains::news::news_world;
use mdq::services::domains::World;
use mdq::services::service::{Service, ServiceResponse};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const QUERY: &str = "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                     lowcost('Milano', City, Price), Price <= 60.0.";

/// Wraps a real service behind a gate: every fetch blocks until the
/// test opens it. This wedges the worker pool deterministically so the
/// admission queue fills without any sleep-based timing.
struct GatedService {
    inner: Arc<dyn Service>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Service for GatedService {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        let (open, released) = &*self.gate;
        let mut open = open.lock().unwrap();
        while !*open {
            open = released.wait(open).unwrap();
        }
        drop(open);
        self.inner.fetch(pattern, inputs, page)
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (open, released) = &**gate;
    *open.lock().unwrap() = true;
    released.notify_all();
}

/// The news world with `lowcost` behind `gate`.
fn gated_news_world(gate: &Arc<(Mutex<bool>, Condvar)>) -> World {
    let mut world = news_world();
    let id = world
        .schema
        .service_by_name("lowcost")
        .expect("news world has lowcost");
    let inner = Arc::clone(world.registry.get(id).expect("registered"));
    world.registry.register(
        id,
        GatedService {
            inner,
            gate: Arc::clone(gate),
        },
    );
    world
}

/// Issues one query, retrying on `SHED` after the server's hint until
/// it completes. Returns (shed observations, server-side wall ms).
fn query_until_done(client: &mut NetClient, sheds: &AtomicU64) -> u64 {
    loop {
        match client.query(QUERY, Some(3)).expect("wire protocol intact") {
            QueryOutcome::Done {
                answers, wall_ms, ..
            } => {
                assert!(!answers.is_empty(), "news query yields answers");
                return wall_ms;
            }
            QueryOutcome::Shed { retry_after_ms } => {
                sheds.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            QueryOutcome::Failed { reason } => panic!("query failed under load: {reason}"),
            QueryOutcome::Draining => panic!("server drained mid-test"),
        }
    }
}

#[test]
fn overload_sheds_promptly_and_counters_reconcile() {
    const WORKERS: usize = 2;
    const QUEUE: usize = 4;
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 20;
    const RETRY_AFTER: Duration = Duration::from_millis(25);

    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let world = gated_news_world(&gate);

    let server = Arc::new(QueryServer::from_world(
        world,
        RuntimeConfig {
            workers: WORKERS,
            max_queue_depth: QUEUE,
            shed_retry_after: RETRY_AFTER,
            ..RuntimeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds loopback");
    let addr = net.addr();
    let sheds = Arc::new(AtomicU64::new(0));

    // ---- phase 1: wedge the pool, fill the queue, prove the shed ----
    // The clients run in threads because a query blocks until its DONE
    // frame. First, exactly WORKERS queries: wait until both have been
    // popped and neither finished — the pool is now provably stuck in
    // the gated service, so *nothing* can drain the queue until the
    // gate opens. Only then fill the queue; without the first wait, a
    // worker could pop a filler between our depth check and the probe,
    // admitting the probe into a wedge it can never leave.
    let mut wedged: Vec<_> = (0..WORKERS)
        .map(|_| {
            let sheds = Arc::clone(&sheds);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connects");
                let wall = query_until_done(&mut client, &sheds);
                client.quit().expect("clean close");
                wall
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = server.metrics();
        if m.submitted == WORKERS as u64 && m.completed == 0 && m.queue_depth == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "workers never wedged: {} submitted, {} completed, {} queued",
            m.submitted,
            m.completed,
            m.queue_depth
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    wedged.extend((0..QUEUE).map(|_| {
        let sheds = Arc::clone(&sheds);
        std::thread::spawn(move || {
            let mut client = NetClient::connect(addr).expect("connects");
            let wall = query_until_done(&mut client, &sheds);
            client.quit().expect("clean close");
            wall
        })
    }));
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.queue_depth() < QUEUE {
        assert!(
            Instant::now() < deadline,
            "queue never filled: depth {} of {QUEUE}",
            server.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // capacity + queue exhausted: the next query must be shed promptly
    // with the configured hint, not queued behind the wedge
    let mut probe = NetClient::connect(addr).expect("connects");
    let asked = Instant::now();
    match probe.query(QUERY, Some(3)).expect("wire protocol intact") {
        QueryOutcome::Shed { retry_after_ms } => {
            sheds.fetch_add(1, Ordering::Relaxed);
            assert_eq!(retry_after_ms, RETRY_AFTER.as_millis() as u64);
        }
        other => panic!("expected a SHED frame at full queue, got {other:?}"),
    }
    assert!(
        asked.elapsed() < Duration::from_secs(5),
        "shed must not wait on the wedged workers"
    );

    open_gate(&gate);
    for t in wedged {
        t.join()
            .expect("wedged client completes after the gate opens");
    }
    // the probe retries into a drained queue and completes
    query_until_done(&mut probe, &sheds);
    probe.quit().expect("clean close");

    // ---- phase 2: closed-loop flood at ~10× worker capacity ----
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sheds = Arc::clone(&sheds);
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connects");
                client
                    .tenant(&format!("team-{}", c % 4))
                    .expect("tenant handshake");
                let mut walls = Vec::with_capacity(PER_CLIENT);
                for _ in 0..PER_CLIENT {
                    walls.push(query_until_done(&mut client, &sheds));
                }
                client.quit().expect("clean close");
                walls
            })
        })
        .collect();
    let mut walls: Vec<u64> = Vec::new();
    for t in clients {
        walls.extend(t.join().expect("client finishes its closed loop"));
    }

    // admitted queries finished with bounded server-side wall time (the
    // bound is deliberately generous: this asserts no starvation, not a
    // latency SLO)
    walls.sort_unstable();
    let p99 = walls[walls.len() * 99 / 100 - 1];
    assert!(p99 < 30_000, "p99 admitted wall time unbounded: {p99}ms");

    // ---- exact reconciliation: wire observations == counters ----
    let observed_done = (WORKERS + QUEUE + CLIENTS * PER_CLIENT + 1) as u64;
    let observed_shed = sheds.load(Ordering::Relaxed);
    let m = server.metrics();
    assert_eq!(
        m.completed, observed_done,
        "every DONE frame is counted once"
    );
    assert_eq!(m.submitted, m.completed, "every admission completed");
    assert_eq!(m.failed, 0, "no query failed");
    assert_eq!(m.worker_panics, 0, "no worker died");
    assert_eq!(
        m.rejected, observed_shed,
        "every SHED frame is counted once"
    );
    assert_eq!(m.shed_total(), m.rejected, "sheds reconcile by cause");
    assert_eq!(m.shed_tenant_budget, 0, "no budgets configured");
    assert!(
        m.rejected >= 1,
        "the full-queue probe shed at least one query"
    );
    assert_eq!(m.queue_depth, 0, "the queue drained");
    assert!(
        m.peak_queue_depth >= QUEUE as u64,
        "the wedge filled the queue"
    );
    assert_eq!(
        m.tenants.iter().map(|t| t.submitted).sum::<u64>(),
        m.submitted,
        "per-tenant submissions sum to the global counter"
    );
    assert_eq!(
        m.tenants.iter().map(|t| t.completed).sum::<u64>(),
        m.completed,
        "per-tenant completions sum to the global counter"
    );
    for t in m.tenants.iter().filter(|t| t.name.starts_with("team-")) {
        assert_eq!(
            t.completed,
            (CLIENTS / 4 * PER_CLIENT) as u64,
            "tenant {} completed its share",
            t.name
        );
    }
    assert!(
        m.connections >= (WORKERS + QUEUE + CLIENTS + 1) as u64,
        "every client connection was counted"
    );

    // graceful drain: no open connections survive shutdown
    net.shutdown();
    assert_eq!(net.open_connections(), 0, "drain closed every connection");
}

#[test]
fn drain_lets_an_in_flight_query_finish_before_the_notice() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let server = Arc::new(QueryServer::from_world(
        gated_news_world(&gate),
        RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds loopback");
    let addr = net.addr();

    // one query on the wire, wedged in the gated service
    let mut stream = TcpStream::connect(addr).expect("connects");
    let mut frames = BufReader::new(stream.try_clone().expect("clones")).lines();
    let mut next_frame = move || {
        let line = frames.next().expect("server still talking").expect("reads");
        ServerFrame::parse(&line).expect("a server frame")
    };
    assert!(matches!(next_frame(), ServerFrame::Hello { .. }));
    stream
        .write_all(format!("QUERY k=3 {QUERY}\n").as_bytes())
        .expect("sends");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().submitted != 1 || server.queue_depth() != 0 {
        assert!(
            Instant::now() < deadline,
            "the query never reached a worker"
        );
        std::thread::yield_now();
    }

    // the drain starts while the query is wedged; it is provably under
    // way once the listener stops greeting
    let drainer = std::thread::spawn(move || net.shutdown());
    while NetClient::connect(addr).is_ok() {
        assert!(Instant::now() < deadline, "the listener never closed");
        std::thread::yield_now();
    }
    assert_eq!(
        server.metrics().completed,
        0,
        "the query is still in flight"
    );
    open_gate(&gate);

    // the whole answer stream first, the drain notice after it
    let mut answers = 0;
    let done = loop {
        match next_frame() {
            ServerFrame::Answer { .. } => answers += 1,
            other => break other,
        }
    };
    match done {
        ServerFrame::Done {
            answers: n,
            partial,
            ..
        } => {
            assert_eq!(n, answers, "DONE counts the streamed answers");
            assert!(answers > 0 && !partial, "the query ran to completion");
        }
        other => panic!("expected DONE after the answers, got {other:?}"),
    }
    assert_eq!(next_frame(), ServerFrame::Draining);
    assert_eq!(next_frame(), ServerFrame::Bye);
    drainer.join().expect("drain completes");
    assert_eq!(server.metrics().completed, 1);
}
