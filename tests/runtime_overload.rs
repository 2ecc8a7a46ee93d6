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

use mdq::model::schema::AccessPattern;
use mdq::model::value::{Date, Tuple, Value};
use mdq::runtime::net::{
    NetClient, NetServer, QueryOutcome, ServerFrame, MAX_TENANT_NAME_BYTES, MAX_WIRE_TENANTS,
};
use mdq::runtime::{QueryServer, RuntimeConfig, TenantPolicy};
use mdq::services::domains::news::news_world;
use mdq::services::domains::travel::travel_world;
use mdq::services::domains::World;
use mdq::services::refresh::{refreshing_registry, EpochClock, RefreshConfig, RefreshPolicy};
use mdq::services::service::{LatencyModel, Service, ServiceResponse};
use mdq::services::synthetic::SyntheticSource;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const QUERY: &str = "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                     lowcost('Milano', City, Price), Price <= 60.0.";

/// A gate in front of a service: lets a fixed number of fetches pass,
/// then blocks every further one until the test opens it.
struct Gate {
    state: Mutex<GateState>,
    released: Condvar,
}

struct GateState {
    open: bool,
    passes: u64,
}

impl Gate {
    /// A gate that blocks every fetch after the first `passes`.
    fn passing(passes: u64) -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(GateState {
                open: false,
                passes,
            }),
            released: Condvar::new(),
        })
    }

    fn open(&self) {
        self.state.lock().unwrap().open = true;
        self.released.notify_all();
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        while !state.open && state.passes == 0 {
            state = self.released.wait(state).unwrap();
        }
        state.passes = state.passes.saturating_sub(1);
    }
}

/// Opens the gate when dropped. Declared after the server the gate
/// wedges, it turns a failed assertion into a failed test: unwinding
/// opens the gate first, so the server's drain-on-drop can finish.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// Wraps a real service behind a [`Gate`]. This wedges the worker pool
/// deterministically, so the admission queue fills — or a query stops
/// between two answers — without any sleep-based timing.
struct GatedService {
    inner: Arc<dyn Service>,
    gate: Arc<Gate>,
}

impl Service for GatedService {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        self.gate.pass();
        self.inner.fetch(pattern, inputs, page)
    }
}

/// The news world with `lowcost` behind `gate`.
fn gated_news_world(gate: &Arc<Gate>) -> World {
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

/// A hand-driven `mdq/1` connection with the greeting consumed. The
/// read timeout is a failure detector only: a frame that never comes
/// fails the test instead of hanging it.
struct RawClient {
    stream: TcpStream,
    frames: Lines<BufReader<TcpStream>>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("sets the timeout");
        let frames = BufReader::new(stream.try_clone().expect("clones")).lines();
        let mut client = RawClient { stream, frames };
        assert!(matches!(client.next_frame(), ServerFrame::Hello { .. }));
        client
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("sends");
    }

    fn next_frame(&mut self) -> ServerFrame {
        let line = self
            .frames
            .next()
            .expect("server still talking")
            .expect("a frame within the timeout");
        ServerFrame::parse(&line).expect("a server frame")
    }
}

/// Spins (yielding, never sleeping) until `ready`, for at most 10 s.
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
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

    let gate = Gate::passing(0);
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

    gate.open();
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
    let gate = Gate::passing(0);
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
    let mut client = RawClient::connect(addr);
    client.send(&format!("QUERY k=3 {QUERY}"));
    wait_until("the query never reached a worker", || {
        server.metrics().submitted == 1 && server.queue_depth() == 0
    });

    // the drain starts while the query is wedged; it is provably under
    // way once the listener stops greeting
    let drainer = std::thread::spawn(move || net.shutdown());
    wait_until("the listener never closed", || {
        NetClient::connect(addr).is_err()
    });
    assert_eq!(
        server.metrics().completed,
        0,
        "the query is still in flight"
    );
    gate.open();

    // the whole answer stream first, the drain notice after it
    let mut answers = 0;
    let done = loop {
        match client.next_frame() {
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
    assert_eq!(client.next_frame(), ServerFrame::Draining);
    assert_eq!(client.next_frame(), ServerFrame::Bye);
    drainer.join().expect("drain completes");
    assert_eq!(server.metrics().completed, 1);
}

#[test]
fn an_answer_is_on_the_wire_while_the_next_one_is_still_being_fetched() {
    // one event per city with a flight, so every answer sits behind a
    // `lowcost` fetch of its own; the gate lets the first one through
    let gate = Gate::passing(1);
    let mut world = gated_news_world(&gate);
    let cities = ["vienna", "london", "paris"];
    let events = world.schema.service_by_name("events").expect("events");
    world.registry.register(
        events,
        SyntheticSource::new(
            "events",
            vec![AccessPattern::parse("iooo").expect("parses")],
            cities
                .iter()
                .map(|city| {
                    Tuple::new(vec![
                        Value::str("mahler-2"),
                        Value::str(city),
                        Value::str(format!("{city}-hall")),
                        Value::Date(Date::from_ymd(2008, 4, 5)),
                    ])
                })
                .collect(),
            Some(4),
            LatencyModel::fixed(1.8),
        ),
    );
    let server = Arc::new(QueryServer::from_world(
        world,
        RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds loopback");
    let _unwedge = OpenOnDrop(Arc::clone(&gate));

    let mut client = RawClient::connect(net.addr());
    client.send(
        "QUERY k=3 q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
         lowcost('Milano', City, Price).",
    );
    // answer #1 is readable although the query cannot get any further:
    // the fetch behind answer #2 is held at the gate
    let city_of = |frame: ServerFrame| match frame {
        ServerFrame::Answer { tuple } => cities
            .iter()
            .position(|city| tuple.contains(city))
            .unwrap_or_else(|| panic!("an answer names its city: {tuple}")),
        other => panic!("expected ANSWER, got {other:?}"),
    };
    assert_eq!(city_of(client.next_frame()), 0);
    assert_eq!(
        server.metrics().completed,
        0,
        "the query is still in flight"
    );
    gate.open();
    // the rest of the stream, in rank order
    assert_eq!(city_of(client.next_frame()), 1);
    assert_eq!(city_of(client.next_frame()), 2);
    match client.next_frame() {
        ServerFrame::Done { answers, calls, .. } => {
            assert_eq!(answers, 3);
            assert_eq!(calls, 4, "one events page, one lowcost fetch per answer");
        }
        other => panic!("expected DONE, got {other:?}"),
    }
    net.shutdown();
}

#[test]
fn a_client_that_asks_and_leaves_costs_the_server_nothing_lasting() {
    let gate = Gate::passing(0);
    let server = Arc::new(QueryServer::from_world(
        gated_news_world(&gate),
        RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
    ));
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds loopback");
    let _unwedge = OpenOnDrop(Arc::clone(&gate));

    let mut client = RawClient::connect(net.addr());
    client.send(&format!("QUERY k=3 {QUERY}"));
    wait_until("the query never reached a worker", || {
        server.metrics().submitted == 1 && server.queue_depth() == 0
    });
    // gone before the first answer exists
    drop(client);
    gate.open();

    // the handler finds nobody to write to, or nothing more to read,
    // and ends; the query ends completed or cancelled, never lost
    wait_until("the handler outlived its client", || {
        net.open_connections() == 0
    });
    wait_until("the query was never accounted for", || {
        let m = server.metrics();
        m.submitted == m.completed + m.failed
    });
    assert_eq!(server.metrics().worker_panics, 0);
    // and the server serves the next client
    let mut next = NetClient::connect(net.addr()).expect("connects");
    match next.query(QUERY, Some(3)).expect("wire protocol intact") {
        QueryOutcome::Done { answers, .. } => assert_eq!(answers.len(), 3),
        other => panic!("expected Done, got {other:?}"),
    }
    next.quit().expect("clean close");
    net.shutdown();
}

/// `TENANT` self-registration is bounded in name length and in count:
/// past either bound the frame is refused, nothing is registered, and
/// the connection goes on as the tenant it was.
#[test]
fn a_flood_of_tenant_names_stops_growing_the_server() {
    let server = Arc::new(QueryServer::from_world(
        news_world(),
        RuntimeConfig::default(),
    ));
    // the operator's own registrations are outside the wire bounds
    let long_lived = "o".repeat(MAX_TENANT_NAME_BYTES + 1);
    let ops = server.register_tenant(&long_lived, TenantPolicy::default());
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds loopback");
    let mut client = RawClient::connect(net.addr());
    let mut handshake = |name: &str| {
        client.send(&format!("TENANT {name}"));
        client.next_frame()
    };

    let too_long = "x".repeat(MAX_TENANT_NAME_BYTES + 1);
    assert!(matches!(handshake(&too_long), ServerFrame::Err { .. }));
    assert_eq!(server.tenant_id(&too_long), None);
    assert_eq!(handshake(&long_lived), ServerFrame::Ok { tenant: ops });

    let registered = |server: &QueryServer| server.metrics().tenants.len();
    let before = registered(&server);
    for i in 0..MAX_WIRE_TENANTS {
        let frame = handshake(&format!("flood-{i}"));
        assert!(matches!(frame, ServerFrame::Ok { .. }), "{i}: {frame:?}");
    }
    assert_eq!(registered(&server), before + MAX_WIRE_TENANTS);
    for i in MAX_WIRE_TENANTS..MAX_WIRE_TENANTS + 100 {
        let name = format!("flood-{i}");
        assert!(matches!(handshake(&name), ServerFrame::Err { .. }));
        assert_eq!(server.tenant_id(&name), None);
    }
    assert_eq!(registered(&server), before + MAX_WIRE_TENANTS);

    // a name already registered still shakes hands, and the refusals
    // left the connection usable
    let known = server.tenant_id("flood-0").expect("registered above");
    assert_eq!(handshake("flood-0"), ServerFrame::Ok { tenant: known });
    client.send(&format!("QUERY k=1 {QUERY}"));
    assert!(matches!(client.next_frame(), ServerFrame::Answer { .. }));
    net.shutdown();
}

#[test]
fn a_poll_reply_of_many_deltas_in_one_segment_parses() {
    // the travel world drifting per epoch: refresh passes change the
    // standing query's answers, so a poll has rows to deliver
    let clock = EpochClock::new();
    let world = travel_world(2008);
    let registry = refreshing_registry(&world.registry, &clock, RefreshConfig::seeded(11));
    let server = Arc::new(QueryServer::from_world(
        World {
            schema: world.schema,
            query: world.query,
            registry,
        },
        RuntimeConfig::default(),
    ));
    server.attach_refresh(Arc::clone(&clock), RefreshPolicy::every(1));
    server.register_tenant(
        "ops",
        TenantPolicy {
            operator: true,
            ..TenantPolicy::default()
        },
    );
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0").expect("binds loopback");
    let mut client = NetClient::connect(net.addr()).expect("connects");
    let ops = client.tenant("ops").expect("handshake");
    let text = "q(Conf, City, HPrice, FPrice, Hotel) :- \
                flight('Milano', City, Start, End, ST, ET, FPrice), \
                hotel(Hotel, City, 'luxury', Start, End, HPrice), \
                conf('DB', Conf, Start, End, City), \
                weather(City, Temp, Start), \
                Start >= '2007/3/14', End <= '2007/3/14' + 180, \
                Temp >= 28, FPrice + HPrice < 950.0.";
    let (id, _, mut folded) = client.subscribe(text, Some(5)).expect("subscribes");

    let mut largest = 0;
    for _ in 0..4 {
        client.refresh_all().expect("refreshes");
        // DELTA… + SYNCED leave the server in one write; `poll` holds
        // the row count against SYNCED's
        let rows = client.poll(id).expect("polls");
        largest = largest.max(rows.len());
        for (_, added, tuple) in rows {
            if added {
                folded.push(tuple);
            } else {
                let at = folded.iter().position(|t| *t == tuple);
                folded.swap_remove(at.expect("a retraction names a live row"));
            }
        }
        let mut current: Vec<_> = server
            .subscription_answers(ops, id)
            .expect("live subscription")
            .iter()
            .map(ToString::to_string)
            .collect();
        current.sort();
        folded.sort();
        assert_eq!(folded, current, "the folded rows are the server's answers");
    }
    assert!(largest >= 2, "no poll carried two deltas: {largest}");
    client.quit().expect("clean close");
    net.shutdown();
}
