//! The gateway's per-service concurrency limit
//! (`RuntimeConfig::per_service_concurrency`, the second argument of
//! `SharedServiceState::new`), held with a service that counts its
//! concurrent calls and blocks each one at a gate the test opens:
//!
//! * many threads missing on distinct keys of one service never have
//!   more than the limit in flight, and under a one-entry page cache
//!   every call is answered and none is lost;
//! * a thread parked on the limit holds no shard lock: while one query
//!   holds the only slot and a second is parked for it, a third is
//!   served a cached page from the same (single) shard.

use mdq::model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq::prelude::*;
use mdq::services::domains::travel::TravelWorld;
use mdq::services::service::ServiceResponse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a wait may take before the test calls it a hang.
const WATCHDOG: Duration = Duration::from_secs(20);

/// The running example's plan O (conf → weather → {flight, hotel}).
fn plan_o(world: &TravelWorld) -> Plan {
    let poset = Poset::from_pairs(
        4,
        &[
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_WEATHER, ATOM_HOTEL),
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

/// A gate calls pass through: closed, each call waits for a pass the
/// test hands out one at a time; open, every call passes.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Gate {
    fn open(&self) {
        self.state.lock().unwrap().0 = true;
        self.changed.notify_all();
    }

    fn release_one(&self) {
        self.state.lock().unwrap().1 += 1;
        self.changed.notify_all();
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        while !state.0 && state.1 == 0 {
            state = self.changed.wait(state).unwrap();
        }
        state.1 = state.1.saturating_sub(1);
    }
}

/// Counts the calls in flight inside the wrapped service and the most
/// ever seen at once; every call waits at the gate while counted.
struct Recording {
    inner: Arc<dyn Service>,
    gate: Arc<Gate>,
    in_flight: AtomicUsize,
    peak: AtomicUsize,
    calls: AtomicUsize,
}

impl Recording {
    fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

impl Service for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        self.gate.pass();
        let response = self.inner.fetch(pattern, inputs, page);
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        response
    }
}

/// The travel world with `conf` wrapped in a [`Recording`] behind a
/// closed gate.
fn recorded_world() -> (TravelWorld, Arc<Recording>, Arc<Gate>) {
    let mut w = travel_world(2008);
    let gate = Arc::new(Gate::default());
    let recording = Arc::new(Recording {
        inner: Arc::clone(w.registry.get(w.ids.conf).expect("conf")),
        gate: Arc::clone(&gate),
        in_flight: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
        calls: AtomicUsize::new(0),
    });
    w.registry.register(w.ids.conf, Arc::clone(&recording));
    (w, recording, gate)
}

/// Spins until `done` holds, failing the test past the watchdog.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < WATCHDOG, "hung waiting until {what}");
        std::thread::yield_now();
    }
}

#[test]
fn in_flight_calls_never_pass_the_per_service_limit() {
    const LIMIT: usize = 2;
    const THREADS: usize = 6;
    const ROUNDS: usize = 4;
    let (w, recording, gate) = recorded_world();
    let w = Arc::new(w);
    let plan = Arc::new(plan_o(&w));
    let shared =
        Arc::new(SharedServiceState::new(CacheSetting::Optimal, LIMIT).with_page_capacity(1));
    for round in 0..ROUNDS {
        // one distinct key per thread, so every call still to come is
        // on a thread of its own and the limit can always fill; the
        // threads are detached, so a wedged one fails the test below
        // instead of hanging it
        let (done, results) = mpsc::channel();
        for t in 0..THREADS {
            let (w, plan, shared) = (Arc::clone(&w), Arc::clone(&plan), Arc::clone(&shared));
            let done = done.clone();
            std::thread::spawn(move || {
                let mut g = ExecContext::shared(shared)
                    .gateway(&plan, &w.schema, &w.registry)
                    .expect("builds");
                let key = [Value::str(format!("topic-{round}-{t}"))];
                let f = g.fetch_page(w.ids.conf, 0, &key, 0);
                done.send(f.forwarded_latency.is_some() && f.fault.is_none())
            });
        }
        // hand out one pass at a time, each once the calls still to
        // come have filled the limit again: a limiter that let a
        // parked thread through would stack it at the gate too
        for released in 0..THREADS {
            let want = LIMIT.min(THREADS - released);
            wait_until("the limit fills", || recording.in_flight() == want);
            assert!(recording.peak() <= LIMIT, "peak {}", recording.peak());
            gate.release_one();
        }
        for _ in 0..THREADS {
            let forwarded = results.recv_timeout(WATCHDOG);
            assert_eq!(forwarded, Ok(true), "round {round}: a fetch was forwarded");
        }
    }
    let calls = recording.calls.load(Ordering::SeqCst);
    assert_eq!(
        recording.peak(),
        LIMIT,
        "the limit was reached, never passed"
    );
    assert_eq!(calls, THREADS * ROUNDS, "no call lost or repeated");
    assert_eq!(shared.total_calls(), calls as u64, "the ledger agrees");
    assert_eq!(shared.page_cache_evictions(), calls as u64 - 1);
}

#[test]
fn a_thread_parked_on_the_limit_holds_no_shard_lock() {
    let (w, recording, gate) = recorded_world();
    let w = Arc::new(w);
    let plan = Arc::new(plan_o(&w));
    // a bounded cache is a single shard: every key below shares it
    let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 1).with_page_capacity(8));
    // runs `fetch` on a detached thread of its own gateway, so a wedged
    // fetch fails the test at a watchdog instead of hanging it
    let spawn = |fetch: fn(&mut ServiceGateway, ServiceId) -> PageFetch| {
        let (w, plan, shared) = (Arc::clone(&w), Arc::clone(&plan), Arc::clone(&shared));
        let (started, done) = (mpsc::channel(), mpsc::channel());
        std::thread::spawn(move || {
            let mut g = ExecContext::shared(shared)
                .gateway(&plan, &w.schema, &w.registry)
                .expect("builds");
            started.0.send(()).expect("signals");
            done.0.send(fetch(&mut g, w.ids.conf)).expect("reports");
        });
        started.1.recv().expect("starts");
        done.1
    };
    let cached = |g: &mut ServiceGateway, conf| g.fetch_page(conf, 0, &[Value::str("DB")], 0);
    gate.release_one();
    let warm = spawn(cached).recv_timeout(WATCHDOG).expect("warms");
    assert!(warm.forwarded_latency.is_some());
    assert_eq!(shared.page_shard_stats().len(), 1, "one shard");

    // A takes the only slot and stays inside the service
    let holder = spawn(|g, conf| g.fetch_page(conf, 0, &[Value::str("AI")], 0));
    wait_until("A holds the slot", || recording.in_flight() == 1);
    // B misses on the same service and parks for the slot
    let parked = spawn(|g, conf| g.fetch_page(conf, 0, &[Value::str("OS")], 0));
    // C is served from the shard B parked beside, over and over while B
    // waits: a parked thread holding the shard lock would wedge C
    let served = spawn(|g, conf| {
        for _ in 0..2_000 {
            let f = g.fetch_page(conf, 0, &[Value::str("DB")], 0);
            assert!(f.forwarded_latency.is_none(), "a cached hit");
            std::thread::yield_now();
        }
        g.fetch_page(conf, 0, &[Value::str("DB")], 0)
    });
    let c = served.recv_timeout(WATCHDOG);
    assert!(c.is_ok(), "C was served while B was parked");
    assert_eq!(recording.peak(), 1, "B never entered beside A");
    gate.open();
    let a = holder.recv_timeout(WATCHDOG).expect("A is served");
    let b = parked.recv_timeout(WATCHDOG).expect("B is served");
    assert!(a.forwarded_latency.is_some() && b.forwarded_latency.is_some());
    assert_eq!(recording.calls.load(Ordering::SeqCst), 3);
    assert_eq!(shared.total_calls(), 3);
}
