//! The sub-result store's bounds, driven through the public execution
//! path: a capacity-bounded store evicts its least-recently-used prefix
//! and counts it, a tenant at its quota displaces only its own oldest
//! prefix, and a tenant with quota 0 stores nothing yet still releases
//! its single-flight claims to the executions parked on them.
//!
//! Every plan here comes from one query family whose start-date
//! constant is applied at the chain's first invocation, so each member
//! materializes a chain of prefixes with signatures no other member
//! shares.

use mdq::cost::metrics::ExecutionTime;
use mdq::exec::cache::CacheSetting;
use mdq::exec::gateway::SharedServiceState;
use mdq::exec::topk::TopKExecution;
use mdq::exec::ExecContext;
use mdq::model::value::Value;
use mdq::optimizer::bnb::OptimizerConfig;
use mdq::plan::dag::Plan;
use mdq::services::domains::travel::travel_world;
use mdq::services::domains::World;
use mdq::services::service::{Service, ServiceResponse};
use mdq::Mdq;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const K: usize = 5;

fn engine_over(world: World) -> Mdq {
    Mdq::from_world(world)
}

fn travel() -> World {
    let w = travel_world(2008);
    World {
        schema: w.schema,
        query: w.query,
        registry: w.registry,
    }
}

/// The plan of family member `day`: its every prefix signature is its
/// own.
fn plan(engine: &Mdq, day: u32) -> Plan {
    let text = format!(
        "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/{day}', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < 2000.0."
    );
    let query = engine.parse(&text).expect("parses");
    engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: K as u64,
                cache: CacheSetting::Optimal,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes")
        .candidate
        .plan
}

/// Runs `plan` for `k` answers over `state` as `tenant`, materializing
/// its prefixes; returns how many prefixes it replayed (0 or 1).
fn run(engine: &Mdq, state: &Arc<SharedServiceState>, plan: &Plan, tenant: Option<u32>) -> u64 {
    let mut exec = TopKExecution::start(
        plan,
        engine.schema(),
        engine.registry(),
        ExecContext {
            tenant,
            ..ExecContext::shared(Arc::clone(state))
        },
    )
    .expect("starts");
    exec.answers(K);
    exec.sub_result_hits()
}

/// How many prefixes one cold run of a family member materializes.
fn chain_levels(engine: &Mdq) -> u64 {
    let state = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0).with_sub_results(64));
    run(engine, &state, &plan(engine, 10), None);
    let levels = state.sub_result_stats().entries;
    assert!(levels > 0, "a cold run materializes its prefixes");
    levels
}

#[test]
fn a_full_store_evicts_its_least_recently_used_prefix() {
    let engine = engine_over(travel());
    let levels = chain_levels(&engine);
    let (a, b, c) = (plan(&engine, 10), plan(&engine, 11), plan(&engine, 12));
    let state = Arc::new(
        SharedServiceState::new(CacheSetting::Optimal, 0).with_sub_results(2 * levels as usize),
    );
    assert_eq!(run(&engine, &state, &a, None), 0);
    assert_eq!(run(&engine, &state, &b, None), 0);
    assert_eq!(state.sub_result_stats().evictions, 0, "two chains fit");
    // replaying a's longest prefix makes it the most recently used entry
    assert_eq!(run(&engine, &state, &a, None), 1);
    // c's chain needs `levels` slots: the coldest entries go, which are
    // a's shorter prefixes and b's — never a's just-replayed one
    assert_eq!(run(&engine, &state, &c, None), 0);
    let stats = state.sub_result_stats();
    assert_eq!(stats.evictions, levels, "one eviction per slot c needed");
    assert_eq!(stats.entries, 2 * levels, "the store stays at capacity");
    assert_eq!(
        run(&engine, &state, &a, None),
        1,
        "the touched prefix survived"
    );
    assert_eq!(
        run(&engine, &state, &c, None),
        1,
        "the newest chain is resident"
    );
}

#[test]
fn a_tenant_at_its_quota_displaces_only_its_own_oldest_prefix() {
    let engine = engine_over(travel());
    let levels = chain_levels(&engine);
    let (a, b, c) = (plan(&engine, 10), plan(&engine, 11), plan(&engine, 12));
    let state = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0).with_sub_results(64));
    state.set_tenant_sub_quota(1, Some(levels));
    // tenant 2 publishes first, so its entries are the store's coldest
    assert_eq!(run(&engine, &state, &a, Some(2)), 0);
    assert_eq!(run(&engine, &state, &b, Some(1)), 0);
    assert_eq!(state.sub_result_stats().quota_evictions, 0);
    // tenant 1 is at its quota: each of c's prefixes displaces one of b's
    assert_eq!(run(&engine, &state, &c, Some(1)), 0);
    let stats = state.sub_result_stats();
    assert_eq!(stats.quota_evictions, levels);
    assert_eq!(stats.evictions, 0, "the store itself never filled");
    assert_eq!(stats.entries, 2 * levels);
    assert_eq!(run(&engine, &state, &a, Some(2)), 1, "tenant 2 kept a");
    assert_eq!(run(&engine, &state, &c, Some(1)), 1, "tenant 1 kept c");
    assert_eq!(run(&engine, &state, &b, Some(1)), 0, "b was displaced");
}

/// A conf service whose first fetch reports in and then waits for the
/// test's go-ahead; every later fetch passes straight through.
struct HeldConf {
    inner: Arc<dyn Service>,
    hold: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl Service for HeldConf {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        let hold = self.hold.lock().unwrap().take();
        if let Some((entered, go)) = hold {
            entered.send(()).ok();
            go.recv().ok();
        }
        self.inner.fetch(pattern, inputs, page)
    }
}

#[test]
fn a_zero_quota_tenant_stores_nothing_but_wakes_its_waiters() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let mut world = travel();
    let conf = world
        .schema
        .service_by_name("conf")
        .expect("travel has conf");
    let inner = Arc::clone(world.registry.get(conf).expect("registered"));
    world.registry.register(
        conf,
        HeldConf {
            inner,
            hold: Mutex::new(Some((entered_tx, go_rx))),
        },
    );
    let engine = Arc::new(engine_over(world));
    let a = Arc::new(plan(&engine, 10));
    let state = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0).with_sub_results(64));
    state.set_tenant_sub_quota(1, Some(0));

    let spawn = |tenant: u32, done: mpsc::Sender<u32>| {
        let (engine, state, a) = (Arc::clone(&engine), Arc::clone(&state), Arc::clone(&a));
        std::thread::spawn(move || {
            run(&engine, &state, &a, Some(tenant));
            done.send(tenant).ok();
        })
    };
    let (done_tx, done_rx) = mpsc::channel();
    // tenant 1 claims a's prefixes and is held inside its first fetch
    let owner = spawn(1, done_tx.clone());
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the owner reached the service");
    // tenant 2 wants the same prefixes: it parks on tenant 1's claims
    let waiter = spawn(2, done_tx);
    std::thread::sleep(Duration::from_millis(50));
    go_tx.send(()).expect("the owner is still held");
    let mut finished: Vec<u32> = (0..2)
        .map(|_| {
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a released claim wakes the parked execution")
        })
        .collect();
    finished.sort_unstable();
    assert_eq!(finished, vec![1, 2]);
    owner.join().expect("owner");
    waiter.join().expect("waiter");
    let stats = state.sub_result_stats();
    assert!(stats.entries > 0, "the woken waiter materialized the chain");
    assert_eq!(
        stats.entries,
        chain_levels(&engine_over(travel())),
        "only the waiter's chain is stored: tenant 1 published nothing"
    );
    assert_eq!(stats.evictions + stats.quota_evictions, 0);
}
