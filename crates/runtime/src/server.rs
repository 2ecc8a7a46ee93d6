//! The [`QueryServer`]: a fixed worker pool draining a submission queue,
//! a fingerprint-keyed plan cache in front of the branch-and-bound
//! optimizer, and one cross-query
//! [`SharedServiceState`] so the
//! §5.1 page cache and call accounting span the whole workload.
//!
//! Each decision made here has one owner. Template → plan goes through
//! the one `resolve_plan` below — workers, the admission batcher and
//! `subscribe` all call it — which counts the hit or miss, prices under
//! the one serving `OptimizerConfig` and delegates cache, single-flight
//! and failed-memo to the [`plan_cache`](crate::plan_cache) resolver.
//! Every front-door refusal is counted by `QueryServer::reject`. Call
//! accounting is read, never kept: a finished execution hands over its
//! ledger and [`QueryServer::metrics`] takes one merged snapshot.

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan_cache::{PlanKey, PlanResolver, Resolution};
use crate::session::{QuerySession, QueryStats, SessionEvent};
use crate::subscribe::{
    Delta, EngineCtx, RefreshSummary, SubscribeError, SubscriptionManager, SubscriptionTicket,
};
use crate::tenant::{TenantInfo, TenantPolicy, TenantRegistry, DEFAULT_TENANT};
use mdq_core::Mdq;
use mdq_cost::divergence::AdaptiveConfig;
use mdq_cost::estimate::CacheSetting;
use mdq_cost::metrics::ExecutionTime;
use mdq_cost::shared::SharedWorkOracle;
use mdq_exec::adaptive::Replanner;
use mdq_exec::gateway::{RetryPolicy, SharedServiceState, TenantId};
use mdq_exec::store::recover;
use mdq_exec::topk::TopKExecution;
use mdq_exec::ExecContext;
use mdq_model::fingerprint::{fingerprint, SubplanSignature};
use mdq_model::query::ConjunctiveQuery;
use mdq_model::value::Tuple;
use mdq_obs::recorder::TraceRecorder;
use mdq_obs::span::SpanKind;
use mdq_optimizer::bnb::OptimizerConfig;
use mdq_plan::dag::Plan;
use mdq_plan::signature::invoke_prefixes;
use mdq_services::domains::World;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server policies. The defaults suit the simulated worlds: a small
/// pool, the *optimal* (memoize-everything) cache shared across
/// queries, a bounded plan cache and no per-query call budget.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Shared client-cache setting (§5.1) — cross-query, so `Optimal`
    /// turns repeated invocations from different queries into hits.
    pub cache: CacheSetting,
    /// Plans kept by the fingerprint-keyed LRU (`0` disables plan
    /// caching: every query runs the optimizer).
    pub plan_cache_capacity: usize,
    /// Max request-responses in flight per service across the whole
    /// server (`0` = unlimited).
    pub per_service_concurrency: usize,
    /// Admission control: max request-responses one query may forward
    /// before it is failed (`None` = unlimited).
    pub call_budget: Option<u64>,
    /// Retry policy applied to faulted service calls (bounded retries
    /// with deterministic backoff accounting; exhausted pages degrade
    /// the query into partial results instead of failing it).
    pub retry: RetryPolicy,
    /// Adaptive mid-flight re-optimization policy: `Some` makes every
    /// query compare observed service statistics against the estimates
    /// at its suspension points and splice in a re-optimized plan when
    /// they drift past the configured ratio (a query that re-planned
    /// publishes its better plan back to the plan cache under the same
    /// fingerprint). `None` (the default) freezes plans as optimized.
    pub adaptive: Option<AdaptiveConfig>,
    /// Bounded capacity of the shared page cache, in distinct
    /// invocation keys: `usize::MAX` (the default) is the unbounded
    /// idealised cache, `0` disables client-side page caching entirely
    /// (mirroring `PlanCache::new(0)`), anything between is an LRU
    /// whose evictions surface in
    /// [`MetricsSnapshot::page_cache_evictions`].
    ///
    /// [`MetricsSnapshot::page_cache_evictions`]: crate::metrics::MetricsSnapshot::page_cache_evictions
    pub page_cache_entries: usize,
    /// Capacity of the signature-keyed sub-result store, in
    /// materialized invoke prefixes. `0` (the default) disables
    /// cross-query sub-result sharing — execution is exactly the PR 2
    /// page-cache-only serving path.
    pub sub_results: usize,
    /// Admission batching: `Some(window)` groups submissions arriving
    /// within the window (up to [`RuntimeConfig::batch_max`], and
    /// naturally whatever queued up while the workers were busy) and
    /// plans them *as a batch* — overlapping invoke prefixes across
    /// members are detected, counted as
    /// [`MetricsSnapshot::shared_prefix_hits`] and discounted by the
    /// optimizer's shared-work oracle, so the batch unifies on shared
    /// work instead of paying for it per member. `None` (the default)
    /// dispatches every submission immediately.
    ///
    /// [`MetricsSnapshot::shared_prefix_hits`]: crate::metrics::MetricsSnapshot::shared_prefix_hits
    pub batch_window: Option<std::time::Duration>,
    /// Max queries admitted into one batch.
    pub batch_max: usize,
    /// Answer target used when `submit` is called without an explicit
    /// `k`.
    pub default_k: u64,
    /// Admission control: max jobs queued across all tenants before
    /// further submissions are shed with a retry-after hint (`0` = the
    /// pre-serving-edge unbounded queue).
    pub max_queue_depth: usize,
    /// The retry-after hint handed to shed submissions — how long a
    /// well-behaved client should wait before retrying.
    pub shed_retry_after: Duration,
    /// Admission control for standing queries: max live subscriptions
    /// per tenant (`0` = unlimited) unless the tenant's own
    /// [`TenantPolicy::max_subscriptions`] overrides it. Every
    /// subscription pins pages and joins every refresh pass, so this
    /// bounds how much continuous maintenance work one client — the
    /// anonymous default tenant included — can register.
    ///
    /// [`TenantPolicy::max_subscriptions`]: crate::tenant::TenantPolicy::max_subscriptions
    pub max_subscriptions: usize,
    /// Worker threads a refresh pass fans its lock-free phases across
    /// (due re-fetches, affected re-evaluations). `1` runs the pass
    /// inline; any setting produces byte-identical delta streams — the
    /// pipeline's determinism contract — so this is purely a latency
    /// knob for latency-dominated refresh workloads.
    pub refresh_workers: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            cache: CacheSetting::Optimal,
            plan_cache_capacity: 256,
            per_service_concurrency: 4,
            call_budget: None,
            retry: RetryPolicy::default(),
            adaptive: None,
            page_cache_entries: usize::MAX,
            sub_results: 0,
            batch_window: None,
            batch_max: 16,
            default_k: 10,
            max_queue_depth: 0,
            shed_retry_after: Duration::from_millis(50),
            max_subscriptions: 64,
            refresh_workers: 1,
        }
    }
}

/// State shared by the server handle and every worker.
struct ServerState {
    engine: Mdq,
    config: RuntimeConfig,
    shared: Arc<SharedServiceState>,
    /// Template → plan: LRU, single-flight claims and failed memo.
    plans: PlanResolver,
    /// Prefix signatures seen at admission (batching only): a prefix
    /// admitted once before is popular enough to materialize when it
    /// shows up again, even if its first carrier ran unshared.
    admitted_prefixes: Mutex<HashSet<SubplanSignature>>,
    tenants: TenantRegistry,
    metrics: Metrics,
    /// Standing queries: subscriptions, the invocations their
    /// frontiers pin, the refresh pass and the epoch clock.
    subs: SubscriptionManager,
}

/// Bound on the admitted-prefix memory; reaching it clears the set (a
/// coarse reset is fine — the set only steers a materialize-or-not
/// heuristic, never correctness).
const ADMITTED_PREFIX_CAP: usize = 16_384;

struct Job {
    text: String,
    k: u64,
    /// The tenant this job runs as (scheduling, budgets, attribution).
    tenant: TenantId,
    tinfo: Arc<TenantInfo>,
    events: mpsc::Sender<SessionEvent>,
    /// When `submit` accepted the job — the queue-wait histogram
    /// measures from here to worker dequeue.
    submitted_at: Instant,
    /// Filled by the admission batcher: plan resolved at batch-planning
    /// time plus batch bookkeeping. `None` = the worker plans.
    prepared: Option<Prepared>,
}

/// Why a submission was refused at the front door. Shed variants carry
/// the server's retry-after hint; the others are terminal.
#[derive(Clone, Debug)]
pub(crate) enum Rejection {
    /// The global admission queue is at
    /// [`RuntimeConfig::max_queue_depth`] — retry after the hint.
    QueueFull {
        /// How long a well-behaved client should wait before retrying.
        retry_after: Duration,
    },
    /// The tenant's own queue is at its
    /// [`TenantPolicy::max_queued`](crate::tenant::TenantPolicy::max_queued)
    /// bound — retry after the hint.
    TenantQueueFull {
        /// How long a well-behaved client should wait before retrying.
        retry_after: Duration,
    },
    /// The tenant's cumulative forwarded-call budget is spent; retrying
    /// cannot help until the budget is raised.
    TenantBudgetExhausted,
    /// The tenant id was never registered.
    UnknownTenant,
    /// The operation (a wire-triggered refresh pass) requires the
    /// [`TenantPolicy::operator`](crate::tenant::TenantPolicy::operator)
    /// flag, which this tenant lacks.
    OperatorOnly,
    /// The tenant is at its standing-query cap
    /// ([`TenantPolicy::max_subscriptions`](crate::tenant::TenantPolicy::max_subscriptions)
    /// or the server-wide [`RuntimeConfig::max_subscriptions`]).
    SubscriptionCapReached,
    /// The server is shut down (or draining) and accepts nothing new.
    Closed,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull { retry_after } => {
                write!(f, "admission queue full; retry after {retry_after:?}")
            }
            Rejection::TenantQueueFull { retry_after } => {
                write!(f, "tenant queue full; retry after {retry_after:?}")
            }
            Rejection::TenantBudgetExhausted => write!(f, "tenant call budget exhausted"),
            Rejection::UnknownTenant => write!(f, "unknown tenant"),
            Rejection::OperatorOnly => write!(f, "operator-only operation"),
            Rejection::SubscriptionCapReached => write!(f, "tenant subscription cap reached"),
            Rejection::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for Rejection {}

/// The admission queue: one FIFO per tenant, drained round-robin, with
/// a global depth bound. Fairness is structural — a tenant flooding its
/// own queue delays only itself; every pop serves the next tenant in
/// rotation.
struct Scheduler {
    inner: Mutex<SchedulerInner>,
    /// Signalled on push and on close.
    available: Condvar,
    /// Global bound (`0` = unbounded).
    max_depth: usize,
    /// The hint stamped into shed rejections.
    retry_after: Duration,
}

struct SchedulerInner {
    /// Per-tenant FIFOs (entries persist once a tenant submits).
    queues: HashMap<TenantId, VecDeque<Job>>,
    /// Tenants with a non-empty queue, in service rotation order.
    rr: VecDeque<TenantId>,
    /// Total queued jobs across all tenants.
    depth: usize,
    /// `false` once the server begins draining: pushes are refused,
    /// pops serve the backlog then return `None`.
    open: bool,
}

/// Outcome of a bounded-wait pop (the admission batcher's clock).
enum Pop {
    Job(Box<Job>),
    TimedOut,
    /// Closed *and* drained — nothing will ever arrive again.
    Closed,
}

impl Scheduler {
    fn new(max_depth: usize, retry_after: Duration) -> Self {
        Scheduler {
            inner: Mutex::new(SchedulerInner {
                queues: HashMap::new(),
                rr: VecDeque::new(),
                depth: 0,
                open: true,
            }),
            available: Condvar::new(),
            max_depth,
            retry_after,
        }
    }

    /// Enqueues `job` under its tenant, enforcing the global and
    /// per-tenant depth bounds. Returns the new global depth; a
    /// rejected job is dropped (its session sees the rejection through
    /// the caller).
    fn push(&self, job: Job, tenant_cap: usize) -> Result<usize, Rejection> {
        let mut inner = recover(self.inner.lock());
        if !inner.open {
            return Err(Rejection::Closed);
        }
        if self.max_depth > 0 && inner.depth >= self.max_depth {
            let retry_after = self.retry_after;
            return Err(Rejection::QueueFull { retry_after });
        }
        let tenant = job.tenant;
        let queue = inner.queues.entry(tenant).or_default();
        if tenant_cap > 0 && queue.len() >= tenant_cap {
            let retry_after = self.retry_after;
            return Err(Rejection::TenantQueueFull { retry_after });
        }
        let was_empty = queue.is_empty();
        queue.push_back(job);
        if was_empty {
            inner.rr.push_back(tenant);
        }
        inner.depth += 1;
        let depth = inner.depth;
        drop(inner);
        self.available.notify_one();
        Ok(depth)
    }

    /// Pops the next job in tenant rotation, blocking while the queue
    /// is open and empty. `None` = closed and fully drained.
    fn pop(&self) -> Option<Job> {
        let mut inner = recover(self.inner.lock());
        loop {
            if let Some(job) = Self::take(&mut inner) {
                return Some(job);
            }
            if !inner.open {
                return None;
            }
            inner = recover(self.available.wait(inner));
        }
    }

    /// [`Scheduler::pop`] with a deadline, for the admission batcher's
    /// window clock.
    fn pop_timeout(&self, timeout: Duration) -> Pop {
        let deadline = Instant::now() + timeout;
        let mut inner = recover(self.inner.lock());
        loop {
            if let Some(job) = Self::take(&mut inner) {
                return Pop::Job(Box::new(job));
            }
            if !inner.open {
                return Pop::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::TimedOut;
            }
            let (guard, timed_out) = recover(self.available.wait_timeout(inner, deadline - now));
            inner = guard;
            if timed_out.timed_out() && Self::peek_empty(&inner) && inner.open {
                return Pop::TimedOut;
            }
        }
    }

    fn peek_empty(inner: &SchedulerInner) -> bool {
        inner.rr.is_empty()
    }

    /// Dequeues the front tenant's next job and rotates the tenant to
    /// the back of the service order while it still has work queued.
    fn take(inner: &mut SchedulerInner) -> Option<Job> {
        let tenant = inner.rr.pop_front()?;
        let queue = inner.queues.get_mut(&tenant).expect("rr lists live queues");
        let job = queue.pop_front().expect("rr lists non-empty queues");
        if !queue.is_empty() {
            inner.rr.push_back(tenant);
        }
        inner.depth -= 1;
        Some(job)
    }

    /// Stops accepting pushes; queued jobs still drain. Wakes every
    /// sleeper so idle workers observe the close.
    fn close(&self) {
        recover(self.inner.lock()).open = false;
        self.available.notify_all();
    }

    fn depth(&self) -> usize {
        recover(self.inner.lock()).depth
    }
}

/// What the admission batcher resolved for one batch member.
struct Prepared {
    plan: Arc<Plan>,
    key: PlanKey,
    plan_cache_hit: bool,
    /// The member's invoke prefix overlapped another member's (or
    /// already-materialized work) at planning time.
    shared_prefix: bool,
}

/// A concurrent multi-query server over one engine (schema + services).
///
/// ```
/// use mdq_runtime::server::{QueryServer, RuntimeConfig};
/// use mdq_services::domains::news::news_world;
///
/// let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
/// let session = server.submit(
///     "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
///      lowcost('Milano', City, Price), Price <= 60.0.",
///     Some(5),
/// );
/// let result = session.collect().expect("runs");
/// assert!(!result.answers.is_empty());
/// server.shutdown();
/// ```
pub struct QueryServer {
    state: Arc<ServerState>,
    scheduler: Arc<Scheduler>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Where a worker takes its next job from: the scheduler directly, or
/// the admission batcher's prepared-job channel when batching is on.
enum WorkSource {
    Direct(Arc<Scheduler>),
    Batched(Arc<Mutex<mpsc::Receiver<Job>>>),
}

impl WorkSource {
    fn next(&self) -> Option<Job> {
        match self {
            WorkSource::Direct(sched) => sched.pop(),
            WorkSource::Batched(rx) => recover(rx.lock()).recv().ok(),
        }
    }
}

impl QueryServer {
    /// Starts a server over `engine` with the given policies.
    pub fn new(engine: Mdq, config: RuntimeConfig) -> Self {
        let state = Arc::new(ServerState {
            shared: Arc::new(
                SharedServiceState::new(config.cache, config.per_service_concurrency)
                    .with_retry(config.retry)
                    .with_page_capacity(config.page_cache_entries)
                    .with_sub_results(config.sub_results),
            ),
            plans: PlanResolver::new(config.plan_cache_capacity),
            admitted_prefixes: Mutex::new(HashSet::new()),
            tenants: TenantRegistry::new(),
            metrics: Metrics::new(),
            subs: SubscriptionManager::new(),
            engine,
            config,
        });
        let scheduler = Arc::new(Scheduler::new(
            config.max_queue_depth,
            config.shed_retry_after,
        ));
        let mut workers = Vec::new();
        let source = match config.batch_window {
            Some(window) => {
                // the admission batcher sits between the scheduler and
                // the worker pool: it groups arrivals, plans each batch
                // with cross-member shared-prefix detection and
                // forwards the prepared jobs
                let (work_tx, work_rx) = mpsc::channel::<Job>();
                let state = Arc::clone(&state);
                let sched = Arc::clone(&scheduler);
                let max = config.batch_max.max(1);
                workers.push(std::thread::spawn(move || {
                    batch_loop(&state, &sched, work_tx, window, max)
                }));
                let rx = Arc::new(Mutex::new(work_rx));
                WorkSource::Batched(rx)
            }
            None => WorkSource::Direct(Arc::clone(&scheduler)),
        };
        let source = Arc::new(source);
        workers.extend((0..config.workers.max(1)).map(|_| {
            let state = Arc::clone(&state);
            let source = Arc::clone(&source);
            std::thread::spawn(move || {
                while let Some(job) = source.next() {
                    // one bad query must not take down the pool: a
                    // panicking job fails its own session, the worker
                    // recovers and serves the next job (lock poisoning
                    // is tolerated throughout — see `mdq_exec::store::recover`)
                    let events = job.events.clone();
                    let tinfo = Arc::clone(&job.tinfo);
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| process(&state, job)));
                    if run.is_err() {
                        state.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                        state.metrics.failed.fetch_add(1, Ordering::Relaxed);
                        tinfo.failed.fetch_add(1, Ordering::Relaxed);
                        let _ = events.send(SessionEvent::Failed(
                            "worker panicked while executing the query".into(),
                        ));
                    }
                }
            })
        }));
        QueryServer {
            state,
            scheduler,
            workers: Mutex::new(workers),
        }
    }

    /// Starts a server over a ready-made simulated [`World`].
    pub fn from_world(world: World, config: RuntimeConfig) -> Self {
        Self::new(Mdq::from_world(world), config)
    }

    /// Registers a tenant (or returns the existing id for `name` —
    /// first registration wins, the policy is never relaxed by a
    /// re-register). The policy's budget and store quota are installed
    /// into the shared gateway state immediately.
    pub fn register_tenant(&self, name: &str, policy: TenantPolicy) -> TenantId {
        let id = self.state.tenants.register(name, policy);
        // install the policy that actually won (the first registration's
        // on a re-register) — installing the caller's would let a
        // reconnecting client overwrite its own budget cells
        let winner = self
            .state
            .tenants
            .get(id)
            .map(|t| t.policy)
            .unwrap_or(policy);
        self.state.shared.set_tenant_budget(id, winner.call_budget);
        self.state
            .shared
            .set_tenant_sub_quota(id, winner.sub_result_quota);
        id
    }

    /// The id registered under `name`, if any.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.state.tenants.lookup(name)
    }

    /// Submits query text for execution; `k` defaults to the server's
    /// `default_k`. Returns immediately with a [`QuerySession`]
    /// streaming answers as a worker produces them. Runs as the default
    /// tenant; a rejection (shutdown, or admission bounds when
    /// [`RuntimeConfig::max_queue_depth`] is set) surfaces as a failed
    /// session.
    pub fn submit(&self, text: &str, k: Option<u64>) -> QuerySession {
        match self.try_submit(DEFAULT_TENANT, text, k) {
            Ok(session) => session,
            Err(rejection) => {
                let (events, rx) = mpsc::channel();
                let _ = events.send(SessionEvent::Failed(rejection.to_string()));
                QuerySession { rx }
            }
        }
    }

    /// Submits query text as `tenant`, enforcing admission control at
    /// the front door: a full global queue, a full tenant queue or a
    /// spent tenant budget sheds the submission *now* — with a
    /// retry-after hint where retrying can help — instead of queueing
    /// unboundedly. Rejections count in [`MetricsSnapshot::rejected`]
    /// and the shed counters, never in `submitted`.
    ///
    /// [`MetricsSnapshot::rejected`]: crate::metrics::MetricsSnapshot::rejected
    pub(crate) fn try_submit(
        &self,
        tenant: TenantId,
        text: &str,
        k: Option<u64>,
    ) -> Result<QuerySession, Rejection> {
        let metrics = &self.state.metrics;
        let Some(tinfo) = self.state.tenants.get(tenant) else {
            return Err(self.reject(tenant, None, Rejection::UnknownTenant));
        };
        // a tenant whose cumulative budget is already spent would only
        // occupy a worker to fail — shed at the door, where the client
        // gets a typed rejection instead of a burned queue slot
        if !self.state.shared.tenant_has_room(tenant) {
            return Err(self.reject(tenant, Some(&tinfo), Rejection::TenantBudgetExhausted));
        }
        let (events, rx) = mpsc::channel();
        let job = Job {
            text: text.to_string(),
            k: k.unwrap_or(self.state.config.default_k),
            tenant,
            tinfo: Arc::clone(&tinfo),
            events,
            submitted_at: Instant::now(),
            prepared: None,
        };
        match self.scheduler.push(job, tinfo.policy.max_queued) {
            Ok(depth) => {
                metrics.submitted.fetch_add(1, Ordering::Relaxed);
                metrics.observe_queue_depth(depth);
                tinfo.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(QuerySession { rx })
            }
            Err(rejection) => Err(self.reject(tenant, Some(&tinfo), rejection)),
        }
    }

    /// Accounts one front-door refusal — the only place a rejection is
    /// counted. Every refusal counts in `rejected`; the shed variants
    /// additionally map 1:1 to their own counter and a stable reason
    /// string (the control-track `Shed` span's `reason`), and charge the
    /// tenant's `shed` count when the tenant is known.
    fn reject(
        &self,
        tenant: TenantId,
        tinfo: Option<&TenantInfo>,
        rejection: Rejection,
    ) -> Rejection {
        let m = &self.state.metrics;
        m.rejected.fetch_add(1, Ordering::Relaxed);
        let shed: Option<(&AtomicU64, &'static str)> = match &rejection {
            Rejection::QueueFull { .. } => Some((&m.shed_queue_full, "queue_full")),
            Rejection::TenantQueueFull { .. } => Some((&m.shed_tenant_queue, "tenant_queue_full")),
            Rejection::TenantBudgetExhausted => Some((&m.shed_tenant_budget, "tenant_budget")),
            Rejection::SubscriptionCapReached => {
                Some((&m.shed_subscription_cap, "subscription_cap"))
            }
            Rejection::UnknownTenant | Rejection::OperatorOnly | Rejection::Closed => None,
        };
        if let Some((counter, reason)) = shed {
            counter.fetch_add(1, Ordering::Relaxed);
            if let Some(tinfo) = tinfo {
                tinfo.shed.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(recorder) = self.state.shared.trace_recorder() {
                recorder.control().instant(SpanKind::Shed {
                    tenant: u64::from(tenant),
                    reason,
                    retry_after_ms: self.state.config.shed_retry_after.as_millis() as u64,
                });
            }
        }
        rejection
    }

    /// Jobs currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.scheduler.depth()
    }

    /// Counts one accepted network connection (the serving edge's
    /// hook into [`MetricsSnapshot::connections`]).
    ///
    /// [`MetricsSnapshot::connections`]: crate::metrics::MetricsSnapshot::connections
    pub(crate) fn note_connection(&self) {
        self.state
            .metrics
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The engine this server executes against.
    pub fn engine(&self) -> &Mdq {
        &self.state.engine
    }

    /// The cross-query shared gateway state (page cache + accounting).
    pub fn shared_state(&self) -> &Arc<SharedServiceState> {
        &self.state.shared
    }

    /// Attaches a fresh span-trace recorder to the shared gateway
    /// state and returns it: from now on every execution registers its
    /// own track recording operator batches, service calls, retries,
    /// cache replays and re-plans, while the server itself records the
    /// control-plane events (optimize, plan-cache probes, admission
    /// batches) on track 0. Export the result with
    /// [`mdq_obs::chrome_trace_json`] or [`mdq_obs::jsonl`]. Without
    /// this call the server records nothing and pays nothing.
    pub fn enable_tracing(&self) -> Arc<TraceRecorder> {
        let recorder = TraceRecorder::new();
        self.state.shared.set_trace(Some(Arc::clone(&recorder)));
        recorder
    }

    /// The recorder attached by [`QueryServer::enable_tracing`], if
    /// any.
    pub fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.state.shared.trace_recorder()
    }

    /// The subscription layer's view of the server internals.
    fn sub_ctx(&self) -> EngineCtx<'_> {
        EngineCtx {
            schema: self.state.engine.schema(),
            registry: self.state.engine.registry(),
            shared: &self.state.shared,
            metrics: &self.state.metrics,
        }
    }

    /// Installs the epoch clock the (refreshing) services drift on and
    /// the per-service TTL policy refresh passes consult. Without this
    /// call subscriptions still work: the server runs a private clock
    /// with a TTL of 1 epoch, and [`QueryServer::refresh`] advances it.
    pub fn attach_refresh(
        &self,
        clock: Arc<mdq_services::refresh::EpochClock>,
        policy: mdq_services::refresh::RefreshPolicy,
    ) {
        self.state.subs.attach(clock, policy);
    }

    /// The current refresh epoch (0 until the first refresh pass).
    pub fn epoch(&self) -> u64 {
        self.state.subs.epoch()
    }

    /// Registers a standing query as `tenant`: resolves the plan
    /// through the same cache/single-flight path ad-hoc queries use,
    /// materializes the initial answers, pins every page the execution
    /// touched, and tracks the invocations for refresh. The returned
    /// ticket carries the subscription id, the epoch and the initial
    /// answers; subsequent [`QueryServer::refresh`] passes queue
    /// incremental [`Delta`]s retrievable with
    /// [`QueryServer::poll_deltas`].
    ///
    /// Subscriptions pass the same admission gates as ad-hoc queries:
    /// a spent tenant budget sheds the registration at the door, the
    /// materializing evaluation runs under the tenant's per-query call
    /// budget, and the tenant's live subscriptions are capped
    /// ([`TenantPolicy::max_subscriptions`], defaulting to
    /// [`RuntimeConfig::max_subscriptions`]). Refusals count in
    /// [`MetricsSnapshot::rejected`] and the shed counters.
    ///
    /// [`TenantPolicy::max_subscriptions`]: crate::tenant::TenantPolicy::max_subscriptions
    /// [`MetricsSnapshot::rejected`]: crate::metrics::MetricsSnapshot::rejected
    pub fn subscribe(
        &self,
        tenant: TenantId,
        text: &str,
        k: Option<u64>,
    ) -> Result<SubscriptionTicket, String> {
        let Some(tinfo) = self.state.tenants.get(tenant) else {
            return Err(self
                .reject(tenant, None, Rejection::UnknownTenant)
                .to_string());
        };
        // same shed-at-the-door rule as `try_submit`: a tenant whose
        // cumulative budget is spent would only burn an evaluation to
        // fail it
        if !self.state.shared.tenant_has_room(tenant) {
            return Err(self
                .reject(tenant, Some(&tinfo), Rejection::TenantBudgetExhausted)
                .to_string());
        }
        let cap = tinfo
            .policy
            .max_subscriptions
            .unwrap_or(self.state.config.max_subscriptions);
        let budget = tinfo
            .policy
            .per_query_call_budget
            .or(self.state.config.call_budget);
        let k = k.unwrap_or(self.state.config.default_k);
        let query = self.state.engine.parse(text).map_err(|e| e.to_string())?;
        let (_key, plan, _hit) = resolve_plan(&self.state, query, k, None)?;
        self.state
            .subs
            .subscribe(&self.sub_ctx(), &plan, k, tenant, cap, budget)
            .map_err(|e| match e {
                SubscribeError::CapReached { active } => format!(
                    "{} ({active} active, cap {cap})",
                    self.reject(tenant, Some(&tinfo), Rejection::SubscriptionCapReached)
                ),
                SubscribeError::Eval(reason) => reason,
            })
    }

    /// Runs one refresh pass: advances the epoch, re-fetches due
    /// tracked invocations once for *all* subscriptions, installs
    /// changed page sets into the shared cache, and re-evaluates
    /// exactly the subscriptions whose frontier intersects the changed
    /// set — queueing each a [`Delta`]. Unaffected subscriptions do
    /// zero work. The pass pipelines its re-fetches and re-evaluations
    /// across [`RuntimeConfig::refresh_workers`] threads; the delta
    /// streams are byte-identical at any worker count.
    pub fn refresh(&self) -> RefreshSummary {
        self.state
            .subs
            .refresh(&self.sub_ctx(), self.state.config.refresh_workers)
    }

    /// [`QueryServer::refresh`] gated for client-triggered use (the
    /// wire `REFRESH` frame): only a tenant whose policy carries the
    /// [`operator`](crate::tenant::TenantPolicy::operator) flag may
    /// run a pass — a refresh re-fetches every tracked invocation for
    /// *all* tenants, far too expensive a lever to hand to anonymous
    /// clients. In-process callers (who already own the server handle)
    /// keep the ungated method.
    pub(crate) fn try_refresh(&self, tenant: TenantId) -> Result<RefreshSummary, Rejection> {
        let Some(tinfo) = self.state.tenants.get(tenant) else {
            return Err(self.reject(tenant, None, Rejection::UnknownTenant));
        };
        if !tinfo.policy.operator {
            return Err(self.reject(tenant, Some(&tinfo), Rejection::OperatorOnly));
        }
        Ok(self.refresh())
    }

    /// Whether `tenant` carries the operator flag (may trigger wire
    /// refreshes and manage any tenant's subscriptions).
    fn is_operator(&self, tenant: TenantId) -> bool {
        self.state
            .tenants
            .get(tenant)
            .is_some_and(|t| t.policy.operator)
    }

    /// Drains the queued deltas of subscription `id` as `tenant`
    /// (`None` = unknown id, or an id the tenant neither owns nor — by
    /// the operator flag — may manage; an empty vec = known but
    /// nothing new since the last poll). The drain is destructive, so
    /// ownership is enforced: sequential ids must not let one tenant
    /// steal another's delta stream.
    pub fn poll_deltas(&self, tenant: TenantId, id: u64) -> Option<Vec<Delta>> {
        self.state.subs.poll(id, tenant, self.is_operator(tenant))
    }

    /// Deregisters subscription `id` as `tenant`, unpinning every page
    /// no other subscription still covers. Returns whether the id was
    /// known *and* owned by `tenant` (operators may deregister any
    /// subscription).
    pub fn unsubscribe(&self, tenant: TenantId, id: u64) -> bool {
        self.state
            .subs
            .unsubscribe(&self.sub_ctx(), id, tenant, self.is_operator(tenant))
    }

    /// The current answers of subscription `id` (rank order) — the
    /// fold target its delta stream reproduces. Tenant-scoped like
    /// [`QueryServer::poll_deltas`].
    pub fn subscription_answers(&self, tenant: TenantId, id: u64) -> Option<Vec<Tuple>> {
        self.state
            .subs
            .answers(id, tenant, self.is_operator(tenant))
    }

    /// Live subscriptions.
    pub fn subscriptions_active(&self) -> u64 {
        self.state.subs.active()
    }

    /// Samples the server's metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let tenants = self
            .state
            .tenants
            .all()
            .into_iter()
            .enumerate()
            .map(|(id, t)| {
                let id = id as TenantId;
                t.snapshot(id, self.state.shared.tenant_calls(id))
            })
            .collect();
        self.state.metrics.snapshot(
            &self.state.shared,
            self.state.engine.schema(),
            self.scheduler.depth(),
            tenants,
        )
    }

    /// Stops accepting submissions, drains the queue and joins the
    /// workers (in-flight and queued queries complete — a graceful
    /// drain, not an abort). Called automatically on drop; explicit
    /// calls make the drain point visible in calling code.
    pub fn shutdown(&self) {
        self.scheduler.close();
        for handle in recover(self.workers.lock()).drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The admission batcher: drains the scheduler into batches — the first
/// arrival opens a batch, further arrivals join until the window
/// elapses or the batch is full (while workers are busy, queued
/// submissions join naturally) — plans each batch as a unit and
/// forwards the prepared jobs to the worker pool. Because jobs come off
/// the scheduler, batch membership inherits its round-robin fairness:
/// one flooding tenant cannot fill every batch.
fn batch_loop(
    state: &Arc<ServerState>,
    sched: &Scheduler,
    tx: mpsc::Sender<Job>,
    window: std::time::Duration,
    max: usize,
) {
    loop {
        let first = match sched.pop() {
            Some(job) => job,
            None => return, // scheduler closed and drained: shutdown
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + window;
        while batch.len() < max {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match sched.pop_timeout(deadline - now) {
                Pop::Job(job) => batch.push(*job),
                Pop::TimedOut => break, // window elapsed
                Pop::Closed => break,   // drain: plan what we have
            }
        }
        state.metrics.observe_batch_size(batch.len());
        for job in plan_batch(state, batch) {
            if tx.send(job).is_err() {
                return; // every worker died
            }
        }
    }
}

/// The view of already-materialized work a plan is priced (and a
/// discounted cache entry revalidated) against: the sub-result store
/// plus, while a batch is being planned, the prefixes of members planned
/// earlier in that very batch (they *will* be materialized by the time
/// a later member executes — single-flight makes exactly one member pay).
struct BatchOracle<'a> {
    shared: &'a SharedServiceState,
    batch: Option<&'a HashSet<SubplanSignature>>,
}

impl SharedWorkOracle for BatchOracle<'_> {
    fn is_materialized(&self, sig: SubplanSignature) -> bool {
        self.batch.is_some_and(|b| b.contains(&sig)) || self.shared.is_materialized(sig)
    }
}

/// Plans every member of a batch and returns the jobs to forward: each
/// member is parsed and resolved through [`resolve_plan`] under the
/// batch's shared-work oracle, then cross-member overlap detection
/// runs — a member whose invoke prefix matches another member's (or
/// already-materialized work) is a *shared-prefix hit* and the only
/// kind of member told to materialize. Members that fail to resolve
/// fail their session right here (counted exactly once); parse failures
/// are forwarded unprepared and surface through the worker's ordinary
/// path.
///
/// With adaptivity enabled the batch is planned *standalone* and
/// nothing is flagged: the adaptive executor re-prices plans mid-flight
/// and never replays sub-results, so a shared-work discount would steer
/// it toward savings it cannot collect (materialized pages still replay
/// through the shared page cache either way).
fn plan_batch(state: &Arc<ServerState>, batch: Vec<Job>) -> Vec<Job> {
    let sharing = state.config.adaptive.is_none();
    let members = batch.len() as u64;
    let mut seen: HashSet<SubplanSignature> = HashSet::new();
    // signatures per forwarded job, for the second (overlap-marking) pass
    let mut member_sigs: Vec<Vec<SubplanSignature>> = Vec::with_capacity(batch.len());
    let mut out: Vec<Job> = Vec::with_capacity(batch.len());
    for mut job in batch {
        let Ok(query) = state.engine.parse(&job.text) else {
            member_sigs.push(Vec::new());
            out.push(job); // the worker re-parses and fails the session
            continue;
        };
        match resolve_plan(state, query, job.k, sharing.then_some(&seen)) {
            Ok((key, plan, plan_cache_hit)) => {
                let sigs: Vec<SubplanSignature> = if sharing {
                    invoke_prefixes(&plan).iter().map(|p| p.signature).collect()
                } else {
                    Vec::new()
                };
                seen.extend(&sigs);
                member_sigs.push(sigs);
                job.prepared = Some(Prepared {
                    plan,
                    key,
                    plan_cache_hit,
                    shared_prefix: false, // marked in the second pass
                });
                out.push(job);
            }
            Err(reason) => {
                // fail the session here — the worker must not resolve
                // (and count) the template a second time
                state.metrics.failed.fetch_add(1, Ordering::Relaxed);
                job.tinfo.failed.fetch_add(1, Ordering::Relaxed);
                let _ = job.events.send(SessionEvent::Failed(reason));
            }
        }
    }
    // second pass: a member shares a prefix when any of its signatures
    // occurs in another member, was admitted by an earlier batch, or is
    // already materialized in the store — only those members are told
    // to materialize (paying the eager drain for a prefix nobody else
    // wants is the classic MQO anti-pattern). A standalone-planned
    // (adaptive) batch carries no signatures and flags nothing.
    let mut counts: HashMap<SubplanSignature, usize> = HashMap::new();
    for s in member_sigs.iter().flatten() {
        *counts.entry(*s).or_insert(0) += 1;
    }
    let mut admitted = recover(state.admitted_prefixes.lock());
    let mut flagged = 0u64;
    for (job, sigs) in out.iter_mut().zip(&member_sigs) {
        let Some(prepared) = job.prepared.as_mut() else {
            continue;
        };
        prepared.shared_prefix = sigs
            .iter()
            .any(|s| counts[s] > 1 || admitted.contains(s) || state.shared.is_materialized(*s));
        flagged += u64::from(prepared.shared_prefix);
    }
    if admitted.len() > ADMITTED_PREFIX_CAP {
        admitted.clear();
    }
    admitted.extend(member_sigs.iter().flatten());
    state
        .metrics
        .shared_prefix_hits
        .fetch_add(flagged, Ordering::Relaxed);
    if let Some(recorder) = state.shared.trace_recorder() {
        recorder.control().instant(SpanKind::AdmissionBatch {
            members,
            shared_prefix_hits: flagged,
        });
    }
    out
}

/// The one optimizer configuration the server prices under — a cold
/// resolve and a mid-flight re-plan must agree on it.
fn serving_config(state: &ServerState, k: u64) -> OptimizerConfig {
    OptimizerConfig {
        k,
        cache: state.config.cache,
        ..OptimizerConfig::default()
    }
}

/// Template → plan, for every caller: workers, the admission batcher
/// and `subscribe`. Probes the plan cache through the resolver
/// (single-flight, failed memo, discounted-entry revalidation) and
/// optimizes on a miss; counts the hit / miss / optimizer run / memo
/// hit and records the control-track spans. Returns `(key, plan,
/// plan_cache_hit)`.
///
/// `batch_seen` is the admission batcher's running set of prefixes its
/// earlier members will materialize: with it the miss is priced under
/// the batch's shared-work oracle (`optimize_shared`) and cached with
/// the discount *recorded* — a plan chosen under a transient discount
/// must not silently become the template's durable plan, the cache
/// being keyed by `(fingerprint, k)` alone and outliving the
/// materialization. Without it nothing is shared and nothing is signed:
/// plain `optimize`.
fn resolve_plan(
    state: &ServerState,
    query: ConjunctiveQuery,
    k: u64,
    batch_seen: Option<&HashSet<SubplanSignature>>,
) -> Result<(PlanKey, Arc<Plan>, bool), String> {
    let key = (fingerprint(&query), k);
    let metrics = &state.metrics;
    let ctl = state.shared.trace_recorder().map(|r| r.control());
    let oracle = BatchOracle {
        shared: &state.shared,
        batch: batch_seen,
    };
    let live = |plan: &Plan| {
        invoke_prefixes(plan)
            .iter()
            .any(|p| oracle.is_materialized(p.signature))
    };
    let optimize = || {
        metrics.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
        metrics
            .optimizer_invocations
            .fetch_add(1, Ordering::Relaxed);
        if let Some(ctl) = &ctl {
            ctl.instant(SpanKind::PlanCacheMiss {
                fingerprint: key.0 .0,
            });
        }
        let config = serving_config(state, k);
        let opt_started = Instant::now();
        let engine = &state.engine;
        let optimized = match batch_seen {
            Some(_) => engine.optimize_shared(query, &ExecutionTime, config, &oracle),
            None => engine.optimize(query, &ExecutionTime, config),
        };
        if let Some(ctl) = &ctl {
            // control-plane spans measure real optimizer work, so
            // track 0 runs on wall seconds
            ctl.record(SpanKind::Optimize, opt_started.elapsed().as_secs_f64());
        }
        let plan = Arc::new(optimized.map_err(|e| e.to_string())?.candidate.plan);
        let discounted = batch_seen.is_some() && live(&plan);
        Ok((plan, discounted))
    };
    match state.plans.resolve(key, live, optimize) {
        Resolution::Hit(plan) => {
            metrics.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            if let Some(ctl) = &ctl {
                ctl.instant(SpanKind::PlanCacheHit {
                    fingerprint: key.0 .0,
                });
            }
            Ok((key, plan, true))
        }
        Resolution::Optimized(plan) => Ok((key, plan, false)),
        Resolution::Failed(reason) => Err(reason),
        Resolution::FailedBefore(reason) => {
            metrics
                .plan_failed_memo_hits
                .fetch_add(1, Ordering::Relaxed);
            Err(reason)
        }
    }
}

/// One query, start to finish, on a worker thread: parse → plan-cache
/// probe (miss: optimize + insert) → pull-based execution over the
/// shared gateway state, streaming each answer to the session.
fn process(state: &ServerState, job: Job) {
    let started = Instant::now();
    state
        .metrics
        .observe_queue_wait(job.submitted_at.elapsed().as_secs_f64());
    let fail = |reason: String| {
        state.metrics.failed.fetch_add(1, Ordering::Relaxed);
        job.tinfo.failed.fetch_add(1, Ordering::Relaxed);
        let _ = job.events.send(SessionEvent::Failed(reason));
    };

    // prepared by the admission batcher, or resolved here (parse →
    // plan-cache probe with single-flight → optimize on a miss). A
    // batched query materializes sub-results only when the batcher saw
    // its prefix overlap; without batching every query is opportunistic
    let (key, plan, plan_cache_hit, shared_prefix, materialize) = match job.prepared {
        Some(p) => (
            p.key,
            p.plan,
            p.plan_cache_hit,
            p.shared_prefix,
            p.shared_prefix,
        ),
        None => {
            let resolved = state
                .engine
                .parse(&job.text)
                .map_err(|e| e.to_string())
                .and_then(|query| resolve_plan(state, query, job.k, None));
            match resolved {
                Ok((key, plan, plan_cache_hit)) => (key, plan, plan_cache_hit, false, true),
                Err(reason) => return fail(reason),
            }
        }
    };

    // the tenant's per-query budget override wins over the server-wide
    // default; forwarded calls are charged to the tenant's cumulative
    // budget cell inside the gateway either way
    let call_budget = job
        .tinfo
        .policy
        .per_query_call_budget
        .or(state.config.call_budget);
    // the pull engine: frozen by default; with an [`AdaptiveConfig`]
    // it checks observed-vs-estimated statistics at answer boundaries
    // and splices re-optimized plans in mid-flight. The re-planner
    // consults the shared state as its shared-work oracle: a splice
    // prefers suffix plans whose invoke prefix is already materialized
    let mut adaptive = state.config.adaptive.map(|cfg| {
        let replanner = state
            .engine
            .replanner(&ExecutionTime, serving_config(state, job.k))
            .with_oracle(Arc::clone(&state.shared) as Arc<_>);
        (cfg, replanner)
    });
    let ctx = ExecContext {
        budget: call_budget,
        tenant: Some(job.tenant),
        materialize,
        adaptive: adaptive
            .as_mut()
            .map(|(cfg, replanner)| (*cfg, replanner as &mut dyn Replanner)),
        ..ExecContext::shared(Arc::clone(&state.shared))
    };
    let mut exec =
        match TopKExecution::start(&plan, state.engine.schema(), state.engine.registry(), ctx) {
            Ok(exec) => exec,
            Err(e) => return fail(e.to_string()),
        };
    // the execution registered its own trace track (if a recorder is
    // attached): bracket it with the query's correlation id
    let query_trace = exec.trace();
    if let Some(t) = &query_trace {
        t.instant(SpanKind::QueryStart {
            fingerprint: key.0 .0,
        });
    }
    let mut produced = 0u64;
    while produced < job.k {
        match exec.next_answer() {
            Some(answer) => {
                produced += 1;
                if job.events.send(SessionEvent::Answer(answer)).is_err() {
                    break; // session dropped: stop pulling (cancellation)
                }
            }
            None => break,
        }
    }
    if let Some(t) = &query_trace {
        t.instant(SpanKind::QueryDone { answers: produced });
    }
    // the execution's ledger, read in place: calls, latency and faults
    // all from the same instant
    let (faults, forwarded_calls, forwarded_latency) =
        exec.read_ledger(|l| (l.total_faults(), l.total_calls(), l.total_latency()));
    let error = exec.error();
    let partial = exec.partial_results();
    let replans = exec.replans();
    // (a re-planning execution runs its own chain, so these stay 0)
    let sub_result_hits = exec.sub_result_hits();
    let sub_result_calls_saved = exec.sub_result_calls_saved();
    // sub-result attribution happens success or fail, like faults: the
    // store counted the replay when the execution was built, and the
    // server counters must reconcile with it exactly
    state
        .metrics
        .sub_result_hits
        .fetch_add(sub_result_hits, Ordering::Relaxed);
    state
        .metrics
        .sub_result_calls_saved
        .fetch_add(sub_result_calls_saved, Ordering::Relaxed);
    if let Some(err) = error {
        // even a failed query attributes its fault accounting, so the
        // server counters reconcile with the shared gateway state
        state.metrics.observe_faults(&faults, false);
        return fail(err.to_string());
    }
    // re-plans are attributed on completion only — failed queries emit
    // no QueryStats, and the server counter must reconcile exactly with
    // the summed per-query replans
    state
        .metrics
        .replans
        .fetch_add(replans as u64, Ordering::Relaxed);
    // a query that re-planned found a better plan for its template:
    // publish it under the same fingerprint so the next submission
    // starts from the corrected plan instead of the stale one
    if let Some(spliced) = exec.spliced_plan() {
        state.plans.republish(key, Arc::new(spliced.clone()));
    }
    // degraded services don't fail the query: the session completes
    // with partial results naming them
    state.metrics.observe_faults(&faults, partial.is_some());

    let wall = started.elapsed().as_secs_f64();
    state.metrics.completed.fetch_add(1, Ordering::Relaxed);
    job.tinfo.completed.fetch_add(1, Ordering::Relaxed);
    state.metrics.observe_latency(wall);
    let _ = job.events.send(SessionEvent::Done(QueryStats {
        tenant: job.tenant,
        plan_cache_hit,
        forwarded_calls,
        forwarded_latency,
        wall_seconds: wall,
        retries: faults.retries,
        timeouts: faults.timeouts,
        replans,
        shared_prefix_hit: shared_prefix,
        sub_result_hits,
        sub_result_calls_saved,
        degraded_services: partial
            .map(|p| p.degraded.into_iter().map(|d| d.service).collect())
            .unwrap_or_default(),
        epoch: state.subs.epoch(),
    }));
}

#[cfg(test)]
impl QueryServer {
    /// Plans currently held by the plan cache.
    fn cached_plans(&self) -> usize {
        self.state.plans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_services::domains::news::news_world;
    use mdq_services::domains::travel::travel_world;

    const NEWS_QUERY: &str = "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                              lowcost('Milano', City, Price), Price <= 60.0.";

    fn travel_engine() -> Mdq {
        let w = travel_world(2008);
        Mdq::from_world(World {
            schema: w.schema,
            query: w.query,
            registry: w.registry,
        })
    }

    const TRAVEL_QUERY: &str = "q(Conf, City, HPrice, FPrice, Hotel) :- \
         flight('Milano', City, Start, End, ST, ET, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temp, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temp >= 28, FPrice + HPrice < 2000.";

    #[test]
    fn serves_answers_and_counts_metrics() {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        let result = server.submit(NEWS_QUERY, Some(5)).collect().expect("runs");
        assert!(!result.answers.is_empty());
        assert!(!result.stats.plan_cache_hit, "first submission optimizes");
        let m = server.metrics();
        assert_eq!((m.submitted, m.completed, m.failed), (1, 1, 0));
        assert_eq!(m.optimizer_invocations, 1);
        assert!(m.total_service_calls > 0);
    }

    #[test]
    fn repeated_shape_hits_the_plan_cache() {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        let first = server.submit(NEWS_QUERY, Some(5)).collect().expect("runs");
        // alpha-renamed + reordered predicate: same fingerprint
        let renamed = "q(Town, Where, Cost) :- events('mahler-2', Town, Where, Day), \
                       lowcost('Milano', Town, Cost), Cost <= 60.0.";
        let second = server.submit(renamed, Some(5)).collect().expect("runs");
        assert!(second.stats.plan_cache_hit, "renamed query reuses the plan");
        assert_eq!(first.answers, second.answers);
        let m = server.metrics();
        assert_eq!(m.optimizer_invocations, 1, "optimizer ran once");
        assert_eq!(m.plan_cache_hits, 1);
        assert_eq!(server.cached_plans(), 1);
    }

    #[test]
    fn different_k_is_a_different_plan() {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        server.submit(NEWS_QUERY, Some(3)).collect().expect("runs");
        let other_k = server.submit(NEWS_QUERY, Some(5)).collect().expect("runs");
        assert!(!other_k.stats.plan_cache_hit, "fetch factors depend on k");
        assert_eq!(server.metrics().optimizer_invocations, 2);
    }

    #[test]
    fn parse_errors_fail_the_session() {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        let err = server
            .submit("q(X) :- nosuch(X).", None)
            .collect()
            .expect_err("bad query");
        assert!(err.to_string().contains("query failed"));
        let m = server.metrics();
        assert_eq!((m.submitted, m.failed), (1, 1));
    }

    #[test]
    fn call_budget_rejects_expensive_queries() {
        let server = QueryServer::new(
            travel_engine(),
            RuntimeConfig {
                call_budget: Some(3),
                ..RuntimeConfig::default()
            },
        );
        let err = server
            .submit(TRAVEL_QUERY, Some(10))
            .collect()
            .expect_err("budget of 3 cannot cover the travel query");
        assert!(
            err.to_string().contains("budget"),
            "admission-control error: {err}"
        );
        assert_eq!(server.metrics().failed, 1);
    }

    const CATALOG_QUERY: &str = "q(Item, Part, Vendor, Price) :- seed('widgets', Item), \
         parts(Item, Part), offers(Part, Vendor, Price), Price <= 100.0.";

    fn adaptive_config() -> RuntimeConfig {
        RuntimeConfig {
            adaptive: Some(AdaptiveConfig::default()),
            workers: 1,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn adaptive_server_replans_and_publishes_the_better_plan() {
        let c = mdq_services::domains::catalog::catalog_world(true);
        let server = QueryServer::new(Mdq::from_world(c.world), adaptive_config());
        let first = server
            .submit(CATALOG_QUERY, Some(10))
            .collect()
            .expect("runs");
        assert!(
            first.stats.replans >= 1,
            "the mis-estimate forces a re-plan"
        );
        let m = server.metrics();
        assert_eq!(m.replans, first.stats.replans as u64, "metrics reconcile");
        assert_eq!(server.cached_plans(), 1, "the corrected plan is published");

        // the re-submitted template starts from the corrected plan: a
        // plan-cache hit, zero further re-plans (its pages replay from
        // the shared cache, which is no observation at all), and the
        // same answers
        let second = server
            .submit(CATALOG_QUERY, Some(10))
            .collect()
            .expect("runs");
        assert!(second.stats.plan_cache_hit);
        assert_eq!(second.stats.replans, 0);
        assert_eq!(first.answers, second.answers);
        assert_eq!(
            server.metrics().replans,
            (first.stats.replans + second.stats.replans) as u64,
            "summed per-query replans reconcile with the server counter"
        );
    }

    #[test]
    fn adaptive_server_is_quiet_on_truthful_estimates() {
        let c = mdq_services::domains::catalog::catalog_world(false);
        let server = QueryServer::new(Mdq::from_world(c.world), adaptive_config());
        let result = server
            .submit(CATALOG_QUERY, Some(10))
            .collect()
            .expect("runs");
        assert_eq!(result.stats.replans, 0, "no divergence, no re-plan");
        assert_eq!(server.metrics().replans, 0);
    }

    #[test]
    fn frozen_server_reports_zero_replans() {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        let result = server.submit(NEWS_QUERY, Some(5)).collect().expect("runs");
        assert_eq!(result.stats.replans, 0);
        assert_eq!(server.metrics().replans, 0);
    }

    #[test]
    fn adaptive_replan_under_faults_counts_retries_once() {
        use mdq_services::fault::{FaultConfig, FaultProfile};
        let mut c = mdq_services::domains::catalog::catalog_world(true);
        for id in [c.ids.seed, c.ids.parts, c.ids.offers] {
            let inner = c.world.registry.get(id).expect("registered").clone();
            let cfg = FaultConfig::seeded(0x5EED ^ id.0 as u64)
                .with_errors(0.08)
                .with_timeouts(0.04);
            c.world
                .registry
                .register(id, FaultProfile::seeded(inner, cfg));
        }
        let server = QueryServer::new(Mdq::from_world(c.world), adaptive_config());
        let result = server
            .submit(CATALOG_QUERY, Some(10))
            .collect()
            .expect("runs despite faults");
        assert!(result.stats.replans >= 1, "degraded observations re-plan");
        // a single query on a fresh server: its attributed retries must
        // equal the shared gateway's cumulative count exactly — a retry
        // spent before the splice is never re-counted after it
        let shared = server.shared_state().total_fault_stats();
        assert_eq!(result.stats.retries, shared.retries);
        assert_eq!(server.metrics().retries, shared.retries);
        assert_eq!(result.stats.timeouts, shared.timeouts);
    }

    #[test]
    fn submit_after_shutdown_fails_cleanly() {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        server.shutdown();
        let err = server
            .submit(NEWS_QUERY, None)
            .collect()
            .expect_err("server is down");
        assert!(err.to_string().contains("shut down"), "{err}");
    }

    fn batching_config() -> RuntimeConfig {
        RuntimeConfig {
            sub_results: 16,
            batch_window: Some(std::time::Duration::from_millis(5)),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn batched_unoptimizable_query_fails_once_and_counts_once() {
        // parseable but not executable (weather alone has no permissible
        // pattern): the batcher must fail the session itself, without a
        // second optimizer run or double-counted metrics in the worker
        let server = QueryServer::new(travel_engine(), batching_config());
        let err = server
            .submit("q(City) :- weather(City, Temp, Day).", Some(5))
            .collect()
            .expect_err("not executable");
        assert!(err.to_string().contains("not executable"), "{err}");
        let m = server.metrics();
        assert_eq!((m.submitted, m.failed, m.completed), (1, 1, 0));
        assert_eq!(m.optimizer_invocations, 1, "optimized exactly once");
        assert_eq!(m.plan_cache_misses, 1);
        // batched parse failures still surface through the worker path
        let err = server
            .submit("q(X) :- nosuch(X).", Some(5))
            .collect()
            .expect_err("parse error");
        assert!(err.to_string().contains("query failed"), "{err}");
        assert_eq!(server.metrics().failed, 2);
    }

    #[test]
    fn adaptive_batches_plan_standalone_and_flag_nothing() {
        // with adaptivity on, the adaptive executor never replays
        // sub-results, so the batcher must not flag shared prefixes
        // (nor optimize under a discount it cannot realize)
        let c = mdq_services::domains::catalog::catalog_world(false);
        let server = QueryServer::new(
            Mdq::from_world(c.world),
            RuntimeConfig {
                adaptive: Some(AdaptiveConfig::default()),
                ..batching_config()
            },
        );
        let sessions: Vec<_> = (0..4)
            .map(|_| server.submit(CATALOG_QUERY, Some(5)))
            .collect();
        for s in sessions {
            s.collect().expect("runs");
        }
        let m = server.metrics();
        assert_eq!(m.completed, 4);
        assert_eq!(m.shared_prefix_hits, 0, "adaptive batches flag nothing");
        assert_eq!(m.sub_result_hits, 0, "the adaptive path never replays");
    }

    #[test]
    fn shutdown_rejection_counts_rejected_not_submitted() {
        // the regression this pins: `submit` used to bump `submitted`
        // before the shutdown check, so every refusal broke the
        // submitted = completed + failed + in-flight reconciliation
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        server.shutdown();
        let err = server
            .submit(NEWS_QUERY, None)
            .collect()
            .expect_err("server is down");
        assert!(err.to_string().contains("shut down"), "{err}");
        let m = server.metrics();
        assert_eq!(m.submitted, 0, "a refusal is not a submission");
        assert_eq!(m.failed, 0, "nor a failed query");
        assert_eq!(m.rejected, 1, "it counts in its own counter");
    }

    #[test]
    fn queue_bound_sheds_with_retry_after() {
        let server = QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 1,
                max_queue_depth: 1,
                ..RuntimeConfig::default()
            },
        );
        // exhaust the bound quickly; at least one push must shed (the
        // worker drains, so exact counts depend on timing)
        let sessions: Vec<_> = (0..32)
            .map(|_| server.try_submit(DEFAULT_TENANT, NEWS_QUERY, Some(3)))
            .collect();
        let shed = sessions.iter().filter(|s| s.is_err()).count() as u64;
        assert!(shed > 0, "a depth-1 queue cannot absorb 32 instant pushes");
        for s in sessions.into_iter().flatten() {
            s.collect().expect("admitted queries complete");
        }
        let m = server.metrics();
        assert_eq!(m.rejected, shed);
        assert_eq!(m.shed_queue_full, shed);
        assert_eq!(m.submitted, 32 - shed);
        assert_eq!(m.completed, 32 - shed, "admitted work all completed");
        // refill until we catch a live rejection to inspect
        let rejection = loop {
            match server.try_submit(DEFAULT_TENANT, NEWS_QUERY, Some(3)) {
                Err(r) => break r,
                Ok(_) => continue,
            }
        };
        match rejection {
            Rejection::QueueFull { retry_after } => {
                assert_eq!(retry_after, server.state.config.shed_retry_after);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn unoptimizable_template_is_memoized_for_waiters_and_repeats() {
        // satellite 3: the single-flight claim owner publishes the
        // optimizer error before releasing the claim, so concurrent
        // waiters wake into the error — and later submissions hit the
        // memo without re-running the optimizer
        let server = QueryServer::new(
            travel_engine(),
            RuntimeConfig {
                workers: 4,
                ..RuntimeConfig::default()
            },
        );
        let unoptimizable = "q(City) :- weather(City, Temp, Day).";
        let sessions: Vec<_> = (0..8)
            .map(|_| server.submit(unoptimizable, Some(5)))
            .collect();
        for s in sessions {
            let err = s.collect().expect_err("not executable");
            assert!(err.to_string().contains("not executable"), "{err}");
        }
        let m = server.metrics();
        assert_eq!((m.submitted, m.failed), (8, 8));
        assert_eq!(m.optimizer_invocations, 1, "one optimizer run for all 8");
        assert_eq!(
            m.plan_failed_memo_hits, 7,
            "waiters and repeats hit the failure memo"
        );
    }

    #[test]
    fn direct_and_batched_admission_share_the_resolver_and_the_counts() {
        // the same sequential script — 8 templates submitted twice, one
        // of them unoptimizable — through a direct server and through
        // the admission batcher (sub-result store off, so no discount
        // can differ): both modes resolve through the one
        // `resolve_plan`, so answers and plan counters must be identical
        let mut script: Vec<String> = (0..7)
            .map(|i| TRAVEL_QUERY.replace("< 2000", &format!("< {}", 2000 + i)))
            .collect();
        script.push("q(City) :- weather(City, Temp, Day).".to_string());
        let run = |config: RuntimeConfig| {
            let server = QueryServer::new(travel_engine(), config);
            let outcomes: Vec<Result<Vec<Tuple>, String>> = script
                .iter()
                .chain(&script)
                .map(|text| {
                    server
                        .submit(text, Some(5))
                        .collect()
                        .map(|r| r.answers)
                        .map_err(|e| e.to_string())
                })
                .collect();
            let m = server.metrics();
            let counts = (
                m.plan_cache_hits,
                m.plan_cache_misses,
                m.optimizer_invocations,
                m.plan_failed_memo_hits,
                m.failed,
            );
            (outcomes, counts)
        };
        let (direct, direct_counts) = run(RuntimeConfig::default());
        let (batched, batched_counts) = run(RuntimeConfig {
            sub_results: 0,
            ..batching_config()
        });
        assert_eq!(direct_counts, (7, 8, 8, 1, 2));
        assert_eq!(batched_counts, direct_counts);
        assert_eq!(batched, direct);
        assert!(direct[..7].iter().all(|o| o.is_ok()));
        assert!(direct[7]
            .as_ref()
            .is_err_and(|e| e.contains("not executable")));
    }

    #[test]
    fn unknown_tenant_refusals_count_rejected_once_and_shed_nothing() {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        let nobody: TenantId = 4242;
        let rejected = |server: &QueryServer| {
            let m = server.metrics();
            let shed = m.shed_queue_full
                + m.shed_tenant_queue
                + m.shed_tenant_budget
                + m.shed_subscription_cap;
            (m.rejected, shed, m.submitted)
        };
        assert!(matches!(
            server.try_submit(nobody, NEWS_QUERY, Some(3)),
            Err(Rejection::UnknownTenant)
        ));
        assert_eq!(rejected(&server), (1, 0, 0));
        let err = server
            .subscribe(nobody, NEWS_QUERY, Some(3))
            .expect_err("refused");
        assert_eq!(err, Rejection::UnknownTenant.to_string());
        assert_eq!(rejected(&server), (2, 0, 0));
        assert!(matches!(
            server.try_refresh(nobody),
            Err(Rejection::UnknownTenant)
        ));
        assert_eq!(rejected(&server), (3, 0, 0));
    }

    /// Builds a queued job for scheduler-order tests (nothing ever
    /// executes it).
    fn probe_job(text: &str, tenant: TenantId, tinfo: Arc<TenantInfo>) -> Job {
        let (events, _rx) = mpsc::channel();
        std::mem::forget(_rx); // keep the channel open; the job is inert
        Job {
            text: text.to_string(),
            k: 1,
            tenant,
            tinfo,
            events,
            submitted_at: Instant::now(),
            prepared: None,
        }
    }

    #[test]
    fn scheduler_round_robins_across_tenants() {
        // structural fairness: a tenant that floods its queue is served
        // one-for-one against a tenant that queued a single job — the
        // light tenant's job comes out second, not behind the flood
        let tenants = TenantRegistry::new();
        let flooder = tenants.register("flooder", TenantPolicy::default());
        let light = tenants.register("light", TenantPolicy::default());
        let sched = Scheduler::new(0, Duration::from_millis(50));
        for i in 0..8 {
            let job = probe_job(
                &format!("flood {i}"),
                flooder,
                tenants.get(flooder).unwrap(),
            );
            assert!(sched.push(job, 0).is_ok(), "unbounded push");
        }
        assert!(
            sched
                .push(probe_job("light", light, tenants.get(light).unwrap()), 0)
                .is_ok(),
            "unbounded push"
        );
        let order: Vec<TenantId> = (0..9)
            .map(|_| sched.pop().expect("queued").tenant)
            .collect();
        assert_eq!(order[0], flooder, "the flood got there first");
        assert_eq!(order[1], light, "round-robin serves the light tenant next");
        assert!(order[2..].iter().all(|&t| t == flooder));
        assert_eq!(sched.depth(), 0);
        // a per-tenant bound sheds the flooder while the light tenant
        // still gets in
        let bounded = Scheduler::new(0, Duration::from_millis(50));
        assert!(
            bounded
                .push(probe_job("a", flooder, tenants.get(flooder).unwrap()), 1)
                .is_ok(),
            "first fits"
        );
        match bounded.push(probe_job("b", flooder, tenants.get(flooder).unwrap()), 1) {
            Err(Rejection::TenantQueueFull { .. }) => {}
            Err(other) => panic!("expected the tenant bound to shed, got {other}"),
            Ok(_) => panic!("expected the tenant bound to shed, got admission"),
        }
        assert!(
            bounded
                .push(probe_job("c", light, tenants.get(light).unwrap()), 1)
                .is_ok(),
            "other tenants unaffected"
        );
    }

    #[test]
    fn tenant_snapshots_reconcile_end_to_end() {
        let server = QueryServer::from_world(
            news_world(),
            RuntimeConfig {
                workers: 2,
                ..RuntimeConfig::default()
            },
        );
        let flooder = server.register_tenant("flooder", TenantPolicy::default());
        let light = server.register_tenant("light", TenantPolicy::default());
        let flood: Vec<_> = (0..12)
            .map(|_| {
                server
                    .try_submit(flooder, NEWS_QUERY, Some(3))
                    .expect("admitted")
            })
            .collect();
        let quick = server
            .try_submit(light, NEWS_QUERY, Some(3))
            .expect("admitted");
        let result = quick.collect().expect("light tenant completes");
        assert_eq!(result.stats.tenant, light);
        for s in flood {
            s.collect().expect("flooded queries complete");
        }
        let m = server.metrics();
        let f = m.tenants.iter().find(|t| t.name == "flooder").unwrap();
        let l = m.tenants.iter().find(|t| t.name == "light").unwrap();
        assert_eq!((f.submitted, f.completed, f.failed, f.shed), (12, 12, 0, 0));
        assert_eq!((l.submitted, l.completed), (1, 1));
        // every execution ran tenanted, so the per-tenant budget cells
        // account for every forwarded call (whichever tenant's
        // execution won the cache races and did the forwarding)
        let charged: u64 = m.tenants.iter().map(|t| t.forwarded_calls).sum();
        assert!(charged > 0, "someone forwarded the first fetches");
        assert_eq!(
            charged, m.total_service_calls,
            "tenant budget cells reconcile with the gateway call accounting"
        );
        assert_eq!(
            m.submitted,
            m.tenants.iter().map(|t| t.submitted).sum::<u64>(),
            "per-tenant submissions sum to the global counter"
        );
    }

    /// A service that panics on every fetch — the worker-pool
    /// resilience probe.
    struct PanickingService;

    impl mdq_services::service::Service for PanickingService {
        fn name(&self) -> &str {
            "lowcost"
        }
        fn fetch(
            &self,
            _pattern: usize,
            _inputs: &[mdq_model::value::Value],
            _page: u32,
        ) -> mdq_services::service::ServiceResponse {
            panic!("injected service panic");
        }
    }

    #[test]
    fn worker_pool_survives_a_panicking_job() {
        // satellite 2: one panicking job must fail its own session and
        // nothing else — no dead worker, no poisoned-lock cascade into
        // later queries
        let mut world = news_world();
        let id = world
            .schema
            .service_by_name("lowcost")
            .expect("news world has lowcost");
        world.registry.register(id, PanickingService);
        let server = QueryServer::from_world(
            world,
            RuntimeConfig {
                workers: 1,
                ..RuntimeConfig::default()
            },
        );
        let err = server
            .submit(NEWS_QUERY, Some(3))
            .collect()
            .expect_err("the panicking service fails the query");
        assert!(err.to_string().contains("panicked"), "{err}");
        let m = server.metrics();
        assert_eq!(m.worker_panics, 1);
        assert_eq!((m.submitted, m.failed), (1, 1));
        // the single worker survived: a query avoiding the broken
        // service still completes
        let events_only = "q(City, Venue) :- events('mahler-2', City, Venue, D).";
        let result = server
            .submit(events_only, Some(3))
            .collect()
            .expect("the pool still serves");
        assert!(!result.answers.is_empty());
        assert_eq!(server.metrics().completed, 1);
    }
}
