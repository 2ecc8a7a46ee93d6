//! The service gateway — the *single* invocation path of the engine.
//!
//! Both drivers (stage-materialised, pull-based top-k) drive their
//! service calls through one [`ServiceGateway`]. The gateway owns:
//!
//! * **registry lookup** — runtime services are resolved once, up front,
//!   so a missing registration surfaces as
//!   [`ExecError::MissingService`] before any call is made;
//! * **paging** — page requests are forwarded in order and accounted as
//!   individual request-responses (the unit of every cost metric), and
//!   runs of already-cached pages are served in one batched probe
//!   ([`ServiceGateway::fetch_page_run`]) so the batched operator
//!   kernel pays one lock acquisition per run, not per tuple;
//! * **admission control** — an optional per-query *call budget*: once a
//!   query has forwarded that many request-responses, further fetches are
//!   refused and the execution fails with
//!   [`ExecError::CallBudgetExhausted`].
//!
//! * **resilience** — services may fault
//!   ([`ServiceFault`]): the
//!   gateway retries each page under a per-service [`RetryPolicy`]
//!   (bounded attempts, deterministic backoff accounting in simulated
//!   seconds, call-budget aware), and when retries exhaust it *degrades*
//!   the page instead of failing the query — the execution completes
//!   with [`PartialResults`] naming the degraded services and their
//!   [`FaultStats`].
//!
//! Cache and accounting live one level down, in a [`SharedServiceState`]
//! — but no longer behind one mutex. The shared state is **partitioned**
//! so concurrent executions stop serializing each other:
//!
//! * the §5.1 [`PageCache`] is split into independently locked *shards*,
//!   routed by `(service, input-key)` hash; single-flight page
//!   deduplication and the failed-page memo (a page whose retries
//!   exhausted is published so single-flight waiters wake with the fault
//!   instead of hanging or re-fetching) live with their shard, so two
//!   queries touching different invocations never contend;
//! * the per-service concurrency limit has its own tiny flow-control
//!   lock, held only to acquire or release a slot — never across a
//!   fetch;
//! * the sub-result store (materialized invoke prefixes) has its own
//!   lock and condition variable;
//! * call/latency/fault/observation accounting is **one ledger per
//!   execution**: each gateway's cell (`crate::accounting`) is the only
//!   place a forwarded call is booked, and readers merge the cells into
//!   one [`Counters`] snapshot ([`SharedServiceState::ledger`]), so
//!   metrics never serialize the page path at all.
//!
//! A stand-alone execution owns a private state
//! ([`ExecContext::private`] — the paper's one-query-at-a-time
//! setting); the `mdq-runtime` serving layer hands *one* `Arc`-shared
//! state to every concurrent query ([`ExecContext::shared`]), so pages
//! fetched by one query are hits for the next and service-call
//! accounting spans the whole workload. [`ExecContext::gateway`] is the
//! one place a gateway is built.
//!
//! Both drivers run an execution on one thread and hand every operator
//! of it a clone of one [`LocalGateway`] (`Rc<RefCell>`); concurrency
//! across executions lives in the [`SharedServiceState`] underneath.

pub use crate::accounting::Counters;
use crate::accounting::{Accounting, AcctCell};
use crate::binding::Binding;
use crate::cache::{CacheSetting, CacheStats, Page, PageCache, PageLookup};
use crate::context::ExecContext;
use crate::operator::ExecError;
use mdq_cost::divergence::ObservedService;
use mdq_cost::shared::SharedWorkOracle;
use mdq_model::fingerprint::SubplanSignature;
use mdq_model::query::VarId;
use mdq_model::schema::{Schema, ServiceId};
use mdq_model::value::{Tuple, Value};
use mdq_obs::recorder::{QueryTrace, TraceRecorder};
use mdq_obs::span::{OperatorStats, SpanKind};
use mdq_plan::dag::Plan;
use mdq_services::refresh::InvocationKey;
use mdq_services::registry::ServiceRegistry;
use mdq_services::service::{Service, ServiceFault};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};

/// Bounded-retry policy for faulted service calls.
///
/// Backoff is *accounted*, not slept: the simulated seconds of each
/// wait (`base_backoff · multiplier^attempt`, or the provider's
/// `retry_after` when larger) are charged to the page's forwarded
/// latency and recorded in [`FaultStats::backoff_seconds`], keeping
/// chaos runs deterministic and wall-clock free.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Simulated seconds waited before the first retry.
    pub base_backoff: f64,
    /// Backoff growth factor per further retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: 0.5,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// No retries: every fault immediately degrades its page.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        base_backoff: 0.0,
        multiplier: 1.0,
    };

    /// `retries` attempts with the default backoff schedule.
    pub fn retries(n: u32) -> Self {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::default()
        }
    }

    /// Simulated seconds waited before retry number `attempt + 1`
    /// (after failed attempt index `attempt`).
    pub fn backoff(&self, attempt: u32) -> f64 {
        self.base_backoff * self.multiplier.powi(attempt.min(30) as i32)
    }
}

/// Per-service fault accounting, kept both per execution (in the
/// [`ServiceGateway`]) and cumulatively (in the
/// [`SharedServiceState`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Attempts that came back as provider errors.
    pub errors: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Attempts that were throttled.
    pub rate_limited: u64,
    /// Retries issued after faulted attempts.
    pub retries: u64,
    /// Simulated seconds of backoff accounted before those retries.
    pub backoff_seconds: f64,
    /// Pages given up on after exhausting the retry budget.
    pub exhausted: u64,
}

impl FaultStats {
    /// Faulted attempts of any kind.
    pub fn total_faults(&self) -> u64 {
        self.errors + self.timeouts + self.rate_limited
    }

    pub(crate) fn classify(&mut self, fault: &ServiceFault) {
        match fault {
            ServiceFault::Error { .. } => self.errors += 1,
            ServiceFault::Timeout { .. } => self.timeouts += 1,
            ServiceFault::RateLimited { .. } => self.rate_limited += 1,
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &FaultStats) {
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.rate_limited += other.rate_limited;
        self.retries += other.retries;
        self.backoff_seconds += other.backoff_seconds;
        self.exhausted += other.exhausted;
    }
}

/// One degraded service of a partially completed execution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegradedService {
    /// Service name (matches the schema signature).
    pub service: String,
    /// The fault accounting of this execution against that service.
    pub stats: FaultStats,
    /// The fault that exhausted the last retry budget.
    pub last_fault: ServiceFault,
}

/// The outcome of an execution that survived degraded services: the
/// answers produced are valid but possibly incomplete, and this names
/// which services degraded (sorted by name) instead of poisoning the
/// whole query.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialResults {
    /// Every service that had at least one page degrade, sorted by
    /// name.
    pub degraded: Vec<DegradedService>,
}

impl PartialResults {
    /// Whether `service` is among the degraded.
    pub fn names(&self, service: &str) -> bool {
        self.degraded.iter().any(|d| d.service == service)
    }
}

impl std::fmt::Display for PartialResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "partial results; degraded:")?;
        for d in &self.degraded {
            write!(f, " {} ({})", d.service, d.last_fault)?;
        }
        Ok(())
    }
}

/// One page of results, as served by the gateway (from cache or from the
/// service).
#[derive(Clone, Debug)]
pub struct PageFetch {
    /// The page's tuples, in rank order — shared with the client cache
    /// when the page is (or has just become) resident there.
    pub tuples: Page,
    /// Whether the service holds further pages for this invocation.
    pub has_more: bool,
    /// Summed simulated seconds this page's forwarding consumed —
    /// attempt latencies (faulted ones included) plus accounted
    /// backoff; `None` when the page was served from the client cache
    /// or the failed-page memo (no forwarding happened).
    pub forwarded_latency: Option<f64>,
    /// The fault that permanently degraded this page, once the retry
    /// budget was exhausted. The page is then empty and final
    /// (`has_more = false`): execution continues with partial results.
    pub fault: Option<ServiceFault>,
}

impl PageFetch {
    fn empty() -> Self {
        PageFetch {
            tuples: Page::default(),
            has_more: false,
            forwarded_latency: None,
            fault: None,
        }
    }

    fn failed(fault: ServiceFault, forwarded_latency: Option<f64>) -> Self {
        PageFetch {
            tuples: Page::default(),
            has_more: false,
            forwarded_latency,
            fault: Some(fault),
        }
    }
}

/// A single-flight claim on one page of its shard, released exactly
/// once: by [`FlightGuard::finish`] on the success path — the fetched
/// page is stored and the claim dropped under one lock acquisition — or
/// by `Drop` on every other path, so the claim is released even if the
/// service panics. The shard's waiters are woken only when there are
/// any.
struct FlightGuard<'a> {
    shard: &'a PageShard,
    id: ServiceId,
    key: &'a [Value],
    page: u32,
    released: bool,
}

impl FlightGuard<'_> {
    /// Stores the fetched page and releases the claim, in one
    /// acquisition of the shard lock.
    fn finish(mut self, tuples: Page, has_more: bool) {
        self.release(Some((tuples, has_more)));
    }

    fn release(&mut self, fetched: Option<(Page, bool)>) {
        if std::mem::replace(&mut self.released, true) {
            return;
        }
        let wake = {
            // this runs during unwind when a service panics: tolerate a
            // poisoned lock — a second panic here would abort the
            // process
            let mut inner = self
                .shard
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some((tuples, has_more)) = fetched {
                inner
                    .cache
                    .store(self.id, self.key, self.page, tuples, has_more);
            }
            if let Some(at) = inner.flight_position(self.id, self.key, self.page) {
                inner.fetching.swap_remove(at);
            }
            inner.waiters > 0
        };
        if wake {
            self.shard.changed.notify_all();
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.release(None);
    }
}

/// A held per-service concurrency slot. Dropping it releases the slot
/// under the flow-control lock and wakes limit waiters, if any wait.
struct FlowSlot<'a> {
    shared: &'a SharedServiceState,
    id: ServiceId,
}

impl Drop for FlowSlot<'_> {
    fn drop(&mut self) {
        let wake = {
            // tolerates poison for the same reason as `FlightGuard`:
            // this path runs during unwind
            let mut flow = self
                .shared
                .flow
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(n) = flow.in_flight.get_mut(&self.id) {
                *n = n.saturating_sub(1);
            }
            flow.waiters > 0
        };
        if wake {
            self.shared.flow_changed.notify_all();
        }
    }
}

/// The flow-control lock's interior.
#[derive(Default)]
struct FlowState {
    /// Request-responses currently in flight per service.
    in_flight: HashMap<ServiceId, usize>,
    /// Threads parked on `flow_changed` — a release with none parked
    /// skips the wake-up.
    waiters: usize,
}

/// How many independently locked page shards an unbounded shared state
/// uses. A *bounded* page cache collapses to a single shard so the
/// capacity bound and LRU order stay exactly global (eviction decisions
/// must see every invocation key).
const PAGE_SHARDS: usize = 8;

/// One independently locked partition of the page-serving state: a
/// slice of the §5.1 [`PageCache`] plus the single-flight set and
/// failed-page memo for the invocations routed here.
struct PageShard {
    inner: Mutex<ShardInner>,
    /// Signalled when a flight claim on this shard is released —
    /// single-flight waiters park here.
    changed: Condvar,
}

/// The interior of one [`PageShard`].
struct ShardInner {
    cache: PageCache,
    /// Pages currently being fetched from a service (single-flight:
    /// concurrent demands for the same page wait instead of duplicating
    /// the request-response). A plain list: it is bounded by the
    /// concurrent in-flight fetches, and scanning it borrowed avoids
    /// cloning the key on every cache probe.
    fetching: Vec<(ServiceId, Vec<Value>, u32)>,
    /// Threads parked on the shard's `changed` — a released claim with
    /// none parked skips the wake-up.
    waiters: usize,
    /// Pages whose retry budget exhausted, with the terminal fault.
    /// Published *before* the single-flight claim is released, so a
    /// waiter blocked on the failing leader wakes with the error
    /// instead of hanging or re-fetching the fault storm. Entries are
    /// held until [`SharedServiceState::clear_failed_pages`] — no
    /// execution re-probes a condemned page, so recovery after an
    /// outage is an explicit operator action.
    failed: HashMap<(ServiceId, Vec<Value>, u32), ServiceFault>,
}

impl ShardInner {
    /// Where in `fetching` the claim on `(id, key, page)` sits, when the
    /// page is being fetched right now.
    fn flight_position(&self, id: ServiceId, key: &[Value], page: u32) -> Option<usize> {
        self.fetching
            .iter()
            .position(|(i, k, p)| *i == id && *p == page && k.as_slice() == key)
    }

    /// The terminal fault of a permanently degraded page, if any.
    /// Iterated borrowed: probing must not clone the key, and the memo
    /// stays small (one entry per page that exhausted its retries).
    fn failed_for(&self, id: ServiceId, key: &[Value], page: u32) -> Option<&ServiceFault> {
        self.failed
            .iter()
            .find(|((i, k, p), _)| *i == id && *p == page && k.as_slice() == key)
            .map(|(_, f)| f)
    }
}

fn build_shards(setting: CacheSetting, capacity: usize) -> Box<[PageShard]> {
    // a bounded cache needs one shard to keep its LRU order and
    // capacity bound exactly global; unbounded (and disabled) caches
    // shard freely because no store ever looks across invocations
    let shards = if capacity == 0 || capacity == usize::MAX {
        PAGE_SHARDS
    } else {
        1
    };
    (0..shards)
        .map(|_| PageShard {
            inner: Mutex::new(ShardInner {
                cache: PageCache::with_capacity(setting, capacity),
                fetching: Vec::new(),
                waiters: 0,
                failed: HashMap::new(),
            }),
            changed: Condvar::new(),
        })
        .collect()
}

/// The invocation set a materialized prefix (or a standing query's
/// answers) depends on — the unit the refresh pass diffs against to
/// decide what survived an epoch, in the refresh driver's own key type.
pub type InvocationFrontier = HashSet<InvocationKey>;

/// One materialized invoke prefix: the bindings its chain produced,
/// `Arc`-shared so a replay is a refcount bump, never a deep copy. The
/// publisher's variable list and variable-space width ride along so a
/// subscriber in the *same* space clones the `Arc` directly, and one in
/// a different space can remap.
struct SubResultEntry {
    rows: SubResultRows,
    /// The chain variables the rows bind, in the signature's canonical
    /// order (the publisher's numbering).
    vars: Arc<[VarId]>,
    /// Variable-space width of the publishing execution.
    nvars: usize,
    /// Forwarded request-responses the materializing execution spent
    /// producing this prefix — what a replay saves its subscriber.
    cost_calls: u64,
    /// LRU recency stamp.
    used: u64,
    /// The tenant that published the entry (`None` for untenanted
    /// executions) — the hook for per-tenant store quotas.
    tenant: Option<TenantId>,
    /// The invocations the prefix's rows were computed from, recorded
    /// only by frontier-enabled (standing) publishers. `None` means the
    /// provenance is unknown: ad-hoc entries replay fine within an
    /// epoch but can never survive a refresh pass, and a standing
    /// replay must skip them (its own frontier would be incomplete).
    frontier: Option<Arc<InvocationFrontier>>,
}

/// The sub-result store's interior (guarded by its own lock — the page
/// shards never wait on a materialization and vice versa).
#[derive(Default)]
struct SubResultInner {
    tick: u64,
    entries: HashMap<SubplanSignature, SubResultEntry>,
    /// Signatures currently being materialized (single-flight: a query
    /// whose prefix is being computed waits and replays, instead of
    /// duplicating the chain's service calls).
    computing: HashSet<SubplanSignature>,
    stats: SubResultStats,
}

/// Counters of the signature-keyed sub-result store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubResultStats {
    /// Executions that replayed a materialized prefix.
    pub hits: u64,
    /// Executions whose chain had no materialized prefix to replay.
    pub misses: u64,
    /// Materialized prefixes dropped by the LRU bound.
    pub evictions: u64,
    /// Summed materializing cost of every replayed entry — the calls a
    /// cold, uncached subscriber would have forwarded to produce the
    /// prefix itself (an upper bound on the actual saving when the
    /// page cache would have absorbed part of the work).
    pub calls_saved: u64,
    /// Prefixes currently materialized.
    pub entries: u64,
    /// Materialized prefixes a tenant's own quota displaced (the
    /// publishing tenant's least-recent entry, never another
    /// tenant's — see [`SharedServiceState::set_tenant_sub_quota`]).
    pub quota_evictions: u64,
    /// Materialized prefixes dropped wholesale by refresh passes
    /// ([`SharedServiceState::invalidate_sub_results`]) — staleness,
    /// not capacity pressure.
    pub invalidated: u64,
    /// Materialized prefixes a refresh pass kept alive because every
    /// invocation they depend on came through the epoch unchanged
    /// ([`SharedServiceState::retain_sub_results`]).
    pub retained: u64,
}

/// The `Arc`-shared bindings of one materialized prefix.
pub(crate) type SubResultRows = Arc<Vec<Binding>>;

/// A materialized prefix handed to a subscriber for replay.
pub(crate) struct ReplayEntry {
    /// Chain level (1-based) the prefix covers.
    pub level: usize,
    /// The prefix's bindings, `Arc`-shared with the store.
    pub rows: SubResultRows,
    /// The publisher's chain variables, in canonical order.
    pub vars: Arc<[VarId]>,
    /// The publisher's variable-space width.
    pub nvars: usize,
    /// Forwarded calls the publisher spent producing the prefix.
    pub cost_calls: u64,
    /// The invocations the prefix was computed from (`None` for ad-hoc
    /// entries). A frontier-enabled subscriber merges this into its own
    /// frontier so replayed dependencies are still tracked.
    pub frontier: Option<Arc<InvocationFrontier>>,
}

/// What [`SharedServiceState::resolve_prefixes`] decided for one
/// execution's invoke-prefix chain.
pub(crate) struct PrefixResolution {
    /// The longest materialized prefix to replay, if any.
    pub replay: Option<ReplayEntry>,
    /// Chain levels (1-based) this execution claimed for
    /// materialization: it must publish or abandon every one.
    pub claimed: Vec<usize>,
}

/// A tenant identifier as the shared state accounts it. The serving
/// layer (`mdq-runtime`) owns the name→id mapping; down here a tenant
/// is just a key for budget and quota accounting.
pub type TenantId = u32;

/// One tenant's cumulative gateway-side accounting: forwarded calls
/// charged against an optional budget. Shared by every gateway
/// executing for the tenant, so the budget is enforced exactly across
/// concurrent executions (charges are compare-and-swap reservations —
/// the counter can never pass the budget).
pub struct TenantCell {
    /// Request-responses forwarded for this tenant, all executions.
    calls: AtomicU64,
    /// Cumulative forwarded-call budget; `u64::MAX` = unlimited.
    budget: AtomicU64,
    /// Max sub-result entries this tenant may hold materialized;
    /// `usize::MAX` = unlimited, `0` = the tenant never publishes.
    sub_quota: AtomicU64,
}

impl TenantCell {
    fn new() -> Self {
        TenantCell {
            calls: AtomicU64::new(0),
            budget: AtomicU64::new(u64::MAX),
            sub_quota: AtomicU64::new(u64::MAX),
        }
    }

    /// Forwarded calls charged so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(AtomicOrdering::Relaxed)
    }

    /// The cumulative call budget, if bounded.
    pub fn budget(&self) -> Option<u64> {
        match self.budget.load(AtomicOrdering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
    }

    /// Whether at least one further forwarded call fits the budget.
    pub fn has_room(&self) -> bool {
        self.calls.load(AtomicOrdering::Relaxed) < self.budget.load(AtomicOrdering::Relaxed)
    }

    /// Reserves one forwarded call against the budget. Exact under
    /// concurrency: the compare-and-swap loop means `calls` can never
    /// exceed the budget, no matter how many executions race.
    fn try_charge(&self) -> bool {
        let budget = self.budget.load(AtomicOrdering::Relaxed);
        self.calls
            .fetch_update(AtomicOrdering::Relaxed, AtomicOrdering::Relaxed, |n| {
                (n < budget).then_some(n + 1)
            })
            .is_ok()
    }
}

/// Cross-query shared execution state: the sharded client [`PageCache`]
/// with per-shard single-flight deduplication, the flow-control lock
/// enforcing per-service concurrency limits, the sub-result store, and
/// the merge-on-read accounting registry.
///
/// Every [`ServiceGateway`] sits on top of one of these. A private state
/// per execution reproduces the engine's historical behaviour exactly;
/// one state `Arc`-shared by many concurrent executions is what turns
/// the §5.1 cache into a *server-side* cache amortised across a
/// workload.
pub struct SharedServiceState {
    /// Independently locked page-serving partitions, routed by
    /// `(service, input-key)` hash.
    shards: Box<[PageShard]>,
    /// Per-service flow control — only consulted when
    /// `per_service_limit > 0`, and only ever locked to acquire or
    /// release a slot, never across a fetch.
    flow: Mutex<FlowState>,
    flow_changed: Condvar,
    /// The signature-keyed sub-result store, behind its own lock.
    sub: Mutex<SubResultInner>,
    sub_changed: Condvar,
    /// Max materialized prefixes the store holds; `0` disables it.
    /// Immutable after build, so "is the store on?" is a field read —
    /// asked *before* anyone signs a prefix or takes the store lock.
    sub_capacity: usize,
    /// Per-tenant budget/usage cells, resolved once per gateway — the
    /// hot path only ever touches the tenant's own atomics.
    tenants: Mutex<HashMap<TenantId, Arc<TenantCell>>>,
    /// Merge-on-read cumulative accounting (see [`crate::accounting`]).
    acct: Accounting,
    setting: CacheSetting,
    /// Max request-responses in flight per service; `0` = unlimited.
    per_service_limit: usize,
    /// Retry policy applied when a service has no override.
    retry: RetryPolicy,
    /// Per-service retry-policy overrides (immutable after build).
    retry_overrides: HashMap<ServiceId, RetryPolicy>,
    /// Span-trace recorder, when attached: every gateway built over
    /// this state then registers its own track (per-worker buffer) and
    /// records typed spans. `None` (the default) keeps the hot path at
    /// a single branch per record site.
    trace: Mutex<Option<Arc<TraceRecorder>>>,
}

/// Occupancy and eviction counters of one independently locked page
/// shard — shard-skew made observable after the cache split.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageShardStats {
    /// Distinct invocation keys memoized in this shard.
    pub entries: u64,
    /// Invocation entries this shard dropped to respect the capacity
    /// bound.
    pub evictions: u64,
    /// Pages this shard memoizes as permanently degraded.
    pub failed_pages: u64,
}

impl std::fmt::Debug for SharedServiceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedServiceState")
            .field("setting", &self.setting)
            .field("per_service_limit", &self.per_service_limit)
            .field("shards", &self.shards.len())
            .field("ledger", &self.ledger())
            .finish()
    }
}

impl SharedServiceState {
    /// A fresh state with the given cache setting and per-service
    /// concurrency limit (`0` = unlimited). The page cache is unbounded
    /// and the sub-result store disabled — the PR 2 serving behaviour;
    /// see [`SharedServiceState::with_page_capacity`] and
    /// [`SharedServiceState::with_sub_results`].
    pub fn new(setting: CacheSetting, per_service_limit: usize) -> Self {
        SharedServiceState {
            shards: build_shards(setting, usize::MAX),
            flow: Mutex::new(FlowState::default()),
            flow_changed: Condvar::new(),
            sub: Mutex::new(SubResultInner::default()),
            sub_changed: Condvar::new(),
            sub_capacity: 0,
            tenants: Mutex::new(HashMap::new()),
            acct: Accounting::default(),
            setting,
            per_service_limit,
            retry: RetryPolicy::default(),
            retry_overrides: HashMap::new(),
            trace: Mutex::new(None),
        }
    }

    /// Attaches (or detaches, with `None`) a span-trace recorder.
    /// Callable after sharing: gateways built from then on register a
    /// track and record spans; existing gateways are unaffected.
    pub fn set_trace(&self, recorder: Option<Arc<TraceRecorder>>) {
        *self.trace.lock().expect("trace slot lock") = recorder;
    }

    /// Builder-style [`SharedServiceState::set_trace`].
    pub fn with_trace(self, recorder: Arc<TraceRecorder>) -> Self {
        self.set_trace(Some(recorder));
        self
    }

    /// The attached span-trace recorder, if any.
    pub fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        self.trace.lock().expect("trace slot lock").clone()
    }

    /// Bounds the shared page cache to `capacity` distinct invocation
    /// keys (`0` disables client-side page caching; `usize::MAX` keeps
    /// it unbounded). Builder style, before sharing. A bounded cache
    /// collapses to a single shard so eviction order stays globally
    /// exact.
    pub fn with_page_capacity(mut self, capacity: usize) -> Self {
        self.shards = build_shards(self.setting, capacity);
        self
    }

    /// Enables the signature-keyed sub-result store with room for
    /// `capacity` materialized invoke prefixes (`0` — the default —
    /// disables cross-query sub-result sharing). Builder style, before
    /// sharing.
    pub fn with_sub_results(mut self, capacity: usize) -> Self {
        self.sub_capacity = capacity;
        self
    }

    /// Whether the sub-result store is enabled. With it off (the
    /// default) an execution skips prefix signing and the store lock
    /// altogether.
    pub fn sub_results_enabled(&self) -> bool {
        self.sub_capacity > 0
    }

    /// Sets the default retry policy (builder style, before sharing).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the retry policy of one service (builder style,
    /// before sharing).
    pub fn with_service_retry(mut self, id: ServiceId, retry: RetryPolicy) -> Self {
        self.retry_overrides.insert(id, retry);
        self
    }

    /// The retry policy in force for `id`.
    pub fn retry_policy(&self, id: ServiceId) -> RetryPolicy {
        self.retry_overrides.get(&id).copied().unwrap_or(self.retry)
    }

    /// How many independently locked page shards this state runs.
    pub fn page_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard an invocation's pages are routed to. Under `OneCall`
    /// the key is excluded from the hash: that setting keeps one cached
    /// invocation *per service*, and replacement is only exact when
    /// every key of a service lands on the same shard.
    fn shard_idx(&self, id: ServiceId, key: &[Value]) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        let mut h = crate::cache::WordHasher::default();
        id.hash(&mut h);
        if !matches!(self.setting, CacheSetting::OneCall) {
            key.hash(&mut h);
        }
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Blocks until a concurrency slot for `id` is free, then claims it.
    fn acquire_slot(&self, id: ServiceId) -> FlowSlot<'_> {
        let mut flow = self.flow.lock().expect("flow-control lock");
        while flow.in_flight.get(&id).copied().unwrap_or(0) >= self.per_service_limit {
            flow.waiters += 1;
            flow = self.flow_changed.wait(flow).expect("flow-control lock");
            flow.waiters -= 1;
        }
        *flow.in_flight.entry(id).or_insert(0) += 1;
        FlowSlot { shared: self, id }
    }

    /// One snapshot of the cumulative call ledger: the retired totals
    /// of every dropped gateway merged with every live one's cell, at
    /// one instant. A reader that needs several numbers (a metrics
    /// sample, a reconciliation test) takes one snapshot and derives
    /// them all from it; the single-number accessors below are
    /// shorthands that each take their own.
    pub fn ledger(&self) -> Counters {
        self.acct.merged()
    }

    /// Cumulative request-responses forwarded, all services.
    pub fn total_calls(&self) -> u64 {
        self.ledger().total_calls()
    }

    /// Cumulative simulated latency of all forwarded calls.
    pub fn total_latency(&self) -> f64 {
        self.ledger().total_latency()
    }

    /// Cumulative fault accounting, all services.
    pub fn total_fault_stats(&self) -> FaultStats {
        self.ledger().total_faults()
    }

    /// Snapshot of the cumulative per-service observations (tuples,
    /// latency and faults of every forwarded call) across all
    /// executions sharing this state.
    ///
    /// This is the serving layer's substitute for a sampling-profiler
    /// pass: feed the snapshot to
    /// [`refresh_profiles`](mdq_cost::divergence::refresh_profiles) to
    /// seed or re-seed the schema's [`ServiceProfile`]s from live
    /// gateway accounting.
    ///
    /// [`ServiceProfile`]: mdq_model::schema::ServiceProfile
    pub fn observed_snapshot(&self) -> HashMap<ServiceId, ObservedService> {
        self.ledger().observed().clone()
    }

    /// Pages currently memoized as permanently degraded.
    pub fn failed_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().expect("page shard lock").failed.len())
            .sum()
    }

    /// Forgets every memoized page failure, returning how many were
    /// dropped. The memo is deliberately held until cleared — nothing
    /// re-probes a condemned page, so nothing can organically heal it —
    /// which makes this the recovery lever for a long-lived state after
    /// a service outage ends (a server's operator reaches it through
    /// `QueryServer::shared_state`).
    pub fn clear_failed_pages(&self) -> usize {
        let mut n = 0;
        for shard in self.shards.iter() {
            let mut inner = shard.inner.lock().expect("page shard lock");
            n += inner.failed.len();
            inner.failed.clear();
        }
        n
    }

    /// Cumulative invocation-level cache statistics for `id`.
    pub fn cache_stats(&self, id: ServiceId) -> CacheStats {
        self.ledger().cache_stats(id)
    }

    /// Page-cache invocation entries dropped to respect the configured
    /// capacity bound, summed across shards.
    pub fn page_cache_evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.inner.lock().expect("page shard lock").cache.evictions())
            .sum()
    }

    /// Occupancy, eviction and failed-page counters of every page
    /// shard, in shard order — the per-shard view behind the global
    /// [`SharedServiceState::page_cache_evictions`] sum.
    pub fn page_shard_stats(&self) -> Vec<PageShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.inner.lock().expect("page shard lock");
                PageShardStats {
                    entries: inner.cache.entries() as u64,
                    evictions: inner.cache.evictions(),
                    failed_pages: inner.failed.len() as u64,
                }
            })
            .collect()
    }

    /// The budget/usage cell of `tenant`, created (unlimited) on first
    /// use. Gateways resolve their cell once, at construction — the
    /// per-call charge is then a pair of atomics, no map lookup.
    pub fn tenant_cell(&self, tenant: TenantId) -> Arc<TenantCell> {
        let mut tenants = self.tenants.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            tenants
                .entry(tenant)
                .or_insert_with(|| Arc::new(TenantCell::new())),
        )
    }

    /// Sets (or clears, with `None`) the cumulative forwarded-call
    /// budget of `tenant`. Calls already charged stay charged: lowering
    /// a budget below the spend refuses every further call until the
    /// budget is raised again.
    pub fn set_tenant_budget(&self, tenant: TenantId, budget: Option<u64>) {
        self.tenant_cell(tenant)
            .budget
            .store(budget.unwrap_or(u64::MAX), AtomicOrdering::Relaxed);
    }

    /// Bounds how many materialized sub-result entries `tenant` may
    /// hold in the store at once (`None` = unlimited, `Some(0)` = the
    /// tenant never publishes). Publishing at the quota evicts the
    /// tenant's *own* least-recent entry — one tenant's materializations
    /// can never crowd out another's beyond the global LRU bound.
    pub fn set_tenant_sub_quota(&self, tenant: TenantId, quota: Option<u64>) {
        self.tenant_cell(tenant)
            .sub_quota
            .store(quota.unwrap_or(u64::MAX), AtomicOrdering::Relaxed);
    }

    /// Forwarded calls charged to `tenant` so far (0 for a tenant never
    /// seen).
    pub fn tenant_calls(&self, tenant: TenantId) -> u64 {
        self.tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&tenant)
            .map(|c| c.calls())
            .unwrap_or(0)
    }

    /// Whether `tenant` has room for at least one further forwarded
    /// call — the serving layer's cheap admission probe.
    pub fn tenant_has_room(&self, tenant: TenantId) -> bool {
        self.tenants
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&tenant)
            .map(|c| c.has_room())
            .unwrap_or(true)
    }

    /// Counters of the sub-result store (all zero while disabled).
    pub fn sub_result_stats(&self) -> SubResultStats {
        let sub = self.sub.lock().expect("sub-result lock");
        SubResultStats {
            entries: sub.entries.len() as u64,
            ..sub.stats
        }
    }

    /// Decides, for one execution whose chain carries `sigs` (level 1
    /// first), what to replay from the sub-result store and what the
    /// execution must materialize. Single-flight: when a wanted level
    /// is being materialized by a concurrent execution, this blocks
    /// until that level is published (then replays it) or abandoned
    /// (then claims it). Every claimed level must later be
    /// [`publish_sub_result`]ed or [`abandon_sub_results`]ed. Callers
    /// ask [`sub_results_enabled`] first — a disabled store is never
    /// resolved against.
    ///
    /// With `materialize = false` the call is read-only: the longest
    /// already-materialized prefix still replays (free work is free),
    /// but nothing is claimed and nothing is waited for — the caller
    /// has no evidence anyone will reuse this prefix and must not pay
    /// the eager-drain cost.
    ///
    /// With `frontier_only = true` only entries that carry a recorded
    /// [`InvocationFrontier`] are eligible to replay: a standing query
    /// replaying a provenance-less entry would record an incomplete
    /// frontier and miss refreshes. Frontier-less levels are still
    /// claimable, so the standing execution re-materializes them *with*
    /// provenance (overwriting the ad-hoc entry on publish).
    ///
    /// [`publish_sub_result`]: SharedServiceState::publish_sub_result
    /// [`abandon_sub_results`]: SharedServiceState::abandon_sub_results
    /// [`sub_results_enabled`]: SharedServiceState::sub_results_enabled
    pub(crate) fn resolve_prefixes(
        &self,
        sigs: &[SubplanSignature],
        materialize: bool,
        frontier_only: bool,
    ) -> PrefixResolution {
        let mut sub = self.sub.lock().expect("sub-result lock");
        loop {
            let hit = (0..sigs.len()).rev().find(|&i| {
                sub.entries
                    .get(&sigs[i])
                    .is_some_and(|e| !frontier_only || e.frontier.is_some())
            });
            let from = hit.map(|i| i + 1).unwrap_or(0);
            if materialize && (from..sigs.len()).any(|i| sub.computing.contains(&sigs[i])) {
                // a concurrent execution is materializing a level we
                // want: wait for its publish/abandon, then re-resolve
                sub = self.sub_changed.wait(sub).expect("sub-result lock");
                continue;
            }
            let replay = match hit {
                Some(i) => {
                    sub.tick += 1;
                    let tick = sub.tick;
                    sub.stats.hits += 1;
                    let entry = sub.entries.get_mut(&sigs[i]).expect("present");
                    entry.used = tick;
                    let replay = ReplayEntry {
                        level: i + 1,
                        rows: Arc::clone(&entry.rows),
                        vars: Arc::clone(&entry.vars),
                        nvars: entry.nvars,
                        cost_calls: entry.cost_calls,
                        frontier: entry.frontier.clone(),
                    };
                    sub.stats.calls_saved += replay.cost_calls;
                    Some(replay)
                }
                None => {
                    sub.stats.misses += 1;
                    None
                }
            };
            let mut claimed = Vec::new();
            if materialize {
                for (i, sig) in sigs.iter().enumerate().skip(from) {
                    if sub.computing.insert(*sig) {
                        claimed.push(i + 1);
                    }
                }
            }
            return PrefixResolution { replay, claimed };
        }
    }

    /// Publishes a materialized prefix under `sig`: releases the
    /// single-flight claim, stores the bindings (LRU-evicting when
    /// full) and wakes every waiter. `vars` is the chain's canonical
    /// variable list and `nvars` the publisher's variable-space width —
    /// a subscriber in the same space replays the `Arc` directly.
    /// `tenant` attributes the entry for per-tenant store quotas: a
    /// tenant at its quota evicts its *own* least-recent entry (never
    /// another tenant's), and a tenant with quota 0 releases the claim
    /// without storing at all.
    /// `frontier` records the invocations the rows were computed from;
    /// frontier-enabled (standing) publishers pass it so the entry can
    /// survive refresh passes and replay into other standing queries.
    #[allow(clippy::too_many_arguments)] // one parameter per entry fact
    pub(crate) fn publish_sub_result(
        &self,
        sig: SubplanSignature,
        rows: Vec<Binding>,
        vars: Arc<[VarId]>,
        nvars: usize,
        cost_calls: u64,
        tenant: Option<TenantId>,
        frontier: Option<Arc<InvocationFrontier>>,
    ) {
        // resolve the quota before taking the sub-result lock — the
        // tenant map and the store have independent locks, never nested
        let quota = tenant.map(|t| self.tenant_cell(t).sub_quota.load(AtomicOrdering::Relaxed));
        {
            let mut sub = self.sub.lock().expect("sub-result lock");
            sub.computing.remove(&sig);
            if self.sub_capacity > 0 && quota != Some(0) {
                if let (Some(tenant), Some(quota)) = (tenant, quota) {
                    let held = sub
                        .entries
                        .values()
                        .filter(|e| e.tenant == Some(tenant))
                        .count() as u64;
                    if held >= quota && !sub.entries.contains_key(&sig) {
                        if let Some(own_oldest) = sub
                            .entries
                            .iter()
                            .filter(|(_, e)| e.tenant == Some(tenant))
                            .min_by_key(|(_, e)| e.used)
                            .map(|(k, _)| *k)
                        {
                            sub.entries.remove(&own_oldest);
                            sub.stats.quota_evictions += 1;
                        }
                    }
                }
                if sub.entries.len() >= self.sub_capacity && !sub.entries.contains_key(&sig) {
                    if let Some(oldest) = sub
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| e.used)
                        .map(|(k, _)| *k)
                    {
                        sub.entries.remove(&oldest);
                        sub.stats.evictions += 1;
                    }
                }
                sub.tick += 1;
                let used = sub.tick;
                sub.entries.insert(
                    sig,
                    SubResultEntry {
                        rows: Arc::new(rows),
                        vars,
                        nvars,
                        cost_calls,
                        used,
                        tenant,
                        frontier,
                    },
                );
            }
        }
        self.sub_changed.notify_all();
    }

    /// Releases single-flight claims without publishing (the
    /// materializing execution errored, exhausted its budget or saw a
    /// degraded page — a partial prefix must never replay to others).
    pub(crate) fn abandon_sub_results(&self, sigs: &[SubplanSignature]) {
        if sigs.is_empty() {
            return;
        }
        {
            let mut sub = self.sub.lock().expect("sub-result lock");
            for sig in sigs {
                sub.computing.remove(sig);
            }
        }
        self.sub_changed.notify_all();
    }

    // ---- standing-query support: frontier pins + refresh installs ----

    /// Takes one pin on `(id, key)` in the shared page cache on behalf
    /// of a live subscription frontier: the invocation's pages survive
    /// bounded-LRU eviction and [`invalidate_unpinned_pages`] until
    /// every pin is released. Refcounted, so overlapping frontiers
    /// compose.
    ///
    /// [`invalidate_unpinned_pages`]: SharedServiceState::invalidate_unpinned_pages
    pub fn pin_invocation(&self, id: ServiceId, key: &[Value]) {
        let shard = &self.shards[self.shard_idx(id, key)];
        shard
            .inner
            .lock()
            .expect("page shard lock")
            .cache
            .pin(id, key);
    }

    /// Releases one pin on `(id, key)`. Returns whether one was held.
    pub fn unpin_invocation(&self, id: ServiceId, key: &[Value]) -> bool {
        let shard = &self.shards[self.shard_idx(id, key)];
        shard
            .inner
            .lock()
            .expect("page shard lock")
            .cache
            .unpin(id, key)
    }

    /// Distinct invocations currently pinned, summed across shards.
    pub fn pinned_invocations(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.inner
                    .lock()
                    .expect("page shard lock")
                    .cache
                    .pinned_invocations()
            })
            .sum()
    }

    /// A copy of `(id, key)`'s cached pages and exhaustion flag without
    /// touching LRU recency — the snapshot a refresh driver tracks.
    pub fn export_invocation(
        &self,
        id: ServiceId,
        key: &[Value],
    ) -> Option<(Vec<Vec<Tuple>>, bool)> {
        let shard = &self.shards[self.shard_idx(id, key)];
        shard
            .inner
            .lock()
            .expect("page shard lock")
            .cache
            .export(id, key)
    }

    /// Installs a refreshed page set for `(id, key)` wholesale and
    /// forgets any failed-page memo entries of the invocation — the
    /// refresh observed the service answering, so prior condemnations
    /// are stale. Standing-query re-evaluations then read the new
    /// epoch's pages straight from the cache.
    pub fn install_invocation(
        &self,
        id: ServiceId,
        key: &[Value],
        pages: Vec<Vec<Tuple>>,
        exhausted: bool,
    ) {
        let shard = &self.shards[self.shard_idx(id, key)];
        let mut inner = shard.inner.lock().expect("page shard lock");
        inner.cache.replace(id, key, pages, exhausted);
        inner
            .failed
            .retain(|(i, k, _), _| !(*i == id && k.as_slice() == key));
    }

    /// Drops every *unpinned* cached invocation across all shards,
    /// returning how many were dropped. A refresh pass runs this first:
    /// pages outside any subscription frontier may predate the new
    /// epoch, and serving them would mix generations within one answer.
    pub fn invalidate_unpinned_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.inner
                    .lock()
                    .expect("page shard lock")
                    .cache
                    .invalidate_unpinned()
            })
            .sum()
    }

    /// Drops every materialized sub-result entry (single-flight claims
    /// of in-flight materializations are left to their owners),
    /// returning how many entries were dropped. Materialized prefixes
    /// embed fetched pages, so a refresh pass invalidates them all —
    /// a stale prefix replayed into a standing query would silently
    /// resurrect the previous epoch.
    pub fn invalidate_sub_results(&self) -> u64 {
        let mut sub = self.sub.lock().expect("sub-result lock");
        let dropped = sub.entries.len() as u64;
        sub.entries.clear();
        sub.stats.invalidated += dropped;
        dropped
    }

    /// Epoch-scoped sub-result invalidation: keeps every entry whose
    /// recorded [`InvocationFrontier`] satisfies `retain` (typically
    /// "every invocation is still tracked and came through the refresh
    /// unchanged"), drops the rest — including all provenance-less
    /// entries, whose dependencies are unknown. Returns
    /// `(dropped, retained)` and bumps the matching stats.
    pub fn retain_sub_results(&self, retain: impl Fn(&InvocationFrontier) -> bool) -> (u64, u64) {
        let mut sub = self.sub.lock().expect("sub-result lock");
        let before = sub.entries.len() as u64;
        sub.entries
            .retain(|_, e| e.frontier.as_deref().is_some_and(&retain));
        let retained = sub.entries.len() as u64;
        let dropped = before - retained;
        sub.stats.invalidated += dropped;
        sub.stats.retained += retained;
        (dropped, retained)
    }
}

/// The serving layer's shared state *is* the optimizer's shared-work
/// oracle: a prefix counts as materialized when its rows are stored or
/// a concurrent execution is publishing them right now (it will be
/// free by the time a plan starting with it executes).
impl SharedWorkOracle for SharedServiceState {
    fn is_materialized(&self, sig: SubplanSignature) -> bool {
        if !self.sub_results_enabled() {
            return false;
        }
        let sub = self.sub.lock().expect("sub-result lock");
        sub.entries.contains_key(&sig) || sub.computing.contains(&sig)
    }
}

/// The single service-invocation and caching path of one execution.
///
/// Per-execution state (the poisoned error, the call budget, degraded
/// services, per-node statistics) lives here; the page cache lives in
/// the [`SharedServiceState`] underneath, which may be private to this
/// execution or shared across a workload. Call accounting is this
/// execution's ledger cell — `total_calls`, `calls_to`, `total_latency`
/// and `ledger` read it, the shared state merges it.
pub struct ServiceGateway {
    services: HashMap<ServiceId, Arc<dyn Service>>,
    shared: Arc<SharedServiceState>,
    /// This execution's ledger: the one place its forwarded calls,
    /// faults, observations and invocation hits/misses are recorded.
    /// Registered with the shared state (so merged snapshots see it
    /// live) and retired into the shared totals on drop.
    acct: Arc<AcctCell>,
    budget: Option<u64>,
    /// The tenant this execution is attributed to, with its budget
    /// cell resolved once — every forwarded attempt is charged against
    /// it (reserve-then-forward, so concurrent executions of the same
    /// tenant can never overshoot the cumulative budget).
    tenant: Option<(TenantId, Arc<TenantCell>)>,
    error: Option<ExecError>,
    /// Services with at least one degraded page, with the terminal
    /// fault observed (ordered, so partial results report stably).
    degraded: BTreeSet<ServiceId>,
    last_faults: HashMap<ServiceId, ServiceFault>,
    /// This execution's span track, when the shared state has a
    /// recorder attached (`None` costs one branch per record site).
    trace: Option<QueryTrace>,
    /// Per-plan-node runtime statistics (EXPLAIN ANALYZE): fetch-side
    /// fields accumulate here, attributed to [`Self::active_node`];
    /// row/batch fields are flushed in by the operators.
    node_stats: Vec<OperatorStats>,
    /// The plan node whose fetches the gateway is currently serving.
    active_node: Option<usize>,
    /// When enabled, every invocation this execution demanded —
    /// cache-served or forwarded: the *frontier* a standing query's
    /// answers depend on. `None` (the default) keeps the hot path at
    /// one branch per page demand.
    frontier: Option<InvocationFrontier>,
}

impl std::fmt::Debug for ServiceGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceGateway")
            .field("services", &self.services.keys().collect::<Vec<_>>())
            .field("ledger", &self.ledger())
            .field("budget", &self.budget)
            .field("error", &self.error)
            .finish()
    }
}

impl Drop for ServiceGateway {
    fn drop(&mut self) {
        self.shared.acct.retire(&self.acct);
    }
}

impl ExecContext<'_> {
    /// Builds the gateway `plan` executes through under this context —
    /// the one place a context's state, budget, tenant and frontier
    /// flag become a [`ServiceGateway`]. Resolves every invoked service
    /// in the registry; fails fast when a registration is missing.
    pub fn gateway(
        &self,
        plan: &Plan,
        schema: &Schema,
        registry: &ServiceRegistry,
    ) -> Result<ServiceGateway, ExecError> {
        let mut services = HashMap::with_capacity(plan.atoms.len());
        for &atom in plan.atoms.iter() {
            let svc_id = plan.query.atoms[atom].service;
            let service = registry.get(svc_id).ok_or_else(|| {
                ExecError::MissingService(schema.service(svc_id).name.to_string())
            })?;
            services.insert(svc_id, Arc::clone(service));
        }
        let shared = Arc::clone(&self.state);
        let acct = shared.acct.register();
        let trace = shared.trace_recorder().map(|r| r.register("query"));
        // the tenant's budget cell is resolved once, here: every
        // forwarded attempt is charged to it, and exhaustion poisons
        // the execution with [`ExecError::TenantBudgetExhausted`]
        let tenant = self.tenant.map(|t| (t, shared.tenant_cell(t)));
        Ok(ServiceGateway {
            services,
            shared,
            acct,
            budget: self.budget.filter(|&b| b > 0),
            tenant,
            error: None,
            degraded: BTreeSet::new(),
            last_faults: HashMap::new(),
            trace,
            node_stats: vec![OperatorStats::default(); plan.nodes.len()],
            active_node: None,
            frontier: self.frontier.then(HashSet::new),
        })
    }
}

impl ServiceGateway {
    /// A gateway over an existing state with an optional per-query
    /// call budget: [`ExecContext::gateway`] under this one signature,
    /// kept because the frozen end-to-end benchmark package
    /// (`benchmark/`) compiles against it.
    pub fn with_shared(
        plan: &Plan,
        schema: &Schema,
        registry: &ServiceRegistry,
        shared: Arc<SharedServiceState>,
        budget: Option<u64>,
    ) -> Result<Self, ExecError> {
        ExecContext {
            budget,
            ..ExecContext::shared(shared)
        }
        .gateway(plan, schema, registry)
    }

    /// Whether frontier recording is enabled.
    pub fn frontier_enabled(&self) -> bool {
        self.frontier.is_some()
    }

    /// The recorded invocation frontier (`None` unless enabled).
    pub fn frontier(&self) -> Option<&InvocationFrontier> {
        self.frontier.as_ref()
    }

    /// A snapshot of the recorded frontier so far (`None` unless
    /// enabled) — what a standing publisher attaches to a sub-result
    /// entry right after draining its level.
    pub fn frontier_snapshot(&self) -> Option<Arc<InvocationFrontier>> {
        self.frontier.as_ref().map(|f| Arc::new(f.clone()))
    }

    /// Merges `extra` invocations into the frontier, if enabled — how a
    /// replayed prefix's recorded dependencies stay tracked even though
    /// this execution never demanded them itself.
    pub fn extend_frontier(&mut self, extra: &InvocationFrontier) {
        if let Some(frontier) = &mut self.frontier {
            frontier.extend(extra.iter().cloned());
        }
    }

    /// Records one invocation demand on the frontier, if enabled.
    fn note_frontier(&mut self, id: ServiceId, pattern: usize, key: &[Value]) {
        if let Some(frontier) = &mut self.frontier {
            frontier.insert(InvocationKey {
                service: id,
                pattern,
                inputs: key.to_vec(),
            });
        }
    }

    /// The state underneath (shared across queries when this gateway was
    /// built from an [`ExecContext::shared`] context).
    pub fn shared_state(&self) -> &Arc<SharedServiceState> {
        &self.shared
    }

    /// The tenant this execution is attributed to, if any.
    pub fn tenant_id(&self) -> Option<TenantId> {
        self.tenant.as_ref().map(|(t, _)| *t)
    }

    /// Serves page `page` of the invocation `(service, pattern, key)`:
    /// from the client cache when the setting allows, forwarding one
    /// request-response otherwise.
    ///
    /// Forwarding is subject to admission control (the per-query call
    /// budget — exhaustion poisons the execution and serves an empty
    /// page), single-flight deduplication (a page already being fetched
    /// by a concurrent execution is awaited, not re-requested), the
    /// per-service concurrency limit, and the per-service
    /// [`RetryPolicy`]: faulted attempts are retried with accounted
    /// backoff while the retry and call budgets allow; a page whose
    /// retries exhaust is memoized as failed and served as a degraded
    /// (empty, final) page — see [`ServiceGateway::partial_results`].
    pub fn fetch_page(
        &mut self,
        id: ServiceId,
        pattern: usize,
        key: &[Value],
        page: u32,
    ) -> PageFetch {
        self.note_frontier(id, pattern, key);
        let shared = Arc::clone(&self.shared);
        let shard = &shared.shards[shared.shard_idx(id, key)];
        let mut slot: Option<FlowSlot<'_>> = None;
        let mut inner = shard.inner.lock().expect("page shard lock");
        let guard = loop {
            match inner.cache.lookup(id, key, page) {
                PageLookup::Hit(tuples, has_more) => {
                    drop(inner);
                    drop(slot);
                    self.note_cached(id, 1);
                    return PageFetch {
                        tuples,
                        has_more,
                        forwarded_latency: None,
                        fault: None,
                    };
                }
                PageLookup::PastEnd => return PageFetch::empty(),
                PageLookup::Unknown => {}
            }
            // a page that already exhausted someone's retry budget is
            // served from the failed-page memo: no fault storm, and a
            // single-flight waiter woken by a failing leader lands here
            if let Some(fault) = inner.failed_for(id, key, page) {
                let fault = fault.clone();
                drop(inner);
                drop(slot);
                self.note_degraded(id, fault.clone());
                if let Some(t) = &self.trace {
                    t.instant(SpanKind::DegradedPage {
                        service: self.service_label(id),
                    });
                }
                return PageFetch::failed(fault, None);
            }
            // another execution is fetching this very page: wait for it,
            // then re-probe the cache (under `NoCache` the store is a
            // no-op and we fall through to forwarding our own request).
            // Any held concurrency slot is released first — slots count
            // forwarded fetches, not sleepers
            if inner.flight_position(id, key, page).is_some() {
                slot = None;
                inner.waiters += 1;
                inner = shard.changed.wait(inner).expect("page shard lock");
                inner.waiters -= 1;
                continue;
            }
            // admission control: the query's forwarded-call budget
            if let Some(budget) = self.budget {
                if self.total_calls() >= budget {
                    drop(inner);
                    drop(slot);
                    self.poison(ExecError::CallBudgetExhausted { budget });
                    return PageFetch::empty();
                }
            }
            // admission control: the tenant's cumulative budget (cheap
            // non-reserving probe — the actual reservation happens once
            // the single-flight claim is held, right before forwarding)
            if let Some((tenant, cell)) = &self.tenant {
                if !cell.has_room() {
                    let err = ExecError::TenantBudgetExhausted {
                        tenant: *tenant,
                        budget: cell.budget().unwrap_or(0),
                    };
                    drop(inner);
                    drop(slot);
                    self.poison(err);
                    return PageFetch::empty();
                }
            }
            // per-service concurrency limit: slots come from the
            // flow-control lock, never held together with a shard lock
            if shared.per_service_limit > 0 && slot.is_none() {
                drop(inner);
                slot = Some(shared.acquire_slot(id));
                inner = shard.inner.lock().expect("page shard lock");
                continue; // re-probe: the page may have landed meanwhile
            }
            inner.fetching.push((id, key.to_vec(), page));
            drop(inner);
            // releases the claim and wakes its waiters, on return AND on
            // unwind — a panicking service must not wedge them
            break FlightGuard {
                shard,
                id,
                key,
                page,
                released: false,
            };
        };

        let service = Arc::clone(
            self.services
                .get(&id)
                .expect("gateway resolved all plan services at construction"),
        );
        // reserve the first attempt against the tenant budget *before*
        // forwarding: a CAS on the cell, so racing executions of one
        // tenant cannot collectively overshoot. Losing the race releases
        // the flight claim (guard drop wakes the waiters).
        if let Some((tenant, cell)) = &self.tenant {
            if !cell.try_charge() {
                let err = ExecError::TenantBudgetExhausted {
                    tenant: *tenant,
                    budget: cell.budget().unwrap_or(0),
                };
                drop(guard);
                drop(slot);
                self.poison(err);
                return PageFetch::empty();
            }
        }
        let policy = shared.retry_policy(id);
        let mut attempt: u32 = 0;
        // simulated seconds this page consumed: attempt latencies
        // (faulted ones included) plus accounted backoff
        let mut spent = 0.0;
        loop {
            match service.try_fetch(pattern, key, page) {
                Ok(r) => {
                    spent += r.latency;
                    let tuples = Page::from(r.tuples);
                    self.acct.record_ok(id, tuples.len(), r.latency);
                    guard.finish(tuples.clone(), r.has_more);
                    drop(slot);
                    if let Some(ns) = self.node_acc() {
                        ns.calls += 1;
                        ns.sim_seconds += r.latency;
                    }
                    if let Some(t) = &self.trace {
                        t.record(
                            SpanKind::ServiceCall {
                                service: self.service_label(id),
                                page: u64::from(page),
                                tuples: tuples.len() as u64,
                                ok: true,
                            },
                            r.latency,
                        );
                    }
                    return PageFetch {
                        tuples,
                        has_more: r.has_more,
                        forwarded_latency: Some(spent),
                        fault: None,
                    };
                }
                Err(fault) => {
                    let fault_latency = fault.latency();
                    spent += fault_latency;
                    // booked first: the faulted attempt is a forwarded
                    // call, and must count before the per-query budget
                    // gate below decides whether a retry still fits
                    self.acct.record_fault(id, &fault, fault_latency);
                    // a retry is allowed while the policy, the
                    // per-query call budget and the tenant budget all
                    // have room; the tenant charge is a reservation, so
                    // it is only attempted once the cheaper gates pass
                    let budget_ok = self.budget.is_none_or(|b| self.total_calls() < b);
                    let retrying = attempt < policy.max_retries
                        && budget_ok
                        && self
                            .tenant
                            .as_ref()
                            .map(|(_, cell)| cell.try_charge())
                            .unwrap_or(true);
                    let wait = retrying.then(|| {
                        let base = policy.backoff(attempt);
                        match &fault {
                            ServiceFault::RateLimited { retry_after, .. } => retry_after.max(base),
                            _ => base,
                        }
                    });
                    spent += wait.unwrap_or(0.0);
                    if let Some(ns) = self.node_acc() {
                        ns.calls += 1;
                        ns.sim_seconds += fault_latency;
                        if let Some(w) = wait {
                            ns.retries += 1;
                            ns.sim_seconds += w;
                        }
                    }
                    if let Some(t) = &self.trace {
                        t.record(
                            SpanKind::ServiceCall {
                                service: self.service_label(id),
                                page: u64::from(page),
                                tuples: 0,
                                ok: false,
                            },
                            fault_latency,
                        );
                        if let Some(w) = wait {
                            t.record(
                                SpanKind::Retry {
                                    service: self.service_label(id),
                                },
                                w,
                            );
                        }
                    }
                    match wait {
                        Some(wait) => self.acct.record_retry(id, wait),
                        None => {
                            self.acct.record_exhausted(id);
                            // publish the terminal fault while still
                            // holding the single-flight claim: waiters
                            // wake into the memo. ONLY a genuinely
                            // exhausted retry policy condemns the page
                            // globally — one query running out of its
                            // own call budget says nothing about the
                            // page, and other queries must stay free
                            // to retry
                            if attempt >= policy.max_retries {
                                let mut inner = shard.inner.lock().expect("page shard lock");
                                inner.failed.insert((id, key.to_vec(), page), fault.clone());
                            }
                        }
                    }
                    if wait.is_some() {
                        attempt += 1;
                        continue;
                    }
                    drop(guard);
                    drop(slot);
                    self.note_degraded(id, fault.clone());
                    return PageFetch::failed(fault, Some(spent));
                }
            }
        }
    }

    /// Serves up to `max_pages` consecutive pages of one invocation
    /// starting at `first_page`, pushing one [`PageFetch`] per page
    /// served.
    ///
    /// Runs of already-cached pages are drained under a **single**
    /// shard-lock acquisition — the batched kernel's amortization of
    /// per-page lock traffic — ending early at the invocation's last
    /// page. Forwarding stays exactly as lazy as tuple-at-a-time
    /// demand: only when the *first* requested page is uncached does
    /// the run forward that one page through the full
    /// [`fetch_page`](ServiceGateway::fetch_page) path (single-flight,
    /// flow control, retries); a run that served cached pages stops
    /// *before* the first miss, leaving it to a later demand that may
    /// never come.
    pub fn fetch_page_run(
        &mut self,
        id: ServiceId,
        pattern: usize,
        key: &[Value],
        first_page: u32,
        max_pages: usize,
        out: &mut Vec<PageFetch>,
    ) {
        self.note_frontier(id, pattern, key);
        let end = first_page.saturating_add(max_pages.min(u32::MAX as usize) as u32);
        let mut page = first_page;
        let mut served: u64 = 0;
        let mut stop = false;
        {
            let shard = &self.shared.shards[self.shared.shard_idx(id, key)];
            let mut inner = shard.inner.lock().expect("page shard lock");
            while page < end {
                match inner.cache.lookup(id, key, page) {
                    PageLookup::Hit(tuples, has_more) => {
                        let last = !has_more;
                        out.push(PageFetch {
                            tuples,
                            has_more,
                            forwarded_latency: None,
                            fault: None,
                        });
                        page += 1;
                        served += 1;
                        if last {
                            stop = true;
                            break;
                        }
                    }
                    PageLookup::PastEnd => {
                        out.push(PageFetch::empty());
                        stop = true;
                        break;
                    }
                    PageLookup::Unknown => break,
                }
            }
        }
        if served > 0 {
            self.note_cached(id, served);
        }
        if stop || page > first_page || page >= end {
            // served at least one cached page (or exhausted the run):
            // the next uncached page is *not* forwarded speculatively
            return;
        }
        out.push(self.fetch_page(id, pattern, key, page));
    }

    /// Records that `id` served a degraded page to this execution.
    fn note_degraded(&mut self, id: ServiceId, fault: ServiceFault) {
        self.degraded.insert(id);
        self.last_faults.insert(id, fault);
    }

    /// The service's display name for span labels.
    fn service_label(&self, id: ServiceId) -> String {
        self.services
            .get(&id)
            .map(|s| s.name().to_string())
            .unwrap_or_else(|| format!("service#{}", id.0))
    }

    /// The fetch-side stats slot of the active node, if one is set.
    fn node_acc(&mut self) -> Option<&mut OperatorStats> {
        self.active_node.and_then(|n| self.node_stats.get_mut(n))
    }

    /// Records `pages` pages served from the shared cache to the
    /// active node.
    fn note_cached(&mut self, id: ServiceId, pages: u64) {
        if let Some(ns) = self.node_acc() {
            ns.cached_pages += pages;
        }
        if let Some(t) = &self.trace {
            t.instant(SpanKind::CachedPages {
                service: self.service_label(id),
                pages,
            });
        }
    }

    /// This execution's span track, when the shared state is traced.
    /// Drivers clone it to record driver-level spans (re-plan splices,
    /// sub-result replays, query start/done) onto the same track the
    /// gateway's call spans land on.
    pub fn trace(&self) -> Option<QueryTrace> {
        self.trace.clone()
    }

    /// Records a span of `dur` accounted seconds on this execution's
    /// track; a no-op when untraced.
    pub fn trace_span(&self, kind: SpanKind, dur: f64) {
        if let Some(t) = &self.trace {
            t.record(kind, dur);
        }
    }

    /// Declares which plan node the following fetches belong to —
    /// the invoke operators bracket their page runs with this so
    /// call/retry/latency accounting lands on the right
    /// [`OperatorStats`] row.
    pub fn set_active_node(&mut self, node: Option<usize>) {
        self.active_node = node;
    }

    /// Per-plan-node runtime statistics collected so far (EXPLAIN
    /// ANALYZE's observed side). Indexed by plan node; `rows_in` is
    /// left to the renderer (derived from the plan topology).
    pub fn node_stats(&self) -> &[OperatorStats] {
        &self.node_stats
    }

    /// Flushes one operator hop into the node's stats: `rows` bindings
    /// produced over `batches` batched hops (a per-binding pull passes
    /// `batches = 0`). Traced executions also get an `operator_batch`
    /// instant per batched hop.
    pub fn record_node_output(&mut self, node: usize, rows: u64, batches: u64) {
        if let Some(ns) = self.node_stats.get_mut(node) {
            ns.rows_out += rows;
            ns.batches += batches;
        }
        if batches > 0 {
            if let Some(t) = &self.trace {
                t.instant(SpanKind::OperatorBatch {
                    node: node as u64,
                    rows,
                });
            }
        }
    }

    /// Records `rows` bindings replayed into `node` from the
    /// sub-result store.
    pub fn record_node_replay(&mut self, node: usize, rows: u64) {
        if let Some(ns) = self.node_stats.get_mut(node) {
            ns.sub_result_rows += rows;
        }
    }

    /// Resets the per-node statistics for a plan of `nodes` nodes —
    /// the adaptive drivers call this when they splice in a re-planned
    /// suffix, so the stats always describe the plan that finished.
    pub fn reset_node_stats(&mut self, nodes: usize) {
        self.node_stats = vec![OperatorStats::default(); nodes];
        self.active_node = None;
    }

    /// Records one invocation-level cache hit or miss for `id`.
    pub fn record_invocation(&mut self, id: ServiceId, hit: bool) {
        self.acct.record_invocation(id, hit);
    }

    /// A snapshot of this execution's ledger: everything it forwarded
    /// so far — calls, latency, faults, per-service observations (what
    /// the adaptive drivers compare against the schema's registered
    /// [`ServiceProfile`]s) and invocation-level cache statistics.
    ///
    /// [`ServiceProfile`]: mdq_model::schema::ServiceProfile
    pub fn ledger(&self) -> Counters {
        self.read_ledger(Counters::clone)
    }

    /// Reads this execution's ledger in place: `f` sees one consistent
    /// [`Counters`] and returns only what it derives, so a reader after
    /// a few totals copies no per-service map.
    pub fn read_ledger<R>(&self, f: impl FnOnce(&Counters) -> R) -> R {
        self.acct.read(f)
    }

    /// Request-responses this execution forwarded to `id` so far.
    pub fn calls_to(&self, id: ServiceId) -> u64 {
        self.acct.read(|c| c.calls_to(id))
    }

    /// Total request-responses this execution forwarded so far.
    pub fn total_calls(&self) -> u64 {
        self.acct.read(Counters::total_calls)
    }

    /// Summed simulated latency of this execution's forwarded calls.
    pub fn total_latency(&self) -> f64 {
        self.acct.read(Counters::total_latency)
    }

    /// Whether any service served this execution a degraded page.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// The partial-results report of this execution: `None` when every
    /// page was served healthily, otherwise the degraded services in
    /// name order with their fault accounting.
    pub fn partial_results(&self) -> Option<PartialResults> {
        if self.degraded.is_empty() {
            return None;
        }
        let ledger = self.ledger();
        let mut degraded: Vec<DegradedService> = self
            .degraded
            .iter()
            .map(|id| DegradedService {
                service: self.service_label(*id),
                stats: ledger.faults_for(*id),
                last_fault: self
                    .last_faults
                    .get(id)
                    .cloned()
                    .expect("degraded services record their terminal fault"),
            })
            .collect();
        degraded.sort_by(|a, b| a.service.cmp(&b.service));
        Some(PartialResults { degraded })
    }

    /// Marks the execution as failed; the first error wins.
    pub fn poison(&mut self, err: ExecError) {
        self.error.get_or_insert(err);
    }

    /// The recorded error, if any, without clearing it.
    pub fn error(&self) -> Option<&ExecError> {
        self.error.as_ref()
    }

    /// Takes the recorded error, if any.
    pub fn take_error(&mut self) -> Option<ExecError> {
        self.error.take()
    }
}

/// One execution's gateway, shared by the operators of its plan: every
/// operator holds a clone and borrows the gateway for the length of one
/// closure.
#[derive(Clone)]
pub struct LocalGateway(Rc<RefCell<ServiceGateway>>);

impl LocalGateway {
    /// Wraps a gateway.
    pub fn new(gateway: ServiceGateway) -> Self {
        LocalGateway(Rc::new(RefCell::new(gateway)))
    }

    /// Runs `f` with exclusive access to the gateway.
    pub fn with<R>(&self, f: impl FnOnce(&mut ServiceGateway) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::Poset;
    use mdq_services::domains::travel::travel_world;

    fn plan_o(world: &mdq_services::domains::travel::TravelWorld) -> Plan {
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

    #[test]
    fn missing_service_fails_at_construction() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let empty = ServiceRegistry::new();
        let err = ExecContext::private(CacheSetting::OneCall)
            .gateway(&plan, &w.schema, &empty)
            .expect_err("nothing registered");
        assert!(matches!(err, ExecError::MissingService(_)));
    }

    #[test]
    fn forwarding_counts_calls_and_latency() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let mut g = ExecContext::private(CacheSetting::OneCall)
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        let key = vec![Value::str("DB")];
        let first = g.fetch_page(w.ids.conf, 0, &key, 0);
        assert!(first.forwarded_latency.is_some());
        assert_eq!(g.calls_to(w.ids.conf), 1);
        let again = g.fetch_page(w.ids.conf, 0, &key, 0);
        assert!(again.forwarded_latency.is_none(), "served from cache");
        assert_eq!(g.calls_to(w.ids.conf), 1, "no extra forwarding");
        assert_eq!(again.tuples.len(), first.tuples.len());
        assert!(g.total_latency() > 0.0);
    }

    #[test]
    fn poison_keeps_first_error() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let mut g = ExecContext::private(CacheSetting::NoCache)
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        g.poison(ExecError::UnboundInput {
            service: "a".into(),
        });
        g.poison(ExecError::UnboundInput {
            service: "b".into(),
        });
        match g.take_error() {
            Some(ExecError::UnboundInput { service }) => assert_eq!(service, "a"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(g.take_error().is_none());
    }

    #[test]
    fn tenant_cell_charges_never_overshoot() {
        let shared = SharedServiceState::new(CacheSetting::Optimal, 0);
        shared.set_tenant_budget(7, Some(5));
        let cell = shared.tenant_cell(7);
        let granted = (0..20).filter(|_| cell.try_charge()).count();
        assert_eq!(granted, 5, "exactly the budget is granted");
        assert_eq!(shared.tenant_calls(7), 5);
        assert!(!shared.tenant_has_room(7));
        // raising the budget re-opens the gate without resetting spend
        shared.set_tenant_budget(7, Some(6));
        assert!(shared.tenant_has_room(7));
        assert!(cell.try_charge());
        assert!(!cell.try_charge());
    }

    #[test]
    fn tenant_budget_poisons_and_halts_forwarding() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(SharedServiceState::new(CacheSetting::NoCache, 0));
        shared.set_tenant_budget(3, Some(1));
        let mut g = ExecContext {
            tenant: Some(3),
            ..ExecContext::shared(Arc::clone(&shared))
        }
        .gateway(&plan, &w.schema, &w.registry)
        .expect("builds");
        assert_eq!(g.tenant_id(), Some(3));
        let first = g.fetch_page(w.ids.conf, 0, &[Value::str("DB")], 0);
        assert!(first.forwarded_latency.is_some(), "first call has room");
        let second = g.fetch_page(w.ids.conf, 0, &[Value::str("AI")], 0);
        assert!(second.tuples.is_empty(), "refused call serves empty page");
        match g.take_error() {
            Some(ExecError::TenantBudgetExhausted {
                tenant: 3,
                budget: 1,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(shared.tenant_calls(3), 1, "the refusal charged nothing");
    }

    #[test]
    fn untenanted_gateway_never_touches_tenant_budgets() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(SharedServiceState::new(CacheSetting::NoCache, 0));
        shared.set_tenant_budget(1, Some(0));
        let mut g = ExecContext::shared(Arc::clone(&shared))
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        let f = g.fetch_page(w.ids.conf, 0, &[Value::str("DB")], 0);
        assert!(f.forwarded_latency.is_some(), "no tenant, no gate");
        assert_eq!(shared.tenant_calls(1), 0);
    }

    #[test]
    fn shared_state_serves_cross_gateway_hits() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
        let key = vec![Value::str("DB")];
        let mut g1 = ExecContext::shared(Arc::clone(&shared))
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        let first = g1.fetch_page(w.ids.conf, 0, &key, 0);
        assert!(first.forwarded_latency.is_some());
        // a *second* gateway over the same state hits without forwarding
        let mut g2 = ExecContext::shared(Arc::clone(&shared))
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        let again = g2.fetch_page(w.ids.conf, 0, &key, 0);
        assert!(again.forwarded_latency.is_none(), "cross-query cache hit");
        assert_eq!(again.tuples.len(), first.tuples.len());
        assert_eq!(g2.total_calls(), 0, "g2 forwarded nothing");
        assert_eq!(shared.total_calls(), 1, "one call across the workload");
    }

    #[test]
    fn dropped_gateways_fold_into_shared_totals() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
        let key = vec![Value::str("DB")];
        {
            let mut g = ExecContext::shared(Arc::clone(&shared))
                .gateway(&plan, &w.schema, &w.registry)
                .expect("builds");
            g.fetch_page(w.ids.conf, 0, &key, 0);
            g.record_invocation(w.ids.conf, false);
        }
        // the gateway is gone; its cell must have retired into the
        // shared totals
        assert_eq!(shared.total_calls(), 1);
        assert!(shared.total_latency() > 0.0);
        assert_eq!(shared.cache_stats(w.ids.conf).misses, 1);
    }

    #[test]
    fn page_run_drains_cached_pages_in_one_call() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
        let key = vec![Value::str("DB")];
        let mut g1 = ExecContext::shared(Arc::clone(&shared))
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        let mut pages: u32 = 0;
        loop {
            let f = g1.fetch_page(w.ids.conf, 0, &key, pages);
            pages += 1;
            if !f.has_more {
                break;
            }
        }
        let forwarded = shared.total_calls();
        assert_eq!(forwarded, u64::from(pages), "each page forwarded once");
        let mut g2 = ExecContext::shared(Arc::clone(&shared))
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        let mut run = Vec::new();
        g2.fetch_page_run(w.ids.conf, 0, &key, 0, pages as usize + 3, &mut run);
        assert_eq!(run.len(), pages as usize, "run ends at the stream end");
        assert!(
            run.iter().all(|f| f.forwarded_latency.is_none()),
            "every page in the run came from cache"
        );
        assert_eq!(shared.total_calls(), forwarded, "no re-forwarding");
    }

    #[test]
    fn page_run_forwards_lazily() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let mut g = ExecContext::private(CacheSetting::Optimal)
            .gateway(&plan, &w.schema, &w.registry)
            .expect("builds");
        let key = vec![Value::str("DB")];
        // cold: a run of 4 forwards exactly ONE page — pages past the
        // first miss wait for actual demand
        let mut run = Vec::new();
        g.fetch_page_run(w.ids.conf, 0, &key, 0, 4, &mut run);
        assert_eq!(run.len(), 1, "only the demanded page is forwarded");
        assert!(run[0].forwarded_latency.is_some());
        assert_eq!(g.total_calls(), 1);
        // part-warm: the cached page is served, and the run stops
        // *before* forwarding the next page
        let mut run2 = Vec::new();
        g.fetch_page_run(w.ids.conf, 0, &key, 0, 4, &mut run2);
        assert_eq!(run2.len(), 1);
        assert!(run2[0].forwarded_latency.is_none(), "cache hit");
        assert_eq!(g.total_calls(), 1, "no speculative forwarding");
    }

    #[test]
    fn call_budget_poisons_and_refuses() {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        let shared = Arc::new(SharedServiceState::new(CacheSetting::NoCache, 0));
        let mut g = ExecContext {
            budget: Some(2),
            ..ExecContext::shared(shared)
        }
        .gateway(&plan, &w.schema, &w.registry)
        .expect("builds");
        let key = vec![Value::str("DB")];
        assert!(g
            .fetch_page(w.ids.conf, 0, &key, 0)
            .forwarded_latency
            .is_some());
        assert!(g
            .fetch_page(w.ids.conf, 0, &key, 1)
            .forwarded_latency
            .is_some());
        let refused = g.fetch_page(w.ids.conf, 0, &key, 2);
        assert!(refused.forwarded_latency.is_none());
        assert!(refused.tuples.is_empty() && !refused.has_more);
        assert_eq!(g.total_calls(), 2, "budget capped forwarding");
        assert!(matches!(
            g.take_error(),
            Some(ExecError::CallBudgetExhausted { budget: 2 })
        ));
    }

    #[test]
    fn concurrent_same_page_is_fetched_once() {
        // 8 threads demand the same page through 8 gateways over one
        // shared state: single-flight + the shared cache must forward
        // exactly one request-response, and everyone sees the same page.
        let w = Arc::new(travel_world(2008));
        let plan = Arc::new(plan_o(&w));
        let shared = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 2));
        let key = vec![Value::str("DB")];
        let pages: Vec<Vec<Tuple>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let w = Arc::clone(&w);
                    let plan = Arc::clone(&plan);
                    let shared = Arc::clone(&shared);
                    let key = key.clone();
                    scope.spawn(move || {
                        let mut g = ExecContext::shared(shared)
                            .gateway(&plan, &w.schema, &w.registry)
                            .expect("builds");
                        g.fetch_page(w.ids.conf, 0, &key, 0).tuples
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        assert_eq!(shared.total_calls(), 1, "single-flight deduplicates");
        for p in &pages[1..] {
            assert_eq!(p, &pages[0], "every waiter sees the fetched page");
        }
    }

    #[test]
    fn bounded_cache_uses_one_shard_unbounded_uses_many() {
        let unbounded = SharedServiceState::new(CacheSetting::Optimal, 0);
        assert!(unbounded.page_shards() > 1);
        let bounded = SharedServiceState::new(CacheSetting::Optimal, 0).with_page_capacity(4);
        assert_eq!(
            bounded.page_shards(),
            1,
            "global LRU needs a single eviction domain"
        );
        let disabled = SharedServiceState::new(CacheSetting::NoCache, 0).with_page_capacity(0);
        assert!(disabled.page_shards() > 1, "no cache, no eviction domain");
    }
}
