//! The service gateway — the *single* invocation path of the engine.
//!
//! The driver, in pull mode and in stage mode alike, drives its
//! service calls through one [`ServiceGateway`]. It owns:
//!
//! * **registry lookup** — services are resolved up front, so a missing
//!   registration is [`ExecError::MissingService`] before any call;
//! * **paging** — pages are forwarded in order, each one accounted
//!   request-response (the unit of every cost metric); runs of cached
//!   pages are served in one probe (`ServiceGateway::fetch_page_run`);
//! * **admission control** — an optional per-query *call budget*, past
//!   which fetches are refused with [`ExecError::CallBudgetExhausted`];
//! * **resilience** — a faulting service ([`ServiceFault`]) is retried
//!   under a per-service [`RetryPolicy`] (backoff accounted in simulated
//!   seconds); once retries exhaust the page *degrades* instead of
//!   failing the query, which completes with [`PartialResults`] and its
//!   [`FaultStats`].
//!
//! Cache and accounting live one level down, in a [`SharedServiceState`]
//! partitioned so concurrent executions do not serialize each other.
//! Its caches are users of the one [`crate::store`] primitive (a
//! [`Guarded`] lock with single-flight [`Claim`]s, an exact LRU, a
//! bounded [`FailureMemo`]):
//!
//! * the §5.1 [`PageCache`] is split into independently locked *shards*
//!   routed by `(service, input-key)` hash; a page's claims and its
//!   failure memo live with its shard, so two queries touching different
//!   invocations never contend, and a miss takes its shard lock twice —
//!   once to probe and claim, once to publish;
//! * the per-service concurrency limit is an in-flight atomic per
//!   service: a slot is one compare-and-swap, taken under the shard
//!   lock, and released by one decrement; only a miss at the limit
//!   parks, on the flow control's own lock, and never while it holds a
//!   shard lock;
//! * the sub-result store (materialized invoke prefixes under an LRU
//!   bound and per-tenant quotas) has its own lock;
//! * accounting is **one ledger per execution** (`crate::accounting`),
//!   merged into one [`Counters`] snapshot on read
//!   ([`SharedServiceState::ledger`]), so metrics never serialize the
//!   page path.
//!
//! A stand-alone execution owns a private state
//! ([`ExecContext::private`] — the paper's one-query-at-a-time
//! setting); the `mdq-runtime` serving layer hands *one* `Arc`-shared
//! state to every concurrent query ([`ExecContext::shared`]).
//! [`ExecContext::gateway`] is the one place a gateway is built; both
//! drivers hand every operator of an execution a clone of one
//! `LocalGateway` (`Rc<RefCell>`).

pub use crate::accounting::Counters;
use crate::accounting::{Accounting, AcctCell};
use crate::binding::Binding;
use crate::cache::{CacheSetting, Page, PageCache, PageLookup};
use crate::context::ExecContext;
use crate::operator::ExecError;
use crate::store::{recover, Claim, FailureMemo, Guarded, LruMap, FAILURE_MEMO_CAP};
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
use std::borrow::Borrow;
use std::cell::{OnceCell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
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
    fn cached(tuples: Page, has_more: bool) -> Self {
        PageFetch {
            tuples,
            has_more,
            forwarded_latency: None,
            fault: None,
        }
    }

    fn empty() -> Self {
        Self::cached(Page::default(), false)
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

/// The per-service concurrency limit. Each service's in-flight count is
/// an atomic a miss takes a slot from by compare-and-swap, under its
/// shard lock and with no lock of its own; only a miss that finds its
/// service at the limit drops the shard lock and parks on `freed`.
///
/// No wake-up is lost. A parker registers in `parked`, then re-reads the
/// count, both under `park`, and waits on `freed`, which releases `park`
/// atomically; a releaser decrements the count, then reads `parked`,
/// and takes `park` before notifying. All four accesses are `SeqCst`,
/// so in their single total order either the parker's read follows the
/// decrement — and it takes the freed slot — or its registration
/// precedes the releaser's read of `parked` — and the releaser's lock
/// of `park` waits until the parker is waiting, so the notify reaches
/// it.
struct Flow {
    /// Max request-responses in flight per service; `0` = unlimited.
    limit: usize,
    /// Each service's in-flight count, made on first use; a gateway
    /// looks its services' counts up once, on their first miss.
    counts: Mutex<HashMap<ServiceId, Arc<AtomicUsize>>>,
    /// Threads parked for a slot, of any service.
    parked: AtomicUsize,
    park: Mutex<()>,
    freed: Condvar,
}

impl Flow {
    fn new(limit: usize) -> Self {
        Flow {
            limit,
            counts: Mutex::new(HashMap::new()),
            parked: AtomicUsize::new(0),
            park: Mutex::new(()),
            freed: Condvar::new(),
        }
    }

    /// The in-flight count of `id`.
    fn count(&self, id: ServiceId) -> Arc<AtomicUsize> {
        Arc::clone(recover(self.counts.lock()).entry(id).or_default())
    }

    /// A slot of the service counted by `count`, if one is free.
    fn try_take<'a>(&'a self, count: &'a AtomicUsize) -> Option<FlowSlot<'a>> {
        count
            .fetch_update(AtomicOrdering::SeqCst, AtomicOrdering::SeqCst, |n| {
                (n < self.limit).then_some(n + 1)
            })
            .ok()?;
        Some(FlowSlot { flow: self, count })
    }

    /// Blocks until a slot of the service counted by `count` is free,
    /// then takes it. The caller holds no shard lock.
    fn park<'a>(&'a self, count: &'a AtomicUsize) -> FlowSlot<'a> {
        let mut parked = recover(self.park.lock());
        self.parked.fetch_add(1, AtomicOrdering::SeqCst);
        let slot = loop {
            if let Some(slot) = self.try_take(count) {
                break slot;
            }
            parked = recover(self.freed.wait(parked));
        };
        self.parked.fetch_sub(1, AtomicOrdering::SeqCst);
        slot
    }
}

/// A held per-service concurrency slot. Dropping it releases the slot —
/// one decrement — and wakes the parked threads, if any park.
struct FlowSlot<'a> {
    flow: &'a Flow,
    count: &'a AtomicUsize,
}

impl Drop for FlowSlot<'_> {
    fn drop(&mut self) {
        self.count.fetch_sub(1, AtomicOrdering::SeqCst);
        if self.flow.parked.load(AtomicOrdering::SeqCst) > 0 {
            drop(recover(self.flow.park.lock()));
            self.flow.freed.notify_all();
        }
    }
}

/// How many independently locked page shards an unbounded shared state
/// uses. A *bounded* page cache collapses to a single shard so the
/// capacity bound and LRU order stay exactly global (eviction decisions
/// must see every invocation key).
const PAGE_SHARDS: usize = 8;

/// One page of one invocation, owned: the key a shard files its
/// single-flight claims and its failure memo under. Its input key is
/// the one copy a miss makes, shared with the cache entry it stores.
#[derive(PartialEq, Eq, Hash)]
struct PageKey(ServiceId, Arc<[Value]>, u32);

/// A page's identity, owned ([`PageKey`]) or borrowed from a probe, so
/// probing the claims and the failure memo clones no key.
trait PageId {
    fn parts(&self) -> (ServiceId, &[Value], u32);
}

impl PageId for PageKey {
    fn parts(&self) -> (ServiceId, &[Value], u32) {
        (self.0, &self.1, self.2)
    }
}

impl PageId for (ServiceId, &[Value], u32) {
    fn parts(&self) -> (ServiceId, &[Value], u32) {
        *self
    }
}

impl<'a> Borrow<dyn PageId + 'a> for PageKey {
    fn borrow(&self) -> &(dyn PageId + 'a) {
        self
    }
}

// hashes exactly as `PageKey`'s derived `Hash`: an `Arc` hashes as its slice
impl Hash for dyn PageId + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn PageId + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn PageId + '_ {}

/// One independently locked partition of the page-serving state, with
/// the single-flight claims on the pages routed to it.
type PageShard = Guarded<ShardInner, PageKey>;

/// The state of one [`PageShard`].
struct ShardInner {
    cache: PageCache,
    /// Pages whose retries exhausted, with the terminal fault; the
    /// shards split [`FAILURE_MEMO_CAP`] between them.
    failed: FailureMemo<PageKey, ServiceFault>,
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
        .map(|_| {
            Guarded::new(ShardInner {
                cache: PageCache::with_capacity(setting, capacity),
                failed: FailureMemo::with_cap(FAILURE_MEMO_CAP / shards),
            })
        })
        .collect()
}

/// The invocation set a materialized prefix (or a standing query's
/// answers) depends on — the unit the refresh pass diffs against to
/// decide what survived an epoch, in the standing queries' own key type.
pub(crate) type InvocationFrontier = HashSet<InvocationKey>;

/// One materialized invoke prefix: the bindings its chain produced,
/// `Arc`-shared so a replay is a refcount bump, with the publisher's
/// variables so a subscriber in another variable space can remap.
pub(crate) struct SubResultEntry {
    pub rows: SubResultRows,
    /// The chain variables the rows bind, in the signature's canonical
    /// order (the publisher's numbering).
    pub vars: Arc<[VarId]>,
    /// Variable-space width of the publishing execution.
    pub nvars: usize,
    /// Forwarded calls the publisher spent — what a replay saves.
    pub cost_calls: u64,
    /// The tenant that published the entry (`None` for untenanted
    /// executions), whose quota it counts against.
    pub tenant: Option<TenantId>,
    /// The invocations the rows were computed from, recorded only by
    /// standing publishers. `None` (unknown provenance) entries replay
    /// within an epoch but never survive a refresh or replay into a
    /// standing query.
    pub frontier: Option<Arc<InvocationFrontier>>,
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
    /// Summed materializing cost of every replayed entry — an upper
    /// bound on the calls saved, as the page cache may absorb some.
    pub calls_saved: u64,
    /// Prefixes currently materialized.
    pub entries: u64,
    /// Prefixes a tenant's own quota displaced
    /// ([`SharedServiceState::set_tenant_sub_quota`]).
    pub quota_evictions: u64,
    /// Prefixes refresh passes dropped as stale
    /// ([`SharedServiceState::invalidate_sub_results`]).
    pub invalidated: u64,
    /// Prefixes a refresh pass kept because their invocations came
    /// through the epoch unchanged
    /// ([`SharedServiceState::retain_sub_results`]).
    pub retained: u64,
}

/// The `Arc`-shared bindings of one materialized prefix.
pub(crate) type SubResultRows = Arc<Vec<Binding>>;

/// A materialized prefix handed to a subscriber for replay: the stored
/// entry, shared, and the chain level (1-based) it covers.
pub(crate) struct ReplayEntry {
    pub level: usize,
    entry: Arc<SubResultEntry>,
}

impl std::ops::Deref for ReplayEntry {
    type Target = SubResultEntry;
    fn deref(&self) -> &SubResultEntry {
        &self.entry
    }
}

/// A claim on materializing one prefix level.
pub(crate) type SubClaim<'a> = Claim<'a, SubInner, SubplanSignature>;

/// What `SubResults::resolve` decided for one execution's chain: the
/// longest materialized prefix to replay, and the levels (1-based) it
/// claimed — each claim to publish, or drop to abandon the level.
pub(crate) struct PrefixResolution<'a> {
    pub replay: Option<ReplayEntry>,
    pub claimed: Vec<(usize, SubClaim<'a>)>,
}

/// The signature-keyed sub-result store: materialized invoke prefixes
/// under an LRU bound and per-tenant quotas, each materialized
/// single-flight.
pub(crate) struct SubResults {
    /// Max materialized prefixes; `0` disables the store. Fixed at
    /// build, so "is the store on?" needs no prefix signing and no lock.
    capacity: usize,
    inner: Guarded<SubInner, SubplanSignature>,
}

/// The state behind the sub-result store's lock.
#[derive(Default)]
pub(crate) struct SubInner {
    entries: LruMap<SubplanSignature, Arc<SubResultEntry>>,
    /// Entries held per tenant, so a quota check is one lookup.
    held: HashMap<TenantId, u64>,
    stats: SubResultStats,
}

/// Uncounts `entry` from its tenant's holdings.
fn release_held(held: &mut HashMap<TenantId, u64>, entry: &SubResultEntry) {
    if let Some(n) = entry.tenant.and_then(|t| held.get_mut(&t)) {
        *n -= 1;
    }
}

impl SubResults {
    fn new(capacity: usize) -> Self {
        let inner = Guarded::new(SubInner::default());
        SubResults { capacity, inner }
    }

    /// Whether the store is on.
    pub(crate) fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn stats(&self) -> SubResultStats {
        let sub = self.inner.lock();
        SubResultStats {
            entries: sub.entries.len() as u64,
            ..sub.stats
        }
    }

    /// Decides, for one execution whose chain carries `sigs` (level 1
    /// first), what to replay and what it must materialize. When a
    /// wanted level is being materialized concurrently, this waits until
    /// that level is published (then replays it) or abandoned (then
    /// claims it).
    ///
    /// With `materialize = false` the call is read-only: the longest
    /// materialized prefix still replays, but nothing is claimed or
    /// waited for. With `frontier_only = true` only entries that carry
    /// a recorded [`InvocationFrontier`] replay — a standing query
    /// replaying a provenance-less entry would miss refreshes — while
    /// frontier-less levels stay claimable, so it re-materializes them
    /// *with* provenance.
    pub(crate) fn resolve(
        &self,
        sigs: &[SubplanSignature],
        materialize: bool,
        frontier_only: bool,
    ) -> PrefixResolution<'_> {
        let mut sub = self.inner.lock();
        loop {
            let hit = (0..sigs.len()).rev().find(|&i| {
                sub.entries
                    .peek(&sigs[i])
                    .is_some_and(|e| !frontier_only || e.frontier.is_some())
            });
            let from = hit.map_or(0, |i| i + 1);
            if materialize && sigs[from..].iter().any(|s| sub.is_claimed(s)) {
                // a concurrent execution is materializing a level we
                // want: wait for its publish/abandon, then re-resolve
                sub = self.inner.wait(sub);
                continue;
            }
            let replay = hit.and_then(|i| {
                let entry = Arc::clone(sub.entries.get(&sigs[i])?);
                Some(ReplayEntry {
                    level: i + 1,
                    entry,
                })
            });
            if let Some(r) = &replay {
                sub.stats.hits += 1;
                sub.stats.calls_saved += r.cost_calls;
            } else {
                sub.stats.misses += 1;
            }
            let mut claimed = Vec::new();
            for (i, sig) in sigs.iter().enumerate().skip(from) {
                if materialize && !sub.is_claimed(sig) {
                    claimed.push((i + 1, self.inner.claim(&mut sub, *sig)));
                }
            }
            return PrefixResolution { replay, claimed };
        }
    }

    /// Publishes a materialized prefix under `sig`, LRU-evicting when
    /// full, and releases the claim. `quota` is the publishing tenant's:
    /// at its quota it evicts its *own* least-recent entry, and with
    /// quota 0 it releases the claim without storing.
    pub(crate) fn publish(
        &self,
        claim: SubClaim<'_>,
        sig: SubplanSignature,
        entry: SubResultEntry,
        quota: Option<u64>,
    ) {
        let capacity = self.capacity;
        claim.publish(|sub| {
            if capacity == 0 || quota == Some(0) {
                return;
            }
            let resident = sub.entries.peek(&sig).is_some();
            if let (Some(tenant), Some(quota), false) = (entry.tenant, quota, resident) {
                if sub.held.get(&tenant).copied().unwrap_or(0) >= quota {
                    let own = sub.entries.evict(|_, e| e.tenant != Some(tenant));
                    if let Some((_, own)) = own {
                        release_held(&mut sub.held, &own);
                        sub.stats.quota_evictions += 1;
                    }
                }
            }
            if !resident && sub.entries.len() >= capacity {
                if let Some((_, oldest)) = sub.entries.evict(|_, _| false) {
                    release_held(&mut sub.held, &oldest);
                    sub.stats.evictions += 1;
                }
            }
            if let Some(tenant) = entry.tenant {
                *sub.held.entry(tenant).or_insert(0) += 1;
            }
            if let Some(old) = sub.entries.insert(sig, Arc::new(entry)) {
                release_held(&mut sub.held, &old);
            }
        });
    }

    fn invalidate(&self) -> u64 {
        let mut sub = self.inner.lock();
        let dropped = sub.entries.clear() as u64;
        sub.held.clear();
        sub.stats.invalidated += dropped;
        dropped
    }

    fn retain(&self, retain: impl Fn(&InvocationFrontier) -> bool) -> (u64, u64) {
        let mut sub = self.inner.lock();
        let SubInner {
            entries,
            held,
            stats,
        } = &mut **sub;
        let dropped = entries.retain(|_, e| {
            let keep = e.frontier.as_deref().is_some_and(&retain);
            if !keep {
                release_held(held, e);
            }
            keep
        }) as u64;
        let retained = entries.len() as u64;
        stats.invalidated += dropped;
        stats.retained += retained;
        (dropped, retained)
    }

    fn is_materialized(&self, sig: SubplanSignature) -> bool {
        let sub = self.inner.lock();
        self.enabled() && (sub.entries.peek(&sig).is_some() || sub.is_claimed(&sig))
    }
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
struct TenantCell {
    /// Request-responses forwarded for this tenant, all executions.
    calls: AtomicU64,
    /// Cumulative forwarded-call budget; `u64::MAX` = unlimited.
    budget: AtomicU64,
    /// Max sub-result entries this tenant may hold; `u64::MAX` =
    /// unlimited, `0` = the tenant never publishes.
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
    fn has_room(&self) -> bool {
        self.calls.load(AtomicOrdering::Relaxed) < self.budget.load(AtomicOrdering::Relaxed)
    }

    /// The refusal of a call the budget has no room for.
    fn refusal(&self, tenant: TenantId) -> ExecError {
        let budget = self.budget().unwrap_or(0);
        ExecError::TenantBudgetExhausted { tenant, budget }
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

/// Cross-query shared execution state: the sharded client [`PageCache`],
/// the flow-control lock, the sub-result store and the merge-on-read
/// accounting registry (see the module docs).
///
/// Every [`ServiceGateway`] sits on top of one of these. A private state
/// per execution reproduces the engine's historical behaviour exactly;
/// one state `Arc`-shared by many concurrent executions turns the §5.1
/// cache into a *server-side* cache amortised across a workload.
pub struct SharedServiceState {
    /// Independently locked page-serving partitions, routed by
    /// `(service, input-key)` hash.
    shards: Box<[PageShard]>,
    /// The per-service concurrency limit; no lock of it is held across
    /// a fetch.
    flow: Flow,
    /// The signature-keyed sub-result store, behind its own lock.
    sub: SubResults,
    /// Per-tenant budget/usage cells, resolved once per gateway — the
    /// hot path only ever touches the tenant's own atomics.
    tenants: Mutex<HashMap<TenantId, Arc<TenantCell>>>,
    /// Merge-on-read cumulative accounting (see [`crate::accounting`]).
    acct: Accounting,
    setting: CacheSetting,
    /// Retry policy applied when a service has no override.
    retry: RetryPolicy,
    /// Per-service retry-policy overrides (immutable after build).
    retry_overrides: HashMap<ServiceId, RetryPolicy>,
    /// Span-trace recorder, when attached: every gateway built over
    /// this state then records typed spans on its own track. `None`
    /// (the default) costs one branch per record site.
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
            .field("per_service_limit", &self.flow.limit)
            .field("shards", &self.shards.len())
            .field("ledger", &self.ledger())
            .finish()
    }
}

impl SharedServiceState {
    /// A fresh state with the given cache setting and per-service
    /// concurrency limit (`0` = unlimited), an unbounded page cache
    /// ([`SharedServiceState::with_page_capacity`]) and the sub-result
    /// store off ([`SharedServiceState::with_sub_results`]).
    pub fn new(setting: CacheSetting, per_service_limit: usize) -> Self {
        SharedServiceState {
            shards: build_shards(setting, usize::MAX),
            flow: Flow::new(per_service_limit),
            sub: SubResults::new(0),
            tenants: Mutex::new(HashMap::new()),
            acct: Accounting::default(),
            setting,
            retry: RetryPolicy::default(),
            retry_overrides: HashMap::new(),
            trace: Mutex::new(None),
        }
    }

    /// Attaches (or detaches, with `None`) a span-trace recorder.
    /// Callable after sharing: gateways built from then on register a
    /// track and record spans; existing gateways are unaffected.
    pub fn set_trace(&self, recorder: Option<Arc<TraceRecorder>>) {
        *recover(self.trace.lock()) = recorder;
    }

    /// Builder-style [`SharedServiceState::set_trace`].
    pub fn with_trace(self, recorder: Arc<TraceRecorder>) -> Self {
        self.set_trace(Some(recorder));
        self
    }

    /// The attached span-trace recorder, if any.
    pub fn trace_recorder(&self) -> Option<Arc<TraceRecorder>> {
        recover(self.trace.lock()).clone()
    }

    /// Bounds the shared page cache to `capacity` distinct invocation
    /// keys (`0` disables it; `usize::MAX` keeps it unbounded), before
    /// sharing. A bounded cache is one shard, so its LRU stays global.
    pub fn with_page_capacity(mut self, capacity: usize) -> Self {
        self.shards = build_shards(self.setting, capacity);
        self
    }

    /// Enables the sub-result store with room for `capacity`
    /// materialized invoke prefixes (`0`, the default, disables it),
    /// before sharing.
    pub fn with_sub_results(mut self, capacity: usize) -> Self {
        self.sub = SubResults::new(capacity);
        self
    }

    /// The sub-result store.
    pub(crate) fn sub_results(&self) -> &SubResults {
        &self.sub
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
    fn retry_policy(&self, id: ServiceId) -> RetryPolicy {
        self.retry_overrides.get(&id).copied().unwrap_or(self.retry)
    }

    /// The shard an invocation's pages are routed to. Under `OneCall`
    /// the key is excluded from the hash: that setting keeps one cached
    /// invocation *per service*, and replacement is only exact when
    /// every key of a service lands on the same shard.
    fn shard(&self, id: ServiceId, key: &[Value]) -> &PageShard {
        if self.shards.len() == 1 {
            return &self.shards[0];
        }
        let mut h = crate::cache::WordHasher::default();
        id.hash(&mut h);
        if !matches!(self.setting, CacheSetting::OneCall) {
            key.hash(&mut h);
        }
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
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
    /// latency and faults of every forwarded call) across all executions
    /// sharing this state — what
    /// [`refresh_profiles`](mdq_cost::divergence::refresh_profiles) seeds a
    /// schema's [`ServiceProfile`]s from.
    ///
    /// [`ServiceProfile`]: mdq_model::schema::ServiceProfile
    pub fn observed_snapshot(&self) -> HashMap<ServiceId, ObservedService> {
        self.ledger().observed().clone()
    }

    /// Sums `f` over the page shards.
    fn per_shard(&self, f: impl Fn(&mut ShardInner) -> usize) -> usize {
        self.shards.iter().map(|s| f(&mut s.lock())).sum()
    }

    /// Pages currently memoized as permanently degraded.
    pub fn failed_pages(&self) -> usize {
        self.per_shard(|s| s.failed.len())
    }

    /// Forgets every memoized page failure, returning how many were
    /// dropped. Nothing re-probes a condemned page, so nothing can
    /// organically heal it: this is the recovery lever for a long-lived
    /// state after a service outage ends (a server's operator reaches
    /// it through `QueryServer::shared_state`).
    pub fn clear_failed_pages(&self) -> usize {
        self.per_shard(|s| s.failed.clear())
    }

    /// Page-cache invocation entries dropped to respect the configured
    /// capacity bound, summed across shards.
    pub fn page_cache_evictions(&self) -> u64 {
        self.per_shard(|s| s.cache.evictions() as usize) as u64
    }

    /// Occupancy, eviction and failed-page counters of every page
    /// shard, in shard order — the per-shard view behind the global
    /// [`SharedServiceState::page_cache_evictions`] sum.
    pub fn page_shard_stats(&self) -> Vec<PageShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.lock();
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
    fn tenant_cell(&self, tenant: TenantId) -> Arc<TenantCell> {
        let mut tenants = recover(self.tenants.lock());
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
        let tenants = recover(self.tenants.lock());
        tenants.get(&tenant).map_or(0, |c| c.calls())
    }

    /// Whether `tenant` has room for at least one further forwarded
    /// call — the serving layer's cheap admission probe.
    pub fn tenant_has_room(&self, tenant: TenantId) -> bool {
        let tenants = recover(self.tenants.lock());
        tenants.get(&tenant).is_none_or(|c| c.has_room())
    }

    /// Counters of the sub-result store (all zero while disabled).
    pub fn sub_result_stats(&self) -> SubResultStats {
        self.sub.stats()
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
        self.shard(id, key).lock().cache.pin(id, key);
    }

    /// Releases one pin on `(id, key)`. Returns whether one was held.
    pub fn unpin_invocation(&self, id: ServiceId, key: &[Value]) -> bool {
        self.shard(id, key).lock().cache.unpin(id, key)
    }

    /// Distinct invocations currently pinned, summed across shards.
    pub fn pinned_invocations(&self) -> usize {
        self.per_shard(|s| s.cache.pinned_invocations())
    }

    /// A copy of `(id, key)`'s cached pages and exhaustion flag without
    /// touching LRU recency — the baseline a standing query tracks.
    pub fn export_invocation(
        &self,
        id: ServiceId,
        key: &[Value],
    ) -> Option<(Vec<Vec<Tuple>>, bool)> {
        self.shard(id, key).lock().cache.export(id, key)
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
        let mut inner = self.shard(id, key).lock();
        inner.cache.replace(id, key, pages, exhausted);
        inner.failed.retain(|k| !(k.0 == id && *k.1 == *key));
    }

    /// Drops every *unpinned* cached invocation across all shards,
    /// returning how many were dropped. A refresh pass runs this first:
    /// pages outside any subscription frontier may predate the new
    /// epoch, and serving them would mix generations within one answer.
    pub fn invalidate_unpinned_pages(&self) -> usize {
        self.per_shard(|s| s.cache.invalidate_unpinned())
    }

    /// Drops every materialized sub-result entry (single-flight claims
    /// of in-flight materializations are left to their owners),
    /// returning how many entries were dropped. Materialized prefixes
    /// embed fetched pages, so a refresh pass invalidates them all —
    /// a stale prefix replayed into a standing query would silently
    /// resurrect the previous epoch.
    pub fn invalidate_sub_results(&self) -> u64 {
        self.sub.invalidate()
    }

    /// Epoch-scoped sub-result invalidation: keeps every entry whose
    /// recorded `InvocationFrontier` satisfies `retain` (typically
    /// "every invocation is still tracked and came through the refresh
    /// unchanged"), drops the rest — including all provenance-less
    /// entries, whose dependencies are unknown. Returns
    /// `(dropped, retained)` and bumps the matching stats.
    pub fn retain_sub_results(&self, retain: impl Fn(&InvocationFrontier) -> bool) -> (u64, u64) {
        self.sub.retain(retain)
    }
}

/// The serving layer's shared state *is* the optimizer's shared-work
/// oracle: a prefix counts as materialized when its rows are stored or
/// a concurrent execution is publishing them right now (it will be
/// free by the time a plan starting with it executes).
impl SharedWorkOracle for SharedServiceState {
    fn is_materialized(&self, sig: SubplanSignature) -> bool {
        self.sub.is_materialized(sig)
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
    /// The plan's services: a handful, found by a scan.
    services: Vec<Provider>,
    shared: Arc<SharedServiceState>,
    /// This execution's ledger, registered with the shared state and
    /// retired into its totals on drop.
    acct: Arc<AcctCell>,
    budget: Option<u64>,
    /// The tenant this execution is attributed to, with its budget
    /// cell resolved once; every forwarded attempt reserves against it.
    tenant: Option<(TenantId, Arc<TenantCell>)>,
    error: Option<ExecError>,
    /// Services with at least one degraded page, with the last terminal
    /// fault observed (ordered, so partial results report stably).
    degraded: BTreeMap<ServiceId, ServiceFault>,
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

/// A service of the plan, with its in-flight count under the
/// per-service concurrency limit, looked up on the service's first miss
/// (so a query served from the cache never looks it up).
struct Provider {
    id: ServiceId,
    service: Arc<dyn Service>,
    in_flight: OnceCell<Arc<AtomicUsize>>,
}

/// The plan's service `id`.
fn provider(services: &[Provider], id: ServiceId) -> &Provider {
    services
        .iter()
        .find(|p| p.id == id)
        .expect("gateway resolved all plan services at construction")
}

/// The fetch-side stats slot of node `active`, if one is set —
/// free-standing, so the miss path can book an attempt while it holds a
/// claim on the shared state.
fn node_acc(stats: &mut [OperatorStats], active: Option<usize>) -> Option<&mut OperatorStats> {
    active.and_then(|n| stats.get_mut(n))
}

impl std::fmt::Debug for ServiceGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceGateway")
            .field(
                "services",
                &self.services.iter().map(|p| p.id).collect::<Vec<_>>(),
            )
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
        let mut services = Vec::with_capacity(plan.atoms.len());
        for &atom in plan.atoms.iter() {
            let id = plan.query.atoms[atom].service;
            let service = registry
                .get(id)
                .ok_or_else(|| ExecError::MissingService(schema.service(id).name.to_string()))?;
            if services.iter().all(|p: &Provider| p.id != id) {
                services.push(Provider {
                    id,
                    service: Arc::clone(service),
                    in_flight: OnceCell::new(),
                });
            }
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
            degraded: BTreeMap::new(),
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
    pub(crate) fn frontier_enabled(&self) -> bool {
        self.frontier.is_some()
    }

    /// The recorded invocation frontier (`None` unless enabled).
    pub fn frontier(&self) -> Option<&InvocationFrontier> {
        self.frontier.as_ref()
    }

    /// A snapshot of the recorded frontier so far (`None` unless
    /// enabled) — what a standing publisher attaches to a sub-result
    /// entry right after draining its level.
    pub(crate) fn frontier_snapshot(&self) -> Option<Arc<InvocationFrontier>> {
        self.frontier.as_ref().map(|f| Arc::new(f.clone()))
    }

    /// Merges `extra` invocations into the frontier, if enabled — how a
    /// replayed prefix's recorded dependencies stay tracked even though
    /// this execution never demanded them itself.
    pub(crate) fn extend_frontier(&mut self, extra: &InvocationFrontier) {
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

    /// The tenant the sub-result entries this execution publishes are
    /// charged to, with its store quota.
    pub(crate) fn sub_result_owner(&self) -> Option<(TenantId, u64)> {
        let (tenant, cell) = self.tenant.as_ref()?;
        Some((*tenant, cell.sub_quota.load(AtomicOrdering::Relaxed)))
    }

    /// Serves page `page` of the invocation `(service, pattern, key)`: from
    /// the client cache when the setting allows, forwarding one
    /// request-response otherwise — under the call and tenant budgets
    /// (exhaustion poisons the execution and serves an empty page),
    /// single-flight deduplication, the per-service concurrency limit and
    /// the [`RetryPolicy`]. A page whose retries exhaust is memoized as
    /// failed and served degraded (empty, final) — see
    /// [`ServiceGateway::partial_results`].
    pub fn fetch_page(
        &mut self,
        id: ServiceId,
        pattern: usize,
        key: &[Value],
        page: u32,
    ) -> PageFetch {
        // a run of one page serves exactly that page
        let mut served = None;
        self.serve(id, pattern, key, page, 1, |f| served = Some(f));
        served.unwrap_or_else(PageFetch::empty)
    }

    /// Serves up to `max_pages` consecutive pages of one invocation from
    /// `first_page`, pushing one [`PageFetch`] per page. Cached pages are
    /// drained under **one** shard-lock acquisition, ending at the
    /// invocation's last page. Forwarding stays as lazy as tuple-at-a-time
    /// demand: only an uncached *first* page is forwarded (as
    /// [`fetch_page`](ServiceGateway::fetch_page) would); a run that
    /// served cached pages stops *before* its first miss.
    pub(crate) fn fetch_page_run(
        &mut self,
        id: ServiceId,
        pattern: usize,
        key: &[Value],
        first_page: u32,
        max_pages: usize,
        out: &mut Vec<PageFetch>,
    ) {
        self.serve(id, pattern, key, first_page, max_pages, |f| out.push(f));
    }

    /// The one page path. A run's cached pages are served under one
    /// shard-lock acquisition. A miss on its first page goes on, under
    /// that same guard, to the failed-page memo, the claims, the budgets
    /// and a concurrency slot, and claims the page; a second acquisition
    /// publishes it. The key is hashed once for both (a `Probe` of the
    /// shard's cache) and copied once, into the `Arc<[Value]>` the
    /// claim, the cache entry and a failed-page memo entry share; what
    /// the publish displaced is dropped after the lock is released.
    /// Only a wait — on another execution's claim, or at the concurrency
    /// limit — takes the lock again, and probes again.
    fn serve(
        &mut self,
        id: ServiceId,
        pattern: usize,
        key: &[Value],
        first_page: u32,
        max_pages: usize,
        mut emit: impl FnMut(PageFetch),
    ) {
        self.note_frontier(id, pattern, key);
        let end = first_page.saturating_add(max_pages.min(u32::MAX as usize) as u32);
        if first_page >= end {
            return;
        }
        let shard = self.shared.shard(id, key);
        let flow = &self.shared.flow;
        let mut inner = shard.lock();
        let probe = inner.cache.probe(id, key);
        let (mut page, mut served) = (first_page, 0);
        let mut slot: Option<FlowSlot<'_>> = None;
        let (claim, owned) = loop {
            let done = match inner.cache.lookup_at(probe, page) {
                PageLookup::Hit(tuples, has_more) => {
                    emit(PageFetch::cached(tuples, has_more));
                    page += 1;
                    served += 1;
                    !has_more || page >= end
                }
                PageLookup::PastEnd => {
                    emit(PageFetch::empty());
                    true
                }
                // a run that served cached pages does *not* forward
                // the next one speculatively
                PageLookup::Unknown => served > 0,
            };
            if done {
                drop(inner);
                drop(slot);
                if served > 0 {
                    self.note_cached(id, served);
                }
                return;
            }
            if served > 0 {
                continue;
            }
            let page_id: &dyn PageId = &(id, key, page);
            // a page that already exhausted someone's retry budget is
            // served from the failed-page memo: no fault storm, and a
            // single-flight waiter woken by a failing leader lands here
            if let Some(fault) = inner.failed.get(page_id) {
                let fault = fault.clone();
                drop(inner);
                drop(slot);
                self.note_degraded(id, fault.clone());
                if let Some(t) = &self.trace {
                    t.instant(SpanKind::DegradedPage {
                        service: self.service_label(id),
                    });
                }
                return emit(PageFetch::failed(fault, None));
            }
            // another execution is fetching this very page: wait for it,
            // then re-probe the cache (under `NoCache` the store is a
            // no-op and we fall through to forwarding our own request).
            // Any held concurrency slot is released first — slots count
            // forwarded fetches, not sleepers
            if inner.is_claimed(page_id) {
                slot = None;
                inner = shard.wait(inner);
                continue;
            }
            // admission control: the query's forwarded-call budget, then
            // the tenant's cumulative one (a cheap non-reserving probe —
            // the reservation happens once the claim is held)
            let refusal = match (self.budget, &self.tenant) {
                (Some(budget), _) if self.total_calls() >= budget => {
                    Some(ExecError::CallBudgetExhausted { budget })
                }
                (_, Some((tenant, cell))) if !cell.has_room() => Some(cell.refusal(*tenant)),
                _ => None,
            };
            if let Some(err) = refusal {
                drop(inner);
                drop(slot);
                self.poison(err);
                return emit(PageFetch::empty());
            }
            // per-service concurrency limit: a free slot is taken here,
            // under the shard lock; at the limit the shard lock is let
            // go before parking, and the page probed again after
            if flow.limit > 0 && slot.is_none() {
                let count = provider(&self.services, id)
                    .in_flight
                    .get_or_init(|| flow.count(id));
                slot = flow.try_take(count);
                if slot.is_none() {
                    drop(inner);
                    slot = Some(flow.park(count));
                    inner = shard.lock();
                    continue;
                }
            }
            // the claim releases and wakes its waiters on return AND on
            // unwind — a panicking service must not wedge them
            let owned = Arc::<[Value]>::from(key);
            let claimed = PageKey(id, Arc::clone(&owned), page);
            break (shard.claim(&mut inner, claimed), owned);
        };
        drop(inner);

        // reserve the first attempt against the tenant budget *before*
        // forwarding: a CAS on the cell, so racing executions of one
        // tenant cannot collectively overshoot. Losing the race releases
        // the flight claim (its drop wakes the waiters).
        if let Some((tenant, cell)) = &self.tenant {
            if !cell.try_charge() {
                let err = cell.refusal(*tenant);
                drop(claim);
                drop(slot);
                self.poison(err);
                return emit(PageFetch::empty());
            }
        }
        let policy = self.shared.retry_policy(id);
        let mut attempt: u32 = 0;
        // simulated seconds this page consumed: attempt latencies
        // (faulted ones included) plus accounted backoff
        let mut spent = 0.0;
        loop {
            match provider(&self.services, id)
                .service
                .try_fetch(pattern, key, page)
            {
                Ok(r) => {
                    spent += r.latency;
                    let tuples = Page::from(r.tuples);
                    self.acct.record_ok(id, tuples.len(), r.latency);
                    let stored = tuples.clone();
                    let displaced = claim
                        .publish(|s| s.cache.store_at(probe, || owned, page, stored, r.has_more));
                    drop(displaced);
                    drop(slot);
                    self.note_call(id, page, Some(tuples.len()), r.latency);
                    return emit(PageFetch {
                        tuples,
                        has_more: r.has_more,
                        forwarded_latency: Some(spent),
                        fault: None,
                    });
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
                    let node = node_acc(&mut self.node_stats, self.active_node);
                    if let Some(ns) = node {
                        ns.calls += 1;
                        ns.sim_seconds += fault_latency + wait.unwrap_or(0.0);
                        ns.retries += u64::from(wait.is_some());
                    }
                    self.trace_call(id, page, None, fault_latency);
                    if let Some(wait) = wait {
                        if let Some(t) = &self.trace {
                            let service = self.service_label(id);
                            t.record(SpanKind::Retry { service }, wait);
                        }
                        self.acct.record_retry(id, wait);
                        attempt += 1;
                        continue;
                    }
                    self.acct.record_exhausted(id);
                    // publish the terminal fault while still holding the
                    // single-flight claim: waiters wake into the memo.
                    // ONLY a genuinely exhausted retry policy condemns
                    // the page globally — one query running out of its
                    // own call budget says nothing about the page, and
                    // other queries must stay free to retry
                    if attempt >= policy.max_retries {
                        let failed = PageKey(id, owned, page);
                        drop(claim.publish(|s| s.failed.insert(failed, fault.clone())));
                    } else {
                        drop(claim);
                    }
                    drop(slot);
                    self.note_degraded(id, fault.clone());
                    return emit(PageFetch::failed(fault, Some(spent)));
                }
            }
        }
    }

    /// Books one forwarded attempt — `tuples` on success — on the active
    /// node and the trace.
    fn note_call(&mut self, id: ServiceId, page: u32, tuples: Option<usize>, latency: f64) {
        if let Some(ns) = node_acc(&mut self.node_stats, self.active_node) {
            ns.calls += 1;
            ns.sim_seconds += latency;
        }
        self.trace_call(id, page, tuples, latency);
    }

    /// Records one forwarded attempt on the trace, if traced.
    fn trace_call(&self, id: ServiceId, page: u32, tuples: Option<usize>, latency: f64) {
        if let Some(t) = &self.trace {
            let call = SpanKind::ServiceCall {
                service: self.service_label(id),
                page: u64::from(page),
                tuples: tuples.unwrap_or(0) as u64,
                ok: tuples.is_some(),
            };
            t.record(call, latency);
        }
    }

    /// Records that `id` served a degraded page to this execution.
    fn note_degraded(&mut self, id: ServiceId, fault: ServiceFault) {
        self.degraded.insert(id, fault);
    }

    /// The service's display name for span labels.
    fn service_label(&self, id: ServiceId) -> String {
        self.services
            .iter()
            .find(|p| p.id == id)
            .map(|p| p.service.name().to_string())
            .unwrap_or_else(|| format!("service#{}", id.0))
    }

    /// Records `pages` pages served from the shared cache to the
    /// active node.
    fn note_cached(&mut self, id: ServiceId, pages: u64) {
        if let Some(ns) = node_acc(&mut self.node_stats, self.active_node) {
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
    pub(crate) fn trace_span(&self, kind: SpanKind, dur: f64) {
        if let Some(t) = &self.trace {
            t.record(kind, dur);
        }
    }

    /// Declares which plan node the following fetches belong to —
    /// the invoke operators bracket their page runs with this so
    /// call/retry/latency accounting lands on the right
    /// [`OperatorStats`] row.
    pub(crate) fn set_active_node(&mut self, node: Option<usize>) {
        self.active_node = node;
    }

    /// Per-plan-node runtime statistics collected so far (EXPLAIN
    /// ANALYZE's observed side). Indexed by plan node; `rows_in` is
    /// left to the renderer (derived from the plan topology).
    pub(crate) fn node_stats(&self) -> &[OperatorStats] {
        &self.node_stats
    }

    /// Flushes one operator hop into the node's stats: `rows` bindings
    /// produced over `batches` batched hops (a per-binding pull passes
    /// `batches = 0`), `candidates` pairs a join node verified. Traced
    /// executions also get an `operator_batch` instant per batched hop.
    pub(crate) fn record_node_output(
        &mut self,
        node: usize,
        rows: u64,
        batches: u64,
        candidates: u64,
    ) {
        if let Some(ns) = self.node_stats.get_mut(node) {
            ns.rows_out += rows;
            ns.batches += batches;
            ns.candidates += candidates;
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
    pub(crate) fn record_node_replay(&mut self, node: usize, rows: u64) {
        if let Some(ns) = self.node_stats.get_mut(node) {
            ns.sub_result_rows += rows;
        }
    }

    /// Resets the per-node statistics for a plan of `nodes` nodes —
    /// the adaptive drivers call this when they splice in a re-planned
    /// suffix, so the stats always describe the plan that finished.
    pub(crate) fn reset_node_stats(&mut self, nodes: usize) {
        self.node_stats = vec![OperatorStats::default(); nodes];
        self.active_node = None;
    }

    /// Records one finished invocation of `id` by plan node `node`: a
    /// cache *hit* when it forwarded nothing, else a miss whose
    /// `forwarded` seconds land on the node's per-input figures.
    pub(crate) fn record_invocation(&mut self, id: ServiceId, node: usize, forwarded: Option<f64>) {
        self.acct.record_invocation(id, forwarded.is_none());
        if let (Some(ns), Some(seconds)) = (self.node_stats.get_mut(node), forwarded) {
            ns.input_seconds += seconds;
            ns.slowest_input = ns.slowest_input.max(seconds);
        }
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
    pub(crate) fn is_degraded(&self) -> bool {
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
            .map(|(id, fault)| DegradedService {
                service: self.service_label(*id),
                stats: ledger.faults_for(*id),
                last_fault: fault.clone(),
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
}

/// One execution's gateway, shared by the operators of its plan: every
/// operator holds a clone and borrows the gateway for the length of one
/// closure.
#[derive(Clone)]
pub(crate) struct LocalGateway(Rc<RefCell<ServiceGateway>>);

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
impl SharedServiceState {
    /// How many independently locked page shards this state runs.
    fn page_shards(&self) -> usize {
        self.shards.len()
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

    impl SharedServiceState {
        /// `SubResults::resolve` on this state's store.
        pub(crate) fn resolve_prefixes(
            &self,
            sigs: &[SubplanSignature],
            materialize: bool,
            frontier_only: bool,
        ) -> PrefixResolution<'_> {
            self.sub.resolve(sigs, materialize, frontier_only)
        }
    }

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
        match g.error() {
            Some(ExecError::UnboundInput { service }) => assert_eq!(service, "a"),
            other => panic!("unexpected {other:?}"),
        }
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
        match g.error() {
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
            g.record_invocation(w.ids.conf, 0, Some(1.0));
        }
        // the gateway is gone; its cell must have retired into the
        // shared totals
        assert_eq!(shared.total_calls(), 1);
        assert!(shared.total_latency() > 0.0);
        assert_eq!(shared.ledger().cache_stats(w.ids.conf).misses, 1);
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
            g.error(),
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
