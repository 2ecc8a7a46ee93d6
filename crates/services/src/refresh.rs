//! Page versioning and TTL-driven refresh: the invalidation story the
//! §5.1 cache lacks.
//!
//! The paper's experiments treat every fetched page as immortal — fine
//! for a one-shot query, wrong for *standing* queries whose sources
//! drift between requests. This module adds the substrate the serving
//! layer's subscriptions are built on:
//!
//! * [`EpochClock`] — a shared monotone epoch counter; one tick is one
//!   refresh generation of the world;
//! * [`Versioned`] — a value stamped with the epoch it was fetched at;
//! * [`RefreshPolicy`] — per-service TTLs in epochs: how stale a
//!   service's pages may grow before a refresh pass re-fetches them;
//! * [`RefreshDriver`] — tracks the invocations standing queries
//!   depend on ([`Versioned`] page sets), re-fetches the expired ones
//!   through [`Service::try_fetch`] (bounded retries, stale pages kept
//!   on persistent failure) and reports exactly which invocations
//!   changed — the *changed-page frontier* incremental maintenance
//!   re-evaluates against;
//! * [`RefreshingSource`] — a deterministic wrapper whose visible
//!   tuples vary by epoch (seeded, identity-hashed mutations), the
//!   "world that moves" the standing-query oracle tests and benches
//!   run against.
//!
//! One driver pass is shared by every standing query: each distinct
//! invocation is re-fetched once per due epoch no matter how many
//! subscriptions pin it, which is where the N-subscriptions-vs-N-reruns
//! call savings come from.

use crate::registry::ServiceRegistry;
use crate::service::{InputKey, Service, ServiceResponse};
use mdq_model::fingerprint::{fnv1a_append, FNV1A_OFFSET};
use mdq_model::schema::ServiceId;
use mdq_model::value::{Tuple, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One refresh generation of the world. Epoch 0 is the pristine state
/// every source starts in.
pub type Epoch = u64;

/// A shared monotone epoch counter. The serving layer's refresh pass
/// [`advance`](EpochClock::advance)s it; [`RefreshingSource`]s read it
/// to decide which generation of their data to show.
#[derive(Debug, Default)]
pub struct EpochClock {
    epoch: AtomicU64,
}

impl EpochClock {
    /// A clock at epoch 0.
    pub fn new() -> Arc<Self> {
        Arc::new(EpochClock::default())
    }

    /// The current epoch.
    pub fn now(&self) -> Epoch {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the clock one epoch and returns the new value.
    pub fn advance(&self) -> Epoch {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Pins the clock to `epoch` (test worlds replaying a generation).
    pub fn set(&self, epoch: Epoch) {
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A value stamped with the [`Epoch`] it was produced at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Versioned<T> {
    /// The value itself.
    pub value: T,
    /// The epoch the value reflects.
    pub epoch: Epoch,
}

impl<T> Versioned<T> {
    /// Stamps `value` with `epoch`.
    pub fn new(value: T, epoch: Epoch) -> Self {
        Versioned { value, epoch }
    }

    /// How many epochs old the value is at `now` (0 when current).
    pub fn age(&self, now: Epoch) -> u64 {
        now.saturating_sub(self.epoch)
    }
}

/// Per-service refresh TTLs, in epochs: an invocation is *due* when its
/// pages are at least `ttl` epochs old. TTL 1 (the default) refreshes
/// every pass; a larger TTL deliberately serves stale-within-TTL pages.
#[derive(Clone, Debug)]
pub struct RefreshPolicy {
    default_ttl: u64,
    overrides: HashMap<String, u64>,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy {
            default_ttl: 1,
            overrides: HashMap::new(),
        }
    }
}

impl RefreshPolicy {
    /// Every service refreshes when at least `ttl` epochs stale.
    pub fn every(ttl: u64) -> Self {
        RefreshPolicy {
            default_ttl: ttl.max(1),
            overrides: HashMap::new(),
        }
    }

    /// Overrides the TTL of the service named `name` (builder style).
    pub fn with_service_ttl(mut self, name: &str, ttl: u64) -> Self {
        self.overrides.insert(name.to_string(), ttl.max(1));
        self
    }

    /// The TTL in force for the service named `name`.
    pub fn ttl(&self, name: &str) -> u64 {
        self.overrides
            .get(name)
            .copied()
            .unwrap_or(self.default_ttl)
    }

    /// Whether pages of `name` fetched at `fetched` are due at `now`.
    pub fn due(&self, name: &str, fetched: Epoch, now: Epoch) -> bool {
        now.saturating_sub(fetched) >= self.ttl(name)
    }
}

/// The identity of one tracked invocation: which service, through which
/// access pattern, with which input key. The page set behind it is what
/// a standing query's operators re-read on re-evaluation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct InvocationKey {
    /// The invoked service.
    pub service: ServiceId,
    /// The access pattern the invocation used.
    pub pattern: usize,
    /// The bound input values.
    pub inputs: InputKey,
}

/// One invocation whose refresh changed its visible pages.
#[derive(Clone, Debug)]
pub struct ChangedInvocation {
    /// Which invocation changed.
    pub key: InvocationKey,
    /// The freshly fetched pages (replacing the stale set wholesale).
    pub pages: Vec<Vec<Tuple>>,
    /// Whether the service reported no further pages after the last.
    pub exhausted: bool,
    /// How many of the fetched pages differ from the stale set (pages
    /// beyond the new length count once each).
    pub pages_changed: u64,
}

/// What one [`RefreshDriver::refresh`] pass did.
#[derive(Clone, Debug, Default)]
pub struct RefreshReport {
    /// The epoch the pass brought due invocations to.
    pub epoch: Epoch,
    /// Invocations re-fetched (due per the policy).
    pub refreshed: u64,
    /// Invocations skipped as still within TTL.
    pub skipped: u64,
    /// Request-response attempts the pass issued (retries included).
    pub calls: u64,
    /// Pages that differ from their stale predecessors, summed.
    pub pages_changed: u64,
    /// Invocations whose refresh exhausted its retry budget — their
    /// stale pages are kept and served until a later pass succeeds.
    pub failed: u64,
    /// The invocations whose page sets changed, with the fresh pages.
    pub changed: Vec<ChangedInvocation>,
}

/// The page set tracked for one invocation.
struct TrackedInvocation {
    service: Arc<dyn Service>,
    pages: Versioned<Vec<Vec<Tuple>>>,
    exhausted: bool,
}

/// Re-fetches expired tracked invocations and reports which changed.
///
/// The driver is deliberately storage-agnostic: it holds its own
/// [`Versioned`] snapshot of every tracked invocation's pages and diffs
/// re-fetches against it. The serving layer decides what to do with a
/// [`ChangedInvocation`] (install it into the shared page cache,
/// re-evaluate the standing queries whose frontier covers it).
#[derive(Default)]
pub struct RefreshDriver {
    tracked: HashMap<InvocationKey, TrackedInvocation>,
    /// Fetch attempts allowed per page before an invocation's refresh
    /// gives up and keeps its stale pages.
    attempts: u32,
    /// Request-responses issued by [`RefreshDriver::track`] for
    /// invocations registered without a snapshot.
    track_calls: u64,
}

impl RefreshDriver {
    /// A driver with the default per-page retry budget (4 attempts).
    pub fn new() -> Self {
        RefreshDriver {
            tracked: HashMap::new(),
            attempts: 4,
            track_calls: 0,
        }
    }

    /// Sets the per-page attempt budget (builder style; min 1).
    pub fn with_attempts(mut self, attempts: u32) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Distinct invocations currently tracked.
    pub fn tracked(&self) -> usize {
        self.tracked.len()
    }

    /// Request-responses spent fetching baselines for snapshot-less
    /// [`RefreshDriver::track`] calls.
    pub fn track_calls(&self) -> u64 {
        self.track_calls
    }

    /// The tracked pages of `key`, if any (tests and reconciliation).
    pub fn pages_of(&self, key: &InvocationKey) -> Option<(&[Vec<Tuple>], bool, Epoch)> {
        self.tracked
            .get(key)
            .map(|t| (t.pages.value.as_slice(), t.exhausted, t.pages.epoch))
    }

    /// Starts tracking `key`, served by `service`. `snapshot` is the
    /// page set the subscriber already observed (exported from the
    /// shared cache); without one the driver fetches a baseline itself
    /// (counted in [`RefreshDriver::track_calls`]). Returns `false` if
    /// the key was already tracked (the snapshot is ignored — the
    /// first tracker's baseline stands).
    pub fn track(
        &mut self,
        key: InvocationKey,
        service: Arc<dyn Service>,
        snapshot: Option<(Vec<Vec<Tuple>>, bool)>,
        epoch: Epoch,
    ) -> bool {
        if self.tracked.contains_key(&key) {
            return false;
        }
        let (pages, exhausted) = match snapshot {
            Some(s) => s,
            None => {
                let mut pages = Vec::new();
                let mut exhausted = false;
                let mut page = 0u32;
                loop {
                    let mut fetched = None;
                    for _ in 0..self.attempts {
                        self.track_calls += 1;
                        if let Ok(r) = service.try_fetch(key.pattern, &key.inputs, page) {
                            fetched = Some(r);
                            break;
                        }
                    }
                    let Some(r) = fetched else { break };
                    let more = r.has_more;
                    pages.push(r.tuples);
                    if !more {
                        exhausted = true;
                        break;
                    }
                    page += 1;
                }
                (pages, exhausted)
            }
        };
        self.tracked.insert(
            key,
            TrackedInvocation {
                service,
                pages: Versioned::new(pages, epoch),
                exhausted,
            },
        );
        true
    }

    /// Stops tracking `key`. Returns whether it was tracked.
    pub fn untrack(&mut self, key: &InvocationKey) -> bool {
        self.tracked.remove(key).is_some()
    }

    /// Splits a refresh pass into its due, independently runnable
    /// re-fetch jobs, in deterministic pass order, plus the count of
    /// invocations skipped as still within TTL. Each [`RefreshJob`]
    /// only holds the service handle and the demanded page depth — it
    /// never touches the driver — so the caller may run jobs on any
    /// threads in any interleaving and merge the outcomes back with
    /// [`RefreshDriver::apply`].
    pub fn due_jobs(&self, epoch: Epoch, policy: &RefreshPolicy) -> (Vec<RefreshJob>, u64) {
        // deterministic pass order regardless of map iteration order —
        // fault schedules are identity-keyed, but reports must list
        // changes stably for byte-identical replay assertions
        let mut keys: Vec<&InvocationKey> = self.tracked.keys().collect();
        keys.sort_by_key(|k| invocation_order(k));
        let mut jobs = Vec::new();
        let mut skipped = 0;
        for key in keys {
            let entry = &self.tracked[key];
            if !policy.due(entry.service.name(), entry.pages.epoch, epoch) {
                skipped += 1;
                continue;
            }
            jobs.push(RefreshJob {
                key: key.clone(),
                service: Arc::clone(&entry.service),
                want: entry.pages.value.len().max(1),
                attempts: self.attempts,
            });
        }
        (jobs, skipped)
    }

    /// Merges job outcomes back into the tracked snapshots and builds
    /// the pass report. `outcomes` must be in [`RefreshDriver::due_jobs`]
    /// order (one per job); since every job touches a distinct
    /// invocation and fault/drift schedules are identity-hashed, the
    /// merged report is byte-identical to a serial pass no matter how
    /// the jobs actually interleaved. An outcome whose key is no longer
    /// tracked (untracked while the job ran) is dropped, its calls
    /// still counted.
    pub fn apply(
        &mut self,
        epoch: Epoch,
        skipped: u64,
        outcomes: Vec<RefreshOutcome>,
    ) -> RefreshReport {
        let mut report = RefreshReport {
            epoch,
            skipped,
            ..RefreshReport::default()
        };
        for outcome in outcomes {
            report.refreshed += 1;
            report.calls += outcome.calls;
            let Some((new_pages, exhausted)) = outcome.pages else {
                // keep the stale set whole; a later pass retries
                report.failed += 1;
                continue;
            };
            let Some(entry) = self.tracked.get_mut(&outcome.key) else {
                continue;
            };
            let pages_changed = diff_pages(&entry.pages.value, &new_pages);
            let changed = pages_changed > 0 || entry.exhausted != exhausted;
            entry.pages = Versioned::new(new_pages.clone(), epoch);
            entry.exhausted = exhausted;
            if changed {
                report.pages_changed += pages_changed;
                report.changed.push(ChangedInvocation {
                    key: outcome.key,
                    pages: new_pages,
                    exhausted,
                    pages_changed,
                });
            }
        }
        report
    }

    /// Re-fetches every tracked invocation that is due at `epoch` per
    /// `policy`, diffs the fresh pages against the tracked set, updates
    /// the tracked snapshots and reports what changed.
    ///
    /// The fetch depth is the tracked page count: standing queries
    /// re-demand exactly the page range they demanded before (fetch
    /// factors are plan constants), so deeper pages are left to the
    /// re-evaluation itself, which fetches — and extends the frontier
    /// with — whatever new demand arises. A page whose retries exhaust
    /// aborts its invocation's refresh: the stale set is kept whole
    /// (never a fresh/stale mix) and the invocation counts as `failed`.
    ///
    /// This is the serial reference pass: [`RefreshDriver::due_jobs`]
    /// run one-by-one in order, merged with [`RefreshDriver::apply`].
    /// The parallel pipeline in the runtime fans the same jobs across
    /// workers and must produce the same report.
    pub fn refresh(&mut self, epoch: Epoch, policy: &RefreshPolicy) -> RefreshReport {
        let (jobs, skipped) = self.due_jobs(epoch, policy);
        let outcomes = jobs.iter().map(RefreshJob::run).collect();
        self.apply(epoch, skipped, outcomes)
    }
}

/// One due invocation's re-fetch, detached from the driver state so it
/// can run lock-free on any worker thread. Produced by
/// [`RefreshDriver::due_jobs`], consumed by [`RefreshDriver::apply`].
pub struct RefreshJob {
    key: InvocationKey,
    service: Arc<dyn Service>,
    /// Pages to re-demand: the tracked page count at snapshot time.
    want: usize,
    attempts: u32,
}

impl RefreshJob {
    /// The invocation this job re-fetches.
    pub fn key(&self) -> &InvocationKey {
        &self.key
    }

    /// Runs the fetch/retry loop for this invocation: each page gets
    /// the driver's attempt budget; a page whose retries exhaust aborts
    /// the whole invocation (`pages: None` — stale set kept whole).
    pub fn run(&self) -> RefreshOutcome {
        let mut calls = 0u64;
        let mut new_pages: Vec<Vec<Tuple>> = Vec::with_capacity(self.want);
        let mut exhausted = false;
        let mut aborted = false;
        for page in 0..self.want as u32 {
            let mut fetched = None;
            for _ in 0..self.attempts {
                calls += 1;
                if let Ok(r) = self
                    .service
                    .try_fetch(self.key.pattern, &self.key.inputs, page)
                {
                    fetched = Some(r);
                    break;
                }
            }
            let Some(r) = fetched else {
                aborted = true;
                break;
            };
            let more = r.has_more;
            new_pages.push(r.tuples);
            if !more {
                exhausted = true;
                break;
            }
        }
        RefreshOutcome {
            key: self.key.clone(),
            calls,
            pages: (!aborted).then_some((new_pages, exhausted)),
        }
    }
}

/// What one [`RefreshJob`] fetched: the fresh page set (or `None` when
/// the retry budget exhausted) plus the attempts it spent.
pub struct RefreshOutcome {
    key: InvocationKey,
    calls: u64,
    pages: Option<(Vec<Vec<Tuple>>, bool)>,
}

/// A stable sort key for deterministic pass order.
fn invocation_order(key: &InvocationKey) -> (u32, usize, String) {
    (key.service.0, key.pattern, format!("{:?}", key.inputs))
}

/// Pages that differ between the stale and fresh sets (length
/// differences count one per uncovered page).
fn diff_pages(old: &[Vec<Tuple>], new: &[Vec<Tuple>]) -> u64 {
    let common = old.len().min(new.len());
    let mut changed = (old.len().max(new.len()) - common) as u64;
    for i in 0..common {
        if old[i] != new[i] {
            changed += 1;
        }
    }
    changed
}

/// Tuning of a [`RefreshingSource`]'s per-epoch drift.
#[derive(Clone, Copy, Debug)]
pub struct RefreshConfig {
    /// Seed of the deterministic mutation schedule.
    pub seed: u64,
    /// Probability a tuple's numeric fields are perturbed per epoch.
    pub change_rate: f64,
    /// Probability a tuple is hidden entirely per epoch.
    pub drop_rate: f64,
}

impl RefreshConfig {
    /// A schedule with the given seed and the default rates (15%
    /// perturbed, 3% hidden).
    pub fn seeded(seed: u64) -> Self {
        RefreshConfig {
            seed,
            change_rate: 0.15,
            drop_rate: 0.03,
        }
    }

    /// Sets the perturbation rate (builder style).
    pub fn with_change_rate(mut self, rate: f64) -> Self {
        self.change_rate = rate;
        self
    }

    /// Sets the hide rate (builder style).
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }
}

/// A deterministic "world that moves": wraps any [`Service`] so its
/// visible tuples vary by [`EpochClock`] epoch.
///
/// Every tuple's fate at every epoch is a pure function of
/// `(seed, epoch, pattern, inputs, page, tuple index)` — the same
/// identity-hash discipline as the seeded
/// [`FaultProfile`](crate::fault::FaultProfile) schedules — so two
/// worlds built from the same seed show byte-identical data at every
/// epoch, regardless of call order or interleaving. Epoch 0 is always
/// the pristine inner data. A selected tuple has every `Float` field
/// perturbed by a hashed delta in ±10.0 (0.01 steps), which is what
/// drives answer rows across selection thresholds (a city's
/// temperature drifting past 28 °C, a price crossing a budget) and so
/// produces both added and retracted deltas downstream; a hidden tuple
/// is removed from its page outright.
pub struct RefreshingSource {
    inner: Arc<dyn Service>,
    clock: Arc<EpochClock>,
    config: RefreshConfig,
}

impl RefreshingSource {
    /// Wraps `inner` so its data drifts per `config` as `clock` ticks.
    pub fn new(inner: Arc<dyn Service>, clock: Arc<EpochClock>, config: RefreshConfig) -> Self {
        RefreshingSource {
            inner,
            clock,
            config,
        }
    }

    /// The identity hash of one tuple slot at one epoch.
    fn slot_hash(
        &self,
        epoch: Epoch,
        pattern: usize,
        inputs: &[Value],
        page: u32,
        idx: usize,
    ) -> u64 {
        let mut h = FNV1A_OFFSET;
        h = fnv1a_append(h, &self.config.seed.to_le_bytes());
        h = fnv1a_append(h, &epoch.to_le_bytes());
        h = fnv1a_append(h, &(pattern as u64).to_le_bytes());
        h = fnv1a_append(h, &page.to_le_bytes());
        h = fnv1a_append(h, &(idx as u64).to_le_bytes());
        for v in inputs {
            h = fnv1a_append(h, format!("{v:?}").as_bytes());
            h = fnv1a_append(h, &[0xFF]);
        }
        h
    }

    /// Applies the epoch's drift to one response.
    fn mutate(
        &self,
        epoch: Epoch,
        pattern: usize,
        inputs: &[Value],
        page: u32,
        mut r: ServiceResponse,
    ) -> ServiceResponse {
        if epoch == 0 {
            return r;
        }
        let mut out = Vec::with_capacity(r.tuples.len());
        for (idx, tuple) in r.tuples.drain(..).enumerate() {
            let h = self.slot_hash(epoch, pattern, inputs, page, idx);
            let u = (mdq_model::rng::splitmix64(h) >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.config.drop_rate {
                continue; // hidden this epoch
            }
            if u < self.config.drop_rate + self.config.change_rate {
                let delta_h = mdq_model::rng::splitmix64(h ^ 0x9E37_79B9_7F4A_7C15);
                let delta = ((delta_h % 2001) as f64 - 1000.0) / 100.0;
                let values: Vec<Value> = tuple
                    .values()
                    .iter()
                    .map(|v| match v.as_f64() {
                        Some(f) if matches!(v, Value::Float(_)) => {
                            Value::float(((f + delta) * 100.0).round() / 100.0)
                        }
                        _ => v.clone(),
                    })
                    .collect();
                out.push(Tuple::new(values));
            } else {
                out.push(tuple);
            }
        }
        r.tuples = out;
        r
    }
}

impl Service for RefreshingSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        let epoch = self.clock.now();
        self.mutate(
            epoch,
            pattern,
            inputs,
            page,
            self.inner.fetch(pattern, inputs, page),
        )
    }

    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, crate::service::ServiceFault> {
        let epoch = self.clock.now();
        self.inner
            .try_fetch(pattern, inputs, page)
            .map(|r| self.mutate(epoch, pattern, inputs, page, r))
    }
}

/// Re-registers every service of `registry` wrapped in a
/// [`RefreshingSource`] on `clock`, each seeded from `config.seed`
/// xor its service id — the standard way to build a refreshing world
/// for standing-query tests and benches. Counters of the returned
/// registry observe every attempt against the wrapped services.
pub fn refreshing_registry(
    registry: &ServiceRegistry,
    clock: &Arc<EpochClock>,
    config: RefreshConfig,
) -> ServiceRegistry {
    let mut wrapped = ServiceRegistry::new();
    let mut ids: Vec<ServiceId> = registry.ids().collect();
    ids.sort_by_key(|id| id.0);
    for id in ids {
        let inner = Arc::clone(registry.get(id).expect("listed id resolves"));
        wrapped.register(
            id,
            RefreshingSource::new(
                inner,
                Arc::clone(clock),
                RefreshConfig {
                    seed: config.seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ..config
                },
            ),
        );
    }
    wrapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultProfile, PlannedFault};
    use crate::service::LatencyModel;
    use crate::synthetic::SyntheticSource;
    use mdq_model::schema::AccessPattern;

    fn source(rows: usize) -> Arc<dyn Service> {
        let tuples = (0..rows)
            .map(|i| {
                Tuple::new(vec![
                    Value::str("k"),
                    Value::Int(i as i64),
                    Value::float(100.0 + i as f64),
                ])
            })
            .collect();
        Arc::new(SyntheticSource::new(
            "s",
            vec![AccessPattern::parse("ioo").expect("parses")],
            tuples,
            Some(4),
            LatencyModel::fixed(1.0),
        ))
    }

    fn key() -> InvocationKey {
        InvocationKey {
            service: ServiceId(0),
            pattern: 0,
            inputs: vec![Value::str("k")],
        }
    }

    #[test]
    fn epoch_zero_is_pristine_and_epochs_are_deterministic() {
        let clock = EpochClock::new();
        let wrapped =
            RefreshingSource::new(source(12), Arc::clone(&clock), RefreshConfig::seeded(7));
        let pristine = source(12).fetch(0, &[Value::str("k")], 0);
        assert_eq!(
            wrapped.fetch(0, &[Value::str("k")], 0).tuples,
            pristine.tuples
        );
        clock.advance();
        let e1a = wrapped.fetch(0, &[Value::str("k")], 0).tuples;
        let e1b = wrapped.fetch(0, &[Value::str("k")], 0).tuples;
        assert_eq!(e1a, e1b, "same epoch, same view");
        assert_ne!(e1a, pristine.tuples, "rates high enough to drift");
        clock.set(0);
        assert_eq!(
            wrapped.fetch(0, &[Value::str("k")], 0).tuples,
            pristine.tuples,
            "epoch is the only state"
        );
    }

    #[test]
    fn two_worlds_same_seed_agree_per_epoch() {
        let ca = EpochClock::new();
        let cb = EpochClock::new();
        let a = RefreshingSource::new(source(12), Arc::clone(&ca), RefreshConfig::seeded(11));
        let b = RefreshingSource::new(source(12), Arc::clone(&cb), RefreshConfig::seeded(11));
        ca.set(3);
        cb.set(3);
        assert_eq!(
            a.fetch(0, &[Value::str("k")], 0).tuples,
            b.fetch(0, &[Value::str("k")], 0).tuples
        );
    }

    #[test]
    fn driver_reports_changes_and_respects_ttl() {
        let clock = EpochClock::new();
        let svc: Arc<dyn Service> = Arc::new(RefreshingSource::new(
            source(12),
            Arc::clone(&clock),
            RefreshConfig::seeded(5).with_change_rate(0.5),
        ));
        let mut driver = RefreshDriver::new();
        driver.track(key(), Arc::clone(&svc), None, 0);
        assert_eq!(driver.tracked(), 1);
        assert!(driver.track_calls() > 0, "baseline fetched");

        // ttl 2: nothing due at epoch 1
        let policy = RefreshPolicy::every(2);
        let e1 = clock.advance();
        let r1 = driver.refresh(e1, &policy);
        assert_eq!((r1.refreshed, r1.skipped, r1.calls), (0, 1, 0));

        let e2 = clock.advance();
        let r2 = driver.refresh(e2, &policy);
        assert_eq!(r2.refreshed, 1);
        assert!(!r2.changed.is_empty(), "50% change rate must surface");
        assert_eq!(r2.changed[0].key, key());
        let (pages, _, epoch) = driver.pages_of(&key()).expect("tracked");
        assert_eq!(epoch, e2);
        assert_eq!(pages, r2.changed[0].pages.as_slice(), "snapshot updated");

        // a second pass at the same epoch: nothing due again
        let r3 = driver.refresh(e2, &policy);
        assert_eq!((r3.refreshed, r3.skipped), (0, 1));
    }

    #[test]
    fn failed_refresh_keeps_stale_pages_whole() {
        let clock = EpochClock::new();
        let drifting: Arc<dyn Service> = Arc::new(RefreshingSource::new(
            source(12),
            Arc::clone(&clock),
            RefreshConfig::seeded(5).with_change_rate(0.5),
        ));
        let faulty: Arc<dyn Service> = Arc::new(FaultProfile::scripted(
            Arc::clone(&drifting),
            FaultPlan::new().fail_page(1, u32::MAX, PlannedFault::Timeout),
        ));
        let mut driver = RefreshDriver::new().with_attempts(2);
        let baseline = vec![
            drifting.fetch(0, &[Value::str("k")], 0).tuples,
            drifting.fetch(0, &[Value::str("k")], 1).tuples,
        ];
        driver.track(
            key(),
            Arc::clone(&faulty),
            Some((baseline.clone(), false)),
            0,
        );
        let e1 = clock.advance();
        let report = driver.refresh(e1, &RefreshPolicy::default());
        // page 0 succeeds, page 1 exhausts its attempts: invocation
        // aborts, stale set survives untouched
        assert_eq!(report.failed, 1);
        assert!(report.changed.is_empty());
        assert_eq!(report.calls, 1 + 2, "one ok page, two failed attempts");
        let (pages, _, epoch) = driver.pages_of(&key()).expect("tracked");
        assert_eq!(pages, baseline.as_slice());
        assert_eq!(epoch, 0, "still stale — retried next pass");
    }

    #[test]
    fn refreshing_registry_wraps_every_service() {
        let mut reg = ServiceRegistry::new();
        reg.register(ServiceId(0), source(4));
        let clock = EpochClock::new();
        let wrapped = refreshing_registry(&reg, &clock, RefreshConfig::seeded(1));
        assert_eq!(wrapped.ids().count(), 1);
        let svc = wrapped.get(ServiceId(0)).expect("wrapped").clone();
        assert_eq!(svc.name(), "s");
        assert_eq!(svc.fetch(0, &[Value::str("k")], 0).tuples.len(), 4);
    }

    #[test]
    fn versioned_age_and_policy_due() {
        let v = Versioned::new(1, 3);
        assert_eq!(v.age(5), 2);
        assert_eq!(v.age(2), 0, "saturates");
        let p = RefreshPolicy::default().with_service_ttl("slow", 4);
        assert!(p.due("fast", 0, 1));
        assert!(!p.due("slow", 0, 3));
        assert!(p.due("slow", 0, 4));
        assert_eq!(RefreshPolicy::every(0).ttl("x"), 1, "ttl floors at 1");
    }
}
