//! The call ledger: one place every forwarded call is booked.
//!
//! **One ledger per execution.** Each [`ServiceGateway`] owns one
//! [`AcctCell`] — a mutex around one [`Counters`] — and that cell is the
//! *only* record of what the execution forwarded: calls, latency, faults,
//! retries, exhaustions, per-service observations and invocation-level
//! cache hits/misses. The gateway keeps no second copy; its
//! per-execution accessors read the cell.
//!
//! **Who writes.** Only the owning gateway, through the `record_*`
//! methods below — one call per fact, from the arm of `fetch_page` where
//! the fact happens. `AcctCell::update` and the [`Counters`] fields are
//! private to this module, so no other code can reach the numbers and
//! hot-path lock traffic cannot creep back into the shared state (the
//! execution's own cell is uncontended).
//!
//! **Who merges.** The shared state's [`Accounting`] registry:
//! [`Accounting::merged`] folds the retired totals of dropped gateways
//! with every live cell into one [`Counters`] snapshot (the registry
//! lock is held to pick the totals and the cells, not while the cells
//! are read — queries register and retire under it, and a poller must
//! not starve them). A reader that needs several numbers takes *one*
//! snapshot and derives them all from it — totals and per-service
//! splits then agree by construction, even mid-flight.
//!
//! **Why cells stay live.** A cell folds into the retired totals only
//! when its gateway drops ([`Accounting::retire`]); until then `merged`
//! reads it in place. That is what makes a snapshot taken right after a
//! session's `DONE` exact: the worker may not have dropped the execution
//! yet, but its calls are already in its registered cell.
//!
//! [`ServiceGateway`]: crate::gateway::ServiceGateway

use crate::cache::CacheStats;
use crate::gateway::FaultStats;
use crate::store::recover;
use mdq_cost::divergence::ObservedService;
use mdq_model::schema::ServiceId;
use mdq_obs::histogram::{Histogram, LatencySummary, SERVICE_LATENCY_BOUNDS};
use mdq_services::service::ServiceFault;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

/// One snapshot of the call ledger — an execution's own
/// ([`ServiceGateway::ledger`](crate::gateway::ServiceGateway::ledger))
/// or the merge across every execution over a shared state
/// ([`SharedServiceState::ledger`](crate::gateway::SharedServiceState::ledger)).
/// Every number derives from the same instant, so
/// `total_calls() == Σ calls()` and `Σ observed().latency ==
/// total_latency()` (to rounding) hold for any snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    calls: HashMap<ServiceId, u64>,
    latency_sum: f64,
    faults: HashMap<ServiceId, FaultStats>,
    observed: HashMap<ServiceId, ObservedService>,
    invocations: HashMap<ServiceId, CacheStats>,
}

impl Counters {
    /// Request-responses forwarded per service (faulted attempts
    /// included).
    pub fn calls(&self) -> &HashMap<ServiceId, u64> {
        &self.calls
    }

    /// Request-responses forwarded to `id`.
    pub fn calls_to(&self, id: ServiceId) -> u64 {
        self.calls.get(&id).copied().unwrap_or(0)
    }

    /// Request-responses forwarded, all services.
    pub fn total_calls(&self) -> u64 {
        self.calls.values().sum()
    }

    /// Summed simulated latency of all forwarded calls.
    pub fn total_latency(&self) -> f64 {
        self.latency_sum
    }

    /// Fault accounting per service (empty while healthy).
    pub fn faults(&self) -> &HashMap<ServiceId, FaultStats> {
        &self.faults
    }

    /// Fault accounting for `id`.
    pub fn faults_for(&self, id: ServiceId) -> FaultStats {
        self.faults.get(&id).copied().unwrap_or_default()
    }

    /// Fault accounting, all services.
    pub fn total_faults(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for s in self.faults.values() {
            total.merge(s);
        }
        total
    }

    /// Per-service observations of forwarded calls (tuples, latency,
    /// faults). Cache hits are not observations and do not appear.
    pub fn observed(&self) -> &HashMap<ServiceId, ObservedService> {
        &self.observed
    }

    /// Invocation-level cache statistics for `id`.
    pub(crate) fn cache_stats(&self, id: ServiceId) -> CacheStats {
        self.invocations.get(&id).copied().unwrap_or_default()
    }

    /// Invocation-level cache statistics, all services.
    pub fn total_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in self.invocations.values() {
            total.hits += s.hits;
            total.misses += s.misses;
        }
        total
    }

    /// Count + mean + max (and exact total) of the per-attempt
    /// simulated latency, per service — derived from the observations,
    /// which accumulate at exactly the sites the total does.
    pub fn latency_summaries(&self) -> impl Iterator<Item = (ServiceId, LatencySummary)> + '_ {
        self.observed
            .iter()
            .map(|(id, o)| (*id, o.latency_summary()))
    }

    /// The per-attempt simulated-latency distribution across every
    /// service, as one fixed-bucket [`Histogram`].
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new(&SERVICE_LATENCY_BOUNDS);
        for o in self.observed.values() {
            h.merge(&o.latency_histogram());
        }
        h
    }

    /// Accumulates `self` into `into` — the single merge primitive every
    /// cross-worker read goes through.
    fn merge_into(&self, into: &mut Counters) {
        for (id, n) in &self.calls {
            *into.calls.entry(*id).or_insert(0) += n;
        }
        into.latency_sum += self.latency_sum;
        for (id, f) in &self.faults {
            into.faults.entry(*id).or_default().merge(f);
        }
        for (id, o) in &self.observed {
            into.observed.entry(*id).or_default().merge(o);
        }
        for (id, c) in &self.invocations {
            let e = into.invocations.entry(*id).or_default();
            e.hits += c.hits;
            e.misses += c.misses;
        }
    }
}

/// One gateway's ledger cell. The owning execution is the only writer,
/// so the mutex is uncontended; readers lock it briefly during a merge.
pub(crate) struct AcctCell {
    counters: Mutex<Counters>,
}

impl AcctCell {
    fn update(&self, f: impl FnOnce(&mut Counters)) {
        let mut counters = recover(self.counters.lock());
        f(&mut counters);
    }

    /// Reads the cell in place — the per-execution accessors' path.
    pub fn read<R>(&self, f: impl FnOnce(&Counters) -> R) -> R {
        let counters = recover(self.counters.lock());
        f(&counters)
    }

    /// Records one successful forwarded call.
    pub fn record_ok(&self, id: ServiceId, tuples: usize, latency: f64) {
        self.update(|c| {
            *c.calls.entry(id).or_insert(0) += 1;
            c.latency_sum += latency;
            c.observed.entry(id).or_default().record_ok(tuples, latency);
        });
    }

    /// Records one faulted forwarded attempt.
    pub fn record_fault(&self, id: ServiceId, fault: &ServiceFault, latency: f64) {
        self.update(|c| {
            *c.calls.entry(id).or_insert(0) += 1;
            c.latency_sum += latency;
            c.observed.entry(id).or_default().record_fault(latency);
            c.faults.entry(id).or_default().classify(fault);
        });
    }

    /// Records a retry issued after a faulted attempt, with its
    /// accounted backoff.
    pub(crate) fn record_retry(&self, id: ServiceId, backoff: f64) {
        self.update(|c| {
            let f = c.faults.entry(id).or_default();
            f.retries += 1;
            f.backoff_seconds += backoff;
        });
    }

    /// Records a page given up on (retry budget or call budget spent).
    pub(crate) fn record_exhausted(&self, id: ServiceId) {
        self.update(|c| c.faults.entry(id).or_default().exhausted += 1);
    }

    /// Records one invocation-level cache hit or miss.
    pub(crate) fn record_invocation(&self, id: ServiceId, hit: bool) {
        self.update(|c| {
            let s = c.invocations.entry(id).or_default();
            if hit {
                s.hits += 1;
            } else {
                s.misses += 1;
            }
        });
    }
}

struct Registry {
    /// Folded counters of every retired (dropped) gateway.
    retired: Counters,
    /// Live per-gateway cells.
    cells: Vec<Weak<AcctCell>>,
}

/// The cross-worker accounting registry owned by the shared state:
/// hands out cells, folds them back in on gateway drop, and merges
/// retired + live totals for every snapshot read.
pub(crate) struct Accounting {
    inner: Mutex<Registry>,
}

impl Default for Accounting {
    fn default() -> Self {
        Accounting {
            inner: Mutex::new(Registry {
                retired: Counters::default(),
                cells: Vec::new(),
            }),
        }
    }
}

impl Accounting {
    /// Registers a new per-gateway cell.
    pub fn register(&self) -> Arc<AcctCell> {
        let cell = Arc::new(AcctCell {
            counters: Mutex::new(Counters::default()),
        });
        let mut inner = recover(self.inner.lock());
        inner.cells.retain(|w| w.strong_count() > 0);
        inner.cells.push(Arc::downgrade(&cell));
        cell
    }

    /// Folds a dropping gateway's cell into the retired totals.
    pub(crate) fn retire(&self, cell: &Arc<AcctCell>) {
        let mut inner = recover(self.inner.lock());
        let counters = recover(cell.counters.lock());
        counters.merge_into(&mut inner.retired);
        drop(counters);
        inner
            .cells
            .retain(|w| w.upgrade().is_some_and(|c| !Arc::ptr_eq(&c, cell)));
    }

    /// Merges retired totals with every live cell into one snapshot —
    /// the read side of all cumulative accounting. The registry lock
    /// covers only the choice of *what* to read (the retired totals and
    /// the live cells of that instant); the cells themselves are read
    /// after it is released, so a metrics poller never holds up the
    /// `register` / `retire` every query starts and ends with. A cell
    /// that retires in between is still counted exactly once: it was
    /// not yet in the retired totals taken, and retiring leaves its
    /// counters in place.
    pub fn merged(&self) -> Counters {
        let (mut out, cells) = {
            let inner = recover(self.inner.lock());
            let cells: Vec<_> = inner.cells.iter().filter_map(Weak::upgrade).collect();
            (inner.retired.clone(), cells)
        };
        for cell in cells {
            recover(cell.counters.lock()).merge_into(&mut out);
        }
        out
    }
}
