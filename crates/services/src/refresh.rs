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
//! * [`RefreshPolicy`] — the TTL in epochs: how stale an invocation's
//!   pages may grow before a refresh pass re-fetches them;
//! * [`InvocationKey`] — the identity of one invocation a standing
//!   query read, the unit a refresh pass re-fetches;
//! * [`RefreshingSource`] — a deterministic wrapper whose visible
//!   tuples vary by epoch (seeded, identity-hashed mutations), the
//!   "world that moves" the standing-query oracle tests and benches
//!   run against.
//!
//! The refresh pass itself lives with the subscriptions in the serving
//! layer (`mdq-runtime`'s `subscribe` module): it re-fetches each
//! tracked invocation once per due epoch no matter how many
//! subscriptions read it, which is where the N-subscriptions-vs-N-reruns
//! call savings come from.

use crate::registry::ServiceRegistry;
use crate::service::{InputKey, Service, ServiceResponse};
use mdq_model::fingerprint::{fnv1a_append, FNV1A_OFFSET};
use mdq_model::schema::ServiceId;
use mdq_model::value::{Tuple, Value};
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

/// The refresh TTL, in epochs: an invocation is *due* when its pages
/// are at least `ttl` epochs old. TTL 1 (what a server runs until it is
/// given a policy) refreshes every pass; a larger TTL deliberately
/// serves stale-within-TTL pages.
#[derive(Clone, Copy, Debug)]
pub struct RefreshPolicy {
    ttl: u64,
}

impl RefreshPolicy {
    /// Every invocation refreshes when at least `ttl` epochs stale.
    pub fn every(ttl: u64) -> Self {
        RefreshPolicy { ttl: ttl.max(1) }
    }

    /// Whether pages read at `read_at` are due at `now`.
    pub fn due(&self, read_at: Epoch, now: Epoch) -> bool {
        now.saturating_sub(read_at) >= self.ttl
    }
}

/// The identity of one invocation a standing query read: which
/// service, through which access pattern, with which input key. The
/// page set behind it is what a standing query's operators re-read on
/// re-evaluation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct InvocationKey {
    /// The invoked service.
    pub service: ServiceId,
    /// The access pattern the invocation used.
    pub pattern: usize,
    /// The bound input values.
    pub inputs: InputKey,
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
    fn policy_due_and_ttl_floor() {
        let p = RefreshPolicy::every(4);
        assert!(!p.due(0, 3));
        assert!(p.due(0, 4));
        assert!(!p.due(2, 1), "saturates: a later read is never due early");
        assert!(RefreshPolicy::every(1).due(0, 1));
        assert!(!RefreshPolicy::every(0).due(1, 1), "ttl floors at 1");
    }
}
