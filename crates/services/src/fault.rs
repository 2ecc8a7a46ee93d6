//! Fault injection for simulated services.
//!
//! The paper's experiments wrap live 2008 web sites whose real-world
//! behaviour includes error pages, timeouts, throttling and latency
//! spikes — none of which the infallible [`SyntheticSource`] exhibits.
//! [`FaultProfile`] wraps any [`Service`] and injects those behaviours
//! through [`Service::try_fetch`], in one of two modes:
//!
//! * **seeded** ([`FaultConfig`]) — every attempt draws its fate from a
//!   deterministic hash of `(seed, pattern, inputs, page, attempt)`.
//!   Crucially the draw depends only on the *identity* of the attempt,
//!   never on global call order, so concurrent executors and different
//!   drivers observe exactly the same fault schedule — the property the
//!   cross-executor chaos tests pin;
//! * **scripted** ([`FaultPlan`]) — exact per-call injection: rules
//!   select calls by pattern/inputs/page and fail their first *n*
//!   attempts (or every attempt) with a chosen [`ServiceFault`].
//!
//! The wrapper's plain [`Service::fetch`] stays fault-free (it is the
//! ground-truth view used by tests); only `try_fetch` — the path the
//! execution gateway and the profiler use — injects.
//!
//! [`SyntheticSource`]: crate::synthetic::SyntheticSource

use crate::recover;
use crate::service::{Service, ServiceFault, ServiceResponse};
use mdq_model::rng::splitmix64;
use mdq_model::value::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fully specified hash of one attempt's identity — the workspace's
/// FNV-1a ([`mdq_model::fingerprint`]) over the components, with the
/// input values rendered through their (crate-owned) `Debug` form.
/// Deliberately *not* `std`'s `DefaultHasher`, whose algorithm is
/// unspecified and may change between toolchains: the seeded chaos
/// schedules must stay byte-for-byte reproducible across Rust
/// releases.
fn identity_hash(pattern: usize, inputs: &[Value], page: u32, attempt: u32) -> u64 {
    use mdq_model::fingerprint::{fnv1a_append, FNV1A_OFFSET};
    let mut h = FNV1A_OFFSET;
    h = fnv1a_append(h, &(pattern as u64).to_le_bytes());
    h = fnv1a_append(h, &page.to_le_bytes());
    h = fnv1a_append(h, &attempt.to_le_bytes());
    for v in inputs {
        h = fnv1a_append(h, format!("{v:?}").as_bytes());
        h = fnv1a_append(h, &[0xFF]); // unambiguous value separator
    }
    h
}

/// Seeded fault schedule: per-attempt probabilities of each degraded
/// behaviour, drawn deterministically from the attempt's identity.
///
/// The rates are cumulative-exclusive (an attempt suffers at most one
/// fate); everything left over is a healthy response.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Probability of an error page per attempt.
    pub error_rate: f64,
    /// Probability of a timeout per attempt.
    pub timeout_rate: f64,
    /// Probability of being throttled per attempt.
    pub rate_limit_rate: f64,
    /// Probability of a latency spike (successful response, inflated
    /// latency) per attempt.
    pub spike_rate: f64,
    /// Latency multiplier applied on a spike.
    pub spike_factor: f64,
    /// Simulated seconds an error page takes to arrive.
    pub error_latency: f64,
    /// Client deadline charged for a timed-out attempt, seconds.
    pub timeout_deadline: f64,
    /// Provider-suggested wait on throttling, seconds.
    pub retry_after: f64,
    /// Simulated seconds a throttle response takes to arrive.
    pub rate_limit_latency: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            error_rate: 0.0,
            timeout_rate: 0.0,
            rate_limit_rate: 0.0,
            spike_rate: 0.0,
            spike_factor: 4.0,
            error_latency: 0.3,
            timeout_deadline: 10.0,
            retry_after: 1.0,
            rate_limit_latency: 0.05,
        }
    }
}

impl FaultConfig {
    /// A healthy schedule with the given seed (rates default to 0).
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }

    /// Sets the error-page rate.
    pub fn with_errors(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Sets the timeout rate.
    pub fn with_timeouts(mut self, rate: f64) -> Self {
        self.timeout_rate = rate;
        self
    }

    /// Sets the throttling rate.
    pub fn with_rate_limits(mut self, rate: f64) -> Self {
        self.rate_limit_rate = rate;
        self
    }

    /// Sets the latency-spike rate and multiplier.
    pub fn with_spikes(mut self, rate: f64, factor: f64) -> Self {
        self.spike_rate = rate;
        self.spike_factor = factor;
        self
    }
}

/// The fate a single attempt draws.
enum Fate {
    Healthy,
    /// A healthy response whose latency is multiplied by the factor.
    Spike(f64),
    Fault(ServiceFault),
}

/// A scripted fault to inject, without latency bookkeeping (the
/// [`FaultPlan`] fills latencies in from its defaults).
#[derive(Clone, Debug, PartialEq)]
pub enum PlannedFault {
    /// Inject an error page.
    Error,
    /// Inject a timeout.
    Timeout,
    /// Inject throttling with this `retry_after`, seconds.
    RateLimited(f64),
}

/// One scripted injection rule: which calls it matches, and how many of
/// their leading attempts fail.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Match only this access pattern (`None` = any).
    pub pattern: Option<usize>,
    /// Match only this input key (`None` = any).
    pub inputs: Option<Vec<Value>>,
    /// Match only this page (`None` = any).
    pub page: Option<u32>,
    /// Inject on attempts `0..first_attempts` of each matched call;
    /// `u32::MAX` injects on every attempt forever.
    pub first_attempts: u32,
    /// What to inject.
    pub fault: PlannedFault,
}

impl FaultRule {
    fn matches(&self, pattern: usize, inputs: &[Value], page: u32, attempt: u32) -> bool {
        self.pattern.map(|p| p == pattern).unwrap_or(true)
            && self
                .inputs
                .as_ref()
                .map(|k| k.as_slice() == inputs)
                .unwrap_or(true)
            && self.page.map(|p| p == page).unwrap_or(true)
            && attempt < self.first_attempts
    }
}

/// A scriptable injection schedule: the first matching rule decides
/// each attempt's fate. Attempts are counted per call identity
/// `(pattern, inputs, page)`, so "fail the first two attempts, then
/// succeed" is expressible exactly — the shape every retry test needs.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Latency charged for scripted error pages, seconds.
    pub error_latency: f64,
    /// Deadline charged for scripted timeouts, seconds.
    pub timeout_deadline: f64,
    /// Latency charged for scripted throttle responses, seconds.
    pub rate_limit_latency: f64,
}

impl FaultPlan {
    /// An empty plan (nothing faults) with the default latencies.
    pub fn new() -> Self {
        FaultPlan {
            rules: Vec::new(),
            error_latency: 0.3,
            timeout_deadline: 10.0,
            rate_limit_latency: 0.05,
        }
    }

    /// Appends an explicit rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Fails the first `n` attempts of *every* call.
    pub fn fail_first(self, n: u32, fault: PlannedFault) -> Self {
        self.rule(FaultRule {
            pattern: None,
            inputs: None,
            page: None,
            first_attempts: n,
            fault,
        })
    }

    /// Fails every attempt of every call, forever.
    pub fn fail_always(self, fault: PlannedFault) -> Self {
        self.fail_first(u32::MAX, fault)
    }

    /// Fails the first `n` attempts of every fetch of `page`.
    pub fn fail_page(self, page: u32, n: u32, fault: PlannedFault) -> Self {
        self.rule(FaultRule {
            pattern: None,
            inputs: None,
            page: Some(page),
            first_attempts: n,
            fault,
        })
    }

    /// Fails the first `n` attempts of every call with this input key.
    pub fn fail_inputs(self, inputs: Vec<Value>, n: u32, fault: PlannedFault) -> Self {
        self.rule(FaultRule {
            pattern: None,
            inputs: Some(inputs),
            page: None,
            first_attempts: n,
            fault,
        })
    }

    fn decide(&self, pattern: usize, inputs: &[Value], page: u32, attempt: u32) -> Fate {
        for rule in &self.rules {
            if rule.matches(pattern, inputs, page, attempt) {
                return Fate::Fault(match &rule.fault {
                    PlannedFault::Error => ServiceFault::Error {
                        message: format!("scripted fault (page {page}, attempt {attempt})"),
                        latency: self.error_latency,
                    },
                    PlannedFault::Timeout => ServiceFault::Timeout {
                        deadline: self.timeout_deadline,
                    },
                    PlannedFault::RateLimited(retry_after) => ServiceFault::RateLimited {
                        retry_after: *retry_after,
                        latency: self.rate_limit_latency,
                    },
                });
            }
        }
        Fate::Healthy
    }
}

/// Counts of injected behaviours, for reconciliation in tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInjections {
    /// Error pages injected.
    pub errors: u64,
    /// Timeouts injected.
    pub timeouts: u64,
    /// Throttle responses injected.
    pub rate_limited: u64,
    /// Latency spikes applied.
    pub spikes: u64,
    /// Attempts that went through healthily (spikes included).
    pub healthy: u64,
}

impl FaultInjections {
    /// Total faulted attempts (spikes are slow but healthy).
    pub fn total_faults(&self) -> u64 {
        self.errors + self.timeouts + self.rate_limited
    }
}

enum Injector {
    Seeded(FaultConfig),
    Scripted(FaultPlan),
}

/// The identity of one service call: access pattern, input key, page.
type CallId = (usize, Vec<Value>, u32);

/// A fault-injecting wrapper over any [`Service`].
///
/// `fetch` stays fault-free (ground truth); `try_fetch` — the gateway's
/// and profiler's path — injects per the configured schedule. Attempt
/// indices are tracked per call identity `(pattern, inputs, page)` so
/// schedules are independent of global call order and identical across
/// executors and thread interleavings.
pub struct FaultProfile {
    inner: Arc<dyn Service>,
    injector: Injector,
    attempts: Mutex<HashMap<CallId, u32>>,
    errors: AtomicU64,
    timeouts: AtomicU64,
    rate_limited: AtomicU64,
    spikes: AtomicU64,
    healthy: AtomicU64,
}

impl FaultProfile {
    /// Wraps `inner` with a seeded probabilistic schedule.
    pub fn seeded(inner: Arc<dyn Service>, config: FaultConfig) -> Self {
        Self::build(inner, Injector::Seeded(config))
    }

    /// Wraps `inner` with a scripted plan.
    pub fn scripted(inner: Arc<dyn Service>, plan: FaultPlan) -> Self {
        Self::build(inner, Injector::Scripted(plan))
    }

    fn build(inner: Arc<dyn Service>, injector: Injector) -> Self {
        FaultProfile {
            inner,
            injector,
            attempts: Mutex::new(HashMap::new()),
            errors: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            spikes: AtomicU64::new(0),
            healthy: AtomicU64::new(0),
        }
    }

    /// Snapshot of the injected-behaviour counters.
    pub fn injections(&self) -> FaultInjections {
        FaultInjections {
            errors: self.errors.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            spikes: self.spikes.load(Ordering::Relaxed),
            healthy: self.healthy.load(Ordering::Relaxed),
        }
    }

    /// Forgets attempt history and counters (fresh run).
    pub fn reset(&self) {
        recover(self.attempts.lock()).clear();
        self.errors.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.rate_limited.store(0, Ordering::Relaxed);
        self.spikes.store(0, Ordering::Relaxed);
        self.healthy.store(0, Ordering::Relaxed);
    }

    /// The attempt index this call is about to make (and bumps it).
    fn next_attempt(&self, pattern: usize, inputs: &[Value], page: u32) -> u32 {
        let mut attempts = recover(self.attempts.lock());
        let n = attempts
            .entry((pattern, inputs.to_vec(), page))
            .or_insert(0);
        let attempt = *n;
        *n += 1;
        attempt
    }

    fn decide(&self, pattern: usize, inputs: &[Value], page: u32, attempt: u32) -> Fate {
        match &self.injector {
            Injector::Scripted(plan) => plan.decide(pattern, inputs, page, attempt),
            Injector::Seeded(cfg) => {
                // the draw hashes the attempt's identity only — never
                // global order — so schedules replay identically under
                // any interleaving
                let h = identity_hash(pattern, inputs, page, attempt);
                let u = (splitmix64(cfg.seed ^ h) >> 11) as f64 / (1u64 << 53) as f64;
                let mut bound = cfg.error_rate;
                if u < bound {
                    return Fate::Fault(ServiceFault::Error {
                        message: format!(
                            "seeded fault {} (page {page}, attempt {attempt})",
                            cfg.seed
                        ),
                        latency: cfg.error_latency,
                    });
                }
                bound += cfg.timeout_rate;
                if u < bound {
                    return Fate::Fault(ServiceFault::Timeout {
                        deadline: cfg.timeout_deadline,
                    });
                }
                bound += cfg.rate_limit_rate;
                if u < bound {
                    return Fate::Fault(ServiceFault::RateLimited {
                        retry_after: cfg.retry_after,
                        latency: cfg.rate_limit_latency,
                    });
                }
                bound += cfg.spike_rate;
                if u < bound {
                    return Fate::Spike(cfg.spike_factor);
                }
                Fate::Healthy
            }
        }
    }
}

impl Service for FaultProfile {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        self.inner.fetch(pattern, inputs, page)
    }

    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        let attempt = self.next_attempt(pattern, inputs, page);
        match self.decide(pattern, inputs, page, attempt) {
            Fate::Fault(fault) => {
                match &fault {
                    ServiceFault::Error { .. } => &self.errors,
                    ServiceFault::Timeout { .. } => &self.timeouts,
                    ServiceFault::RateLimited { .. } => &self.rate_limited,
                }
                .fetch_add(1, Ordering::Relaxed);
                Err(fault)
            }
            Fate::Spike(factor) => {
                self.spikes.fetch_add(1, Ordering::Relaxed);
                self.healthy.fetch_add(1, Ordering::Relaxed);
                let mut r = self.inner.try_fetch(pattern, inputs, page)?;
                r.latency *= factor;
                Ok(r)
            }
            Fate::Healthy => {
                self.healthy.fetch_add(1, Ordering::Relaxed);
                self.inner.try_fetch(pattern, inputs, page)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::LatencyModel;
    use crate::synthetic::SyntheticSource;
    use mdq_model::schema::AccessPattern;
    use mdq_model::value::Tuple;

    fn source() -> Arc<dyn Service> {
        Arc::new(SyntheticSource::new(
            "s",
            vec![AccessPattern::parse("io").expect("parses")],
            vec![
                Tuple::new(vec![Value::str("a"), Value::Int(1)]),
                Tuple::new(vec![Value::str("a"), Value::Int(2)]),
            ],
            None,
            LatencyModel::fixed(1.0),
        ))
    }

    /// A panic while the attempt table is held must not make every later
    /// fetch through the profile (or its reset) panic too.
    #[test]
    fn a_poisoned_attempt_table_is_recovered() {
        let f = FaultProfile::scripted(source(), FaultPlan::new());
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = f.attempts.lock();
                panic!("poison the attempt table");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(f.attempts.is_poisoned());
        let key = [Value::str("a")];
        assert!(f.try_fetch(0, &key, 0).is_ok(), "fetches still run");
        f.reset();
        assert!(f.try_fetch(0, &key, 0).is_ok());
    }

    #[test]
    fn scripted_fail_first_then_succeed() {
        let f = FaultProfile::scripted(
            source(),
            FaultPlan::new().fail_first(2, PlannedFault::Error),
        );
        let key = [Value::str("a")];
        assert!(f.try_fetch(0, &key, 0).is_err(), "attempt 0 faults");
        assert!(f.try_fetch(0, &key, 0).is_err(), "attempt 1 faults");
        let ok = f.try_fetch(0, &key, 0).expect("attempt 2 succeeds");
        assert_eq!(ok.tuples.len(), 2);
        let inj = f.injections();
        assert_eq!((inj.errors, inj.healthy), (2, 1));
        // a different call identity has its own attempt counter
        assert!(f.try_fetch(0, &[Value::str("b")], 0).is_err());
    }

    #[test]
    fn scripted_rules_match_by_page_and_inputs() {
        let plan = FaultPlan::new()
            .fail_page(1, u32::MAX, PlannedFault::Timeout)
            .fail_inputs(vec![Value::str("b")], 1, PlannedFault::RateLimited(2.5));
        let f = FaultProfile::scripted(source(), plan);
        assert!(f.try_fetch(0, &[Value::str("a")], 0).is_ok());
        assert!(matches!(
            f.try_fetch(0, &[Value::str("a")], 1),
            Err(ServiceFault::Timeout { .. })
        ));
        assert!(matches!(
            f.try_fetch(0, &[Value::str("b")], 0),
            Err(ServiceFault::RateLimited { retry_after, .. }) if retry_after == 2.5
        ));
        assert!(f.try_fetch(0, &[Value::str("b")], 0).is_ok(), "only first");
    }

    #[test]
    fn seeded_schedule_is_identity_deterministic() {
        let cfg = FaultConfig::seeded(42).with_errors(0.3).with_timeouts(0.2);
        let a = FaultProfile::seeded(source(), cfg);
        let b = FaultProfile::seeded(source(), cfg);
        // interleave b's calls differently: same per-identity outcomes
        let keys = [Value::str("a"), Value::str("b"), Value::str("c")];
        let outcomes_a: Vec<bool> = keys
            .iter()
            .flat_map(|k| {
                (0..4)
                    .map(|_| a.try_fetch(0, std::slice::from_ref(k), 0).is_ok())
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut outcomes_b = vec![false; outcomes_a.len()];
        for attempt in 0..4 {
            for (ki, k) in keys.iter().enumerate() {
                outcomes_b[ki * 4 + attempt] = b.try_fetch(0, std::slice::from_ref(k), 0).is_ok();
            }
        }
        assert_eq!(outcomes_a, outcomes_b, "order-independent schedule");
        let inj = a.injections();
        assert_eq!(inj.total_faults() + inj.healthy, 12);
        assert!(inj.total_faults() > 0, "rates high enough to observe");
    }

    #[test]
    fn spikes_inflate_latency_only() {
        let cfg = FaultConfig::seeded(7).with_spikes(1.0, 4.0);
        let f = FaultProfile::seeded(source(), cfg);
        let r = f.try_fetch(0, &[Value::str("a")], 0).expect("healthy");
        assert_eq!(r.tuples.len(), 2, "answers untouched");
        assert!((r.latency - 4.0).abs() < 1e-9, "latency ×4: {}", r.latency);
        assert_eq!(f.injections().spikes, 1);
    }

    #[test]
    fn fetch_stays_fault_free_and_reset_replays() {
        let f = FaultProfile::scripted(
            source(),
            FaultPlan::new().fail_first(1, PlannedFault::Error),
        );
        assert_eq!(f.fetch(0, &[Value::str("a")], 0).tuples.len(), 2);
        assert!(f.try_fetch(0, &[Value::str("a")], 0).is_err());
        assert!(f.try_fetch(0, &[Value::str("a")], 0).is_ok());
        f.reset();
        assert!(f.try_fetch(0, &[Value::str("a")], 0).is_err(), "replays");
        assert_eq!(f.injections().errors, 1, "counters reset too");
    }
}
