//! The runtime service abstraction.
//!
//! The optimizer sees services through their [`Schema`] signatures; the
//! execution engine sees them through this trait: something that can be
//! *fetched* — invoked with values for the input positions of one of its
//! access patterns, returning one chunk (page) of result tuples together
//! with the simulated latency of the round trip.
//!
//! [`Schema`]: mdq_model::schema::Schema

use crate::recover;
use mdq_model::value::{Tuple, Value};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

/// The values bound to the input positions of an access pattern, in
/// position order — the cache/index key of an invocation.
pub(crate) type InputKey = Vec<Value>;

/// The degraded behaviours a wrapped web service exhibits (§6 wraps
/// live 2008 sites, whose real-world failure modes — error pages,
/// timeouts, throttling — the infallible simulation otherwise hides).
///
/// Every variant carries the *simulated* seconds the failed
/// request-response consumed on the client side, so fault handling is
/// accounted in the same virtual-time currency as successful calls.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceFault {
    /// The provider answered, but with an error page.
    Error {
        /// Human-readable provider message.
        message: String,
        /// Simulated seconds until the error page arrived.
        latency: f64,
    },
    /// No answer arrived within the client's deadline.
    Timeout {
        /// The deadline the client waited out, in simulated seconds.
        deadline: f64,
    },
    /// The provider throttled the client.
    RateLimited {
        /// Provider-suggested wait before the next attempt, seconds.
        retry_after: f64,
        /// Simulated seconds until the throttle response arrived.
        latency: f64,
    },
}

impl ServiceFault {
    /// Simulated seconds the failed request-response consumed.
    pub fn latency(&self) -> f64 {
        match self {
            ServiceFault::Error { latency, .. } => *latency,
            ServiceFault::Timeout { deadline } => *deadline,
            ServiceFault::RateLimited { latency, .. } => *latency,
        }
    }
}

impl fmt::Display for ServiceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceFault::Error { message, .. } => write!(f, "service error: {message}"),
            ServiceFault::Timeout { deadline } => {
                write!(f, "timed out after {deadline}s")
            }
            ServiceFault::RateLimited { retry_after, .. } => {
                write!(f, "rate limited (retry after {retry_after}s)")
            }
        }
    }
}

/// One page of results from a service invocation.
#[derive(Clone, Debug)]
pub struct ServiceResponse {
    /// The tuples of this chunk, in ranking order for search services.
    pub tuples: Vec<Tuple>,
    /// Whether further fetches would return more tuples.
    pub has_more: bool,
    /// Simulated wall-clock latency of this request-response, in seconds.
    pub latency: f64,
}

/// A web service as seen by the execution engine.
///
/// Implementations must be thread-safe: the multi-threaded executor
/// dispatches calls from several workers.
pub trait Service: Send + Sync {
    /// The service name (matches its schema signature).
    fn name(&self) -> &str;

    /// Fetches page `page` (0-based) of the invocation identified by
    /// access pattern index `pattern` and input values `inputs` (one per
    /// input position of that pattern, in position order).
    ///
    /// Bulk services return everything at page 0 with `has_more = false`.
    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse;

    /// Fallible fetch: like [`Service::fetch`], but a degraded provider
    /// may return a [`ServiceFault`] instead of a page.
    ///
    /// This is the entry point the execution engine's gateway and the
    /// profiler use. The default implementation never faults, so plain
    /// simulated sources stay infallible; fault-injecting wrappers
    /// ([`FaultProfile`](crate::fault::FaultProfile)) override it.
    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        Ok(self.fetch(pattern, inputs, page))
    }
}

/// Forwarding impl so wrappers can hold `Arc<dyn Service>` handles
/// (e.g. to re-wrap an already-registered service with faults).
impl<S: Service + ?Sized> Service for Arc<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        (**self).fetch(pattern, inputs, page)
    }

    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        (**self).try_fetch(pattern, inputs, page)
    }
}

/// Thread-safe per-service invocation counters, used to reproduce the
/// call-count bars of Fig. 11.
#[derive(Debug, Default)]
pub struct CallCounter {
    calls: AtomicU64,
    latency_millis: AtomicU64,
}

impl CallCounter {
    /// Records one request-response.
    pub fn record(&self, latency: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.latency_millis
            .fetch_add((latency * 1000.0).round() as u64, Ordering::Relaxed);
    }

    /// Number of request-responses recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total simulated latency, in seconds.
    pub fn total_latency(&self) -> f64 {
        self.latency_millis.load(Ordering::Relaxed) as f64 / 1000.0
    }
}

/// Wraps a service with a shared [`CallCounter`], recording every fetch.
pub struct Counted<S> {
    inner: S,
    counter: Arc<CallCounter>,
}

impl<S: Service> Counted<S> {
    /// Wraps `inner`, returning the wrapper and its counter handle.
    pub(crate) fn new(inner: S) -> (Self, Arc<CallCounter>) {
        let counter = Arc::new(CallCounter::default());
        (
            Counted {
                inner,
                counter: Arc::clone(&counter),
            },
            counter,
        )
    }
}

impl<S: Service> Service for Counted<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        let r = self.inner.fetch(pattern, inputs, page);
        self.counter.record(r.latency);
        r
    }

    fn try_fetch(
        &self,
        pattern: usize,
        inputs: &[Value],
        page: u32,
    ) -> Result<ServiceResponse, ServiceFault> {
        // faulted attempts are request-responses too: count them, with
        // the simulated seconds the failed round trip consumed
        let r = self.inner.try_fetch(pattern, inputs, page);
        match &r {
            Ok(resp) => self.counter.record(resp.latency),
            Err(fault) => self.counter.record(fault.latency()),
        }
        r
    }
}

/// A latency model for simulated services: a base response time, a
/// deterministic pseudo-random jitter, an optional fast path for empty
/// answers (error pages return quickly), and an optional *server-side*
/// cache — §6 observes that repeated calls to Bookings.com "are cached on
/// the server … and therefore answered very quickly", while "Expedia does
/// not cache such calls".
#[derive(Debug)]
pub struct LatencyModel {
    /// Mean response time τ, seconds.
    pub base: f64,
    /// Jitter amplitude as a fraction of `base` (uniform in ±fraction).
    pub jitter_frac: f64,
    /// Latency of calls returning no tuples, if faster than `base`.
    pub empty_latency: Option<f64>,
    /// Latency of repeat calls with a previously seen input, modelling a
    /// cache on the provider's side.
    pub server_cache_latency: Option<f64>,
    seed: u64,
    seen: Mutex<std::collections::HashSet<(usize, InputKey)>>,
    counter: AtomicU64,
}

impl Clone for LatencyModel {
    fn clone(&self) -> Self {
        LatencyModel {
            base: self.base,
            jitter_frac: self.jitter_frac,
            empty_latency: self.empty_latency,
            server_cache_latency: self.server_cache_latency,
            seed: self.seed,
            seen: Mutex::new(recover(self.seen.lock()).clone()),
            counter: AtomicU64::new(self.counter.load(Ordering::Relaxed)),
        }
    }
}

impl LatencyModel {
    /// A constant-latency model.
    pub fn fixed(base: f64) -> Self {
        LatencyModel {
            base,
            jitter_frac: 0.0,
            empty_latency: None,
            server_cache_latency: None,
            seed: 0,
            seen: Mutex::new(std::collections::HashSet::new()),
            counter: AtomicU64::new(0),
        }
    }

    /// Sets jitter amplitude (fraction of base, uniform).
    pub(crate) fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        self.jitter_frac = frac;
        self.seed = seed;
        self
    }

    /// Sets the fast path for empty answers.
    pub(crate) fn with_empty_latency(mut self, secs: f64) -> Self {
        self.empty_latency = Some(secs);
        self
    }

    /// Enables the provider-side cache fast path.
    pub(crate) fn with_server_cache(mut self, secs: f64) -> Self {
        self.server_cache_latency = Some(secs);
        self
    }

    /// Latency of the next call with the given key and result size.
    /// Deterministic for a fixed seed and call order.
    pub fn sample(&self, pattern: usize, key: &[Value], result_tuples: usize) -> f64 {
        self.sample_request(pattern, || key.to_vec(), result_tuples)
    }

    /// [`LatencyModel::sample`] with the key built by `key`, which only a
    /// provider cache calls: a model without one remembers no request.
    pub(crate) fn sample_request(
        &self,
        pattern: usize,
        key: impl FnOnce() -> InputKey,
        result_tuples: usize,
    ) -> f64 {
        if let Some(cached) = self.server_cache_latency {
            if !recover(self.seen.lock()).insert((pattern, key())) {
                return cached;
            }
        }
        if result_tuples == 0 {
            if let Some(fast) = self.empty_latency {
                return fast;
            }
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let u = splitmix64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // uniform in [-1, 1]
        let r = (u >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        (self.base * (1.0 + self.jitter_frac * r)).max(0.001)
    }
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic while the provider-cache state is held must not make
    /// every later latency sample or clone panic too.
    #[test]
    fn a_poisoned_latency_state_is_recovered() {
        let model = LatencyModel::fixed(1.0).with_server_cache(0.25);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = model.seen.lock();
                panic!("poison the latency state");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(model.seen.is_poisoned());
        let key = [Value::Int(1)];
        assert_eq!(model.sample(0, &key, 3), 1.0);
        assert_eq!(model.sample(0, &key, 3), 0.25, "the repeat is still seen");
        let copy = model.clone();
        assert_eq!(
            copy.sample(0, &key, 3),
            0.25,
            "the clone keeps what was seen"
        );
    }

    #[test]
    fn counter_accumulates() {
        let c = CallCounter::default();
        c.record(1.5);
        c.record(0.5);
        assert_eq!(c.calls(), 2);
        assert!((c.total_latency() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_fixed_and_jitter_deterministic() {
        let m = LatencyModel::fixed(4.9);
        assert_eq!(m.sample(0, &[Value::Int(1)], 3), 4.9);
        let j1 = LatencyModel::fixed(4.9).with_jitter(0.2, 42);
        let j2 = LatencyModel::fixed(4.9).with_jitter(0.2, 42);
        let a: Vec<f64> = (0..5).map(|i| j1.sample(0, &[Value::Int(i)], 1)).collect();
        let b: Vec<f64> = (0..5).map(|i| j2.sample(0, &[Value::Int(i)], 1)).collect();
        assert_eq!(a, b, "same seed, same sequence");
        for v in a {
            assert!((4.9 * 0.8 - 1e-9..=4.9 * 1.2 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn server_cache_fast_path() {
        let m = LatencyModel::fixed(4.9).with_server_cache(0.25);
        let key = vec![Value::str("Lisbon")];
        assert_eq!(m.sample(0, &key, 5), 4.9, "first call full price");
        assert_eq!(m.sample(0, &key, 5), 0.25, "repeat call cached");
        assert_eq!(m.sample(0, &[Value::str("Porto")], 5), 4.9);
    }

    /// Only a provider cache reads what was seen: a model without one
    /// keeps no request, and samples what it sampled when it kept them
    /// all (the values below were taken from that version).
    #[test]
    fn a_model_without_a_provider_cache_remembers_nothing() {
        let model = LatencyModel::fixed(4.9)
            .with_jitter(0.2, 7)
            .with_empty_latency(1.0);
        let calls = [(0, 3), (1, 0), (0, 3), (2, 5), (1, 0), (3, 1)];
        let sampled: Vec<f64> = calls
            .iter()
            .map(|&(i, tuples)| model.sample(0, &[Value::Int(i)], tuples))
            .collect();
        let before = [
            4.684066306846892,
            1.0,
            5.730452209583694,
            5.121430377791384,
            1.0,
            4.232432253943076,
        ];
        assert_eq!(sampled, before);
        assert!(recover(model.seen.lock()).is_empty());
    }

    #[test]
    fn empty_fast_path() {
        let m = LatencyModel::fixed(9.7).with_empty_latency(2.0);
        assert_eq!(m.sample(0, &[Value::str("Nowhere")], 0), 2.0);
        assert_eq!(m.sample(0, &[Value::str("Milano")], 12), 9.7);
    }
}
