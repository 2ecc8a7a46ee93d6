//! Estimate-vs-observation divergence — the trigger of adaptive
//! re-optimization.
//!
//! The optimizer commits to a plan using the *estimated* service
//! statistics registered in the schema (`ξ`, `τ`, `φ`; §5 "service
//! registration"). During execution the gateway observes the *actual*
//! per-service behaviour: tuples returned per call, simulated latency
//! per call, faulted attempts. This module quantifies how far the two
//! have drifted (`profile_divergence`), decides when the drift is
//! worth acting on ([`diverging_services`] under an [`AdaptiveConfig`]),
//! and folds the observations back into the schema
//! ([`refresh_profiles`]) so a re-run of the optimizer prices plans
//! against reality instead of stale registration samples.
//!
//! The same refresh path doubles as the serving-layer profile seeder:
//! a long-lived gateway state accumulates an observed-stats snapshot
//! that can replace a separate sampling-profiler pass entirely.

use mdq_model::schema::{Schema, ServiceId, ServiceSignature};
use mdq_obs::histogram::{bucket_of, Histogram, LatencySummary, SERVICE_LATENCY_BOUNDS};
use std::collections::HashMap;

/// Latency buckets kept inline in [`ObservedService`]: one per
/// [`SERVICE_LATENCY_BOUNDS`] bound plus the overflow bucket. A fixed
/// array keeps the observation struct `Copy` — it rides through the
/// merge-on-read accounting cells by value.
const LAT_BUCKETS: usize = SERVICE_LATENCY_BOUNDS.len() + 1;

/// Guard against division by (near) zero in symmetric ratios.
const EPS: f64 = 1e-9;

/// Live per-service observations accumulated by the execution gateway:
/// forwarded request-responses only — pages served from a cache carry no
/// information about the service itself and are not counted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ObservedService {
    /// Request-responses forwarded (successful and faulted attempts).
    pub calls: u64,
    /// Attempts that returned a page.
    pub ok_calls: u64,
    /// Attempts that faulted (error, timeout or throttle).
    pub faults: u64,
    /// Summed simulated seconds of all attempts (faulted ones included;
    /// retry backoff is accounted separately by the gateway).
    pub latency: f64,
    /// Tuples returned by the successful attempts.
    pub tuples: u64,
    /// Largest single-attempt simulated latency seen.
    pub max_latency: f64,
    /// Per-attempt latency bucket counters (bounds:
    /// [`SERVICE_LATENCY_BOUNDS`], last bucket = overflow) — the
    /// fixed-bucket histogram `per_service_latency` summaries derive
    /// from.
    pub latency_hist: [u64; LAT_BUCKETS],
}

impl ObservedService {
    /// Mean simulated seconds per attempt (0 before any call).
    fn mean_latency(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.latency / self.calls as f64
        }
    }

    /// Mean tuples per successful page (0 before any success).
    fn tuples_per_call(&self) -> f64 {
        if self.ok_calls == 0 {
            0.0
        } else {
            self.tuples as f64 / self.ok_calls as f64
        }
    }

    /// Observed failure rate over attempts (0 before any call).
    pub fn failure_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.faults as f64 / self.calls as f64
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ObservedService) {
        self.calls += other.calls;
        self.ok_calls += other.ok_calls;
        self.faults += other.faults;
        self.latency += other.latency;
        self.tuples += other.tuples;
        if other.max_latency > self.max_latency {
            self.max_latency = other.max_latency;
        }
        for (a, b) in self.latency_hist.iter_mut().zip(&other.latency_hist) {
            *a += b;
        }
    }

    fn observe_latency(&mut self, latency: f64) {
        self.latency += latency;
        if latency > self.max_latency {
            self.max_latency = latency;
        }
        self.latency_hist[bucket_of(&SERVICE_LATENCY_BOUNDS, latency)] += 1;
    }

    /// Records one successful attempt returning `tuples` tuples in
    /// `latency` simulated seconds.
    pub fn record_ok(&mut self, tuples: usize, latency: f64) {
        self.calls += 1;
        self.ok_calls += 1;
        self.tuples += tuples as u64;
        self.observe_latency(latency);
    }

    /// Records one faulted attempt that consumed `latency` simulated
    /// seconds.
    pub fn record_fault(&mut self, latency: f64) {
        self.calls += 1;
        self.faults += 1;
        self.observe_latency(latency);
    }

    /// The per-attempt latency distribution as a [`Histogram`] over
    /// [`SERVICE_LATENCY_BOUNDS`].
    pub fn latency_histogram(&self) -> Histogram {
        Histogram::from_parts(
            &SERVICE_LATENCY_BOUNDS,
            self.latency_hist.to_vec(),
            self.latency,
            self.max_latency,
        )
    }

    /// Count + mean + max (+ exact total) of the per-attempt latency —
    /// the histogram-derived summary `per_service_latency` reports.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.calls,
            total: self.latency,
            mean: self.mean_latency(),
            max: self.max_latency,
        }
    }
}

/// Policy knobs of the adaptive re-optimization loop, carried per
/// session by the runtime and honoured by every adaptive driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Check cadence: a suspension point runs the divergence check only
    /// when at least this many request-responses were forwarded since
    /// the previous check (1 = check at every suspension point).
    pub check_every_calls: u64,
    /// Divergence threshold as a symmetric ratio: a service whose
    /// observed size/latency/failure behaviour is at least this many
    /// times off its estimate (in either direction) triggers a re-plan
    /// attempt. Must be ≥ 1; 2.0 means "2× off".
    pub divergence_ratio: f64,
    /// Minimum forwarded calls observed for a service before its
    /// statistics are trusted (small samples are noisy).
    pub min_calls: u64,
    /// Maximum re-plans per query execution (0 disables re-planning —
    /// the adaptive drivers then behave exactly like the frozen ones).
    pub max_replans: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            check_every_calls: 1,
            divergence_ratio: 3.0,
            min_calls: 1,
            max_replans: 2,
        }
    }
}

/// One service whose observations drifted past the threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceDivergence {
    /// The drifted service.
    pub service: ServiceId,
    /// Worst symmetric ratio across the compared dimensions (≥ 1).
    pub ratio: f64,
    /// The observations that produced the ratio.
    pub observed: ObservedService,
}

/// Symmetric ratio `max(a/b, b/a)` with both sides floored away from 0.
fn ratio(a: f64, b: f64) -> f64 {
    let (a, b) = (a.max(EPS), b.max(EPS));
    (a / b).max(b / a)
}

/// How far `obs` has drifted from the registered profile of `sig`, as
/// the worst symmetric ratio over three dimensions:
///
/// * **result size** — tuples per successful page vs. the expected page
///   size (chunk size for chunked services, erspi `ξ` for bulk ones);
/// * **latency** — mean simulated seconds per attempt vs. `τ`;
/// * **reliability** — expected attempts per success (`1/(1−φ)`)
///   observed vs. estimated, so a degrading service registers even when
///   its healthy attempts stay fast.
///
/// Returns 1.0 (no divergence) when nothing was observed yet.
fn profile_divergence(sig: &ServiceSignature, obs: &ObservedService) -> f64 {
    let mut worst = 1.0f64;
    if obs.ok_calls > 0 {
        let expected_size = match sig.chunking.chunk_size() {
            Some(cs) => cs as f64,
            None => sig.profile.erspi,
        };
        // both sides floored at one tuple per call: an empty or sparse
        // first page reads as "at most erspi× off", not as an unbounded
        // ratio against a near-zero observation — small samples stay
        // actionable without dwarfing the other dimensions
        worst = worst.max(ratio(
            obs.tuples_per_call().max(1.0),
            expected_size.max(1.0),
        ));
    }
    if obs.calls > 0 {
        worst = worst.max(ratio(obs.mean_latency(), sig.profile.response_time));
        let observed_attempts = 1.0 / (1.0 - obs.failure_rate().clamp(0.0, 0.95));
        worst = worst.max(ratio(observed_attempts, sig.profile.expected_attempts()));
    }
    worst
}

/// The services whose observations drifted at least
/// [`AdaptiveConfig::divergence_ratio`] away from their schema
/// estimates, having been observed for at least
/// [`AdaptiveConfig::min_calls`] forwarded calls. Sorted by service id
/// so adaptive decisions replay deterministically.
pub fn diverging_services(
    schema: &Schema,
    observed: &HashMap<ServiceId, ObservedService>,
    config: &AdaptiveConfig,
) -> Vec<ServiceDivergence> {
    let mut out: Vec<ServiceDivergence> = observed
        .iter()
        .filter(|(_, obs)| obs.calls >= config.min_calls.max(1))
        .filter_map(|(&id, obs)| {
            let ratio = profile_divergence(schema.service(id), obs);
            (ratio >= config.divergence_ratio.max(1.0)).then_some(ServiceDivergence {
                service: id,
                ratio,
                observed: *obs,
            })
        })
        .collect();
    out.sort_by_key(|d| d.service);
    out
}

/// Installs the observed statistics of every service with at least
/// `min_calls` forwarded calls into the schema profiles, returning how
/// many profiles changed. The counterpart of the sampling profiler's
/// `install` for *live* observations: response time and failure rate
/// always refresh; erspi refreshes for bulk services only (a chunked
/// service's per-page size is its chunk size, not an intrinsic ξ).
///
/// This is what lets a serving deployment seed its cost model from
/// gateway accounting without a separate profiling pass, and what a
/// re-plan uses so the optimizer prices the suffix against reality.
pub fn refresh_profiles(
    schema: &mut Schema,
    observed: &HashMap<ServiceId, ObservedService>,
    min_calls: u64,
) -> usize {
    let mut ids: Vec<ServiceId> = observed
        .iter()
        .filter(|(_, obs)| obs.calls >= min_calls.max(1))
        .map(|(&id, _)| id)
        .collect();
    ids.sort_unstable();
    for &id in &ids {
        let obs = &observed[&id];
        let sig = schema.service_mut(id);
        sig.profile.response_time = obs.mean_latency().max(EPS);
        sig.profile.failure_rate = obs.failure_rate().clamp(0.0, 0.95);
        if !sig.chunking.is_chunked() && obs.ok_calls > 0 {
            sig.profile.erspi = obs.tuples_per_call().max(EPS);
        }
    }
    ids.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::schema::{ServiceBuilder, ServiceProfile};

    fn schema_with(erspi: f64, tau: f64, chunked: Option<u32>) -> (Schema, ServiceId) {
        let mut schema = Schema::new();
        let mut b = ServiceBuilder::new(&mut schema, "svc")
            .attr("In", "DIn")
            .attr("Out", "DOut")
            .pattern("io")
            .profile(ServiceProfile::new(erspi, tau));
        if let Some(cs) = chunked {
            b = b.search().chunked(cs);
        }
        let id = b.register().expect("registers");
        (schema, id)
    }

    fn observed(calls: u64, ok: u64, tuples: u64, latency: f64) -> ObservedService {
        ObservedService {
            calls,
            ok_calls: ok,
            faults: calls - ok,
            latency,
            tuples,
            ..Default::default()
        }
    }

    #[test]
    fn matching_observations_do_not_diverge() {
        let (schema, id) = schema_with(4.0, 2.0, None);
        let obs = observed(10, 10, 40, 20.0);
        let ratio = profile_divergence(schema.service(id), &obs);
        assert!((ratio - 1.0).abs() < 1e-9, "ratio = {ratio}");
        let map = HashMap::from([(id, obs)]);
        assert!(diverging_services(&schema, &map, &AdaptiveConfig::default()).is_empty());
    }

    #[test]
    fn size_divergence_is_symmetric() {
        let (schema, id) = schema_with(4.0, 2.0, None);
        // 10× more tuples than estimated
        let more = observed(10, 10, 400, 20.0);
        assert!((profile_divergence(schema.service(id), &more) - 10.0).abs() < 1e-6);
        // far fewer than estimated: the sub-one-tuple observation is
        // floored, so the ratio is bounded by the estimate itself
        let fewer = observed(10, 10, 4, 20.0);
        assert!((profile_divergence(schema.service(id), &fewer) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn empty_pages_stay_bounded() {
        // one empty first page must not explode into an astronomical
        // ratio (and spuriously burn an optimizer run): the floored
        // size dimension caps at the estimate
        let (schema, id) = schema_with(4.0, 2.0, None);
        let empty = observed(1, 1, 0, 2.0);
        let ratio = profile_divergence(schema.service(id), &empty);
        assert!((ratio - 4.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn chunked_services_compare_against_chunk_size() {
        let (schema, id) = schema_with(1.0, 2.0, Some(5));
        // full pages of 5: no size divergence even though erspi is 1
        let obs = observed(10, 10, 50, 20.0);
        let ratio = profile_divergence(schema.service(id), &obs);
        assert!((ratio - 1.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn failure_rate_divergence_registers() {
        let (schema, id) = schema_with(1.0, 2.0, None);
        // half of all attempts fault against an estimated φ = 0:
        // expected attempts 2.0 vs 1.0
        let obs = observed(10, 5, 5, 20.0);
        let ratio = profile_divergence(schema.service(id), &obs);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio = {ratio}");
    }

    #[test]
    fn min_calls_gates_noisy_samples() {
        let (schema, id) = schema_with(4.0, 2.0, None);
        let obs = observed(1, 1, 400, 2.0);
        let config = AdaptiveConfig {
            min_calls: 2,
            ..AdaptiveConfig::default()
        };
        let map = HashMap::from([(id, obs)]);
        assert!(diverging_services(&schema, &map, &config).is_empty());
        let config = AdaptiveConfig {
            min_calls: 1,
            ..config
        };
        let hits = diverging_services(&schema, &map, &config);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].service, id);
        assert!(hits[0].ratio > 10.0);
    }

    #[test]
    fn refresh_installs_observed_statistics() {
        let (mut schema, id) = schema_with(4.0, 2.0, None);
        let obs = observed(10, 8, 400, 30.0);
        let map = HashMap::from([(id, obs)]);
        assert_eq!(refresh_profiles(&mut schema, &map, 1), 1);
        let profile = &schema.service(id).profile;
        assert!((profile.erspi - 50.0).abs() < 1e-9, "tuples per ok call");
        assert!((profile.response_time - 3.0).abs() < 1e-9, "mean latency");
        assert!((profile.failure_rate - 0.2).abs() < 1e-9);
        // after refresh the observations no longer diverge
        let hits = diverging_services(&schema, &map, &AdaptiveConfig::default());
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn refresh_keeps_chunked_erspi() {
        let (mut schema, id) = schema_with(25.0, 2.0, Some(5));
        let map = HashMap::from([(id, observed(10, 10, 50, 20.0))]);
        refresh_profiles(&mut schema, &map, 1);
        assert!((schema.service(id).profile.erspi - 25.0).abs() < 1e-9);
    }
}
