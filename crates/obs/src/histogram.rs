//! Fixed-bucket histograms — the distribution-aware replacement for
//! sum-only gauges.
//!
//! A [`Histogram`] owns a static list of upper bucket bounds plus one
//! overflow bucket, and tracks count, sum and max alongside the bucket
//! counters — so a consumer gets mean/max/percentile-ish shape from one
//! cheap structure. Bounds are chosen per signal (service-call
//! simulated seconds, queue-wait wall seconds, admission batch sizes)
//! and never rebucketed: merging two histograms over the same bounds is
//! element-wise addition, which is what lets per-worker instances fold
//! into one snapshot without locks on the hot path.
//!
//! An [`AtomicHistogram`] is the live, shared form: one relaxed counter
//! per bucket and nothing else. Both place a value by [`bucket_of`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bucket bounds for *simulated* per-call service latency,
/// seconds (the paper's services answer in fractions of a second to a
/// few seconds; retries with backoff push single pages past that). One
/// overflow bucket follows the last bound.
pub const SERVICE_LATENCY_BOUNDS: [f64; 7] = [0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0];

/// The bucket `v` falls in over ascending upper `bounds`: the first
/// bound `v` does not exceed, so a value equal to a bound counts in that
/// bound's bucket. Past the last bound, and for NaN, it is
/// `bounds.len()`, the overflow bucket.
pub fn bucket_of(bounds: &[f64], v: f64) -> usize {
    bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())
}

/// A fixed-bucket histogram many threads observe into at once: one
/// relaxed counter per bucket, allocated once. It keeps no sum or max,
/// so an observation costs one bucket scan and one `fetch_add`.
#[derive(Debug)]
pub struct AtomicHistogram {
    bounds: &'static [f64],
    /// `bounds.len() + 1` counters; the last is the overflow bucket.
    counts: Box<[AtomicU64]>,
}

impl AtomicHistogram {
    /// An empty histogram over `bounds` (ascending upper bounds; one
    /// overflow bucket is added past the last).
    pub fn new(bounds: &'static [f64]) -> Self {
        AtomicHistogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Counts `v` in its [`bucket_of`].
    pub fn observe(&self, v: f64) {
        self.counts[bucket_of(self.bounds, v)].fetch_add(1, Ordering::Relaxed);
    }

    /// The buckets as `(upper bound — `None` for overflow — , count)`.
    /// Each counter is read once, so a sample taken while others
    /// observe may miss what lands during the read.
    pub fn buckets(&self) -> Vec<(Option<f64>, u64)> {
        let counts = self.counts.iter().map(|c| c.load(Ordering::Relaxed));
        Histogram::from_parts(self.bounds, counts.collect(), 0.0, 0.0)
            .buckets()
            .collect()
    }
}

/// A fixed-bucket histogram with count, sum and max riding along.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    /// `bounds.len() + 1` counters; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram over `bounds` (ascending upper bounds; one
    /// overflow bucket is added past the last).
    pub fn new(bounds: &'static [f64]) -> Self {
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Folds `other` (over the same bounds) into `self`.
    ///
    /// # Panics
    /// When the bound lists differ — merging histograms of different
    /// signals is always a bug.
    pub fn merge(&mut self, other: &Histogram) {
        // value comparison, not pointer identity: a `const` bounds
        // array promotes to a distinct static per referencing crate
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms over different bucket bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Rebuilds a histogram from raw bucket counters (e.g. atomics
    /// sampled by a metrics snapshot), with `sum`/`max` supplied by the
    /// caller's own accumulators.
    pub fn from_parts(bounds: &'static [f64], counts: Vec<u64>, sum: f64, max: f64) -> Self {
        assert_eq!(counts.len(), bounds.len() + 1, "one counter per bucket");
        let count = counts.iter().sum();
        Histogram {
            bounds,
            counts,
            count,
            sum,
            max,
        }
    }

    /// Mean observation (0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The buckets as `(upper bound — `None` for overflow — , count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (Option<f64>, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .map(Some)
            .chain(std::iter::once(None))
            .zip(self.counts.iter().copied())
    }

    /// Condenses into a [`LatencySummary`].
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            total: self.sum,
            mean: self.mean(),
            max: self.max,
        }
    }
}

/// Count + mean + max (and the exact total they derive from) of one
/// latency distribution — what `per_service_latency` reports instead of
/// a bare sum.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Observations (forwarded attempts for service latency).
    pub count: u64,
    /// Exact summed seconds — reconciliation anchors against this.
    pub total: f64,
    /// `total / count` (0 while empty).
    pub mean: f64,
    /// Largest single observation.
    pub max: f64,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}× mean {:.3}s max {:.3}s (Σ {:.2}s)",
            self.count, self.mean, self.max, self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static BOUNDS: [f64; 3] = [1.0, 2.0, 4.0];

    #[test]
    fn parts_buckets_and_summary() {
        // observations 0.5, 1.5, 3.0 and 9.0: one per bucket
        let h = Histogram::from_parts(&BOUNDS, vec![1, 1, 1, 1], 14.0, 9.0);
        let counts: Vec<u64> = h.buckets().map(|(_, n)| n).collect();
        assert_eq!(counts, vec![1, 1, 1, 1]);
        let s = h.summary();
        assert_eq!((s.count, s.total, s.max, s.mean), (4, 14.0, 9.0, 3.5));
    }

    #[test]
    fn merge_is_elementwise() {
        // a holds 0.5; b holds 5.0 and 1.0
        let mut a = Histogram::from_parts(&BOUNDS, vec![1, 0, 0, 0], 0.5, 0.5);
        let b = Histogram::from_parts(&BOUNDS, vec![1, 0, 0, 1], 6.0, 5.0);
        a.merge(&b);
        let s = a.summary();
        assert_eq!((s.count, s.max), (3, 5.0));
        let counts: Vec<u64> = a.buckets().map(|(_, n)| n).collect();
        assert_eq!(counts, vec![2, 0, 0, 1]);
    }

    #[test]
    fn bucket_of_edges() {
        assert_eq!(
            bucket_of(&BOUNDS, 1.0),
            0,
            "a bound's own value is in its bucket"
        );
        assert_eq!(bucket_of(&BOUNDS, 1.5), 1);
        assert_eq!(bucket_of(&BOUNDS, 4.0), 2);
        assert_eq!(bucket_of(&BOUNDS, 4.5), 3, "past the last bound: overflow");
        assert_eq!(bucket_of(&BOUNDS, f64::NAN), 3, "NaN: overflow");
        assert_eq!(bucket_of(&BOUNDS, -1.0), 0, "negative: first bucket");
        assert_eq!(bucket_of(&[], 1.0), 0, "no bounds: everything overflows");
    }

    #[test]
    fn atomic_histogram_matches_the_plain_one() {
        let h = AtomicHistogram::new(&BOUNDS);
        let seen = [2.0, 2.0, 9.0, f64::NAN, -3.0, 0.0, 4.0, 1.0000001];
        for v in seen {
            h.observe(v);
        }
        let buckets = h.buckets();
        let counts: Vec<u64> = buckets.iter().map(|&(_, n)| n).collect();
        // ≤1: -3, 0 · ≤2: 2, 2, 1.0000001 · ≤4: 4 · overflow: 9, NaN
        assert_eq!(counts, vec![2, 3, 1, 2]);
        assert_eq!(counts.iter().sum::<u64>(), seen.len() as u64);
        let plain = Histogram::from_parts(&BOUNDS, counts, 0.0, 0.0);
        assert_eq!(buckets, plain.buckets().collect::<Vec<_>>());
        assert_eq!(buckets[0].0, Some(1.0));
        assert_eq!(buckets[3].0, None);
    }
}
