//! Server metrics: relaxed atomic counters and histograms, sampled into
//! a [`MetricsSnapshot`].
//!
//! Each server counter is named twice: once as a row of the
//! `metrics_table!` invocation below (its field and its stable dotted
//! key) and once as a documented [`MetricsSnapshot`] field, whose doc
//! line is its help. A new counter is one table row plus that field;
//! the sampler's struct literal fails to compile when either is
//! missing. The table generates the live `Metrics` cells, their
//! initialiser, the sampler's loads and the `(key, value)` walk that
//! `Display` prints as `key value` lines. Histogram rows name a field,
//! its bounds and the label `Display` prints it under; each is an
//! [`AtomicHistogram`].

use crate::tenant::TenantSnapshot;
use mdq_exec::gateway::{PageShardStats, SharedServiceState};
use mdq_model::schema::Schema;
use mdq_obs::{AtomicHistogram, LatencySummary};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Upper bucket bounds of the per-query wall-latency histogram, in
/// seconds (the last bucket is unbounded).
const LATENCY_BOUNDS: [f64; 9] = [0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0];

/// Upper bucket bounds of the submit→dequeue queue-wait histogram, in
/// wall seconds (the last bucket is unbounded).
const QUEUE_WAIT_BOUNDS: [f64; 7] = [0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0];

/// Upper bucket bounds of the admission batch-size histogram, in batch
/// members (the last bucket is unbounded; the default
/// [`RuntimeConfig::batch_max`] is 16).
///
/// [`RuntimeConfig::batch_max`]: crate::server::RuntimeConfig::batch_max
const BATCH_SIZE_BOUNDS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Upper bucket bounds of the per-pass refresh phase histograms
/// (fetch, evaluate, commit), in wall seconds (the last bucket is
/// unbounded). Shared by all three phases so their distributions line
/// up bucket-for-bucket.
const REFRESH_PHASE_BOUNDS: [f64; 7] = [0.0001, 0.0003, 0.001, 0.003, 0.01, 0.1, 1.0];

/// Generates, from the table it is invoked with, the live `Metrics`,
/// its initialiser and sampler, and the snapshot's counter and
/// histogram walks (see the module doc).
macro_rules! metrics_table {
    (
        counters { $($field:ident: $key:literal,)* }
        histograms { $($hist:ident: $bounds:ident, $label:literal,)* }
    ) => {
        /// Live counters; one instance per server, updated lock-free by
        /// the workers.
        pub(crate) struct Metrics {
            started: Instant,
            $(pub(crate) $field: AtomicU64,)*
            $(pub(crate) $hist: AtomicHistogram,)*
        }

        impl Metrics {
            pub(crate) fn new() -> Self {
                Metrics {
                    started: Instant::now(),
                    $($field: AtomicU64::new(0),)*
                    $($hist: AtomicHistogram::new(&$bounds),)*
                }
            }

            /// Samples every counter plus the shared gateway state into a
            /// consistent-enough snapshot (the server's own counters are
            /// relaxed; exactness across *them* is not guaranteed
            /// mid-flight). Everything read off the gateway's call ledger
            /// — service calls and latency, total and per service, the
            /// latency histogram, page hit/miss — comes from **one**
            /// merged snapshot, so `total_service_calls == Σ
            /// per_service_calls` and `total_service_latency == Σ
            /// per_service_latency.total` hold for every sample,
            /// mid-flight included.
            pub(crate) fn snapshot(
                &self,
                shared: &SharedServiceState,
                schema: &Schema,
                queue_depth: usize,
                tenants: Vec<TenantSnapshot>,
            ) -> MetricsSnapshot {
                let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
                let ledger = shared.ledger();
                let page = ledger.total_cache_stats();
                let mut per_service_calls: Vec<(String, u64)> = ledger
                    .calls()
                    .iter()
                    .map(|(id, n)| (schema.service(*id).name.to_string(), *n))
                    .collect();
                per_service_calls.sort();
                let mut per_service_latency: Vec<(String, LatencySummary)> = ledger
                    .latency_summaries()
                    .map(|(id, s)| (schema.service(id).name.to_string(), s))
                    .collect();
                per_service_latency.sort_by(|a, b| a.0.cmp(&b.0));
                let sub = shared.sub_result_stats();
                let mut s = MetricsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                    $($hist: self.$hist.buckets(),)*
                    uptime_seconds: uptime,
                    queue_depth: queue_depth as u64,
                    tenants,
                    // both derive from the counters just loaded, below
                    qps: 0.0,
                    plan_cache_hit_rate: 0.0,
                    page_cache_hits: page.hits,
                    page_cache_misses: page.misses,
                    page_cache_hit_rate: rate(page.hits, page.misses),
                    page_cache_evictions: shared.page_cache_evictions(),
                    sub_results_materialized: sub.entries,
                    sub_result_evictions: sub.evictions,
                    total_service_calls: ledger.total_calls(),
                    total_service_latency: ledger.total_latency(),
                    per_service_calls,
                    per_service_latency,
                    service_latency_buckets: ledger.latency_histogram().buckets().collect(),
                    page_cache_shards: shared.page_shard_stats(),
                };
                s.qps = s.completed as f64 / uptime;
                s.plan_cache_hit_rate = rate(s.plan_cache_hits, s.plan_cache_misses);
                s
            }
        }

        impl MetricsSnapshot {
            /// Every table counter as `(key, value)`, in table order.
            pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$(($key, self.$field)),*].into_iter()
            }

            /// Every table histogram as `(label, buckets)`, in table order.
            fn histograms(&self) -> impl Iterator<Item = (&'static str, &[(Option<f64>, u64)])> {
                [$(($label, self.$hist.as_slice())),*].into_iter()
            }
        }
    };
}

metrics_table! {
    counters {
        submitted: "runtime.server.submitted",
        completed: "runtime.server.completed",
        failed: "runtime.server.failed",
        rejected: "runtime.server.rejected",
        shed_queue_full: "runtime.server.shed_queue_full",
        shed_tenant_queue: "runtime.server.shed_tenant_queue",
        shed_tenant_budget: "runtime.server.shed_tenant_budget",
        shed_subscription_cap: "runtime.server.shed_subscription_cap",
        worker_panics: "runtime.server.worker_panics",
        peak_queue_depth: "runtime.server.peak_queue_depth",
        partial_completions: "runtime.server.partial_completions",
        connections: "runtime.net.connections",
        plan_cache_hits: "runtime.plan_cache.hits",
        plan_cache_misses: "runtime.plan_cache.misses",
        plan_failed_memo_hits: "runtime.plan_cache.failed_memo_hits",
        optimizer_invocations: "optimizer.invocations",
        retries: "exec.faults.retries",
        timeouts: "exec.faults.timeouts",
        rate_limited: "exec.faults.rate_limited",
        replans: "exec.adaptive.replans",
        shared_prefix_hits: "runtime.mqo.shared_prefix_hits",
        sub_result_hits: "runtime.mqo.sub_result_hits",
        sub_result_calls_saved: "runtime.mqo.sub_result_calls_saved",
        subscriptions_active: "runtime.subscribe.active",
        refresh_passes: "runtime.subscribe.refresh_passes",
        refresh_calls: "runtime.subscribe.refresh_calls",
        refresh_failures: "runtime.subscribe.refresh_failures",
        invocations_refreshed: "runtime.subscribe.invocations_refreshed",
        invocations_changed: "runtime.subscribe.invocations_changed",
        sub_results_retained: "runtime.subscribe.sub_results_retained",
        deltas_emitted: "runtime.subscribe.deltas_emitted",
        delta_rows_added: "runtime.subscribe.delta_rows_added",
        delta_rows_retracted: "runtime.subscribe.delta_rows_retracted",
    }
    histograms {
        latency_buckets: LATENCY_BOUNDS, "query wall latency",
        queue_wait_buckets: QUEUE_WAIT_BOUNDS, "queue wait",
        batch_size_buckets: BATCH_SIZE_BOUNDS, "admission batch size",
        refresh_fetch_buckets: REFRESH_PHASE_BOUNDS, "refresh fetch",
        refresh_evaluate_buckets: REFRESH_PHASE_BOUNDS, "refresh evaluate",
        refresh_commit_buckets: REFRESH_PHASE_BOUNDS, "refresh commit",
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A point-in-time view of the server's counters — QPS, plan-cache and
/// page-cache hit rates, per-service call accounting and the per-query
/// wall-latency histogram.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Queries accepted by `submit`.
    pub submitted: u64,
    /// Queries that completed with an answer stream.
    pub completed: u64,
    /// Queries that failed (parse, optimize, execution, budget).
    pub failed: u64,
    /// Submissions refused at the front door; never `submitted`, so `submitted == completed + failed + in-flight`.
    pub rejected: u64,
    /// Rejections because the global queue was at [`RuntimeConfig::max_queue_depth`](crate::server::RuntimeConfig::max_queue_depth).
    pub shed_queue_full: u64,
    /// Rejections because the tenant's queue was at [`TenantPolicy::max_queued`](crate::tenant::TenantPolicy::max_queued).
    pub shed_tenant_queue: u64,
    /// Rejections because the tenant's cumulative call budget was spent at submission time.
    pub shed_tenant_budget: u64,
    /// `SUBSCRIBE` registrations refused at the tenant's [`TenantPolicy::max_subscriptions`](crate::tenant::TenantPolicy::max_subscriptions) cap.
    pub shed_subscription_cap: u64,
    /// Jobs whose worker panicked mid-execution (the session failed, the worker recovered).
    pub worker_panics: u64,
    /// Submissions refused from the failed-plan memo without re-running the optimizer.
    pub plan_failed_memo_hits: u64,
    /// Jobs in the admission queue at sampling time.
    pub queue_depth: u64,
    /// High-water mark of the admission queue depth.
    pub peak_queue_depth: u64,
    /// Network connections accepted by the serving edge (0 without a [`NetServer`](crate::net::NetServer)).
    pub connections: u64,
    /// Per-tenant serving counters, in tenant-id order (the default tenant unless others registered).
    pub tenants: Vec<TenantSnapshot>,
    /// Completed queries per second of uptime.
    pub qps: f64,
    /// Plan-cache hits (optimizer skipped).
    pub plan_cache_hits: u64,
    /// Plan-cache misses (optimizer ran).
    pub plan_cache_misses: u64,
    /// `hits / (hits + misses)`; 0 when the cache is untouched.
    pub plan_cache_hit_rate: f64,
    /// Branch-and-bound invocations since start.
    pub optimizer_invocations: u64,
    /// Queries that completed with at least one degraded service (partial answer streams).
    pub partial_completions: u64,
    /// Retries issued after faulted service calls, attributed per query as it finishes.
    pub retries: u64,
    /// Service calls that timed out, attributed per query.
    pub timeouts: u64,
    /// Service calls that were throttled, attributed per query.
    pub rate_limited: u64,
    /// Adaptive mid-flight re-plans, summed from each completed query's `QueryStats::replans`.
    pub replans: u64,
    /// Invocation-level page-cache hits across the shared state.
    pub page_cache_hits: u64,
    /// Invocation-level page-cache misses across the shared state.
    pub page_cache_misses: u64,
    /// `hits / (hits + misses)`; 0 when nothing was invoked.
    pub page_cache_hit_rate: f64,
    /// Page-cache entries dropped by the [`RuntimeConfig::page_cache_entries`](crate::server::RuntimeConfig::page_cache_entries) bound.
    pub page_cache_evictions: u64,
    /// Batch members whose invoke prefix overlapped another member's (or a materialized one) at admission.
    pub shared_prefix_hits: u64,
    /// Materialized prefixes replayed, attributed per query; reconciles with the store's hit count.
    pub sub_result_hits: u64,
    /// Forwarded service calls those replays saved (the materializing cost of each prefix).
    pub sub_result_calls_saved: u64,
    /// Live standing-query subscriptions at sampling time.
    pub subscriptions_active: u64,
    /// Refresh passes run over the tracked invocation frontier.
    pub refresh_passes: u64,
    /// Request-response attempts of refresh passes, retries included; Σ of each pass's `RefreshSummary::calls`.
    pub refresh_calls: u64,
    /// Invocations whose refresh exhausted its retries (stale pages kept) plus failed re-evaluations.
    pub refresh_failures: u64,
    /// Tracked invocations re-fetched by refresh passes.
    pub invocations_refreshed: u64,
    /// Refreshed invocations whose page sets changed.
    pub invocations_changed: u64,
    /// Materialized sub-results that survived refresh-pass retention, summed across passes.
    pub sub_results_retained: u64,
    /// Deltas queued to standing-query subscribers.
    pub deltas_emitted: u64,
    /// Answer rows added across all emitted deltas.
    pub delta_rows_added: u64,
    /// Answer rows retracted across all emitted deltas.
    pub delta_rows_retracted: u64,
    /// Invoke prefixes currently materialized in the sub-result store.
    pub sub_results_materialized: u64,
    /// Materialized prefixes dropped by the [`RuntimeConfig::sub_results`](crate::server::RuntimeConfig::sub_results) bound.
    pub sub_result_evictions: u64,
    /// Request-responses forwarded to services, whole workload.
    pub total_service_calls: u64,
    /// Summed simulated latency of all forwarded calls, seconds.
    pub total_service_latency: f64,
    /// Forwarded calls per service, sorted by name.
    pub per_service_calls: Vec<(String, u64)>,
    /// Per-attempt simulated latency per service, sorted by name, as count + mean + max over the
    /// exact total: `Σ totals == total_service_latency` exactly (fed at the same gateway sites).
    pub per_service_latency: Vec<(String, LatencySummary)>,
    /// Per-attempt simulated latency of every service over [`mdq_obs::SERVICE_LATENCY_BOUNDS`].
    pub service_latency_buckets: Vec<(Option<f64>, u64)>,
    /// Occupancy, eviction and failed-page counters of every page shard, in shard order.
    pub page_cache_shards: Vec<PageShardStats>,
    /// Per-query wall seconds: `(upper bound — `None` for overflow — , count)` over `LATENCY_BOUNDS`.
    pub latency_buckets: Vec<(Option<f64>, u64)>,
    /// Submit→dequeue wall seconds over `QUEUE_WAIT_BOUNDS`; one observation per dequeued job.
    pub queue_wait_buckets: Vec<(Option<f64>, u64)>,
    /// Admission batch sizes over `BATCH_SIZE_BOUNDS`; all-zero without [`RuntimeConfig::batch_window`](crate::server::RuntimeConfig::batch_window).
    pub batch_size_buckets: Vec<(Option<f64>, u64)>,
    /// Per-pass fetch-phase wall seconds over `REFRESH_PHASE_BOUNDS`; one observation per pass.
    pub refresh_fetch_buckets: Vec<(Option<f64>, u64)>,
    /// Per-pass evaluate-phase wall seconds over `REFRESH_PHASE_BOUNDS`.
    pub refresh_evaluate_buckets: Vec<(Option<f64>, u64)>,
    /// Per-pass commit-phase wall seconds over `REFRESH_PHASE_BOUNDS`.
    pub refresh_commit_buckets: Vec<(Option<f64>, u64)>,
}

impl MetricsSnapshot {
    /// Total submissions shed by admission control (all reasons).
    pub fn shed_total(&self) -> u64 {
        self.counters()
            .filter(|(key, _)| key.starts_with("runtime.server.shed_"))
            .map(|(_, n)| n)
            .sum()
    }
}

/// One header line, one `key value` line per table counter, the shared
/// state's page-cache, sub-result and service-call lines, a line per
/// tenant (when there are several) and per service, then one line per
/// histogram that has observations.
impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "uptime {:.2}s · {:.1} q/s · queue depth {} · plan cache {:.0}% hits",
            self.uptime_seconds,
            self.qps,
            self.queue_depth,
            self.plan_cache_hit_rate * 100.0
        )?;
        for (key, value) in self.counters() {
            write!(f, "\n{key} {value}")?;
        }
        write!(
            f,
            "\npage cache: {} hits / {} misses ({:.0}%) · {} evicted",
            self.page_cache_hits,
            self.page_cache_misses,
            self.page_cache_hit_rate * 100.0,
            self.page_cache_evictions
        )?;
        write!(
            f,
            "\nsub-result store: {} materialized · {} evicted",
            self.sub_results_materialized, self.sub_result_evictions
        )?;
        write!(
            f,
            "\nservice calls: {} total, {:.1}s simulated latency",
            self.total_service_calls, self.total_service_latency
        )?;
        if self.tenants.len() > 1 {
            for t in &self.tenants {
                let budget = t.call_budget.map(|b| format!(" / {b} budget"));
                write!(
                    f,
                    "\n  tenant {:<12} submitted {} · completed {} · failed {} · shed {} · {} calls{}",
                    t.name,
                    t.submitted,
                    t.completed,
                    t.failed,
                    t.shed,
                    t.forwarded_calls,
                    budget.unwrap_or_default()
                )?;
            }
        }
        for (name, n) in &self.per_service_calls {
            let summary = self
                .per_service_latency
                .iter()
                .find(|(l, _)| l == name)
                .map(|(_, s)| *s)
                .unwrap_or_default();
            write!(f, "\n  {name:<12} {n} calls · {summary}")?;
        }
        let service = (
            "service call latency",
            self.service_latency_buckets.as_slice(),
        );
        for (label, buckets) in std::iter::once(service).chain(self.histograms()) {
            if buckets.iter().any(|&(_, n)| n > 0) {
                write_buckets(f, label, buckets)?;
            }
        }
        Ok(())
    }
}

/// Writes one histogram as a `\nlabel: ≤b:n … >last:n` line, skipping
/// empty buckets.
fn write_buckets(
    f: &mut fmt::Formatter<'_>,
    label: &str,
    buckets: &[(Option<f64>, u64)],
) -> fmt::Result {
    write!(f, "\n{label}:")?;
    let last = buckets
        .iter()
        .rev()
        .find_map(|(b, _)| *b)
        .unwrap_or_default();
    for (bound, n) in buckets {
        if *n == 0 {
            continue;
        }
        match bound {
            Some(b) => write!(f, " ≤{b}:{n}")?,
            None => write!(f, " >{last}:{n}")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::server::{QueryServer, RuntimeConfig};
    use mdq_services::domains::news::news_world;

    const NEWS_QUERY: &str = "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
                              lowcost('Milano', City, Price), Price <= 60.0.";

    fn sampled() -> super::MetricsSnapshot {
        let server = QueryServer::from_world(news_world(), RuntimeConfig::default());
        server.submit(NEWS_QUERY, Some(5)).collect().expect("runs");
        server.metrics()
    }

    #[test]
    fn table_keys_are_unique_and_dotted() {
        let m = sampled();
        let mut keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        let n = keys.len();
        assert_eq!(n, 33, "one row per server counter");
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "a key appears in two table rows");
        for key in keys {
            assert!(
                key.split('.').count() >= 2
                    && key
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b == b'.' || b == b'_'),
                "{key} is not a lower-case dotted key"
            );
        }
    }

    #[test]
    fn display_prints_every_key_once_with_its_value() {
        let m = sampled();
        assert_eq!((m.submitted, m.completed), (1, 1));
        let text = m.to_string();
        for (key, value) in m.counters() {
            let lines: Vec<&str> = text
                .lines()
                .filter(|l| l.split(' ').next() == Some(key))
                .collect();
            assert_eq!(lines, [format!("{key} {value}")], "{text}");
        }
        assert!(text.contains("queue wait:"), "{text}");
        assert!(text.contains("service call latency:"), "{text}");
        assert!(text.contains("query wall latency:"), "{text}");
        assert!(
            !text.contains("refresh fetch:"),
            "empty histograms print nothing"
        );
    }

    #[test]
    fn queue_wait_first_bound_is_100_microseconds() {
        // the benchmark's `runtime.server.queue_wait_gt100us_pct` is the
        // share of jobs past this first bucket
        let m = sampled();
        assert_eq!(m.queue_wait_buckets[0].0, Some(1e-4));
        assert_eq!(m.queue_wait_buckets.last().map(|b| b.0), Some(None));
        let waits: u64 = m.queue_wait_buckets.iter().map(|b| b.1).sum();
        assert_eq!(waits, 1, "one observation per dequeued job");
    }
}
