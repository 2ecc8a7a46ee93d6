//! Server metrics: cheap atomic counters sampled into a
//! [`MetricsSnapshot`].

use crate::tenant::TenantSnapshot;
use mdq_exec::gateway::{PageShardStats, SharedServiceState};
use mdq_model::schema::Schema;
use mdq_obs::LatencySummary;
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

/// Live counters; one instance per server, updated lock-free by the
/// workers.
pub(crate) struct Metrics {
    started: Instant,
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    /// Submissions refused at the front door — shutdown, queue bounds
    /// or tenant budget. Rejections never count as `submitted`, so the
    /// invariant is `submitted == completed + failed + in-flight`.
    pub(crate) rejected: AtomicU64,
    /// Rejections because the global queue was at
    /// [`RuntimeConfig::max_queue_depth`].
    ///
    /// [`RuntimeConfig::max_queue_depth`]: crate::server::RuntimeConfig::max_queue_depth
    pub(crate) shed_queue_full: AtomicU64,
    /// Rejections because the tenant's own queue was at its
    /// [`TenantPolicy::max_queued`] bound.
    ///
    /// [`TenantPolicy::max_queued`]: crate::tenant::TenantPolicy::max_queued
    pub(crate) shed_tenant_queue: AtomicU64,
    /// Rejections because the tenant's cumulative call budget was
    /// already spent at submission time.
    pub(crate) shed_tenant_budget: AtomicU64,
    /// `SUBSCRIBE` registrations refused because the tenant was at its
    /// standing-query cap ([`TenantPolicy::max_subscriptions`], or the
    /// server-wide [`RuntimeConfig::max_subscriptions`] default).
    ///
    /// [`TenantPolicy::max_subscriptions`]: crate::tenant::TenantPolicy::max_subscriptions
    /// [`RuntimeConfig::max_subscriptions`]: crate::server::RuntimeConfig::max_subscriptions
    pub(crate) shed_subscription_cap: AtomicU64,
    /// Jobs whose worker panicked mid-execution; the session fails,
    /// the worker survives.
    pub(crate) worker_panics: AtomicU64,
    /// Submissions refused from the failed-plan memo (the template
    /// already failed to optimize; the optimizer is not re-run).
    pub(crate) plan_failed_memo_hits: AtomicU64,
    /// High-water mark of the admission queue depth.
    pub(crate) peak_queue_depth: AtomicU64,
    /// Network connections accepted by the serving edge (0 without a
    /// [`NetServer`](crate::net::NetServer)).
    pub(crate) connections: AtomicU64,
    pub(crate) plan_cache_hits: AtomicU64,
    pub(crate) plan_cache_misses: AtomicU64,
    pub(crate) optimizer_invocations: AtomicU64,
    /// Queries that completed with at least one degraded service.
    pub(crate) partial_completions: AtomicU64,
    /// Retries issued by workers after faulted service calls,
    /// attributed per query as it finishes — reconciles with the shared
    /// gateway state's cumulative [`FaultStats`].
    ///
    /// [`FaultStats`]: mdq_exec::gateway::FaultStats
    pub(crate) retries: AtomicU64,
    /// Service calls that timed out, attributed per query.
    pub(crate) timeouts: AtomicU64,
    /// Service calls that were throttled, attributed per query.
    pub(crate) rate_limited: AtomicU64,
    /// Adaptive mid-flight re-plans, attributed per query as it
    /// finishes — reconciles with the summed
    /// [`QueryStats::replans`](crate::session::QueryStats::replans).
    pub(crate) replans: AtomicU64,
    /// Batch members whose invoke prefix overlapped another member's
    /// (or an already-materialized prefix) at admission-planning time.
    pub(crate) shared_prefix_hits: AtomicU64,
    /// Materialized prefixes replayed, attributed per query —
    /// reconciles with the sub-result store's cumulative hits.
    pub(crate) sub_result_hits: AtomicU64,
    /// Forwarded calls saved by those replays, attributed per query —
    /// reconciles with the store's cumulative `calls_saved`.
    pub(crate) sub_result_calls_saved: AtomicU64,
    /// Live standing-query subscriptions (gauge, maintained by
    /// subscribe/unsubscribe).
    pub(crate) subscriptions_active: AtomicU64,
    /// Refresh passes run over the tracked invocation frontier.
    pub(crate) refresh_passes: AtomicU64,
    /// Request-response attempts issued by refresh passes (retries
    /// included) — reconciles with the summed
    /// [`RefreshSummary::calls`](crate::subscribe::RefreshSummary::calls).
    pub(crate) refresh_calls: AtomicU64,
    /// Invocations whose refresh exhausted its retries (stale pages
    /// kept) plus standing re-evaluations that errored.
    pub(crate) refresh_failures: AtomicU64,
    /// Tracked invocations re-fetched by refresh passes.
    pub(crate) invocations_refreshed: AtomicU64,
    /// Refreshed invocations whose page sets changed.
    pub(crate) invocations_changed: AtomicU64,
    /// Materialized sub-result entries that survived refresh-pass
    /// retention (summed across passes) — work the next evaluations
    /// can replay instead of re-materializing.
    pub(crate) sub_results_retained: AtomicU64,
    /// Deltas queued to standing-query subscribers — reconciles with
    /// the summed
    /// [`RefreshSummary::deltas_emitted`](crate::subscribe::RefreshSummary::deltas_emitted).
    pub(crate) deltas_emitted: AtomicU64,
    /// Answer rows added across all emitted deltas.
    pub(crate) delta_rows_added: AtomicU64,
    /// Answer rows retracted across all emitted deltas.
    pub(crate) delta_rows_retracted: AtomicU64,
    /// `LATENCY_BOUNDS.len() + 1` buckets (last = overflow).
    latency_buckets: [AtomicU64; LATENCY_BOUNDS.len() + 1],
    /// Submit→dequeue wall-seconds buckets (last = overflow).
    queue_wait_buckets: [AtomicU64; QUEUE_WAIT_BOUNDS.len() + 1],
    /// Admission batch-size buckets (last = overflow); only the
    /// batcher records here, so it stays all-zero without batching.
    batch_size_buckets: [AtomicU64; BATCH_SIZE_BOUNDS.len() + 1],
    /// Per-pass fetch-phase wall-seconds buckets (last = overflow).
    refresh_fetch_buckets: [AtomicU64; REFRESH_PHASE_BOUNDS.len() + 1],
    /// Per-pass evaluate-phase wall-seconds buckets (last = overflow).
    refresh_evaluate_buckets: [AtomicU64; REFRESH_PHASE_BOUNDS.len() + 1],
    /// Per-pass commit-phase wall-seconds buckets (last = overflow).
    refresh_commit_buckets: [AtomicU64; REFRESH_PHASE_BOUNDS.len() + 1],
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_tenant_queue: AtomicU64::new(0),
            shed_tenant_budget: AtomicU64::new(0),
            shed_subscription_cap: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            plan_failed_memo_hits: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            optimizer_invocations: AtomicU64::new(0),
            partial_completions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            shared_prefix_hits: AtomicU64::new(0),
            sub_result_hits: AtomicU64::new(0),
            sub_result_calls_saved: AtomicU64::new(0),
            subscriptions_active: AtomicU64::new(0),
            refresh_passes: AtomicU64::new(0),
            refresh_calls: AtomicU64::new(0),
            refresh_failures: AtomicU64::new(0),
            invocations_refreshed: AtomicU64::new(0),
            invocations_changed: AtomicU64::new(0),
            sub_results_retained: AtomicU64::new(0),
            deltas_emitted: AtomicU64::new(0),
            delta_rows_added: AtomicU64::new(0),
            delta_rows_retracted: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_wait_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_size_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            refresh_fetch_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            refresh_evaluate_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            refresh_commit_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Attributes one finished query's fault accounting (its gateway's
    /// summed [`FaultStats`]) to the server counters.
    ///
    /// [`FaultStats`]: mdq_exec::gateway::FaultStats
    pub(crate) fn observe_faults(&self, faults: &mdq_exec::gateway::FaultStats, partial: bool) {
        self.retries.fetch_add(faults.retries, Ordering::Relaxed);
        self.timeouts.fetch_add(faults.timeouts, Ordering::Relaxed);
        self.rate_limited
            .fetch_add(faults.rate_limited, Ordering::Relaxed);
        if partial {
            self.partial_completions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one completed query's wall latency.
    pub(crate) fn observe_latency(&self, seconds: f64) {
        let idx = LATENCY_BOUNDS
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(LATENCY_BOUNDS.len());
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one job's submit→dequeue wall wait.
    pub(crate) fn observe_queue_wait(&self, seconds: f64) {
        let idx = QUEUE_WAIT_BOUNDS
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(QUEUE_WAIT_BOUNDS.len());
        self.queue_wait_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Tracks the admission queue's high-water mark after a push.
    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        self.peak_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Records one admission batch's member count.
    pub(crate) fn observe_batch_size(&self, members: usize) {
        let idx = BATCH_SIZE_BOUNDS
            .iter()
            .position(|&b| members as f64 <= b)
            .unwrap_or(BATCH_SIZE_BOUNDS.len());
        self.batch_size_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one refresh pass's fetch-phase wall seconds.
    pub(crate) fn observe_refresh_fetch(&self, seconds: f64) {
        self.refresh_fetch_buckets[refresh_phase_bucket(seconds)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one refresh pass's evaluate-phase wall seconds.
    pub(crate) fn observe_refresh_evaluate(&self, seconds: f64) {
        self.refresh_evaluate_buckets[refresh_phase_bucket(seconds)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one refresh pass's commit-phase wall seconds.
    pub(crate) fn observe_refresh_commit(&self, seconds: f64) {
        self.refresh_commit_buckets[refresh_phase_bucket(seconds)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples every counter plus the shared gateway state into a
    /// consistent-enough snapshot (the server's own counters are
    /// relaxed; exactness across *them* is not guaranteed mid-flight).
    /// Everything read off the gateway's call ledger — service calls
    /// and latency, total and per service, the latency histogram, page
    /// hit/miss — comes from **one** merged snapshot, so
    /// `total_service_calls == Σ per_service_calls` and
    /// `total_service_latency == Σ per_service_latency.total` hold for
    /// every sample, mid-flight included.
    pub(crate) fn snapshot(
        &self,
        shared: &SharedServiceState,
        schema: &Schema,
        queue_depth: usize,
        tenants: Vec<TenantSnapshot>,
    ) -> MetricsSnapshot {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let completed = self.completed.load(Ordering::Relaxed);
        let plan_hits = self.plan_cache_hits.load(Ordering::Relaxed);
        let plan_misses = self.plan_cache_misses.load(Ordering::Relaxed);
        let ledger = shared.ledger();
        let page = ledger.total_cache_stats();
        let mut per_service: Vec<(String, u64)> = ledger
            .calls()
            .iter()
            .map(|(id, n)| (schema.service(*id).name.to_string(), *n))
            .collect();
        per_service.sort();
        let mut per_service_latency: Vec<(String, LatencySummary)> = ledger
            .latency_summaries()
            .map(|(id, s)| (schema.service(id).name.to_string(), s))
            .collect();
        per_service_latency.sort_by(|a, b| a.0.cmp(&b.0));
        let sub = shared.sub_result_stats();
        let bucketize = |bounds: &'static [f64], counters: &[AtomicU64]| {
            bounds
                .iter()
                .copied()
                .map(Some)
                .chain(std::iter::once(None))
                .zip(counters.iter().map(|b| b.load(Ordering::Relaxed)))
                .collect::<Vec<(Option<f64>, u64)>>()
        };
        MetricsSnapshot {
            uptime_seconds: uptime,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_tenant_queue: self.shed_tenant_queue.load(Ordering::Relaxed),
            shed_tenant_budget: self.shed_tenant_budget.load(Ordering::Relaxed),
            shed_subscription_cap: self.shed_subscription_cap.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            plan_failed_memo_hits: self.plan_failed_memo_hits.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            tenants,
            qps: completed as f64 / uptime,
            plan_cache_hits: plan_hits,
            plan_cache_misses: plan_misses,
            plan_cache_hit_rate: rate(plan_hits, plan_misses),
            optimizer_invocations: self.optimizer_invocations.load(Ordering::Relaxed),
            partial_completions: self.partial_completions.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            replans: self.replans.load(Ordering::Relaxed),
            page_cache_hits: page.hits,
            page_cache_misses: page.misses,
            page_cache_hit_rate: rate(page.hits, page.misses),
            page_cache_evictions: shared.page_cache_evictions(),
            shared_prefix_hits: self.shared_prefix_hits.load(Ordering::Relaxed),
            sub_result_hits: self.sub_result_hits.load(Ordering::Relaxed),
            sub_result_calls_saved: self.sub_result_calls_saved.load(Ordering::Relaxed),
            subscriptions_active: self.subscriptions_active.load(Ordering::Relaxed),
            refresh_passes: self.refresh_passes.load(Ordering::Relaxed),
            refresh_calls: self.refresh_calls.load(Ordering::Relaxed),
            refresh_failures: self.refresh_failures.load(Ordering::Relaxed),
            invocations_refreshed: self.invocations_refreshed.load(Ordering::Relaxed),
            invocations_changed: self.invocations_changed.load(Ordering::Relaxed),
            sub_results_retained: self.sub_results_retained.load(Ordering::Relaxed),
            deltas_emitted: self.deltas_emitted.load(Ordering::Relaxed),
            delta_rows_added: self.delta_rows_added.load(Ordering::Relaxed),
            delta_rows_retracted: self.delta_rows_retracted.load(Ordering::Relaxed),
            sub_results_materialized: sub.entries,
            sub_result_evictions: sub.evictions,
            total_service_calls: ledger.total_calls(),
            total_service_latency: ledger.total_latency(),
            per_service_calls: per_service,
            per_service_latency,
            service_latency_buckets: ledger.latency_histogram().buckets().collect(),
            page_cache_shards: shared.page_shard_stats(),
            latency_buckets: bucketize(&LATENCY_BOUNDS, &self.latency_buckets),
            queue_wait_buckets: bucketize(&QUEUE_WAIT_BOUNDS, &self.queue_wait_buckets),
            batch_size_buckets: bucketize(&BATCH_SIZE_BOUNDS, &self.batch_size_buckets),
            refresh_fetch_buckets: bucketize(&REFRESH_PHASE_BOUNDS, &self.refresh_fetch_buckets),
            refresh_evaluate_buckets: bucketize(
                &REFRESH_PHASE_BOUNDS,
                &self.refresh_evaluate_buckets,
            ),
            refresh_commit_buckets: bucketize(&REFRESH_PHASE_BOUNDS, &self.refresh_commit_buckets),
        }
    }
}

/// Maps a refresh-phase duration onto its [`REFRESH_PHASE_BOUNDS`]
/// bucket index (overflow = `len`).
fn refresh_phase_bucket(seconds: f64) -> usize {
    REFRESH_PHASE_BOUNDS
        .iter()
        .position(|&b| seconds <= b)
        .unwrap_or(REFRESH_PHASE_BOUNDS.len())
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
    /// Submissions refused at the front door — shutdown, admission
    /// queue bounds or a spent tenant budget. Rejections are *not*
    /// counted as `submitted`: `submitted == completed + failed +
    /// in-flight` holds at all times.
    pub rejected: u64,
    /// Rejections because the global admission queue was at
    /// [`RuntimeConfig::max_queue_depth`].
    ///
    /// [`RuntimeConfig::max_queue_depth`]: crate::server::RuntimeConfig::max_queue_depth
    pub shed_queue_full: u64,
    /// Rejections because the tenant's own queue was at its
    /// [`TenantPolicy::max_queued`] bound.
    ///
    /// [`TenantPolicy::max_queued`]: crate::tenant::TenantPolicy::max_queued
    pub shed_tenant_queue: u64,
    /// Rejections because the tenant's cumulative call budget was
    /// spent at submission time.
    pub shed_tenant_budget: u64,
    /// `SUBSCRIBE` registrations refused because the tenant was at its
    /// standing-query cap ([`TenantPolicy::max_subscriptions`], or the
    /// server-wide [`RuntimeConfig::max_subscriptions`] default).
    ///
    /// [`TenantPolicy::max_subscriptions`]: crate::tenant::TenantPolicy::max_subscriptions
    /// [`RuntimeConfig::max_subscriptions`]: crate::server::RuntimeConfig::max_subscriptions
    pub shed_subscription_cap: u64,
    /// Jobs whose worker panicked mid-execution (the session failed,
    /// the worker recovered).
    pub worker_panics: u64,
    /// Submissions refused from the failed-plan memo without re-running
    /// the optimizer.
    pub plan_failed_memo_hits: u64,
    /// Jobs in the admission queue at sampling time.
    pub queue_depth: u64,
    /// High-water mark of the admission queue depth.
    pub peak_queue_depth: u64,
    /// Network connections accepted by the serving edge (0 without a
    /// [`NetServer`](crate::net::NetServer)).
    pub connections: u64,
    /// Per-tenant serving counters, in tenant-id order (just the
    /// default tenant unless tenants were registered).
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
    /// Queries that completed with at least one degraded service
    /// (partial answer streams).
    pub partial_completions: u64,
    /// Retries issued after faulted service calls, whole workload.
    pub retries: u64,
    /// Service calls that timed out, whole workload.
    pub timeouts: u64,
    /// Service calls that were throttled, whole workload.
    pub rate_limited: u64,
    /// Adaptive mid-flight re-plans, whole workload (0 with adaptivity
    /// disabled).
    pub replans: u64,
    /// Invocation-level page-cache hits across the shared state.
    pub page_cache_hits: u64,
    /// Invocation-level page-cache misses across the shared state.
    pub page_cache_misses: u64,
    /// `hits / (hits + misses)`; 0 when nothing was invoked.
    pub page_cache_hit_rate: f64,
    /// Page-cache invocation entries dropped by the configured capacity
    /// bound ([`RuntimeConfig::page_cache_entries`]).
    ///
    /// [`RuntimeConfig::page_cache_entries`]: crate::server::RuntimeConfig::page_cache_entries
    pub page_cache_evictions: u64,
    /// Queries whose invoke prefix the admission batcher saw overlap
    /// another batch member's (or already-materialized work) at
    /// planning time.
    pub shared_prefix_hits: u64,
    /// Materialized prefixes replayed from the sub-result store,
    /// attributed per query — reconciles with the store's cumulative
    /// hit count.
    pub sub_result_hits: u64,
    /// Forwarded service calls those replays saved (the materializing
    /// cost of each replayed prefix).
    pub sub_result_calls_saved: u64,
    /// Live standing-query subscriptions at sampling time.
    pub subscriptions_active: u64,
    /// Refresh passes run over the tracked invocation frontier.
    pub refresh_passes: u64,
    /// Request-response attempts issued by refresh passes (retries
    /// included) — reconciles with the summed per-pass
    /// [`RefreshSummary::calls`](crate::subscribe::RefreshSummary::calls).
    pub refresh_calls: u64,
    /// Invocations whose refresh exhausted its retries (stale pages
    /// kept and served) plus standing re-evaluations that errored.
    pub refresh_failures: u64,
    /// Tracked invocations re-fetched by refresh passes.
    pub invocations_refreshed: u64,
    /// Refreshed invocations whose page sets changed.
    pub invocations_changed: u64,
    /// Materialized sub-result entries that survived refresh-pass
    /// retention, summed across passes — sharing the store carries
    /// forward instead of re-materializing each epoch.
    pub sub_results_retained: u64,
    /// Deltas queued to standing-query subscribers.
    pub deltas_emitted: u64,
    /// Answer rows added across all emitted deltas.
    pub delta_rows_added: u64,
    /// Answer rows retracted across all emitted deltas.
    pub delta_rows_retracted: u64,
    /// Invoke prefixes currently materialized in the sub-result store.
    pub sub_results_materialized: u64,
    /// Materialized prefixes dropped by the store's LRU bound
    /// ([`RuntimeConfig::sub_results`]).
    ///
    /// [`RuntimeConfig::sub_results`]: crate::server::RuntimeConfig::sub_results
    pub sub_result_evictions: u64,
    /// Request-responses forwarded to services, whole workload.
    pub total_service_calls: u64,
    /// Summed simulated latency of all forwarded calls, seconds.
    pub total_service_latency: f64,
    /// Forwarded calls per service, sorted by name.
    pub per_service_calls: Vec<(String, u64)>,
    /// Per-attempt simulated latency per service, sorted by name, as
    /// count + mean + max over the exact total —
    /// `Σ totals == total_service_latency` exactly (the summaries
    /// derive from histograms fed at the same gateway sites the total
    /// accumulates at).
    pub per_service_latency: Vec<(String, LatencySummary)>,
    /// Per-attempt simulated service latency across every service:
    /// `(upper bound in seconds — `None` for the overflow bucket — ,
    /// count)`, over [`SERVICE_LATENCY_BOUNDS`].
    ///
    /// [`SERVICE_LATENCY_BOUNDS`]: mdq_obs::SERVICE_LATENCY_BOUNDS
    pub service_latency_buckets: Vec<(Option<f64>, u64)>,
    /// Occupancy, eviction and failed-page counters of every page
    /// shard, in shard order — shard skew made visible.
    pub page_cache_shards: Vec<PageShardStats>,
    /// Per-query wall-latency histogram: `(upper bound in seconds —
    /// `None` for the overflow bucket — , count)`.
    pub latency_buckets: Vec<(Option<f64>, u64)>,
    /// Submit→dequeue wall-wait histogram over `QUEUE_WAIT_BOUNDS`
    /// (same `(bound, count)` shape).
    pub queue_wait_buckets: Vec<(Option<f64>, u64)>,
    /// Admission batch-size histogram over `BATCH_SIZE_BOUNDS` —
    /// all-zero unless the server batches admissions
    /// ([`RuntimeConfig::batch_window`]).
    ///
    /// [`RuntimeConfig::batch_window`]: crate::server::RuntimeConfig::batch_window
    pub batch_size_buckets: Vec<(Option<f64>, u64)>,
    /// Per-pass fetch-phase wall-seconds histogram over
    /// `REFRESH_PHASE_BOUNDS` — one observation per refresh pass.
    pub refresh_fetch_buckets: Vec<(Option<f64>, u64)>,
    /// Per-pass evaluate-phase wall-seconds histogram over
    /// `REFRESH_PHASE_BOUNDS`.
    pub refresh_evaluate_buckets: Vec<(Option<f64>, u64)>,
    /// Per-pass commit-phase wall-seconds histogram over
    /// `REFRESH_PHASE_BOUNDS`.
    pub refresh_commit_buckets: Vec<(Option<f64>, u64)>,
}

impl MetricsSnapshot {
    /// Total submissions shed by admission control (all reasons).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            + self.shed_tenant_queue
            + self.shed_tenant_budget
            + self.shed_subscription_cap
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "uptime {:.2}s · submitted {} · completed {} · failed {} · {:.1} q/s",
            self.uptime_seconds, self.submitted, self.completed, self.failed, self.qps
        )?;
        if self.rejected > 0 || self.connections > 0 || self.peak_queue_depth > 0 {
            writeln!(
                f,
                "serving edge: {} connections · {} rejected ({} queue-full · {} tenant-queue · {} tenant-budget) · queue depth {} (peak {}) · {} worker panics",
                self.connections,
                self.rejected,
                self.shed_queue_full,
                self.shed_tenant_queue,
                self.shed_tenant_budget,
                self.queue_depth,
                self.peak_queue_depth,
                self.worker_panics
            )?;
        }
        if self.tenants.len() > 1 {
            for t in &self.tenants {
                writeln!(
                    f,
                    "  tenant {:<12} submitted {} · completed {} · failed {} · shed {} · {} calls{}",
                    t.name,
                    t.submitted,
                    t.completed,
                    t.failed,
                    t.shed,
                    t.forwarded_calls,
                    match t.call_budget {
                        Some(b) => format!(" / {b} budget"),
                        None => String::new(),
                    }
                )?;
            }
        }
        writeln!(
            f,
            "plan cache: {} hits / {} misses ({:.0}%) · optimizer ran {}×",
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_hit_rate * 100.0,
            self.optimizer_invocations
        )?;
        writeln!(
            f,
            "page cache: {} hits / {} misses ({:.0}%)",
            self.page_cache_hits,
            self.page_cache_misses,
            self.page_cache_hit_rate * 100.0
        )?;
        writeln!(
            f,
            "service calls: {} total, {:.1}s simulated latency",
            self.total_service_calls, self.total_service_latency
        )?;
        writeln!(
            f,
            "faults: {} retries · {} timeouts · {} rate-limited · {} partial completions",
            self.retries, self.timeouts, self.rate_limited, self.partial_completions
        )?;
        writeln!(f, "adaptive: {} re-plans", self.replans)?;
        writeln!(
            f,
            "mqo: {} shared-prefix admissions · {} sub-result replays saving {} calls · {} materialized ({} evicted, page cache {} evicted)",
            self.shared_prefix_hits,
            self.sub_result_hits,
            self.sub_result_calls_saved,
            self.sub_results_materialized,
            self.sub_result_evictions,
            self.page_cache_evictions
        )?;
        if self.refresh_passes > 0 || self.subscriptions_active > 0 {
            writeln!(
                f,
                "standing: {} subscriptions · {} refresh passes ({} calls, {} failed) · {} invocations refreshed / {} changed · {} deltas (+{} / −{} rows) · {} sub-results retained",
                self.subscriptions_active,
                self.refresh_passes,
                self.refresh_calls,
                self.refresh_failures,
                self.invocations_refreshed,
                self.invocations_changed,
                self.deltas_emitted,
                self.delta_rows_added,
                self.delta_rows_retracted,
                self.sub_results_retained
            )?;
            write_buckets(f, "  refresh fetch:", &self.refresh_fetch_buckets)?;
            writeln!(f)?;
            write_buckets(f, "  refresh evaluate:", &self.refresh_evaluate_buckets)?;
            writeln!(f)?;
            write_buckets(f, "  refresh commit:", &self.refresh_commit_buckets)?;
            writeln!(f)?;
        }
        for (name, n) in &self.per_service_calls {
            let summary = self
                .per_service_latency
                .iter()
                .find(|(l, _)| l == name)
                .map(|(_, s)| *s)
                .unwrap_or_default();
            writeln!(f, "  {name:<12} {n} calls · {summary}")?;
        }
        write_buckets(f, "query wall latency:", &self.latency_buckets)?;
        writeln!(f)?;
        write_buckets(f, "service call latency:", &self.service_latency_buckets)?;
        writeln!(f)?;
        write_buckets(f, "queue wait:", &self.queue_wait_buckets)?;
        if self.batch_size_buckets.iter().any(|(_, n)| *n > 0) {
            writeln!(f)?;
            write_buckets(f, "admission batch size:", &self.batch_size_buckets)?;
        }
        Ok(())
    }
}

/// Writes one histogram as a `label ≤b:n … >last:n` line, skipping
/// empty buckets.
fn write_buckets(
    f: &mut fmt::Formatter<'_>,
    label: &str,
    buckets: &[(Option<f64>, u64)],
) -> fmt::Result {
    write!(f, "{label}")?;
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
