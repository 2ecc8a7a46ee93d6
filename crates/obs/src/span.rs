//! The span taxonomy and the per-operator runtime statistics behind
//! EXPLAIN ANALYZE.
//!
//! Every traced occurrence in the engine is one [`TraceEvent`]: a typed
//! [`SpanKind`] on a *track* (track 0 is the server's control plane —
//! optimize, plan-cache, admission batching; every traced execution
//! gets its own track), positioned on that track's accounted-seconds
//! timeline. Durations are **accounted**, not wall-clock: a service
//! call's span is as long as its simulated latency (backoff included),
//! a control-plane span as long as the caller measured — so a trace of
//! a deterministic chaos run is itself deterministic, and span-summed
//! counts reconcile exactly with the accounting cells.

/// What one traced span/event records. Counting contracts (pinned by
/// the trace-completeness suite): every *forwarded* request-response is
/// exactly one [`ServiceCall`](SpanKind::ServiceCall), every retry
/// exactly one [`Retry`](SpanKind::Retry), every mid-flight plan splice
/// exactly one [`Replan`](SpanKind::Replan), every sub-result replay
/// exactly one [`SubResultReplay`](SpanKind::SubResultReplay).
#[derive(Clone, Debug, PartialEq)]
pub enum SpanKind {
    /// One optimizer run (branch-and-bound); duration is the measured
    /// planning wall time.
    Optimize,
    /// The plan cache served a fingerprint without optimizing.
    PlanCacheHit {
        /// The query fingerprint that hit.
        fingerprint: u64,
    },
    /// The plan cache missed and the optimizer was invoked.
    PlanCacheMiss {
        /// The query fingerprint that missed.
        fingerprint: u64,
    },
    /// The admission batcher released one batch.
    AdmissionBatch {
        /// Queries in the batch.
        members: u64,
        /// Members whose invoke prefix overlapped another member's (or
        /// already-materialized work) at admission-planning time.
        shared_prefix_hits: u64,
    },
    /// Start of one traced execution; correlates the track with the
    /// query it runs.
    QueryStart {
        /// The query's plan-cache fingerprint.
        fingerprint: u64,
    },
    /// One `next_batch` hop out of an operator.
    OperatorBatch {
        /// Plan node index.
        node: u64,
        /// Bindings the hop produced.
        rows: u64,
    },
    /// One forwarded request-response (successful or faulted attempt);
    /// duration is the attempt's simulated latency.
    ServiceCall {
        /// Service name.
        service: String,
        /// Page number requested.
        page: u64,
        /// Tuples returned (0 on a fault).
        tuples: u64,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// One retry issued after a faulted attempt; duration is the
    /// accounted backoff.
    Retry {
        /// Service name.
        service: String,
    },
    /// A run of pages served from the shared page cache (no
    /// forwarding).
    CachedPages {
        /// Service name.
        service: String,
        /// Pages served in the run.
        pages: u64,
    },
    /// A page served degraded from the failed-page memo.
    DegradedPage {
        /// Service name.
        service: String,
    },
    /// One adaptive mid-flight plan splice.
    Replan {
        /// Names of the diverging services, comma-separated.
        services: String,
        /// The worst symmetric divergence ratio that triggered it.
        worst_ratio: f64,
    },
    /// A materialized invoke prefix replayed from the sub-result store.
    SubResultReplay {
        /// Chain level (1-based) the prefix covers.
        level: u64,
        /// Bindings replayed.
        rows: u64,
        /// Forwarded calls the publisher spent producing them.
        calls_saved: u64,
    },
    /// This execution published a materialized invoke prefix.
    SubResultMaterialize {
        /// Chain level (1-based) published.
        level: u64,
        /// Bindings materialized.
        rows: u64,
    },
    /// End of one traced execution.
    QueryDone {
        /// Answers delivered.
        answers: u64,
    },
    /// Lifetime of one accepted network connection on the serving
    /// edge; duration is the measured wall time the connection stayed
    /// open.
    Connection {
        /// The peer address, as reported at accept time.
        peer: String,
        /// Queries the connection submitted.
        queries: u64,
    },
    /// The serving edge refused a submission (admission control).
    Shed {
        /// The tenant whose submission was refused.
        tenant: u64,
        /// Why: `queue_full`, `tenant_queue_full` or `tenant_budget`.
        reason: &'static str,
        /// The retry-after hint handed to the client, in milliseconds.
        retry_after_ms: u64,
    },
    /// The server entered graceful drain; duration is the measured
    /// wall time until the last in-flight session completed.
    Drain {
        /// Sessions still in flight when the drain began.
        in_flight: u64,
    },
    /// One standing-query refresh pass over the tracked invocation
    /// frontier; duration is the measured wall time of the pass.
    Refresh {
        /// The epoch the pass brought due invocations to.
        epoch: u64,
        /// Invocations re-fetched.
        refreshed: u64,
        /// Invocations whose page sets changed.
        changed: u64,
        /// Request-response attempts the pass issued (retries
        /// included).
        calls: u64,
    },
    /// One phase of a refresh pass (`snapshot`-relative timing is
    /// implicit in the pass span; the phases recorded are `fetch`,
    /// `evaluate` and `commit`); duration is the phase's measured wall
    /// time.
    RefreshPhase {
        /// The epoch the enclosing pass ran at.
        epoch: u64,
        /// Which pipeline phase: `fetch`, `evaluate` or `commit`.
        phase: &'static str,
        /// Work items the phase processed — due invocations for
        /// `fetch`, affected subscriptions for `evaluate` and
        /// `commit`.
        items: u64,
    },
    /// One subscription's delta emission after a refresh pass.
    DeltaEmit {
        /// The subscription the delta belongs to.
        subscription: u64,
        /// Answer rows added at this epoch.
        added: u64,
        /// Answer rows retracted at this epoch.
        retracted: u64,
    },
}

impl SpanKind {
    /// The span's display name (the `name` field of a Chrome trace
    /// event).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Optimize => "optimize",
            SpanKind::PlanCacheHit { .. } => "plan_cache_hit",
            SpanKind::PlanCacheMiss { .. } => "plan_cache_miss",
            SpanKind::AdmissionBatch { .. } => "admission_batch",
            SpanKind::QueryStart { .. } => "query_start",
            SpanKind::OperatorBatch { .. } => "operator_batch",
            SpanKind::ServiceCall { .. } => "service_call",
            SpanKind::Retry { .. } => "retry",
            SpanKind::CachedPages { .. } => "cached_pages",
            SpanKind::DegradedPage { .. } => "degraded_page",
            SpanKind::Replan { .. } => "replan",
            SpanKind::SubResultReplay { .. } => "sub_result_replay",
            SpanKind::SubResultMaterialize { .. } => "sub_result_materialize",
            SpanKind::QueryDone { .. } => "query_done",
            SpanKind::Connection { .. } => "connection",
            SpanKind::Shed { .. } => "shed",
            SpanKind::Drain { .. } => "drain",
            SpanKind::Refresh { .. } => "refresh",
            SpanKind::RefreshPhase { .. } => "refresh_phase",
            SpanKind::DeltaEmit { .. } => "delta_emit",
        }
    }

    /// The span's category (the `cat` field of a Chrome trace event):
    /// `control` for planning/admission work, `serving` for the
    /// network edge (connections, shedding, drain), `exec` for operator
    /// and gateway work.
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Optimize
            | SpanKind::PlanCacheHit { .. }
            | SpanKind::PlanCacheMiss { .. }
            | SpanKind::AdmissionBatch { .. }
            | SpanKind::Refresh { .. }
            | SpanKind::RefreshPhase { .. } => "control",
            SpanKind::Connection { .. }
            | SpanKind::Shed { .. }
            | SpanKind::Drain { .. }
            | SpanKind::DeltaEmit { .. } => "serving",
            _ => "exec",
        }
    }
}

/// One recorded span/event on a track's accounted timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global record order across every track (merge key).
    pub seq: u64,
    /// Track id: 0 is the control plane, every traced execution gets
    /// its own.
    pub track: u64,
    /// Accounted seconds into the track when the span starts.
    pub start: f64,
    /// Accounted seconds the span covers (0 = instant event).
    pub dur: f64,
    /// What happened.
    pub kind: SpanKind,
}

/// Runtime statistics of one plan-node operator — the observed side of
/// EXPLAIN ANALYZE, collected by every driver and reconciling with the
/// gateway accounting (calls/retries here sum to the execution's
/// totals).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OperatorStats {
    /// Bindings produced by the node's input operators (derived from
    /// the plan topology: the sum of the inputs' `rows_out`).
    pub rows_in: u64,
    /// Bindings this node produced (post-filter).
    pub rows_out: u64,
    /// Batched hops out of this node (`next_batch` calls).
    pub batches: u64,
    /// Candidate pairs a join node verified against its key and
    /// predicates — the key-equal pairs its bound skip did not rule out
    /// (0 on every other node).
    pub candidates: u64,
    /// Request-responses this node's invocations forwarded (faulted
    /// attempts included).
    pub calls: u64,
    /// Pages served to this node from the shared page cache.
    pub cached_pages: u64,
    /// Bindings replayed into this node from the sub-result store.
    pub sub_result_rows: u64,
    /// Retries issued for this node's pages.
    pub retries: u64,
    /// Simulated seconds this node's forwarded calls consumed (attempt
    /// latencies plus accounted backoff).
    pub sim_seconds: f64,
    /// The seconds an invoke node's inputs forwarded, summed input by
    /// input in input order: its busy time running one call at a time.
    pub input_seconds: f64,
    /// The most seconds any one input of an invoke node forwarded.
    pub slowest_input: f64,
}

impl OperatorStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &OperatorStats) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.candidates += other.candidates;
        self.calls += other.calls;
        self.cached_pages += other.cached_pages;
        self.sub_result_rows += other.sub_result_rows;
        self.retries += other.retries;
        self.sim_seconds += other.sim_seconds;
        self.input_seconds += other.input_seconds;
        self.slowest_input = self.slowest_input.max(other.slowest_input);
    }
}
