//! # mdq-obs — observability primitives for the execution engine
//!
//! The engine's cost model (§4) prices a plan in request-responses and
//! simulated seconds; the serving layer aggregates both into global
//! counters. What neither surface answers is *where* those calls,
//! retries and re-plans actually happened — which operator, which
//! query, which batch. This crate holds the std-only primitives that
//! close the gap, shared by `mdq-exec`, `mdq-cost` and `mdq-runtime`:
//!
//! * [`recorder`] — a [`TraceRecorder`] of
//!   typed spans ([`span::SpanKind`]), built on the same merge-on-read
//!   pattern as the execution accounting: every traced execution writes
//!   to its own uncontended [`QueryTrace`] cell
//!   and readers merge the cells on demand, so tracing never serializes
//!   the page path;
//! * [`span`] — the span taxonomy (optimize, plan-cache hit/miss,
//!   admission batch, operator batches, service calls, retry/backoff,
//!   re-plan splices, sub-result replays) and the per-operator
//!   [`OperatorStats`] behind EXPLAIN ANALYZE;
//! * [`export`] — JSONL and Chrome `trace_event` JSON export (the
//!   latter loads directly into `chrome://tracing` or Perfetto);
//! * [`histogram`] — fixed-bucket histograms over one bucket rule
//!   ([`histogram::bucket_of`]): the plain [`Histogram`] with count,
//!   sum and max, merged per execution for service-call latency, and
//!   the lock-free [`AtomicHistogram`] behind the server's query
//!   latency, queue-wait, batch-size and refresh-phase histograms.
//!
//! Everything here is wall-clock free by design: spans carry
//! *accounted* seconds (simulated service latency and backoff, or the
//! caller's measured planning time), so a trace of a chaos run is as
//! deterministic as the run itself.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod histogram;
pub mod recorder;
pub mod span;

/// Recovers the guard of a poisoned lock — a copy of
/// `mdq_exec::store::recover`, the engine's one poison policy, kept here
/// because this crate sits below `mdq-exec` and cannot depend on it. No
/// write under this crate's locks can panic half done, so the state a
/// panicking holder leaves is whole, and propagating the poison would
/// only make every later span panic too.
pub(crate) fn recover<T>(result: std::sync::LockResult<T>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use export::{chrome_trace_json, jsonl};
pub use histogram::{AtomicHistogram, Histogram, LatencySummary, SERVICE_LATENCY_BOUNDS};
pub use recorder::{QueryTrace, TraceRecorder};
pub use span::{OperatorStats, SpanKind, TraceEvent};
