//! The client side of a submitted query: a [`QuerySession`] handle
//! streaming answers as the worker produces them.

use mdq_model::value::Tuple;
use std::fmt;
use std::sync::mpsc;

/// One event of a query's answer stream.
#[derive(Clone, Debug)]
pub(crate) enum SessionEvent {
    /// The next answer, projected on the query head, in rank order.
    Answer(Tuple),
    /// The stream ended normally; per-query statistics.
    Done(QueryStats),
    /// The query failed (parse, validation, optimization, execution or
    /// admission control); human-readable reason.
    Failed(String),
}

/// Per-query statistics reported with `SessionEvent::Done`.
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// The tenant the query ran as ([`DEFAULT_TENANT`] for bare
    /// `submit` calls).
    ///
    /// [`DEFAULT_TENANT`]: crate::tenant::DEFAULT_TENANT
    pub tenant: u32,
    /// Whether the plan came from the plan cache (optimizer skipped).
    pub plan_cache_hit: bool,
    /// Request-responses this query forwarded to services (pages served
    /// by the shared cache are free and not counted; faulted attempts
    /// are counted).
    pub forwarded_calls: u64,
    /// Summed simulated latency of the forwarded calls, seconds.
    pub forwarded_latency: f64,
    /// Wall-clock seconds from dequeue to completion.
    pub wall_seconds: f64,
    /// Retries this query issued after faulted service calls. Spans the
    /// whole execution — a retry spent before an adaptive re-plan stays
    /// counted exactly once.
    pub retries: u64,
    /// Service calls of this query that timed out.
    pub timeouts: u64,
    /// Adaptive mid-flight re-plans performed while executing this
    /// query (0 unless the server runs with an
    /// [`AdaptiveConfig`](mdq_cost::divergence::AdaptiveConfig) and the
    /// observations drifted past its threshold).
    pub replans: u32,
    /// Whether the admission batcher saw this query's invoke prefix
    /// overlap another batch member's (or an already-materialized
    /// prefix) at planning time.
    pub shared_prefix_hit: bool,
    /// Materialized invoke prefixes this query replayed from the
    /// sub-result store instead of re-invoking (0 or 1; always 0 with
    /// the store disabled).
    pub sub_result_hits: u64,
    /// Forwarded service calls the replay saved this query — the
    /// materializing cost of the replayed prefix. Reconciles with the
    /// shared gateway state's cumulative accounting.
    pub sub_result_calls_saved: u64,
    /// Names of the services that served this query degraded pages
    /// (empty = the answer stream is complete).
    pub degraded_services: Vec<String>,
    /// The refresh epoch the query executed at (0 until the server's
    /// first refresh pass) — answers reflect the world as of this
    /// epoch.
    pub epoch: u64,
}

impl QueryStats {
    /// Whether the query completed with partial results (at least one
    /// service degraded).
    pub fn is_partial(&self) -> bool {
        !self.degraded_services.is_empty()
    }
}

/// Errors surfaced when collecting a session.
#[derive(Clone, Debug)]
pub enum RuntimeError {
    /// The query failed; human-readable reason from the worker.
    Query(String),
    /// The server shut down before finishing the query.
    Disconnected,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Query(reason) => write!(f, "query failed: {reason}"),
            RuntimeError::Disconnected => write!(f, "server shut down before the query finished"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Everything a completed session produced.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Answers in rank order.
    pub answers: Vec<Tuple>,
    /// Per-query statistics.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Whether the answers are partial (some service degraded; see
    /// [`QueryStats::degraded_services`]).
    pub fn is_partial(&self) -> bool {
        self.stats.is_partial()
    }
}

/// A live query submission: iterate events as the worker streams them,
/// or [`collect`](QuerySession::collect) everything at once.
pub struct QuerySession {
    pub(crate) rx: mpsc::Receiver<SessionEvent>,
}

impl QuerySession {
    /// Blocks for the next event; `None` once the stream is finished
    /// (after `Done`/`Failed`, or if the server dropped the query).
    pub(crate) fn next_event(&self) -> Option<SessionEvent> {
        self.rx.recv().ok()
    }

    /// Drains the stream: every answer plus the final statistics.
    pub fn collect(self) -> Result<QueryResult, RuntimeError> {
        let mut answers = Vec::new();
        loop {
            match self.rx.recv() {
                Ok(SessionEvent::Answer(t)) => answers.push(t),
                Ok(SessionEvent::Done(stats)) => return Ok(QueryResult { answers, stats }),
                Ok(SessionEvent::Failed(reason)) => return Err(RuntimeError::Query(reason)),
                Err(_) => return Err(RuntimeError::Disconnected),
            }
        }
    }
}
