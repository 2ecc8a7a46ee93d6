//! The execution context: everything a driver needs to know about
//! *where* and *on whose behalf* a plan runs, as one plain value.
//!
//! Both entry points of the one driver
//! ([`TopKExecution::start`](crate::topk::TopKExecution::start),
//! [`pipeline::run`](crate::pipeline::run)) take one [`ExecContext`];
//! sharing, tenant attribution, frontier recording and mid-flight
//! re-planning are fields of it, not separate engines.
//! Build one with [`ExecContext::private`] or [`ExecContext::shared`]
//! and set the rest with struct-update syntax:
//!
//! ```
//! # use mdq_exec::{ExecContext, cache::CacheSetting};
//! let ctx = ExecContext {
//!     budget: Some(100),
//!     ..ExecContext::private(CacheSetting::Optimal)
//! };
//! # assert_eq!(ctx.budget, Some(100));
//! ```
//!
//! [`ExecContext::gateway`] (next to
//! [`ServiceGateway`](crate::gateway::ServiceGateway)) is the one place
//! a context becomes a gateway.

use crate::adaptive::{AdaptiveConfig, Replanner};
use crate::cache::CacheSetting;
use crate::gateway::{SharedServiceState, TenantId};
use crate::operator::DEFAULT_BATCH;
use std::sync::Arc;

/// Where and on whose behalf a plan executes.
pub struct ExecContext<'a> {
    /// The gateway state underneath: page cache, sub-result store,
    /// cumulative accounting, trace recorder. Private to one execution
    /// ([`ExecContext::private`] — the paper's one-query-at-a-time
    /// setting) or `Arc`-shared across a workload
    /// ([`ExecContext::shared`]), in which case pages another query
    /// fetched through the same state are hits here.
    pub state: Arc<SharedServiceState>,
    /// Per-query forwarded-call budget; exhaustion poisons the
    /// execution. `None` (or `Some(0)`) is unbounded.
    pub budget: Option<u64>,
    /// The tenant every forwarded call is charged to (its cumulative
    /// budget cell lives in [`state`](Self::state)), and whose
    /// sub-result quota published prefixes count against.
    pub tenant: Option<TenantId>,
    /// Whether the execution eagerly drains and publishes its
    /// unmaterialized invoke prefixes when the state's sub-result store
    /// is enabled. With `false` an already-materialized prefix still
    /// replays (free work is free) but nothing is drained to publish
    /// one — the admission batcher's choice for a prefix nobody else
    /// wants. Stage mode, which never shares sub-results, ignores it.
    pub materialize: bool,
    /// Record the execution's invocation **frontier**: every `(service,
    /// pattern, key)` it demands, cache-served or forwarded — the
    /// dependency set a standing query's refresh pass intersects with
    /// its changed invocations. A recording execution only replays
    /// sub-results that carry a frontier themselves (merged into its
    /// own) and publishes its own with one.
    pub frontier: bool,
    /// Treat the phase-3 fetch factors as a starting hint instead of a
    /// hard page budget: a node keeps paging while downstream demand is
    /// unmet. Elastic streams are demand-driven, so they never share
    /// sub-results. Stage mode, which has no demand to follow, ignores
    /// it.
    pub elastic: bool,
    /// Operator batch size. Batching is semantically invisible —
    /// demand-exact `next_batch` produces the same answers and call
    /// counts at every size — so this exists for the equivalence sweep
    /// and for tuning, not for behaviour.
    pub batch: usize,
    /// Mid-flight re-optimization: stage mode consults the re-planner
    /// after every forced invoke stage, pull mode between answers
    /// (where it also leaves sub-result replay off — a splice
    /// invalidates a replayed prefix).
    pub adaptive: Option<(AdaptiveConfig, &'a mut dyn Replanner)>,
}

impl ExecContext<'_> {
    /// A context over an existing gateway state, with the defaults:
    /// opportunistic sub-result materialization, the default batch
    /// size, everything else off.
    pub fn shared(state: Arc<SharedServiceState>) -> Self {
        ExecContext {
            state,
            budget: None,
            tenant: None,
            materialize: true,
            frontier: false,
            elastic: false,
            batch: DEFAULT_BATCH,
            adaptive: None,
        }
    }

    /// A context over a fresh state private to one execution, under
    /// the given client-cache setting (§5.1).
    pub fn private(cache: CacheSetting) -> Self {
        Self::shared(Arc::new(SharedServiceState::new(cache, 0)))
    }
}
