//! # mdq-exec — the query-plan execution engine
//!
//! Implements the execution environment assumed by §5 of *Braga et al.,
//! "Optimization of Multi-Domain Queries on the Web", VLDB 2008*:
//! service orchestration, rank-preserving join methods, logical caching
//! and (in virtual time) multi-threaded invocation.
//!
//! The crate is organised around one **batched operator kernel** with a
//! **single service-invocation path**:
//!
//! * [`operator`] — the pull-based, batch-native
//!   [`Operator`](operator::Operator) trait (`next_binding` for
//!   tuple-at-a-time semantics, `next_batch` moving whole
//!   [`Batch`](operator::Batch)es per hop) and the concrete
//!   [`Invoke`](operator::Invoke) / [`Join`](operator::Join) /
//!   `Filter` / `Select` operators, plus `compile_with`, the one
//!   place a plan node is wired;
//! * [`gateway`] — the [`ServiceGateway`](gateway::ServiceGateway):
//!   registry lookup, paging (with batched cached-page runs), per-query
//!   accounting and admission control, handed to an execution's
//!   operators as one `LocalGateway` — over a
//!   [`SharedServiceState`](gateway::SharedServiceState): the client
//!   cache partitioned into independently locked shards, single-flight
//!   and the failed-page memo per shard, a dedicated flow-control lock
//!   for per-service concurrency limits, a separately locked sub-result
//!   store, and merge-on-read accounting (`accounting` cells) —
//!   `Arc`-shared by `mdq-runtime` across concurrent queries — with
//!   per-service [`RetryPolicy`](gateway::RetryPolicy) resilience:
//!   faulted calls are retried with accounted backoff and exhausted
//!   pages degrade into [`PartialResults`](gateway::PartialResults)
//!   instead of failing the query;
//! * [`cache`] — the three §5.1 client cache settings
//!   ([`PageCache`](cache::PageCache));
//! * [`binding`] — variable bindings flowing through operators;
//! * [`joins`] — rank-preserving key-indexed nested-loop and
//!   merge-scan joins, which also run the predicates placed at their
//!   node;
//! * `plan_info` — predicate placement and pattern metadata.
//!
//! One driver runs that kernel, with two entry points, each taking an
//! [`ExecContext`] — the plain value naming the gateway state (private
//! cache setting or cross-query shared state), call budget, tenant,
//! sub-result materialization, frontier recording, elastic paging,
//! batch size and an optional re-planner:
//!
//! * [`TopKExecution::start`](topk::TopKExecution::start) — pull mode:
//!   first-k answers with early halting and "ask for more"
//!   continuation (§2.2); the one the serving layer uses, for ad hoc
//!   and standing queries alike;
//! * [`pipeline::run`] — the same driver in stage mode: each invoke
//!   node forced to exhaustion in node order, with deterministic
//!   virtual time read off the per-node statistics (regenerates
//!   Fig. 11; under [`StageModel::ParallelDispatch`](pipeline::StageModel)
//!   also the §6 multithreading test).
//!
//! [`results`] renders answer tables (Fig. 10).
//!
//! [`adaptive`] closes the estimate→observation loop *mid-flight*: with
//! a re-planner in the context, the driver compares the
//! gateway's observed per-service statistics against the schema
//! estimates at explicit suspension points and, past a configurable
//! divergence, splice in a re-optimized plan suffix — fetched pages
//! replay from the shared cache, so a re-plan never repeats a service
//! call for data it already has. [`pipeline::run`] returns the re-plan
//! trail in its [`ExecReport`](pipeline::ExecReport).
//!
//! `TopKExecution::with_shared_tenant` and `ServiceGateway::with_shared`
//! survive as positional one-expression delegations because the frozen
//! end-to-end benchmark package (`benchmark/`) compiles against them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub(crate) mod accounting;
pub mod adaptive;
pub mod binding;
pub mod cache;
pub mod context;
pub mod gateway;
pub mod joins;
pub mod operator;
pub mod pipeline;
mod plan_info;
pub mod results;
pub mod store;
pub mod topk;

pub use context::ExecContext;

/// Convenient glob-import surface: `use mdq_exec::prelude::*;`.
pub mod prelude {
    pub use crate::adaptive::{AdaptiveConfig, ReplanEvent, ReplanRequest, Replanner};
    pub use crate::binding::Binding;
    pub use crate::cache::{CacheSetting, CacheStats, Page, PageCache, PageLookup};
    pub use crate::context::ExecContext;
    pub use crate::gateway::{
        DegradedService, FaultStats, PageFetch, PageShardStats, PartialResults, RetryPolicy,
        ServiceGateway, SharedServiceState, SubResultStats, TenantId,
    };
    pub use crate::joins::{MsJoin, NlJoin};
    pub use crate::operator::{drain_all, Batch, Invoke, Join, Operator, Source, DEFAULT_BATCH};
    pub use crate::pipeline::{run, ExecConfig, ExecError, ExecReport, StageModel};
    pub use crate::results::result_table;
    pub use crate::topk::TopKExecution;
    pub use mdq_obs::recorder::{QueryTrace, TraceRecorder};
    pub use mdq_obs::span::{OperatorStats, SpanKind, TraceEvent};
    pub use mdq_obs::{chrome_trace_json, jsonl, Histogram, LatencySummary};
}
