//! # mdq-runtime — the concurrent multi-query serving layer
//!
//! The paper optimizes and executes one multi-domain query at a time;
//! this crate is the layer a production deployment puts in front of
//! that machinery, following the multi-query optimization line of
//! *Roy et al., "Efficient and Extensible Algorithms for Multi Query
//! Optimization"*: amortize optimization and service calls *across*
//! concurrent queries.
//!
//! ```text
//!  TCP clients ──► [net::NetServer] ─┐  (newline-framed wire
//!                  (tenant handshake,│   protocol, streaming
//!                   shed/drain frames)│  answer frames)
//!                                    ▼
//!  submit() / try_submit(tenant) ──► [tenant scheduler] ──► …
//!               (per-tenant FIFOs drained round-robin; global
//!                depth bound + per-tenant queue/budget policies
//!                shed excess with a retry-after hint)
//!                                    │
//!               [admission batcher] ◄┘ ──► worker pool (std threads)
//!               (batch_window: plans a       │
//!                burst as one unit, flags    │
//!                overlapping invoke          │
//!                prefixes, prices them free  │
//!                via the SharedWorkOracle)   │
//!                  fingerprint ▼ (mdq_model::fingerprint)
//!                        ┌───────────┐  miss   ┌────────────────┐
//!                        │ plan cache│ ───────► branch-and-bound│
//!                        │ (LRU)     │ ◄─────── optimizer       │
//!                        └─────┬─────┘  insert └────────────────┘
//!                          hit │
//!                              ▼
//!                  pull executor over the shared gateway
//!                  (longest materialized invoke prefix replays;
//!                   flagged prefixes materialize single-flight)
//!                              │
//!              ┌───────────────▼────────────────┐
//!              │ SharedServiceState (mdq-exec)  │
//!              │ page cache (bounded LRU) ·     │
//!              │ sub-result store (signature →  │
//!              │ materialized prefix rows) ·    │
//!              │ call/latency accounting ·      │
//!              │ single-flight · per-service    │
//!              │ concurrency limits             │
//!              └────────────────────────────────┘
//! ```
//!
//! * [`server`] — the [`QueryServer`]: worker
//!   pool, tenant-fair submission scheduler, plan cache, admission
//!   control (queue bounds and budget checks shed at the front door);
//! * [`net`] — the serving edge: a std-only TCP wire protocol
//!   ([`NetServer`]) streaming answer frames per
//!   connection, with tenant handshake, load-shedding (`SHED
//!   retry-after-ms=…`) and graceful drain;
//! * [`tenant`] — tenant identity and isolation policy
//!   ([`TenantPolicy`]): call budgets, queue bounds,
//!   sub-result quotas;
//! * [`plan_cache`] — the fingerprint-keyed LRU in front of the
//!   optimizer, and the resolver that owns every template → plan
//!   decision (single-flight optimize, failed memo, discount
//!   revalidation);
//! * [`session`] — the [`QuerySession`] handle
//!   streaming answers and per-query statistics;
//! * [`metrics`] — the [`MetricsSnapshot`], sampled from one table of
//!   server counters (each a field and a stable dotted key, printed as
//!   `key value` lines) and [`mdq_obs::AtomicHistogram`]s, plus the
//!   shared state's page-cache, per-service call and latency figures
//!   and per-shard page-cache occupancy.
//!
//! Observability: [`QueryServer::enable_tracing`] attaches an
//! [`mdq_obs`] span recorder to the shared gateway state — every
//! execution then records operator batches, service calls, retries and
//! re-plans on its own track while the server records optimize,
//! plan-cache and admission events on the control track; export with
//! [`mdq_obs::chrome_trace_json`] or [`mdq_obs::jsonl`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod net;
pub mod plan_cache;
pub mod server;
pub mod session;
pub mod subscribe;
pub mod tenant;

pub use metrics::MetricsSnapshot;
pub use net::{ClientFrame, NetClient, NetServer, QueryOutcome, ServerFrame};
pub use server::{QueryServer, RuntimeConfig};
pub use session::{QueryResult, QuerySession, QueryStats, RuntimeError};
pub use subscribe::{Delta, RefreshSummary, SubscriptionTicket};
pub use tenant::{TenantPolicy, TenantSnapshot, DEFAULT_TENANT};

/// Convenient glob-import surface: `use mdq_runtime::prelude::*;`.
pub mod prelude {
    pub use crate::metrics::MetricsSnapshot;
    pub use crate::net::{ClientFrame, NetClient, NetServer, QueryOutcome, ServerFrame};
    pub use crate::plan_cache::PlanCache;
    pub use crate::server::{QueryServer, RuntimeConfig};
    pub use crate::session::{QueryResult, QuerySession, QueryStats, RuntimeError};
    pub use crate::subscribe::{Delta, RefreshSummary, SubscriptionTicket};
    pub use crate::tenant::{TenantPolicy, TenantSnapshot, DEFAULT_TENANT};
}
