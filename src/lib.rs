//! # mdq — multi-domain queries on the web, in Rust
//!
//! A from-scratch reproduction of *Braga, Ceri, Daniel, Martinenghi:
//! "Optimization of Multi-Domain Queries on the Web", VLDB 2008*: a
//! complete query system for conjunctive queries over heterogeneous web
//! services — exact and *search* (ranked, chunked) services with access
//! limitations — including the paper's three-phase branch-and-bound
//! optimizer, five cost metrics, rank-preserving join strategies,
//! logical caching, and a calibrated simulated deep-web substrate that
//! regenerates every table and figure of the paper's evaluation.
//!
//! Start with [`Mdq`] (the facade) or the crate-level modules:
//!
//! | crate | contents |
//! |---|---|
//! | [`model`] | values, schemas, access patterns, conjunctive queries, parser |
//! | [`services`] | simulated deep-web sources, fault injection, registry, profiler, domains |
//! | [`plan`] | topologies (posets), plan DAGs, join strategies, rendering |
//! | [`cost`] | cardinality/call estimation, the five cost metrics |
//! | [`optimizer`] | the three-phase branch and bound + baselines |
//! | [`exec`] | caches, rank-preserving joins, retry-resilient gateway, the stage and pull drivers over one `ExecContext` |
//! | [`runtime`] | concurrent multi-query server: worker pool, plan cache, shared gateway, metrics, TCP serving edge with tenant isolation |
//!
//! ```
//! use mdq::Mdq;
//! use mdq::services::domains::news::news_world;
//!
//! let engine = Mdq::from_world(news_world());
//! let out = engine
//!     .run(
//!         "q(City, Venue, Price) :- events('mahler-2', City, Venue, D), \
//!          lowcost('Milano', City, Price), Price <= 60.0.",
//!         5,
//!     )
//!     .expect("runs");
//! println!("{}", out.table(5));
//! ```

#![warn(missing_docs)]

pub use mdq_core::{Mdq, MdqError, PreparedQuery, RunOutcome};

pub mod paper_map;

pub use mdq_cost as cost;
pub use mdq_exec as exec;
pub use mdq_model as model;
pub use mdq_optimizer as optimizer;
pub use mdq_plan as plan;
pub use mdq_runtime as runtime;
pub use mdq_services as services;

pub use mdq_runtime::{
    MetricsSnapshot, NetClient, NetServer, QueryOutcome, QueryServer, RuntimeConfig, TenantPolicy,
};

/// Re-exports of the full public API.
pub mod prelude {
    pub use mdq_core::prelude::*;
    pub use mdq_runtime::prelude::*;
}
