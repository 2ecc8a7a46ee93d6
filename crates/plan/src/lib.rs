//! # mdq-plan — query plans for multi-domain queries
//!
//! Implements §3.3–§3.4 and §4.2 of *Braga et al., "Optimization of
//! Multi-Domain Queries on the Web", VLDB 2008*:
//!
//! * [`poset`] — plan topologies as partial orders over query atoms,
//!   with the paper's incremental batch construction (duplicate-free,
//!   prunable for branch-and-bound);
//! * [`dag`] — executable plans: Input/Invoke/Join/Output dataflow DAGs
//!   with pipe joins, parallel joins (NL / merge-scan) and fetch factors;
//! * [`builder`] — lowering a topology + access-pattern choice into a
//!   plan (one lowering, run on a fresh plan or on one a caller reuses),
//!   with the per-service-pair join-strategy oracle;
//! * [`render`] — Graphviz DOT and ASCII rendering in Fig. 4's visual
//!   syntax;
//! * [`signature`] — invoke-prefix signatures: the canonical digests
//!   cross-query multi-query optimization keys shared work on.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod dag;
pub mod poset;
pub mod render;
pub mod signature;

/// Convenient glob-import surface: `use mdq_plan::prelude::*;`.
pub mod prelude {
    pub use crate::builder::{build_plan, lower, lower_onto, BuildError, Lowering, StrategyRule};
    pub use crate::dag::{JoinStrategy, NodeId, NodeKind, Plan, PlanNode, Side};
    pub use crate::poset::{
        all_topologies, enumerate_topologies, Admissibility, PartialTopology, Poset,
        TopologyVisitor, MAX_ATOMS,
    };
    pub use crate::render::{to_ascii, to_dot};
    pub use crate::signature::{invoke_prefixes, PlanPrefix};
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared fixtures for this crate's unit tests.
    use mdq_model::query::ConjunctiveQuery;
    use mdq_model::schema::Schema;

    pub struct RunningExample {
        pub schema: Schema,
        pub query: ConjunctiveQuery,
    }

    pub fn running_example() -> RunningExample {
        let schema = mdq_model::examples::running_example_schema();
        let query = mdq_model::examples::running_example_query(&schema);
        RunningExample { schema, query }
    }
}
