//! # mdq-optimizer — the three-phase branch-and-bound optimizer
//!
//! The main contribution of *Braga et al., "Optimization of Multi-Domain
//! Queries on the Web", VLDB 2008* (§2.4, §4, Fig. 1): translate a
//! conjunctive query over web services into the cheapest fully
//! instantiated query plan able to produce the best `k` answers, by
//! exploring three nested combinatorial spaces with branch and bound:
//!
//! 1. `phase1` — choice of access patterns ("bound is better");
//! 2. [`phase2`] — plan topology: execution order and join placement
//!    ("selective and parallel are better");
//! 3. [`phase3`] — fetch factors for chunked services
//!    ("greedy and square are better", closed forms of §5.3.1).
//!
//! [`bnb`] drives the phases with a shared incumbent; [`exhaustive`] is
//! the independent oracle used to verify the search never prunes the
//! optimum; [`baseline_wsms`] reimplements the Srivastava et al. \[16\]
//! baseline the paper compares against; [`replan`] re-runs the search
//! over the unexecuted suffix of a running plan for adaptive mid-flight
//! re-optimization.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline_wsms;
pub mod bnb;
pub mod context;
pub mod exhaustive;
pub mod expansion;
mod phase1;
pub mod phase2;
pub mod phase3;
pub mod replan;

/// Convenient glob-import surface: `use mdq_optimizer::prelude::*;`.
pub mod prelude {
    pub use crate::baseline_wsms::{wsms_baseline, WsmsPlan};
    pub use crate::bnb::{
        optimize, optimize_shared, OptimizeError, Optimized, OptimizerConfig, OptimizerStats,
    };
    pub use crate::context::{CostContext, CostingEffort};
    pub use crate::exhaustive::exhaustive_optimum;
    pub use crate::expansion::{expand_for_executability, Expansion, ExpansionError};
    pub use crate::phase2::{max_parallel_topology, PlanCandidate};
    pub use crate::phase3::{closed_form_pair, FetchHeuristic, FetchOutcome, FetchStats};
    pub use crate::replan::reoptimize_suffix_in;
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared fixtures for this crate's unit tests.
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_model::query::ConjunctiveQuery;
    use mdq_model::schema::Schema;
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::dag::Plan;
    use mdq_plan::poset::Poset;
    use std::sync::Arc;

    pub fn running_example_parts() -> (Schema, ConjunctiveQuery) {
        let schema = mdq_model::examples::running_example_schema();
        let query = mdq_model::examples::running_example_query(&schema);
        (schema, query)
    }

    /// The Fig. 6 plan (conf → weather → {flight ∥ hotel}) with F = 1.
    pub fn fig6_plan() -> (Plan, Schema) {
        let (schema, query) = running_example_parts();
        let poset = Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_WEATHER, ATOM_HOTEL),
            ],
        )
        .expect("fig6 poset is acyclic");
        let plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("fig6 plan builds");
        (plan, schema)
    }
}
