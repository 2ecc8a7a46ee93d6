//! # mdq-cost — cardinality estimation and cost metrics
//!
//! Implements §2.3, §3.4 and §5.2–5.3 of *Braga et al., "Optimization of
//! Multi-Domain Queries on the Web", VLDB 2008*:
//!
//! * [`selectivity`] — System-R-style predicate selectivity defaults with
//!   per-predicate overrides;
//! * [`estimate`] — the `t_in` / `t_out` / effective-call estimator under
//!   the three logical-cache settings (Eq. 1/2, the `N(n)` minimal
//!   contributor sets);
//! * [`metrics`] — the five cost metrics: sum cost (Eq. 3),
//!   request-response, execution time (Eq. 4), bottleneck (\[16\]'s metric,
//!   kept as baseline) and time-to-screen — all monotonic w.r.t. plan
//!   construction, as branch and bound requires;
//! * [`divergence`] — estimate-vs-observation drift: the trigger metric
//!   and profile-refresh path of adaptive mid-flight re-optimization;
//! * [`shared`] — cross-query shared-work awareness: the
//!   [`SharedWorkOracle`](shared::SharedWorkOracle) the serving layer
//!   answers and the call discount for already-materialized prefixes;
//! * [`explain`] — EXPLAIN-style rendering of annotated plans (Fig. 8).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod divergence;
pub mod estimate;
pub mod explain;
pub mod metrics;
pub mod selectivity;
pub mod shared;

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared fixtures: the running example and its canonical posets.
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_model::query::ConjunctiveQuery;
    use mdq_model::schema::Schema;
    use mdq_plan::poset::Poset;

    pub struct RunningExample {
        pub schema: Schema,
        pub query: ConjunctiveQuery,
    }

    pub fn running_example() -> RunningExample {
        let schema = mdq_model::examples::running_example_schema();
        let query = mdq_model::examples::running_example_query(&schema);
        RunningExample { schema, query }
    }

    /// Fig. 6 / Fig. 7(d): conf → weather → {flight ∥ hotel}.
    pub fn fig6_poset() -> Poset {
        Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_WEATHER, ATOM_HOTEL),
            ],
        )
        .expect("fig6 poset is acyclic")
    }

    /// Fig. 7(a): the serial plan conf → weather → flight → hotel.
    pub fn fig7a_serial_poset() -> Poset {
        Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_FLIGHT, ATOM_HOTEL),
            ],
        )
        .expect("fig7a poset is acyclic")
    }
}

/// Convenient glob-import surface: `use mdq_cost::prelude::*;`.
pub mod prelude {
    pub use crate::divergence::{
        diverging_services, profile_divergence, refresh_profiles, AdaptiveConfig, ObservedService,
        ServiceDivergence,
    };
    pub use crate::estimate::{Annotation, CacheSetting, Estimator, PreparedPlan, QueryFacts};
    pub use crate::explain::{explain, explain_analyze};
    pub use crate::metrics::{
        all_metrics, Bottleneck, CostMetric, ExecutionTime, RequestResponse, SumCost, TimeToScreen,
    };
    pub use crate::selectivity::SelectivityModel;
    pub use crate::shared::{discount_materialized, SharedWorkOracle};
}
