//! Pre-execution plan analysis shared by all executors.
//!
//! [`analyze`] places every query predicate at the first plan node
//! where all its variables are bound, and reads each invoke node's
//! access pattern. Placements are bit sets over predicate indices and
//! input positions ([`BitSet`]: one inline `u64` below index 64), so
//! analysing a plan allocates its per-node tables and nothing per node.
//!
//! The operators then *borrow* the query through the plan's
//! `Arc<ConjunctiveQuery>`: a node's predicates reach its operator as
//! [`NodePredicates`] — the shared query plus the node's placement —
//! and an invoke operator reads its atom by index, so compiling a plan
//! copies no atom, predicate or service name. The predicates evaluated,
//! and their order (ascending index), are those of the cloned lists
//! they replace, so every answer and call count is unchanged.

use mdq_model::binding::ApChoice;
use mdq_model::bitset::BitSet;
use mdq_model::query::{ConjunctiveQuery, Predicate};
use mdq_model::schema::Schema;
use mdq_plan::dag::{NodeKind, Plan};
use std::sync::Arc;

/// Per-node execution metadata derived from a plan.
#[derive(Clone, Debug)]
pub struct PlanInfo {
    /// For each plan node, the indices of the query predicates that first
    /// become fully bound there (and must be applied there).
    pub preds_at_node: Vec<BitSet>,
    /// For each plan node (invoke nodes only), the input positions of the
    /// atom's chosen access pattern.
    pub input_positions: Vec<BitSet>,
    /// For each plan node (invoke nodes only), the chosen pattern index.
    pub pattern_of_node: Vec<usize>,
}

impl PlanInfo {
    /// The predicates applied at plan node `node`, read in place from
    /// the plan's query by the operator that runs them.
    pub fn predicates_at(&self, plan: &Plan, node: usize) -> NodePredicates {
        NodePredicates::Placed(Arc::clone(&plan.query), self.preds_at_node[node].clone())
    }
}

/// The predicates one operator applies: a list of its own (built by
/// hand, as the join tests and benches do), or the plan query's
/// predicates at one node's placement, borrowed through the query's
/// `Arc`.
#[derive(Clone, Debug)]
pub enum NodePredicates {
    /// Predicates owned by the operator.
    Owned(Vec<Predicate>),
    /// The predicates of the query with the indices in the set.
    Placed(Arc<ConjunctiveQuery>, BitSet),
}

impl NodePredicates {
    /// No predicates.
    pub fn none() -> Self {
        NodePredicates::Owned(Vec::new())
    }

    /// Whether there is nothing to apply.
    pub fn is_empty(&self) -> bool {
        match self {
            NodePredicates::Owned(list) => list.is_empty(),
            NodePredicates::Placed(_, set) => set.is_empty(),
        }
    }

    /// Whether `holds` is true of every predicate, in list (or index)
    /// order; stops at the first that fails.
    pub fn all(&self, mut holds: impl FnMut(&Predicate) -> bool) -> bool {
        match self {
            NodePredicates::Owned(list) => list.iter().all(holds),
            NodePredicates::Placed(query, set) => set.iter().all(|k| holds(&query.predicates[k])),
        }
    }
}

impl From<Vec<Predicate>> for NodePredicates {
    fn from(list: Vec<Predicate>) -> Self {
        NodePredicates::Owned(list)
    }
}

/// Analyzes `plan`, mirroring the predicate-placement rule of the cost
/// estimator: a predicate applies at the first node where all its
/// variables are bound.
pub fn analyze(plan: &Plan, schema: &Schema) -> PlanInfo {
    let n = plan.nodes.len();
    let mut preds_at_node = vec![BitSet::new(); n];
    let mut input_positions = vec![BitSet::new(); n];
    let mut pattern_of_node = vec![0usize; n];
    // per node, the predicates applied at it or upstream of it
    let mut applied = vec![BitSet::new(); n];

    let ApChoice(choice) = &plan.choice;
    for i in 0..n {
        let node = &plan.nodes[i];
        let mut done = BitSet::new();
        for inp in &node.inputs {
            done.union_with(&applied[inp.0]);
        }
        for (k, p) in plan.query.predicates.iter().enumerate() {
            if !done.contains(k) && p.all_vars(|v| node.bound_vars.contains(v.0 as usize)) {
                preds_at_node[i].insert(k);
                done.insert(k);
            }
        }
        applied[i] = done;
        if let NodeKind::Invoke { atom } = node.kind {
            let pattern = choice[atom];
            pattern_of_node[i] = pattern;
            let sig = schema.service(plan.query.atoms[atom].service);
            input_positions[i] = sig.patterns[pattern].inputs().collect();
        }
    }
    PlanInfo {
        preds_at_node,
        input_positions,
        pattern_of_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::examples::{
        running_example_query, running_example_schema, ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL,
        ATOM_WEATHER,
    };
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::Poset;
    use std::sync::Arc;

    #[test]
    fn predicates_placed_at_first_full_binding() {
        let schema = running_example_schema();
        let query = Arc::new(running_example_query(&schema));
        let poset = Poset::from_pairs(
            4,
            &[
                (ATOM_CONF, ATOM_WEATHER),
                (ATOM_WEATHER, ATOM_FLIGHT),
                (ATOM_WEATHER, ATOM_HOTEL),
            ],
        )
        .expect("valid");
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let info = analyze(&plan, &schema);
        // conf node applies the two date predicates (0, 1)
        let conf_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Invoke { atom } if atom == ATOM_CONF))
            .expect("conf node");
        assert_eq!(info.preds_at_node[conf_node], vec![0, 1]);
        // weather node applies the temperature predicate (2)
        let weather_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Invoke { atom } if atom == ATOM_WEATHER))
            .expect("weather node");
        assert_eq!(info.preds_at_node[weather_node], vec![2]);
        // the price predicate (3) applies at the flight⋈hotel join
        let join_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Join { .. }))
            .expect("join node");
        assert_eq!(info.preds_at_node[join_node], vec![3]);
        // input positions follow the chosen patterns
        let flight_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Invoke { atom } if atom == ATOM_FLIGHT))
            .expect("flight node");
        assert_eq!(info.input_positions[flight_node], vec![0, 1, 2, 3]);
        let hotel_node = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Invoke { atom } if atom == ATOM_HOTEL))
            .expect("hotel node");
        assert_eq!(info.input_positions[hotel_node], vec![1, 2, 3, 4]);
    }
}
