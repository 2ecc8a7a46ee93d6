//! Pre-execution plan analysis shared by all executors.

use mdq_model::binding::ApChoice;
use mdq_model::query::Predicate;
use mdq_model::schema::Schema;
use mdq_plan::dag::{NodeKind, Plan};
use std::collections::HashSet;

/// Per-node execution metadata derived from a plan.
#[derive(Clone, Debug)]
pub struct PlanInfo {
    /// For each plan node, the indices of the query predicates that first
    /// become fully bound there (and must be applied there).
    pub preds_at_node: Vec<Vec<usize>>,
    /// For each plan node (invoke nodes only), the input positions of the
    /// atom's chosen access pattern.
    pub input_positions: Vec<Vec<usize>>,
    /// For each plan node (invoke nodes only), the chosen pattern index.
    pub pattern_of_node: Vec<usize>,
}

impl PlanInfo {
    /// The predicates applied at plan node `node`, cloned out of the
    /// query for the operator that runs them.
    pub fn predicates_at(&self, plan: &Plan, node: usize) -> Vec<Predicate> {
        self.preds_at_node[node]
            .iter()
            .map(|&p| plan.query.predicates[p].clone())
            .collect()
    }
}

/// Analyzes `plan`, mirroring the predicate-placement rule of the cost
/// estimator: a predicate applies at the first node where all its
/// variables are bound.
pub fn analyze(plan: &Plan, schema: &Schema) -> PlanInfo {
    let n = plan.nodes.len();
    let mut preds_at_node = vec![Vec::new(); n];
    let mut input_positions = vec![Vec::new(); n];
    let mut pattern_of_node = vec![0usize; n];
    let mut applied: Vec<HashSet<usize>> = vec![HashSet::new(); n];

    let ApChoice(choice) = &plan.choice;
    for i in 0..n {
        let node = &plan.nodes[i];
        let mut inherited: HashSet<usize> = HashSet::new();
        for inp in &node.inputs {
            inherited.extend(applied[inp.0].iter().copied());
        }
        for (k, p) in plan.query.predicates.iter().enumerate() {
            if !inherited.contains(&k) && p.vars().iter().all(|v| node.bound_vars.contains(v)) {
                preds_at_node[i].push(k);
                inherited.insert(k);
            }
        }
        applied[i] = inherited;
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
