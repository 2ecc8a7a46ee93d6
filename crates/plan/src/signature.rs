//! Invoke-prefix extraction: the sharable serial head of a plan DAG.
//!
//! Every plan starts with the Input node; many start with a *serial
//! chain* of invoke nodes before the first parallel split (Fig. 6's
//! `conf → weather` before the flight ∥ hotel fan-out). Each prefix of
//! that chain performs self-contained work — one input tuple in, a
//! bounded stream of bindings out — and is exactly the unit Roy et
//! al.-style multi-query optimization can materialize once and share
//! across concurrent queries with *different* downstream joins and
//! filters.
//!
//! [`invoke_prefixes`] walks the chain and signs every prefix with
//! [`subplan_signature`]: a canonical, alpha-renaming- and
//! source-order-invariant digest of the work (service chain, access
//! patterns, fetch factors, constants, predicates applied along the
//! way), plus the replay mapping from canonical row positions back to
//! this plan's variables.

use crate::dag::{NodeKind, Plan};
use mdq_model::fingerprint::{subplan_signature, PrefixStep, SubplanSignature};
use mdq_model::query::VarId;
use std::collections::HashSet;

/// One sharable invoke prefix of a plan, signed for cross-query reuse.
#[derive(Clone, Debug)]
pub struct PlanPrefix {
    /// Index (into `plan.nodes`) of the prefix's last invoke node — the
    /// node whose output stream the prefix materializes.
    pub node: usize,
    /// Invoke nodes included (1 = just the first invocation).
    pub len: usize,
    /// The canonical work digest.
    pub signature: SubplanSignature,
    /// This plan's query variables in canonical order: a materialized
    /// row holds the value of `vars[i]` at position `i`.
    pub vars: Vec<VarId>,
}

/// Extracts every invoke prefix of `plan`'s serial head chain, shortest
/// first. Empty when the plan fans out immediately after the Input
/// node.
///
/// Predicate placement mirrors the executors
/// (`mdq_exec::plan_info::analyze`): a predicate belongs to the first
/// chain node where all its variables are bound; variable-free
/// predicates are treated as applied at the Input node and excluded,
/// exactly as the compiled operators do.
pub fn invoke_prefixes(plan: &Plan) -> Vec<PlanPrefix> {
    let query = &plan.query;
    let mut applied: HashSet<usize> = query
        .predicates
        .iter()
        .enumerate()
        .filter(|(_, p)| p.vars().is_empty())
        .map(|(k, _)| k)
        .collect();

    let mut steps: Vec<PrefixStep> = Vec::new();
    let mut out: Vec<PlanPrefix> = Vec::new();
    let mut at = plan.input_node();
    loop {
        let consumers: Vec<_> = plan.consumers(at).collect();
        // the chain ends at a fan-out (the node's stream feeds several
        // branches) or when the next node is not an invocation
        let [next] = consumers[..] else { break };
        let NodeKind::Invoke { atom } = plan.nodes[next.0].kind else {
            break;
        };
        let node = &plan.nodes[next.0];
        let preds: Vec<usize> = query
            .predicates
            .iter()
            .enumerate()
            .filter(|(k, p)| {
                !applied.contains(k)
                    && p.vars()
                        .iter()
                        .all(|v| node.bound_vars.contains(v.0 as usize))
            })
            .map(|(k, _)| k)
            .collect();
        applied.extend(preds.iter().copied());
        let pos = plan.invoked_position(atom);
        steps.push(PrefixStep {
            atom,
            pattern: plan.choice.0[atom],
            fetch: plan.fetch_of(pos),
            preds,
        });
        let sig = subplan_signature(query, &steps);
        out.push(PlanPrefix {
            node: next.0,
            len: steps.len(),
            signature: sig.signature,
            vars: sig.vars,
        });
        at = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_plan, StrategyRule};
    use crate::poset::Poset;
    use crate::test_fixtures::{running_example, RunningExample};
    use mdq_model::binding::ApChoice;
    use std::sync::Arc;

    // atom order in the parsed running example:
    // flight=0, hotel=1, conf=2, weather=3
    fn fig6_plan() -> (Plan, mdq_model::schema::Schema) {
        let RunningExample { schema, query } = running_example();
        let poset = Poset::from_pairs(4, &[(2, 3), (3, 0), (3, 1)]).expect("valid");
        let plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        (plan, schema)
    }

    #[test]
    fn fig6_chain_is_conf_then_weather() {
        let (plan, schema) = fig6_plan();
        let prefixes = invoke_prefixes(&plan);
        assert_eq!(prefixes.len(), 2, "chain stops at the fan-out");
        assert_eq!(prefixes[0].len, 1);
        assert_eq!(prefixes[1].len, 2);
        // the chain nodes really are conf and weather
        for (p, name) in prefixes.iter().zip(["conf", "weather"]) {
            let NodeKind::Invoke { atom } = plan.nodes[p.node].kind else {
                panic!("chain nodes are invokes");
            };
            assert_eq!(
                schema.service(plan.query.atoms[atom].service).name.as_ref(),
                name
            );
        }
        assert_ne!(prefixes[0].signature, prefixes[1].signature);
        // vars grow monotonically with the chain
        assert!(prefixes[0].vars.len() < prefixes[1].vars.len());
    }

    #[test]
    fn serial_plan_signs_every_prefix() {
        let RunningExample { schema, query } = running_example();
        let poset = Poset::from_pairs(4, &[(2, 3), (3, 0), (0, 1)]).expect("valid");
        let plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let prefixes = invoke_prefixes(&plan);
        assert_eq!(prefixes.len(), 4, "fully serial: every invoke signs");
    }

    #[test]
    fn fan_out_at_the_root_has_no_prefix() {
        let RunningExample { schema, query } = running_example();
        // conf then weather ∥ flight ∥ hotel: the chain is conf alone
        let poset = Poset::from_pairs(4, &[(2, 0), (2, 1), (2, 3)]).expect("valid");
        let plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        assert_eq!(invoke_prefixes(&plan).len(), 1);
    }

    #[test]
    fn fetch_factor_is_part_of_the_signature() {
        let (mut plan, _) = fig6_plan();
        let before = invoke_prefixes(&plan);
        // flight/hotel are not on the chain: their fetches are invisible
        plan.set_fetch(0, 3);
        let mid = invoke_prefixes(&plan);
        assert_eq!(before[1].signature, mid[1].signature);
        // weather (atom 3) is chain level 2 but bulk (fetch 1 always);
        // perturb conf's fetch instead to see the signature move
        plan.set_fetch(2, 2);
        let after = invoke_prefixes(&plan);
        assert_ne!(before[0].signature, after[0].signature);
        assert_ne!(before[1].signature, after[1].signature);
    }
}
