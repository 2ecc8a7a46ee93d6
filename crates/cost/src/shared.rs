//! Shared-work awareness for the cost model.
//!
//! The paper prices every service invocation as if the query ran alone.
//! A serving layer that materializes common invoke prefixes (Roy et
//! al.'s multi-query optimization, applied to §5's call-based cost
//! model) changes that arithmetic: a prefix another query has already
//! materialized costs *nothing* to the next query that starts with it.
//! [`SharedWorkOracle`] is the narrow interface through which the
//! optimizer asks the runtime what is already paid for, and
//! [`discount_materialized`] applies the answer to a plan's
//! [`Annotation`] by zeroing the effective calls of the longest
//! materialized prefix — every call-derived metric (sum cost,
//! request-response, execution time, bottleneck, time-to-screen) then
//! prices the shared work as free.
//!
//! Standalone optimization carries no oracle at all: with nothing to
//! match prefixes against, none is signed and costing is the paper's.

use crate::estimate::Annotation;
use mdq_model::fingerprint::SubplanSignature;
use mdq_plan::dag::Plan;
use mdq_plan::signature::invoke_prefixes;

/// What the optimizer may ask the runtime about already-materialized
/// shared work. Implemented by the execution layer's shared state (the
/// sub-result store) and by plain signature sets (the admission
/// batcher's view of a batch being planned).
pub trait SharedWorkOracle {
    /// Whether a prefix with this signature is materialized (or being
    /// materialized) and would replay for free.
    fn is_materialized(&self, sig: SubplanSignature) -> bool;
}

impl SharedWorkOracle for std::collections::HashSet<SubplanSignature> {
    fn is_materialized(&self, sig: SubplanSignature) -> bool {
        self.contains(&sig)
    }
}

/// Zeroes the effective calls of the longest invoke prefix of `plan`
/// the oracle reports materialized; returns the number of invoke nodes
/// discounted (0 when no prefix matches).
///
/// Only `Annotation::calls` is touched: cardinalities (`t_in`/`t_out`)
/// describe the data, which replays unchanged — exactly what keeps the
/// downstream estimates honest.
pub fn discount_materialized(
    plan: &Plan,
    ann: &mut Annotation,
    oracle: &dyn SharedWorkOracle,
) -> usize {
    let prefixes = invoke_prefixes(plan);
    let Some(best) = prefixes
        .iter()
        .rev()
        .find(|p| oracle.is_materialized(p.signature))
    else {
        return 0;
    };
    for p in &prefixes[..best.len] {
        ann.calls[p.node] = 0.0;
    }
    best.len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{CacheSetting, Estimator};
    use crate::selectivity::SelectivityModel;
    use crate::test_fixtures::{fig6_poset, running_example, RunningExample};
    use mdq_model::binding::ApChoice;
    use mdq_plan::builder::{build_plan, StrategyRule};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn fig6() -> (Plan, mdq_model::schema::Schema) {
        let RunningExample { schema, query } = running_example();
        let plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig6_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        (plan, schema)
    }

    #[test]
    fn empty_oracle_discounts_nothing() {
        let (plan, schema) = fig6();
        let sel = SelectivityModel::default();
        let est = Estimator::new(&schema, &sel, CacheSetting::OneCall);
        let base = est.annotate(&plan);
        let mut ann = base.clone();
        let nothing: HashSet<SubplanSignature> = HashSet::new();
        assert_eq!(discount_materialized(&plan, &mut ann, &nothing), 0);
        assert_eq!(ann.calls, base.calls, "annotation untouched");
    }

    #[test]
    fn materialized_prefix_zeroes_its_calls() {
        let (plan, schema) = fig6();
        let sel = SelectivityModel::default();
        let est = Estimator::new(&schema, &sel, CacheSetting::OneCall);
        let mut ann = est.annotate(&plan);
        let prefixes = invoke_prefixes(&plan);
        let longest = prefixes.last().expect("fig6 has a chain");
        let oracle: HashSet<SubplanSignature> = [longest.signature].into_iter().collect();
        assert_eq!(discount_materialized(&plan, &mut ann, &oracle), 2);
        for p in &prefixes {
            assert_eq!(ann.calls[p.node], 0.0, "chain node calls discounted");
        }
        // non-chain invoke nodes keep their calls
        assert!(ann.calls.iter().any(|&c| c > 0.0));
        // and cardinalities are untouched (the data still flows)
        let base = est.annotate(&plan);
        assert_eq!(ann.t_out, base.t_out);
    }

    #[test]
    fn shorter_materialized_prefix_discounts_partially() {
        let (plan, schema) = fig6();
        let sel = SelectivityModel::default();
        let est = Estimator::new(&schema, &sel, CacheSetting::OneCall);
        let mut ann = est.annotate(&plan);
        let prefixes = invoke_prefixes(&plan);
        let oracle: HashSet<SubplanSignature> = [prefixes[0].signature].into_iter().collect();
        assert_eq!(discount_materialized(&plan, &mut ann, &oracle), 1);
        assert_eq!(ann.calls[prefixes[0].node], 0.0);
        let base = est.annotate(&plan);
        assert_eq!(ann.calls[prefixes[1].node], base.calls[prefixes[1].node]);
    }
}
