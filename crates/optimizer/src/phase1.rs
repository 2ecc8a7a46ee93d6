//! Phase 1 — access-pattern selection (§4.1).
//!
//! Enumerates the permissible access-pattern sequences, orders them by
//! the "bound is better" heuristic (most cogent first, §4.1.1), and
//! provides the per-sequence lower bound used to skip sequences that
//! cannot beat the incumbent.

use crate::context::CostContext;
use mdq_model::binding::{ApChoice, SupplierMap};
use mdq_model::cogency::exploration_order;
use mdq_model::query::ConjunctiveQuery;
use mdq_plan::builder::StrategyRule;
use mdq_plan::poset::{PartialTopology, Poset};
use std::sync::Arc;

/// Permissible sequences in "bound is better" exploration order: the most
/// cogent sequences first (they bind more inputs, promising smaller
/// intermediate results), then the dominated rest.
pub(crate) fn ordered_sequences(query: &ConjunctiveQuery, ctx: &CostContext<'_>) -> Vec<ApChoice> {
    let all = mdq_model::binding::permissible_sequences(query, ctx.schema);
    exploration_order(query, ctx.schema, &all)
}

/// A conservative lower bound on the cost of *any* complete plan using
/// `choice`: every plan's first batch contains at least one directly
/// callable atom, and by metric monotonicity the single-atom prefix plan
/// lower-bounds every completion — so the minimum over directly callable
/// atoms is a valid bound.
///
/// (The bound is deliberately weak — the paper notes phase-1 bounds are
/// "effective if such cost exceeds the complete cost of the considered
/// solution" — most pruning power comes from sharing the incumbent with
/// phases 2/3.)
pub(crate) fn sequence_lower_bound(
    query: &Arc<ConjunctiveQuery>,
    ctx: &CostContext<'_>,
    choice: &ApChoice,
    strategy: &StrategyRule,
) -> f64 {
    let suppliers = SupplierMap::build(query, ctx.schema, choice);
    let n = query.atoms.len();
    let mut first = PartialTopology {
        batches: vec![Vec::new()],
        poset: Poset::antichain(n),
        placed: 0,
        preds: vec![0; n],
    };
    let mut best = f64::INFINITY;
    for atom in suppliers.directly_callable() {
        first.batches[0].clear();
        first.batches[0].push(atom);
        first.placed = 1 << atom;
        if let Some(c) = ctx.price_prefix(&suppliers, query, choice, &first, strategy) {
            best = best.min(c);
        }
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::running_example_parts;
    use mdq_cost::estimate::CacheSetting;
    use mdq_cost::metrics::RequestResponse;
    use mdq_cost::selectivity::SelectivityModel;

    #[test]
    fn ordering_matches_example_41() {
        let (schema, query) = running_example_parts();
        let sel = SelectivityModel::default();
        let metric = RequestResponse;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let seqs = ordered_sequences(&query, &ctx);
        assert_eq!(seqs.len(), 3, "α1, α2, α4");
        // dominated α2 = (flight0, hotel_2(oooooo)=1, conf_1(ioooo)=0, weather0) last
        assert_eq!(seqs[2], ApChoice(vec![0, 1, 0, 0]));
    }

    #[test]
    fn lower_bound_is_below_any_plan_cost() {
        use crate::phase2::{optimize_topology, SearchOptions};
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        let sel = SelectivityModel::default();
        let metric = RequestResponse;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let strategy = StrategyRule::default();
        for choice in ordered_sequences(&query, &ctx) {
            let lb = sequence_lower_bound(&query, &ctx, &choice, &strategy);
            let out = optimize_topology(
                &query,
                &ctx,
                &choice,
                &strategy,
                10.0,
                SearchOptions::default(),
                None,
            );
            if let Some(best) = out.best {
                assert!(
                    lb <= best.cost + 1e-9,
                    "lower bound {lb} exceeds optimal cost {} for {choice}",
                    best.cost
                );
            }
        }
    }
}
