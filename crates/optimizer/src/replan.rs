//! Suffix re-optimization — the optimizer half of adaptive mid-flight
//! re-planning.
//!
//! When an execution suspends after some stages have fully run, the
//! re-usable state is: the executed atoms' access patterns (their calls
//! were issued under those input bindings), their fetch factors (their
//! pages are already paid for), and their relative execution order
//! (their pages sit in the cache keyed by the input values that order
//! produced). [`reoptimize_suffix_in`] re-runs the three-phase search over
//! everything else:
//!
//! * **phase 1** — only access-pattern sequences agreeing with the
//!   running plan on the executed atoms are considered;
//! * **phase 2** — topologies are enumerated with the executed prefix
//!   *frozen*: the executed atoms keep their exact sub-poset and every
//!   executed atom precedes every unexecuted one (so the re-executed
//!   prefix demands exactly the cached pages), while the suffix order
//!   and join placement are explored freely;
//! * **phase 3** — executed positions' fetch factors are pinned
//!   (`optimize_fetches_pinned`); the suffix's factors are re-tuned
//!   against the refreshed profiles — in practice the biggest adaptive
//!   win, since fetch factors are chosen from upstream cardinality
//!   estimates and those are exactly what execution observes to be
//!   wrong.
//!
//! Pass a schema whose profiles were refreshed from observations
//! ([`refresh_profiles`](mdq_cost::divergence::refresh_profiles)) —
//! re-planning against the stale estimates would reproduce the plan
//! that is being abandoned.

use crate::bnb::{check_width, OptimizeError, Optimized, OptimizerConfig, OptimizerStats};
use crate::context::CostContext;
use crate::phase1::ordered_sequences;
use crate::phase2::{instantiate_topology, Complete, Leaders, Phase2Stats, PlanCandidate};
use crate::phase3::FetchParams;
use mdq_model::binding::{ApChoice, SupplierMap};
use mdq_plan::dag::Plan;
use mdq_plan::poset::{
    enumerate_topologies, Admissibility, PartialTopology, Poset, TopologyVisitor,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Above this many unexecuted atoms the suffix topology space is not
/// enumerated exhaustively; only the splice of the running plan is
/// re-priced (fetch factors still re-tune). A safety valve — re-planning
/// happens on the query's critical path.
const MAX_ENUMERATED_SUFFIX: usize = 10;

/// Admissibility for suffix enumeration: executed atoms may only be
/// placed with exactly their frozen predecessor sets (reproducing the
/// prefix poset), and unexecuted atoms must come after the entire
/// prefix and satisfy the supplier constraints.
struct SuffixAdmissibility<'a> {
    suppliers: &'a SupplierMap,
    /// `Some(preds)` for executed atoms (their frozen strict-predecessor
    /// sets within the prefix), `None` for suffix atoms.
    frozen: Vec<Option<HashSet<usize>>>,
    prefix: HashSet<usize>,
}

impl Admissibility for SuffixAdmissibility<'_> {
    fn placeable(&self, b: usize, preds: &HashSet<usize>) -> bool {
        match &self.frozen[b] {
            Some(frozen) => preds == frozen,
            None => {
                self.prefix.iter().all(|p| preds.contains(p)) && self.suppliers.covered_by(b, preds)
            }
        }
    }
}

/// Collects the best candidate over the suffix-constrained topology
/// space, pinning the executed positions' fetch factors.
struct SuffixVisitor<'a, 'c> {
    query: &'a Arc<mdq_model::query::ConjunctiveQuery>,
    ctx: &'a CostContext<'c>,
    choice: &'a ApChoice,
    suppliers: &'a SupplierMap,
    config: &'a OptimizerConfig,
    pinned: &'a [(usize, u64)],
    incumbent: f64,
    leaders: Leaders,
    stats: Phase2Stats,
}

impl SuffixVisitor<'_, '_> {
    /// Prices one complete topology with the executed fetch factors
    /// pinned, keeping it if it leads.
    fn instantiate(&mut self, topology: Complete<'_>) {
        let params = FetchParams {
            k: self.config.k as f64,
            heuristic: self.config.fetch_heuristic,
            max_fetch: self.config.max_fetch,
            explore: self.config.explore_fetches,
            incumbent: Some(self.incumbent).filter(|c| c.is_finite()),
            pinned: self.pinned,
        };
        let priced = instantiate_topology(
            self.query,
            self.ctx,
            self.choice,
            self.suppliers,
            topology,
            &self.config.strategy,
            params,
            &mut self.stats.fetch,
            &mut self.leaders,
        );
        if let Some(priced) = priced.filter(|p| p.meets_k) {
            self.incumbent = self.incumbent.min(priced.cost);
        }
    }
}

impl TopologyVisitor for SuffixVisitor<'_, '_> {
    fn on_complete(&mut self, state: &PartialTopology) {
        self.stats.topologies_complete += 1;
        self.instantiate(Complete::Placed(state));
    }
}

/// The splice of the running plan: its own poset with every executed ≺
/// unexecuted pair added — always admissible (executed stages precede
/// unexecuted ones in the plan's topological node order), and the
/// natural incumbent seed.
fn splice_poset(current: &Plan, executed: &[usize]) -> Option<Poset> {
    let n = current.query.atoms.len();
    let executed_set: HashSet<usize> = executed.iter().copied().collect();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b && current.poset.lt(a, b) {
                pairs.push((a, b));
            }
        }
    }
    for &e in executed {
        for u in (0..n).filter(|u| !executed_set.contains(u)) {
            pairs.push((e, u));
        }
    }
    Poset::from_pairs(n, &pairs)
}

/// Re-optimizes the unexecuted suffix of `current`, keeping the
/// executed atoms' access patterns, relative order and fetch factors.
///
/// `executed` lists the query-atom indices whose invoke stages have
/// fully run, in execution order; `ctx`'s schema should carry profiles
/// refreshed from the execution's observations. With `executed` empty
/// this is a plain re-optimization of the whole query; with every atom
/// executed the current plan is returned re-priced (nothing is left to
/// change). The returned plan always has the executed prefix frozen, so
/// splicing it into a running execution re-demands exactly the pages
/// already in the cache.
///
/// The costing context may carry a
/// [`SharedWorkOracle`](mdq_cost::shared::SharedWorkOracle) (suffix
/// candidates are then priced with already-materialized invoke
/// prefixes discounted, so an adaptive splice prefers plans whose head
/// another concurrent query has materialized), or be one the caller
/// goes on pricing other plans with.
pub fn reoptimize_suffix_in(
    current: &Plan,
    executed: &[usize],
    ctx: &CostContext<'_>,
    config: &OptimizerConfig,
) -> Result<Optimized, OptimizeError> {
    let query = Arc::clone(&current.query);
    if query.atoms.is_empty() {
        return Err(OptimizeError::EmptyQuery);
    }
    check_width(&query)?;
    debug_assert!(current.is_complete(), "only complete plans are executed");
    if executed.is_empty() {
        return crate::bnb::search(query, ctx, config);
    }
    if executed.len() == query.atoms.len() {
        // every stage ran: nothing to re-plan, re-price the plan as-is
        let (cost, annotation) = ctx.cost(current);
        let meets_k = annotation.out_size() >= config.k as f64;
        return Ok(Optimized {
            candidate: PlanCandidate {
                plan: current.clone(),
                cost,
                annotation,
                meets_k,
            },
            stats: OptimizerStats::default(),
        });
    }

    // pattern sequences must agree with the running plan on executed
    // atoms (their calls were made under those patterns); the running
    // choice itself is always permissible, so the fallback is safe
    let mut sequences: Vec<ApChoice> = ordered_sequences(&query, ctx)
        .into_iter()
        .filter(|c| executed.iter().all(|&a| c.0[a] == current.choice.0[a]))
        .collect();
    if sequences.is_empty() {
        sequences.push(current.choice.clone());
    }

    // executed positions keep their paid-for fetch factors (plans over a
    // complete query index positions by atom)
    let pinned: Vec<(usize, u64)> = executed
        .iter()
        .map(|&a| {
            let pos = current
                .position_of(a)
                .expect("`executed` lists query atoms, and a complete plan covers every one");
            (pos, current.fetch_of(pos))
        })
        .collect();

    let n = query.atoms.len();
    let executed_set: HashSet<usize> = executed.iter().copied().collect();
    let enumerate_suffix = n - executed.len() <= MAX_ENUMERATED_SUFFIX;

    let mut stats = OptimizerStats {
        sequences_permissible: sequences.len(),
        ..OptimizerStats::default()
    };
    let mut leaders = Leaders::default();

    for choice in &sequences {
        let suppliers = SupplierMap::build(&query, ctx.schema, choice);
        let mut visitor = SuffixVisitor {
            query: &query,
            ctx,
            choice,
            suppliers: &suppliers,
            config,
            pinned: &pinned,
            incumbent: leaders.best.as_ref().map_or(f64::INFINITY, |b| b.cost),
            leaders: Leaders::default(),
            stats: Phase2Stats::default(),
        };

        // seed the incumbent with the splice of the running plan (only
        // meaningful for the running choice — other sequences change
        // patterns the splice poset may not admit)
        if *choice == current.choice {
            if let Some(poset) = splice_poset(current, executed) {
                visitor.instantiate(Complete::Poset(&poset));
            }
        }

        if enumerate_suffix {
            let frozen: Vec<Option<HashSet<usize>>> = (0..n)
                .map(|b| {
                    executed_set.contains(&b).then(|| {
                        executed
                            .iter()
                            .copied()
                            .filter(|&a| a != b && current.poset.lt(a, b))
                            .collect()
                    })
                })
                .collect();
            let admissible = SuffixAdmissibility {
                suppliers: &suppliers,
                frozen,
                prefix: executed_set.clone(),
            };
            enumerate_topologies(n, &admissible, &mut visitor);
        }

        stats.phase2.add(&visitor.stats);
        leaders.absorb(visitor.leaders);
    }

    let candidate = leaders
        .best
        .or(leaders.best_effort)
        .ok_or(OptimizeError::NotExecutable)?;
    stats.costing = ctx.effort();
    Ok(Optimized { candidate, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnb::optimize;
    use crate::test_fixtures::fig6_plan;
    use mdq_cost::estimate::CacheSetting;
    use mdq_cost::metrics::{CostMetric, ExecutionTime, RequestResponse};
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_model::schema::Schema;
    use mdq_plan::builder::build_plan;

    /// [`reoptimize_suffix_in`] under a fresh costing context over `schema`.
    fn reoptimize_suffix(
        current: &Plan,
        executed: &[usize],
        schema: &Schema,
        metric: &dyn CostMetric,
        config: &OptimizerConfig,
    ) -> Result<Optimized, OptimizeError> {
        let ctx = CostContext::new(schema, &config.selectivity, config.cache, metric);
        reoptimize_suffix_in(current, executed, &ctx, config)
    }

    /// The Fig. 8 plan: the Fig. 6 topology with the paper's fetch
    /// factors — its execution order starts conf, then weather.
    fn fig8_plan() -> (Plan, Schema) {
        let (mut plan, schema) = fig6_plan();
        plan.set_fetch(ATOM_FLIGHT, 3);
        plan.set_fetch(ATOM_HOTEL, 4);
        (plan, schema)
    }

    #[test]
    fn empty_prefix_is_plain_optimization() {
        let (plan, schema) = fig8_plan();
        let redone = reoptimize_suffix(
            &plan,
            &[],
            &schema,
            &ExecutionTime,
            &OptimizerConfig::default(),
        )
        .expect("re-optimizes");
        assert!(
            (redone.candidate.cost
                - optimize(
                    Arc::clone(&plan.query),
                    &schema,
                    &ExecutionTime,
                    &OptimizerConfig::default()
                )
                .expect("optimizes")
                .candidate
                .cost)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn full_prefix_returns_current_plan() {
        let (plan, schema) = fig8_plan();
        let out = reoptimize_suffix(
            &plan,
            &plan.atoms.clone(),
            &schema,
            &ExecutionTime,
            &OptimizerConfig::default(),
        )
        .expect("re-prices");
        assert_eq!(out.candidate.plan.fetches, plan.fetches);
        assert!(out.candidate.plan.poset.extends(&plan.poset));
    }

    #[test]
    fn prefix_order_and_fetches_are_preserved() {
        let (plan, schema) = fig8_plan();
        // conf then weather executed — the plan's own first two stages
        let executed = vec![ATOM_CONF, ATOM_WEATHER];
        let out = reoptimize_suffix(
            &plan,
            &executed,
            &schema,
            &RequestResponse,
            &OptimizerConfig::default(),
        )
        .expect("re-optimizes");
        let new = &out.candidate.plan;
        // frozen prefix: conf ≺ weather kept, both before the suffix
        assert!(new.poset.lt(ATOM_CONF, ATOM_WEATHER));
        for s in [ATOM_FLIGHT, ATOM_HOTEL] {
            assert!(new.poset.lt(ATOM_CONF, s));
            assert!(new.poset.lt(ATOM_WEATHER, s));
        }
        // executed patterns kept
        for &a in &executed {
            assert_eq!(new.choice.0[a], plan.choice.0[a]);
        }
        // executed fetch factors pinned (both bulk here: stay 1)
        for &a in &executed {
            assert_eq!(new.fetch_of(a), plan.fetch_of(a));
        }
        assert!(out.candidate.meets_k);
    }

    #[test]
    fn refreshed_cardinality_retunes_suffix_fetches() {
        // tell the re-planner weather actually returns 10× the tuples:
        // downstream fetch factors shrink, and the re-planned cost under
        // the refreshed schema is no worse than the splice of the stale
        // plan priced under that same schema
        let (stale, mut schema) = fig8_plan();
        let weather = schema.service_by_name("weather").expect("weather");
        schema.service_mut(weather).profile.erspi *= 10.0;
        let executed = vec![ATOM_CONF, ATOM_WEATHER];
        let config = OptimizerConfig::default();
        let out = reoptimize_suffix(&stale, &executed, &schema, &RequestResponse, &config)
            .expect("re-optimizes");
        let new = &out.candidate.plan;
        assert!(out.candidate.meets_k);
        assert!(
            new.fetch_of(ATOM_FLIGHT) * new.fetch_of(ATOM_HOTEL)
                <= stale.fetch_of(ATOM_FLIGHT) * stale.fetch_of(ATOM_HOTEL),
            "10× the upstream tuples never needs more fetching: {:?} vs {:?}",
            new.fetches,
            stale.fetches
        );
        // and the spliced stale plan re-priced under the refreshed schema
        // cannot beat the re-planned one
        let ctx = CostContext::new(
            &schema,
            &config.selectivity,
            CacheSetting::OneCall,
            &RequestResponse,
        );
        let splice = splice_poset(&stale, &executed).expect("splice is acyclic");
        let spliced = build_plan(
            Arc::clone(&stale.query),
            &schema,
            stale.choice.clone(),
            splice,
            (0..4).collect(),
            &config.strategy,
        )
        .map(|mut p| {
            p.fetches.copy_from_slice(&stale.fetches);
            p
        })
        .expect("splice builds");
        let (splice_cost, _) = ctx.cost(&spliced);
        assert!(
            out.candidate.cost <= splice_cost + 1e-9,
            "re-plan {} must not exceed frozen splice {}",
            out.candidate.cost,
            splice_cost
        );
    }
}
