//! Figure 7 / Examples 4.1 & 5.1 — the plan space and its pruning.
//!
//! Enumerates the access-pattern sequences of Example 4.1 (α1…α4, with
//! α3 impermissible and {α1, α4} most cogent), the **19** alternative
//! topologies of Example 5.1 under α1, prices every one end-to-end under
//! ETM, and reports how branch and bound prunes the space (the Fig. 1
//! pipeline in action).

use mdq_cost::estimate::CacheSetting;
use mdq_cost::metrics::ExecutionTime;
use mdq_cost::selectivity::SelectivityModel;
use mdq_model::binding::{permissible_sequences, ApChoice, SupplierMap};
use mdq_model::cogency::most_cogent;
use mdq_model::examples::{running_example_query, running_example_schema};
use mdq_optimizer::bnb::{optimize, OptimizerConfig};
use mdq_optimizer::context::CostContext;
use mdq_optimizer::phase3::{optimize_fetches, FetchHeuristic, FetchStats};
use mdq_plan::builder::{build_plan, StrategyRule};
use mdq_plan::poset::all_topologies;
use std::fmt::Write as _;
use std::sync::Arc;

/// One priced topology.
#[derive(Clone, Debug)]
pub struct PricedTopology {
    /// Level-decomposition rendering, e.g. `{2} → {3} → {0,1}`.
    pub topology: String,
    /// Operator summary.
    pub summary: String,
    /// End-to-end ETM cost (after phase-3 fetch assignment).
    pub cost: f64,
    /// Whether k = 10 is reachable.
    pub meets_k: bool,
    /// Whether the topology is a serial permutation.
    pub is_chain: bool,
}

/// Enumerates and prices the 19 α1 topologies.
pub fn priced_topologies() -> Vec<PricedTopology> {
    let schema = running_example_schema();
    let query = Arc::new(running_example_query(&schema));
    let choice = ApChoice(vec![0, 0, 0, 0]);
    let selectivity = SelectivityModel::default();
    let strategy = StrategyRule::default();
    let metric = ExecutionTime;
    let ctx = CostContext::new(&schema, &selectivity, CacheSetting::OneCall, &metric);
    let suppliers = SupplierMap::build(&query, &schema, &choice);
    let mut out = Vec::new();
    for poset in all_topologies(query.atoms.len(), &suppliers) {
        let mut plan = build_plan(
            Arc::clone(&query),
            &schema,
            choice.clone(),
            poset.clone(),
            (0..query.atoms.len()).collect(),
            &strategy,
        )
        .expect("admissible");
        let mut stats = FetchStats::default();
        let outcome = optimize_fetches(
            &mut plan,
            &ctx,
            10.0,
            FetchHeuristic::Greedy,
            64,
            true,
            None,
            &mut stats,
        );
        out.push(PricedTopology {
            topology: format!("{poset}"),
            summary: plan.summary(&schema),
            cost: outcome.cost,
            meets_k: outcome.meets_k,
            is_chain: poset.is_chain(),
        });
    }
    out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    out
}

/// Branch-and-bound effort with and without pruning.
struct PruningReport {
    /// Optimal cost (identical in both runs).
    pub optimum: f64,
    /// (topologies priced, partials pruned, fetch vectors) with bounds.
    pub with_bounds: (usize, usize, usize),
    /// Same counters with bounds disabled.
    pub without_bounds: (usize, usize, usize),
}

/// Measures pruning effectiveness on the running example under ETM.
fn pruning_report() -> PruningReport {
    let schema = running_example_schema();
    let query = Arc::new(running_example_query(&schema));
    let run = |use_bounds: bool| {
        let out = optimize(
            Arc::clone(&query),
            &schema,
            &ExecutionTime,
            &OptimizerConfig {
                use_bounds,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
        (
            out.candidate.cost,
            (
                out.stats.phase2.topologies_complete,
                out.stats.phase2.partials_pruned,
                out.stats.phase2.fetch.vectors_costed,
            ),
        )
    };
    let (cost_b, with_bounds) = run(true);
    let (cost_n, without_bounds) = run(false);
    assert!(
        (cost_b - cost_n).abs() < 1e-9,
        "pruning must not change the optimum"
    );
    PruningReport {
        optimum: cost_b,
        with_bounds,
        without_bounds,
    }
}

/// Renders the whole experiment.
pub fn render() -> String {
    let schema = running_example_schema();
    let query = running_example_query(&schema);
    let mut s = String::new();

    let seqs = permissible_sequences(&query, &schema);
    let best = most_cogent(&query, &schema, &seqs);
    let _ = writeln!(s, "Example 4.1 — access patterns:");
    let _ = writeln!(
        s,
        "  4 raw sequences, {} permissible (α3 is not), {} most cogent (α1, α4)",
        seqs.len(),
        best.len()
    );

    let priced = priced_topologies();
    let chains = priced.iter().filter(|p| p.is_chain).count();
    let _ = writeln!(
        s,
        "\nExample 5.1 / Figure 7 — {} alternative plans under α1 \
         ({} serial permutations + {} parallelization options), priced by ETM:",
        priced.len(),
        chains,
        priced.len() - chains
    );
    let _ = writeln!(s, "{:>4} {:>8}  k?  plan", "rank", "ETM");
    for (i, p) in priced.iter().enumerate() {
        let _ = writeln!(
            s,
            "{:>4} {:>8.1}  {}  {:<22} {}",
            i + 1,
            p.cost,
            if p.meets_k { "✓" } else { "✗" },
            p.topology,
            p.summary
        );
    }

    let pr = pruning_report();
    let _ = writeln!(
        s,
        "\nBranch and bound (all phases, all sequences): optimum ETM = {:.1}",
        pr.optimum
    );
    let _ = writeln!(
        s,
        "  with bounds   : {} topologies priced, {} partials pruned, {} fetch vectors",
        pr.with_bounds.0, pr.with_bounds.1, pr.with_bounds.2
    );
    let _ = writeln!(
        s,
        "  without bounds: {} topologies priced, {} partials pruned, {} fetch vectors",
        pr.without_bounds.0, pr.without_bounds.1, pr.without_bounds.2
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_topologies_six_chains() {
        let priced = priced_topologies();
        assert_eq!(priced.len(), 19);
        assert_eq!(priced.iter().filter(|p| p.is_chain).count(), 6);
        // every topology reaches k on this profile
        assert!(priced.iter().all(|p| p.meets_k));
        // ascending cost order
        for w in priced.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn fig7d_is_the_alpha1_optimum() {
        let priced = priced_topologies();
        // best plan: conf → weather → {flight ∥ hotel} at ETM 40.9
        assert!(priced[0].summary.contains("⋈"), "{}", priced[0].summary);
        assert!((priced[0].cost - 40.9).abs() < 1e-9, "{}", priced[0].cost);
    }

    #[test]
    fn pruning_saves_work() {
        let pr = pruning_report();
        assert!(pr.with_bounds.1 > 0, "some partials must be pruned");
        assert!(
            pr.with_bounds.0 <= pr.without_bounds.0,
            "bounds cannot increase the number of topologies priced"
        );
    }
}
