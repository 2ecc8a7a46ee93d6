//! Ablations beyond the paper's figures: which design choices pay off?
//!
//! * fetch heuristics (greedy vs square vs Eq. 6 closed form vs exact
//!   frontier search);
//! * the WSMS baseline (\[16\]) vs the top-k-aware optimizer;
//! * optimizer scaling over the four simulated domains.

use mdq_cost::estimate::CacheSetting;
use mdq_cost::metrics::{ExecutionTime, RequestResponse};
use mdq_cost::selectivity::SelectivityModel;
use mdq_model::binding::ApChoice;
use mdq_model::examples::{
    running_example_query, running_example_schema, ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER,
};
use mdq_optimizer::baseline_wsms::wsms_baseline;
use mdq_optimizer::bnb::{optimize, OptimizerConfig};
use mdq_optimizer::context::CostContext;
use mdq_optimizer::phase3::{
    closed_form_pair, heuristic_fetches, optimize_fetches, FetchHeuristic, FetchStats,
};
use mdq_plan::builder::{build_plan, StrategyRule};
use mdq_plan::poset::Poset;
use std::fmt::Write as _;
use std::sync::Arc;

/// Compares the phase-3 strategies on the Fig. 6 plan (k = 10, RRM).
fn fetch_strategy_table() -> String {
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
    .expect("acyclic");
    let selectivity = SelectivityModel::default();
    let metric = RequestResponse;
    let ctx = CostContext::new(&schema, &selectivity, CacheSetting::OneCall, &metric);
    let base_plan = build_plan(
        Arc::clone(&query),
        &schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("builds");

    let mut s = String::new();
    let _ = writeln!(
        s,
        "Phase-3 ablation (Fig. 6 plan, k = 10, request-response metric):"
    );
    let _ = writeln!(
        s,
        "{:<26} {:>9} {:>9} {:>10}",
        "strategy", "F_flight", "F_hotel", "RRM cost"
    );

    let caps = vec![64u64; 4];
    for (name, heuristic) in [
        ("greedy", FetchHeuristic::Greedy),
        ("square", FetchHeuristic::Square),
    ] {
        let mut plan = base_plan.clone();
        let f = heuristic_fetches(&mut plan, &ctx, 10.0, heuristic, &caps);
        plan.fetches.copy_from_slice(&f);
        let (cost, _) = ctx.cost(&plan);
        let _ = writeln!(
            s,
            "{:<26} {:>9} {:>9} {:>10.1}",
            name, f[ATOM_FLIGHT], f[ATOM_HOTEL], cost
        );
    }
    // Eq. 6 closed form (the paper's Fig. 8 assignment)
    {
        let mut plan = base_plan.clone();
        let out_ones = ctx.annotate(&plan).out_size();
        let (f1, f2) = closed_form_pair(out_ones, 10.0, 9.7, 4.9);
        plan.set_fetch(ATOM_FLIGHT, f1);
        plan.set_fetch(ATOM_HOTEL, f2);
        let (cost, _) = ctx.cost(&plan);
        let _ = writeln!(
            s,
            "{:<26} {:>9} {:>9} {:>10.1}",
            "Eq. 6 closed form", f1, f2, cost
        );
    }
    // exact frontier search
    {
        let mut plan = base_plan.clone();
        let mut stats = FetchStats::default();
        let out = optimize_fetches(
            &mut plan,
            &ctx,
            10.0,
            FetchHeuristic::Greedy,
            64,
            true,
            None,
            &mut stats,
        );
        let _ = writeln!(
            s,
            "{:<26} {:>9} {:>9} {:>10.1}   ({} vectors costed)",
            "frontier search (exact)",
            out.fetches[ATOM_FLIGHT],
            out.fetches[ATOM_HOTEL],
            out.cost,
            stats.vectors_costed
        );
    }
    s
}

/// The \[16\] baseline vs the top-k optimizer on the running example.
fn baseline_table() -> String {
    let schema = running_example_schema();
    let query = Arc::new(running_example_query(&schema));
    let mut s = String::new();
    let _ = writeln!(
        s,
        "WSMS baseline ([16]: bottleneck metric, exact services, F = 1):"
    );
    let baseline =
        wsms_baseline(Arc::clone(&query), &schema, &ExecutionTime).expect("baseline plans");
    let _ = writeln!(
        s,
        "  chain: {}  bottleneck = {:.1}, ETM = {:.1}",
        baseline.plan.summary(&schema),
        baseline.bottleneck_cost,
        baseline.comparison_cost
    );
    let sel = SelectivityModel::default();
    let etm = ExecutionTime;
    let ctx = CostContext::new(&schema, &sel, CacheSetting::NoCache, &etm);
    let (_, ann) = ctx.cost(&baseline.plan);
    let _ = writeln!(
        s,
        "  but its F = 1 plan yields only {:.2} estimated answers (k = 10 unmet):",
        ann.out_size()
    );
    let ours = optimize(
        Arc::clone(&query),
        &schema,
        &ExecutionTime,
        &OptimizerConfig {
            cache: CacheSetting::NoCache,
            ..OptimizerConfig::default()
        },
    )
    .expect("optimizes");
    let _ = writeln!(
        s,
        "  top-k optimizer: {}  ETM = {:.1}, {:.1} estimated answers",
        ours.candidate.plan.summary(&schema),
        ours.candidate.cost,
        ours.candidate.annotation.out_size()
    );
    s
}

/// Optimizer effort across the simulated domains.
fn domain_table() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Optimizer effort across domains (ETM, defaults):");
    let _ = writeln!(
        s,
        "{:<14} {:>6} {:>10} {:>12} {:>12} {:>10}",
        "domain", "atoms", "sequences", "topologies", "pruned", "cost"
    );
    let mut row = |name: &str,
                   schema: &mdq_model::schema::Schema,
                   query: mdq_model::query::ConjunctiveQuery| {
        let out = optimize(
            Arc::new(query),
            schema,
            &ExecutionTime,
            &OptimizerConfig::default(),
        )
        .expect("optimizes");
        let _ = writeln!(
            s,
            "{:<14} {:>6} {:>10} {:>12} {:>12} {:>10.1}",
            name,
            out.candidate.plan.atoms.len(),
            out.stats.sequences_permissible,
            out.stats.phase2.topologies_complete,
            out.stats.phase2.partials_pruned,
            out.candidate.cost
        );
    };
    {
        let schema = running_example_schema();
        let query = running_example_query(&schema);
        row("travel", &schema, query);
    }
    {
        let w = mdq_services::domains::protein::protein_world(1);
        row("protein", &w.schema, w.query);
    }
    {
        let w = mdq_services::domains::bibliography::bibliography_world(1);
        row("bibliography", &w.schema, w.query);
    }
    {
        let w = mdq_services::domains::news::news_world();
        row("news", &w.schema, w.query);
    }
    s
}

/// Renders all ablations.
pub fn render() -> String {
    format!(
        "{}\n{}\n{}",
        fetch_strategy_table(),
        baseline_table(),
        domain_table()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render() {
        let t = fetch_strategy_table();
        assert!(t.contains("greedy"), "{t}");
        assert!(t.contains("square"), "{t}");
        assert!(t.contains("frontier"), "{t}");
        let b = baseline_table();
        assert!(b.contains("bottleneck"), "{b}");
        let d = domain_table();
        assert!(d.contains("protein"), "{d}");
        assert!(d.contains("bibliography"), "{d}");
    }
}
