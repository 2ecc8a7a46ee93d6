//! Adaptive re-optimization end to end: a catalog workload whose true
//! selectivities invert the registered estimates, executed once with
//! the frozen plan and once adaptively — with before/after plan
//! explanations (`cost::explain`) showing what the mid-flight re-plan
//! corrected — then served through an adaptive [`QueryServer`] that
//! publishes the corrected plan back to its plan cache.
//!
//! ```sh
//! cargo run --example adaptive_server
//! ```

use mdq::cost::divergence::AdaptiveConfig;
use mdq::cost::estimate::{CacheSetting, Estimator};
use mdq::cost::explain::explain;
use mdq::cost::metrics::ExecutionTime;
use mdq::cost::selectivity::SelectivityModel;
use mdq::optimizer::bnb::OptimizerConfig;
use mdq::services::domains::catalog::catalog_world;
use mdq::{Mdq, QueryServer, RuntimeConfig};

const QUERY: &str = "q(Item, Part, Vendor, Price) :- seed('widgets', Item), \
     parts(Item, Part), offers(Part, Vendor, Price), Price <= 100.0.";

fn main() {
    // the registration lies: `parts` claims to be selective (erspi
    // 0.25) and fast (0.5 s) while it actually explodes every item into
    // 40 parts at 3 s per call
    let c = catalog_world(true);
    let mut engine = Mdq::from_world(c.world);

    let query = engine.parse(QUERY).expect("parses");
    let optimized = engine
        .optimize(
            query,
            &ExecutionTime,
            OptimizerConfig {
                k: 10,
                cache: CacheSetting::Optimal,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes");
    let stale_plan = optimized.candidate.plan.clone();

    println!("== the plan the stale estimates produce ==");
    let sel = SelectivityModel::default();
    let stale_ann =
        Estimator::new(engine.schema(), &sel, CacheSetting::Optimal).annotate(&stale_plan);
    println!("{}", explain(&stale_plan, engine.schema(), &stale_ann));

    // adaptive execution: divergence is observed after the `parts`
    // stage, the suffix is re-optimized with refreshed profiles, and
    // the over-fetched `offers` factor collapses
    let out = engine
        .run_adaptive(QUERY, 10, &AdaptiveConfig::default())
        .expect("adaptive run executes");
    println!("== adaptive execution ==");
    for ev in &out.report.events {
        println!(
            "re-plan after {} stage(s): {} drifted {:.0}× past the estimates",
            ev.after_stages,
            ev.services.join(", "),
            ev.worst_ratio
        );
    }
    let adaptive_calls: u64 = out.report.calls.values().sum();
    println!(
        "{} re-plan(s), {} answers, {} forwarded calls",
        out.report.replans,
        out.answers().len(),
        adaptive_calls
    );

    println!("\n== the corrected plan, under the observed statistics ==");
    engine.seed_profiles_from_observed(&out.report.observed, 1);
    let fresh_ann = Estimator::new(engine.schema(), &sel, CacheSetting::Optimal)
        .annotate(&out.report.final_plan);
    println!(
        "{}",
        explain(&out.report.final_plan, engine.schema(), &fresh_ann)
    );

    // the serving layer: an adaptive server corrects the template once
    // and publishes the better plan under its fingerprint — the second
    // submission is a plan-cache hit needing no further re-plans
    let c = catalog_world(true);
    let server = QueryServer::new(
        Mdq::from_world(c.world),
        RuntimeConfig {
            adaptive: Some(AdaptiveConfig::default()),
            ..RuntimeConfig::default()
        },
    );
    let first = server.submit(QUERY, Some(10)).collect().expect("runs");
    let second = server.submit(QUERY, Some(10)).collect().expect("runs");
    println!("== adaptive server ==");
    println!(
        "first submission: {} re-plan(s); second: plan-cache hit = {}, {} re-plans",
        first.stats.replans, second.stats.plan_cache_hit, second.stats.replans
    );
    println!("{}", server.metrics());
    server.shutdown();
}
