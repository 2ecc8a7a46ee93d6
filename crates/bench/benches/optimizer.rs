//! Benches for the three-phase optimizer: full branch and bound vs
//! blind enumeration vs the exhaustive oracle, per metric — plus the
//! search's exact costing-effort counters as gauges, so a change that
//! makes the optimizer price more (or build more plans) shows as a
//! number that does not depend on the machine. Two searches also
//! report the heap allocations (and bytes requested) of one run,
//! counted by this target's global allocator.
//!
//! `optimize/scale/{chain,star,clique}-n` sweep the synthetic bodies of
//! `mdq_model::examples::scale_body` from 2 atoms up to each shape's
//! *knee* — the first `n` where one search took over 1 s on a 2-core
//! x86-64 box (chain 8, star 7, clique 7) — with the same effort and
//! allocation gauges per entry. Those searches are slow, so a name
//! filter that leaves an entry out skips its gauges too.

use mdq_bench::harness::{count_allocations, Bench, CountingAlloc};
use mdq_cost::estimate::CacheSetting;
use mdq_cost::metrics::{ExecutionTime, RequestResponse, SumCost};
use mdq_cost::selectivity::SelectivityModel;
use mdq_model::examples::{running_example_query, running_example_schema, scale_body, ScaleShape};
use mdq_model::parser::parse_query;
use mdq_optimizer::bnb::{optimize, Optimized, OptimizerConfig};
use mdq_optimizer::context::{CostContext, CostingEffort};
use mdq_optimizer::exhaustive::exhaustive_optimum;
use mdq_plan::builder::StrategyRule;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records the costing effort of one `optimize` run under `name`.
fn effort_gauges(bench: &Bench, name: &str, effort: CostingEffort) {
    for (what, count, unit) in [
        ("plans-built", effort.plans_built, "plans"),
        ("plans-prepared", effort.plans_prepared, "plans"),
        ("evaluations", effort.evaluations, "vectors"),
        ("prefix-signings", effort.prefix_signings, "plans"),
    ] {
        bench.gauge(&format!("{name}/{what}"), count as u64, unit);
    }
}

/// Records the heap allocations and bytes requested by one `run` under
/// `name` (the bench is single-threaded, so the counters see only it),
/// and returns what it optimized.
fn allocation_gauges(bench: &Bench, name: &str, run: impl FnOnce() -> Optimized) -> Optimized {
    let (out, allocations, bytes) = count_allocations(run);
    bench.gauge(&format!("{name}/allocations"), allocations, "allocations");
    bench.gauge(&format!("{name}/alloc-bytes"), bytes, "bytes");
    out
}

fn main() {
    let bench = Bench::from_args();

    let schema = running_example_schema();
    let query = Arc::new(running_example_query(&schema));

    // The end-to-end benchmark's `cold_templates` op (benchmark/): a
    // never-seen travel template, k = 5, ETM, one-call cache.
    {
        let template = parse_query(
            "q(Conf, City, HPrice, FPrice, Hotel) :- \
             flight('Milano', City, Start, End, ST, ET, FPrice), \
             hotel(Hotel, City, 'luxury', Start, End, HPrice), \
             conf('DB', Conf, Start, End, City), \
             weather(City, Temp, Start), \
             Start >= '2007/3/14', End <= '2007/3/14' + 180, \
             Temp >= 28, FPrice + HPrice < 1000.5.",
            &schema,
        )
        .expect("template parses");
        let template = Arc::new(template);
        let config = OptimizerConfig {
            k: 5,
            ..OptimizerConfig::default()
        };
        let run = || {
            optimize(Arc::clone(&template), &schema, &ExecutionTime, &config).expect("optimizes")
        };
        bench.measure("optimize/travel/cold-template/etm-k5", run);
        effort_gauges(
            &bench,
            "optimize/travel/cold-template/etm-k5",
            run().stats.costing,
        );
        allocation_gauges(&bench, "optimize/travel/cold-template/etm-k5", run);
    }
    for (name, metric) in [
        ("etm", &ExecutionTime as &dyn mdq_cost::metrics::CostMetric),
        ("rrm", &RequestResponse),
        (
            "scm",
            &SumCost {
                join_cost_per_pair: 0.0,
            },
        ),
    ] {
        let run = || {
            optimize(
                Arc::clone(&query),
                &schema,
                metric,
                &OptimizerConfig::default(),
            )
            .expect("optimizes")
        };
        bench.measure(&format!("optimize/travel/bnb/{name}"), run);
        effort_gauges(
            &bench,
            &format!("optimize/travel/bnb/{name}"),
            run().stats.costing,
        );
        if name == "etm" {
            allocation_gauges(&bench, "optimize/travel/bnb/etm", run);
        }
    }
    bench.measure("optimize/travel/bnb/etm-no-bounds", || {
        optimize(
            Arc::clone(&query),
            &schema,
            &ExecutionTime,
            &OptimizerConfig {
                use_bounds: false,
                ..OptimizerConfig::default()
            },
        )
        .expect("optimizes")
    });

    {
        let sel = SelectivityModel::default();
        let metric = ExecutionTime;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let strategy = StrategyRule::default();
        bench.measure("optimize/oracle/exhaustive-cap8", || {
            exhaustive_optimum(&query, &ctx, &strategy, 10.0, 8).expect("finds")
        });
    }

    // The scaling sweep: one search per body, ETM, the default config.
    for (shape, knee) in [
        (ScaleShape::Chain, 8),
        (ScaleShape::Star, 7),
        (ScaleShape::Clique, 7),
    ] {
        for n in 2..=knee {
            let name = format!("optimize/scale/{}-{n}", shape.name());
            if !bench.selects(&name) {
                continue;
            }
            let (schema, query) = scale_body(shape, n);
            let query = Arc::new(query);
            let config = OptimizerConfig::default();
            let run = || {
                optimize(Arc::clone(&query), &schema, &ExecutionTime, &config)
                    .expect("scale bodies optimize")
            };
            bench.measure(&name, run);
            let out = allocation_gauges(&bench, &name, run);
            effort_gauges(&bench, &name, out.stats.costing);
        }
    }

    bench.measure("phase1/permissible-sequences", || {
        mdq_model::binding::permissible_sequences(&query, &schema)
    });
    bench.measure("phase2/enumerate-19-topologies", || {
        let choice = mdq_model::binding::ApChoice(vec![0, 0, 0, 0]);
        let suppliers = mdq_model::binding::SupplierMap::build(&query, &schema, &choice);
        mdq_plan::poset::all_topologies(4, &suppliers)
    });

    bench.write_json("optimizer");
}
