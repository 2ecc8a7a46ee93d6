//! Benches for the executors: the three cache settings on the travel
//! world (Fig. 11's workload) and the pull-based top-k path.

use mdq_bench::experiments::fig11::{build_shape, PlanShape};
use mdq_bench::harness::Bench;
use mdq_exec::cache::CacheSetting;
use mdq_exec::pipeline::{run, ExecConfig};
use mdq_exec::topk::TopKExecution;
use mdq_exec::ExecContext;
use mdq_services::domains::travel::travel_world;

fn main() {
    let bench = Bench::from_args();

    for cache in CacheSetting::ALL {
        bench.measure(&format!("executor/plan-O/cache/{cache:?}"), || {
            // fresh world per iteration: provider caches reset
            let w = travel_world(2008);
            let plan = build_shape(&w, PlanShape::O);
            run(
                &plan,
                &w.schema,
                &w.registry,
                &ExecConfig { k: None },
                ExecContext::private(cache),
            )
            .expect("executes")
        });
    }

    for shape in PlanShape::ALL {
        bench.measure(
            &format!("executor/shapes/one-call/{}", shape.label()),
            || {
                let w = travel_world(2008);
                let plan = build_shape(&w, shape);
                run(
                    &plan,
                    &w.schema,
                    &w.registry,
                    &ExecConfig { k: None },
                    ExecContext::private(CacheSetting::OneCall),
                )
                .expect("executes")
            },
        );
    }

    for k in [1usize, 10, 100] {
        bench.measure(&format!("executor/topk/pull/{k}"), || {
            let w = travel_world(2008);
            let plan = build_shape(&w, PlanShape::O);
            let mut pull = TopKExecution::start(
                &plan,
                &w.schema,
                &w.registry,
                ExecContext::private(CacheSetting::OneCall),
            )
            .expect("builds");
            pull.answers(k).len()
        });
    }

    bench.write_json("executor");
}
