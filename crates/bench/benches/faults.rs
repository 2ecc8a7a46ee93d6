//! Overhead of the fault model: the running example's plan O executed
//! over (a) healthy services, (b) fault-wrapped but never-faulting
//! services (pure wrapper overhead), (c) flaky services absorbed by
//! retries, and (d) a permanently degraded service resolved through
//! the failed-page memo.
//!
//! Emits `BENCH_faults.json` at the workspace root.

use mdq_bench::harness::Bench;
use mdq_exec::cache::CacheSetting;
use mdq_exec::pipeline::{run, ExecConfig};
use mdq_exec::ExecContext;
use mdq_model::binding::ApChoice;
use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq_plan::builder::{build_plan, StrategyRule};
use mdq_plan::dag::Plan;
use mdq_plan::poset::Poset;
use mdq_services::domains::travel::{travel_world, TravelWorld};
use mdq_services::fault::{FaultConfig, FaultPlan, FaultProfile, PlannedFault};
use std::sync::Arc;

fn plan_o(world: &TravelWorld) -> Plan {
    let poset = Poset::from_pairs(
        4,
        &[
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_WEATHER, ATOM_HOTEL),
        ],
    )
    .expect("valid");
    build_plan(
        Arc::new(world.query.clone()),
        &world.schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("builds")
}

fn execute(world: &TravelWorld, plan: &Plan) -> usize {
    run(
        plan,
        &world.schema,
        &world.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::Optimal),
    )
    .expect("executes")
    .answers
    .len()
}

fn wrap_seeded(world: &mut TravelWorld, error_rate: f64) {
    let ids = [
        world.ids.conf,
        world.ids.weather,
        world.ids.flight,
        world.ids.hotel,
    ];
    for id in ids {
        let inner = world.registry.get(id).expect("registered").clone();
        let cfg = FaultConfig::seeded(0xBE7C ^ id.0 as u64).with_errors(error_rate);
        world
            .registry
            .register(id, FaultProfile::seeded(inner, cfg));
    }
}

fn main() {
    let bench = Bench::from_args();

    // (a) healthy baseline
    bench.measure("faults/plan-o/healthy", || {
        let w = travel_world(2008);
        let plan = plan_o(&w);
        execute(&w, &plan)
    });

    // (b) wrapped at rate 0: pure FaultProfile + try_fetch overhead
    bench.measure("faults/plan-o/wrapped-never-faults", || {
        let mut w = travel_world(2008);
        wrap_seeded(&mut w, 0.0);
        let plan = plan_o(&w);
        execute(&w, &plan)
    });

    // (c) 10% errors, absorbed by the default 2-retry policy
    bench.measure("faults/plan-o/flaky-10pct-retried", || {
        let mut w = travel_world(2008);
        wrap_seeded(&mut w, 0.10);
        let plan = plan_o(&w);
        execute(&w, &plan)
    });

    // (d) one dead service: every page exhausts retries once, later
    // demands resolve through the failed-page memo
    bench.measure("faults/plan-o/dead-hotel-degraded", || {
        let mut w = travel_world(2008);
        let hotel = w.ids.hotel;
        let inner = w.registry.get(hotel).expect("hotel").clone();
        w.registry.register(
            hotel,
            FaultProfile::scripted(inner, FaultPlan::new().fail_always(PlannedFault::Error)),
        );
        let plan = plan_o(&w);
        execute(&w, &plan)
    });

    bench.write_json("faults");
}
