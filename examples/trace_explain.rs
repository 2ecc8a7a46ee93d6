//! End-to-end observability: run the running example traced, print
//! EXPLAIN (the Fig. 8 estimates) next to EXPLAIN ANALYZE (what the
//! execution actually did, per operator), dump the metrics snapshot
//! with its histograms, and write the span trace as Chrome
//! `trace_event` JSON — load `target/trace_explain.trace.json` in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --example trace_explain
//! ```

use mdq::model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq::prelude::*;
use mdq::services::domains::travel::travel_world;
use std::sync::Arc;

fn main() {
    let w = travel_world(2008);
    // Plan O: conf → weather → {flight ∥ hotel} (Fig. 7(d))
    let poset = Poset::from_pairs(
        4,
        &[
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_WEATHER, ATOM_HOTEL),
        ],
    )
    .expect("valid");
    let plan = build_plan(
        Arc::new(w.query.clone()),
        &w.schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("builds");

    // the estimates the optimizer priced the plan with…
    let sel = SelectivityModel::default();
    let ann = Estimator::new(&w.schema, &sel, CacheSetting::Optimal).annotate(&plan);
    println!("EXPLAIN (estimates):\n");
    println!("{}", explain(&plan, &w.schema, &ann));

    // …and the traced execution that checks them against reality
    let recorder = TraceRecorder::new();
    let shared = Arc::new(
        SharedServiceState::new(CacheSetting::Optimal, 0).with_trace(Arc::clone(&recorder)),
    );
    let report = run(
        &plan,
        &w.schema,
        &w.registry,
        &ExecConfig::default(),
        ExecContext::shared(shared),
    )
    .expect("the running example executes");

    println!("EXPLAIN ANALYZE (observed):\n");
    println!(
        "{}",
        explain_analyze(&plan, &w.schema, &ann, &report.operator_stats)
    );
    println!(
        "{} answers · {} spans on {} tracks",
        report.answers.len(),
        recorder.event_count(),
        recorder.tracks().len()
    );

    let path = std::path::Path::new("target").join("trace_explain.trace.json");
    std::fs::create_dir_all("target").expect("target dir");
    std::fs::write(&path, chrome_trace_json(&recorder)).expect("trace written");
    println!(
        "\nwrote {} — load it in chrome://tracing or https://ui.perfetto.dev",
        path.display()
    );
}
