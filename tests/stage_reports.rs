//! The stage-mode oracle: every figure of `pipeline::run`'s report,
//! rendered as text, must keep rendering exactly
//! `tests/golden/stage_reports.txt`.
//!
//! Cases: the Fig. 11 matrix (plans S / P / O under the three cache
//! settings), the §6 multithreading run, seeded random travel plans
//! (healthy and under a seeded fault schedule, `Sequential` and
//! `ParallelDispatch`, some truncated to a `k`, some stopped by a call
//! budget) and the adaptive catalog fixture (healthy and faulted, frozen
//! and re-planning). Every case runs at operator batch sizes 1, 7 and
//! 64 — batching is invisible, so the three renders must be one text,
//! which the golden holds once.
//!
//! Per report: the answers in emission order (count, an FNV-1a digest
//! of their rendered lines and the first three), calls and retries per
//! service, the partial-results report, `virtual_time` (`{:?}`, so
//! every bit shows), the re-plans and their events, the final plan and
//! per node `rows_in` / `rows_out` / `calls` / `cached_pages` /
//! `retries` / `candidates` / `sim_seconds`. Batched hops are left out:
//! they are a batching detail. A run that fails renders its error and
//! the calls its shared state forwarded, which pins where it stopped.
//!
//! The golden was recorded at commit `5e1b1b1`, through the
//! stage-by-stage loop `pipeline::run` was then; regenerate it (only
//! when a report is meant to change) with `MDQ_WRITE_GOLDEN=1 cargo test
//! --release --test stage_reports`.

use mdq::model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq::model::rng::Rng;
use mdq::plan::render::to_ascii;
use mdq::prelude::*;
use mdq::services::domains::catalog::{catalog_world, CatalogWorld};
use mdq::services::domains::travel::TravelWorld;
use mdq::services::fault::{FaultConfig, FaultProfile};
use mdq::services::registry::ServiceRegistry;
use mdq_bench::experiments::fig11::{build_shape, PlanShape};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/stage_reports.txt"
);
const BATCHES: [usize; 3] = [1, 7, 64];

/// A random admissible α1 plan over the travel world, drawn as
/// `tests/executor_equivalence.rs` draws them: conf first, a random
/// acyclic set of precedences among the other three, random fetch
/// factors for flight and hotel.
fn random_plan(rng: &mut Rng, world: &TravelWorld) -> Plan {
    let mut pairs = vec![
        (ATOM_CONF, ATOM_WEATHER),
        (ATOM_CONF, ATOM_FLIGHT),
        (ATOM_CONF, ATOM_HOTEL),
    ];
    let mut tail = [ATOM_WEATHER, ATOM_FLIGHT, ATOM_HOTEL];
    rng.shuffle(&mut tail);
    for i in 0..tail.len() {
        for j in (i + 1)..tail.len() {
            if rng.bool(0.5) {
                pairs.push((tail[i], tail[j]));
            }
        }
    }
    let poset = Poset::from_pairs(4, &pairs).expect("acyclic by construction");
    let mut plan = build_plan(
        Arc::new(world.query.clone()),
        &world.schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("conf-first α1 plans are admissible");
    plan.set_fetch(ATOM_FLIGHT, rng.range_u64(1, 4));
    plan.set_fetch(ATOM_HOTEL, rng.range_u64(1, 5));
    plan
}

/// The travel world, every service behind a seeded fault profile when
/// `fault_seed` is set (fresh per run: attempt counters start at zero).
fn travel(fault_seed: Option<u64>) -> TravelWorld {
    let mut w = travel_world(2008);
    if let Some(seed) = fault_seed {
        for id in [w.ids.conf, w.ids.weather, w.ids.flight, w.ids.hotel] {
            let inner = w.registry.get(id).expect("registered").clone();
            let cfg = FaultConfig::seeded(seed ^ id.0 as u64)
                .with_errors(0.10)
                .with_timeouts(0.06)
                .with_rate_limits(0.04)
                .with_spikes(0.05, 3.0);
            w.registry.register(id, FaultProfile::seeded(inner, cfg));
        }
    }
    w
}

/// The mis-estimated catalog world (seeded faults optional) and the plan
/// its stale estimates produce.
fn catalog(fault_seed: Option<u64>) -> (CatalogWorld, Plan) {
    let mut c = catalog_world(true);
    if let Some(seed) = fault_seed {
        for id in [c.ids.seed, c.ids.parts, c.ids.offers] {
            let inner = c.world.registry.get(id).expect("registered").clone();
            let cfg = FaultConfig::seeded(seed ^ id.0 as u64)
                .with_errors(0.08)
                .with_timeouts(0.04);
            c.world
                .registry
                .register(id, FaultProfile::seeded(inner, cfg));
        }
    }
    let plan = optimize(
        Arc::new(c.world.query.clone()),
        &c.world.schema,
        &ExecutionTime,
        &catalog_optimizer(),
    )
    .expect("optimizes")
    .candidate
    .plan;
    (c, plan)
}

fn catalog_optimizer() -> OptimizerConfig {
    OptimizerConfig {
        k: 10,
        cache: mdq::cost::estimate::CacheSetting::Optimal,
        ..OptimizerConfig::default()
    }
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every figure of one report.
fn render_report(out: &mut String, r: &ExecReport, schema: &Schema) {
    let lines: Vec<String> = r.answers.iter().map(|a| a.to_string()).collect();
    let digest = fnv(lines.join("\n").as_bytes());
    let _ = writeln!(out, "answers {} fnv={digest:016x}", lines.len());
    for line in lines.iter().take(3) {
        let _ = writeln!(out, "  {line}");
    }
    let mut ids: Vec<ServiceId> = r
        .calls
        .keys()
        .chain(r.fault_stats.keys())
        .copied()
        .collect();
    ids.sort();
    ids.dedup();
    for id in ids {
        let _ = writeln!(
            out,
            "service {} calls={} retries={}",
            schema.service(id).name,
            r.calls_to(id),
            r.retries_to(id)
        );
    }
    let _ = writeln!(out, "partial {:?}", r.partial);
    let _ = writeln!(out, "virtual_time {:?}", r.virtual_time);
    let _ = writeln!(out, "replans {}", r.replans);
    for e in &r.events {
        let _ = writeln!(
            out,
            "event after_stages={} services={:?} worst_ratio={:?}",
            e.after_stages, e.services, e.worst_ratio
        );
    }
    let _ = writeln!(out, "final plan fetches {:?}", r.final_plan.fetches);
    out.push_str(&to_ascii(&r.final_plan, schema));
    if !out.ends_with('\n') {
        out.push('\n');
    }
    for (i, s) in r.operator_stats.iter().enumerate() {
        let _ = writeln!(
            out,
            "node {i} rows_in={} rows_out={} calls={} cached_pages={} retries={} candidates={} sim_seconds={:?}",
            s.rows_in, s.rows_out, s.calls, s.cached_pages, s.retries, s.candidates, s.sim_seconds
        );
    }
}

/// The outcome of one run: the report, or the error and what the shared
/// state forwarded before it.
fn render_outcome(
    res: Result<ExecReport, ExecError>,
    schema: &Schema,
    registry: &ServiceRegistry,
    state: &SharedServiceState,
) -> String {
    let mut out = String::new();
    match res {
        Ok(r) => render_report(&mut out, &r, schema),
        Err(e) => {
            let _ = writeln!(out, "error {e:?}");
            let ledger = state.ledger();
            let mut ids: Vec<ServiceId> = registry.ids().collect();
            ids.sort();
            for id in ids {
                let _ = writeln!(
                    out,
                    "service {} calls={}",
                    schema.service(id).name,
                    ledger.calls_to(id)
                );
            }
        }
    }
    out
}

/// Runs `case` at every batch size, checks the renders agree and
/// appends the one text under `name`.
fn record(text: &mut String, name: &str, case: impl Fn(usize) -> String) {
    let first = case(BATCHES[0]);
    for &batch in &BATCHES[1..] {
        assert_eq!(
            case(batch),
            first,
            "{name}: batch {batch} renders differently from batch {}",
            BATCHES[0]
        );
    }
    let _ = writeln!(text, "== {name} ==");
    text.push_str(&first);
}

/// A travel-world run of `plan` under `config` on a fresh private state.
fn travel_run(
    plan: &Plan,
    fault_seed: Option<u64>,
    cache: CacheSetting,
    config: ExecConfig,
    budget: Option<u64>,
    batch: usize,
) -> String {
    let w = travel(fault_seed);
    let state = Arc::new(SharedServiceState::new(cache, 0));
    let res = run(
        plan,
        &w.schema,
        &w.registry,
        &config,
        ExecContext {
            budget,
            batch,
            ..ExecContext::shared(Arc::clone(&state))
        },
    );
    render_outcome(res, &w.schema, &w.registry, &state)
}

fn render_all() -> String {
    let mut text = String::new();

    // Fig. 11: plans S / P / O under the three cache settings
    for cache in CacheSetting::ALL {
        for shape in PlanShape::ALL {
            let plan = build_shape(&travel_world(2008), shape);
            let name = format!("fig11 {} {cache:?}", shape.label());
            record(&mut text, &name, |batch| {
                travel_run(&plan, None, cache, ExecConfig::default(), None, batch)
            });
        }
    }

    // §6 multithreading: plan S, one-call cache, parallel dispatch
    let plan_s = build_shape(&travel_world(2008), PlanShape::S);
    let threading = ExecConfig {
        k: None,
        stage: StageModel::ParallelDispatch {
            threads: 16,
            spawn_overhead: 0.12,
            shuffle_seed: 2008,
        },
    };
    record(&mut text, "threading S OneCall", |batch| {
        travel_run(&plan_s, None, CacheSetting::OneCall, threading, None, batch)
    });

    // seeded random travel plans
    let mut rng = Rng::new(0x57A6E);
    for case in 0..8 {
        let cache = *rng.choose(&CacheSetting::ALL).expect("three settings");
        let plan = random_plan(&mut rng, &travel_world(2008));
        let fault_seed = rng.next_u64();
        let k = rng.bool(0.5).then(|| rng.range_u64(1, 40) as usize);
        let threads = *rng.choose(&[0usize, 4, 16]).expect("three counts");
        let shuffle_seed = rng.next_u64();
        let models = [
            StageModel::Sequential,
            StageModel::ParallelDispatch {
                threads,
                spawn_overhead: 0.05,
                shuffle_seed,
            },
        ];
        for faults in [None, Some(fault_seed)] {
            for stage in models {
                let name = format!(
                    "random {case} {cache:?} k={k:?} faults={faults:?} {stage:?} fetches={:?} poset={}",
                    plan.fetches, plan.poset
                );
                let config = ExecConfig { k, stage };
                record(&mut text, &name, |batch| {
                    travel_run(&plan, faults, cache, config, None, batch)
                });
            }
        }
        // a per-query call budget stops the run part-way
        let budget = rng.range_u64(5, 120);
        let name = format!("random {case} {cache:?} budget={budget}");
        record(&mut text, &name, |batch| {
            travel_run(
                &plan,
                None,
                cache,
                ExecConfig::default(),
                Some(budget),
                batch,
            )
        });
    }

    // the adaptive catalog fixture: mis-estimated, healthy and faulted,
    // frozen and re-planning, with and without a k
    for faults in [None, Some(0xAD_A9u64)] {
        for k in [None, Some(10)] {
            for adaptive in [false, true] {
                let name = format!("catalog faults={faults:?} k={k:?} adaptive={adaptive}");
                record(&mut text, &name, |batch| {
                    let (c, plan) = catalog(faults);
                    let state = Arc::new(SharedServiceState::new(CacheSetting::Optimal, 0));
                    let mut replanner = OptimizerReplanner::new(
                        &c.world.schema,
                        &ExecutionTime,
                        catalog_optimizer(),
                    );
                    let res = run(
                        &plan,
                        &c.world.schema,
                        &c.world.registry,
                        &ExecConfig {
                            k,
                            ..ExecConfig::default()
                        },
                        ExecContext {
                            batch,
                            adaptive: adaptive.then(|| {
                                (
                                    AdaptiveConfig::default(),
                                    &mut replanner as &mut dyn Replanner,
                                )
                            }),
                            ..ExecContext::shared(Arc::clone(&state))
                        },
                    );
                    render_outcome(res, &c.world.schema, &c.world.registry, &state)
                });
            }
        }
    }
    text
}

#[test]
fn stage_reports_render_the_golden_text() {
    let text = render_all();
    if std::env::var_os("MDQ_WRITE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, text).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    for (n, (want, got)) in golden.lines().zip(text.lines()).enumerate() {
        assert_eq!(want, got, "line {} differs from the golden file", n + 1);
    }
    assert_eq!(golden, text, "render length differs from the golden file");
}
