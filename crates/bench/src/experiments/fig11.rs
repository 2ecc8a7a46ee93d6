//! Figure 11 — calls per service and total times for plans S / P / O
//! under the three cache settings, plus the §6 multithreading test.
//!
//! S, P and O are the paper's three measured plans (Fig. 7a, 7c, 7d):
//!
//! * **S** — serial: conf → weather → flight → hotel;
//! * **P** — parallel: conf → {weather ∥ flight ∥ hotel};
//! * **O** — optimal: conf → weather → {flight ∥ hotel}.
//!
//! Call counts are exact reproductions (the §6 cardinalities pin them
//! down); times come from the virtual-time engine and reproduce the
//! paper's *shape* (O < S < P; caching helps S's calls dramatically but
//! its time only modestly, because repeat hotel calls are served by the
//! provider's own cache).

use mdq_exec::cache::CacheSetting;
use mdq_exec::pipeline::{run, ExecConfig, ExecReport, StageModel};
use mdq_exec::ExecContext;
use mdq_model::binding::ApChoice;
use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
use mdq_plan::builder::{build_plan, StrategyRule};
use mdq_plan::dag::Plan;
use mdq_plan::poset::Poset;
use mdq_services::domains::travel::{travel_world, TravelWorld};
use std::fmt::Write as _;
use std::sync::Arc;

/// The three measured plans of §6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanShape {
    /// Fig. 7(a): the serial chain.
    S,
    /// Fig. 7(c): everything parallel after conf.
    P,
    /// Fig. 7(d): the analytically optimal plan.
    O,
}

impl PlanShape {
    /// All shapes, in the paper's order.
    pub const ALL: [PlanShape; 3] = [PlanShape::S, PlanShape::P, PlanShape::O];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PlanShape::S => "S",
            PlanShape::P => "P",
            PlanShape::O => "O",
        }
    }
}

/// Builds the plan of the given shape over the travel world (α1
/// patterns, as in the paper's experiment).
pub fn build_shape(world: &TravelWorld, shape: PlanShape) -> Plan {
    let pairs: Vec<(usize, usize)> = match shape {
        PlanShape::S => vec![
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_FLIGHT, ATOM_HOTEL),
        ],
        PlanShape::P => vec![
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_CONF, ATOM_FLIGHT),
            (ATOM_CONF, ATOM_HOTEL),
        ],
        PlanShape::O => vec![
            (ATOM_CONF, ATOM_WEATHER),
            (ATOM_WEATHER, ATOM_FLIGHT),
            (ATOM_WEATHER, ATOM_HOTEL),
        ],
    };
    let poset = Poset::from_pairs(4, &pairs).expect("plan shapes are acyclic");
    build_plan(
        Arc::new(world.query.clone()),
        &world.schema,
        ApChoice(vec![0, 0, 0, 0]),
        poset,
        (0..4).collect(),
        &StrategyRule::default(),
    )
    .expect("plan shapes are admissible")
}

/// One cell of the Fig. 11 matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig11Cell {
    /// Calls forwarded to weather.
    pub weather: u64,
    /// Calls forwarded to flight.
    pub flight: u64,
    /// Calls forwarded to hotel.
    pub hotel: u64,
    /// Virtual execution time, seconds.
    pub time: f64,
    /// Number of query answers produced.
    pub answers: usize,
}

/// The paper's reported call counts, indexed `[cache][shape]` in the
/// order (no-cache, one-call, optimal) × (S, P, O).
pub const PAPER_CALLS: [[(u64, u64, u64); 3]; 3] = [
    // (weather, flight, hotel)
    [(71, 16, 284), (71, 71, 71), (71, 16, 16)], // no cache
    [(71, 16, 15), (71, 71, 71), (71, 16, 16)],  // one-call cache
    [(54, 11, 10), (54, 54, 54), (54, 11, 11)],  // optimal cache
];

/// The paper's reported total times (seconds), same indexing.
const PAPER_TIMES: [[f64; 3]; 3] = [
    [374.0, 596.0, 218.0],
    [266.0, 598.0, 219.0],
    [176.0, 512.0, 155.0],
];

/// Runs one cell on a fresh world (provider-side caches reset between
/// cells, as the paper's repeated test runs would).
pub fn run_cell(seed: u64, shape: PlanShape, cache: CacheSetting) -> Fig11Cell {
    let world = travel_world(seed);
    let plan = build_shape(&world, shape);
    let report = run(
        &plan,
        &world.schema,
        &world.registry,
        &ExecConfig::default(),
        ExecContext::private(cache),
    )
    .expect("travel plans execute");
    cell_from(&world, &report)
}

fn cell_from(world: &TravelWorld, report: &ExecReport) -> Fig11Cell {
    Fig11Cell {
        weather: report.calls_to(world.ids.weather),
        flight: report.calls_to(world.ids.flight),
        hotel: report.calls_to(world.ids.hotel),
        time: report.virtual_time,
        answers: report.answers.len(),
    }
}

/// The full 3×3 measured matrix, `[cache][shape]`.
pub fn run_matrix(seed: u64) -> [[Fig11Cell; 3]; 3] {
    let mut out = [[Fig11Cell {
        weather: 0,
        flight: 0,
        hotel: 0,
        time: 0.0,
        answers: 0,
    }; 3]; 3];
    for (ci, cache) in CacheSetting::ALL.into_iter().enumerate() {
        for (si, shape) in PlanShape::ALL.into_iter().enumerate() {
            out[ci][si] = run_cell(seed, shape, cache);
        }
    }
    out
}

/// The §6 multithreading experiment: plan S with all available calls
/// dispatched to parallel threads — time collapses, but the one-call
/// cache degrades (284 → ~212 hotel calls) because completion order is
/// randomised.
pub struct ThreadingOutcome {
    /// Sequential one-call hotel calls (the paper's 15–16).
    pub sequential_hotel_calls: u64,
    /// Parallel-dispatch one-call hotel calls (the paper's ~212).
    pub parallel_hotel_calls: u64,
    /// Parallel-dispatch virtual time (the paper's ≈76 s).
    pub parallel_time: f64,
}

/// Runs the multithreading comparison.
pub fn threading_experiment(seed: u64) -> ThreadingOutcome {
    let world = travel_world(seed);
    let plan = build_shape(&world, PlanShape::S);
    let seq = run(
        &plan,
        &world.schema,
        &world.registry,
        &ExecConfig::default(),
        ExecContext::private(CacheSetting::OneCall),
    )
    .expect("executes");
    let world2 = travel_world(seed);
    let plan2 = build_shape(&world2, PlanShape::S);
    let par = run(
        &plan2,
        &world2.schema,
        &world2.registry,
        &ExecConfig {
            k: None,
            stage: StageModel::ParallelDispatch {
                threads: 16,
                spawn_overhead: 0.12,
                shuffle_seed: seed,
            },
        },
        ExecContext::private(CacheSetting::OneCall),
    )
    .expect("executes");
    ThreadingOutcome {
        sequential_hotel_calls: seq.calls_to(world.ids.hotel),
        parallel_hotel_calls: par.calls_to(world2.ids.hotel),
        parallel_time: par.virtual_time,
    }
}

/// Renders the full experiment as text, paper values alongside.
pub fn render(seed: u64) -> String {
    let m = run_matrix(seed);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 11 — calls per service and total time; measured vs (paper)"
    );
    for (ci, cache) in CacheSetting::ALL.into_iter().enumerate() {
        let _ = writeln!(s, "\n[{}]", cache.label());
        let _ = writeln!(
            s,
            "{:<6} {:>14} {:>14} {:>14} {:>20} {:>8}",
            "plan", "weather", "flight", "hotel", "time[s]", "answers"
        );
        for (si, shape) in PlanShape::ALL.into_iter().enumerate() {
            let c = m[ci][si];
            let (pw, pf, ph) = PAPER_CALLS[ci][si];
            let pt = PAPER_TIMES[ci][si];
            let _ = writeln!(
                s,
                "{:<6} {:>8} ({:>3}) {:>8} ({:>3}) {:>8} ({:>3}) {:>12.1} ({:>5.0}) {:>8}",
                shape.label(),
                c.weather,
                pw,
                c.flight,
                pf,
                c.hotel,
                ph,
                c.time,
                pt,
                c.answers
            );
        }
    }
    let t = threading_experiment(seed);
    let _ = writeln!(
        s,
        "\nMultithreading (plan S, one-call cache): hotel calls {} → {} \
         (paper: 16 → 212); parallel time {:.1}s (paper ≈76s)",
        t.sequential_hotel_calls, t.parallel_hotel_calls, t.parallel_time
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline reproduction: every call count of Fig. 11 must match
    /// the paper exactly.
    #[test]
    fn call_counts_match_paper_exactly() {
        let m = run_matrix(2008);
        for (ci, cache) in CacheSetting::ALL.into_iter().enumerate() {
            for (si, shape) in PlanShape::ALL.into_iter().enumerate() {
                let c = m[ci][si];
                let (pw, pf, ph) = PAPER_CALLS[ci][si];
                assert_eq!(
                    (c.weather, c.flight, c.hotel),
                    (pw, pf, ph),
                    "{} plan {} calls",
                    cache.label(),
                    shape.label()
                );
            }
        }
    }

    /// Times reproduce the paper's shape: O < S < P in every cache
    /// setting, and caching never hurts.
    #[test]
    #[allow(clippy::needless_range_loop)] // fixed 3×3 matrix indices
    fn time_shape_matches_paper() {
        let m = run_matrix(2008);
        for ci in 0..3 {
            let (s, p, o) = (m[ci][0].time, m[ci][1].time, m[ci][2].time);
            assert!(o < s, "O faster than S (cache row {ci}): {o} vs {s}");
            assert!(s < p, "S faster than P (cache row {ci}): {s} vs {p}");
        }
        // caching monotonically improves each plan's time
        for si in 0..3 {
            assert!(m[1][si].time <= m[0][si].time + 1e-9);
            assert!(m[2][si].time <= m[1][si].time + 1e-9);
        }
    }

    /// S and P no-cache times land within 2% of the paper's 374 / 596 s
    /// (the calibration derives them from §6's narrative); O is within
    /// 20% (the paper's 218 s implies some pipeline overlap its text
    /// does not fully specify — see EXPERIMENTS.md).
    #[test]
    fn no_cache_times_close_to_paper() {
        let m = run_matrix(2008);
        let s = m[0][0].time;
        let p = m[0][1].time;
        let o = m[0][2].time;
        assert!((s - 374.0).abs() / 374.0 < 0.02, "S = {s}");
        assert!((p - 596.0).abs() / 596.0 < 0.02, "P = {p}");
        assert!((o - 218.0).abs() / 218.0 < 0.20, "O = {o}");
    }

    #[test]
    fn threading_degrades_one_call_cache() {
        let t = threading_experiment(2008);
        assert_eq!(t.sequential_hotel_calls, 15);
        assert!(
            t.parallel_hotel_calls > 150,
            "randomised order defeats the cache: {}",
            t.parallel_hotel_calls
        );
        assert!(
            t.parallel_time < 120.0,
            "parallel dispatch collapses the time: {}",
            t.parallel_time
        );
    }

    #[test]
    fn all_plans_agree_on_answers() {
        let mut sets: Vec<Vec<mdq_model::value::Tuple>> = Vec::new();
        for shape in PlanShape::ALL {
            let world = travel_world(2008);
            let plan = build_shape(&world, shape);
            let report = run(
                &plan,
                &world.schema,
                &world.registry,
                &ExecConfig::default(),
                ExecContext::private(CacheSetting::Optimal),
            )
            .expect("executes");
            let mut answers = report.answers;
            answers.sort();
            sets.push(answers);
        }
        assert_eq!(sets[0], sets[1], "S and P agree");
        assert_eq!(sets[1], sets[2], "P and O agree");
        assert!(!sets[0].is_empty());
    }
}
