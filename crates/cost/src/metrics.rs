//! Cost metrics over annotated plans (§2.3, §5.3).
//!
//! All metrics are *monotonic* with respect to the way plans are
//! constructed (§2.4): extending a plan with further nodes, or increasing
//! a fetch factor, never decreases its cost. This is the property the
//! branch-and-bound optimizer relies on — the cost of a partially
//! constructed plan lower-bounds the cost of all its completions — and it
//! is property-tested in this crate and in the optimizer.
//!
//! Pricing allocates nothing: the optimizer prices every candidate of a
//! search in place, in the costing workspace its `CostContext` owns for
//! that search alone, and the path metrics (execution time,
//! time-to-screen) walk root-to-sink paths on the call stack rather than
//! collecting [`Plan::paths`]. The walk visits the same paths in the
//! same order and sums each path's τ in path order, and `max` does not
//! depend on order, so the costs are bit-identical to those over the
//! collected paths (tested against that definition).

use crate::estimate::Annotation;
use mdq_model::schema::Schema;
use mdq_plan::dag::{NodeId, NodeKind, Plan};

/// A cost metric: maps an annotated plan to a non-negative cost.
pub trait CostMetric {
    /// Short display name (`SCM`, `ETM`, …).
    fn name(&self) -> &'static str;

    /// The cost of `plan` under annotation `ann`.
    fn cost(&self, plan: &Plan, ann: &Annotation, schema: &Schema) -> f64;
}

/// Per-node work of an invoke node: `F_n · calls_n · τ_n`
/// (the `F_n · t^in_n · τ_n` term of Eq. 4, with `t^in` refined to the
/// cache-aware call count per §5.3's closing remark). `τ` is the
/// *effective* response time — inflated by the expected attempts per
/// successful call when the profiler observed a failure rate — so
/// re-planning penalizes flaky services.
fn node_work(plan: &Plan, ann: &Annotation, schema: &Schema, idx: usize) -> f64 {
    match plan.nodes[idx].kind {
        NodeKind::Invoke { atom } => {
            let sig = schema.service(plan.query.atoms[atom].service);
            let pos = plan.invoked_position(atom);
            plan.fetch_of(pos) as f64 * ann.calls[idx] * sig.profile.effective_response_time()
        }
        _ => 0.0,
    }
}

/// Effective response time τ of the service behind a node (0 for
/// non-invoke nodes); failure-rate inflated like [`node_work`].
fn node_tau(plan: &Plan, schema: &Schema, idx: usize) -> f64 {
    match plan.nodes[idx].kind {
        NodeKind::Invoke { atom } => schema
            .service(plan.query.atoms[atom].service)
            .profile
            .effective_response_time(),
        _ => 0.0,
    }
}

/// The last node of a root-to-sink path being walked, linked back to
/// the rest of the path, with its τ and (for the execution-time metric)
/// its work, read once when the walk reaches it.
struct PathEnd<'p> {
    node: usize,
    /// [`node_tau`] of `node`.
    tau: f64,
    /// [`node_work`] of `node` (0 when the metric reads no work).
    work: f64,
    /// Σ τ over the path so far, summed from the root in path order
    /// (as `Iterator::sum` would sum the path).
    tau_sum: f64,
    prev: Option<&'p PathEnd<'p>>,
}

impl PathEnd<'_> {
    /// The path's nodes, last first.
    fn path(&self) -> impl Iterator<Item = &PathEnd<'_>> + '_ {
        std::iter::successors(Some(self), |end| end.prev)
    }
}

/// The maximum of `price` over every root-to-sink path of `plan` (0 for
/// none) — the paths [`Plan::paths`] lists, walked depth first in the
/// same order with the path kept on the call stack, so pricing a plan
/// allocates nothing. Each node's τ — and, given `ann`, its work — is
/// read once per path prefix that reaches it, not once per path. Each
/// path's τ sum is accumulated in path order and `max` ignores order, so
/// every figure is bit-equal to pricing the collected paths.
fn slowest_path(
    plan: &Plan,
    schema: &Schema,
    ann: Option<&Annotation>,
    price: &dyn Fn(&PathEnd<'_>) -> f64,
) -> f64 {
    fn walk(
        plan: &Plan,
        schema: &Schema,
        ann: Option<&Annotation>,
        price: &dyn Fn(&PathEnd<'_>) -> f64,
        end: &PathEnd<'_>,
    ) -> f64 {
        let mut slowest = None;
        for next in plan.consumers(NodeId(end.node)) {
            let tau = node_tau(plan, schema, next.0);
            let next = PathEnd {
                node: next.0,
                tau,
                work: ann.map_or(0.0, |ann| node_work(plan, ann, schema, next.0)),
                tau_sum: end.tau_sum + tau,
                prev: Some(end),
            };
            let path = walk(plan, schema, ann, price, &next);
            slowest = Some(slowest.map_or(path, |s: f64| s.max(path)));
        }
        slowest.unwrap_or_else(|| price(end))
    }
    let input = plan.input_node().0;
    let tau = node_tau(plan, schema, input);
    // `Iterator::sum` over `f64` starts from -0.0
    let root = PathEnd {
        node: input,
        tau,
        work: ann.map_or(0.0, |ann| node_work(plan, ann, schema, input)),
        tau_sum: -0.0 + tau,
        prev: None,
    };
    f64::max(0.0, walk(plan, schema, ann, price, &root))
}

/// Number of billable requests issued by a node: `F_n · calls_n`.
fn node_requests(plan: &Plan, ann: &Annotation, idx: usize) -> f64 {
    match plan.nodes[idx].kind {
        NodeKind::Invoke { atom } => {
            let pos = plan.invoked_position(atom);
            plan.fetch_of(pos) as f64 * ann.calls[idx]
        }
        _ => 0.0,
    }
}

/// **Sum cost metric** (Eq. 3): `Σ m(n) · F_n · calls_n`, plus an optional
/// per-candidate-pair charge for join computation (§2.3 lists join
/// computation as an example of operator cost; it defaults to 0, matching
/// the paper's experiments where network transfer dominates).
#[derive(Clone, Copy, Debug, Default)]
pub struct SumCost {
    /// Cost charged per candidate pair scanned by each join node.
    pub join_cost_per_pair: f64,
}

impl CostMetric for SumCost {
    fn name(&self) -> &'static str {
        "SCM"
    }

    fn cost(&self, plan: &Plan, ann: &Annotation, schema: &Schema) -> f64 {
        plan.nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match node.kind {
                NodeKind::Invoke { atom } => {
                    let sig = schema.service(plan.query.atoms[atom].service);
                    node_requests(plan, ann, i) * sig.profile.invocation_cost
                }
                NodeKind::Join { .. } => self.join_cost_per_pair * ann.t_in[i],
                _ => 0.0,
            })
            .sum()
    }
}

/// **Request-response metric** (§2.3): the special case of the sum cost
/// metric counting service invocations with unit cost — relevant when
/// network transfer dominates.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestResponse;

impl CostMetric for RequestResponse {
    fn name(&self) -> &'static str {
        "RRM"
    }

    fn cost(&self, plan: &Plan, ann: &Annotation, _schema: &Schema) -> f64 {
        (0..plan.nodes.len())
            .map(|i| node_requests(plan, ann, i))
            .sum()
    }
}

/// **Execution time metric** (Eq. 4): for each input→output path, the
/// bottleneck node's total work plus the time to fill/drain the pipe
/// (one τ per other node on the path); the plan cost is the slowest path.
///
/// Implementation note: Eq. 4 as literally written — "work of the node
/// with maximal work, plus Σ τ over the *other* path nodes" — is **not
/// monotone in the fetch factors**: when growing some `F` shifts the
/// work-maximum onto a node with a large τ, that τ leaves the fill term
/// and the total can *decrease*, contradicting the paper's §5.3 claim
/// that the metric is monotonic (and breaking branch-and-bound
/// soundness; our oracle property test caught exactly this). We
/// therefore evaluate the equivalent *candidate-bottleneck* form
///
/// ```text
/// ETM(P) = max over n ∈ P of ( F_n · t_in_n · τ_n  +  Σ_{m ∈ P} τ_m − τ_n )
/// ```
///
/// which is monotone in every `F` and in plan extension, and coincides
/// with the literal Eq. 4 whenever the bottleneck's work dominates its
/// own τ — in particular on every number worked out in the paper
/// (Example 5.1, Fig. 8).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecutionTime;

impl CostMetric for ExecutionTime {
    fn name(&self) -> &'static str {
        "ETM"
    }

    fn cost(&self, plan: &Plan, ann: &Annotation, schema: &Schema) -> f64 {
        slowest_path(plan, schema, Some(ann), &|end| {
            end.path()
                .map(|node| node.work + end.tau_sum - node.tau)
                .fold(end.tau_sum, f64::max)
        })
    }
}

/// **Bottleneck cost metric** (§2.3, after Srivastava et al. \[16\]): the
/// total work of the single slowest node — the steady-state rate limit of
/// a pipelined execution of a continuous query. The paper argues it is
/// *not* appropriate for top-k multi-domain queries (search services never
/// produce all their tuples); it is implemented as the comparison
/// baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bottleneck;

impl CostMetric for Bottleneck {
    fn name(&self) -> &'static str {
        "BCM"
    }

    fn cost(&self, plan: &Plan, ann: &Annotation, schema: &Schema) -> f64 {
        (0..plan.nodes.len())
            .map(|i| node_work(plan, ann, schema, i))
            .fold(0.0, f64::max)
    }
}

/// **Time-to-screen metric** (§2.3): expected time until the *first*
/// output tuple, modelled as the slowest input→output path crossed once
/// (one response time per service on the path — the pipe must fill before
/// anything reaches the screen).
#[derive(Clone, Copy, Debug, Default)]
struct TimeToScreen;

impl CostMetric for TimeToScreen {
    fn name(&self) -> &'static str {
        "TTS"
    }

    fn cost(&self, plan: &Plan, _ann: &Annotation, schema: &Schema) -> f64 {
        slowest_path(plan, schema, None, &|end| end.tau_sum)
    }
}

/// The metrics discussed in the paper, boxed for table-driven harnesses.
pub fn all_metrics() -> Vec<Box<dyn CostMetric>> {
    vec![
        Box::new(SumCost::default()),
        Box::new(RequestResponse),
        Box::new(ExecutionTime),
        Box::new(Bottleneck),
        Box::new(TimeToScreen),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{CacheSetting, Estimator};
    use crate::selectivity::SelectivityModel;
    use crate::test_fixtures::{fig6_poset, fig7a_serial_poset, running_example, RunningExample};
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};
    use mdq_plan::builder::{build_plan, StrategyRule};
    use mdq_plan::poset::Poset;
    use std::sync::Arc;

    fn make_plan(poset: Poset, fetches: &[(usize, u64)]) -> (Plan, Schema) {
        let RunningExample { schema, query } = running_example();
        let mut plan = build_plan(
            Arc::new(query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        for &(pos, f) in fetches {
            plan.set_fetch(pos, f);
        }
        (plan, schema)
    }

    fn cost_of<M: CostMetric + ?Sized>(
        m: &M,
        plan: &Plan,
        schema: &Schema,
        cache: CacheSetting,
    ) -> f64 {
        let sel = SelectivityModel::default();
        let ann = Estimator::new(schema, &sel, cache).annotate(plan);
        m.cost(plan, &ann, schema)
    }

    /// Example 5.1: ETM of the serial plan =
    /// F_hotel · ξ_conf · ξ_weather · τ_hotel + τ_conf + τ_flight + τ_weather.
    #[test]
    fn example_51_serial_etm() {
        let (plan, schema) = make_plan(fig7a_serial_poset(), &[(ATOM_FLIGHT, 1), (ATOM_HOTEL, 8)]);
        // F_hotel = 8 makes hotel the bottleneck (8·1·4.9 = 39.2 > 9.7)
        let etm = cost_of(&ExecutionTime, &plan, &schema, CacheSetting::OneCall);
        let expect = 8.0 * 1.0 * 4.9 + 1.2 + 9.7 + 1.5;
        assert!(
            (etm - expect).abs() < 1e-9,
            "ETM = {etm}, expected {expect}"
        );
    }

    /// Fig. 8's plan under ETM: the flight path is the slowest; on it the
    /// bottleneck node is weather (20 calls · 1.5 s = 30 > flight's
    /// 3 · 1 · 9.7 = 29.1), so ETM = 30 + τ_conf + τ_flight = 40.9.
    #[test]
    fn fig8_plan_etm() {
        let (plan, schema) = make_plan(fig6_poset(), &[(ATOM_FLIGHT, 3), (ATOM_HOTEL, 4)]);
        let etm = cost_of(&ExecutionTime, &plan, &schema, CacheSetting::OneCall);
        let expect = 20.0 * 1.5 + 1.2 + 9.7;
        assert!(
            (etm - expect).abs() < 1e-9,
            "ETM = {etm}, expected {expect}"
        );
    }

    #[test]
    fn request_response_counts_fetches() {
        let (plan, schema) = make_plan(fig6_poset(), &[(ATOM_FLIGHT, 3), (ATOM_HOTEL, 4)]);
        let rrm = cost_of(&RequestResponse, &plan, &schema, CacheSetting::OneCall);
        // conf 1 + weather 20 + flight 1·3 + hotel 1·4 = 28
        assert!((rrm - 28.0).abs() < 1e-9, "RRM = {rrm}");
        // SCM with unit costs equals RRM
        let scm = cost_of(&SumCost::default(), &plan, &schema, CacheSetting::OneCall);
        assert!((scm - rrm).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_is_max_node_work() {
        let (plan, schema) = make_plan(fig6_poset(), &[(ATOM_FLIGHT, 3), (ATOM_HOTEL, 4)]);
        let bcm = cost_of(&Bottleneck, &plan, &schema, CacheSetting::OneCall);
        // weather: 20 calls · 1.5 = 30 dominates flight 29.1, hotel 19.6
        assert!((bcm - 30.0).abs() < 1e-9, "BCM = {bcm}");
    }

    #[test]
    fn time_to_screen_is_slowest_path_taus() {
        let (plan, schema) = make_plan(fig6_poset(), &[(ATOM_FLIGHT, 3), (ATOM_HOTEL, 4)]);
        let tts = cost_of(&TimeToScreen, &plan, &schema, CacheSetting::OneCall);
        // conf + weather + flight = 1.2 + 1.5 + 9.7 = 12.4 (hotel path is 7.6)
        assert!((tts - 12.4).abs() < 1e-9, "TTS = {tts}");
        // serial plan must be strictly slower to first tuple
        let (serial, schema2) = make_plan(fig7a_serial_poset(), &[]);
        let tts_serial = cost_of(&TimeToScreen, &serial, &schema2, CacheSetting::OneCall);
        assert!(
            (tts_serial - 17.3).abs() < 1e-9,
            "TTS serial = {tts_serial}"
        );
        assert!(tts_serial > tts);
    }

    /// Monotonicity in fetch factors: increasing any F never decreases any
    /// metric (the phase-3 branch-and-bound invariant).
    #[test]
    fn metrics_monotone_in_fetches() {
        for metric in all_metrics() {
            let (plan_small, schema) =
                make_plan(fig6_poset(), &[(ATOM_FLIGHT, 2), (ATOM_HOTEL, 3)]);
            let (plan_big, _) = make_plan(fig6_poset(), &[(ATOM_FLIGHT, 3), (ATOM_HOTEL, 3)]);
            for cache in CacheSetting::ALL {
                let a = cost_of(metric.as_ref(), &plan_small, &schema, cache);
                let b = cost_of(metric.as_ref(), &plan_big, &schema, cache);
                assert!(
                    b >= a - 1e-12,
                    "{} not monotone under {cache:?}: {a} -> {b}",
                    metric.name()
                );
            }
        }
    }

    /// Monotonicity in plan extension: a prefix plan costs no more than
    /// its completion (the phase-2 branch-and-bound invariant).
    #[test]
    fn metrics_monotone_in_plan_extension() {
        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        // prefix: conf → weather, completion: Fig. 6
        let prefix = build_plan(
            Arc::clone(&query),
            &schema,
            choice.clone(),
            Poset::from_pairs(2, &[(0, 1)]).expect("valid"),
            vec![ATOM_CONF, ATOM_WEATHER],
            &StrategyRule::default(),
        )
        .expect("prefix builds");
        let full = build_plan(
            Arc::clone(&query),
            &schema,
            choice,
            fig6_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("full builds");
        let sel = SelectivityModel::default();
        for metric in all_metrics() {
            for cache in CacheSetting::ALL {
                let est = Estimator::new(&schema, &sel, cache);
                let a = metric.cost(&prefix, &est.annotate(&prefix), &schema);
                let b = metric.cost(&full, &est.annotate(&full), &schema);
                assert!(
                    b >= a - 1e-12,
                    "{} not monotone under extension ({cache:?}): {a} -> {b}",
                    metric.name()
                );
            }
        }
    }

    /// An observed failure rate inflates a flaky service's effective τ,
    /// so time-based metrics penalize plans that lean on it — the
    /// re-planning half of the fault model.
    #[test]
    fn failure_rate_penalizes_flaky_services() {
        let (plan, mut schema) = make_plan(fig6_poset(), &[(ATOM_FLIGHT, 3), (ATOM_HOTEL, 4)]);
        let base = cost_of(&ExecutionTime, &plan, &schema, CacheSetting::OneCall);
        let weather = schema.service_by_name("weather").expect("weather");
        schema.service_mut(weather).profile.failure_rate = 0.5;
        let flaky = cost_of(&ExecutionTime, &plan, &schema, CacheSetting::OneCall);
        // weather was the bottleneck (30 s work): doubling its expected
        // attempts doubles that work
        assert!(
            flaky > base + 25.0,
            "flaky ETM {flaky} should far exceed healthy {base}"
        );
        // request counting is unaffected: failures change time, not the
        // billable-call estimate
        let rr_healthy = cost_of(&RequestResponse, &plan, &schema, CacheSetting::OneCall);
        schema.service_mut(weather).profile.failure_rate = 0.0;
        let rr_base = cost_of(&RequestResponse, &plan, &schema, CacheSetting::OneCall);
        assert!((rr_healthy - rr_base).abs() < 1e-12);
    }

    /// ETM and TTS walk the paths without collecting them; they must
    /// equal, bit for bit, the definition over [`Plan::paths`] — over
    /// every topology of every permissible pattern sequence of the
    /// running example, complete and cut to a prefix, under random
    /// response times, failure rates and fetch factors and every cache
    /// setting.
    #[test]
    fn path_walk_equals_collected_paths() {
        use mdq_model::binding::{permissible_sequences, SupplierMap};
        use mdq_model::rng::Rng;
        use mdq_plan::poset::all_topologies;

        let etm = |plan: &Plan, ann: &Annotation, schema: &Schema| {
            plan.paths()
                .into_iter()
                .map(|path| {
                    let tau_sum: f64 = path.iter().map(|id| node_tau(plan, schema, id.0)).sum();
                    path.iter()
                        .map(|id| {
                            node_work(plan, ann, schema, id.0) + tau_sum
                                - node_tau(plan, schema, id.0)
                        })
                        .fold(tau_sum, f64::max)
                })
                .fold(0.0, f64::max)
        };
        let tts = |plan: &Plan, schema: &Schema| {
            plan.paths()
                .into_iter()
                .map(|path| path.iter().map(|id| node_tau(plan, schema, id.0)).sum())
                .fold(0.0, f64::max)
        };

        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let sel = SelectivityModel::default();
        let mut rng = Rng::new(0x7061_7468);
        let mut plans = 0;
        for choice in permissible_sequences(&query, &schema) {
            let suppliers = SupplierMap::build(&query, &schema, &choice);
            for poset in all_topologies(query.atoms.len(), &suppliers) {
                for _ in 0..4 {
                    let mut schema = schema.clone();
                    let services: Vec<_> = schema.services().map(|(id, _)| id).collect();
                    for id in services {
                        let profile = &mut schema.service_mut(id).profile;
                        profile.response_time *= rng.range_f64(0.1, 10.0);
                        profile.failure_rate = if rng.bool(0.3) {
                            rng.range_f64(0.0, 0.5)
                        } else {
                            0.0
                        };
                    }
                    // a prefix: the first `cut` atoms of a topological order
                    let order = poset.topological_order();
                    let cut = rng.range_usize(1, order.len() + 1);
                    let atoms = order[..cut].to_vec();
                    let mut plan = build_plan(
                        Arc::clone(&query),
                        &schema,
                        choice.clone(),
                        poset.restrict(&atoms),
                        atoms,
                        &StrategyRule::default(),
                    )
                    .expect("a downward-closed prefix of an admissible topology lowers");
                    for pos in plan.chunked_positions(&schema) {
                        plan.set_fetch(pos, rng.range_u64(1, 9));
                    }
                    for cache in CacheSetting::ALL {
                        let ann = Estimator::new(&schema, &sel, cache).annotate(&plan);
                        assert_eq!(
                            ExecutionTime.cost(&plan, &ann, &schema).to_bits(),
                            etm(&plan, &ann, &schema).to_bits(),
                            "ETM of {}",
                            plan.summary(&schema)
                        );
                        assert_eq!(
                            TimeToScreen.cost(&plan, &ann, &schema).to_bits(),
                            tts(&plan, &schema).to_bits(),
                            "TTS of {}",
                            plan.summary(&schema)
                        );
                    }
                    plans += 1;
                }
            }
        }
        assert!(plans > 100, "{plans} plans");
    }

    #[test]
    fn join_cost_charged_per_pair() {
        let (plan, schema) = make_plan(fig6_poset(), &[(ATOM_FLIGHT, 3), (ATOM_HOTEL, 4)]);
        let with_joins = SumCost {
            join_cost_per_pair: 0.001,
        };
        let base = cost_of(&SumCost::default(), &plan, &schema, CacheSetting::OneCall);
        let extra = cost_of(&with_joins, &plan, &schema, CacheSetting::OneCall);
        // join t_in = 1500 pairs → +1.5
        assert!((extra - base - 1.5).abs() < 1e-9, "{extra} vs {base}");
    }
}
