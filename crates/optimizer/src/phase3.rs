//! Phase 3 — assignment of fetch factors to chunked services (§4.3, §5.3.1).
//!
//! Once topology and access patterns are fixed, the only open parameters
//! are the fetching factors `F_i` of the chunked services. The goal:
//! produce at least `k` answers (`tout ≥ k`) at minimal cost. Provided
//! here:
//!
//! * the **greedy** heuristic (increment the most tuples-per-cost
//!   sensitive factor until `h ≥ k`);
//! * the **square-is-better** heuristic (balance the number of tuples
//!   explored across chunked services — suited to quickly decaying
//!   rankings);
//! * the closed forms of §5.3.1 for one (Eq. 5), two (Eq. 6/7) and `n`
//!   chunked services;
//! * an exact, dominance-pruned **frontier search** (§4.3.2) over minimal
//!   feasible fetch vectors, with branch-and-bound against an incumbent.

use crate::context::{CostContext, Pricer};
use mdq_cost::estimate::Annotation;
use mdq_model::schema::Schema;
use mdq_plan::dag::Plan;

/// The two §4.3.1 heuristics for initial fetch assignments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum FetchHeuristic {
    /// "Greedy": repeatedly increment the factor with the best marginal
    /// tuples-per-cost ratio.
    #[default]
    Greedy,
    /// "Square is better": keep the number of *explored tuples*
    /// (`F_i · cs_i`) balanced across chunked services, suited to
    /// scenarios where ranking quality decays quickly.
    ///
    /// Note: the paper's text says factors are incremented "proportional
    /// to chunk size", but its stated goal is that all services explore
    /// *about the same number of tuples*; we implement the stated goal
    /// (increment the service whose `F_i · cs_i` is currently smallest).
    Square,
}

/// Outcome of fetch assignment for one plan.
#[derive(Clone, Debug)]
pub struct FetchOutcome {
    /// Chosen fetch factor per plan-atom position.
    pub fetches: Vec<u64>,
    /// Plan cost under the context's metric.
    pub cost: f64,
    /// Final annotation.
    pub annotation: Annotation,
    /// Whether the estimated output reaches `k`. `false` only when decay
    /// or fetch caps make `k` unreachable (§4.3.2) or the plan has no
    /// fetch knobs and simply produces fewer tuples.
    pub meets_k: bool,
}

/// Counters for phase-3 search effort.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Fetch vectors whose cost was evaluated.
    pub vectors_costed: usize,
    /// Subtrees pruned by the incumbent bound.
    pub pruned_by_bound: usize,
    /// Subtrees pruned by infeasibility (even max fetches fall short).
    pub pruned_infeasible: usize,
}

/// Per-position fetch caps into `caps`: decay-derived bound
/// `⌈d_i / cs_i⌉` when known (§4.3.2), otherwise `max_fetch`.
fn fetch_caps_into(plan: &Plan, schema: &Schema, max_fetch: u64, caps: &mut Vec<u64>) {
    caps.clear();
    caps.extend(plan.atoms.iter().map(|&a| {
        let sig = schema.service(plan.query.atoms[a].service);
        if sig.chunking.is_chunked() {
            sig.max_fetches_from_decay()
                .unwrap_or(max_fetch)
                .min(max_fetch)
        } else {
            1
        }
    }));
}

/// Costs the vector `pricer` evaluated last, counting it.
fn cost_of_current(pricer: &mut Pricer<'_, '_>, stats: &mut FetchStats) -> f64 {
    stats.vectors_costed += 1;
    pricer.cost()
}

/// Closed form for two *parallel* chunked services (Eq. 6): with
/// `K′ = ⌈k / tout(1,1)⌉` and per-fetch costs `c₁`, `c₂` (weighted by the
/// services' input cardinalities), the relaxed optimum is
/// `F₁ = ⌈√(K′ c₂ / c₁)⌉`, `F₂ = ⌈√(K′ c₁ / c₂)⌉`.
///
/// This is the paper's formula verbatim — including its rounding, which
/// can overshoot the true integer optimum (see the ablation bench): for
/// Fig. 8 it yields exactly `F_flight = 3`, `F_hotel = 4`.
pub fn closed_form_pair(out_at_ones: f64, k: f64, c1: f64, c2: f64) -> (u64, u64) {
    if out_at_ones <= 0.0 {
        return (u64::MAX, u64::MAX);
    }
    let kp = (k / out_at_ones).ceil().max(1.0);
    let f1 = (kp * c2 / c1).sqrt().ceil().max(1.0) as u64;
    let f2 = (kp * c1 / c2).sqrt().ceil().max(1.0) as u64;
    (f1, f2)
}

/// Computes a heuristic initial fetch vector (§4.3.1). Starts from all-1
/// (already optimal if `h ≥ k`) and escalates until the output reaches
/// `k` or every factor hits its cap.
pub fn heuristic_fetches(
    plan: &mut Plan,
    ctx: &CostContext<'_>,
    k: f64,
    heuristic: FetchHeuristic,
    caps: &[u64],
) -> Vec<u64> {
    let open = plan.chunked_positions(ctx.schema);
    let base = vec![1; plan.atoms.len()];
    let mut f = Vec::new();
    ctx.with_pricer(plan, |pricer, _| {
        heuristic_fetches_from(pricer, k, heuristic, caps, &base, &open, &mut f);
    });
    f
}

/// [`heuristic_fetches`] generalised to a base vector and an explicit
/// set of open positions, written into `f`: positions outside `open`
/// stay at their `base` value — how suffix re-planning pins the factors
/// of already-executed stages while re-tuning the rest.
fn heuristic_fetches_from(
    pricer: &mut Pricer<'_, '_>,
    k: f64,
    heuristic: FetchHeuristic,
    caps: &[u64],
    base: &[u64],
    open: &[usize],
    f: &mut Vec<u64>,
) {
    f.clear();
    f.extend_from_slice(base);
    if open.is_empty() {
        return;
    }
    let mut out = pricer.out_size(f);
    // safety valve against absurd caps: escalation is one +1 per round
    let mut rounds_left = 100_000usize;
    match heuristic {
        FetchHeuristic::Greedy => {
            // Each candidate vector is evaluated once, for both its
            // output and its cost; the chosen candidate's figures carry
            // over as the next round's starting point.
            let mut cost = pricer.cost();
            while out < k && rounds_left > 0 {
                rounds_left -= 1;
                // the position with the best Δtuples / Δcost for +1
                let mut best: Option<(usize, f64, f64, f64)> = None;
                for &pos in open {
                    if f[pos] >= caps[pos] {
                        continue;
                    }
                    f[pos] += 1;
                    let out_after = pricer.out_size(f);
                    let cost_after = pricer.cost();
                    f[pos] -= 1;
                    let dcost = (cost_after - cost).max(f64::MIN_POSITIVE);
                    let ratio = (out_after - out) / dcost;
                    if best.map(|(_, r, _, _)| ratio > r).unwrap_or(true) {
                        best = Some((pos, ratio, out_after, cost_after));
                    }
                }
                let Some((pos, _, out_after, cost_after)) = best else {
                    break; // all capped: k unreachable
                };
                f[pos] += 1;
                (out, cost) = (out_after, cost_after);
            }
        }
        FetchHeuristic::Square => {
            while out < k && rounds_left > 0 {
                rounds_left -= 1;
                // the position with the fewest explored tuples F·cs
                let (plan, schema) = (pricer.plan(), pricer.schema());
                let explored = |pos: usize| {
                    let service = plan.query.atoms[plan.atoms[pos]].service;
                    f[pos] as f64 * schema.service(service).chunk_size().unwrap_or(1) as f64
                };
                let Some(pos) = open
                    .iter()
                    .copied()
                    .filter(|&pos| f[pos] < caps[pos])
                    .min_by(|&a, &b| explored(a).total_cmp(&explored(b)))
                else {
                    break; // all capped: k unreachable
                };
                f[pos] += 1;
                out = pricer.out_size(f);
            }
        }
    }
}

/// Phase 3's vectors, kept in a search's workspace and reused by every
/// plan whose fetch factors it searches.
#[derive(Default)]
pub(crate) struct FetchScratch {
    caps: Vec<u64>,
    /// The positions searched: chunked, not pinned.
    open: Vec<usize>,
    /// The vector the frontier search extends — the base vector (pinned
    /// values, 1 elsewhere) before and after it.
    current: Vec<u64>,
    /// Probe vectors, none of which outlives one step of the search.
    probe: Vec<u64>,
    /// The best vector found so far and its priced annotation.
    best: Vec<u64>,
    best_ann: Annotation,
}

impl FetchScratch {
    /// The annotation of the best vector of the last search.
    pub(crate) fn best_annotation(&self) -> &Annotation {
        &self.best_ann
    }
}

/// What phase 3 found for one plan: the best vector's cost, whether it
/// reaches `k`, and its estimated output — the figures a candidate is
/// kept or discarded by.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Priced {
    pub(crate) cost: f64,
    pub(crate) meets_k: bool,
    pub(crate) out_size: f64,
}

/// Phase 3's settings for one plan.
#[derive(Clone, Copy)]
pub(crate) struct FetchParams<'p> {
    pub(crate) k: f64,
    pub(crate) heuristic: FetchHeuristic,
    pub(crate) max_fetch: u64,
    /// Run the exact frontier search after the heuristic.
    pub(crate) explore: bool,
    pub(crate) incumbent: Option<f64>,
    /// Positions fixed at a value, outside the search.
    pub(crate) pinned: &'p [(usize, u64)],
}

/// Exact phase-3 search: explores the frontier of minimal feasible fetch
/// vectors (any vector dominated by a feasible one is skipped, §4.3.2),
/// pruning with the incumbent bound (cost is monotone in every `Fᵢ`, so a
/// partial assignment costed with the remaining factors at 1 lower-bounds
/// its completions).
///
/// Returns the best outcome found — when even the caps cannot reach `k`,
/// the best effort (every factor at its cap).
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameterisation
pub fn optimize_fetches(
    plan: &mut Plan,
    ctx: &CostContext<'_>,
    k: f64,
    heuristic: FetchHeuristic,
    max_fetch: u64,
    explore: bool,
    incumbent: Option<f64>,
    stats: &mut FetchStats,
) -> FetchOutcome {
    optimize_fetches_pinned(
        plan,
        ctx,
        k,
        heuristic,
        max_fetch,
        explore,
        incumbent,
        stats,
        &[],
    )
}

/// [`optimize_fetches`] with some positions *pinned* to fixed values:
/// the adaptive re-planner's entry point. A pinned position is excluded
/// from the search — its factor stays exactly as given — so the fetch
/// decisions of already-executed plan stages (whose pages are already
/// paid for) survive a mid-flight re-optimization while the unexecuted
/// suffix is re-tuned against refreshed statistics.
///
/// The chosen factors are left installed in `plan`.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameterisation
fn optimize_fetches_pinned(
    plan: &mut Plan,
    ctx: &CostContext<'_>,
    k: f64,
    heuristic: FetchHeuristic,
    max_fetch: u64,
    explore: bool,
    incumbent: Option<f64>,
    stats: &mut FetchStats,
    pinned: &[(usize, u64)],
) -> FetchOutcome {
    let params = FetchParams {
        k,
        heuristic,
        max_fetch,
        explore,
        incumbent,
        pinned,
    };
    ctx.with_pricer(plan, |pricer, scratch| {
        let priced = search(pricer, scratch, params, stats);
        FetchOutcome {
            fetches: scratch.best.clone(),
            cost: priced.cost,
            annotation: scratch.best_ann.clone(),
            meets_k: priced.meets_k,
        }
    })
}

/// The search behind [`optimize_fetches_pinned`], in the workspace: the
/// best vector is left in `scratch` (and installed in the plan), its
/// figures returned.
pub(crate) fn search(
    pricer: &mut Pricer<'_, '_>,
    scratch: &mut FetchScratch,
    params: FetchParams<'_>,
    stats: &mut FetchStats,
) -> Priced {
    let FetchScratch {
        caps,
        open,
        current,
        probe,
        best,
        best_ann,
    } = scratch;
    let k = params.k;
    let (plan, schema) = (pricer.plan(), pricer.schema());
    fetch_caps_into(plan, schema, params.max_fetch, caps);
    current.clear();
    current.resize(plan.atoms.len(), 1);
    for &(pos, value) in params.pinned {
        let value = value.max(1);
        current[pos] = value;
        caps[pos] = value;
    }
    open.clear();
    open.extend(
        plan.atoms
            .iter()
            .enumerate()
            .filter(|&(pos, &atom)| {
                schema
                    .service(plan.query.atoms[atom].service)
                    .chunking
                    .is_chunked()
                    && params.pinned.iter().all(|&(p, _)| p != pos)
            })
            .map(|(pos, _)| pos),
    );

    // Prices the vector in `best` and keeps its annotation.
    let settle = |pricer: &mut Pricer<'_, '_>,
                  best: &[u64],
                  best_ann: &mut Annotation,
                  stats: &mut FetchStats| {
        let out = pricer.out_size(best);
        let cost = cost_of_current(pricer, stats);
        best_ann.clone_from(pricer.annotation());
        Priced {
            cost,
            meets_k: out >= k,
            out_size: out,
        }
    };

    // No knobs: cost as-is (pinned values included).
    if open.is_empty() {
        best.clone_from(current);
        return settle(pricer, best, best_ann, stats);
    }

    // Feasibility at the caps (decay may make k unreachable, §4.3.2).
    let reachable = pricer.out_size(caps) >= k;

    // Heuristic first choice → initial upper bound.
    if reachable {
        heuristic_fetches_from(pricer, k, params.heuristic, caps, current, open, best);
    } else {
        best.clone_from(caps); // best effort: fetch everything allowed
    }
    let mut priced = settle(pricer, best, best_ann, stats);

    if !params.explore || !reachable {
        return priced;
    }

    // Frontier exploration with B&B over the open positions.
    let bound = match params.incumbent {
        Some(b) => priced.cost.min(b),
        None => priced.cost,
    };
    Frontier {
        k,
        open,
        caps,
        current,
        probe,
        bound,
        best,
        best_ann,
        priced: &mut priced,
        stats,
    }
    .explore(pricer, 0);
    pricer.install(best);
    priced
}

/// The frontier search's state over one plan.
struct Frontier<'s> {
    k: f64,
    open: &'s [usize],
    caps: &'s [u64],
    current: &'s mut [u64],
    probe: &'s mut Vec<u64>,
    bound: f64,
    best: &'s mut Vec<u64>,
    best_ann: &'s mut Annotation,
    priced: &'s mut Priced,
    stats: &'s mut FetchStats,
}

impl Frontier<'_> {
    /// Sets the probe to the current vector with every open position
    /// from `from` on at `value(pos)`.
    fn probe_from(&mut self, from: usize, value: impl Fn(usize) -> u64) {
        self.probe.clear();
        self.probe.extend_from_slice(self.current);
        for &pos in &self.open[from..] {
            self.probe[pos] = value(pos);
        }
    }

    fn explore(&mut self, pricer: &mut Pricer<'_, '_>, depth: usize) {
        let (k, open, caps) = (self.k, self.open, self.caps);
        // Prune: remaining factors at cap still infeasible.
        self.probe_from(depth, |pos| caps[pos]);
        if pricer.out_size(self.probe) < k {
            self.stats.pruned_infeasible += 1;
            return;
        }
        // Prune: current partial (remaining at 1) already beats the bound.
        self.probe_from(depth, |_| 1);
        pricer.out_size(self.probe);
        if cost_of_current(pricer, self.stats) >= self.bound {
            self.stats.pruned_by_bound += 1;
            return;
        }

        if depth == open.len() - 1 {
            // last factor: minimal feasible value via binary search
            // (out is monotone non-decreasing in the factor)
            let pos = open[depth];
            let (mut lo, mut hi) = (1u64, caps[pos]);
            self.probe_from(open.len(), |_| 1);
            self.probe[pos] = hi;
            if pricer.out_size(self.probe) < k {
                self.stats.pruned_infeasible += 1;
                return;
            }
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                self.probe[pos] = mid;
                if pricer.out_size(self.probe) >= k {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            self.probe[pos] = lo;
            let out = pricer.out_size(self.probe);
            let cost = cost_of_current(pricer, self.stats);
            if cost < self.bound || (cost < self.priced.cost) {
                if cost < self.bound {
                    self.bound = cost;
                }
                if cost < self.priced.cost || !self.priced.meets_k {
                    self.best.clone_from(self.probe);
                    self.best_ann.clone_from(pricer.annotation());
                    *self.priced = Priced {
                        cost,
                        meets_k: out >= k,
                        out_size: out,
                    };
                }
            }
            return;
        }

        let pos = open[depth];
        for f in 1..=caps[pos] {
            self.current[pos] = f;
            self.explore(pricer, depth + 1);
            // dominance: once (…, f, 1, …, 1) is feasible, any larger f is
            // dominated (cost monotone) — stop raising this factor
            self.probe_from(depth + 1, |_| 1);
            if pricer.out_size(self.probe) >= k {
                break;
            }
        }
        self.current[pos] = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CostContext;
    use crate::test_fixtures::{fig6_plan, running_example_parts};
    use mdq_cost::estimate::CacheSetting;
    use mdq_cost::metrics::{ExecutionTime, RequestResponse};
    use mdq_cost::selectivity::SelectivityModel;
    use mdq_model::examples::{ATOM_FLIGHT, ATOM_HOTEL};

    /// Fig. 8: Eq. 6 with K′ = 8 and per-fetch costs τ_flight = 9.7,
    /// τ_hotel = 4.9 yields F_flight = 3, F_hotel = 4.
    #[test]
    fn fig8_closed_form_pair() {
        // tout(1,1) = Ξ(G)·cs₁·cs₂·σ = 1 · 25 · 5 · 0.01 = 1.25; k = 10
        let (f_flight, f_hotel) = closed_form_pair(1.25, 10.0, 9.7, 4.9);
        assert_eq!((f_flight, f_hotel), (3, 4));
    }

    #[test]
    fn greedy_reaches_k() {
        let (mut plan, schema) = fig6_plan();
        let sel = SelectivityModel::default();
        let metric = RequestResponse;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let mut caps = Vec::new();
        fetch_caps_into(&plan, &schema, 100, &mut caps);
        let f = heuristic_fetches(&mut plan, &ctx, 10.0, FetchHeuristic::Greedy, &caps);
        plan.fetches.copy_from_slice(&f);
        assert!(ctx.annotate(&plan).out_size() >= 10.0);
        // the product F_flight · F_hotel must cover K' = 8
        assert!(f[ATOM_FLIGHT] * f[ATOM_HOTEL] >= 8);
    }

    #[test]
    fn square_balances_explored_tuples() {
        let (mut plan, schema) = fig6_plan();
        let sel = SelectivityModel::default();
        let metric = RequestResponse;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let mut caps = Vec::new();
        fetch_caps_into(&plan, &schema, 100, &mut caps);
        let f = heuristic_fetches(&mut plan, &ctx, 10.0, FetchHeuristic::Square, &caps);
        // flight explores 25·F_fl tuples, hotel 5·F_h: balanced means
        // F_h ≈ 5·F_fl
        assert!(f[ATOM_HOTEL] > f[ATOM_FLIGHT]);
        plan.fetches.copy_from_slice(&f);
        assert!(ctx.annotate(&plan).out_size() >= 10.0);
    }

    #[test]
    fn frontier_search_finds_true_optimum() {
        // Under RRM with one-call cache, cost = 1 (conf) + 20 (weather)
        // + F_fl + F_h and feasibility F_fl·F_h ≥ 8: the integer optimum
        // is F_fl + F_h minimal = 3 + 3 (9 ≥ 8) → cost 27.
        let (mut plan, schema) = fig6_plan();
        let sel = SelectivityModel::default();
        let metric = RequestResponse;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let mut stats = FetchStats::default();
        let out = optimize_fetches(
            &mut plan,
            &ctx,
            10.0,
            FetchHeuristic::Greedy,
            100,
            true,
            None,
            &mut stats,
        );
        assert!(out.meets_k);
        assert!(out.fetches[ATOM_FLIGHT] * out.fetches[ATOM_HOTEL] >= 8);
        assert!((out.cost - 27.0).abs() < 1e-9, "cost = {}", out.cost);
        assert!(stats.vectors_costed > 0);
    }

    #[test]
    fn decay_caps_can_make_k_unreachable() {
        let (mut schema, _) = running_example_parts();
        // flights decay after 25 tuples (1 chunk), hotels after 5 (1 chunk)
        let flight = schema.service_by_name("flight").expect("flight");
        let hotel = schema.service_by_name("hotel").expect("hotel");
        schema.service_mut(flight).profile.decay = Some(25);
        schema.service_mut(hotel).profile.decay = Some(5);
        let (mut plan, _) = fig6_plan();
        let sel = SelectivityModel::default();
        let metric = ExecutionTime;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let mut stats = FetchStats::default();
        let out = optimize_fetches(
            &mut plan,
            &ctx,
            10.0,
            FetchHeuristic::Greedy,
            100,
            true,
            None,
            &mut stats,
        );
        // tout caps at 25·5·0.01 = 1.25 < 10
        assert!(!out.meets_k);
        assert_eq!(out.fetches[ATOM_FLIGHT], 1);
        assert_eq!(out.fetches[ATOM_HOTEL], 1);
    }

    #[test]
    fn no_chunked_services_is_a_noop() {
        use mdq_model::binding::ApChoice;
        use mdq_plan::builder::{build_plan, StrategyRule};
        use mdq_plan::poset::Poset;
        use std::sync::Arc;
        let (schema, query) = running_example_parts();
        let query = Arc::new(query);
        // prefix plan with only conf and weather (both bulk)
        let mut plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            Poset::from_pairs(2, &[(0, 1)]).expect("valid"),
            vec![
                mdq_model::examples::ATOM_CONF,
                mdq_model::examples::ATOM_WEATHER,
            ],
            &StrategyRule::default(),
        )
        .expect("builds");
        let sel = SelectivityModel::default();
        let metric = RequestResponse;
        let ctx = CostContext::new(&schema, &sel, CacheSetting::OneCall, &metric);
        let mut stats = FetchStats::default();
        let out = optimize_fetches(
            &mut plan,
            &ctx,
            10.0,
            FetchHeuristic::Greedy,
            100,
            true,
            None,
            &mut stats,
        );
        assert_eq!(out.fetches, vec![1, 1]);
        assert!(!out.meets_k, "1 estimated tuple < k = 10");
    }
}
