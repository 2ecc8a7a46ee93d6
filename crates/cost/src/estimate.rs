//! Cardinality and invocation-count estimation (§3.4, §5.2).
//!
//! For every plan node the estimator derives:
//!
//! * `t_in` — tuples arriving (candidate pairs, for joins);
//! * `t_out` — tuples leaving: `t_in · ξ` for exact services,
//!   `t_in · cs · F` for chunked ones, join size for joins — times the
//!   selectivity of every predicate that first becomes applicable there;
//! * `calls` — *effective* service invocations, which under caching can
//!   be far fewer than `t_in` (Eq. 2): tuples produced contiguously by a
//!   proliferative ancestor arrive in blocks that repeat the same input
//!   values, so the number of distinct-block calls is bounded by the
//!   minimal `t_out` among the pipe nodes carrying each input variable
//!   (the paper's set `N(n)` of minimal contributors).
//!
//! Cache settings (§5.1): *no cache* pays one call per input tuple;
//! *one-call cache* pays per block (Eq. 2); *optimal cache* pays per
//! distinct input combination, additionally capped by abstract-domain
//! cardinalities.

use crate::selectivity::SelectivityModel;
use mdq_model::binding::input_vars;
use mdq_model::query::VarId;
use mdq_model::schema::{Chunking, Schema};
use mdq_plan::dag::{NodeId, NodeKind, Plan};
use std::ops::Range;

/// The logical-caching settings of §5.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheSetting {
    /// Every call is repeated.
    NoCache,
    /// The engine recalls the last call (and result) per service,
    /// absorbing immediate re-invocations with identical parameters.
    OneCall,
    /// The engine memoizes every call: one invocation per distinct input.
    Optimal,
}

impl CacheSetting {
    /// All three settings, in the paper's order.
    pub const ALL: [CacheSetting; 3] = [
        CacheSetting::NoCache,
        CacheSetting::OneCall,
        CacheSetting::Optimal,
    ];

    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CacheSetting::NoCache => "no cache",
            CacheSetting::OneCall => "one-call cache",
            CacheSetting::Optimal => "optimal cache",
        }
    }
}

/// Per-node estimates produced by [`Estimator::annotate`]; the `t^in` /
/// `t^out` annotations of Fig. 8.
#[derive(Clone, Debug)]
pub struct Annotation {
    /// Tuples (or candidate pairs) arriving at each node.
    pub t_in: Vec<f64>,
    /// Tuples leaving each node.
    pub t_out: Vec<f64>,
    /// Effective service invocations per node (0 for non-invoke nodes).
    pub calls: Vec<f64>,
    /// The cache setting the estimate was computed under.
    pub cache: CacheSetting,
}

impl Annotation {
    /// Estimated size of the query answer (`t_out` of the Output node).
    pub fn out_size(&self) -> f64 {
        *self.t_out.last().expect("plans always have an output node")
    }

    /// Calls attributed to the invoke node of plan-atom position `pos`.
    pub fn calls_of_atom(&self, plan: &Plan, pos: usize) -> f64 {
        plan.node_of_atom(pos)
            .map(|NodeId(i)| self.calls[i])
            .unwrap_or(0.0)
    }
}

/// The §5.2 estimator. Borrowed context: schema for profiles/domains,
/// selectivity model for predicate σ's.
///
/// Estimation is split in two. [`Estimator::prepare`] analyses a plan
/// once — everything that does not depend on the fetch factors — and
/// [`PreparedPlan::evaluate`] turns a fetch vector into an
/// [`Annotation`] with a straight loop over `f64`s. Phase 3 of the
/// optimizer prepares each topology once and evaluates it per
/// candidate vector; [`Estimator::annotate`] is the one-shot form of
/// the same code.
#[derive(Clone, Copy, Debug)]
pub struct Estimator<'a> {
    /// Service signatures and domain cardinalities.
    pub schema: &'a Schema,
    /// Predicate selectivity defaults.
    pub selectivity: &'a SelectivityModel,
    /// Cache setting assumed for call counting.
    pub cache: CacheSetting,
}

/// How many tuples one input tuple of an invoke node yields.
#[derive(Clone, Copy, Debug)]
enum ResultSize {
    /// Bulk service: its erspi.
    Bulk(f64),
    /// Chunked service: chunk size × the fetch factor of plan position
    /// `pos`.
    Chunked { chunk_size: f64, pos: usize },
}

/// How an invoke node's effective calls follow from its input stream.
#[derive(Clone, Debug)]
enum CallRule {
    /// No cache: one call per input tuple.
    PerTuple,
    /// Constant-only inputs: a single distinct input combination.
    Constant,
    /// Eq. 2: bounded by the minimal contributors `N(n)` of these input
    /// variables (a range of [`PreparedPlan::input_vars`]).
    Blocks(Range<usize>),
}

/// One input variable of an invoke node, for the `N(n)` computation.
#[derive(Clone, Debug)]
struct InputVar {
    /// The dataflow ancestors carrying the variable (a range of
    /// [`PreparedPlan::carriers`]), in the order the minimum is sought —
    /// the first of several equally small ancestors wins.
    carriers: Range<usize>,
    /// Cardinality of the variable's abstract domain (∞ when unknown).
    cardinality: f64,
}

/// The fetch-independent part of one node's estimate.
#[derive(Clone, Debug)]
enum Step {
    /// §3.4: the user injects one single input tuple.
    Input,
    Output {
        up: usize,
        /// σ product of the predicates first applicable here.
        sigma: f64,
    },
    Invoke {
        up: usize,
        sigma: f64,
        size: ResultSize,
        calls: CallRule,
    },
    Join {
        left: usize,
        right: usize,
        /// Divergence node: the deepest common dataflow ancestor. Both
        /// branches replicate its tuples, so only pairs agreeing on
        /// them join (provenance factor `1 / t_out[divergence]`).
        divergence: usize,
        sigma: f64,
        /// Domain cardinalities of the shared variables not bound at
        /// the divergence — genuine value joins, σ = 1 / max(V_l, V_r)
        /// with V = min(side t_out, cardinality). A range of
        /// [`PreparedPlan::value_joins`].
        value_joins: Range<usize>,
    },
}

/// A plan analysed for repeated estimation: per node, what
/// [`Estimator::annotate`] would otherwise rebuild on every call —
/// newly applicable predicates and their σ product, the carrier sets
/// behind `N(n)`, the join divergence node, domain cardinalities, chunk
/// size / erspi — plus the [`Annotation`] buffers every evaluation
/// writes into.
///
/// The evaluation performs the floating-point operations of the
/// estimator's definition in a fixed order, so equal inputs give
/// bit-equal estimates and the optimizer's cost ties always break the
/// same way.
#[derive(Clone, Debug)]
pub struct PreparedPlan {
    steps: Vec<Step>,
    input_vars: Vec<InputVar>,
    carriers: Vec<usize>,
    value_joins: Vec<f64>,
    ann: Annotation,
    /// Scratch for `N(n)`: (minimal node, its variables' domain cap).
    minimal: Vec<(usize, f64)>,
}

impl PreparedPlan {
    /// Estimates the plan under `fetches` (one factor per plan-atom
    /// position) into the reused annotation, which stays valid until
    /// the next call.
    pub fn evaluate(&mut self, fetches: &[u64]) -> &Annotation {
        let Annotation {
            t_in,
            t_out,
            calls,
            cache,
        } = &mut self.ann;
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::Input => {
                    t_in[i] = 1.0;
                    t_out[i] = 1.0;
                }
                Step::Output { up, sigma } => {
                    t_in[i] = t_out[*up];
                    t_out[i] = t_out[*up] * sigma;
                }
                Step::Invoke {
                    up,
                    sigma,
                    size,
                    calls: rule,
                } => {
                    let stream = t_out[*up];
                    t_in[i] = stream;
                    calls[i] = match rule {
                        CallRule::PerTuple => stream,
                        CallRule::Constant => stream.min(1.0),
                        CallRule::Blocks(vars) => {
                            // N(n): per input variable, the carrier with
                            // minimal t_out, deduplicated
                            self.minimal.clear();
                            for var in &self.input_vars[vars.clone()] {
                                let carriers = &self.carriers[var.carriers.clone()];
                                let mut m = carriers[0];
                                for &a in &carriers[1..] {
                                    if t_out[a].total_cmp(&t_out[m]).is_lt() {
                                        m = a;
                                    }
                                }
                                match self.minimal.iter_mut().find(|(node, _)| *node == m) {
                                    Some((_, cap)) => *cap *= var.cardinality,
                                    None => self.minimal.push((m, var.cardinality)),
                                }
                            }
                            let block_bound = self
                                .minimal
                                .iter()
                                .fold(1.0, |acc, &(m, _)| acc * t_out[m].max(1.0));
                            let one_call = stream.min(block_bound);
                            if *cache == CacheSetting::OneCall {
                                one_call
                            } else {
                                // Optimal: per minimal node, the distinct
                                // contribution is further capped by the
                                // product of its variables' domain
                                // cardinalities.
                                let optimal = self
                                    .minimal
                                    .iter()
                                    .fold(1.0, |acc, &(m, cap)| acc * t_out[m].max(1.0).min(cap));
                                one_call.min(optimal)
                            }
                        }
                    };
                    let per_input = match *size {
                        ResultSize::Bulk(erspi) => erspi,
                        ResultSize::Chunked { chunk_size, pos } => chunk_size * fetches[pos] as f64,
                    };
                    t_out[i] = stream * per_input * sigma;
                }
                Step::Join {
                    left,
                    right,
                    divergence,
                    sigma,
                    value_joins,
                } => {
                    let (l, r) = (t_out[*left], t_out[*right]);
                    t_in[i] = l * r;
                    let mut sigma_join = 1.0 / t_out[*divergence].max(1.0);
                    for &card in &self.value_joins[value_joins.clone()] {
                        let vl = l.max(1.0).min(card);
                        let vr = r.max(1.0).min(card);
                        sigma_join /= vl.max(vr);
                    }
                    t_out[i] = t_in[i] * sigma_join * sigma;
                }
            }
        }
        &self.ann
    }

    /// The annotation of the last [`PreparedPlan::evaluate`].
    pub fn annotation(&self) -> &Annotation {
        &self.ann
    }

    /// The same, writable — for discounting shared work in place; the
    /// next evaluation rewrites every figure.
    pub fn annotation_mut(&mut self) -> &mut Annotation {
        &mut self.ann
    }

    /// Gives up the buffers: the annotation of the last evaluation.
    pub fn into_annotation(self) -> Annotation {
        self.ann
    }
}

impl<'a> Estimator<'a> {
    /// Creates an estimator.
    pub fn new(schema: &'a Schema, selectivity: &'a SelectivityModel, cache: CacheSetting) -> Self {
        Estimator {
            schema,
            selectivity,
            cache,
        }
    }

    /// Annotates `plan` with `t_in` / `t_out` / `calls` per node under
    /// the plan's own fetch factors.
    pub fn annotate(&self, plan: &Plan) -> Annotation {
        let mut prepared = self.prepare(plan);
        prepared.evaluate(&plan.fetches);
        prepared.into_annotation()
    }

    /// Analyses `plan` once for any number of
    /// [`evaluate`](PreparedPlan::evaluate) calls.
    pub fn prepare(&self, plan: &Plan) -> PreparedPlan {
        let n = plan.nodes.len();
        let query = &plan.query;
        let pred_vars: Vec<Vec<VarId>> = query.predicates.iter().map(|p| p.vars()).collect();
        // per node, which predicates have been applied at or upstream of it
        let mut applied: Vec<Vec<bool>> = Vec::with_capacity(n);
        let mut prepared = PreparedPlan {
            steps: Vec::with_capacity(n),
            input_vars: Vec::new(),
            carriers: Vec::new(),
            value_joins: Vec::new(),
            ann: Annotation {
                t_in: vec![0.0; n],
                t_out: vec![0.0; n],
                calls: vec![0.0; n],
                cache: self.cache,
            },
            minimal: Vec::new(),
        };
        let mut walk = AncestorWalk::new(n);

        for (i, node) in plan.nodes.iter().enumerate() {
            // predicates inherited from inputs, then those newly
            // applicable here: all vars bound, not yet applied
            let mut done = vec![false; pred_vars.len()];
            for inp in &node.inputs {
                for (d, &a) in done.iter_mut().zip(&applied[inp.0]) {
                    *d |= a;
                }
            }
            let mut sigma = 1.0;
            for (k, vars) in pred_vars.iter().enumerate() {
                if !done[k] && vars.iter().all(|v| node.bound_vars.contains(v)) {
                    done[k] = true;
                    sigma *= self.selectivity.selectivity(&query.predicates[k]);
                }
            }
            applied.push(done);

            let step = match &node.kind {
                NodeKind::Input => Step::Input,
                NodeKind::Output => Step::Output {
                    up: node.inputs[0].0,
                    sigma,
                },
                NodeKind::Invoke { atom } => {
                    let sig = self.schema.service(query.atoms[*atom].service);
                    let size = match sig.chunking {
                        Chunking::Bulk => ResultSize::Bulk(sig.profile.erspi),
                        Chunking::Chunked { chunk_size } => ResultSize::Chunked {
                            chunk_size: chunk_size as f64,
                            pos: plan.position_of(*atom).expect("atom covered by plan"),
                        },
                    };
                    Step::Invoke {
                        up: node.inputs[0].0,
                        sigma,
                        size,
                        calls: self.call_rule(plan, i, *atom, &mut walk, &mut prepared),
                    }
                }
                NodeKind::Join {
                    left, right, on, ..
                } => {
                    let divergence = walk.divergence(plan, *left, *right);
                    let div_bound = &plan.nodes[divergence].bound_vars;
                    let start = prepared.value_joins.len();
                    prepared.value_joins.extend(
                        on.iter()
                            .filter(|v| !div_bound.contains(v))
                            .map(|v| self.domain_cardinality(plan, *v)),
                    );
                    Step::Join {
                        left: left.0,
                        right: right.0,
                        divergence,
                        sigma,
                        value_joins: start..prepared.value_joins.len(),
                    }
                }
            };
            prepared.steps.push(step);
        }
        prepared
    }

    /// How the effective invocation count of invoke node `node_idx`
    /// (query atom `atom`) follows from its input stream; the carrier
    /// sets land in `prepared`'s arenas.
    fn call_rule(
        &self,
        plan: &Plan,
        node_idx: usize,
        atom: usize,
        walk: &mut AncestorWalk,
        prepared: &mut PreparedPlan,
    ) -> CallRule {
        if self.cache == CacheSetting::NoCache {
            return CallRule::PerTuple;
        }
        let in_vars = input_vars(&plan.query, self.schema, &plan.choice, atom);
        if in_vars.is_empty() {
            return CallRule::Constant;
        }
        let ancestors = walk.ancestors(plan, node_idx);
        let start = prepared.input_vars.len();
        for v in in_vars {
            let first = prepared.carriers.len();
            prepared.carriers.extend(
                ancestors
                    .iter()
                    .copied()
                    .filter(|&a| plan.nodes[a].bound_vars.contains(&v)),
            );
            // variables with no carrying ancestor cannot occur in
            // admissible plans; treat as unconstrained (no factor)
            if prepared.carriers.len() > first {
                prepared.input_vars.push(InputVar {
                    carriers: first..prepared.carriers.len(),
                    cardinality: self.domain_cardinality(plan, v),
                });
            }
        }
        CallRule::Blocks(start..prepared.input_vars.len())
    }

    /// Cardinality of the abstract domain of `v` (∞ when unknown). The
    /// variable's domain is read off its first occurrence in an atom.
    fn domain_cardinality(&self, plan: &Plan, v: VarId) -> f64 {
        for atom in &plan.query.atoms {
            for (i, t) in atom.terms.iter().enumerate() {
                if t.as_var() == Some(v) {
                    let sig = self.schema.service(atom.service);
                    return self
                        .schema
                        .domain_info(sig.domains[i])
                        .cardinality
                        .unwrap_or(f64::INFINITY);
                }
            }
        }
        f64::INFINITY
    }
}

/// Reused buffers for the dataflow-ancestor walks of one
/// [`Estimator::prepare`].
struct AncestorWalk {
    seen: Vec<bool>,
    stack: Vec<usize>,
    out: Vec<usize>,
}

impl AncestorWalk {
    fn new(nodes: usize) -> Self {
        AncestorWalk {
            seen: vec![false; nodes],
            stack: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Dataflow ancestors of `id` (transitive inputs, excluding `id`),
    /// in depth-first visiting order — the order `N(n)` breaks ties in.
    fn ancestors(&mut self, plan: &Plan, id: usize) -> &[usize] {
        self.seen.fill(false);
        self.out.clear();
        self.stack.clear();
        self.stack.extend(plan.nodes[id].inputs.iter().map(|n| n.0));
        while let Some(x) = self.stack.pop() {
            if self.seen[x] {
                continue;
            }
            self.seen[x] = true;
            self.out.push(x);
            self.stack.extend(plan.nodes[x].inputs.iter().map(|n| n.0));
        }
        &self.out
    }

    /// Deepest common dataflow ancestor of two nodes (exists because
    /// every plan has the Input node as a common root; "deepest" by
    /// node index, which is a topological order).
    fn divergence(&mut self, plan: &Plan, a: NodeId, b: NodeId) -> usize {
        let mut of_a = vec![false; plan.nodes.len()];
        of_a[a.0] = true;
        for &x in self.ancestors(plan, a.0) {
            of_a[x] = true;
        }
        self.ancestors(plan, b.0)
            .iter()
            .copied()
            .chain(std::iter::once(b.0))
            .filter(|&x| of_a[x])
            .max()
            .expect("Input is a common ancestor")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fig6_poset, fig7a_serial_poset, running_example, RunningExample};
    use mdq_model::binding::ApChoice;
    use mdq_model::examples::{ATOM_FLIGHT, ATOM_HOTEL};
    use mdq_plan::builder::{build_plan, StrategyRule};
    use std::sync::Arc;

    fn annotate(plan: &Plan, schema: &Schema, cache: CacheSetting) -> Annotation {
        let sel = SelectivityModel::default();
        Estimator::new(schema, &sel, cache).annotate(plan)
    }

    /// Fig. 8: the fully instantiated physical plan. With F_flight = 3 and
    /// F_hotel = 4 the annotation must read t_out(conf) = 20,
    /// t_out(weather) = 1, t_out(flight) = 75, t_out(hotel) = 20,
    /// t_in(MS) = 1500, t_out(MS) = 15.
    #[test]
    fn fig8_annotation_values() {
        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let mut plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig6_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.set_fetch(ATOM_FLIGHT, 3);
        plan.set_fetch(ATOM_HOTEL, 4);
        let ann = annotate(&plan, &schema, CacheSetting::NoCache);

        let node_out = |name: &str| -> f64 {
            let idx = plan
                .nodes
                .iter()
                .position(|n| match n.kind {
                    NodeKind::Invoke { atom } => {
                        schema.service(plan.query.atoms[atom].service).name.as_ref() == name
                    }
                    _ => false,
                })
                .unwrap_or_else(|| panic!("node {name} missing"));
            ann.t_out[idx]
        };
        assert!((node_out("conf") - 20.0).abs() < 1e-9);
        assert!((node_out("weather") - 1.0).abs() < 1e-9);
        assert!((node_out("flight") - 75.0).abs() < 1e-9);
        assert!((node_out("hotel") - 20.0).abs() < 1e-9);
        let join_idx = plan
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Join { .. }))
            .expect("join");
        assert!(
            (ann.t_in[join_idx] - 1500.0).abs() < 1e-9,
            "t_in = {}",
            ann.t_in[join_idx]
        );
        assert!(
            (ann.t_out[join_idx] - 15.0).abs() < 1e-9,
            "t_out = {}",
            ann.t_out[join_idx]
        );
        assert!(ann.out_size() >= 10.0, "k = 10 answers reachable");
    }

    /// Example 5.1's serial plan: t_in(weather) = ξ_conf = 20 and
    /// t_in(flight) = t_in(hotel) = ξ_conf · ξ_weather = 1 under the
    /// one-call (block) estimate.
    #[test]
    fn example_51_serial_call_estimates() {
        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig7a_serial_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let ann = annotate(&plan, &schema, CacheSetting::OneCall);
        let calls = |pos: usize| ann.calls_of_atom(&plan, pos);
        assert!((calls(mdq_model::examples::ATOM_CONF) - 1.0).abs() < 1e-9);
        assert!((calls(mdq_model::examples::ATOM_WEATHER) - 20.0).abs() < 1e-9);
        assert!(
            (calls(ATOM_FLIGHT) - 1.0).abs() < 1e-9,
            "flight blocks by weather output"
        );
        assert!(
            (calls(ATOM_HOTEL) - 1.0).abs() < 1e-9,
            "hotel blocks by weather output"
        );
    }

    #[test]
    fn no_cache_pays_per_stream_tuple() {
        let RunningExample { schema, query } = running_example();
        let query = Arc::new(query);
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig7a_serial_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let ann = annotate(&plan, &schema, CacheSetting::NoCache);
        // hotel receives flight's whole stream: 1 block · cs 25 · F 1 = 25
        assert!((ann.calls_of_atom(&plan, ATOM_HOTEL) - 25.0).abs() < 1e-9);
        let one = annotate(&plan, &schema, CacheSetting::OneCall);
        let opt = annotate(&plan, &schema, CacheSetting::Optimal);
        for i in 0..plan.nodes.len() {
            assert!(one.calls[i] <= ann.calls[i] + 1e-12, "one-call ≤ no-cache");
            assert!(opt.calls[i] <= one.calls[i] + 1e-12, "optimal ≤ one-call");
        }
    }

    #[test]
    fn optimal_cache_caps_by_domain_cardinality() {
        let RunningExample { mut schema, query } = running_example();
        // pretend the city domain has only 3 distinct values
        let city = schema.domain_by_name("City").expect("City domain");
        schema.set_domain_cardinality(city, 3.0);
        let query = Arc::new(query);
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            fig7a_serial_poset(),
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        let opt = annotate(&plan, &schema, CacheSetting::Optimal);
        // weather's inputs are City and Date, both minimal at the conf
        // node: cap = card(City)=3 × card(Date)=365 does not bind below
        // t_out(conf)=20 here, so only the generic bound applies
        let w = opt.calls_of_atom(&plan, mdq_model::examples::ATOM_WEATHER);
        assert!(w <= 20.0 + 1e-9);
        // shrink Date too: now the 3·2 = 6 cap binds
        let date = schema.domain_by_name("Date").expect("Date domain");
        schema.set_domain_cardinality(date, 2.0);
        let opt2 = annotate(&plan, &schema, CacheSetting::Optimal);
        let w2 = opt2.calls_of_atom(&plan, mdq_model::examples::ATOM_WEATHER);
        assert!(w2 <= 6.0 + 1e-9, "city·date cap: {w2}");
    }

    #[test]
    fn join_value_selectivity_without_provenance() {
        // Two independent services both output X; joining them is a value
        // join with σ = 1 / max(V_l, V_r).
        use mdq_model::parser::parse_query;
        use mdq_model::schema::{ServiceBuilder, ServiceProfile};
        let mut s = Schema::new();
        s.domain_with("DX", mdq_model::value::DomainKind::Int, Some(10.0));
        ServiceBuilder::new(&mut s, "a")
            .attr("X", "DX")
            .pattern("o")
            .profile(ServiceProfile::new(30.0, 1.0))
            .register()
            .expect("a");
        ServiceBuilder::new(&mut s, "b")
            .attr("X", "DX")
            .pattern("o")
            .profile(ServiceProfile::new(5.0, 1.0))
            .register()
            .expect("b");
        let q = parse_query("q(X) :- a(X), b(X).", &s).expect("parses");
        let q = Arc::new(q);
        let poset = mdq_plan::poset::Poset::antichain(2);
        let plan = build_plan(
            q,
            &s,
            ApChoice(vec![0, 0]),
            poset,
            vec![0, 1],
            &StrategyRule::default(),
        )
        .expect("builds");
        let ann = annotate(&plan, &s, CacheSetting::NoCache);
        // V_a = min(30, 10) = 10, V_b = min(5, 10) = 5 → σ = 1/10
        // t_out = 30·5/10 = 15
        assert!((ann.out_size() - 15.0).abs() < 1e-9, "{}", ann.out_size());
    }
}
