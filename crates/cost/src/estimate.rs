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
//!
//! **Reuse across a search.** [`Estimator::prepare_from`] writes a
//! plan's analysis into a [`PreparedPlan`] its caller keeps, reading the
//! query's [`QueryFacts`] (predicate variables and σ's, domain
//! cardinalities, input variables per atom and pattern), which the
//! caller takes once. The optimizer keeps both in the costing workspace
//! of a search — owned by that search's `CostContext`, never shared, and
//! dropped with it — and prepares every candidate into them. The bits
//! are those of a fresh [`Estimator::prepare`]: that is the same code on
//! fresh buffers, every table is cleared or overwritten before it is
//! read, the facts hold exactly the values the per-plan lookups computed,
//! and the floating-point operations run in the same order.
//!
//! **From node `k` on.** Every figure of a node — its prepared step and
//! its estimate — depends only on the node's dataflow ancestors, which
//! precede it, and on its own atom's fetch factor (read by atom, so an
//! atom placed in front of it leaves its step valid). So a plan whose
//! first `k` nodes are those of the plan prepared before is prepared by
//! [`Estimator::prepare_from`] node `k` on, and [`PreparedPlan::evaluate`]
//! keeps the estimate of every node before the first one not estimated
//! since or whose own chunked fetch factor changed: the optimizer prices
//! each partial topology from its parent this way, and phase 3 each
//! fetch vector from the first factor it moved.

use crate::selectivity::SelectivityModel;
use mdq_model::binding::push_input_vars;
use mdq_model::bitset::BitSet;
use mdq_model::query::{ConjunctiveQuery, VarId};
use mdq_model::schema::{Chunking, Schema};
use mdq_plan::dag::{NodeId, NodeKind, Plan};
use std::ops::Range;
use std::sync::Arc;

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
#[derive(Debug)]
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

impl Clone for Annotation {
    fn clone(&self) -> Self {
        Annotation {
            t_in: self.t_in.clone(),
            t_out: self.t_out.clone(),
            calls: self.calls.clone(),
            cache: self.cache,
        }
    }

    /// Copies into the existing buffers: keeping the best annotation of a
    /// search costs no allocation once they have grown.
    fn clone_from(&mut self, source: &Self) {
        self.t_in.clone_from(&source.t_in);
        self.t_out.clone_from(&source.t_out);
        self.calls.clone_from(&source.calls);
        self.cache = source.cache;
    }
}

impl Default for Annotation {
    /// An annotation of no plan, to be overwritten.
    fn default() -> Self {
        Annotation {
            t_in: Vec::new(),
            t_out: Vec::new(),
            calls: Vec::new(),
            cache: CacheSetting::NoCache,
        }
    }
}

impl Annotation {
    /// Estimated size of the query answer (`t_out` of the Output node).
    pub fn out_size(&self) -> f64 {
        *self.t_out.last().expect(
            "an annotation has one entry per plan node, and every plan ends in its Output node",
        )
    }
}

/// The §5.2 estimator. Borrowed context: schema for profiles/domains,
/// selectivity model for predicate σ's.
///
/// Estimation is split in three. [`Estimator::facts`] reads what a
/// query contributes independently of any plan; [`Estimator::prepare_from`]
/// analyses a plan once — everything that does not depend on the fetch
/// factors — and [`PreparedPlan::evaluate`] turns a fetch vector into an
/// [`Annotation`] with a straight loop over `f64`s. The optimizer takes
/// the facts once per search, prepares each candidate into one reused
/// [`PreparedPlan`] and evaluates it per fetch vector;
/// [`Estimator::prepare`] and [`Estimator::annotate`] are the one-shot
/// forms of the same code.
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
    /// Chunked service: chunk size × the fetch factor of query atom
    /// `atom` (at whatever plan position the atom sits).
    Chunked { chunk_size: f64, atom: usize },
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
///
/// [`Estimator::prepare_from`] rewrites the tables of a prepared plan
/// for the next plan from its first changed node on, keeping the
/// buffers: what one plan left behind past that node is cut or
/// overwritten before it can be read, so a reused prepared plan
/// evaluates exactly like a fresh one.
#[derive(Clone, Debug, Default)]
pub struct PreparedPlan {
    steps: Vec<Step>,
    /// Per step: the lengths of `input_vars`, `carriers` and
    /// `value_joins` before it — where a re-preparation from that node
    /// cuts the arenas.
    marks: Vec<[usize; 3]>,
    input_vars: Vec<InputVar>,
    carriers: Vec<usize>,
    value_joins: Vec<f64>,
    /// Plan position of each query atom (read where a fetch factor is).
    position: Vec<usize>,
    /// The chunked invoke nodes, as (plan position, node).
    chunked: Vec<(usize, usize)>,
    /// Per node: the fetch factor a chunked invoke node was last
    /// estimated under.
    fetched: Vec<u64>,
    /// Leading nodes whose annotation entries are the estimate under
    /// the fetch factors in `fetched` — what the next evaluation keeps.
    evaluated: usize,
    ann: Annotation,
    /// Scratch for `N(n)`: (minimal node, its variables' domain cap).
    minimal: Vec<(usize, f64)>,
    /// Scratch of preparation: per node, the predicates applied at or
    /// upstream of it (a bit set of `words` words per node), and the
    /// dataflow-ancestor walks.
    applied: Vec<u64>,
    walk: AncestorWalk,
}

/// What a query contributes to the preparation of any plan over it:
/// each predicate's variables and σ, each variable's domain cardinality
/// and each atom's input variables under each of its access patterns.
/// [`Estimator::facts`] reads them once; every
/// [`Estimator::prepare_from`] of a plan over the query looks them up.
#[derive(Clone, Debug)]
pub struct QueryFacts {
    query: Arc<ConjunctiveQuery>,
    /// Per predicate: its variables (by id) and its selectivity.
    predicates: Vec<(BitSet, f64)>,
    /// Domain cardinality per variable id, read off the variable's first
    /// occurrence in an atom (∞ when unknown; `None` for a variable in no
    /// atom, read as ∞ too).
    cardinality: Vec<Option<f64>>,
    /// Per atom, the index in `inputs` of its first access pattern.
    first_pattern: Vec<usize>,
    /// Per (atom, pattern): its input variables, a range of `input_vars`.
    inputs: Vec<Range<usize>>,
    input_vars: Vec<VarId>,
}

impl QueryFacts {
    /// Whether these are the facts of `query` (the same allocation, not
    /// merely an equal query).
    pub fn is_for(&self, query: &Arc<ConjunctiveQuery>) -> bool {
        Arc::ptr_eq(&self.query, query)
    }

    /// Cardinality of the abstract domain of `v` (∞ when unknown).
    fn cardinality(&self, v: VarId) -> f64 {
        self.cardinality[v.0 as usize].unwrap_or(f64::INFINITY)
    }

    /// The input variables of `atom` under its access pattern `pattern`.
    fn inputs(&self, atom: usize, pattern: usize) -> &[VarId] {
        &self.input_vars[self.inputs[self.first_pattern[atom] + pattern].clone()]
    }
}

impl PreparedPlan {
    /// Estimates the plan under `fetches` (one factor per plan-atom
    /// position) into the reused annotation, which stays valid until
    /// the next call. Only the nodes from the first one whose figures
    /// can differ from the estimate held are evaluated: the first node
    /// not yet estimated since it was prepared, or the first chunked
    /// invoke node whose fetch factor changed (see the module docs).
    pub fn evaluate(&mut self, fetches: &[u64]) -> &Annotation {
        let start = self
            .chunked
            .iter()
            .filter(|&&(pos, node)| self.fetched[node] != fetches[pos])
            .fold(self.evaluated, |start, &(_, node)| start.min(node));
        self.evaluated = self.steps.len();
        let Annotation {
            t_in,
            t_out,
            calls,
            cache,
        } = &mut self.ann;
        for (i, step) in self.steps.iter().enumerate().skip(start) {
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
                        ResultSize::Chunked { chunk_size, atom } => {
                            let fetch = fetches[self.position[atom]];
                            self.fetched[i] = fetch;
                            chunk_size * fetch as f64
                        }
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
        self.evaluated = 0;
        &mut self.ann
    }

    /// Gives up the buffers: the annotation of the last evaluation.
    fn into_annotation(self) -> Annotation {
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
    /// [`evaluate`](PreparedPlan::evaluate) calls: [`Estimator::prepare_from`]
    /// on fresh facts and a fresh prepared plan.
    pub fn prepare(&self, plan: &Plan) -> PreparedPlan {
        let mut prepared = PreparedPlan::default();
        self.prepare_from(plan, &self.facts(&plan.query), &mut prepared, 0);
        prepared
    }

    /// What `query` contributes to every plan over it, read once.
    pub fn facts(&self, query: &Arc<ConjunctiveQuery>) -> QueryFacts {
        let predicates = query
            .predicates
            .iter()
            .map(|p| {
                let vars = p.vars().iter().map(|v| v.0 as usize).collect();
                (vars, self.selectivity.selectivity(p))
            })
            .collect();
        // a variable's domain is read off its first occurrence in an atom
        let mut cardinality: Vec<Option<f64>> = vec![None; query.var_count()];
        for atom in &query.atoms {
            let sig = self.schema.service(atom.service);
            for (i, t) in atom.terms.iter().enumerate() {
                if let Some(v) = t.as_var() {
                    cardinality[v.0 as usize].get_or_insert_with(|| {
                        self.schema
                            .domain_info(sig.domains[i])
                            .cardinality
                            .unwrap_or(f64::INFINITY)
                    });
                }
            }
        }
        let (mut first_pattern, mut inputs, mut input_vars) = (Vec::new(), Vec::new(), Vec::new());
        for (atom, a) in query.atoms.iter().enumerate() {
            first_pattern.push(inputs.len());
            for pattern in 0..self.schema.service(a.service).patterns.len() {
                let start = input_vars.len();
                push_input_vars(query, self.schema, atom, pattern, &mut input_vars);
                inputs.push(start..input_vars.len());
            }
        }
        QueryFacts {
            query: Arc::clone(query),
            predicates,
            cardinality,
            first_pattern,
            inputs,
            input_vars,
        }
    }

    /// Analyses `plan` into `prepared` from node `start` on, reusing its
    /// buffers; `facts` must be those of the plan's query
    /// ([`QueryFacts::is_for`]) under this estimator. With `start` 0 it
    /// overwrites whatever plan `prepared` held. Otherwise `prepared` must
    /// hold the analysis, under this estimator and `facts`, of a plan over
    /// the same query and choice whose first `start` nodes are `plan`'s:
    /// their steps are kept, the rest rewritten, and the annotation is cut
    /// to the kept nodes' entries.
    pub fn prepare_from(
        &self,
        plan: &Plan,
        facts: &QueryFacts,
        prepared: &mut PreparedPlan,
        start: usize,
    ) {
        debug_assert!(facts.is_for(&plan.query), "facts of another query");
        let n = plan.nodes.len();
        let words = facts.predicates.len().div_ceil(64);
        let PreparedPlan {
            steps,
            marks,
            input_vars,
            carriers,
            value_joins,
            position,
            chunked,
            fetched,
            evaluated,
            ann,
            minimal,
            applied,
            walk,
        } = prepared;
        let start = start.min(steps.len());
        if let Some(&[inputs, carried, joined]) = marks.get(start) {
            input_vars.truncate(inputs);
            carriers.truncate(carried);
            value_joins.truncate(joined);
        }
        steps.truncate(start);
        marks.truncate(start);
        // a node from `start` on is estimated again whatever it held
        *evaluated = (*evaluated).min(start);
        fetched.resize(n, 0);
        minimal.clear();
        for column in [&mut ann.t_in, &mut ann.t_out, &mut ann.calls] {
            column.truncate(start);
            column.resize(n, 0.0);
        }
        ann.cache = self.cache;
        position.clear();
        position.resize(plan.query.atoms.len(), usize::MAX);
        for (pos, &atom) in plan.atoms.iter().enumerate() {
            position[atom] = pos;
        }
        // per node, the predicates applied at or upstream of it
        applied.truncate(start * words);
        applied.resize(n * words, 0);
        walk.reset(n);

        for (i, node) in plan.nodes.iter().enumerate().skip(start) {
            marks.push([input_vars.len(), carriers.len(), value_joins.len()]);
            // predicates inherited from inputs, then those newly
            // applicable here: all vars bound, not yet applied
            let (upstream, done) = applied.split_at_mut(i * words);
            let done = &mut done[..words];
            for inp in &node.inputs {
                for (d, &a) in done.iter_mut().zip(&upstream[inp.0 * words..]) {
                    *d |= a;
                }
            }
            let mut sigma = 1.0;
            for (k, (vars, selectivity)) in facts.predicates.iter().enumerate() {
                let (word, bit) = (k / 64, 1u64 << (k % 64));
                if done[word] & bit == 0 && vars.is_subset(&node.bound_vars) {
                    done[word] |= bit;
                    sigma *= selectivity;
                }
            }

            let step = match &node.kind {
                NodeKind::Input => Step::Input,
                NodeKind::Output => Step::Output {
                    up: node.inputs[0].0,
                    sigma,
                },
                NodeKind::Invoke { atom } => {
                    let sig = self.schema.service(plan.query.atoms[*atom].service);
                    let size = match sig.chunking {
                        Chunking::Bulk => ResultSize::Bulk(sig.profile.erspi),
                        Chunking::Chunked { chunk_size } => ResultSize::Chunked {
                            chunk_size: chunk_size as f64,
                            atom: *atom,
                        },
                    };
                    // How the effective invocation count follows from the
                    // input stream; the carrier sets land in the arenas.
                    let calls =
                        if self.cache == CacheSetting::NoCache {
                            CallRule::PerTuple
                        } else {
                            let in_vars = facts.inputs(*atom, plan.choice.pattern_of(*atom));
                            if in_vars.is_empty() {
                                CallRule::Constant
                            } else {
                                let ancestors = walk.ancestors(plan, i);
                                let start = input_vars.len();
                                for &v in in_vars {
                                    let first = carriers.len();
                                    carriers.extend(ancestors.iter().copied().filter(|&a| {
                                        plan.nodes[a].bound_vars.contains(v.0 as usize)
                                    }));
                                    // variables with no carrying ancestor cannot
                                    // occur in admissible plans; treat as
                                    // unconstrained (no factor)
                                    if carriers.len() > first {
                                        input_vars.push(InputVar {
                                            carriers: first..carriers.len(),
                                            cardinality: facts.cardinality(v),
                                        });
                                    }
                                }
                                CallRule::Blocks(start..input_vars.len())
                            }
                        };
                    Step::Invoke {
                        up: node.inputs[0].0,
                        sigma,
                        size,
                        calls,
                    }
                }
                NodeKind::Join {
                    left, right, on, ..
                } => {
                    let divergence = walk.divergence(plan, *left, *right);
                    let div_bound = &plan.nodes[divergence].bound_vars;
                    let start = value_joins.len();
                    value_joins.extend(
                        on.iter()
                            .filter(|v| !div_bound.contains(v.0 as usize))
                            .map(|&v| facts.cardinality(v)),
                    );
                    Step::Join {
                        left: left.0,
                        right: right.0,
                        divergence,
                        sigma,
                        value_joins: start..value_joins.len(),
                    }
                }
            };
            steps.push(step);
        }
        // positions move when an atom is placed before others: re-read
        chunked.clear();
        chunked.extend(steps.iter().enumerate().filter_map(|(i, step)| match step {
            Step::Invoke {
                size: ResultSize::Chunked { atom, .. },
                ..
            } => Some((position[*atom], i)),
            _ => None,
        }));
    }
}

/// Reused buffers for the dataflow-ancestor walks of preparation.
#[derive(Clone, Debug, Default)]
struct AncestorWalk {
    seen: Vec<bool>,
    stack: Vec<usize>,
    out: Vec<usize>,
    /// Membership in the first side's ancestry, for [`AncestorWalk::divergence`].
    of_a: Vec<bool>,
}

impl AncestorWalk {
    /// Sizes the buffers for a plan of `nodes` nodes.
    fn reset(&mut self, nodes: usize) {
        self.seen.clear();
        self.seen.resize(nodes, false);
        self.of_a.clear();
        self.of_a.resize(nodes, false);
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
        self.of_a.fill(false);
        self.of_a[a.0] = true;
        self.ancestors(plan, a.0);
        for &x in &self.out {
            self.of_a[x] = true;
        }
        self.ancestors(plan, b.0);
        self.out
            .iter()
            .copied()
            .chain(std::iter::once(b.0))
            .filter(|&x| self.of_a[x])
            .max()
            .expect("both sides of a join descend from the Input node, their common root")
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

    /// Calls attributed to the invoke node of plan-atom position `pos`.
    fn calls_of_atom(ann: &Annotation, plan: &Plan, pos: usize) -> f64 {
        plan.node_of_atom(pos)
            .map(|NodeId(i)| ann.calls[i])
            .unwrap_or(0.0)
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
        let calls = |pos: usize| calls_of_atom(&ann, &plan, pos);
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
        assert!((calls_of_atom(&ann, &plan, ATOM_HOTEL) - 25.0).abs() < 1e-9);
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
        let w = calls_of_atom(&opt, &plan, mdq_model::examples::ATOM_WEATHER);
        assert!(w <= 20.0 + 1e-9);
        // shrink Date too: now the 3·2 = 6 cap binds
        let date = schema.domain_by_name("Date").expect("Date domain");
        schema.set_domain_cardinality(date, 2.0);
        let opt2 = annotate(&plan, &schema, CacheSetting::Optimal);
        let w2 = calls_of_atom(&opt2, &plan, mdq_model::examples::ATOM_WEATHER);
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
