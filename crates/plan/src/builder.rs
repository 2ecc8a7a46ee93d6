//! Lowering a topology into an executable dataflow DAG.
//!
//! Given the chosen access patterns (phase 1) and the partial order over
//! atoms (phase 2), the builder produces the operator DAG of Fig. 4/6:
//! atoms chain into pipe joins along the order; where incomparable
//! branches must merge — because a downstream atom needs both, or at the
//! query output — explicit parallel-join nodes are inserted, marked with
//! a rank-preserving strategy chosen by a [`StrategyRule`] (the paper
//! fixes strategies per service pair at registration time, §3.3/§5).
//!
//! **One lowering, batch by batch.** A plan is lowered as a stack: the
//! Input node, then each level of the poset as a *batch* of join and
//! invoke nodes in (level, position) order, then the *cap* — the join of
//! the maximal streams and the Output node. [`lower`] pushes every level
//! of an installed topology and caps once; [`build_plan`] and
//! [`build_plan_with`] run it on a fresh plan. [`lower_onto`] moves the
//! same stack from one partial topology to the next — the optimizer's
//! branch and bound prices a prefix per batch it places, and the prefix
//! differs from the one priced before by the batches placed or undone
//! since — so only the new batch and a new cap are written. The stack,
//! its plan and their recycled nodes live in the costing workspace of
//! one search (its `CostContext`) and die with it.

use crate::dag::{bound_vars_for, JoinStrategy, NodeId, NodeKind, Plan, PlanNode, Side};
use crate::poset::{bit, members, PartialTopology, Poset};
use mdq_model::binding::{ApChoice, SupplierMap};
use mdq_model::bitset::BitSet;
use mdq_model::query::{ConjunctiveQuery, VarId};
use mdq_model::schema::{Schema, ServiceId, ServiceKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised while lowering a topology to a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// An atom's input variable is not covered by any predecessor under
    /// the chosen access patterns — the topology is not admissible.
    UncoveredInput {
        /// Query atom index.
        atom: usize,
        /// Name of the uncovered variable.
        var: String,
    },
    /// Mismatched sizes between poset, atom list or pattern choice.
    ShapeMismatch(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UncoveredInput { atom, var } => write!(
                f,
                "atom #{atom}: input variable `{var}` is not supplied by any predecessor"
            ),
            BuildError::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Chooses the strategy for each parallel join, emulating the paper's
/// service-registration-time oracle: an explicit per-service-pair table
/// with a default, plus the §3.3 guideline of preferring nested loop when
/// one side's branch tip has a known small decay (a "highly selective"
/// ranked stream).
#[derive(Clone, Debug)]
pub struct StrategyRule {
    /// Fallback strategy when no pair entry applies.
    pub default: JoinStrategy,
    /// Per-(left service, right service) overrides.
    pub pairs: HashMap<(ServiceId, ServiceId), JoinStrategy>,
    /// When `true` (default), a side whose branch-tip service has a decay
    /// bound small enough to be exhausted in one fetch is treated as the
    /// selective outer of a nested loop.
    pub prefer_nl_on_decay: bool,
}

impl Default for StrategyRule {
    fn default() -> Self {
        StrategyRule {
            default: JoinStrategy::MergeScan,
            pairs: HashMap::new(),
            prefer_nl_on_decay: true,
        }
    }
}

impl StrategyRule {
    /// A rule that always answers `strategy`.
    pub fn fixed(strategy: JoinStrategy) -> Self {
        StrategyRule {
            default: strategy,
            pairs: HashMap::new(),
            prefer_nl_on_decay: false,
        }
    }

    /// Registers a per-pair strategy (both orientations).
    pub fn with_pair(mut self, a: ServiceId, b: ServiceId, strategy: JoinStrategy) -> Self {
        self.pairs.insert((a, b), strategy);
        let mirrored = match strategy {
            JoinStrategy::NestedLoop { outer: Side::Left } => {
                JoinStrategy::NestedLoop { outer: Side::Right }
            }
            JoinStrategy::NestedLoop { outer: Side::Right } => {
                JoinStrategy::NestedLoop { outer: Side::Left }
            }
            JoinStrategy::MergeScan => JoinStrategy::MergeScan,
        };
        self.pairs.insert((b, a), mirrored);
        self
    }

    /// Chooses a strategy for joining branches tipped by services
    /// `left`/`right`.
    pub fn choose(
        &self,
        schema: &Schema,
        left: Option<ServiceId>,
        right: Option<ServiceId>,
    ) -> JoinStrategy {
        if let (Some(l), Some(r)) = (left, right) {
            if let Some(&s) = self.pairs.get(&(l, r)) {
                return s;
            }
            if self.prefer_nl_on_decay {
                let small = |sid: ServiceId| {
                    let sig = schema.service(sid);
                    sig.kind == ServiceKind::Search
                        && sig
                            .max_fetches_from_decay()
                            .map(|f| f <= 1)
                            .unwrap_or(false)
                };
                match (small(l), small(r)) {
                    (true, false) => return JoinStrategy::NestedLoop { outer: Side::Left },
                    (false, true) => return JoinStrategy::NestedLoop { outer: Side::Right },
                    _ => {}
                }
            }
        }
        self.default
    }
}

/// Lowers `(choice, poset)` over `atoms` (query atom indices, one per
/// poset position) into a [`Plan`].
///
/// `atoms` may be a strict subset of the query's atoms: the optimizer
/// builds such *prefix plans* during branch-and-bound to obtain lower
/// bounds. Admissibility of every covered atom is re-checked.
pub fn build_plan(
    query: Arc<ConjunctiveQuery>,
    schema: &Schema,
    choice: ApChoice,
    poset: Poset,
    atoms: Vec<usize>,
    rule: &StrategyRule,
) -> Result<Plan, BuildError> {
    check_shape(&query, &choice, &poset, &atoms)?;
    let suppliers = SupplierMap::build(&query, schema, &choice);
    build_plan_with(&suppliers, query, schema, choice, poset, atoms, rule)
}

fn check_shape(
    query: &ConjunctiveQuery,
    choice: &ApChoice,
    poset: &Poset,
    atoms: &[usize],
) -> Result<(), BuildError> {
    if poset.len() != atoms.len() {
        return Err(BuildError::ShapeMismatch(format!(
            "poset has {} positions, atom list has {}",
            poset.len(),
            atoms.len()
        )));
    }
    if choice.len() != query.atoms.len() {
        return Err(BuildError::ShapeMismatch(format!(
            "pattern choice covers {} atoms, query has {}",
            choice.len(),
            query.atoms.len()
        )));
    }
    Ok(())
}

/// [`build_plan`] with the supplier map of `(query, choice)` supplied by
/// the caller — the one-shot form of [`lower`].
pub fn build_plan_with(
    suppliers: &SupplierMap,
    query: Arc<ConjunctiveQuery>,
    schema: &Schema,
    choice: ApChoice,
    poset: Poset,
    atoms: Vec<usize>,
    rule: &StrategyRule,
) -> Result<Plan, BuildError> {
    let mut plan = Plan {
        query,
        choice,
        poset,
        atoms,
        nodes: Vec::new(),
        fetches: Vec::new(),
    };
    lower(&mut plan, &mut Lowering::default(), suppliers, schema, rule)?;
    Ok(plan)
}

/// The state of one plan's lowering, kept between lowerings by a caller
/// that lowers many plans (the optimizer lowers every candidate of a
/// search into one plan).
///
/// A plan is lowered as a stack of batches: the Input node, then each
/// batch's join and invoke nodes, then the *cap* — the join of the
/// maximal streams and the Output node. Pushing a batch drops the cap,
/// appends the batch and caps again; popping truncates to where the
/// batch began. Nodes dropped are recycled, so their vectors are reused
/// rather than reallocated.
#[derive(Debug, Default)]
pub struct Lowering {
    /// Plan position of each query atom.
    position_of: Vec<Option<usize>>,
    /// Scratch of the topological sort.
    level: Vec<usize>,
    order: Vec<usize>,
    /// `stream[e]` = node producing the joined stream *including*
    /// element `e` — a plan position for [`lower`], a query atom for
    /// [`lower_onto`].
    stream: Vec<Option<NodeId>>,
    /// Streams a join tree is about to merge.
    branches: Vec<NodeId>,
    /// Elements placed, batch after batch.
    placed: Vec<usize>,
    /// Per batch placed: the length of `placed` and the node count
    /// before it.
    marks: Vec<(usize, usize)>,
    /// First node of the cap, while the plan has one.
    cap: Option<usize>,
    /// What the stack [`lower_onto`] extends was lowered for; `None`
    /// after [`lower`].
    onto: Option<Onto>,
    /// Strict predecessors of each atom [`lower_onto`] placed (a bit
    /// set).
    preds: Vec<u64>,
    nodes: NodeWriter,
}

/// The plan's query and choice, and the schema and rule (by address),
/// a stack was lowered under.
#[derive(Debug)]
struct Onto {
    query: Arc<ConjunctiveQuery>,
    choice: ApChoice,
    schema: usize,
    rule: usize,
}

/// Appends plan nodes, recycling those of the previous plan.
#[derive(Debug, Default)]
struct NodeWriter {
    /// `tip[node]` = service tipping that node's stream (for the strategy
    /// oracle; `None` for the Input node and joins).
    tip: Vec<Option<ServiceId>>,
    /// Nodes dropped, the next one to reuse last.
    spare: Vec<PlanNode>,
    /// Join-variable vectors of recycled join nodes.
    spare_vars: Vec<Vec<VarId>>,
}

impl NodeWriter {
    /// Moves the nodes from `from` on into the spares.
    fn recycle(&mut self, nodes: &mut Vec<PlanNode>, from: usize) {
        self.tip.truncate(from);
        for mut node in nodes.drain(from..).rev() {
            if let NodeKind::Join { on, .. } = std::mem::replace(&mut node.kind, NodeKind::Input) {
                self.spare_vars.push(on);
            }
            self.spare.push(node);
        }
    }

    fn push(
        &mut self,
        nodes: &mut Vec<PlanNode>,
        query: &ConjunctiveQuery,
        kind: NodeKind,
        inputs: &[NodeId],
    ) -> NodeId {
        let mut node = self.spare.pop().unwrap_or_else(|| PlanNode {
            kind: NodeKind::Input,
            inputs: Vec::new(),
            bound_vars: BitSet::new(),
        });
        node.inputs.clear();
        node.inputs.extend_from_slice(inputs);
        bound_vars_for(query, nodes, &kind, inputs, &mut node.bound_vars);
        self.tip.push(match kind {
            NodeKind::Invoke { atom } => Some(query.atoms[atom].service),
            _ => None,
        });
        node.kind = kind;
        nodes.push(node);
        NodeId(nodes.len() - 1)
    }

    /// Joins the streams of several branches with a left-deep tree (no
    /// branch: the Input node's stream).
    fn join_streams(
        &mut self,
        nodes: &mut Vec<PlanNode>,
        query: &ConjunctiveQuery,
        schema: &Schema,
        rule: &StrategyRule,
        branches: &[NodeId],
    ) -> NodeId {
        let Some((&first, rest)) = branches.split_first() else {
            return NodeId(0);
        };
        let mut acc = first;
        for &b in rest {
            let mut on = self.spare_vars.pop().unwrap_or_default();
            on.clear();
            let right = &nodes[b.0].bound_vars;
            on.extend(
                nodes[acc.0]
                    .bound_vars
                    .iter()
                    .filter(|&v| right.contains(v))
                    .map(|v| VarId(v as u32)),
            );
            let strategy = rule.choose(schema, self.tip[acc.0], self.tip[b.0]);
            let kind = NodeKind::Join {
                left: acc,
                right: b,
                strategy,
                on,
            };
            acc = self.push(nodes, query, kind, &[acc, b]);
        }
        acc
    }
}

impl Lowering {
    /// Starts `nodes` over as the Input node alone, with a stream slot
    /// per element.
    fn start(&mut self, nodes: &mut Vec<PlanNode>, query: &ConjunctiveQuery, elements: usize) {
        self.nodes.recycle(nodes, 0);
        self.nodes.push(nodes, query, NodeKind::Input, &[]);
        self.stream.clear();
        self.stream.resize(elements, None);
        self.placed.clear();
        self.marks.clear();
        self.cap = None;
    }

    /// Pops every batch after the first `depth`, and the cap; returns
    /// the node count left — the index of the first node written next.
    fn truncate(&mut self, nodes: &mut Vec<PlanNode>, depth: usize) -> usize {
        let end = match self.marks.get(depth) {
            Some(&(placed, end)) => {
                self.placed.truncate(placed);
                self.marks.truncate(depth);
                end
            }
            None => self.cap.unwrap_or(nodes.len()),
        };
        self.cap = None;
        self.nodes.recycle(nodes, end);
        end
    }

    /// Pushes one batch: each `(element, atom, covering)` gets the join
    /// of its covering predecessors' streams (ascending) and an invoke
    /// node for `atom`, in the order given.
    fn push_batch<C: IntoIterator<Item = usize>>(
        &mut self,
        nodes: &mut Vec<PlanNode>,
        query: &ConjunctiveQuery,
        schema: &Schema,
        rule: &StrategyRule,
        batch: impl IntoIterator<Item = (usize, usize, C)>,
    ) {
        let end = self.truncate(nodes, self.marks.len());
        self.marks.push((self.placed.len(), end));
        for (element, atom, covering) in batch {
            self.branches.clear();
            self.branches.extend(covering.into_iter().map(|c| {
                self.stream[c].expect("a covering predecessor is placed in an earlier batch")
            }));
            let upstream = self
                .nodes
                .join_streams(nodes, query, schema, rule, &self.branches);
            let id = self
                .nodes
                .push(nodes, query, NodeKind::Invoke { atom }, &[upstream]);
            self.stream[element] = Some(id);
            self.placed.push(element);
        }
    }

    /// Caps the plan: joins the streams of the `maximal` elements
    /// (ascending) into the Output node.
    fn cap(
        &mut self,
        nodes: &mut Vec<PlanNode>,
        query: &ConjunctiveQuery,
        schema: &Schema,
        rule: &StrategyRule,
        maximal: impl IntoIterator<Item = usize>,
    ) {
        let start = self.truncate(nodes, self.marks.len());
        self.branches.clear();
        self.branches.extend(
            maximal
                .into_iter()
                .map(|e| self.stream[e].expect("a maximal element is placed")),
        );
        let final_stream = self
            .nodes
            .join_streams(nodes, query, schema, rule, &self.branches);
        self.nodes
            .push(nodes, query, NodeKind::Output, &[final_stream]);
        self.cap = Some(start);
    }

    /// The batches of `target` this stack already holds, counted from
    /// the first: same atoms, same predecessors.
    fn common_batches(&self, target: &PartialTopology) -> usize {
        let held = self.marks.iter().enumerate().map(|(j, &(from, _))| {
            let to = self.marks.get(j + 1).map_or(self.placed.len(), |m| m.0);
            &self.placed[from..to]
        });
        held.zip(&target.batches)
            .take_while(|(held, batch)| {
                held[..] == batch[..] && batch.iter().all(|&b| self.preds[b] == target.preds[b])
            })
            .count()
    }
}

/// Lowers the topology installed in `plan` — its `query`, `choice`,
/// `poset` and `atoms` — into its `nodes`, and resets its `fetches` to 1.
/// `suppliers` is the supplier map of `(query, choice)`.
///
/// The poset's levels are pushed as batches, in (level, position) order
/// — the routine [`lower_onto`] extends a plan with — and the plan is
/// capped once. [`build_plan`] and [`build_plan_with`] call it on a
/// fresh plan. On error `plan.nodes` is unspecified.
pub fn lower(
    plan: &mut Plan,
    lowering: &mut Lowering,
    suppliers: &SupplierMap,
    schema: &Schema,
    rule: &StrategyRule,
) -> Result<(), BuildError> {
    check_shape(&plan.query, &plan.choice, &plan.poset, &plan.atoms)?;
    let Plan {
        query,
        poset,
        atoms,
        nodes,
        fetches,
        ..
    } = plan;
    let query = &**query;

    // Admissibility: every position's input vars must be covered by its
    // strict predecessors (mapping positions back to query atom indices).
    let position_of = &mut lowering.position_of;
    position_of.clear();
    position_of.resize(query.atoms.len(), None);
    for (pos, &atom) in atoms.iter().enumerate() {
        position_of[atom] = Some(pos);
    }
    for (pos, &atom) in atoms.iter().enumerate() {
        let precedes = |s: &usize| position_of[*s].is_some_and(|p| poset.lt(p, pos));
        if let Some((v, _)) = suppliers.per_atom[atom]
            .iter()
            .find(|(_, sup)| !sup.iter().any(precedes))
        {
            let var = query.var_name(*v).to_string();
            return Err(BuildError::UncoveredInput { atom, var });
        }
    }

    lowering.onto = None;
    lowering.start(nodes, query, atoms.len());
    let (mut level, mut order) = (
        std::mem::take(&mut lowering.level),
        std::mem::take(&mut lowering.order),
    );
    poset.topological_order_into(&mut level, &mut order);
    for batch in order.chunk_by(|&a, &b| level[a] == level[b]) {
        let batch = batch
            .iter()
            .map(|&pos| (pos, atoms[pos], poset.covering(pos)));
        lowering.push_batch(nodes, query, schema, rule, batch);
    }
    lowering.cap(nodes, query, schema, rule, poset.maximal());
    (lowering.level, lowering.order) = (level, order);

    fetches.clear();
    fetches.resize(atoms.len(), 1);
    debug_assert_eq!(plan.check_invariants(), Ok(()));
    Ok(())
}

/// Lowers the partial topology `target` over `plan`'s query and choice
/// into `plan` by moving the stack `lowering` last lowered there: the
/// batches both share are kept, the rest popped, `target`'s remaining
/// batches pushed and the plan capped again. `plan.atoms` becomes the
/// placed atoms (ascending), `plan.poset` `target`'s relation among them
/// and every fetch factor 1. `suppliers` is the supplier map of
/// `(query, choice)`. `plan` must be the plan `lowering` last lowered
/// onto; the stack starts over when the query, choice, schema or rule
/// changed, or when `plan` does not hold as many nodes as it wrote.
///
/// Returns the index of the first node that differs from the plan
/// lowered before (`None`: it is the same plan). The nodes are those
/// [`lower`] writes for the same topology, field for field: `target`'s
/// batches are its levels and each batch is pushed in ascending atom
/// order, so every node keeps its index and its inputs. On error (a
/// batch not admissible) nothing but the fetch factors is touched.
pub fn lower_onto(
    plan: &mut Plan,
    lowering: &mut Lowering,
    suppliers: &SupplierMap,
    schema: &Schema,
    rule: &StrategyRule,
    target: &PartialTopology,
) -> Result<Option<usize>, BuildError> {
    let (schema_at, rule_at) = (schema as *const Schema as usize, rule as *const _ as usize);
    let same = lowering.onto.as_ref().is_some_and(|onto| {
        Arc::ptr_eq(&onto.query, &plan.query)
            && onto.choice == plan.choice
            && (onto.schema, onto.rule) == (schema_at, rule_at)
            && lowering.nodes.tip.len() == plan.nodes.len()
    });
    plan.fetches.clear();
    plan.fetches.resize(target.placed.count_ones() as usize, 1);
    // the batches the stack keeps; `None`: it starts over
    let kept = (same && lowering.cap.is_some()).then(|| lowering.common_batches(target));
    if kept == Some(lowering.marks.len()) && kept == Some(target.batches.len()) {
        return Ok(None);
    }

    for &b in target.batches[kept.unwrap_or(0)..].iter().flatten() {
        let covered = |sup: &Vec<usize>| sup.iter().any(|&s| target.preds[b] & bit(s) != 0);
        if let Some((v, _)) = suppliers.per_atom[b].iter().find(|(_, sup)| !covered(sup)) {
            let var = plan.query.var_name(*v).to_string();
            return Err(BuildError::UncoveredInput { atom: b, var });
        }
    }
    let (kept, first) = match kept {
        Some(kept) => (kept, lowering.truncate(&mut plan.nodes, kept)),
        None => {
            let n = plan.query.atoms.len();
            lowering.start(&mut plan.nodes, &plan.query, n);
            let onto = lowering.onto.get_or_insert_with(|| Onto {
                query: Arc::clone(&plan.query),
                choice: ApChoice(Vec::new()),
                schema: schema_at,
                rule: rule_at,
            });
            onto.query = Arc::clone(&plan.query);
            onto.choice.0.clone_from(&plan.choice.0);
            (onto.schema, onto.rule) = (schema_at, rule_at);
            lowering.preds.clear();
            lowering.preds.resize(n, 0);
            (0, 0)
        }
    };
    let preds = &target.preds;
    // the strict predecessors no other predecessor precedes
    let covering = |b: usize| preds[b] & !members(preds[b]).fold(0, |set, c| set | preds[c]);
    for batch in &target.batches[kept..] {
        for &b in batch {
            lowering.preds[b] = preds[b];
        }
        let batch = batch.iter().map(|&b| (b, b, members(covering(b))));
        lowering.push_batch(&mut plan.nodes, &plan.query, schema, rule, batch);
    }
    let placed = target.placed;
    let below = members(placed).fold(0, |set, b| set | preds[b]);
    lowering.cap(
        &mut plan.nodes,
        &plan.query,
        schema,
        rule,
        members(placed & !below),
    );

    plan.atoms.clear();
    plan.atoms.extend(members(placed));
    target.poset.restrict_into(&plan.atoms, &mut plan.poset);
    debug_assert_eq!(plan.check_invariants(), Ok(()));
    Ok(Some(first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{running_example, RunningExample};
    use mdq_model::examples::{ATOM_CONF, ATOM_FLIGHT, ATOM_HOTEL, ATOM_WEATHER};

    #[test]
    fn rejects_inadmissible_topology() {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        // weather before conf: weather's City input has no supplier
        let poset = Poset::from_pairs(4, &[(ATOM_WEATHER, ATOM_CONF)]).expect("valid poset");
        let err = build_plan(
            query,
            &schema,
            choice,
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect_err("must be inadmissible");
        assert!(matches!(err, BuildError::UncoveredInput { .. }), "{err}");
    }

    #[test]
    fn prefix_plans_build() {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        // prefix covering only conf and weather
        let poset = Poset::from_pairs(2, &[(0, 1)]).expect("valid");
        let plan = build_plan(
            query,
            &schema,
            choice,
            poset,
            vec![ATOM_CONF, ATOM_WEATHER],
            &StrategyRule::default(),
        )
        .expect("prefix builds");
        assert!(!plan.is_complete());
        assert_eq!(plan.summary(&schema), "IN → conf → weather → OUT");
    }

    #[test]
    fn strategy_rule_pair_table() {
        let RunningExample { schema, query, .. } = running_example();
        let flight_svc = query.atoms[ATOM_FLIGHT].service;
        let hotel_svc = query.atoms[ATOM_HOTEL].service;
        let rule = StrategyRule::default().with_pair(
            flight_svc,
            hotel_svc,
            JoinStrategy::NestedLoop { outer: Side::Left },
        );
        assert_eq!(
            rule.choose(&schema, Some(flight_svc), Some(hotel_svc)),
            JoinStrategy::NestedLoop { outer: Side::Left }
        );
        assert_eq!(
            rule.choose(&schema, Some(hotel_svc), Some(flight_svc)),
            JoinStrategy::NestedLoop { outer: Side::Right },
            "mirrored orientation"
        );
        let conf_svc = query.atoms[ATOM_CONF].service;
        assert_eq!(
            rule.choose(&schema, Some(conf_svc), Some(hotel_svc)),
            JoinStrategy::MergeScan,
            "default applies to unknown pairs"
        );
    }

    #[test]
    fn decay_triggers_nested_loop_preference() {
        let RunningExample {
            mut schema, query, ..
        } = running_example();
        let hotel_svc = query.atoms[ATOM_HOTEL].service;
        let flight_svc = query.atoms[ATOM_FLIGHT].service;
        // hotel decays within one chunk → selective side
        schema.service_mut(hotel_svc).profile.decay = Some(4);
        let rule = StrategyRule::default();
        assert_eq!(
            rule.choose(&schema, Some(flight_svc), Some(hotel_svc)),
            JoinStrategy::NestedLoop { outer: Side::Right }
        );
        assert_eq!(
            rule.choose(&schema, Some(hotel_svc), Some(flight_svc)),
            JoinStrategy::NestedLoop { outer: Side::Left }
        );
    }

    /// Moving one stack through every partial and complete topology of
    /// the running example — in the enumeration's order, and again in
    /// reverse so whole runs of batches pop at once — writes each time
    /// the plan `build_plan` lowers afresh, node for node.
    #[test]
    fn lower_onto_equals_a_fresh_lowering() {
        use crate::poset::{enumerate_topologies, TopologyVisitor};
        struct Collect(Vec<PartialTopology>);
        impl TopologyVisitor for Collect {
            fn on_partial(&mut self, state: &PartialTopology) -> bool {
                self.0.push(state.clone());
                true
            }
            fn on_complete(&mut self, state: &PartialTopology) {
                self.0.push(state.clone());
            }
        }
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let rule = StrategyRule::default();
        for pattern in [vec![0, 0, 0, 0], vec![0, 1, 0, 0]] {
            let choice = ApChoice(pattern);
            let suppliers = SupplierMap::build(&query, &schema, &choice);
            let mut states = Collect(Vec::new());
            enumerate_topologies(4, &suppliers, &mut states);
            let forward = states.0.iter();
            let targets: Vec<_> = forward.clone().chain(forward.rev()).collect();
            let mut plan = Plan {
                query: Arc::clone(&query),
                choice: choice.clone(),
                poset: Poset::antichain(0),
                atoms: Vec::new(),
                nodes: Vec::new(),
                fetches: Vec::new(),
            };
            let mut lowering = Lowering::default();
            let mut previous: Option<Vec<String>> = None;
            for target in targets {
                let changed =
                    lower_onto(&mut plan, &mut lowering, &suppliers, &schema, &rule, target)
                        .expect("enumerated topologies are admissible");
                let atoms: Vec<usize> = target.placed_atoms().collect();
                let fresh = build_plan(
                    Arc::clone(&query),
                    &schema,
                    choice.clone(),
                    target.poset.restrict(&atoms),
                    atoms,
                    &rule,
                )
                .expect("lowers afresh");
                let nodes: Vec<String> = plan.nodes.iter().map(|n| format!("{n:?}")).collect();
                let fresh_nodes: Vec<String> =
                    fresh.nodes.iter().map(|n| format!("{n:?}")).collect();
                assert_eq!(nodes, fresh_nodes);
                assert_eq!((&plan.atoms, &plan.poset), (&fresh.atoms, &fresh.poset));
                assert_eq!(plan.fetches, fresh.fetches);
                // what the stack reports kept is what the plan before held
                match (changed, &previous) {
                    (None, Some(before)) => assert_eq!(&nodes, before, "an unchanged plan"),
                    (Some(first), Some(before)) => {
                        assert!(first >= 1 && first < nodes.len(), "{first}");
                        assert_eq!(nodes[..first], before[..first]);
                    }
                    (changed, None) => assert_eq!(changed, Some(0), "a new stack starts at 0"),
                }
                previous = Some(nodes);
            }
        }
    }

    #[test]
    fn shape_mismatches_rejected() {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let poset = Poset::antichain(2);
        let err = build_plan(
            Arc::clone(&query),
            &schema,
            ApChoice(vec![0, 0, 0, 0]),
            poset,
            vec![ATOM_CONF],
            &StrategyRule::default(),
        )
        .expect_err("size mismatch");
        assert!(matches!(err, BuildError::ShapeMismatch(_)));
        let err = build_plan(
            query,
            &schema,
            ApChoice(vec![0]),
            Poset::antichain(1),
            vec![ATOM_CONF],
            &StrategyRule::default(),
        )
        .expect_err("choice mismatch");
        assert!(matches!(err, BuildError::ShapeMismatch(_)));
    }
}
