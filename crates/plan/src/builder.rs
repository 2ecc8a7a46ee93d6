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
//! **One lowering, reused.** [`lower`] writes into a plan its caller
//! holds; [`build_plan`] and [`build_plan_with`] run it once on a fresh
//! plan. The optimizer lowers every candidate of a search — prefixes
//! and complete topologies — into the one plan of its costing
//! workspace, with one [`Lowering`], both owned by that search's
//! `CostContext` and dropped with it. The previous candidate's nodes are
//! recycled so their vectors are reused, and every field of every node
//! is rewritten: the DAG is field for field the one a fresh
//! [`build_plan`] makes.

use crate::dag::{bound_vars_for, JoinStrategy, NodeId, NodeKind, Plan, PlanNode, Side};
use crate::poset::Poset;
use mdq_model::binding::{ApChoice, SupplierMap};
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

/// Buffers one lowering needs besides the plan it writes, kept between
/// lowerings by a caller that lowers many plans (the optimizer lowers
/// every candidate of a search into one plan): the nodes of the plan
/// lowered before are recycled, so their vectors are reused rather than
/// reallocated.
#[derive(Debug, Default)]
pub struct Lowering {
    /// Plan position of each query atom.
    position_of: Vec<Option<usize>>,
    /// Scratch of the topological sort.
    level: Vec<usize>,
    order: Vec<usize>,
    /// `stream[pos]` = node producing the joined stream *including* the
    /// atom at position `pos`.
    stream: Vec<Option<NodeId>>,
    /// Streams a join tree is about to merge.
    branches: Vec<NodeId>,
    nodes: NodeWriter,
}

/// Appends plan nodes, recycling those of the previous plan.
#[derive(Debug, Default)]
struct NodeWriter {
    /// `tip[node]` = service tipping that node's stream (for the strategy
    /// oracle; `None` for the Input node and joins).
    tip: Vec<Option<ServiceId>>,
    /// Nodes of the previous plan, the next one to reuse last.
    spare: Vec<PlanNode>,
    /// Join-variable vectors of recycled join nodes.
    spare_vars: Vec<Vec<VarId>>,
}

impl NodeWriter {
    /// Empties `nodes` into the spares.
    fn recycle(&mut self, nodes: &mut Vec<PlanNode>) {
        self.tip.clear();
        for mut node in nodes.drain(..).rev() {
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
            bound_vars: Vec::new(),
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
            on.extend(
                nodes[acc.0]
                    .bound_vars
                    .iter()
                    .copied()
                    .filter(|v| nodes[b.0].bound_vars.contains(v)),
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

/// Lowers the topology installed in `plan` — its `query`, `choice`,
/// `poset` and `atoms` — into its `nodes`, and resets its `fetches` to 1.
/// `suppliers` is the supplier map of `(query, choice)`.
///
/// The one lowering: [`build_plan`] and [`build_plan_with`] call it on a
/// fresh plan; the optimizer calls it on the one plan its search reuses,
/// with one `lowering` kept across calls. Either way the nodes written
/// are the same, field for field. On error `plan.nodes` is unspecified.
pub fn lower(
    plan: &mut Plan,
    lowering: &mut Lowering,
    suppliers: &SupplierMap,
    schema: &Schema,
    rule: &StrategyRule,
) -> Result<(), BuildError> {
    check_shape(&plan.query, &plan.choice, &plan.poset, &plan.atoms)?;
    let Lowering {
        position_of,
        level,
        order,
        stream,
        branches,
        nodes: writer,
    } = lowering;
    let (query, poset, atoms) = (&*plan.query, &plan.poset, &plan.atoms);

    // Admissibility: every position's input vars must be covered by its
    // strict predecessors (mapping positions back to query atom indices).
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

    let nodes = &mut plan.nodes;
    writer.recycle(nodes);
    writer.push(nodes, query, NodeKind::Input, &[]);
    stream.clear();
    stream.resize(atoms.len(), None);
    poset.topological_order_into(level, order);
    for &pos in order.iter() {
        branches.clear();
        branches.extend(poset.covering(pos).map(|c| {
            stream[c].expect("a covering predecessor precedes its successor in topological order")
        }));
        let upstream = writer.join_streams(nodes, query, schema, rule, branches);
        let id = writer.push(
            nodes,
            query,
            NodeKind::Invoke { atom: atoms[pos] },
            &[upstream],
        );
        stream[pos] = Some(id);
    }

    // Merge the maximal branches into the output.
    branches.clear();
    branches.extend(
        poset
            .maximal()
            .map(|pos| stream[pos].expect("the topological pass places every position")),
    );
    let final_stream = writer.join_streams(nodes, query, schema, rule, branches);
    writer.push(nodes, query, NodeKind::Output, &[final_stream]);

    plan.fetches.clear();
    plan.fetches.resize(plan.atoms.len(), 1);
    debug_assert_eq!(plan.check_invariants(), Ok(()));
    Ok(())
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
