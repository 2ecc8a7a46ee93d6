//! Executable query plans as dataflow DAGs (§3.3, Fig. 4).
//!
//! A [`Plan`] lowers a topology ([`Poset`]) over
//! query atoms into an explicit operator DAG:
//!
//! * an **Input** node injecting the user's single input tuple;
//! * one **Invoke** node per atom (a service invocation with a chosen
//!   access pattern and, for chunked services, a fetch factor);
//! * **Join** nodes where parallel branches merge, marked with a
//!   rank-preserving strategy (nested-loop or merge-scan, §3.3);
//! * an **Output** node collecting the answers.
//!
//! Arcs between invoke nodes are *pipe joins* (feed-forward of bindings).

use crate::poset::Poset;
use mdq_model::binding::ApChoice;
use mdq_model::bitset::BitSet;
use mdq_model::query::{ConjunctiveQuery, VarId};
use mdq_model::schema::Schema;
use std::fmt;
use std::sync::Arc;

/// Identifier of a node inside a [`Plan`] (index into [`Plan::nodes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Strategy used by a parallel join node (§3.3, after ref. \[4\]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Nested loop: fully fetch the *outer* (selective) side first, then
    /// stream the other side, scanning the grid row by row.
    NestedLoop {
        /// Which input is the outer (selective) side.
        outer: Side,
    },
    /// Merge scan: fetch both sides in lockstep and traverse their
    /// Cartesian grid by anti-diagonals.
    MergeScan,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinStrategy::NestedLoop { outer: Side::Left } => write!(f, "NL(left)"),
            JoinStrategy::NestedLoop { outer: Side::Right } => write!(f, "NL(right)"),
            JoinStrategy::MergeScan => write!(f, "MS"),
        }
    }
}

/// Left or right input of a binary join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left input.
    Left,
    /// The right input.
    Right,
}

/// The operator performed by a plan node.
#[derive(Clone, Debug)]
pub enum NodeKind {
    /// The query input (one tuple of the user-supplied constants).
    Input,
    /// Invocation of the service behind query atom `atom`.
    Invoke {
        /// Index into the query's atom list.
        atom: usize,
    },
    /// Parallel join of two upstream branches.
    Join {
        /// Left input node.
        left: NodeId,
        /// Right input node.
        right: NodeId,
        /// Rank-preserving execution strategy.
        strategy: JoinStrategy,
        /// Variables equated across the two branches (the implicit
        /// equi-join condition of shared variables).
        on: Vec<VarId>,
    },
    /// The query output.
    Output,
}

/// A node of the plan DAG.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// What the node does.
    pub kind: NodeKind,
    /// Upstream dataflow edges (empty for Input).
    pub inputs: Vec<NodeId>,
    /// Query variables bound in tuples leaving this node, by variable
    /// id (`VarId.0`): one inline word below 64 variables, so the
    /// bound-variable, predicate-applicability and carrier tests of
    /// lowering and estimation are word operations.
    pub bound_vars: BitSet,
}

/// A fully specified query plan: topology + pattern choice + operator DAG
/// (+ fetch factors once phase 3 ran).
///
/// `nodes` is stored in topological order (inputs of a node always precede
/// it), with node 0 the Input and the last node the Output.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The query this plan answers.
    pub query: Arc<ConjunctiveQuery>,
    /// Chosen access pattern per atom (phase 1).
    pub choice: ApChoice,
    /// Topology over the plan's atoms (phase 2). Indexed by *position in
    /// [`Plan::atoms`]*, not by query atom index.
    pub poset: Poset,
    /// The query atom indices covered by this plan, in the order used by
    /// `poset`. Equal to `0..query.atoms.len()` for complete plans;
    /// prefixes occur during branch-and-bound construction.
    pub atoms: Vec<usize>,
    /// Operator DAG in topological order.
    pub nodes: Vec<PlanNode>,
    /// Fetch factor per *plan atom position* (1 for non-chunked services).
    /// Set by phase 3; defaults to 1 everywhere.
    pub fetches: Vec<u64>,
}

impl Plan {
    /// The node executing plan-atom position `pos`, if present.
    pub fn node_of_atom(&self, pos: usize) -> Option<NodeId> {
        let atom = self.atoms[pos];
        self.nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Invoke { atom: a } if a == atom))
            .map(NodeId)
    }

    /// Position of query atom `atom` within this plan, if covered.
    pub fn position_of(&self, atom: usize) -> Option<usize> {
        self.atoms.iter().position(|&a| a == atom)
    }

    /// Position of the atom an Invoke node of this plan executes.
    ///
    /// # Panics
    ///
    /// When the plan does not cover `atom`. Lowering makes exactly one
    /// Invoke node per plan position, so an Invoke node's atom always is.
    pub fn invoked_position(&self, atom: usize) -> usize {
        self.position_of(atom).expect(
            "an Invoke node's atom is a plan atom: lowering makes one Invoke node per position",
        )
    }

    /// The Input node id (always 0).
    pub fn input_node(&self) -> NodeId {
        NodeId(0)
    }

    /// The Output node id (always last).
    pub fn output_node(&self) -> NodeId {
        NodeId(self.nodes.len() - 1)
    }

    /// Fetch factor for the service of `atom` position (1 if not chunked).
    pub fn fetch_of(&self, pos: usize) -> u64 {
        self.fetches[pos]
    }

    /// Sets the fetch factor for atom position `pos`.
    pub fn set_fetch(&mut self, pos: usize, fetches: u64) {
        assert!(fetches >= 1, "fetch factors are at least 1");
        self.fetches[pos] = fetches;
    }

    /// Downstream consumers of `id`, ascending. Nodes are stored in
    /// topological order, so only the nodes after `id` are looked at.
    pub fn consumers(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let later = self.nodes.get(id.0 + 1..).unwrap_or_default();
        later
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.inputs.contains(&id))
            .map(move |(i, _)| NodeId(id.0 + 1 + i))
    }

    /// All root-to-output paths of the DAG, as node-id sequences — the
    /// paths the execution-time and time-to-screen metrics maximise over
    /// (Eq. 4). The metrics walk them without collecting them; this is
    /// the reference their tests hold that walk to.
    pub fn paths(&self) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut stack = vec![self.input_node()];
        self.paths_rec(self.input_node(), &mut stack, &mut out);
        out
    }

    fn paths_rec(&self, at: NodeId, stack: &mut Vec<NodeId>, out: &mut Vec<Vec<NodeId>>) {
        let consumers: Vec<NodeId> = self.consumers(at).collect();
        if consumers.is_empty() {
            out.push(stack.clone());
            return;
        }
        for c in consumers {
            stack.push(c);
            self.paths_rec(c, stack, out);
            stack.pop();
        }
    }

    /// Positions (within [`Plan::atoms`]) of chunked services, the open
    /// fetch parameters of phase 3.
    pub fn chunked_positions(&self, schema: &Schema) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, &a)| {
                schema
                    .service(self.query.atoms[a].service)
                    .chunking
                    .is_chunked()
            })
            .map(|(pos, _)| pos)
            .collect()
    }

    /// Whether the plan covers every query atom.
    pub fn is_complete(&self) -> bool {
        self.atoms.len() == self.query.atoms.len()
    }

    /// Structural sanity checks (topological node order, edge sanity);
    /// used in tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("plan has no nodes".into());
        }
        if !matches!(self.nodes[0].kind, NodeKind::Input) {
            return Err("node 0 must be Input".into());
        }
        if !matches!(self.nodes.last().map(|n| &n.kind), Some(NodeKind::Output)) {
            return Err("last node must be Output".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for inp in &n.inputs {
                if inp.0 >= i {
                    return Err(format!("node {i} depends on later node {}", inp.0));
                }
            }
            match &n.kind {
                NodeKind::Input => {
                    if !n.inputs.is_empty() {
                        return Err("Input node has inputs".into());
                    }
                }
                NodeKind::Join { left, right, .. } => {
                    if n.inputs.len() != 2 || !n.inputs.contains(left) || !n.inputs.contains(right)
                    {
                        return Err(format!("join node {i} has inconsistent inputs"));
                    }
                }
                NodeKind::Invoke { .. } => {
                    if n.inputs.len() != 1 {
                        return Err(format!("invoke node {i} must have exactly 1 input"));
                    }
                }
                NodeKind::Output => {
                    if n.inputs.len() != 1 {
                        return Err(format!("output node {i} must have exactly 1 input"));
                    }
                }
            }
        }
        if self.fetches.len() != self.atoms.len() {
            return Err("fetch vector length mismatch".into());
        }
        if self.fetches.contains(&0) {
            return Err("fetch factors must be ≥ 1".into());
        }
        Ok(())
    }

    /// Short human-readable structure summary, e.g.
    /// `IN → conf → weather → (flight ∥ hotel) ⋈MS → OUT`.
    pub fn summary(&self, schema: &Schema) -> String {
        let mut parts: Vec<String> = Vec::new();
        for node in &self.nodes {
            match &node.kind {
                NodeKind::Input => parts.push("IN".into()),
                NodeKind::Invoke { atom } => {
                    let name = &schema.service(self.query.atoms[*atom].service).name;
                    parts.push(name.to_string());
                }
                NodeKind::Join { strategy, .. } => parts.push(format!("⋈{strategy}")),
                NodeKind::Output => parts.push("OUT".into()),
            }
        }
        parts.join(" → ")
    }
}

/// Writes into `out` the query variables bound in the tuples leaving a
/// node of kind `kind` fed by `inputs`: the inputs' variables plus, for
/// invoke nodes, every variable of the atom.
pub(crate) fn bound_vars_for(
    query: &ConjunctiveQuery,
    nodes: &[PlanNode],
    kind: &NodeKind,
    inputs: &[NodeId],
    out: &mut BitSet,
) {
    out.clear();
    for inp in inputs {
        out.union_with(&nodes[inp.0].bound_vars);
    }
    if let NodeKind::Invoke { atom } = kind {
        for v in query.atoms[*atom].terms.iter().filter_map(|t| t.as_var()) {
            out.insert(v.0 as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_plan, StrategyRule};
    use crate::test_fixtures::{running_example, RunningExample};

    #[test]
    fn plan_structure_fig6() {
        // Fig. 6: conf → weather → {flight ∥ hotel} → MS join → OUT
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        // atom order in the parsed query: flight=0, hotel=1, conf=2, weather=3
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let poset =
            Poset::from_pairs(4, &[(2, 3), (3, 0), (3, 1), (2, 0), (2, 1)]).expect("valid poset");
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            choice,
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.check_invariants().expect("invariants hold");
        let summary = plan.summary(&schema);
        assert!(summary.starts_with("IN → conf → weather"), "{summary}");
        assert!(summary.contains("⋈"), "{summary}");
        assert!(summary.ends_with("OUT"), "{summary}");
        // exactly one join node for the flight/hotel merge
        let joins = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Join { .. }))
            .count();
        assert_eq!(joins, 1);
        // join condition includes the shared variables City/Start/End
        let join = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Join { .. }))
            .expect("join exists");
        if let NodeKind::Join { on, .. } = &join.kind {
            let city = query.var_by_name("City").expect("City");
            assert!(on.contains(&city));
            assert!(join.bound_vars.contains(city.0 as usize));
        }
        // paths: both branches produce a root-to-output path
        let paths = plan.paths();
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn serial_plan_has_single_path() {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        // serial: conf → weather → flight → hotel (Fig. 7a)
        let poset = Poset::from_pairs(4, &[(2, 3), (3, 0), (0, 1)]).expect("valid");
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            choice,
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.check_invariants().expect("invariants hold");
        assert_eq!(plan.paths().len(), 1);
        assert_eq!(
            plan.summary(&schema),
            "IN → conf → weather → flight → hotel → OUT"
        );
    }

    #[test]
    fn fully_parallel_plan_builds_join_tree() {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        // Fig. 7c: conf then weather ∥ flight ∥ hotel
        let poset = Poset::from_pairs(4, &[(2, 0), (2, 1), (2, 3)]).expect("valid");
        let plan = build_plan(
            Arc::clone(&query),
            &schema,
            choice,
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.check_invariants().expect("invariants hold");
        let joins = plan
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Join { .. }))
            .count();
        assert_eq!(joins, 2, "three branches need two binary joins");
        assert_eq!(plan.paths().len(), 3);
    }

    #[test]
    fn fetch_vector_defaults_and_updates() {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let poset = Poset::from_pairs(4, &[(2, 3), (3, 0), (3, 1)]).expect("valid");
        let mut plan = build_plan(
            Arc::clone(&query),
            &schema,
            choice,
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        assert!(plan.fetches.iter().all(|&f| f == 1));
        let chunked = plan.chunked_positions(&schema);
        assert_eq!(chunked, vec![0, 1], "flight and hotel are chunked");
        plan.set_fetch(0, 3);
        plan.set_fetch(1, 4);
        assert_eq!(plan.fetch_of(0), 3);
        assert_eq!(plan.fetch_of(1), 4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_fetch_rejected() {
        let RunningExample { schema, query, .. } = running_example();
        let query = Arc::new(query);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let poset = Poset::from_pairs(4, &[(2, 3), (3, 0), (3, 1)]).expect("valid");
        let mut plan = build_plan(
            Arc::clone(&query),
            &schema,
            choice,
            poset,
            (0..4).collect(),
            &StrategyRule::default(),
        )
        .expect("builds");
        plan.set_fetch(0, 0);
    }
}
