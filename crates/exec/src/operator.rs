//! The streaming operator kernel shared by every executor.
//!
//! A plan node becomes a pull-based [`Operator`] — `next_binding()`
//! yields the node's output stream one [`Binding`] at a time, and
//! `next_batch()` moves a whole [`Batch`] of bindings per hop (same
//! stream, amortized dispatch):
//!
//! * [`Invoke`] — drives service invocations through the
//!   [`ServiceGateway`](crate::gateway::ServiceGateway): per upstream
//!   binding it extracts the input key, pages through the service on
//!   demand (within the phase-3 fetch budget, or elastically), and binds
//!   result tuples; consecutive cached pages are fetched as one run
//!   under a single gateway lock acquisition. The predicates placed at
//!   an invoke node run *inside* it, on each tuple before its row is
//!   built (`Binding::bind_atom_where`);
//! * [`Join`] — a rank-preserving parallel join in the plan's chosen
//!   strategy (merge-scan or nested-loop, §3.3); the predicates placed
//!   at a join node run *inside* the join, which tests a candidate pair
//!   before it allocates the joined row;
//! * `Filter` — applies the predicates placed at the output node;
//! * `Select` — truncates a stream to the best `k` bindings.
//!
//! Batches carry *canonical rows*: a [`Binding`] is an `Arc`-shared
//! value row, so moving it between operators — or replaying it through
//! a `Tee` fan-out — is a reference-count bump, never a per-value
//! deep copy.
//!
//! **Demand-exactness.** `next_batch(max, out)` must perform exactly
//! the work of `max` successive `next_binding()` calls: same upstream
//! pulls, same service requests, same accounting. Returning fewer than
//! `max` bindings means the stream is exhausted. This is what makes
//! answer sets *and per-service call counts* invariant under batch
//! size — the equivalence suite sweeps batch sizes to pin it.
//!
//! The two executors are thin drivers over this kernel: the
//! stage-materialised engine drains one operator per node and accounts
//! virtual time, the top-k engine pulls lazily from a `compile_with`d
//! operator tree. Neither invokes a service or touches a cache directly.

use crate::binding::Binding;
use crate::gateway::LocalGateway;
use crate::joins::{MsJoin, NlJoin};
use crate::plan_info::{NodePredicates, PlanInfo};
use mdq_model::bitset::BitSet;
use mdq_model::query::{ConjunctiveQuery, VarId};
use mdq_model::schema::{Schema, ServiceId};
use mdq_model::value::Value;
use mdq_plan::dag::{JoinStrategy, NodeKind, Plan, Side};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Execution failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A plan atom's service has no runtime registration.
    MissingService(String),
    /// An input variable was unbound when a node needed it (an
    /// inadmissible plan slipped through — a bug upstream).
    UnboundInput {
        /// Service name of the starving atom.
        service: String,
    },
    /// Admission control: the execution reached its per-query
    /// forwarded-call budget and further service requests were refused.
    CallBudgetExhausted {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// Admission control: the tenant this execution runs under has
    /// spent its cumulative forwarded-call budget across *all* of its
    /// queries, and further service requests were refused.
    TenantBudgetExhausted {
        /// The tenant whose budget is spent.
        tenant: u32,
        /// The cumulative budget that was exhausted.
        budget: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingService(s) => write!(f, "service `{s}` is not registered"),
            ExecError::UnboundInput { service } => {
                write!(f, "input variable unbound when invoking `{service}`")
            }
            ExecError::CallBudgetExhausted { budget } => {
                write!(
                    f,
                    "per-query call budget of {budget} request-responses exhausted"
                )
            }
            ExecError::TenantBudgetExhausted { tenant, budget } => {
                write!(
                    f,
                    "tenant {tenant} call budget of {budget} request-responses exhausted"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A batch of canonical rows moved per operator hop.
pub type Batch = Vec<Binding>;

/// Default number of bindings moved per operator hop.
pub const DEFAULT_BATCH: usize = 64;

/// A pull-based streaming operator: `next_binding()` yields the next
/// output binding, `None` ends the stream; `next_batch()` yields up to
/// `max` bindings per call.
///
/// Implementations of `next_batch` must be **demand-exact**: the call
/// performs precisely the work of `max` successive `next_binding()`
/// calls (same upstream demand, same service requests), and a return
/// value below `max` means the stream is exhausted.
pub trait Operator {
    /// Pulls the next binding.
    fn next_binding(&mut self) -> Option<Binding>;

    /// Appends up to `max` bindings to `out`, returning how many were
    /// appended. The default loops `next_binding`; operators with a
    /// cheaper bulk path override it.
    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_binding() {
                Some(b) => {
                    out.push(b);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Candidate pairs verified since the last call: what a join's key
    /// image and bound skip left to [`Binding::join`]; 0 for every other
    /// operator.
    fn take_candidates(&mut self) -> u64 {
        0
    }
}

impl<T: Operator + ?Sized> Operator for &mut T {
    fn next_binding(&mut self) -> Option<Binding> {
        (**self).next_binding()
    }
    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        (**self).next_batch(max, out)
    }
    fn take_candidates(&mut self) -> u64 {
        (**self).take_candidates()
    }
}

impl<T: Operator + ?Sized> Operator for Box<T> {
    fn next_binding(&mut self) -> Option<Binding> {
        (**self).next_binding()
    }
    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        (**self).next_batch(max, out)
    }
    fn take_candidates(&mut self) -> u64 {
        (**self).take_candidates()
    }
}

impl Iterator for Box<dyn Operator + '_> {
    type Item = Binding;
    fn next(&mut self) -> Option<Binding> {
        (**self).next_binding()
    }
}

/// Adapts any binding iterator into an [`Operator`] — the root of every
/// compiled plan and the shim for materialised intermediate stages.
pub struct Source<I>(pub I);

impl<I: Iterator<Item = Binding>> Operator for Source<I> {
    fn next_binding(&mut self) -> Option<Binding> {
        self.0.next()
    }
    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        let before = out.len();
        out.extend(self.0.by_ref().take(max));
        out.len() - before
    }
}

/// Drains `op` to exhaustion in `batch`-sized steps.
pub fn drain_all(mut op: impl Operator, batch: usize) -> Batch {
    let mut out = Vec::new();
    drain_into(&mut op, batch, &mut out);
    out
}

/// Appends every remaining binding of `op` to `out`, `batch` at a time.
pub(crate) fn drain_into(op: &mut impl Operator, batch: usize, out: &mut Batch) {
    let batch = batch.max(1);
    while op.next_batch(batch, out) == batch {}
}

/// Paging state for the input binding currently being expanded (its
/// input key is the operator's reused `key` buffer).
struct CurrentInput {
    binding: Binding,
    next_page: u32,
    done: bool,
    /// Summed latency of the pages this input actually forwarded.
    forwarded: f64,
    any_forwarded: bool,
}

/// The invocation operator: extends each upstream binding with the
/// tuples a service returns for it, paging on demand through the
/// gateway.
pub struct Invoke<I> {
    upstream: I,
    gateway: LocalGateway,
    /// Plan node this operator executes — declared as the gateway's
    /// active node around page runs so fetch-side statistics (calls,
    /// retries, cached pages, simulated seconds) land on the right
    /// EXPLAIN ANALYZE row.
    node: usize,
    svc_id: ServiceId,
    /// The service's name, for the error an unbound input raises.
    service_name: Arc<str>,
    pattern: usize,
    input_positions: BitSet,
    /// The plan's query and the index of the invoked atom in it: the
    /// atom is read in place, never copied.
    query: Arc<ConjunctiveQuery>,
    atom: usize,
    /// Page budget per input (the phase-3 fetch factor); `None` pages
    /// elastically while downstream demand is unmet.
    max_pages: Option<u32>,
    current: Option<CurrentInput>,
    /// The current input's key, rebuilt in place for every input.
    key: Vec<Value>,
    /// The predicates placed at this node, tested against each tuple
    /// before its binding is built.
    preds: NodePredicates,
    /// One entry per input that forwarded at least one call: its summed
    /// latency. The materialised driver reads this for virtual time.
    input_latencies: Vec<f64>,
    /// The current input's latest page run (reused scratch), read in
    /// place through `at` — a cached page is shared with the cache, and
    /// its tuples are bound straight out of it.
    page_buf: Vec<crate::gateway::PageFetch>,
    /// Read cursor into `page_buf`: page, tuple within it.
    at: (usize, usize),
    halted: bool,
}

impl<I: Operator> Invoke<I> {
    /// Builds the invoke operator for plan node `node` (must be an
    /// `Invoke` node) over `upstream`.
    pub(crate) fn for_node(
        plan: &Plan,
        schema: &Schema,
        info: &PlanInfo,
        node: usize,
        upstream: I,
        gateway: LocalGateway,
        elastic: bool,
    ) -> Self {
        let NodeKind::Invoke { atom } = plan.nodes[node].kind else {
            panic!("node {node} is not an invoke node");
        };
        let svc_id = plan.query.atoms[atom].service;
        let pos = plan.position_of(atom).expect("plan covers atom");
        let max_pages = if elastic {
            None
        } else {
            Some(plan.fetch_of(pos) as u32)
        };
        let input_positions = info.input_positions[node].clone();
        Invoke {
            upstream,
            gateway,
            node,
            svc_id,
            service_name: Arc::clone(&schema.service(svc_id).name),
            pattern: info.pattern_of_node[node],
            key: Vec::with_capacity(input_positions.len()),
            input_positions,
            query: Arc::clone(&plan.query),
            atom,
            preds: info.predicates_at(plan, node),
            max_pages,
            current: None,
            input_latencies: Vec::new(),
            page_buf: Vec::new(),
            at: (0, 0),
            halted: false,
        }
    }

    /// Summed forwarded latency per input (only inputs that forwarded at
    /// least one call), in input order.
    pub(crate) fn input_latencies(&self) -> &[f64] {
        &self.input_latencies
    }

    /// Total forwarded latency of this node so far — its virtual busy
    /// time under sequential execution.
    pub(crate) fn busy(&self) -> f64 {
        self.input_latencies.iter().sum()
    }

    /// Finishes the current input: records its forwarded latency and
    /// its invocation-level cache outcome (a *hit* only when no page of
    /// the whole invocation was forwarded).
    fn close_current(&mut self) {
        self.page_buf.clear();
        self.at = (0, 0);
        if let Some(cur) = self.current.take() {
            if cur.next_page > 0 {
                let svc = self.svc_id;
                let hit = !cur.any_forwarded;
                self.gateway.with(|g| g.record_invocation(svc, hit));
            }
            if cur.any_forwarded {
                self.input_latencies.push(cur.forwarded);
            }
        }
    }

    fn pull_next(&mut self) -> Option<Binding> {
        loop {
            if self.halted {
                return None;
            }
            if let Some(cur) = &mut self.current {
                let atom = &self.query.atoms[self.atom];
                while let Some(fetch) = self.page_buf.get(self.at.0) {
                    match fetch.tuples.get(self.at.1) {
                        Some(t) => {
                            self.at.1 += 1;
                            if let Some(nb) = cur.binding.bind_atom_where(atom, t, &self.preds) {
                                return Some(nb);
                            }
                        }
                        None => self.at = (self.at.0 + 1, 0),
                    }
                }
                let within_budget = self.max_pages.map(|m| cur.next_page < m).unwrap_or(true);
                if !cur.done && within_budget {
                    // request the remaining page budget as one run: the
                    // gateway serves consecutive *cached* pages under a
                    // single lock acquisition and stops the run at the
                    // first page that must be forwarded — so the
                    // forwarded-call sequence is identical to paging
                    // tuple-at-a-time, only the lock traffic amortizes.
                    // Elastic paging stays demand-driven one page at a
                    // time (cached pages beyond demand are free, but
                    // elastic demand itself must stay lazy).
                    let first = cur.next_page;
                    let want = match self.max_pages {
                        Some(m) => (m - first) as usize,
                        None => 1,
                    };
                    let svc = self.svc_id;
                    let pattern = self.pattern;
                    let node = self.node;
                    self.page_buf.clear();
                    self.at = (0, 0);
                    {
                        let key = &self.key;
                        let buf = &mut self.page_buf;
                        self.gateway.with(|g| {
                            g.set_active_node(Some(node));
                            g.fetch_page_run(svc, pattern, key, first, want, buf);
                            g.set_active_node(None);
                        });
                    }
                    for fetch in &self.page_buf {
                        cur.next_page += 1;
                        if let Some(lat) = fetch.forwarded_latency {
                            cur.forwarded += lat;
                            cur.any_forwarded = true;
                        }
                        if !fetch.has_more {
                            cur.done = true;
                        }
                    }
                    continue;
                }
                self.close_current();
            }
            let binding = self.upstream.next_binding()?;
            let atom = &self.query.atoms[self.atom];
            if binding.input_key_into(atom, &self.input_positions, &mut self.key) {
                self.current = Some(CurrentInput {
                    binding,
                    next_page: 0,
                    done: false,
                    forwarded: 0.0,
                    any_forwarded: false,
                });
            } else {
                self.halted = true;
                let err = ExecError::UnboundInput {
                    service: self.service_name.to_string(),
                };
                self.gateway.with(|g| g.poison(err));
                return None;
            }
        }
    }
}

impl<I: Operator> Operator for Invoke<I> {
    fn next_binding(&mut self) -> Option<Binding> {
        self.pull_next()
    }
}

/// The parallel-join operator: the plan's chosen rank-preserving
/// strategy (§3.3), run in place.
pub enum Join<L, R> {
    /// Merge scan over both sides in lockstep.
    MergeScan(MsJoin<L, R>),
    /// Nested loop with the left side materialised as the outer one.
    OuterLeft(NlJoin<L, R>),
    /// Nested loop with the right side materialised as the outer one.
    OuterRight(NlJoin<R, L>),
}

impl<L: Operator, R: Operator> Join<L, R> {
    /// Joins `left` and `right` on the shared variables `on` with the
    /// given strategy, keeping the pairs that satisfy `preds` — the
    /// predicates placed at the join node, which the join decides
    /// before it builds a pair (no `Filter` goes above a join). For
    /// nested loops, the strategy's `outer` side is materialised first
    /// (it is chosen to be the selective one).
    pub fn new(
        left: L,
        right: R,
        strategy: &JoinStrategy,
        on: Vec<VarId>,
        preds: impl Into<NodePredicates>,
    ) -> Self {
        match strategy {
            JoinStrategy::MergeScan => {
                Join::MergeScan(MsJoin::new(left, right, on).with_predicates(preds))
            }
            JoinStrategy::NestedLoop { outer: Side::Left } => {
                Join::OuterLeft(NlJoin::new(left, right, on, true).with_predicates(preds))
            }
            JoinStrategy::NestedLoop { outer: Side::Right } => {
                Join::OuterRight(NlJoin::new(right, left, on, false).with_predicates(preds))
            }
        }
    }
}

impl<L: Operator, R: Operator> Operator for Join<L, R> {
    fn next_binding(&mut self) -> Option<Binding> {
        match self {
            Join::MergeScan(j) => j.next_binding(),
            Join::OuterLeft(j) => j.next_binding(),
            Join::OuterRight(j) => j.next_binding(),
        }
    }
    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        match self {
            Join::MergeScan(j) => j.next_batch(max, out),
            Join::OuterLeft(j) => j.next_batch(max, out),
            Join::OuterRight(j) => j.next_batch(max, out),
        }
    }
    fn take_candidates(&mut self) -> u64 {
        match self {
            Join::MergeScan(j) => j.take_candidates(),
            Join::OuterLeft(j) => j.take_candidates(),
            Join::OuterRight(j) => j.take_candidates(),
        }
    }
}

/// The predicate-filter operator: passes bindings satisfying every
/// predicate placed at the node.
pub(crate) struct Filter<I> {
    inner: I,
    preds: NodePredicates,
    /// Reused scratch for batched filtering.
    scratch: Batch,
}

impl<I> Filter<I> {
    /// Filters `inner` by `preds`.
    pub fn new(inner: I, preds: impl Into<NodePredicates>) -> Self {
        Filter {
            inner,
            preds: preds.into(),
            scratch: Vec::new(),
        }
    }

    /// The predicates for plan node `node` (the output node: an invoke
    /// node applies its own, a join node's go to [`Join::new`]).
    pub(crate) fn for_node(plan: &Plan, info: &PlanInfo, node: usize, inner: I) -> Self {
        Filter::new(inner, info.predicates_at(plan, node))
    }

    fn passes(&self, b: &Binding) -> bool {
        self.preds.all(|p| b.eval_predicate(p) == Some(true))
    }
}

impl<I: Operator> Operator for Filter<I> {
    fn next_binding(&mut self) -> Option<Binding> {
        loop {
            let b = self.inner.next_binding()?;
            if self.passes(&b) {
                return Some(b);
            }
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        // Pull the inner stream in chunks of exactly the *outstanding*
        // demand. This is demand-exact: if the chunk fills the target,
        // every chunk element passed — a sequential puller would have
        // pulled precisely the same bindings; if any element failed, the
        // target is still open and the loop continues.
        let mut n = 0;
        while n < max {
            let want = max - n;
            self.scratch.clear();
            let got = self.inner.next_batch(want, &mut self.scratch);
            let preds = &self.preds;
            for b in self.scratch.drain(..) {
                if preds.all(|p| b.eval_predicate(p) == Some(true)) {
                    out.push(b);
                    n += 1;
                }
            }
            if got < want {
                break; // inner exhausted
            }
        }
        n
    }
}

/// The selection operator: passes the first `k` bindings, then ends the
/// stream (and stops pulling upstream — top-k halting).
pub(crate) struct Select<I> {
    inner: I,
    remaining: usize,
}

impl<I> Select<I> {
    /// Truncates `inner` to `k` bindings.
    pub fn new(inner: I, k: usize) -> Self {
        Select {
            inner,
            remaining: k,
        }
    }
}

impl<I: Operator> Operator for Select<I> {
    fn next_binding(&mut self) -> Option<Binding> {
        if self.remaining == 0 {
            return None;
        }
        let b = self.inner.next_binding()?;
        self.remaining -= 1;
        Some(b)
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        let want = max.min(self.remaining);
        let got = self.inner.next_batch(want, out);
        self.remaining -= got;
        got
    }
}

/// A transparent per-node statistics probe: counts the bindings and
/// batched hops flowing out of one plan node, and the candidate pairs a
/// join node verified, into the gateway's
/// [`OperatorStats`](mdq_obs::span::OperatorStats) — the observed
/// side of EXPLAIN ANALYZE.
///
/// The probe is demand-exact by construction (1:1 passthrough) and
/// keeps the hot path lock-free: counts accumulate locally and flush
/// through the gateway only on stream exhaustion and on drop (which
/// covers top-k early halting — the driver drops the operator tree
/// before reading the stats). Traced executions flush per batched hop
/// instead, so every hop lands as one `operator_batch` instant on the
/// execution's track.
pub(crate) struct Probe<I: Operator> {
    inner: I,
    gateway: LocalGateway,
    /// The plan node (a `u32` beside `traced`, so a probed join keeps
    /// the size it had before it counted candidates).
    node: u32,
    traced: bool,
    rows: u64,
    batches: u64,
}

impl<I: Operator> Probe<I> {
    /// Probes the output stream of plan node `node`.
    pub fn new(inner: I, gateway: LocalGateway, node: usize) -> Self {
        let traced = gateway.with(|g| g.trace().is_some());
        Probe {
            inner,
            gateway,
            node: node as u32,
            traced,
            rows: 0,
            batches: 0,
        }
    }

    fn flush(&mut self) {
        let candidates = self.inner.take_candidates();
        if self.rows != 0 || self.batches != 0 || candidates != 0 {
            let (node, rows, batches) = (self.node as usize, self.rows, self.batches);
            self.gateway
                .with(|g| g.record_node_output(node, rows, batches, candidates));
            self.rows = 0;
            self.batches = 0;
        }
    }
}

impl<I: Operator> Operator for Probe<I> {
    fn next_binding(&mut self) -> Option<Binding> {
        match self.inner.next_binding() {
            Some(b) => {
                self.rows += 1;
                Some(b)
            }
            None => {
                self.flush();
                None
            }
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        let got = self.inner.next_batch(max, out);
        self.rows += got as u64;
        self.batches += 1;
        if self.traced || got < max {
            self.flush();
        }
        got
    }
}

impl<I: Operator> Drop for Probe<I> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Fills the topology-derived `rows_in` of every stats row: the sum of
/// the node's input rows (`rows_out` of its plan inputs). Drivers call
/// this once, after execution, before attaching the stats to a report.
pub(crate) fn derive_rows_in(plan: &Plan, stats: &mut [mdq_obs::span::OperatorStats]) {
    for (i, node) in plan.nodes.iter().enumerate() {
        let rows_in = node
            .inputs
            .iter()
            .map(|inp| stats.get(inp.0).map(|s| s.rows_out).unwrap_or(0))
            .sum();
        if let Some(s) = stats.get_mut(i) {
            s.rows_in = rows_in;
        }
    }
}

/// A lazily materialised shared node: the single execution of a plan
/// node with more than one consumer.
struct SharedNode {
    op: Box<dyn Operator>,
    buf: Batch,
    done: bool,
}

/// One consumer's cursor over a [`SharedNode`]: pulls drive the shared
/// operator exactly once, every consumer replays the same stream.
/// This is what makes the compiled plan a DAG rather than a tree —
/// common subplans execute through one operator, so the pull executor
/// forwards exactly the same calls as the materialised one. Replay is
/// an `Arc` refcount bump per binding, never a value deep copy.
struct Tee {
    shared: Rc<RefCell<SharedNode>>,
    pos: usize,
}

impl Operator for Tee {
    fn next_binding(&mut self) -> Option<Binding> {
        let mut s = self.shared.borrow_mut();
        loop {
            if self.pos < s.buf.len() {
                let b = s.buf[self.pos].clone();
                self.pos += 1;
                return Some(b);
            }
            if s.done {
                return None;
            }
            match s.op.next_binding() {
                Some(b) => s.buf.push(b),
                None => s.done = true,
            }
        }
    }

    fn next_batch(&mut self, max: usize, out: &mut Batch) -> usize {
        let mut s = self.shared.borrow_mut();
        let mut n = 0;
        while n < max {
            if self.pos < s.buf.len() {
                // serve a run straight from the shared buffer
                let take = (s.buf.len() - self.pos).min(max - n);
                out.extend_from_slice(&s.buf[self.pos..self.pos + take]);
                self.pos += take;
                n += take;
                continue;
            }
            if s.done {
                break;
            }
            // 1:1 passthrough, so outstanding demand maps directly onto
            // the shared operator — demand-exact by construction
            let need = max - n;
            let shared = &mut *s;
            let got = shared.op.next_batch(need, &mut shared.buf);
            if got == 0 {
                shared.done = true;
            }
        }
        n
    }
}

/// Compiles `plan` (from its output node down) into a lazy operator DAG
/// over `gateway` — the pull executor's engine. Nodes with several
/// consumers are compiled once and shared through replaying cursors.
/// With `elastic = true` the fetch factors become soft hints.
///
/// `override_op` is an optional *subtree override*: the operator stands
/// in for the named plan node (filters included), and the nodes beneath
/// it are never compiled. This is how a materialized or replayed invoke
/// prefix (`mdq-runtime`'s sub-result sharing) is spliced under the
/// rest of the plan — a multi-consumer override node still goes through
/// the shared replay cursor, so fan-outs see one stream.
///
/// Each node costs one boxed operator: its kernel (with its placed
/// predicates) and its statistics probe are one value. The operators
/// read atoms and predicates through the plan's `Arc<ConjunctiveQuery>`
/// ([`NodePredicates`]) instead of copies.
pub(crate) fn compile_with(
    plan: &Plan,
    schema: &Schema,
    info: &PlanInfo,
    gateway: &LocalGateway,
    elastic: bool,
    override_op: Option<(usize, Box<dyn Operator>)>,
) -> Box<dyn Operator> {
    let mut nodes: Vec<CompiledNode> = plan
        .nodes
        .iter()
        .map(|_| CompiledNode {
            consumers: 0,
            shared: None,
        })
        .collect();
    for node in &plan.nodes {
        for inp in &node.inputs {
            nodes[inp.0].consumers += 1;
        }
    }
    Compiler {
        plan,
        schema,
        info,
        gateway,
        elastic,
        nodes,
        override_op,
    }
    .node(plan.output_node().0)
}

/// Compile state of one plan node.
struct CompiledNode {
    /// Plan nodes reading this one.
    consumers: usize,
    /// The shared execution, once a multi-consumer node is compiled.
    shared: Option<Rc<RefCell<SharedNode>>>,
}

/// What [`compile_with`] carries down the plan.
struct Compiler<'p> {
    plan: &'p Plan,
    schema: &'p Schema,
    info: &'p PlanInfo,
    gateway: &'p LocalGateway,
    elastic: bool,
    nodes: Vec<CompiledNode>,
    override_op: Option<(usize, Box<dyn Operator>)>,
}

impl Compiler<'_> {
    /// The stream of `node` for one consumer: the node itself, or a
    /// cursor over its shared execution when it has several consumers.
    fn node(&mut self, node: usize) -> Box<dyn Operator> {
        if self.nodes[node].consumers <= 1 {
            return self.raw(node);
        }
        let shared = match &self.nodes[node].shared {
            Some(cell) => Rc::clone(cell),
            None => {
                let op = self.raw(node);
                let cell = Rc::new(RefCell::new(SharedNode {
                    op,
                    buf: Vec::new(),
                    done: false,
                }));
                self.nodes[node].shared = Some(Rc::clone(&cell));
                cell
            }
        };
        Box::new(Tee { shared, pos: 0 })
    }

    /// `op` as the boxed stream of `node`, behind its statistics probe
    /// — every node's output passes one, an override stand-in included,
    /// so a replayed prefix's rows still show up as its `rows_out`.
    fn probed(&self, op: impl Operator + 'static, node: usize) -> Box<dyn Operator> {
        Box::new(Probe::new(op, self.gateway.clone(), node))
    }

    /// Compiles `node` itself.
    fn raw(&mut self, node: usize) -> Box<dyn Operator> {
        if self.override_op.as_ref().is_some_and(|(n, _)| *n == node) {
            // the subtree at this node is already accounted for (replayed
            // or eagerly materialized): stand its stream in, compile
            // nothing beneath it
            let (_, op) = self.override_op.take().expect("checked above");
            return self.probed(op, node);
        }
        let plan = self.plan;
        match &plan.nodes[node].kind {
            NodeKind::Input => self.probed(
                Source(std::iter::once(Binding::empty(plan.query.var_count()))),
                node,
            ),
            NodeKind::Output => {
                let inner = self.node(plan.nodes[node].inputs[0].0);
                if self.info.preds_at_node[node].is_empty() {
                    self.probed(inner, node)
                } else {
                    self.probed(Filter::for_node(plan, self.info, node, inner), node)
                }
            }
            NodeKind::Invoke { .. } => {
                let upstream = self.node(plan.nodes[node].inputs[0].0);
                let invoke = Invoke::for_node(
                    plan,
                    self.schema,
                    self.info,
                    node,
                    upstream,
                    self.gateway.clone(),
                    self.elastic,
                );
                self.probed(invoke, node)
            }
            NodeKind::Join {
                left,
                right,
                strategy,
                on,
            } => {
                let l = self.node(left.0);
                let r = self.node(right.0);
                let preds = self.info.predicates_at(plan, node);
                self.probed(Join::new(l, r, strategy, on.clone(), preds), node)
            }
        }
    }
}
