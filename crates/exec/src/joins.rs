//! Rank-preserving parallel-join strategies (§3.3, after ref. \[4\]).
//!
//! Both strategies consume two streams whose order encodes ranking and
//! emit joined pairs in an order *consistent with both partial orders*:
//! if pair `a` dominates pair `b` componentwise (both of `a`'s inputs
//! ranked at least as high), `a` is emitted no later than `b`. This is
//! the property that lets the engine compose a global ranking from the
//! services' opaque relevance orders (§1), and it is property-tested.
//!
//! * **Nested loop** ([`NlJoin`]): materialise the *outer* (selective)
//!   side first, then pull the inner side one binding at a time; pairs
//!   leave inner-major, each inner binding's outer matches in outer
//!   order.
//! * **Merge scan** ([`MsJoin`]): pull both sides in lockstep and emit
//!   the pairs of the grid by anti-diagonals (Fig. 5).
//!
//! # The order-and-demand contract
//!
//! What a join owes the rest of the engine is the *sequence* of pairs
//! it emits and, at every prefix of that sequence, the *sequence of
//! `next_binding` calls* it has issued to its inputs — upstream pulls
//! are service calls, so call counts, top-k halting and the Fig. 5 /
//! Fig. 11 reproductions all hang on the second as much as on the
//! first. For the merge scan the contract reads: the pair of
//! `left[i]` and `right[j]` leaves in `(d, i)` order, `d = i + j` its
//! anti-diagonal; `left[0]` then `right[0]` are pulled before anything
//! else, and from then on `right[d]` is pulled at the *head* of
//! diagonal `d` (when the scan reaches `i = 0`) and `left[d]` at its
//! *tail* (`i = d`), each only while its side is still open, and
//! neither before every pair that precedes its cell has been emitted.
//! A side that turns out empty ends the stream.
//!
//! How the pairs are *found* is not part of the contract. Neither join
//! walks the grid: each arriving binding is filed under a 64-bit
//! *key image* of its `on` values, chained to the earlier bindings of
//! its side with the same image, and only key-equal cells are ever
//! visited — the merge scan through one cursor per arrived binding
//! over the other side's chain, merged by `(d, i)` in a heap; the
//! nested loop by walking the outer chain of each inner binding.
//!
//! Not every key-equal walk is taken, either. A join node's predicates
//! read both sides (the running example's `FPrice + HPrice < budget`),
//! and each chain keeps, per side, the least and greatest value of
//! every variable such a predicate reads. A binding about to walk a
//! chain first evaluates the predicate at the chain's *best corner* —
//! each chain variable at whichever extreme helps the predicate most,
//! its own values as they are — and when even that fails, no pair of
//! the walk can pass and the walk is skipped whole: the merge scan
//! pushes no cursor, the nested loop moves to its next inner binding.
//! Every walk that is taken is verified pair by pair in
//! [`Binding::join`], as before. So work is proportional to the
//! candidates whose bounds can pass — not to all key-equal pairs, and
//! not to the `(l + r)² / 2` cells a diagonal sweep touches — and the
//! state is linear in what has arrived. On `cache_pressure`, whose
//! budgets admit fewer than k trips, that is ≈ 16 candidates per query
//! instead of ≈ 1 270, for the same ≈ 3 answers and the same service
//! calls. A skipped pair is one verification would have rejected, and
//! the pull schedule depends only on the cells that pass, so the
//! contract above holds unchanged.
//!
//! A differential test in this module holds both joins to the
//! cell-by-cell sweep they replaced, with every predicate evaluated in
//! full: same emissions, same interleaved pull log, at every halting
//! point, over predicates that span both sides and values of every
//! numeric kind and magnitude.
//!
//! # Why the key image is sound
//!
//! Two bindings join on a variable when both leave it unbound or their
//! values are equal under [`Value::join_eq`]. Across two numeric kinds
//! (`Int`, `Float`, `Date`) `join_eq` is `total_cmp` equality on the
//! `as_f64` image, and `total_cmp` equality is bit equality; within one
//! kind it is exact equality, which is finer still; everything else
//! needs the same kind and the same content. The key image folds
//! exactly those things: the `f64` bits of a numeric, the bytes of a
//! string, the flag of a boolean, and one constant each for `Null` and
//! for *unbound*. So **joinable ⇒ equal image**, and no pair is ever
//! missed. The converse does not hold (distinct `i64`s can share an
//! `f64` image, and 64 bits collide), and does not need to: every
//! candidate is verified value by value in [`Binding::join`] before it
//! is emitted.
//!
//! # Why the bound is sound
//!
//! The skip applies to a predicate `lhs ⋈ rhs` with `⋈` one of
//! `< <= > >=` and both sides `+`/`−` combinations of constants and
//! variables, each variable under one sign (`best_low`). For `<` and
//! `<=` the predicate gets easier as `lhs − rhs` falls, so a variable
//! that adds to it is best at its minimum and one that subtracts at its
//! maximum; `>` and `>=` mirror that. For one walk everything but the
//! chain's values is fixed: the walking binding's own values, and the
//! constants. A chain variable's span (its least and greatest value) is
//! kept only while every chain binding that binds it holds a finite
//! number of one kind, so each operation meets the same operand kinds
//! at the corner as at any pair, and the engine's arithmetic for a
//! fixed pair of kinds is monotone in each operand: `i64` addition and
//! subtraction where they do not overflow (`checked_add` is `None` —
//! and the pair fails — where they do), day offsets of a `Date`
//! likewise (`None` past the day range, never wrapped), and float
//! arithmetic under round-to-nearest, which preserves order, signed
//! zeros included, as long as no `∞ − ∞` makes a NaN. The corner is
//! evaluated with the engine's own steps (`Expr::eval`,
//! `Value::compare`, `CmpOp::eval`), and the skip is taken only when
//! both sides come out finite: a NaN at some pair needs infinities of
//! opposite signs below it, and the corner, at least as extreme,
//! would then not be finite. So each side at every pair is bounded by
//! its value at the corner in `compare` order, and a corner at which
//! the comparison is decidedly false proves it false at every pair.
//!
//! The rest is bookkeeping that keeps the corner honest. A pair keeps
//! the *left* value where both sides bind a variable, so the walking
//! binding's value stands in for it only when it is on the left or no
//! chain binding binds it; otherwise, and for any variable whose span
//! is off or which nothing binds, the corner has no value and the walk
//! is taken. Equal-comparing kinds may compute apart (`Int(2^53 + 1)`
//! and `Float(2^53)` compare equal and add to different sums), which is
//! why a span holds one kind. A chain bound covers exactly the bindings
//! the walk visits: the merge scan's cursor stops at the chain's tail
//! at arrival, and every later arrival widens the span.

use crate::binding::Binding;
use crate::operator::{drain_into, Operator};
use crate::plan_info::NodePredicates;
use mdq_model::query::{CmpOp, Expr, Predicate, Term, VarId};
use mdq_model::value::Value;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::{discriminant, replace};

#[cfg(test)]
thread_local! {
    /// Test hook: collapses every key image to one constant, so every
    /// pair becomes a candidate and only verification keeps the result
    /// right.
    static COLLIDE_ALL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Folds one word into a running 64-bit image.
#[inline]
pub(crate) fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The allocation-free 64-bit image of a binding's `on` values under
/// which joinable bindings are equal (see the module docs).
fn key_image(b: &Binding, on: &[VarId]) -> u64 {
    #[cfg(test)]
    if COLLIDE_ALL.get() {
        return 0;
    }
    let mut h = 0;
    for &v in on {
        h = match b.get(v) {
            None => mix(h, 1),
            Some(Value::Null) => mix(h, 2),
            Some(Value::Bool(flag)) => mix(h, 3 + u64::from(*flag)),
            Some(Value::Str(s)) => s.as_bytes().chunks(8).fold(mix(h, 5), |h, chunk| {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                mix(h, u64::from_le_bytes(word))
            }),
            Some(num) => mix(
                h,
                num.as_f64()
                    .expect("Int/Float/Date all have an f64 image")
                    .to_bits(),
            ),
        };
    }
    // the multiply mixes upwards only; fold the high half back down so
    // the image is usable as a hash as it is
    h ^ (h >> 32)
}

/// Passes an already-mixed key image through as its own hash.
#[derive(Default)]
struct ImageHasher(u64);

impl Hasher for ImageHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("key images are hashed as one u64")
    }
    fn write_u64(&mut self, image: u64) {
        self.0 = image;
    }
}

type ImageMap<V> = HashMap<u64, V, BuildHasherDefault<ImageHasher>>;

/// "No binding": the end of a chain, or an empty one.
const NONE: u32 = u32::MAX;

/// A buffered binding, linked to the next binding of its side that
/// shares its key image.
struct Arrived {
    binding: Binding,
    next: u32,
    /// On a chain's head: the chain's block in [`Blocks::spans`], once
    /// one is open (`NONE` before, and off the head).
    block: u32,
}

/// One side's bindings of one key image, in arrival order: positions
/// into the side's buffer, chained through [`Arrived::next`] — filing a
/// binding allocates nothing.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NONE,
        tail: NONE,
    };

    /// Appends `binding` to `buf` and to this chain.
    fn push(&mut self, binding: Binding, buf: &mut Vec<Arrived>) {
        let at = buf.len() as u32;
        match self.tail {
            NONE => self.head = at,
            tail => buf[tail as usize].next = at,
        }
        self.tail = at;
        buf.push(Arrived {
            binding,
            next: NONE,
            block: NONE,
        });
    }
}

/// What the bound skip needs of a predicate (module docs): an order
/// comparison `< <= > >=` of two `+`/`−` combinations of constants and
/// variables below 64, each variable under one sign. Returns the
/// variables whose *smallest* value is the predicate's best case, as a
/// bit mask (the others' best case is their largest).
fn best_low(p: &Predicate) -> Option<u64> {
    /// Adds `e`'s variables to `signs[1]` where they add to `lhs − rhs`
    /// and to `signs[0]` where they subtract; `false` on a product.
    fn collect(e: &Expr, plus: bool, signs: &mut [u64; 2]) -> bool {
        match e {
            Expr::Term(Term::Const(_)) => true,
            Expr::Term(Term::Var(v)) if v.0 < 64 => {
                signs[usize::from(plus)] |= 1 << v.0;
                true
            }
            Expr::Add(a, b) => collect(a, plus, signs) && collect(b, plus, signs),
            Expr::Sub(a, b) => collect(a, plus, signs) && collect(b, !plus, signs),
            Expr::Term(Term::Var(_)) | Expr::Mul(..) => false,
        }
    }
    let lhs_low = match p.op {
        CmpOp::Lt | CmpOp::Le => true,
        CmpOp::Gt | CmpOp::Ge => false,
        CmpOp::Eq | CmpOp::Ne => return None,
    };
    let mut signs = [0; 2];
    let shaped = collect(&p.lhs, true, &mut signs) && collect(&p.rhs, false, &mut signs);
    let [minus, plus] = signs;
    (shaped && minus & plus == 0).then_some(if lhs_low { plus } else { minus })
}

/// The values one chain's bindings take in one tracked variable.
#[derive(Clone)]
enum Span {
    /// No binding of the chain binds the variable.
    Unbound,
    /// Every binding that binds it holds a finite `Int`, `Float` or
    /// `Date` of this one kind, from the first to the second by
    /// [`Value::compare`].
    Range(Value, Value),
    /// Some binding holds a non-numeric value, a non-finite float or a
    /// second numeric kind: no bound.
    Off,
}

impl Span {
    fn widen(&mut self, value: Option<&Value>) {
        let Some(x) = value else { return };
        let finite = x.as_f64().is_some_and(f64::is_finite);
        *self = match replace(self, Span::Off) {
            Span::Unbound if finite => Span::Range(x.clone(), x.clone()),
            Span::Range(lo, hi) if finite && discriminant(&lo) == discriminant(x) => {
                if x.compare(&lo) == Some(Ordering::Less) {
                    Span::Range(x.clone(), hi)
                } else if x.compare(&hi) == Some(Ordering::Greater) {
                    Span::Range(lo, x.clone())
                } else {
                    Span::Range(lo, hi)
                }
            }
            _ => Span::Off,
        };
    }
}

/// The bound skip's per-chain bounds (module docs).
///
/// Nothing is kept, not even a box, until the node's predicates reject
/// a verified pair: a join whose pairs all pass has nothing to skip
/// (the warm top-k fills k from its first pairs), and pays one pointer
/// for the skip. After that a chain's block opens the first time a walk
/// over two or more of its bindings is decided, from one pass over
/// them, and every later arrival on the chain widens it.
#[derive(Default)]
struct Bounds(Option<Box<Blocks>>);

/// The [`Span`] of each variable a boundable node predicate reads
/// ([`best_low`]), one block of spans per chain, in variable order.
struct Blocks {
    /// The tracked variables, one bit each.
    tracked: u64,
    spans: Vec<Span>,
}

impl Bounds {
    /// Notes a verified pair's outcome: the first rejection starts the
    /// bounds.
    #[inline]
    fn verified(&mut self, passed: bool, preds: &NodePredicates) {
        if !passed && self.0.is_none() {
            self.0 = Some(Box::new(Blocks::new(preds)));
        }
    }

    /// Appends `binding` to `chain` ([`Chain::push`]), widening the
    /// chain's block if it has one.
    #[inline]
    fn file(&mut self, chain: &mut Chain, binding: Binding, buf: &mut Vec<Arrived>) {
        chain.push(binding, buf);
        let block = buf[chain.head as usize].block;
        if let Some(blocks) = self.0.as_mut().filter(|_| block != NONE) {
            blocks.widen(block, &buf[chain.tail as usize].binding);
        }
    }

    /// Whether no binding of the (non-empty) `chain` can pair with
    /// `walker` ([`Blocks::rules_out`]); never, before the bounds start.
    #[inline]
    fn rules_out(
        &mut self,
        preds: &NodePredicates,
        walker: &Binding,
        walker_left: bool,
        chain: Chain,
        buf: &mut [Arrived],
    ) -> bool {
        self.0
            .as_mut()
            .is_some_and(|blocks| blocks.rules_out(preds, walker, walker_left, chain, buf))
    }
}

impl Blocks {
    /// No blocks yet, tracking every variable a boundable predicate of
    /// `preds` reads.
    fn new(preds: &NodePredicates) -> Blocks {
        let mut tracked = 0;
        preds.all(|p| {
            if best_low(p).is_some() {
                p.all_vars(|v| {
                    tracked |= 1 << v.0;
                    true
                });
            }
            true
        });
        Blocks {
            tracked,
            spans: Vec::new(),
        }
    }

    /// Whether no binding of the (non-empty) `chain` can pair with
    /// `walker`: some boundable predicate fails even at the chain's best
    /// corner (module docs). Where both sides bind a variable, a pair
    /// keeps the left value; `walker_left` says which side that is.
    /// Out of line, so an arrival pays for it only once bounds exist.
    #[inline(never)]
    fn rules_out(
        &mut self,
        preds: &NodePredicates,
        walker: &Binding,
        walker_left: bool,
        chain: Chain,
        buf: &mut [Arrived],
    ) -> bool {
        if self.tracked == 0 || chain.head == chain.tail {
            return false;
        }
        let tracked = self.tracked;
        let spans = self.block(chain, buf);
        !preds.all(|p| !fails_at_best(p, spans, tracked, walker, walker_left))
    }

    fn width(&self) -> usize {
        self.tracked.count_ones() as usize
    }

    fn widen(&mut self, block: u32, binding: &Binding) {
        let width = self.width();
        let mut vars = self.tracked;
        for span in &mut self.spans[block as usize * width..][..width] {
            span.widen(binding.get(VarId(vars.trailing_zeros())));
            vars &= vars - 1;
        }
    }

    /// `chain`'s block, opened from one pass over the chain if it has
    /// none yet.
    fn block(&mut self, chain: Chain, buf: &mut [Arrived]) -> &[Span] {
        let width = self.width();
        let mut block = buf[chain.head as usize].block;
        if block == NONE {
            block = (self.spans.len() / width) as u32;
            buf[chain.head as usize].block = block;
            self.spans.resize(self.spans.len() + width, Span::Unbound);
            let mut at = chain.head;
            while at != NONE {
                self.widen(block, &buf[at as usize].binding);
                at = buf[at as usize].next;
            }
        }
        &self.spans[block as usize * width..][..width]
    }
}

/// Whether the boundable predicate `p` fails for every pair of `walker`
/// with a binding of the chain whose tracked variables span `spans`:
/// `p` evaluated at the chain's best corner — each chain variable at its
/// extreme, the walker's own values as they are — is decidedly false,
/// both sides finite.
fn fails_at_best(
    p: &Predicate,
    spans: &[Span],
    tracked: u64,
    walker: &Binding,
    walker_left: bool,
) -> bool {
    let Some(low) = best_low(p) else {
        return false;
    };
    let corner = |v: VarId| {
        let span = &spans[(tracked & ((1 << v.0) - 1)).count_ones() as usize];
        match (walker.get(v), span) {
            // every pair reads the walker's own value
            (Some(own), _) if walker_left || matches!(span, Span::Unbound) => Some(own.clone()),
            (None, Span::Range(lo, hi)) => Some(if low >> v.0 & 1 == 1 { lo } else { hi }.clone()),
            // the chain's values without a range, or none at all
            _ => None,
        }
    };
    // `Predicate::eval`'s own steps, with both sides held finite
    let (Some(l), Some(r)) = (p.lhs.eval(&corner), p.rhs.eval(&corner)) else {
        return false;
    };
    let finite = |x: &Value| x.as_f64().is_none_or(f64::is_finite);
    finite(&l) && finite(&r) && l.compare(&r).is_some_and(|o| !p.op.eval(o))
}

/// Nested-loop rank-preserving join. The outer side is fully materialised
/// up front (it is chosen to be the selective one, §3.3) and chained by
/// key image; pairs are emitted inner-major: for each inner tuple, all
/// outer matches in outer order — exactly the emission order of the
/// naive grid sweep, at probe cost.
pub struct NlJoin<O, I> {
    outer_src: Option<O>,
    outer: Vec<Arrived>,
    /// The outer side's chain per key image; with an empty `on` every
    /// outer binding lands in one chain (full scan).
    index: ImageMap<Chain>,
    inner: I,
    on: Vec<VarId>,
    preds: NodePredicates,
    bounds: Bounds,
    /// Pairs verified since [`Operator::take_candidates`] last ran.
    candidates: u64,
    /// The inner tuple currently probing, and the outer position its
    /// next candidate sits at.
    probe: Option<(Binding, u32)>,
    /// When `true`, emitted pairs put the outer binding on the left of
    /// the join (where both sides bind a variable, the left value is
    /// the one kept).
    outer_is_left: bool,
}

impl<O, I> NlJoin<O, I>
where
    O: Operator,
    I: Operator,
{
    /// Creates a nested-loop join; `outer` is the selective side.
    pub fn new(outer: O, inner: I, on: Vec<VarId>, outer_is_left: bool) -> Self {
        NlJoin {
            outer_src: Some(outer),
            outer: Vec::new(),
            index: ImageMap::default(),
            inner,
            on,
            preds: NodePredicates::none(),
            bounds: Bounds::default(),
            candidates: 0,
            probe: None,
            outer_is_left,
        }
    }

    /// Emits only the pairs that also satisfy `preds`, decided before a
    /// pair is built.
    pub fn with_predicates(mut self, preds: impl Into<NodePredicates>) -> Self {
        self.preds = preds.into();
        self
    }

    fn ensure_outer(&mut self) {
        if let Some(mut src) = self.outer_src.take() {
            let mut outer = Vec::new();
            drain_into(&mut src, 256, &mut outer);
            self.outer.reserve(outer.len());
            for b in outer {
                let chain = self
                    .index
                    .entry(key_image(&b, &self.on))
                    .or_insert(Chain::EMPTY);
                self.bounds.file(chain, b, &mut self.outer);
            }
        }
    }

    fn pull_next(&mut self) -> Option<Binding> {
        self.ensure_outer();
        if self.outer.is_empty() {
            return None;
        }
        loop {
            let (inner, at) = match &mut self.probe {
                Some(probe) => probe,
                None => {
                    // the inner side is pulled strictly one binding at a
                    // time: bulk-pulling it would over-demand upstream
                    // service calls beyond what this join actually consumes
                    let inner = self.inner.next_binding()?;
                    let at = match self.index.get(&key_image(&inner, &self.on)) {
                        Some(&chain)
                            if !self.bounds.rules_out(
                                &self.preds,
                                &inner,
                                !self.outer_is_left,
                                chain,
                                &mut self.outer,
                            ) =>
                        {
                            chain.head
                        }
                        _ => NONE,
                    };
                    self.probe.insert((inner, at))
                }
            };
            while *at != NONE {
                let o = &self.outer[*at as usize];
                *at = o.next;
                self.candidates += 1;
                let joined = if self.outer_is_left {
                    o.binding.join(inner, &self.on, &self.preds)
                } else {
                    inner.join(&o.binding, &self.on, &self.preds)
                };
                self.bounds.verified(joined.is_some(), &self.preds);
                if joined.is_some() {
                    return joined;
                }
            }
            self.probe = None;
        }
    }
}

impl<O, I> Operator for NlJoin<O, I>
where
    O: Operator,
    I: Operator,
{
    fn next_binding(&mut self) -> Option<Binding> {
        self.pull_next()
    }
    fn take_candidates(&mut self) -> u64 {
        std::mem::take(&mut self.candidates)
    }
}

const LEFT: usize = 0;
const RIGHT: usize = 1;

/// Initial room per side of a merge scan: what the first few answers of
/// a small-k query make arrive.
const FIRST_ARRIVALS: usize = 16;

/// Grid position `(d, i)` — anti-diagonal, then left index — as one
/// integer that orders the way the merge scan emits.
fn cell(d: u32, i: u32) -> u64 {
    u64::from(d) << 32 | u64::from(i)
}

/// One arrived binding's walk over the key-equal bindings of the
/// *opposite* side that had arrived before it — the candidate cells
/// this binding completes, which lie in increasing [`cell`] order. The
/// derived order compares `at` first, and no two cursors ever sit on
/// the same cell.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cursor {
    /// The [`cell`] the cursor is at.
    at: u64,
    /// The opposite side's last key-equal binding at arrival time: the
    /// cell the walk ends on.
    last: u32,
    /// Whether the walking binding is on the left side.
    own_left: bool,
}

/// Merge-scan rank-preserving join: the pairs of the Cartesian grid by
/// anti-diagonals, pulling both inputs in lockstep (Fig. 5, right) —
/// see the module docs for the exact order-and-demand contract.
///
/// Pending state is one cursor per arrived binding that still has
/// candidates ahead of it: `O(l + r)` whatever the key distribution, the
/// one-key grid and the empty-`on` cross product included.
pub struct MsJoin<L, R> {
    left: L,
    right: R,
    /// What has arrived, and whether the side has ended, per side.
    buf: [Vec<Arrived>; 2],
    done: [bool; 2],
    started: bool,
    on: Box<[VarId]>,
    preds: NodePredicates,
    /// Both sides' chains per key image.
    index: ImageMap<[Chain; 2]>,
    bounds: Bounds,
    /// Pairs verified since [`Operator::take_candidates`] last ran.
    candidates: u64,
    /// Min-heap on `(d, i)`: the next candidate cell of every cursor.
    pending: BinaryHeap<Reverse<Cursor>>,
}

impl<L, R> MsJoin<L, R>
where
    L: Operator,
    R: Operator,
{
    /// Creates a merge-scan join.
    pub fn new(left: L, right: R, on: Vec<VarId>) -> Self {
        MsJoin {
            left,
            right,
            buf: [Vec::new(), Vec::new()],
            done: [false; 2],
            started: false,
            on: on.into_boxed_slice(),
            preds: NodePredicates::none(),
            index: ImageMap::default(),
            bounds: Bounds::default(),
            candidates: 0,
            pending: BinaryHeap::new(),
        }
    }

    /// Emits only the pairs that also satisfy `preds`, decided before a
    /// pair is built.
    pub fn with_predicates(mut self, preds: impl Into<NodePredicates>) -> Self {
        self.preds = preds.into();
        self
    }

    /// Pulls the next binding of `side`; it opens a cursor over the
    /// key-equal bindings of the other side already here, unless the
    /// bound rules the whole walk out.
    fn pull(&mut self, side: usize) {
        let next = match side {
            LEFT => self.left.next_binding(),
            _ => self.right.next_binding(),
        };
        let Some(binding) = next else {
            self.done[side] = true;
            return;
        };
        let chains = self
            .index
            .entry(key_image(&binding, &self.on))
            .or_insert([Chain::EMPTY; 2]);
        let (at, theirs) = (self.buf[side].len() as u32, chains[1 - side]);
        if theirs.head != NONE
            && !self.bounds.rules_out(
                &self.preds,
                &binding,
                side == LEFT,
                theirs,
                &mut self.buf[1 - side],
            )
        {
            let i = if side == LEFT { at } else { theirs.head };
            self.pending.push(Reverse(Cursor {
                at: cell(at + theirs.head, i),
                last: theirs.tail,
                own_left: side == LEFT,
            }));
        }
        self.bounds
            .file(&mut chains[side], binding, &mut self.buf[side]);
    }

    /// Takes the pending cell `(i, j)` off the heap, moving its cursor
    /// on to the binding's next candidate (or retiring it).
    fn take_cell(&mut self) -> (usize, usize) {
        let mut top = self.pending.peek_mut().expect("caller saw a candidate");
        let cur = &mut top.0;
        let i = cur.at as u32;
        let j = (cur.at >> 32) as u32 - i;
        let (theirs, side) = if cur.own_left { (j, RIGHT) } else { (i, LEFT) };
        if theirs == cur.last {
            std::collections::binary_heap::PeekMut::pop(top);
        } else {
            // the walking binding stays; the other index moves on
            let step = self.buf[side][theirs as usize].next - theirs;
            cur.at += cell(step, if cur.own_left { 0 } else { step });
        }
        (i as usize, j as usize)
    }

    fn pull_next(&mut self) -> Option<Binding> {
        if !self.started {
            self.started = true;
            // one allocation each for what a small-k pull touches,
            // instead of three doublings
            self.buf.iter_mut().for_each(|b| b.reserve(FIRST_ARRIVALS));
            self.index.reserve(FIRST_ARRIVALS);
            self.pending.reserve(FIRST_ARRIVALS);
            self.pull(LEFT);
            self.pull(RIGHT);
        }
        // a provably empty side empties the grid
        if self.buf[LEFT].is_empty() || self.buf[RIGHT].is_empty() {
            return None;
        }
        loop {
            // the cell each open side is next pulled at: right[d] at the
            // head of diagonal d, left[d] at its tail
            let (l, r) = (self.buf[LEFT].len() as u32, self.buf[RIGHT].len() as u32);
            let pull_r = if self.done[RIGHT] {
                u64::MAX
            } else {
                cell(r, 0)
            };
            let pull_l = if self.done[LEFT] {
                u64::MAX
            } else {
                cell(l, l)
            };
            let candidate = self.pending.peek().map_or(u64::MAX, |c| c.0.at);
            if pull_r.min(pull_l) < candidate {
                // every pair before the pull's cell is out: pull
                self.pull(if pull_r < pull_l { RIGHT } else { LEFT });
            } else if candidate == u64::MAX {
                // both sides done, no candidate left
                return None;
            } else {
                let (i, j) = self.take_cell();
                self.candidates += 1;
                let (l, r) = (&self.buf[LEFT][i].binding, &self.buf[RIGHT][j].binding);
                let joined = l.join(r, &self.on, &self.preds);
                self.bounds.verified(joined.is_some(), &self.preds);
                if joined.is_some() {
                    return joined;
                }
            }
        }
    }
}

impl<L, R> Operator for MsJoin<L, R>
where
    L: Operator,
    R: Operator,
{
    fn next_binding(&mut self) -> Option<Binding> {
        self.pull_next()
    }
    fn take_candidates(&mut self) -> u64 {
        std::mem::take(&mut self.candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{drain_all, Batch, Source};
    use mdq_model::query::{Atom, Term};
    use mdq_model::schema::ServiceId;
    use mdq_model::value::{Tuple, Value};

    /// Builds a stream of bindings over vars (X=shared key, Y=rank id)
    /// for the left side, (X, Z) for the right side; 4 vars total.
    fn stream(var_key: u32, var_val: u32, items: &[(i64, i64)]) -> Vec<Binding> {
        items
            .iter()
            .map(|&(k, v)| {
                Binding::empty(4)
                    .bind_atom(
                        &Atom {
                            service: ServiceId(0),
                            terms: vec![Term::Var(VarId(var_key)), Term::Var(VarId(var_val))],
                        },
                        &Tuple::new(vec![Value::Int(k), Value::Int(v)]),
                    )
                    .expect("binds")
            })
            .collect()
    }

    fn src(items: Vec<Binding>) -> Source<std::vec::IntoIter<Binding>> {
        Source(items.into_iter())
    }

    fn pairs_of(results: &[Binding]) -> Vec<(i64, i64)> {
        results
            .iter()
            .map(|b| {
                let y = match b.get(VarId(1)) {
                    Some(Value::Int(v)) => *v,
                    other => panic!("Y not an int: {other:?}"),
                };
                let z = match b.get(VarId(2)) {
                    Some(Value::Int(v)) => *v,
                    other => panic!("Z not an int: {other:?}"),
                };
                (y, z)
            })
            .collect()
    }

    #[test]
    fn ms_join_equals_set_join() {
        // left: X in {1,2}, right: X in {1,3}: only X=1 matches
        let left = stream(0, 1, &[(1, 10), (2, 11), (1, 12)]);
        let right = stream(0, 2, &[(1, 20), (3, 21), (1, 22)]);
        let out = drain_all(MsJoin::new(src(left), src(right), vec![VarId(0)]), 16);
        let got = pairs_of(&out);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(10, 20), (10, 22), (12, 20), (12, 22)]);
    }

    #[test]
    fn ms_join_diagonal_order() {
        // identical keys: all pairs join; diagonal order expected
        let left = stream(0, 1, &[(1, 0), (1, 1), (1, 2)]);
        let right = stream(0, 2, &[(1, 0), (1, 1), (1, 2)]);
        let out = drain_all(MsJoin::new(src(left), src(right), vec![VarId(0)]), 16);
        let got = pairs_of(&out);
        assert_eq!(
            got,
            vec![
                (0, 0),
                (0, 1),
                (1, 0),
                (0, 2),
                (1, 1),
                (2, 0),
                (1, 2),
                (2, 1),
                (2, 2)
            ]
        );
    }

    #[test]
    fn nl_join_inner_major_order() {
        let outer = stream(0, 1, &[(1, 0), (1, 1)]);
        let inner = stream(0, 2, &[(1, 0), (1, 1)]);
        let out = drain_all(
            NlJoin::new(src(outer), src(inner), vec![VarId(0)], true),
            16,
        );
        let got = pairs_of(&out);
        assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn joins_agree_on_result_set() {
        let l = &[(1, 0), (2, 1), (1, 2), (3, 3)];
        let r = &[(1, 0), (1, 1), (2, 2), (4, 3)];
        let ms = drain_all(
            MsJoin::new(src(stream(0, 1, l)), src(stream(0, 2, r)), vec![VarId(0)]),
            16,
        );
        let nl = drain_all(
            NlJoin::new(
                src(stream(0, 1, l)),
                src(stream(0, 2, r)),
                vec![VarId(0)],
                true,
            ),
            16,
        );
        let (mut a, mut b) = (pairs_of(&ms), pairs_of(&nl));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2 * 2 + 1); // X=1: 2×2, X=2: 1×1
    }

    /// The hash index must match numerics across kinds exactly like
    /// `Value::join_eq`: `Int(1)` joins `Float(1.0)`.
    #[test]
    fn nl_join_matches_numerics_across_kinds() {
        let outer: Vec<Binding> = stream(0, 1, &[(1, 0), (2, 1)]);
        // right side binds X as Float
        let right: Vec<Binding> = [(1.0f64, 5i64), (3.0, 6)]
            .iter()
            .map(|&(k, v)| {
                Binding::empty(4)
                    .bind_atom(
                        &Atom {
                            service: ServiceId(0),
                            terms: vec![Term::Var(VarId(0)), Term::Var(VarId(2))],
                        },
                        &Tuple::new(vec![Value::float(k), Value::Int(v)]),
                    )
                    .expect("binds")
            })
            .collect();
        let out = drain_all(
            NlJoin::new(src(outer), src(right), vec![VarId(0)], true),
            16,
        );
        assert_eq!(pairs_of(&out), vec![(0, 5)]);
    }

    /// The rank-consistency property: if a pair dominates another
    /// componentwise, it is emitted no later.
    fn assert_rank_consistent(emitted: &[(usize, usize)]) {
        for (pos_a, &a) in emitted.iter().enumerate() {
            for (pos_b, &b) in emitted.iter().enumerate() {
                if a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1) {
                    assert!(
                        pos_a < pos_b,
                        "pair {a:?} dominates {b:?} but is emitted later"
                    );
                }
            }
        }
    }

    #[test]
    fn ms_emission_is_rank_consistent() {
        // ranks double as ids: all same key, sizes 4 × 3
        let left = stream(0, 1, &[(1, 0), (1, 1), (1, 2), (1, 3)]);
        let right = stream(0, 2, &[(1, 0), (1, 1), (1, 2)]);
        let out = drain_all(MsJoin::new(src(left), src(right), vec![VarId(0)]), 16);
        let got: Vec<(usize, usize)> = pairs_of(&out)
            .into_iter()
            .map(|(y, z)| (y as usize, z as usize))
            .collect();
        assert_eq!(got.len(), 12);
        assert_rank_consistent(&got);
    }

    #[test]
    fn nl_emission_is_rank_consistent() {
        let outer = stream(0, 1, &[(1, 0), (1, 1)]);
        let inner = stream(0, 2, &[(1, 0), (1, 1), (1, 2)]);
        let out = drain_all(
            NlJoin::new(src(outer), src(inner), vec![VarId(0)], true),
            16,
        );
        let got: Vec<(usize, usize)> = pairs_of(&out)
            .into_iter()
            .map(|(y, z)| (y as usize, z as usize))
            .collect();
        assert_rank_consistent(&got);
    }

    #[test]
    fn empty_sides() {
        let empty: Vec<Binding> = Vec::new();
        let right = stream(0, 2, &[(1, 0)]);
        let ms = drain_all(
            MsJoin::new(src(empty.clone()), src(right.clone()), vec![VarId(0)]),
            16,
        );
        assert!(ms.is_empty());
        let nl = drain_all(
            NlJoin::new(src(empty), src(right), vec![VarId(0)], true),
            16,
        );
        assert!(nl.is_empty());
    }

    #[test]
    fn cartesian_when_no_shared_vars() {
        let left = stream(0, 1, &[(1, 0), (2, 1)]);
        let right = stream(3, 2, &[(7, 0)]); // different key var → no overlap
        let out = drain_all(MsJoin::new(src(left), src(right), vec![]), 16);
        assert_eq!(out.len(), 2, "cross product on empty join condition");
    }

    // ---- the differential oracle: both joins against the sweep ----

    use crate::operator::Filter;
    use mdq_model::query::{CmpOp, Expr, Predicate};
    use mdq_model::rng::Rng;
    use mdq_model::value::Date;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What a join does to the world outside it, in order.
    #[derive(Clone, Debug, PartialEq)]
    enum Event {
        PullLeft,
        PullRight,
        Emit(Binding),
    }

    type Log = Rc<RefCell<Vec<Event>>>;

    /// A source that logs every `next_binding` call it receives.
    struct Logged {
        items: std::vec::IntoIter<Binding>,
        log: Log,
        side: Event,
    }

    impl Operator for Logged {
        fn next_binding(&mut self) -> Option<Binding> {
            self.log.borrow_mut().push(self.side.clone());
            self.items.next()
        }
    }

    fn logged(left: &[Binding], right: &[Binding]) -> (Logged, Logged, Log) {
        let log = Log::default();
        let side = |items: &[Binding], side| Logged {
            items: Vec::from(items).into_iter(),
            log: Rc::clone(&log),
            side,
        };
        (
            side(left, Event::PullLeft),
            side(right, Event::PullRight),
            log,
        )
    }

    /// The reference merge scan: the cell-by-cell anti-diagonal sweep
    /// [`MsJoin`] replaced, kept verbatim (predicate-less; the oracle
    /// puts a [`Filter`] above it).
    struct SweepJoin<L, R> {
        left: L,
        right: R,
        lbuf: Batch,
        rbuf: Batch,
        l_done: bool,
        r_done: bool,
        on: Vec<VarId>,
        d: usize,
        i: usize,
    }

    impl<L: Operator, R: Operator> SweepJoin<L, R> {
        fn new(left: L, right: R, on: Vec<VarId>) -> Self {
            SweepJoin {
                left,
                right,
                lbuf: Vec::new(),
                rbuf: Vec::new(),
                l_done: false,
                r_done: false,
                on,
                d: 0,
                i: 0,
            }
        }

        fn pull_left(&mut self, upto: usize) {
            while !self.l_done && self.lbuf.len() <= upto {
                match self.left.next_binding() {
                    Some(b) => self.lbuf.push(b),
                    None => self.l_done = true,
                }
            }
        }

        fn pull_right(&mut self, upto: usize) {
            while !self.r_done && self.rbuf.len() <= upto {
                match self.right.next_binding() {
                    Some(b) => self.rbuf.push(b),
                    None => self.r_done = true,
                }
            }
        }
    }

    impl<L: Operator, R: Operator> Operator for SweepJoin<L, R> {
        fn next_binding(&mut self) -> Option<Binding> {
            loop {
                if (self.l_done && self.lbuf.is_empty()) || (self.r_done && self.rbuf.is_empty()) {
                    return None;
                }
                if self.l_done && self.r_done && self.d > self.lbuf.len() + self.rbuf.len() - 2 {
                    return None;
                }
                let (d, i) = (self.d, self.i);
                let j = d - i;
                if self.i < self.d {
                    self.i += 1;
                } else {
                    self.d += 1;
                    self.i = 0;
                }
                self.pull_left(i);
                self.pull_right(j);
                if i >= self.lbuf.len() || j >= self.rbuf.len() {
                    continue;
                }
                if let Some(m) = self.lbuf[i].merge(&self.rbuf[j], &self.on) {
                    return Some(m);
                }
            }
        }
    }

    /// The reference nested loop: every inner binding against every
    /// outer binding, no index.
    struct NaiveNl<O, I> {
        outer_src: Option<O>,
        outer: Batch,
        inner: I,
        probe: Option<(Binding, usize)>,
        on: Vec<VarId>,
        outer_is_left: bool,
    }

    impl<O: Operator, I: Operator> Operator for NaiveNl<O, I> {
        fn next_binding(&mut self) -> Option<Binding> {
            if let Some(mut src) = self.outer_src.take() {
                drain_into(&mut src, 256, &mut self.outer);
            }
            if self.outer.is_empty() {
                return None;
            }
            loop {
                if self.probe.is_none() {
                    self.probe = Some((self.inner.next_binding()?, 0));
                }
                let (inner, pos) = self.probe.as_mut().expect("just set");
                while *pos < self.outer.len() {
                    let o = &self.outer[*pos];
                    *pos += 1;
                    let merged = if self.outer_is_left {
                        o.merge(inner, &self.on)
                    } else {
                        inner.merge(o, &self.on)
                    };
                    if merged.is_some() {
                        return merged;
                    }
                }
                self.probe = None;
            }
        }
    }

    /// Pulls `m` times (or to exhaustion) and returns everything the
    /// join did: its upstream pulls and its emissions, interleaved.
    fn observe(join: &mut impl Operator, log: &Log, m: usize) -> Vec<Event> {
        for _ in 0..m {
            match join.next_binding() {
                Some(b) => log.borrow_mut().push(Event::Emit(b)),
                None => break,
            }
        }
        log.take()
    }

    // variable space of the generated streams
    const KEYS: [VarId; 3] = [VarId(0), VarId(1), VarId(2)];
    const SHARED: VarId = VarId(3);
    const L_ID: VarId = VarId(4);
    const R_ID: VarId = VarId(5);
    const L_PRICE: VarId = VarId(6);
    const R_PRICE: VarId = VarId(7);
    const NVARS: usize = 8;

    /// The value key `k` takes in key variable `var` — a function of
    /// `(k, var)` up to join equality, so equal keys always join: the
    /// numeric class renders `k` as `Int`, `Float` or `Date` at random
    /// (`Int(1)` must meet `Float(1.0)`), the others are strings, nulls,
    /// booleans and *unbound*.
    fn key_value(rng: &mut Rng, k: u64, var: usize) -> Option<Value> {
        match (k * 7 + var as u64 * 3) % 6 {
            0 | 1 => Some(match rng.range_u64(0, 3) {
                0 => Value::Int(k as i64),
                1 => Value::float(k as f64),
                _ => Value::Date(Date::from_ymd(1970, 1, 1).plus_days(k as i64)),
            }),
            2 => Some(Value::str(format!("key-{k}-longer-than-eight-bytes"))),
            3 => Some(Value::Null),
            4 => Some(Value::Bool(k % 4 < 2)),
            _ => None,
        }
    }

    /// How one side's prices are drawn in a case: the kinds, signs and
    /// magnitudes the bound skip must stay sound over.
    #[derive(Clone, Copy, Debug)]
    enum Prices {
        Ints,
        /// Halves, with `0.0` and `-0.0` frequent.
        Floats,
        Dates,
        /// Within 50 of `i64::MAX`: sums overflow to `None`.
        NearMax,
        NearMin,
        /// Up to ±2e308: some are infinite, sums overflow to infinity.
        Huge,
        /// Just above 2^53 as `Int` or `Float`: kinds that compare
        /// equal and still add apart.
        Edge,
        /// A kind per binding.
        Mixed,
        /// Mostly floats; sometimes unbound, null, a string, ±∞ or NaN.
        Dirty,
    }

    const PRICES: [Prices; 9] = [
        Prices::Ints,
        Prices::Floats,
        Prices::Dates,
        Prices::NearMax,
        Prices::NearMin,
        Prices::Huge,
        Prices::Edge,
        Prices::Mixed,
        Prices::Dirty,
    ];

    const TWO_53: i64 = 1 << 53;

    fn price(rng: &mut Rng, prices: Prices) -> Option<Value> {
        let small = rng.range_i64(-50, 51);
        Some(match prices {
            Prices::Ints => Value::Int(small),
            Prices::Floats => match rng.range_u64(0, 6) {
                0 => Value::float(0.0),
                1 => Value::float(-0.0),
                _ => Value::float(small as f64 / 2.0),
            },
            Prices::Dates => Value::Date(Date::from_ymd(1970, 1, 1).plus_days(small)),
            Prices::NearMax => Value::Int(i64::MAX - small.abs()),
            Prices::NearMin => Value::Int(i64::MIN + small.abs()),
            Prices::Huge => Value::float(small as f64 * 4e306),
            Prices::Edge => match TWO_53 + small.rem_euclid(3) {
                n if rng.range_u64(0, 2) == 0 => Value::Int(n),
                n => Value::float(n as f64),
            },
            Prices::Mixed => {
                let kind = PRICES[rng.range_usize(0, 7)];
                return price(rng, kind);
            }
            Prices::Dirty => match rng.range_u64(0, 12) {
                0 => return None,
                1 => Value::Null,
                2 => Value::str("n/a"),
                3 => Value::float(f64::INFINITY),
                4 => Value::float(f64::NEG_INFINITY),
                5 => Value::float(f64::NAN),
                _ => Value::float(small as f64),
            },
        })
    }

    /// A predicate constant: any price, or an extreme.
    fn constant(rng: &mut Rng) -> Expr {
        Expr::constant(match rng.range_u64(0, 12) {
            0 => Value::Int(i64::MAX),
            1 => Value::Int(i64::MIN),
            2 => Value::float(f64::INFINITY),
            3 => Value::float(-0.0),
            4 => Value::Int(0),
            5 => Value::Int(1),
            _ => {
                let kind = PRICES[rng.range_usize(0, 7)];
                price(rng, kind).expect("those kinds always bind")
            }
        })
    }

    fn side(rng: &mut Rng, len: usize, keys: u64, id: VarId, price_var: VarId) -> Batch {
        let prices = PRICES[rng.range_usize(0, PRICES.len())];
        (0..len)
            .map(|rank| {
                let k = rng.range_u64(0, keys);
                let mut vars = vec![id];
                let mut row = vec![Value::Int(rank as i64)];
                if let Some(p) = price(rng, prices) {
                    vars.push(price_var);
                    row.push(p);
                }
                for (var, &v) in KEYS.iter().enumerate() {
                    if let Some(val) = key_value(rng, k, var) {
                        vars.push(v);
                        row.push(val);
                    }
                }
                // a variable both sides may bind that is never in `on`:
                // only the every-shared-slot check keeps it honest; its
                // equal values come in two kinds, which add apart above
                // 2^53, so a pair must read the left one
                if rng.range_u64(0, 4) > 0 {
                    vars.push(SHARED);
                    row.push(match rng.range_u64(0, 6) {
                        0 => Value::float(1.0),
                        1 => Value::Int(TWO_53 + 1),
                        2 => Value::float(TWO_53 as f64),
                        n => Value::Int(i64::from(n == 3)),
                    });
                }
                Binding::from_row(NVARS, &vars, &row)
            })
            .collect()
    }

    fn predicates(rng: &mut Rng) -> Vec<Predicate> {
        let add = |a: Expr, b: Expr| Expr::Add(Box::new(a), Box::new(b));
        let sub = |a: Expr, b: Expr| Expr::Sub(Box::new(a), Box::new(b));
        let (l, r) = (Expr::var(L_PRICE), Expr::var(R_PRICE));
        let mut c = || constant(rng);
        let pool = [
            // the running example's shape, and its relatives: both
            // sides, `+` / `−`, constants on either side
            Predicate::new(add(l.clone(), r.clone()), CmpOp::Lt, c()),
            Predicate::new(sub(l.clone(), r.clone()), CmpOp::Ge, c()),
            Predicate::new(c(), CmpOp::Le, add(l.clone(), r.clone())),
            Predicate::new(add(l.clone(), c()), CmpOp::Gt, sub(r.clone(), c())),
            Predicate::new(sub(c(), l.clone()), CmpOp::Lt, r.clone()),
            Predicate::new(add(Expr::var(L_ID), r.clone()), CmpOp::Le, c()),
            // a variable both sides may bind: the pair keeps the left one
            Predicate::new(add(Expr::var(SHARED), r.clone()), CmpOp::Lt, c()),
            Predicate::new(sub(l.clone(), Expr::var(SHARED)), CmpOp::Gt, c()),
            // shapes the bound leaves alone: one variable under both
            // signs, a product, `!=`
            Predicate::new(add(sub(l.clone(), l.clone()), r.clone()), CmpOp::Lt, c()),
            Predicate::new(
                Expr::Mul(Box::new(l.clone()), Box::new(r.clone())),
                CmpOp::Lt,
                c(),
            ),
            Predicate::new(add(l.clone(), r.clone()), CmpOp::Ne, c()),
            Predicate::new(Expr::var(L_ID), CmpOp::Le, Expr::var(R_ID)),
            Predicate::new(r, CmpOp::Ge, c()),
            // pending (and so failing) wherever SHARED is unbound
            Predicate::new(Expr::var(SHARED), CmpOp::Ge, Expr::constant(1i64)),
        ];
        (0..rng.range_usize(0, 4))
            .map(|_| pool[rng.range_usize(0, pool.len())].clone())
            .collect()
    }

    /// The key-equal pairs of a full drain: what the joins verified
    /// before the bound skip.
    fn key_equal_pairs(left: &[Binding], right: &[Binding], on: &[VarId]) -> u64 {
        let images = |side: &[Binding]| side.iter().map(|b| key_image(b, on)).collect::<Vec<_>>();
        let (l, r) = (images(left), images(right));
        l.iter()
            .map(|i| r.iter().filter(|j| i == *j).count() as u64)
            .sum()
    }

    /// What the bound skip saved over a run of cases' full drains.
    #[derive(Default, Debug)]
    struct Saved {
        /// Candidates verified, and the key-equal pairs of the grids.
        verified: u64,
        key_equal: u64,
        /// Drains, and those in which the skip ruled a pair out.
        drains: u64,
        fired: u64,
    }

    impl Saved {
        /// The oracle means something only where the skip fires: in at
        /// least a quarter of the drains.
        fn check(&self) {
            assert!(
                self.fired * 4 >= self.drains,
                "the bound skip seldom fired: {self:?}"
            );
        }
    }

    /// One seeded case: both joins against their references, full drain
    /// and a random halting point, single pulls and one batched pull.
    fn differential_case(rng: &mut Rng, case: usize, saved: &mut Saved) {
        let (l_len, r_len) = (rng.range_usize(0, 41), rng.range_usize(0, 41));
        let keys = [1, 3, (l_len + r_len).max(1) as u64][rng.range_usize(0, 3)];
        let on = KEYS[..[0, 1, 3][rng.range_usize(0, 3)]].to_vec();
        let left = side(rng, l_len, keys, L_ID, L_PRICE);
        let right = side(rng, r_len, keys, R_ID, R_PRICE);
        let preds = predicates(rng);
        let halt = rng.range_usize(0, 12);
        let what = format!("case {case}: {l_len} x {r_len}, {keys} keys, on {on:?}, {preds:?}");
        differential(&left, &right, &on, &preds, halt, &what, saved);
    }

    /// Both joins against their references on one grid: a full drain
    /// and a halt after `halt` emissions, single pulls and one batched
    /// pull.
    fn differential(
        left: &[Binding],
        right: &[Binding],
        on: &[VarId],
        preds: &[Predicate],
        halt: usize,
        what: &str,
        saved: &mut Saved,
    ) {
        let key_equal = key_equal_pairs(left, right, on);
        // a full drain verifies at most the key-equal pairs
        let mut drained = |join: &mut dyn Operator, m: usize| {
            let verified = join.take_candidates();
            if m == usize::MAX {
                assert!(verified <= key_equal, "{verified} > {key_equal}, {what}");
                saved.verified += verified;
                saved.key_equal += key_equal;
                saved.drains += 1;
                saved.fired += u64::from(verified < key_equal);
            }
        };

        let full = usize::MAX;
        for m in [full, halt] {
            let (l, r, log) = logged(left, right);
            let mut reference = Filter::new(SweepJoin::new(l, r, on.to_vec()), preds.to_vec());
            let expected = observe(&mut reference, &log, m);

            let (l, r, log) = logged(left, right);
            let mut ms = MsJoin::new(l, r, on.to_vec()).with_predicates(preds.to_vec());
            assert_eq!(
                observe(&mut ms, &log, m),
                expected,
                "merge scan, m = {m}, {what}"
            );
            drained(&mut ms, m);

            // demand-exactness: one batched pull is m single pulls
            if m != full {
                let (l, r, log) = logged(left, right);
                let mut ms = MsJoin::new(l, r, on.to_vec()).with_predicates(preds.to_vec());
                let mut out = Batch::new();
                ms.next_batch(m, &mut out);
                let pulls = |events: &[Event]| {
                    events
                        .iter()
                        .filter(|e| !matches!(e, Event::Emit(_)))
                        .cloned()
                        .collect::<Vec<_>>()
                };
                assert_eq!(pulls(&log.take()), pulls(&expected), "batched pull, {what}");
            }

            for outer_is_left in [true, false] {
                let (l, r, log) = logged(left, right);
                let mut reference = Filter::new(
                    NaiveNl {
                        outer_src: Some(l),
                        outer: Vec::new(),
                        inner: r,
                        probe: None,
                        on: on.to_vec(),
                        outer_is_left,
                    },
                    preds.to_vec(),
                );
                let expected = observe(&mut reference, &log, m);
                let (l, r, log) = logged(left, right);
                let mut nl =
                    NlJoin::new(l, r, on.to_vec(), outer_is_left).with_predicates(preds.to_vec());
                assert_eq!(
                    observe(&mut nl, &log, m),
                    expected,
                    "nested loop, m = {m}, {what}"
                );
                drained(&mut nl, m);
            }
        }
    }

    /// Predicates and values the best corner says nothing about, each a
    /// grid the sweep holds the joins to at every halting point: kinds
    /// that compare equal but compute apart, a comparison that is not
    /// an order, a variable under both signs, and date arithmetic that
    /// would wrap.
    #[test]
    fn bounds_stay_off_where_the_corner_is_not_the_best_case() {
        let row = |vars: &[(VarId, Value)]| {
            let (vars, row): (Vec<VarId>, Vec<Value>) = vars.iter().cloned().unzip();
            Binding::from_row(NVARS, &vars, &row)
        };
        let (int, float) = (Value::Int, Value::float);
        let epoch = Date::from_ymd(1970, 1, 1);
        let sub = |a, b| Expr::Sub(Box::new(a), Box::new(b));
        let add = |a, b| Expr::Add(Box::new(a), Box::new(b));
        let (l, r, shared) = (Expr::var(L_PRICE), Expr::var(R_PRICE), Expr::var(SHARED));
        let cases = [
            (
                // one chain holds `Float(2^53)` and `Int(2^53 + 1)`:
                // equal by `compare`, yet only the `Int` one adds up
                // past zero, so no one-kind range may stand for both
                "mixed kinds in one chain",
                vec![
                    row(&[(L_PRICE, float(TWO_53 as f64))]),
                    row(&[(L_PRICE, int(TWO_53 + 1))]),
                ],
                vec![row(&[(R_PRICE, int(-TWO_53))]); 3],
                Predicate::new(add(l.clone(), r.clone()), CmpOp::Gt, Expr::constant(0i64)),
            ),
            (
                // both sides bind SHARED, the pair keeps the left
                // `Float(2^53)`, under which the predicate holds; the
                // right walker's `Int(2^53 + 1)` would fail it
                "a variable both sides bind",
                vec![row(&[(SHARED, float(TWO_53 as f64)), (L_PRICE, int(TWO_53))]); 2],
                vec![
                    row(&[(SHARED, int(0))]),
                    row(&[(SHARED, int(TWO_53 + 1))]),
                    row(&[(SHARED, int(TWO_53 + 1))]),
                ],
                Predicate::new(sub(shared, l.clone()), CmpOp::Lt, Expr::constant(1i64)),
            ),
            (
                // `L + R != 0` fails at L's minimum and holds above it
                "an inequality",
                vec![row(&[(L_PRICE, int(0))]), row(&[(L_PRICE, int(1))])],
                vec![row(&[(R_PRICE, int(0))]); 3],
                Predicate::new(add(l.clone(), r.clone()), CmpOp::Ne, Expr::constant(0i64)),
            ),
            (
                // `(L + 0.5) − L` is 0.5 at L = 0 and, rounded, 0 at
                // L = 2^53: not monotone in L
                "a variable under both signs",
                vec![
                    row(&[(L_PRICE, float(0.0))]),
                    row(&[(L_PRICE, float(TWO_53 as f64))]),
                ],
                vec![row(&[(R_ID, int(0))]); 3],
                Predicate::new(
                    sub(add(l.clone(), Expr::constant(0.5)), l.clone()),
                    CmpOp::Lt,
                    Expr::constant(0.5),
                ),
            ),
            (
                // L's maximum pushes `L + R` past the day range, which
                // is no date at all — a wrapped one would sit below
                // every pair that holds
                "a date past the day range",
                vec![
                    row(&[(L_PRICE, Value::Date(epoch.plus_days(10)))]),
                    row(&[(L_PRICE, Value::Date(epoch))]),
                ],
                vec![row(&[(R_PRICE, int(i64::from(i32::MAX) - 5))]); 3],
                Predicate::new(add(l, r), CmpOp::Gt, Expr::constant(Value::Date(epoch))),
            ),
        ];
        let mut saved = Saved::default();
        for (what, left, right, pred) in cases {
            for halt in 0..=6 {
                differential(
                    &left,
                    &right,
                    &[],
                    std::slice::from_ref(&pred),
                    halt,
                    what,
                    &mut saved,
                );
            }
        }
    }

    /// Holds the bound skip to the sweep: every pair it skips is one
    /// full predicate evaluation rejects, so emissions and pull log are
    /// the sweep's, and the skip must have fired for the oracle to mean
    /// anything.
    #[test]
    fn joins_match_the_sweep_in_emissions_and_pull_log() {
        let mut rng = Rng::new(0x6a01_2008);
        let mut saved = Saved::default();
        for case in 0..400 {
            differential_case(&mut rng, case, &mut saved);
        }
        saved.check();
    }

    /// With every key image forced equal, every pair is a candidate:
    /// the result stays right only because each one is verified.
    #[test]
    fn colliding_key_images_are_caught_by_verification() {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                COLLIDE_ALL.set(false);
            }
        }
        let _reset = Reset;
        COLLIDE_ALL.set(true);
        let mut rng = Rng::new(0x5eed_c011);
        let mut saved = Saved::default();
        for case in 0..60 {
            differential_case(&mut rng, case, &mut saved);
        }
        saved.check();
    }

    /// A cross product (empty `on`) runs through the same cursors as a
    /// selective join, and what is pending never outgrows what arrived.
    #[test]
    fn pending_state_is_linear_in_the_arrivals() {
        let n = 2000;
        let items: Vec<(i64, i64)> = (0..n).map(|v| (v, v)).collect();
        let mut join = MsJoin::new(src(stream(0, 1, &items)), src(stream(3, 2, &items)), vec![]);
        for _ in 0..25 {
            join.next_binding().expect("4 000 000 pairs to go");
        }
        // the 25th answer is the fourth cell of diagonal 6: right[6] is
        // here (pulled at the head), left[6] is not (pulled at the tail)
        assert_eq!((join.buf[LEFT].len(), join.buf[RIGHT].len()), (6, 7));
        assert!(join.pending.len() <= 13, "{} cursors", join.pending.len());

        // and at every step of a full one-key drain
        let items: Vec<(i64, i64)> = (0..60).map(|v| (1, v)).collect();
        let mut join = MsJoin::new(
            src(stream(0, 1, &items)),
            src(stream(0, 2, &items)),
            vec![VarId(0)],
        );
        let mut emitted = 0;
        while join.next_binding().is_some() {
            emitted += 1;
            assert!(join.pending.len() <= join.buf[LEFT].len() + join.buf[RIGHT].len());
        }
        assert_eq!(emitted, 60 * 60);
    }
}
