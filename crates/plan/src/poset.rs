//! Plan topologies as partial orders over query atoms (§4.2.2).
//!
//! A plan topology fixes "the order of execution of the query over the
//! services as well as the position … of joins": atoms ordered in the
//! relation execute in sequence (pipe joins), incomparable atoms execute
//! in parallel (merged by parallel joins). Example 5.1 counts **19**
//! alternative plans for three mutually unconstrained atoms following
//! `conf` — exactly the number of partial orders on a 3-element set
//! (6 linear "permutations" + 13 "parallelization options"), which pins
//! down the plan space as the set of partial orders extending the
//! mandatory access-pattern precedences.
//!
//! Enumeration follows the paper's incremental construction: place a
//! *batch* of parallel atoms at a time; every atom of batch `i+1` must
//! have a predecessor in batch `i` (so batches are exactly the level
//! decomposition of the resulting poset, making the enumeration
//! duplicate-free), and every atom's input variables must be covered by
//! its predecessors (callability, Def. 3.1).
//!
//! The enumeration extends one [`PartialTopology`] in place and undoes
//! each batch after its subtree: atom sets are `u64` bit sets, which is
//! why it handles at most [`MAX_ATOMS`] atoms.
//!
//! **Place and undo carry the priced prefix.** Each placement hands the
//! visitor the partial topology one batch deeper than its parent, and
//! each undo returns to the parent, so consecutive partials differ by
//! the batches placed or undone in between. The optimizer lowers and
//! prices along the same stack ([`crate::builder::lower_onto`]): a
//! partial is priced by popping back to what it shares with the one
//! priced before and lowering only its new batch, and a complete
//! topology is the partial just placed.

use mdq_model::binding::SupplierMap;
use std::collections::HashSet;
use std::fmt;

/// The widest body [`enumerate_topologies`] accepts. Placed atoms,
/// antichains and batches are bit sets in one `u64`, and a batch is
/// chosen by counting to `1 << k` over `k` feasible atoms — which must
/// not reach 64.
pub const MAX_ATOMS: usize = 63;

/// Bit `i` of an atom bit set.
#[inline]
pub(crate) fn bit(i: usize) -> u64 {
    1u64 << i
}

/// The members of bit set `set`, ascending.
pub(crate) fn members(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (set != 0).then(|| {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            i
        })
    })
}

/// A strict partial order over `n` elements, stored transitively closed.
///
/// `lt(i, j)` means atom `i` precedes atom `j` (the paper's `i ≺ j`).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Poset {
    n: usize,
    /// Row-major incidence: `rel[i * n + j]` ⇔ `i ≺ j`. Invariant:
    /// irreflexive, antisymmetric, transitively closed.
    rel: Vec<bool>,
}

impl Poset {
    /// The antichain (no relations) over `n` elements.
    pub fn antichain(n: usize) -> Self {
        Poset {
            n,
            rel: vec![false; n * n],
        }
    }

    /// Builds a poset from explicit precedence pairs, closing
    /// transitively. Returns `None` if a cycle results.
    pub fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> Option<Self> {
        let mut p = Poset::antichain(n);
        for &(a, b) in pairs {
            if !p.add_lt(a, b) {
                return None;
            }
        }
        Some(p)
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the poset has no elements.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `i ≺ j`?
    #[inline]
    pub fn lt(&self, i: usize, j: usize) -> bool {
        self.rel[i * self.n + j]
    }

    /// Neither `i ≺ j` nor `j ≺ i` (parallel atoms).
    #[inline]
    pub fn incomparable(&self, i: usize, j: usize) -> bool {
        i != j && !self.lt(i, j) && !self.lt(j, i)
    }

    /// Adds `a ≺ b` and re-closes transitively. Returns `false` (leaving
    /// the poset possibly extended) when this would create a cycle.
    pub fn add_lt(&mut self, a: usize, b: usize) -> bool {
        if a == b || self.lt(b, a) {
            return false;
        }
        if self.lt(a, b) {
            return true;
        }
        // connect every x ⪯ a to every y ⪰ b; no write changes which x
        // are ⪯ a or which y are ⪰ b (that would take b ⪯ a, refused
        // above), so the sets can be read while writing
        let n = self.n;
        for x in 0..n {
            if x != a && !self.lt(x, a) {
                continue;
            }
            for y in 0..n {
                if y == b || self.lt(b, y) {
                    self.rel[x * n + y] = true;
                }
            }
        }
        true
    }

    /// Strict predecessors of `j`.
    fn predecessors(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&i| self.lt(i, j))
    }

    /// Maximal elements (no successors), ascending.
    pub(crate) fn maximal(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&i| (0..self.n).all(|j| !self.lt(i, j)))
    }

    /// Covering (immediate) predecessors of `b`, ascending: `a ≺ b` with
    /// no `c` strictly between — the Hasse-diagram arcs used when
    /// lowering to a dataflow DAG.
    pub(crate) fn covering(&self, b: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n)
            .filter(move |&a| self.lt(a, b) && !(0..self.n).any(|c| self.lt(a, c) && self.lt(c, b)))
    }

    /// The level decomposition: level 0 = minimal elements; level `k` =
    /// atoms whose longest chain of predecessors has length `k`. This is
    /// the batch structure of the paper's incremental construction.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let mut level = Vec::new();
        self.level_numbers(&mut level);
        let max = level.iter().copied().max().unwrap_or(0);
        let mut out = vec![Vec::new(); if self.n == 0 { 0 } else { max + 1 }];
        for (i, &l) in level.iter().enumerate() {
            out[l].push(i);
        }
        out
    }

    /// Writes every element's level (see [`Poset::levels`]) into `level`.
    fn level_numbers(&self, level: &mut Vec<usize>) {
        level.clear();
        level.resize(self.n, 0);
        // relation is transitively closed, so longest-chain level can be
        // computed by repeated relaxation (n passes suffice)
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..self.n {
                for a in 0..self.n {
                    if self.lt(a, b) && level[b] < level[a] + 1 {
                        level[b] = level[a] + 1;
                        changed = true;
                    }
                }
            }
        }
    }

    /// One topological order (by level, then index).
    pub fn topological_order(&self) -> Vec<usize> {
        let mut order = Vec::new();
        self.topological_order_into(&mut Vec::new(), &mut order);
        order
    }

    /// [`Poset::topological_order`] written into `order`, with `level`
    /// as scratch: the form lowering reuses across plans.
    pub(crate) fn topological_order_into(&self, level: &mut Vec<usize>, order: &mut Vec<usize>) {
        self.level_numbers(level);
        order.clear();
        order.extend(0..self.n);
        // (level, index) keys are distinct, so the unstable sort is exact
        order.sort_unstable_by_key(|&i| (level[i], i));
    }

    /// The subposet induced on `elems` (position `i` of the result is
    /// `elems[i]`). Transitive closure is preserved by restriction.
    pub fn restrict(&self, elems: &[usize]) -> Poset {
        let mut out = Poset::antichain(0);
        self.restrict_into(elems, &mut out);
        out
    }

    /// [`Poset::restrict`] written into `out`, reusing its storage.
    pub(crate) fn restrict_into(&self, elems: &[usize], out: &mut Poset) {
        let m = elems.len();
        out.n = m;
        out.rel.clear();
        out.rel.resize(m * m, false);
        for (i, &a) in elems.iter().enumerate() {
            for (j, &b) in elems.iter().enumerate() {
                if self.lt(a, b) {
                    out.rel[i * m + j] = true;
                }
            }
        }
    }

    /// Whether this poset extends `other` (contains all its relations).
    pub fn extends(&self, other: &Poset) -> bool {
        debug_assert_eq!(self.n, other.n);
        (0..self.n * self.n).all(|k| !other.rel[k] || self.rel[k])
    }

    /// Total number of `≺` pairs.
    fn relation_count(&self) -> usize {
        self.rel.iter().filter(|&&b| b).count()
    }

    /// Whether the relation is a total (linear) order.
    pub fn is_chain(&self) -> bool {
        self.relation_count() == self.n * (self.n - 1) / 2
    }

    /// Internal consistency check: irreflexive, antisymmetric, closed.
    /// Used by tests and `debug_assert`s.
    pub fn check_invariants(&self) -> bool {
        let n = self.n;
        for i in 0..n {
            if self.lt(i, i) {
                return false;
            }
            for j in 0..n {
                if self.lt(i, j) && self.lt(j, i) {
                    return false;
                }
                for k in 0..n {
                    if self.lt(i, j) && self.lt(j, k) && !self.lt(i, k) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for Poset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let levels = self.levels();
        for (i, level) in levels.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{{")?;
            for (k, a) in level.iter().enumerate() {
                if k > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{a}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// Admissibility context for topology enumeration: which atoms may be
/// placed given a set of predecessors.
pub trait Admissibility {
    /// May atom `b` execute with exactly `preds` as its strict
    /// predecessors? (For queries: are all its input variables covered by
    /// suppliers in `preds`?)
    fn placeable(&self, b: usize, preds: &HashSet<usize>) -> bool;
}

impl Admissibility for SupplierMap {
    fn placeable(&self, b: usize, preds: &HashSet<usize>) -> bool {
        self.covered_by(b, preds)
    }
}

/// A partially constructed topology handed to [`TopologyVisitor`] hooks.
///
/// Its batches are the level decomposition of `poset` restricted to the
/// placed atoms: every atom of batch `i + 1` has a predecessor in batch
/// `i`.
#[derive(Clone, Debug)]
pub struct PartialTopology {
    /// Batches placed so far (each a parallel antichain, ascending).
    pub batches: Vec<Vec<usize>>,
    /// The relation among placed atoms (restricted to placed atoms; other
    /// rows/columns are empty).
    pub poset: Poset,
    /// The placed atoms as a bit set: bit `i` is set when atom `i` is.
    pub placed: u64,
    /// Strict predecessors of each placed atom as a bit set (0 for an
    /// atom not placed): column `b` of `poset`.
    pub preds: Vec<u64>,
}

impl PartialTopology {
    /// The placed atoms, ascending.
    pub fn placed_atoms(&self) -> impl Iterator<Item = usize> {
        members(self.placed)
    }

    /// A complete topology as placed batches: its level decomposition.
    ///
    /// # Panics
    ///
    /// When `poset` has more than [`MAX_ATOMS`] elements.
    pub fn of(poset: &Poset) -> Self {
        let mut topology = PartialTopology {
            batches: Vec::new(),
            poset: Poset::antichain(0),
            placed: 0,
            preds: Vec::new(),
        };
        topology.set_complete(poset);
        topology
    }

    /// Makes this the complete topology `poset` ([`PartialTopology::of`]),
    /// reusing its buffers.
    ///
    /// # Panics
    ///
    /// When `poset` has more than [`MAX_ATOMS`] elements.
    pub fn set_complete(&mut self, poset: &Poset) {
        let n = poset.len();
        assert!(n <= MAX_ATOMS, "{n} atoms exceed MAX_ATOMS = {MAX_ATOMS}");
        self.poset.clone_from(poset);
        self.preds.clear();
        self.preds
            .extend((0..n).map(|b| poset.predecessors(b).fold(0, |set, a| set | bit(a))));
        // peel the minimal elements of what is left: level by level
        let (mut done, mut depth) = (0u64, 0);
        while done.count_ones() as usize != n {
            let level = (0..n)
                .filter(|&b| done & bit(b) == 0 && self.preds[b] & !done == 0)
                .fold(0, |set, b| set | bit(b));
            assert_ne!(
                level, 0,
                "what is left of an acyclic poset has a minimal element"
            );
            if self.batches.len() == depth {
                self.batches.push(Vec::new());
            }
            self.batches[depth].clear();
            self.batches[depth].extend(members(level));
            done |= level;
            depth += 1;
        }
        self.batches.truncate(depth);
        self.placed = done;
    }
}

/// Visitor driving / observing the enumeration; `on_partial` may prune.
pub trait TopologyVisitor {
    /// Called after each batch placement. Return `false` to prune every
    /// completion of this partial topology (the branch-and-bound hook:
    /// by metric monotonicity the partial plan's cost lower-bounds all
    /// completions).
    fn on_partial(&mut self, _state: &PartialTopology) -> bool {
        true
    }

    /// Called for each complete admissible topology: `state` places
    /// every atom, and its `poset` is the topology.
    fn on_complete(&mut self, state: &PartialTopology);
}

/// Enumerates every admissible topology over `n` atoms exactly once.
///
/// See the module docs for the construction; completeness and
/// duplicate-freedom follow from batches being the level decomposition.
///
/// # Panics
///
/// When `n` exceeds [`MAX_ATOMS`]. The optimizer refuses such queries
/// with a typed error before it enumerates.
pub fn enumerate_topologies<A: Admissibility, V: TopologyVisitor>(
    n: usize,
    admissible: &A,
    visitor: &mut V,
) {
    assert!(
        n <= MAX_ATOMS,
        "topology enumeration keeps atom sets in a u64: {n} atoms exceed MAX_ATOMS = {MAX_ATOMS}"
    );
    Enumeration {
        n,
        admissible,
        visitor,
        state: PartialTopology {
            batches: Vec::new(),
            poset: Poset::antichain(n),
            placed: 0,
            preds: vec![0; n],
        },
        closures: Vec::new(),
        feasible: Vec::new(),
        options: Vec::new(),
        chosen: Vec::new(),
        preds_set: HashSet::new(),
        spare: Vec::new(),
    }
    .recurse();
}

/// One enumeration: the partial topology it extends in place and undoes
/// after each batch's subtree, and stacks the open levels share (a level
/// appends its entries and truncates them when it returns), so once the
/// stacks have grown nothing is allocated per batch.
struct Enumeration<'a, A, V> {
    n: usize,
    admissible: &'a A,
    visitor: &'a mut V,
    state: PartialTopology,
    /// Per open level: the candidate predecessor sets — downward
    /// closures of the placed subposet's antichains, canonical ones only.
    closures: Vec<u64>,
    /// Per open level: each atom with a feasible predecessor set, and the
    /// range of `options` holding those sets.
    feasible: Vec<(usize, usize, usize)>,
    /// Feasible predecessor sets, stacked per level.
    options: Vec<u64>,
    /// The `options` index chosen for each member of the batch being
    /// assembled.
    chosen: Vec<usize>,
    /// The predecessor set of one `placeable` query, in the form the
    /// trait takes.
    preds_set: HashSet<usize>,
    /// Batch vectors of undone batches, reused by the next ones.
    spare: Vec<Vec<usize>>,
}

impl<A: Admissibility, V: TopologyVisitor> Enumeration<'_, A, V> {
    fn recurse(&mut self) {
        let placed = self.state.placed;
        if placed.count_ones() as usize == self.n {
            self.visitor.on_complete(&self.state);
            return;
        }
        let (closures0, feasible0, options0) =
            (self.closures.len(), self.feasible.len(), self.options.len());

        // Candidate predecessor sets are downward-closed subsets of the
        // placed atoms, represented by their antichain of maximal
        // elements: walk the antichains (the subsets of `placed` in
        // increasing order, the empty one first) and close them downward.
        // Level-decomposition canonicality: after the first batch, a set
        // must touch the previous batch.
        let last = self
            .state
            .batches
            .last()
            .map_or(0, |batch| batch.iter().fold(0, |set, &a| set | bit(a)));
        let mut antichain = 0u64;
        loop {
            let preds = &self.state.preds;
            if members(antichain).all(|a| preds[a] & antichain == 0) {
                let closure = members(antichain).fold(antichain, |set, a| set | preds[a]);
                if self.state.batches.is_empty() || closure & last != 0 {
                    self.closures.push(closure);
                }
            }
            if antichain == placed {
                break;
            }
            antichain = antichain.wrapping_sub(placed) & placed;
        }

        // For each unplaced atom, the feasible predecessor sets.
        for b in (0..self.n).filter(|&b| placed & bit(b) == 0) {
            let start = self.options.len();
            for i in closures0..self.closures.len() {
                let closure = self.closures[i];
                self.preds_set.clear();
                self.preds_set.extend(members(closure));
                if self.admissible.placeable(b, &self.preds_set) {
                    self.options.push(closure);
                }
            }
            if self.options.len() > start {
                self.feasible.push((b, start, self.options.len()));
            }
        }

        // Choose a non-empty subset of the feasible atoms as the next
        // batch, and for each member a predecessor set. (None feasible:
        // a dead end, the remaining atoms can never be placed.)
        let k = self.feasible.len() - feasible0;
        for batch in 1u64..(1 << k) {
            self.assign(feasible0, batch, batch);
        }
        self.closures.truncate(closures0);
        self.feasible.truncate(feasible0);
        self.options.truncate(options0);
    }

    /// Gives each member of `rest` (feasible entries counted from
    /// `base`, lowest first) each of its predecessor sets in turn, then
    /// places `batch`.
    fn assign(&mut self, base: usize, batch: u64, rest: u64) {
        if rest == 0 {
            self.place(base, batch);
            return;
        }
        let (_, start, end) = self.feasible[base + rest.trailing_zeros() as usize];
        for option in start..end {
            self.chosen.push(option);
            self.assign(base, batch, rest & (rest - 1));
            self.chosen.pop();
        }
    }

    /// Places `batch` with the predecessor sets just chosen, visits the
    /// result, and undoes it.
    fn place(&mut self, base: usize, batch: u64) {
        let n = self.n;
        let first = self.chosen.len() - batch.count_ones() as usize;
        let mut atoms = self.spare.pop().unwrap_or_default();
        atoms.clear();
        for (member, &option) in members(batch).zip(&self.chosen[first..]) {
            let b = self.feasible[base + member].0;
            let closure = self.options[option];
            // `closure` is downward closed and `b` has no successors, so
            // this is the transitive closure of adding a ≺ b for each a
            for a in members(closure) {
                self.state.poset.rel[a * n + b] = true;
            }
            self.state.preds[b] = closure;
            atoms.push(b);
        }
        let placed = atoms.iter().fold(0, |set, &b| set | bit(b));
        self.state.placed |= placed;
        self.state.batches.push(atoms);
        if self.visitor.on_partial(&self.state) {
            self.recurse();
        }
        // undo: the batch's atoms had no relations before it was placed,
        // and deeper levels have undone theirs
        self.state.placed &= !placed;
        if let Some(atoms) = self.state.batches.pop() {
            for &b in &atoms {
                for a in 0..n {
                    self.state.poset.rel[a * n + b] = false;
                }
                self.state.preds[b] = 0;
            }
            self.spare.push(atoms);
        }
    }
}

/// Collects all admissible topologies into a vector (convenience wrapper
/// for tests and exhaustive optimization).
pub fn all_topologies<A: Admissibility>(n: usize, admissible: &A) -> Vec<Poset> {
    struct Collect(Vec<Poset>);
    impl TopologyVisitor for Collect {
        fn on_complete(&mut self, state: &PartialTopology) {
            self.0.push(state.poset.clone());
        }
    }
    let mut c = Collect(Vec::new());
    enumerate_topologies(n, admissible, &mut c);
    c.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admit everything (used to enumerate the unconstrained poset space).
    struct Unconstrained;

    impl Admissibility for Unconstrained {
        fn placeable(&self, _b: usize, _preds: &HashSet<usize>) -> bool {
            true
        }
    }

    #[test]
    fn poset_basics() {
        let mut p = Poset::antichain(4);
        assert!(p.add_lt(0, 1));
        assert!(p.add_lt(1, 2));
        assert!(p.lt(0, 2), "transitive closure");
        assert!(!p.add_lt(2, 0), "cycle rejected");
        assert!(p.incomparable(0, 3));
        assert_eq!(p.maximal().collect::<Vec<_>>(), vec![2, 3]);
        assert!(p.check_invariants());
        let covering: Vec<_> = (0..4)
            .flat_map(|b| p.covering(b).map(move |a| (a, b)))
            .collect();
        assert_eq!(covering, vec![(0, 1), (1, 2)]);
        assert_eq!(p.levels(), vec![vec![0, 3], vec![1], vec![2]]);
    }

    #[test]
    fn from_pairs_detects_cycles() {
        assert!(Poset::from_pairs(3, &[(0, 1), (1, 2)]).is_some());
        assert!(Poset::from_pairs(3, &[(0, 1), (1, 2), (2, 0)]).is_none());
        let p = Poset::from_pairs(2, &[(0, 1), (0, 1)]).expect("idempotent");
        assert!(p.lt(0, 1));
    }

    /// Number of partial orders on n labeled elements (OEIS A001035):
    /// 1, 1, 3, 19, 219, 4231.
    #[test]
    fn unconstrained_counts_match_oeis_a001035() {
        for (n, want) in [(0usize, 1usize), (1, 1), (2, 3), (3, 19), (4, 219)] {
            let all = all_topologies(n, &Unconstrained);
            assert_eq!(all.len(), want, "posets on {n} elements");
            // no duplicates
            let set: HashSet<&Poset> = all.iter().collect();
            assert_eq!(set.len(), want, "duplicate posets generated for n={n}");
            for p in &all {
                assert!(p.check_invariants());
            }
        }
    }

    #[test]
    fn example_51_nineteen_plans() {
        // Example 5.1: conf (atom 0) precedes everything; weather, flight,
        // hotel (atoms 1–3) unconstrained among themselves: 19 plans, of
        // which 6 are serial permutations.
        struct ConfFirst;
        impl Admissibility for ConfFirst {
            fn placeable(&self, b: usize, preds: &HashSet<usize>) -> bool {
                b == 0 || preds.contains(&0)
            }
        }
        let all = all_topologies(4, &ConfFirst);
        assert_eq!(all.len(), 19);
        let chains = all.iter().filter(|p| p.is_chain()).count();
        assert_eq!(chains, 6, "6 serial permutations");
        for p in &all {
            assert_eq!(p.levels()[0], vec![0], "conf always first");
        }
    }

    #[test]
    fn pruning_partial_topologies() {
        // Pruning every partial that places atom 2 before atom 1 must
        // remove exactly the completions with 2 ≺ 1 or 2 ∥ earlier-batch …
        // here we simply check the visitor hook reduces the count.
        struct PruneSome {
            complete: usize,
        }
        impl TopologyVisitor for PruneSome {
            fn on_partial(&mut self, state: &PartialTopology) -> bool {
                // prune any branch whose first batch contains atom 0
                !(state.batches.len() == 1 && state.batches[0].contains(&0))
            }
            fn on_complete(&mut self, _state: &PartialTopology) {
                self.complete += 1;
            }
        }
        let mut v = PruneSome { complete: 0 };
        enumerate_topologies(3, &Unconstrained, &mut v);
        // Of the 19 posets on 3 elements, those whose minimal set contains
        // atom 0 are pruned. Minimal sets not containing 0: count posets
        // where 0 is NOT minimal. By symmetry over labels: posets where a
        // fixed element is non-minimal = 19 - (posets where it is minimal).
        // Directly: enumerate and count.
        let all = all_topologies(3, &Unconstrained);
        let want = all.iter().filter(|p| !p.levels()[0].contains(&0)).count();
        assert_eq!(v.complete, want);
        assert!(want < 19);
    }

    /// 64 atoms do not fit the enumeration's bit sets: refused loudly,
    /// not enumerated as nothing.
    #[test]
    #[should_panic(expected = "exceed MAX_ATOMS")]
    fn enumeration_refuses_more_than_max_atoms() {
        all_topologies(MAX_ATOMS + 1, &Unconstrained);
    }

    #[test]
    fn level_batches_require_previous_batch_link() {
        // For a V: 0 ≺ 2, 1 ≺ 2 — levels are {0,1} then {2}
        let p = Poset::from_pairs(3, &[(0, 2), (1, 2)]).expect("builds");
        assert_eq!(p.levels(), vec![vec![0, 1], vec![2]]);
        assert_eq!(p.covering(2).collect::<Vec<_>>(), vec![0, 1]);
    }

    /// A complete topology's batches are its levels, and its
    /// predecessor sets its columns — however the buffers held another
    /// topology before.
    #[test]
    fn complete_topologies_place_their_levels() {
        let chain = Poset::from_pairs(4, &[(2, 0), (0, 3), (3, 1)]).expect("builds");
        let vee = Poset::from_pairs(4, &[(0, 2), (1, 2), (1, 3)]).expect("builds");
        let mut reused = PartialTopology::of(&chain);
        assert_eq!(reused.batches, chain.levels());
        for poset in [&vee, &chain, &Poset::antichain(3)] {
            reused.set_complete(poset);
            let fresh = PartialTopology::of(poset);
            assert_eq!(reused.batches, poset.levels());
            assert_eq!(reused.batches, fresh.batches);
            assert_eq!(reused.poset, *poset);
            assert_eq!(reused.placed, (1 << poset.len()) - 1);
            for b in 0..poset.len() {
                let preds = poset.predecessors(b).fold(0, |set, a| set | bit(a));
                assert_eq!(reused.preds[b], preds);
            }
        }
    }

    #[test]
    fn display_shows_levels() {
        let p = Poset::from_pairs(3, &[(0, 1), (0, 2)]).expect("builds");
        assert_eq!(format!("{p}"), "{0} → {1,2}");
    }

    #[test]
    fn extends_checks_containment() {
        let base = Poset::from_pairs(3, &[(0, 1)]).expect("builds");
        let bigger = Poset::from_pairs(3, &[(0, 1), (1, 2)]).expect("builds");
        assert!(bigger.extends(&base));
        assert!(!base.extends(&bigger));
    }

    #[test]
    fn restrict_preserves_relations_and_closure() {
        // 0 ≺ 1 ≺ 2, 3 isolated
        let p = Poset::from_pairs(4, &[(0, 1), (1, 2)]).expect("builds");
        // keep {0, 2, 3} → positions 0,1,2: 0 ≺ 2 survives as 0 ≺ 1
        let r = p.restrict(&[0, 2, 3]);
        assert_eq!(r.len(), 3);
        assert!(r.lt(0, 1), "transitive pair survives restriction");
        assert!(r.incomparable(0, 2));
        assert!(r.incomparable(1, 2));
        assert!(r.check_invariants());
        // empty and singleton restrictions
        assert_eq!(p.restrict(&[]).len(), 0);
        let single = p.restrict(&[1]);
        assert_eq!(single.levels(), vec![vec![0]]);
    }

    #[test]
    fn restrict_reorders_positions() {
        let p = Poset::from_pairs(3, &[(0, 2)]).expect("builds");
        // positions swapped: elems[0] = 2, elems[1] = 0
        let r = p.restrict(&[2, 0]);
        assert!(r.lt(1, 0), "relation follows the new positions");
        assert!(!r.lt(0, 1));
    }
}
