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

use mdq_model::binding::SupplierMap;
use std::collections::HashSet;
use std::fmt;

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
        // connect every x ⪯ a to every y ⪰ b
        let n = self.n;
        let below_a: Vec<usize> = (0..n).filter(|&x| x == a || self.lt(x, a)).collect();
        let above_b: Vec<usize> = (0..n).filter(|&y| y == b || self.lt(b, y)).collect();
        for &x in &below_a {
            for &y in &above_b {
                if x == y {
                    return false; // cycle
                }
                self.rel[x * n + y] = true;
            }
        }
        true
    }

    /// Strict predecessors of `j`.
    pub fn predecessors(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&i| self.lt(i, j))
    }

    /// Minimal elements (no predecessors).
    pub fn minimal_elements(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&j| (0..self.n).all(|i| !self.lt(i, j)))
            .collect()
    }

    /// Maximal elements (no successors).
    pub fn maximal_elements(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&i| (0..self.n).all(|j| !self.lt(i, j)))
            .collect()
    }

    /// Covering pairs `(a, b)`: `a ≺ b` with no `c` strictly between —
    /// the Hasse-diagram arcs used when lowering to a dataflow DAG.
    pub fn covering_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for b in 0..self.n {
                if self.lt(a, b) && !(0..self.n).any(|c| self.lt(a, c) && self.lt(c, b)) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Covering (immediate) predecessors of `b`.
    pub fn covering_predecessors(&self, b: usize) -> Vec<usize> {
        (0..self.n)
            .filter(|&a| self.lt(a, b) && !(0..self.n).any(|c| self.lt(a, c) && self.lt(c, b)))
            .collect()
    }

    /// The level decomposition: level 0 = minimal elements; level `k` =
    /// atoms whose longest chain of predecessors has length `k`. This is
    /// the batch structure of the paper's incremental construction.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let mut level = vec![0usize; self.n];
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
        let max = level.iter().copied().max().unwrap_or(0);
        let mut out = vec![Vec::new(); if self.n == 0 { 0 } else { max + 1 }];
        for (i, &l) in level.iter().enumerate() {
            out[l].push(i);
        }
        out
    }

    /// One topological order (by level, then index).
    pub fn topological_order(&self) -> Vec<usize> {
        self.levels().into_iter().flatten().collect()
    }

    /// The subposet induced on `elems` (position `i` of the result is
    /// `elems[i]`). Transitive closure is preserved by restriction.
    pub fn restrict(&self, elems: &[usize]) -> Poset {
        let m = elems.len();
        let mut rel = vec![false; m * m];
        for (i, &a) in elems.iter().enumerate() {
            for (j, &b) in elems.iter().enumerate() {
                if self.lt(a, b) {
                    rel[i * m + j] = true;
                }
            }
        }
        Poset { n: m, rel }
    }

    /// Whether this poset extends `other` (contains all its relations).
    pub fn extends(&self, other: &Poset) -> bool {
        debug_assert_eq!(self.n, other.n);
        (0..self.n * self.n).all(|k| !other.rel[k] || self.rel[k])
    }

    /// Total number of `≺` pairs.
    pub fn relation_count(&self) -> usize {
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

/// Admit everything (used to enumerate the unconstrained poset space).
pub struct Unconstrained;

impl Admissibility for Unconstrained {
    fn placeable(&self, _b: usize, _preds: &HashSet<usize>) -> bool {
        true
    }
}

impl Admissibility for SupplierMap {
    fn placeable(&self, b: usize, preds: &HashSet<usize>) -> bool {
        self.covered_by(b, preds)
    }
}

/// A partially constructed topology handed to [`TopologyVisitor`] hooks.
#[derive(Clone, Debug)]
pub struct PartialTopology {
    /// Batches placed so far (each a parallel antichain).
    pub batches: Vec<Vec<usize>>,
    /// The relation among placed atoms (restricted to placed atoms; other
    /// rows/columns are empty).
    pub poset: Poset,
    /// Set of placed atoms.
    pub placed: HashSet<usize>,
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

    /// Called for each complete admissible topology.
    fn on_complete(&mut self, poset: &Poset);
}

/// Enumerates every admissible topology over `n` atoms exactly once.
///
/// See the module docs for the construction; completeness and
/// duplicate-freedom follow from batches being the level decomposition.
pub fn enumerate_topologies<A: Admissibility, V: TopologyVisitor>(
    n: usize,
    admissible: &A,
    visitor: &mut V,
) {
    let mut state = PartialTopology {
        batches: Vec::new(),
        poset: Poset::antichain(n),
        placed: HashSet::new(),
    };
    recurse(n, admissible, visitor, &mut state);
}

fn recurse<A: Admissibility, V: TopologyVisitor>(
    n: usize,
    admissible: &A,
    visitor: &mut V,
    state: &mut PartialTopology,
) {
    if state.placed.len() == n {
        visitor.on_complete(&state.poset);
        return;
    }
    let unplaced: Vec<usize> = (0..n).filter(|i| !state.placed.contains(i)).collect();
    let placed_vec: Vec<usize> = {
        let mut v: Vec<usize> = state.placed.iter().copied().collect();
        v.sort_unstable();
        v
    };
    let last_batch: Vec<usize> = state.batches.last().cloned().unwrap_or_default();

    // Candidate predecessor sets are downward-closed subsets of the placed
    // atoms, represented by their antichain of maximal elements. We
    // enumerate antichains of the placed subposet and close them downward.
    let antichains = enumerate_antichains(&placed_vec, &state.poset);

    // For each unplaced atom, the feasible predecessor assignments.
    let mut feasible: Vec<(usize, Vec<HashSet<usize>>)> = Vec::new();
    for &b in &unplaced {
        let mut opts = Vec::new();
        for ac in &antichains {
            let mut preds: HashSet<usize> = HashSet::new();
            for &a in ac {
                preds.insert(a);
                preds.extend(state.poset.predecessors(a));
            }
            // level-decomposition canonicality: must touch the previous batch
            if !state.batches.is_empty() && !last_batch.iter().any(|a| preds.contains(a)) {
                continue;
            }
            if admissible.placeable(b, &preds) {
                opts.push(preds);
            }
        }
        if !opts.is_empty() {
            feasible.push((b, opts));
        }
    }
    if feasible.is_empty() {
        return; // dead end: remaining atoms can never be placed
    }

    // Choose a non-empty subset of feasible atoms as the next batch, and
    // for each a predecessor assignment.
    let k = feasible.len();
    for mask in 1u64..(1 << k) {
        let members: Vec<usize> = (0..k).filter(|i| mask & (1 << i) != 0).collect();
        assign_preds(
            n,
            admissible,
            visitor,
            state,
            &feasible,
            &members,
            0,
            &mut Vec::new(),
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn assign_preds<A: Admissibility, V: TopologyVisitor>(
    n: usize,
    admissible: &A,
    visitor: &mut V,
    state: &mut PartialTopology,
    feasible: &[(usize, Vec<HashSet<usize>>)],
    members: &[usize],
    idx: usize,
    chosen: &mut Vec<usize>, // option index per member
) {
    if idx == members.len() {
        // materialise the batch
        let mut next = state.clone();
        let mut batch = Vec::with_capacity(members.len());
        for (slot, &m) in members.iter().enumerate() {
            let (b, opts) = &feasible[m];
            let preds = &opts[chosen[slot]];
            for &a in preds {
                let ok = next.poset.add_lt(a, *b);
                debug_assert!(ok, "placed atoms cannot form cycles");
            }
            next.placed.insert(*b);
            batch.push(*b);
        }
        batch.sort_unstable();
        next.batches.push(batch);
        if visitor.on_partial(&next) {
            recurse(n, admissible, visitor, &mut next);
        }
        return;
    }
    let (_, opts) = &feasible[members[idx]];
    for o in 0..opts.len() {
        chosen.push(o);
        assign_preds(
            n,
            admissible,
            visitor,
            state,
            feasible,
            members,
            idx + 1,
            chosen,
        );
        chosen.pop();
    }
}

/// All antichains (including the empty one) of the subposet induced on
/// `elems`.
fn enumerate_antichains(elems: &[usize], poset: &Poset) -> Vec<Vec<usize>> {
    let m = elems.len();
    let mut out = Vec::new();
    'mask: for mask in 0u64..(1 << m) {
        let set: Vec<usize> = (0..m)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| elems[i])
            .collect();
        for i in 0..set.len() {
            for j in i + 1..set.len() {
                if !poset.incomparable(set[i], set[j]) {
                    continue 'mask;
                }
            }
        }
        out.push(set);
    }
    out
}

/// Collects all admissible topologies into a vector (convenience wrapper
/// for tests and exhaustive optimization).
pub fn all_topologies<A: Admissibility>(n: usize, admissible: &A) -> Vec<Poset> {
    struct Collect(Vec<Poset>);
    impl TopologyVisitor for Collect {
        fn on_complete(&mut self, poset: &Poset) {
            self.0.push(poset.clone());
        }
    }
    let mut c = Collect(Vec::new());
    enumerate_topologies(n, admissible, &mut c);
    c.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poset_basics() {
        let mut p = Poset::antichain(4);
        assert!(p.add_lt(0, 1));
        assert!(p.add_lt(1, 2));
        assert!(p.lt(0, 2), "transitive closure");
        assert!(!p.add_lt(2, 0), "cycle rejected");
        assert!(p.incomparable(0, 3));
        assert_eq!(p.minimal_elements(), vec![0, 3]);
        assert_eq!(p.maximal_elements(), vec![2, 3]);
        assert!(p.check_invariants());
        assert_eq!(p.covering_pairs(), vec![(0, 1), (1, 2)]);
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
            assert_eq!(p.minimal_elements(), vec![0], "conf always first");
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
            fn on_complete(&mut self, _poset: &Poset) {
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
        let want = all
            .iter()
            .filter(|p| !p.minimal_elements().contains(&0))
            .count();
        assert_eq!(v.complete, want);
        assert!(want < 19);
    }

    #[test]
    fn level_batches_require_previous_batch_link() {
        // For a V: 0 ≺ 2, 1 ≺ 2 — levels are {0,1} then {2}
        let p = Poset::from_pairs(3, &[(0, 2), (1, 2)]).expect("builds");
        assert_eq!(p.levels(), vec![vec![0, 1], vec![2]]);
        assert_eq!(p.covering_predecessors(2), vec![0, 1]);
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
        assert_eq!(single.minimal_elements(), vec![0]);
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
