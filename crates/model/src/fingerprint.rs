//! Template normalization and query fingerprints.
//!
//! §2.2 observes that "optimization is performed for each query
//! template": queries submitted by different users through the same form
//! differ only in variable spelling and predicate order, and a serving
//! layer (following Roy et al.'s multi-query optimization line) wants to
//! recognise them as one template so the branch-and-bound optimizer runs
//! once per shape, not once per submission.
//!
//! [`fingerprint`] maps a [`ConjunctiveQuery`] to a 64-bit
//! [`QueryFingerprint`] of its *canonical form* ([`canonical_text`]):
//!
//! * **alpha-renaming invariant** — variables are renumbered by first
//!   occurrence in a canonical atom order, so `q(X) :- s('k', X)` and
//!   `q(Foo) :- s('k', Foo)` collide;
//! * **predicate-order invariant** — selection predicates are rendered
//!   and sorted, so swapping `T >= 28, P < 2000` collides with the
//!   reverse order;
//! * **constants and shape preserved** — a different constant, service,
//!   arity, head ordering or predicate operator yields a different
//!   canonical form. Two queries with equal fingerprints are (up to hash
//!   collision on the 64-bit digest) the same query up to renaming, so a
//!   plan optimized for one is valid for the other.
//!
//! The plan cache of `mdq-runtime` keys on this fingerprint (plus `k`).
//!
//! **Why equal canonical texts mean equal queries.** The text reads back
//! one way only. It is the atoms `a<service>(<term>,…);` in canonical
//! order, the predicates `<expr><op><expr>[@σ];` sorted, then
//! `h:<term>,…`. A term is a canonical variable `?<n>` or a constant; an
//! expression other than a term is parenthesized. A string constant is
//! written between single quotes with every `\` and `'` inside it
//! escaped by a `\`, so the first unescaped quote closes it and no
//! string can spell out the punctuation around it — before this
//! escaping, `Conf = "c';?3='x"` rendered exactly as the two predicates
//! `Conf = 'c', City = 'x'`, and the plan cache ran one query for the
//! other. A date is quoted too, around digits, `-` and `/` only, and no
//! other constant renders a quote, `,`, `;`, `(` or `)`. So reading a
//! canonical text back yields the atom list, the
//! predicate multiset and the head, variables named by their canonical
//! numbers: equal texts are equal queries up to variable renaming and
//! the listing order of predicates (and of atoms whose sort keys tie).
//! Two kinds of constant still render alike, and only these: an
//! integral float and the equal integer (`28.0` and `28` both render
//! `28`) — they compare equal, but a service takes them as different
//! input keys, and integer arithmetic overflows where float arithmetic
//! does not — and a string constant spelled like a date, which the
//! parser never produces (a date-shaped literal is a date). Telling the
//! first pair apart changes the fingerprint of every query with an
//! integral float constant, so it waits for the next change of key: a
//! shape key that lifts constants out must keep their kinds.
//!
//! **What the writer borrows.** One canonical writer renders a query
//! into any [`fmt::Write`] sink, reading the query in place:
//! [`canonical_text`] gives it a `String`, [`fingerprint`] an FNV-1a
//! hasher that digests the bytes as they are written — so the
//! fingerprint is FNV-1a over exactly [`canonical_text`], and no text
//! is held — and the subplan functions share its term, expression and
//! predicate rendering. Its allocations are the table of canonical
//! variable numbers and one scratch buffer, where the atoms' sort keys
//! and then the predicates are rendered to be sorted. For a query whose
//! string constants hold no `'` or `\` the bytes are those the earlier
//! string-per-part renderer produced, so its fingerprint is unchanged.
//!
//! Known limitation (safe direction): atoms whose name-independent sort
//! keys tie — e.g. a self-join invoking one service twice with the same
//! constant/variable pattern — keep their submission order, so listing
//! such atoms in a different order can produce a *different* fingerprint
//! for a semantically identical query. That only costs a spurious
//! plan-cache miss (the optimizer reruns); equal fingerprints still
//! always mean equal templates.

use crate::query::{Atom, ConjunctiveQuery, Expr, Predicate, Term, VarId};
use crate::value::Value;
use std::fmt;

/// A 64-bit digest of a query's canonical form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u64);

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A 64-bit digest of the canonical form of an *invoke prefix* — the
/// serial chain of service invocations a plan executes before its first
/// parallel split. Two prefixes with equal signatures perform exactly
/// the same work (same services in the same execution order, same
/// access patterns, same fetch factors, same constants, same predicates
/// applied along the way) even when they come from *different* query
/// templates, so the bindings the first one materializes can be
/// replayed to the second — the unit of cross-query multi-query
/// optimization (Roy et al.).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubplanSignature(pub u64);

impl fmt::Display for SubplanSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One invocation step of a subplan prefix, in execution order.
#[derive(Clone, Debug)]
pub struct PrefixStep {
    /// Index of the invoked atom in `query.atoms`.
    pub atom: usize,
    /// Chosen access-pattern index for that atom.
    pub pattern: usize,
    /// Phase-3 fetch factor (pages per input; 1 for bulk services).
    pub fetch: u64,
    /// Indices of the query predicates applied right after this
    /// invocation (the first node where all their variables are bound).
    pub preds: Vec<usize>,
}

/// A subplan signature plus the replay mapping that goes with it.
#[derive(Clone, Debug)]
pub struct SubplanSig {
    /// The order- and renaming-invariant digest.
    pub signature: SubplanSignature,
    /// This query's variables in canonical first-occurrence order:
    /// position `i` holds the variable the canonical form calls `?i`.
    /// Two prefixes with equal signatures have `vars` of equal length,
    /// and position-wise corresponding variables carry the same values
    /// — materialized rows stored in canonical order replay into any
    /// subscriber through its own `vars`.
    pub vars: Vec<VarId>,
}

/// Signs the invoke prefix described by `steps` over `query`.
///
/// The canonical form is invariant under alpha-renaming and under the
/// order atoms/predicates are *listed* in the source query (the steps
/// themselves arrive in execution order, which is part of the work and
/// therefore part of the signature). Service identity, access pattern,
/// fetch factor, arity, constants and predicate operators are all
/// preserved; the query head is deliberately excluded — a prefix's
/// downstream is open.
pub fn subplan_signature(query: &ConjunctiveQuery, steps: &[PrefixStep]) -> SubplanSig {
    let mut digest = Fnv1a(FNV1A_OFFSET);
    let vars = write_subplan(query, steps, &mut digest).expect(INFALLIBLE);
    SubplanSig {
        signature: SubplanSignature(digest.0),
        vars,
    }
}

/// Fingerprints `query`: FNV-1a over [`canonical_text`], digested as
/// the canonical writer produces it.
pub fn fingerprint(query: &ConjunctiveQuery) -> QueryFingerprint {
    let mut digest = Fnv1a(FNV1A_OFFSET);
    write_canonical(query, &mut digest).expect(INFALLIBLE);
    QueryFingerprint(digest.0)
}

/// The canonical rendering the fingerprint hashes: atoms in a
/// name-independent order with variables renumbered by first occurrence,
/// then sorted predicates, then the head positions.
///
/// The query *name* is deliberately excluded — `q(...)` and `q2(...)`
/// with identical bodies are the same template.
pub fn canonical_text(query: &ConjunctiveQuery) -> String {
    let mut text = String::new();
    write_canonical(query, &mut text).expect(INFALLIBLE);
    text
}

/// Both sinks the writer is given — a `String` and [`Fnv1a`] — accept
/// every write.
const INFALLIBLE: &str = "canonical sinks accept every write";

/// The canonical number of a variable outside every atom (a query that
/// failed validation): what the renderer prints for it.
const UNNUMBERED: usize = usize::MAX;

/// FNV-1a as a sink: digests each write, holds no text.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_append(self.0, s.as_bytes());
        Ok(())
    }
}

/// The writer's working state: canonical numbers by variable id, and
/// the scratch buffer items are rendered into to be sorted.
struct Canon {
    numbers: Vec<usize>,
    /// Rendered items, back to back.
    text: String,
    /// Per item: its byte range in `text` and its index.
    items: Vec<(usize, usize, usize)>,
}

impl Canon {
    /// Unnumbered variables, room for `items` items.
    fn new(query: &ConjunctiveQuery, items: usize) -> Self {
        // a query built by hand may use ids past its interned names
        let slots = query
            .atoms
            .iter()
            .flat_map(|a| &a.terms)
            .filter_map(|t| t.as_var())
            .map(|v| v.0 as usize + 1)
            .fold(query.var_count(), usize::max);
        Canon {
            numbers: vec![UNNUMBERED; slots],
            text: String::with_capacity(32 * items + 32),
            items: Vec::with_capacity(items),
        }
    }

    /// Numbers the variables of `atom` not numbered yet, in order of
    /// first occurrence, from `next` on; returns the next free number.
    fn number_atom(&mut self, atom: &Atom, mut next: usize) -> usize {
        for v in atom.terms.iter().filter_map(Term::as_var) {
            let slot = &mut self.numbers[v.0 as usize];
            if *slot == UNNUMBERED {
                *slot = next;
                next += 1;
            }
        }
        next
    }

    /// Forgets the numbers of `atom`'s variables.
    fn unnumber_atom(&mut self, atom: &Atom) {
        for v in atom.terms.iter().filter_map(Term::as_var) {
            self.numbers[v.0 as usize] = UNNUMBERED;
        }
    }

    /// Renders one item into the scratch buffer with `render`.
    fn push_item(&mut self, index: usize, render: impl FnOnce(&mut String, &[usize])) {
        let start = self.text.len();
        render(&mut self.text, &self.numbers);
        self.items.push((start, self.text.len(), index));
    }

    /// The items, sorted by rendering and then by index.
    fn sort_items(&mut self) {
        let text = &self.text;
        self.items
            .sort_unstable_by(|a, b| text[a.0..a.1].cmp(&text[b.0..b.1]).then(a.2.cmp(&b.2)));
    }

    fn clear_items(&mut self) {
        self.text.clear();
        self.items.clear();
    }

    /// Writes `preds` with canonical variables, sorted — conjunction is
    /// order-free — each between `open` and `close`.
    fn write_predicates<'q, W: fmt::Write>(
        &mut self,
        preds: impl Iterator<Item = &'q Predicate>,
        open: &str,
        close: &str,
        out: &mut W,
    ) -> fmt::Result {
        self.clear_items();
        for (i, p) in preds.enumerate() {
            self.push_item(i, |text, numbers| {
                write_predicate(text, p, numbers).expect(INFALLIBLE)
            });
        }
        self.sort_items();
        for &(start, end, _) in &self.items {
            out.write_str(open)?;
            out.write_str(&self.text[start..end])?;
            out.write_str(close)?;
        }
        Ok(())
    }
}

/// Renders `query`'s canonical form into `out`.
fn write_canonical<W: fmt::Write>(query: &ConjunctiveQuery, out: &mut W) -> fmt::Result {
    let mut canon = Canon::new(query, query.atoms.len().max(query.predicates.len()));
    // 1. order atoms by a key that does not mention variable identity
    //    beyond the atom's own repetition pattern (ties keep submission
    //    order — a deterministic tie-break);
    for (a, atom) in query.atoms.iter().enumerate() {
        // the key numbers the atom's variables among themselves only
        canon.number_atom(atom, 0);
        canon.push_item(a, |text, numbers| {
            write_atom(text, atom, numbers, 'v').expect(INFALLIBLE)
        });
        canon.unnumber_atom(atom);
    }
    canon.sort_items();

    // 2. renumber variables by first occurrence scanning atoms in that
    //    order (safety guarantees every head/predicate variable occurs
    //    in some atom, so the numbering is total), and write the atoms;
    let mut next = 0;
    for i in 0..canon.items.len() {
        let atom = &query.atoms[canon.items[i].2];
        next = canon.number_atom(atom, next);
        write_atom(out, atom, &canon.numbers, '?')?;
        out.write_char(';')?;
    }

    // 3. predicates with canonical variables, sorted;
    canon.write_predicates(query.predicates.iter(), "", ";", out)?;

    // 4. the head: output positions in order.
    out.write_str("h:")?;
    for (i, v) in query.head.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        out.write_char('?')?;
        write_number(out, number_of(&canon.numbers, *v))?;
    }
    Ok(())
}

/// Renders the invoke prefix `steps` into `out`; returns the canonical
/// variable order.
fn write_subplan<W: fmt::Write>(
    query: &ConjunctiveQuery,
    steps: &[PrefixStep],
    out: &mut W,
) -> Result<Vec<VarId>, fmt::Error> {
    let items = steps.iter().map(|s| s.preds.len()).max().unwrap_or(0);
    let mut canon = Canon::new(query, items);
    // variables renumbered by first occurrence scanning the steps in
    // execution order; every predicate applied at a step only mentions
    // variables bound by that step or earlier, so the numbering is total
    let mut vars: Vec<VarId> = Vec::new();
    for step in steps {
        for v in query.atoms[step.atom].terms.iter().filter_map(Term::as_var) {
            let slot = &mut canon.numbers[v.0 as usize];
            if *slot == UNNUMBERED {
                *slot = vars.len();
                vars.push(v);
            }
        }
    }
    for step in steps {
        let atom = &query.atoms[step.atom];
        write!(out, "a{}p{}f{}", atom.service.0, step.pattern, step.fetch)?;
        write_terms(out, atom, &canon.numbers, '?')?;
        // predicates applied at this step, sorted
        let preds = step.preds.iter().map(|&k| &query.predicates[k]);
        canon.write_predicates(preds, "[", "]", out)?;
        out.write_char(';')?;
    }
    Ok(vars)
}

/// `a<service>(<term>,…)`, variables printed as `<var><number>`.
fn write_atom<W: fmt::Write>(
    out: &mut W,
    atom: &Atom,
    numbers: &[usize],
    var: char,
) -> fmt::Result {
    out.write_char('a')?;
    write_number(out, atom.service.0.into())?;
    write_terms(out, atom, numbers, var)
}

/// `(<term>,…)`, variables printed as `<var><number>`.
fn write_terms<W: fmt::Write>(
    out: &mut W,
    atom: &Atom,
    numbers: &[usize],
    var: char,
) -> fmt::Result {
    out.write_char('(')?;
    for (i, t) in atom.terms.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        match t {
            Term::Var(v) => {
                out.write_char(var)?;
                write_number(out, number_of(numbers, *v))?;
            }
            Term::Const(c) => write_constant(out, c)?,
        }
    }
    out.write_char(')')
}

/// The canonical number of `v` under `numbers`, as written.
fn number_of(numbers: &[usize], v: VarId) -> u64 {
    numbers.get(v.0 as usize).copied().unwrap_or(UNNUMBERED) as u64
}

/// `n` in decimal: what `write!(out, "{n}")` writes, without the
/// formatting machinery — the writer prints dozens of small numbers.
fn write_number<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

/// A constant as the canonical form spells it: a string between single
/// quotes with `\` and `'` escaped by a `\`, anything else as it
/// displays.
fn write_constant<W: fmt::Write>(out: &mut W, c: &Value) -> fmt::Result {
    let s = match c {
        Value::Str(s) => s,
        Value::Int(i) => {
            if *i < 0 {
                out.write_char('-')?;
            }
            return write_number(out, i.unsigned_abs());
        }
        other => return write!(out, "{other}"),
    };
    out.write_char('\'')?;
    let mut rest: &str = s;
    while let Some(at) = rest.find(['\\', '\'']) {
        out.write_str(&rest[..at])?;
        out.write_char('\\')?;
        // the escaped character is one byte: `at + 1` is a boundary
        out.write_str(&rest[at..at + 1])?;
        rest = &rest[at + 1..];
    }
    out.write_str(rest)?;
    out.write_char('\'')
}

fn write_expr<W: fmt::Write>(out: &mut W, e: &Expr, numbers: &[usize]) -> fmt::Result {
    let (a, op, b) = match e {
        Expr::Term(Term::Var(v)) => {
            out.write_char('?')?;
            return write_number(out, number_of(numbers, *v));
        }
        Expr::Term(Term::Const(c)) => return write_constant(out, c),
        Expr::Add(a, b) => (a, '+', b),
        Expr::Sub(a, b) => (a, '-', b),
        Expr::Mul(a, b) => (a, '*', b),
    };
    out.write_char('(')?;
    write_expr(out, a, numbers)?;
    out.write_char(op)?;
    write_expr(out, b, numbers)?;
    out.write_char(')')
}

/// `<lhs><op><rhs>`, then `@σ` when the predicate carries a hint — a
/// hint steers the optimizer, so it is part of the shape.
fn write_predicate<W: fmt::Write>(out: &mut W, p: &Predicate, numbers: &[usize]) -> fmt::Result {
    write_expr(out, &p.lhs, numbers)?;
    write!(out, "{}", p.op)?;
    write_expr(out, &p.rhs, numbers)?;
    match p.selectivity_hint {
        Some(sigma) => write!(out, "@{sigma}"),
        None => Ok(()),
    }
}

/// The FNV-1a 64-bit offset basis — the initial state for
/// [`fnv1a_append`] chains.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64-bit: stable across platforms and runs (unlike
/// `DefaultHasher`, whose output is unspecified between releases).
/// The workspace's single specified hash — also used by the fault
/// model's identity-keyed schedules (`mdq_services::fault`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_append(FNV1A_OFFSET, bytes)
}

/// Incremental FNV-1a: folds `bytes` into an existing state `h`
/// (start from [`FNV1A_OFFSET`]).
pub fn fnv1a_append(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::running_example_schema;

    /// The canonical rendering [`subplan_signature`] hashes, plus the
    /// canonical variable order (the replay mapping).
    fn subplan_canonical_text(
        query: &ConjunctiveQuery,
        steps: &[PrefixStep],
    ) -> (String, Vec<VarId>) {
        let mut text = String::new();
        let vars = write_subplan(query, steps, &mut text).expect(INFALLIBLE);
        (text, vars)
    }
    use crate::parser::parse_query;

    fn fp(text: &str) -> QueryFingerprint {
        let schema = running_example_schema();
        let q = parse_query(text, &schema).expect("parses");
        fingerprint(&q)
    }

    const BASE: &str = "q(Conf, City) :- conf('DB', Conf, S, E, City), \
                        weather(City, T, S), T >= 28.";

    #[test]
    fn alpha_renaming_is_invariant() {
        let renamed = "q(C2, Town) :- conf('DB', C2, From, To, Town), \
                       weather(Town, Temp, From), Temp >= 28.";
        assert_eq!(fp(BASE), fp(renamed));
    }

    #[test]
    fn head_name_is_ignored() {
        let other_name = "answers(Conf, City) :- conf('DB', Conf, S, E, City), \
                          weather(City, T, S), T >= 28.";
        assert_eq!(fp(BASE), fp(other_name));
    }

    #[test]
    fn predicate_order_is_invariant() {
        let a = "q(City) :- conf('DB', C, S, E, City), weather(City, T, S), \
                 T >= 28, T <= 35.";
        let b = "q(City) :- conf('DB', C, S, E, City), weather(City, T, S), \
                 T <= 35, T >= 28.";
        assert_eq!(fp(a), fp(b));
    }

    #[test]
    fn different_constant_differs() {
        let other = "q(Conf, City) :- conf('AI', Conf, S, E, City), \
                     weather(City, T, S), T >= 28.";
        assert_ne!(fp(BASE), fp(other));
    }

    #[test]
    fn different_shape_differs() {
        // dropped predicate
        let no_pred = "q(Conf, City) :- conf('DB', Conf, S, E, City), \
                       weather(City, T, S).";
        assert_ne!(fp(BASE), fp(no_pred));
        // different operator
        let other_op = "q(Conf, City) :- conf('DB', Conf, S, E, City), \
                        weather(City, T, S), T > 28.";
        assert_ne!(fp(BASE), fp(other_op));
        // different head ordering
        let swapped_head = "q(City, Conf) :- conf('DB', Conf, S, E, City), \
                            weather(City, T, S), T >= 28.";
        assert_ne!(fp(BASE), fp(swapped_head));
    }

    #[test]
    fn join_structure_is_part_of_the_shape() {
        // weather joined on the conference start date vs. its end date:
        // same atoms, same constants, different variable wiring
        let on_start = "q(City) :- conf('DB', C, S, E, City), weather(City, T, S).";
        let on_end = "q(City) :- conf('DB', C, S, E, City), weather(City, T, E).";
        assert_ne!(fp(on_start), fp(on_end));
    }

    fn prefix_steps(_query: &ConjunctiveQuery, atoms: &[usize]) -> Vec<PrefixStep> {
        // pattern 0, fetch 1, no predicates — the shape-only signature
        atoms
            .iter()
            .map(|&atom| PrefixStep {
                atom,
                pattern: 0,
                fetch: 1,
                preds: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn subplan_signature_is_alpha_invariant() {
        let schema = running_example_schema();
        let a = parse_query(BASE, &schema).expect("parses");
        let renamed = "q(C2, Town) :- conf('DB', C2, From, To, Town), \
                       weather(Town, Temp, From), Temp >= 28.";
        let b = parse_query(renamed, &schema).expect("parses");
        let sa = subplan_signature(&a, &prefix_steps(&a, &[0, 1]));
        let sb = subplan_signature(&b, &prefix_steps(&b, &[0, 1]));
        assert_eq!(sa.signature, sb.signature);
        assert_eq!(sa.vars.len(), sb.vars.len(), "replay mappings align");
    }

    #[test]
    fn subplan_signature_ignores_source_atom_order() {
        // the steps arrive in *execution* order; listing the atoms in a
        // different order in the query text must not matter
        let schema = running_example_schema();
        let a = parse_query(BASE, &schema).expect("parses");
        let swapped = "q(Conf, City) :- weather(City, T, S), \
                       conf('DB', Conf, S, E, City), T >= 28.";
        let b = parse_query(swapped, &schema).expect("parses");
        // execution order conf → weather in both: atom indices differ
        let sa = subplan_signature(&a, &prefix_steps(&a, &[0, 1]));
        let sb = subplan_signature(&b, &prefix_steps(&b, &[1, 0]));
        assert_eq!(sa.signature, sb.signature);
    }

    #[test]
    fn subplan_signature_preserves_work_parameters() {
        let schema = running_example_schema();
        let q = parse_query(BASE, &schema).expect("parses");
        let base = subplan_signature(&q, &prefix_steps(&q, &[0, 1]));
        // a different constant is different work
        let other = parse_query(&BASE.replace("'DB'", "'AI'"), &schema).expect("parses");
        assert_ne!(
            base.signature,
            subplan_signature(&other, &prefix_steps(&other, &[0, 1])).signature
        );
        // a different fetch factor fetches a different stream
        let mut steps = prefix_steps(&q, &[0, 1]);
        steps[1].fetch = 3;
        assert_ne!(base.signature, subplan_signature(&q, &steps).signature);
        // a different access pattern is different work
        let mut steps = prefix_steps(&q, &[0, 1]);
        steps[1].pattern = 1;
        assert_ne!(base.signature, subplan_signature(&q, &steps).signature);
        // an applied predicate filters the stream
        let mut steps = prefix_steps(&q, &[0, 1]);
        steps[1].preds = vec![0];
        assert_ne!(base.signature, subplan_signature(&q, &steps).signature);
        // a shorter prefix is a different prefix
        assert_ne!(
            base.signature,
            subplan_signature(&q, &prefix_steps(&q, &[0])).signature
        );
    }

    #[test]
    fn subplan_vars_follow_first_occurrence() {
        let schema = running_example_schema();
        let q = parse_query(BASE, &schema).expect("parses");
        let sig = subplan_signature(&q, &prefix_steps(&q, &[0, 1]));
        // conf('DB', Conf, S, E, City) then weather(City, T, S): the
        // canonical order is Conf, S, E, City, T
        let names: Vec<&str> = sig.vars.iter().map(|v| q.var_name(*v)).collect();
        assert_eq!(names, vec!["Conf", "S", "E", "City", "T"]);
    }

    #[test]
    fn a_quoted_constant_cannot_spell_out_other_predicates() {
        // one constant carrying `';?3='` against two real predicates
        let forged = "q(Conf) :- conf('DB', Conf, S, E, City), \
                      Conf = \"conf-city41-1';?3='city41\".";
        let imitated = "q(Conf) :- conf('DB', Conf, S, E, City), \
                        Conf = 'conf-city41-1', City = 'city41'.";
        let schema = running_example_schema();
        let forged = parse_query(forged, &schema).expect("parses");
        let imitated = parse_query(imitated, &schema).expect("parses");
        assert_ne!(canonical_text(&forged), canonical_text(&imitated));
        assert_ne!(fingerprint(&forged), fingerprint(&imitated));
    }

    #[test]
    fn a_quoted_constant_cannot_spell_out_other_prefix_predicates() {
        // the prefix form brackets each predicate: `'][?3='` closes one
        let forged = "q(Conf) :- conf('DB', Conf, S, E, City), \
                      Conf = \"x'][?3='y\".";
        let imitated = "q(Conf) :- conf('DB', Conf, S, E, City), \
                        Conf = 'x', City = 'y'.";
        let schema = running_example_schema();
        let forged = parse_query(forged, &schema).expect("parses");
        let imitated = parse_query(imitated, &schema).expect("parses");
        let sign = |q: &ConjunctiveQuery| {
            let steps = [PrefixStep {
                atom: 0,
                pattern: 0,
                fetch: 1,
                preds: (0..q.predicates.len()).collect(),
            }];
            (
                subplan_canonical_text(q, &steps).0,
                subplan_signature(q, &steps),
            )
        };
        let (forged_text, forged_sig) = sign(&forged);
        let (imitated_text, imitated_sig) = sign(&imitated);
        assert_ne!(forged_text, imitated_text);
        assert_ne!(forged_sig.signature, imitated_sig.signature);
    }

    #[test]
    fn subplan_signature_hashes_its_canonical_text() {
        let schema = running_example_schema();
        let q = parse_query(BASE, &schema).expect("parses");
        let mut steps = prefix_steps(&q, &[0, 1]);
        steps[1].preds = vec![0];
        let (text, vars) = subplan_canonical_text(&q, &steps);
        let sig = subplan_signature(&q, &steps);
        assert_eq!(sig.signature.0, fnv1a(text.as_bytes()));
        assert_eq!(sig.vars, vars);
    }

    #[test]
    fn quotes_and_backslashes_are_escaped() {
        let schema = running_example_schema();
        let q = parse_query(
            "q(C) :- conf(\"it's\", C, S, E, City), City = 'a\\b'.",
            &schema,
        )
        .expect("parses");
        assert_eq!(
            canonical_text(&q),
            "a0('it\\'s',?0,?1,?2,?3);?3='a\\\\b';h:?0"
        );
    }

    #[test]
    fn canonical_text_is_stable() {
        let schema = running_example_schema();
        let q = parse_query(BASE, &schema).expect("parses");
        assert_eq!(canonical_text(&q), canonical_text(&q));
        // and the digest is the documented FNV of that text
        assert_eq!(
            fingerprint(&q).0,
            fnv1a(canonical_text(&q).as_bytes()),
            "fingerprint hashes the canonical text"
        );
    }
}
