//! Access-pattern analysis (§3.2, Def. 3.1).
//!
//! Given a conjunctive query and one feasible access pattern chosen per
//! atom, this module decides *callability* and *executability*, enumerates
//! all *permissible* pattern sequences, and derives the precedence
//! structure that phase 2 of the optimizer must respect.

use crate::query::{ConjunctiveQuery, Term, VarId};
use crate::schema::{ArgMode, Schema};
use std::collections::HashSet;
use std::fmt;

/// One chosen feasible access pattern per query atom: `choice[i]` indexes
/// into `schema.service(query.atoms[i].service).patterns`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ApChoice(pub Vec<usize>);

impl ApChoice {
    /// The pattern index chosen for atom `i`.
    #[inline]
    pub fn pattern_of(&self, atom: usize) -> usize {
        self.0[atom]
    }

    /// Number of atoms covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no atoms.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for ApChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "⟩")
    }
}

/// Variables at input positions of atom `atom` under `choice`.
pub fn input_vars(
    query: &ConjunctiveQuery,
    schema: &Schema,
    choice: &ApChoice,
    atom: usize,
) -> Vec<VarId> {
    let mut out = Vec::new();
    push_input_vars(query, schema, atom, choice.pattern_of(atom), &mut out);
    out
}

/// Appends to `out` the variables at input positions of atom `atom`
/// under its access pattern `pattern`, in position order, each once.
pub fn push_input_vars(
    query: &ConjunctiveQuery,
    schema: &Schema,
    atom: usize,
    pattern: usize,
    out: &mut Vec<VarId>,
) {
    let a = &query.atoms[atom];
    let pat = &schema.service(a.service).patterns[pattern];
    let start = out.len();
    for i in pat.inputs() {
        if let Term::Var(v) = &a.terms[i] {
            if !out[start..].contains(v) {
                out.push(*v);
            }
        }
    }
}

/// Variables at output positions of atom `atom` under `choice`.
fn output_vars(
    query: &ConjunctiveQuery,
    schema: &Schema,
    choice: &ApChoice,
    atom: usize,
) -> Vec<VarId> {
    let a = &query.atoms[atom];
    let pat = &schema.service(a.service).patterns[choice.pattern_of(atom)];
    let mut out = Vec::new();
    for i in pat.outputs() {
        if let Term::Var(v) = &a.terms[i] {
            if !out.contains(v) {
                out.push(*v);
            }
        }
    }
    out
}

/// True when every input field of `atom` is a constant or a variable in
/// `bound` — i.e. the atom is *callable after* the atoms that bound those
/// variables (Def. 3.1).
fn callable_with(
    query: &ConjunctiveQuery,
    schema: &Schema,
    choice: &ApChoice,
    atom: usize,
    bound: &HashSet<VarId>,
) -> bool {
    let a = &query.atoms[atom];
    let pat = &schema.service(a.service).patterns[choice.pattern_of(atom)];
    a.terms.iter().enumerate().all(|(i, t)| match pat.mode(i) {
        ArgMode::In => match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        },
        ArgMode::Out => true,
    })
}

/// The set of atoms callable after the atoms in `placed` — the paper's
/// `callable_Q(N)` (§3.3). Variables bound are the outputs of placed atoms.
pub fn callable_after(
    query: &ConjunctiveQuery,
    schema: &Schema,
    choice: &ApChoice,
    placed: &HashSet<usize>,
) -> Vec<usize> {
    // bound in atom order, not in `placed`'s hash order: the same inserts
    // in the same order grow the set the same way on every run
    let mut bound: HashSet<VarId> = HashSet::new();
    for p in (0..query.atoms.len()).filter(|p| placed.contains(p)) {
        bound.extend(output_vars(query, schema, choice, p));
    }
    (0..query.atoms.len())
        .filter(|i| !placed.contains(i))
        .filter(|&i| callable_with(query, schema, choice, i, &bound))
        .collect()
}

/// Whether the query is *executable* with respect to `choice`
/// (Def. 3.1): a total schedule exists in which every atom is callable.
///
/// Computed as a fixpoint: repeatedly add callable atoms, binding their
/// output variables, until no progress; executable iff all atoms become
/// callable. Runs in `O(atoms² · arity)`.
pub fn executable(query: &ConjunctiveQuery, schema: &Schema, choice: &ApChoice) -> bool {
    debug_assert_eq!(choice.len(), query.atoms.len());
    let n = query.atoms.len();
    let mut placed: HashSet<usize> = HashSet::with_capacity(n);
    let mut bound: HashSet<VarId> = HashSet::new();
    loop {
        let mut progress = false;
        for i in 0..n {
            if !placed.contains(&i) && callable_with(query, schema, choice, i, &bound) {
                placed.insert(i);
                bound.extend(output_vars(query, schema, choice, i));
                progress = true;
            }
        }
        if placed.len() == n {
            return true;
        }
        if !progress {
            return false;
        }
    }
}

/// Enumerates all *permissible* access-pattern sequences (§3.2): one
/// feasible pattern per atom such that the query is executable.
///
/// The raw space is `∏ mᵢ` over the atoms' feasible-pattern counts;
/// non-executable sequences are filtered out.
pub fn permissible_sequences(query: &ConjunctiveQuery, schema: &Schema) -> Vec<ApChoice> {
    let counts: Vec<usize> = query
        .atoms
        .iter()
        .map(|a| schema.service(a.service).patterns.len())
        .collect();
    let mut out = Vec::new();
    let mut current = vec![0usize; counts.len()];
    enumerate_product(&counts, 0, &mut current, &mut |c| {
        let choice = ApChoice(c.to_vec());
        if executable(query, schema, &choice) {
            out.push(choice);
        }
    });
    out
}

fn enumerate_product(
    counts: &[usize],
    idx: usize,
    current: &mut [usize],
    visit: &mut impl FnMut(&[usize]),
) {
    if idx == counts.len() {
        visit(current);
        return;
    }
    for v in 0..counts[idx] {
        current[idx] = v;
        enumerate_product(counts, idx + 1, current, visit);
    }
}

/// Linear-time *existence* check for a permissible sequence, after Yang,
/// Kifer & Chaudhri \[21\] (§3.2): greedily schedule any atom having *some*
/// feasible pattern whose inputs are covered by the currently bound
/// variables; since the bound set only grows, greedy choice is complete.
///
/// Returns a witnessing [`ApChoice`] when one exists. Note the witness may
/// mix patterns more liberally than [`permissible_sequences`]'s first
/// entry; only existence is guaranteed minimal-time.
#[allow(clippy::needless_range_loop)] // `i` also indexes `chosen`
pub fn find_permissible(query: &ConjunctiveQuery, schema: &Schema) -> Option<ApChoice> {
    let n = query.atoms.len();
    let mut chosen: Vec<Option<usize>> = vec![None; n];
    let mut bound: HashSet<VarId> = HashSet::new();
    let mut remaining = n;
    loop {
        let mut progress = false;
        for i in 0..n {
            if chosen[i].is_some() {
                continue;
            }
            let sig = schema.service(query.atoms[i].service);
            let found = (0..sig.patterns.len()).find(|&p| {
                let probe = ApChoiceProbe {
                    pattern: p,
                    atom: i,
                };
                probe.callable(query, schema, &bound)
            });
            if let Some(p) = found {
                chosen[i] = Some(p);
                // bind every variable of the atom (inputs were bound already)
                bound.extend(query.atoms[i].vars());
                remaining -= 1;
                progress = true;
            }
        }
        if remaining == 0 {
            return Some(ApChoice(
                chosen.into_iter().map(|c| c.expect("all chosen")).collect(),
            ));
        }
        if !progress {
            return None;
        }
    }
}

/// Helper for [`find_permissible`] checking a single (atom, pattern) pair.
struct ApChoiceProbe {
    pattern: usize,
    atom: usize,
}

impl ApChoiceProbe {
    fn callable(&self, query: &ConjunctiveQuery, schema: &Schema, bound: &HashSet<VarId>) -> bool {
        let a = &query.atoms[self.atom];
        let pat = &schema.service(a.service).patterns[self.pattern];
        a.terms.iter().enumerate().all(|(i, t)| match pat.mode(i) {
            ArgMode::In => match t {
                Term::Const(_) => true,
                Term::Var(v) => bound.contains(v),
            },
            ArgMode::Out => true,
        })
    }
}

/// For each atom and each of its input variables, the candidate *supplier*
/// atoms (those with the variable in an output position under `choice`).
///
/// Used by phase 2: a topology is admissible iff every (atom, input var)
/// pair has a supplier among the atom's predecessors (or the variable is
/// bound by a constant elsewhere — constants appear inline in input
/// positions, so they never reach this map).
#[derive(Clone, Debug)]
pub struct SupplierMap {
    /// `per_atom[i]` lists, for each input variable of atom `i`, the
    /// variable and its candidate supplier atoms.
    pub per_atom: Vec<Vec<(VarId, Vec<usize>)>>,
}

impl SupplierMap {
    /// Builds the supplier map for a pattern choice.
    pub fn build(query: &ConjunctiveQuery, schema: &Schema, choice: &ApChoice) -> Self {
        let n = query.atoms.len();
        let outputs: Vec<Vec<VarId>> = (0..n)
            .map(|i| output_vars(query, schema, choice, i))
            .collect();
        let per_atom = (0..n)
            .map(|i| {
                input_vars(query, schema, choice, i)
                    .into_iter()
                    .map(|v| {
                        let suppliers = (0..n)
                            .filter(|&j| j != i && outputs[j].contains(&v))
                            .collect();
                        (v, suppliers)
                    })
                    .collect()
            })
            .collect();
        SupplierMap { per_atom }
    }

    /// True when atom `b`'s inputs are all covered by suppliers inside
    /// `preds` (used to admit a topology).
    pub fn covered_by(&self, b: usize, preds: &HashSet<usize>) -> bool {
        self.per_atom[b]
            .iter()
            .all(|(_, suppliers)| suppliers.iter().any(|s| preds.contains(s)))
    }

    /// Atoms with no input variables at all (directly callable, §3.3).
    pub fn directly_callable(&self) -> Vec<usize> {
        self.per_atom
            .iter()
            .enumerate()
            .filter(|(_, ins)| ins.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Term;
    use crate::schema::{Schema, ServiceBuilder, ServiceProfile};
    use crate::value::Value;

    /// Builds the running-example schema of Fig. 2 with the paper's access
    /// patterns: conf{ioooo, ooooi}, weather{ioi}, flight{iiiiooo},
    /// hotel{oiiiio, oooooo}.
    pub(crate) fn running_example_schema() -> Schema {
        let mut s = Schema::new();
        ServiceBuilder::new(&mut s, "conf")
            .attr("Topic", "Topic")
            .attr("Name", "ConfName")
            .attr("Start", "Date")
            .attr("End", "Date")
            .attr("City", "City")
            .pattern("ioooo")
            .pattern("ooooi")
            .profile(ServiceProfile::new(20.0, 1.2))
            .register()
            .expect("conf registers");
        ServiceBuilder::new(&mut s, "weather")
            .attr("City", "City")
            .attr("Temperature", "Temp")
            .attr("Date", "Date")
            .pattern("ioi")
            .profile(ServiceProfile::new(0.05, 1.5))
            .register()
            .expect("weather registers");
        ServiceBuilder::new(&mut s, "flight")
            .attr("From", "City")
            .attr("To", "City")
            .attr("OutDate", "Date")
            .attr("RetDate", "Date")
            .attr("OutTime", "Time")
            .attr("RetTime", "Time")
            .attr("Price", "Price")
            .pattern("iiiiooo")
            .search()
            .chunked(25)
            .profile(ServiceProfile::new(25.0, 9.7))
            .register()
            .expect("flight registers");
        ServiceBuilder::new(&mut s, "hotel")
            .attr("Name", "HotelName")
            .attr("City", "City")
            .attr("Category", "Category")
            .attr("CheckInDate", "Date")
            .attr("CheckOutDate", "Date")
            .attr("Price", "Price")
            .pattern("oiiiio")
            .pattern("oooooo")
            .search()
            .chunked(5)
            .profile(ServiceProfile::new(5.0, 4.9))
            .register()
            .expect("hotel registers");
        s
    }

    /// Builds the running-example query of Fig. 3 with atom order
    /// flight, hotel, conf, weather (as in the paper's listing).
    pub(crate) fn running_example_query(s: &Schema) -> ConjunctiveQuery {
        crate::parser::parse_query(
            "q(Conf, City, HPrice, FPrice, Start, StartTime, End, EndTime, Hotel) :- \
             flight('Milano', City, Start, End, StartTime, EndTime, FPrice), \
             hotel(Hotel, City, 'luxury', Start, End, HPrice), \
             conf('DB', Conf, Start, End, City), \
             weather(City, Temperature, Start), \
             Start >= '2007/3/14', End <= '2007/3/14' + 180, \
             Temperature >= 28, FPrice + HPrice < 2000.",
            s,
        )
        .expect("running example parses")
    }

    #[test]
    fn example_41_permissible_sequences() {
        // Example 4.1: atoms ⟨flight, hotel, conf, weather⟩; 4 raw choices
        // (conf×2 · hotel×2); α3 = (conf2, hotel1) is not permissible.
        let s = running_example_schema();
        let q = running_example_query(&s);
        let perms = permissible_sequences(&q, &s);
        assert_eq!(perms.len(), 3, "α1, α2, α4 are permissible");
        // atom order: flight=0, hotel=1, conf=2, weather=3
        let a1 = ApChoice(vec![0, 0, 0, 0]); // hotel1, conf1
        let a2 = ApChoice(vec![0, 1, 0, 0]); // hotel2, conf1
        let a3 = ApChoice(vec![0, 0, 1, 0]); // hotel1, conf2 — impermissible
        let a4 = ApChoice(vec![0, 1, 1, 0]); // hotel2, conf2
        assert!(perms.contains(&a1));
        assert!(perms.contains(&a2));
        assert!(!perms.contains(&a3));
        assert!(perms.contains(&a4));
        assert!(!executable(&q, &s, &a3));
    }

    #[test]
    fn find_permissible_agrees_with_enumeration() {
        let s = running_example_schema();
        let q = running_example_query(&s);
        let witness = find_permissible(&q, &s).expect("a permissible choice exists");
        assert!(executable(&q, &s, &witness));
    }

    #[test]
    fn impossible_query_has_no_permissible_choice() {
        let mut s = Schema::new();
        // both services need X as input, nobody outputs it
        for name in ["u", "v"] {
            ServiceBuilder::new(&mut s, name)
                .attr("X", "DX")
                .attr("Y", "DY")
                .pattern("io")
                .register()
                .expect("registers");
        }
        let u = s.service_by_name("u").expect("u");
        let v = s.service_by_name("v").expect("v");
        let mut q = ConjunctiveQuery::new("q");
        let x = q.var("X");
        let y = q.var("Y");
        let z = q.var("Z");
        q.head_var(y);
        q.atom(u, vec![Term::Var(x), Term::Var(y)]);
        q.atom(v, vec![Term::Var(x), Term::Var(z)]);
        assert!(find_permissible(&q, &s).is_none());
        assert!(permissible_sequences(&q, &s).is_empty());
    }

    #[test]
    fn constants_make_atoms_directly_callable() {
        let mut s = Schema::new();
        ServiceBuilder::new(&mut s, "svc")
            .attr("K", "DK")
            .attr("V", "DV")
            .pattern("io")
            .register()
            .expect("registers");
        let svc = s.service_by_name("svc").expect("svc");
        let mut q = ConjunctiveQuery::new("q");
        let v = q.var("V");
        q.head_var(v);
        q.atom(svc, vec![Term::Const(Value::str("key")), Term::Var(v)]);
        let choice = ApChoice(vec![0]);
        assert!(executable(&q, &s, &choice));
        let sm = SupplierMap::build(&q, &s, &choice);
        assert_eq!(sm.directly_callable(), vec![0]);
    }

    #[test]
    fn supplier_map_running_example() {
        let s = running_example_schema();
        let q = running_example_query(&s);
        // α1: atom order flight=0, hotel=1, conf=2, weather=3
        let choice = ApChoice(vec![0, 0, 0, 0]);
        let sm = SupplierMap::build(&q, &s, &choice);
        // conf (Topic const input) is directly callable
        assert_eq!(sm.directly_callable(), vec![2]);
        // flight's inputs (City, Start, End) can only be supplied by conf:
        // conf ≺ flight, conf ≺ hotel, conf ≺ weather
        let conf: HashSet<usize> = [2].into_iter().collect();
        let others: HashSet<usize> = [0, 1, 3].into_iter().collect();
        for b in [0, 1, 3] {
            assert!(sm.covered_by(b, &conf), "conf supplies atom {b}");
            assert!(!sm.covered_by(b, &others), "only conf supplies atom {b}");
        }
        // flight/hotel/weather are callable after conf alone
        let placed: HashSet<usize> = [2].into_iter().collect();
        let mut callable = callable_after(&q, &s, &choice, &placed);
        callable.sort_unstable();
        assert_eq!(callable, vec![0, 1, 3]);
    }

    #[test]
    fn callable_after_empty_set_is_directly_callable() {
        let s = running_example_schema();
        let q = running_example_query(&s);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        assert_eq!(callable_after(&q, &s, &choice, &HashSet::new()), vec![2]);
        // with α4 (hotel2, conf2), hotel is directly callable
        let choice4 = ApChoice(vec![0, 1, 1, 0]);
        assert_eq!(callable_after(&q, &s, &choice4, &HashSet::new()), vec![1]);
    }

    #[test]
    fn io_vars_respect_pattern() {
        let s = running_example_schema();
        let q = running_example_query(&s);
        let choice = ApChoice(vec![0, 0, 0, 0]);
        // flight = atom 0, pattern iiiiooo: inputs From(const),To,Out,Ret
        let city = q.var_by_name("City").expect("City");
        let start = q.var_by_name("Start").expect("Start");
        let end = q.var_by_name("End").expect("End");
        let fp = q.var_by_name("FPrice").expect("FPrice");
        let ins = input_vars(&q, &s, &choice, 0);
        assert_eq!(ins, vec![city, start, end]);
        let outs = output_vars(&q, &s, &choice, 0);
        assert!(outs.contains(&fp));
        assert!(!outs.contains(&city));
    }
}
