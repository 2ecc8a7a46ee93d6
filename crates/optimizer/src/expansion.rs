//! Off-query expansion (§7, "Answering queries under access
//! limitations").
//!
//! Some queries admit *no* permissible choice of access patterns: every
//! schedule leaves some service's input unfed. §7 observes that a subset
//! of the answers may still be obtainable by invoking **off-query**
//! services — services available in the schema but not mentioned in the
//! query — "so that their output fields provide useful bindings for the
//! input fields of the services in the query *with the same abstract
//! domain*". The paper's example: if every `City` field were an input,
//! an auxiliary `oldTown(City)` service producing locations could seed
//! them.
//!
//! This module implements the bounded (non-recursive) form of that
//! expansion: repeatedly add a callable off-query atom whose output
//! feeds a blocked input variable (matched by abstract domain), until
//! the query becomes executable or the budget is exhausted. The result
//! is an *approximation from below*: answers are restricted to bindings
//! the auxiliary services can enumerate — exactly the semantics §7
//! describes (the general case needs recursive plans, which the paper
//! itself delegates to \[12\] and we leave out of scope).

use mdq_model::binding::find_permissible;
use mdq_model::query::{ConjunctiveQuery, Term, VarId};
use mdq_model::schema::{ArgMode, Schema, ServiceId};
use std::collections::HashSet;

/// The outcome of an expansion attempt.
#[derive(Clone, Debug)]
pub struct Expansion {
    /// The query extended with off-query atoms (equal to the input when
    /// no expansion was necessary).
    pub query: ConjunctiveQuery,
    /// Services added, in addition order.
    pub added: Vec<ServiceId>,
    /// The originally blocked variables that the added atoms now seed.
    pub seeded_vars: Vec<VarId>,
}

impl Expansion {
    /// True when the original query was executable as-is.
    pub fn is_trivial(&self) -> bool {
        self.added.is_empty()
    }
}

/// Why expansion failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExpansionError {
    /// The query is executable and needs no expansion *and* the caller
    /// asked to fail in that case. (Not produced by
    /// [`expand_for_executability`], which returns a trivial expansion.)
    NotNeeded,
    /// No combination of up to `budget` off-query atoms unblocks the
    /// query.
    NoUsefulService {
        /// Names of the variables that remained unfed.
        blocked: Vec<String>,
    },
}

impl std::fmt::Display for ExpansionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpansionError::NotNeeded => write!(f, "query is already executable"),
            ExpansionError::NoUsefulService { blocked } => write!(
                f,
                "no off-query service can seed the blocked variables [{}]",
                blocked.join(", ")
            ),
        }
    }
}

impl std::error::Error for ExpansionError {}

/// Variables that block executability: input variables (under *every*
/// feasible pattern, in the weakest case) of atoms that the callable
/// fixpoint never reaches.
fn blocked_variables(query: &ConjunctiveQuery, schema: &Schema) -> Vec<VarId> {
    // run the greedy fixpoint with free pattern choice (as in
    // find_permissible); collect reached atoms
    let mut bound: HashSet<VarId> = HashSet::new();
    let mut reached: HashSet<usize> = HashSet::new();
    loop {
        let mut progress = false;
        'atoms: for (i, atom) in query.atoms.iter().enumerate() {
            if reached.contains(&i) {
                continue;
            }
            let sig = schema.service(atom.service);
            for pattern in &sig.patterns {
                let callable = atom
                    .terms
                    .iter()
                    .enumerate()
                    .all(|(p, t)| match pattern.mode(p) {
                        ArgMode::In => match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound.contains(v),
                        },
                        ArgMode::Out => true,
                    });
                if callable {
                    reached.insert(i);
                    bound.extend(atom.vars());
                    progress = true;
                    continue 'atoms;
                }
            }
        }
        if !progress {
            break;
        }
    }
    // blocked: unbound input vars of unreached atoms (using the pattern
    // with the fewest unbound inputs as the optimistic choice)
    let mut blocked: Vec<VarId> = Vec::new();
    for (i, atom) in query.atoms.iter().enumerate() {
        if reached.contains(&i) {
            continue;
        }
        let sig = schema.service(atom.service);
        let best: Option<Vec<VarId>> = sig
            .patterns
            .iter()
            .map(|pattern| {
                pattern
                    .inputs()
                    .filter_map(|p| atom.terms[p].as_var())
                    .filter(|v| !bound.contains(v))
                    .collect::<Vec<_>>()
            })
            .min_by_key(|v| v.len());
        if let Some(missing) = best {
            for v in missing {
                if !blocked.contains(&v) {
                    blocked.push(v);
                }
            }
        }
    }
    blocked
}

/// Attempts to make `query` executable by appending at most `budget`
/// off-query atoms. Returns the (possibly trivial) expansion, or an
/// error naming the variables that could not be fed.
///
/// Candidate services must themselves be *callable in context*: they
/// must expose a pattern whose input positions can be fed by variables
/// already bound somewhere in the (expanded) query with matching
/// abstract domains — directly callable all-output services like the
/// paper's `oldTown(City)` are the common case. Output positions of the
/// matching domain are unified with the blocked variable; all other
/// positions receive fresh variables.
pub fn expand_for_executability(
    query: &ConjunctiveQuery,
    schema: &Schema,
    budget: usize,
) -> Result<Expansion, ExpansionError> {
    if find_permissible(query, schema).is_some() {
        return Ok(Expansion {
            query: query.clone(),
            added: Vec::new(),
            seeded_vars: Vec::new(),
        });
    }
    let mut expanded = query.clone();
    let mut added: Vec<ServiceId> = Vec::new();
    let mut seeded: Vec<VarId> = Vec::new();
    let in_query: HashSet<ServiceId> = query.atoms.iter().map(|a| a.service).collect();

    for _round in 0..budget {
        let blocked = blocked_variables(&expanded, schema);
        if blocked.is_empty() {
            break;
        }
        let Some((svc, pattern_idx, var)) =
            find_seeder(&expanded, schema, &blocked, &in_query, &added)
        else {
            return Err(ExpansionError::NoUsefulService {
                blocked: blocked
                    .iter()
                    .map(|v| expanded.var_name(*v).to_string())
                    .collect(),
            });
        };
        // build the off-query atom: blocked var at the first matching
        // output position, fresh variables elsewhere
        let sig = schema.service(svc);
        let var_domain = domain_of(&expanded, schema, var)
            .expect("a blocked variable is an input of some atom, whose domain is the variable's");
        let pattern = &sig.patterns[pattern_idx];
        let mut placed = false;
        let mut terms = Vec::with_capacity(sig.arity());
        for pos in 0..sig.arity() {
            let is_out = pattern.mode(pos) == ArgMode::Out;
            if is_out && !placed && sig.domains[pos] == var_domain {
                terms.push(Term::Var(var));
                placed = true;
            } else {
                let fresh = expanded.var(format!("_Aux{}_{}", added.len(), pos));
                terms.push(Term::Var(fresh));
            }
        }
        debug_assert!(placed, "find_seeder guarantees a matching output");
        expanded.atom(svc, terms);
        added.push(svc);
        seeded.push(var);
        if find_permissible(&expanded, schema).is_some() {
            return Ok(Expansion {
                query: expanded,
                added,
                seeded_vars: seeded,
            });
        }
    }
    let blocked = blocked_variables(&expanded, schema);
    Err(ExpansionError::NoUsefulService {
        blocked: blocked
            .iter()
            .map(|v| expanded.var_name(*v).to_string())
            .collect(),
    })
}

/// The abstract domain of `v`, from its first occurrence in an atom.
fn domain_of(
    query: &ConjunctiveQuery,
    schema: &Schema,
    v: VarId,
) -> Option<mdq_model::value::DomainId> {
    for atom in &query.atoms {
        let sig = schema.service(atom.service);
        for (pos, t) in atom.terms.iter().enumerate() {
            if t.as_var() == Some(v) {
                return Some(sig.domains[pos]);
            }
        }
    }
    None
}

/// Finds an off-query (service, pattern, blocked var) triple such that
/// the service outputs the variable's domain and its own inputs are
/// feedable: every input position's domain is produced as an output by
/// some *callable* atom of the current query (or the pattern has no
/// inputs).
fn find_seeder(
    query: &ConjunctiveQuery,
    schema: &Schema,
    blocked: &[VarId],
    in_query: &HashSet<ServiceId>,
    already_added: &[ServiceId],
) -> Option<(ServiceId, usize, VarId)> {
    // domains currently producible by callable atoms
    let producible: HashSet<mdq_model::value::DomainId> = {
        let mut out = HashSet::new();
        // atoms reachable under free pattern choice
        if let Some(choice) = find_permissible_prefix(query, schema) {
            for (i, pattern_idx) in choice {
                let atom = &query.atoms[i];
                let sig = schema.service(atom.service);
                for pos in sig.patterns[pattern_idx].outputs() {
                    out.insert(sig.domains[pos]);
                }
            }
        }
        out
    };
    for &var in blocked {
        let var_domain = domain_of(query, schema, var)?;
        for (svc, sig) in schema.services() {
            if in_query.contains(&svc) || already_added.contains(&svc) {
                continue;
            }
            for (pi, pattern) in sig.patterns.iter().enumerate() {
                let outputs_domain = pattern.outputs().any(|pos| sig.domains[pos] == var_domain);
                if !outputs_domain {
                    continue;
                }
                let inputs_feedable = pattern
                    .inputs()
                    .all(|pos| producible.contains(&sig.domains[pos]));
                if inputs_feedable {
                    return Some((svc, pi, var));
                }
            }
        }
    }
    None
}

/// The callable prefix under free pattern choice: which atoms the greedy
/// fixpoint reaches, and with which pattern.
fn find_permissible_prefix(
    query: &ConjunctiveQuery,
    schema: &Schema,
) -> Option<Vec<(usize, usize)>> {
    let mut bound: HashSet<VarId> = HashSet::new();
    let mut reached: Vec<(usize, usize)> = Vec::new();
    let mut done: HashSet<usize> = HashSet::new();
    loop {
        let mut progress = false;
        'atoms: for (i, atom) in query.atoms.iter().enumerate() {
            if done.contains(&i) {
                continue;
            }
            let sig = schema.service(atom.service);
            for (pi, pattern) in sig.patterns.iter().enumerate() {
                let callable = atom
                    .terms
                    .iter()
                    .enumerate()
                    .all(|(p, t)| match pattern.mode(p) {
                        ArgMode::In => match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound.contains(v),
                        },
                        ArgMode::Out => true,
                    });
                if callable {
                    done.insert(i);
                    reached.push((i, pi));
                    bound.extend(atom.vars());
                    progress = true;
                    continue 'atoms;
                }
            }
        }
        if !progress {
            break;
        }
    }
    Some(reached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::parser::parse_query;
    use mdq_model::schema::{Schema, ServiceBuilder, ServiceProfile};
    use mdq_model::value::DomainKind;

    /// The paper's §7 scenario: every `City` field is an input; an
    /// auxiliary `oldTown(City)` service with City in output unblocks
    /// the query.
    fn blocked_city_schema(with_oldtown: bool) -> Schema {
        let mut s = Schema::new();
        s.domain_with("City", DomainKind::Str, Some(50.0));
        // conf only by city (the paper's conf②-only variant)
        ServiceBuilder::new(&mut s, "conf")
            .attr_kinded("Topic", "Topic", DomainKind::Str)
            .attr_kinded("Name", "ConfName", DomainKind::Str)
            .attr_kinded("City", "City", DomainKind::Str)
            .pattern("ooi")
            .profile(ServiceProfile::new(2.0, 1.0))
            .register()
            .expect("conf registers");
        ServiceBuilder::new(&mut s, "weather")
            .attr_kinded("City", "City", DomainKind::Str)
            .attr_kinded("Temperature", "Temp", DomainKind::Float)
            .pattern("io")
            .profile(ServiceProfile::new(1.0, 1.0))
            .register()
            .expect("weather registers");
        if with_oldtown {
            ServiceBuilder::new(&mut s, "oldtown")
                .attr_kinded("City", "City", DomainKind::Str)
                .pattern("o")
                .profile(ServiceProfile::new(12.0, 0.5))
                .register()
                .expect("oldtown registers");
        }
        s
    }

    #[test]
    fn expansion_finds_oldtown() {
        let schema = blocked_city_schema(true);
        let query = parse_query(
            "q(Name, Temp) :- conf('DB', Name, City), weather(City, Temp).",
            &schema,
        )
        .expect("parses");
        assert!(find_permissible(&query, &schema).is_none(), "blocked as-is");
        let exp = expand_for_executability(&query, &schema, 2).expect("expands");
        assert!(!exp.is_trivial());
        assert_eq!(exp.added.len(), 1);
        let oldtown = schema.service_by_name("oldtown").expect("exists");
        assert_eq!(exp.added[0], oldtown);
        // expanded query is executable and still validates
        assert!(find_permissible(&exp.query, &schema).is_some());
        exp.query.validate(&schema).expect("valid after expansion");
        // the seeded variable is City
        assert_eq!(
            exp.seeded_vars
                .iter()
                .map(|v| exp.query.var_name(*v))
                .collect::<Vec<_>>(),
            vec!["City"]
        );
    }

    #[test]
    fn executable_queries_pass_through() {
        let schema = blocked_city_schema(true);
        let query =
            parse_query("q(City) :- oldtown(City), weather(City, T).", &schema).expect("parses");
        let exp = expand_for_executability(&query, &schema, 2).expect("trivial");
        assert!(exp.is_trivial());
        assert_eq!(exp.query.atoms.len(), query.atoms.len());
    }

    #[test]
    fn no_useful_service_reports_blocked_vars() {
        let schema = blocked_city_schema(false);
        let query = parse_query(
            "q(Name, Temp) :- conf('DB', Name, City), weather(City, Temp).",
            &schema,
        )
        .expect("parses");
        let err = expand_for_executability(&query, &schema, 3).expect_err("no seeder");
        match err {
            ExpansionError::NoUsefulService { blocked } => {
                assert!(blocked.contains(&"City".to_string()), "{blocked:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn chained_expansion_within_budget() {
        // two blocked domains needing two different seeders
        let mut s = Schema::new();
        ServiceBuilder::new(&mut s, "target")
            .attr_kinded("A", "DA", DomainKind::Str)
            .attr_kinded("B", "DB", DomainKind::Str)
            .attr_kinded("Out", "DO", DomainKind::Str)
            .pattern("iio")
            .register()
            .expect("registers");
        ServiceBuilder::new(&mut s, "seed_a")
            .attr_kinded("A", "DA", DomainKind::Str)
            .pattern("o")
            .register()
            .expect("registers");
        ServiceBuilder::new(&mut s, "seed_b")
            .attr_kinded("B", "DB", DomainKind::Str)
            .pattern("o")
            .register()
            .expect("registers");
        let q = parse_query("q(Out) :- target(A, B, Out).", &s).expect("parses");
        assert!(find_permissible(&q, &s).is_none());
        // budget 1 is not enough
        assert!(expand_for_executability(&q, &s, 1).is_err());
        // budget 2 succeeds with both seeders
        let exp = expand_for_executability(&q, &s, 2).expect("expands");
        assert_eq!(exp.added.len(), 2);
        assert!(find_permissible(&exp.query, &s).is_some());
    }

    #[test]
    fn seeder_with_inputs_must_be_feedable() {
        // the only candidate seeder itself needs an unavailable input
        let mut s = Schema::new();
        ServiceBuilder::new(&mut s, "target")
            .attr_kinded("A", "DA", DomainKind::Str)
            .attr_kinded("Out", "DO", DomainKind::Str)
            .pattern("io")
            .register()
            .expect("registers");
        ServiceBuilder::new(&mut s, "needy_seed")
            .attr_kinded("K", "DK", DomainKind::Str) // nobody produces DK
            .attr_kinded("A", "DA", DomainKind::Str)
            .pattern("io")
            .register()
            .expect("registers");
        let q = parse_query("q(Out) :- target(A, Out).", &s).expect("parses");
        assert!(expand_for_executability(&q, &s, 3).is_err());
    }
}
