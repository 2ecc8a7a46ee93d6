//! Variable bindings flowing through plan operators.
//!
//! During execution, a stream tuple is a partial assignment of the
//! query's variables. Invoke nodes extend bindings with service results
//! (unifying against constants and already-bound variables — the pipe
//! join); parallel join nodes merge bindings from two branches.

use crate::plan_info::NodePredicates;
use mdq_model::query::{Atom, ConjunctiveQuery, Predicate, Term, VarId};
use mdq_model::value::{Tuple, Value};
use std::sync::Arc;

/// A (partial) assignment of query variables, cheap to clone.
///
/// The ordering and hash are positional over the bound values — what
/// lets the adaptive pull driver track emitted bindings as a multiset
/// across plan splices.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Binding {
    values: Arc<[Option<Value>]>,
}

impl Binding {
    /// The empty binding over `nvars` variables.
    pub fn empty(nvars: usize) -> Self {
        Binding {
            values: (0..nvars).map(|_| None).collect(),
        }
    }

    /// The value bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<&Value> {
        self.values[v.0 as usize].as_ref()
    }

    /// Extends the binding with a service result tuple for `atom`:
    /// unifies every position (constants and bound variables must match
    /// the returned value under join equality; unbound variables are
    /// bound). Returns `None` when unification fails — the tuple is
    /// filtered out, implementing both output-constant selections and
    /// pipe-join equality.
    pub fn bind_atom(&self, atom: &Atom, result: &Tuple) -> Option<Binding> {
        self.bind_atom_where(atom, result, &NodePredicates::none())
    }

    /// [`Binding::bind_atom`], keeping the extended binding only when
    /// every predicate in `preds` holds over it — the predicates placed
    /// at an invoke node. Unification and the predicates are decided
    /// first, against the tuple in place, so a rejected tuple allocates
    /// nothing and an accepted one builds its row in a single allocation
    /// (none when it binds no new variable).
    pub fn bind_atom_where(
        &self,
        atom: &Atom,
        result: &Tuple,
        preds: &NodePredicates,
    ) -> Option<Binding> {
        debug_assert_eq!(atom.terms.len(), result.arity());
        let mut binds = false;
        for (i, term) in atom.terms.iter().enumerate() {
            let actual = result.get(i);
            let bound = match term {
                Term::Const(c) => Some(c),
                Term::Var(v) => match self.get(*v) {
                    Some(value) => Some(value),
                    // an unbound variable is bound by its first
                    // occurrence in the atom, which later ones must match
                    None => {
                        binds = true;
                        atom.terms[..i]
                            .iter()
                            .position(|t| t == term)
                            .map(|first| result.get(first))
                    }
                },
            };
            if bound.is_some_and(|b| !b.join_eq(actual)) {
                return None;
            }
        }
        if !preds.is_empty() {
            // the extended binding, read without building it
            let extended = |v: VarId| match self.get(v) {
                Some(value) => Some(value.clone()),
                None => atom
                    .terms
                    .iter()
                    .position(|t| t.as_var() == Some(v))
                    .map(|first| result.get(first).clone()),
            };
            if !preds.all(|p| p.eval(&extended) == Some(true)) {
                return None;
            }
        }
        if !binds {
            return Some(self.clone());
        }
        let mut values: Arc<[Option<Value>]> = Arc::from(&self.values[..]);
        let row = Arc::get_mut(&mut values).expect("a fresh row has no other owner");
        for (i, term) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                row[v.0 as usize].get_or_insert_with(|| result.get(i).clone());
            }
        }
        Some(Binding { values })
    }

    /// Joins two bindings from parallel branches: the pair survives when
    /// the `on` variables agree (the parallel-join condition — bound on
    /// both sides and join-equal, or unbound on both), every other
    /// variable bound on both sides agrees too, and every predicate in
    /// `preds` holds over the union. All of that is decided through a
    /// two-sided lookup *before* the joined row is built, so a rejected
    /// pair allocates nothing. In the result, `self`'s value wins where
    /// both sides bind a variable.
    pub fn join(&self, other: &Binding, on: &[VarId], preds: &NodePredicates) -> Option<Binding> {
        debug_assert_eq!(self.values.len(), other.values.len());
        if on
            .iter()
            .any(|&v| self.get(v).is_some() != other.get(v).is_some())
        {
            return None;
        }
        let pairs = || self.values.iter().zip(other.values.iter());
        if pairs().any(|(a, b)| matches!((a, b), (Some(a), Some(b)) if !a.join_eq(b))) {
            return None;
        }
        let joined = |v: VarId| self.get(v).or_else(|| other.get(v)).cloned();
        if !preds.all(|p| p.eval(&joined) == Some(true)) {
            return None;
        }
        Some(Binding {
            values: pairs()
                .map(|(a, b)| a.as_ref().or(b.as_ref()).cloned())
                .collect(),
        })
    }

    /// The predicate-less, allocate-then-check merge the joins used
    /// before [`Binding::join`] — kept as the reference the differential
    /// join oracle (and this module's own test) checks against.
    #[cfg(test)]
    pub(crate) fn merge(&self, other: &Binding, on: &[VarId]) -> Option<Binding> {
        debug_assert_eq!(self.values.len(), other.values.len());
        for v in on {
            match (self.get(*v), other.get(*v)) {
                (Some(a), Some(b)) if a.join_eq(b) => {}
                (None, None) => {}
                _ => return None,
            }
        }
        let mut out = self.values.to_vec();
        for (slot, val) in other.values.iter().enumerate() {
            match (&out[slot], val) {
                (None, Some(v)) => out[slot] = Some(v.clone()),
                (Some(a), Some(b)) if !a.join_eq(b) => return None,
                _ => {}
            }
        }
        Some(Binding { values: out.into() })
    }

    /// Evaluates a predicate under this binding (`None` = not yet
    /// applicable because a variable is unbound).
    pub fn eval_predicate(&self, p: &Predicate) -> Option<bool> {
        p.eval(&|v| self.get(v).cloned())
    }

    /// Projects the binding onto the query head, producing an answer
    /// tuple. Unbound head variables become `Null` (cannot happen for
    /// safe queries executed to completion).
    pub fn project_head(&self, query: &ConjunctiveQuery) -> Tuple {
        query
            .head
            .iter()
            .map(|v| self.get(*v).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// A binding over `nvars` variables with `vars[i]` bound to
    /// `row[i]` — how a materialized sub-result row (values in canonical
    /// variable order) replays into a subscriber's own variable space.
    pub fn from_row(nvars: usize, vars: &[VarId], row: &[Value]) -> Self {
        debug_assert_eq!(vars.len(), row.len());
        let mut values = vec![None; nvars];
        for (v, val) in vars.iter().zip(row) {
            values[v.0 as usize] = Some(val.clone());
        }
        Binding {
            values: values.into(),
        }
    }

    /// The values of `vars`, in order — the canonical row a materialized
    /// sub-result stores. Every listed variable must be bound (prefix
    /// invocations bind all their atoms' variables).
    pub fn to_row(&self, vars: &[VarId]) -> Vec<Value> {
        vars.iter()
            .map(|v| {
                self.get(*v)
                    .cloned()
                    .expect("prefix bindings bind every chain variable")
            })
            .collect()
    }

    /// Whether two bindings share the same underlying value storage —
    /// true exactly when one is an `Arc` clone of the other. This is
    /// the observability hook for the zero-copy replay guarantee: a
    /// materialized sub-result replayed to a subscriber in the same
    /// variable space must share storage with the stored row, never
    /// deep-copy it.
    pub fn shares_storage(&self, other: &Binding) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// The input-key values for an atom under an access pattern's input
    /// positions: constants inline, variables from the binding. `None`
    /// if an input variable is unbound (the plan is being executed out
    /// of order — a bug).
    pub fn input_key(&self, atom: &Atom, input_positions: &[usize]) -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(input_positions.len());
        self.input_key_into(atom, input_positions.iter().copied(), &mut key)
            .then_some(key)
    }

    /// [`Binding::input_key`] into a reused buffer: clears `key`, then
    /// fills it; `false` (with `key` partial) if an input is unbound.
    pub fn input_key_into(
        &self,
        atom: &Atom,
        input_positions: impl IntoIterator<Item = usize>,
        key: &mut Vec<Value>,
    ) -> bool {
        key.clear();
        for i in input_positions {
            let value = match &atom.terms[i] {
                Term::Const(c) => c,
                Term::Var(v) => match self.get(*v) {
                    Some(value) => value,
                    None => return false,
                },
            };
            key.push(value.clone());
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdq_model::query::{CmpOp, Expr};

    fn atom_xy() -> Atom {
        // s('k', X, Y)
        Atom {
            service: mdq_model::schema::ServiceId(0),
            terms: vec![
                Term::Const(Value::str("k")),
                Term::Var(VarId(0)),
                Term::Var(VarId(1)),
            ],
        }
    }

    #[test]
    fn bind_atom_binds_and_filters() {
        let b = Binding::empty(2);
        let atom = atom_xy();
        let t = Tuple::new(vec![Value::str("k"), Value::Int(1), Value::Int(2)]);
        let b2 = b.bind_atom(&atom, &t).expect("unifies");
        assert_eq!(b2.get(VarId(0)), Some(&Value::Int(1)));
        assert_eq!(b2.get(VarId(1)), Some(&Value::Int(2)));
        // constant mismatch filters
        let bad = Tuple::new(vec![Value::str("other"), Value::Int(1), Value::Int(2)]);
        assert!(b.bind_atom(&atom, &bad).is_none());
        // bound-variable mismatch filters (pipe-join equality)
        let t3 = Tuple::new(vec![Value::str("k"), Value::Int(9), Value::Int(2)]);
        assert!(b2.bind_atom(&atom, &t3).is_none());
        // agreeing rebind passes
        let t4 = Tuple::new(vec![Value::str("k"), Value::Int(1), Value::Int(2)]);
        assert!(b2.bind_atom(&atom, &t4).is_some());
    }

    #[test]
    fn repeated_variable_in_atom_must_agree() {
        // s(X, X, Y)
        let atom = Atom {
            service: mdq_model::schema::ServiceId(0),
            terms: vec![
                Term::Var(VarId(0)),
                Term::Var(VarId(0)),
                Term::Var(VarId(1)),
            ],
        };
        let b = Binding::empty(2);
        let ok = Tuple::new(vec![Value::Int(5), Value::Int(5), Value::Int(1)]);
        assert!(b.bind_atom(&atom, &ok).is_some());
        let bad = Tuple::new(vec![Value::Int(5), Value::Int(6), Value::Int(1)]);
        assert!(b.bind_atom(&atom, &bad).is_none());
    }

    #[test]
    fn merge_requires_agreement_on_shared() {
        let atom = atom_xy();
        let base = Binding::empty(2);
        let l = base
            .bind_atom(
                &atom,
                &Tuple::new(vec![Value::str("k"), Value::Int(1), Value::Int(2)]),
            )
            .expect("unifies");
        let mut r = Binding::empty(2);
        r = r
            .bind_atom(
                &Atom {
                    service: mdq_model::schema::ServiceId(1),
                    terms: vec![Term::Var(VarId(0))],
                },
                &Tuple::new(vec![Value::Int(1)]),
            )
            .expect("unifies");
        let merged = l.merge(&r, &[VarId(0)]).expect("agree on X");
        assert_eq!(merged.get(VarId(1)), Some(&Value::Int(2)));
        // disagreement on the join variable
        let r2 = Binding::empty(2)
            .bind_atom(
                &Atom {
                    service: mdq_model::schema::ServiceId(1),
                    terms: vec![Term::Var(VarId(0))],
                },
                &Tuple::new(vec![Value::Int(7)]),
            )
            .expect("unifies");
        assert!(l.merge(&r2, &[VarId(0)]).is_none());
    }

    #[test]
    fn predicate_and_projection() {
        let atom = atom_xy();
        let b = Binding::empty(2)
            .bind_atom(
                &atom,
                &Tuple::new(vec![Value::str("k"), Value::Int(3), Value::Int(4)]),
            )
            .expect("unifies");
        let p = Predicate::new(
            Expr::Add(Box::new(Expr::var(VarId(0))), Box::new(Expr::var(VarId(1)))),
            CmpOp::Lt,
            Expr::constant(10i64),
        );
        assert_eq!(b.eval_predicate(&p), Some(true));
        let mut q = ConjunctiveQuery::new("q");
        let x = q.var("X");
        let y = q.var("Y");
        q.head_var(y);
        q.head_var(x);
        let t = b.project_head(&q);
        assert_eq!(t.values(), &[Value::Int(4), Value::Int(3)]);
    }

    #[test]
    fn input_key_extraction() {
        let atom = atom_xy();
        let b = Binding::empty(2)
            .bind_atom(
                &atom,
                &Tuple::new(vec![Value::str("k"), Value::Int(3), Value::Int(4)]),
            )
            .expect("unifies");
        // inputs at positions 0 (const) and 1 (X)
        let key = b.input_key(&atom, &[0, 1]).expect("all bound");
        assert_eq!(key, vec![Value::str("k"), Value::Int(3)]);
        let fresh = Binding::empty(2);
        assert!(fresh.input_key(&atom, &[1]).is_none(), "X unbound");
    }
}
