//! Conjunctive queries over services (§3.1).
//!
//! A query `q(X̄) ← conj(X̄, Ȳ)` is a head variable list plus a body of
//! service atoms and comparison predicates. Atoms reference services of a
//! [`Schema`]; predicates are comparisons between arithmetic expressions
//! over variables and constants (the running example uses both
//! `Temperature ≥ 28` and `FPrice + HPrice < 2000`).

use crate::bitset::BitSet;
use crate::schema::{Schema, ServiceId};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of a variable interned in a [`ConjunctiveQuery`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// A term: variable or constant (§3.1).
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// A query variable.
    Var(VarId),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// The variable id if this term is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }
}

/// A service atom `s(t1, …, tn)` in a query body.
#[derive(Clone, Debug, PartialEq)]
pub struct Atom {
    /// The service invoked by this atom.
    pub service: ServiceId,
    /// Positional terms, one per signature argument.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Variables occurring in this atom (deduplicated, in first-occurrence
    /// order).
    pub fn vars(&self) -> Vec<VarId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for t in &self.terms {
            if let Term::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        }
        out
    }
}

/// Comparison operators for selection predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the operator on an ordering outcome.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic expression over terms, as allowed in selection predicates.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A bare term.
    Term(Term),
    /// Sum of two expressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of two expressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of two expressions.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A variable expression.
    pub fn var(v: VarId) -> Expr {
        Expr::Term(Term::Var(v))
    }

    /// A constant expression.
    pub fn constant(v: impl Into<Value>) -> Expr {
        Expr::Term(Term::Const(v.into()))
    }

    /// Variables mentioned by the expression (deduplicated).
    pub fn vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        self.all_vars(&mut |v| {
            if !out.contains(&v) {
                out.push(v);
            }
            true
        });
    }

    /// Whether `f` holds for every variable occurrence, left to right;
    /// stops at the first that fails. Allocates nothing.
    pub fn all_vars(&self, f: &mut impl FnMut(VarId) -> bool) -> bool {
        match self {
            Expr::Term(Term::Var(v)) => f(*v),
            Expr::Term(Term::Const(_)) => true,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => a.all_vars(f) && b.all_vars(f),
        }
    }

    /// Evaluates the expression under a variable assignment. Returns `None`
    /// if a variable is unbound or arithmetic is not defined for the
    /// operand kinds.
    pub fn eval(&self, lookup: &dyn Fn(VarId) -> Option<Value>) -> Option<Value> {
        match self {
            Expr::Term(Term::Const(c)) => Some(c.clone()),
            Expr::Term(Term::Var(v)) => lookup(*v),
            Expr::Add(a, b) => a.eval(lookup)?.checked_add(&b.eval(lookup)?),
            Expr::Sub(a, b) => a.eval(lookup)?.checked_sub(&b.eval(lookup)?),
            Expr::Mul(a, b) => a.eval(lookup)?.checked_mul(&b.eval(lookup)?),
        }
    }
}

/// A selection predicate `lhs op rhs` applied during query execution.
///
/// The optimizer folds predicate selectivities into erspi estimates
/// (§3.4: "The selection predicates applied to all service invocations are
/// included for convenience in the notion of erspi"), but the engine also
/// evaluates them exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Predicate {
    /// Left-hand expression.
    pub lhs: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand expression.
    pub rhs: Expr,
    /// Optional user/profiler-supplied selectivity estimate σ_p ∈ (0, 1].
    pub selectivity_hint: Option<f64>,
}

impl Predicate {
    /// Builds a predicate without a selectivity hint.
    pub fn new(lhs: Expr, op: CmpOp, rhs: Expr) -> Self {
        Predicate {
            lhs,
            op,
            rhs,
            selectivity_hint: None,
        }
    }

    /// Attaches a selectivity estimate.
    pub fn with_selectivity(mut self, sigma: f64) -> Self {
        self.selectivity_hint = Some(sigma);
        self
    }

    /// Variables mentioned on either side.
    pub fn vars(&self) -> Vec<VarId> {
        let mut v = self.lhs.vars();
        for x in self.rhs.vars() {
            if !v.contains(&x) {
                v.push(x);
            }
        }
        v
    }

    /// Whether `f` holds for every variable occurrence, left side first
    /// ([`Expr::all_vars`]) — [`Predicate::vars`] without the `Vec`.
    pub fn all_vars(&self, mut f: impl FnMut(VarId) -> bool) -> bool {
        self.lhs.all_vars(&mut f) && self.rhs.all_vars(&mut f)
    }

    /// Evaluates the predicate; unbound variables or incomparable values
    /// make the predicate *pending* (`None`), which executors treat as
    /// "not yet applicable" rather than failed.
    pub fn eval(&self, lookup: &dyn Fn(VarId) -> Option<Value>) -> Option<bool> {
        let l = self.lhs.eval(lookup)?;
        let r = self.rhs.eval(lookup)?;
        Some(self.op.eval(l.compare(&r)?))
    }
}

/// A conjunctive query `q(X̄) ← B1, …, Bn, p1, …, pm` (§3.1).
#[derive(Clone, Debug)]
pub struct ConjunctiveQuery {
    /// Query name (head predicate symbol).
    pub name: Arc<str>,
    /// Head variables, in output order.
    pub head: Vec<VarId>,
    /// Service atoms of the body.
    pub atoms: Vec<Atom>,
    /// Comparison predicates of the body.
    pub predicates: Vec<Predicate>,
    var_names: Vec<Arc<str>>,
}

/// Errors raised by query validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A head variable does not occur in any body atom (safety, §3.1).
    UnsafeHeadVar(String),
    /// A predicate variable does not occur in any body atom.
    UnsafePredicateVar(String),
    /// An atom's term count differs from its service signature arity.
    AtomArityMismatch {
        /// Offending service name.
        service: String,
        /// Expected arity.
        expected: usize,
        /// Found term count.
        found: usize,
    },
    /// A constant's kind does not inhabit the declared abstract domain.
    DomainMismatch {
        /// Offending service name.
        service: String,
        /// Argument position.
        position: usize,
    },
    /// The body mentions no atom at all.
    EmptyBody,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnsafeHeadVar(v) => {
                write!(
                    f,
                    "head variable `{v}` does not occur in the body (unsafe query)"
                )
            }
            QueryError::UnsafePredicateVar(v) => {
                write!(f, "predicate variable `{v}` does not occur in any atom")
            }
            QueryError::AtomArityMismatch {
                service,
                expected,
                found,
            } => write!(
                f,
                "atom for `{service}` has {found} terms, signature arity is {expected}"
            ),
            QueryError::DomainMismatch { service, position } => write!(
                f,
                "constant at position {position} of `{service}` does not inhabit its domain"
            ),
            QueryError::EmptyBody => write!(f, "query body has no atoms"),
        }
    }
}

impl std::error::Error for QueryError {}

impl ConjunctiveQuery {
    /// Creates an empty query with the given head-predicate name.
    pub fn new(name: impl AsRef<str>) -> Self {
        ConjunctiveQuery {
            name: Arc::from(name.as_ref()),
            head: Vec::new(),
            atoms: Vec::new(),
            predicates: Vec::new(),
            var_names: Vec::new(),
        }
    }

    /// An empty query with room for the given numbers of variables,
    /// head variables, atoms and predicates — what the parser counted
    /// in the tokens before building the query.
    pub(crate) fn with_capacity(
        name: &str,
        vars: usize,
        head: usize,
        atoms: usize,
        predicates: usize,
    ) -> Self {
        ConjunctiveQuery {
            name: Arc::from(name),
            head: Vec::with_capacity(head),
            atoms: Vec::with_capacity(atoms),
            predicates: Vec::with_capacity(predicates),
            var_names: Vec::with_capacity(vars),
        }
    }

    /// Interns a variable by name and returns its id (idempotent).
    pub fn var(&mut self, name: impl AsRef<str>) -> VarId {
        let name = name.as_ref();
        if let Some(i) = self.var_names.iter().position(|n| &**n == name) {
            return VarId(i as u32);
        }
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(Arc::from(name));
        id
    }

    /// Looks up an interned variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| &**n == name)
            .map(|i| VarId(i as u32))
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// Number of interned variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Appends a head variable.
    pub fn head_var(&mut self, v: VarId) {
        self.head.push(v);
    }

    /// Appends a body atom and returns its index.
    pub fn atom(&mut self, service: ServiceId, terms: Vec<Term>) -> usize {
        self.atoms.push(Atom { service, terms });
        self.atoms.len() - 1
    }

    /// Appends a selection predicate.
    pub fn predicate(&mut self, p: Predicate) {
        self.predicates.push(p);
    }

    /// Validates the query against `schema`: arity and domain checks plus
    /// the safety condition of §3.1 (every head and predicate variable
    /// occurs in some body atom).
    pub fn validate(&self, schema: &Schema) -> Result<(), QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::EmptyBody);
        }
        let mut body_vars = BitSet::new();
        for a in &self.atoms {
            let sig = schema.service(a.service);
            if a.terms.len() != sig.arity() {
                return Err(QueryError::AtomArityMismatch {
                    service: sig.name.to_string(),
                    expected: sig.arity(),
                    found: a.terms.len(),
                });
            }
            for (i, t) in a.terms.iter().enumerate() {
                match t {
                    Term::Var(v) => {
                        body_vars.insert(v.0 as usize);
                    }
                    Term::Const(c) => {
                        let dom = schema.domain_info(sig.domains[i]);
                        if !dom.kind.admits(c) {
                            return Err(QueryError::DomainMismatch {
                                service: sig.name.to_string(),
                                position: i,
                            });
                        }
                    }
                }
            }
        }
        let in_body = |v: VarId| body_vars.contains(v.0 as usize);
        if let Some(v) = self.head.iter().find(|v| !in_body(**v)) {
            return Err(QueryError::UnsafeHeadVar(self.var_name(*v).to_string()));
        }
        for p in &self.predicates {
            let mut unsafe_var = None;
            p.all_vars(|v| {
                let safe = in_body(v);
                if !safe {
                    unsafe_var = Some(v);
                }
                safe
            });
            if let Some(v) = unsafe_var {
                return Err(QueryError::UnsafePredicateVar(self.var_name(v).to_string()));
            }
        }
        Ok(())
    }

    /// Variables shared between two atoms — the implicit equi-join
    /// condition (§5.2: "the use of the same variable in the query
    /// indicates an equi-join").
    pub fn shared_vars(&self, a: usize, b: usize) -> Vec<VarId> {
        let va = self.atoms[a].vars();
        let vb: HashSet<VarId> = self.atoms[b].vars().into_iter().collect();
        va.into_iter().filter(|v| vb.contains(v)).collect()
    }

    /// For each variable, the indices of atoms mentioning it.
    pub fn var_occurrences(&self) -> HashMap<VarId, Vec<usize>> {
        let mut map: HashMap<VarId, Vec<usize>> = HashMap::new();
        for (i, a) in self.atoms.iter().enumerate() {
            for v in a.vars() {
                map.entry(v).or_default().push(i);
            }
        }
        map
    }

    /// Pretty-prints the query in the datalog-like syntax of Fig. 3,
    /// resolving service names through `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> QueryDisplay<'a> {
        QueryDisplay { q: self, schema }
    }

    fn fmt_term(&self, t: &Term, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match t {
            Term::Var(v) => write!(f, "{}", self.var_name(*v)),
            Term::Const(c) => write!(f, "{}", Literal(c)),
        }
    }

    fn fmt_expr(&self, e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match e {
            Expr::Term(t) => self.fmt_term(t, f),
            Expr::Add(a, b) => {
                self.fmt_expr(a, f)?;
                write!(f, " + ")?;
                self.fmt_expr(b, f)
            }
            Expr::Sub(a, b) => {
                self.fmt_expr(a, f)?;
                write!(f, " - ")?;
                self.fmt_expr(b, f)
            }
            Expr::Mul(a, b) => {
                self.fmt_expr(a, f)?;
                write!(f, " * ")?;
                self.fmt_expr(b, f)
            }
        }
    }
}

/// A constant as query text that parses back to the same value: a
/// string in single quotes (in double quotes when it holds a single
/// quote), a date quoted, a float with its decimal point.
///
/// Every constant the parser produces has such a spelling — a literal
/// delimited by one kind of quote cannot contain it — so a parsed
/// query's [`display`](ConjunctiveQuery::display) parses back to an
/// identical query.
pub struct Literal<'a>(pub &'a Value);

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Str(s) if s.contains('\'') => write!(f, "\"{s}\""),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Date(d) => write!(f, "'{d}'"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.get().is_finite() && x.get().fract() == 0.0 => {
                write!(f, "{:.1}", x.get())
            }
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => f.write_str("''"),
        }
    }
}

/// Display adapter returned by [`ConjunctiveQuery::display`]: the
/// query's text, selectivity hints included.
pub struct QueryDisplay<'a> {
    q: &'a ConjunctiveQuery,
    schema: &'a Schema,
}

impl fmt::Display for QueryDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let q = self.q;
        write!(f, "{}(", q.name)?;
        for (i, v) in q.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", q.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        for (i, a) in q.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", self.schema.service(a.service).name)?;
            for (i, t) in a.terms.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                q.fmt_term(t, f)?;
            }
            write!(f, ")")?;
        }
        for (i, p) in q.predicates.iter().enumerate() {
            if i > 0 || !q.atoms.is_empty() {
                write!(f, ", ")?;
            }
            q.fmt_expr(&p.lhs, f)?;
            write!(f, " {} ", p.op)?;
            q.fmt_expr(&p.rhs, f)?;
            if let Some(sigma) = p.selectivity_hint {
                write!(f, " @{sigma}")?;
            }
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ServiceBuilder, ServiceProfile};
    use crate::value::DomainKind;

    fn tiny_schema() -> (Schema, ServiceId, ServiceId) {
        let mut s = Schema::new();
        let a = ServiceBuilder::new(&mut s, "a")
            .attr_kinded("X", "DX", DomainKind::Str)
            .attr_kinded("Y", "DY", DomainKind::Int)
            .pattern("io")
            .profile(ServiceProfile::new(2.0, 1.0))
            .register()
            .expect("a registers");
        let b = ServiceBuilder::new(&mut s, "b")
            .attr_kinded("Y", "DY", DomainKind::Int)
            .attr_kinded("Z", "DZ", DomainKind::Float)
            .pattern("io")
            .pattern("oo")
            .register()
            .expect("b registers");
        (s, a, b)
    }

    #[test]
    fn build_and_validate() {
        let (s, a, b) = tiny_schema();
        let mut q = ConjunctiveQuery::new("q");
        let y = q.var("Y");
        let z = q.var("Z");
        q.head_var(z);
        q.atom(a, vec![Term::Const(Value::str("k")), Term::Var(y)]);
        q.atom(b, vec![Term::Var(y), Term::Var(z)]);
        q.predicate(Predicate::new(Expr::var(z), CmpOp::Gt, Expr::constant(1.5)));
        q.validate(&s).expect("valid");
        assert_eq!(q.shared_vars(0, 1), vec![y]);
        let occ = q.var_occurrences();
        assert_eq!(occ[&y], vec![0, 1]);
        assert_eq!(occ[&z], vec![1]);
    }

    #[test]
    fn safety_violations() {
        let (s, a, _) = tiny_schema();
        let mut q = ConjunctiveQuery::new("q");
        let y = q.var("Y");
        let w = q.var("W");
        q.head_var(w);
        q.atom(a, vec![Term::Const(Value::str("k")), Term::Var(y)]);
        assert!(matches!(q.validate(&s), Err(QueryError::UnsafeHeadVar(_))));
        let mut q2 = ConjunctiveQuery::new("q");
        let y2 = q2.var("Y");
        q2.head_var(y2);
        q2.atom(a, vec![Term::Const(Value::str("k")), Term::Var(y2)]);
        let ghost = q2.var("Ghost");
        q2.predicate(Predicate::new(
            Expr::var(ghost),
            CmpOp::Eq,
            Expr::constant(0i64),
        ));
        assert!(matches!(
            q2.validate(&s),
            Err(QueryError::UnsafePredicateVar(_))
        ));
    }

    #[test]
    fn arity_and_domain_checks() {
        let (s, a, _) = tiny_schema();
        let mut q = ConjunctiveQuery::new("q");
        let y = q.var("Y");
        q.head_var(y);
        q.atom(a, vec![Term::Var(y)]);
        assert!(matches!(
            q.validate(&s),
            Err(QueryError::AtomArityMismatch { .. })
        ));
        let mut q2 = ConjunctiveQuery::new("q");
        let y2 = q2.var("Y");
        q2.head_var(y2);
        // position 1 expects Int domain, give it a string constant
        q2.atom(a, vec![Term::Var(y2), Term::Const(Value::str("oops"))]);
        // also makes head unsafe? no: y2 occurs at position 0. Domain error fires first.
        assert!(matches!(
            q2.validate(&s),
            Err(QueryError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn predicate_eval() {
        let mut q = ConjunctiveQuery::new("q");
        let x = q.var("X");
        let y = q.var("Y");
        let p = Predicate::new(
            Expr::Add(Box::new(Expr::var(x)), Box::new(Expr::var(y))),
            CmpOp::Lt,
            Expr::constant(2000i64),
        );
        let lookup = |bind: &[(VarId, Value)]| {
            let bind = bind.to_vec();
            move |v: VarId| {
                bind.iter()
                    .find(|(u, _)| *u == v)
                    .map(|(_, val)| val.clone())
            }
        };
        assert_eq!(
            p.eval(&lookup(&[(x, Value::Int(900)), (y, Value::Int(800))])),
            Some(true)
        );
        assert_eq!(
            p.eval(&lookup(&[(x, Value::Int(1900)), (y, Value::Int(800))])),
            Some(false)
        );
        assert_eq!(p.eval(&lookup(&[(x, Value::Int(900))])), None);
        assert_eq!(p.vars(), vec![x, y]);
    }

    #[test]
    fn display_roundtrip_shape() {
        let (s, a, b) = tiny_schema();
        let mut q = ConjunctiveQuery::new("q");
        let y = q.var("Y");
        let z = q.var("Z");
        q.head_var(z);
        q.atom(a, vec![Term::Const(Value::str("k")), Term::Var(y)]);
        q.atom(b, vec![Term::Var(y), Term::Var(z)]);
        q.predicate(Predicate::new(
            Expr::var(z),
            CmpOp::Ge,
            Expr::constant(1i64),
        ));
        let text = format!("{}", q.display(&s));
        assert_eq!(text, "q(Z) :- a('k', Y), b(Y, Z), Z >= 1.");
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Le.eval(Less));
        assert!(!CmpOp::Le.eval(Greater));
        assert!(CmpOp::Ne.eval(Less));
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
    }
}
