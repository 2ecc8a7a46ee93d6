//! Datalog-like query text syntax (Fig. 3).
//!
//! The grammar accepted is essentially the paper's notation:
//!
//! ```text
//! q(Conf, City, HPrice) :-
//!     flight('Milano', City, Start, End, StartTime, EndTime, FPrice),
//!     hotel(Hotel, City, 'luxury', Start, End, HPrice),
//!     conf('DB', Conf, Start, End, City),
//!     weather(City, Temperature, Start),
//!     Start >= '2007/3/14', End <= '2007/3/14' + 180,
//!     Temperature >= 28, FPrice + HPrice < 2000.
//! ```
//!
//! Conventions (§3.1): identifiers starting with an uppercase letter are
//! variables; lowercase identifiers, numbers and quoted strings are
//! constants. Quoted strings that parse as `YYYY/MM/DD` become
//! [`Date`] constants. Comparison predicates may use
//! `+`, `-`, `*` arithmetic on either side, and may carry a selectivity
//! hint as an `@σ` suffix (e.g. `FPrice + HPrice < 2000 @0.01`) — the
//! per-query-template estimates of §3.4.
//!
//! **What is borrowed.** The lexer turns the whole input into tokens
//! first, and an identifier or string token is a `&str` slice of the
//! input, copied nowhere: the parser reads each one in place, and only
//! what the query keeps — a variable's name, a string constant — is
//! allocated, once. Before building the query the parser counts, in the
//! tokens, the room its lists need. The result is the query the earlier
//! owned-token parser built (same variables in the same order, same
//! atoms, predicates and errors — `tests/golden/parsed_queries.txt`
//! holds both to it), in about a quarter of the allocations.
//!
//! Every slice the lexer takes starts and ends at an ASCII byte (a
//! quote, a digit, an identifier character), so no input — non-ASCII
//! text included — can make it slice inside a character.

use crate::query::{CmpOp, ConjunctiveQuery, Expr, Predicate, Term};
use crate::schema::Schema;
use crate::value::{Date, Value};
use std::fmt;

/// Parse errors with byte position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(position: usize, message: impl Into<String>) -> Self {
        ParseError {
            position,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// One token. Identifiers and string literals borrow the input.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str), // starts with letter or underscore
    Int(i64),
    Float(f64),
    Str(&'a str), // quoted, quotes stripped
    LParen,
    RParen,
    Comma,
    Dot,
    Turnstile, // :-
    Plus,
    Minus,
    Star,
    At,
    Cmp(CmpOp),
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'%' || (b == b'/' && self.bytes.get(self.pos + 1) == Some(&b'/')) {
                // line comment: % … or // …
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    /// One byte of punctuation: the token, past it.
    fn single(&mut self, tok: Tok<'a>) -> Tok<'a> {
        self.pos += 1;
        tok
    }

    /// `short`, or `long` when the next byte is `second`.
    fn maybe_two(&mut self, second: u8, long: Tok<'a>, short: Tok<'a>) -> Tok<'a> {
        if self.bytes.get(self.pos + 1) == Some(&second) {
            self.pos += 2;
            long
        } else {
            self.pos += 1;
            short
        }
    }

    fn next_tok(&mut self) -> Result<Option<(usize, Tok<'a>)>, ParseError> {
        self.skip_ws();
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let tok = match self.bytes[self.pos] {
            b'(' => self.single(Tok::LParen),
            b')' => self.single(Tok::RParen),
            b',' => self.single(Tok::Comma),
            b'.' => self.single(Tok::Dot),
            b'+' => self.single(Tok::Plus),
            b'*' => self.single(Tok::Star),
            b'@' => self.single(Tok::At),
            b'-' => self.single(Tok::Minus),
            b'=' => self.single(Tok::Cmp(CmpOp::Eq)),
            b'<' => self.maybe_two(b'=', Tok::Cmp(CmpOp::Le), Tok::Cmp(CmpOp::Lt)),
            b'>' => self.maybe_two(b'=', Tok::Cmp(CmpOp::Ge), Tok::Cmp(CmpOp::Gt)),
            b':' if self.bytes.get(self.pos + 1) == Some(&b'-') => {
                self.pos += 2;
                Tok::Turnstile
            }
            b':' => return Err(ParseError::new(start, "expected `:-`")),
            b'!' if self.bytes.get(self.pos + 1) == Some(&b'=') => {
                self.pos += 2;
                Tok::Cmp(CmpOp::Ne)
            }
            b'!' => return Err(ParseError::new(start, "expected `!=`")),
            quote @ (b'\'' | b'"') => {
                let body = start + 1;
                let Some(len) = self.bytes[body..].iter().position(|&b| b == quote) else {
                    return Err(ParseError::new(start, "unterminated string literal"));
                };
                self.pos = body + len + 1; // past the closing quote
                Tok::Str(&self.src[body..body + len])
            }
            b'0'..=b'9' => self.number(start)?,
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let len = self.bytes[start..]
                    .iter()
                    .position(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
                    .unwrap_or(self.bytes.len() - start);
                self.pos = start + len;
                Tok::Ident(&self.src[start..self.pos])
            }
            _ => {
                // report the character, not its first byte: `start` is
                // a character boundary (every token ends at an ASCII
                // byte), and `get` would refuse it if it were not
                let c = self
                    .src
                    .get(start..)
                    .and_then(|rest| rest.chars().next())
                    .unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(ParseError::new(
                    start,
                    format!("unexpected character `{c}`"),
                ));
            }
        };
        Ok(Some((start, tok)))
    }

    /// An integer, or a float with one `.` between digits.
    fn number(&mut self, start: usize) -> Result<Tok<'a>, ParseError> {
        let mut end = start;
        let mut is_float = false;
        while end < self.bytes.len() {
            match self.bytes[end] {
                b'0'..=b'9' => end += 1,
                b'.' if !is_float
                    && end + 1 < self.bytes.len()
                    && self.bytes[end + 1].is_ascii_digit() =>
                {
                    is_float = true;
                    end += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..end];
        self.pos = end;
        if is_float {
            // a numeral too long for an f64 is an error, not infinity
            match text.parse::<f64>() {
                Ok(v) if v.is_finite() => Ok(Tok::Float(v)),
                _ => Err(ParseError::new(start, format!("invalid float `{text}`"))),
            }
        } else {
            text.parse()
                .map(Tok::Int)
                .map_err(|_| ParseError::new(start, format!("invalid integer `{text}`")))
        }
    }
}

/// Every token of `src`, or its first lexical error. Queries run about
/// three bytes per token, so one allocation usually holds them all; a
/// long input grows the list as it lexes instead of reserving for it.
fn lex(src: &str) -> Result<Vec<(usize, Tok<'_>)>, ParseError> {
    let mut lx = Lexer::new(src);
    let mut toks = Vec::with_capacity((src.len() / 3 + 8).min(1024));
    while let Some(t) = lx.next_tok()? {
        toks.push(t);
    }
    Ok(toks)
}

fn is_var_name(id: &str) -> bool {
    id.starts_with(|c: char| c.is_ascii_uppercase())
}

/// Room the query's lists need, counted in the tokens: `(variables,
/// head, atoms, predicates)`. Upper bounds — a variable named twice
/// counts twice — so building the query never grows a list.
fn capacities(toks: &[(usize, Tok<'_>)]) -> (usize, usize, usize, usize) {
    let (mut vars, mut head, mut calls, mut predicates) = (0, 0, 0, 0);
    // the head is what the first `(`…`)` holds
    let mut in_head = None;
    let mut prev = None;
    for &(_, t) in toks {
        match t {
            Tok::Ident(id) => {
                vars += usize::from(is_var_name(id));
                head += usize::from(in_head == Some(true));
            }
            // every `name(` but the head's opens an atom
            Tok::LParen => {
                calls += usize::from(matches!(prev, Some(Tok::Ident(_))));
                in_head.get_or_insert(true);
            }
            Tok::RParen => in_head = Some(false),
            Tok::Cmp(_) => predicates += 1,
            _ => {}
        }
        prev = Some(t);
    }
    (vars, head, calls.saturating_sub(1), predicates)
}

struct Parser<'a, 's> {
    toks: Vec<(usize, Tok<'a>)>,
    i: usize,
    schema: &'s Schema,
    query: ConjunctiveQuery,
}

impl<'a> Parser<'a, '_> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.i).map(|&(_, t)| t)
    }

    fn pos(&self) -> usize {
        self.toks.get(self.i).map(|(p, _)| *p).unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        self.i += 1;
        t
    }

    fn expect(&mut self, want: Tok<'_>, what: &str) -> Result<(), ParseError> {
        let p = self.pos();
        match self.bump() {
            Some(t) if t == want => Ok(()),
            _ => Err(ParseError::new(p, format!("expected {what}"))),
        }
    }

    fn const_from_str(s: &str) -> Value {
        match Date::parse(s) {
            Some(d) => Value::Date(d),
            None => Value::str(s),
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        let p = self.pos();
        match self.bump() {
            Some(Tok::Ident(id)) => {
                if is_var_name(id) {
                    Ok(Term::Var(self.query.var(id)))
                } else if id == "_" {
                    Err(ParseError::new(p, "anonymous variables are not supported"))
                } else {
                    Ok(Term::Const(Value::str(id)))
                }
            }
            Some(Tok::Int(v)) => Ok(Term::Const(Value::Int(v))),
            Some(Tok::Float(v)) => Ok(Term::Const(Value::float(v))),
            Some(Tok::Str(s)) => Ok(Term::Const(Self::const_from_str(s))),
            Some(Tok::Minus) => match self.bump() {
                Some(Tok::Int(v)) => Ok(Term::Const(Value::Int(-v))),
                Some(Tok::Float(v)) => Ok(Term::Const(Value::float(-v))),
                _ => Err(ParseError::new(p, "expected number after `-`")),
            },
            _ => Err(ParseError::new(p, "expected term")),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        Ok(Expr::Term(self.parse_term()?))
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        // factor ( (*) factor )*  with +,- at lower precedence
        let mut lhs = self.parse_mul()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.bump();
                    let rhs = self.parse_mul()?;
                    lhs = Expr::Add(Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Minus) => {
                    self.bump();
                    let rhs = self.parse_mul()?;
                    lhs = Expr::Sub(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_primary()?;
        while matches!(self.peek(), Some(Tok::Star)) {
            self.bump();
            let rhs = self.parse_primary()?;
            lhs = Expr::Mul(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// An item is an atom (a lowercase `ident(`) or a predicate.
    fn parse_item(&mut self) -> Result<(), ParseError> {
        match (self.toks.get(self.i), self.toks.get(self.i + 1)) {
            (Some(&(p, Tok::Ident(name))), Some((_, Tok::LParen)))
                if name.starts_with(|c: char| c.is_ascii_lowercase()) =>
            {
                self.i += 1;
                self.parse_atom(p, name)
            }
            _ => self.parse_predicate(),
        }
    }

    /// The atom `name(…)`, its name read at `p`.
    fn parse_atom(&mut self, p: usize, name: &str) -> Result<(), ParseError> {
        let service = self
            .schema
            .service_by_name(name)
            .ok_or_else(|| ParseError::new(p, format!("unknown service `{name}`")))?;
        self.expect(Tok::LParen, "`(`")?;
        let mut terms = Vec::new();
        if !matches!(self.peek(), Some(Tok::RParen)) {
            // one term per comma up to the `)`, plus one
            let commas = self.toks[self.i..]
                .iter()
                .take_while(|(_, t)| *t != Tok::RParen)
                .filter(|(_, t)| *t == Tok::Comma)
                .count();
            terms.reserve_exact(commas + 1);
            loop {
                terms.push(self.parse_term()?);
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        self.query.atom(service, terms);
        Ok(())
    }

    fn parse_predicate(&mut self) -> Result<(), ParseError> {
        let lhs = self.parse_expr()?;
        let p = self.pos();
        let op = match self.bump() {
            Some(Tok::Cmp(op)) => op,
            _ => return Err(ParseError::new(p, "expected comparison operator")),
        };
        let rhs = self.parse_expr()?;
        let mut pred = Predicate::new(lhs, op, rhs);
        if matches!(self.peek(), Some(Tok::At)) {
            self.bump();
            let p = self.pos();
            let sigma = match self.bump() {
                Some(Tok::Float(v)) => v,
                Some(Tok::Int(v)) => v as f64,
                _ => return Err(ParseError::new(p, "expected selectivity after `@`")),
            };
            if !(0.0..=1.0).contains(&sigma) {
                return Err(ParseError::new(p, "selectivity must be in [0, 1]"));
            }
            pred = pred.with_selectivity(sigma);
        }
        self.query.predicate(pred);
        Ok(())
    }

    /// The rest of the query, after its name.
    fn parse_query(mut self) -> Result<ConjunctiveQuery, ParseError> {
        self.expect(Tok::LParen, "`(`")?;
        if !matches!(self.peek(), Some(Tok::RParen)) {
            loop {
                let p = self.pos();
                match self.bump() {
                    Some(Tok::Ident(id)) if is_var_name(id) => {
                        let v = self.query.var(id);
                        self.query.head_var(v);
                    }
                    _ => return Err(ParseError::new(p, "expected head variable")),
                }
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        self.expect(Tok::Turnstile, "`:-`")?;
        loop {
            self.parse_item()?;
            match self.peek() {
                Some(Tok::Comma) => {
                    self.bump();
                }
                Some(Tok::Dot) => {
                    self.bump();
                    break;
                }
                None => break,
                _ => {
                    return Err(ParseError::new(self.pos(), "expected `,` or `.`"));
                }
            }
        }
        if self.peek().is_some() {
            return Err(ParseError::new(self.pos(), "trailing input after query"));
        }
        Ok(self.query)
    }
}

/// Parses a conjunctive query in the paper's datalog-like syntax, resolving
/// service names against `schema`. The returned query is *not* yet
/// validated — call [`ConjunctiveQuery::validate`].
pub fn parse_query(src: &str, schema: &Schema) -> Result<ConjunctiveQuery, ParseError> {
    let toks = lex(src)?;
    let name = match toks.first() {
        Some(&(_, Tok::Ident(name))) => name,
        first => {
            let p = first.map(|(p, _)| *p).unwrap_or(usize::MAX);
            return Err(ParseError::new(p, "expected query name"));
        }
    };
    let (vars, head, atoms, predicates) = capacities(&toks);
    let parser = Parser {
        query: ConjunctiveQuery::with_capacity(name, vars, head, atoms, predicates),
        toks,
        i: 1,
        schema,
    };
    parser.parse_query()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryError;
    use crate::schema::{ServiceBuilder, ServiceProfile};
    use crate::value::DomainKind;

    fn schema() -> Schema {
        let mut s = Schema::new();
        ServiceBuilder::new(&mut s, "conf")
            .attr_kinded("Topic", "Topic", DomainKind::Str)
            .attr_kinded("Name", "ConfName", DomainKind::Str)
            .attr_kinded("Start", "Date", DomainKind::Date)
            .attr_kinded("End", "Date", DomainKind::Date)
            .attr_kinded("City", "City", DomainKind::Str)
            .pattern("ioooo")
            .pattern("ooooi")
            .profile(ServiceProfile::new(20.0, 1.2))
            .register()
            .expect("conf registers");
        ServiceBuilder::new(&mut s, "weather")
            .attr_kinded("City", "City", DomainKind::Str)
            .attr_kinded("Temperature", "Temp", DomainKind::Float)
            .attr_kinded("Date", "Date", DomainKind::Date)
            .pattern("ioi")
            .profile(ServiceProfile::new(0.05, 1.5))
            .register()
            .expect("weather registers");
        s
    }

    #[test]
    fn parses_simple_query() {
        let s = schema();
        let q = parse_query(
            "q(Conf, City) :- conf('DB', Conf, Start, End, City), \
             weather(City, Temp, Start), Temp >= 28, Start >= '2007/3/14'.",
            &s,
        )
        .expect("parses");
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.head.len(), 2);
        q.validate(&s).expect("valid");
        // date constant recognized
        match &q.predicates[1].rhs {
            Expr::Term(Term::Const(Value::Date(d))) => assert_eq!(d.ymd(), (2007, 3, 14)),
            other => panic!("expected date constant, got {other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_predicates() {
        let s = schema();
        let q = parse_query(
            "q(C) :- conf('DB', C, S, E, City), E <= S + 180, S >= '2007/3/14'.",
            &s,
        )
        .expect("parses");
        assert_eq!(q.predicates.len(), 2);
        match &q.predicates[0].rhs {
            Expr::Add(_, _) => {}
            other => panic!("expected Add, got {other:?}"),
        }
    }

    #[test]
    fn lowercase_idents_are_constants() {
        let s = schema();
        let q = parse_query("q(C) :- conf(db, C, S, E, City).", &s).expect("parses");
        assert_eq!(q.atoms[0].terms[0], Term::Const(Value::str("db")));
    }

    #[test]
    fn unknown_service_is_error() {
        let s = schema();
        let err = parse_query("q(X) :- nope(X).", &s).expect_err("should fail");
        assert!(err.message.contains("unknown service"), "{err}");
    }

    #[test]
    fn arity_mismatch_caught_by_validate() {
        let s = schema();
        let q = parse_query("q(C) :- conf('DB', C).", &s).expect("parses");
        assert!(matches!(
            q.validate(&s),
            Err(QueryError::AtomArityMismatch { .. })
        ));
    }

    #[test]
    fn lexer_errors() {
        let s = schema();
        assert!(parse_query("q(X) :- conf('DB", &s).is_err()); // unterminated
        assert!(parse_query("q(X) : conf('DB')", &s).is_err()); // bad turnstile
        assert!(parse_query("q(X) :- conf('DB', X, S, E, C) # 1", &s).is_err());
    }

    #[test]
    fn comments_and_whitespace() {
        let s = schema();
        let q = parse_query(
            "% a comment\nq(C) :- // another\n  conf('DB', C, S, E, City).",
            &s,
        )
        .expect("parses");
        assert_eq!(q.atoms.len(), 1);
    }

    #[test]
    fn selectivity_hints() {
        let s = schema();
        let q = parse_query(
            "q(C) :- conf('DB', C, S, E, City), weather(City, T, S), \
             T >= 28 @1.0, S >= '2007/3/14' @ 0.5.",
            &s,
        )
        .expect("parses");
        assert_eq!(q.predicates[0].selectivity_hint, Some(1.0));
        assert_eq!(q.predicates[1].selectivity_hint, Some(0.5));
        assert!(parse_query("q(C) :- conf('DB', C, S, E, X), S >= 1 @2.5.", &s).is_err());
        assert!(parse_query("q(C) :- conf('DB', C, S, E, X), S >= 1 @x.", &s).is_err());
    }

    #[test]
    fn negative_numbers() {
        let s = schema();
        let q = parse_query(
            "q(C) :- weather(City, T, D), T >= -5.5, conf('DB', C, S, E, City).",
            &s,
        )
        .expect("parses");
        match &q.predicates[0].rhs {
            Expr::Term(Term::Const(v)) => assert_eq!(*v, Value::float(-5.5)),
            other => panic!("expected const, got {other:?}"),
        }
    }

    #[test]
    fn running_example_full_query_parses() {
        let mut s = schema();
        ServiceBuilder::new(&mut s, "flight")
            .attr_kinded("From", "City", DomainKind::Str)
            .attr_kinded("To", "City", DomainKind::Str)
            .attr_kinded("OutDate", "Date", DomainKind::Date)
            .attr_kinded("RetDate", "Date", DomainKind::Date)
            .attr_kinded("OutTime", "Time", DomainKind::Str)
            .attr_kinded("RetTime", "Time", DomainKind::Str)
            .attr_kinded("Price", "Price", DomainKind::Float)
            .pattern("iiiiooo")
            .search()
            .chunked(25)
            .register()
            .expect("flight registers");
        ServiceBuilder::new(&mut s, "hotel")
            .attr_kinded("Name", "HotelName", DomainKind::Str)
            .attr_kinded("City", "City", DomainKind::Str)
            .attr_kinded("Category", "Category", DomainKind::Str)
            .attr_kinded("CheckInDate", "Date", DomainKind::Date)
            .attr_kinded("CheckOutDate", "Date", DomainKind::Date)
            .attr_kinded("Price", "Price", DomainKind::Float)
            .pattern("oiiiio")
            .search()
            .chunked(5)
            .register()
            .expect("hotel registers");
        let q = parse_query(
            "q(Conf, City, HPrice, FPrice, Start, StartTime, End, EndTime, Hotel) :- \
             flight('Milano', City, Start, End, StartTime, EndTime, FPrice), \
             hotel(Hotel, City, 'luxury', Start, End, HPrice), \
             conf('DB', Conf, Start, End, City), \
             weather(City, Temperature, Start), \
             Start >= '2007/3/14', End <= '2007/3/14' + 180, \
             Temperature >= 28, FPrice + HPrice < 2000.",
            &s,
        )
        .expect("parses");
        q.validate(&s).expect("valid");
        assert_eq!(q.atoms.len(), 4);
        assert_eq!(q.predicates.len(), 4);
        assert_eq!(q.head.len(), 9);
        // round-trips through display and re-parse
        let text = format!("{}", q.display(&s));
        let q2 = parse_query(&text, &s).expect("round-trip parses");
        assert_eq!(q2.atoms.len(), 4);
        assert_eq!(q2.predicates.len(), 4);
    }
}
