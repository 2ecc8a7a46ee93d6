//! Query templates (§2.2).
//!
//! "Constant values appearing in a query are either presented by the
//! user through a form or set within a query template; optimization is
//! performed for each query template" — and a user may "change the
//! choice of keywords and resubmit a new query with the same template".
//!
//! A [`QueryTemplate`] is query text with `$name` placeholders in
//! constant positions:
//!
//! ```text
//! q(Conf, City) :- conf($topic, Conf, S, E, City),
//!                  weather(City, T, S), T >= $min_temp.
//! ```
//!
//! Instantiating substitutes properly quoted literals and parses the
//! result; the same template can be instantiated many times while the
//! optimizer's plan (chosen per template) is reused.

use crate::parser::{parse_query, ParseError};
use crate::query::{ConjunctiveQuery, Literal};
use crate::schema::Schema;
use crate::value::Value;
use std::collections::HashSet;
use std::fmt;

/// A parsed-on-demand query template with `$name` placeholders.
#[derive(Clone, Debug)]
pub struct QueryTemplate {
    text: String,
    placeholders: Vec<String>,
}

/// Errors raised while instantiating a template.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TemplateError {
    /// A placeholder had no binding.
    Missing(String),
    /// A binding does not correspond to any placeholder.
    Unknown(String),
    /// The instantiated text failed to parse.
    Parse(ParseError),
    /// A placeholder name is empty or not an identifier.
    BadPlaceholder(String),
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::Missing(n) => write!(f, "no binding for placeholder `${n}`"),
            TemplateError::Unknown(n) => write!(f, "no placeholder `${n}` in the template"),
            TemplateError::Parse(e) => write!(f, "instantiated template: {e}"),
            TemplateError::BadPlaceholder(n) => {
                write!(f, "bad placeholder name `{n}` (identifiers only)")
            }
        }
    }
}

impl std::error::Error for TemplateError {}

impl From<ParseError> for TemplateError {
    fn from(e: ParseError) -> Self {
        TemplateError::Parse(e)
    }
}

impl QueryTemplate {
    /// Creates a template from text, scanning for `$name` placeholders.
    pub fn new(text: impl Into<String>) -> Result<Self, TemplateError> {
        let text = text.into();
        let mut placeholders = Vec::new();
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'$' {
                let start = i + 1;
                let mut end = start;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                if end == start {
                    return Err(TemplateError::BadPlaceholder("$".into()));
                }
                let name = text[start..end].to_string();
                if !placeholders.contains(&name) {
                    placeholders.push(name);
                }
                i = end;
            } else {
                i += 1;
            }
        }
        Ok(QueryTemplate { text, placeholders })
    }

    /// The placeholder names, in first-occurrence order.
    pub fn placeholders(&self) -> &[String] {
        &self.placeholders
    }

    /// Instantiates the template with the given bindings and parses the
    /// resulting query against `schema`.
    pub fn instantiate(
        &self,
        schema: &Schema,
        bindings: &[(&str, Value)],
    ) -> Result<ConjunctiveQuery, TemplateError> {
        let given: HashSet<&str> = bindings.iter().map(|(n, _)| *n).collect();
        for p in &self.placeholders {
            if !given.contains(p.as_str()) {
                return Err(TemplateError::Missing(p.clone()));
            }
        }
        for (n, _) in bindings {
            if !self.placeholders.iter().any(|p| p == n) {
                return Err(TemplateError::Unknown((*n).to_string()));
            }
        }
        // substitute longest names first so `$ab` never clobbers `$abc`
        let mut ordered: Vec<&(&str, Value)> = bindings.iter().collect();
        ordered.sort_by_key(|(n, _)| std::cmp::Reverse(n.len()));
        let mut text = self.text.clone();
        for (name, value) in ordered {
            let needle = format!("${name}");
            text = text.replace(&needle, &literal(value));
        }
        Ok(parse_query(&text, schema)?)
    }
}

/// Formats a value as query-literal text.
fn literal(v: &Value) -> String {
    Literal(v).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::running_example_schema;
    use crate::value::Date;

    const TEXT: &str = "q(Conf, City) :- conf($topic, Conf, S, E, City), \
                        weather(City, T, S), T >= $min_temp, S >= $from.";

    #[test]
    fn scans_placeholders() {
        let t = QueryTemplate::new(TEXT).expect("builds");
        assert_eq!(t.placeholders(), &["topic", "min_temp", "from"]);
        assert!(QueryTemplate::new("q(X) :- s($, X).").is_err());
    }

    #[test]
    fn instantiates_with_typed_literals() {
        let schema = running_example_schema();
        let t = QueryTemplate::new(TEXT).expect("builds");
        let q = t
            .instantiate(
                &schema,
                &[
                    ("topic", Value::str("DB")),
                    ("min_temp", Value::Int(28)),
                    ("from", Value::Date(Date::from_ymd(2007, 3, 14))),
                ],
            )
            .expect("instantiates");
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.predicates.len(), 2);
        let text = format!("{}", q.display(&schema));
        assert!(text.contains("'DB'"), "{text}");
        assert!(text.contains("28"), "{text}");
        assert!(text.contains("2007/03/14"), "{text}");
    }

    #[test]
    fn missing_and_unknown_bindings() {
        let schema = running_example_schema();
        let t = QueryTemplate::new(TEXT).expect("builds");
        match t.instantiate(&schema, &[("topic", Value::str("DB"))]) {
            Err(TemplateError::Missing(name)) => assert_eq!(name, "min_temp"),
            other => panic!("expected Missing, got {other:?}"),
        }
        let all = [
            ("topic", Value::str("DB")),
            ("min_temp", Value::Int(28)),
            ("from", Value::Date(Date::from_ymd(2007, 3, 14))),
            ("ghost", Value::Int(1)),
        ];
        match t.instantiate(&schema, &all) {
            Err(TemplateError::Unknown(name)) => assert_eq!(name, "ghost"),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn prefix_placeholder_names_do_not_clobber() {
        let mut schema = Schema::new();
        crate::schema::ServiceBuilder::new(&mut schema, "s")
            .attr_kinded("A", "DA", crate::value::DomainKind::Str)
            .attr_kinded("B", "DB2", crate::value::DomainKind::Str)
            .pattern("io")
            .register()
            .expect("registers");
        let t = QueryTemplate::new("q(B) :- s($a, B), B != $ab.").expect("builds");
        let q = t
            .instantiate(
                &schema,
                &[("a", Value::str("one")), ("ab", Value::str("two"))],
            )
            .expect("instantiates");
        let text = format!("{}", q.display(&schema));
        assert!(text.contains("'one'"), "{text}");
        assert!(text.contains("'two'"), "{text}");
    }

    #[test]
    fn float_literals_reparse_as_floats() {
        assert_eq!(literal(&Value::float(2000.0)), "2000.0");
        assert_eq!(literal(&Value::float(0.5)), "0.5");
        assert_eq!(literal(&Value::Int(7)), "7");
    }
}
