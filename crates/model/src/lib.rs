//! # mdq-model — the formal model of multi-domain queries
//!
//! From-scratch implementation of the formal model of
//! *Braga, Ceri, Daniel, Martinenghi: "Optimization of Multi-Domain
//! Queries on the Web", VLDB 2008* (§3):
//!
//! * [`value`] — dynamically typed [`Value`](value::Value)s, ranked
//!   [`Tuple`](value::Tuple)s and abstract domains;
//! * [`schema`] — service signatures `s^α(A1, …, An)` with access
//!   patterns, exact/search classification, chunking and profiles
//!   (erspi ξ, response time τ, chunk size, decay);
//! * [`query`] — conjunctive queries with service atoms and comparison
//!   predicates, plus validation (safety, arity, domains);
//! * [`parser`] — the datalog-like concrete syntax of Fig. 3;
//! * [`binding`] — callability / executability / permissible pattern
//!   sequences (Def. 3.1) and supplier/precedence analysis;
//! * [`cogency`] — the `⪰IO` order and the "bound is better" heuristic
//!   (§4.1.1);
//! * [`fingerprint`] — template normalization: alpha-renaming- and
//!   predicate-order-invariant query fingerprints for plan caching;
//! * [`bitset`] — sets of small indices (variables, predicates,
//!   argument positions) in one inline word.
//!
//! Downstream crates build plans (`mdq-plan`), estimate costs
//! (`mdq-cost`), optimize (`mdq-optimizer`) and execute (`mdq-exec`) on
//! top of these types.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binding;
pub mod bitset;
pub mod cogency;
pub mod examples;
pub mod fingerprint;
pub mod parser;
pub mod query;
pub mod rng;
pub mod schema;
pub mod template;
pub mod value;

/// Convenient glob-import surface: `use mdq_model::prelude::*;`.
pub mod prelude {
    pub use crate::binding::{
        callable_after, executable, find_permissible, permissible_sequences, ApChoice, SupplierMap,
    };
    pub use crate::cogency::{exploration_order, most_cogent};
    pub use crate::fingerprint::{
        canonical_text, fingerprint, subplan_signature, PrefixStep, QueryFingerprint, SubplanSig,
        SubplanSignature,
    };
    pub use crate::parser::{parse_query, ParseError};
    pub use crate::query::{
        Atom, CmpOp, ConjunctiveQuery, Expr, Predicate, QueryError, Term, VarId,
    };
    pub use crate::schema::{
        AccessPattern, ArgMode, Chunking, Schema, SchemaError, ServiceBuilder, ServiceId,
        ServiceKind, ServiceProfile, ServiceSignature,
    };
    pub use crate::template::{QueryTemplate, TemplateError};
    pub use crate::value::{Date, DomainId, DomainInfo, DomainKind, Tuple, Value, F64};
}
