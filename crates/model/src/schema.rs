//! Service signatures, access patterns and schemas (§3.1).
//!
//! A *schema* is a set of service signatures. Each signature
//! `s^α(A1, …, An)` carries the service name, the positional abstract
//! domains, the set of feasible access patterns `α`, and the behavioural
//! classification the optimizer relies on: exact vs. search (§2.1),
//! bulk vs. chunked, and the profile parameters `ξ` (erspi), `τ` (average
//! response time), chunk size and decay.

use crate::value::{DomainId, DomainInfo, DomainKind};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Marks one argument position of an access pattern as input or output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArgMode {
    /// The field must be filled by the caller (an `i` in the paper).
    In,
    /// The field is produced by the service (an `o` in the paper).
    Out,
}

/// An access pattern: a sequence of [`ArgMode`]s, one per argument (§3.1).
///
/// `AccessPattern::parse("iooo")` builds the pattern for a 4-ary service
/// whose first argument is input.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AccessPattern(Vec<ArgMode>);

impl AccessPattern {
    /// Builds a pattern from explicit modes.
    pub fn new(modes: Vec<ArgMode>) -> Self {
        AccessPattern(modes)
    }

    /// Parses a pattern from the paper's `i`/`o` string syntax.
    ///
    /// Returns `None` on any character other than `i`/`o` (case
    /// insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        s.chars()
            .map(|c| match c.to_ascii_lowercase() {
                'i' => Some(ArgMode::In),
                'o' => Some(ArgMode::Out),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .map(AccessPattern)
    }

    /// Number of argument positions.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Mode of position `i`.
    #[inline]
    pub fn mode(&self, i: usize) -> ArgMode {
        self.0[i]
    }

    /// Indices of input positions.
    pub fn inputs(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, m)| **m == ArgMode::In)
            .map(|(i, _)| i)
    }

    /// Indices of output positions.
    pub fn outputs(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, m)| **m == ArgMode::Out)
            .map(|(i, _)| i)
    }

    /// Number of input positions.
    pub fn input_count(&self) -> usize {
        self.inputs().count()
    }

    /// The cogency preorder `⪰IO` of §4.1.1: `self` is *at least as cogent*
    /// as `other` when every field marked input in `other` is also input in
    /// `self`.
    ///
    /// Patterns of different arity are incomparable (returns `false`).
    pub(crate) fn at_least_as_cogent(&self, other: &AccessPattern) -> bool {
        self.arity() == other.arity() && other.inputs().all(|i| self.mode(i) == ArgMode::In)
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.0 {
            match m {
                ArgMode::In => write!(f, "i")?,
                ArgMode::Out => write!(f, "o")?,
            }
        }
        Ok(())
    }
}

/// Classification of services by answer semantics (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// Returns a single tuple or an unranked set ("relational" behaviour).
    Exact,
    /// Returns tuples in (opaque) relevance order; normally highly
    /// proliferative, so retrieval must be halted.
    Search,
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceKind::Exact => write!(f, "exact"),
            ServiceKind::Search => write!(f, "search"),
        }
    }
}

/// Result delivery mode (§2.1): all-at-once or paged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Chunking {
    /// All results delivered by a single request.
    Bulk,
    /// Results delivered in pages of `chunk_size` tuples per *fetch*.
    Chunked {
        /// Tuples returned by each sequential fetch (the paper's `cs`).
        chunk_size: u32,
    },
}

impl Chunking {
    /// The chunk size if the service is chunked.
    pub fn chunk_size(&self) -> Option<u32> {
        match self {
            Chunking::Bulk => None,
            Chunking::Chunked { chunk_size } => Some(*chunk_size),
        }
    }

    /// True for [`Chunking::Chunked`].
    pub fn is_chunked(&self) -> bool {
        matches!(self, Chunking::Chunked { .. })
    }
}

/// Profile parameters estimated at service registration time (§5):
/// the statistics the optimizer's cost model consumes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceProfile {
    /// `ξ` — expected result size per invocation (§2.1). For chunked
    /// services the estimator uses chunk size × fetches instead, but the
    /// erspi still informs heuristic ordering.
    pub erspi: f64,
    /// `τ` — average response time per invocation/fetch, in seconds.
    pub response_time: f64,
    /// `m(n)` — monetary/abstract cost charged per invocation, used by the
    /// sum cost metric. Defaults to 1 (request-response counting).
    pub invocation_cost: f64,
    /// `d` — decay: number of tuples after which ranking is known to drop
    /// below the threshold of interest (§3.1), if known. Bounds the number
    /// of useful fetches by `⌈d / cs⌉`.
    pub decay: Option<u64>,
    /// `φ` — observed failure rate per request-response (errors,
    /// timeouts and throttling over attempts), learned by the sampling
    /// profiler at registration/re-estimation time (§5). The cost
    /// metrics inflate a flaky service's effective response time by the
    /// expected attempts per successful call, so re-planning penalizes
    /// unreliable services.
    pub failure_rate: f64,
}

impl Default for ServiceProfile {
    fn default() -> Self {
        ServiceProfile {
            erspi: 1.0,
            response_time: 1.0,
            invocation_cost: 1.0,
            decay: None,
            failure_rate: 0.0,
        }
    }
}

impl ServiceProfile {
    /// A profile with the given erspi and response time and default cost.
    pub fn new(erspi: f64, response_time: f64) -> Self {
        ServiceProfile {
            erspi,
            response_time,
            ..Default::default()
        }
    }

    /// Sets the decay bound `d`.
    pub fn with_decay(mut self, decay: u64) -> Self {
        self.decay = Some(decay);
        self
    }

    /// Expected request-responses per *successful* call given the
    /// observed failure rate: `1 / (1 − φ)` (geometric retries).
    pub fn expected_attempts(&self) -> f64 {
        1.0 / (1.0 - self.failure_rate.clamp(0.0, 0.95))
    }

    /// Response time `τ` inflated by the expected attempts — what a
    /// resilient client actually waits per successful call.
    pub fn effective_response_time(&self) -> f64 {
        self.response_time * self.expected_attempts()
    }

    /// Whether an invocation is *proliferative* (ξ > 1) as opposed to
    /// *selective* (ξ ≤ 1) (§2.1, after \[16\]).
    pub fn is_proliferative(&self) -> bool {
        self.erspi > 1.0
    }
}

/// Identifier of a service interned in a [`Schema`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub u32);

/// The signature `s^α(A1, …, An)` of a service (§3.1) plus its behavioural
/// profile.
#[derive(Clone, Debug)]
pub struct ServiceSignature {
    /// Service name (`conf`, `flight`, …).
    pub name: Arc<str>,
    /// Positional abstract domains.
    pub domains: Vec<DomainId>,
    /// Positional attribute names, for display only (the model itself is
    /// positional, see §3.1 footnote 2).
    pub attr_names: Vec<Arc<str>>,
    /// Feasible access patterns; must be non-empty and all of the
    /// signature's arity.
    pub patterns: Vec<AccessPattern>,
    /// Exact or search.
    pub kind: ServiceKind,
    /// Bulk or chunked delivery.
    pub chunking: Chunking,
    /// Registered statistics.
    pub profile: ServiceProfile,
}

impl ServiceSignature {
    /// Arity `n` of the signature.
    #[inline]
    pub fn arity(&self) -> usize {
        self.domains.len()
    }

    /// The chunk size, if chunked.
    pub fn chunk_size(&self) -> Option<u32> {
        self.chunking.chunk_size()
    }

    /// Maximum useful fetch count per input tuple derived from decay
    /// (§4.3.2): after `⌈d / cs⌉` fetches no relevant data is returned.
    pub fn max_fetches_from_decay(&self) -> Option<u64> {
        match (self.profile.decay, self.chunking.chunk_size()) {
            (Some(d), Some(cs)) if cs > 0 => Some(d.div_ceil(cs as u64).max(1)),
            _ => None,
        }
    }
}

/// Errors raised while assembling a [`Schema`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// Two services registered under the same name.
    DuplicateService(String),
    /// A signature with no access pattern.
    NoAccessPattern(String),
    /// An access pattern whose arity differs from the signature's.
    PatternArityMismatch {
        /// Offending service.
        service: String,
        /// Expected arity (number of domains).
        expected: usize,
        /// Pattern arity found.
        found: usize,
    },
    /// Attribute-name list length differs from the domain list length.
    AttrArityMismatch(String),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateService(s) => write!(f, "duplicate service `{s}`"),
            SchemaError::NoAccessPattern(s) => {
                write!(f, "service `{s}` has no access pattern")
            }
            SchemaError::PatternArityMismatch {
                service,
                expected,
                found,
            } => write!(
                f,
                "service `{service}`: access pattern arity {found} does not match signature arity {expected}"
            ),
            SchemaError::AttrArityMismatch(s) => write!(
                f,
                "service `{s}`: attribute name count differs from domain count"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A set of service signatures plus the interned abstract domains.
#[derive(Clone, Debug, Default)]
pub struct Schema {
    services: Vec<ServiceSignature>,
    by_name: HashMap<Arc<str>, ServiceId>,
    domains: Vec<DomainInfo>,
    domains_by_name: HashMap<Arc<str>, DomainId>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Interns a domain by name, creating it with [`DomainKind::Any`] if
    /// new, and returns its id.
    pub fn domain(&mut self, name: impl AsRef<str>) -> DomainId {
        self.domain_with(name, DomainKind::Any, None)
    }

    /// Interns a domain with an explicit kind and optional cardinality.
    /// Re-registering an existing name updates kind/cardinality when they
    /// were previously unset.
    pub fn domain_with(
        &mut self,
        name: impl AsRef<str>,
        kind: DomainKind,
        cardinality: Option<f64>,
    ) -> DomainId {
        let name: Arc<str> = Arc::from(name.as_ref());
        if let Some(&id) = self.domains_by_name.get(&name) {
            let info = &mut self.domains[id.0 as usize];
            if info.kind == DomainKind::Any {
                info.kind = kind;
            }
            if info.cardinality.is_none() {
                info.cardinality = cardinality;
            }
            return id;
        }
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(DomainInfo {
            name: name.clone(),
            kind,
            cardinality,
        });
        self.domains_by_name.insert(name, id);
        id
    }

    /// Registers a service signature, validating pattern arities.
    fn add_service(&mut self, sig: ServiceSignature) -> Result<ServiceId, SchemaError> {
        if self.by_name.contains_key(&sig.name) {
            return Err(SchemaError::DuplicateService(sig.name.to_string()));
        }
        if sig.patterns.is_empty() {
            return Err(SchemaError::NoAccessPattern(sig.name.to_string()));
        }
        for p in &sig.patterns {
            if p.arity() != sig.arity() {
                return Err(SchemaError::PatternArityMismatch {
                    service: sig.name.to_string(),
                    expected: sig.arity(),
                    found: p.arity(),
                });
            }
        }
        if sig.attr_names.len() != sig.domains.len() {
            return Err(SchemaError::AttrArityMismatch(sig.name.to_string()));
        }
        let id = ServiceId(self.services.len() as u32);
        self.by_name.insert(sig.name.clone(), id);
        self.services.push(sig);
        Ok(id)
    }

    /// Looks a service up by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.by_name.get(name).copied()
    }

    /// The signature of `id`.
    #[inline]
    pub fn service(&self, id: ServiceId) -> &ServiceSignature {
        &self.services[id.0 as usize]
    }

    /// Mutable signature access (used by the profiler to install measured
    /// statistics).
    pub fn service_mut(&mut self, id: ServiceId) -> &mut ServiceSignature {
        &mut self.services[id.0 as usize]
    }

    /// All registered services with their ids.
    pub fn services(&self) -> impl Iterator<Item = (ServiceId, &ServiceSignature)> {
        self.services
            .iter()
            .enumerate()
            .map(|(i, s)| (ServiceId(i as u32), s))
    }

    /// Domain metadata.
    #[inline]
    pub fn domain_info(&self, id: DomainId) -> &DomainInfo {
        &self.domains[id.0 as usize]
    }

    /// Looks a domain up by name.
    pub fn domain_by_name(&self, name: &str) -> Option<DomainId> {
        self.domains_by_name.get(name).copied()
    }

    /// Overwrites the distinct-value cardinality estimate of a domain
    /// (used by the profiler after sampling, §5 "service registration").
    pub fn set_domain_cardinality(&mut self, id: DomainId, cardinality: f64) {
        self.domains[id.0 as usize].cardinality = Some(cardinality);
    }

    /// All interned domains.
    pub fn domains(&self) -> impl Iterator<Item = (DomainId, &DomainInfo)> {
        self.domains
            .iter()
            .enumerate()
            .map(|(i, d)| (DomainId(i as u32), d))
    }
}

/// Fluent builder for [`ServiceSignature`], the main entry point for
/// registering services. See the crate examples.
pub struct ServiceBuilder<'a> {
    schema: &'a mut Schema,
    name: String,
    domains: Vec<DomainId>,
    attr_names: Vec<Arc<str>>,
    patterns: Vec<AccessPattern>,
    kind: ServiceKind,
    chunking: Chunking,
    profile: ServiceProfile,
}

impl<'a> ServiceBuilder<'a> {
    /// Starts building a service with the given name into `schema`.
    pub fn new(schema: &'a mut Schema, name: impl AsRef<str>) -> Self {
        ServiceBuilder {
            schema,
            name: name.as_ref().to_string(),
            domains: Vec::new(),
            attr_names: Vec::new(),
            patterns: Vec::new(),
            kind: ServiceKind::Exact,
            chunking: Chunking::Bulk,
            profile: ServiceProfile::default(),
        }
    }

    /// Adds an attribute with the given display name and domain name
    /// (domain interned with kind [`DomainKind::Any`] when new).
    pub fn attr(mut self, attr: &str, domain: &str) -> Self {
        let d = self.schema.domain(domain);
        self.domains.push(d);
        self.attr_names.push(Arc::from(attr));
        self
    }

    /// Adds an attribute with an explicitly kinded domain.
    pub fn attr_kinded(mut self, attr: &str, domain: &str, kind: DomainKind) -> Self {
        let d = self.schema.domain_with(domain, kind, None);
        self.domains.push(d);
        self.attr_names.push(Arc::from(attr));
        self
    }

    /// Adds a feasible access pattern from `i`/`o` syntax.
    ///
    /// # Panics
    /// Panics if the string contains other characters; pattern arity is
    /// validated on [`ServiceBuilder::register`].
    pub fn pattern(mut self, p: &str) -> Self {
        self.patterns
            .push(AccessPattern::parse(p).unwrap_or_else(|| panic!("invalid pattern `{p}`")));
        self
    }

    /// Marks the service as a search service (ranked results).
    pub fn search(mut self) -> Self {
        self.kind = ServiceKind::Search;
        self
    }

    /// Marks the service as chunked with the given page size.
    pub fn chunked(mut self, chunk_size: u32) -> Self {
        self.chunking = Chunking::Chunked { chunk_size };
        self
    }

    /// Installs profile statistics.
    pub fn profile(mut self, profile: ServiceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Finalises and registers the signature.
    pub fn register(self) -> Result<ServiceId, SchemaError> {
        self.schema.add_service(ServiceSignature {
            name: Arc::from(self.name.as_str()),
            domains: self.domains,
            attr_names: self.attr_names,
            patterns: self.patterns,
            kind: self.kind,
            chunking: self.chunking,
            profile: self.profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
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
        ServiceBuilder::new(&mut s, "flight")
            .attr("From", "City")
            .attr("To", "City")
            .attr("OutDate", "Date")
            .attr("RetDate", "Date")
            .attr("OutTime", "Time")
            .attr("RetTime", "Time")
            .attr("Price", "Price")
            .pattern("iiiioOO".to_lowercase().as_str())
            .search()
            .chunked(25)
            .profile(ServiceProfile::new(25.0, 9.7))
            .register()
            .expect("flight registers");
        s
    }

    #[test]
    fn pattern_parse_and_display() {
        let p = AccessPattern::parse("ioio").expect("parses");
        assert_eq!(p.arity(), 4);
        assert_eq!(p.inputs().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(p.outputs().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(format!("{p}"), "ioio");
        assert!(AccessPattern::parse("iox").is_none());
    }

    #[test]
    fn cogency_order() {
        let all_in = AccessPattern::parse("iii").expect("parses");
        let some = AccessPattern::parse("ioi").expect("parses");
        let none = AccessPattern::parse("ooo").expect("parses");
        assert!(all_in.at_least_as_cogent(&some));
        assert!(!some.at_least_as_cogent(&all_in));
        assert!(some.at_least_as_cogent(&none));
        assert!(!none.at_least_as_cogent(&some));
        assert!(all_in.at_least_as_cogent(&all_in));
        // incomparable pair
        let a = AccessPattern::parse("io").expect("parses");
        let b = AccessPattern::parse("oi").expect("parses");
        assert!(!a.at_least_as_cogent(&b) && !b.at_least_as_cogent(&a));
    }

    #[test]
    fn schema_registration_and_lookup() {
        let s = sample_schema();
        let conf = s.service_by_name("conf").expect("conf exists");
        assert_eq!(s.service(conf).arity(), 5);
        assert_eq!(s.service(conf).patterns.len(), 2);
        assert_eq!(s.service(conf).kind, ServiceKind::Exact);
        let flight = s.service_by_name("flight").expect("flight exists");
        assert_eq!(s.service(flight).chunk_size(), Some(25));
        assert_eq!(s.service(flight).kind, ServiceKind::Search);
        assert!(s.service_by_name("nope").is_none());
        // City domain shared across services
        let city = s.domain_by_name("City").expect("city domain");
        assert_eq!(s.service(conf).domains[4], city);
        assert_eq!(s.service(flight).domains[0], city);
    }

    #[test]
    fn schema_validation_errors() {
        let mut s = Schema::new();
        let sig = ServiceSignature {
            name: Arc::from("bad"),
            domains: vec![],
            attr_names: vec![],
            patterns: vec![],
            kind: ServiceKind::Exact,
            chunking: Chunking::Bulk,
            profile: ServiceProfile::default(),
        };
        assert_eq!(
            s.add_service(sig),
            Err(SchemaError::NoAccessPattern("bad".into()))
        );
        let d = s.domain("D");
        let sig = ServiceSignature {
            name: Arc::from("bad2"),
            domains: vec![d],
            attr_names: vec![Arc::from("A")],
            patterns: vec![AccessPattern::parse("io").expect("parses")],
            kind: ServiceKind::Exact,
            chunking: Chunking::Bulk,
            profile: ServiceProfile::default(),
        };
        assert!(matches!(
            s.add_service(sig),
            Err(SchemaError::PatternArityMismatch { .. })
        ));
    }

    #[test]
    fn decay_bounds_fetches() {
        let mut sig = ServiceSignature {
            name: Arc::from("s"),
            domains: vec![],
            attr_names: vec![],
            patterns: vec![AccessPattern::new(vec![])],
            kind: ServiceKind::Search,
            chunking: Chunking::Chunked { chunk_size: 5 },
            profile: ServiceProfile::new(1.0, 1.0).with_decay(12),
        };
        assert_eq!(sig.max_fetches_from_decay(), Some(3));
        sig.profile.decay = Some(3);
        assert_eq!(sig.max_fetches_from_decay(), Some(1));
        sig.profile.decay = None;
        assert_eq!(sig.max_fetches_from_decay(), None);
        sig.chunking = Chunking::Bulk;
        sig.profile.decay = Some(3);
        assert_eq!(sig.max_fetches_from_decay(), None);
    }

    #[test]
    fn failure_rate_inflates_effective_time() {
        let healthy = ServiceProfile::new(1.0, 4.0);
        assert!((healthy.expected_attempts() - 1.0).abs() < 1e-12);
        assert!((healthy.effective_response_time() - 4.0).abs() < 1e-12);
        let flaky = ServiceProfile {
            failure_rate: 0.5,
            ..healthy
        };
        assert!((flaky.expected_attempts() - 2.0).abs() < 1e-12);
        assert!((flaky.effective_response_time() - 8.0).abs() < 1e-12);
        // dead services clamp to finite costs
        let dead = ServiceProfile {
            failure_rate: 1.0,
            ..healthy
        };
        assert!(dead.expected_attempts().is_finite());
    }

    #[test]
    fn proliferative_classification() {
        assert!(ServiceProfile::new(20.0, 1.0).is_proliferative());
        assert!(!ServiceProfile::new(0.05, 1.0).is_proliferative());
        assert!(!ServiceProfile::new(1.0, 1.0).is_proliferative());
    }
}
