//! The paper's running example (Fig. 2 schema, Fig. 3 query, Table 1
//! profiles), reusable across crates, tests and documentation — and the
//! synthetic chain, star and clique bodies the optimizer is scaled on.
//!
//! *"Find all database conferences in the next six months in locations
//! where the average temperature is 28 °C degrees and for which a cheap
//! travel solution including a luxury accommodation exists."* (§2.5)

use crate::parser::parse_query;
use crate::query::ConjunctiveQuery;
use crate::schema::{Schema, ServiceBuilder, ServiceProfile};
use crate::value::DomainKind;

/// Index of the `flight` atom in [`running_example_query`]'s body
/// (the paper lists the atoms in this order in Fig. 3).
pub const ATOM_FLIGHT: usize = 0;
/// Index of the `hotel` atom.
pub const ATOM_HOTEL: usize = 1;
/// Index of the `conf` atom.
pub const ATOM_CONF: usize = 2;
/// Index of the `weather` atom.
pub const ATOM_WEATHER: usize = 3;

/// Builds the running-example schema of Fig. 2 with the paper's access
/// patterns and the Table 1 profiles:
///
/// | service | kind   | patterns          | chunk | ξ    | τ (s) |
/// |---------|--------|-------------------|-------|------|-------|
/// | conf    | exact  | `ioooo`, `ooooi`  | —     | 20   | 1.2   |
/// | weather | exact  | `ioi`             | —     | 0.05 | 1.5   |
/// | flight  | search | `iiiiooo`         | 25    | —    | 9.7   |
/// | hotel   | search | `oiiiio`,`oooooo` | 5     | —    | 4.9   |
///
/// `weather`'s erspi of 0.05 folds in the `Temperature ≥ 28` selection,
/// per §3.4 ("selection predicates … are included for convenience in the
/// notion of erspi"); likewise `conf`'s 20 is per-topic.
pub fn running_example_schema() -> Schema {
    let mut s = Schema::new();
    // Domain cardinalities drive optimal-cache estimates; the world of the
    // §6 experiments has a few dozen candidate cities.
    s.domain_with("City", DomainKind::Str, Some(54.0));
    s.domain_with("Date", DomainKind::Date, Some(365.0));
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
        .profile(ServiceProfile::new(25.0, 9.7))
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
        .pattern("oooooo")
        .search()
        .chunked(5)
        .profile(ServiceProfile::new(5.0, 4.9))
        .register()
        .expect("hotel registers");
    s
}

/// Parses the Fig. 3 query against `schema` (which must contain the
/// services of [`running_example_schema`]).
///
/// Atom order matches the paper's listing: flight, hotel, conf, weather
/// (see the `ATOM_*` constants).
pub fn running_example_query(schema: &Schema) -> ConjunctiveQuery {
    let mut q = parse_query(
        "q(Conf, City, HPrice, FPrice, Start, StartTime, End, EndTime, Hotel) :- \
         flight('Milano', City, Start, End, StartTime, EndTime, FPrice), \
         hotel(Hotel, City, 'luxury', Start, End, HPrice), \
         conf('DB', Conf, Start, End, City), \
         weather(City, Temperature, Start), \
         Start >= '2007/3/14', End <= '2007/3/14' + 180, \
         Temperature >= 28, FPrice + HPrice < 2000.",
        schema,
    )
    .expect("the running example parses");
    q.validate(schema).expect("the running example is valid");
    // Selectivity hints (§3.4 folds selections into erspi): the date and
    // temperature selections are already included in the Table 1 profiles
    // of conf (ξ=20 per topic/semester) and weather (ξ=0.05), so their
    // hints are 1; the price predicate applies at the flight⋈hotel merge
    // with the σ=0.01 used in Fig. 8.
    q.predicates[0].selectivity_hint = Some(1.0); // Start ≥ …
    q.predicates[1].selectivity_hint = Some(1.0); // End ≤ …
    q.predicates[2].selectivity_hint = Some(1.0); // Temperature ≥ 28
    q.predicates[3].selectivity_hint = Some(0.01); // FPrice + HPrice < 2000
    q
}

/// The join-variable shapes of [`scale_body`]'s synthetic bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScaleShape {
    /// Atoms `i` and `i + 1` share one variable.
    Chain,
    /// Atom 0 shares one variable with every other atom.
    Star,
    /// Every two atoms share one variable.
    Clique,
}

impl ScaleShape {
    /// The three shapes.
    pub const ALL: [ScaleShape; 3] = [ScaleShape::Chain, ScaleShape::Star, ScaleShape::Clique];

    /// Lower-case name, as bench entries spell it.
    pub fn name(self) -> &'static str {
        match self {
            ScaleShape::Chain => "chain",
            ScaleShape::Star => "star",
            ScaleShape::Clique => "clique",
        }
    }

    /// Whether atoms `i` and `j` share a variable.
    fn joined(self, i: usize, j: usize) -> bool {
        i != j
            && match self {
                ScaleShape::Chain => i.abs_diff(j) == 1,
                ScaleShape::Star => i == 0 || j == 0,
                ScaleShape::Clique => true,
            }
    }
}

/// A synthetic body of `n ≥ 1` atoms, one service per atom, whose join
/// variables form `shape` — the optimizer's scaling workload.
///
/// Atom `i` calls service `s{i}` with the variables it shares with its
/// neighbours (`J{a}_{b}` for atoms `a < b`, over a 100-value domain) and
/// a ranking output `O{i}`. Odd atoms are chunked search services (pages
/// of 5, 10 or 15; every fourth with a decay bound), even atoms bulk
/// exact services (erspi 0.5, 2 or 8). Every atom `i ≡ 2 (mod 3)` with
/// a neighbour `i + 1` takes the variable they share as input, so it is
/// placed after a higher-indexed atom; atom 0 has a second, all-output
/// pattern beside one taking its first shared variable as input, which
/// makes two permissible pattern sequences. One predicate, `O0 + O{n-1}
/// < 100` (σ 0.1), joins the two ends.
///
/// # Panics
///
/// When `n` is 0.
pub fn scale_body(shape: ScaleShape, n: usize) -> (Schema, ConjunctiveQuery) {
    assert!(n > 0, "a body has at least one atom");
    let mut schema = Schema::new();
    schema.domain_with("J", DomainKind::Int, Some(100.0));
    let mut atoms = Vec::new();
    for i in 0..n {
        let shared: Vec<usize> = (0..n).filter(|&j| shape.joined(i, j)).collect();
        let var = |j: usize| format!("J{}_{}", i.min(j), i.max(j));
        let mut service = ServiceBuilder::new(&mut schema, format!("s{i}"));
        for &j in &shared {
            service = service.attr_kinded(&var(j), "J", DomainKind::Int);
        }
        service = service.attr_kinded(&format!("O{i}"), &format!("O{i}"), DomainKind::Int);
        let pattern = |input: Option<usize>| -> String {
            let mut p: String = shared
                .iter()
                .map(|&j| if Some(j) == input { 'i' } else { 'o' })
                .collect();
            p.push('o');
            p
        };
        let needs = (i % 3 == 2 && shared.contains(&(i + 1))).then_some(i + 1);
        service = service.pattern(&pattern(needs));
        if i == 0 && !shared.is_empty() {
            service = service.pattern(&pattern(Some(shared[0])));
        }
        service = if i % 2 == 1 {
            let chunk = 5 + 5 * (i as u32 % 3);
            let mut profile = ServiceProfile::new(f64::from(chunk), 1.0 + 0.5 * (i % 4) as f64);
            if i % 4 == 3 {
                profile = profile.with_decay(2 * u64::from(chunk));
            }
            service.search().chunked(chunk).profile(profile)
        } else {
            let erspi = [0.5, 2.0, 8.0][i % 3];
            service.profile(ServiceProfile::new(erspi, 0.5 + 0.25 * (i % 5) as f64))
        };
        service.register().expect("scale services register");
        let mut terms: Vec<String> = shared.iter().map(|&j| var(j)).collect();
        terms.push(format!("O{i}"));
        atoms.push(format!("s{i}({})", terms.join(", ")));
    }
    let text = format!("q(O0) :- {}, O0 + O{} < 100.", atoms.join(", "), n - 1);
    let mut query = parse_query(&text, &schema).expect("scale bodies parse");
    query.validate(&schema).expect("scale bodies are valid");
    query.predicates[0].selectivity_hint = Some(0.1);
    (schema, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::permissible_sequences;

    #[test]
    fn scale_bodies_are_executable() {
        for shape in ScaleShape::ALL {
            for n in 1..=9 {
                let (schema, query) = scale_body(shape, n);
                assert_eq!(query.atoms.len(), n);
                let sequences = permissible_sequences(&query, &schema).len();
                assert_eq!(sequences, if n == 1 { 1 } else { 2 }, "{shape:?}-{n}");
            }
        }
    }

    #[test]
    fn fixture_is_consistent() {
        let s = running_example_schema();
        let q = running_example_query(&s);
        assert_eq!(q.atoms.len(), 4);
        assert_eq!(s.service(q.atoms[ATOM_CONF].service).name.as_ref(), "conf");
        assert_eq!(
            s.service(q.atoms[ATOM_WEATHER].service).name.as_ref(),
            "weather"
        );
        assert_eq!(permissible_sequences(&q, &s).len(), 3);
    }
}
