//! The cogency order on access-pattern sequences and the "bound is
//! better" heuristic (§4.1.1).
//!
//! Sequence `α ⪰IO β` holds when pattern `α[i]` is at least as cogent as
//! `β[i]` for every atom `i` — i.e. `α` binds at least the fields `β`
//! binds everywhere. The heuristic prefers the *most cogent* permissible
//! sequences because more bound fields mean smaller answer sets, fewer
//! requests and smaller intermediate results (the analogue of pushing
//! selections towards data sources).

use crate::binding::ApChoice;
use crate::query::ConjunctiveQuery;
use crate::schema::Schema;
use std::cmp::Ordering;

/// Returns `true` when `a ⪰IO b` (pointwise at-least-as-cogent).
pub(crate) fn at_least_as_cogent(
    query: &ConjunctiveQuery,
    schema: &Schema,
    a: &ApChoice,
    b: &ApChoice,
) -> bool {
    debug_assert_eq!(a.len(), b.len());
    query.atoms.iter().enumerate().all(|(i, atom)| {
        let patterns = &schema.service(atom.service).patterns;
        patterns[a.pattern_of(i)].at_least_as_cogent(&patterns[b.pattern_of(i)])
    })
}

/// Strict variant: `a ≻IO b`.
fn more_cogent(query: &ConjunctiveQuery, schema: &Schema, a: &ApChoice, b: &ApChoice) -> bool {
    at_least_as_cogent(query, schema, a, b) && !at_least_as_cogent(query, schema, b, a)
}

/// Partial comparison in the cogency preorder.
pub fn compare(
    query: &ConjunctiveQuery,
    schema: &Schema,
    a: &ApChoice,
    b: &ApChoice,
) -> Option<Ordering> {
    match (
        at_least_as_cogent(query, schema, a, b),
        at_least_as_cogent(query, schema, b, a),
    ) {
        (true, true) => Some(Ordering::Equal),
        (true, false) => Some(Ordering::Greater),
        (false, true) => Some(Ordering::Less),
        (false, false) => None,
    }
}

/// Filters `candidates` down to the *most cogent* ones: those not strictly
/// dominated by another candidate (§4.1.1: "a sequence is most cogent
/// whenever there is no other sequence α′ with α′ ≻IO α").
pub fn most_cogent(
    query: &ConjunctiveQuery,
    schema: &Schema,
    candidates: &[ApChoice],
) -> Vec<ApChoice> {
    candidates
        .iter()
        .filter(|a| !candidates.iter().any(|b| more_cogent(query, schema, b, a)))
        .cloned()
        .collect()
}

/// Orders candidates for exploration under the "bound is better"
/// heuristic: most-cogent first, then by descending total number of bound
/// input fields (a useful tiebreak/total extension of the partial order).
pub fn exploration_order(
    query: &ConjunctiveQuery,
    schema: &Schema,
    candidates: &[ApChoice],
) -> Vec<ApChoice> {
    let best = most_cogent(query, schema, candidates);
    let bound_fields = |c: &ApChoice| -> usize {
        query
            .atoms
            .iter()
            .enumerate()
            .map(|(i, atom)| schema.service(atom.service).patterns[c.pattern_of(i)].input_count())
            .sum()
    };
    let mut ordered: Vec<ApChoice> = Vec::with_capacity(candidates.len());
    let mut rest: Vec<ApChoice> = candidates
        .iter()
        .filter(|c| !best.contains(c))
        .cloned()
        .collect();
    let mut best = best;
    best.sort_by_key(|c| std::cmp::Reverse(bound_fields(c)));
    rest.sort_by_key(|c| std::cmp::Reverse(bound_fields(c)));
    ordered.extend(best);
    ordered.extend(rest);
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::permissible_sequences;
    use crate::parser::parse_query;
    use crate::schema::{Schema, ServiceBuilder, ServiceProfile};

    fn running_example() -> (Schema, ConjunctiveQuery) {
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
            .expect("conf");
        ServiceBuilder::new(&mut s, "weather")
            .attr("City", "City")
            .attr("Temperature", "Temp")
            .attr("Date", "Date")
            .pattern("ioi")
            .profile(ServiceProfile::new(0.05, 1.5))
            .register()
            .expect("weather");
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
            .expect("flight");
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
            .expect("hotel");
        let q = parse_query(
            "q(Conf, City) :- \
             flight('Milano', City, Start, End, StartTime, EndTime, FPrice), \
             hotel(Hotel, City, 'luxury', Start, End, HPrice), \
             conf('DB', Conf, Start, End, City), \
             weather(City, Temperature, Start).",
            &s,
        )
        .expect("parses");
        (s, q)
    }

    #[test]
    fn example_41_most_cogent() {
        // Example 4.1: among permissible α1, α2, α4 the most cogent are
        // α1 and α4 (α1 ≻IO α2 because hotel1 binds fields hotel2 leaves
        // free; α4 is incomparable to both).
        let (s, q) = running_example();
        let perms = permissible_sequences(&q, &s);
        assert_eq!(perms.len(), 3);
        let best = most_cogent(&q, &s, &perms);
        assert_eq!(best.len(), 2, "α1 and α4: {best:?}");
        // atom order flight=0, hotel=1, conf=2, weather=3
        let a1 = ApChoice(vec![0, 0, 0, 0]);
        let a2 = ApChoice(vec![0, 1, 0, 0]);
        let a4 = ApChoice(vec![0, 1, 1, 0]);
        assert!(best.contains(&a1));
        assert!(best.contains(&a4));
        assert!(more_cogent(&q, &s, &a1, &a2));
        assert_eq!(compare(&q, &s, &a1, &a2), Some(Ordering::Greater));
        assert_eq!(compare(&q, &s, &a2, &a1), Some(Ordering::Less));
        assert_eq!(compare(&q, &s, &a1, &a4), None);
        assert_eq!(compare(&q, &s, &a1, &a1), Some(Ordering::Equal));
    }

    #[test]
    fn exploration_order_puts_most_cogent_first() {
        let (s, q) = running_example();
        let perms = permissible_sequences(&q, &s);
        let ordered = exploration_order(&q, &s, &perms);
        assert_eq!(ordered.len(), 3);
        let a2 = ApChoice(vec![0, 1, 0, 0]);
        // the dominated α2 comes last
        assert_eq!(ordered[2], a2);
        // and the first element binds at least as many fields as the second
        let bound = |c: &ApChoice| -> usize {
            q.atoms
                .iter()
                .enumerate()
                .map(|(i, a)| s.service(a.service).patterns[c.pattern_of(i)].input_count())
                .sum()
        };
        assert!(bound(&ordered[0]) >= bound(&ordered[1]));
    }
}
