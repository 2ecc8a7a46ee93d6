//! Simulated deep-web sources.
//!
//! The paper's experiments wrap live 2008 web sites (Expedia, Bookings,
//! AccuWeather, conference-service.com) into services. We substitute
//! deterministic in-memory sources: a ranked table, per-access-pattern
//! hash indexes, chunked paging and a [`LatencyModel`]. The optimizer and
//! engine observe exactly what they would observe of a wrapped site —
//! tuples in rank order, pages of fixed size, latencies — reproducibly.

use crate::service::{LatencyModel, Service, ServiceResponse};
use mdq_model::schema::AccessPattern;
use mdq_model::value::{Tuple, Value};
use std::collections::HashMap;

/// A deterministic in-memory service backed by a ranked table.
pub struct SyntheticSource {
    name: String,
    patterns: Vec<AccessPattern>,
    /// All rows, in global ranking order (the order a search service
    /// would reveal them in).
    rows: Vec<Tuple>,
    /// Page size; `None` = bulk (everything in one response).
    chunk_size: Option<u32>,
    latency: LatencyModel,
    /// Per pattern: input-key → row indices (rank order preserved).
    indexes: Vec<HashMap<Vec<Value>, Vec<u32>>>,
}

impl SyntheticSource {
    /// Builds a source. `patterns` must mirror the schema signature's
    /// feasible patterns (same order); `rows` must all share the
    /// signature's arity.
    ///
    /// # Panics
    /// Panics on arity mismatches — synthetic sources are constructed
    /// from trusted generator code.
    pub fn new(
        name: impl Into<String>,
        patterns: Vec<AccessPattern>,
        rows: Vec<Tuple>,
        chunk_size: Option<u32>,
        latency: LatencyModel,
    ) -> Self {
        let name = name.into();
        assert!(!patterns.is_empty(), "source `{name}` needs a pattern");
        let arity = patterns[0].arity();
        for r in &rows {
            assert_eq!(r.arity(), arity, "row arity mismatch in `{name}`");
        }
        let indexes = patterns
            .iter()
            .map(|p| {
                let mut idx: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
                let inputs: Vec<usize> = p.inputs().collect();
                for (i, row) in rows.iter().enumerate() {
                    let key: Vec<Value> = inputs.iter().map(|&pos| row.get(pos).clone()).collect();
                    idx.entry(key).or_default().push(i as u32);
                }
                idx
            })
            .collect();
        SyntheticSource {
            name,
            patterns,
            rows,
            chunk_size,
            latency,
            indexes,
        }
    }
}

impl Service for SyntheticSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn fetch(&self, pattern: usize, inputs: &[Value], page: u32) -> ServiceResponse {
        assert!(
            pattern < self.patterns.len(),
            "service `{}` has no pattern #{pattern}",
            self.name
        );
        let expected_inputs = self.patterns[pattern].input_count();
        assert_eq!(
            inputs.len(),
            expected_inputs,
            "service `{}` pattern #{pattern} takes {expected_inputs} inputs",
            self.name
        );
        let ids: &[u32] = self.indexes[pattern]
            .get(inputs)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        let (slice, has_more) = match self.chunk_size {
            None => (ids, false),
            Some(cs) => {
                let cs = cs as usize;
                let start = (page as usize) * cs;
                let end = (start + cs).min(ids.len());
                if start >= ids.len() {
                    (&ids[0..0], false)
                } else {
                    (&ids[start..end], end < ids.len())
                }
            }
        };
        let tuples: Vec<Tuple> = slice
            .iter()
            .map(|&i| self.rows[i as usize].clone())
            .collect();
        // the latency key includes the page so that each fetch is a
        // distinct request-response (server caches key on full request)
        let key = || {
            let mut key = Vec::with_capacity(inputs.len() + 1);
            key.extend_from_slice(inputs);
            key.push(Value::Int(page as i64));
            key
        };
        let latency = self.latency.sample_request(pattern, key, tuples.len());
        ServiceResponse {
            tuples,
            has_more,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source() -> SyntheticSource {
        // s(City, Name, Price) with patterns ioo (by city) and ooo (scan),
        // ranked by price, chunk size 2
        let rows = vec![
            Tuple::new(vec![
                Value::str("rome"),
                Value::str("h1"),
                Value::float(100.0),
            ]),
            Tuple::new(vec![
                Value::str("rome"),
                Value::str("h2"),
                Value::float(150.0),
            ]),
            Tuple::new(vec![
                Value::str("oslo"),
                Value::str("h3"),
                Value::float(180.0),
            ]),
            Tuple::new(vec![
                Value::str("rome"),
                Value::str("h4"),
                Value::float(220.0),
            ]),
            Tuple::new(vec![
                Value::str("rome"),
                Value::str("h5"),
                Value::float(300.0),
            ]),
        ];
        SyntheticSource::new(
            "hotel",
            vec![
                AccessPattern::parse("ioo").expect("parses"),
                AccessPattern::parse("ooo").expect("parses"),
            ],
            rows,
            Some(2),
            LatencyModel::fixed(4.9),
        )
    }

    #[test]
    fn indexed_lookup_preserves_rank_order() {
        let s = source();
        let r0 = s.fetch(0, &[Value::str("rome")], 0);
        assert_eq!(r0.tuples.len(), 2);
        assert!(r0.has_more);
        assert_eq!(r0.tuples[0].get(1), &Value::str("h1"));
        assert_eq!(r0.tuples[1].get(1), &Value::str("h2"));
        let r1 = s.fetch(0, &[Value::str("rome")], 1);
        assert_eq!(r1.tuples.len(), 2);
        assert_eq!(r1.tuples[0].get(1), &Value::str("h4"));
        assert!(!r1.has_more, "rome has exactly two pages");
        let r2 = s.fetch(0, &[Value::str("rome")], 2);
        assert_eq!(r2.tuples.len(), 0);
        assert!(!r2.has_more);
    }

    #[test]
    fn paging_boundary_exact_multiple() {
        let s = source();
        // rome has 4 rows = exactly 2 pages: page 1 must say has_more=false
        let r1 = s.fetch(0, &[Value::str("rome")], 1);
        assert_eq!(r1.tuples.len(), 2);
        assert!(!r1.has_more, "exactly consumed");
    }

    #[test]
    fn scan_pattern_returns_everything() {
        let s = source();
        let r0 = s.fetch(1, &[], 0);
        assert_eq!(r0.tuples.len(), 2, "chunked scan");
        let mut seen = 0;
        let mut page = 0;
        loop {
            let r = s.fetch(1, &[], page);
            seen += r.tuples.len();
            if !r.has_more {
                break;
            }
            page += 1;
        }
        assert_eq!(seen, 5);
    }

    #[test]
    fn missing_key_is_empty() {
        let s = source();
        let r = s.fetch(0, &[Value::str("atlantis")], 0);
        assert!(r.tuples.is_empty());
        assert!(!r.has_more);
        assert!(r.latency > 0.0);
    }

    #[test]
    fn bulk_source_ignores_pages() {
        let rows = vec![
            Tuple::new(vec![Value::str("a"), Value::Int(1)]),
            Tuple::new(vec![Value::str("a"), Value::Int(2)]),
        ];
        let s = SyntheticSource::new(
            "bulk",
            vec![AccessPattern::parse("io").expect("parses")],
            rows,
            None,
            LatencyModel::fixed(1.0),
        );
        let r = s.fetch(0, &[Value::str("a")], 0);
        assert_eq!(r.tuples.len(), 2);
        assert!(!r.has_more);
    }

    #[test]
    #[should_panic(expected = "takes 1 inputs")]
    fn wrong_input_arity_panics() {
        let s = source();
        s.fetch(0, &[], 0);
    }
}
