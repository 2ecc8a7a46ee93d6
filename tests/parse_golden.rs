//! Front-end identity: parsing, validation, canonical text and
//! fingerprint of a fixed input corpus, pinned in
//! `tests/golden/parsed_queries.txt`.
//!
//! The corpus (`tests/common`):
//! - the 210 queries of the `optimizer_golden` corpus (the same seeded
//!   perturbations of the travel, bibliography and protein queries),
//!   rendered as query text with their selectivity hints;
//! - each world's example query;
//! - the end-to-end benchmark's `warm_repeat` and `cold_templates`
//!   template shapes;
//! - malformed inputs, each rejected by the lexer, the parser or
//!   validation.
//!
//! One line per input: its id, then the parsed query (`Debug`) or the
//! parse error (position and message), then the validation outcome, the
//! canonical text and the fingerprint. No corpus string constant holds a
//! quote or a backslash, so the canonical text's escaping never shows.
//!
//! The file was generated before the borrowed-token lexer and the
//! shared canonical writer landed; regenerate it (only when a change of
//! the parsed form is intended) with
//! `MDQ_WRITE_GOLDEN=1 cargo test --test parse_golden`.

mod common;

use common::corpus;
use mdq::model::fingerprint::{canonical_text, fingerprint, fnv1a};
use mdq::model::parser::parse_query;
use mdq::model::schema::Schema;
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/parsed_queries.txt"
);

/// One input's golden line.
fn line(id: &str, schema: &Schema, text: &str) -> String {
    match parse_query(text, schema) {
        Ok(q) => {
            let valid = match q.validate(schema) {
                Ok(()) => "valid".to_string(),
                Err(e) => format!("invalid {e:?}"),
            };
            format!(
                "{id}\tok {q:?}\t{valid}\t{}\t{}",
                canonical_text(&q),
                fingerprint(&q)
            )
        }
        Err(e) => format!("{id}\terr {} {}\t-\t-\t-", e.position, e.message),
    }
}

#[test]
fn front_end_reproduces_the_golden_file() {
    let corpus = corpus();
    let lines: Vec<String> = corpus
        .iter()
        .map(|(id, schema, text)| line(id, schema, text))
        .collect();
    if std::env::var_os("MDQ_WRITE_GOLDEN").is_some() {
        let mut text = String::new();
        for l in &lines {
            writeln!(text, "{l}").expect("writes to a String");
        }
        std::fs::write(GOLDEN, text).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), lines.len(), "corpus size changed");
    for ((want, got), (id, _, text)) in golden.iter().zip(&lines).zip(&corpus) {
        assert_eq!(*want, got, "`{id}` ({text:?}) differs from the golden file");
    }
}

/// The fingerprint is FNV-1a over the canonical text, for every corpus
/// query the parser accepts.
#[test]
fn fingerprint_hashes_the_canonical_text() {
    let mut accepted = 0;
    for (id, schema, text) in corpus() {
        if let Ok(q) = parse_query(&text, &schema) {
            accepted += 1;
            assert_eq!(
                fingerprint(&q).0,
                fnv1a(canonical_text(&q).as_bytes()),
                "`{id}`"
            );
        }
    }
    assert!(accepted > 220, "only {accepted} corpus inputs parse");
}
