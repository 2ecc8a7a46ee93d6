//! A seeded, time-boxed mutation fuzzer over the request front end:
//! `mdq_model::parser::parse_query` and `ClientFrame::parse`.
//!
//! Inputs are the parse-golden corpus (`tests/common`) mutated one to
//! four times: a character inserted, deleted or replaced, a multi-byte
//! character, a stray quote, a `:-`, a 30-digit numeral, a slice of the
//! input repeated. Every input must come back `Ok` or as a typed error,
//! never as a panic — the lexer slices the input in place, so a slice
//! off a character boundary would panic here first. An accepted query
//! must round-trip: its display parses back to the identical query (the
//! same `Debug`), with the same fingerprint, and the fingerprint is
//! FNV-1a over the canonical text. An accepted frame re-encodes to
//! itself.
//!
//! Case `i` of a run draws from `Rng::new(seed ^ i)`, so a failure
//! names the case that replays it; failures found so far are kept in
//! [`REGRESSIONS`]. A test run stops after [`CASES`] cases or 1.5 s,
//! whichever comes first. A longer campaign sets `MDQ_FUZZ_MS` (then
//! only the time box applies) and `MDQ_FUZZ_SEED`:
//!
//! ```sh
//! MDQ_FUZZ_MS=600000 MDQ_FUZZ_SEED=7 cargo test --release --test front_end_fuzz
//! ```

mod common;

use common::corpus;
use mdq::model::fingerprint::{canonical_text, fingerprint, fnv1a};
use mdq::model::parser::parse_query;
use mdq::model::rng::Rng;
use mdq::model::schema::Schema;
use mdq::runtime::ClientFrame;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const SEED: u64 = 0x6675_7a7a;
const CASES: u64 = 200_000;

/// Inputs that once failed, replayed on every run.
const REGRESSIONS: [&str; 7] = [
    // a non-ASCII character where a token starts: reported whole
    "q(X) :- conf('DB', X, S, E, C), é.",
    // multi-byte characters inside a literal and a comment
    "q(X) :- conf('é€𝄞', X, S, E, C). % ünïcödé",
    // a numeral past every float: an error, not infinity
    "q(X) :- conf('DB', X, S, E, C), S > 1\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000000\
     0000000000000000000000000000000000000000000000000000000000000000000000000000000.5.",
    // a year whose day count would overflow: a string, not a date
    "q(X) :- conf('-2147483648/1/1', X, S, E, C).",
    // a string constant holding a quote of the other kind
    "q(X) :- conf(\"it's\", X, S, E, C), C != 'say \"hi\"'.",
    // predicates only, no atom
    "q(X) :- X > 1, X < 2 @0.5.",
    // an integral float keeps its decimal point through the display
    "q(X) :- conf('DB', X, S, E, C), weather(C, T, S), T >= 28.0, T < -0.0.",
];

const INSERTS: [&str; 14] = [
    "'",
    "\"",
    ":-",
    "é",
    "€",
    "𝄞",
    "\u{0}",
    "123456789012345678901234567890",
    "123456789012345678901234567890.5",
    ",",
    "(",
    ")",
    ".",
    " @",
];

/// A character boundary of `s`, uniformly over its characters.
fn boundary(s: &str, rng: &mut Rng) -> usize {
    let count = s.chars().count();
    let nth = rng.range_usize(0, count + 1);
    s.char_indices().nth(nth).map_or(s.len(), |(i, _)| i)
}

/// The boundary `chars` characters past `at` (or the end).
fn skip(s: &str, at: usize, chars: usize) -> usize {
    s[at..]
        .char_indices()
        .nth(chars)
        .map_or(s.len(), |(i, _)| at + i)
}

/// `text` with one to four mutations applied.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut s = text.to_string();
    for _ in 0..rng.range_usize(1, 5) {
        let at = boundary(&s, rng);
        let printable = char::from(rng.range_u64(0x20, 0x7f) as u8);
        match rng.range_usize(0, 5) {
            0 => s.insert_str(at, INSERTS[rng.range_usize(0, INSERTS.len())]),
            1 => s.insert(at, printable),
            2 => {
                let end = skip(&s, at, rng.range_usize(1, 7));
                s.replace_range(at..end, "");
            }
            3 => {
                let end = skip(&s, at, 1);
                s.replace_range(at..end, printable.encode_utf8(&mut [0; 4]));
            }
            _ => {
                let slice = s[at..skip(&s, at, rng.range_usize(1, 20))].to_string();
                let to = boundary(&s, rng);
                s.insert_str(to, &slice);
            }
        }
    }
    s
}

/// The oracle for one query text; `Err` describes a violation.
fn check_query(text: &str, schema: &Schema) -> Result<(), String> {
    let parsed = catch_unwind(AssertUnwindSafe(|| parse_query(text, schema)))
        .map_err(|_| "parse_query panicked".to_string())?;
    let q = match parsed {
        Err(e) if e.position <= text.len() || e.position == usize::MAX => return Ok(()),
        Err(e) => return Err(format!("error position {} past the input", e.position)),
        Ok(q) => q,
    };
    let (digest, canonical) = catch_unwind(AssertUnwindSafe(|| {
        let _ = q.validate(schema);
        (fingerprint(&q), canonical_text(&q))
    }))
    .map_err(|_| "validate / fingerprint panicked".to_string())?;
    if digest.0 != fnv1a(canonical.as_bytes()) {
        return Err("fingerprint is not FNV-1a over the canonical text".into());
    }
    let shown = q.display(schema).to_string();
    let again = parse_query(&shown, schema)
        .map_err(|e| format!("display {shown:?} does not parse back: {e}"))?;
    if format!("{again:?}") != format!("{q:?}") {
        return Err(format!("display {shown:?} parses back to another query"));
    }
    if fingerprint(&again) != digest {
        return Err(format!("display {shown:?} fingerprints differently"));
    }
    Ok(())
}

/// The oracle for one wire line.
fn check_frame(line: &str) -> Result<(), String> {
    let parsed = catch_unwind(|| ClientFrame::parse(line))
        .map_err(|_| "ClientFrame::parse panicked".to_string())?;
    let Ok(frame) = parsed else {
        return Ok(());
    };
    // an escaped line break does not parse back to a line break
    let text = match &frame {
        ClientFrame::Query { text, .. } | ClientFrame::Subscribe { text, .. } => text.as_str(),
        ClientFrame::Tenant { name } => name.as_str(),
        _ => "",
    };
    if !text.contains(['\r', '\n']) && ClientFrame::parse(&frame.encode()) != Ok(frame.clone()) {
        return Err(format!("{frame:?} does not re-encode to itself"));
    }
    Ok(())
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

#[test]
fn regression_inputs_hold() {
    let schema = mdq::model::examples::running_example_schema();
    for text in REGRESSIONS {
        check_query(text, &schema).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    }
}

#[test]
fn a_non_ascii_character_is_reported_whole() {
    let schema = mdq::model::examples::running_example_schema();
    let err = parse_query(REGRESSIONS[0], &schema).expect_err("é is no token");
    assert_eq!(err.message, "unexpected character `é`");
    assert_eq!(err.position, REGRESSIONS[0].find('é').expect("has é"));
}

#[test]
fn mutated_queries_and_frames_never_panic_and_round_trip() {
    let seeds = corpus();
    let campaign = env_u64("MDQ_FUZZ_MS");
    let deadline = Instant::now() + Duration::from_millis(campaign.unwrap_or(1500));
    let max_cases = campaign.map_or(CASES, |_| u64::MAX);
    let seed = env_u64("MDQ_FUZZ_SEED").unwrap_or(SEED);
    let mut cases = 0;
    let mut accepted = 0;
    while cases < max_cases && Instant::now() < deadline {
        let mut rng = Rng::new(seed ^ cases);
        let (id, schema, text) = &seeds[rng.range_usize(0, seeds.len())];
        let input = mutate(text, &mut rng);
        if let Err(e) = check_query(&input, schema) {
            panic!("seed {seed} case {cases} (from `{id}`): {e}\ninput: {input:?}");
        }
        accepted += usize::from(parse_query(&input, schema).is_ok());
        let verb =
            ["QUERY k=5 ", "SUBSCRIBE ", "QUERY ", "TENANT ", "POLL ", ""][rng.range_usize(0, 6)];
        let line = mutate(&format!("{verb}{input}"), &mut rng);
        if let Err(e) = check_frame(&line) {
            panic!("seed {seed} case {cases} (from `{id}`): {e}\nline: {line:?}");
        }
        cases += 1;
    }
    assert!(cases >= 200, "only {cases} cases in the time box");
    assert!(accepted > 0, "no mutated query was accepted");
}
