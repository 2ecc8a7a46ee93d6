//! Trace export: JSONL for machine consumption, Chrome `trace_event`
//! JSON for `chrome://tracing` / Perfetto.
//!
//! Both emitters are hand-rolled (the workspace is std-only): every
//! string field goes through `json_escape`, numbers are emitted with
//! plain `Display`, and the Chrome format follows the JSON-array form
//! of the trace-event spec — metadata `M` events name the tracks, `X`
//! complete events carry spans (microsecond timestamps scaled from
//! accounted seconds), `i` instant events carry zero-duration marks.

use crate::recorder::TraceRecorder;
use crate::span::{SpanKind, TraceEvent};
use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Emits a finite float for JSON (`NaN`/infinite become 0 — JSON has
/// no spelling for them and traces must always parse).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The span's argument object, as a JSON fragment (`{...}`).
fn args_json(kind: &SpanKind) -> String {
    match kind {
        SpanKind::Optimize => "{}".to_string(),
        SpanKind::PlanCacheHit { fingerprint } | SpanKind::PlanCacheMiss { fingerprint } => {
            format!("{{\"fingerprint\":\"{fingerprint:016x}\"}}")
        }
        SpanKind::AdmissionBatch {
            members,
            shared_prefix_hits,
        } => format!("{{\"members\":{members},\"shared_prefix_hits\":{shared_prefix_hits}}}"),
        SpanKind::QueryStart { fingerprint } => {
            format!("{{\"fingerprint\":\"{fingerprint:016x}\"}}")
        }
        SpanKind::OperatorBatch { node, rows } => {
            format!("{{\"node\":{node},\"rows\":{rows}}}")
        }
        SpanKind::ServiceCall {
            service,
            page,
            tuples,
            ok,
        } => format!(
            "{{\"service\":\"{}\",\"page\":{page},\"tuples\":{tuples},\"ok\":{ok}}}",
            json_escape(service)
        ),
        SpanKind::Retry { service } => {
            format!("{{\"service\":\"{}\"}}", json_escape(service))
        }
        SpanKind::CachedPages { service, pages } => format!(
            "{{\"service\":\"{}\",\"pages\":{pages}}}",
            json_escape(service)
        ),
        SpanKind::DegradedPage { service } => {
            format!("{{\"service\":\"{}\"}}", json_escape(service))
        }
        SpanKind::Replan {
            services,
            worst_ratio,
        } => format!(
            "{{\"services\":\"{}\",\"worst_ratio\":{}}}",
            json_escape(services),
            json_num(*worst_ratio)
        ),
        SpanKind::SubResultReplay {
            level,
            rows,
            calls_saved,
        } => format!("{{\"level\":{level},\"rows\":{rows},\"calls_saved\":{calls_saved}}}"),
        SpanKind::SubResultMaterialize { level, rows } => {
            format!("{{\"level\":{level},\"rows\":{rows}}}")
        }
        SpanKind::QueryDone { answers } => format!("{{\"answers\":{answers}}}"),
        SpanKind::Connection { peer, queries } => format!(
            "{{\"peer\":\"{}\",\"queries\":{queries}}}",
            json_escape(peer)
        ),
        SpanKind::Shed {
            tenant,
            reason,
            retry_after_ms,
        } => format!(
            "{{\"tenant\":{tenant},\"reason\":\"{reason}\",\"retry_after_ms\":{retry_after_ms}}}"
        ),
        SpanKind::Drain { in_flight } => format!("{{\"in_flight\":{in_flight}}}"),
        SpanKind::Refresh {
            epoch,
            refreshed,
            changed,
            calls,
        } => format!(
            "{{\"epoch\":{epoch},\"refreshed\":{refreshed},\"changed\":{changed},\"calls\":{calls}}}"
        ),
        SpanKind::RefreshPhase {
            epoch,
            phase,
            items,
        } => format!("{{\"epoch\":{epoch},\"phase\":\"{phase}\",\"items\":{items}}}"),
        SpanKind::DeltaEmit {
            subscription,
            added,
            retracted,
        } => format!("{{\"subscription\":{subscription},\"added\":{added},\"retracted\":{retracted}}}"),
    }
}

/// One event per line: `{"seq":…,"track":…,"start":…,"dur":…,
/// "name":…,"args":{…}}`. Line order is global record order.
pub fn jsonl(recorder: &TraceRecorder) -> String {
    let mut out = String::new();
    for e in recorder.events() {
        let _ = writeln!(
            out,
            "{{\"seq\":{},\"track\":{},\"start\":{},\"dur\":{},\"name\":\"{}\",\"args\":{}}}",
            e.seq,
            e.track,
            json_num(e.start),
            json_num(e.dur),
            e.kind.name(),
            args_json(&e.kind),
        );
    }
    out
}

fn chrome_event(e: &TraceEvent) -> String {
    let ts = e.start * 1e6;
    let args = args_json(&e.kind);
    if e.dur > 0.0 {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{}}}",
            e.kind.name(),
            e.kind.category(),
            e.track,
            json_num(ts),
            json_num(e.dur * 1e6),
            args,
        )
    } else {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{}}}",
            e.kind.name(),
            e.kind.category(),
            e.track,
            json_num(ts),
            args,
        )
    }
}

/// The whole trace as Chrome `trace_event` JSON (array form): load the
/// file in `chrome://tracing` or <https://ui.perfetto.dev>. Tracks
/// appear as threads of one process, named by their registration
/// labels; timestamps are the tracks' accounted seconds scaled to
/// microseconds.
pub fn chrome_trace_json(recorder: &TraceRecorder) -> String {
    let mut parts: Vec<String> = Vec::new();
    parts.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"mdq\"}}"
            .to_string(),
    );
    for (track, label) in recorder.tracks() {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            track,
            json_escape(&label),
        ));
    }
    for e in recorder.events() {
        parts.push(chrome_event(&e));
    }
    let mut out = String::from("[\n");
    out.push_str(&parts.join(",\n"));
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_control() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn chrome_export_names_tracks_and_events() {
        let rec = TraceRecorder::new();
        let t = rec.register("query 1");
        t.record(
            SpanKind::ServiceCall {
                service: "conf".into(),
                page: 0,
                tuples: 3,
                ok: true,
            },
            0.25,
        );
        t.instant(SpanKind::QueryDone { answers: 1 });
        let json = chrome_trace_json(&rec);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"query 1\""));
        assert!(
            json.contains("\"ph\":\"X\""),
            "span event is complete-typed"
        );
        assert!(json.contains("\"dur\":250000"), "seconds scaled to µs");
        assert!(json.contains("\"ph\":\"i\""), "instant event emitted");
        // crude but effective structural check while the workspace has
        // no JSON parser: balanced delimiters and no raw newlines
        // inside string context beyond our own separators
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "balanced brackets"
        );
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let rec = TraceRecorder::new();
        rec.control().record(SpanKind::Optimize, 0.001);
        let text = jsonl(&rec);
        assert_eq!(text.lines().count(), 1);
        assert!(text.starts_with("{\"seq\":0,\"track\":0,"));
    }
}
