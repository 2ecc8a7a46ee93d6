//! The benchmark's own span recorder, used by the traced replay only:
//! one span around each call into a layer — name, start, end, parent,
//! op id — on a thread-local stack. Spans stay in memory and are
//! written as JSONL when the run ends. With no recording open,
//! [`span`] is one thread-local check around the call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recording opened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer call this span brackets (`exec.topk.pull`, …).
    pub name: &'static str,
    /// The op (request) the span belongs to.
    pub op: u32,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recording {
    opened: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

thread_local! {
    static RECORDING: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// Opens a recording on this thread (dropping any previous one).
pub fn start_recording() {
    RECORDING.with(|r| {
        *r.borrow_mut() = Some(Recording {
            opened: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        });
    });
}

/// Closes this thread's recording and returns its spans.
pub fn finish_recording() -> Vec<Span> {
    RECORDING
        .with(|r| r.borrow_mut().take())
        .map_or_else(Vec::new, |r| r.spans)
}

/// Runs `f` with this thread's recording set aside: nothing `f` does is
/// recorded, and the recording resumes afterwards.
pub fn unrecorded<T>(f: impl FnOnce() -> T) -> T {
    let aside = RECORDING.with(|r| r.borrow_mut().take());
    let out = f();
    RECORDING.with(|r| *r.borrow_mut() = aside);
    out
}

/// Sets the op id stamped on the spans that follow.
pub fn set_op(op: u32) {
    RECORDING.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = op;
        }
    });
}

/// Runs `f` inside a span named `name`, a child of the innermost span
/// open on this thread. Without an open recording it just runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDING.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.spans.len() as u32;
        let start_ns = rec.opened.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            op: rec.op,
            parent: rec.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        rec.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDING.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx as usize].end_ns = rec.opened.elapsed().as_nanos() as u64;
                rec.stack.pop();
            }
        });
    }
    out
}

/// Each span's self time: its duration minus the part its child spans
/// cover (children of one thread never overlap, so their durations
/// add).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per op, the summed nanoseconds of the spans `pick` selects — total
/// time when `own` is `None`, self time when it carries
/// [`self_times_ns`].
pub fn per_op_ns(
    spans: &[Span],
    own: Option<&[u64]>,
    pick: impl Fn(&Span) -> bool,
) -> BTreeMap<u32, u64> {
    let mut by_op = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| pick(s)) {
        *by_op.entry(s.op).or_insert(0) += own.map_or(s.dur_ns(), |o| o[i]);
    }
    by_op
}

/// Writes the spans as JSON lines:
/// `{"id":3,"name":"exec.topk.pull","op":0,"parent":0,"start_ns":…,"end_ns":…}`.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) ⊃ pull [10,90) ⊃ { fetch [20,30), fetch [40,70) }
        let spans = [
            sp("op", None, 0, 100),
            sp("pull", Some(0), 10, 90),
            sp("fetch", Some(1), 20, 30),
            sp("fetch", Some(1), 40, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn recorder_nests_stamps_ops_and_is_inert_when_closed() {
        assert_eq!(span("nothing-open", || 7), 7);
        assert!(finish_recording().is_empty());

        start_recording();
        set_op(3);
        span("outer", || {
            span("inner", || ());
            span("inner", || ());
        });
        unrecorded(|| span("aside", || ()));
        set_op(4);
        span("outer", || ());
        let spans = finish_recording();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("outer", 3, None),
                ("inner", 3, Some(0)),
                ("inner", 3, Some(0)),
                ("outer", 4, None),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns && spans[2].end_ns <= spans[0].end_ns);

        let own = self_times_ns(&spans);
        let inner_total = per_op_ns(&spans, None, |s| s.name == "inner");
        assert_eq!(inner_total[&3], spans[1].dur_ns() + spans[2].dur_ns());
        let outer_self = per_op_ns(&spans, Some(&own), |s| s.name == "outer");
        assert_eq!(outer_self[&3], spans[0].dur_ns() - inner_total[&3]);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &[sp("op", None, 0, 9), sp("pull", Some(0), 1, 8)]).expect("writes");
        assert_eq!(
            String::from_utf8(out).expect("utf-8"),
            "{\"id\":0,\"name\":\"op\",\"op\":0,\"parent\":null,\"start_ns\":0,\"end_ns\":9}\n\
             {\"id\":1,\"name\":\"pull\",\"op\":0,\"parent\":0,\"start_ns\":1,\"end_ns\":8}\n"
        );
    }
}
