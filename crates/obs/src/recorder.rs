//! The trace recorder: per-execution buffers merged on read.
//!
//! Mirrors the execution engine's accounting layer (`mdq-exec`'s
//! merge-on-read cells): a [`TraceRecorder`] hands each traced
//! execution its own [`QueryTrace`] cell, the execution's hot path
//! locks only that uncontended cell, and readers merge every cell's
//! buffer (ordered by a global sequence counter) on demand. Tracing a
//! workload therefore never adds a shared lock to the page path — and a
//! workload that attaches no recorder pays a single `Option` branch per
//! record site.

use crate::recover;
use crate::span::{SpanKind, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One track's buffer: its accounted-seconds cursor and the events
/// recorded so far.
struct CellInner {
    cursor: f64,
    events: Vec<TraceEvent>,
}

/// One track's recording cell (the per-worker buffer).
struct TraceCell {
    track: u64,
    label: String,
    inner: Mutex<CellInner>,
}

/// The trace recorder for one server or stand-alone run: hands out
/// per-execution [`QueryTrace`] cells and merges them on read.
pub struct TraceRecorder {
    seq: AtomicU64,
    next_track: AtomicU64,
    cells: Mutex<Vec<Arc<TraceCell>>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("tracks", &self.next_track.load(Ordering::Relaxed))
            .field("events", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRecorder {
    /// A fresh recorder. Track 0 (the control plane) exists from the
    /// start; call [`TraceRecorder::control`] to record on it.
    pub fn new() -> Arc<Self> {
        let rec = Arc::new(TraceRecorder {
            seq: AtomicU64::new(0),
            next_track: AtomicU64::new(1),
            cells: Mutex::new(Vec::new()),
        });
        let control = Arc::new(TraceCell {
            track: 0,
            label: "control".to_string(),
            inner: Mutex::new(CellInner {
                cursor: 0.0,
                events: Vec::new(),
            }),
        });
        recover(rec.cells.lock()).push(control);
        rec
    }

    /// Registers a fresh execution track labelled `label`, returning
    /// its recording handle.
    pub fn register(self: &Arc<Self>, label: impl Into<String>) -> QueryTrace {
        let cell = Arc::new(TraceCell {
            track: self.next_track.fetch_add(1, Ordering::Relaxed),
            label: label.into(),
            inner: Mutex::new(CellInner {
                cursor: 0.0,
                events: Vec::new(),
            }),
        });
        recover(self.cells.lock()).push(Arc::clone(&cell));
        QueryTrace {
            recorder: Arc::clone(self),
            cell,
        }
    }

    /// The control-plane track (track 0): optimize, plan-cache and
    /// admission events live here.
    pub fn control(self: &Arc<Self>) -> QueryTrace {
        let cell = Arc::clone(
            recover(self.cells.lock())
                .first()
                .expect("control track exists from construction"),
        );
        QueryTrace {
            recorder: Arc::clone(self),
            cell,
        }
    }

    /// Every event recorded so far, merged across tracks in global
    /// record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        let cells = recover(self.cells.lock());
        let mut out = Vec::new();
        for cell in cells.iter() {
            out.extend_from_slice(&recover(cell.inner.lock()).events);
        }
        drop(cells);
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The `(track, label)` pairs of every registered track, in track
    /// order.
    pub fn tracks(&self) -> Vec<(u64, String)> {
        let cells = recover(self.cells.lock());
        let mut out: Vec<(u64, String)> =
            cells.iter().map(|c| (c.track, c.label.clone())).collect();
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// Events recorded so far (cheaper than materializing
    /// [`TraceRecorder::events`]).
    pub fn event_count(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

/// One execution's (or the control plane's) recording handle. Cloning
/// shares the underlying cell — a driver and its gateway record onto
/// the same track.
#[derive(Clone)]
pub struct QueryTrace {
    recorder: Arc<TraceRecorder>,
    cell: Arc<TraceCell>,
}

impl std::fmt::Debug for QueryTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTrace")
            .field("track", &self.cell.track)
            .field("label", &self.cell.label)
            .finish()
    }
}

impl QueryTrace {
    /// Records a span covering `dur` accounted seconds; the track's
    /// cursor advances past it.
    pub fn record(&self, kind: SpanKind, dur: f64) {
        let seq = self.recorder.seq.fetch_add(1, Ordering::Relaxed);
        let mut inner = recover(self.cell.inner.lock());
        let start = inner.cursor;
        inner.cursor += dur;
        inner.events.push(TraceEvent {
            seq,
            track: self.cell.track,
            start,
            dur,
            kind,
        });
    }

    /// Records an instant event (zero duration).
    pub fn instant(&self, kind: SpanKind) {
        self.record(kind, 0.0);
    }

    /// This handle's track id.
    pub fn track(&self) -> u64 {
        self.cell.track
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics `f`'s holder on another thread while it holds a lock.
    fn poison(f: impl FnOnce() + Send) {
        std::thread::scope(|scope| {
            assert!(scope.spawn(f).join().is_err());
        });
    }

    /// A panic while the registry is held must not make every later
    /// registration, read or control-track lookup panic too.
    #[test]
    fn a_poisoned_registry_is_recovered() {
        let rec = TraceRecorder::new();
        poison(|| {
            let _held = rec.cells.lock();
            panic!("poison the trace registry");
        });
        assert!(rec.cells.is_poisoned());
        let a = rec.register("a");
        a.instant(SpanKind::QueryDone { answers: 1 });
        rec.control().record(SpanKind::Optimize, 0.5);
        assert_eq!(rec.events().len(), 2);
        assert_eq!(rec.tracks().len(), 2);
    }

    /// A panic while a track's cell is held must not make every later
    /// span on that track, or every read, panic too.
    #[test]
    fn a_poisoned_cell_is_recovered() {
        let rec = TraceRecorder::new();
        let a = rec.register("a");
        a.record(SpanKind::Optimize, 1.0);
        poison(|| {
            let _held = a.cell.inner.lock();
            panic!("poison the trace cell");
        });
        assert!(a.cell.inner.is_poisoned());
        a.record(SpanKind::Optimize, 1.0);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].start, 1.0, "the cursor survived");
    }

    #[test]
    fn cells_merge_in_record_order() {
        let rec = TraceRecorder::new();
        let a = rec.register("a");
        let b = rec.register("b");
        a.record(SpanKind::Optimize, 1.0);
        b.instant(SpanKind::QueryStart { fingerprint: 7 });
        a.instant(SpanKind::QueryDone { answers: 2 });
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].track, a.track());
        assert_eq!(events[1].track, b.track());
        assert_eq!(events[2].start, 1.0, "cursor advanced past the span");
        assert_eq!(rec.event_count(), 3);
    }

    #[test]
    fn control_track_is_zero_and_shared() {
        let rec = TraceRecorder::new();
        let c1 = rec.control();
        let c2 = rec.control();
        c1.record(SpanKind::Optimize, 0.5);
        c2.record(SpanKind::Optimize, 0.5);
        assert_eq!(c1.track(), 0);
        let events = rec.events();
        assert_eq!(events[1].start, 0.5, "same cursor: one shared cell");
        assert_eq!(rec.tracks()[0].1, "control");
    }

    #[test]
    fn threaded_recording_keeps_every_event() {
        let rec = TraceRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = rec.register("worker");
                scope.spawn(move || {
                    for _ in 0..100 {
                        t.instant(SpanKind::Retry {
                            service: "svc".into(),
                        });
                    }
                });
            }
        });
        assert_eq!(rec.events().len(), 400);
    }
}
