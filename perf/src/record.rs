//! What the traced run keeps in memory: the operation stream the device
//! and engine emit, and `Instant` spans around the harness's own calls.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ipa_flash::{EventKind, ObsEvent, Observer};

/// One recorded operation, compact enough to hold a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Host page read of an LBA.
    HostRead(u32),
    /// Host out-of-place page program of an LBA.
    HostProgram(u32),
    /// Host delta append of `bytes` to an LBA.
    DeltaProgram {
        /// Logical page.
        lba: u32,
        /// Encoded record size.
        bytes: u32,
    },
    /// GC moved the valid page of an LBA.
    GcMigration(u32),
    /// Block erase.
    Erase,
    /// Engine flushed a page as `records` delta appends.
    FlushIpa(u16),
    /// Engine flushed a page out of place.
    FlushOop,
    /// Engine evicted a frame.
    Evict,
}

/// The recorded stream of one run, set-up included (a replay has to walk
/// the same history to reach the same device state).
#[derive(Debug, Default)]
pub struct Tape {
    /// Operations in emission order.
    pub ops: Vec<Op>,
    /// Index of the first operation of the measured window (the position
    /// of the last `StatsReset`).
    pub window_start: usize,
    /// One past the last operation of the measured window (operations
    /// after it belong to the checks and the restart).
    pub window_end: usize,
    /// Whether the window is over ([`Recorder::mark_window_end`]).
    pub closed: bool,
    /// Every event of any kind seen inside the window.
    pub window_events: u64,
    /// The first events of the window verbatim, as input for the JSONL
    /// sink timing.
    pub sample: Vec<ObsEvent>,
}

/// Events kept verbatim in [`Tape::sample`].
const SAMPLE_EVENTS: usize = 50_000;

/// Observer half of a [`Tape`]; the harness keeps the other handle.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Arc<Mutex<Tape>>);

impl Recorder {
    /// A boxed observer feeding this recorder's tape.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }

    /// The measured window ends here: later operations stay on the tape
    /// but outside the window.
    pub fn mark_window_end(&self) {
        let mut tape = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        tape.window_end = tape.ops.len();
        tape.closed = true;
    }

    /// Take the tape out (the recorder is left empty).
    pub fn take(&self) -> Tape {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Observer for Recorder {
    fn on_event(&mut self, event: ObsEvent) {
        // Every workload uses one region, so the region id is not kept.
        let lba = event.lba.unwrap_or(0) as u32;
        let op = match event.kind {
            EventKind::HostRead => Some(Op::HostRead(lba)),
            EventKind::HostProgram => Some(Op::HostProgram(lba)),
            EventKind::DeltaProgram { bytes } => Some(Op::DeltaProgram { lba, bytes }),
            EventKind::GcMigration => Some(Op::GcMigration(lba)),
            EventKind::Erase => Some(Op::Erase),
            EventKind::FlushIpa { records } => Some(Op::FlushIpa(records)),
            EventKind::FlushOop => Some(Op::FlushOop),
            EventKind::Evict => Some(Op::Evict),
            _ => None,
        };
        let mut tape = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if event.kind == EventKind::StatsReset && !tape.closed {
            tape.window_start = tape.ops.len();
            tape.window_events = 0;
            tape.sample.clear();
            return;
        }
        if !tape.closed {
            tape.window_events += 1;
            if tape.sample.len() < SAMPLE_EVENTS {
                tape.sample.push(event);
            }
        }
        if let Some(op) = op {
            tape.ops.push(op);
        }
    }
}

/// Observer that only counts, for the observer-overhead run.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<Mutex<u64>>);

impl Counter {
    /// A boxed observer feeding this counter.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(self.clone())
    }
}

impl Observer for Counter {
    fn on_event(&mut self, _event: ObsEvent) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) += 1;
    }
}

/// Index of a span inside a [`SpanLog`].
pub type SpanIdx = u32;
/// "No parent" / "no transaction".
pub const NONE: u32 = u32::MAX;

/// One harness-side span: a call into a `Database`-level function.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call name.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Enclosing span.
    pub parent: SpanIdx,
    /// Transaction ordinal inside the measured window, or [`NONE`].
    pub txn: u32,
}

/// Spans of one run, kept in memory and written out at exit.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Closed and open spans in opening order.
    pub spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn open(&mut self, name: &'static str, parent: SpanIdx, txn: u32) -> SpanIdx {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, txn });
        (self.spans.len() - 1) as SpanIdx
    }

    /// Close a span.
    pub fn close(&mut self, idx: SpanIdx) {
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Durations of the spans called `name` that belong to a transaction.
    pub fn txn_durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.txn != NONE)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Write the log as JSON, one array per field (a run holds millions of
    /// spans, so this streams instead of building a value tree).
    pub fn write_json(&self, w: &mut impl Write) -> std::io::Result<()> {
        fn column<W: Write, T: std::fmt::Display>(
            w: &mut W,
            key: &str,
            spans: &[Span],
            f: impl Fn(&Span) -> T,
        ) -> std::io::Result<()> {
            write!(w, "\"{key}\":[")?;
            for (i, s) in spans.iter().enumerate() {
                if i > 0 {
                    w.write_all(b",")?;
                }
                write!(w, "{}", f(s))?;
            }
            w.write_all(b"]")
        }
        let opt = |v: u32| if v == NONE { "null".to_string() } else { v.to_string() };
        w.write_all(b"{\"unit\":\"ns since the log was created\",")?;
        column(w, "name", &self.spans, |s| format!("\"{}\"", s.name))?;
        w.write_all(b",")?;
        column(w, "start_ns", &self.spans, |s| s.start_ns)?;
        w.write_all(b",")?;
        column(w, "end_ns", &self.spans, |s| s.end_ns)?;
        w.write_all(b",")?;
        column(w, "parent", &self.spans, |s| opt(s.parent))?;
        w.write_all(b",")?;
        column(w, "txn", &self.spans, |s| opt(s.txn))?;
        w.write_all(b"}\n")
    }
}
