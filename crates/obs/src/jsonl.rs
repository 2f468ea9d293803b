//! JSONL export: one JSON object per trace event, streamed through a
//! buffered writer as events arrive (so a crash keeps the prefix).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use ipa_flash::{EventField, ObsEvent, Observer};
use serde_json::{Map, Value};

/// Encode one event as a flat JSON object: the envelope (`seq`, `t_ns`,
/// and `region`/`lba` when known) around the kind's own wire form
/// ([`ipa_flash::EventKind::wire`]: `kind` plus its payload inlined as extra keys).
pub fn event_to_json(event: &ObsEvent) -> Value {
    let mut m = Map::new();
    m.insert("seq".into(), Value::from(event.seq));
    m.insert("t_ns".into(), Value::from(event.t_ns));
    if let Some(region) = event.region {
        m.insert("region".into(), Value::from(region));
    }
    if let Some(lba) = event.lba {
        m.insert("lba".into(), Value::from(lba));
    }
    m.insert("kind".into(), Value::from(event.kind.name()));
    event.kind.wire(|key, field| {
        let value = match field {
            EventField::Uint(n) => Value::from(n),
            EventField::Flag(b) => Value::from(b),
            EventField::Name(s) => Value::from(s),
        };
        m.insert(key.into(), value);
    });
    Value::Object(m)
}

struct SinkState {
    w: Box<dyn Write + Send>,
    written: u64,
    dropped: u64,
}

/// A shared JSONL destination. Like [`crate::TraceHandle`], the sink stays
/// with the caller while [`JsonlSink::observer`] handles go to the traced
/// layers.
#[derive(Clone)]
pub struct JsonlSink {
    inner: Arc<Mutex<SinkState>>,
}

impl JsonlSink {
    /// Stream to a file (parent directories are created), truncating any
    /// previous trace.
    pub fn file(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JsonlSink::writer(Box::new(BufWriter::new(file))))
    }

    /// Stream to an arbitrary writer.
    pub fn writer(w: Box<dyn Write + Send>) -> Self {
        JsonlSink { inner: Arc::new(Mutex::new(SinkState { w, written: 0, dropped: 0 })) }
    }

    /// An [`Observer`] writing one JSON line per event into this sink.
    pub fn observer(&self) -> Box<dyn Observer> {
        Box::new(JsonlObserver { inner: Arc::clone(&self.inner) })
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.inner.lock().expect("jsonl sink lock").written
    }

    /// Events lost to write errors (e.g. a full disk) so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("jsonl sink lock").dropped
    }

    /// Flush buffered output (call once the run is over).
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.lock().expect("jsonl sink lock").w.flush()
    }

    /// Terminate the trace: append a `{"kind":"trace_end",...}` trailer
    /// carrying the written/dropped accounting, then flush. Analyzers use
    /// the trailer to tell a complete trace from a truncated one.
    pub fn finish(&self) -> std::io::Result<()> {
        let mut s = self.inner.lock().expect("jsonl sink lock");
        let trailer = serde_json::json!({
            "kind": "trace_end",
            "written": s.written,
            "dropped": s.dropped,
        });
        writeln!(s.w, "{trailer}")?;
        s.w.flush()
    }
}

struct JsonlObserver {
    inner: Arc<Mutex<SinkState>>,
}

impl Observer for JsonlObserver {
    fn on_event(&mut self, event: ObsEvent) {
        let line = event_to_json(&event).to_string();
        let mut s = self.inner.lock().expect("jsonl sink lock");
        // Trace export is best-effort; a full disk must not abort the run —
        // but the loss is counted and surfaces in the trace_end trailer.
        match writeln!(s.w, "{line}") {
            Ok(()) => s.written += 1,
            Err(_) => s.dropped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_flash::EventKind;

    #[test]
    fn event_encoding_inlines_payloads_and_skips_unknowns() {
        let e = ObsEvent {
            seq: 3,
            t_ns: 99,
            region: Some(1),
            lba: Some(7),
            kind: EventKind::DeltaProgram { bytes: 46 },
        };
        let v = event_to_json(&e);
        assert_eq!(v["seq"], 3);
        assert_eq!(v["region"], 1);
        assert_eq!(v["kind"], "delta_program");
        assert_eq!(v["bytes"], 46);

        let bare = ObsEvent { seq: 0, t_ns: 0, region: None, lba: None, kind: EventKind::Erase };
        let v = event_to_json(&bare);
        assert!(v.get("region").is_none());
        assert!(v.get("lba").is_none());
        assert_eq!(v["kind"], "erase");
    }

    #[test]
    fn sink_writes_one_line_per_event() {
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let store = Shared::default();
        let sink = JsonlSink::writer(Box::new(store.clone()));
        let mut obs = sink.observer();
        for seq in 0..3 {
            obs.on_event(ObsEvent {
                seq,
                t_ns: seq,
                region: None,
                lba: None,
                kind: EventKind::FlushOop,
            });
        }
        sink.flush().unwrap();
        let text = String::from_utf8(store.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["seq"], i as u64);
            assert_eq!(v["kind"], "flush_oop");
        }
        assert_eq!(sink.written(), 3);
        assert_eq!(sink.dropped(), 0);
        sink.finish().unwrap();
        let text = String::from_utf8(store.0.lock().unwrap().clone()).unwrap();
        let last: Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
        assert_eq!(last["kind"], "trace_end");
        assert_eq!(last["written"], 3);
        assert_eq!(last["dropped"], 0);
    }

    #[test]
    fn adaptive_events_inline_payloads() {
        let change = ObsEvent {
            seq: 0,
            t_ns: 5,
            region: Some(2),
            lba: None,
            kind: EventKind::SchemeChange { epoch: 3, old: (2, 3, 12), new: (2, 24, 12) },
        };
        let v = event_to_json(&change);
        assert_eq!(v["kind"], "scheme_change");
        assert_eq!(v["epoch"], 3);
        assert_eq!(v["old_m"], 3);
        assert_eq!(v["new_m"], 24);
        assert_eq!(v["region"], 2);

        let prof = ObsEvent {
            seq: 1,
            t_ns: 6,
            region: Some(2),
            lba: None,
            kind: EventKind::ProfileSnapshot {
                observations: 400,
                body_p50: 3,
                body_p95: 24,
                meta_p99: 9,
            },
        };
        let v = event_to_json(&prof);
        assert_eq!(v["kind"], "profile_snapshot");
        assert_eq!(v["observations"], 400);
        assert_eq!(v["body_p50"], 3);
        assert_eq!(v["body_p95"], 24);
        assert_eq!(v["meta_p99"], 9);
    }

    #[test]
    fn checkpoint_and_recovery_events_inline_payloads() {
        let begin =
            ObsEvent { seq: 0, t_ns: 1, region: None, lba: None, kind: EventKind::CheckpointBegin };
        assert_eq!(event_to_json(&begin)["kind"], "checkpoint_begin");

        let end = ObsEvent {
            seq: 1,
            t_ns: 2,
            region: None,
            lba: None,
            kind: EventKind::CheckpointEnd { active: 3, dirty: 17 },
        };
        let v = event_to_json(&end);
        assert_eq!(v["kind"], "checkpoint_end");
        assert_eq!(v["active"], 3);
        assert_eq!(v["dirty"], 17);

        let phase = ObsEvent {
            seq: 2,
            t_ns: 3,
            region: None,
            lba: None,
            kind: EventKind::RecoveryPhase {
                phase: ipa_flash::RecoveryPhaseKind::Redo,
                records: 42,
            },
        };
        let v = event_to_json(&phase);
        assert_eq!(v["kind"], "recovery_phase");
        assert_eq!(v["phase"], "redo");
        assert_eq!(v["records"], 42);
    }

    #[test]
    fn span_and_cmd_events_inline_payloads() {
        use ipa_flash::{OpClass, OpOrigin, SpanCategory, SpanId};
        let open = ObsEvent {
            seq: 0,
            t_ns: 10,
            region: None,
            lba: None,
            kind: EventKind::SpanOpen {
                id: SpanId(4),
                parent: Some(SpanId(2)),
                cat: SpanCategory::Gc,
            },
        };
        let v = event_to_json(&open);
        assert_eq!(v["kind"], "span_open");
        assert_eq!(v["span"], 4);
        assert_eq!(v["parent"], 2);
        assert_eq!(v["cat"], "gc");

        let submit = ObsEvent {
            seq: 1,
            t_ns: 20,
            region: Some(0),
            lba: Some(9),
            kind: EventKind::CmdSubmit {
                cmd: 7,
                class: OpClass::ProgramDelta,
                origin: OpOrigin::Host,
                chip: 3,
                queue_wait_ns: 150,
                span: Some(SpanId(4)),
            },
        };
        let v = event_to_json(&submit);
        assert_eq!(v["kind"], "cmd_submit");
        assert_eq!(v["cmd"], 7);
        assert_eq!(v["class"], "program_delta");
        assert_eq!(v["origin"], "host");
        assert_eq!(v["chip"], 3);
        assert_eq!(v["queue_wait_ns"], 150);
        assert_eq!(v["span"], 4);

        let done = ObsEvent {
            seq: 2,
            t_ns: 30,
            region: None,
            lba: None,
            kind: EventKind::CmdComplete { cmd: 7, submitted_ns: 20, start_ns: 25, done_ns: 30 },
        };
        let v = event_to_json(&done);
        assert_eq!(v["kind"], "cmd_complete");
        assert_eq!(v["submitted_ns"], 20);
        assert_eq!(v["start_ns"], 25);
        assert_eq!(v["done_ns"], 30);
    }
}
