//! # ipa-obs — cross-layer observability for the IPA stack
//!
//! Every result in the paper's evaluation (Tables 2–11, Figures 1/6/7–10)
//! is derived from counters that live in three layers: the flash device
//! ([`ipa_flash::FlashStats`]), the NoFTL regions
//! ([`ipa_noftl::RegionStats`]) and the storage engine
//! ([`ipa_engine::EngineStats`]). This crate ties them together:
//!
//! * **Event trace** — [`TraceHandle`] is a bounded ring buffer of typed
//!   [`ObsEvent`]s; [`JsonlSink`] streams the same events to a JSONL file.
//!   Both plug into any layer through the [`Observer`] trait defined in
//!   `ipa-flash`, so one flush can be followed engine→NoFTL→flash on a
//!   single monotonic sequence number and simulated clock.
//! * **Metrics registry** — [`Snapshot`] captures all three stats structs
//!   (plus per-region and per-chip breakdowns) at one instant;
//!   [`Snapshot::delta_since`] turns two snapshots into interval counters,
//!   and [`MetricsRegistry`] collects a time series of them with derived
//!   gauges (write amplification, IPA ratio, p50/p95/p99 latencies).
//! * **Report path** — [`ExperimentReport`] + [`Table`] replace the
//!   hand-rolled JSON blocks in the bench binaries: one shared renderer
//!   that prints the paper tables, saves them as text, and embeds the
//!   registry's `timeseries` array in each `bench-results/*.json`.
//!
//! Tracing is opt-in: with no observer attached the hot path pays a single
//! branch per flash operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Held by clippy (CI runs it with `-D warnings`): a `Result` is never
// swallowed outside test code.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod analyze;
mod jsonl;
mod registry;
mod report;
mod ring;
mod snapshot;

pub use ipa_flash::{EventKind, ObsEvent, Observer, OpClass, SpanCategory, SpanId};
pub use jsonl::{event_to_json, JsonlSink};
pub use registry::{MetricsRegistry, SamplePoint};
pub use report::{ExperimentReport, Table};
pub use ring::TraceHandle;
pub use snapshot::{Gauges, Snapshot};
