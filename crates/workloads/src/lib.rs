//! # ipa-workloads — OLTP workload generators for the IPA evaluation
//!
//! Reimplementations of the four update-intensive workloads the paper
//! analyses and benchmarks (§8.2, Appendix A), driven against the
//! `ipa-engine` database:
//!
//! * [`tpcb::TpcB`] — the single Account_Update transaction: three 4-byte
//!   numeric updates (branch, teller, account) plus one history append.
//!   50–90% of update I/Os change exactly 4 net bytes (Figure 7).
//! * [`tpcc::TpcC`] — the order-entry mix (NewOrder 45 / Payment 43 /
//!   OrderStatus 4 / Delivery 4 / StockLevel 4). The STOCK table dominates
//!   writes: each NewOrder touches ~10 random stock tuples, changing ~3 net
//!   bytes per page (Figure 8, Table 1).
//! * [`tatp::Tatp`] — the telecom mix: 80% reads, small subscriber updates
//!   (UPDATE_LOCATION changes one 4-byte field).
//! * [`linkbench::LinkBench`] — a social-graph store (nodes ~90 B payload,
//!   associations ~12 B, half empty) with the 10-operation LinkBench mix at
//!   a 2.19:1 read:write ratio; updates up to ~125 gross bytes (Figure 10).
//! * [`phases::PhaseShift`] — a synthetic phase-shifting update workload
//!   (the update-size CDF rotates every `phase_len` transactions) built to
//!   exercise the online adaptive `[N×M]` re-tuning of the engine.
//!
//! [`driver`] provides the shared machinery: deterministic run loop with
//! background-work ticks, simulated-clock accounting, system sizing
//! ([`driver::SystemConfig`] — emulator vs OpenSSD platform, `[N×M]`
//! scheme, buffer fraction) and a [`driver::RunReport`] carrying exactly
//! the rows the paper's tables print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Held by clippy (CI runs it with `-D warnings`): a `Result` is never
// swallowed outside test code.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod driver;
pub mod linkbench;
pub mod phases;
pub mod tatp;
pub mod tpcb;
pub mod tpcc;
pub mod util;

pub use driver::{
    MultiRunReport, MultiRunner, Platform, RunReport, Runner, SystemConfig, Workload,
};
pub use linkbench::LinkBench;
pub use phases::PhaseShift;
pub use tatp::Tatp;
pub use tpcb::{SharedTpcB, TpcB, TpcBClient};
pub use tpcc::TpcC;
