//! `ipa-perf`: the two-clock benchmark of the IPA stack.
//!
//! One binary runs four workloads, checks their outputs, and reports
//! end-to-end metrics on the host clock and on the simulated clock, plus
//! per-layer metrics obtained by replaying the recorded operation stream
//! against each layer alone. See `README.md` for the glossary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod record;
pub mod replay;
pub mod report;
pub mod run;
pub mod spec;
pub mod yardstick;
