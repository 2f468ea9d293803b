//! # ipa-flash — a bit-accurate NAND flash simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *"From In-Place Updates to In-Place Appends: Revisiting Out-of-Place
//! Updates on Flash"* (SIGMOD 2017). It models NAND flash at the level the
//! paper's argument depends on:
//!
//! * **Monotone-charge programming (ISPP).** A flash cell's charge can only
//!   be *increased* by Incremental Step Pulse Programming; only a block erase
//!   resets it. In the standard SLC bit convention an erased cell reads as
//!   logical `1` and a charged cell as logical `0`, so a (re-)program of a
//!   page is physically possible iff every bit transition is `1 → 0`.
//!   [`FlashDevice::program_partial`] enforces exactly this rule, which is
//!   what makes the paper's *in-place appends* legal: the delta-record area
//!   of a database page is left erased (`0xFF`) by the initial program and
//!   can therefore absorb later appends without an erase.
//! * **SLC / MLC organization.** MLC wordlines carry an LSB (fast) and an MSB
//!   (slow) page. The paper's *pSLC* mode uses only LSB pages at half
//!   capacity; *odd-MLC* uses full capacity but only allows appends on LSB
//!   pages. The simulator exposes [`PageKind`] and asymmetric program
//!   latencies so those modes can be built on top (see `ipa-noftl`).
//! * **Timing.** Per-chip busy intervals and a simulated host clock produce
//!   read/program/erase latencies under contention, with an *emulator*
//!   profile (16-way chip parallelism, as in the paper's Flash emulator) and
//!   an *OpenSSD* profile (host I/O serialized through a single queue, as on
//!   the OpenSSD Jasmine board without NCQ).
//! * **Wear.** Per-block program/erase counters with endurance limits
//!   (100k / 10k / 4k cycles for SLC / MLC / TLC).
//! * **Reliability.** Optional retention and program-interference error
//!   injection plus an out-of-band (OOB) area per page for ECC bookkeeping,
//!   mirroring the paper's §6.2 discussion (`ECC_initial` + per-delta codes,
//!   Correct-and-Refresh).
//! * **Copy-back.** [`FlashDevice::submit_copyback_read`] +
//!   [`FlashDevice::submit_copyback_program`] move a page to an erased one
//!   without a host transfer — the management layer's GC migrations. The
//!   page's buffer moves to the target (no byte is copied; the OOB bytes
//!   are) only after every program check has passed, and the source is then
//!   [`PageState::Stale`]: unreadable until its block is erased. The pair
//!   is timed, counted and traced exactly like a read + program of the
//!   page, so a migration costs the same simulated time either way.
//! * **Discard.** [`FlashDevice::discard`] is how the management layer says
//!   a page stopped mapping anything: the page goes stale at once and its
//!   buffer serves the next program or read, while its cells, OOB bytes and
//!   wear stay as they are until the erase. It costs no simulated time.
//!
//! The simulator deliberately stops at the chip interface: logical-to-
//! physical mapping, garbage collection and wear leveling live in
//! `ipa-noftl`, and the database page layout in `ipa-core`.
//!
//! ## Quick example
//!
//! ```
//! use ipa_flash::{FlashConfig, FlashDevice, OpOrigin, Ppa};
//!
//! let mut dev = FlashDevice::new(FlashConfig::small_slc());
//! let ppa = Ppa::new(0, 0, 0);
//! let page_size = dev.config().geometry.page_size;
//!
//! // Initial program leaves the tail of the page erased (0xFF).
//! let mut data = vec![0xFF; page_size];
//! data[..64].copy_from_slice(&[0xAB; 64]);
//! dev.program(ppa, &data, OpOrigin::Host).unwrap();
//!
//! // A later in-place append into the erased tail succeeds without erase...
//! dev.program_partial(ppa, page_size - 16, &[0x12; 16], OpOrigin::Host).unwrap();
//!
//! // ...but rewriting already-programmed cells with arbitrary data fails.
//! assert!(dev.program_partial(ppa, 0, &[0xFF; 8], OpOrigin::Host).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Held by clippy with type information (CI: `cargo clippy --workspace
// --all-targets -- -D warnings`): no panicking shortcut, no swallowed
// `Result`, nothing that reads host state or hash order (the banned calls
// are listed once, in `crates/clippy.toml`). Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        clippy::disallowed_methods,
        clippy::iter_over_hash_type
    )
)]

mod block;
mod cases;
mod chip;
mod counters;
mod device;
#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the reference model compares raw cells")]
mod eager;
mod error;
mod fault;
mod geometry;
mod obs;
mod page;
mod reliability;
mod sched;
mod stats;
mod timing;

pub use cases::for_each_case;
pub use chip::ChipCounters;
pub use counters::{CounterSlot, CounterValue, Counters};
pub use device::{FlashConfig, FlashDevice, OpOrigin, OpResult, WearHistogram};
pub use error::FlashError;
pub use fault::{FaultOp, FaultPlan, ScriptedFault};
pub use geometry::{CellType, FlashGeometry, PageKind, Ppa};
pub use obs::{
    EventField, EventKind, ObsEvent, Observer, OpClass, RecoveryPhaseKind, SpanCategory, SpanId,
};
pub use page::PageState;
pub use reliability::{ReadOutcome, ReliabilityConfig};
pub use sched::{CmdId, Completion};
pub use stats::{FlashStats, LatencyHistogram};
pub use timing::{FlashTiming, HostProfile, SimClock, NANOS_PER_MILLI};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FlashError>;
