//! # ipa-noftl — NoFTL-style flash management inside the DBMS
//!
//! The paper implements In-Place Appends under **NoFTL** [16, 19]: instead
//! of hiding flash behind an on-device FTL, the DBMS manages raw flash
//! directly — logical-to-physical mapping, garbage collection, wear
//! leveling and data placement all live in the database's storage layer,
//! configured through **regions** (§5, Figure 3):
//!
//! ```text
//! CREATE REGION rgIPA (MAX_CHIPS=8, MAX_SIZE=512M, IPA_MODE = pSLC);
//! CREATE TABLESPACE tsIPA (REGION=rgIPA, ...);
//! ```
//!
//! This crate provides exactly that layer over [`ipa_flash::FlashDevice`]:
//!
//! * [`RegionSpec`] / [`IpaMode`] — bind a set of chips to an address space
//!   and select how appends map onto the cell type: `Slc` (native), `PSlc`
//!   (MLC at half capacity, LSB pages only), `OddMlc` (full capacity,
//!   appends only when the page currently resides on an LSB page), or
//!   `None` (IPA disabled — the paper's `[0×0]` baseline).
//! * [`NoFtl`] — the device manager: `read_page`, `write_page`
//!   (out-of-place + invalidation), **`write_delta(lba, offset, bytes)`**
//!   (§7 — the new first-class I/O command backing in-place appends),
//!   `trim`; the ECC scheme's OOB bytes ride on the write commands.
//! * Greedy garbage collection (fewest-valid-pages victim), free-block
//!   allocation preferring least-worn blocks (dynamic wear leveling) and an
//!   explicit static wear-leveling pass. Both move a valid page verbatim by
//!   copy-back, its OOB bytes (ECC codes) with it: the layer
//!   never looks inside a page and never calls back into the engine above.
//! * [`RegionStats`] — per-region counters matching the rows of the paper's
//!   Tables 6–10 (host reads/writes, delta writes, GC page migrations, GC
//!   erases and the per-host-write ratios).

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

mod config;
mod error;
mod manager;
mod region;
mod stats;

pub use config::{FaultPolicy, IpaMode, NoFtlConfig, RegionSpec};
pub use error::NoFtlError;
pub use manager::{NoFtl, RegionId};
pub use region::Lba;
pub use stats::RegionStats;

// Vocabulary types that travel through this crate's API: queued-I/O
// handles, op attribution/outcome, device configuration and the observer
// hooks. Re-exported so upper layers (the engine in particular) never
// import `ipa_flash` directly — its manifest does not declare it
// (`tests/layering.rs`).
pub use ipa_flash::{
    counters, CmdId, Completion, Counters, EventKind, FaultOp, FaultPlan, FlashConfig, IoCtx,
    ObsEvent, Observer, OpClass, OpOrigin, OpResult, RecoveryPhaseKind, ScriptedFault,
    SpanCategory, SpanId, WearHistogram,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NoFtlError>;
