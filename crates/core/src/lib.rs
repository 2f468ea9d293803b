//! # ipa-core — In-Place Appends: page layout, delta records, [N×M] scheme
//!
//! The primary contribution of *"From In-Place Updates to In-Place Appends"*
//! (SIGMOD 2017), independent of any particular storage engine or flash
//! device:
//!
//! * [`scheme::NxM`] — the paper's `[N×M]` control scheme: at most `N`
//!   delta records per database page, each covering at most `M` changed
//!   body bytes and `V` changed metadata bytes, with the §6.1 sizing rule
//!   `delta_area = N * (1 + 3M + 3V)`.
//! * [`layout::PageLayout`] — the revised NSM slotted-page layout (Figure 4):
//!   header, **delta-record area** (left erased on flash until appended),
//!   tuple body, and the slot-table footer.
//! * [`slotted::DbPage`] — tuple-level operations over that layout, with
//!   byte-level change tracking hooks.
//! * [`delta::DeltaRecord`] — the delta-record wire format: a control byte
//!   plus `<new_value, offset>` pairs, encoded so that *unused* pair slots
//!   stay erased (`0xFF`) and remain ISPP-appendable.
//! * [`tracking::ChangeTracker`] — accumulates changed byte offsets while a
//!   page is buffered and decides on eviction between an in-place append
//!   and an out-of-place write (`C_p = (N − N_E) · M`, §6.2).
//! * [`advisor::IpaAdvisor`] — the workload-profiling advisor that suggests
//!   `(N, M, V)` per database object for a chosen optimization goal (§8.4).
//! * [`ecc`] — the sectioned ECC scheme (`ECC_initial` + one code per delta
//!   record) that maps onto the flash page's OOB area (§6.2).
//!
//! The crate is `ipa-engine`-agnostic and device-agnostic: it manipulates
//! plain byte buffers, so it can sit under any page-based storage manager.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Held by clippy (CI runs it with `-D warnings`): a `Result` is never
// swallowed outside test code.
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod advisor;
pub mod delta;
pub mod ecc;
mod error;
pub mod layout;
pub mod scheme;
pub mod slotted;
pub mod tracking;

pub use advisor::{AdvisorGoal, IpaAdvisor, UpdateSizeProfile};
pub use delta::{ChangePair, DeltaRecord};
pub use error::CoreError;
pub use layout::{PageLayout, HEADER_SIZE, SLOT_SIZE};
pub use scheme::NxM;
pub use slotted::{changed_runs, DbPage, SlotId};
pub use tracking::{ChangeTracker, FlushDecision};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
