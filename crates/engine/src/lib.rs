//! # ipa-engine — a Shore-MT-style storage engine over NoFTL flash
//!
//! The paper evaluates In-Place Appends inside Shore-MT: an ACID storage
//! engine with ARIES-style write-ahead logging, a steal/no-force buffer
//! pool with **eager** background cleaning (flush when ~12.5% of the pool
//! is dirty) and **eager log-space reclamation** (flush dirty pages when
//! 25–50% of the log is consumed), heap tables over slotted pages and
//! B+-tree indexes. This crate reimplements that stack from scratch on top
//! of `ipa-noftl` / `ipa-flash`, with the IPA machinery of `ipa-core` wired
//! into the page-flush path:
//!
//! * [`Database`] — the engine: what a power loss leaves (device, WAL,
//!   catalog, measurement, options) and what it takes (pool, lock and
//!   transaction tables, group-commit stage, scratch), which `open` and a
//!   crash build through one constructor. Its state has three owners, each
//!   with fields private to the file of the `impl Database` methods writing
//!   them: `pager.rs` (device, buffer pool, allocators, layouts, profiles —
//!   fetch, evict, flush), `log.rs` (WAL, group-commit stage, checkpoints,
//!   reclamation) and `adaptive.rs` (the online `[N×M]` re-tune). `db.rs`
//!   keeps the split, the configuration ([`DbConfig::eager`] vs non-eager —
//!   the knob behind Tables 9 vs 10), the transaction / lock glue and
//!   [`Database::open`].
//! * On eviction/cleaning, each dirty page consults its
//!   [`ipa_core::ChangeTracker`]: small accumulated changes become delta
//!   records appended to the original flash page via `write_delta`;
//!   everything else is a traditional out-of-place page write — decided in
//!   one place, `pager.rs`'s `stage_flush`.
//! * [`Database::create_heap`] — heap files (`heap.rs`): tuple storage with
//!   insert/update/delete/scan, row locks and physical REDO/UNDO logging.
//! * [`Database::create_index`] — a paged B+-tree (`btree.rs`) whose node
//!   mutations flow through the same byte-level tracking (index pages
//!   benefit from IPA too).
//! * A logged change is its log record, applied: heap operations, node
//!   writes and rollback build the record and hand it to `log_and_apply`
//!   (`log.rs`: append, then apply), restart redo finds it in the log, and
//!   `apply_record` (`pager.rs`) is the one routine that changes a tuple
//!   and stamps the PageLSN with the record's LSN. The page is never ahead
//!   of the log. [`Database::with_page_mut`] is the unlogged entry, for
//!   changes no record describes.
//! * [`Database::simulate_crash`] + [`Database::recover`] — ARIES
//!   analysis/redo/undo restart over the flash image, exercising the §6.2
//!   interplay between delta records and recovery.
//! * Per-region [`ipa_core::UpdateSizeProfile`] collection — the raw data
//!   behind the paper's update-size CDFs (Figures 7–10, Tables 1 and 11).
//! * [`Database::txn`] — the RAII [`Txn`] guard API (commit/abort consume
//!   the guard, drop rolls back); [`Database::open`] takes the device
//!   configuration, one `[N×M]` scheme per region and a [`DbConfig`].
//! * [`ClientPool`] — a deterministic multi-client executor interleaving
//!   K clients at page-operation granularity under seeded schedules, with
//!   wait-die deadlock avoidance ([`LockPolicy::WaitDie`]) and a group
//!   commit stage that amortizes log forces across concurrent commits
//!   ([`DbConfig::group_commit_batch`]).

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

mod adaptive;
mod btree;
mod buffer;
mod db;
mod error;
mod heap;
mod lock;
mod log;
mod pager;
mod pool;
mod recovery;
mod session;
mod stats;
mod txn;
mod wal;

pub use buffer::SweepStats;
pub use db::{Database, DbConfig, PageId};
pub use error::EngineError;
pub use heap::Rid;
pub use lock::LockPolicy;
pub use pool::{ClientPool, InterleavedClient, PoolConfig, PoolRunReport, Schedule, StepOutcome};
pub use session::Txn;
pub use stats::{EngineStats, TraceEvent};
// The trait behind `EngineStats` / `SweepStats` (`merge`, `delta_since`,
// `reset`, `walk`), so engine users need no `ipa-noftl` import for it.
pub use ipa_noftl::Counters;
pub use txn::TxId;
pub use wal::{Lsn, LOG_CHUNK_BYTES};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
