//! Error taxonomy of the storage engine.

use ipa_core::CoreError;
use ipa_noftl::NoFtlError;

use crate::heap::Rid;
use crate::txn::TxId;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Page-layout / delta-record error from `ipa-core`.
    Core(CoreError),
    /// Flash-management error from `ipa-noftl`.
    NoFtl(NoFtlError),
    /// The buffer pool has no evictable frame (everything pinned).
    PoolExhausted,
    /// Reference to an unknown or already-finished transaction.
    UnknownTx(TxId),
    /// A row lock could not be granted (conflict with another transaction).
    LockConflict {
        /// Requesting transaction.
        tx: TxId,
        /// Holder of the conflicting lock.
        holder: TxId,
        /// Lock space / key that conflicted.
        key: (u64, u64),
    },
    /// Under the wait-die policy, an *older* transaction hit a lock held
    /// by a younger one: the requester should park and retry the same
    /// operation once the holder finishes (it must not abort). Only the
    /// multi-client executor surfaces this; the no-wait policy maps every
    /// conflict to [`EngineError::LockConflict`].
    LockWait {
        /// Requesting (older) transaction.
        tx: TxId,
        /// Younger holder of the conflicting lock.
        holder: TxId,
        /// Lock space / key that conflicted.
        key: (u64, u64),
    },
    /// Reference to a dead or out-of-range tuple.
    BadRid(Rid),
    /// No page in the heap file can host the tuple and growing failed.
    TupleTooLarge(usize),
    /// The WAL ran out of configured capacity even after reclamation.
    LogFull,
    /// Every logical page of a region is allocated: the engine's page
    /// allocator, not the device, ran out (the device may still hold free
    /// blocks).
    OutOfPages {
        /// The region.
        region: usize,
        /// Its logical pages, all allocated.
        capacity: u64,
    },
    /// B+-tree invariant violation (duplicate key on unique index, ...).
    IndexError(String),
    /// Recovery found an inconsistency it cannot repair.
    RecoveryError(String),
    /// An internal engine invariant did not hold (a bug in the engine
    /// itself, not a caller error); the operation is abandoned instead of
    /// panicking.
    Internal(&'static str),
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<NoFtlError> for EngineError {
    fn from(e: NoFtlError) -> Self {
        EngineError::NoFtl(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "core: {e}"),
            EngineError::NoFtl(e) => write!(f, "noftl: {e}"),
            EngineError::PoolExhausted => write!(f, "buffer pool exhausted (all frames pinned)"),
            EngineError::UnknownTx(tx) => write!(f, "unknown transaction {}", tx.0),
            EngineError::LockConflict { tx, holder, key } => write!(
                f,
                "tx {} lock conflict with tx {} on ({}, {})",
                tx.0, holder.0, key.0, key.1
            ),
            EngineError::LockWait { tx, holder, key } => write!(
                f,
                "tx {} must wait for younger tx {} on ({}, {})",
                tx.0, holder.0, key.0, key.1
            ),
            EngineError::BadRid(rid) => write!(f, "bad rid {rid:?}"),
            EngineError::TupleTooLarge(n) => write!(f, "tuple of {n} bytes does not fit any page"),
            EngineError::LogFull => write!(f, "log capacity exhausted"),
            EngineError::OutOfPages { region, capacity } => {
                write!(f, "region {region} has all {capacity} logical pages allocated")
            }
            EngineError::IndexError(msg) => write!(f, "index: {msg}"),
            EngineError::RecoveryError(msg) => write!(f, "recovery: {msg}"),
            EngineError::Internal(msg) => write!(f, "internal engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = CoreError::BadSlot(3).into();
        assert!(e.to_string().contains("core:"));
        let e: EngineError = NoFtlError::Unmapped(ipa_noftl::Lba(1)).into();
        assert!(e.to_string().contains("noftl:"));
        assert!(EngineError::PoolExhausted.to_string().contains("pinned"));
        let out = EngineError::OutOfPages { region: 2, capacity: 640 };
        assert_eq!(out.to_string(), "region 2 has all 640 logical pages allocated");
    }
}
