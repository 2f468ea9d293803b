//! Row-level lock manager (S/X) with pluggable conflict policy.
//!
//! The default policy is **no-wait**: a conflicting request fails
//! immediately with [`EngineError::LockConflict`] and the caller aborts,
//! which doubles as trivial deadlock avoidance — the right behaviour for
//! the serial benchmark drivers, where conflicts are rare.
//!
//! The multi-client executor runs on a table built with **wait-die**
//! (Rosenkrantz et al.): on conflict the transaction ids decide — an
//! *older* requester (smaller id) gets [`EngineError::LockWait`] and parks
//! until the holder finishes; a *younger* requester "dies" with
//! [`EngineError::LockConflict`] and restarts. Wait-for edges then only
//! ever point from older to younger transactions, so no cycle (deadlock)
//! can form, deterministically and without a waits-for graph.
//!
//! A transaction takes 7 to ~60 row locks and drops them all at commit, so
//! the table is built to do that without touching the allocator: one flat
//! open-addressed array keyed by `(space, row)` with the first holder
//! stored in the slot itself (further sharers of a row, the rare case, in
//! a vector beside it), and the per-transaction key lists are recycled
//! from one transaction to the next.

use crate::error::EngineError;
use crate::txn::TxId;
use crate::Result;

/// Lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read).
    Shared,
    /// Exclusive (write).
    Exclusive,
}

/// Conflict-resolution policy of the lock table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockPolicy {
    /// Fail every conflicting request immediately (the requester aborts).
    #[default]
    NoWait,
    /// Wait-die deadlock avoidance: older requesters wait, younger ones
    /// die. Ids are the priority — [`TxId`]s are assigned monotonically,
    /// so a smaller id means an older transaction.
    WaitDie,
}

/// One held lock.
#[derive(Debug)]
struct Held {
    key: LockKey,
    mode: LockMode,
    /// A holder; the only one of an exclusive lock.
    holder: TxId,
    /// The other holders of a shared lock. Empty — and then it owns no
    /// memory — unless two transactions read one row at the same time.
    sharers: Vec<TxId>,
}

impl Held {
    fn holds(&self, tx: TxId) -> bool {
        self.holder == tx || self.sharers.contains(&tx)
    }

    fn holders(&self) -> impl Iterator<Item = TxId> + '_ {
        std::iter::once(self.holder).chain(self.sharers.iter().copied())
    }
}

/// Lock keys are `(space, row)` pairs — e.g. `(table_id, primary_key)`.
pub type LockKey = (u64, u64);

/// Slots of a new table; it doubles whenever it gets half full.
const INITIAL_SLOTS: usize = 64;

/// The lock table.
#[derive(Debug)]
pub struct LockManager {
    /// Open addressing with linear probing over a power-of-two number of
    /// slots, at most half of them occupied; a removal shifts the entries
    /// behind it back, so there are no tombstones and a probe ends at the
    /// first empty slot.
    slots: Vec<Option<Held>>,
    held: usize,
    /// The keys each active transaction holds, for release-all at
    /// commit/abort. A handful of entries: one per client.
    by_tx: Vec<(TxId, Vec<LockKey>)>,
    /// Emptied key lists of finished transactions, for the next ones.
    spare_lists: Vec<Vec<LockKey>>,
    policy: LockPolicy,
}

/// Keys come from inside the engine (heap ids and RIDs), so a multiplicative
/// mix is enough: rows of one table differ in their low bits.
fn hash(key: LockKey) -> usize {
    let mixed = (key.0.rotate_left(32) ^ key.1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize
}

impl LockManager {
    /// An empty lock table resolving conflicts by `policy`.
    pub fn new(policy: LockPolicy) -> Self {
        LockManager {
            slots: (0..INITIAL_SLOTS).map(|_| None).collect(),
            held: 0,
            by_tx: Vec::new(),
            spare_lists: Vec::new(),
            policy,
        }
    }

    /// Resolve a conflict per policy: no-wait always dies; wait-die parks
    /// the requester when it is older than the holder.
    fn conflict(&self, tx: TxId, holder: TxId, key: LockKey) -> EngineError {
        match self.policy {
            LockPolicy::WaitDie if tx < holder => EngineError::LockWait { tx, holder, key },
            LockPolicy::NoWait | LockPolicy::WaitDie => {
                EngineError::LockConflict { tx, holder, key }
            }
        }
    }

    /// The slot holding `key` (`Ok`), or the empty slot its probe ends at
    /// (`Err`).
    fn probe(&self, key: LockKey) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash(key) & mask;
        loop {
            match &self.slots[i] {
                None => return Err(i),
                Some(held) if held.key == key => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Double the table and put every entry where its probe now ends.
    fn grow(&mut self) {
        let doubled = (0..self.slots.len() * 2).map(|_| None).collect();
        for held in std::mem::replace(&mut self.slots, doubled).into_iter().flatten() {
            if let Err(empty) = self.probe(held.key) {
                self.slots[empty] = Some(held);
            }
        }
    }

    /// Empty slot `at`, then move back every entry of the probe run behind
    /// it that the hole would cut off from its home slot.
    fn remove(&mut self, mut at: usize) {
        let mask = self.slots.len() - 1;
        self.slots[at] = None;
        self.held -= 1;
        let mut next = at;
        loop {
            next = (next + 1) & mask;
            let Some(held) = &self.slots[next] else { return };
            // How far `next` and the hole lie behind the entry's home slot:
            // the entry stays reachable iff the hole is not in between.
            let home = hash(held.key) & mask;
            if (at.wrapping_sub(home) & mask) < (next.wrapping_sub(home) & mask) {
                self.slots[at] = self.slots[next].take();
                at = next;
            }
        }
    }

    /// Record that `tx` now holds `key`.
    fn note(&mut self, tx: TxId, key: LockKey) {
        match self.by_tx.iter_mut().find(|(holder, _)| *holder == tx) {
            Some((_, keys)) => keys.push(key),
            None => {
                let mut keys = self.spare_lists.pop().unwrap_or_default();
                keys.push(key);
                self.by_tx.push((tx, keys));
            }
        }
    }

    /// Acquire a lock, upgrading S→X when the requester is the sole holder.
    pub fn lock(&mut self, tx: TxId, key: LockKey, mode: LockMode) -> Result<()> {
        // Room for one more entry in a table at most half full.
        if (self.held + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let at = match self.probe(key) {
            Err(empty) => {
                self.slots[empty] = Some(Held { key, mode, holder: tx, sharers: Vec::new() });
                self.held += 1;
                self.note(tx, key);
                return Ok(());
            }
            Ok(at) => at,
        };
        let Some(held) = self.slots[at].as_mut() else {
            return Err(EngineError::Internal("a probe ended on a held lock that is not there"));
        };
        if held.holds(tx) {
            // Re-entrant; possibly upgrade.
            if mode == LockMode::Exclusive && held.mode == LockMode::Shared {
                if held.sharers.is_empty() {
                    held.mode = LockMode::Exclusive;
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        } else if held.mode == LockMode::Shared && mode == LockMode::Shared {
            held.sharers.push(tx);
            self.note(tx, key);
            return Ok(());
        }
        // Wait-die compares against the *oldest* conflicting holder: the
        // requester may wait only if it is older than every holder,
        // otherwise a wait-for edge from a younger to an older transaction
        // could close a cycle. On the upgrade path there is another holder
        // too; fall back to `tx` defensively.
        let oldest = held.holders().filter(|&h| h != tx).min().unwrap_or(tx);
        Err(self.conflict(tx, oldest, key))
    }

    /// Release every lock of a transaction (commit/abort).
    pub fn release_all(&mut self, tx: TxId) {
        let Some(i) = self.by_tx.iter().position(|(holder, _)| *holder == tx) else { return };
        let (_, mut keys) = self.by_tx.swap_remove(i);
        for key in keys.drain(..) {
            let Ok(at) = self.probe(key) else { continue };
            let Some(held) = self.slots[at].as_mut() else { continue };
            if held.holder != tx {
                held.sharers.retain(|&h| h != tx);
            } else if let Some(sharer) = held.sharers.pop() {
                held.holder = sharer;
            } else {
                self.remove(at);
            }
        }
        self.spare_lists.push(keys);
    }

    /// Locks currently held (diagnostics).
    #[cfg(test)]
    pub fn held_count(&self) -> usize {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    const K: LockKey = (1, 42);

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxId(1), K, LockMode::Shared).unwrap();
        lm.lock(TxId(2), K, LockMode::Shared).unwrap();
        assert_eq!(lm.held_count(), 1);
    }

    #[test]
    fn exclusive_conflicts() {
        let mut lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxId(1), K, LockMode::Exclusive).unwrap();
        assert!(matches!(
            lm.lock(TxId(2), K, LockMode::Shared),
            Err(EngineError::LockConflict { holder: TxId(1), .. })
        ));
        assert!(lm.lock(TxId(2), (1, 43), LockMode::Exclusive).is_ok());
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxId(1), K, LockMode::Shared).unwrap();
        lm.lock(TxId(1), K, LockMode::Shared).unwrap();
        lm.lock(TxId(1), K, LockMode::Exclusive).unwrap(); // sole holder upgrade
        assert!(lm.lock(TxId(2), K, LockMode::Shared).is_err());
    }

    #[test]
    fn upgrade_blocked_by_other_sharer() {
        let mut lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxId(1), K, LockMode::Shared).unwrap();
        lm.lock(TxId(2), K, LockMode::Shared).unwrap();
        assert!(matches!(
            lm.lock(TxId(1), K, LockMode::Exclusive),
            Err(EngineError::LockConflict { holder: TxId(2), .. })
        ));
    }

    #[test]
    fn release_all_frees_everything() {
        let mut lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxId(1), K, LockMode::Exclusive).unwrap();
        lm.lock(TxId(1), (1, 43), LockMode::Shared).unwrap();
        lm.release_all(TxId(1));
        assert_eq!(lm.held_count(), 0);
        lm.lock(TxId(2), K, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn shared_release_keeps_other_holder() {
        let mut lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxId(1), K, LockMode::Shared).unwrap();
        lm.lock(TxId(2), K, LockMode::Shared).unwrap();
        lm.release_all(TxId(1));
        assert_eq!(lm.held_count(), 1);
        // Tx2 can now upgrade.
        lm.lock(TxId(2), K, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn wait_die_old_waits_young_dies() {
        let mut lm = LockManager::new(LockPolicy::WaitDie);
        lm.lock(TxId(5), K, LockMode::Exclusive).unwrap();
        // Older requester (smaller id) waits...
        assert!(matches!(
            lm.lock(TxId(3), K, LockMode::Shared),
            Err(EngineError::LockWait { tx: TxId(3), holder: TxId(5), .. })
        ));
        // ...a younger one dies.
        assert!(matches!(
            lm.lock(TxId(9), K, LockMode::Shared),
            Err(EngineError::LockConflict { tx: TxId(9), holder: TxId(5), .. })
        ));
    }

    #[test]
    fn wait_die_upgrade_conflict_follows_ages() {
        let mut lm = LockManager::new(LockPolicy::WaitDie);
        lm.lock(TxId(2), K, LockMode::Shared).unwrap();
        lm.lock(TxId(7), K, LockMode::Shared).unwrap();
        // Tx2 upgrading against the younger sharer Tx7: waits.
        assert!(matches!(
            lm.lock(TxId(2), K, LockMode::Exclusive),
            Err(EngineError::LockWait { tx: TxId(2), holder: TxId(7), .. })
        ));
        // Tx7 upgrading against the older sharer Tx2: dies.
        assert!(matches!(
            lm.lock(TxId(7), K, LockMode::Exclusive),
            Err(EngineError::LockConflict { tx: TxId(7), holder: TxId(2), .. })
        ));
    }

    /// The lock table as it was before the flat one — ordered maps, every
    /// holder list a vector — kept as the model.
    #[derive(Default)]
    struct MapLockManager {
        table: BTreeMap<LockKey, (LockMode, Vec<TxId>)>,
        by_tx: BTreeMap<TxId, Vec<LockKey>>,
        policy: LockPolicy,
    }

    impl MapLockManager {
        fn conflict(&self, tx: TxId, holder: TxId, key: LockKey) -> EngineError {
            match self.policy {
                LockPolicy::NoWait => EngineError::LockConflict { tx, holder, key },
                LockPolicy::WaitDie if tx < holder => EngineError::LockWait { tx, holder, key },
                LockPolicy::WaitDie => EngineError::LockConflict { tx, holder, key },
            }
        }

        fn lock(&mut self, tx: TxId, key: LockKey, mode: LockMode) -> Result<()> {
            let conflict_holder = match self.table.get_mut(&key) {
                None => {
                    self.table.insert(key, (mode, vec![tx]));
                    self.by_tx.entry(tx).or_default().push(key);
                    return Ok(());
                }
                Some((held_mode, holders)) => {
                    if holders.contains(&tx) {
                        if mode == LockMode::Exclusive && *held_mode == LockMode::Shared {
                            if holders.len() == 1 {
                                *held_mode = LockMode::Exclusive;
                                return Ok(());
                            }
                        } else {
                            return Ok(());
                        }
                    } else if *held_mode == LockMode::Shared && mode == LockMode::Shared {
                        holders.push(tx);
                        self.by_tx.entry(tx).or_default().push(key);
                        return Ok(());
                    }
                    holders.iter().copied().filter(|&h| h != tx).min().unwrap_or(tx)
                }
            };
            Err(self.conflict(tx, conflict_holder, key))
        }

        fn release_all(&mut self, tx: TxId) {
            let Some(keys) = self.by_tx.remove(&tx) else { return };
            for key in keys {
                if let Some((_, holders)) = self.table.get_mut(&key) {
                    holders.retain(|&h| h != tx);
                    if holders.is_empty() {
                        self.table.remove(&key);
                    }
                }
            }
        }
    }

    #[test]
    fn flat_table_matches_the_ordered_map_model() {
        use rand::Rng;
        let (mut granted, mut waited, mut died, mut grown) = (0u64, 0u64, 0u64, 0u64);
        ipa_flash::for_each_case(1_500, |rng| {
            let policy = if rng.gen() { LockPolicy::WaitDie } else { LockPolicy::NoWait };
            let mut lm = LockManager::new(policy);
            let mut model = MapLockManager { policy, ..MapLockManager::default() };
            // Few rows, so requests meet; some cases many, so the table
            // grows and probe runs wrap and shift on release.
            let rows: u64 = if rng.gen_range(0..4) == 0 { 400 } else { rng.gen_range(1..24) };
            for _ in 0..rng.gen_range(1..600) {
                let tx = TxId(rng.gen_range(1..7));
                if rng.gen_range(0..10) == 0 {
                    lm.release_all(tx);
                    model.release_all(tx);
                } else {
                    let key = (rng.gen_range(0..3u64), rng.gen_range(0..rows) << 16);
                    let mode = if rng.gen_range(0..3) == 0 {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    let verdict = lm.lock(tx, key, mode);
                    assert_eq!(verdict, model.lock(tx, key, mode), "{tx:?} {key:?} {mode:?}");
                    match verdict {
                        Ok(()) => granted += 1,
                        Err(EngineError::LockWait { .. }) => waited += 1,
                        Err(_) => died += 1,
                    }
                }
                assert_eq!(lm.held_count(), model.table.len());
            }
            // Every key the model holds is found, with its holders.
            for (key, (mode, holders)) in &model.table {
                let held = lm.slots[lm.probe(*key).expect("held key")].as_ref().unwrap();
                let mut flat: Vec<TxId> = held.holders().collect();
                flat.sort();
                let mut expected = holders.clone();
                expected.sort();
                assert_eq!((held.mode, flat), (*mode, expected));
            }
            grown += (lm.slots.len() > INITIAL_SLOTS) as u64;
            for tx in 1..7 {
                lm.release_all(TxId(tx));
            }
            assert_eq!(lm.held_count(), 0);
            assert!(lm.slots.iter().all(Option::is_none) && lm.by_tx.is_empty());
        });
        assert!(granted > 50_000 && waited > 5_000 && died > 5_000 && grown > 100);
    }

    #[test]
    fn no_wait_never_emits_lock_wait() {
        let mut lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxId(9), K, LockMode::Exclusive).unwrap();
        assert!(matches!(
            lm.lock(TxId(1), K, LockMode::Exclusive),
            Err(EngineError::LockConflict { .. })
        ));
    }
}
