//! Transaction table.

use ipa_noftl::SpanId;

use crate::wal::Lsn;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub u64);

/// State of one active transaction.
#[derive(Debug, Clone)]
pub struct TxInfo {
    /// Most recent log record of this transaction (head of the undo chain).
    pub last_lsn: Lsn,
    /// Causal trace span covering the transaction's lifetime, when span
    /// tracing is active. Commands the transaction issues (and GC they
    /// trigger) are attributed under it.
    pub span: Option<SpanId>,
}

/// The active-transaction table: a handful of entries (one per client),
/// kept in a vector ordered by id. Ids are handed out in ascending order,
/// so a new transaction goes at the end.
#[derive(Debug, Default)]
pub struct TxnTable {
    next: u64,
    active: Vec<(TxId, TxInfo)>,
}

impl TxnTable {
    /// An empty table; transaction ids start at 1.
    pub fn new() -> Self {
        TxnTable { next: 1, active: Vec::new() }
    }

    fn position(&self, tx: TxId) -> std::result::Result<usize, usize> {
        self.active.binary_search_by_key(&tx, |&(id, _)| id)
    }

    fn info(&self, tx: TxId) -> Option<&TxInfo> {
        self.position(tx).ok().map(|i| &self.active[i].1)
    }

    /// The entry of an active transaction, to edit in place.
    pub fn info_mut(&mut self, tx: TxId) -> Option<&mut TxInfo> {
        self.position(tx).ok().map(|i| &mut self.active[i].1)
    }

    /// Start a transaction.
    pub fn begin(&mut self) -> TxId {
        let tx = TxId(self.next);
        self.next += 1;
        self.active.push((tx, TxInfo { last_lsn: Lsn::NULL, span: None }));
        tx
    }

    /// Attach the trace span covering this transaction.
    pub fn set_span(&mut self, tx: TxId, span: SpanId) {
        if let Some(info) = self.info_mut(tx) {
            info.span = Some(span);
        }
    }

    /// The trace span covering this transaction, if tracing is active.
    pub fn span(&self, tx: TxId) -> Option<SpanId> {
        self.info(tx).and_then(|i| i.span)
    }

    /// The trace spans of the active transactions, in id order — which is
    /// the order they were opened in.
    pub fn spans(&self) -> impl Iterator<Item = SpanId> + '_ {
        self.active.iter().filter_map(|(_, i)| i.span)
    }

    /// Whether a transaction is active.
    pub fn is_active(&self, tx: TxId) -> bool {
        self.position(tx).is_ok()
    }

    /// Last LSN of an active transaction (null if unknown).
    pub fn last_lsn(&self, tx: TxId) -> Lsn {
        self.info(tx).map_or(Lsn::NULL, |i| i.last_lsn)
    }

    /// Update the undo-chain head after appending a log record.
    pub fn set_last_lsn(&mut self, tx: TxId, lsn: Lsn) {
        if let Some(info) = self.info_mut(tx) {
            info.last_lsn = lsn;
        }
    }

    /// Remove a finished transaction.
    pub fn finish(&mut self, tx: TxId) {
        if let Ok(i) = self.position(tx) {
            self.active.remove(i);
        }
    }

    /// Active transactions with their last LSN, in id order (for
    /// checkpoints and log reclamation).
    pub fn iter(&self) -> impl Iterator<Item = (TxId, Lsn)> + '_ {
        self.active.iter().map(|(t, i)| (*t, i.last_lsn))
    }

    /// Number of active transactions.
    #[cfg(test)]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Re-register a transaction discovered during recovery analysis.
    pub fn register_recovered(&mut self, tx: TxId, last_lsn: Lsn) {
        self.next = self.next.max(tx.0 + 1);
        let info = TxInfo { last_lsn, span: None };
        match self.position(tx) {
            Ok(i) => self.active[i].1 = info,
            Err(i) => self.active.insert(i, (tx, info)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        assert_ne!(a, b);
        assert!(t.is_active(a));
        t.set_last_lsn(a, Lsn(5));
        assert_eq!(t.last_lsn(a), Lsn(5));
        assert_eq!(t.span(a), None);
        t.set_span(a, SpanId(7));
        assert_eq!(t.span(a), Some(SpanId(7)));
        assert_eq!(t.span(b), None);
        assert_eq!(t.last_lsn(b), Lsn::NULL);
        t.finish(a);
        assert!(!t.is_active(a));
        assert_eq!(t.active_count(), 1);
    }

    #[test]
    fn iter_is_sorted() {
        let mut t = TxnTable::new();
        let a = t.begin();
        let b = t.begin();
        t.set_last_lsn(b, Lsn(9));
        assert!(t.iter().eq([(a, Lsn::NULL), (b, Lsn(9))]));
    }

    #[test]
    fn recovered_tx_bumps_next_id() {
        let mut t = TxnTable::new();
        t.register_recovered(TxId(100), Lsn(7));
        let fresh = t.begin();
        assert!(fresh.0 > 100);
        assert_eq!(t.last_lsn(TxId(100)), Lsn(7));
    }

    #[test]
    fn recovered_txs_arrive_youngest_first_and_stay_id_ordered() {
        // Restart undo registers its losers from the youngest down, while
        // older registrations are still active.
        let mut t = TxnTable::new();
        for id in [9, 4, 6] {
            t.register_recovered(TxId(id), Lsn(id));
        }
        t.register_recovered(TxId(4), Lsn(40));
        assert!(t.iter().eq([(TxId(4), Lsn(40)), (TxId(6), Lsn(6)), (TxId(9), Lsn(9))]));
        t.finish(TxId(6));
        assert!(t.is_active(TxId(4)) && !t.is_active(TxId(6)) && t.is_active(TxId(9)));
        assert_eq!(t.begin(), TxId(10));
        assert_eq!(t.active_count(), 3);
    }
}
