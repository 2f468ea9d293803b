//! TPC-B: the Account_Update transaction (paper Appendix A.0.1).
//!
//! Schema cardinalities follow the spec's 1 : 10 : 100 000 ratio
//! (branch : teller : account), scaled by `accounts_per_branch` so that
//! simulation-sized databases remain tractable. Each transaction:
//!
//! * updates one numeric attribute (8-byte balance, usually changing only
//!   the low bytes) in one tuple of each of branch, teller and account;
//! * appends one ~50-byte tuple to the history table.
//!
//! The account is located through a B+-tree, branches and tellers through
//! cached RIDs (they are tiny and fully buffered in the paper's runs too).

use std::cell::RefCell;
use std::rc::Rc;

use ipa_engine::{Database, InterleavedClient, Result, Rid, StepOutcome, Txn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::Workload;
use crate::util::{patch_i32, uniform, Record};

const BRANCH_REC: usize = 100;
const TELLER_REC: usize = 100;
const ACCOUNT_REC: usize = 100;
const HISTORY_REC: usize = 50;
/// Byte offset of the 4-byte numeric balance field in branch/teller/
/// account records (the paper's TPC-B analysis: one 4-byte numeric
/// attribute changes per touched table, hence the `[2×4]` scheme).
pub const BALANCE_OFF: usize = 8;

/// TPC-B workload state.
pub struct TpcB {
    /// Number of branches (the scale factor).
    pub branches: u64,
    /// Accounts per branch (spec: 100 000; scaled down for simulation).
    pub accounts_per_branch: u64,
    tellers_per_branch: u64,
    heap_branch: u32,
    heap_teller: u32,
    heap_account: u32,
    heap_history: u32,
    account_index: u32,
    branch_rids: Vec<Rid>,
    teller_rids: Vec<Rid>,
    /// Sum of the deltas of every *committed* transaction — the expected
    /// value of each of the three balance sums (see
    /// [`TpcB::verify_balances`]).
    committed_delta: i64,
    /// The serial path's transaction cursor between two transactions, kept
    /// for its buffers.
    cursor: Option<AccountUpdate>,
}

impl TpcB {
    /// A TPC-B instance with the given scale.
    pub fn new(branches: u64, accounts_per_branch: u64) -> Self {
        TpcB {
            branches,
            accounts_per_branch,
            tellers_per_branch: 10,
            heap_branch: 0,
            heap_teller: 0,
            heap_account: 0,
            heap_history: 0,
            account_index: 0,
            branch_rids: Vec::new(),
            teller_rids: Vec::new(),
            committed_delta: 0,
            cursor: None,
        }
    }

    fn accounts(&self) -> u64 {
        self.branches * self.accounts_per_branch
    }

    /// Id of the account B+-tree (valid after [`Workload::setup`]) — lets
    /// external audits resolve accounts the way the workload does.
    pub fn account_index(&self) -> u32 {
        self.account_index
    }

    /// Audit the TPC-B money-conservation invariant: every committed
    /// transaction adds one delta to exactly one branch, teller and
    /// account balance, so each of the three balance sums must equal the
    /// sum of all committed deltas. Returns that common sum, or an error
    /// naming the first sum that diverged — the zero-committed-data-loss
    /// check of the fault-injection experiments. (Balances are `i32`;
    /// callers keep run lengths short enough not to wrap.)
    pub fn verify_balances(&self, db: &mut Database) -> Result<i64> {
        let mut sum_branch = 0i64;
        for rid in &self.branch_rids {
            sum_branch += i64::from(Record::get_i32(&db.heap_read_unlocked(*rid)?, BALANCE_OFF));
        }
        let mut sum_teller = 0i64;
        for rid in &self.teller_rids {
            sum_teller += i64::from(Record::get_i32(&db.heap_read_unlocked(*rid)?, BALANCE_OFF));
        }
        let mut sum_account = 0i64;
        for aid in 0..self.accounts() {
            let encoded = db
                .index_lookup(self.account_index, aid)?
                .ok_or(ipa_engine::EngineError::Internal("account vanished from index"))?;
            let rid = Rid::decode(0, encoded);
            sum_account += i64::from(Record::get_i32(&db.heap_read_unlocked(rid)?, BALANCE_OFF));
        }
        let expected = self.committed_delta;
        if sum_branch != expected {
            return Err(ipa_engine::EngineError::Internal(
                "TPC-B branch balance sum diverged from committed deltas (data loss)",
            ));
        }
        if sum_teller != expected {
            return Err(ipa_engine::EngineError::Internal(
                "TPC-B teller balance sum diverged from committed deltas (data loss)",
            ));
        }
        if sum_account != expected {
            return Err(ipa_engine::EngineError::Internal(
                "TPC-B account balance sum diverged from committed deltas (data loss)",
            ));
        }
        Ok(expected)
    }

    /// Every balance in deterministic order — branches, tellers, then
    /// accounts by id. The state-equality probe of the restart
    /// experiments: two engines that recovered the same history must
    /// produce identical vectors, not merely identical sums.
    pub fn balance_vector(&self, db: &mut Database) -> Result<Vec<i32>> {
        let mut v = Vec::new();
        for rid in self.branch_rids.iter().chain(self.teller_rids.iter()) {
            v.push(Record::get_i32(&db.heap_read_unlocked(*rid)?, BALANCE_OFF));
        }
        for aid in 0..self.accounts() {
            let encoded = db
                .index_lookup(self.account_index, aid)?
                .ok_or(ipa_engine::EngineError::Internal("account vanished from index"))?;
            let rid = Rid::decode(0, encoded);
            v.push(Record::get_i32(&db.heap_read_unlocked(rid)?, BALANCE_OFF));
        }
        Ok(v)
    }
}

impl Workload for TpcB {
    fn growth_factor(&self) -> f64 {
        2.0
    }

    fn name(&self) -> &'static str {
        "TPC-B"
    }

    fn estimated_pages(&self, page_size: usize) -> u64 {
        let usable = (page_size - 160) as u64;
        let heap = |count: u64, rec: u64| count / (usable / (rec + 4)).max(1) + 1;
        let accounts = heap(self.accounts(), ACCOUNT_REC as u64);
        let branches = heap(self.branches, BRANCH_REC as u64);
        let tellers = heap(self.branches * self.tellers_per_branch, TELLER_REC as u64);
        let index = self.accounts() * 16 / (usable * 2 / 3) + 2;
        accounts + branches + tellers + index + 4
    }

    fn setup(&mut self, db: &mut Database, _rng: &mut StdRng) -> Result<()> {
        self.heap_branch = db.create_heap(0);
        self.heap_teller = db.create_heap(0);
        self.heap_account = db.create_heap(0);
        self.heap_history = db.create_heap(0);
        self.account_index = db.create_index(0)?;

        let mut tx = db.txn();
        for b in 0..self.branches {
            let mut rec = Record::new(BRANCH_REC);
            rec.put_u64(0, b).put_i32(BALANCE_OFF, 0);
            self.branch_rids.push(tx.heap_insert(self.heap_branch, &rec.0)?);
            for t in 0..self.tellers_per_branch {
                let mut rec = Record::new(TELLER_REC);
                rec.put_u64(0, b * self.tellers_per_branch + t).put_i32(BALANCE_OFF, 0);
                self.teller_rids.push(tx.heap_insert(self.heap_teller, &rec.0)?);
            }
        }
        tx.commit()?;
        // Accounts in batches to bound transaction size.
        let mut aid = 0u64;
        while aid < self.accounts() {
            let mut tx = db.txn();
            for _ in 0..1000.min(self.accounts() - aid) {
                let mut rec = Record::new(ACCOUNT_REC);
                rec.put_u64(0, aid).put_i32(BALANCE_OFF, 0);
                let rid = tx.heap_insert(self.heap_account, &rec.0)?;
                tx.index_insert(self.account_index, aid, rid.encode())?;
                aid += 1;
            }
            tx.commit()?;
        }
        Ok(())
    }

    fn transaction(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()> {
        let mut cur = self.cursor.take().unwrap_or_default();
        cur.draw(self, rng);
        let committed = cur.run(self, db);
        let delta = cur.delta;
        self.cursor = Some(cur);
        committed?;
        self.committed_delta += i64::from(delta);
        Ok(())
    }
}

/// Shared handle over a [`TpcB`] instance for multi-client execution:
/// every [`TpcBClient`] draws its own transaction parameters but updates
/// the common committed-delta ledger, so [`TpcB::verify_balances`] audits
/// the interleaved run as a whole.
pub type SharedTpcB = Rc<RefCell<TpcB>>;

impl TpcB {
    /// Wrap the (already set-up) workload for multi-client execution.
    pub fn into_shared(self) -> SharedTpcB {
        Rc::new(RefCell::new(self))
    }

    /// Spawn `k` clients, each running `txns_per_client` Account_Update
    /// transactions. Client 0's RNG is seeded with exactly `seed`, so a
    /// single-client pool replays the very transaction sequence the serial
    /// [`crate::Runner`] would execute with that seed.
    pub fn spawn_clients(
        shared: &SharedTpcB,
        k: usize,
        txns_per_client: u64,
        seed: u64,
    ) -> Vec<Box<dyn InterleavedClient>> {
        (0..k)
            .map(|i| {
                let client_seed = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Box::new(TpcBClient::new(Rc::clone(shared), client_seed, txns_per_client))
                    as Box<dyn InterleavedClient>
            })
            .collect()
    }
}

/// The per-transaction cursor of one in-flight Account_Update: parameters
/// drawn at begin, resolved RID and read buffers filled step by step. The
/// serial [`Workload`] path and [`TpcBClient`] both run this one machine,
/// and each keeps its cursor from one transaction to the next: the tuple
/// buffer and the history record are allocated once.
#[derive(Debug)]
struct AccountUpdate {
    aid: u64,
    bid: u64,
    tid: u64,
    delta: i32,
    arid: Option<Rid>,
    /// The tuple read by the last read step, patched for the update step.
    buf: Vec<u8>,
    /// The history record: every insert overwrites the same four fields.
    hist: Record,
    step: u8,
}

impl Default for AccountUpdate {
    fn default() -> Self {
        AccountUpdate {
            aid: 0,
            bid: 0,
            tid: 0,
            delta: 0,
            arid: None,
            buf: Vec::new(),
            hist: Record::new(HISTORY_REC),
            step: 0,
        }
    }
}

impl AccountUpdate {
    /// Draw the parameters of the next transaction.
    fn draw(&mut self, w: &TpcB, rng: &mut StdRng) {
        self.aid = uniform(rng, 0, w.accounts() - 1);
        self.bid = uniform(rng, 0, w.branches - 1);
        self.tid = uniform(rng, 0, w.branches * w.tellers_per_branch - 1);
        self.delta = rng.gen_range(-99_999..=99_999);
        self.arid = None;
        self.step = 0;
    }

    /// Run the drawn transaction to its commit.
    fn run(&mut self, w: &TpcB, db: &mut Database) -> Result<()> {
        let mut tx = db.txn();
        while self.step(w, &mut tx)? == StepOutcome::Progress {}
        tx.commit()
    }

    /// Run the next page operation: the account via an index lookup
    /// (exercises index pages), teller and branch via cached RIDs, then
    /// the history append (~20 net bytes of payload in the paper's
    /// account; a 50-byte record here).
    fn step(&mut self, w: &TpcB, tx: &mut Txn<'_>) -> Result<StepOutcome> {
        let delta = self.delta;
        match self.step {
            0 => {
                let encoded =
                    tx.index_lookup(w.account_index, self.aid)?.expect("loaded account exists");
                self.arid = Some(Rid::decode(0, encoded));
            }
            1 => {
                let arid = self.arid.expect("resolved in step 0");
                tx.heap_read_into(w.heap_account, arid, &mut self.buf)?;
                patch_i32(&mut self.buf, BALANCE_OFF, |v| v.wrapping_add(delta));
            }
            2 => {
                tx.heap_update(w.heap_account, self.arid.expect("resolved"), &self.buf)?;
            }
            3 => {
                tx.heap_read_into(w.heap_teller, w.teller_rids[self.tid as usize], &mut self.buf)?;
                patch_i32(&mut self.buf, BALANCE_OFF, |v| v.wrapping_add(delta));
            }
            4 => {
                tx.heap_update(w.heap_teller, w.teller_rids[self.tid as usize], &self.buf)?;
            }
            5 => {
                tx.heap_read_into(w.heap_branch, w.branch_rids[self.bid as usize], &mut self.buf)?;
                patch_i32(&mut self.buf, BALANCE_OFF, |v| v.wrapping_add(delta));
            }
            6 => {
                tx.heap_update(w.heap_branch, w.branch_rids[self.bid as usize], &self.buf)?;
            }
            _ => {
                self.hist
                    .put_u64(0, self.aid)
                    .put_u64(8, self.tid)
                    .put_u64(16, self.bid)
                    .put_i32(24, delta);
                tx.heap_insert(w.heap_history, &self.hist.0)?;
                return Ok(StepOutcome::Done);
            }
        }
        self.step += 1;
        Ok(StepOutcome::Progress)
    }
}

/// One TPC-B client for [`ipa_engine::ClientPool`]: the Account_Update
/// transaction decomposed into page-operation steps (index lookup, three
/// read/update pairs, history append) so the pool can interleave clients
/// mid-transaction. A wait-die restart rewinds the step cursor but keeps
/// the drawn parameters, so the retry performs the same logical work.
pub struct TpcBClient {
    shared: SharedTpcB,
    rng: StdRng,
    remaining: u64,
    cur: AccountUpdate,
}

impl TpcBClient {
    /// A client over the shared workload, with its own RNG stream.
    pub fn new(shared: SharedTpcB, seed: u64, txns: u64) -> Self {
        TpcBClient {
            shared,
            rng: StdRng::seed_from_u64(seed),
            remaining: txns,
            cur: AccountUpdate::default(),
        }
    }
}

impl InterleavedClient for TpcBClient {
    fn begin_txn(&mut self) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        self.cur.draw(&self.shared.borrow(), &mut self.rng);
        true
    }

    fn step(&mut self, tx: &mut Txn<'_>) -> Result<StepOutcome> {
        let outcome = self.cur.step(&self.shared.borrow(), tx)?;
        if outcome == StepOutcome::Done {
            self.shared.borrow_mut().committed_delta += i64::from(self.cur.delta);
        }
        Ok(outcome)
    }

    fn restart(&mut self) {
        self.cur.step = 0;
        self.cur.arid = None;
        self.cur.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Runner, SystemConfig};
    use ipa_core::NxM;

    #[test]
    fn runs_and_produces_small_updates() {
        let mut w = TpcB::new(2, 500);
        let cfg = SystemConfig::emulator(NxM::tpcb(), 0.5);
        let mut db = cfg.build(w.estimated_pages(4096)).unwrap();
        let runner = Runner::new(42);
        runner.setup(&mut db, &mut w).unwrap();
        let report = runner.run(&mut db, &mut w, 200, 800).unwrap();
        assert_eq!(report.commits, 800);
        assert_eq!(report.aborts, 0);
        assert!(report.tps > 0.0);
        // The defining TPC-B property: the dominant update size is 8 net
        // bytes or fewer (one numeric attribute; often only low bytes).
        let profile = db.profile(0);
        assert!(profile.observations() > 0);
        let p50 = profile.body_percentile(50.0);
        assert!(p50 <= 16, "median update size {p50} too large for TPC-B");
        // And IPA kicked in for a meaningful share of host writes.
        assert!(
            report.region.ipa_fraction() > 0.2,
            "ipa fraction {}",
            report.region.ipa_fraction()
        );
    }

    #[test]
    fn baseline_has_no_appends() {
        let mut w = TpcB::new(1, 300);
        let cfg = SystemConfig::emulator(NxM::disabled(), 0.5);
        let mut db = cfg.build(w.estimated_pages(4096)).unwrap();
        let runner = Runner::new(42);
        runner.setup(&mut db, &mut w).unwrap();
        let report = runner.run(&mut db, &mut w, 100, 300).unwrap();
        assert_eq!(report.region.host_delta_writes, 0);
        assert_eq!(report.engine.ipa_flushes, 0);
    }

    #[test]
    fn deterministic_across_seeds() {
        use ipa_flash::{ObsEvent, Observer};
        use std::sync::{Arc, Mutex};

        // Collects the full ordered I/O event sequence. Aggregate counters
        // (write counts, flush counts) can collide across seeds on small
        // runs; the event-by-event trace cannot unless the executions
        // really are identical.
        type Event = (String, Option<u32>, Option<u64>);
        #[derive(Clone, Default)]
        struct Tape(Arc<Mutex<Vec<Event>>>);
        impl Observer for Tape {
            fn on_event(&mut self, event: ObsEvent) {
                self.0.lock().unwrap().push((format!("{:?}", event.kind), event.region, event.lba));
            }
        }

        let run = |seed: u64| {
            let mut w = TpcB::new(1, 200);
            let cfg = SystemConfig::emulator(NxM::tpcb(), 0.5);
            let mut db = cfg.build(w.estimated_pages(4096)).unwrap();
            let runner = Runner::new(seed);
            runner.setup(&mut db, &mut w).unwrap();
            let tape = Tape::default();
            db.attach_observer(Box::new(tape.clone()));
            runner.run(&mut db, &mut w, 50, 200).unwrap();
            db.detach_observer();
            let events = Arc::try_unwrap(tape.0).unwrap().into_inner().unwrap();
            assert!(!events.is_empty(), "measured run must emit trace events");
            events
        };
        // Same seed: bit-identical event sequence. Different seed: a
        // different transaction mix, hence a different sequence.
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
