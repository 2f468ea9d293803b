//! TPC-C: the order-entry mix (paper Appendix A.0.2).
//!
//! The STOCK table dominates the write behaviour: each NewOrder modifies
//! on average 10 random stock tuples, touching three numeric attributes
//! (`S_QUANTITY`, `S_YTD`, `S_ORDER_CNT`/`S_REMOTE_CNT`) whose deltas are
//! small, so "typically only the least significant byte is changed" —
//! ~3 net bytes per touched page, the rationale for the `[2×3]` scheme.
//!
//! Cardinalities follow the spec's ratios (10 districts/warehouse, items
//! shared) with `items`/`customers_per_district` as scale knobs. The
//! standard 45/43/4/4/4 transaction mix and NURand access skew are
//! reproduced.

use std::collections::VecDeque;

use ipa_engine::{Database, Result, Rid, Txn};
use rand::rngs::StdRng;
use rand::Rng;

use crate::driver::Workload;
use crate::util::{nurand, patch_i32, patch_u16, uniform, Record};

const WAREHOUSE_REC: usize = 100;
const DISTRICT_REC: usize = 100;
const CUSTOMER_REC: usize = 650; // includes the 500-byte C_DATA tail
const STOCK_REC: usize = 310;
const ITEM_REC: usize = 80;
const ORDER_REC: usize = 32;
const ORDER_LINE_REC: usize = 50;
const HISTORY_REC: usize = 50;

// Field offsets.
const W_YTD: usize = 8; // i64… kept 4-byte: i32
const D_YTD: usize = 8;
const D_NEXT_O_ID: usize = 12;
const C_BALANCE: usize = 8;
const C_DATA: usize = 150; // start of the C_DATA region
const S_QUANTITY: usize = 8;
const S_YTD: usize = 10;
const S_ORDER_CNT: usize = 14;
const S_REMOTE_CNT: usize = 16;
const O_CARRIER_ID: usize = 8;

/// TPC-C workload state.
pub struct TpcC {
    /// Number of warehouses (the scale factor).
    pub warehouses: u64,
    /// Items (== stock entries per warehouse). Spec: 100 000.
    pub items: u64,
    /// Customers per district. Spec: 3 000.
    pub customers_per_district: u64,
    districts_per_w: u64,
    heap_warehouse: u32,
    heap_district: u32,
    heap_customer: u32,
    heap_stock: u32,
    heap_item: u32,
    heap_order: u32,
    heap_order_line: u32,
    heap_history: u32,
    warehouse_rids: Vec<Rid>,
    district_rids: Vec<Rid>,
    stock_index: u32,
    customer_index: u32,
    item_rids: Vec<Rid>,
    /// Undelivered orders per (warehouse, district).
    new_orders: Vec<VecDeque<(u64, Rid)>>,
    /// Most recent order RID per customer slot (for OrderStatus).
    last_order: Vec<Option<Rid>>,
    /// The tuple a transaction read last, patched for the update that
    /// follows; one buffer for every read of every transaction.
    buf: Vec<u8>,
    /// The records the transactions insert: each insert overwrites the same
    /// fields of the same buffer.
    order_rec: Record,
    order_line_rec: Record,
    history_rec: Record,
}

impl TpcC {
    /// A TPC-C instance with the given scale.
    pub fn new(warehouses: u64, items: u64, customers_per_district: u64) -> Self {
        TpcC {
            warehouses,
            items,
            customers_per_district,
            districts_per_w: 10,
            heap_warehouse: 0,
            heap_district: 0,
            heap_customer: 0,
            heap_stock: 0,
            heap_item: 0,
            heap_order: 0,
            heap_order_line: 0,
            heap_history: 0,
            warehouse_rids: Vec::new(),
            district_rids: Vec::new(),
            stock_index: 0,
            customer_index: 0,
            item_rids: Vec::new(),
            new_orders: Vec::new(),
            last_order: Vec::new(),
            buf: Vec::new(),
            order_rec: Record::new(ORDER_REC),
            order_line_rec: Record::new(ORDER_LINE_REC),
            history_rec: Record::new(HISTORY_REC),
        }
    }

    /// Audit the money Payment moves (the spec's consistency condition 1
    /// and its neighbours): a warehouse's `W_YTD` is the sum of its
    /// districts' `D_YTD`, and what the warehouses took in is what HISTORY
    /// records and what the customers' balances went down by. The fields
    /// are `i32`s that wrap, so the sums wrap with them. Returns the amount,
    /// or an error naming the first sum that diverged.
    pub fn verify_ytd(&self, db: &mut Database) -> Result<i32> {
        let mut taken = 0i32;
        for (w, wrid) in self.warehouse_rids.iter().enumerate() {
            let w_ytd = Record::get_i32(&db.heap_read_unlocked(*wrid)?, W_YTD);
            let mut d_ytd = 0i32;
            for d in 0..self.districts_per_w {
                let drid = self.district_rids[self.district_slot(w as u64, d)];
                d_ytd = d_ytd.wrapping_add(Record::get_i32(&db.heap_read_unlocked(drid)?, D_YTD));
            }
            if w_ytd != d_ytd {
                return Err(ipa_engine::EngineError::Internal(
                    "TPC-C W_YTD diverged from the sum of its districts' D_YTD",
                ));
            }
            taken = taken.wrapping_add(w_ytd);
        }
        let mut recorded = 0i32;
        db.heap_scan(self.heap_history, |_, h| {
            recorded = recorded.wrapping_add(Record::get_i32(h, 8));
        })?;
        if recorded != taken {
            return Err(ipa_engine::EngineError::Internal(
                "TPC-C HISTORY amounts diverged from the warehouses' W_YTD",
            ));
        }
        // Every customer starts at -10.
        let mut paid = 0i32;
        db.heap_scan(self.heap_customer, |_, c| {
            paid = paid.wrapping_add((-10i32).wrapping_sub(Record::get_i32(c, C_BALANCE)));
        })?;
        if paid != taken {
            return Err(ipa_engine::EngineError::Internal(
                "TPC-C customer balances diverged from the warehouses' W_YTD",
            ));
        }
        Ok(taken)
    }

    fn district_slot(&self, w: u64, d: u64) -> usize {
        (w * self.districts_per_w + d) as usize
    }

    fn customer_key(&self, w: u64, d: u64, c: u64) -> u64 {
        (w * self.districts_per_w + d) * 1_000_000 + c
    }

    fn stock_key(&self, w: u64, i: u64) -> u64 {
        w * 10_000_000 + i
    }
}

impl Workload for TpcC {
    fn growth_factor(&self) -> f64 {
        3.0
    }

    fn name(&self) -> &'static str {
        "TPC-C"
    }

    fn estimated_pages(&self, page_size: usize) -> u64 {
        let usable = (page_size - 160) as u64;
        let heap = |count: u64, rec: u64| count / (usable / (rec + 4)).max(1) + 1;
        let stock = heap(self.warehouses * self.items, STOCK_REC as u64);
        let cust = heap(
            self.warehouses * self.districts_per_w * self.customers_per_district,
            CUSTOMER_REC as u64,
        );
        let item = heap(self.items, ITEM_REC as u64);
        let index_entries = self.warehouses * self.items
            + self.warehouses * self.districts_per_w * self.customers_per_district;
        let index = index_entries * 16 / (usable * 2 / 3) + 4;
        stock + cust + item + index + 8
    }

    fn setup(&mut self, db: &mut Database, _rng: &mut StdRng) -> Result<()> {
        self.heap_warehouse = db.create_heap(0);
        self.heap_district = db.create_heap(0);
        self.heap_customer = db.create_heap(0);
        self.heap_stock = db.create_heap(0);
        self.heap_item = db.create_heap(0);
        self.heap_order = db.create_heap(0);
        self.heap_order_line = db.create_heap(0);
        self.heap_history = db.create_heap(0);
        self.stock_index = db.create_index(0)?;
        self.customer_index = db.create_index(0)?;

        // Items (shared across warehouses).
        let mut iid = 0u64;
        while iid < self.items {
            let mut tx = db.txn();
            for _ in 0..500.min(self.items - iid) {
                let mut rec = Record::new(ITEM_REC);
                rec.put_u64(0, iid).put_i32(8, (iid % 9999) as i32);
                self.item_rids.push(tx.heap_insert(self.heap_item, &rec.0)?);
                iid += 1;
            }
            tx.commit()?;
        }
        // Warehouses, districts, customers, stock.
        for w in 0..self.warehouses {
            let mut tx = db.txn();
            let mut rec = Record::new(WAREHOUSE_REC);
            rec.put_u64(0, w).put_i32(W_YTD, 0);
            self.warehouse_rids.push(tx.heap_insert(self.heap_warehouse, &rec.0)?);
            for d in 0..self.districts_per_w {
                let mut rec = Record::new(DISTRICT_REC);
                rec.put_u64(0, w * 10 + d).put_i32(D_YTD, 0).put_i32(D_NEXT_O_ID, 1);
                self.district_rids.push(tx.heap_insert(self.heap_district, &rec.0)?);
                self.new_orders.push(VecDeque::new());
            }
            tx.commit()?;

            let mut c = 0u64;
            while c < self.districts_per_w * self.customers_per_district {
                let mut tx = db.txn();
                for _ in 0..200.min(self.districts_per_w * self.customers_per_district - c) {
                    let d = c / self.customers_per_district;
                    let cid = c % self.customers_per_district;
                    let mut rec = Record::new(CUSTOMER_REC);
                    rec.put_u64(0, self.customer_key(w, d, cid)).put_i32(C_BALANCE, -10);
                    let rid = tx.heap_insert(self.heap_customer, &rec.0)?;
                    tx.index_insert(
                        self.customer_index,
                        self.customer_key(w, d, cid),
                        rid.encode(),
                    )?;
                    self.last_order.push(None);
                    c += 1;
                }
                tx.commit()?;
            }

            let mut i = 0u64;
            while i < self.items {
                let mut tx = db.txn();
                for _ in 0..200.min(self.items - i) {
                    let mut rec = Record::new(STOCK_REC);
                    rec.put_u64(0, self.stock_key(w, i))
                        .put_u16(S_QUANTITY, 50)
                        .put_i32(S_YTD, 0)
                        .put_u16(S_ORDER_CNT, 0)
                        .put_u16(S_REMOTE_CNT, 0);
                    let rid = tx.heap_insert(self.heap_stock, &rec.0)?;
                    tx.index_insert(self.stock_index, self.stock_key(w, i), rid.encode())?;
                    i += 1;
                }
                tx.commit()?;
            }
        }
        Ok(())
    }

    fn transaction(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()> {
        // Standard mix: 45/43/4/4/4.
        match rng.gen_range(0..100u32) {
            0..=44 => self.new_order(db, rng),
            45..=87 => self.payment(db, rng),
            88..=91 => self.order_status(db, rng),
            92..=95 => self.delivery(db, rng),
            _ => self.stock_level(db, rng),
        }
    }
}

impl TpcC {
    fn lookup_customer(&self, tx: &mut Txn<'_>, w: u64, d: u64, c: u64) -> Result<Rid> {
        let key = self.customer_key(w, d, c);
        let enc = tx.index_lookup(self.customer_index, key)?.expect("customer exists");
        Ok(Rid::decode(0, enc))
    }

    /// The backbone transaction: ~10 stock updates of ~3 net bytes each.
    fn new_order(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()> {
        let w = uniform(rng, 0, self.warehouses - 1);
        let d = uniform(rng, 0, self.districts_per_w - 1);
        let c = nurand(rng, 1023, 0, self.customers_per_district - 1);
        let ol_cnt = uniform(rng, 5, 15);

        let mut tx = db.txn();
        // District: read + bump D_NEXT_O_ID.
        let drid = self.district_rids[self.district_slot(w, d)];
        tx.heap_read_into(self.heap_district, drid, &mut self.buf)?;
        let o_id = Record::get_i32(&self.buf, D_NEXT_O_ID) as u64;
        patch_i32(&mut self.buf, D_NEXT_O_ID, |v| v.wrapping_add(1));
        tx.heap_update(self.heap_district, drid, &self.buf)?;

        // Warehouse + customer reads (tax/discount).
        tx.heap_read_into(self.heap_warehouse, self.warehouse_rids[w as usize], &mut self.buf)?;
        let crid = self.lookup_customer(&mut tx, w, d, c)?;
        tx.heap_read_into(self.heap_customer, crid, &mut self.buf)?;

        // Order + lines.
        let customer = self.customer_key(w, d, c);
        self.order_rec.put_u64(0, o_id).put_u64(16, customer);
        let order_rid = tx.heap_insert(self.heap_order, &self.order_rec.0)?;
        let cust_slot = (self.customer_key(w, d, c) % self.last_order.len() as u64) as usize;
        self.last_order[cust_slot] = Some(order_rid);
        let dslot = self.district_slot(w, d);
        self.new_orders[dslot].push_back((o_id, order_rid));

        for ol in 0..ol_cnt {
            let item = nurand(rng, 8191, 0, self.items - 1);
            // 1% remote warehouse.
            let supply_w = if self.warehouses > 1 && rng.gen_range(0..100) == 0 {
                (w + 1) % self.warehouses
            } else {
                w
            };
            let remote = supply_w != w;
            // Item read.
            tx.heap_read_into(self.heap_item, self.item_rids[item as usize], &mut self.buf)?;
            // Stock read + 3-field small update.
            let senc = tx
                .index_lookup(self.stock_index, self.stock_key(supply_w, item))?
                .expect("stock exists");
            let srid = Rid::decode(0, senc);
            tx.heap_read_into(self.heap_stock, srid, &mut self.buf)?;
            let stock = &mut self.buf;
            let qty = uniform(rng, 1, 10) as u16;
            patch_u16(stock, S_QUANTITY, |q| if q >= qty + 10 { q - qty } else { q + 91 - qty });
            patch_i32(stock, S_YTD, |v| v.wrapping_add(qty as i32));
            if remote {
                patch_u16(stock, S_REMOTE_CNT, |v| v.wrapping_add(1));
            } else {
                patch_u16(stock, S_ORDER_CNT, |v| v.wrapping_add(1));
            }
            tx.heap_update(self.heap_stock, srid, stock)?;

            self.order_line_rec.put_u64(0, o_id).put_u16(8, ol as u16).put_u64(10, item);
            tx.heap_insert(self.heap_order_line, &self.order_line_rec.0)?;
        }
        tx.commit()
    }

    fn payment(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()> {
        let w = uniform(rng, 0, self.warehouses - 1);
        let d = uniform(rng, 0, self.districts_per_w - 1);
        let c = nurand(rng, 1023, 0, self.customers_per_district - 1);
        let amount: i32 = rng.gen_range(100..=500_000);

        let mut tx = db.txn();
        let wrid = self.warehouse_rids[w as usize];
        tx.heap_read_into(self.heap_warehouse, wrid, &mut self.buf)?;
        patch_i32(&mut self.buf, W_YTD, |v| v.wrapping_add(amount));
        tx.heap_update(self.heap_warehouse, wrid, &self.buf)?;

        let drid = self.district_rids[self.district_slot(w, d)];
        tx.heap_read_into(self.heap_district, drid, &mut self.buf)?;
        patch_i32(&mut self.buf, D_YTD, |v| v.wrapping_add(amount));
        tx.heap_update(self.heap_district, drid, &self.buf)?;

        let crid = self.lookup_customer(&mut tx, w, d, c)?;
        tx.heap_read_into(self.heap_customer, crid, &mut self.buf)?;
        let cust = &mut self.buf;
        patch_i32(cust, C_BALANCE, |v| v.wrapping_sub(amount));
        // 10% of customers have bad credit: C_DATA is rewritten (a large
        // update — the paper's exception to TPC-C's small-update rule).
        if c.is_multiple_of(10) {
            let tag = (amount as u32).to_le_bytes();
            for i in 0..200 {
                cust[C_DATA + i] = tag[i % 4].wrapping_add(i as u8);
            }
        }
        tx.heap_update(self.heap_customer, crid, cust)?;

        let customer = self.customer_key(w, d, c);
        self.history_rec.put_u64(0, customer).put_i32(8, amount);
        tx.heap_insert(self.heap_history, &self.history_rec.0)?;
        tx.commit()
    }

    fn order_status(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()> {
        let w = uniform(rng, 0, self.warehouses - 1);
        let d = uniform(rng, 0, self.districts_per_w - 1);
        let c = nurand(rng, 1023, 0, self.customers_per_district - 1);
        let mut tx = db.txn();
        let crid = self.lookup_customer(&mut tx, w, d, c)?;
        tx.heap_read_into(self.heap_customer, crid, &mut self.buf)?;
        let slot = (self.customer_key(w, d, c) % self.last_order.len() as u64) as usize;
        if let Some(orid) = self.last_order[slot] {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "order-status touch of a possibly-delivered order; a miss is part of the mix"
            )]
            let _ = tx.heap_read_into(self.heap_order, orid, &mut self.buf);
        }
        tx.commit()
    }

    fn delivery(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()> {
        let w = uniform(rng, 0, self.warehouses - 1);
        let mut tx = db.txn();
        for d in 0..self.districts_per_w {
            let dslot = self.district_slot(w, d);
            let Some((_, orid)) = self.new_orders[dslot].pop_front() else {
                continue;
            };
            tx.heap_read_into(self.heap_order, orid, &mut self.buf)?;
            patch_u16(&mut self.buf, O_CARRIER_ID, |_| uniform(rng, 1, 10) as u16);
            tx.heap_update(self.heap_order, orid, &self.buf)?;
        }
        tx.commit()
    }

    fn stock_level(&mut self, db: &mut Database, rng: &mut StdRng) -> Result<()> {
        let w = uniform(rng, 0, self.warehouses - 1);
        let d = uniform(rng, 0, self.districts_per_w - 1);
        let mut tx = db.txn();
        let drid = self.district_rids[self.district_slot(w, d)];
        tx.heap_read_into(self.heap_district, drid, &mut self.buf)?;
        for _ in 0..20 {
            let item = uniform(rng, 0, self.items - 1);
            if let Some(enc) = tx.index_lookup(self.stock_index, self.stock_key(w, item))? {
                tx.heap_read_into(self.heap_stock, Rid::decode(0, enc), &mut self.buf)?;
            }
        }
        tx.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Runner, SystemConfig};
    use ipa_core::NxM;

    fn small() -> TpcC {
        TpcC::new(1, 400, 60)
    }

    #[test]
    fn runs_with_small_stock_updates() {
        let mut w = small();
        let cfg = SystemConfig::emulator(NxM::tpcc(), 0.3);
        let mut db = cfg.build(w.estimated_pages(4096)).unwrap();
        let runner = Runner::new(11);
        runner.setup(&mut db, &mut w).unwrap();
        let report = runner.run(&mut db, &mut w, 100, 400).unwrap();
        assert_eq!(report.commits, 400);
        assert!(report.region.host_writes() > 0);
        // Small updates dominate: the paper's Table 1 says >= 55% of
        // evictions change <= 3 net bytes under eager eviction.
        let cdf20 = db.profile(0).body_cdf(20);
        assert!(cdf20 > 0.4, "cdf(<=20B) = {cdf20}");
        assert!(report.region.ipa_fraction() > 0.1, "ipa {}", report.region.ipa_fraction());
    }

    #[test]
    fn mix_exercises_all_transaction_types() {
        let mut w = small();
        let cfg = SystemConfig::emulator(NxM::tpcc(), 0.5);
        let mut db = cfg.build(w.estimated_pages(4096)).unwrap();
        let runner = Runner::new(3);
        runner.setup(&mut db, &mut w).unwrap();
        let report = runner.run(&mut db, &mut w, 0, 300).unwrap();
        assert_eq!(report.commits + report.aborts, 300);
        // Orders were created and delivered.
        assert!(db.heap_count(w.heap_order).unwrap() > 0);
        // Payments happened, and the books balance...
        assert!(w.verify_ytd(&mut db).unwrap() > 0);
        // ...until one district's D_YTD is off by one.
        let drid = w.district_rids[3];
        let mut tx = db.txn();
        let mut district = tx.heap_read(w.heap_district, drid).unwrap();
        patch_i32(&mut district, D_YTD, |v| v + 1);
        tx.heap_update(w.heap_district, drid, &district).unwrap();
        tx.commit().unwrap();
        let err = w.verify_ytd(&mut db).unwrap_err();
        assert!(err.to_string().contains("D_YTD"), "{err}");
    }

    #[test]
    fn ipa_reduces_erases_vs_baseline() {
        // The headline claim in miniature: same trace shape, [2x3] vs
        // [0x0], fewer GC erases per host write with IPA.
        let run = |scheme: NxM| {
            let mut w = small();
            let cfg = SystemConfig::emulator(scheme, 0.2);
            let mut db = cfg.build(w.estimated_pages(4096)).unwrap();
            let runner = Runner::new(5);
            runner.setup(&mut db, &mut w).unwrap();
            runner.run(&mut db, &mut w, 200, 1500).unwrap()
        };
        let base = run(NxM::disabled());
        let ipa = run(NxM::tpcc());
        assert!(ipa.region.ipa_fraction() > 0.2);
        let base_epw = base.region.erases_per_host_write();
        let ipa_epw = ipa.region.erases_per_host_write();
        assert!(
            ipa_epw < base_epw,
            "erases/host-write must drop: baseline {base_epw:.4} vs ipa {ipa_epw:.4}"
        );
    }
}
