//! The IPL simulator proper plus the Appendix B amplification formulas.

use std::collections::HashMap;

use ipa_engine::TraceEvent;

/// Configuration of the IPL layout (defaults reproduce the paper's §8.3
/// setup, which in turn matches the original IPL paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IplConfig {
    /// Physical flash pages per logical DB page (`4io` in the formulas:
    /// 8 KiB logical over 2 KiB physical).
    pub phys_per_logical: u32,
    /// Logical DB pages stored per erase unit (15 data slots).
    pub logical_pages_per_block: u32,
    /// Log region size per erase unit in bytes (8 KiB).
    pub log_region_bytes: usize,
    /// In-memory log sector per logical page in bytes (512 B, the partial
    /// write granularity).
    pub log_sector_bytes: usize,
    /// Per-entry header overhead in the log (offset/length bookkeeping).
    pub entry_header_bytes: usize,
}

impl IplConfig {
    /// The configuration of the paper's Table 2 comparison.
    pub fn paper() -> Self {
        IplConfig {
            phys_per_logical: 4,
            logical_pages_per_block: 15,
            log_region_bytes: 8192,
            log_sector_bytes: 512,
            entry_header_bytes: 4,
        }
    }
}

/// Raw event counters of an IPL replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IplStats {
    /// Logical page fetches.
    pub page_fetches: u64,
    /// Logical page evictions (dirty).
    pub page_evictions: u64,
    /// Log-sector writes forced by a full in-memory sector
    /// (`#imlog_full`).
    pub imlog_full_writes: u64,
    /// Total log-sector writes (imlog-full + eviction flushes).
    pub log_sector_writes: u64,
    /// Merge operations (read whole erase unit, rewrite, erase).
    pub merges: u64,
    /// Erases (== merges under IPL).
    pub erases: u64,
    /// Physical page reads (fetches, log reads, merge reads).
    pub phys_reads: u64,
    /// Physical page writes (initial writes, log writes, merge writes).
    pub phys_writes: u64,
    /// First-time writes of fresh pages.
    pub initial_writes: u64,
}

/// Read/write amplification per the Appendix B formulas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Amplification {
    /// I/O write amplification.
    pub write: f64,
    /// I/O read amplification.
    pub read: f64,
}

impl Amplification {
    /// `WA_IPL` and `RA_IPL` (Appendix B):
    ///
    /// ```text
    /// WA = (#merges·15·ppl + #imlog_full·1 + #evictions·1) / (#evictions·ppl)
    /// RA = (#fetches·2·ppl + #merges·16·ppl) / (#fetches·ppl)
    /// ```
    pub fn ipl(stats: &IplStats, ppl: u32, data_pages_per_block: u32) -> Amplification {
        let ppl = ppl as f64;
        let evict = stats.page_evictions as f64;
        let fetch = stats.page_fetches as f64;
        let write = if evict == 0.0 {
            0.0
        } else {
            (stats.merges as f64 * data_pages_per_block as f64 * ppl
                + stats.imlog_full_writes as f64
                + evict)
                / (evict * ppl)
        };
        let read = if fetch == 0.0 {
            0.0
        } else {
            (fetch * 2.0 * ppl + stats.merges as f64 * (data_pages_per_block + 1) as f64 * ppl)
                / (fetch * ppl)
        };
        Amplification { write, read }
    }

    /// `WA_IPA` and `RA_IPA` (Appendix B):
    ///
    /// ```text
    /// WA = (#write_deltas·1 + #oop_writes·ppl + #gc_migrations·ppl) / (#evictions·ppl)
    /// RA = (#fetches·ppl + #gc_migrations·ppl) / (#fetches·ppl)
    /// ```
    pub fn ipa(
        write_deltas: u64,
        oop_writes: u64,
        gc_migrations: u64,
        evictions: u64,
        fetches: u64,
        ppl: u32,
    ) -> Amplification {
        let ppl = ppl as f64;
        let write = if evictions == 0 {
            0.0
        } else {
            (write_deltas as f64 + oop_writes as f64 * ppl + gc_migrations as f64 * ppl)
                / (evictions as f64 * ppl)
        };
        let read = if fetches == 0 {
            0.0
        } else {
            (fetches as f64 * ppl + gc_migrations as f64 * ppl) / (fetches as f64 * ppl)
        };
        Amplification { write, read }
    }
}

/// Per-erase-unit state.
#[derive(Debug, Default, Clone)]
struct BlockState {
    /// Bytes of log records written into the unit's log region.
    log_used: usize,
}

/// The In-Page Logging simulator: replays an engine trace
/// ([`TraceEvent`] stream) through the IPL storage model.
#[derive(Debug)]
pub struct IplSimulator {
    config: IplConfig,
    stats: IplStats,
    blocks: HashMap<u64, BlockState>,
    /// In-memory log-sector fill per logical page, in bytes.
    sectors: HashMap<u64, usize>,
}

impl IplSimulator {
    /// A fresh simulator.
    pub fn new(config: IplConfig) -> Self {
        IplSimulator {
            config,
            stats: IplStats::default(),
            blocks: HashMap::new(),
            sectors: HashMap::new(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &IplStats {
        &self.stats
    }

    /// Appendix B amplification for this replay.
    pub fn amplification(&self) -> Amplification {
        Amplification::ipl(
            &self.stats,
            self.config.phys_per_logical,
            self.config.logical_pages_per_block,
        )
    }

    fn block_of(&self, page: u64) -> u64 {
        page / self.config.logical_pages_per_block as u64
    }

    /// Replay a whole trace.
    pub fn replay(&mut self, events: &[TraceEvent]) {
        for &ev in events {
            match ev {
                TraceEvent::Fetch { page } => self.fetch(page),
                TraceEvent::Evict { page, changed_bytes, fresh } => {
                    if fresh {
                        self.initial_write(page);
                    } else {
                        self.update(page, changed_bytes);
                        self.evict(page);
                    }
                }
            }
        }
    }

    /// Fetch a logical page: read its physical pages *plus* the erase
    /// unit's log region (§2.1 claim 1 — the read load doubles).
    pub fn fetch(&mut self, page: u64) {
        let _ = page;
        self.stats.page_fetches += 1;
        // The logical page's own physical pages plus the 8 KiB log region
        // (another logical page's worth) on the same erase unit.
        self.stats.phys_reads += 2 * self.config.phys_per_logical as u64;
    }

    /// First write of a fresh page (no logging involved).
    pub fn initial_write(&mut self, page: u64) {
        self.stats.initial_writes += 1;
        self.stats.phys_writes += self.config.phys_per_logical as u64;
        self.blocks.entry(self.block_of(page)).or_default();
    }

    /// Buffer an update of `changed_bytes` into the page's in-memory log
    /// sector, flushing full sectors to the erase unit's log region.
    pub fn update(&mut self, page: u64, changed_bytes: u32) {
        let entry = changed_bytes as usize + self.config.entry_header_bytes;
        let mut fill = self.sectors.get(&page).copied().unwrap_or(0) + entry;
        while fill >= self.config.log_sector_bytes {
            fill -= self.config.log_sector_bytes;
            self.stats.imlog_full_writes += 1;
            self.flush_sector(page);
        }
        self.sectors.insert(page, fill);
    }

    /// Evict the page: its (partial) log sector is flushed.
    pub fn evict(&mut self, page: u64) {
        self.stats.page_evictions += 1;
        self.sectors.insert(page, 0);
        self.flush_sector(page);
    }

    /// Write one 512 B log sector into the owning erase unit (a partial
    /// write costs one physical page program); merge when the log region
    /// is full.
    fn flush_sector(&mut self, page: u64) {
        self.stats.log_sector_writes += 1;
        self.stats.phys_writes += 1;
        let block = self.block_of(page);
        let cfg = self.config;
        let state = self.blocks.entry(block).or_default();
        state.log_used += cfg.log_sector_bytes;
        if state.log_used >= cfg.log_region_bytes {
            state.log_used = 0;
            self.merge(block);
        }
    }

    /// Merge an erase unit: read all of it, write the merged data pages to
    /// a fresh unit, erase. Blocking and free-space independent (§2.1
    /// claim 2).
    fn merge(&mut self, _block: u64) {
        let ppl = self.config.phys_per_logical as u64;
        let data = self.config.logical_pages_per_block as u64;
        self.stats.merges += 1;
        self.stats.erases += 1;
        // Read the whole erase unit: 15 logical pages + the log region
        // (together 16 logical pages' worth of physical pages).
        self.stats.phys_reads += (data + 1) * ppl;
        // Write back the merged data pages.
        self.stats.phys_writes += data * ppl;
    }
}
