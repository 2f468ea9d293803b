//! ARIES-style write-ahead log.
//!
//! Physical REDO/UNDO records at tuple granularity plus logical index
//! records, with per-transaction backward chains, compensation records
//! (CLRs) and fuzzy checkpoints. The log device itself is not simulated:
//! Shore-MT in the paper's testbed logs to a separate device, so log I/O
//! does not compete with the flash under test — only its *space* matters,
//! because eager log-space reclamation forces dirty-page flushes (§8.4,
//! "Why does the DBMS write even with 90% buffer size?").
//!
//! One type is a log record, [`Record`]: a [`LogPayload`] — a change, or a
//! transaction or checkpoint event — and, for a CLR, its [`Compensation`]:
//! the record it undid and the next to undo. A CLR's payload is the
//! compensation it applied, so redo and rollback apply any record's
//! payload alike.
//!
//! The log keeps its records as bytes, in memory the [`Wal`] owns: an
//! append encodes the record there — a kind byte, `prev`, a CLR's
//! transaction, `undone`, `undo_next` and its payload's kind byte, the
//! payload's fields at fixed little-endian widths, then its images, copied
//! from the slices the caller borrows (a frame, a transaction's argument),
//! or a checkpoint's tables, which [`Wal::end_checkpoint`] encodes — and an
//! index keeps where each record starts, one `u64` a record. A retained
//! record costs what it encodes: a `Begin` 25 bytes with its index entry.
//! No field is narrowed silently: each is stored at its own width, and the
//! two that are not — a region in 16 bits, which `Database::open` bounds,
//! and an image's length in 32 — are checked. Bytes and index each sit in a
//! sequence of fixed-size chunks of [`LOG_CHUNK_BYTES`]: an append
//! allocates only when a chunk is full, and truncation or the loss of the
//! unflushed tail hand back the chunks that hold nothing any more.
//!
//! A record holds what its change needs and no more. An update changes a
//! few bytes of its tuple, so an [`LogPayload::Update`] — an update that
//! keeps the tuple's length — holds the window where the two images differ:
//! its offset in the tuple and its bytes before and after ([`update`]). Only
//! a [`LogPayload::Resize`], which changes the length, holds both images
//! whole. A B+-tree node write ([`LogPayload::PageWrite`]) holds the runs
//! of bytes it changed. Windows and runs are found by one scan,
//! [`ipa_core::changed_runs`]. The
//! log's space accounting ([`Record::size_bytes`],
//! [`Wal::used_fraction`]) still charges an update both images whole and a
//! node write the span its runs cover, so how little a record holds never
//! changes when the log reclaims space.
//!
//! Restart and rollback read a record where the log keeps it:
//! [`Wal::record`] and [`Wal::records_from`] decode its kind, transaction,
//! page and fields in place into a [`Record`], its images and checkpoint
//! tables as [`Span`]s.
//! [`Wal::images`] copies the images of the one record being applied into a
//! buffer the caller reuses, and [`Wal::active_table`] /
//! [`Wal::dirty_table`] read a checkpoint's tables entry by entry. Nothing
//! a decoding hands out is allocated. Space accounting decodes too:
//! truncation and a crash subtract the charge of each record they drop.
//! The owned view — `LogRecord`, every image a `Vec<u8>` — is the model's
//! interface and exists in tests only.

use std::collections::VecDeque;
use std::ops::Range;

use crate::db::PageId;
use crate::error::EngineError;
use crate::txn::TxId;
use crate::Result;
use ipa_core::SlotId;

/// Log sequence number. `Lsn(0)` is the null LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN (no record).
    pub const NULL: Lsn = Lsn(0);

    /// Whether this is a real record reference.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

/// The body of one log record. `B` is how it holds its tuple and node
/// images and a checkpoint's tables: owned (`Vec<u8>`, the default — the tests' owned view),
/// borrowed (`&[u8]` — what the hot paths pass to [`Wal::append`] and what
/// [`Wal::images`] hands redo and rollback), or as a [`Span`] of the log's
/// bytes (what decoding a retained record gives, inside a [`Record`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LogPayload<B = Vec<u8>> {
    /// Transaction start.
    Begin {
        /// Transaction id.
        tx: TxId,
    },
    /// Tuple update that keeps the tuple's length: physical before and
    /// after images of the window it changed ([`update`]), the stretch from
    /// the first byte that differs to the last, `at` bytes into the tuple.
    /// The `kept` bytes around it are left to the page. Redo writes the
    /// after window there, which is correct on the tuple the record was
    /// logged against — the one ARIES redo rebuilds (PageLSN, recLSN). Undo
    /// writes the before window over the after window, which the tuple
    /// still holds under strict two-phase locking. The log charges both
    /// images whole ([`Record::size_bytes`]).
    Update {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Affected slot.
        slot: SlotId,
        /// Offset of the window in the tuple.
        at: u16,
        /// Bytes of the tuple outside the window, the same before and
        /// after.
        kept: u16,
        /// The window before the update.
        before: B,
        /// The window after the update, as long as `before`.
        after: B,
    },
    /// Tuple update that changes the tuple's length: both images whole,
    /// and where each lies, as offsets from the start of the page's body
    /// (which a relayout moves with the tuples). The tuple stays where it
    /// is when it shrinks and moves to the free-space frontier when it
    /// grows. Applying the record puts the image it writes where the record
    /// says, so undo puts the tuple back where it lay and takes no free
    /// bytes: the bytes it left are garbage that nothing else reuses.
    Resize {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Affected slot.
        slot: SlotId,
        /// Where the tuple lay before.
        from: u16,
        /// Where it lies after.
        to: u16,
        /// Before image.
        before: B,
        /// After image.
        after: B,
    },
    /// Tuple insert.
    Insert {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Slot the tuple landed in.
        slot: SlotId,
        /// Tuple image.
        tuple: B,
    },
    /// Tuple delete (mark-delete; before image kept for undo).
    Delete {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Affected slot.
        slot: SlotId,
        /// Before image.
        before: B,
    },
    /// Logical index insert (redo re-inserts if absent).
    IndexInsert {
        /// Transaction id.
        tx: TxId,
        /// Index identifier (catalog-scoped).
        index: u32,
        /// Key.
        key: u64,
        /// Value (encoded RID).
        value: u64,
    },
    /// Logical index delete.
    IndexDelete {
        /// Transaction id.
        tx: TxId,
        /// Index identifier.
        index: u32,
        /// Key.
        key: u64,
        /// Value (encoded RID).
        value: u64,
    },
    /// Physical redo-only page write (physiological logging for B+-tree
    /// node changes: physical REDO here, logical UNDO via
    /// [`LogPayload::IndexInsert`]/[`LogPayload::IndexDelete`]). Never
    /// undone — rollback skips it.
    ///
    /// It covers the span from the first byte the write changed to the
    /// last, and holds only the runs of bytes in it that differ from the
    /// page ([`encode_runs`]): an insert at the end of a node changes its
    /// count and the new entry, and the record holds those. Like the span's
    /// two ends, the bytes between runs are left to the page, so the record
    /// is correct only on the page state it was logged against — the one
    /// ARIES redo rebuilds (PageLSN, recLSN, a fresh page formatted alike).
    /// The log charges the covering span, not the runs
    /// ([`Record::size_bytes`]): that is what it charged when it held
    /// the span, so when it reclaims space does not move. Charging the runs
    /// would be the honest size and moves every simulated number.
    PageWrite {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Absolute byte offset of the covered span.
        offset: u32,
        /// Bytes the span covers.
        extent: u32,
        /// The changed runs in the span, each a [`RUN_HEADER`] (bytes
        /// skipped since the previous run's end, or the span's start, and
        /// bytes written, `u16` little-endian each) and its bytes.
        runs: B,
    },
    /// Redo-only root-pointer change of an index (tree growth). Never
    /// undone: a one-level-deeper tree remains correct after logical undo.
    RootChange {
        /// Transaction id.
        tx: TxId,
        /// Index identifier.
        index: u32,
        /// New root page.
        new_root: PageId,
    },
    /// Undo of a delete: the tuple reappears in its original slot (the
    /// slot offset survives mark-delete). Logged only as a CLR's
    /// compensation.
    Undelete {
        /// Transaction id.
        tx: TxId,
        /// Affected page.
        page: PageId,
        /// Affected slot.
        slot: SlotId,
        /// Restored tuple image.
        tuple: B,
    },
    /// Transaction commit.
    Commit {
        /// Transaction id.
        tx: TxId,
    },
    /// Transaction abort completed (all changes rolled back).
    Abort {
        /// Transaction id.
        tx: TxId,
    },
    /// Fuzzy checkpoint begin.
    BeginCheckpoint,
    /// Fuzzy checkpoint end: the active-transaction and dirty-page tables,
    /// in the bytes the log stores ([`Wal::end_checkpoint`] writes them,
    /// [`Wal::active_table`] and [`Wal::dirty_table`] read them).
    EndCheckpoint {
        /// Active transactions with their last LSN, [`ACTIVE_ENTRY`] bytes
        /// an entry.
        active: B,
        /// Dirty pages with their recovery LSN, [`DIRTY_ENTRY`] bytes an
        /// entry.
        dirty: B,
    },
}

impl<B> LogPayload<B> {
    /// Transaction this record belongs to, if any.
    pub fn tx(&self) -> Option<TxId> {
        match self {
            LogPayload::Begin { tx }
            | LogPayload::Update { tx, .. }
            | LogPayload::Resize { tx, .. }
            | LogPayload::Insert { tx, .. }
            | LogPayload::Delete { tx, .. }
            | LogPayload::Undelete { tx, .. }
            | LogPayload::PageWrite { tx, .. }
            | LogPayload::RootChange { tx, .. }
            | LogPayload::IndexInsert { tx, .. }
            | LogPayload::IndexDelete { tx, .. }
            | LogPayload::Commit { tx }
            | LogPayload::Abort { tx } => Some(*tx),
            LogPayload::BeginCheckpoint | LogPayload::EndCheckpoint { .. } => None,
        }
    }

    /// The page the change targets. `None` for everything restart redo
    /// does not apply to a page: logical index records, transaction and
    /// checkpoint records.
    pub fn redo_page(&self) -> Option<PageId> {
        match self {
            LogPayload::Update { page, .. }
            | LogPayload::Resize { page, .. }
            | LogPayload::Insert { page, .. }
            | LogPayload::Delete { page, .. }
            | LogPayload::Undelete { page, .. }
            | LogPayload::PageWrite { page, .. } => Some(*page),
            _ => None,
        }
    }

    /// The same record holding each image and table as `image(old)`, in
    /// the order the log stores them. The one place that names every
    /// image field: copying into the log and copying out of it are two
    /// closures. Everything else a record owns moves.
    pub fn map_images<C>(self, image: &mut impl FnMut(B) -> C) -> LogPayload<C> {
        match self {
            LogPayload::Begin { tx } => LogPayload::Begin { tx },
            LogPayload::Update { tx, page, slot, at, kept, before, after } => {
                let (before, after) = (image(before), image(after));
                LogPayload::Update { tx, page, slot, at, kept, before, after }
            }
            LogPayload::Resize { tx, page, slot, from, to, before, after } => {
                let (before, after) = (image(before), image(after));
                LogPayload::Resize { tx, page, slot, from, to, before, after }
            }
            LogPayload::Insert { tx, page, slot, tuple } => {
                LogPayload::Insert { tx, page, slot, tuple: image(tuple) }
            }
            LogPayload::Delete { tx, page, slot, before } => {
                LogPayload::Delete { tx, page, slot, before: image(before) }
            }
            LogPayload::IndexInsert { tx, index, key, value } => {
                LogPayload::IndexInsert { tx, index, key, value }
            }
            LogPayload::IndexDelete { tx, index, key, value } => {
                LogPayload::IndexDelete { tx, index, key, value }
            }
            LogPayload::PageWrite { tx, page, offset, extent, runs } => {
                LogPayload::PageWrite { tx, page, offset, extent, runs: image(runs) }
            }
            LogPayload::RootChange { tx, index, new_root } => {
                LogPayload::RootChange { tx, index, new_root }
            }
            LogPayload::Undelete { tx, page, slot, tuple } => {
                LogPayload::Undelete { tx, page, slot, tuple: image(tuple) }
            }
            LogPayload::Commit { tx } => LogPayload::Commit { tx },
            LogPayload::Abort { tx } => LogPayload::Abort { tx },
            LogPayload::BeginCheckpoint => LogPayload::BeginCheckpoint,
            LogPayload::EndCheckpoint { active, dirty } => {
                let active = image(active);
                LogPayload::EndCheckpoint { active, dirty: image(dirty) }
            }
        }
    }
}

/// Bytes of a page write's run header: bytes skipped, bytes written, a
/// `u16` each — a page's offsets are `u16` everywhere (the change tracker's
/// too), so both fit.
const RUN_HEADER: usize = 4;

/// Encode where `new` differs from `old` (at least as long) as the runs of
/// a [`LogPayload::PageWrite`] into `runs`, which is cleared first, and
/// return the span they cover in `new` — `None`, with no run, when nothing
/// differs. A gap shorter than a run header does not start a new run: its
/// bytes, equal in both, go into the run it joins.
pub(crate) fn encode_runs(old: &[u8], new: &[u8], runs: &mut Vec<u8>) -> Option<Range<usize>> {
    /// Append `run` of `new` to `runs`, and extend `span` over it.
    fn push(runs: &mut Vec<u8>, new: &[u8], run: Range<usize>, span: &mut Option<Range<usize>>) {
        let after = span.as_ref().map_or(run.start, |span| span.end);
        runs.extend_from_slice(&((run.start - after) as u16).to_le_bytes());
        runs.extend_from_slice(&(run.len() as u16).to_le_bytes());
        runs.extend_from_slice(&new[run.clone()]);
        *span = Some(span.as_ref().map_or(run.start, |span| span.start)..run.end);
    }
    runs.clear();
    let (mut span, mut open) = (None, None::<Range<usize>>);
    ipa_core::changed_runs(old, new, |start, len| {
        open = Some(match open.take() {
            Some(run) if start - run.end < RUN_HEADER => run.start..start + len,
            Some(run) => {
                push(runs, new, run, &mut span);
                start..start + len
            }
            None => start..start + len,
        });
    });
    if let Some(run) = open {
        push(runs, new, run, &mut span);
    }
    span
}

/// The record of an update of the tuple at `slot` of `page` from `before`,
/// which lies at `from`, to `after`, which goes to `to` (offsets from the
/// start of the body, as [`ipa_core::DbPage::update_place`] gives them).
/// When the two are as long, an [`LogPayload::Update`] of the window from
/// the first byte where they differ to the last, at its offset in the tuple
/// (an empty window at 0 when none differs); otherwise a
/// [`LogPayload::Resize`] holding both whole. A tuple is shorter than a
/// page, whose offsets are `u16`.
pub(crate) fn update<'a>(
    (tx, page, slot): (TxId, PageId, SlotId),
    (from, before): (u16, &'a [u8]),
    (to, after): (u16, &'a [u8]),
) -> LogPayload<&'a [u8]> {
    let len = after.len();
    if before.len() != len {
        return LogPayload::Resize { tx, page, slot, from, to, before, after };
    }
    let mut window = None::<Range<usize>>;
    ipa_core::changed_runs(before, after, |start, run| {
        window = Some(window.as_ref().map_or(start, |w| w.start)..start + run);
    });
    let window = window.unwrap_or(0..0);
    let (at, kept) = (window.start as u16, (len - window.len()) as u16);
    let (before, after) = (&before[window.clone()], &after[window]);
    LogPayload::Update { tx, page, slot, at, kept, before, after }
}

/// Call `write(at, bytes)` for each run of a page write's `runs`, `at`
/// counted from the start of the span; `extent` is the span's length. A
/// run that reaches past the span, or bytes that are no whole run, are
/// [`EngineError::Internal`] once the runs before them are written. Out of
/// line: its loop would grow the match of `apply_record`, which every
/// logged change goes through.
#[inline(never)]
pub(crate) fn for_each_run(
    runs: &[u8],
    extent: usize,
    mut write: impl FnMut(usize, &[u8]),
) -> Result<()> {
    let (mut at, mut rest) = (0, runs);
    while let Some((head, tail)) = rest.split_first_chunk::<RUN_HEADER>() {
        let skip = usize::from(u16::from_le_bytes([head[0], head[1]]));
        let len = usize::from(u16::from_le_bytes([head[2], head[3]]));
        at += skip;
        let bytes = tail
            .get(..len)
            .filter(|_| at + len <= extent)
            .ok_or(EngineError::Internal("a page write's run lies outside its span"))?;
        write(at, bytes);
        (at, rest) = (at + len, &tail[len..]);
    }
    if rest.is_empty() {
        Ok(())
    } else {
        Err(EngineError::Internal("a page write's runs end in part of a run header"))
    }
}

/// What makes a record a compensation record (CLR): rollback applied the
/// record's payload to undo `undone`, and restart undo goes on at
/// `undo_next`. The payload makes the CLR redo-able (ARIES).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Compensation {
    /// LSN of the record this CLR compensates.
    pub undone: Lsn,
    /// Next record to undo for this transaction.
    pub undo_next: Lsn,
}

/// One log record: what [`Wal::append`] takes and [`Wal::record`] /
/// [`Wal::records_from`] hand out. `B` is how it holds its images and
/// checkpoint tables, as in [`LogPayload`]; decoded, as [`Span`]s of the
/// log (the default), which allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record<B = Span> {
    /// `Some` for a CLR, whose `payload` is the compensation it applied.
    pub clr: Option<Compensation>,
    /// The change, or the transaction or checkpoint event.
    pub payload: LogPayload<B>,
}

impl<B> From<LogPayload<B>> for Record<B> {
    fn from(payload: LogPayload<B>) -> Self {
        Record { clr: None, payload }
    }
}

impl<B> Record<B> {
    /// [`Self::size_bytes`] for any way of holding an image or table,
    /// given its length.
    fn size_with(&self, len: &impl Fn(&B) -> usize) -> usize {
        let body = match &self.payload {
            LogPayload::Update { before, after, kept, .. } => {
                len(before) + len(after) + 2 * usize::from(*kept)
            }
            LogPayload::Resize { before, after, .. } => len(before) + len(after),
            LogPayload::Insert { tuple, .. } | LogPayload::Undelete { tuple, .. } => len(tuple),
            LogPayload::Delete { before, .. } => len(before),
            LogPayload::PageWrite { extent, .. } => *extent as usize,
            LogPayload::EndCheckpoint { active, dirty } => len(active) + len(dirty),
            _ => 0,
        };
        // A CLR is charged a header of its own and its compensation whole.
        32 * (1 + usize::from(self.clr.is_some())) + body
    }
}

impl<B: AsRef<[u8]>> Record<B> {
    /// Approximate on-disk size of the record, used for log-space
    /// accounting: a header and the images, an update's both whole and a
    /// page write's as the span it covers, however few bytes of them the
    /// record holds.
    pub fn size_bytes(&self) -> usize {
        self.size_with(&|image| image.as_ref().len())
    }
}

/// One log record, every image copied out: LSN, backward same-transaction
/// chain, record. The owned view the record-vector model and the tests
/// compare.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// This record's LSN.
    pub lsn: Lsn,
    /// Previous record of the same transaction (null for the first).
    pub prev: Lsn,
    /// Body.
    pub record: Record<Vec<u8>>,
}

/// Where the log holds an image or a checkpoint table: its index in the
/// log's byte sequence (every byte ever appended and not lost counts) and
/// its length. Decoding a record hands them out; only the [`Wal`] that did
/// can read the bytes ([`Wal::images`], [`Wal::active_table`],
/// [`Wal::dirty_table`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    start: u64,
    len: u32,
}

/// The byte a record, and a CLR's compensation after the CLR's fields,
/// starts with: which [`LogPayload`] variant follows, or that a CLR does.
mod kind {
    pub(super) const BEGIN: u8 = 0;
    pub(super) const UPDATE: u8 = 1;
    pub(super) const RESIZE: u8 = 2;
    pub(super) const INSERT: u8 = 3;
    pub(super) const DELETE: u8 = 4;
    pub(super) const INDEX_INSERT: u8 = 5;
    pub(super) const INDEX_DELETE: u8 = 6;
    pub(super) const PAGE_WRITE: u8 = 7;
    pub(super) const ROOT_CHANGE: u8 = 8;
    pub(super) const UNDELETE: u8 = 9;
    pub(super) const CLR: u8 = 10;
    pub(super) const COMMIT: u8 = 11;
    pub(super) const ABORT: u8 = 12;
    pub(super) const BEGIN_CHECKPOINT: u8 = 13;
    pub(super) const END_CHECKPOINT: u8 = 14;
}

/// The kind byte of `payload`.
fn kind_of<B>(payload: &LogPayload<B>) -> u8 {
    match payload {
        LogPayload::Begin { .. } => kind::BEGIN,
        LogPayload::Update { .. } => kind::UPDATE,
        LogPayload::Resize { .. } => kind::RESIZE,
        LogPayload::Insert { .. } => kind::INSERT,
        LogPayload::Delete { .. } => kind::DELETE,
        LogPayload::IndexInsert { .. } => kind::INDEX_INSERT,
        LogPayload::IndexDelete { .. } => kind::INDEX_DELETE,
        LogPayload::PageWrite { .. } => kind::PAGE_WRITE,
        LogPayload::RootChange { .. } => kind::ROOT_CHANGE,
        LogPayload::Undelete { .. } => kind::UNDELETE,
        LogPayload::Commit { .. } => kind::COMMIT,
        LogPayload::Abort { .. } => kind::ABORT,
        LogPayload::BeginCheckpoint => kind::BEGIN_CHECKPOINT,
        LogPayload::EndCheckpoint { .. } => kind::END_CHECKPOINT,
    }
}

/// Bytes of an active-transaction table entry: transaction id and last
/// LSN, as the log charges it.
const ACTIVE_ENTRY: usize = 16;

/// Bytes of a dirty-page table entry: region (at a `u64`: the tables are
/// rare, and nothing in them is narrowed), LBA and recovery LSN, as the log
/// charges it.
const DIRTY_ENTRY: usize = 24;

/// Bytes of the longest fixed part of a record: a CLR's kind, `prev`, `tx`,
/// `undone` and `undo_next` (33), and its compensation's, a resize's kind,
/// `tx`, page, slot, `from`, `to` and two image lengths (33).
const HEAD_MAX: usize = 66;

/// A record's fixed part, written on the stack and copied into the log at
/// once: every field at its own width, little-endian.
struct Head {
    bytes: [u8; HEAD_MAX],
    len: usize,
}

impl Head {
    fn put<const N: usize>(&mut self, field: [u8; N]) {
        self.bytes[self.len..self.len + N].copy_from_slice(&field);
        self.len += N;
    }

    /// A page: its region in 16 bits — [`crate::Database::open`] refuses
    /// more regions than that names, so a wider one is a bug and stops
    /// here rather than being stored as another — and its LBA.
    fn page(&mut self, page: PageId) {
        assert!(page.region <= usize::from(u16::MAX), "region {} of {page:?}", page.region);
        self.put((page.region as u16).to_le_bytes());
        self.put(page.lba.0.to_le_bytes());
    }

    /// The length of an image or a table, which the log stores in 32 bits
    /// as [`Span`] does.
    fn length(&mut self, bytes: usize) {
        assert!(bytes <= u32::MAX as usize, "{bytes} bytes of an image or table");
        self.put((bytes as u32).to_le_bytes());
    }

    /// The fields of `payload`, whose kind byte is written — its
    /// transaction first, when it has one — and the lengths of its images
    /// or tables; returns those, which follow the fixed part in this order.
    fn fields<'p, B: AsRef<[u8]>>(&mut self, payload: &'p LogPayload<B>) -> [&'p [u8]; 2] {
        if let Some(tx) = payload.tx() {
            self.put(tx.0.to_le_bytes());
        }
        let mut images: [&[u8]; 2] = [&[], &[]];
        match payload {
            LogPayload::Begin { .. }
            | LogPayload::Commit { .. }
            | LogPayload::Abort { .. }
            | LogPayload::BeginCheckpoint => {}
            LogPayload::Update { page, slot, at, kept, before, after, .. } => {
                // One length for both windows.
                let (before, after) = (before.as_ref(), after.as_ref());
                assert_eq!(before.len(), after.len(), "an update's windows are as long");
                self.page(*page);
                self.put(slot.0.to_le_bytes());
                self.put(at.to_le_bytes());
                self.put(kept.to_le_bytes());
                self.length(before.len());
                images = [before, after];
            }
            LogPayload::Resize { page, slot, from, to, before, after, .. } => {
                let (before, after) = (before.as_ref(), after.as_ref());
                self.page(*page);
                self.put(slot.0.to_le_bytes());
                self.put(from.to_le_bytes());
                self.put(to.to_le_bytes());
                self.length(before.len());
                self.length(after.len());
                images = [before, after];
            }
            LogPayload::Insert { page, slot, tuple: image, .. }
            | LogPayload::Delete { page, slot, before: image, .. }
            | LogPayload::Undelete { page, slot, tuple: image, .. } => {
                self.page(*page);
                self.put(slot.0.to_le_bytes());
                self.length(image.as_ref().len());
                images[0] = image.as_ref();
            }
            LogPayload::IndexInsert { index, key, value, .. }
            | LogPayload::IndexDelete { index, key, value, .. } => {
                self.put(index.to_le_bytes());
                self.put(key.to_le_bytes());
                self.put(value.to_le_bytes());
            }
            LogPayload::PageWrite { page, offset, extent, runs, .. } => {
                self.page(*page);
                self.put(offset.to_le_bytes());
                self.put(extent.to_le_bytes());
                self.length(runs.as_ref().len());
                images[0] = runs.as_ref();
            }
            LogPayload::RootChange { index, new_root, .. } => {
                self.put(index.to_le_bytes());
                self.page(*new_root);
            }
            LogPayload::EndCheckpoint { active, dirty } => {
                let (active, dirty) = (active.as_ref(), dirty.as_ref());
                self.length(active.len());
                self.length(dirty.len());
                images = [active, dirty];
            }
        }
        images
    }
}

/// Reads a record's fixed part back, field by field: `None` past its end.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (field, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*field)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take::<1>()?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take()?))
    }

    fn tx(&mut self) -> Option<TxId> {
        Some(TxId(self.u64()?))
    }

    fn lsn(&mut self) -> Option<Lsn> {
        Some(Lsn(self.u64()?))
    }

    fn slot(&mut self) -> Option<SlotId> {
        Some(SlotId(self.u16()?))
    }

    fn page(&mut self) -> Option<PageId> {
        let region = usize::from(self.u16()?);
        Some(PageId::new(region, self.u64()?))
    }

    /// The fields [`Head::fields`] wrote for a payload of `kind`, each image
    /// and table as its length. `None` for a CLR's kind: what follows a
    /// CLR's fields is its compensation, never another CLR.
    #[inline(always)]
    fn fields(&mut self, kind: u8) -> Option<LogPayload<u32>> {
        match kind {
            kind::BEGIN_CHECKPOINT => return Some(LogPayload::BeginCheckpoint),
            kind::END_CHECKPOINT => {
                return Some(LogPayload::EndCheckpoint { active: self.u32()?, dirty: self.u32()? })
            }
            _ => {}
        }
        let tx = self.tx()?;
        Some(match kind {
            kind::BEGIN => LogPayload::Begin { tx },
            kind::COMMIT => LogPayload::Commit { tx },
            kind::ABORT => LogPayload::Abort { tx },
            kind::UPDATE => {
                let (page, slot, at, kept) = (self.page()?, self.slot()?, self.u16()?, self.u16()?);
                let len = self.u32()?;
                LogPayload::Update { tx, page, slot, at, kept, before: len, after: len }
            }
            kind::RESIZE => {
                let (page, slot, from, to) = (self.page()?, self.slot()?, self.u16()?, self.u16()?);
                let (before, after) = (self.u32()?, self.u32()?);
                LogPayload::Resize { tx, page, slot, from, to, before, after }
            }
            kind::INSERT | kind::DELETE | kind::UNDELETE => {
                let (page, slot, image) = (self.page()?, self.slot()?, self.u32()?);
                match kind {
                    kind::INSERT => LogPayload::Insert { tx, page, slot, tuple: image },
                    kind::DELETE => LogPayload::Delete { tx, page, slot, before: image },
                    _ => LogPayload::Undelete { tx, page, slot, tuple: image },
                }
            }
            kind::INDEX_INSERT | kind::INDEX_DELETE => {
                let (index, key, value) = (self.u32()?, self.u64()?, self.u64()?);
                if kind == kind::INDEX_INSERT {
                    LogPayload::IndexInsert { tx, index, key, value }
                } else {
                    LogPayload::IndexDelete { tx, index, key, value }
                }
            }
            kind::PAGE_WRITE => {
                let (page, offset, extent, runs) =
                    (self.page()?, self.u32()?, self.u32()?, self.u32()?);
                LogPayload::PageWrite { tx, page, offset, extent, runs }
            }
            kind::ROOT_CHANGE => {
                let (index, new_root) = (self.u32()?, self.page()?);
                LogPayload::RootChange { tx, index, new_root }
            }
            _ => return None,
        })
    }
}

/// Bytes in one chunk of the log's memory. The log allocates and frees the
/// memory that holds its records in these units only.
pub const LOG_CHUNK_BYTES: usize = 64 << 10;

/// Records in one chunk of the log's record index: a chunk of it is as
/// large as one of bytes.
const LOG_CHUNK_RECORDS: usize = LOG_CHUNK_BYTES / 8;

/// A sequence of `T` held in chunks of one fixed length. Elements are
/// pushed at the back, addressed by their index in the sequence — the
/// number of elements before them — and given up at either end. A chunk
/// with no element left goes back to the allocator then and there, and
/// nothing is reserved ahead, so what the sequence holds is what is live
/// plus less than a chunk at each end: whatever the log's budget, however
/// full the log once was (loading a database fills it to its budget several
/// times over; the memory must be free for the flash pages the run goes on
/// to program), and whichever allocator the process runs on.
#[derive(Debug)]
struct Chunked<T> {
    /// Oldest first; every chunk but the last is `chunk_len` long.
    chunks: VecDeque<Vec<T>>,
    chunk_len: usize,
    /// Index of `chunks[0][0]`.
    base: u64,
    /// Index of the first element not given up (it lies in `chunks[0]`).
    start: u64,
    /// One past the index of the last element.
    end: u64,
}

impl<T> Chunked<T> {
    fn new(chunk_len: usize) -> Self {
        Chunked { chunks: VecDeque::new(), chunk_len, base: 0, start: 0, end: 0 }
    }

    /// The last chunk, or a new one behind it when that is full.
    fn open_chunk(&mut self) -> &mut Vec<T> {
        if self.chunks.back().is_none_or(|last| last.len() == self.chunk_len) {
            self.chunks.push_back(Vec::with_capacity(self.chunk_len));
        }
        let last = self.chunks.len() - 1;
        &mut self.chunks[last]
    }

    fn push(&mut self, value: T) {
        self.open_chunk().push(value);
        self.end += 1;
    }

    /// The element at `index`, unless it was given up or never pushed.
    fn get(&self, index: u64) -> Option<&T> {
        if index < self.start || index >= self.end {
            return None;
        }
        let at = (index - self.base) as usize;
        self.chunks.get(at / self.chunk_len)?.get(at % self.chunk_len)
    }

    /// Give up every element before `index`.
    fn release_before(&mut self, index: u64) {
        self.start = index.clamp(self.start, self.end);
        while self.start - self.base >= self.chunk_len as u64 {
            self.chunks.pop_front();
            self.base += self.chunk_len as u64;
        }
    }

    /// Give up every element from `index` on; the next push lands there.
    fn truncate(&mut self, index: u64) {
        self.end = index.clamp(self.start, self.end);
        let held = (self.end - self.base) as usize;
        self.chunks.truncate(held.div_ceil(self.chunk_len));
        let before_last = self.chunks.len().saturating_sub(1) * self.chunk_len;
        if let Some(last) = self.chunks.back_mut() {
            last.truncate(held - before_last);
        }
    }
}

impl Chunked<u8> {
    fn extend_from_slice(&mut self, mut bytes: &[u8]) {
        self.end += bytes.len() as u64;
        while !bytes.is_empty() {
            let chunk_len = self.chunk_len;
            let chunk = self.open_chunk();
            let (fits, rest) = bytes.split_at(bytes.len().min(chunk_len - chunk.len()));
            chunk.extend_from_slice(fits);
            bytes = rest;
        }
    }

    /// The `len` bytes from `index` on, as the parts of the chunks they lie
    /// in, in order. `None` when any of them was given up or never pushed.
    fn parts(&self, index: u64, len: u64) -> Option<impl Iterator<Item = &[u8]>> {
        let end = index.checked_add(len)?;
        if index < self.start || end > self.end {
            return None;
        }
        let (mut at, end) = ((index - self.base) as usize, (end - self.base) as usize);
        Some(std::iter::from_fn(move || {
            (at < end).then(|| {
                let (chunk, from) = (&self.chunks[at / self.chunk_len], at % self.chunk_len);
                let part = &chunk[from..chunk.len().min(from + end - at)];
                at += part.len();
                part
            })
        }))
    }

    /// The `len` bytes from `index` on, when they lie in one chunk.
    fn within_a_chunk(&self, index: u64, len: usize) -> Option<&[u8]> {
        let at = index.checked_sub(self.base).filter(|_| index >= self.start)? as usize;
        self.chunks.get(at / self.chunk_len)?.get(at % self.chunk_len..)?.get(..len)
    }

    /// Append the `len` bytes from `index` on to `out`. `None`, with
    /// nothing appended, when any of them was given up or never pushed.
    fn copy_to(&self, index: u64, len: u64, out: &mut Vec<u8>) -> Option<()> {
        self.parts(index, len)?.for_each(|part| out.extend_from_slice(part));
        Some(())
    }

    /// Fill `out` with the bytes from `index` on, under the same terms.
    fn copy_into(&self, index: u64, out: &mut [u8]) -> Option<()> {
        if let Some(bytes) = self.within_a_chunk(index, out.len()) {
            out.copy_from_slice(bytes);
            return Some(());
        }
        let mut at = 0;
        for part in self.parts(index, out.len() as u64)? {
            out[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Some(())
    }

    /// The `N` bytes from `index` on.
    fn read<const N: usize>(&self, index: u64) -> Option<[u8; N]> {
        let mut out = [0; N];
        self.copy_into(index, &mut out)?;
        Some(out)
    }
}

/// The write-ahead log: an append-only record store with space accounting,
/// group flush and truncation.
#[derive(Debug)]
pub struct Wal {
    /// Where each retained record starts in `bytes`, in LSN order: the
    /// record with LSN `l` is element `l - 1`.
    index: Chunked<u64>,
    /// The retained records, encoded back to back in append order.
    bytes: Chunked<u8>,
    /// LSN of the first retained record (everything below is truncated).
    tail: Lsn,
    next: u64,
    flushed: Lsn,
    used_bytes: usize,
    capacity_bytes: usize,
    /// Begin/End LSN pair of the most recent *complete* checkpoint, while
    /// both records are retained and durable-consistent. Fuzzy checkpoints
    /// interleave with regular traffic, so the two LSNs are in general not
    /// adjacent — restart must scan from the Begin, and truncation must
    /// keep the Begin, not `end - 1`.
    last_checkpoint: Option<(Lsn, Lsn)>,
    /// Begin LSN of a checkpoint whose End has not been appended yet.
    pending_begin: Option<Lsn>,
}

impl Wal {
    /// A log with the given capacity budget. The budget is a number the
    /// space accounting compares against, any `usize` will do: an empty log
    /// holds no memory, and a log holds memory for what it retains.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_chunk_lens(capacity_bytes, LOG_CHUNK_BYTES, LOG_CHUNK_RECORDS)
    }

    fn with_chunk_lens(capacity_bytes: usize, bytes: usize, records: usize) -> Self {
        Wal {
            index: Chunked::new(records),
            bytes: Chunked::new(bytes),
            tail: Lsn(1),
            next: 1,
            flushed: Lsn::NULL,
            used_bytes: 0,
            capacity_bytes,
            last_checkpoint: None,
            pending_begin: None,
        }
    }

    /// Append a record, encoding it into the log, and return its LSN. The
    /// hot paths pass images as `&[u8]` borrowed from a frame or from their
    /// caller, and a bare [`LogPayload`] for a record that is no CLR. The
    /// record is a kind byte, `prev`, the variant's fields at their widths,
    /// then its images or checkpoint tables; the index gets where it
    /// starts. A CLR has a kind byte of its own, and its transaction (its
    /// compensation's), `undone` and `undo_next` come before the
    /// compensation's kind byte and fields.
    pub fn append<B: AsRef<[u8]>>(&mut self, prev: Lsn, record: impl Into<Record<B>>) -> Lsn {
        let record = record.into();
        let (clr, payload) = (record.clr, &record.payload);
        let lsn = Lsn(self.next);
        self.next += 1;
        self.used_bytes += record.size_bytes();
        match (clr, payload) {
            (None, LogPayload::BeginCheckpoint) => self.pending_begin = Some(lsn),
            (None, LogPayload::EndCheckpoint { .. }) => {
                // A lone End (no Begin retained) forms a degenerate pair.
                let begin = self.pending_begin.take().unwrap_or(lsn);
                self.last_checkpoint = Some((begin, lsn));
            }
            _ => {}
        }
        let mut head = Head { bytes: [0; HEAD_MAX], len: 0 };
        let kind = kind_of(payload);
        head.put([if clr.is_some() { kind::CLR } else { kind }]);
        head.put(prev.0.to_le_bytes());
        if let Some(Compensation { undone, undo_next }) = clr {
            // Its compensation's transaction: 0 for one without, which
            // rollback never logs.
            head.put(payload.tx().map_or(0, |tx| tx.0).to_le_bytes());
            head.put(undone.0.to_le_bytes());
            head.put(undo_next.0.to_le_bytes());
            head.put([kind]);
        }
        let images = head.fields(payload);
        self.index.push(self.bytes.end);
        self.bytes.extend_from_slice(&head.bytes[..head.len]);
        for image in images {
            self.bytes.extend_from_slice(image);
        }
        lsn
    }

    /// Durably flush the log up to `lsn` (the WAL rule: call before writing
    /// a page whose PageLSN is `lsn`). Returns whether the durable horizon
    /// actually advanced — a *real* log force, as opposed to a no-op
    /// because everything up to `lsn` was already stable. Group commit
    /// counts real forces to report WAL-forces-per-transaction.
    pub fn flush_to(&mut self, lsn: Lsn) -> bool {
        if lsn > self.flushed {
            self.flushed = lsn;
            true
        } else {
            false
        }
    }

    /// Highest durably flushed LSN.
    #[cfg(test)]
    pub fn flushed(&self) -> Lsn {
        self.flushed
    }

    /// Highest assigned LSN.
    pub fn head(&self) -> Lsn {
        Lsn(self.next - 1)
    }

    /// First retained LSN.
    pub fn tail(&self) -> Lsn {
        self.tail
    }

    /// Fraction of the capacity budget in use.
    pub fn used_fraction(&self) -> f64 {
        self.used_bytes as f64 / self.capacity_bytes as f64
    }

    /// Bytes currently retained.
    #[cfg(test)]
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Begin/End LSN pair of the most recent completed checkpoint, while
    /// retained. Restart analysis starts at the Begin and log reclamation
    /// must never truncate past it (the two are not adjacent under fuzzy
    /// checkpointing, so `end - 1` is wrong in both roles).
    pub fn last_checkpoint_pair(&self) -> Option<(Lsn, Lsn)> {
        self.last_checkpoint
    }

    /// Where the record at `lsn` starts in the byte sequence (`None` if
    /// truncated or not yet written; the null LSN wraps to an index no
    /// sequence reaches).
    fn start_of(&self, lsn: Lsn) -> Option<u64> {
        self.index.get(lsn.0.wrapping_sub(1)).copied()
    }

    /// The record at `lsn` where the log keeps it (`None` if truncated or
    /// not yet written): kind, transaction, page and checkpoint tables read
    /// in place, images and tables as spans. Allocates nothing.
    pub fn record(&self, lsn: Lsn) -> Option<Record> {
        let (Record { clr, payload }, mut at) = self.decode(lsn)?;
        let payload = payload.map_images(&mut |len: u32| {
            let span = Span { start: at, len };
            at += u64::from(len);
            span
        });
        Some(Record { clr, payload })
    }

    /// The record at `lsn` with each image and table as its length, and
    /// where the first of them begins: right after the fields. The fields
    /// are read where the chunk holds them, or from a copy on the stack
    /// when they straddle two. Inlined, with [`Cursor::fields`], into its
    /// two callers: out of line, moving the decoded record between the
    /// three made the sum of charges that truncation takes over every
    /// record it drops twice as slow.
    #[inline(always)]
    fn decode(&self, lsn: Lsn) -> Option<(Record<u32>, u64)> {
        let start = self.start_of(lsn)?;
        let (mut copy, len) = ([0; HEAD_MAX], HEAD_MAX.min((self.bytes.end - start) as usize));
        let head = match self.bytes.within_a_chunk(start, len) {
            Some(head) => head,
            None => {
                self.bytes.copy_into(start, &mut copy[..len])?;
                &copy[..len]
            }
        };
        let mut fields = Cursor { rest: head };
        let mut kind = fields.u8()?;
        // `prev`, which `prev_of` reads.
        fields.lsn()?;
        let mut clr = None;
        if kind == kind::CLR {
            // The CLR's transaction, which its compensation's fields repeat.
            fields.tx()?;
            clr = Some(Compensation { undone: fields.lsn()?, undo_next: fields.lsn()? });
            kind = fields.u8()?;
        }
        let record = Record { clr, payload: fields.fields(kind)? };
        Some((record, start + (head.len() - fields.rest.len()) as u64))
    }

    /// The retained records with `lsn >= from`, in LSN order, decoded in
    /// place.
    pub fn records_from(&self, from: Lsn) -> impl Iterator<Item = (Lsn, Record)> + '_ {
        (from.max(self.tail).0..self.next)
            .filter_map(|lsn| Some((Lsn(lsn), self.record(Lsn(lsn))?)))
    }

    /// The entries of a checkpoint's active-transaction table, read where
    /// the log keeps them.
    pub fn active_table(&self, table: Span) -> impl Iterator<Item = (TxId, Lsn)> + '_ {
        self.entries::<ACTIVE_ENTRY>(table).map_while(|entry| {
            let mut fields = Cursor { rest: &entry };
            Some((fields.tx()?, fields.lsn()?))
        })
    }

    /// The entries of a checkpoint's dirty-page table, read where the log
    /// keeps them.
    pub fn dirty_table(&self, table: Span) -> impl Iterator<Item = (PageId, Lsn)> + '_ {
        self.entries::<DIRTY_ENTRY>(table).map_while(|entry| {
            let mut fields = Cursor { rest: &entry };
            // Written from a `usize`, so it fits one.
            let region = fields.u64()? as usize;
            Some((PageId::new(region, fields.u64()?), fields.lsn()?))
        })
    }

    /// A checkpoint's End holding its tables — the active transactions
    /// with their last LSN, the dirty pages with their recovery LSN — as
    /// the log stores them, encoded into `tables`, which is cleared first
    /// and grows at most once, to what the tables' size hints allow:
    /// entries at fixed widths, little-endian, a dirty page's region at a
    /// `u64` (the tables are rare, and nothing in them is narrowed).
    pub(crate) fn end_checkpoint(
        active: impl IntoIterator<Item = (TxId, Lsn)>,
        dirty: impl IntoIterator<Item = (PageId, Lsn)>,
        tables: &mut Vec<u8>,
    ) -> LogPayload<&[u8]> {
        let (active, dirty) = (active.into_iter(), dirty.into_iter());
        let most = |hint: (usize, Option<usize>)| hint.1.unwrap_or(hint.0);
        tables.clear();
        tables.reserve(
            ACTIVE_ENTRY * most(active.size_hint()) + DIRTY_ENTRY * most(dirty.size_hint()),
        );
        for (tx, last) in active {
            tables.extend_from_slice(&tx.0.to_le_bytes());
            tables.extend_from_slice(&last.0.to_le_bytes());
        }
        let split = tables.len();
        for (page, rec_lsn) in dirty {
            tables.extend_from_slice(&(page.region as u64).to_le_bytes());
            tables.extend_from_slice(&page.lba.0.to_le_bytes());
            tables.extend_from_slice(&rec_lsn.0.to_le_bytes());
        }
        let (active, dirty) = tables.split_at(split);
        LogPayload::EndCheckpoint { active, dirty }
    }

    /// The `N`-byte entries of a table.
    fn entries<const N: usize>(&self, table: Span) -> impl Iterator<Item = [u8; N]> + '_ {
        let count = u64::from(table.len) / N as u64;
        (0..count).map_while(move |i| self.bytes.read::<N>(table.start + i * N as u64))
    }

    /// `payload` — a record's of this log, or an inverse built from its
    /// spans — with its images or tables copied into `images`, which is
    /// cleared first: each once, back to back, and `images` allocates only
    /// when it grows. The result borrows
    /// `images`, not the log. A span that names bytes the log no longer or
    /// never held is [`EngineError::Internal`], never an image rebuilt from
    /// other bytes.
    pub fn images<'b>(
        &self,
        payload: LogPayload<Span>,
        images: &'b mut Vec<u8>,
    ) -> Result<LogPayload<&'b [u8]>> {
        images.clear();
        let mut held = true;
        let ranges = payload.map_images(&mut |span: Span| {
            let start = images.len();
            held &= self.bytes.copy_to(span.start, u64::from(span.len), images).is_some();
            start..images.len()
        });
        if !held {
            return Err(EngineError::Internal(
                "a log span names image bytes the log does not hold",
            ));
        }
        let images: &'b [u8] = images;
        Ok(ranges.map_images(&mut |range: Range<usize>| &images[range]))
    }

    /// The previous record of the same transaction, for a retained `lsn`:
    /// walks an undo chain reading eight bytes a record.
    pub fn prev_of(&self, lsn: Lsn) -> Option<Lsn> {
        let start = self.start_of(lsn)?;
        Some(Lsn(u64::from_le_bytes(self.bytes.read(start + 1)?)))
    }

    /// Fetch a record by LSN (`None` if truncated or not yet written): the
    /// owned view, its images copied out of the log through
    /// [`Self::images`].
    #[cfg(test)]
    pub fn get(&self, lsn: Lsn) -> Option<LogRecord> {
        let Record { clr, payload } = self.record(lsn)?;
        let mut images = Vec::new();
        let payload = self.images(payload, &mut images).ok()?;
        let payload = payload.map_images(&mut |image: &[u8]| image.to_vec());
        Some(LogRecord { lsn, prev: self.prev_of(lsn)?, record: Record { clr, payload } })
    }

    /// Whether both records of a checkpoint are retained — any record at
    /// `begin`, an `EndCheckpoint` at `end`. Reads one kind byte.
    pub fn retains_checkpoint(&self, begin: Lsn, end: Lsn) -> bool {
        self.start_of(begin).is_some()
            && self.start_of(end).and_then(|start| self.bytes.read::<1>(start))
                == Some([kind::END_CHECKPOINT])
    }

    /// Iterate records with `lsn >= from` in LSN order, owned.
    #[cfg(test)]
    pub fn iter_from(&self, from: Lsn) -> impl Iterator<Item = LogRecord> + '_ {
        self.records_from(from).filter_map(|(lsn, _)| self.get(lsn))
    }

    /// What the records from `from` up to `to` are charged, each decoded
    /// where the log keeps it.
    fn charged(&self, from: Lsn, to: Lsn) -> usize {
        let len = |len: &u32| *len as usize;
        (from.0..to.0).filter_map(|lsn| Some(self.decode(Lsn(lsn))?.0.size_with(&len))).sum()
    }

    /// Drop all records below `lsn` (log-space reclamation after the dirty
    /// pages they cover have been flushed). Past one beyond the head there
    /// is nothing to drop: the log truncates to there, and the records
    /// appended next are retained.
    pub fn truncate_to(&mut self, lsn: Lsn) {
        let lsn = lsn.min(Lsn(self.next));
        if lsn <= self.tail {
            return;
        }
        let dropped = self.charged(self.tail, lsn);
        self.bytes.release_before(self.start_of(lsn).unwrap_or(self.bytes.end));
        self.index.release_before(lsn.0 - 1);
        self.used_bytes -= dropped;
        self.tail = lsn;
        // A checkpoint is only usable while its Begin is retained:
        // truncating *to* the Begin keeps it, truncating past it loses the
        // records restart analysis would have to scan.
        if self.last_checkpoint.is_some_and(|(begin, _)| begin < lsn) {
            self.last_checkpoint = None;
        }
        if self.pending_begin.is_some_and(|b| b < lsn) {
            self.pending_begin = None;
        }
    }

    /// Simulate losing the unflushed log suffix in a crash: every record
    /// above [`Wal::flushed`] disappears.
    pub fn lose_unflushed(&mut self) {
        let next = self.flushed.0.max(self.tail.0.saturating_sub(1)) + 1;
        let lost = self.charged(Lsn(next), Lsn(self.next));
        if let Some(first_lost) = self.start_of(Lsn(next)) {
            self.bytes.truncate(first_lost);
        }
        self.index.truncate(next - 1);
        self.used_bytes -= lost;
        self.next = next;
        // A checkpoint whose End never reached stable storage does not
        // exist after the crash; an unflushed pending Begin likewise.
        if self.last_checkpoint.is_some_and(|(_, end)| end > self.flushed) {
            self.last_checkpoint = None;
        }
        if self.pending_begin.is_some_and(|b| b > self.flushed) {
            self.pending_begin = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(tx: u64) -> LogPayload {
        LogPayload::Update {
            tx: TxId(tx),
            page: PageId::new(0, 0),
            slot: SlotId(0),
            at: 0,
            kept: 0,
            before: vec![1, 2],
            after: vec![3, 4],
        }
    }

    /// [`update`] of a tuple that lies at 40 and, if it grows, goes to
    /// 300, owned.
    fn owned_update(ids: (TxId, PageId, SlotId), before: &[u8], after: &[u8]) -> LogPayload {
        let to = if after.len() > before.len() { 300 } else { 40 };
        update(ids, (40, before), (to, after)).map_images(&mut |image: &[u8]| image.to_vec())
    }

    fn end_checkpoint() -> LogPayload {
        LogPayload::EndCheckpoint { active: vec![], dirty: vec![] }
    }

    #[test]
    fn append_assigns_monotone_lsns() {
        let mut wal = Wal::new(1 << 20);
        let a = wal.append(Lsn::NULL, LogPayload::<&[u8]>::Begin { tx: TxId(1) });
        let b = wal.append(a, upd(1));
        assert!(b > a);
        assert_eq!(wal.head(), b);
        assert_eq!(wal.get(b).unwrap().prev, a);
    }

    #[test]
    fn flush_tracks_high_water_mark() {
        let mut wal = Wal::new(1 << 20);
        let a = wal.append(Lsn::NULL, upd(1));
        assert!(wal.flush_to(a), "first force advances the horizon");
        assert!(!wal.flush_to(Lsn(0)), "stale force is a no-op");
        assert!(!wal.flush_to(a), "repeated force is a no-op");
        assert_eq!(wal.flushed(), a);
    }

    #[test]
    fn space_accounting_and_truncation() {
        let mut wal = Wal::new(1000);
        for _ in 0..10 {
            wal.append(Lsn::NULL, upd(1));
        }
        let used = wal.used_bytes();
        assert_eq!(used, 10 * (32 + 4));
        assert!(wal.used_fraction() > 0.3);
        wal.truncate_to(Lsn(6));
        assert_eq!(wal.used_bytes(), 5 * 36);
        assert_eq!(wal.tail(), Lsn(6));
        assert!(wal.get(Lsn(3)).is_none());
        assert!(wal.get(Lsn(6)).is_some());
    }

    #[test]
    fn iter_from_respects_truncation() {
        let mut wal = Wal::new(1 << 20);
        for _ in 0..10 {
            wal.append(Lsn::NULL, upd(1));
        }
        wal.truncate_to(Lsn(4));
        let lsns: Vec<u64> = wal.iter_from(Lsn(1)).map(|r| r.lsn.0).collect();
        assert_eq!(lsns, (4..=10).collect::<Vec<_>>());
        let lsns: Vec<u64> = wal.iter_from(Lsn(8)).map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![8, 9, 10]);
    }

    #[test]
    fn checkpoint_lsn_tracked() {
        let mut wal = Wal::new(1 << 20);
        let begin = wal.append(Lsn::NULL, LogPayload::<&[u8]>::BeginCheckpoint);
        // Fuzzy: regular records land between Begin and End.
        wal.append(Lsn::NULL, upd(1));
        wal.append(Lsn::NULL, upd(2));
        let end = wal.append(Lsn::NULL, end_checkpoint());
        assert_eq!(wal.last_checkpoint_pair(), Some((begin, end)));
        // Truncating *to* the Begin keeps the checkpoint usable...
        wal.truncate_to(begin);
        assert_eq!(wal.last_checkpoint_pair(), Some((begin, end)));
        // ...truncating past it does not.
        wal.truncate_to(Lsn(begin.0 + 1));
        assert_eq!(wal.last_checkpoint_pair(), None);
    }

    #[test]
    fn crash_invalidates_unflushed_checkpoint() {
        let mut wal = Wal::new(1 << 20);
        let begin = wal.append(Lsn::NULL, LogPayload::<&[u8]>::BeginCheckpoint);
        wal.append(Lsn::NULL, upd(1));
        wal.append(Lsn::NULL, end_checkpoint());
        // End never reached stable storage: the pair must not survive.
        wal.flush_to(begin);
        wal.lose_unflushed();
        assert_eq!(wal.last_checkpoint_pair(), None);
        // A lone End after the crash must not pair with the stale
        // pre-crash Begin — it forms a degenerate self-pair instead
        // (scanning from the End itself is exactly right for it).
        let end2 = wal.append(Lsn::NULL, end_checkpoint());
        assert_eq!(end2, Lsn(begin.0 + 1), "appends continue after the surviving prefix");
        assert_eq!(wal.last_checkpoint_pair(), Some((end2, end2)));
    }

    #[test]
    fn crash_loses_unflushed_suffix() {
        let mut wal = Wal::new(1 << 20);
        let a = wal.append(Lsn::NULL, upd(1));
        let _b = wal.append(a, upd(1));
        let _c = wal.append(Lsn::NULL, upd(2));
        wal.flush_to(a);
        wal.lose_unflushed();
        assert_eq!(wal.head(), a);
        assert!(wal.get(Lsn(2)).is_none());
        assert!(wal.get(a).is_some());
        // New appends continue after the surviving prefix.
        let d = wal.append(a, upd(1));
        assert_eq!(d, Lsn(2));
    }

    /// The log as it was before the arena — every record an owned
    /// [`LogRecord`] in a vector — kept as the model.
    struct VecWal {
        records: Vec<LogRecord>,
        tail: Lsn,
        next: u64,
        flushed: Lsn,
        used_bytes: usize,
        last_checkpoint: Option<(Lsn, Lsn)>,
        pending_begin: Option<Lsn>,
    }

    impl VecWal {
        fn new() -> Self {
            VecWal {
                records: Vec::new(),
                tail: Lsn(1),
                next: 1,
                flushed: Lsn::NULL,
                used_bytes: 0,
                last_checkpoint: None,
                pending_begin: None,
            }
        }

        fn append(&mut self, prev: Lsn, record: Record<Vec<u8>>) -> Lsn {
            let lsn = Lsn(self.next);
            self.next += 1;
            self.used_bytes += record.size_bytes();
            match (record.clr, &record.payload) {
                (None, LogPayload::BeginCheckpoint) => self.pending_begin = Some(lsn),
                (None, LogPayload::EndCheckpoint { .. }) => {
                    let begin = self.pending_begin.take().unwrap_or(lsn);
                    self.last_checkpoint = Some((begin, lsn));
                }
                _ => {}
            }
            self.records.push(LogRecord { lsn, prev, record });
            lsn
        }

        fn flush_to(&mut self, lsn: Lsn) -> bool {
            let advanced = lsn > self.flushed;
            self.flushed = self.flushed.max(lsn);
            advanced
        }

        fn get(&self, lsn: Lsn) -> Option<&LogRecord> {
            if lsn.is_null() || lsn < self.tail || lsn.0 >= self.next {
                return None;
            }
            self.records.get((lsn.0 - self.tail.0) as usize)
        }

        fn iter_from(&self, from: Lsn) -> impl Iterator<Item = &LogRecord> {
            let start = from.max(self.tail);
            let idx = (start.0.saturating_sub(self.tail.0)) as usize;
            self.records[idx.min(self.records.len())..].iter()
        }

        fn truncate_to(&mut self, lsn: Lsn) {
            let lsn = lsn.min(Lsn(self.next));
            if lsn <= self.tail {
                return;
            }
            let keep_from = (lsn.0 - self.tail.0).min(self.records.len() as u64) as usize;
            let dropped: usize =
                self.records[..keep_from].iter().map(|r| r.record.size_bytes()).sum();
            self.records.drain(..keep_from);
            self.used_bytes -= dropped;
            self.tail = lsn;
            if self.last_checkpoint.is_some_and(|(begin, _)| begin < lsn) {
                self.last_checkpoint = None;
            }
            if self.pending_begin.is_some_and(|b| b < lsn) {
                self.pending_begin = None;
            }
        }

        fn lose_unflushed(&mut self) {
            let keep = self
                .records
                .iter()
                .position(|r| r.lsn > self.flushed)
                .unwrap_or(self.records.len());
            let lost: usize = self.records[keep..].iter().map(|r| r.record.size_bytes()).sum();
            self.records.truncate(keep);
            self.used_bytes -= lost;
            self.next = self.flushed.0.max(self.tail.0.saturating_sub(1)) + 1;
            if self.last_checkpoint.is_some_and(|(_, end)| end > self.flushed) {
                self.last_checkpoint = None;
            }
            if self.pending_begin.is_some_and(|b| b > self.flushed) {
                self.pending_begin = None;
            }
        }
    }

    /// Random bytes, fewer than `max` of them (none too).
    fn random_image(rng: &mut rand::rngs::StdRng, max: usize) -> Vec<u8> {
        use rand::Rng;
        (0..rng.gen_range(0..max)).map(|_| rng.gen()).collect()
    }

    /// An update's before and after images. Mostly of one length, the
    /// after image differing from the before image nowhere, in one byte, in
    /// a run at the front, at the back, across a word boundary or anywhere,
    /// or everywhere; now and then two unrelated images, mostly of two
    /// lengths. A changed byte is inverted, so it always differs.
    fn random_update_images(rng: &mut rand::rngs::StdRng) -> (Vec<u8>, Vec<u8>) {
        use rand::Rng;
        let before = random_image(rng, 70);
        let len = before.len();
        let changed = match rng.gen_range(0..8) {
            _ if len == 0 => 0..0,
            0 => 0..0,
            1 => {
                let at = rng.gen_range(0..len);
                at..at + 1
            }
            2 => 0..rng.gen_range(1..=len),
            3 => rng.gen_range(0..len)..len,
            4 if len > 8 => {
                let boundary = 8 * rng.gen_range(1..=(len - 1) / 8);
                boundary - rng.gen_range(1..=8usize)
                    ..boundary + rng.gen_range(1..=(len - boundary).min(8))
            }
            5 => 0..len,
            6 => {
                let from = rng.gen_range(0..len);
                from..rng.gen_range(from..len) + 1
            }
            _ => return (before, random_image(rng, 70)),
        };
        let mut after = before.clone();
        for byte in &mut after[changed] {
            *byte = !*byte;
        }
        (before, after)
    }

    /// A checkpoint's tables, typed: what [`Wal::end_checkpoint`] encodes.
    type Tables = (Vec<(TxId, Lsn)>, Vec<(PageId, Lsn)>);

    /// A drawn record, and for a checkpoint's End the tables it encodes.
    type Drawn = (Record<Vec<u8>>, Option<Tables>);

    /// A checkpoint's End holding `tables`, and the tables.
    fn end_holding(tables: Tables) -> Drawn {
        let mut bytes = Vec::new();
        let end =
            Wal::end_checkpoint(tables.0.iter().copied(), tables.1.iter().copied(), &mut bytes);
        (end.map_images(&mut |table: &[u8]| table.to_vec()).into(), Some(tables))
    }

    /// A random record of any kind, with images of random lengths (empty
    /// ones too). At `depth` 1, what rollback logs a CLR around: no CLR and
    /// no checkpoint's End.
    fn random_record(rng: &mut rand::rngs::StdRng, depth: u32) -> Drawn {
        use rand::Rng;
        let tx = TxId(rng.gen_range(1..6));
        let page = PageId::new(rng.gen_range(0..2), rng.gen_range(0..50));
        let slot = SlotId(rng.gen_range(0..30));
        let image = |rng: &mut rand::rngs::StdRng| random_image(rng, 40);
        let payload = match rng.gen_range(0..14) {
            0 => LogPayload::Begin { tx },
            1 | 2 => {
                let (before, after) = random_update_images(rng);
                owned_update((tx, page, slot), &before, &after)
            }
            3 => LogPayload::Insert { tx, page, slot, tuple: image(rng) },
            4 => LogPayload::Delete { tx, page, slot, before: image(rng) },
            5 => LogPayload::Undelete { tx, page, slot, tuple: image(rng) },
            6 => {
                let (old, mut new) = random_update_images(rng);
                new.truncate(old.len());
                let mut runs = Vec::new();
                let extent = encode_runs(&old, &new, &mut runs).map_or(0, |span| span.len());
                let (offset, extent) = (rng.gen_range(0..4096), extent as u32);
                LogPayload::PageWrite { tx, page, offset, extent, runs }
            }
            7 => LogPayload::IndexInsert { tx, index: 1, key: rng.gen(), value: rng.gen() },
            8 => LogPayload::IndexDelete { tx, index: 1, key: rng.gen(), value: rng.gen() },
            9 => LogPayload::RootChange { tx, index: 1, new_root: page },
            10 if depth == 0 => {
                let (undone, undo_next) = (Lsn(rng.gen_range(1..40)), Lsn(rng.gen_range(0..40)));
                // Half of them compensate an update, as an update.
                let payload = if rng.gen() {
                    let (before, after) = random_update_images(rng);
                    owned_update((tx, page, slot), &before, &after)
                } else {
                    random_record(rng, 1).0.payload
                };
                return (Record { clr: Some(Compensation { undone, undo_next }), payload }, None);
            }
            10 | 11 => LogPayload::Commit { tx },
            12 => LogPayload::BeginCheckpoint,
            _ if depth > 0 => LogPayload::Abort { tx },
            _ => {
                let active = vec![(tx, Lsn(rng.gen_range(0..40)))];
                return end_holding((
                    active,
                    (0..rng.gen_range(0..3)).map(|i| (PageId::new(0, i), Lsn(i + 1))).collect(),
                ));
            }
        };
        (payload.into(), None)
    }

    /// What a run of [`log_matches_the_model`] did.
    #[derive(Default)]
    struct ModelRun {
        appended: u64,
        truncated: u64,
        lost: u64,
        /// Appended updates that hold a window short of their tuple, which
        /// the log charges whole, at top level and as a CLR's compensation.
        windows: u64,
        clr_windows: u64,
        /// Appended checkpoint Ends whose tables read back as encoded.
        tables: u64,
    }

    /// `cases` random histories of appends (`prev` and record drawn by
    /// `draw`), flushes, truncations and crashes, on the log with chunks
    /// short enough that records, images and tables straddle them and every
    /// operation meets a chunk boundary now and then, and on the record
    /// vector model. After every step the two must agree on every record,
    /// every chain link and all accounting, and the log must hold memory
    /// for the records it retains alone: their encoded bytes and an index
    /// entry each, in less than a chunk spare at each end. A checkpoint's
    /// End, read back through [`Wal::active_table`] and [`Wal::dirty_table`],
    /// must give the entries its tables were encoded from.
    fn log_matches_the_model(
        cases: u64,
        draw: impl Fn(&mut rand::rngs::StdRng, &VecWal) -> (Lsn, Drawn),
    ) -> ModelRun {
        use rand::Rng;
        let mut run = ModelRun::default();
        ipa_flash::for_each_case(cases, |rng| {
            let (chunk_bytes, records) = (rng.gen_range(1..100), rng.gen_range(1..12));
            let mut wal = Wal::with_chunk_lens(1 << 20, chunk_bytes, records);
            let mut model = VecWal::new();
            for _ in 0..rng.gen_range(1..120) {
                match rng.gen_range(0..12) {
                    0..=6 => {
                        let (prev, (record, tables)) = draw(rng, &model);
                        if let LogPayload::Update { kept: 1.., .. } = record.payload {
                            let clr = record.clr.is_some();
                            *if clr { &mut run.clr_windows } else { &mut run.windows } += 1;
                        }
                        let lsn = wal.append(prev, record.clone());
                        assert_eq!(lsn, model.append(prev, record));
                        if let Some((active, dirty)) = tables {
                            let Some(Record {
                                payload: LogPayload::EndCheckpoint { active: a, dirty: d },
                                ..
                            }) = wal.record(lsn)
                            else {
                                panic!("a checkpoint's End")
                            };
                            assert!(wal.active_table(a).eq(active) && wal.dirty_table(d).eq(dirty));
                            run.tables += 1;
                        }
                        run.appended += 1;
                    }
                    7 | 8 => {
                        let lsn = near(rng, &model).min(Lsn(model.next - 1));
                        assert_eq!(wal.flush_to(lsn), model.flush_to(lsn));
                    }
                    9 | 10 => {
                        // Past the head too, which drops what is retained.
                        let lsn = near(rng, &model);
                        run.truncated += (lsn > model.tail && !model.records.is_empty()) as u64;
                        wal.truncate_to(lsn);
                        model.truncate_to(lsn);
                    }
                    _ => {
                        run.lost += (model.flushed.0 + 1 < model.next) as u64;
                        wal.lose_unflushed();
                        model.lose_unflushed();
                    }
                }
                assert_eq!(
                    (wal.head(), wal.tail(), wal.flushed(), wal.used_bytes()),
                    (Lsn(model.next - 1), model.tail, model.flushed, model.used_bytes)
                );
                assert_eq!(wal.last_checkpoint_pair(), model.last_checkpoint);
                let probe = near(rng, &model);
                assert_eq!(wal.get(probe).as_ref(), model.get(probe));
                assert_eq!(wal.prev_of(probe), model.get(probe).map(|r| r.prev));
                let from = near(rng, &model);
                assert!(wal.iter_from(from).eq(model.iter_from(from).cloned()), "from {from:?}");
                let retained = model.records.len();
                assert_eq!((wal.index.end - wal.index.start) as usize, retained);
                assert!(wal.index.chunks.len() <= retained / records + 2, "{retained}");
                let held: usize = model.records.iter().map(|r| encoded_len(&r.record)).sum();
                assert_eq!((wal.bytes.end - wal.bytes.start) as usize, held);
                assert!(wal.bytes.chunks.len() <= held / chunk_bytes + 2, "{held}");
                for chunk in wal.bytes.chunks.iter() {
                    assert_eq!(chunk.capacity(), chunk_bytes);
                }
            }
        });
        run
    }

    /// An LSN around the model's retained window, either side of it.
    fn near(rng: &mut rand::rngs::StdRng, model: &VecWal) -> Lsn {
        use rand::Rng;
        Lsn(rng.gen_range(model.tail.0.saturating_sub(2)..model.next + 3))
    }

    #[test]
    fn arena_log_matches_the_record_vector_model() {
        let run =
            log_matches_the_model(1_500, |rng, model| (near(rng, model), random_record(rng, 0)));
        let ModelRun { appended, truncated, lost, windows, clr_windows, tables } = run;
        assert!(appended > 30_000 && truncated > 3_000 && lost > 3_000 && tables > 1_000);
        assert!(windows > 4_000 && clr_windows > 1_000, "{windows} {clr_windows}");
    }

    /// 0, 1 or the largest value the field's type holds — for a region, the
    /// largest the log names.
    fn extreme(rng: &mut rand::rngs::StdRng, max: u64) -> u64 {
        use rand::Rng;
        [0, 1, max][rng.gen_range(0..3usize)]
    }

    /// A record of any kind whose every field is at an extreme, with images
    /// of no bytes, a few, or more than a chunk of the model run holds, and
    /// checkpoint tables longer than a chunk; a CLR is around a record of
    /// every undoable kind, or of the kinds their undo logs (`depth` 1).
    fn extreme_record(rng: &mut rand::rngs::StdRng, depth: u32) -> Drawn {
        use rand::Rng;
        let tx = TxId(extreme(rng, u64::MAX));
        let any_page = |rng: &mut rand::rngs::StdRng| {
            PageId::new(extreme(rng, u16::MAX.into()) as usize, extreme(rng, u64::MAX))
        };
        let (page, slot) = (any_page(rng), SlotId(extreme(rng, u16::MAX.into()) as u16));
        let u16 = |rng: &mut rand::rngs::StdRng| extreme(rng, u16::MAX.into()) as u16;
        let u32 = |rng: &mut rand::rngs::StdRng| extreme(rng, u32::MAX.into()) as u32;
        let lsn = |rng: &mut rand::rngs::StdRng| Lsn(extreme(rng, u64::MAX));
        let image = |rng: &mut rand::rngs::StdRng| {
            let len = [0, 3, 250][rng.gen_range(0..3usize)];
            (0..len).map(|_| rng.gen()).collect::<Vec<u8>>()
        };
        let (index, key, value) = (u32(rng), extreme(rng, u64::MAX), extreme(rng, u64::MAX));
        let payload = match rng.gen_range(0..if depth == 0 { 15 } else { 7 }) {
            0 => {
                let (before, at, kept) = (image(rng), u16(rng), u16(rng));
                let after = before.iter().map(|b| !b).collect();
                LogPayload::Update { tx, page, slot, at, kept, before, after }
            }
            1 => {
                let (from, to) = (u16(rng), u16(rng));
                LogPayload::Resize {
                    tx,
                    page,
                    slot,
                    from,
                    to,
                    before: image(rng),
                    after: image(rng),
                }
            }
            2 => LogPayload::Insert { tx, page, slot, tuple: image(rng) },
            3 => LogPayload::Delete { tx, page, slot, before: image(rng) },
            4 => LogPayload::Undelete { tx, page, slot, tuple: image(rng) },
            5 => LogPayload::IndexInsert { tx, index, key, value },
            6 => LogPayload::IndexDelete { tx, index, key, value },
            7 => {
                let (offset, extent) = (u32(rng), u32(rng));
                LogPayload::PageWrite { tx, page, offset, extent, runs: image(rng) }
            }
            8 => LogPayload::RootChange { tx, index, new_root: page },
            9 | 10 => {
                let clr = Some(Compensation { undone: lsn(rng), undo_next: lsn(rng) });
                return (Record { clr, payload: extreme_record(rng, 1).0.payload }, None);
            }
            11 => LogPayload::Begin { tx },
            12 if rng.gen() => LogPayload::Commit { tx },
            12 => LogPayload::Abort { tx },
            13 => LogPayload::BeginCheckpoint,
            _ => {
                let active =
                    (0..rng.gen_range(0..12)).map(|_| (TxId(extreme(rng, u64::MAX)), lsn(rng)));
                let active = active.collect();
                let dirty = (0..rng.gen_range(0..12)).map(|_| (any_page(rng), lsn(rng))).collect();
                return end_holding((active, dirty));
            }
        };
        (payload.into(), None)
    }

    #[test]
    fn every_field_at_its_extremes_reads_back_as_appended() {
        let run = log_matches_the_model(600, |rng, _| {
            (Lsn(extreme(rng, u64::MAX)), extreme_record(rng, 0))
        });
        assert!(run.appended > 10_000 && run.truncated > 1_000 && run.lost > 1_000);
        assert!(run.tables > 500, "{} checkpoint Ends read back", run.tables);
    }

    #[test]
    fn the_log_holds_memory_for_what_it_retains_whatever_its_budget() {
        // Any budget constructs, and an empty log holds nothing.
        let mut wal = Wal::new(usize::MAX);
        assert!(wal.bytes.chunks.is_empty() && wal.index.chunks.is_empty());
        // A node write that changes every other word of a 3992-byte span:
        // it holds 250 runs of eight bytes with their headers, and is
        // charged the span.
        const WORD: usize = 8;
        let node: Vec<u8> =
            (0..4000).map(|i: usize| u8::from((i / WORD).is_multiple_of(2))).collect();
        let mut runs = Vec::new();
        assert_eq!(encode_runs(&[0; 4000], &node, &mut runs), Some(0..3992));
        assert_eq!(runs.len(), 250 * (RUN_HEADER + WORD));
        let page = LogPayload::PageWrite {
            tx: TxId(1),
            page: PageId::new(0, 0),
            offset: 0,
            extent: 3992,
            runs,
        };
        for _ in 0..4096 {
            wal.append(Lsn::NULL, page.clone());
        }
        assert_eq!(wal.used_bytes(), 4096 * (32 + 3992));
        // 12 MB of records in 64 KiB chunks, each allocated at that size.
        assert_eq!(encoded_len(&page.clone().into()), 3039);
        assert_eq!(wal.bytes.chunks.len(), (4096 * 3039usize).div_ceil(LOG_CHUNK_BYTES));
        assert!(wal.bytes.chunks.iter().all(|c| c.capacity() == LOG_CHUNK_BYTES));
        assert_eq!(wal.index.chunks.len(), 1);
        let kept = wal.append(Lsn::NULL, upd(1));
        wal.truncate_to(kept);
        // What is left is the chunk the kept record lies in.
        assert_eq!((wal.bytes.chunks.len(), wal.index.chunks.len()), (1, 1));
        assert_eq!(wal.get(kept).unwrap().record, upd(1).into());
        let next = wal.append(kept, page.clone());
        assert_eq!(wal.get(next).unwrap().record, page.clone().into());
        // The lost tail is handed back the same way.
        for _ in 0..100 {
            wal.append(Lsn::NULL, page.clone());
        }
        wal.flush_to(next);
        wal.lose_unflushed();
        assert_eq!((wal.bytes.chunks.len(), wal.index.chunks.len()), (1, 1));
        assert_eq!(wal.get(next).unwrap().record, page.into());
        assert!(wal.used_fraction() < 1e-12, "the budget is only ever a divisor");
    }

    /// Bytes the log holds for what it retains: the records' encodings and
    /// an index entry each.
    fn held(wal: &Wal) -> u64 {
        (wal.bytes.end - wal.bytes.start) + 8 * (wal.index.end - wal.index.start)
    }

    /// Bytes the log encodes a record in, its index entry left out: a kind
    /// byte, `prev`, the fields at their widths — a page is a 16-bit region
    /// and a 64-bit LBA, an image's length 32 bits, one for both windows of
    /// an update — and the images; a CLR's transaction, `undone`,
    /// `undo_next` and its compensation's kind byte before those; a
    /// checkpoint's End, the byte lengths of its tables and the tables.
    fn encoded_len(record: &Record<Vec<u8>>) -> usize {
        const PAGE: usize = 2 + 8;
        let fields = match &record.payload {
            LogPayload::Begin { .. } | LogPayload::Commit { .. } | LogPayload::Abort { .. } => 8,
            LogPayload::Update { before, after, .. } => {
                8 + PAGE + 2 + 2 + 2 + 4 + before.len() + after.len()
            }
            LogPayload::Resize { before, after, .. } => {
                8 + PAGE + 2 + 2 + 2 + 4 + 4 + before.len() + after.len()
            }
            LogPayload::Insert { tuple: image, .. }
            | LogPayload::Delete { before: image, .. }
            | LogPayload::Undelete { tuple: image, .. } => 8 + PAGE + 2 + 4 + image.len(),
            LogPayload::IndexInsert { .. } | LogPayload::IndexDelete { .. } => 8 + 4 + 8 + 8,
            LogPayload::PageWrite { runs, .. } => 8 + PAGE + 4 + 4 + 4 + runs.len(),
            LogPayload::RootChange { .. } => 8 + 4 + PAGE,
            LogPayload::BeginCheckpoint => 0,
            LogPayload::EndCheckpoint { active, dirty } => 4 + 4 + active.len() + dirty.len(),
        };
        let clr = if record.clr.is_some() { 8 + 8 + 8 + 1 } else { 0 };
        1 + 8 + clr + fields
    }

    #[test]
    fn a_record_costs_what_it_encodes() {
        // A transaction of three updates of 100-byte tuples, each changing
        // three bytes, and a 50-byte insert: Begin and Commit 25 bytes
        // each, an update 51, the insert 91, an index entry included. Held
        // as a record of 80 bytes each beside its images, it took 548.
        let (tx, page, slot) = (TxId(1), PageId::new(0, 7), SlotId(3));
        let tuple: Vec<u8> = (0..100).collect();
        let mut changed = tuple.clone();
        changed[40..43].fill(0xEE);
        let mut wal = Wal::new(1 << 20);
        let mut last = wal.append(Lsn::NULL, LogPayload::<&[u8]>::Begin { tx });
        for _ in 0..3 {
            last = wal.append(last, update((tx, page, slot), (40, &tuple), (40, &changed)));
        }
        last = wal.append(last, LogPayload::Insert { tx, page, slot, tuple: &[5u8; 50][..] });
        wal.append(last, LogPayload::<&[u8]>::Commit { tx });
        assert_eq!(held(&wal), 25 + 3 * 51 + 91 + 25);
        assert_eq!(held(&wal), 294);
        // A CLR undoing such an update holds 76 bytes: its own fields, then
        // its compensation's and the two windows. A checkpoint's End holds
        // its tables. Nothing either holds lies outside the chunks.
        let update = wal.record(Lsn(2)).unwrap().payload;
        let mut images = Vec::new();
        let payload = wal.images(invert_update(update), &mut images).unwrap();
        let compensation = Compensation { undone: Lsn(2), undo_next: Lsn(1) };
        let before = held(&wal);
        let clr = wal.append(Lsn(6), Record { clr: Some(compensation), payload });
        assert_eq!(held(&wal) - before, 76);
        let (active, dirty) = ([(tx, clr)], [(page, Lsn(2)), (PageId::new(1, 9), clr)]);
        let mut tables = Vec::new();
        let checkpoint = Wal::end_checkpoint(active, dirty, &mut tables);
        let before = held(&wal);
        let end = wal.append(Lsn::NULL, checkpoint);
        assert_eq!(held(&wal) - before, 8 + 1 + 8 + 4 + 4 + 16 + 2 * 24);
        let Some(Record { clr: None, payload: LogPayload::EndCheckpoint { active: a, dirty: d } }) =
            wal.record(end)
        else {
            panic!("a checkpoint's End")
        };
        assert!(wal.active_table(a).eq(active) && wal.dirty_table(d).eq(dirty));
        let Some(Record { clr: Some(read), payload }) = wal.record(clr) else { panic!("a CLR") };
        assert_eq!((read, payload.redo_page()), (compensation, Some(page)));
    }

    /// The inverse of a same-length update: its two windows swapped.
    fn invert_update(update: LogPayload<Span>) -> LogPayload<Span> {
        let LogPayload::Update { tx, page, slot, at, kept, before, after } = update else {
            panic!("an update")
        };
        LogPayload::Update { tx, page, slot, at, kept, before: after, after: before }
    }

    #[test]
    fn truncating_past_the_head_keeps_the_records_appended_next() {
        let mut wal = Wal::new(1 << 20);
        for _ in 0..3 {
            wal.append(Lsn::NULL, upd(1));
        }
        wal.truncate_to(Lsn(10));
        assert_eq!((wal.tail(), wal.used_bytes(), held(&wal)), (Lsn(4), 0, 0));
        let (d, e) = (wal.append(Lsn::NULL, upd(2)), wal.append(Lsn::NULL, upd(3)));
        assert_eq!((d, e), (Lsn(4), Lsn(5)));
        let retained: Vec<Lsn> = wal.records_from(Lsn::NULL).map(|(lsn, _)| lsn).collect();
        assert_eq!(retained, [d, e]);
        // A later truncation drops them, and their charge.
        wal.truncate_to(Lsn(6));
        assert_eq!((wal.tail(), wal.used_bytes(), held(&wal)), (Lsn(6), 0, 0));
    }

    #[test]
    #[should_panic(expected = "region 65536")]
    fn a_region_past_sixteen_bits_is_refused_not_narrowed() {
        let (tx, new_root) = (TxId(1), PageId::new(1 << 16, 1));
        Wal::new(1 << 20)
            .append(Lsn::NULL, LogPayload::<&[u8]>::RootChange { tx, index: 0, new_root });
    }

    #[test]
    fn record_sizes_are_a_header_plus_the_images() {
        let size = |payload: LogPayload| Record::from(payload).size_bytes();
        assert_eq!(size(LogPayload::Commit { tx: TxId(1) }), 32);
        assert_eq!(size(upd(1)), 32 + 4);
        // A CLR is charged a header of its own and its compensation whole.
        let compensation = Compensation { undone: Lsn(3), undo_next: Lsn(2) };
        let clr = Record { clr: Some(compensation), payload: upd(1) };
        assert_eq!(clr.size_bytes(), 32 + 32 + 4);
        let mut tables = Vec::new();
        let active = [(TxId(1), Lsn(1))];
        let checkpoint: Record<&[u8]> =
            Wal::end_checkpoint(active, [(PageId::new(0, 1), Lsn(1)); 2], &mut tables).into();
        assert_eq!(checkpoint.size_bytes(), 32 + 16 + 2 * 24);
        // An update is charged both images whole, however small the window
        // it holds.
        let mut tuple = vec![7u8; 100];
        let before = tuple.clone();
        tuple[40] = 8;
        let window = owned_update((TxId(1), PageId::new(0, 1), SlotId(2)), &before, &tuple);
        assert_eq!(size(window), 32 + 2 * 100);
        // A node write is charged the span it covers, not the runs it holds.
        let node = LogPayload::PageWrite {
            tx: TxId(1),
            page: PageId::new(0, 1),
            offset: 100,
            extent: 40,
            runs: vec![0, 0, 2, 0, 1, 2, 34, 0, 2, 0, 3, 4],
        };
        assert_eq!(size(node), 32 + 40);
        // The log accounts what it retains the same way.
        let mut wal = Wal::new(1 << 20);
        wal.append(Lsn::NULL, clr);
        wal.append(Lsn::NULL, checkpoint);
        assert_eq!(wal.used_bytes(), 68 + 96);
        wal.truncate_to(Lsn(2));
        assert_eq!(wal.used_bytes(), 96);
    }

    #[test]
    fn an_update_is_logged_as_the_window_it_changes() {
        let (tx, page, slot) = (TxId(1), PageId::new(0, 0), SlotId(0));
        let before: Vec<u8> = (0..200u8).collect();
        let mut after = before.clone();
        after[97..100].copy_from_slice(&[0xAA; 3]);
        let update = owned_update((tx, page, slot), &before, &after);
        let window = LogPayload::Update {
            tx,
            page,
            slot,
            at: 97,
            kept: 197,
            before: before[97..100].to_vec(),
            after: vec![0xAA; 3],
        };
        assert_eq!(update, window);
        // Unchanged: an empty window; a new length: both images whole, and
        // where the tuple lay and lies.
        let same = owned_update((tx, page, slot), &before, &before);
        let (at, kept) = (0, 200);
        assert_eq!(
            same,
            LogPayload::Update { tx, page, slot, at, kept, before: vec![], after: vec![] }
        );
        let resized = owned_update((tx, page, slot), &before, &after[..199]);
        let (from, to, after) = (40, 40, after[..199].to_vec());
        let whole = LogPayload::Resize { tx, page, slot, from, to, before: before.clone(), after };
        assert_eq!(resized, whole);
        // A window at each end, and over the whole tuple.
        for (changed, at, len) in [(0..1, 0, 1), (150..200, 150, 50), (0..200, 0, 200)] {
            let mut after = before.clone();
            after[changed].iter_mut().for_each(|b| *b = !*b);
            let LogPayload::Update { at: a, kept, before: b, after: w, .. } =
                owned_update((tx, page, slot), &before, &after)
            else {
                panic!("an update")
            };
            assert_eq!((a, kept, b.len(), w.len()), (at, 200 - len as u16, len, len));
            assert_eq!(
                (&b[..], &w[..]),
                (&before[at as usize..][..len], &after[at as usize..][..len])
            );
        }
        let compensation = Compensation { undone: Lsn(1), undo_next: Lsn::NULL };
        let clr = Record { clr: Some(compensation), payload: update.clone() };
        // The log stores what the record holds: six bytes of images, the
        // 399 of the resized update, each after its fields; it charges both
        // images of each whole.
        let mut wal = Wal::new(1 << 20);
        for (record, stored) in [(update.into(), 37 + 6), (clr, 62 + 6), (resized.into(), 41 + 399)]
        {
            let held = wal.bytes.end;
            let lsn = wal.append(Lsn::NULL, record.clone());
            assert_eq!(wal.bytes.end - held, stored);
            assert_eq!(wal.get(lsn).unwrap().record, record);
        }
        assert_eq!(wal.used_bytes(), (32 + 400) + (64 + 400) + (32 + 399));
        // An inverse built from the spans — what rollback logs — swaps the
        // two windows at the same offset.
        let LogPayload::Update { tx, page, slot, at, kept, before: b, after: a } =
            wal.record(Lsn(1)).unwrap().payload
        else {
            panic!("an update")
        };
        let mut images = Vec::new();
        let inverse = LogPayload::Update { tx, page, slot, at, kept, before: a, after: b };
        let LogPayload::Update { at, kept, before: b, after: a, .. } =
            wal.images(inverse, &mut images).unwrap()
        else {
            panic!("an update")
        };
        assert_eq!((at, kept, b, a), (97, 197, &[0xAA; 3][..], &before[97..100]));
    }

    #[test]
    fn a_span_of_bytes_the_log_does_not_hold_is_an_error() {
        let mut bytes = Chunked::new(4);
        bytes.extend_from_slice(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        bytes.release_before(3);
        let mut out = vec![42];
        assert_eq!(bytes.copy_to(3, 7, &mut out), Some(()));
        assert_eq!(out, [42, 3, 4, 5, 6, 7, 8, 9]);
        // Given up, never pushed, or both: nothing is copied.
        for (index, len) in [(2, 2), (0, 1), (9, 2), (10, 1), (2, 9), (u64::MAX, 2)] {
            assert_eq!(bytes.copy_to(index, len, &mut out), None, "{index} {len}");
        }
        assert_eq!(out.len(), 8);
        // A record's spans outlive the bytes they name: once the record is
        // truncated or lost, reading them is refused, not answered with
        // other bytes.
        let mut wal = Wal::with_chunk_lens(1 << 20, 16, 4);
        let first = wal.append(Lsn::NULL, upd(1));
        let spans = wal.record(first).unwrap().payload;
        wal.append(Lsn::NULL, upd(2));
        let mut images = Vec::new();
        let read = wal.images(spans, &mut images).unwrap();
        assert_eq!(read.map_images(&mut |image: &[u8]| image.to_vec()), upd(1));
        wal.truncate_to(Lsn(2));
        let refused = EngineError::Internal("a log span names image bytes the log does not hold");
        assert_eq!(wal.images(spans, &mut images), Err(refused.clone()));
        let spans = wal.record(Lsn(2)).unwrap().payload;
        wal.lose_unflushed();
        assert_eq!(wal.images(spans, &mut images), Err(refused));
    }

    #[test]
    fn page_write_runs_hold_what_differs_and_rebuild_the_image() {
        use rand::Rng;
        let (mut runs_seen, mut joined) = (0, 0);
        ipa_flash::for_each_case(3_000, |rng| {
            // Differing runs of any length planted at any distance from
            // each other, a changed byte inverted so it always differs.
            let len = rng.gen_range(0..300usize);
            let old: Vec<u8> = (0..len + rng.gen_range(0..9usize)).map(|_| rng.gen()).collect();
            let mut new = old[..len].to_vec();
            for _ in 0..rng.gen_range(0..8) {
                if len == 0 {
                    break;
                }
                let start = rng.gen_range(0..len);
                for byte in &mut new[start..(start + rng.gen_range(1..12usize)).min(len)] {
                    *byte = !*byte;
                }
            }
            let mut runs = vec![0xAB; rng.gen_range(0..20)];
            let span = encode_runs(&old, &new, &mut runs);
            let differs: Vec<usize> = (0..len).filter(|&i| old[i] != new[i]).collect();
            let Some(span) = span else {
                assert!(differs.is_empty() && runs.is_empty());
                return;
            };
            assert_eq!(span, differs[0]..differs[differs.len() - 1] + 1);
            // Applied over the page, the runs rebuild the image; every
            // byte they write differs or lies in a gap too short for a
            // header, and every run after the first skips a longer gap.
            let mut page = old.clone();
            let mut written = Vec::new();
            for_each_run(&runs, span.len(), |at, bytes| {
                let at = span.start + at;
                page[at..at + bytes.len()].copy_from_slice(bytes);
                written.push(at..at + bytes.len());
            })
            .unwrap();
            assert_eq!(page[..len], new[..]);
            assert_eq!(written.first().map(|r| r.start), Some(span.start));
            assert_eq!(written.last().map(|r| r.end), Some(span.end));
            for pair in written.windows(2) {
                assert!(pair[1].start - pair[0].end >= RUN_HEADER, "{written:?}");
            }
            let held: usize = written.iter().map(Range::len).sum();
            assert_eq!(runs.len(), held + RUN_HEADER * written.len());
            // Inside a run, each stretch of equal bytes is a joined gap.
            for run in &written {
                let mut gap = 0;
                for i in run.clone() {
                    gap = if old[i] == new[i] { gap + 1 } else { 0 };
                    assert!(gap < RUN_HEADER, "{written:?}");
                    joined += usize::from(gap == 1);
                }
            }
            let unchanged = written.iter().flat_map(Range::clone).filter(|&i| old[i] == new[i]);
            assert_eq!(held, differs.len() + unchanged.count());
            runs_seen += written.len();
        });
        assert!(runs_seen > 5_000 && joined > 1_000, "{runs_seen} runs, {joined} joined");
    }

    #[test]
    fn page_write_runs_outside_their_span_are_refused() {
        let outside = EngineError::Internal("a page write's run lies outside its span");
        let cut = EngineError::Internal("a page write's runs end in part of a run header");
        let mut written = Vec::new();
        let mut write = |at: usize, bytes: &[u8]| written.push((at, bytes.to_vec()));
        assert_eq!(for_each_run(&[0, 0, 1, 0, 7, 2, 0, 1, 0, 8], 4, &mut write), Ok(()));
        // Past the span's end, bytes short of the run, part of a header.
        assert_eq!(for_each_run(&[0, 0, 2, 0, 7, 7], 1, &mut write), Err(outside.clone()));
        assert_eq!(for_each_run(&[0, 0, 2, 0, 7], 8, &mut write), Err(outside));
        assert_eq!(for_each_run(&[0, 0, 1, 0, 7, 1, 0], 8, &mut write), Err(cut));
        assert_eq!(written, [(0, vec![7]), (3, vec![8]), (0, vec![7])]);
    }

    #[test]
    fn payload_tx_extraction() {
        assert_eq!(upd(7).tx(), Some(TxId(7)));
        assert_eq!(LogPayload::<Vec<u8>>::BeginCheckpoint.tx(), None);
    }
}
