//! Per-transaction critical-path analysis.
//!
//! For every closed `txn` root span the report decomposes the span's
//! wall time into flash I/O attributed to the transaction's subtree
//! (queue wait + chip-busy inheritance + service, from the command
//! lifecycles) and the remainder (simulated CPU / think time between
//! I/Os). Synchronous host I/O blocks the simulated host clock, so the
//! attributed flash time is the part of the transaction's latency the
//! device is responsible for.

use std::collections::{BTreeMap, HashMap, HashSet};

use serde_json::{json, Value};

use crate::Table;

use super::Segment;

/// The critical-path decomposition of one root span.
#[derive(Debug, Clone)]
pub struct TxnPath {
    /// Root span id.
    pub span: u64,
    /// Root span category (`txn`, `recovery`, or a standalone `flush`).
    pub cat: String,
    /// Open time.
    pub open_ns: u64,
    /// Wall time between open and close.
    pub e2e_ns: u64,
    /// Commands attributed to the span subtree.
    pub cmds: u64,
    /// Total host-queue admission wait.
    pub queue_wait_ns: u64,
    /// Total chip-busy inheritance.
    pub busy_ns: u64,
    /// Total op service time.
    pub service_ns: u64,
    /// Subtree spans (flush / gc episodes under this root).
    pub child_spans: u64,
}

impl TxnPath {
    /// queue + busy + service — the flash share of the wall time.
    pub fn attributed_ns(&self) -> u64 {
        self.queue_wait_ns + self.busy_ns + self.service_ns
    }
}

/// The full critical-path report over one segment.
#[derive(Debug, Default)]
pub struct CriticalPath {
    /// One entry per closed root span, in open order.
    pub txns: Vec<TxnPath>,
    /// Root spans skipped because they never closed.
    pub unclosed: u64,
}

/// Build the per-root-span critical-path report. Only commands carrying a
/// span attribution participate; the window always covers the whole
/// segment (transactions straddle stats resets).
pub fn critical_path(seg: &Segment) -> CriticalPath {
    // Map every span to its root, once.
    let mut root_of: HashMap<u64, u64> = HashMap::new();
    for s in &seg.spans {
        if let Some(root) = seg.root_of(s.id) {
            root_of.insert(s.id, root.id);
        }
    }
    let roots: HashSet<u64> =
        seg.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.id).collect();

    let mut report = CriticalPath::default();
    let mut by_root: BTreeMap<u64, TxnPath> = BTreeMap::new();
    for s in &seg.spans {
        if !roots.contains(&s.id) {
            if let Some(&root) = root_of.get(&s.id) {
                if let Some(path) = by_root.get_mut(&root) {
                    path.child_spans += 1;
                }
            }
            continue;
        }
        let Some(close) = s.close_ns else {
            report.unclosed += 1;
            continue;
        };
        by_root.insert(
            s.id,
            TxnPath {
                span: s.id,
                cat: s.cat.clone(),
                open_ns: s.open_ns,
                e2e_ns: close.saturating_sub(s.open_ns),
                cmds: 0,
                queue_wait_ns: 0,
                busy_ns: 0,
                service_ns: 0,
                child_spans: 0,
            },
        );
    }
    // Second pass for child spans opened before their root was registered
    // is unnecessary: spans are recorded in open order and a child opens
    // after its root. Commands:
    for cmd in &seg.cmds {
        if !cmd.complete() {
            continue;
        }
        let Some(span) = cmd.span else { continue };
        let Some(&root) = root_of.get(&span) else { continue };
        let Some(path) = by_root.get_mut(&root) else { continue };
        path.cmds += 1;
        path.queue_wait_ns += cmd.queue_wait_ns;
        path.busy_ns += cmd.busy_ns();
        path.service_ns += cmd.service_ns();
    }
    let mut txns: Vec<TxnPath> = by_root.into_values().collect();
    txns.sort_by_key(|t| t.open_ns);
    report.txns = txns;
    report
}

impl CriticalPath {
    /// Aggregate flash-attributed time across all closed roots.
    pub fn attributed_total_ns(&self) -> u64 {
        self.txns.iter().map(TxnPath::attributed_ns).sum()
    }

    /// Aggregate wall time across all closed roots.
    pub fn e2e_total_ns(&self) -> u64 {
        self.txns.iter().map(|t| t.e2e_ns).sum()
    }

    /// Render the per-root table (capped to the `limit` longest roots by
    /// wall time, all when `None`).
    pub fn table(&self, limit: Option<usize>) -> Table {
        let mut t = Table::new(&[
            "span",
            "cat",
            "open_ms",
            "e2e_ms",
            "flash_ms",
            "queue_ms",
            "busy_ms",
            "service_ms",
            "cmds",
            "subspans",
        ]);
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        let mut order: Vec<&TxnPath> = self.txns.iter().collect();
        order.sort_by_key(|p| std::cmp::Reverse(p.e2e_ns));
        for p in order.into_iter().take(limit.unwrap_or(usize::MAX)) {
            t.row(vec![
                format!("span#{}", p.span),
                p.cat.clone(),
                ms(p.open_ns),
                ms(p.e2e_ns),
                ms(p.attributed_ns()),
                ms(p.queue_wait_ns),
                ms(p.busy_ns),
                ms(p.service_ns),
                p.cmds.to_string(),
                p.child_spans.to_string(),
            ]);
        }
        t
    }

    /// JSON payload for the `ExperimentReport`.
    pub fn to_json(&self) -> Value {
        json!({
            "txns": self.txns.iter().map(|p| json!({
                "span": p.span,
                "cat": p.cat.clone(),
                "open_ns": p.open_ns,
                "e2e_ns": p.e2e_ns,
                "attributed_ns": p.attributed_ns(),
                "queue_wait_ns": p.queue_wait_ns,
                "busy_ns": p.busy_ns,
                "service_ns": p.service_ns,
                "cmds": p.cmds,
                "child_spans": p.child_spans,
            })).collect::<Vec<_>>(),
            "unclosed": self.unclosed,
            "attributed_total_ns": self.attributed_total_ns(),
            "e2e_total_ns": self.e2e_total_ns(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_lines;
    use super::*;

    #[test]
    fn txn_subtree_accumulates_gc_and_flush_io() {
        let trace = parse_lines(vec![
            r#"{"seq":0,"t_ns":0,"kind":"span_open","span":1,"cat":"txn"}"#.to_string(),
            r#"{"seq":1,"t_ns":10,"kind":"span_open","span":2,"parent":1,"cat":"flush"}"#.to_string(),
            r#"{"seq":2,"t_ns":10,"kind":"cmd_submit","cmd":1,"class":"program","origin":"host","chip":0,"queue_wait_ns":5,"span":2}"#.to_string(),
            r#"{"seq":3,"t_ns":40,"kind":"cmd_complete","cmd":1,"submitted_ns":10,"start_ns":20,"done_ns":40}"#.to_string(),
            r#"{"seq":4,"t_ns":41,"kind":"span_close","span":2}"#.to_string(),
            r#"{"seq":5,"t_ns":100,"kind":"span_close","span":1}"#.to_string(),
            // A root that never closes.
            r#"{"seq":6,"t_ns":101,"kind":"span_open","span":3,"cat":"txn"}"#.to_string(),
        ]);
        let cp = critical_path(&trace.segments[0]);
        assert_eq!(cp.unclosed, 1);
        assert_eq!(cp.txns.len(), 1);
        let t = &cp.txns[0];
        assert_eq!(t.e2e_ns, 100);
        assert_eq!(t.queue_wait_ns, 5);
        assert_eq!(t.busy_ns, 10);
        assert_eq!(t.service_ns, 20);
        assert_eq!(t.attributed_ns(), 35);
        assert_eq!(t.child_spans, 1);
        assert!(t.attributed_ns() <= t.e2e_ns);
        assert_eq!(cp.table(None).rows().len(), 1);
    }
}
