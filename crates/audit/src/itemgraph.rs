//! Item graph: the workspace's crates → files → items, indexed for the
//! semantic lints.
//!
//! Built once per audit from [`crate::parse::parse_file`] output; the
//! call graph ([`crate::callgraph`]) and the semantic lints (L008–L011)
//! query it instead of re-walking token streams. All indices use
//! `BTreeMap` so every traversal order is deterministic — the audit's own
//! report must be byte-stable across runs (the same property L008
//! enforces on the engine).

use std::collections::BTreeMap;

use crate::parse::{parse_file, FileItems, ParsedFn};
use crate::workspace::Workspace;

/// Stable identifier of a function item: `(file index, fn index)` into
/// the workspace file list / that file's parsed fn list.
pub type FnId = (usize, usize);

/// Per-file parsed items plus the owning file index.
#[derive(Debug)]
pub struct FileNode {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Parsed items of that file.
    pub items: FileItems,
}

/// The workspace item graph.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// One node per workspace file, same order as [`Workspace::files`].
    pub files: Vec<FileNode>,
    /// fn name → every function item with that name.
    pub fns_by_name: BTreeMap<String, Vec<FnId>>,
}

impl ItemGraph {
    /// Parse every workspace file and build the indices.
    pub fn build(ws: &Workspace) -> ItemGraph {
        let mut graph = ItemGraph::default();
        for (fi, file) in ws.files.iter().enumerate() {
            let items = parse_file(file);
            for (ni, f) in items.fns.iter().enumerate() {
                graph.fns_by_name.entry(f.name.clone()).or_default().push((fi, ni));
            }
            graph.files.push(FileNode { file: fi, items });
        }
        graph
    }

    /// The function item for an id.
    pub fn fn_item(&self, id: FnId) -> &ParsedFn {
        &self.files[id.0].items.fns[id.1]
    }

    /// All function items of one file, with ids.
    pub fn fns_of_file(&self, file: usize) -> impl Iterator<Item = (FnId, &ParsedFn)> {
        self.files[file].items.fns.iter().enumerate().map(move |(ni, f)| ((file, ni), f))
    }

    /// Every function item in the workspace, in deterministic
    /// (file, declaration) order.
    pub fn all_fns(&self) -> impl Iterator<Item = (FnId, &ParsedFn)> {
        self.files.iter().flat_map(|node| {
            node.items.fns.iter().enumerate().map(move |(ni, f)| ((node.file, ni), f))
        })
    }

    /// The innermost function item whose body covers token `idx` of file
    /// `file` (bodies nest; the latest-starting match is innermost).
    pub fn enclosing_fn(&self, file: usize, idx: usize) -> Option<FnId> {
        self.files[file]
            .items
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.sig.0 <= idx && idx < f.body.1)
            .max_by_key(|(_, f)| f.sig.0)
            .map(|(ni, _)| (file, ni))
    }

    /// Crates whose items are visible from `file` for name resolution:
    /// the file's own crate plus its `use ipa_*` imports.
    pub fn visible_crates(&self, ws: &Workspace, file: usize) -> Vec<String> {
        let mut crates = vec![ws.files[file].krate.clone()];
        crates.extend(self.files[file].items.imports.iter().cloned());
        crates.sort();
        crates.dedup();
        crates
    }
}
