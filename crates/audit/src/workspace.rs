//! Workspace discovery: find every crate's sources.
//!
//! The auditor scans `crates/*/src/**/*.rs` plus the facade crate's
//! `src/**/*.rs`. Integration tests, benches and examples are *not*
//! scanned — every lint in the catalog exempts test code, so walking those
//! trees would only produce noise.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// Everything the lints operate on.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Lexed source files.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load the workspace rooted at `root`. Missing pieces (no facade
    /// `src/`, no `crates/`) are tolerated so the loader also works on
    /// fixture mini-workspaces.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut ws = Workspace::default();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            crate_dirs.sort();
            for dir in crate_dirs {
                let krate =
                    dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                load_sources(root, &dir.join("src"), &krate, &mut ws.files)?;
            }
        }
        // The facade crate at the workspace root.
        load_sources(root, &root.join("src"), "ipa", &mut ws.files)?;
        Ok(ws)
    }
}

/// Recursively lex every `.rs` file under `dir` (if it exists).
fn load_sources(root: &Path, dir: &Path, krate: &str, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            load_sources(root, &path, krate, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = fs::read_to_string(&path)?;
            out.push(SourceFile::parse(&rel(root, &path), krate, &src));
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_crate_sources_with_their_crate_name() {
        let root = std::env::temp_dir().join(format!("ipa-audit-ws-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir");
        fs::write(root.join("crates/demo/src/lib.rs"), "fn a() {}\n").expect("src");
        let ws = Workspace::load(&root).expect("load");
        assert_eq!(ws.files.len(), 1);
        assert_eq!(ws.files[0].krate, "demo");
        assert_eq!(ws.files[0].path, "crates/demo/src/lib.rs");
        let _ = fs::remove_dir_all(&root);
    }
}
