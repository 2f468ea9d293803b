//! The stack's layering, asserted on the three manifests that define it:
//!
//! ```text
//!   engine ──► noftl ──► flash
//!     └──► core
//! ```
//!
//! A crate a manifest does not declare cannot be named in that crate's
//! source (`E0433`), so pinning the `[dependencies]` tables pins the
//! layering: the engine reaches the device only through `ipa-noftl`.

use std::path::Path;

/// Every `key = value` line of a manifest with the table it stands in.
fn entries(manifest: &Path) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(manifest).expect("manifest is readable");
    let mut table = String::new();
    let mut entries = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        if let Some(name) = line.strip_prefix('[') {
            table = name.trim_end_matches(']').to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            entries.push((table.clone(), key.trim().to_string(), value.trim().to_string()));
        }
    }
    entries
}

/// The `ipa-*` keys of the `[dependencies]` table of
/// `crates/<krate>/Cargo.toml`, sorted (`[dev-dependencies]` are exempt:
/// tests may reach anywhere).
fn workspace_deps(krate: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates").join(krate).join("Cargo.toml");
    let mut deps: Vec<String> = entries(&path)
        .into_iter()
        .filter(|(table, key, _)| table == "dependencies" && key.starts_with("ipa-"))
        .map(|(_, key, _)| key.split('.').next().unwrap_or_default().to_string())
        .collect();
    deps.sort();
    deps
}

#[test]
fn manifests_declare_the_layering() {
    assert_eq!(workspace_deps("flash"), Vec::<String>::new(), "flash is the bottom layer");
    assert_eq!(workspace_deps("noftl"), ["ipa-flash"], "noftl sits on flash only");
    assert_eq!(
        workspace_deps("engine"),
        ["ipa-core", "ipa-noftl"],
        "the engine reaches the device through noftl, never ipa-flash directly"
    );
}

/// The registry is unreachable where this builds and where the benchmark
/// runs, so the dependency graph must close inside the tree: a crate that
/// is not a path dependency is patched to one, and the committed lock file
/// (with it present, cargo resolves nothing) names no other source.
#[test]
fn workspace_resolves_from_the_checkout() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut patched = Vec::new();
    for (table, name, patch) in entries(&root.join("Cargo.toml")) {
        if table == "patch.crates-io" {
            let path = patch.split('"').nth(1).expect("a patch entry is `{ path = \"...\" }`");
            assert!(root.join(path).join("Cargo.toml").is_file(), "`{name}` is patched to {path}");
            patched.push(name);
        }
    }
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    let manifests = crates
        .map(|dir| dir.expect("crates/ entry is readable").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .chain([root.join("Cargo.toml")]);
    for manifest in manifests {
        for (table, key, value) in entries(&manifest) {
            // `x.workspace = true` defers to the root's
            // [workspace.dependencies], which is one of the tables walked.
            let deferred = key.ends_with(".workspace") || value.contains("workspace = true");
            if table.ends_with("dependencies") && !deferred && !value.contains("path =") {
                let manifest = manifest.display();
                assert!(
                    patched.contains(&key),
                    "{manifest}: `{key}` has no [patch.crates-io] entry"
                );
            }
        }
    }
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock is committed");
    let foreign: Vec<&str> = lock.lines().filter(|l| l.starts_with("source = ")).collect();
    assert!(foreign.is_empty(), "Cargo.lock names packages from outside the tree: {foreign:?}");
}
