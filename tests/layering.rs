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

/// The `ipa-*` keys of the `[dependencies]` table of
/// `crates/<krate>/Cargo.toml`, sorted (`[dev-dependencies]` are exempt:
/// tests may reach anywhere).
fn workspace_deps(krate: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates").join(krate).join("Cargo.toml");
    let text = std::fs::read_to_string(&path).expect("crate manifest is readable");
    let mut in_deps = false;
    let mut deps = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps && line.starts_with("ipa-") {
            deps.push(line.chars().take_while(|c| !matches!(c, '.' | '=' | ' ')).collect());
        }
    }
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
