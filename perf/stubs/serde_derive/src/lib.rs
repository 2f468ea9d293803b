//! Offline stand-in for `serde_derive`. The workspace derives `Serialize` /
//! `Deserialize` on its stats and config types but never serializes through
//! the derives (`ipa-obs` builds `serde_json::Value` trees by hand), so the
//! derives expand to nothing and only have to accept `#[serde(...)]`.

use proc_macro::TokenStream;

/// `#[derive(Serialize)]`: accepted, expands to nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// `#[derive(Deserialize)]`: accepted, expands to nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
