//! Brace-tree item parser: from a flat token stream to per-file items.
//!
//! [`crate::source::SourceFile`] gives the lints a token stream;
//! this module walks that stream as a *brace tree* and recovers the item
//! structure the semantic lints need — functions with their enclosing
//! `impl`/`trait` type and module path, and `use` imports of sibling
//! workspace crates.
//! [`crate::itemgraph`] aggregates the per-file results into the
//! workspace-wide item graph.
//!
//! Like the lexer, the parser is deliberately forgiving: it must never
//! fail on the code it audits (the compiler reports real syntax errors),
//! so unrecognized constructs are skipped token by token.

use crate::lexer::{Tok, Token};
use crate::source::{match_brace, SourceFile};

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct ParsedFn {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Enclosing `impl`/`trait` type name (`Database`, `LockManager`, ...),
    /// or `None` for free functions.
    pub impl_of: Option<String>,
    /// Enclosing inline-module path (`["tests"]`, ...), innermost last.
    pub mod_path: Vec<String>,
    /// Half-open token range of the signature (`fn` to the body `{`).
    pub sig: (usize, usize),
    /// Half-open token range of the body (`{` to past the matching `}`).
    pub body: (usize, usize),
    /// Whether the signature declares a `Result` (or a workspace error
    /// type) return — the call graph's fallibility bit.
    pub returns_result: bool,
}

/// Everything the item graph keeps for one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Function items, in source order (nested fns included).
    pub fns: Vec<ParsedFn>,
    /// Short names of sibling workspace crates imported via
    /// `use ipa_<name>::...` (deduplicated).
    pub imports: Vec<String>,
    /// Inline module names declared in the file.
    pub mods: Vec<String>,
}

/// Parse one file's token stream into its items.
pub fn parse_file(file: &SourceFile) -> FileItems {
    let mut items = FileItems::default();
    walk(&file.tokens, 0, file.tokens.len(), &mut Vec::new(), None, &mut items);
    items.imports.sort();
    items.imports.dedup();
    items
}

/// Recursive brace-tree walk of `t[start..end]`.
fn walk(
    t: &[Token],
    start: usize,
    end: usize,
    mod_path: &mut Vec<String>,
    impl_of: Option<&str>,
    out: &mut FileItems,
) {
    let mut i = start;
    while i < end {
        match t[i].ident() {
            Some("use") => i = parse_use(t, i, end, out),
            Some("mod") => i = parse_mod(t, i, end, mod_path, out),
            Some("impl") | Some("trait") => i = parse_impl(t, i, end, mod_path, out),
            Some("fn") => i = parse_fn(t, i, end, mod_path, impl_of, out),
            _ => i += 1,
        }
    }
}

/// `use ipa_flash::...;` — record the sibling-crate import edge.
fn parse_use(t: &[Token], i: usize, end: usize, out: &mut FileItems) -> usize {
    let mut j = i + 1;
    if let Some(first) = t.get(j).and_then(Token::ident) {
        if let Some(short) = first.strip_prefix("ipa_") {
            out.imports.push(short.to_string());
        } else if first == "ipa" {
            out.imports.push("ipa".to_string());
        }
    }
    while j < end && !t[j].is_punct(';') {
        j += 1;
    }
    j.min(end) + 1
}

/// `mod name { ... }` — recurse with the extended module path;
/// `mod name;` — just record the name.
fn parse_mod(
    t: &[Token],
    i: usize,
    end: usize,
    mod_path: &mut Vec<String>,
    out: &mut FileItems,
) -> usize {
    let Some(name) = t.get(i + 1).and_then(Token::ident) else { return i + 1 };
    let name = name.to_string();
    match t.get(i + 2).map(|tok| &tok.tok) {
        Some(Tok::Punct('{')) => {
            out.mods.push(name.clone());
            let close = match_brace(t, i + 2);
            mod_path.push(name);
            walk(t, i + 3, close.saturating_sub(1).min(end), mod_path, None, out);
            mod_path.pop();
            close
        }
        Some(Tok::Punct(';')) => {
            out.mods.push(name);
            i + 3
        }
        _ => i + 1,
    }
}

/// `impl<G> Type for Target { ... }` / `trait Name { ... }` — resolve the
/// subject type and recurse into the body with it as `impl_of`.
fn parse_impl(
    t: &[Token],
    i: usize,
    end: usize,
    mod_path: &mut Vec<String>,
    out: &mut FileItems,
) -> usize {
    // Scan the header up to the first `{` at angle/paren depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut subject: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < end {
        match &t[j].tok {
            Tok::Punct('<' | '(' | '[') => depth += 1,
            Tok::Punct('>' | ')' | ']') => depth -= 1,
            Tok::Punct('{') if depth <= 0 => break,
            Tok::Punct(';') if depth <= 0 => return j + 1, // `trait X: Y;` oddities
            Tok::Ident(id) if depth <= 0 => {
                if id == "for" {
                    saw_for = true;
                } else if id == "where" {
                    // `impl Foo where ...` — the subject is settled.
                    while j < end && !(t[j].is_punct('{') && depth <= 0) {
                        match &t[j].tok {
                            Tok::Punct('<' | '(' | '[') => depth += 1,
                            Tok::Punct('>' | ')' | ']') => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    break;
                } else if saw_for {
                    after_for = Some(id.clone()); // last path segment wins
                } else {
                    subject = Some(id.clone()); // last depth-0 segment wins
                }
            }
            _ => {}
        }
        j += 1;
    }
    if j >= end {
        return end;
    }
    let close = match_brace(t, j);
    let name = after_for.or(subject);
    walk(t, j + 1, close.saturating_sub(1).min(end), mod_path, name.as_deref(), out);
    close
}

/// `fn name(...) -> Ret { ... }` — record and recurse into the body (for
/// nested fns and items).
fn parse_fn(
    t: &[Token],
    i: usize,
    end: usize,
    mod_path: &mut Vec<String>,
    impl_of: Option<&str>,
    out: &mut FileItems,
) -> usize {
    let Some(name) = t.get(i + 1).and_then(Token::ident) else { return i + 1 };
    // Signature runs to the first `{` at bracket depth 0, or aborts at `;`
    // (trait method declaration).
    let mut j = i + 2;
    let mut depth = 0i32;
    while j < end {
        match &t[j].tok {
            Tok::Punct('(' | '[' | '<') => depth += 1,
            Tok::Punct(')' | ']' | '>') => depth -= 1,
            Tok::Punct('{') if depth <= 0 => break,
            Tok::Punct(';') if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    if j >= end {
        return end;
    }
    let close = match_brace(t, j);
    out.fns.push(ParsedFn {
        name: name.to_string(),
        line: t[i].line,
        impl_of: impl_of.map(str::to_string),
        mod_path: mod_path.clone(),
        sig: (i, j),
        body: (j, close),
        returns_result: sig_returns_result(&t[i..j]),
    });
    // Nested items (helper fns, local structs) belong to no impl.
    walk(t, j + 1, close.saturating_sub(1).min(end), mod_path, None, out);
    close
}

/// Does a signature return `Result` (or name a workspace error type in its
/// return position)? The return type starts at the `->` arrow.
fn sig_returns_result(sig: &[Token]) -> bool {
    let mut arrow = None;
    for (k, pair) in sig.windows(2).enumerate() {
        if pair[0].is_punct('-') && pair[1].is_punct('>') {
            arrow = Some(k + 2);
        }
    }
    let Some(from) = arrow else { return false };
    sig[from..].iter().any(|tok| {
        tok.ident().is_some_and(|id| {
            matches!(id, "Result" | "FlashError" | "NoFtlError" | "EngineError" | "CoreError")
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        parse_file(&SourceFile::parse("crates/x/src/lib.rs", "x", src))
    }

    #[test]
    fn impl_methods_carry_their_type() {
        let src = "impl Database { fn begin(&mut self) {} }\n\
                   impl<'a> Txn<'a> { fn commit(self) -> Result<()> { Ok(()) } }\n\
                   impl From<u8> for EngineError { fn from(_: u8) -> Self { todo() } }\n\
                   fn free() {}";
        let items = parse(src);
        let by_name: Vec<(&str, Option<&str>, bool)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_of.as_deref(), f.returns_result))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("begin", Some("Database"), false),
                ("commit", Some("Txn"), true),
                ("from", Some("EngineError"), false),
                ("free", None, false),
            ]
        );
    }

    #[test]
    fn imports_and_modules() {
        let src = "use ipa_flash::{Ppa, FlashDevice};\nuse std::collections::HashMap;\n\
                   use ipa_noftl::Lba;\nmod sub { fn inner() {} }";
        let items = parse(src);
        assert_eq!(items.imports, vec!["flash", "noftl"]);
        assert_eq!(items.mods, vec!["sub"]);
        let inner = items.fns.iter().find(|f| f.name == "inner").expect("inner fn");
        assert_eq!(inner.mod_path, vec!["sub"]);
    }

    #[test]
    fn trait_default_methods_attach_to_the_trait() {
        let src = "trait Lint { fn code(&self) -> u8; fn noisy(&self) { } }";
        let items = parse(src);
        assert_eq!(items.fns.len(), 1, "bodyless declarations are not items");
        assert_eq!(items.fns[0].name, "noisy");
        assert_eq!(items.fns[0].impl_of.as_deref(), Some("Lint"));
    }
}
