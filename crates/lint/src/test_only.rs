//! `test-only-pub`: the one workspace-wide lint. A free item (`fn`,
//! `struct`, `enum`, `trait`, `const`, `static`, `type`) declared bare
//! `pub` in non-test code under `crates/*/src` must be named by some
//! non-test token somewhere in the walk — production code, examples,
//! binaries, `perfbench/src`. Tokens inside `#[cfg(test)]` regions,
//! files under a `tests/` directory, doc comments (the lexer strips
//! them), the item's own definition and `pub use` re-exports do not
//! count. Matching is by identifier, so two items that share a name
//! cover each other.
//!
//! Methods are in scope only where the identifier match is sound: a
//! bare `pub fn` in an `impl` block (so an inherent method — trait-impl
//! methods cannot be `pub`) whose name exactly one `fn` item in the
//! walk defines. A name that a trait method, a free
//! function, another type's method or a test helper also defines is
//! exempt.

use std::collections::HashMap;

use crate::lexer::{lex, Tok, Token};
use crate::lints::{classify, is_suppressed, Diagnostic, FileClass};

/// Item kinds the lint inspects.
const ITEMS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type"];
/// An identifier right after one of these is a definition, not a use.
const DEFINES: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union",
];
/// Qualifiers that may sit between `pub` and `fn` / `trait`.
const QUALIFIERS: &[&str] = &["const", "unsafe", "async", "extern"];

fn ident(t: Option<&Token>) -> Option<&str> {
    match t.map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

/// Report every free `pub` item, and every inherent `pub fn` with a
/// workspace-unique name, under `crates/*/src` that no non-test token
/// names. `files` holds `(workspace-relative path, source)`.
pub fn check_test_only_pub(files: &[(String, String)]) -> Vec<Diagnostic> {
    let lexed: Vec<_> = files.iter().map(|(_, src)| lex(src)).collect();
    let mut uses: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
    let mut fn_defs: HashMap<&str, usize> = HashMap::new();
    for (f, ((path, _), l)) in files.iter().zip(&lexed).enumerate() {
        let test_file = classify(path) == FileClass::Test;
        let mut in_reexport = false;
        for (i, t) in l.tokens.iter().enumerate() {
            let prev = i.checked_sub(1).and_then(|p| ident(l.tokens.get(p)));
            if prev == Some("pub") && ident(Some(t)) == Some("use") {
                in_reexport = true;
            } else if in_reexport && t.kind == Tok::Punct(';') {
                in_reexport = false;
            }
            let Tok::Ident(name) = &t.kind else { continue };
            if prev == Some("fn") {
                *fn_defs.entry(name).or_default() += 1;
            }
            if !test_file
                && !t.in_test
                && !in_reexport
                && !prev.is_some_and(|p| DEFINES.contains(&p))
            {
                uses.entry(name).or_default().push((f, i));
            }
        }
    }

    let mut out = Vec::new();
    for (f, ((path, _), l)) in files.iter().zip(&lexed).enumerate() {
        let segs: Vec<&str> = path.split('/').collect();
        if segs.len() < 4 || segs[0] != "crates" || segs[2] != "src" {
            continue;
        }
        for (kind, at, end, method) in pub_items(&l.tokens) {
            let name = ident(l.tokens.get(at)).unwrap_or_default();
            if method && fn_defs.get(name) != Some(&1) {
                continue;
            }
            let used = uses
                .get(name)
                .is_some_and(|u| u.iter().any(|&(uf, ui)| uf != f || ui < at || ui > end));
            if used {
                continue;
            }
            let d = Diagnostic {
                lint: "test-only-pub",
                file: path.clone(),
                line: l.tokens[at].line,
                message: format!("`pub {kind} {name}` has no use outside tests and re-exports"),
            };
            if !is_suppressed(l, &d) {
                out.push(d);
            }
        }
    }
    out
}

/// What a `{` opened, as far as item scope goes.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    Mod,
    /// An `impl` body. Trait-impl methods cannot be `pub`, so a `pub fn`
    /// here is always an inherent method.
    Impl,
    Other,
}

/// `(item keyword, name token index, last token index, is method)` of
/// every bare `pub` item outside test regions whose enclosing braces
/// are all `mod` bodies, plus every bare `pub fn` directly inside an
/// `impl` block that itself sits in such a scope.
fn pub_items(toks: &[Token]) -> Vec<(&str, usize, usize, bool)> {
    let mut out = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    // Between an item-position `impl` and its `{`.
    let mut impl_header = false;
    for (i, t) in toks.iter().enumerate() {
        let free = scopes.iter().all(|&s| s == Scope::Mod);
        match &t.kind {
            Tok::Punct('{') => {
                scopes.push(if std::mem::take(&mut impl_header) {
                    Scope::Impl
                } else if i >= 2 && ident(toks.get(i - 2)) == Some("mod") {
                    Scope::Mod
                } else {
                    Scope::Other
                });
                continue;
            }
            Tok::Punct('}') => {
                scopes.pop();
                continue;
            }
            Tok::Punct(';') => {
                impl_header = false;
                continue;
            }
            Tok::Ident(k) if k == "impl" && free => {
                // An item starts after a brace, a `;`, an attribute or
                // `unsafe`; elsewhere `impl` is a type (`-> impl Fn()`).
                impl_header = i.checked_sub(1).map(|p| &toks[p].kind).is_none_or(|k| {
                    matches!(k, Tok::Punct('{' | '}' | ';' | ']'))
                        || *k == Tok::Ident("unsafe".into())
                });
                continue;
            }
            Tok::Ident(p) if p == "pub" && !t.in_test => {}
            _ => continue,
        }
        let method = matches!(scopes.split_last(),
            Some((Scope::Impl, outer)) if outer.iter().all(|&s| s == Scope::Mod));
        if !free && !method {
            continue;
        }
        let mut j = i + 1;
        while let Some(q) = ident(toks.get(j)).filter(|q| QUALIFIERS.contains(q)) {
            let next = ident(toks.get(j + 1)).unwrap_or_default();
            if q == "const" && !matches!(next, "fn" | "unsafe" | "async" | "extern") {
                break;
            }
            j += 1;
        }
        let Some(kind) = ident(toks.get(j)).filter(|k| ITEMS.contains(k)) else {
            continue;
        };
        if method && kind != "fn" {
            continue;
        }
        if ident(toks.get(j + 1)).is_some_and(|n| n != "_") {
            out.push((kind, j + 1, item_end(toks, j + 1), method));
        }
    }
    out
}

/// Index of an item's last token: the `}` matching its first `{`, or a
/// `;` at the item's bracket depth that comes before any `{`.
fn item_end(toks: &[Token], start: usize) -> usize {
    let depth = toks[start].bracket_depth;
    let mut braces = 0usize;
    for (k, t) in toks.iter().enumerate().skip(start) {
        match t.kind {
            Tok::Punct('{') => braces += 1,
            Tok::Punct('}') if braces == 1 => return k,
            Tok::Punct('}') => braces = braces.saturating_sub(1),
            Tok::Punct(';') if braces == 0 && t.bracket_depth == depth => return k,
            _ => {}
        }
    }
    toks.len()
}
