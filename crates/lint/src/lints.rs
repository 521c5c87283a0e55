//! The lint catalog: each lint is a named invariant of this repository,
//! checked token-level against [`crate::lexer::Lexed`] files.
//!
//! | lint | invariant |
//! |------|-----------|
//! | `unsafe-needs-safety-comment` | every `unsafe` (block, fn, impl) carries a `// SAFETY:` comment |
//! | `no-spawn-outside-parallel` | `thread::spawn` / `thread::Builder` only in `ist-parallel` / `ist-loom` (the threading substrates) |
//! | `no-layout-arith-outside-nav` | BST child-index arithmetic (`2 * v + 1/2`) confined to `ist_query::nav`/`wide` and `ist-layout` |
//! | `relaxed-ordering-needs-justification` | every `Ordering::Relaxed` carries an adjacent comment |
//! | `serve-no-panic` | no `unwrap`/`expect`/`panic!`-family/indexing in `crates/serve` non-test code |
//! | `bad-lint-allow` | every `LINT-ALLOW` names a known lint and gives a reason |
//! | `test-only-pub` | every free `pub` item and uniquely named inherent `pub fn` under `crates/*/src` is named by some non-test code; a type's own inherent `impl` header does not count (workspace-wide; [`crate::test_only`]) |
//!
//! Suppression syntax, on the offending line or the comment block
//! directly above it:
//!
//! ```text
//! // LINT-ALLOW(serve-no-panic): init-time config parse; a bad flag should abort
//! ```
//!
//! Doc comments and string literals are invisible to every lint (the
//! lexer strips them), so code *examples* never trip source invariants.

use crate::lexer::{lex, Lexed, Tok, Token};

/// Every lint name the engine knows, in catalog order.
pub const LINT_NAMES: &[&str] = &[
    "unsafe-needs-safety-comment",
    "no-spawn-outside-parallel",
    "no-layout-arith-outside-nav",
    "relaxed-ordering-needs-justification",
    "serve-no-panic",
    "bad-lint-allow",
    "test-only-pub",
];

/// One finding: a named lint firing at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub lint: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// What kind of target a file belongs to; some lints only police
/// production (`Src`) code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    Src,
    Test,
    Example,
    Bench,
}

/// Classify a workspace-relative path by its directory conventions.
pub fn classify(path: &str) -> FileClass {
    let has = |seg: &str| path.split('/').any(|p| p == seg);
    if has("tests") {
        FileClass::Test
    } else if has("examples") {
        FileClass::Example
    } else if has("benches") {
        FileClass::Bench
    } else {
        FileClass::Src
    }
}

/// Run every lint over one file. `path` is workspace-relative with
/// `/` separators; diagnostics suppressed by a well-formed
/// `LINT-ALLOW` are dropped here.
pub fn check_file(path: &str, class: FileClass, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let mut out = Vec::new();
    lint_unsafe_safety(path, &lexed, &mut out);
    lint_spawn(path, class, &lexed, &mut out);
    lint_layout_arith(path, class, &lexed, &mut out);
    lint_relaxed(path, class, &lexed, &mut out);
    lint_serve_no_panic(path, class, &lexed, &mut out);
    lint_bad_allow(path, &lexed, &mut out);
    // Apply suppressions last so a single allow covers every lint
    // instance on its line.
    out.retain(|d| d.lint == "bad-lint-allow" || !is_suppressed(&lexed, d));
    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out.dedup();
    out
}

/// Parse `LINT-ALLOW(<name>): <reason>` out of one comment string.
/// Returns `(name, reason)` with both trimmed; `None` if the marker is
/// absent entirely.
fn parse_allow(text: &str) -> Option<(&str, &str)> {
    let at = text.find("LINT-ALLOW(")?;
    let rest = &text[at + "LINT-ALLOW(".len()..];
    let close = rest.find(')')?;
    let name = rest[..close].trim();
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':').unwrap_or("").trim();
    Some((name, reason))
}

pub(crate) fn is_suppressed(lexed: &Lexed, d: &Diagnostic) -> bool {
    lexed.comment_context(d.line).iter().any(|c| {
        parse_allow(c).is_some_and(|(name, reason)| {
            name == d.lint && !reason.is_empty() && LINT_NAMES.contains(&name)
        })
    })
}

/// `unsafe-needs-safety-comment`: fires on any `unsafe` token (block,
/// `unsafe fn`, `unsafe impl`, `unsafe trait`) whose line has no
/// adjacent `// SAFETY:` comment. Applies everywhere, including tests:
/// undocumented unsafety in a test is still undocumented unsafety.
/// An `unsafe fn` / `unsafe trait` **declaration** is alternatively
/// satisfied by a `# Safety` section in its doc comment — that is
/// where the caller-facing contract belongs (clippy's
/// `missing_safety_doc` convention); blocks and impls have no doc
/// audience and always need the inline comment.
fn lint_unsafe_safety(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    let mut last_line = 0;
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != Tok::Ident("unsafe".to_string()) || t.line == last_line {
            continue;
        }
        last_line = t.line;
        let mut ok = lexed
            .comment_context(t.line)
            .iter()
            .any(|c| c.contains("SAFETY:"));
        let is_decl = lexed
            .tokens
            .get(i + 1)
            .is_some_and(|t| matches!(&t.kind, Tok::Ident(k) if k == "fn" || k == "trait"));
        if !ok && is_decl {
            ok = lexed
                .doc_context(t.line)
                .iter()
                .any(|c| c.contains("# Safety"));
        }
        if !ok {
            out.push(Diagnostic {
                lint: "unsafe-needs-safety-comment",
                file: path.to_string(),
                line: t.line,
                message: "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            });
        }
    }
}

/// `no-spawn-outside-parallel`: raw `thread::spawn` (or a thread
/// started through `thread::Builder`) belongs to the
/// threading substrates (`crates/parallel`, `crates/loom-shim`) and
/// the `ist_dynamic::sync` routing point; every other site must route
/// through the rayon shim or that `sync` module so forced-serial and
/// model-checked builds control all threads.
fn lint_spawn(path: &str, class: FileClass, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if class != FileClass::Src
        || path.starts_with("crates/parallel/")
        || path.starts_with("crates/loom-shim/")
        || path == "crates/dynamic/src/sync.rs"
    {
        return;
    }
    for w in lexed.tokens.windows(4) {
        if w[0].in_test {
            continue;
        }
        let Tok::Ident(what) = &w[3].kind else {
            continue;
        };
        if w[0].kind == Tok::Ident("thread".to_string())
            && w[1].kind == Tok::Punct(':')
            && w[2].kind == Tok::Punct(':')
            && (what == "spawn" || what == "Builder")
        {
            out.push(Diagnostic {
                lint: "no-spawn-outside-parallel",
                file: path.to_string(),
                line: w[0].line,
                message: format!("raw `thread::{what}` outside the threading substrate crates"),
            });
        }
    }
}

/// `no-layout-arith-outside-nav`: the BST child-index idiom
/// `2 * v + 1` / `2 * v + 2` (outside square-bracket indexing, where
/// it is rank-pair unpacking, not a descent) is confined to the
/// `Navigator` implementations and the layout definitions themselves.
fn lint_layout_arith(path: &str, class: FileClass, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if class != FileClass::Src
        || path == "crates/query/src/nav.rs"
        || path == "crates/query/src/wide.rs"
        || path.starts_with("crates/tree-layout/")
    {
        return;
    }
    for w in lexed.tokens.windows(5) {
        if w[0].in_test || w[0].bracket_depth > 0 {
            continue;
        }
        let is_child = w[0].kind == Tok::Int(2)
            && w[1].kind == Tok::Punct('*')
            && matches!(w[2].kind, Tok::Ident(_))
            && w[3].kind == Tok::Punct('+')
            && matches!(w[4].kind, Tok::Int(1) | Tok::Int(2));
        if is_child {
            out.push(Diagnostic {
                lint: "no-layout-arith-outside-nav",
                file: path.to_string(),
                line: w[0].line,
                message: "child-index arithmetic (`2 * v + 1/2`) outside `ist_query::nav`/`wide`"
                    .to_string(),
            });
        }
    }
}

/// `relaxed-ordering-needs-justification`: `Ordering::Relaxed` trades
/// away happens-before edges; every use must say why that is sound, in
/// an adjacent comment.
fn lint_relaxed(path: &str, class: FileClass, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if class != FileClass::Src {
        return;
    }
    let mut last_line = 0;
    for w in lexed.tokens.windows(4) {
        if w[0].in_test || w[0].line == last_line {
            continue;
        }
        if w[0].kind == Tok::Ident("Ordering".to_string())
            && w[1].kind == Tok::Punct(':')
            && w[2].kind == Tok::Punct(':')
            && w[3].kind == Tok::Ident("Relaxed".to_string())
        {
            last_line = w[0].line;
            if lexed.comment_context(w[0].line).is_empty() {
                out.push(Diagnostic {
                    lint: "relaxed-ordering-needs-justification",
                    file: path.to_string(),
                    line: w[0].line,
                    message: "`Ordering::Relaxed` without an adjacent justifying comment"
                        .to_string(),
                });
            }
        }
    }
}

/// Keywords that can legally precede `[` without it being an index
/// expression (slice patterns, `for x in [..]`, …).
const NONINDEX_BEFORE_BRACKET: &[&str] = &[
    "let", "mut", "ref", "in", "return", "if", "else", "match", "loop", "while", "for", "move",
    "as", "dyn", "impl", "where", "break", "continue", "box", "static", "const",
];

/// `serve-no-panic`: the serving crate's non-test code must not carry
/// panic paths — a bad request or a logic slip should close one
/// connection or surface an error frame, never take the process down.
/// Fires on `.unwrap()`, `.expect(`, the `panic!` macro family, and
/// direct indexing (`x[i]`).
fn lint_serve_no_panic(path: &str, class: FileClass, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    if class != FileClass::Src || !path.starts_with("crates/serve/src") {
        return;
    }
    let toks = &lexed.tokens;
    let mut push = |t: &Token, what: &str| {
        out.push(Diagnostic {
            lint: "serve-no-panic",
            file: path.to_string(),
            line: t.line,
            message: format!("panic path in serving code: {what}"),
        });
    };
    for i in 0..toks.len() {
        if toks[i].in_test {
            continue;
        }
        match &toks[i].kind {
            Tok::Ident(s) if (s == "unwrap" || s == "expect") => {
                let dotted = i >= 1 && toks[i - 1].kind == Tok::Punct('.');
                let called = toks.get(i + 1).is_some_and(|t| t.kind == Tok::Punct('('));
                if dotted && called {
                    push(&toks[i], &format!("`.{s}(..)`"));
                }
            }
            Tok::Ident(s)
                if matches!(
                    s.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                ) && toks.get(i + 1).is_some_and(|t| t.kind == Tok::Punct('!')) =>
            {
                push(&toks[i], &format!("`{s}!`"));
            }
            Tok::Punct('[') => {
                let indexes = match i.checked_sub(1).map(|j| &toks[j].kind) {
                    Some(Tok::Ident(prev)) => !NONINDEX_BEFORE_BRACKET.contains(&prev.as_str()),
                    Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => true,
                    _ => false,
                };
                if indexes {
                    push(&toks[i], "direct indexing (`x[i]` panics out of bounds)");
                }
            }
            _ => {}
        }
    }
}

/// `bad-lint-allow`: a `LINT-ALLOW` that names an unknown lint or
/// gives no reason is itself a finding — suppressions must stay
/// auditable.
fn lint_bad_allow(path: &str, lexed: &Lexed, out: &mut Vec<Diagnostic>) {
    for c in &lexed.comments {
        let Some((name, reason)) = parse_allow(&c.text) else {
            continue;
        };
        if !LINT_NAMES.contains(&name) {
            out.push(Diagnostic {
                lint: "bad-lint-allow",
                file: path.to_string(),
                line: c.line,
                message: format!("LINT-ALLOW names unknown lint `{name}`"),
            });
        } else if reason.is_empty() {
            out.push(Diagnostic {
                lint: "bad-lint-allow",
                file: path.to_string(),
                line: c.line,
                message: format!("LINT-ALLOW({name}) without a reason"),
            });
        }
    }
}
