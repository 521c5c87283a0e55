//! # ist-lint — workspace lint engine
//!
//! A token-level Rust source scanner that enforces this repository's
//! meta-invariants as named lints, in the same offline-shim spirit as
//! `ist-parallel`/`ist-rand`: clippy-style tooling rebuilt in-tree, no
//! registry access needed. No `syn` — a hand-rolled lexer
//! ([`lexer`]) strips comments and strings, tracks bracket depth, and
//! marks `#[cfg(test)]` regions, and the lints ([`lints`]) pattern-match
//! the token stream.
//!
//! Every lint but one reads a file at a time; `test-only-pub`
//! ([`test_only`]) reads the whole walk, since whether a `pub` item has a
//! production use is a fact about the workspace.
//!
//! ## Quickstart
//!
//! ```text
//! cargo run -p ist-lint                      # human-readable findings
//! cargo run -p ist-lint -- --deny-all       # exit 1 on any finding (CI mode)
//! cargo run -p ist-lint -- --json           # machine-readable diagnostics
//! cargo run -p ist-lint -- --list           # print the lint catalog
//! cargo run -p ist-lint -- --write-baseline # snapshot current findings
//! ```
//!
//! Findings recorded in `lint-baseline.txt` (one `lint\tfile\tline` per
//! row) are reported as `baselined` and don't fail `--deny-all`; the
//! committed baseline is empty and should stay that way. To suppress a
//! finding at source, put this on the offending line or in the comment
//! block directly above it:
//!
//! ```text
//! // LINT-ALLOW(serve-no-panic): init-time config parse; abort is correct
//! ```
//!
//! An allow that names an unknown lint or omits the reason is itself a
//! finding (`bad-lint-allow`).

#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod lints;
pub mod test_only;

pub use lints::{check_file, classify, Diagnostic, FileClass, LINT_NAMES};
pub use test_only::check_test_only_pub;

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github"];

/// Recursively collect every `.rs` file under `root`, returning
/// workspace-relative `/`-separated paths in sorted (deterministic)
/// order.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel) = stack.pop() {
        let dir = root.join(&rel);
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let sub = if rel.as_os_str().is_empty() {
                PathBuf::from(name.as_ref())
            } else {
                rel.join(name.as_ref())
            };
            let ty = entry.file_type()?;
            if ty.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(sub);
                }
            } else if ty.is_file() && name.ends_with(".rs") {
                out.push(sub.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint the whole workspace under `root`: every per-file lint, then
/// the workspace-wide `test-only-pub`. Unreadable files are skipped
/// (the walk itself surfaces I/O errors).
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for rel in collect_rs_files(root)? {
        if let Ok(src) = fs::read_to_string(root.join(&rel)) {
            files.push((rel, src));
        }
    }
    let mut all = Vec::new();
    for (rel, src) in &files {
        all.extend(check_file(rel, classify(rel), src));
    }
    all.extend(check_test_only_pub(&files));
    Ok(all)
}

/// A parsed baseline: the set of findings accepted as pre-existing.
/// Format: one `lint\tfile\tline` per row; `#` comments and blank
/// lines ignored.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: Vec<(String, String, u32)>,
}

impl Baseline {
    pub fn parse(text: &str) -> Baseline {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split('\t');
            if let (Some(lint), Some(file), Some(ln)) = (it.next(), it.next(), it.next()) {
                if let Ok(n) = ln.trim().parse::<u32>() {
                    entries.push((lint.to_string(), file.to_string(), n));
                }
            }
        }
        Baseline { entries }
    }

    pub fn load(path: &Path) -> Baseline {
        match fs::read_to_string(path) {
            Ok(text) => Baseline::parse(&text),
            Err(_) => Baseline::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, d: &Diagnostic) -> bool {
        self.entries
            .iter()
            .any(|(l, f, n)| l == d.lint && f == &d.file && *n == d.line)
    }

    /// Render diagnostics in baseline file format.
    pub fn render(diags: &[Diagnostic]) -> String {
        let mut s = String::from(
            "# ist-lint baseline: findings accepted as pre-existing (lint\\tfile\\tline).\n\
             # Keep empty — new debt should be fixed or LINT-ALLOWed at source.\n",
        );
        for d in diags {
            s.push_str(&format!("{}\t{}\t{}\n", d.lint, d.file, d.line));
        }
        s
    }
}

/// Split findings into (new, baselined) against a baseline.
pub fn apply_baseline(
    diags: Vec<Diagnostic>,
    base: &Baseline,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    diags.into_iter().partition(|d| !base.contains(d))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON document (hand-rolled: no serde in-tree).
pub fn render_json(new: &[Diagnostic], baselined: &[Diagnostic]) -> String {
    let row = |d: &Diagnostic, baselined: bool| {
        format!(
            "  {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"baselined\": {}, \"message\": \"{}\"}}",
            json_escape(d.lint),
            json_escape(&d.file),
            d.line,
            baselined,
            json_escape(&d.message),
        )
    };
    let rows: Vec<String> = new
        .iter()
        .map(|d| row(d, false))
        .chain(baselined.iter().map(|d| row(d, true)))
        .collect();
    format!(
        "{{\n\"new\": {}, \"baselined\": {}, \"diagnostics\": [\n{}\n]\n}}\n",
        new.len(),
        baselined.len(),
        rows.join(",\n")
    )
}

/// Render findings for humans: `file:line: [lint] message` rows plus a
/// summary line.
pub fn render_human(new: &[Diagnostic], baselined: &[Diagnostic]) -> String {
    let mut s = String::new();
    for d in new {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            d.file, d.line, d.lint, d.message
        ));
    }
    for d in baselined {
        s.push_str(&format!(
            "{}:{}: [{}] {} (baselined)\n",
            d.file, d.line, d.lint, d.message
        ));
    }
    s.push_str(&format!(
        "ist-lint: {} new finding(s), {} baselined\n",
        new.len(),
        baselined.len()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip() {
        let diags = vec![Diagnostic {
            lint: "serve-no-panic",
            file: "crates/serve/src/x.rs".to_string(),
            line: 7,
            message: "m".to_string(),
        }];
        let base = Baseline::parse(&Baseline::render(&diags));
        assert_eq!(base.len(), 1);
        assert!(base.contains(&diags[0]));
        let (new, old) = apply_baseline(diags, &base);
        assert!(new.is_empty());
        assert_eq!(old.len(), 1);
    }

    #[test]
    fn baseline_ignores_comments_and_garbage() {
        let base = Baseline::parse("# header\n\nnot-a-row\nl\tf\tnotanumber\n");
        assert!(base.is_empty());
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_render_shape() {
        let d = Diagnostic {
            lint: "serve-no-panic",
            file: "f.rs".to_string(),
            line: 3,
            message: "msg".to_string(),
        };
        let j = render_json(std::slice::from_ref(&d), &[]);
        assert!(j.contains("\"new\": 1"));
        assert!(j.contains("\"line\": 3"));
        assert!(j.contains("\"baselined\": false"));
    }
}
