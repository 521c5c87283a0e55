//! Per-lint fixture tests: each lint proven to fire on a minimal
//! violation and stay silent on the compliant twin.

use ist_lint::{check_file, check_test_only_pub, Diagnostic, FileClass};

fn lints_at(diags: &[Diagnostic], lint: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.lint == lint)
        .map(|d| d.line)
        .collect()
}

fn src(path: &str, code: &str) -> Vec<Diagnostic> {
    check_file(path, FileClass::Src, code)
}

#[test]
fn unsafe_fires_without_safety_comment() {
    let code = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let d = src("crates/query/src/x.rs", code);
    assert_eq!(lints_at(&d, "unsafe-needs-safety-comment"), vec![2]);
}

#[test]
fn unsafe_quiet_with_safety_comment_above() {
    let code = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
    let d = src("crates/query/src/x.rs", code);
    assert!(lints_at(&d, "unsafe-needs-safety-comment").is_empty());
}

#[test]
fn unsafe_quiet_with_trailing_safety_comment() {
    let code = "unsafe fn g() {} // SAFETY: no preconditions\n";
    let d = src("crates/query/src/x.rs", code);
    assert!(lints_at(&d, "unsafe-needs-safety-comment").is_empty());
}

#[test]
fn unsafe_fn_decl_satisfied_by_safety_doc_section() {
    let code = "\
/// Reads a raw pointer.
///
/// # Safety
/// `p` must be valid for reads.
pub unsafe fn f(p: *const u8) -> u8 {
    // SAFETY: caller contract above.
    unsafe { *p }
}
";
    let d = src("crates/query/src/x.rs", code);
    assert!(lints_at(&d, "unsafe-needs-safety-comment").is_empty());
}

#[test]
fn unsafe_impl_not_satisfied_by_safety_doc_section() {
    // Only fn/trait declarations may lean on `# Safety` docs; an
    // `unsafe impl` still needs the inline comment.
    let code = "/// # Safety\n/// always fine.\nunsafe impl Send for X {}\n";
    let d = src("crates/query/src/x.rs", code);
    assert_eq!(lints_at(&d, "unsafe-needs-safety-comment"), vec![3]);
}

#[test]
fn slice_type_after_lifetime_is_not_indexing() {
    let code = "pub struct Cursor<'a>(&'a [u8]);\n";
    let d = src("crates/serve/src/x.rs", code);
    assert!(lints_at(&d, "serve-no-panic").is_empty());
}

#[test]
fn unsafe_in_doc_comment_ignored() {
    let code = "/// ```\n/// unsafe { core::hint::unreachable_unchecked() }\n/// ```\nfn f() {}\n";
    let d = src("crates/query/src/x.rs", code);
    assert!(lints_at(&d, "unsafe-needs-safety-comment").is_empty());
}

#[test]
fn spawn_fires_outside_parallel() {
    let code = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    let d = src("crates/dynamic/src/x.rs", code);
    assert_eq!(lints_at(&d, "no-spawn-outside-parallel"), vec![2]);
}

#[test]
fn spawn_allowed_in_substrate_crates() {
    let code = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    for path in [
        "crates/parallel/src/lib.rs",
        "crates/loom-shim/src/lib.rs",
        "crates/dynamic/src/sync.rs",
    ] {
        let d = src(path, code);
        assert!(
            lints_at(&d, "no-spawn-outside-parallel").is_empty(),
            "{path}"
        );
    }
}

#[test]
fn thread_builder_fires_outside_parallel() {
    let code = "fn f() {\n    let b = std::thread::Builder::new();\n    b.spawn(|| {});\n}\n";
    let d = src("crates/serve/src/x.rs", code);
    assert_eq!(lints_at(&d, "no-spawn-outside-parallel"), vec![2]);
}

#[test]
fn thread_builder_allowed_in_substrate_crates() {
    let code = "fn f() {\n    std::thread::Builder::new().spawn(|| {});\n}\n";
    for path in [
        "crates/parallel/src/lib.rs",
        "crates/loom-shim/src/lib.rs",
        "crates/dynamic/src/sync.rs",
    ] {
        let d = src(path, code);
        assert!(
            lints_at(&d, "no-spawn-outside-parallel").is_empty(),
            "{path}"
        );
    }
}

#[test]
fn spawn_allowed_in_cfg_test_region() {
    let code =
        "#[cfg(test)]\nmod tests {\n    fn f() {\n        std::thread::spawn(|| {});\n    }\n}\n";
    let d = src("crates/dynamic/src/x.rs", code);
    assert!(lints_at(&d, "no-spawn-outside-parallel").is_empty());
}

#[test]
fn layout_arith_fires_outside_nav() {
    let code = "fn child(v: usize) -> usize {\n    2 * v + 1\n}\n";
    let d = src("crates/shard/src/lib.rs", code);
    assert_eq!(lints_at(&d, "no-layout-arith-outside-nav"), vec![2]);
}

#[test]
fn layout_arith_allowed_in_nav_and_layouts() {
    let code = "fn child(v: usize) -> usize {\n    2 * v + 2\n}\n";
    for path in [
        "crates/query/src/nav.rs",
        "crates/query/src/wide.rs",
        "crates/tree-layout/src/bst.rs",
    ] {
        let d = src(path, code);
        assert!(
            lints_at(&d, "no-layout-arith-outside-nav").is_empty(),
            "{path}"
        );
    }
}

#[test]
fn layout_arith_ignores_bracketed_rank_unpacking() {
    // `ranks[2 * i + 1]` is rank-pair unpacking, not tree descent.
    let code = "fn f(ranks: &[u32], i: usize) -> u32 {\n    ranks[2 * i + 1]\n}\n";
    let d = src("crates/shard/src/lib.rs", code);
    assert!(lints_at(&d, "no-layout-arith-outside-nav").is_empty());
}

#[test]
fn relaxed_fires_without_comment() {
    let code = "use std::sync::atomic::{AtomicBool, Ordering};\nfn f(b: &AtomicBool) {\n    b.store(true, Ordering::Relaxed);\n}\n";
    let d = src("crates/dynamic/src/x.rs", code);
    assert_eq!(
        lints_at(&d, "relaxed-ordering-needs-justification"),
        vec![3]
    );
}

#[test]
fn relaxed_quiet_with_comment() {
    let code = "fn f(b: &std::sync::atomic::AtomicBool) {\n    // Relaxed: advisory flag, re-checked under the lock.\n    b.store(true, std::sync::atomic::Ordering::Relaxed);\n}\n";
    let d = src("crates/dynamic/src/x.rs", code);
    assert!(lints_at(&d, "relaxed-ordering-needs-justification").is_empty());
}

#[test]
fn serve_unwrap_fires() {
    let code = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert_eq!(lints_at(&d, "serve-no-panic"), vec![2]);
}

#[test]
fn serve_expect_and_panic_fire() {
    let code = "fn f(x: Option<u8>) -> u8 {\n    let v = x.expect(\"x\");\n    if v > 9 { panic!(\"big\") }\n    v\n}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert_eq!(lints_at(&d, "serve-no-panic"), vec![2, 3]);
}

#[test]
fn serve_indexing_fires() {
    let code = "fn f(xs: &[u8]) -> u8 {\n    xs[0]\n}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert_eq!(lints_at(&d, "serve-no-panic"), vec![2]);
}

#[test]
fn serve_quiet_outside_serve_and_in_tests() {
    let code = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    assert!(lints_at(&src("crates/query/src/lib.rs", code), "serve-no-panic").is_empty());
    let test_code = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
    assert!(lints_at(
        &src("crates/serve/src/server.rs", test_code),
        "serve-no-panic"
    )
    .is_empty());
}

#[test]
fn serve_slice_pattern_and_array_literal_not_indexing() {
    let code = "fn f(xs: &[u8]) -> u8 {\n    let [a, b] = [1u8, 2];\n    if let [x, ..] = xs { *x } else { a + b }\n}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert!(lints_at(&d, "serve-no-panic").is_empty());
}

#[test]
fn lint_allow_suppresses_on_same_line() {
    let code = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // LINT-ALLOW(serve-no-panic): fixture — invariant upheld by caller\n}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert!(lints_at(&d, "serve-no-panic").is_empty());
    assert!(lints_at(&d, "bad-lint-allow").is_empty());
}

#[test]
fn lint_allow_suppresses_from_block_above() {
    let code = "fn f(x: Option<u8>) -> u8 {\n    // LINT-ALLOW(serve-no-panic): fixture — value proven present above\n    x.unwrap()\n}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert!(lints_at(&d, "serve-no-panic").is_empty());
}

#[test]
fn lint_allow_does_not_cover_other_lints() {
    let code = "fn f(p: *const u8) -> u8 {\n    // LINT-ALLOW(serve-no-panic): wrong lint named\n    unsafe { *p }\n}\n";
    let d = src("crates/query/src/x.rs", code);
    assert_eq!(lints_at(&d, "unsafe-needs-safety-comment"), vec![3]);
}

#[test]
fn bad_allow_unknown_lint_and_missing_reason() {
    let code = "// LINT-ALLOW(no-such-lint): whatever\nfn f() {}\n// LINT-ALLOW(serve-no-panic)\nfn g() {}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert_eq!(lints_at(&d, "bad-lint-allow"), vec![1, 3]);
}

#[test]
fn reasonless_allow_does_not_suppress() {
    let code = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // LINT-ALLOW(serve-no-panic)\n}\n";
    let d = src("crates/serve/src/server.rs", code);
    assert_eq!(lints_at(&d, "serve-no-panic"), vec![2]);
    assert_eq!(lints_at(&d, "bad-lint-allow"), vec![2]);
}

#[test]
fn non_src_classes_skip_src_only_lints() {
    let code =
        "fn f() {\n    std::thread::spawn(|| {});\n    let c = 2 * 3 + 1;\n    let _ = c;\n}\n";
    for class in [FileClass::Test, FileClass::Example, FileClass::Bench] {
        let d = check_file("crates/dynamic/tests/x.rs", class, code);
        assert!(lints_at(&d, "no-spawn-outside-parallel").is_empty());
    }
}

#[test]
fn classify_by_path_segments() {
    use ist_lint::classify;
    assert_eq!(classify("crates/serve/src/server.rs"), FileClass::Src);
    assert_eq!(classify("crates/dynamic/tests/x.rs"), FileClass::Test);
    assert_eq!(classify("crates/bench/benches/b.rs"), FileClass::Bench);
    assert_eq!(classify("examples/e.rs"), FileClass::Example);
}

fn test_only_pub(files: &[(&str, &str)]) -> Vec<(String, u32)> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    check_test_only_pub(&files)
        .into_iter()
        .map(|d| (d.file, d.line))
        .collect()
}

const PRIMS: &str = "\
pub fn cfg_test_only() {}
pub fn tests_dir_only() {}
pub fn reexported_only() {}
pub fn production() { production(); }
pub struct Used;
pub(crate) fn crate_visible() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::cfg_test_only(); }
}
";

#[test]
fn test_only_pub_reports_items_only_tests_or_reexports_name() {
    let d = test_only_pub(&[
        ("crates/prims/src/lib.rs", PRIMS),
        (
            "crates/prims/tests/t.rs",
            "#[test]\nfn t() { prims::tests_dir_only(); }\n",
        ),
        ("src/lib.rs", "pub use prims::{reexported_only, Used};\n"),
        (
            "examples/e.rs",
            "fn main() { prims::production(); let _ = prims::Used; }\n",
        ),
    ]);
    let at = |line| ("crates/prims/src/lib.rs".to_string(), line);
    // The recursive call inside `production` alone would not have saved it.
    assert_eq!(d, vec![at(1), at(2), at(3)]);
}

#[test]
fn test_only_pub_allow_and_scope() {
    let allowed = "// LINT-ALLOW(test-only-pub): fixture reference\npub fn oracle() {}\n";
    assert!(test_only_pub(&[("crates/prims/src/lib.rs", allowed)]).is_empty());
    // Items outside `crates/*/src` (the facade, examples) are roots, not checked.
    assert!(test_only_pub(&[("src/lib.rs", "pub fn facade_api() {}\n")]).is_empty());
    let recursive = "pub fn walk(n: u32) -> u32 { if n == 0 { 0 } else { walk(n - 1) } }\n";
    assert_eq!(test_only_pub(&[("crates/p/src/a.rs", recursive)]).len(), 1);
}

/// Method scope: a bare `pub fn` in an inherent `impl` whose name only
/// one `fn` in the walk defines.
const METHODS: &str = "\
pub struct S;
impl S {
    pub fn only_tests_call(&self) {}
    pub fn production_calls(&self) {}
    pub fn shared_name(&self) {}
    fn private_helper(&self) {}
    pub(crate) fn crate_visible(&self) {}
}
pub trait T {
    fn shared_name(&self);
}
impl T for u8 {
    fn shared_name(&self) {}
}
impl<F: Fn() -> u8> From<F> for S {
    fn from(_: F) -> S { S }
}
pub fn make(s: &S) { s.production_calls(); }
";

#[test]
fn test_only_pub_reports_unique_inherent_methods_only_tests_name() {
    let tests = "#[test]\nfn t() { let s = p::S; s.only_tests_call(); s.shared_name(); }\n";
    let d = test_only_pub(&[
        ("crates/p/src/lib.rs", METHODS),
        ("crates/p/tests/t.rs", tests),
        ("examples/e.rs", "fn main() { p::make(&p::S); }\n"),
    ]);
    // Not `production_calls` (production names it), not `shared_name`
    // (trait `T` defines a second `fn` of that name), not the private
    // or `pub(crate)` ones.
    let at = |line| ("crates/p/src/lib.rs".to_string(), line);
    assert_eq!(d, vec![at(3)]);
}

#[test]
fn test_only_pub_exempts_a_method_a_test_helper_shares_a_name_with() {
    let tests = "#[test]\nfn t() { p::S.only_tests_call(); }\n";
    let helper = "pub fn only_tests_call() {}\n";
    let d = test_only_pub(&[
        ("crates/p/src/lib.rs", METHODS),
        ("crates/p/tests/t.rs", tests),
        ("crates/p/tests/common/mod.rs", helper),
        ("examples/e.rs", "fn main() { p::make(&p::S); }\n"),
    ]);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn test_only_pub_skips_trait_impl_methods() {
    // `impl Tr for X` bodies are out of scope even when the method name
    // is unique and nothing calls it.
    let code = "pub trait Tr { fn unique_in_trait(&self); }\npub struct X;\nimpl Tr for X {\n    fn unique_in_trait(&self) {}\n}\n";
    let e = "fn main() { let _: &dyn p::Tr = &p::X; }\n";
    assert!(test_only_pub(&[("crates/p/src/lib.rs", code), ("examples/e.rs", e)]).is_empty());
    // `impl` inside a signature does not make the fn body an impl block.
    let sig = "pub fn takes(f: impl Fn()) {\n    pub fn nested_unique() {}\n    f()\n}\n";
    let e = "fn main() { p::takes(|| {}); }\n";
    assert!(test_only_pub(&[("crates/p/src/lib.rs", sig), ("examples/e.rs", e)]).is_empty());
}

#[test]
fn test_only_pub_allow_suppresses_a_method() {
    let code = "pub struct S;\nimpl S {\n    /// Harness hook.\n    // LINT-ALLOW(test-only-pub): fixture harness hook\n    pub fn hook(&self) {}\n}\n";
    let e = "fn main() { let _ = p::S; }\n";
    assert!(test_only_pub(&[("crates/p/src/lib.rs", code), ("examples/e.rs", e)]).is_empty());
    let bare = code.replace(
        "    // LINT-ALLOW(test-only-pub): fixture harness hook\n",
        "",
    );
    assert_eq!(
        test_only_pub(&[("crates/p/src/lib.rs", &bare), ("examples/e.rs", e)]),
        vec![("crates/p/src/lib.rs".to_string(), 4)]
    );
}

#[test]
fn test_only_pub_does_not_count_an_inherent_impl_header_as_a_use() {
    let code = "\
pub struct OnlyOwnImpl(u8);
impl OnlyOwnImpl {
    fn helper(&self) {}
}
pub struct Generic<F>(F);
impl<F: Fn() -> u8> self::Generic<F> where F: Copy {
    fn call(&self) -> u8 { (self.0)() }
}
pub trait Tr {}
pub struct Implementor;
impl Tr for Implementor {}
";
    let d = test_only_pub(&[
        ("crates/p/src/lib.rs", code),
        ("examples/e.rs", "fn main() {}\n"),
    ]);
    // `impl Tr for Implementor` still names both of its types.
    let at = |line| ("crates/p/src/lib.rs".to_string(), line);
    assert_eq!(d, vec![at(1), at(5)]);
}
