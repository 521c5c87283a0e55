//! Where the benchmark runs: the stamp every output carries, the
//! scratch directory, and the `serve` binary of the program under test.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Target features the benchmark (and, built with the same flags, the
/// server) was compiled with that change which kernels run.
fn target_features() -> String {
    let mut on = Vec::new();
    for (name, enabled) in [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ] {
        if enabled {
            on.push(name);
        }
    }
    if on.is_empty() {
        "none".into()
    } else {
        on.join("+")
    }
}

/// The commit of the checkout at `root`, or `unknown` outside git.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None => head.to_string(),
    };
    hash.chars().take(12).collect()
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "unknown".into(),
            |s| s.trim().replace(' ', "_").replace(['(', ')'], ""),
        )
}

/// What every output is stamped with.
pub fn stamp(root: &Path, seed: u64) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("commit".into(), commit(root)),
        ("nproc".into(), nproc.to_string()),
        (
            "IST_PARALLEL".into(),
            std::env::var("IST_PARALLEL").unwrap_or_else(|_| "unset".into()),
        ),
        ("rustc".into(), rustc_version()),
        ("features".into(), target_features()),
        ("fsync".into(), "always".into()),
        ("seed".into(), seed.to_string()),
    ]
}

/// The directory this executable was built into (`<target>/<profile>`).
fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "the executable has no parent directory".into())
}

/// `<target>/bench`: where the benchmark keeps its own files, inside the
/// checkout and named by `.gitignore`.
fn bench_dir() -> Result<PathBuf, String> {
    let dir = exe_dir()?.join("..").join("bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A fresh, empty scratch directory for `workload`.
pub fn scratch_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = bench_dir()?.join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Where span files go: `<target>/bench/trace-<workload>.jsonl`.
pub fn trace_path(workload: &str) -> Result<PathBuf, String> {
    Ok(bench_dir()?.join(format!("trace-{workload}.jsonl")))
}

/// The repository's own `serve` binary, next to this executable. The
/// server is the program under test: this package compiles it from
/// `crates/serve/src/bin/serve.rs` (see `Cargo.toml`) with the profile
/// and flags of the benchmark itself, and `perfbench/run.sh` and
/// `cargo test` build it along with `bench`.
pub fn serve_binary() -> Result<PathBuf, String> {
    let bin = exe_dir()?.join("serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing: run through perfbench/run.sh, or build with `cargo build --bins`",
            bin.display()
        ))
    }
}
