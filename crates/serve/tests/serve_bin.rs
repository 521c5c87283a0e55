//! The `serve` binary's start-up line, which `perfbench/` and operators
//! parse.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// Start `serve` with `args`, take its `listening on` line, kill it.
fn banner(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let line = stdout
        .lines()
        .map_while(Result::ok)
        .find(|l| l.starts_with("listening on "));
    child.kill().expect("kill serve");
    child.wait().expect("reap serve");
    line.expect("serve exited before `listening on`")
}

/// The line reports the map being served. On the `--data-dir` reopen
/// path that is the recovered state: `--shards` / `--preload` (here
/// their defaults, 4 and 0) are ignored, and must not be echoed.
#[test]
fn banner_reports_the_served_map_not_the_flags() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_banner");
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().expect("utf-8 target dir");

    let fresh = banner(&["--shards", "2", "--preload", "100", "--data-dir", dir]);
    assert!(fresh.ends_with(" (2 shards, 100 keys)"), "{fresh}");
    let reopened = banner(&["--data-dir", dir]);
    assert!(reopened.ends_with(" (2 shards, 100 keys)"), "{reopened}");
}
