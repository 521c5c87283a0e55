//! Standalone server: `serve [--addr 127.0.0.1:0] [--shards 4]
//! [--preload 0] [--data-dir DIR] [--fsync always|never]`.
//!
//! Without `--data-dir` the map is memory-only. With it, the server is
//! durable: an existing store directory (one whose `SHARDS` root file
//! is present) is **reopened** — manifest, run files, WAL-tail replay —
//! and `--preload`/`--shards` are ignored in favor of the recovered
//! state; a fresh directory gets the preloaded map persisted into it.
//! `--fsync` sets the WAL acknowledgement policy (`always` is the
//! default and the only setting under which every acknowledged write
//! survives an OS crash; see the README's durability contract).
//!
//! Preloads `--preload` sequential keys (little-endian value = key),
//! prints the bound address and the served map's size on stdout
//! (`listening on <addr> (<n> shards, <m> keys)`), and serves until
//! killed.

use std::net::TcpListener;
use std::path::{Path, PathBuf};

use ist_core::Layout;
use ist_serve::{serve_on, ServeMap, Value};
use ist_store::{FsyncPolicy, StoreConfig, SHARDS_NAME};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--shards N] [--preload N] \
         [--data-dir DIR] [--fsync always|never]"
    );
    std::process::exit(2)
}

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut shards = 4usize;
    let mut preload = 0usize;
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = val(),
            "--shards" => shards = val().parse().unwrap_or_else(|_| usage()),
            "--preload" => preload = val().parse().unwrap_or_else(|_| usage()),
            "--data-dir" => data_dir = Some(PathBuf::from(val())),
            "--fsync" => fsync = FsyncPolicy::parse(&val()).unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }

    let map = match &data_dir {
        Some(dir) if dir.join(SHARDS_NAME).exists() => {
            let map = ServeMap::open_with(dir, StoreConfig::new().fsync(fsync))
                .unwrap_or_else(|e| fatal(dir, "open", &e));
            println!(
                "recovered {} keys across {} shards from {}",
                map.len(),
                map.shard_count(),
                dir.display()
            );
            map
        }
        _ => {
            let keys: Vec<u64> = (0..preload as u64).collect();
            let vals: Vec<Value> = keys
                .iter()
                .map(|k| Value::from(k.to_le_bytes().as_slice()))
                .collect();
            let mut map = ServeMap::build(keys, vals, Layout::Veb, shards.max(1))
                // LINT-ALLOW(serve-no-panic): CLI startup path —
                // aborting on a bad configuration is correct.
                .expect("valid build configuration");
            if let Some(dir) = &data_dir {
                map.persist_to(dir, StoreConfig::new().fsync(fsync))
                    .unwrap_or_else(|e| fatal(dir, "persist to", &e));
                println!("persisting to {}", dir.display());
            }
            map
        }
    };

    // LINT-ALLOW(serve-no-panic): startup path — failing to bind or to
    // start serving must abort the process before it takes traffic.
    let listener = TcpListener::bind(&addr).expect("bind");
    // What is actually served: a recovered store overrides the flags.
    let (shards, keys) = (map.shard_count(), map.len());
    // LINT-ALLOW(serve-no-panic): same startup argument as `bind`.
    let handle = serve_on(listener, map).expect("serve");
    println!(
        "listening on {} ({shards} shards, {keys} keys)",
        handle.addr()
    );
    loop {
        std::thread::park();
    }
}

fn fatal(dir: &Path, action: &str, err: &dyn std::fmt::Display) -> ! {
    eprintln!("serve: cannot {action} {}: {err}", dir.display());
    std::process::exit(1)
}
