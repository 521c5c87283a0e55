//! The served map's durable store: a store that a
//! `ShardedMap<u64, Vec<u8>>` wrote — the `serve --data-dir` map before
//! values were held inline — reopens as a [`ServeMap`], and the two
//! value types write byte-identical run and WAL files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ist_core::Layout;
use ist_serve::{ServeMap, Value};
use ist_shard::ShardedMap;
use ist_store::{FsyncPolicy, StoreConfig};

/// Values on both sides of the inline limit: 0, 8, 22, 23, 300 bytes.
fn value(seed: u64) -> Vec<u8> {
    let len = [0, 8, 22, 23, 300][(seed % 5) as usize];
    (0..len).map(|i| ((seed as usize * 31) ^ i) as u8).collect()
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

#[test]
fn vec_u8_store_reopens_as_serve_map_with_identical_bytes_and_answers() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_store");
    let _ = std::fs::remove_dir_all(&root);
    let (vec_dir, value_dir) = (root.join("vec"), root.join("value"));
    let cfg = || StoreConfig::new().fsync(FsyncPolicy::Never);

    // One bulk run per shard (persisted), then a WAL of inserts and
    // removes — far below a checkpoint, so the files are exactly what
    // `persist_to` and the WAL appends wrote.
    let keys: Vec<u64> = (0..2_000).map(|k| 3 * k).collect();
    let inserts: Vec<(u64, Vec<u8>)> = (0..600).map(|i| (7 * i + 1, value(i + 11))).collect();
    let removes: Vec<u64> = (0..100).map(|i| 6 * i).collect();
    let mut model: BTreeMap<u64, Vec<u8>> = keys.iter().map(|&k| (k, value(k))).collect();
    model.extend(inserts.iter().cloned());
    for k in &removes {
        model.remove(k);
    }

    let vals = keys.iter().map(|&k| value(k)).collect();
    let mut old: ShardedMap<u64, Vec<u8>> =
        ShardedMap::build(keys.clone(), vals, Layout::Veb, 2).unwrap();
    old.persist_to(&vec_dir, cfg()).unwrap();
    old.batch_insert(inserts.clone());
    old.batch_remove(&removes);
    drop(old);

    let vals = keys.iter().map(|&k| Value::from(value(k))).collect();
    let mut new = ServeMap::build(keys, vals, Layout::Veb, 2).unwrap();
    new.persist_to(&value_dir, cfg()).unwrap();
    new.batch_insert(
        inserts
            .into_iter()
            .map(|(k, v)| (k, Value::from(v)))
            .collect(),
    );
    new.batch_remove(&removes);
    drop(new);

    let (old_files, new_files) = (files(&vec_dir), files(&value_dir));
    assert_eq!(
        old_files.keys().collect::<Vec<_>>(),
        new_files.keys().collect::<Vec<_>>()
    );
    assert!(old_files
        .keys()
        .any(|p| p.to_string_lossy().contains("wal")));
    for (path, bytes) in &old_files {
        assert!(bytes == &new_files[path], "{} differs", path.display());
    }

    let reopened = ServeMap::open_with(&vec_dir, cfg()).unwrap();
    assert_eq!(reopened.len(), model.len());
    let probes: Vec<u64> = (0..6_500).collect();
    for (k, got) in probes.iter().zip(reopened.batch_get(&probes)) {
        assert_eq!(
            got.map(Value::as_bytes),
            model.get(k).map(Vec::as_slice),
            "get({k})"
        );
    }
    let ranks: Vec<usize> = probes.iter().map(|k| model.range(..k).count()).collect();
    assert_eq!(reopened.batch_rank(&probes), ranks);
}
