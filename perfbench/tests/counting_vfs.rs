//! The counting `Vfs` wrapper must agree with the store's own
//! accounting: on a fixed list of operations its written-byte total
//! equals `MemVfs::total_written`.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use implicit_search_trees::store::{MemVfs, StoreConfig, Vfs};
use implicit_search_trees::{DynamicMap, Layout};
use ist_perfbench::counting_vfs::CountingVfs;

#[test]
fn written_bytes_equal_memvfs_total_on_raw_operations() {
    let mem = MemVfs::new();
    let vfs = CountingVfs::new(Arc::new(mem.clone()));
    let counters = vfs.counters();
    vfs.create_dir_all(Path::new("d")).unwrap();
    let mut a = vfs.create(Path::new("d/a")).unwrap();
    a.write_all(&[1u8; 1000]).unwrap();
    a.sync().unwrap();
    a.write_all(&[2u8; 234]).unwrap();
    drop(a);
    let mut b = vfs.create(Path::new("d/b")).unwrap();
    b.write_all(b"hello").unwrap();
    b.sync().unwrap();
    drop(b);
    vfs.rename(Path::new("d/b"), Path::new("d/c")).unwrap();
    vfs.sync_dir(Path::new("d")).unwrap();
    assert_eq!(vfs.read(Path::new("d/c")).unwrap(), b"hello");
    vfs.remove_file(Path::new("d/a")).unwrap();

    let seen = counters.snapshot();
    assert_eq!(seen.bytes_written, 1239);
    assert_eq!(seen.bytes_written, mem.total_written());
    assert_eq!(seen.bytes_read, 5);
    assert_eq!(
        (
            seen.files_created,
            seen.file_syncs,
            seen.dir_syncs,
            seen.renames,
            seen.files_removed
        ),
        (2, 2, 1, 1, 1)
    );
}

#[test]
fn written_bytes_equal_memvfs_total_under_a_persisted_map() {
    let mem = MemVfs::new();
    let vfs = CountingVfs::new(Arc::new(mem.clone()));
    let counters = vfs.counters();
    let config = StoreConfig::with_vfs(Arc::new(vfs));

    let mut map: DynamicMap<u64, Vec<u8>> = DynamicMap::new(Layout::Veb);
    map.batch_insert(
        (0..2000u64)
            .map(|k| (k, k.to_le_bytes().to_vec()))
            .collect(),
    );
    map.persist_to("db", config.clone()).unwrap();
    for round in 0..40u64 {
        map.batch_insert(
            (0..100u64)
                .map(|i| (round * 37 + i * 11, vec![round as u8; 16]))
                .collect(),
        );
        map.batch_remove(&[round, round + 1000]);
    }
    map.quiesce();
    map.flush().unwrap();
    let live = map.len();
    drop(map);
    assert_eq!(counters.snapshot().bytes_written, mem.total_written());

    // Recovery reads through the same wrapper, and finds the same map.
    let before = counters.snapshot();
    let reopened = DynamicMap::<u64, Vec<u8>>::open_with("db", config).unwrap();
    assert_eq!(reopened.len(), live);
    assert!(counters.snapshot().since(&before).bytes_read > 0);
    assert_eq!(counters.snapshot().bytes_written, mem.total_written());
}
