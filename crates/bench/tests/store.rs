//! Crash-safety and flush contracts of the result store, plus its
//! integration with the sweep runner.

use ruche_bench::store::ResultStore;
use ruche_bench::sweep::{SweepJob, MODEL_VERSION};
use ruche_bench::SweepRunner;
use ruche_noc::prelude::*;
use ruche_traffic::{Pattern, SweepRequest, TbResult, Testbench};
use std::path::{Path, PathBuf};

/// A fresh scratch directory per test case (no tempfile dependency).
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruche-store-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The keys of a store file's lines, in file order.
fn file_keys(path: &Path) -> Vec<String> {
    std::fs::read_to_string(path)
        .expect("store file")
        .lines()
        .map(|l| l.split_once('\t').expect("a key\tvalue line").0.to_string())
        .collect()
}

/// Asserts `keys` are strictly ascending: sorted and free of duplicates.
fn assert_sorted_unique(keys: &[String]) {
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "keys sorted and deduplicated"
    );
}

fn sample(seed: u64) -> TbResult {
    TbResult {
        offered: 0.1 + seed as f64 / 100.0,
        accepted: 0.099,
        avg_latency: 7.25,
        p99_latency: 19.0,
        delivered: 1000 + seed,
        lost: 0,
        per_tile_latency: Vec::new(),
        saturated: false,
    }
}

#[test]
fn entries_survive_a_reopen_byte_identically() {
    let dir = scratch("reopen");
    let store = ResultStore::open(&dir);
    for i in 0..20 {
        store.put(&format!("v1|key-{i}"), &sample(i));
    }
    store.flush();
    let reopened = ResultStore::open(&dir);
    assert_eq!(reopened.len(), 20);
    for i in 0..20 {
        let key = format!("v1|key-{i}");
        assert_eq!(reopened.get_raw(&key), store.get_raw(&key), "bytes");
        assert_eq!(reopened.get(&key).unwrap(), sample(i), "decoded value");
    }
}

#[test]
fn a_simulated_mid_write_crash_loses_at_most_the_torn_tail() {
    let dir = scratch("crash");
    let store = ResultStore::open(&dir);
    for i in 0..16 {
        store.put(&format!("v1|crash-{i}"), &sample(i));
    }
    store.flush();

    // Simulate a crashed *non-atomic* writer: the store file with a torn
    // final line, and a leftover temporary from an interrupted flush.
    let file = dir.join("store.tsv");
    let body = std::fs::read_to_string(&file).expect("flushed store");
    std::fs::write(
        &file,
        format!("{body}v1|torn-key\t{{\"result_version\":1,\"off"),
    )
    .unwrap();
    std::fs::write(dir.join("store.tmp.99999"), "half a flush").unwrap();

    // Every complete entry survives; the torn tail reads as absent.
    let recovered = ResultStore::open(&dir);
    assert_eq!(recovered.len(), 16, "no complete entry lost");
    for i in 0..16 {
        assert_eq!(recovered.get(&format!("v1|crash-{i}")).unwrap(), sample(i));
    }
    assert!(recovered.get_raw("v1|torn-key").is_none());

    // The next flush rewrites the whole file: whole, sorted, complete.
    recovered.put("v1|crash-16", &sample(16));
    recovered.flush();
    let keys = file_keys(&file);
    assert_eq!(keys.len(), 17);
    assert_sorted_unique(&keys);
    let healed = ResultStore::open(&dir);
    assert_eq!(healed.len(), 17);
    for i in 0..17 {
        assert_eq!(healed.get(&format!("v1|crash-{i}")).unwrap(), sample(i));
    }
}

#[test]
fn flush_preserves_every_entry_byte_identically() {
    let dir = scratch("flush");
    let store = ResultStore::open(&dir);
    for i in 0..32 {
        store.put(&format!("v1|flush-{i}"), &sample(i));
    }
    // A value from a future schema: must ride through a flush untouched
    // even though this build cannot decode it.
    store.put_raw(
        "v1|from-the-future",
        "{\"result_version\":99,\"zeta\":[1,2,3]}".into(),
    );
    let before: Vec<(String, String)> = (0..32)
        .map(|i| format!("v1|flush-{i}"))
        .chain(["v1|from-the-future".to_string()])
        .map(|k| (k.clone(), store.get_raw(&k).unwrap()))
        .collect();

    store.flush();
    let after = ResultStore::open(&dir);
    assert_eq!(after.len(), 33);
    for (k, raw) in &before {
        assert_eq!(after.get_raw(k).as_ref(), Some(raw), "{k}");
    }
    assert!(after.get("v1|from-the-future").is_none(), "foreign = miss");

    // The flushed file is sorted and duplicate-free.
    let keys = file_keys(&dir.join("store.tsv"));
    assert_eq!(keys.len(), 33);
    assert_sorted_unique(&keys);
}

#[test]
fn concurrent_writers_never_lose_an_entry() {
    let dir = scratch("concurrent");
    let store = ResultStore::open(&dir);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let store = &store;
            s.spawn(move || {
                for i in 0..25u64 {
                    store.put(&format!("v1|t{t}-{i}"), &sample(t * 100 + i));
                }
            });
        }
    });
    assert_eq!(store.len(), 100);
    store.flush();
    let reopened = ResultStore::open(&dir);
    assert_eq!(reopened.len(), 100);
    for t in 0..4u64 {
        for i in 0..25u64 {
            assert_eq!(
                reopened.get(&format!("v1|t{t}-{i}")).unwrap(),
                sample(t * 100 + i)
            );
        }
    }
}

#[test]
fn cache_key_is_the_versioned_canonical_request_rendering() {
    // The wire key every store entry is filed under: old stores stay
    // readable only while this rendering is unchanged.
    let tb = Testbench::builder(Pattern::Tornado, 0.2).build().unwrap();
    let job = SweepJob::new(NetworkConfig::mesh(Dims::new(4, 4)), tb.clone());
    let expect = format!(
        "{MODEL_VERSION}|{}",
        SweepRequest::new(job.cfg.clone(), tb).cache_key()
    );
    assert_eq!(job.cache_key(), expect);
    assert!(job.cache_key().starts_with("v1|{\"key_version\":1,"));
}

#[test]
fn the_committed_store_holds_only_reachable_keys() {
    // Every committed entry must be reachable from the canonical key
    // space (`SweepJob::cache_key`); anything else is dead weight that
    // every `ResultStore::open` parses for nothing.
    let prefix = format!(
        "{MODEL_VERSION}|{{\"key_version\":{},",
        SweepRequest::KEY_VERSION
    );
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/sweep_store/store.tsv");
    let keys = file_keys(&path);
    for key in &keys {
        assert!(key.starts_with(&prefix), "unreachable key {key:.80}");
    }
    assert_sorted_unique(&keys);
    assert!(!keys.is_empty(), "the committed store is empty");
}

#[test]
fn runners_sharing_a_store_turn_repeat_batches_into_hits() {
    let dir = scratch("runner");
    let store = std::sync::Arc::new(ResultStore::open(&dir));
    let tb = Testbench::builder(Pattern::UniformRandom, 0.05)
        .quick()
        .build()
        .unwrap();
    let jobs: Vec<SweepJob> = [4u16, 6]
        .iter()
        .map(|&n| SweepJob::new(NetworkConfig::mesh(Dims::new(n, n)), tb.clone()))
        .collect();

    let mut first = SweepRunner::uncached(2).with_store(store.clone());
    let cold = first.run_all(&jobs);
    assert_eq!(first.simulated, 2);
    assert_eq!(first.cache_hits, 0);

    let mut second = SweepRunner::uncached(2).with_store(store.clone());
    let warm = second.run_all(&jobs);
    assert_eq!(second.simulated, 0, "everything served from the store");
    assert_eq!(second.cache_hits, 2);
    for (a, b) in cold.iter().zip(&warm) {
        // The store persists scalar aggregates only (per-tile data is
        // scrubbed); every scalar must round-trip bit-exactly.
        let scrubbed = TbResult {
            per_tile_latency: Vec::new(),
            ..a.clone()
        };
        assert_eq!(&scrubbed, b, "store round-trip is exact");
    }

    // And the streaming sink sees every job exactly once.
    let seen = std::sync::Mutex::new(Vec::new());
    let mut third = SweepRunner::uncached(2).with_store(store);
    third.run_all_with(&jobs, |i, res| {
        seen.lock().unwrap().push((i, res.clone()));
    });
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|(i, _)| *i);
    assert_eq!(seen.len(), jobs.len());
    for (k, (i, res)) in seen.iter().enumerate() {
        assert_eq!(k, *i);
        assert_eq!(res, &warm[*i]);
    }
}
