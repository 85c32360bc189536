//! Property-based tests (proptest) over the core data structures and storage
//! engines: every engine must behave like a simple in-memory map under random
//! operation sequences, the batch-first API (`multi_get` / `multi_rmw` /
//! `gather` / `apply_gradients`) must be byte-identical to the per-key loop it
//! replaced on every backend, and the MLKV record word / codecs must
//! round-trip.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use mlkv::codec::{decode_vector, encode_vector};
use mlkv::record_word::RecordWord;
use mlkv::{open_store, BackendKind, EmbeddingTable};
use mlkv_lsm::BloomFilter;
use mlkv_storage::kv::ReadSource;
use mlkv_storage::{KvStore, StoreConfig};

/// A randomly generated key-value operation.
#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64, proptest::collection::vec(any::<u8>(), 1..48)).prop_map(|(k, v)| Op::Put(k, v)),
        (0u64..64).prop_map(Op::Delete),
        (0u64..64).prop_map(Op::Get),
    ]
}

fn check_engine_against_model(backend: BackendKind, ops: &[Op]) {
    let store = open_store(
        backend,
        StoreConfig::in_memory()
            .with_memory_budget(16 << 10)
            .with_page_size(2 << 10)
            .with_index_buckets(64),
    )
    .unwrap();
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                store.put(*k, v).unwrap();
                model.insert(*k, v.clone());
            }
            Op::Delete(k) => {
                store.delete(*k).unwrap();
                model.remove(k);
            }
            Op::Get(k) => match (store.get(*k), model.get(k)) {
                (Ok(actual), Some(expected)) => assert_eq!(&actual, expected),
                (Err(e), None) => assert!(e.is_not_found()),
                (actual, expected) => {
                    panic!(
                        "{}: mismatch for key {k}: {actual:?} vs {expected:?}",
                        backend.name()
                    )
                }
            },
        }
    }
    // Final state check for every key ever touched.
    for k in 0..64u64 {
        match (store.get(k), model.get(&k)) {
            (Ok(actual), Some(expected)) => assert_eq!(&actual, expected),
            (Err(e), None) => assert!(e.is_not_found()),
            (actual, expected) => {
                panic!(
                    "{}: final mismatch for key {k}: {actual:?} vs {expected:?}",
                    backend.name()
                )
            }
        }
    }
}

fn small_store(backend: BackendKind) -> Arc<dyn KvStore> {
    open_store(
        backend,
        StoreConfig::in_memory()
            .with_memory_budget(16 << 10)
            .with_page_size(2 << 10)
            .with_index_buckets(64),
    )
    .unwrap()
}

/// `multi_get`, `multi_rmw` and `exists` must be byte-identical to the
/// per-key loop on every backend, including absent and freshly-written keys.
fn check_batch_matches_per_key(backend: BackendKind, present: &[u64], probes: &[u64]) {
    let batched = small_store(backend);
    let per_key = small_store(backend);
    for (i, k) in present.iter().enumerate() {
        batched.put(*k, &[i as u8; 24]).unwrap();
        per_key.put(*k, &[i as u8; 24]).unwrap();
    }

    let batch_results = batched.multi_get(probes);
    for (k, result) in probes.iter().zip(&batch_results) {
        match per_key.get(*k) {
            Ok(expected) => assert_eq!(
                result.as_ref().unwrap(),
                &expected,
                "{}: multi_get({k})",
                backend.name()
            ),
            Err(e) => {
                assert!(e.is_not_found());
                assert!(
                    result.as_ref().unwrap_err().is_not_found(),
                    "{}: multi_get({k}) should be not-found",
                    backend.name()
                );
            }
        }
        assert_eq!(
            batched.exists(*k).unwrap(),
            per_key.exists(*k).unwrap(),
            "{}: exists({k})",
            backend.name()
        );
    }

    // Identical rmw programs, one batched and one per-key: final state must
    // be byte-identical for every key ever touched.
    let append = |i: usize, cur: Option<&[u8]>| -> Vec<u8> {
        let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
        v.push(i as u8);
        v.truncate(32);
        v
    };
    let batch_out = batched.multi_rmw(probes, &append).unwrap();
    let mut loop_out = Vec::with_capacity(probes.len());
    for (i, k) in probes.iter().enumerate() {
        loop_out.push(per_key.rmw(*k, &|cur| append(i, cur)).unwrap());
    }
    assert_eq!(batch_out, loop_out, "{}: multi_rmw returns", backend.name());
    for k in present.iter().chain(probes) {
        assert_eq!(
            batched.get(*k).ok(),
            per_key.get(*k).ok(),
            "{}: final state of {k}",
            backend.name()
        );
    }
}

/// `gather` / `apply_gradients` must leave a table in a byte-identical state
/// to the per-key `get_one` / `rmw_one` loop, on every backend.
fn check_table_batch_matches_per_key(backend: BackendKind, keys: &[u64], seed: u64) {
    let table_for = |backend| {
        EmbeddingTable::builder(small_store(backend))
            .dim(4)
            .staleness_bound(u32::MAX)
            .seed(seed)
            .build()
            .unwrap()
    };
    let batched = table_for(backend);
    let per_key = table_for(backend);

    // Gather initialises unseen keys exactly like sequential get_ones.
    let gathered = batched.gather(keys).unwrap();
    let singles: Vec<Vec<f32>> = keys.iter().map(|k| per_key.get_one(*k).unwrap()).collect();
    assert_eq!(gathered, singles, "{}: gather", backend.name());

    // One gradient per unique key (trainers deduplicate), applied batched on
    // one table and per-key on the other.
    let mut unique: Vec<u64> = keys.to_vec();
    unique.sort_unstable();
    unique.dedup();
    let grads: Vec<Vec<f32>> = unique
        .iter()
        .map(|k| vec![(*k % 7) as f32 * 0.5; 4])
        .collect();
    let updates: Vec<(u64, &[f32])> = unique
        .iter()
        .zip(&grads)
        .map(|(k, g)| (*k, g.as_slice()))
        .collect();
    batched.apply_gradients(&updates, 0.1).unwrap();
    for (k, g) in unique.iter().zip(&grads) {
        per_key
            .rmw_one(*k, |v| {
                for (x, gi) in v.iter_mut().zip(g) {
                    *x -= 0.1 * gi;
                }
            })
            .unwrap();
    }
    for k in &unique {
        assert_eq!(
            batched.get_one(*k).unwrap(),
            per_key.get_one(*k).unwrap(),
            "{}: state of {k} after gradients",
            backend.name()
        );
    }
}

/// FASTER's `multi_promote` on a 16-bucket index (every chain collides
/// heavily) with hot, cold, tombstoned, absent and duplicate keys in one
/// batch: it promotes exactly the live disk-resident keys, changes no value,
/// and leaves the promoted keys — and the keys already in the mutable region,
/// which a batch's appends cannot push out of memory — readable without a
/// device read. (Keys in the immutable in-memory region are skipped too, and
/// the batch's appends may evict them: the paper promotes only from disk.)
fn check_multi_promote(parallelism: usize, probes: &[u64], deleted: &[u64]) {
    const KEYS: u64 = 4000;
    let value_of = |k: u64| -> Vec<u8> { (0..32u64).map(|i| (k * 31 + i) as u8).collect() };
    let store = mlkv_faster::FasterKv::open(
        StoreConfig::in_memory()
            .with_memory_budget(64 << 10)
            .with_page_size(1 << 10)
            .with_index_buckets(16)
            .with_parallelism(parallelism),
    )
    .unwrap();
    for k in 0..KEYS {
        store.put(k, &value_of(k)).unwrap();
    }
    for &k in deleted {
        store.delete(k).unwrap();
    }
    let mut unique = probes.to_vec();
    unique.sort_unstable();
    unique.dedup();
    let mut live: Vec<(u64, Vec<u8>)> = Vec::new();
    let (mut cold, mut resident) = (0, Vec::new());
    for &k in &unique {
        match store.get_traced(k) {
            Ok(read) => {
                match read.source {
                    ReadSource::Disk => cold += 1,
                    ReadSource::HotMemory => {}
                    ReadSource::ColdMemory => {
                        live.push((k, read.value));
                        continue;
                    }
                }
                resident.push((k, read.value.clone()));
                live.push((k, read.value));
            }
            Err(e) => assert!(e.is_not_found(), "key {k}: {e}"),
        }
    }
    assert!(live.iter().all(|(k, v)| *v == value_of(*k)));

    let promoted = store.multi_promote(probes).unwrap();
    assert_eq!(promoted, cold, "parallelism {parallelism}");

    let resident_keys: Vec<u64> = resident.iter().map(|(k, _)| *k).collect();
    let bytes_before = store.metrics().snapshot().disk_read_bytes;
    let after = store.multi_get(&resident_keys);
    assert_eq!(
        store.metrics().snapshot().disk_read_bytes,
        bytes_before,
        "promoted keys must be memory-resident (parallelism {parallelism})"
    );
    for ((k, before), after) in resident.iter().zip(after) {
        assert_eq!(&after.unwrap(), before, "key {k}");
    }
    for (k, result) in unique.iter().zip(store.multi_get(&unique)) {
        match live.binary_search_by_key(k, |(key, _)| *key) {
            Ok(i) => assert_eq!(result.unwrap(), live[i].1, "key {k}"),
            Err(_) => assert!(result.unwrap_err().is_not_found(), "key {k}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn faster_engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check_engine_against_model(BackendKind::Faster, &ops);
    }

    #[test]
    fn lsm_engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check_engine_against_model(BackendKind::RocksDbLike, &ops);
    }

    #[test]
    fn btree_engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check_engine_against_model(BackendKind::WiredTigerLike, &ops);
    }

    #[test]
    fn batch_storage_api_matches_per_key_on_every_backend(
        present in proptest::collection::vec(0u64..48, 0..24),
        probes in proptest::collection::vec(0u64..64, 1..24),
    ) {
        for backend in BackendKind::ALL {
            check_batch_matches_per_key(backend, &present, &probes);
        }
    }

    #[test]
    fn batch_table_api_matches_per_key_on_every_backend(
        keys in proptest::collection::vec(0u64..64, 1..24),
        seed in any::<u64>(),
    ) {
        for backend in BackendKind::ALL {
            check_table_batch_matches_per_key(backend, &keys, seed);
        }
    }

    #[test]
    fn faster_multi_promote_promotes_exactly_the_cold_live_keys(
        probes in proptest::collection::vec(0u64..4400, 200..500),
        deleted in proptest::collection::vec(0u64..4000, 0..40),
    ) {
        for parallelism in [1, 4] {
            check_multi_promote(parallelism, &probes, &deleted);
        }
    }

    #[test]
    fn record_word_pack_unpack_roundtrips(
        locked in any::<bool>(),
        replaced in any::<bool>(),
        generation in 0u32..(1 << 30),
        staleness in any::<u32>(),
    ) {
        let word = RecordWord { locked, replaced, generation, staleness };
        prop_assert_eq!(RecordWord::unpack(word.pack()), word);
    }

    #[test]
    fn embedding_codec_roundtrips(values in proptest::collection::vec(-1000.0f32..1000.0, 0..64)) {
        let bytes = encode_vector(&values);
        prop_assert_eq!(decode_vector(&bytes, values.len()).unwrap(), values);
    }

    #[test]
    fn bloom_filter_has_no_false_negatives(keys in proptest::collection::hash_set(any::<u64>(), 1..200)) {
        let mut bloom = BloomFilter::new(keys.len(), 10);
        for k in &keys {
            bloom.insert(*k);
        }
        for k in &keys {
            prop_assert!(bloom.may_contain(*k));
        }
    }

    #[test]
    fn embedding_table_get_put_roundtrips(
        keys in proptest::collection::vec(any::<u64>(), 1..32),
        seed in any::<u64>(),
    ) {
        let model = mlkv::Mlkv::builder("prop-table")
            .dim(4)
            .staleness_bound(u32::MAX)
            .seed(seed)
            .memory_budget(1 << 20)
            .build()
            .unwrap();
        for (i, k) in keys.iter().enumerate() {
            model.put_one(*k, &[i as f32; 4]).unwrap();
        }
        // The last write to each key wins.
        let mut last: HashMap<u64, usize> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            last.insert(*k, i);
        }
        for (k, i) in last {
            prop_assert_eq!(model.get_one(k).unwrap(), vec![i as f32; 4]);
        }
    }
}
