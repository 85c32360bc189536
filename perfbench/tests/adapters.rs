//! The adapters are pass-through: a fixed synchronous-update training run
//! leaves byte-identical rows whether its spans are recorded or not, and
//! whether the adapters are installed at all.

use std::sync::Arc;

use mlkv::{open_store, BackendKind, EmbeddingTable};
use mlkv_storage::kv::Key;
use mlkv_storage::{DurabilityMode, IoBackend, KvStore, StoreConfig};
use mlkv_trainer::{
    KgeModelKind, KgeTrainer, KgeTrainerConfig, PrefetchMode, TrainerOptions, UpdateMode,
};
use mlkv_workloads::kg::KgConfig;
use perfbench::adapters::{DeviceStack, SsdModel, TracedStore};
use perfbench::report::data_dir;
use perfbench::trace::Tracer;

const DIM: usize = 8;

/// How the store under the table is built.
enum Wiring {
    /// No adapters: the store opens its own devices.
    Bare,
    /// Both adapters, with span recording on or off.
    Adapted { traced: bool },
}

/// Train a small graph with synchronous updates over a 64 KiB buffer (so
/// gathers read the device) and return every row's stored bytes.
fn train(wiring: Wiring, name: &str) -> (Vec<Vec<u8>>, usize) {
    let dir = data_dir(name);
    let tracer = Arc::new(Tracer::new());
    let mut config = StoreConfig::on_disk(&dir)
        .with_memory_budget(64 << 10)
        .with_io_backend(IoBackend::Sync)
        .with_durability(DurabilityMode::None)
        .with_parallelism(2)
        .with_write_shards(2);
    let store: Arc<dyn KvStore> = match wiring {
        Wiring::Bare => open_store(
            BackendKind::Mlkv,
            config
                .with_simulated_read_latency(SsdModel::DEFAULT.read_latency)
                .with_simulated_read_throughput(SsdModel::DEFAULT.bytes_per_sec),
        )
        .unwrap(),
        Wiring::Adapted { traced } => {
            let stack = DeviceStack::new(
                dir.clone(),
                Some(SsdModel::DEFAULT),
                config.io_queue_depth,
                Arc::clone(&tracer),
            );
            config = config.with_device_factory(stack.factory());
            tracer.set_enabled(traced);
            tracer.set_trainer_thread();
            Arc::new(TracedStore::new(
                open_store(BackendKind::Mlkv, config).unwrap(),
                Arc::clone(&tracer),
            ))
        }
    };
    let table = Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(4)
            .lookahead_workers(2)
            .seed(7)
            .build()
            .unwrap(),
    );
    let kg = KgConfig {
        num_entities: 3_000,
        num_relations: 20,
        num_clusters: 10,
        num_triples: 8_000,
        structure_prob: 0.9,
        skew: 0.9,
        seed: 3,
    };
    let keys: Vec<Key> = (0..kg.num_entities + kg.num_relations).collect();
    let config = KgeTrainerConfig {
        model: KgeModelKind::DistMult,
        kg,
        negatives: 4,
        beta_ordering: false,
        num_partitions: 8,
        options: TrainerOptions {
            batch_size: 32,
            update_mode: UpdateMode::Synchronous,
            prefetch: PrefetchMode::LookAhead,
            eval_every_batches: 0,
            eval_samples: 1,
            seed: 11,
            ..TrainerOptions::default()
        },
    };
    let report = KgeTrainer::new(Arc::clone(&table), config).run(60).unwrap();
    assert_eq!(report.samples, 60 * 32);
    table.wait_for_lookahead();
    let rows = table
        .store()
        .multi_get(&keys)
        .into_iter()
        .map(|r| r.unwrap_or_default())
        .collect();
    let spans = tracer.take().len();
    drop(table);
    std::fs::remove_dir_all(dir).unwrap();
    (rows, spans)
}

#[test]
fn traced_untraced_and_bare_runs_store_identical_rows() {
    let (bare, _) = train(Wiring::Bare, "test-bare");
    let (untraced, no_spans) = train(Wiring::Adapted { traced: false }, "test-untraced");
    let (traced, spans) = train(Wiring::Adapted { traced: true }, "test-traced");
    assert_eq!(no_spans, 0, "recording off leaves no spans");
    assert!(spans > 60, "recording on covers every step: {spans} spans");
    let trained = bare.iter().filter(|r| !r.is_empty()).count();
    assert!(trained > 1_000, "the run wrote rows ({trained})");
    assert!(untraced == bare, "adapters change no stored row");
    assert!(traced == untraced, "tracing changes no stored row");
}
