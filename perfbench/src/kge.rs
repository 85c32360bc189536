//! `kge-cold` and `kge-warm`: DistMult training on the Freebase86M-shaped
//! knowledge graph at 1e-3 scale, driven through `KgeTrainer::run`.
//!
//! The table is preloaded in set-up, so every gather reads a stored row. The
//! run trains in chunks of a fixed number of steps until the time is up; each
//! chunk is a fresh `KgeTrainer` over the same table with a graph generated
//! from `(seed, chunk)`, so chunks train on different triples instead of
//! replaying the first ones. Throughput is the median over chunks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mlkv::codec::{decode_vector, encode_vector, init_vector};
use mlkv::{open_store, BackendKind, EmbeddingTable, PrefetchStats, StorageResult};
use mlkv_storage::{DurabilityMode, IoBackend, KvStore, StoreConfig, WriteBatch};
use mlkv_trainer::{
    KgeModelKind, KgeTrainer, KgeTrainerConfig, PrefetchMode, TrainerOptions, UpdateMode,
};
use mlkv_workloads::kg::{KgConfig, KnowledgeGraph};

use crate::adapters::{DeviceClass, DeviceStack, SsdModel, TracedStore};
use crate::layers::{LayerInputs, TrainerTotals};
use crate::report::{data_dir, median, Checks, Metrics};
use crate::trace::Tracer;
use crate::{timed_setups, Outcome, RunArgs, PARALLELISM};

/// Embedding dimension.
pub const DIM: usize = 16;
/// Samples per training step.
pub const BATCH: usize = 64;
/// Negative samples per positive triple.
pub const NEGATIVES: usize = 4;
/// Staleness bound of the MLKV table.
pub const STALENESS_BOUND: u32 = 10;
/// Look-ahead workers of the MLKV table.
pub const LOOKAHEAD_WORKERS: usize = 2;
/// Scale of `KgConfig::freebase86m`: 86k entities and 1k relations.
pub const KG_SCALE: f64 = 1e-3;
/// Rows written per `write_batch` while preloading.
const PRELOAD_BATCH: usize = 4096;

/// One KGE workload.
#[derive(Debug, Clone, Copy)]
pub struct KgeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Engine memory buffer in bytes.
    pub buffer_bytes: usize,
    /// Training steps per chunk.
    pub chunk_steps: usize,
}

/// 1 MiB buffer: most of the 6.6 MB table lives on the simulated SSD.
pub const COLD: KgeSpec = KgeSpec {
    name: "kge-cold",
    buffer_bytes: 1 << 20,
    chunk_steps: 24,
};

/// 64 MiB buffer: the whole table is resident.
pub const WARM: KgeSpec = KgeSpec {
    name: "kge-warm",
    buffer_bytes: 64 << 20,
    chunk_steps: 320,
};

/// One set-up table and the devices under it.
struct Rig {
    table: Arc<EmbeddingTable>,
    stack: Arc<DeviceStack>,
    keys: Vec<u64>,
    dir: std::path::PathBuf,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Every embedding key of the graph shape, from the graph's own key mapping.
fn all_keys(kg: &KgConfig) -> Vec<u64> {
    let shape = KnowledgeGraph::generate(KgConfig {
        num_triples: 0,
        ..kg.clone()
    });
    (0..kg.num_entities)
        .map(|e| shape.entity_key(e))
        .chain((0..kg.num_relations).map(|r| shape.relation_key(r)))
        .collect()
}

fn setup(spec: &KgeSpec, seed: u64, tracer: &Arc<Tracer>, index: usize) -> StorageResult<Rig> {
    let dir = data_dir(&format!("{}-{index}", spec.name));
    let stack = DeviceStack::new(
        dir.clone(),
        Some(SsdModel::DEFAULT),
        mlkv_storage::DEFAULT_IO_QUEUE_DEPTH,
        Arc::clone(tracer),
    );
    let config = StoreConfig::on_disk(&dir)
        .with_memory_budget(spec.buffer_bytes)
        .with_io_backend(IoBackend::Sync)
        .with_durability(DurabilityMode::None)
        .with_parallelism(PARALLELISM)
        .with_write_shards(PARALLELISM)
        .with_device_factory(stack.factory());
    let store = open_store(BackendKind::Mlkv, config)?;
    let traced: Arc<dyn KvStore> = Arc::new(TracedStore::new(store, Arc::clone(tracer)));
    let table = Arc::new(
        EmbeddingTable::builder(traced)
            .dim(DIM)
            .staleness_bound(STALENESS_BOUND)
            .lookahead_workers(LOOKAHEAD_WORKERS)
            .parallelism(PARALLELISM)
            .write_shards(PARALLELISM)
            .seed(seed)
            .build()?,
    );
    let keys = all_keys(&KgConfig::freebase86m(KG_SCALE, seed));
    let (scale, init_seed) = (table.options().init_scale, table.options().seed);
    for chunk in keys.chunks(PRELOAD_BATCH) {
        let mut batch = WriteBatch::new();
        for &key in chunk {
            batch.put(key, encode_vector(&init_vector(key, DIM, scale, init_seed)));
        }
        table.store().write_batch(&batch)?;
    }
    Ok(Rig {
        table,
        stack,
        keys,
        dir,
    })
}

/// Seed of chunk `chunk` of a run seeded `seed`.
fn chunk_seed(seed: u64, chunk: usize) -> u64 {
    let mut z = seed ^ (chunk as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

fn trainer_config(seed: u64) -> KgeTrainerConfig {
    KgeTrainerConfig {
        model: KgeModelKind::DistMult,
        kg: KgConfig::freebase86m(KG_SCALE, seed),
        negatives: NEGATIVES,
        beta_ordering: false,
        num_partitions: 16,
        options: TrainerOptions {
            batch_size: BATCH,
            update_mode: UpdateMode::Asynchronous,
            prefetch: PrefetchMode::LookAhead,
            eval_every_batches: 0,
            // The run's closing Hits@10 is not a metric here (it stays at
            // chance at this size); one sample keeps it cheap.
            eval_samples: 1,
            seed,
            ..TrainerOptions::default()
        },
    }
}

/// Counters snapshotted around a traced chunk.
struct Snapshot {
    table: mlkv::TableStatsSnapshot,
    blocked: u64,
    prefetch: PrefetchStats,
    engine: mlkv_storage::MetricsSnapshot,
}

impl Snapshot {
    fn take(table: &EmbeddingTable) -> Self {
        Self {
            table: table.stats(),
            blocked: table.staleness_stats().blocked_gets,
            prefetch: table.prefetch_stats(),
            engine: table.store_metrics(),
        }
    }
}

fn add_prefetch(acc: &mut PrefetchStats, after: PrefetchStats, before: PrefetchStats) {
    acc.submitted += after.submitted - before.submitted;
    acc.completed += after.completed - before.completed;
    acc.promoted += after.promoted - before.promoted;
    acc.cached += after.cached - before.cached;
    acc.skipped += after.skipped - before.skipped;
}

fn add_table(acc: &mut mlkv::TableStatsSnapshot, delta: mlkv::TableStatsSnapshot) {
    acc.gets += delta.gets;
    acc.puts += delta.puts;
    acc.cache_hits += delta.cache_hits;
    acc.initialised += delta.initialised;
    acc.get_ns += delta.get_ns;
    acc.put_ns += delta.put_ns;
}

fn add_engine(acc: &mut mlkv_storage::MetricsSnapshot, delta: &mlkv_storage::MetricsSnapshot) {
    acc.lookups += delta.lookups;
    acc.mem_hits += delta.mem_hits;
    acc.disk_reads += delta.disk_reads;
    acc.disk_read_bytes += delta.disk_read_bytes;
    acc.evictions += delta.evictions;
    acc.prefetch_copies += delta.prefetch_copies;
    acc.prefetch_skips += delta.prefetch_skips;
}

/// Correctness after training: every row decodes to `DIM` finite floats, and
/// with the updater drained no key carries staleness.
fn check_rows(rig: &Rig, checks: &mut Checks) {
    for chunk in rig.keys.chunks(PRELOAD_BATCH) {
        let rows = rig.table.store().multi_get(chunk);
        let bad_rows = rows
            .iter()
            .filter(|row| {
                !matches!(row, Ok(bytes) if decode_vector(bytes, DIM)
                    .is_ok_and(|v| v.len() == DIM && v.iter().all(|x| x.is_finite())))
            })
            .count();
        checks.add(chunk.len() as u64, bad_rows as u64);
        let stale = chunk
            .iter()
            .filter(|&&k| rig.table.staleness_of(k) != 0)
            .count();
        checks.add(chunk.len() as u64, stale as u64);
    }
}

/// Run one KGE workload.
pub fn run(spec: &KgeSpec, args: &RunArgs, sleep_p50_ms: f64) -> StorageResult<Outcome> {
    let tracer = Arc::new(Tracer::new());
    tracer.set_trainer_thread();

    let (rig, setup_s) = timed_setups(|index| setup(spec, args.seed, &tracer, index))?;
    let table = &rig.table;
    let mut checks = Checks::default();

    let mut untraced_tput = Vec::new();
    let mut traced_tput = Vec::new();
    let mut trainer = TrainerTotals::default();
    let mut inputs = LayerInputs {
        row_bytes: (DIM * 4) as f64,
        sleep_p50_ms,
        ..LayerInputs::default()
    };
    let mut backlog = Vec::new();
    // Untimed warm-up: one zero-gradient apply over every key (rows stay
    // bit-identical), so each key's per-key staleness state exists before
    // chunk 0, which then warms the trainer path and is not measured either.
    // Without it, first touches slow the early chunks of `kge-warm`.
    let zero = [0.0f32; DIM];
    for keys in rig.keys.chunks(PRELOAD_BATCH) {
        let updates: Vec<(u64, &[f32])> = keys.iter().map(|&k| (k, &zero[..])).collect();
        table.apply_gradients(&updates, 0.0)?;
    }
    let mut chunk = 0usize;
    let mut deadline = Instant::now();
    while chunk < 3 || Instant::now() < deadline {
        if chunk == 1 {
            deadline = Instant::now() + Duration::from_secs(args.seconds);
        }
        let seed = chunk_seed(args.seed, chunk);
        let mut kge = KgeTrainer::new(Arc::clone(table), trainer_config(seed));
        let traced = args.trace && chunk.is_multiple_of(2) && chunk > 0;
        let before = Snapshot::take(table);
        tracer.set_enabled(traced);
        let report = kge.run(spec.chunk_steps);
        let lag = table.prefetch_stats();
        table.wait_for_lookahead();
        tracer.set_enabled(false);
        let report = match report {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{}: chunk {chunk} failed: {e}", spec.name);
                checks.check(false);
                chunk += 1;
                continue;
            }
        };
        // Training completes every step.
        checks.check(report.samples == (spec.chunk_steps * BATCH) as u64);
        if chunk > 0 {
            if traced {
                traced_tput.push(report.throughput);
                let after = Snapshot::take(table);
                add_table(&mut inputs.table, after.table.delta(&before.table));
                inputs.blocked_gets += after.blocked - before.blocked;
                add_prefetch(&mut inputs.prefetch, after.prefetch, before.prefetch);
                add_engine(&mut inputs.engine, &after.engine.delta(&before.engine));
                backlog.push((lag.submitted - lag.completed) as f64);
                inputs.steps += spec.chunk_steps as f64;
                trainer.emb_s += report.breakdown.emb_access_s;
                trainer.stall_s += report.stall_s;
                trainer.compute_s += report.breakdown.forward_s + report.breakdown.backward_s;
            } else {
                untraced_tput.push(report.throughput);
            }
        }
        chunk += 1;
    }
    check_rows(&rig, &mut checks);

    let live_bytes = (rig.keys.len() * DIM * 4) as f64;
    let space_amp = rig.stack.bytes_of(DeviceClass::Hlog) as f64 / live_bytes;
    let samples_per_s = median(&untraced_tput);

    let mut e2e = Metrics::default();
    e2e.push("throughput_per_s", samples_per_s, "1/s");
    e2e.push("latency_p50_ms", BATCH as f64 * 1e3 / samples_per_s, "ms");
    e2e.push("setup_s", setup_s, "s");
    e2e.push("rss_peak_mb", crate::report::rss_peak_mb(), "MiB");
    e2e.push("train_samples_per_s", samples_per_s, "1/s");
    e2e.push("space_amp", space_amp, "ratio");
    e2e.push("chunks", untraced_tput.len() as f64, "count");

    let layers = args.trace.then(|| {
        inputs.spans = tracer.take();
        inputs.trainer = trainer;
        inputs.prefetch_backlog = median(&backlog);
        inputs.space_amp = space_amp;
        inputs.trace_overhead = samples_per_s / median(&traced_tput);
        inputs.metrics()
    });
    Ok(Outcome {
        e2e,
        layers,
        checks,
    })
}
