//! The `Open` interface of Figure 3: creating an embedding model with a
//! controllable staleness bound and dimension.
//!
//! ```
//! use mlkv::Mlkv;
//!
//! // Figure 3, line 3: nn_model, emb_tables = MLKV.Open(model_id, dim, staleness_bound)
//! let model = Mlkv::open("my-ctr-model", 16, 4).unwrap();
//! let emb = model.table();
//! let values = emb.gather(&[1, 2, 3]).unwrap();
//! assert_eq!(values.len(), 3);
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use mlkv_storage::{DurabilityMode, IoBackend, StorageResult, StoreConfig};

use crate::backend::{open_store, BackendKind};
use crate::table::{EmbeddingTable, TableOptions};

/// Entry point mirroring the paper's `MLKV.Open` call.
pub struct Mlkv;

impl Mlkv {
    /// Open an in-memory-device embedding model (convenient default used by the
    /// examples and tests). For disk-backed models use [`Mlkv::builder`].
    pub fn open(model_id: &str, dim: usize, staleness_bound: u32) -> StorageResult<EmbeddingModel> {
        Mlkv::builder(model_id)
            .dim(dim)
            .staleness_bound(staleness_bound)
            .build()
    }

    /// Start configuring an embedding model.
    pub fn builder(model_id: &str) -> EmbeddingModelBuilder {
        EmbeddingModelBuilder::new(model_id)
    }
}

/// Builder for [`EmbeddingModel`].
pub struct EmbeddingModelBuilder {
    model_id: String,
    backend: BackendKind,
    dir: Option<PathBuf>,
    memory_budget: usize,
    page_size: usize,
    io_coalescing: bool,
    io_gap_bytes: Option<usize>,
    io_backend: IoBackend,
    io_queue_depth: Option<usize>,
    durability: DurabilityMode,
    options: TableOptions,
}

impl EmbeddingModelBuilder {
    fn new(model_id: &str) -> Self {
        Self {
            model_id: model_id.to_string(),
            backend: BackendKind::Mlkv,
            dir: None,
            memory_budget: 256 << 20,
            page_size: 16 << 10,
            io_coalescing: true,
            io_gap_bytes: None,
            io_backend: IoBackend::Sync,
            io_queue_depth: None,
            durability: DurabilityMode::None,
            options: TableOptions::default(),
        }
    }

    /// Embedding dimension.
    pub fn dim(mut self, dim: usize) -> Self {
        self.options.dim = dim;
        self
    }

    /// Staleness bound: 0 = BSP, `u32::MAX` = ASP, otherwise SSP.
    pub fn staleness_bound(mut self, bound: u32) -> Self {
        self.options.staleness_bound = bound;
        self
    }

    /// Disable bounded-staleness enforcement entirely (leaves only the per-key
    /// memory overhead, see §IV-E).
    pub fn disable_staleness_enforcement(mut self) -> Self {
        self.options.enforce_staleness = false;
        self
    }

    /// Select the storage backend (default: MLKV's own hybrid-log engine).
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Persist the model under `dir/<model_id>/` instead of an in-memory device.
    pub fn directory(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// In-memory buffer budget of the storage engine, in bytes.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = bytes;
        self
    }

    /// Page size of the storage engine.
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    /// Number of background look-ahead workers.
    pub fn lookahead_workers(mut self, workers: usize) -> Self {
        self.options.lookahead_workers = workers;
        self
    }

    /// Batch-execution parallelism (`0` = auto-size from the host, `1` =
    /// serial/deterministic). Applies to both the storage engine (shard- and
    /// range-parallel `multi_get` / `multi_rmw`) and the table layer (bulk
    /// vector decode): one `gather` fans out over this many workers.
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.options.parallelism = parallelism;
        self
    }

    /// Write-side concurrency of the storage engine (`0` = follow
    /// `parallelism`, `1` = the serial single-lock write path): the number of
    /// memtable shards (LSM), leaf-latch lanes (B+tree), buffer-pool shards,
    /// and mutation workers one `apply_gradients` scatter fans out over.
    /// Independent of [`EmbeddingModelBuilder::parallelism`], so write
    /// concurrency can be tuned — or pinned serial for determinism — without
    /// giving up parallel reads.
    pub fn write_shards(mut self, shards: usize) -> Self {
        self.options.write_shards = shards;
        self
    }

    /// Enable or disable coalesced cold-path batch reads (on by default):
    /// the storage engine merges a batch's near-adjacent device reads into
    /// few large ones. `false` restores the per-record read path.
    pub fn io_coalescing(mut self, coalesce: bool) -> Self {
        self.io_coalescing = coalesce;
        self
    }

    /// Maximum byte gap between two cold-read ranges that the I/O planner
    /// still merges into one device read (default:
    /// [`mlkv_storage::config::DEFAULT_IO_GAP_BYTES`]).
    pub fn io_gap_bytes(mut self, bytes: usize) -> Self {
        self.io_gap_bytes = Some(bytes);
        self
    }

    /// How cold-path batch reads reach the device: blocking `pread`s
    /// ([`IoBackend::Sync`], the default) or submission-queue reads that
    /// overlap each other and let workers park on completions
    /// ([`IoBackend::Async`]).
    pub fn io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Submission-queue depth of the async I/O backend (default:
    /// [`mlkv_storage::config::DEFAULT_IO_QUEUE_DEPTH`]).
    pub fn io_queue_depth(mut self, depth: usize) -> Self {
        self.io_queue_depth = Some(depth);
        self
    }

    /// Durability of acknowledged writes (default: [`DurabilityMode::None`],
    /// matching the paper's non-durable training runs). Under
    /// [`DurabilityMode::GroupCommit`] every acknowledged batch is
    /// write-ahead-logged and synced before `apply_gradients` returns — one
    /// sync per batch — and recovered on reopen; [`DurabilityMode::Buffered`]
    /// logs without syncing until an engine barrier (flush / checkpoint).
    pub fn durability(mut self, durability: DurabilityMode) -> Self {
        self.durability = durability;
        self
    }

    /// Application cache budget in bytes.
    pub fn app_cache_bytes(mut self, bytes: usize) -> Self {
        self.options.app_cache_bytes = bytes;
        self
    }

    /// Seed of the deterministic embedding initialiser.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Scale of the uniform random initialisation of unseen embeddings.
    pub fn init_scale(mut self, scale: f32) -> Self {
        self.options.init_scale = scale;
        self
    }

    /// Open the storage engine and build the embedding model.
    pub fn build(self) -> StorageResult<EmbeddingModel> {
        let mut config = StoreConfig::in_memory()
            .with_memory_budget(self.memory_budget)
            .with_page_size(self.page_size)
            .with_parallelism(self.options.parallelism)
            .with_write_shards(self.options.write_shards)
            .with_io_coalescing(self.io_coalescing)
            .with_io_backend(self.io_backend)
            .with_durability(self.durability);
        if let Some(gap) = self.io_gap_bytes {
            config = config.with_io_gap_bytes(gap);
        }
        if let Some(depth) = self.io_queue_depth {
            config = config.with_io_queue_depth(depth);
        }
        if let Some(dir) = &self.dir {
            config.dir = Some(dir.join(&self.model_id));
        }
        let store = open_store(self.backend, config)?;
        let table = EmbeddingTable::builder(store)
            .options(self.options)
            .build()?;
        Ok(EmbeddingModel {
            model_id: self.model_id,
            backend: self.backend,
            table: Arc::new(table),
        })
    }
}

/// An opened embedding model: a named, backend-bound [`EmbeddingTable`].
pub struct EmbeddingModel {
    model_id: String,
    backend: BackendKind,
    table: Arc<EmbeddingTable>,
}

impl EmbeddingModel {
    /// The model identifier passed to `Open`.
    pub fn model_id(&self) -> &str {
        &self.model_id
    }

    /// The backend storing this model.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The embedding table (`emb_tables` in Figure 3).
    pub fn table(&self) -> Arc<EmbeddingTable> {
        Arc::clone(&self.table)
    }
}

impl std::ops::Deref for EmbeddingModel {
    type Target = EmbeddingTable;

    fn deref(&self) -> &Self::Target {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_matches_figure_3_usage() {
        let model = Mlkv::open("test-model", 8, 4).unwrap();
        assert_eq!(model.model_id(), "test-model");
        assert_eq!(model.backend(), BackendKind::Mlkv);
        assert_eq!(model.dim(), 8);
        assert_eq!(model.mode().bound(), 4);
        // Figure 3 style usage through Deref.
        let values = model.gather(&[1, 2, 3]).unwrap();
        assert_eq!(values.len(), 3);
        model.put(&[1], &[vec![0.5; 8]]).unwrap();
        assert_eq!(model.get_one(1).unwrap(), vec![0.5; 8]);
    }

    #[test]
    fn builder_configures_backend_and_staleness() {
        let model = Mlkv::builder("cfg")
            .dim(4)
            .staleness_bound(u32::MAX)
            .backend(BackendKind::RocksDbLike)
            .memory_budget(1 << 20)
            .lookahead_workers(2)
            .app_cache_bytes(1 << 16)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(model.backend(), BackendKind::RocksDbLike);
        assert_eq!(model.mode().name(), "ASP");
        model.put_one(1, &[1.0; 4]).unwrap();
        assert_eq!(model.get_one(1).unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn io_knobs_reach_the_store_and_preserve_results() {
        for coalesce in [true, false] {
            for io_backend in [IoBackend::Sync, IoBackend::Async] {
                let model = Mlkv::builder("io-knobs")
                    .dim(4)
                    .backend(BackendKind::Faster)
                    .memory_budget(16 << 10)
                    .page_size(1 << 10)
                    .io_coalescing(coalesce)
                    .io_gap_bytes(256)
                    .io_backend(io_backend)
                    .io_queue_depth(8)
                    .build()
                    .unwrap();
                let keys: Vec<u64> = (0..500).collect();
                let rows = vec![vec![0.25f32; 4]; keys.len()];
                model.put(&keys, &rows).unwrap();
                // Larger-than-memory: gathers hit the cold path either way.
                let got = model.gather(&keys).unwrap();
                assert_eq!(got, rows, "coalesce={coalesce} io_backend={io_backend}");
            }
        }
    }

    #[test]
    fn disk_backed_model_persists_under_model_directory() {
        let dir = std::env::temp_dir().join(format!("mlkv-model-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let model = Mlkv::builder("persisted")
                .dim(4)
                .directory(&dir)
                .memory_budget(1 << 20)
                .build()
                .unwrap();
            model.put_one(9, &[3.0; 4]).unwrap();
            model.flush().unwrap();
        }
        assert!(dir.join("persisted").join("hlog.dat").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_model_recovers_acknowledged_updates_on_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-model-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Mlkv::builder("durable")
                .dim(4)
                .directory(&dir)
                .memory_budget(1 << 20)
                .durability(DurabilityMode::GroupCommit { window: 64 })
                .build()
                .unwrap()
        };
        let expected = {
            let model = open();
            model.put_one(9, &[3.0; 4]).unwrap();
            let updates: Vec<(u64, &[f32])> = vec![(9, &[0.5; 4])];
            model.apply_gradients(&updates, 1.0).unwrap();
            // No flush, no checkpoint: the WAL alone must carry the state.
            model.get_one(9).unwrap()
        };
        let model = open();
        assert_eq!(model.get_one(9).unwrap(), expected);
        assert_eq!(expected, vec![2.5f32; 4]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_enforcement_never_tracks_stalls() {
        let model = Mlkv::builder("free")
            .dim(4)
            .staleness_bound(0)
            .disable_staleness_enforcement()
            .build()
            .unwrap();
        for _ in 0..10 {
            model.get_one(1).unwrap();
        }
        assert_eq!(model.staleness_stats().gets, 0);
        assert_eq!(model.staleness_of(1), 0);
    }
}
