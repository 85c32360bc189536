//! Pass-through adapters the benchmark slides under the system to time each
//! layer from outside: a [`KvStore`] wrapper handed to
//! `EmbeddingTable::builder`, and a [`Device`] wrapper installed with
//! `StoreConfig::with_device_factory`.
//!
//! Both forward **every** trait method, including the ones with default
//! bodies, so wrapping never changes which engine code path runs (a wrapper
//! that left `multi_promote` to its default would silently turn the engine's
//! batched look-ahead into per-key promotes).

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mlkv_storage::device::{Device, FileDevice, SimLatencyDevice};
use mlkv_storage::kv::{Key, ReadResult};
use mlkv_storage::wal::WalTap;
use mlkv_storage::{
    BatchRmwFn, DeviceFactory, IoBatch, KvStore, ReadReq, RmwFn, StorageMetrics, StorageResult,
    WriteBatch,
};

use crate::trace::{OpKind, Tracer};

/// A `KvStore` that records one engine span per call.
pub struct TracedStore {
    inner: Arc<dyn KvStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn KvStore>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl KvStore for TracedStore {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: Key) -> StorageResult<Vec<u8>> {
        self.tracer
            .engine("engine.get", OpKind::Read, 1, || self.inner.get(key))
    }

    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        self.tracer
            .engine("engine.get", OpKind::Read, 1, || self.inner.get_traced(key))
    }

    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        self.tracer
            .engine("engine.multi_get", OpKind::Read, keys.len(), || {
                self.inner.multi_get(keys)
            })
    }

    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
        self.tracer.engine("engine.put", OpKind::Write, 1, || {
            self.inner.put(key, value)
        })
    }

    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
        self.tracer
            .engine("engine.rmw", OpKind::Write, 1, || self.inner.rmw(key, f))
    }

    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        self.tracer
            .engine("engine.multi_rmw", OpKind::Write, keys.len(), || {
                self.inner.multi_rmw(keys, f)
            })
    }

    fn delete(&self, key: Key) -> StorageResult<()> {
        self.tracer
            .engine("engine.delete", OpKind::Write, 1, || self.inner.delete(key))
    }

    fn exists(&self, key: Key) -> StorageResult<bool> {
        self.tracer
            .engine("engine.exists", OpKind::Read, 1, || self.inner.exists(key))
    }

    fn contains(&self, key: Key) -> StorageResult<bool> {
        self.tracer.engine("engine.exists", OpKind::Read, 1, || {
            self.inner.contains(key)
        })
    }

    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
        self.tracer
            .engine("engine.write_batch", OpKind::Write, batch.len(), || {
                self.inner.write_batch(batch)
            })
    }

    fn promote_to_memory(&self, key: Key) -> StorageResult<bool> {
        self.tracer
            .engine("engine.promote", OpKind::Promote, 1, || {
                self.inner.promote_to_memory(key)
            })
    }

    fn multi_promote(&self, keys: &[Key]) -> StorageResult<usize> {
        self.tracer
            .engine("engine.multi_promote", OpKind::Promote, keys.len(), || {
                self.inner.multi_promote(keys)
            })
    }

    fn approximate_len(&self) -> usize {
        self.inner.approximate_len()
    }

    fn metrics(&self) -> Arc<StorageMetrics> {
        self.inner.metrics()
    }

    fn flush(&self) -> StorageResult<()> {
        self.tracer
            .engine("engine.flush", OpKind::Admin, 0, || self.inner.flush())
    }

    fn replication_tap(&self) -> Option<Arc<WalTap>> {
        self.inner.replication_tap()
    }

    fn apply_replicated_group(&self, frames: &[Vec<u8>]) -> StorageResult<()> {
        self.tracer.engine(
            "engine.apply_replicated",
            OpKind::Write,
            frames.len(),
            || self.inner.apply_replicated_group(frames),
        )
    }

    fn replication_snapshot(&self) -> StorageResult<Vec<(Key, Vec<u8>)>> {
        self.tracer
            .engine("engine.replication_snapshot", OpKind::Admin, 0, || {
                self.inner.replication_snapshot()
            })
    }
}

/// Which file of the FASTER engine a device backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceClass {
    /// The hybrid log's stable region (`hlog.dat`).
    Hlog,
    /// A write-ahead-log generation (`faster_wal_<n>.dat`).
    Wal,
    /// Anything else.
    Other,
}

impl DeviceClass {
    /// Classify a device file name.
    pub fn of(file_name: &str) -> Self {
        if file_name == "hlog.dat" {
            DeviceClass::Hlog
        } else if file_name.starts_with("faster_wal_") {
            DeviceClass::Wal
        } else {
            DeviceClass::Other
        }
    }

    /// Span names for `[read, write, append, sync]` on this class.
    fn span_names(self) -> [&'static str; 4] {
        match self {
            DeviceClass::Hlog => [
                "device.hlog.read",
                "device.hlog.write",
                "device.hlog.append",
                "device.hlog.sync",
            ],
            DeviceClass::Wal => [
                "device.wal.read",
                "device.wal.write",
                "device.wal.append",
                "device.wal.sync",
            ],
            DeviceClass::Other => [
                "device.other.read",
                "device.other.write",
                "device.other.append",
                "device.other.sync",
            ],
        }
    }
}

/// A `Device` that records one device span per call.
pub struct TracedDevice {
    inner: Arc<dyn Device>,
    class: DeviceClass,
    tracer: Arc<Tracer>,
}

impl TracedDevice {
    /// Wrap `inner`, which backs a file of class `class`.
    pub fn new(inner: Arc<dyn Device>, class: DeviceClass, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            class,
            tracer,
        }
    }

    /// The class of file this device backs.
    pub fn class(&self) -> DeviceClass {
        self.class
    }
}

impl Device for TracedDevice {
    fn write_at(&self, offset: u64, data: &[u8]) -> StorageResult<()> {
        let name = self.class.span_names()[1];
        self.tracer
            .device(name, 1, data.len(), || self.inner.write_at(offset, data))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        let name = self.class.span_names()[0];
        let len = buf.len();
        self.tracer
            .device(name, 1, len, || self.inner.read_at(offset, buf))
    }

    fn read_scatter(&self, reqs: &mut [ReadReq]) -> StorageResult<()> {
        let name = self.class.span_names()[0];
        let bytes = reqs.iter().map(|r| r.buf.len()).sum();
        self.tracer
            .device(name, reqs.len(), bytes, || self.inner.read_scatter(reqs))
    }

    fn submit_reads(&self, reqs: Vec<ReadReq>) -> IoBatch {
        // Times the submission only; the benchmark pins the synchronous I/O
        // backend, under which engines never call this.
        let name = self.class.span_names()[0];
        let (count, bytes) = (reqs.len(), reqs.iter().map(|r| r.buf.len()).sum());
        self.tracer
            .device(name, count, bytes, || self.inner.submit_reads(reqs))
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn sync(&self) -> StorageResult<()> {
        let name = self.class.span_names()[3];
        self.tracer.device(name, 1, 0, || self.inner.sync())
    }

    fn append(&self, data: &[u8]) -> StorageResult<u64> {
        let name = self.class.span_names()[2];
        self.tracer
            .device(name, 1, data.len(), || self.inner.append(data))
    }
}

/// The simulated SSD model: a fixed cost per read request plus a transfer
/// cost. `SimLatencyDevice` sleeps for it, so the realised cost is the
/// host's sleep granularity (see `report::sleep_calibration`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsdModel {
    /// Fixed cost per read request.
    pub read_latency: Duration,
    /// Transfer throughput in bytes per second.
    pub bytes_per_sec: u64,
}

impl SsdModel {
    /// 25 µs per request plus 1 GiB/s.
    pub const DEFAULT: SsdModel = SsdModel {
        read_latency: Duration::from_micros(25),
        bytes_per_sec: 1 << 30,
    };
}

/// Builds the devices of one store: a real file in `dir` under each name,
/// wrapped in the simulated SSD when `ssd` is set, then in a
/// [`TracedDevice`]. This is exactly the stack `device_from_config` builds
/// for a config with that simulated latency and the synchronous backend, so
/// the store's own config must leave its simulated latency at zero.
pub struct DeviceStack {
    dir: PathBuf,
    ssd: Option<SsdModel>,
    queue_depth: usize,
    tracer: Arc<Tracer>,
    opened: Mutex<Vec<Arc<TracedDevice>>>,
}

impl DeviceStack {
    /// A stack over files in `dir` (created on first use).
    pub fn new(
        dir: PathBuf,
        ssd: Option<SsdModel>,
        queue_depth: usize,
        tracer: Arc<Tracer>,
    ) -> Arc<Self> {
        Arc::new(Self {
            dir,
            ssd,
            queue_depth,
            tracer,
            opened: Mutex::new(Vec::new()),
        })
    }

    /// The factory to install with `StoreConfig::with_device_factory`.
    pub fn factory(self: &Arc<Self>) -> DeviceFactory {
        let stack = Arc::clone(self);
        DeviceFactory::new(move |name| stack.open(name).map(|d| d as Arc<dyn Device>))
    }

    fn open(&self, name: &str) -> StorageResult<Arc<TracedDevice>> {
        std::fs::create_dir_all(&self.dir)?;
        let file: Arc<dyn Device> = Arc::new(FileDevice::open(self.dir.join(name))?);
        let base: Arc<dyn Device> = match self.ssd {
            Some(ssd) => Arc::new(
                SimLatencyDevice::with_throughput(file, ssd.read_latency, ssd.bytes_per_sec)
                    .with_queue_depth(self.queue_depth),
            ),
            None => file,
        };
        let device = Arc::new(TracedDevice::new(
            base,
            DeviceClass::of(name),
            Arc::clone(&self.tracer),
        ));
        self.opened
            .lock()
            .expect("device list poisoned")
            .push(Arc::clone(&device));
        Ok(device)
    }

    /// Current total size in bytes of the opened devices of `class`.
    pub fn bytes_of(&self, class: DeviceClass) -> u64 {
        self.opened
            .lock()
            .expect("device list poisoned")
            .iter()
            .filter(|d| d.class() == class)
            .map(|d| d.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv_storage::MemStore;

    #[test]
    fn classifies_engine_files() {
        assert_eq!(DeviceClass::of("hlog.dat"), DeviceClass::Hlog);
        assert_eq!(DeviceClass::of("faster_wal_3.dat"), DeviceClass::Wal);
        assert_eq!(DeviceClass::of("x.dat"), DeviceClass::Other);
    }

    /// Counts `promote_to_memory` calls, so a test can see whether the batched
    /// entry point was forwarded or fell back to the per-key default.
    struct PromoteCounter {
        inner: MemStore,
        per_key: std::sync::atomic::AtomicU64,
    }

    impl KvStore for PromoteCounter {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
            self.inner.get_traced(key)
        }
        fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
            self.inner.put(key, value)
        }
        fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
            self.inner.rmw(key, f)
        }
        fn delete(&self, key: Key) -> StorageResult<()> {
            self.inner.delete(key)
        }
        fn promote_to_memory(&self, _key: Key) -> StorageResult<bool> {
            self.per_key
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(false)
        }
        fn multi_promote(&self, keys: &[Key]) -> StorageResult<usize> {
            Ok(keys.len())
        }
        fn approximate_len(&self) -> usize {
            self.inner.approximate_len()
        }
        fn metrics(&self) -> Arc<StorageMetrics> {
            self.inner.metrics()
        }
        fn flush(&self) -> StorageResult<()> {
            Ok(())
        }
    }

    #[test]
    fn store_adapter_forwards_batched_promote_and_identity() {
        let inner = Arc::new(PromoteCounter {
            inner: MemStore::new(),
            per_key: Default::default(),
        });
        let tracer = Arc::new(Tracer::new());
        tracer.set_enabled(true);
        let store = TracedStore::new(Arc::clone(&inner) as Arc<dyn KvStore>, Arc::clone(&tracer));
        assert_eq!(store.multi_promote(&[1, 2, 3]).unwrap(), 3);
        assert_eq!(inner.per_key.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(store.name(), "counter");
        assert!(Arc::ptr_eq(&store.metrics(), &inner.metrics()));
        store.put(1, b"a").unwrap();
        assert!(store.exists(1).unwrap());
        let names: Vec<_> = tracer.take().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["engine.multi_promote", "engine.put", "engine.exists"]
        );
    }

    #[test]
    fn device_stack_builds_the_simulated_ssd_over_a_file() {
        let dir = crate::report::data_dir("unit-device-stack");
        let tracer = Arc::new(Tracer::new());
        let stack = DeviceStack::new(dir.clone(), Some(SsdModel::DEFAULT), 4, Arc::clone(&tracer));
        let device = stack.factory().make("hlog.dat").unwrap();
        tracer.set_enabled(true);
        device.append(&[7u8; 4096]).unwrap();
        let mut buf = vec![0u8; 64];
        let start = std::time::Instant::now();
        device.read_at(128, &mut buf).unwrap();
        assert!(
            start.elapsed() >= SsdModel::DEFAULT.read_latency,
            "reads pay the SSD model"
        );
        assert_eq!(buf, vec![7u8; 64]);
        assert_eq!(stack.bytes_of(DeviceClass::Hlog), 4096);
        assert!(dir.join("hlog.dat").exists(), "backed by a real file");
        let names: Vec<_> = tracer.take().iter().map(|s| s.name).collect();
        assert_eq!(names, ["device.hlog.append", "device.hlog.read"]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
