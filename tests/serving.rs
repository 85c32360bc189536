//! End-to-end tests of the TCP serving tier: a real listener on loopback,
//! real client connections, the admission queue and batcher in between.
//!
//! The core correctness test is a shadow run: seeded multi-client traffic
//! (every client owns a disjoint key range) through the server must leave the
//! served table byte-identical to replaying each client's operation stream
//! directly against a plain table. Around it: connect/disconnect churn,
//! malformed and truncated frames, self-clocked fusion, deadline expiry,
//! overload shedding, and graceful shutdown draining already-admitted work.
//!
//! The batcher never waits for a batch to fill, so the tests that need
//! requests to sit in the admission queue park the batcher *inside* a tick
//! instead: [`GatedStore`] holds every fused gather at a gate the test opens.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlkv::{open_store, BackendKind, EmbeddingTable};
use mlkv_server::protocol::{read_frame, write_frame, ErrorCode, Request, Response};
use mlkv_server::{Client, ServerBuilder, ServerHandle, DEFAULT_QUEUE_CAPACITY};
use mlkv_storage::kv::{Key, ReadResult};
use mlkv_storage::{
    BatchRmwFn, DurabilityMode, KvStore, MemStore, RmwFn, StorageError, StorageMetrics,
    StorageResult, StoreConfig, WriteBatch,
};

const DIM: usize = 8;
const SEED: u64 = 42;

fn make_table(backend: BackendKind) -> Arc<EmbeddingTable> {
    let store = open_store(
        backend,
        StoreConfig::in_memory()
            .with_memory_budget(8 << 20)
            .with_page_size(4 << 10),
    )
    .unwrap();
    Arc::new(
        EmbeddingTable::builder(store)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .seed(SEED)
            .build()
            .unwrap(),
    )
}

/// Gate state: whether gathers may pass, how many are parked, and the key
/// count of every `multi_get` since the gate last closed (one per fused
/// gather run; startup recovery reads come before that).
#[derive(Default)]
struct GateState {
    closed: bool,
    parked: usize,
    calls: Vec<usize>,
}

/// An in-memory store whose `multi_get` blocks while its gate is closed, so a
/// test can hold the batcher inside a tick for as long as it likes.
#[derive(Default)]
struct GatedStore {
    inner: MemStore,
    state: Mutex<GateState>,
    cv: Condvar,
}

impl GatedStore {
    fn close(&self) {
        let mut state = self.state.lock().unwrap();
        state.closed = true;
        state.calls.clear();
    }

    fn open(&self) {
        self.state.lock().unwrap().closed = false;
        self.cv.notify_all();
    }

    /// Block until `n` callers are parked at the closed gate.
    fn wait_parked(&self, n: usize) {
        let state = self.state.lock().unwrap();
        let (_state, timeout) = self
            .cv
            .wait_timeout_while(state, Duration::from_secs(10), |s| s.parked < n)
            .unwrap();
        assert!(!timeout.timed_out(), "batcher never reached the gate");
    }

    /// Key counts of every `multi_get` since the gate closed, in call order.
    fn calls(&self) -> Vec<usize> {
        self.state.lock().unwrap().calls.clone()
    }
}

impl KvStore for GatedStore {
    fn name(&self) -> &'static str {
        "Gated"
    }
    fn get_traced(&self, key: Key) -> StorageResult<ReadResult> {
        self.inner.get_traced(key)
    }
    fn multi_get(&self, keys: &[Key]) -> Vec<StorageResult<Vec<u8>>> {
        let mut state = self.state.lock().unwrap();
        state.calls.push(keys.len());
        state.parked += 1;
        self.cv.notify_all();
        let mut state = self.cv.wait_while(state, |s| s.closed).unwrap();
        state.parked -= 1;
        drop(state);
        self.inner.multi_get(keys)
    }
    fn put(&self, key: Key, value: &[u8]) -> StorageResult<()> {
        self.inner.put(key, value)
    }
    fn rmw(&self, key: Key, f: &RmwFn) -> StorageResult<Vec<u8>> {
        self.inner.rmw(key, f)
    }
    fn multi_rmw(&self, keys: &[Key], f: &BatchRmwFn) -> StorageResult<Vec<Vec<u8>>> {
        self.inner.multi_rmw(keys, f)
    }
    fn write_batch(&self, batch: &WriteBatch) -> StorageResult<()> {
        self.inner.write_batch(batch)
    }
    fn delete(&self, key: Key) -> StorageResult<()> {
        self.inner.delete(key)
    }
    fn approximate_len(&self) -> usize {
        self.inner.approximate_len()
    }
    fn metrics(&self) -> Arc<StorageMetrics> {
        self.inner.metrics()
    }
    fn flush(&self) -> StorageResult<()> {
        self.inner.flush()
    }
}

/// A server over a [`GatedStore`] table; the gate starts open (startup
/// recovery reads the store) and the test closes it.
fn serve_gated(queue_capacity: usize) -> (ServerHandle, Arc<GatedStore>) {
    let gate = Arc::new(GatedStore::default());
    let table = EmbeddingTable::builder(Arc::clone(&gate) as Arc<dyn KvStore>)
        .dim(DIM)
        .staleness_bound(u32::MAX)
        .seed(SEED)
        .build()
        .unwrap();
    let handle = ServerBuilder::new(BackendKind::InMemory, DIM)
        .table(Arc::new(table))
        .queue_capacity(queue_capacity)
        .serve("127.0.0.1:0")
        .unwrap();
    (handle, gate)
}

/// Gather `keys` on a fresh connection in the background.
fn gather_in_background(
    addr: SocketAddr,
    keys: Vec<u64>,
) -> JoinHandle<StorageResult<Vec<Vec<f32>>>> {
    std::thread::spawn(move || Client::connect(addr)?.gather(&keys, None))
}

/// Block until the server has admitted `n` requests in total.
fn wait_admitted(handle: &ServerHandle, n: u64) {
    let started = Instant::now();
    while handle.metrics().snapshot().serve_admitted < n {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "server never admitted {n} requests"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn serve(table: Arc<EmbeddingTable>) -> ServerHandle {
    ServerBuilder::new(BackendKind::InMemory, DIM)
        .table(table)
        .serve("127.0.0.1:0")
        .unwrap()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One client's deterministic operation stream over its private key range.
enum Op {
    Gather(Vec<u64>),
    Apply(Vec<(u64, Vec<f32>)>, f32),
}

fn client_ops(client: u64, ops: usize, keys_per_op: usize) -> Vec<Op> {
    let base = client * 1000;
    let span = 50u64;
    let mut rng = 0xC0FFEE ^ (client << 32);
    (0..ops)
        .map(|_| {
            let keys: Vec<u64> = (0..keys_per_op)
                .map(|_| base + splitmix(&mut rng) % span)
                .collect();
            if splitmix(&mut rng).is_multiple_of(2) {
                Op::Gather(keys)
            } else {
                let updates = keys
                    .iter()
                    .map(|&k| {
                        let g: Vec<f32> = (0..DIM)
                            .map(|d| ((k as f32) + d as f32).sin() * 0.1)
                            .collect();
                        (k, g)
                    })
                    .collect();
                Op::Apply(updates, 0.05)
            }
        })
        .collect()
}

#[test]
fn seeded_multi_client_run_matches_single_caller_shadow() {
    const CLIENTS: u64 = 6;
    const OPS: usize = 30;
    const KEYS_PER_OP: usize = 4;

    let served = make_table(BackendKind::Faster);
    let handle = serve(Arc::clone(&served));
    let addr = handle.local_addr();

    let mut threads = Vec::new();
    for c in 0..CLIENTS {
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for op in client_ops(c, OPS, KEYS_PER_OP) {
                match op {
                    Op::Gather(keys) => {
                        let rows = client.gather(&keys, None).unwrap();
                        assert_eq!(rows.len(), keys.len());
                        for row in rows {
                            assert_eq!(row.len(), DIM);
                        }
                    }
                    Op::Apply(updates, lr) => {
                        client.apply_gradients(&updates, lr, None).unwrap();
                    }
                }
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown().unwrap();

    // Replay every client's stream serially against a fresh shadow table.
    // Ranges are disjoint and the server preserves per-connection order, so
    // interleaving across clients cannot change any row.
    let shadow = make_table(BackendKind::Faster);
    for c in 0..CLIENTS {
        for op in client_ops(c, OPS, KEYS_PER_OP) {
            match op {
                Op::Gather(keys) => {
                    shadow.gather(&keys).unwrap();
                }
                Op::Apply(updates, lr) => {
                    let borrowed: Vec<(u64, &[f32])> =
                        updates.iter().map(|(k, g)| (*k, g.as_slice())).collect();
                    shadow.apply_gradients(&borrowed, lr).unwrap();
                }
            }
        }
    }

    let all_keys: Vec<u64> = (0..CLIENTS)
        .flat_map(|c| (0..50).map(move |k| c * 1000 + k))
        .collect();
    assert_eq!(
        served.gather(&all_keys).unwrap(),
        shadow.gather(&all_keys).unwrap(),
        "served table diverged from the single-caller shadow run"
    );
}

#[test]
fn connect_disconnect_churn_leaves_server_healthy() {
    let handle = serve(make_table(BackendKind::InMemory));
    let addr = handle.local_addr();

    for round in 0..20u64 {
        match round % 3 {
            // Full round trip then clean disconnect.
            0 => {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                let rows = client.gather(&[round, round + 1], None).unwrap();
                assert_eq!(rows.len(), 2);
            }
            // Connect and vanish without a single frame.
            1 => {
                let _ = TcpStream::connect(addr).unwrap();
            }
            // Drop mid-conversation (after one request).
            _ => {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
            }
        }
    }

    let mut survivor = Client::connect(addr).unwrap();
    survivor.ping().unwrap();
    assert_eq!(survivor.gather(&[7], None).unwrap().len(), 1);
    handle.shutdown().unwrap();
}

#[test]
fn malformed_and_truncated_frames_do_not_kill_the_server() {
    let handle = serve(make_table(BackendKind::InMemory));
    let addr = handle.local_addr();

    // Unknown opcode inside a well-formed frame: typed Malformed error, then
    // the server closes that connection.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_frame(&mut stream, &[0x7F, 1, 2, 3]).unwrap();
        let body = read_frame(&mut stream).unwrap().expect("error reply");
        match Response::decode(&body).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!(id, 0);
                assert_eq!(code, ErrorCode::Malformed);
            }
            other => panic!("expected malformed error, got {other:?}"),
        }
        assert!(
            read_frame(&mut stream).unwrap().is_none(),
            "connection closes after a malformed frame"
        );
    }

    // Truncated frame: a length prefix promising more bytes than ever arrive.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
        drop(stream); // mid-frame disconnect
    }

    // Garbage length prefix far beyond the frame cap.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        // Server rejects without allocating 4 GiB and drops the connection.
        assert!(read_frame(&mut stream).unwrap().is_none());
    }

    // A gather frame whose payload lies about its key count.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let good = Request::Gather {
            id: 1,
            deadline_us: 0,
            keys: vec![1, 2, 3],
        }
        .encode();
        write_frame(&mut stream, &good[..good.len() - 4]).unwrap();
        let body = read_frame(&mut stream).unwrap().expect("error reply");
        assert!(matches!(
            Response::decode(&body).unwrap(),
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ));
    }

    // After all of that abuse, an honest client still gets served.
    let mut survivor = Client::connect(addr).unwrap();
    assert_eq!(survivor.gather(&[1, 2], None).unwrap().len(), 2);
    handle.shutdown().unwrap();
}

#[test]
fn idle_batcher_dispatches_at_once_and_fuses_what_queued_meanwhile() {
    // More requests queue behind tick 1 than any fixed window smaller than
    // the cap would take; the self-clocked tick 2 must take them all.
    const QUEUED: u64 = 20;
    let (handle, gate) = serve_gated(DEFAULT_QUEUE_CAPACITY);
    let addr = handle.local_addr();
    gate.close();

    // Tick 1 starts on a lone gather without waiting for company, and parks
    // inside the engine call.
    let first = gather_in_background(addr, vec![1, 2]);
    gate.wait_parked(1);

    // The rest arrive while tick 1 runs; they queue.
    let rest: Vec<_> = (1..=QUEUED)
        .map(|c| gather_in_background(addr, vec![c * 10, c * 10 + 1]))
        .collect();
    wait_admitted(&handle, 1 + QUEUED);

    gate.open();
    assert_eq!(first.join().unwrap().unwrap().len(), 2);
    for r in rest {
        assert_eq!(r.join().unwrap().unwrap().len(), 2);
    }

    // Tick 2 fused every queued gather into one engine call. (Shut down
    // first: a tick is counted after its replies go out.)
    handle.shutdown().unwrap();
    let snap = handle.metrics().snapshot();
    assert_eq!(snap.serve_ticks, 2);
    assert_eq!(snap.serve_fused_keys, 2 + 2 * QUEUED);
    assert_eq!(gate.calls(), vec![2, 2 * QUEUED as usize]);
}

#[test]
fn expired_deadline_comes_back_as_typed_error() {
    // The batcher is parked inside a tick, so the deadlined request sits in
    // the admission queue well past its budget, regardless of timing.
    let (handle, gate) = serve_gated(DEFAULT_QUEUE_CAPACITY);
    let addr = handle.local_addr();
    gate.close();
    let blocker = gather_in_background(addr, vec![100]);
    gate.wait_parked(1);

    let budget = Duration::from_millis(100);
    let mut client = Client::connect(addr).unwrap();
    let err = client.gather(&[1, 2, 3], Some(budget)).unwrap_err();
    assert!(
        matches!(err, StorageError::DeadlineExceeded { .. }),
        "want DeadlineExceeded, got {err:?}"
    );
    // The client enforces its budget locally, so it reports the expiry while
    // the request is still queued: admitted, not yet rejected.
    wait_admitted(&handle, 2);
    assert_eq!(handle.metrics().snapshot().serve_rejected, 0);
    // The server's deadline runs from admission, a little after the client's
    // clock started: one more budget guarantees it has passed.
    std::thread::sleep(budget);

    // The next tick drops the expired work instead of fusing it.
    gate.open();
    assert_eq!(blocker.join().unwrap().unwrap().len(), 1);
    let drained = Instant::now();
    while handle.metrics().snapshot().serve_rejected == 0 {
        assert!(
            drained.elapsed() < Duration::from_secs(5),
            "server never rejected the expired request"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        gate.calls(),
        vec![1],
        "expired work never reached the engine"
    );

    // The connection survives a rejected request.
    assert_eq!(client.gather(&[1], None).unwrap().len(), 1);
    handle.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_drains_admitted_work() {
    // The batcher is parked inside a tick while four gathers are admitted
    // behind it; shutdown must answer them all (drain) rather than drop them.
    let (handle, gate) = serve_gated(DEFAULT_QUEUE_CAPACITY);
    let addr = handle.local_addr();
    gate.close();
    let blocker = gather_in_background(addr, vec![100]);
    gate.wait_parked(1);

    let waiters: Vec<_> = (0..4u64)
        .map(|c| gather_in_background(addr, vec![c * 10, c * 10 + 1]))
        .collect();
    wait_admitted(&handle, 5);

    let mut admin = Client::connect(addr).unwrap();
    admin.shutdown_server().unwrap();
    // Admission is closed now; the queued gathers are still owed replies.
    gate.open();
    handle.join().unwrap();

    assert_eq!(blocker.join().unwrap().unwrap().len(), 1);
    for w in waiters {
        let rows = w.join().expect("client thread").unwrap();
        assert_eq!(rows.len(), 2, "queued gather was answered during drain");
    }
    assert_eq!(handle.metrics().snapshot().serve_admitted, 5);

    // New connections are refused once the listener is gone.
    assert!(
        Client::connect(addr).is_err() || {
            let mut c = Client::connect(addr).unwrap();
            c.ping().is_err()
        }
    );
}

#[test]
fn server_builds_its_own_durable_store_and_flushes_on_shutdown() {
    let dir = std::env::temp_dir().join(format!("mlkv-serving-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let handle = ServerBuilder::new(BackendKind::Faster, DIM)
        .store_config(
            StoreConfig::on_disk(&dir)
                .with_memory_budget(4 << 20)
                .with_durability(DurabilityMode::GroupCommit { window: 1024 }),
        )
        .seed(SEED)
        .serve("127.0.0.1:0")
        .unwrap();

    let mut client = Client::connect(handle.local_addr()).unwrap();
    let before = client.gather(&[11], None).unwrap();
    client
        .apply_gradients(&[(11, vec![1.0; DIM])], 0.5, None)
        .unwrap();
    let after = client.gather(&[11], None).unwrap();
    for d in 0..DIM {
        assert!((after[0][d] - (before[0][d] - 0.5)).abs() < 1e-6);
    }

    // Graceful shutdown drains and flushes through the group-commit path.
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_typed_error() {
    // Capacity 1 and a batcher parked inside a tick: the second request
    // occupies the queue, the third must be shed at admission.
    let (handle, gate) = serve_gated(1);
    let addr = handle.local_addr();
    gate.close();
    let blocker = gather_in_background(addr, vec![1]);
    gate.wait_parked(1);
    let queued = gather_in_background(addr, vec![2]);
    wait_admitted(&handle, 2);

    let mut client = Client::connect(addr).unwrap();
    let err = client.gather(&[3], None).unwrap_err();
    assert!(
        matches!(err, StorageError::Overloaded { capacity: 1, .. }),
        "want Overloaded, got {err:?}"
    );

    gate.open();
    handle.shutdown().unwrap();
    assert_eq!(blocker.join().unwrap().unwrap().len(), 1);
    assert_eq!(
        queued.join().unwrap().unwrap().len(),
        1,
        "queued request drained at shutdown"
    );
}

/// Satellite: dedup-window behaviour under a flood of short-lived sessions.
/// The window is a fixed direct-mapped table, so (a) its durable footprint in
/// the reserved key range never exceeds the configured slot count no matter
/// how many sessions churn through, (b) after a restart a session whose
/// marker survived the churn still dedups its retry, and (c) an evicted
/// session degrades to re-apply — never to a false acknowledgement.
#[test]
fn session_churn_bounds_dedup_memory_and_reconciles_through_markers() {
    use mlkv_server::{ClientOptions, RESERVED_KEY_BASE};

    const SLOTS: usize = 4;
    let dir = std::env::temp_dir().join(format!(
        "mlkv-dedup-churn-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let builder = || {
        ServerBuilder::new(BackendKind::RocksDbLike, DIM)
            .staleness_bound(u32::MAX)
            .seed(SEED)
            .store_config(
                StoreConfig::on_disk(dir.clone())
                    .with_durability(DurabilityMode::GroupCommit { window: 1 << 20 })
                    .with_parallelism(1),
            )
            .dedup_slots(SLOTS)
    };
    let handle = builder().serve("127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    let apply_once = |session: u64, id: u64, key: u64| {
        let mut client = Client::connect_with(addr, ClientOptions::retrying(session, 0)).unwrap();
        client
            .apply_with_id(id, &[(key, vec![1.0; DIM])], 0.1, None)
            .unwrap();
    };

    // The session whose retry we replay later. Slot = 42 % 4 = 2.
    apply_once(42, 1, 7);
    let after_first = handle
        .table()
        .store()
        .multi_get(&[7])
        .pop()
        .unwrap()
        .unwrap();

    // Flood: 64 short-lived sessions, one mutation each. Sessions 44 and 46
    // collide with nothing we check; sessions ≡ 2 (mod 4) evict session 42.
    for s in 100..164u64 {
        apply_once(s, 1, 1000 + s);
    }

    // (a) Bounded durable footprint: however many sessions churned, only the
    // SLOTS reserved marker keys exist — probing beyond them finds nothing.
    let probe: Vec<u64> = (SLOTS as u64..SLOTS as u64 + 16)
        .map(|i| RESERVED_KEY_BASE + i)
        .collect();
    for result in handle.table().store().multi_get(&probe) {
        assert!(
            result.is_err(),
            "dedup marker leaked beyond the {SLOTS}-slot window"
        );
    }

    handle.shutdown().unwrap();

    // (b) Restart: recovery rebuilds the window from the surviving markers.
    // The last writer of slot 2 was session 162 (162 % 4 == 2): its retry
    // must be acknowledged from the recovered marker without re-applying.
    let handle = builder().serve("127.0.0.1:0").unwrap();
    let addr = handle.local_addr();
    let before = handle
        .table()
        .store()
        .multi_get(&[1000 + 162])
        .pop()
        .unwrap()
        .unwrap();
    {
        let mut client = Client::connect_with(addr, ClientOptions::retrying(162, 0)).unwrap();
        client
            .apply_with_id(1, &[(1000 + 162, vec![1.0; DIM])], 0.1, None)
            .unwrap();
    }
    assert_eq!(
        handle
            .table()
            .store()
            .multi_get(&[1000 + 162])
            .pop()
            .unwrap()
            .unwrap(),
        before,
        "surviving marker must dedup the retry across the restart"
    );
    assert!(handle.metrics().snapshot().serve_deduped >= 1);

    // (c) Session 42 was evicted from its slot by the churn: its retry is
    // *not* falsely acknowledged from thin air — it re-applies (at-least-once
    // degradation, never acknowledgement of lost work).
    {
        let mut client = Client::connect_with(addr, ClientOptions::retrying(42, 0)).unwrap();
        client
            .apply_with_id(1, &[(7, vec![1.0; DIM])], 0.1, None)
            .unwrap();
    }
    assert_ne!(
        handle
            .table()
            .store()
            .multi_get(&[7])
            .pop()
            .unwrap()
            .unwrap(),
        after_first,
        "evicted session must degrade to re-apply, not to a silent ack"
    );

    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
