//! `serve-mixed`: `mlkv-server` over a resident 100k-row table with
//! group-commit durability on a real file, under an open-loop Poisson load of
//! 2,000 requests/s on one pipelined connection (90% gathers, 10% applies of
//! 16 Zipf(0.9) keys).
//!
//! The load generator is one sender thread and one receiver thread speaking
//! the wire protocol directly. Every request is timed from its *scheduled*
//! send time, so a stall also charges the requests queued behind it.

use std::collections::BTreeSet;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlkv::codec::{encode_vector, init_vector};
use mlkv::{open_store, BackendKind, EmbeddingTable, StorageResult};
use mlkv_server::protocol::{read_frame, write_frame, Request, Response};
use mlkv_server::{Client, ServerBuilder, ServerHandle};
use mlkv_storage::{
    DurabilityMode, IoBackend, KvStore, StoreConfig, WriteBatch, DEFAULT_GROUP_COMMIT_WINDOW,
};
use mlkv_workloads::zipf::Zipfian;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::adapters::{DeviceClass, DeviceStack, TracedStore};
use crate::layers::{LayerInputs, ServerTotals};
use crate::report::{data_dir, percentile, Checks, Metrics};
use crate::trace::Tracer;
use crate::{timed_setups, Outcome, RunArgs, PARALLELISM};

/// Rows in the served table.
pub const ROWS: u64 = 100_000;
/// Embedding dimension.
pub const DIM: usize = 16;
/// Offered load, requests per second.
pub const RATE: f64 = 2_000.0;
/// Keys per request.
pub const KEYS_PER_REQUEST: usize = 16;
/// Zipf exponent of the key popularity.
pub const ZIPF_THETA: f64 = 0.9;
/// Share of requests that are applies.
pub const APPLY_SHARE: f64 = 0.1;
/// Latency limit a reply must meet to count towards goodput, ms.
pub const LIMIT_MS: f64 = 10.0;
/// A send this much later than scheduled counts as late, ms.
pub const LATE_MS: f64 = 1.0;
/// Learning rate of the applies.
const LR: f32 = 0.01;
/// Engine memory buffer: the table is resident.
const BUFFER_BYTES: usize = 64 << 20;
/// Delay between planning and the first scheduled send.
const START_DELAY: Duration = Duration::from_millis(20);
/// Load sent before the measured window, to let the server's adaptive
/// window and the engine's memory settle; checked but not measured.
const WARMUP: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Gather,
    Apply,
}

/// Which part of the run a request was scheduled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Untraced,
    Traced,
}

/// The generated load: request `i` has id `i + 1`.
struct Plan {
    due: Vec<Duration>,
    kinds: Vec<Kind>,
    bodies: Vec<Vec<u8>>,
    applied_keys: BTreeSet<u64>,
}

fn plan(seed: u64, length: Duration) -> Plan {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E4E_D0C5);
    let zipf = Zipfian::new(ROWS, ZIPF_THETA);
    let n = (RATE * length.as_secs_f64()) as usize;
    let mut plan = Plan {
        due: Vec::with_capacity(n),
        kinds: Vec::with_capacity(n),
        bodies: Vec::with_capacity(n),
        applied_keys: BTreeSet::new(),
    };
    let mut t = 0.0f64;
    for i in 0..n {
        t += -(1.0 - rng.gen::<f64>()).ln() / RATE;
        let id = i as u64 + 1;
        let keys: Vec<u64> = (0..KEYS_PER_REQUEST)
            .map(|_| zipf.sample(&mut rng))
            .collect();
        let (kind, request) = if rng.gen::<f64>() < APPLY_SHARE {
            plan.applied_keys.extend(&keys);
            let updates = keys
                .iter()
                .map(|&k| (k, (0..DIM).map(|_| rng.gen::<f32>() - 0.5).collect()))
                .collect();
            let request = Request::Apply {
                id,
                session_id: 0,
                deadline_us: 0,
                lr: LR,
                dim: DIM as u32,
                updates,
            };
            (Kind::Apply, request)
        } else {
            (
                Kind::Gather,
                Request::Gather {
                    id,
                    deadline_us: 0,
                    keys,
                },
            )
        };
        plan.due.push(Duration::from_secs_f64(t));
        plan.kinds.push(kind);
        plan.bodies.push(request.encode());
    }
    plan
}

struct Rig {
    handle: ServerHandle,
    stack: Arc<DeviceStack>,
    dir: std::path::PathBuf,
}

impl Drop for Rig {
    fn drop(&mut self) {
        let _ = self.handle.shutdown();
        let _ = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(seed: u64, tracer: &Arc<Tracer>, index: usize) -> StorageResult<Rig> {
    let dir = data_dir(&format!("serve-mixed-{index}"));
    let stack = DeviceStack::new(
        dir.clone(),
        None,
        mlkv_storage::DEFAULT_IO_QUEUE_DEPTH,
        Arc::clone(tracer),
    );
    let config = StoreConfig::on_disk(&dir)
        .with_memory_budget(BUFFER_BYTES)
        .with_io_backend(IoBackend::Sync)
        .with_durability(DurabilityMode::GroupCommit {
            window: DEFAULT_GROUP_COMMIT_WINDOW,
        })
        .with_parallelism(PARALLELISM)
        .with_write_shards(PARALLELISM)
        .with_device_factory(stack.factory());
    let store = open_store(BackendKind::Mlkv, config)?;
    let traced: Arc<dyn KvStore> = Arc::new(TracedStore::new(store, Arc::clone(tracer)));
    let table = Arc::new(
        EmbeddingTable::builder(traced)
            .dim(DIM)
            .staleness_bound(u32::MAX)
            .parallelism(PARALLELISM)
            .write_shards(PARALLELISM)
            .seed(seed)
            .build()?,
    );
    let (scale, init_seed) = (table.options().init_scale, table.options().seed);
    let keys: Vec<u64> = (0..ROWS).collect();
    for chunk in keys.chunks(4096) {
        let mut batch = WriteBatch::new();
        for &key in chunk {
            batch.put(key, encode_vector(&init_vector(key, DIM, scale, init_seed)));
        }
        table.store().write_batch(&batch)?;
    }
    let handle = ServerBuilder::new(BackendKind::Mlkv, DIM)
        .env_overrides(false)
        .table(table)
        .serve("127.0.0.1:0")?;
    Ok(Rig { handle, stack, dir })
}

/// What the receiver saw for one request.
#[derive(Debug, Clone, Copy, Default)]
struct Reply {
    latency_ms: f64,
    ok: bool,
    seen: bool,
}

/// Check one response against the plan; returns the request index and
/// whether the reply is correct.
fn judge(plan: &Plan, response: &Response) -> Option<(usize, bool)> {
    let (id, ok) = match response {
        Response::Rows { id, dim, rows } => (
            *id,
            *dim as usize == DIM
                && rows.len() == KEYS_PER_REQUEST
                && rows
                    .iter()
                    .all(|r| r.len() == DIM && r.iter().all(|x| x.is_finite())),
        ),
        Response::Applied { id } => (*id, true),
        Response::Error { id, code, message } => {
            eprintln!("serve-mixed: request {id} failed: {code:?} {message}");
            (*id, false)
        }
        _ => return None,
    };
    let index = usize::try_from(id).ok()?.checked_sub(1)?;
    let kind = *plan.kinds.get(index)?;
    let ok = ok
        && match response {
            Response::Rows { .. } => kind == Kind::Gather,
            Response::Applied { .. } => kind == Kind::Apply,
            _ => false,
        };
    Some((index, ok))
}

/// Drive the plan open-loop; returns per-request replies and send lateness.
fn drive(
    plan: &Arc<Plan>,
    addr: std::net::SocketAddr,
    start: Instant,
) -> StorageResult<(Vec<Reply>, Vec<f64>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let reader = stream.try_clone()?;
    std::thread::scope(|s| {
        let sender = s.spawn(|| -> std::io::Result<Vec<f64>> {
            let mut out = BufWriter::new(&stream);
            let mut late = Vec::with_capacity(plan.due.len());
            for (due, body) in plan.due.iter().zip(&plan.bodies) {
                let due = start + *due;
                let now = Instant::now();
                if due > now {
                    out.flush()?;
                    std::thread::sleep(due - now);
                }
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                write_frame(&mut out, body)?;
            }
            out.flush()?;
            Ok(late)
        });
        let receiver = s.spawn(|| {
            let mut replies = vec![Reply::default(); plan.due.len()];
            let mut input = BufReader::new(&reader);
            let mut received = 0;
            while received < plan.due.len() {
                // A lost connection or a reply overdue by the read timeout
                // ends the run; the missing replies count as failed checks.
                let body = match read_frame(&mut input) {
                    Ok(Some(body)) => body,
                    Ok(None) => break,
                    Err(e) => {
                        eprintln!("serve-mixed: receive failed: {e}");
                        break;
                    }
                };
                let now = Instant::now();
                received += 1;
                let judged = Response::decode(&body).ok().and_then(|r| judge(plan, &r));
                let Some((index, ok)) = judged else {
                    eprintln!("serve-mixed: unmatched reply");
                    continue;
                };
                let reply = &mut replies[index];
                let due = start + plan.due[index];
                reply.latency_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                // A second reply to one request is itself a failure.
                reply.ok = ok && !reply.seen;
                reply.seen = true;
            }
            replies
        });
        let late = sender.join().expect("sender thread panicked");
        let replies = receiver.join().expect("receiver thread panicked");
        Ok((replies, late?))
    })
}

/// A final `Client::gather` of every applied key must equal the server's own
/// `table().gather` of the same keys.
fn check_final_rows(rig: &Rig, keys: &BTreeSet<u64>, checks: &mut Checks) -> StorageResult<()> {
    let keys: Vec<u64> = keys.iter().copied().collect();
    let mut client = Client::connect(rig.handle.local_addr())?;
    for chunk in keys.chunks(256) {
        let wire = client.gather(chunk, None)?;
        let local = rig.handle.table().gather(chunk)?;
        let same = |a: &Vec<f32>, b: &Vec<f32>| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let mismatched = if wire.len() == local.len() {
            wire.iter().zip(&local).filter(|(a, b)| !same(a, b)).count()
        } else {
            chunk.len()
        };
        checks.add(chunk.len() as u64, mismatched as u64);
    }
    Ok(())
}

/// Run `serve-mixed`.
pub fn run(args: &RunArgs, sleep_p50_ms: f64) -> StorageResult<Outcome> {
    let tracer = Arc::new(Tracer::new());
    let (rig, setup_s) = timed_setups(|index| setup(args.seed, &tracer, index))?;
    let measured = Duration::from_secs(args.seconds);
    let plan = Arc::new(plan(args.seed, WARMUP + measured));
    let table = Arc::clone(rig.handle.table());
    let metrics = Arc::clone(rig.handle.metrics());

    // A traced run measures untraced for the first half of the window and
    // traced for the second.
    let trace_from = WARMUP + if args.trace { measured / 2 } else { measured };
    let phase = |i: usize| match plan.due[i] {
        d if d < WARMUP => Phase::Warmup,
        d if d < trace_from => Phase::Untraced,
        _ => Phase::Traced,
    };
    let start = Instant::now() + START_DELAY;
    let (result, before) = std::thread::scope(|s| {
        let load = s.spawn(|| drive(&plan, rig.handle.local_addr(), start));
        let before = args.trace.then(|| {
            std::thread::sleep((start + trace_from).saturating_duration_since(Instant::now()));
            let snapshot = (table.stats(), metrics.snapshot());
            tracer.set_enabled(true);
            snapshot
        });
        (load.join().expect("load generator panicked"), before)
    });
    tracer.set_enabled(false);
    // Counters at the end of the load, before the checks below add to them.
    let after = (table.stats(), metrics.snapshot());
    let (replies, late) = result?;

    let mut checks = Checks::default();
    let failed = replies.iter().filter(|r| !(r.seen && r.ok)).count();
    checks.add(replies.len() as u64, failed as u64);
    check_final_rows(&rig, &plan.applied_keys, &mut checks)?;

    let select = |in_phase: Phase, kind: Option<Kind>| -> Vec<usize> {
        (0..replies.len())
            .filter(|&i| phase(i) == in_phase && replies[i].seen)
            .filter(|&i| kind.is_none_or(|k| plan.kinds[i] == k))
            .collect()
    };
    let latency = |indices: &[usize]| -> Vec<f64> {
        indices.iter().map(|&i| replies[i].latency_ms).collect()
    };
    let mut gather_ms = latency(&select(Phase::Untraced, Some(Kind::Gather)));
    let mut apply_ms = latency(&select(Phase::Untraced, Some(Kind::Apply)));
    let untraced_s = (trace_from - WARMUP).as_secs_f64();
    let good = select(Phase::Untraced, None)
        .iter()
        .filter(|&&i| replies[i].ok && replies[i].latency_ms <= LIMIT_MS)
        .count();
    let goodput = good as f64 / untraced_s;

    let mut e2e = Metrics::default();
    e2e.push("throughput_per_s", goodput, "1/s");
    e2e.push("latency_p50_ms", percentile(&mut gather_ms, 50.0), "ms");
    e2e.push("setup_s", setup_s, "s");
    e2e.push("rss_peak_mb", crate::report::rss_peak_mb(), "MiB");
    e2e.push("gather_p50_ms", percentile(&mut gather_ms, 50.0), "ms");
    e2e.push("gather_p99_ms", percentile(&mut gather_ms, 99.0), "ms");
    e2e.push("apply_p50_ms", percentile(&mut apply_ms, 50.0), "ms");
    e2e.push("apply_p99_ms", percentile(&mut apply_ms, 99.0), "ms");
    e2e.push("serve_goodput_rps", goodput, "1/s");
    e2e.push("gathers", gather_ms.len() as f64, "count");
    e2e.push("applies", apply_ms.len() as f64, "count");
    let live_bytes = (ROWS as usize * DIM * 4) as f64;
    let space_amp = rig.stack.bytes_of(DeviceClass::Hlog) as f64 / live_bytes;
    e2e.push("space_amp", space_amp, "ratio");

    let layers = before.map(|(table_before, metrics_before)| {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let traced_ms = latency(&select(Phase::Traced, None));
        let untraced_ms = latency(&select(Phase::Untraced, None));
        let mut late_ms: Vec<f64> = (0..late.len())
            .filter(|&i| phase(i) == Phase::Traced)
            .map(|i| late[i])
            .collect();
        let late_share =
            late_ms.iter().filter(|&&l| l > LATE_MS).count() as f64 / late_ms.len().max(1) as f64;
        let engine = after.1.delta(&metrics_before);
        LayerInputs {
            spans: tracer.take(),
            steps: engine.serve_ticks as f64,
            table: after.0.delta(&table_before),
            engine,
            server: ServerTotals {
                client_latency_mean_ms: mean(&traced_ms),
                replies: traced_ms.len() as u64,
                late_p99_ms: percentile(&mut late_ms, 99.0),
                late_share,
            },
            row_bytes: (DIM * 4) as f64,
            space_amp,
            sleep_p50_ms,
            trace_overhead: mean(&traced_ms) / mean(&untraced_ms),
            ..LayerInputs::default()
        }
        .metrics()
    });
    Ok(Outcome {
        e2e,
        layers,
        checks,
    })
}
