//! Shared setup for the serving-tier measurements, used by the
//! `emit_bench_json` recorder and the CI smoke job.
//!
//! The scenario: many concurrent clients each issue *small* gathers (a few
//! keys per request — the per-request fan-out of a recommender inference
//! tier) against one larger-than-memory table on a simulated SSD. Dispatched
//! per-request, every gather pays its own device round trips; batched across
//! requests by the server's self-clocking batcher, the fused gather hands the
//! engine one large batch whose cold reads coalesce. The comparison is
//! `batching = per_request` (`max_batch(1)`) vs `batching = fused` (the
//! default cap) on the same table, clients, and offered load.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mlkv::BackendKind;
use mlkv_server::{Client, ServerBuilder, ServerHandle};

use crate::io_coalesce;

/// Concurrent clients (the acceptance bar asks for ≥ 8).
pub const CLIENTS: usize = 8;
/// Keys per client request: small on purpose — fusion, not the client's own
/// batch size, must supply the engine-sized batches.
pub const KEYS_PER_REQUEST: usize = 4;
/// The disk-backed engines the serving sweep records (≥ 2 per the issue).
pub const BACKENDS: [BackendKind; 2] = [BackendKind::Faster, BackendKind::RocksDbLike];

/// One offered-load level: the think time a client sleeps between requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Closed loop, zero think time: each client fires as fast as replies
    /// arrive.
    Heavy,
    /// 1 ms think time between requests: arrivals are sparse, so most
    /// requests find the batcher idle and run alone.
    Light,
}

impl Load {
    /// Loads the sweep records.
    pub const ALL: [Load; 2] = [Load::Heavy, Load::Light];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            Load::Heavy => "heavy",
            Load::Light => "light",
        }
    }

    fn think_time(self) -> Duration {
        match self {
            Load::Heavy => Duration::ZERO,
            Load::Light => Duration::from_millis(1),
        }
    }
}

/// Aggregated client-observed latencies for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServingMeasurement {
    /// Median request latency (nanoseconds, client-observed).
    pub p50_ns: u128,
    /// 99th-percentile request latency.
    pub p99_ns: u128,
    /// Mean request latency.
    pub mean_ns: u128,
    /// Completed requests per second across all clients.
    pub achieved_rps: f64,
    /// Keys the batcher fused per engine tick (`serve_fused_keys /
    /// serve_ticks` from the server's metrics).
    pub fused_keys_per_tick: f64,
}

/// Start a loopback server over the cold-SSD table from
/// [`crate::io_coalesce`] in either batching mode.
pub fn start_server(backend: BackendKind, fused: bool) -> ServerHandle {
    let table = io_coalesce::cold_table(backend, true, io_coalesce::PARALLELISM);
    let mut builder = ServerBuilder::new(backend, io_coalesce::DIM)
        .table(table)
        .queue_capacity(4096);
    if !fused {
        // Per-request dispatch: one request per tick.
        builder = builder.max_batch(1);
    }
    builder.serve("127.0.0.1:0").expect("loopback serve")
}

/// Drive `CLIENTS` concurrent clients for `requests_per_client` requests each
/// and aggregate their observed latencies. Clients use disjoint key ranges so
/// fusion (not key overlap) is the only cross-request effect.
pub fn drive_clients(
    addr: SocketAddr,
    requests_per_client: usize,
    load: Load,
) -> (Vec<u128>, Duration) {
    let think = load.think_time();
    let started = Instant::now();
    let mut handles = Vec::new();
    for client_idx in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let span = io_coalesce::KEY_SPACE / CLIENTS as u64;
            let base = client_idx as u64 * span;
            let mut latencies = Vec::with_capacity(requests_per_client);
            for i in 0..requests_per_client {
                let keys: Vec<u64> = (0..KEYS_PER_REQUEST as u64)
                    .map(|k| base + (i as u64 * 17 + k * 31) % span)
                    .collect();
                let t = Instant::now();
                let rows = client.gather(&keys, None).expect("gather");
                latencies.push(t.elapsed().as_nanos());
                assert_eq!(rows.len(), KEYS_PER_REQUEST);
                if !think.is_zero() {
                    std::thread::sleep(think);
                }
            }
            latencies
        }));
    }
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("client thread"));
    }
    (all, started.elapsed())
}

/// Percentile over unsorted latencies (nearest-rank on a sorted copy).
pub fn percentile(latencies: &[u128], q: f64) -> u128 {
    if latencies.is_empty() {
        return 0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Run one full serving measurement: start the server, drive the clients,
/// read the batcher metrics, shut down gracefully.
pub fn run_serving(
    backend: BackendKind,
    fused: bool,
    requests_per_client: usize,
    load: Load,
) -> ServingMeasurement {
    let handle = start_server(backend, fused);
    let addr = handle.local_addr();
    // Unmeasured warmup settles the engine caches.
    let warmup = (requests_per_client / 4).max(2);
    let _ = drive_clients(addr, warmup, load);
    handle.metrics().reset();

    let (latencies, wall) = drive_clients(addr, requests_per_client, load);
    let snap = handle.metrics().snapshot();
    handle.shutdown().expect("graceful shutdown");

    let total: u128 = latencies.iter().sum();
    let mean_ns = total / latencies.len().max(1) as u128;
    let fused_keys_per_tick = snap.serve_fused_keys as f64 / (snap.serve_ticks.max(1)) as f64;
    ServingMeasurement {
        p50_ns: percentile(&latencies, 0.50),
        p99_ns: percentile(&latencies, 0.99),
        mean_ns,
        achieved_rps: latencies.len() as f64 / wall.as_secs_f64().max(1e-9),
        fused_keys_per_tick,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let lat: Vec<u128> = (1..=100).collect();
        assert_eq!(percentile(&lat, 0.0), 1);
        assert_eq!(percentile(&lat, 0.50), 51);
        assert_eq!(percentile(&lat, 0.99), 99);
        assert_eq!(percentile(&lat, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn serving_smoke_fuses_across_clients() {
        // A tiny end-to-end run of the exact harness the recorder uses:
        // 8 clients, fused batching, closed loop.
        let m = run_serving(BackendKind::Faster, true, 4, Load::Heavy);
        assert!(m.p50_ns > 0 && m.p99_ns >= m.p50_ns);
        assert!(m.achieved_rps > 0.0);
        assert!(
            m.fused_keys_per_tick >= KEYS_PER_REQUEST as f64,
            "fused ticks must carry at least one request's keys, got {}",
            m.fused_keys_per_tick
        );
    }
}
