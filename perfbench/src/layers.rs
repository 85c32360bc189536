//! Per-layer metrics of the traced run, computed from the adapter spans plus
//! the counters the system already exposes (`TrainingReport`, table
//! `stats()` / `staleness_stats()` / `prefetch_stats()`, `store_metrics()`,
//! `ServerHandle::metrics()`), all as deltas over the traced window.

use mlkv::{PrefetchStats, TableStatsSnapshot};
use mlkv_storage::MetricsSnapshot;

use crate::report::Metrics;
use crate::trace::{Role, Span, SpanSummary};

/// Trainer-side totals over the traced chunks (from `TrainingReport`).
#[derive(Debug, Default, Clone, Copy)]
pub struct TrainerTotals {
    /// Embedding access seconds (`breakdown.emb_access_s`).
    pub emb_s: f64,
    /// Seconds gets spent blocked on the staleness bound (`stall_s`).
    pub stall_s: f64,
    /// Forward plus backward seconds.
    pub compute_s: f64,
}

/// Serving-side totals over the traced window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerTotals {
    /// Mean client latency of the traced window's replies, ms.
    pub client_latency_mean_ms: f64,
    /// Replies in the traced window.
    pub replies: u64,
    /// Latency p99 of how late the generator sent, ms.
    pub late_p99_ms: f64,
    /// Share of requests sent more than [`crate::serve::LATE_MS`] late.
    pub late_share: f64,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Spans recorded in the traced window.
    pub spans: Vec<Span>,
    /// Training steps (KGE) or batcher ticks (serving) in the traced window.
    pub steps: f64,
    /// Table counters, delta.
    pub table: TableStatsSnapshot,
    /// Gets that blocked on the staleness bound, delta.
    pub blocked_gets: u64,
    /// Prefetcher counters, delta.
    pub prefetch: PrefetchStats,
    /// Mean of `submitted - completed` sampled at the end of each traced chunk.
    pub prefetch_backlog: f64,
    /// Engine counters, delta.
    pub engine: MetricsSnapshot,
    /// Trainer totals.
    pub trainer: TrainerTotals,
    /// Serving totals.
    pub server: ServerTotals,
    /// Bytes of one stored row value.
    pub row_bytes: f64,
    /// Device bytes over live bytes at the end of the run.
    pub space_amp: f64,
    /// Realised duration of one 25 µs sleep, ms.
    pub sleep_p50_ms: f64,
    /// Cost of tracing: untraced ÷ traced throughput (KGE) or traced ÷
    /// untraced mean latency (serving); 1 = free.
    pub trace_overhead: f64,
}

fn per(x: f64, n: f64) -> f64 {
    if n > 0.0 {
        x / n
    } else {
        0.0
    }
}

impl LayerInputs {
    /// Every per-layer metric, named `<layer>.<metric>`.
    pub fn metrics(&self) -> Metrics {
        let spans = &self.spans;
        let steps = self.steps;
        let named = |name: &'static str| SpanSummary::of(spans, move |s| s.name == name);
        let busy = |role: Role| {
            SpanSummary::of(spans, move |s| {
                s.role == role && s.name.starts_with("engine.")
            })
            .busy_s
        };
        // Engine reads issued by the gathering thread (trainer or batcher).
        let gather_engine_s = SpanSummary::of(spans, |s| {
            matches!(s.role, Role::Trainer | Role::Batcher)
                && matches!(s.name, "engine.multi_get" | "engine.get")
        })
        .busy_s;
        let mut m = Metrics::default();

        // trainer (mlkv-trainer)
        m.push(
            "trainer.emb_ms_per_step",
            per(self.trainer.emb_s * 1e3, steps),
            "ms",
        );
        m.push(
            "trainer.stall_ms_per_step",
            per(self.trainer.stall_s * 1e3, steps),
            "ms",
        );
        m.push(
            "trainer.compute_ms_per_step",
            per(self.trainer.compute_s * 1e3, steps),
            "ms",
        );

        // table (mlkv): gather time minus the engine reads under it.
        let gather_ms = self.table.get_ns as f64 / 1e6;
        let self_ms = gather_ms - gather_engine_s * 1e3;
        m.push("table.gather_ms_per_step", per(gather_ms, steps), "ms");
        m.push("table.self_ms_per_step", per(self_ms, steps), "ms");
        m.push(
            "table.apply_ms_per_step",
            per(self.table.put_ns as f64 / 1e6, steps),
            "ms",
        );
        m.push("table.blocked_gets", self.blocked_gets as f64, "count");

        // prefetch (mlkv)
        let p = self.prefetch;
        m.push(
            "prefetch.keys_per_step",
            per(p.submitted as f64, steps),
            "keys",
        );
        m.push(
            "prefetch.useful_ratio",
            per((p.promoted + p.cached) as f64, p.completed as f64),
            "ratio",
        );
        m.push("prefetch.backlog", self.prefetch_backlog, "keys");
        m.push("prefetch.engine_busy_s", busy(Role::Prefetch), "s");

        // engine (mlkv-faster)
        for (op, name) in [
            ("multi_get", "engine.multi_get"),
            ("multi_rmw", "engine.multi_rmw"),
            ("multi_promote", "engine.multi_promote"),
        ] {
            let s = named(name);
            m.push(format!("engine.{op}.calls"), s.calls as f64, "count");
            m.push(
                format!("engine.{op}.keys_per_call"),
                s.items_per_call(),
                "keys",
            );
            m.push(format!("engine.{op}.p50_ms"), s.p50_ms, "ms");
            m.push(format!("engine.{op}.p99_ms"), s.p99_ms, "ms");
        }
        for role in [Role::Trainer, Role::Updater, Role::Prefetch, Role::Batcher] {
            m.push(format!("engine.busy_s.{}", role.name()), busy(role), "s");
        }
        m.push(
            "engine.mem_hit_ratio",
            self.engine.memory_hit_ratio(),
            "ratio",
        );
        m.push("engine.evictions", self.engine.evictions as f64, "count");

        // storage: hybrid-log device
        let reads = named("device.hlog.read");
        let written = named("device.hlog.write").bytes + named("device.hlog.append").bytes;
        m.push("device.hlog.read_calls", reads.calls as f64, "count");
        m.push("device.hlog.read_reqs", reads.items as f64, "count");
        m.push("device.hlog.read_p50_ms", reads.p50_ms, "ms");
        m.push("device.hlog.read_p99_ms", reads.p99_ms, "ms");
        m.push("device.hlog.busy_s", reads.busy_s, "s");
        m.push("device.hlog.bytes_read", reads.bytes as f64, "bytes");
        m.push("device.hlog.bytes_written", written as f64, "bytes");
        m.push(
            "device.read_amp",
            per(
                reads.bytes as f64,
                self.engine.disk_reads as f64 * self.row_bytes,
            ),
            "ratio",
        );
        m.push("device.space_amp", self.space_amp, "ratio");
        m.push("device.sim_sleep_p50_ms", self.sleep_p50_ms, "ms");

        // storage: write-ahead log device
        let (appends, writes) = (named("device.wal.append"), named("device.wal.write"));
        let syncs = named("device.wal.sync");
        m.push(
            "device.wal.appends",
            (appends.calls + writes.calls) as f64,
            "count",
        );
        m.push(
            "device.wal.bytes",
            (appends.bytes + writes.bytes) as f64,
            "bytes",
        );
        m.push("device.wal.syncs", syncs.calls as f64, "count");
        m.push("device.wal.sync_p50_ms", syncs.p50_ms, "ms");
        m.push("device.wal.sync_p99_ms", syncs.p99_ms, "ms");

        // server (mlkv-server)
        let e = &self.engine;
        let server_busy = busy(Role::Batcher);
        m.push("server.ticks", e.serve_ticks as f64, "count");
        m.push(
            "server.keys_per_tick",
            per(e.serve_fused_keys as f64, e.serve_ticks as f64),
            "keys",
        );
        m.push("server.rejected", e.serve_rejected as f64, "count");
        m.push("server.engine_busy_s", server_busy, "s");
        // A request waits for the whole fused engine call of its tick.
        let engine_ms_per_tick = per(server_busy * 1e3, e.serve_ticks as f64);
        let server_self_ms = if self.server.replies == 0 {
            0.0
        } else {
            self.server.client_latency_mean_ms - engine_ms_per_tick
        };
        m.push("server.self_ms_mean", server_self_ms, "ms");

        // the benchmark itself
        m.push("gen.late_p99_ms", self.server.late_p99_ms, "ms");
        m.push("gen.late_share", self.server.late_share, "ratio");
        m.push("trace.overhead", self.trace_overhead, "ratio");
        m.push("trace.spans", spans.len() as f64, "count");
        // Share of the trainer's embedding time that the table's self time
        // plus the trainer thread's engine time leave unexplained.
        let emb_ms = self.trainer.emb_s * 1e3;
        let explained_ms = self_ms + busy(Role::Trainer) * 1e3;
        m.push(
            "trace.unaccounted_share",
            per(emb_ms - explained_ms, emb_ms),
            "ratio",
        );
        m
    }
}
