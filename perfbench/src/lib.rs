//! The MLKV benchmark: three workloads (`kge-cold`, `kge-warm`,
//! `serve-mixed`) driven through the system's public entry points, with each
//! layer timed from outside by the adapters in [`adapters`].
//!
//! `main.rs` parses the arguments, runs one workload, prints every metric by
//! name and unit, and ends with one JSON result line. See `README.md` for the
//! metric definitions and the predictions they encode.

pub mod adapters;
pub mod kge;
pub mod layers;
pub mod report;
pub mod serve;
pub mod trace;

use report::{Checks, Metrics};

/// Engine and table worker threads: the benchmark's reference host has 2
/// cores, and pinning keeps the runs independent of the machine's core count.
pub const PARALLELISM: usize = 2;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 3;

/// Largest share of `trainer.emb_ms_per_step` that the table's self time
/// plus the trainer thread's engine time may leave unexplained
/// (`trace.unaccounted_share`).
pub const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["kge-cold", "kge-warm", "serve-mixed"];

/// End-to-end metrics of the result line of an untraced run
/// (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: [&str; 4] = [
    "throughput_per_s",
    "latency_p50_ms",
    "setup_s",
    "rss_peak_mb",
];

/// Per-layer metrics of the result line of a traced run
/// (`BENCHMARK.json` `per_layer`): every count and ratio, and the times that
/// every workload exercises. Times of a layer that some workload leaves idle
/// (the trainer under serving, the WAL under training, ...) are printed but
/// kept out of the result line, where they would read 0 on every run.
pub const PER_LAYER: [&str; 38] = [
    "table.gather_ms_per_step",
    "table.self_ms_per_step",
    "table.apply_ms_per_step",
    "table.blocked_gets",
    "prefetch.keys_per_step",
    "prefetch.useful_ratio",
    "prefetch.backlog",
    "engine.multi_get.calls",
    "engine.multi_get.keys_per_call",
    "engine.multi_get.p50_ms",
    "engine.multi_get.p99_ms",
    "engine.multi_rmw.calls",
    "engine.multi_rmw.keys_per_call",
    "engine.multi_rmw.p50_ms",
    "engine.multi_rmw.p99_ms",
    "engine.multi_promote.calls",
    "engine.multi_promote.keys_per_call",
    "engine.mem_hit_ratio",
    "engine.evictions",
    "device.hlog.read_calls",
    "device.hlog.read_reqs",
    "device.hlog.bytes_read",
    "device.hlog.bytes_written",
    "device.read_amp",
    "device.space_amp",
    "device.sim_sleep_p50_ms",
    "device.wal.appends",
    "device.wal.bytes",
    "device.wal.syncs",
    "server.ticks",
    "server.keys_per_tick",
    "server.rejected",
    "gen.late_share",
    "trace.overhead",
    "trace.spans",
    "trace.unaccounted_share",
    "run.error_share",
    "run.attempted",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

impl RunArgs {
    /// Parse `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (1, 10, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 1..=600"));
        }
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, from the untraced part of the run.
    pub e2e: Metrics,
    /// Per-layer metrics, from the traced part (traced runs only).
    pub layers: Option<Metrics>,
    /// Correctness checks.
    pub checks: Checks,
}

/// Set up [`SETUP_REPEATS`] times, dropping each rig before building the
/// next; returns the last rig and the median set-up time in seconds.
pub fn timed_setups<R>(
    mut setup: impl FnMut(usize) -> mlkv::StorageResult<R>,
) -> mlkv::StorageResult<(R, f64)> {
    let mut seconds = Vec::new();
    let mut rig = None;
    for index in 0..SETUP_REPEATS {
        drop(rig.take());
        let start = std::time::Instant::now();
        rig = Some(setup(index)?);
        seconds.push(start.elapsed().as_secs_f64());
    }
    println!("set-ups (s): {seconds:.4?}");
    Ok((
        rig.expect("SETUP_REPEATS is positive"),
        report::median(&seconds),
    ))
}

/// Run the workload named in `args`.
pub fn run(args: &RunArgs, sleep_p50_ms: f64) -> mlkv::StorageResult<Outcome> {
    match args.workload.as_str() {
        "kge-cold" => kge::run(&kge::COLD, args, sleep_p50_ms),
        "kge-warm" => kge::run(&kge::WARM, args, sleep_p50_ms),
        _ => serve::run(args, sleep_p50_ms),
    }
}
