//! Measurement helpers and output: percentiles, peak RSS, the host
//! descriptor, the sleep calibration, and the metric lines and final JSON
//! object the benchmark prints.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The `p`-th percentile (0–100) of `values` by nearest rank; 0 when empty.
/// Sorts `values` in place.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where the
/// platform does not expose it.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fresh directory for one store's files, under `.bench_data` in the
/// working directory (the benchmark reads and writes only there).
pub fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_data").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One line describing the host: cores, the pinned I/O backend, and every
/// `MLKV_*` variable set in the environment (the benchmark ignores them).
pub fn host_descriptor() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MLKV_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    let env = if env.is_empty() {
        "none".to_string()
    } else {
        env.join(",")
    };
    format!("host: nproc={nproc} io_backend=sync(pinned) mlkv_env={env} (ignored)")
}

/// Realised duration of `thread::sleep(requested)`: median of `samples`
/// sleeps, in milliseconds. `SimLatencyDevice` sleeps for each simulated
/// read, so this is the per-request cost the simulated SSD really has here.
pub fn sleep_calibration(requested: Duration, samples: usize) -> f64 {
    let mut realised: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::thread::sleep(requested);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    percentile(&mut realised, 50.0)
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Ordered list of metrics, printed one per line.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Append a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Print `metric <name> <value> <unit>` lines under `heading`.
    pub fn print(&self, heading: &str) {
        println!("{heading}");
        for m in &self.0 {
            println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
}

/// Outcome of the correctness checks: how many were made and how many failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Record one check.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Record `n` checks of which `failed` failed.
    pub fn add(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// failed ÷ attempted.
    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`
/// with the metrics named in `names`, in that order, taken from `metrics`.
/// Errors when one of them was not measured.
pub fn result_json(checks: Checks, metrics: &Metrics, names: &[&str]) -> Result<String, String> {
    let mut body = String::new();
    for (i, name) in names.iter().enumerate() {
        let m = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("unused", 2.0, "s");
        let checks = Checks {
            attempted: 10,
            failed: 0,
        };
        let line = result_json(checks, &m, &["latency_ms"]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(checks, &m, &["missing"]).is_err());
    }
}
