//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints the host descriptor, the sleep calibration, every metric of the
//! workload by name and unit, and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when a
//! correctness check fails or the run cannot complete.

use std::process::ExitCode;

use perfbench::report::{result_json, sleep_calibration, Metrics};
use perfbench::{RunArgs, ACCOUNTING_TOLERANCE, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", perfbench::report::host_descriptor());
    let ssd = perfbench::adapters::SsdModel::DEFAULT;
    let sleep_p50_ms = sleep_calibration(ssd.read_latency, 200);
    println!(
        "ssd model: {} us per request + {} MiB/s; a {} us sleep takes {:.1} us (p50 of 200)",
        ssd.read_latency.as_micros(),
        ssd.bytes_per_sec >> 20,
        ssd.read_latency.as_micros(),
        sleep_p50_ms * 1e3
    );
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = match perfbench::run(&args, sleep_p50_ms) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    // Store files live in per-set-up directories that the run removed;
    // drop their parent too when nothing else is in it.
    let _ = std::fs::remove_dir(".bench_data");
    let checks = outcome.checks;
    let mut e2e = outcome.e2e;
    e2e.push("error_share", checks.error_share(), "ratio");
    e2e.print("end-to-end:");
    let (metrics, names): (Metrics, &[&str]) = match outcome.layers {
        Some(mut layers) => {
            layers.push("run.error_share", checks.error_share(), "ratio");
            layers.push("run.attempted", checks.attempted as f64, "count");
            layers.print("per-layer (traced):");
            let emb = layers
                .get("trainer.emb_ms_per_step")
                .map_or(0.0, |m| m.value);
            let gap = layers
                .get("trace.unaccounted_share")
                .map_or(0.0, |m| m.value);
            if emb > 0.0 {
                println!(
                    "accounting: table.self + trainer engine time explain {:.1}% of \
                     trainer.emb_ms_per_step (tolerance {:.0}%): {}",
                    (1.0 - gap) * 100.0,
                    ACCOUNTING_TOLERANCE * 100.0,
                    if gap.abs() <= ACCOUNTING_TOLERANCE {
                        "within"
                    } else {
                        "OUTSIDE"
                    }
                );
            }
            (layers, &PER_LAYER)
        }
        None => (e2e, &END_TO_END),
    };
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    match result_json(checks, &metrics, names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
