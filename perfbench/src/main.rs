//! The repository benchmark: three user workloads measured end to end,
//! and a traced run that attributes time to the program's layers.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures-cold|long-trace-cached|serve-warm \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it from the repository root. Scratch stores live under
//! `.bench_work/` and are removed before exit; a traced run saves its
//! spans under `.bench_out/`. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench/README.md` describes the workloads, the
//! metrics and which layer moves which end-to-end number.

mod ledger;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// What one run measured, and how many of its checked operations went
/// wrong.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations: simulation requests, warm repeats, submits
    /// and differential comparisons.
    pub attempted: u64,
    /// Checked operations that failed or gave a wrong result.
    pub failed: u64,
    /// `(name, value, unit)`, in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation, as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("# check failed: {what}");
        }
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Seed of every generated trace.
    pub seed: u64,
    /// Length of the measurement window, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for this run's stores.
    pub work: PathBuf,
}

fn parse_args() -> Option<Args> {
    let mut workload = None;
    let mut seed = ebcp_harness::Scale::quick().seed;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok()?,
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| workloads::NAMES.contains(&w.as_str()))?;
    Some(Args {
        work: PathBuf::from(".bench_work").join(&workload),
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        eprintln!(
            "usage: ebcp-perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1]",
            workloads::NAMES.join("|")
        );
        return ExitCode::from(2);
    };
    // Leftovers of an interrupted run would only eat disk.
    let _ = std::fs::remove_dir_all(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("error: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let report = if args.trace {
        workloads::traced(&args)
    } else {
        workloads::untraced(&args)
    };
    let _ = std::fs::remove_dir_all(".bench_work");
    for (name, value, unit) in &report.metrics {
        eprintln!("# {name:<48} {value:>14.4} {unit}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
