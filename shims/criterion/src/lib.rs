//! Offline stand-in for `criterion`.
//!
//! Keeps the workspace's `[[bench]]` targets (all `harness = false`)
//! compiling and runnable without crates.io access. The authoring
//! surface matches the subset the benches use — `criterion_group!` /
//! `criterion_main!`, `Criterion::benchmark_group`, group
//! `sample_size` / `throughput` / `bench_function` / `finish`, and
//! `Bencher::{iter, iter_batched}` — but the statistics are
//! intentionally simple: each benchmark runs `sample_size` timed
//! samples and reports min/median/mean wall-clock time (plus element
//! throughput when declared). No warm-up analysis, outlier detection,
//! or HTML reports. Like the real crate, the first non-flag argument
//! (`cargo bench -- des`) is a name filter: only benchmarks whose
//! `group/id` label contains it run.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Re-export of the standard black box (the real crate's `black_box`).
pub use std::hint::black_box;

/// Throughput declaration for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Batch sizing for `iter_batched` (accepted, not used for tuning).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// The process's bench name filter, set once by `criterion_main!`.
static FILTER: OnceLock<String> = OnceLock::new();

/// Takes the name filter from the bench binary's arguments: the first
/// one that is not a flag. Called by `criterion_main!`.
#[doc(hidden)]
pub fn set_filter_from_args(args: &[String]) {
    if let Some(filter) = filter_arg(args) {
        let _ = FILTER.set(filter.to_owned());
    }
}

fn filter_arg(args: &[String]) -> Option<&str> {
    args.iter()
        .map(String::as_str)
        .find(|a| !a.starts_with('-'))
}

/// Top-level benchmark driver (subset of `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    /// Runs only benchmarks whose label contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            filter: FILTER.get().cloned(),
        }
    }
}

impl Criterion {
    /// Sets the default number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
        }
    }

    /// Runs a stand-alone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.sample_size;
        run_one(
            self.filter.as_deref(),
            "",
            id.as_ref(),
            sample_size,
            None,
            f,
        );
        self
    }
}

/// A named group of benchmarks (subset of `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    parent: &'a Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares per-iteration throughput for this group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Times `f` and prints a one-line report.
    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(
            self.parent.filter.as_deref(),
            &self.name,
            id.as_ref(),
            self.sample_size,
            self.throughput,
            f,
        );
        self
    }

    /// Ends the group (printing is per-benchmark; nothing to flush).
    pub fn finish(self) {}
}

/// Per-benchmark timing handle (subset of `criterion::Bencher`).
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times one sample of `routine`.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let t0 = Instant::now();
        black_box(routine());
        self.samples.push(t0.elapsed());
    }

    /// Times `routine` on a fresh input from `setup` (setup excluded
    /// from the measurement).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        self.samples.push(t0.elapsed());
    }
}

fn run_one<F>(
    filter: Option<&str>,
    group: &str,
    id: &str,
    sample_size: usize,
    throughput: Option<Throughput>,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    let label = if group.is_empty() {
        id.to_owned()
    } else {
        format!("{group}/{id}")
    };
    if filter.is_some_and(|filter| !label.contains(filter)) {
        return;
    }
    let mut b = Bencher {
        samples: Vec::with_capacity(sample_size),
    };
    // One untimed warm-up sample, then `sample_size` timed samples.
    f(&mut b);
    b.samples.clear();
    while b.samples.len() < sample_size {
        f(&mut b);
    }
    b.samples.sort();
    let min = b.samples[0];
    let median = b.samples[b.samples.len() / 2];
    let mean = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    let mut line = format!(
        "bench {label:<48} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  ({} samples)",
        min,
        median,
        mean,
        b.samples.len(),
    );
    if let Some(t) = throughput {
        let per_sec = |n: u64| n as f64 / median.as_secs_f64().max(1e-12);
        match t {
            Throughput::Elements(n) => {
                line.push_str(&format!("  ~{:.2} Melem/s", per_sec(n) / 1e6));
            }
            Throughput::Bytes(n) => {
                line.push_str(&format!("  ~{:.2} MB/s", per_sec(n) / 1e6));
            }
        }
    }
    println!("{line}");
}

/// Declares a group-runner function over benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares `main` running the given groups. The first non-flag
/// argument is a bench name filter; flags from `cargo bench`/`cargo
/// test` are accepted and ignored.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` runs harness-less bench binaries with
            // libtest-style flags; never execute benches there.
            let args: Vec<String> = std::env::args().skip(1).collect();
            if args.iter().any(|a| a == "--test" || a == "--list") {
                return;
            }
            $crate::set_filter_from_args(&args);
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(100));
        let mut runs = 0u32;
        g.bench_function("counting", |b| {
            b.iter(|| {
                runs += 1;
            })
        });
        g.finish();
        // 1 warm-up + 3 timed samples.
        assert_eq!(runs, 4);
    }

    #[test]
    fn name_filter_selects_by_label() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_arg(&args(&["--bench", "des"])), Some("des"));
        assert_eq!(filter_arg(&args(&["--bench"])), None);
        let mut c = Criterion {
            filter: Some("des/".into()),
            ..Criterion::default().sample_size(1)
        };
        let (mut kept, mut skipped) = (0u32, 0u32);
        let mut g = c.benchmark_group("des");
        g.bench_function("replay", |b| b.iter(|| kept += 1));
        g.finish();
        let mut g = c.benchmark_group("store_reads");
        g.bench_function("des_lookalike", |b| b.iter(|| skipped += 1));
        g.finish();
        c.bench_function("ungrouped", |b| b.iter(|| skipped += 1));
        assert_eq!((kept, skipped), (2, 0), "1 warm-up + 1 sample, or nothing");
    }

    #[test]
    fn iter_batched_consumes_fresh_input() {
        let mut c = Criterion::default().sample_size(2);
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8, 2, 3], |v| v.len(), BatchSize::LargeInput)
        });
    }
}
