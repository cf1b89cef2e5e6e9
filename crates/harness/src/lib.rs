//! Parallel experiment orchestration for the EBCP reproduction.
//!
//! The harness sits between the simulator (`ebcp-sim`) and the
//! experiment drivers (`ebcp-bench`). Drivers describe work as
//! content-addressed [`Job`]s — a `RunSpec` × `PrefetcherSpec` pair —
//! and submit batches to a [`Harness`], which:
//!
//! - **deduplicates** by content hash, so the no-prefetch baseline a
//!   dozen figures share runs exactly once per workload;
//! - **parallelizes** across a `std::thread` worker pool, running every
//!   job two-phase: one `Arc`-shared pre-resolved L1 event stream per
//!   `(workload, seed, length, L1 geometry)` feeds back-end-only
//!   replays, so a prefetcher sweep pays the front-end cost once per
//!   workload (streams are built by chunked generation — constant
//!   memory — and disk-cached under `preres/`), and the jobs that share
//!   a stream and a machine replay in lockstep, one pass for all lanes;
//! - **caches** results on disk ([`ResultStore`]), making re-runs
//!   incremental across processes;
//! - **reports** progress and throughput over a telemetry channel,
//!   republishing every event on a harness-lifetime [`EventBus`] (the
//!   seam the sweep service streams live telemetry through), and writes
//!   machine-readable artifacts: a *deterministic* `results.json`
//!   (byte-identical for any worker count, cache state, or transport —
//!   see [`results_doc`]) and a volatile `telemetry.json` (timings,
//!   rates, cache provenance);
//! - **isolates faults**: a job whose simulation panics is caught
//!   ([`std::panic::catch_unwind`]), retried once, and — if it fails
//!   again — recorded as [`Outcome::Failed`] without disturbing its
//!   siblings, whose results stay cached; corrupt cache entries are
//!   quarantined (`*.corrupt`) and transparently re-run (self-heal).
//!
//! Multi-core [`CmpJob`] cells get all of the above except lockstep
//! and the `results.json` rows, through the same executor (`exec.rs`).
//!
//! Results come back in submission order and are bit-identical for any
//! worker count: the simulator is deterministic and assembly never
//! depends on completion order.
//!
//! [`Harness::run`] is the strict entry point: any failed job makes it
//! panic with a summary naming the failed cells (after the whole batch
//! has executed, so sibling results are already memoized and cached).
//! [`Harness::run_outcomes`] is the keep-going entry point: it returns
//! one [`JobOutcome`] per submitted job and never panics on job
//! failure. [`Harness::run_cmp`] and [`Harness::run_cmp_outcomes`] are
//! the same pair for CMP cells.
//!
//! # Examples
//!
//! ```
//! use ebcp_harness::{Harness, Job};
//! use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
//! use ebcp_trace::WorkloadSpec;
//!
//! let spec = RunSpec {
//!     workload: WorkloadSpec::database().scaled(1, 32),
//!     seed: 7,
//!     warmup_insts: 20_000,
//!     measure_insts: 20_000,
//!     sim: SimConfig::scaled_down(16),
//! };
//! let h = Harness::serial();
//! // The duplicate baseline collapses: two results, one simulation.
//! let jobs =
//!     vec![Job::new(spec.clone(), PrefetcherSpec::None), Job::new(spec, PrefetcherSpec::None)];
//! let results = h.run(&jobs);
//! assert_eq!(results[0], results[1]);
//! assert_eq!(h.summary().executed, 1);
//! ```

pub mod cmp;
mod exec;
pub mod job;
pub mod json;
pub mod preres;
pub mod queue;
pub mod scale;
pub mod source;
pub mod store;
pub mod telemetry;
pub mod traces;

use std::borrow::Cow;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use ebcp_sim::frontend::PreResolved;
use ebcp_sim::{CmpResult, SimResult};

pub use crate::cmp::{CmpJob, CMP_CANON_VERSION};
pub use crate::job::{fnv1a64, Fnv64, Job, JobId};
pub use crate::json::Value;
pub use crate::queue::{JobService, QueueConfig, ServiceStatus, SubmitError};
pub use crate::scale::Scale;
pub use crate::source::{est_pre_bytes, seg_records_for_budget, DEFAULT_MEM_BUDGET_BYTES};
pub use crate::store::{
    store_footprint, CacheRead, ResultStore, StoreClassFootprint, StoreFootprint,
};
pub use crate::telemetry::{Event, EventBus, Progress, ResultSource, RunSummary, Subscription};

/// Poison-recovering lock. A panic inside a worker is caught and
/// converted to an [`Outcome::Failed`], but if one ever unwinds while
/// a guard is held (e.g. out of a hook the catch does not cover), the
/// mutex is *poisoned* — and the data it protects (queues of indices,
/// append-only output slots, counters) is still perfectly valid: no
/// invariant spans a critical section here. Recovering instead of
/// propagating keeps one crashed job from aborting the whole sweep.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload (the `panic!` message when it was a
/// string, which it practically always is).
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".into(),
        },
    }
}

/// How one cell ended: a single-core [`JobOutcome`] or a multi-core
/// [`CmpOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<R> {
    /// Simulated (or served from a cache) successfully.
    Ok(R),
    /// First attempt panicked; the retry succeeded. The result is as
    /// trustworthy as an [`Outcome::Ok`] one — the simulator is
    /// deterministic, so a one-shot panic means external interference
    /// (e.g. a blown fault-injection fuse), not flakiness in the result.
    Retried(R),
    /// Both attempts panicked (or the cell was rejected before running).
    /// The cell is memoized as failed — it will not be retried by later
    /// batches — and nothing was cached.
    Failed {
        /// The second attempt's panic message, or the rejection.
        reason: String,
    },
}

impl<R> Outcome<R> {
    /// The result, unless the cell failed.
    pub const fn result(&self) -> Option<&R> {
        match self {
            Outcome::Ok(r) | Outcome::Retried(r) => Some(r),
            Outcome::Failed { .. } => None,
        }
    }

    /// The failure reason, if the cell failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            Outcome::Failed { reason } => Some(reason),
            _ => None,
        }
    }

    /// True for [`Outcome::Failed`].
    pub const fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed { .. })
    }
}

/// How one single-core [`Job`] ended.
pub type JobOutcome = Outcome<SimResult>;

/// How one multi-core [`CmpJob`] ended.
pub type CmpOutcome = Outcome<CmpResult>;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Per-process memory budget for pre-resolved event streams,
    /// divided evenly among the concurrent workers. A single-core job
    /// whose stream ([`est_pre_bytes`]) would not fit its worker's
    /// share replays segment-at-a-time instead — from an on-disk block
    /// stream with a store, from blocks its worker resolves as it
    /// replays them without one — with byte-identical results. Traces
    /// themselves are never materialized: streams are built by chunked
    /// generation.
    pub mem_budget_bytes: u64,
    /// On-disk result store directory; `None` disables caching.
    pub store_dir: Option<PathBuf>,
    /// Render the live progress line on stderr.
    pub progress: bool,
    /// Keep generated traces on disk in the segmented binary format
    /// (`traces/` under the store directory) and replay them through
    /// mmap'd windows. Effective only with a store configured; each
    /// workload is then generated once per store lifetime instead of
    /// once per process, at the cost of the trace's 17 B/record on
    /// disk. Off by default: generation is deterministic and usually
    /// cheaper than the disk space at quick/standard scales.
    pub trace_store: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            jobs: 0,
            mem_budget_bytes: DEFAULT_MEM_BUDGET_BYTES,
            store_dir: None,
            progress: false,
            trace_store: false,
        }
    }
}

/// Per-job entry for the consolidated `results.json`, created in
/// submission order so the file is deterministic.
#[derive(Debug, Clone)]
struct JobRecord {
    id: JobId,
    workload: String,
    prefetcher: String,
    source: ResultSource,
    wall_ms: Option<u64>,
    insts_per_sec: Option<f64>,
    /// The job succeeded only on its second attempt.
    retried: bool,
    /// Panic message when the job failed on both attempts.
    error: Option<String>,
}

impl JobRecord {
    /// Human label matching [`Job::label`].
    fn label(&self) -> String {
        format!("{} x {}", self.workload, self.prefetcher)
    }

    /// The `outcome` tag written to `results.json`.
    fn outcome_tag(&self) -> &'static str {
        if self.error.is_some() {
            "failed"
        } else if self.retried {
            "retried"
        } else {
            "ok"
        }
    }
}

/// The job-execution engine. See the crate docs for the full contract.
///
/// A `Harness` is long-lived: experiment drivers submit successive
/// batches to the same instance, and the in-process memo deduplicates
/// *across* batches (Figure 4's baselines feed Figure 6 for free).
pub struct Harness {
    cfg: HarnessConfig,
    workers: usize,
    store: Option<ResultStore>,
    memo: Mutex<HashMap<JobId, JobOutcome>>,
    records: Mutex<Vec<JobRecord>>,
    counters: Mutex<RunSummary>,
    /// Pre-resolved event streams, keyed by [`Job::pre_key`] and shared
    /// across batches for the harness's whole lifetime — in the sweep
    /// daemon, this is the warm cache that makes a repeat sweep's front
    /// end free. One stream is built (or disk-loaded) exactly once: the
    /// first worker to need it initializes the `OnceLock` while others
    /// block on `get_or_init`, then all share the `Arc`.
    pres: Mutex<HashMap<u64, Arc<OnceLock<Arc<PreResolved>>>>>,
    /// Outcomes of CMP cells ([`CmpJob`]), memoized separately from the
    /// single-core memo because the result shapes differ; identity and
    /// lifetime rules are the same.
    cmp_memo: Mutex<HashMap<JobId, CmpOutcome>>,
    /// Fan-out republisher for telemetry [`Event`]s.
    bus: EventBus,
}

impl Harness {
    /// Creates a harness. A configured store directory is created
    /// eagerly; if that fails, caching is disabled with a warning rather
    /// than failing the run.
    pub fn new(cfg: HarnessConfig) -> Self {
        let workers = match cfg.jobs {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let store = cfg
            .store_dir
            .as_ref()
            .and_then(|dir| match ResultStore::open(dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!(
                        "warning: result store at {} unavailable ({e}); caching disabled",
                        dir.display()
                    );
                    None
                }
            });
        Harness {
            cfg,
            workers,
            store,
            memo: Mutex::new(HashMap::new()),
            records: Mutex::new(Vec::new()),
            counters: Mutex::new(RunSummary::default()),
            pres: Mutex::new(HashMap::new()),
            cmp_memo: Mutex::new(HashMap::new()),
            bus: EventBus::new(),
        }
    }

    /// A single-threaded harness with no disk cache and no progress
    /// output — dedup and memoization only. The right default for tests
    /// and library callers.
    pub fn serial() -> Self {
        Self::new(HarnessConfig {
            jobs: 1,
            ..HarnessConfig::default()
        })
    }

    /// Resolved worker-thread count.
    pub const fn workers(&self) -> usize {
        self.workers
    }

    /// The on-disk store directory, if caching is active.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(ResultStore::dir)
    }

    /// The store's current on-disk footprint — results, pre-resolved
    /// streams and segmented traces — or `None` without a store.
    /// Walks the store directory; cheap at any realistic entry count
    /// but not free, so callers poll it (status requests), they don't
    /// spin on it.
    pub fn store_footprint(&self) -> Option<store::StoreFootprint> {
        self.store_dir().map(store::store_footprint)
    }

    /// The harness's telemetry bus. Subscribe to receive a copy of
    /// every [`Event`] from every batch this harness runs.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// The already-known outcome for `job`, if the in-process memo has
    /// one — no disk probe, no execution. The sweep service's submit
    /// fast path: warm cells answer instantly without entering the
    /// queue.
    pub fn cached_outcome(&self, job: &Job) -> Option<JobOutcome> {
        self.cached_outcome_by_id(job.id())
    }

    /// [`Harness::cached_outcome`] for a caller that already holds the
    /// job's id.
    pub(crate) fn cached_outcome_by_id(&self, id: JobId) -> Option<JobOutcome> {
        lock(&self.memo).get(&id).cloned()
    }

    /// Pre-resolved streams currently held warm (distinct pre-keys).
    pub fn warm_streams(&self) -> usize {
        lock(&self.pres)
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// Resolves a batch of jobs, returning results in submission order.
    ///
    /// Duplicates — within the batch, against earlier batches, or
    /// against the on-disk store — are served without simulating.
    ///
    /// This is the **strict** entry point: every job must succeed.
    ///
    /// # Panics
    ///
    /// Panics with a summary naming the failed cells if any job failed
    /// (panicked on both attempts). The panic is raised only after the
    /// whole batch has executed, so sibling results are already
    /// memoized and cached; use [`Harness::run_outcomes`] to keep going
    /// instead.
    pub fn run(&self, jobs: &[Job]) -> Vec<SimResult> {
        self.resolve_strict(jobs)
    }

    /// Resolves a batch of jobs, returning one [`JobOutcome`] per job in
    /// submission order. The **keep-going** entry point: a failed job
    /// yields [`Outcome::Failed`] and never disturbs its siblings,
    /// whose results are memoized and cached as usual. Failures are
    /// memoized too — the deterministic simulator would only fail
    /// again — so resubmitting a failed job reports the same outcome
    /// without re-running it.
    ///
    /// A `Job` over a CMP per-core workload (`addr_space != 0`) fails
    /// up front with an error naming [`Harness::run_cmp`] as the route.
    pub fn run_outcomes(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        // Hash each job once; dedupe, the memo pass, the store and the
        // final submission-order map all reuse these ids.
        self.resolve(jobs, &Job::ids(jobs))
    }

    /// The labels and panic reasons of every job that failed so far,
    /// in submission order — the material for a driver's end-of-run
    /// failure summary.
    pub fn failures(&self) -> Vec<(String, String)> {
        lock(&self.records)
            .iter()
            .filter_map(|rec| Some((rec.label(), rec.error.clone()?)))
            .collect()
    }

    /// Resolves a batch of CMP cells, returning results in submission
    /// order — the **strict** multi-core entry point, mirroring
    /// [`Harness::run`].
    ///
    /// # Panics
    ///
    /// Panics with a summary naming the failed cells if any job failed,
    /// after the whole batch has executed.
    pub fn run_cmp(&self, jobs: &[CmpJob]) -> Vec<CmpResult> {
        self.resolve_strict(jobs)
    }

    /// Resolves a batch of CMP cells, returning one [`CmpOutcome`] per
    /// job in submission order — the **keep-going** multi-core entry
    /// point, mirroring [`Harness::run_outcomes`]: same memo, checked
    /// store, panic isolation, retry-once and counters. CMP cells get
    /// no `results.json`/telemetry row; drivers render them through
    /// [`results_doc_cmp`].
    pub fn run_cmp_outcomes(&self, jobs: &[CmpJob]) -> Vec<CmpOutcome> {
        // One hash per job, reused as in `run_outcomes`.
        self.resolve(jobs, &CmpJob::ids(jobs))
    }

    /// [`Harness::run_cmp_outcomes`] for a caller that already holds
    /// each job's id (`ids == CmpJob::ids(jobs)`), such as a daemon that
    /// hashed the cells to dedupe a request.
    ///
    /// # Panics
    ///
    /// If the two slices differ in length.
    pub fn run_cmp_outcomes_with_ids(&self, jobs: &[CmpJob], ids: &[JobId]) -> Vec<CmpOutcome> {
        self.resolve(jobs, ids)
    }

    /// Aggregate statistics over everything resolved so far.
    pub fn summary(&self) -> RunSummary {
        *lock(&self.counters)
    }

    /// The deterministic [`ResultRow`]s for everything resolved so far,
    /// in first-submission order — the input to [`results_doc`].
    pub fn result_rows(&self) -> Vec<ResultRow> {
        let memo = lock(&self.memo);
        lock(&self.records)
            .iter()
            .map(|rec| ResultRow {
                id: rec.id,
                workload: rec.workload.clone(),
                prefetcher: rec.prefetcher.clone(),
                outcome: memo[&rec.id].clone(),
            })
            .collect()
    }

    /// Writes the **deterministic** `results.json`: per unique job
    /// (submission order) its identity, outcome and full result —
    /// nothing that varies with worker count, cache temperature, wall
    /// clock, or transport. A sweep submitted to a warm daemon writes
    /// the same bytes as a cold local run. Timings and cache provenance
    /// go to [`Harness::write_telemetry_json`] instead.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_results_json(&self, path: &Path) -> io::Result<()> {
        let submitted = lock(&self.counters).submitted;
        write_doc(path, &results_doc(submitted, &self.result_rows()))
    }

    /// Writes the **volatile** `telemetry.json` companion: the full run
    /// summary (hit counts, wall clock, throughput) plus per-job cache
    /// provenance and timing. Everything results.json deliberately
    /// omits to stay deterministic lands here.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_telemetry_json(&self, path: &Path) -> io::Result<()> {
        let summary = self.summary();
        let records = lock(&self.records);
        let jobs: Vec<Value> = records
            .iter()
            .map(|rec| {
                Value::Obj(vec![
                    ("id".into(), Value::Str(rec.id.to_string())),
                    ("workload".into(), Value::Str(rec.workload.clone())),
                    ("prefetcher".into(), Value::Str(rec.prefetcher.clone())),
                    ("source".into(), Value::Str(rec.source.tag().into())),
                    ("outcome".into(), Value::Str(rec.outcome_tag().into())),
                    (
                        "wall_ms".into(),
                        rec.wall_ms.map_or(Value::Null, Value::Int),
                    ),
                    (
                        "insts_per_sec".into(),
                        rec.insts_per_sec.map_or(Value::Null, Value::Num),
                    ),
                ])
            })
            .collect();
        let doc = Value::Obj(vec![
            (
                "summary".into(),
                Value::Obj(vec![
                    ("submitted".into(), Value::Int(summary.submitted as u64)),
                    ("unique".into(), Value::Int(summary.unique as u64)),
                    ("executed".into(), Value::Int(summary.executed as u64)),
                    ("memo_hits".into(), Value::Int(summary.memo_hits as u64)),
                    ("disk_hits".into(), Value::Int(summary.disk_hits as u64)),
                    ("failed".into(), Value::Int(summary.failed as u64)),
                    ("retried".into(), Value::Int(summary.retried as u64)),
                    ("quarantined".into(), Value::Int(summary.quarantined as u64)),
                    (
                        "records_simulated".into(),
                        Value::Int(summary.records_simulated),
                    ),
                    (
                        "wall_ms".into(),
                        Value::Int(summary.wall.as_millis() as u64),
                    ),
                    ("insts_per_sec".into(), Value::Num(summary.insts_per_sec())),
                ]),
            ),
            ("jobs".into(), Value::Arr(jobs)),
        ]);
        write_doc(path, &doc)
    }
}

/// One deterministic `results.json` row: a unique job's identity and
/// outcome, nothing volatile.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Content hash of the job.
    pub id: JobId,
    /// Workload preset name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// How the job ended. [`JobOutcome::Retried`] renders as `"ok"` —
    /// whether a cell needed its second attempt is timing, not result.
    pub outcome: JobOutcome,
}

/// One deterministic `results.json` row for a multi-core CMP cell: the
/// cell's identity and outcome, nothing volatile.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpResultRow {
    /// Content hash of the CMP job.
    pub id: JobId,
    /// The cell name ([`ebcp_sim::CmpSpec::name`], e.g. `database-mix`).
    pub cell: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Cores on the chip.
    pub cores: u64,
    /// How the cell ended ([`CmpOutcome::Retried`] renders as `"ok"`).
    pub outcome: CmpOutcome,
}

/// Renders the deterministic results document from per-job rows.
///
/// This is the **single** renderer behind `results.json`: local `repro`
/// runs call it through [`Harness::write_results_json`], and the sweep
/// service's client assembles the rows it streamed back and calls it
/// directly — which is what makes `repro submit` byte-identical to a
/// local run of the same sweep.
pub fn results_doc(submitted: usize, rows: &[ResultRow]) -> Value {
    results_doc_cmp(submitted, rows, &[])
}

/// [`results_doc`] with multi-core CMP cells appended: single-core jobs
/// render exactly as before, and a `"cmp_jobs"` array is added only
/// when the sweep actually carried multi-core cells — so a sweep
/// without a `cores` axis stays byte-identical to the pre-CMP format.
/// Both the local sweep path and the service client assemble through
/// this one renderer, preserving the byte-identity contract for CMP
/// grids too.
pub fn results_doc_cmp(submitted: usize, rows: &[ResultRow], cmp_rows: &[CmpResultRow]) -> Value {
    let failed = rows.iter().filter(|r| r.outcome.is_failed()).count()
        + cmp_rows.iter().filter(|r| r.outcome.is_failed()).count();
    let jobs: Vec<Value> = rows
        .iter()
        .map(|row| {
            let head = [
                ("id".into(), Value::Str(row.id.to_string())),
                ("workload".into(), Value::Str(row.workload.clone())),
                ("prefetcher".into(), Value::Str(row.prefetcher.clone())),
            ];
            let tail = outcome_fields(&row.outcome, store::result_to_json);
            Value::Obj(head.into_iter().chain(tail).collect())
        })
        .collect();
    let mut fields = vec![
        (
            "summary".into(),
            Value::Obj(vec![
                ("submitted".into(), Value::Int(submitted as u64)),
                (
                    "unique".into(),
                    Value::Int((rows.len() + cmp_rows.len()) as u64),
                ),
                ("failed".into(), Value::Int(failed as u64)),
            ]),
        ),
        ("jobs".into(), Value::Arr(jobs)),
    ];
    if !cmp_rows.is_empty() {
        let cmp_jobs: Vec<Value> = cmp_rows
            .iter()
            .map(|row| {
                let head = [
                    ("id".into(), Value::Str(row.id.to_string())),
                    ("cell".into(), Value::Str(row.cell.clone())),
                    ("prefetcher".into(), Value::Str(row.prefetcher.clone())),
                    ("cores".into(), Value::Int(row.cores)),
                ];
                let tail = outcome_fields(&row.outcome, cmp::cmp_result_to_json);
                Value::Obj(head.into_iter().chain(tail).collect())
            })
            .collect();
        fields.push(("cmp_jobs".into(), Value::Arr(cmp_jobs)));
    }
    Value::Obj(fields)
}

/// The `outcome`, `error` and `result` fields that end every
/// `results.json` row, single-core or CMP. A retried success renders as
/// `"ok"`: whether a cell needed its second attempt is timing, not
/// result.
fn outcome_fields<R>(
    outcome: &Outcome<R>,
    to_json: fn(&R) -> Value,
) -> [(Cow<'static, str>, Value); 3] {
    let tag = if outcome.is_failed() { "failed" } else { "ok" };
    [
        ("outcome".into(), Value::Str(tag.into())),
        (
            "error".into(),
            outcome
                .failure()
                .map_or(Value::Null, |e| Value::Str(e.into())),
        ),
        (
            "result".into(),
            outcome.result().map_or(Value::Null, to_json),
        ),
    ]
}

/// Writes a pretty-printed JSON document, creating parent directories.
pub fn write_doc(path: &Path, doc: &Value) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.to_json_pretty())
}

/// A scratch directory under the temp dir, removed on drop (the store
/// tests' `tmpdir`s).
#[cfg(test)]
pub(crate) struct TmpDir(pub(crate) PathBuf);

#[cfg(test)]
impl std::ops::Deref for TmpDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

#[cfg(test)]
impl AsRef<Path> for TmpDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
    use ebcp_trace::WorkloadSpec;

    fn spec(workload: WorkloadSpec, seed: u64) -> RunSpec {
        RunSpec {
            workload,
            seed,
            warmup_insts: 15_000,
            measure_insts: 15_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    fn small_batch() -> Vec<Job> {
        let w = WorkloadSpec::database().scaled(1, 16);
        vec![
            Job::new(spec(w.clone(), 3), PrefetcherSpec::None),
            Job::new(
                spec(w.clone(), 3),
                PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
            ),
            // Duplicate of the first: must not re-run.
            Job::new(spec(w, 3), PrefetcherSpec::None),
        ]
    }

    #[test]
    fn dedups_within_batch() {
        let h = Harness::serial();
        let jobs = small_batch();
        let out = h.run(&jobs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2]);
        let s = h.summary();
        assert_eq!((s.submitted, s.unique, s.executed), (3, 2, 2));
    }

    #[test]
    fn memoizes_across_batches() {
        let h = Harness::serial();
        let jobs = small_batch();
        let a = h.run(&jobs);
        let b = h.run(&jobs);
        assert_eq!(a, b);
        let s = h.summary();
        assert_eq!(s.executed, 2, "second batch must be all memo hits");
        assert_eq!(s.memo_hits, 2);
    }

    #[test]
    fn harness_replay_matches_direct_stepping() {
        // The harness runs jobs over pre-resolved streams; the results
        // must be byte-identical to the stepping oracle over the spec's
        // materialized trace.
        let h = Harness::serial();
        let jobs = small_batch();
        let out = h.run(&jobs);
        for (job, got) in jobs.iter().zip(&out) {
            let direct =
                ebcp_sim::stepping::run_stepped(&job.spec, &job.spec.materialize(), &job.pf);
            assert_eq!(&direct, got, "job {}", job.label());
        }
    }

    #[test]
    fn preres_disk_cache_round_trips_through_execute() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-pre-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 1,
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let jobs = small_batch();
        let a = Harness::new(cfg.clone()).run(&jobs);
        // The stream file exists and names the shared pre-key.
        let p = preres::path_for(&dir, &jobs[0]);
        assert!(p.is_file(), "stream must be cached at {}", p.display());
        // A fresh harness with the results wiped but streams kept must
        // still execute (results gone) — from the cached stream — and
        // agree byte-for-byte. Result entries live in 2-hex shard
        // subdirectories; streams live under `preres/`.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "preres") {
                std::fs::remove_dir_all(path).unwrap();
            }
        }
        let h2 = Harness::new(cfg);
        let b = h2.run(&jobs);
        assert_eq!(a, b);
        assert_eq!(h2.summary().executed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_matches_serial() {
        let jobs = small_batch();
        let serial = Harness::serial().run(&jobs);
        let par = Harness::new(HarnessConfig {
            jobs: 4,
            ..HarnessConfig::default()
        })
        .run(&jobs);
        assert_eq!(serial, par);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let h = Harness::new(HarnessConfig {
            jobs: 4,
            ..HarnessConfig::default()
        });
        let w = WorkloadSpec::database().scaled(1, 16);
        let jobs: Vec<Job> = (0..6)
            .map(|s| Job::new(spec(w.clone(), s), PrefetcherSpec::None))
            .collect();
        let out = h.run(&jobs);
        // Each seed yields a distinct result; order must match input.
        let rerun = Harness::serial().run(&jobs);
        assert_eq!(out, rerun);
    }

    #[test]
    fn disk_store_round_trip_executes_zero_second_time() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 1,
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let jobs = small_batch();
        let a = Harness::new(cfg.clone()).run(&jobs);
        // Fresh process simulation: a new harness, same store.
        let h2 = Harness::new(cfg);
        let b = h2.run(&jobs);
        assert_eq!(a, b);
        let s = h2.summary();
        assert_eq!(s.executed, 0, "warm store must satisfy every job");
        assert_eq!(s.disk_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn results_json_lists_every_unique_job() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Harness::serial();
        let jobs = small_batch();
        let _ = h.run(&jobs);
        let path = dir.join("results.json");
        h.write_results_json(&path).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("jobs").unwrap().as_arr().unwrap().len(), 2);
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("submitted").unwrap().as_u64(), Some(3));
        assert_eq!(summary.get("unique").unwrap().as_u64(), Some(2));
        assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));
        let first = &doc.get("jobs").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("outcome").unwrap().as_str(), Some("ok"));
        assert!(
            first.get("source").is_none(),
            "cache provenance is telemetry, not a result"
        );
        assert!(
            first
                .get("result")
                .unwrap()
                .get("insts")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );

        // The volatile companion carries provenance and timing.
        let tpath = dir.join("telemetry.json");
        h.write_telemetry_json(&tpath).unwrap();
        let tdoc = json::parse(&std::fs::read_to_string(&tpath).unwrap()).unwrap();
        assert_eq!(
            tdoc.get("summary")
                .unwrap()
                .get("executed")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        let tfirst = &tdoc.get("jobs").unwrap().as_arr().unwrap()[0];
        assert_eq!(tfirst.get("source").unwrap().as_str(), Some("run"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-workload × many-prefetcher batch forms a single lockstep
    /// unit; its results must be byte-identical to the per-job serial
    /// replay path (single-job batches, units of one), with every cell
    /// counted as executed.
    #[test]
    fn lockstep_batch_matches_per_job_replay() {
        let w = WorkloadSpec::database().scaled(1, 16);
        let pfs = [
            PrefetcherSpec::None,
            PrefetcherSpec::baseline(
                "stream",
                ebcp_prefetch::BaselineConfig::Stream(ebcp_prefetch::StreamConfig::default()),
            ),
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        ];
        let jobs: Vec<Job> = pfs
            .iter()
            .map(|pf| Job::new(spec(w.clone(), 3), pf.clone()))
            .collect();
        let lockstep = Harness::serial();
        let serial = Harness::serial();
        let one_by_one: Vec<SimResult> = jobs
            .iter()
            .flat_map(|job| serial.run(std::slice::from_ref(job)))
            .collect();
        assert_eq!(lockstep.run(&jobs), one_by_one);
        assert_eq!(lockstep.summary().executed, jobs.len());
        assert_eq!(serial.summary().executed, jobs.len());
    }

    /// A fault-injected lane panicking mid-lockstep fails only its own
    /// cell; sibling lanes return results byte-identical to the serial
    /// path's.
    #[test]
    fn lockstep_fault_lane_fails_alone() {
        use ebcp_prefetch::{BaselineConfig, FaultConfig};
        let w = WorkloadSpec::database().scaled(1, 16);
        let jobs = vec![
            Job::new(spec(w.clone(), 3), PrefetcherSpec::None),
            Job::new(
                spec(w.clone(), 3),
                PrefetcherSpec::baseline(
                    "fault",
                    BaselineConfig::Fault(FaultConfig::panic_after(40)),
                ),
            ),
            Job::new(
                spec(w, 3),
                PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
            ),
        ];
        let h = Harness::serial();
        let out = h.run_outcomes(&jobs);
        let reason = out[1].failure().expect("fault lane must fail");
        assert!(reason.contains("injected fault"), "{reason}");
        assert_eq!(h.summary().failed, 1);
        // Siblings are untouched and byte-identical to serial replays.
        let serial = Harness::serial();
        for k in [0, 2] {
            let reference = serial.run_outcomes(&jobs[k..=k]);
            assert_eq!(out[k], reference[0], "sibling lane {k}");
        }
    }

    /// The routing decision, both directions: a mis-shaped single-core
    /// `Job` over a CMP per-core workload gets a precise capability
    /// error that names the correct route (`Harness::run_cmp`), and the
    /// correctly-shaped `CmpJob` actually runs there — through the DES
    /// engine — instead of being rejected.
    #[test]
    fn cmp_routing_rejects_misshaped_job_and_runs_cmp_job() {
        let h = Harness::serial();
        let mut w = WorkloadSpec::database().scaled(1, 16);
        w.addr_space = 2; // per-core CMP address-space id
        let job = Job::new(spec(w.clone(), 3), PrefetcherSpec::None);
        let out = h.run_outcomes(std::slice::from_ref(&job));
        let reason = out[0].failure().expect("mis-shaped job must be rejected");
        assert!(reason.contains("CMP"), "{reason}");
        assert!(
            reason.contains("Harness::run_cmp"),
            "the error must name the correct route: {reason}"
        );
        let s = h.summary();
        assert_eq!((s.failed, s.executed), (1, 0), "rejected before any run");
        // Resubmission reports the same failure from the memo.
        let again = h.run_outcomes(&[job]);
        assert_eq!(again[0], out[0]);
        assert_eq!(h.summary().failed, 1, "no double-count on resubmission");

        // The very same per-core workload, correctly shaped as one
        // CmpJob cell, routes through the DES engine and succeeds.
        let cell = CmpJob::new(
            ebcp_sim::CmpSpec::heterogeneous(
                "pair",
                vec![
                    (
                        ebcp_trace::WorkloadSpec {
                            addr_space: 1,
                            ..w.clone()
                        },
                        3,
                    ),
                    (ebcp_trace::WorkloadSpec { addr_space: 2, ..w }, 4),
                ],
                10_000,
                10_000,
                SimConfig::scaled_down(16),
            ),
            PrefetcherSpec::None,
        );
        let cmp_out = h.run_cmp_outcomes(std::slice::from_ref(&cell));
        let r = cmp_out[0]
            .result()
            .expect("CmpJob must run, not be rejected");
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.insts == 10_000));
    }

    /// CMP cells are first-class harness citizens: memoized across
    /// batches, disk-cached with self-healing entries, results
    /// identical to a direct engine run. A corrupt `.cmp.json` entry is
    /// quarantined, counted, published on the bus and re-run
    /// byte-identically, and the re-run writes a valid entry back.
    #[test]
    fn cmp_cells_memoize_and_disk_cache() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-cmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 1,
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let cell = CmpJob::new(
            ebcp_sim::CmpSpec::homogeneous(
                WorkloadSpec::database().scaled(1, 32),
                2,
                10_000,
                10_000,
                SimConfig::scaled_down(16),
            ),
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        );
        let h = Harness::new(cfg.clone());
        let a = h.run_cmp(std::slice::from_ref(&cell));
        assert_eq!(a[0], cell.spec.run(&cell.pf), "harness == direct engine");
        // Same harness: memo hit, nothing executed.
        let b = h.run_cmp(std::slice::from_ref(&cell));
        assert_eq!(a, b);
        assert_eq!(h.summary().executed, 1);
        assert_eq!(h.summary().memo_hits, 1);
        // Fresh harness, warm store: disk hit, zero simulations.
        let h2 = Harness::new(cfg.clone());
        let c = h2.run_cmp(std::slice::from_ref(&cell));
        assert_eq!(a, c);
        let s = h2.summary();
        assert_eq!((s.executed, s.disk_hits), (0, 1));

        // Tear the entry mid-file: the next harness quarantines it and
        // re-runs the cell.
        let entry = ResultStore::open(&dir).unwrap().cmp_entry_path(&cell);
        let bytes = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();
        let h3 = Harness::new(cfg.clone());
        let rx = h3.bus().subscribe();
        let d = h3.run_cmp(std::slice::from_ref(&cell));
        assert_eq!(a, d, "healed result must be byte-identical");
        let s = h3.summary();
        assert_eq!(
            (s.quarantined, s.executed, s.disk_hits),
            (1, 1, 0),
            "the corrupt entry is quarantined and its cell re-run"
        );
        let published = rx
            .try_iter()
            .filter(|ev| matches!(ev, Event::CacheQuarantined { .. }))
            .count();
        assert_eq!(published, 1, "the quarantine is published on the bus");
        let mut quarantined = entry.clone().into_os_string();
        quarantined.push(".corrupt");
        assert!(Path::new(&quarantined).is_file());
        // The re-run wrote a valid entry back.
        let h4 = Harness::new(cfg);
        assert_eq!(h4.run_cmp(std::slice::from_ref(&cell)), a);
        assert_eq!(h4.summary().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A faulting prefetcher fails only its own CMP cell; the sibling
    /// cell completes and matches its direct run. A one-shot fault
    /// blows on the first attempt and succeeds on the retry.
    #[test]
    fn cmp_fault_cell_fails_alone() {
        use ebcp_prefetch::{BaselineConfig, FaultConfig};
        let spec = ebcp_sim::CmpSpec::homogeneous(
            WorkloadSpec::database().scaled(1, 32),
            2,
            10_000,
            10_000,
            SimConfig::scaled_down(16),
        );
        let one_shot = FaultConfig::one_shot(0, 0xC3F0_0D5E ^ u64::from(std::process::id()));
        let fuse = one_shot.fuse_path().unwrap();
        let _ = std::fs::remove_file(&fuse);
        let cells = vec![
            CmpJob::new(spec.clone(), PrefetcherSpec::None),
            CmpJob::new(
                spec.clone(),
                PrefetcherSpec::baseline(
                    "fault",
                    BaselineConfig::Fault(FaultConfig::panic_after(40)),
                ),
            ),
            CmpJob::new(
                spec.clone(),
                PrefetcherSpec::baseline("one-shot", BaselineConfig::Fault(one_shot)),
            ),
        ];
        let h = Harness::serial();
        let out = h.run_cmp_outcomes(&cells);
        let _ = std::fs::remove_file(&fuse);
        let reason = out[1].failure().expect("fault cell must fail");
        assert!(reason.contains("injected fault"), "{reason}");
        assert!(
            matches!(out[2], CmpOutcome::Retried(_)),
            "one-shot cell must succeed on its retry, got {:?}",
            out[2]
        );
        let s = h.summary();
        assert_eq!((s.retried, s.failed, s.executed), (1, 1, 2));
        assert_eq!(out[0].result().unwrap(), &spec.run(&PrefetcherSpec::None));
    }

    /// The bounded-memory streamed path — in every store configuration —
    /// must be byte-identical to the unconstrained materialized path:
    /// with no store (blocks resolved on the worker), with a store (per-segment block
    /// stream on disk), and with the segmented trace store feeding the
    /// front end through mmap'd windows.
    #[test]
    fn tiny_budget_streams_and_matches_materialized() {
        let jobs = small_batch();
        let reference = Harness::serial().run(&jobs);

        // No store: blocks resolved on the worker thread.
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            ..HarnessConfig::default()
        });
        assert_eq!(h.run(&jobs), reference, "no-store block path diverged");

        // Store: the on-disk block-stream path, cold then warm, with
        // and without the segmented trace store.
        for trace_store in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "ebcp-harness-stream-{trace_store}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = HarnessConfig {
                jobs: 1,
                mem_budget_bytes: 1,
                store_dir: Some(dir.clone()),
                trace_store,
                ..HarnessConfig::default()
            };
            let cold = Harness::new(cfg.clone());
            assert_eq!(
                cold.run(&jobs),
                reference,
                "block-stream path diverged (trace_store={trace_store})"
            );
            // The stream was written segmented, and with the trace
            // store enabled the trace file exists too.
            let stream = preres::open_stream_checked(&dir, &jobs[0])
                .into_hit()
                .expect("stream cached");
            // These 30k-record jobs fit one clamped-minimum segment
            // (64 Ki records); multi-segment geometry is covered by the
            // preres and traces module tests.
            assert_eq!(stream.records(), 30_000);
            let footer = ebcp_trace::segfile::Footer::read(&preres::path_for(&dir, &jobs[0]));
            assert_eq!(
                footer.map(|f| f.seg_records),
                Some(1 << 16),
                "clamp floor applies"
            );
            assert_eq!(traces::path_for(&dir, &jobs[0].spec).is_file(), trace_store);
            // Warm run: streams (and traces) are reused, results identical.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir()
                    && path
                        .file_name()
                        .is_some_and(|n| n != "preres" && n != "traces")
                {
                    std::fs::remove_dir_all(path).unwrap();
                }
            }
            let warm = Harness::new(cfg);
            assert_eq!(warm.run(&jobs), reference);
            assert_eq!(warm.summary().executed, 2, "results were wiped");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// With a tiny budget a lockstep unit replays its block stream once
    /// for all lanes — read from the on-disk stream with a store,
    /// resolved on the worker without one; results must match the
    /// serial path. The jobs span three 64 Ki-record floor segments,
    /// so both units replay several blocks.
    #[test]
    fn streamed_lockstep_matches_serial() {
        let w = WorkloadSpec::database().scaled(1, 16);
        let pfs = [
            PrefetcherSpec::None,
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        ];
        let long = RunSpec {
            warmup_insts: 100_000,
            measure_insts: 60_000,
            ..spec(w, 3)
        };
        let jobs: Vec<Job> = pfs
            .iter()
            .map(|pf| Job::new(long.clone(), pf.clone()))
            .collect();
        let reference: Vec<SimResult> = jobs
            .iter()
            .map(|job| job.spec.run_preresolved(&job.spec.pre_resolve(), &job.pf))
            .collect();
        let dir = std::env::temp_dir().join(format!("ebcp-harness-slock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for store_dir in [Some(dir.clone()), None] {
            let h = Harness::new(HarnessConfig {
                jobs: 1,
                mem_budget_bytes: 1,
                store_dir: store_dir.clone(),
                ..HarnessConfig::default()
            });
            assert_eq!(h.run(&jobs), reference, "store {store_dir:?}");
            assert_eq!(h.summary().executed, 2);
        }
        let stream = preres::open_stream_checked(&dir, &jobs[0])
            .into_hit()
            .expect("stream cached");
        assert_eq!(stream.n_segments(), 3, "the unit replayed several blocks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `store_footprint` counts what a populated store actually holds.
    #[test]
    fn store_footprint_reports_all_three_classes() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-foot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1, // force streaming: preres + traces on disk
            store_dir: Some(dir.clone()),
            trace_store: true,
            ..HarnessConfig::default()
        });
        let jobs = small_batch();
        let _ = h.run(&jobs);
        let f = store_footprint(&dir);
        assert_eq!(f.results.files, 2, "two unique jobs cached");
        assert_eq!(f.preres.files, 1, "one shared stream");
        assert_eq!(f.traces.files, 1, "one shared trace");
        assert!(f.preres.segments >= 1 && f.traces.segments >= 1);
        assert!(f.results.bytes > 0 && f.preres.bytes > 0 && f.traces.bytes > 0);
        assert_eq!(
            f.total_bytes(),
            f.results.bytes + f.preres.bytes + f.traces.bytes
        );
        assert_eq!(
            (f.results.corrupt, f.preres.corrupt, f.traces.corrupt),
            (0, 0, 0)
        );
        assert_eq!(f.quarantined_bytes(), 0);
        // A quarantined file shows up in the corrupt tally, its bytes
        // move from the healthy total to the quarantine accounting.
        let healthy_total = f.total_bytes();
        let p = preres::path_for(&dir, &jobs[0]);
        let moved = std::fs::metadata(&p).unwrap().len();
        let mut corrupt = p.clone().into_os_string();
        corrupt.push(".corrupt");
        std::fs::rename(&p, corrupt).unwrap();
        let f = store_footprint(&dir);
        assert_eq!((f.preres.files, f.preres.corrupt), (0, 1));
        assert_eq!(f.preres.quarantined_bytes, moved);
        assert_eq!(f.quarantined_bytes(), moved);
        assert_eq!(
            f.total_bytes(),
            healthy_total - moved,
            "quarantined bytes must leave the healthy total"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// results.json must not depend on where results came from: a cold
    /// executing run and a warm all-disk-hits run of the same jobs
    /// write byte-identical files.
    #[test]
    fn results_json_is_byte_identical_cold_vs_warm() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 2,
            store_dir: Some(dir.join("store")),
            ..Default::default()
        };
        let jobs = small_batch();
        let cold = Harness::new(cfg.clone());
        let _ = cold.run(&jobs);
        cold.write_results_json(&dir.join("cold.json")).unwrap();
        let warm = Harness::new(cfg);
        let _ = warm.run(&jobs);
        assert_eq!(warm.summary().executed, 0);
        warm.write_results_json(&dir.join("warm.json")).unwrap();
        assert_eq!(
            std::fs::read(dir.join("cold.json")).unwrap(),
            std::fs::read(dir.join("warm.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
