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
//!   memory — and disk-cached under `preres/`);
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
//!   again — recorded as [`JobOutcome::Failed`] without disturbing its
//!   siblings, whose results stay cached; corrupt cache entries are
//!   quarantined (`*.corrupt`) and transparently re-run (self-heal).
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
//! failure.
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
pub mod job;
pub mod json;
pub mod preres;
pub mod queue;
pub mod scale;
pub mod source;
pub mod store;
pub mod telemetry;
pub mod traces;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use ebcp_sim::frontend::{PreResolved, PreResolver};
use ebcp_sim::{run_pipelined, run_preresolved_blocks, run_preresolved_blocks_many};
use ebcp_sim::{Engine, SimResult};
use ebcp_trace::template::WorkloadProgram;
use ebcp_trace::{Backing, ChunkSource, TraceGenerator};

pub use crate::cmp::{CmpJob, CmpOutcome, CMP_CANON_VERSION};
pub use crate::job::{fnv1a64, Fnv64, Job, JobId};
pub use crate::json::Value;
pub use crate::queue::{JobService, QueueConfig, ServiceStatus, SubmitError};
pub use crate::scale::Scale;
pub use crate::source::{
    est_pre_bytes, seg_records_for_budget, streamed_peak_bytes, TraceSource,
    DEFAULT_MEM_BUDGET_BYTES,
};
pub use crate::store::{
    store_footprint, CacheRead, ResultStore, StoreClassFootprint, StoreFootprint,
};
pub use crate::telemetry::{Event, EventBus, Progress, ResultSource, RunSummary};

/// Poison-recovering lock. A panic inside a worker is caught and
/// converted to a [`JobOutcome::Failed`], but if one ever unwinds while
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

/// How one job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Simulated (or served from a cache) successfully.
    Ok(SimResult),
    /// First attempt panicked; the retry succeeded. The result is as
    /// trustworthy as an [`JobOutcome::Ok`] one — the simulator is
    /// deterministic, so a one-shot panic means external interference
    /// (e.g. a blown fault-injection fuse), not flakiness in the result.
    Retried(SimResult),
    /// Both attempts panicked. The job is memoized as failed — it will
    /// not be retried by later batches — and nothing was cached.
    Failed {
        /// The second attempt's panic message.
        reason: String,
    },
}

impl JobOutcome {
    /// The result, unless the job failed.
    pub const fn result(&self) -> Option<&SimResult> {
        match self {
            JobOutcome::Ok(r) | JobOutcome::Retried(r) => Some(r),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// The failure reason, if the job failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            JobOutcome::Failed { reason } => Some(reason),
            _ => None,
        }
    }

    /// True for [`JobOutcome::Failed`].
    pub const fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Per-process trace memory budget, honoured by the
    /// [`TraceSource`] materialize-vs-stream decision for library
    /// callers. The harness's own job execution no longer materializes
    /// traces at all — it builds packed pre-resolved event streams by
    /// chunked generation, whose footprint
    /// ([`PreResolved::est_bytes`]) is a small fraction of the trace's.
    pub mem_budget_bytes: u64,
    /// On-disk result store directory; `None` disables caching.
    pub store_dir: Option<PathBuf>,
    /// Render the live progress line on stderr.
    pub progress: bool,
    /// Replay jobs that share a pre-resolved stream *and* a full
    /// `RunSpec` in lockstep: one pass over the shared event stream
    /// drives all their prefetcher lanes ([`ebcp_sim::Lockstep`]),
    /// amortizing event decode and gap collapse across the sweep.
    /// Results are byte-identical to the serial per-job path (that is
    /// tested, not assumed); a lane that panics is retried serially and
    /// fails alone. Disable to force the one-job-per-replay path.
    pub lockstep: bool,
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
            lockstep: true,
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

#[derive(Debug, Default)]
struct Counters {
    submitted: usize,
    unique: usize,
    executed: usize,
    memo_hits: usize,
    disk_hits: usize,
    failed: usize,
    retried: usize,
    quarantined: usize,
    records_simulated: u64,
    wall: Duration,
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
    counters: Mutex<Counters>,
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
            counters: Mutex::new(Counters::default()),
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
        let outcomes = self.run_outcomes(jobs);
        let mut failed: Vec<String> = Vec::new();
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            if let Some(reason) = outcome.failure() {
                let entry = format!("{} ({reason})", job.label());
                if !failed.contains(&entry) {
                    failed.push(entry);
                }
            }
        }
        assert!(
            failed.is_empty(),
            "{} job(s) failed: {}",
            failed.len(),
            failed.join("; ")
        );
        outcomes
            .into_iter()
            .map(|o| match o {
                JobOutcome::Ok(r) | JobOutcome::Retried(r) => r,
                JobOutcome::Failed { .. } => unreachable!("failures rejected above"),
            })
            .collect()
    }

    /// Resolves a batch of jobs, returning one [`JobOutcome`] per job in
    /// submission order. The **keep-going** entry point: a failed job
    /// yields [`JobOutcome::Failed`] and never disturbs its siblings,
    /// whose results are memoized and cached as usual. Failures are
    /// memoized too — the deterministic simulator would only fail
    /// again — so resubmitting a failed job reports the same outcome
    /// without re-running it.
    pub fn run_outcomes(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        let t0 = Instant::now();

        // Hash each job once; dedupe, the memo pass and the final
        // submission-order map all reuse these ids.
        let ids: Vec<JobId> = jobs.iter().map(Job::id).collect();
        // Deduplicate, preserving first-submission order. A 64-bit
        // content-hash collision between *different* jobs is astronomically
        // unlikely but cheap to rule out.
        let mut first_seen: HashMap<JobId, usize> = HashMap::new();
        let mut uniques: Vec<(JobId, &Job)> = Vec::new();
        for (&id, job) in ids.iter().zip(jobs) {
            match first_seen.entry(id) {
                Entry::Occupied(seen) => assert_eq!(
                    uniques[*seen.get()].1,
                    job,
                    "job content-hash collision on {id}; bump CANON_VERSION"
                ),
                Entry::Vacant(slot) => {
                    slot.insert(uniques.len());
                    uniques.push((id, job));
                }
            }
        }

        // Serve what the memo and the disk store already know; queue the
        // rest. Each pending job remembers the index of its pre-created
        // record so worker timing lands in submission order. A corrupt
        // store entry is quarantined by `load_checked` and its job
        // queued like a plain miss — the re-run overwrites it.
        let mut pending: Vec<(usize, &Job)> = Vec::new();
        {
            let mut memo = lock(&self.memo);
            let mut records = lock(&self.records);
            let mut c = lock(&self.counters);
            c.submitted += jobs.len();
            c.unique += uniques.len();
            for &(id, job) in &uniques {
                let source = match memo.entry(id) {
                    Entry::Occupied(_) => {
                        c.memo_hits += 1;
                        ResultSource::Memory
                    }
                    Entry::Vacant(slot) => {
                        // A single-core `Job` over a CMP *per-core*
                        // workload is a capability mismatch, not a
                        // queueing problem: its trace lives in one core's
                        // private address space and only means something
                        // interleaved with its co-runners through the
                        // shared L2 — which is [`Harness::run_cmp`]'s
                        // job (the discrete-event `CmpEngine`, first-class
                        // memo/disk-cache/fault-isolation included).
                        // Reject with a precise error naming the routing
                        // fix instead of quietly simulating a meaningless
                        // single-core run. The rejection is memoized like
                        // any other failure and never disk-cached.
                        if job.spec.workload.addr_space != 0 {
                            let reason = format!(
                                "single-core Job cannot represent CMP per-core workload '{}' \
                                 (addr_space {}): submit the whole cell as a CmpJob via \
                                 Harness::run_cmp, which routes it through the discrete-event \
                                 CMP engine",
                                job.spec.workload.name, job.spec.workload.addr_space
                            );
                            self.bus.publish(&Event::JobFailed {
                                label: job.label(),
                                reason: reason.clone(),
                            });
                            c.failed += 1;
                            slot.insert(JobOutcome::Failed {
                                reason: reason.clone(),
                            });
                            records.push(JobRecord {
                                id,
                                workload: job.spec.workload.name.clone(),
                                prefetcher: job.pf.name(),
                                source: ResultSource::Executed,
                                wall_ms: None,
                                insts_per_sec: None,
                                retried: false,
                                error: Some(reason),
                            });
                            continue;
                        }
                        let read = match &self.store {
                            Some(s) => s.load_checked(job),
                            None => CacheRead::Miss,
                        };
                        match read {
                            CacheRead::Hit(r) => {
                                c.disk_hits += 1;
                                slot.insert(JobOutcome::Ok(r));
                                ResultSource::Disk
                            }
                            CacheRead::Miss => {
                                pending.push((records.len(), job));
                                ResultSource::Executed
                            }
                            CacheRead::Quarantined { path, reason } => {
                                c.quarantined += 1;
                                let path = path.display().to_string();
                                if self.cfg.progress {
                                    eprintln!(
                                        "warning: quarantined corrupt cache entry {path} \
                                         ({reason}); re-running"
                                    );
                                }
                                self.bus.publish(&Event::CacheQuarantined { path, reason });
                                pending.push((records.len(), job));
                                ResultSource::Executed
                            }
                        }
                    }
                };
                records.push(JobRecord {
                    id,
                    workload: job.spec.workload.name.clone(),
                    prefetcher: job.pf.name(),
                    source,
                    wall_ms: None,
                    insts_per_sec: None,
                    retried: false,
                    error: None,
                });
            }
        }

        if !pending.is_empty() {
            self.execute(&pending);
        }

        {
            let mut c = lock(&self.counters);
            c.wall += t0.elapsed();
        }

        let memo = lock(&self.memo);
        ids.iter().map(|id| memo[id].clone()).collect()
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

    /// Runs the pending jobs on the worker pool and folds the outcomes
    /// into the memo, the record table and the counters.
    ///
    /// Every job runs two-phase: its trace is pre-resolved through the
    /// L1 front end into a compact event stream (constant memory — the
    /// generator is streamed in chunks, never materialized), then the
    /// prefetcher-dependent back end replays the stream. Streams are
    /// keyed by [`Job::pre_key`] and `Arc`-shared, so a whole
    /// workload × prefetcher sweep pays the front-end cost once per
    /// workload; with a store configured they are also cached on disk
    /// (`preres/`), making the front end free across processes.
    fn execute(&self, pending: &[(usize, &Job)]) {
        // Group pending jobs that share one pre-resolved stream AND one
        // full `RunSpec` into lockstep units: one replay pass over the
        // shared event stream drives all their prefetcher lanes
        // (`ebcp_sim::Lockstep` via `run_preresolved_many`). Unit order
        // follows first-member submission order; members keep
        // submission order, so results stay deterministic.
        let mut units: Vec<Vec<usize>> = Vec::new();
        if self.cfg.lockstep {
            let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
            for (idx, (_, job)) in pending.iter().enumerate() {
                let candidates = by_key.entry(job.pre_key()).or_default();
                // The pre-key covers workload/seed/length/L1; lanes must
                // also agree on the rest of the machine (`SimConfig`).
                match candidates
                    .iter()
                    .find(|&&u| pending[units[u][0]].1.spec == job.spec)
                {
                    Some(&u) => units[u].push(idx),
                    None => {
                        candidates.push(units.len());
                        units.push(vec![idx]);
                    }
                }
            }
        } else {
            units = (0..pending.len()).map(|i| vec![i]).collect();
        }
        let units = &units;
        let workers = self.workers.min(units.len()).max(1);
        // Each concurrent worker gets an equal share of the process
        // memory budget; jobs whose pre-resolved stream would not fit
        // the share run segment-at-a-time (see `stream_plan`).
        let per_worker = (self.cfg.mem_budget_bytes / workers as u64).max(1);

        // Streams come from the harness-lifetime `pres` map (see the
        // field docs). If an initializer panics, the cell stays
        // uninitialized, so a retry (or a sibling job on the same key)
        // rebuilds it from scratch.
        let pres = &self.pres;
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..units.len()).collect());
        type Slot = Result<(SimResult, u64, f64, bool), String>;
        // A lane's outcome before timing attribution: result + retried flag.
        type LaneOut = Result<(SimResult, bool), String>;
        let outputs: Mutex<Vec<Option<Slot>>> = Mutex::new(vec![None; pending.len()]);
        let (tx, rx) = mpsc::channel::<Event>();

        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (queue, outputs) = (&queue, &outputs);
                s.spawn(move || loop {
                    let Some(u) = lock(queue).pop_front() else {
                        break;
                    };
                    let unit = &units[u];
                    for &i in unit {
                        let _ = tx.send(Event::JobStarted {
                            label: pending[i].1.label(),
                        });
                    }
                    let t = Instant::now();

                    // One single-job attempt: front end (shared,
                    // disk-cached) + back-end replay, with any panic
                    // caught so a buggy prefetcher fails only its own
                    // cell. The closure touches `pres` only through a
                    // cloned Arc outside any lock, so no guard is held
                    // across user code. Also the serial retry path for
                    // a lockstep lane that panicked.
                    let attempt_one = |job: &Job| -> Result<SimResult, String> {
                        catch_unwind(AssertUnwindSafe(|| {
                            if let Some(seg_records) = self.stream_plan(job, per_worker) {
                                return self.run_streamed(job, seg_records, &tx);
                            }
                            let cell = Arc::clone(
                                lock(pres)
                                    .entry(job.pre_key())
                                    .or_insert_with(|| Arc::new(OnceLock::new())),
                            );
                            let pre = cell.get_or_init(|| Arc::new(self.prepare_pre(job, &tx)));
                            job.spec.run_preresolved(pre, &job.pf)
                        }))
                        .map_err(panic_reason)
                    };

                    // First attempts: one lockstep pass when the unit
                    // has siblings, the plain single-job path otherwise.
                    // `Lockstep` catches per-lane panics itself, so a
                    // faulting lane surfaces as its own `Err` here; this
                    // outer catch covers pre-resolution and the driver.
                    let firsts: Vec<Result<SimResult, String>> = if unit.len() > 1 {
                        let lead = pending[unit[0]].1;
                        let pfs: Vec<ebcp_sim::PrefetcherSpec> =
                            unit.iter().map(|&i| pending[i].1.pf.clone()).collect();
                        match catch_unwind(AssertUnwindSafe(|| {
                            if let Some(seg_records) = self.stream_plan(lead, per_worker) {
                                if let Some(dir) = self.store_dir() {
                                    // One disk pass over the cached
                                    // block stream drives every lane —
                                    // lockstep amortization at
                                    // O(segment) memory.
                                    let mut stream =
                                        self.prepare_stream(dir, lead, seg_records, &tx);
                                    return run_preresolved_blocks_many(
                                        &lead.spec,
                                        stream.blocks(),
                                        &pfs,
                                    );
                                }
                                // No disk to stream blocks from: each
                                // lane runs the bounded-memory
                                // pipelined path on its own.
                                return unit
                                    .iter()
                                    .map(|&i| Ok(self.run_streamed(pending[i].1, seg_records, &tx)))
                                    .collect();
                            }
                            let cell = Arc::clone(
                                lock(pres)
                                    .entry(lead.pre_key())
                                    .or_insert_with(|| Arc::new(OnceLock::new())),
                            );
                            let pre = cell.get_or_init(|| Arc::new(self.prepare_pre(lead, &tx)));
                            lead.spec.run_preresolved_many(pre, &pfs)
                        })) {
                            Ok(lanes) => lanes,
                            Err(payload) => {
                                let reason = panic_reason(payload);
                                unit.iter().map(|_| Err(reason.clone())).collect()
                            }
                        }
                    } else {
                        vec![attempt_one(pending[unit[0]].1)]
                    };

                    // Retry-once policy, per lane: a first-attempt panic
                    // may be environmental (a torn mmap, a one-shot
                    // fault); a second one is the job's own and final.
                    let lanes: Vec<(usize, LaneOut)> = unit
                        .iter()
                        .zip(firsts)
                        .map(|(&i, first)| {
                            let job = pending[i].1;
                            let out = match first {
                                Ok(result) => Ok((result, false)),
                                Err(first) => {
                                    let _ = tx.send(Event::JobRetried {
                                        label: job.label(),
                                        reason: first,
                                    });
                                    match attempt_one(job) {
                                        Ok(result) => Ok((result, true)),
                                        Err(reason) => Err(reason),
                                    }
                                }
                            };
                            (i, out)
                        })
                        .collect();

                    // The unit ran as one pass; attribute an equal share
                    // of its wall clock to each lane so per-job rates
                    // reflect the amortization.
                    let wall = t.elapsed() / unit.len() as u32;
                    let wall_ms = wall.as_millis() as u64;
                    for (i, out) in lanes {
                        let job = pending[i].1;
                        let slot: Slot = out.map(|(result, retried)| {
                            let rate = job.records() as f64 / wall.as_secs_f64().max(1e-9);
                            (result, wall_ms, rate, retried)
                        });
                        match &slot {
                            Ok((result, wall_ms, rate, _)) => {
                                if let Some(store) = &self.store {
                                    // Cache-write failure loses only incrementality.
                                    let _ = store.save(job, result);
                                }
                                let _ = tx.send(Event::JobFinished {
                                    label: job.label(),
                                    wall_ms: *wall_ms,
                                    insts_per_sec: *rate,
                                });
                            }
                            Err(reason) => {
                                // Nothing cached: a failed job leaves no
                                // on-disk trace to be mistaken for a result.
                                let _ = tx.send(Event::JobFailed {
                                    label: job.label(),
                                    reason: reason.clone(),
                                });
                            }
                        }
                        lock(outputs)[i] = Some(slot);
                    }
                });
            }
            drop(tx);
            // The submitting thread renders progress, republishes every
            // event on the bus, and tallies the resilience events (the
            // per-slot data only says *that* a job was retried, not how
            // many quarantines it healed).
            let mut progress = Progress::new(self.cfg.progress, pending.len());
            let mut quarantined = 0usize;
            for ev in rx {
                if let Event::CacheQuarantined { .. } = &ev {
                    quarantined += 1;
                }
                self.bus.publish(&ev);
                progress.handle(&ev);
            }
            progress.finish();
            lock(&self.counters).quarantined += quarantined;
        });

        let outputs = outputs.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut memo = lock(&self.memo);
        let mut records = lock(&self.records);
        let mut c = lock(&self.counters);
        for ((rec_idx, job), out) in pending.iter().zip(outputs) {
            let slot = out.expect("worker completed every queued job");
            match slot {
                Ok((result, wall_ms, rate, retried)) => {
                    memo.insert(
                        job.id(),
                        if retried {
                            c.retried += 1;
                            JobOutcome::Retried(result.clone())
                        } else {
                            JobOutcome::Ok(result.clone())
                        },
                    );
                    records[*rec_idx].wall_ms = Some(wall_ms);
                    records[*rec_idx].insts_per_sec = Some(rate);
                    records[*rec_idx].retried = retried;
                    c.executed += 1;
                    c.records_simulated += job.records();
                }
                Err(reason) => {
                    memo.insert(
                        job.id(),
                        JobOutcome::Failed {
                            reason: reason.clone(),
                        },
                    );
                    records[*rec_idx].error = Some(reason);
                    c.failed += 1;
                }
            }
        }
    }

    /// Resolves a batch of CMP cells, returning results in submission
    /// order — the **strict** multi-core entry point, mirroring
    /// [`Harness::run`].
    ///
    /// # Panics
    ///
    /// Panics with a summary naming the failed cells if any job failed,
    /// after the whole batch has executed.
    pub fn run_cmp(&self, jobs: &[CmpJob]) -> Vec<ebcp_sim::CmpResult> {
        let outcomes = self.run_cmp_outcomes(jobs);
        let mut failed: Vec<String> = Vec::new();
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            if let Some(reason) = outcome.failure() {
                let entry = format!("{} ({reason})", job.label());
                if !failed.contains(&entry) {
                    failed.push(entry);
                }
            }
        }
        assert!(
            failed.is_empty(),
            "{} CMP job(s) failed: {}",
            failed.len(),
            failed.join("; ")
        );
        outcomes
            .into_iter()
            .map(|o| match o {
                CmpOutcome::Ok(r) | CmpOutcome::Retried(r) => r,
                CmpOutcome::Failed { .. } => unreachable!("failures rejected above"),
            })
            .collect()
    }

    /// Resolves a batch of CMP cells, returning one [`CmpOutcome`] per
    /// job in submission order — the **keep-going** multi-core entry
    /// point, mirroring [`Harness::run_outcomes`].
    ///
    /// CMP cells are first-class: deduplicated and memoized by content
    /// hash (within and across batches), served from the checksummed
    /// disk store when warm (corrupt entries quarantined + re-run),
    /// executed on the worker pool with per-cell panic isolation and
    /// the retry-once policy, and counted in [`Harness::summary`] and
    /// the telemetry stream like any other cell. Per-core pre-resolved
    /// streams come from the same warm map and `preres/` disk cache the
    /// single-core path uses (see [`CmpJob::core_job`]).
    pub fn run_cmp_outcomes(&self, jobs: &[CmpJob]) -> Vec<CmpOutcome> {
        let t0 = Instant::now();

        // One hash per job, reused as in `run_outcomes`.
        let ids: Vec<JobId> = jobs.iter().map(CmpJob::id).collect();
        let mut first_seen: HashMap<JobId, usize> = HashMap::new();
        let mut uniques: Vec<(JobId, &CmpJob)> = Vec::new();
        for (&id, job) in ids.iter().zip(jobs) {
            match first_seen.entry(id) {
                Entry::Occupied(seen) => assert_eq!(
                    uniques[*seen.get()].1,
                    job,
                    "CMP job content-hash collision on {id}; bump CMP_CANON_VERSION"
                ),
                Entry::Vacant(slot) => {
                    slot.insert(uniques.len());
                    uniques.push((id, job));
                }
            }
        }

        let mut pending: Vec<&CmpJob> = Vec::new();
        {
            let mut memo = lock(&self.cmp_memo);
            let mut c = lock(&self.counters);
            c.submitted += jobs.len();
            c.unique += uniques.len();
            for &(id, job) in &uniques {
                match memo.entry(id) {
                    Entry::Occupied(_) => c.memo_hits += 1,
                    Entry::Vacant(slot) => {
                        let read = match &self.store {
                            Some(s) => s.load_checked_cmp(job),
                            None => CacheRead::Miss,
                        };
                        match read {
                            CacheRead::Hit(r) => {
                                c.disk_hits += 1;
                                slot.insert(CmpOutcome::Ok(r));
                            }
                            CacheRead::Miss => pending.push(job),
                            CacheRead::Quarantined { path, reason } => {
                                c.quarantined += 1;
                                let path = path.display().to_string();
                                if self.cfg.progress {
                                    eprintln!(
                                        "warning: quarantined corrupt cache entry {path} \
                                         ({reason}); re-running"
                                    );
                                }
                                self.bus.publish(&Event::CacheQuarantined { path, reason });
                                pending.push(job);
                            }
                        }
                    }
                }
            }
        }

        if !pending.is_empty() {
            self.execute_cmp(&pending);
        }

        lock(&self.counters).wall += t0.elapsed();
        let memo = lock(&self.cmp_memo);
        ids.iter().map(|id| memo[id].clone()).collect()
    }

    /// Runs pending CMP cells on the worker pool: per-core streams from
    /// the shared warm map (+ `preres/` disk cache), then one
    /// discrete-event `CmpEngine` run per cell, panic-caught with the
    /// retry-once policy. Outcomes fold into the CMP memo and the
    /// shared counters.
    fn execute_cmp(&self, pending: &[&CmpJob]) {
        let workers = self.workers.min(pending.len()).max(1);
        let pres = &self.pres;
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..pending.len()).collect());
        type CmpSlot = Result<(ebcp_sim::CmpResult, u64, f64, bool), String>;
        let outputs: Mutex<Vec<Option<CmpSlot>>> = Mutex::new(vec![None; pending.len()]);
        let (tx, rx) = mpsc::channel::<Event>();

        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (queue, outputs) = (&queue, &outputs);
                s.spawn(move || loop {
                    let Some(i) = lock(queue).pop_front() else {
                        break;
                    };
                    let job = pending[i];
                    let _ = tx.send(Event::JobStarted { label: job.label() });
                    let t = Instant::now();

                    // One attempt: resolve every core's stream through
                    // the shared cells (no guard held across user code),
                    // then run the cell on the DES engine. A panic
                    // anywhere fails only this cell.
                    let attempt_one = || -> Result<ebcp_sim::CmpResult, String> {
                        catch_unwind(AssertUnwindSafe(|| {
                            let streams: Vec<Arc<PreResolved>> = (0..job.cores())
                                .map(|k| {
                                    let cj = job.core_job(k);
                                    let cell = Arc::clone(
                                        lock(pres)
                                            .entry(cj.pre_key())
                                            .or_insert_with(|| Arc::new(OnceLock::new())),
                                    );
                                    Arc::clone(
                                        cell.get_or_init(|| Arc::new(self.prepare_pre(&cj, &tx))),
                                    )
                                })
                                .collect();
                            let refs: Vec<&PreResolved> = streams.iter().map(Arc::as_ref).collect();
                            job.spec.run_streams(&refs, &job.pf)
                        }))
                        .map_err(panic_reason)
                    };

                    let out = match attempt_one() {
                        Ok(result) => Ok((result, false)),
                        Err(first) => {
                            let _ = tx.send(Event::JobRetried {
                                label: job.label(),
                                reason: first,
                            });
                            attempt_one().map(|result| (result, true))
                        }
                    };

                    let wall = t.elapsed();
                    let wall_ms = wall.as_millis() as u64;
                    let slot: CmpSlot = out.map(|(result, retried)| {
                        let rate = job.records() as f64 / wall.as_secs_f64().max(1e-9);
                        (result, wall_ms, rate, retried)
                    });
                    match &slot {
                        Ok((result, wall_ms, rate, _)) => {
                            if let Some(store) = &self.store {
                                // Cache-write failure loses only incrementality.
                                let _ = store.save_cmp(job, result);
                            }
                            let _ = tx.send(Event::JobFinished {
                                label: job.label(),
                                wall_ms: *wall_ms,
                                insts_per_sec: *rate,
                            });
                        }
                        Err(reason) => {
                            let _ = tx.send(Event::JobFailed {
                                label: job.label(),
                                reason: reason.clone(),
                            });
                        }
                    }
                    lock(outputs)[i] = Some(slot);
                });
            }
            drop(tx);
            let mut progress = Progress::new(self.cfg.progress, pending.len());
            let mut quarantined = 0usize;
            for ev in rx {
                if let Event::CacheQuarantined { .. } = &ev {
                    quarantined += 1;
                }
                self.bus.publish(&ev);
                progress.handle(&ev);
            }
            progress.finish();
            lock(&self.counters).quarantined += quarantined;
        });

        let outputs = outputs.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut memo = lock(&self.cmp_memo);
        let mut c = lock(&self.counters);
        for (job, out) in pending.iter().zip(outputs) {
            let slot = out.expect("worker completed every queued CMP job");
            match slot {
                Ok((result, _, _, retried)) => {
                    memo.insert(
                        job.id(),
                        if retried {
                            c.retried += 1;
                            CmpOutcome::Retried(result)
                        } else {
                            CmpOutcome::Ok(result)
                        },
                    );
                    c.executed += 1;
                    c.records_simulated += job.records();
                }
                Err(reason) => {
                    memo.insert(job.id(), CmpOutcome::Failed { reason });
                    c.failed += 1;
                }
            }
        }
    }

    /// The segment length (in trace records) a bounded-memory replay of
    /// `job` should use, or `None` when the whole pre-resolved stream
    /// fits the worker's budget share — then the materialized,
    /// `Arc`-shared warm-map path is both cheaper and enables
    /// cross-batch stream reuse.
    ///
    /// The streamed paths are replay-**exact**: block-at-a-time replay
    /// over any segmentation produces byte-identical results to the
    /// monolithic stream (`ebcp_sim::segment` proves this property), so
    /// this decision affects memory and wall clock, never results.
    fn stream_plan(&self, job: &Job, per_worker_bytes: u64) -> Option<u64> {
        if source::est_pre_bytes(&job.spec) <= per_worker_bytes {
            return None;
        }
        Some(source::seg_records_for_budget(per_worker_bytes))
    }

    /// Bounded-memory single-job execution: with a store, replay the
    /// per-segment pre-resolved block stream from disk (building it
    /// first if cold — also segment-at-a-time); without one, overlap
    /// front-end production and back-end replay through the two-worker
    /// pipelined path. Peak resident set is O(segment) either way.
    ///
    /// CMP cells deliberately do not take this path: the discrete-event
    /// engine interleaves all cores' streams by cycle, so it holds them
    /// whole; per-core workloads are footprint-scaled by core count,
    /// which keeps them inside the budget at supported scales.
    fn run_streamed(&self, job: &Job, seg_records: u64, tx: &mpsc::Sender<Event>) -> SimResult {
        if let Some(dir) = self.store_dir() {
            let mut stream = self.prepare_stream(dir, job, seg_records, tx);
            run_preresolved_blocks(&job.spec, stream.blocks(), &job.pf)
        } else {
            let program = Arc::new(WorkloadProgram::build(&job.spec.workload));
            run_pipelined(&job.spec, program, seg_records, &job.pf)
        }
    }

    /// Opens `job`'s per-segment pre-resolved block stream from the
    /// store, building it first when cold: trace records come from the
    /// segmented trace store (mmap'd windows) when enabled, else from
    /// chunked generation, and finished blocks go straight to disk — so
    /// even building the stream never materializes it. Corrupt cached
    /// files (stream or trace) are quarantined, reported over `tx`, and
    /// rebuilt.
    ///
    /// # Panics
    ///
    /// Panics on file-system failure — the worker's `catch_unwind`
    /// converts that to a failed (retried-once) job. Unlike the
    /// materialized path there is no memory fallback to offer: the
    /// budget says the stream must live on disk.
    fn prepare_stream(
        &self,
        dir: &Path,
        job: &Job,
        seg_records: u64,
        tx: &mpsc::Sender<Event>,
    ) -> preres::PreresStream {
        match preres::open_stream_checked(dir, job) {
            CacheRead::Hit(stream) => return stream,
            CacheRead::Miss => {}
            CacheRead::Quarantined { path, reason } => {
                let _ = tx.send(Event::CacheQuarantined {
                    path: path.display().to_string(),
                    reason,
                });
            }
        }
        let spec = &job.spec;
        let mut writer =
            preres::PreresWriter::create(dir, job, seg_records).expect("preres stream writer");
        let mut src: Box<dyn ChunkSource> = if self.cfg.trace_store {
            let trace =
                traces::open_or_generate(dir, spec, seg_records, Backing::Mmap, |path, reason| {
                    let _ = tx.send(Event::CacheQuarantined {
                        path: path.display().to_string(),
                        reason,
                    });
                })
                .expect("segmented trace store");
            Box::new(trace)
        } else {
            Box::new(TraceGenerator::new(&spec.workload, spec.seed))
        };
        let mut pr = PreResolver::new(&spec.sim);
        let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
        let mut left = spec.warmup_insts + spec.measure_insts;
        let mut blocks = 0u64;
        while left > 0 {
            let room = seg_records - pr.pending_records();
            let want = (Engine::CHUNK_RECORDS as u64).min(left).min(room) as usize;
            let got = src.next_chunk(&mut chunk, want);
            if got == 0 {
                break;
            }
            pr.push_chunk(&chunk);
            left -= got as u64;
            if pr.pending_records() == seg_records {
                let b = pr.split_block();
                writer
                    .push_block(&b.events, b.records)
                    .expect("preres block write");
                blocks += 1;
            }
        }
        if pr.pending_records() > 0 || blocks == 0 {
            let b = pr.split_block();
            writer
                .push_block(&b.events, b.records)
                .expect("preres block write");
        }
        writer.finish().expect("preres stream publish");
        match preres::open_stream_checked(dir, job) {
            CacheRead::Hit(stream) => stream,
            other => panic!(
                "freshly written pre-resolved stream failed to verify: {:?}",
                other.into_hit().is_some()
            ),
        }
    }

    /// Obtains the pre-resolved event stream for `job`: from the disk
    /// cache when possible, otherwise by running the front-end pass (and
    /// caching the result for the next process). A corrupt cached
    /// stream is quarantined (reported over `tx`) and rebuilt, its
    /// replacement overwriting the original path.
    fn prepare_pre(&self, job: &Job, tx: &mpsc::Sender<Event>) -> PreResolved {
        if let Some(dir) = self.store_dir() {
            match preres::load_checked(dir, job) {
                CacheRead::Hit(pre) => return pre,
                CacheRead::Miss => {}
                CacheRead::Quarantined { path, reason } => {
                    let _ = tx.send(Event::CacheQuarantined {
                        path: path.display().to_string(),
                        reason,
                    });
                }
            }
        }
        let pre = job.spec.pre_resolve();
        if let Some(dir) = self.store_dir() {
            // Cache-write failure loses only incrementality.
            let _ = preres::save(dir, job, &pre);
        }
        pre
    }

    /// Generic parallel map over the same worker pool sizing, for work
    /// that does not fit either job shape (CMP multi-core cells are
    /// first-class now — see [`Harness::run_cmp`] — so this is for
    /// one-off work like bulk trace generation).
    /// Output order matches input order; `jobs = 1` degenerates to a
    /// plain serial map.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.workers.min(items.len()).max(1);
        if workers == 1 {
            return items.iter().map(f).collect();
        }
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..items.len()).collect());
        let outputs: Mutex<Vec<Option<R>>> =
            Mutex::new(std::iter::repeat_with(|| None).take(items.len()).collect());
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (queue, outputs, f) = (&queue, &outputs, &f);
                s.spawn(move || loop {
                    let Some(i) = lock(queue).pop_front() else {
                        break;
                    };
                    let r = f(&items[i]);
                    lock(outputs)[i] = Some(r);
                });
            }
        });
        outputs
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|r| r.expect("worker completed every queued item"))
            .collect()
    }

    /// Aggregate statistics over everything resolved so far.
    pub fn summary(&self) -> RunSummary {
        let c = lock(&self.counters);
        RunSummary {
            submitted: c.submitted,
            unique: c.unique,
            executed: c.executed,
            memo_hits: c.memo_hits,
            disk_hits: c.disk_hits,
            failed: c.failed,
            retried: c.retried,
            quarantined: c.quarantined,
            records_simulated: c.records_simulated,
            wall: c.wall,
        }
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
            Value::Obj(vec![
                ("id".into(), Value::Str(row.id.to_string())),
                ("workload".into(), Value::Str(row.workload.clone())),
                ("prefetcher".into(), Value::Str(row.prefetcher.clone())),
                (
                    "outcome".into(),
                    Value::Str(
                        if row.outcome.is_failed() {
                            "failed"
                        } else {
                            "ok"
                        }
                        .into(),
                    ),
                ),
                (
                    "error".into(),
                    row.outcome
                        .failure()
                        .map_or(Value::Null, |e| Value::Str(e.into())),
                ),
                (
                    "result".into(),
                    row.outcome
                        .result()
                        .map_or(Value::Null, store::result_to_json),
                ),
            ])
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
                Value::Obj(vec![
                    ("id".into(), Value::Str(row.id.to_string())),
                    ("cell".into(), Value::Str(row.cell.clone())),
                    ("prefetcher".into(), Value::Str(row.prefetcher.clone())),
                    ("cores".into(), Value::Int(row.cores)),
                    (
                        "outcome".into(),
                        Value::Str(
                            if row.outcome.is_failed() {
                                "failed"
                            } else {
                                "ok"
                            }
                            .into(),
                        ),
                    ),
                    (
                        "error".into(),
                        row.outcome
                            .failure()
                            .map_or(Value::Null, |e| Value::Str(e.into())),
                    ),
                    (
                        "result".into(),
                        row.outcome
                            .result()
                            .map_or(Value::Null, crate::cmp::cmp_result_to_json),
                    ),
                ])
            })
            .collect();
        fields.push(("cmp_jobs".into(), Value::Arr(cmp_jobs)));
    }
    Value::Obj(fields)
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
        // must be byte-identical to stepping the spec directly.
        let h = Harness::serial();
        let jobs = small_batch();
        let out = h.run(&jobs);
        for (job, got) in jobs.iter().zip(&out) {
            let direct = job.spec.run(&job.pf);
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
    fn map_preserves_order_and_covers_all_items() {
        let h = Harness::new(HarnessConfig {
            jobs: 3,
            ..HarnessConfig::default()
        });
        let items: Vec<u64> = (0..37).collect();
        let out = h.map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
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
    /// replay path, with every cell counted as executed.
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
        let lockstep = Harness::serial(); // lockstep is the default
        let serial = Harness::new(HarnessConfig {
            jobs: 1,
            lockstep: false,
            ..HarnessConfig::default()
        });
        assert_eq!(lockstep.run(&jobs), serial.run(&jobs));
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
        let serial = Harness::new(HarnessConfig {
            jobs: 1,
            lockstep: false,
            ..HarnessConfig::default()
        });
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
    /// identical to a direct engine run.
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
        let h2 = Harness::new(cfg);
        let c = h2.run_cmp(std::slice::from_ref(&cell));
        assert_eq!(a, c);
        let s = h2.summary();
        assert_eq!((s.executed, s.disk_hits), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A faulting prefetcher fails only its own CMP cell; the sibling
    /// cell completes and matches its direct run.
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
        let cells = vec![
            CmpJob::new(spec.clone(), PrefetcherSpec::None),
            CmpJob::new(
                spec.clone(),
                PrefetcherSpec::baseline(
                    "fault",
                    BaselineConfig::Fault(FaultConfig::panic_after(40)),
                ),
            ),
        ];
        let h = Harness::serial();
        let out = h.run_cmp_outcomes(&cells);
        let reason = out[1].failure().expect("fault cell must fail");
        assert!(reason.contains("injected fault"), "{reason}");
        assert_eq!(h.summary().failed, 1);
        assert_eq!(out[0].result().unwrap(), &spec.run(&PrefetcherSpec::None));
    }

    /// The bounded-memory streamed path — in every store configuration —
    /// must be byte-identical to the unconstrained materialized path:
    /// with no store (pipelined FE∥BE), with a store (per-segment block
    /// stream on disk), and with the segmented trace store feeding the
    /// front end through mmap'd windows.
    #[test]
    fn tiny_budget_streams_and_matches_materialized() {
        let jobs = small_batch();
        let reference = Harness::serial().run(&jobs);

        // No store: the pipelined path.
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            ..HarnessConfig::default()
        });
        assert_eq!(h.run(&jobs), reference, "pipelined path diverged");

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
            assert_eq!(stream.seg_records(), 1 << 16, "clamp floor applies");
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

    /// With a tiny budget a lockstep unit replays the on-disk block
    /// stream once for all lanes; results must match the serial path.
    #[test]
    fn streamed_lockstep_matches_serial() {
        let w = WorkloadSpec::database().scaled(1, 16);
        let pfs = [
            PrefetcherSpec::None,
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        ];
        let jobs: Vec<Job> = pfs
            .iter()
            .map(|pf| Job::new(spec(w.clone(), 3), pf.clone()))
            .collect();
        let reference = Harness::new(HarnessConfig {
            jobs: 1,
            lockstep: false,
            ..HarnessConfig::default()
        })
        .run(&jobs);
        let dir = std::env::temp_dir().join(format!("ebcp-harness-slock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            store_dir: Some(dir.clone()),
            ..HarnessConfig::default()
        });
        assert_eq!(h.run(&jobs), reference);
        assert_eq!(h.summary().executed, 2);
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
