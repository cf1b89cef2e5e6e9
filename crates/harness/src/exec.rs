//! The one cell executor behind every [`Harness`] entry point.
//!
//! Single-core [`Job`]s and multi-core [`CmpJob`]s take the same steps:
//! dedupe by content hash, serve what the memo and the checked disk
//! store already know, run the rest on the worker pool with per-cell
//! panic isolation and the retry-once policy, save each success, and
//! fold every outcome into the memo, the records and the counters.
//! [`Cell`] carries only what differs between the two shapes.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use ebcp_sim::frontend::{PreBlock, PreResolved};
use ebcp_sim::{resolve_blocks, run_preresolved_blocks, run_preresolved_blocks_many};
use ebcp_sim::{CmpResult, CmpSpec, PrefetcherSpec, RunSpec, SimResult};
use ebcp_trace::{Backing, ChunkSource, TraceGenerator};

use crate::job::{CanonText, IdHasher, CANON_VERSION};
use crate::{
    cmp::CMP_CANON_VERSION, lock, panic_reason, preres, source, traces, CacheRead, CmpJob, Event,
    Harness, Job, JobId, JobRecord, Outcome, Progress, ResultSource, ResultStore,
};

/// What the executor needs to know about one shape of cell.
pub(crate) trait Cell: fmt::Debug + PartialEq + Sync + Sized {
    /// The simulation result.
    type Output: Clone + Send;

    /// The spec part of the canonical string, shared by a sweep row.
    type Spec: fmt::Debug + PartialEq;

    /// The cell noun in messages: "job" or "CMP job".
    const NOUN: &'static str;

    /// The schema tag every canonical string starts with.
    const TAG: &'static str;

    /// The name of the constant holding [`Cell::TAG`], which a
    /// content-hash collision asks to bump.
    const CANON: &'static str;

    /// The cell's spec and prefetcher, the two parts of its canonical
    /// string.
    fn parts(&self) -> (&Self::Spec, &PrefetcherSpec);

    /// Every cell's content hash, in order; `Job::ids` and
    /// `CmpJob::ids` are this.
    fn ids(cells: &[Self]) -> Vec<JobId> {
        let mut h = IdHasher::new(Self::TAG);
        cells
            .iter()
            .map(|cell| {
                let (spec, pf) = cell.parts();
                h.id(spec, pf)
            })
            .collect()
    }

    /// Short human label for events and failure summaries.
    fn label(&self) -> String;

    /// Trace records the cell consumes, across all its cores.
    fn records(&self) -> u64;

    /// The harness memo this shape's outcomes live in.
    fn memo(h: &Harness) -> &Mutex<HashMap<JobId, Outcome<Self::Output>>>;

    /// Integrity-checked load of a cell's store entry: `id` is its
    /// content hash, which names the entry's file, and `canonical` its
    /// canonical string, which the collision guard compares.
    fn load(store: &ResultStore, id: JobId, canonical: &str) -> CacheRead<Self::Output>;

    /// Persists a successful result under the cell's id `id`.
    fn save(&self, store: &ResultStore, id: JobId, result: &Self::Output) -> io::Result<()>;

    /// Why the cell cannot run at all, decided before any cache probe.
    /// A rejection is memoized like any other failure and never cached.
    fn reject(&self) -> Option<String> {
        None
    }

    /// The cell's `results.json`/telemetry record, if it gets one.
    fn record(&self, _id: JobId, _source: ResultSource) -> Option<JobRecord> {
        None
    }

    /// Groups pending cells into units whose first attempts run as one
    /// call of [`Cell::run_unit`]: indices into `pending`, units in
    /// first-member order, members in submission order.
    fn units(pending: &[&Self]) -> Vec<Vec<usize>> {
        (0..pending.len()).map(|i| vec![i]).collect()
    }

    /// The first attempt of one unit, one outcome per member. A panic
    /// escaping it fails every member's first attempt.
    fn run_unit(h: &Harness, unit: &[&Self], ctx: &Ctx<'_>) -> Vec<Result<Self::Output, String>> {
        unit.iter().map(|cell| Ok(cell.run_one(h, ctx))).collect()
    }

    /// One serial run of the cell: a singleton unit's first attempt and
    /// every retry.
    fn run_one(&self, h: &Harness, ctx: &Ctx<'_>) -> Self::Output;
}

/// What a worker hands to the cells it runs.
pub(crate) struct Ctx<'a> {
    /// The worker's share of the process memory budget.
    per_worker: u64,
    /// The worker's telemetry sender.
    tx: &'a mpsc::Sender<Event>,
}

/// What [`Harness::resolve`] knows of a unique cell before its fold.
enum Found<R> {
    /// The memo held the cell's outcome when the batch was classified.
    Memo,
    /// The cell cannot run at all ([`Cell::reject`]).
    Rejected(String),
    /// The cell's store entry is still to be read.
    Probe,
    /// What the store entry read as.
    Store(CacheRead<R>),
}

/// A unique cell the memo and the store could not answer.
struct Pending<'a, C> {
    id: JobId,
    /// Index of the cell's pre-created record, if it has one.
    rec: Option<usize>,
    cell: &'a C,
}

/// The event stream a job, or a lockstep unit of jobs, replays.
enum Stream {
    /// The whole pre-resolved stream, shared through the warm map.
    Whole(Arc<PreResolved>),
    /// Bounded blocks, one resident at a time.
    Blocks(Box<dyn Iterator<Item = PreBlock>>),
}

/// How one executed cell ended, with its share of the unit's wall
/// clock (ms) and the rate (records/s) that share implies.
type Slot<R> = (Outcome<R>, u64, f64);

impl Cell for Job {
    type Output = SimResult;
    type Spec = RunSpec;
    const NOUN: &'static str = "job";
    const TAG: &'static str = CANON_VERSION;
    const CANON: &'static str = "CANON_VERSION";

    fn parts(&self) -> (&RunSpec, &PrefetcherSpec) {
        (&self.spec, &self.pf)
    }

    fn label(&self) -> String {
        Job::label(self)
    }

    fn records(&self) -> u64 {
        Job::records(self)
    }

    fn memo(h: &Harness) -> &Mutex<HashMap<JobId, Outcome<SimResult>>> {
        &h.memo
    }

    fn load(store: &ResultStore, id: JobId, canonical: &str) -> CacheRead<SimResult> {
        store.load_checked_id(id, canonical)
    }

    fn save(&self, store: &ResultStore, id: JobId, result: &SimResult) -> io::Result<()> {
        store.save_id(self, id, result)
    }

    /// A single-core `Job` over a CMP *per-core* workload is a
    /// capability mismatch, not a queueing problem: its trace lives in
    /// one core's private address space and only means something
    /// interleaved with its co-runners through the shared L2 — which is
    /// [`Harness::run_cmp`]'s job. Reject with a precise error naming
    /// the routing fix instead of quietly simulating a meaningless
    /// single-core run.
    fn reject(&self) -> Option<String> {
        let w = &self.spec.workload;
        (w.addr_space != 0).then(|| {
            format!(
                "single-core Job cannot represent CMP per-core workload '{}' \
                 (addr_space {}): submit the whole cell as a CmpJob via \
                 Harness::run_cmp, which routes it through the discrete-event \
                 CMP engine",
                w.name, w.addr_space
            )
        })
    }

    fn record(&self, id: JobId, source: ResultSource) -> Option<JobRecord> {
        Some(JobRecord {
            id,
            workload: self.spec.workload.name.clone(),
            prefetcher: self.pf.name(),
            source,
            wall_ms: None,
            insts_per_sec: None,
            retried: false,
            error: None,
        })
    }

    /// Jobs that share one pre-resolved stream *and* one full `RunSpec`
    /// form a lockstep unit: one replay pass over the shared event
    /// stream drives all their prefetcher lanes (`ebcp_sim::Lockstep`),
    /// amortizing event decode and gap collapse across the sweep.
    fn units(pending: &[&Job]) -> Vec<Vec<usize>> {
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
        for (idx, job) in pending.iter().enumerate() {
            let candidates = by_key.entry(job.pre_key()).or_default();
            // The pre-key covers workload/seed/length/L1; lanes must
            // also agree on the rest of the machine (`SimConfig`).
            match candidates
                .iter()
                .find(|&&u| pending[units[u][0]].spec == job.spec)
            {
                Some(&u) => units[u].push(idx),
                None => {
                    candidates.push(units.len());
                    units.push(vec![idx]);
                }
            }
        }
        units
    }

    /// `Lockstep` catches per-lane panics itself, so a faulting lane
    /// surfaces as its own `Err`; a panic in pre-resolution or the
    /// driver fails the whole unit's first attempt. Whatever the
    /// stream's source, one pass over it drives every lane.
    fn run_unit(h: &Harness, unit: &[&Job], ctx: &Ctx<'_>) -> Vec<Result<SimResult, String>> {
        let lead = unit[0];
        if unit.len() == 1 {
            return vec![Ok(lead.run_one(h, ctx))];
        }
        let pfs: Vec<PrefetcherSpec> = unit.iter().map(|job| job.pf.clone()).collect();
        match h.stream(lead, ctx) {
            Stream::Whole(pre) => lead.spec.run_preresolved_many(&pre, &pfs),
            Stream::Blocks(blocks) => run_preresolved_blocks_many(&lead.spec, blocks, &pfs),
        }
    }

    fn run_one(&self, h: &Harness, ctx: &Ctx<'_>) -> SimResult {
        match h.stream(self, ctx) {
            Stream::Whole(pre) => self.spec.run_preresolved(&pre, &self.pf),
            Stream::Blocks(blocks) => run_preresolved_blocks(&self.spec, blocks, &self.pf),
        }
    }
}

impl Cell for CmpJob {
    type Output = CmpResult;
    type Spec = CmpSpec;
    const NOUN: &'static str = "CMP job";
    const TAG: &'static str = CMP_CANON_VERSION;
    const CANON: &'static str = "CMP_CANON_VERSION";

    fn parts(&self) -> (&CmpSpec, &PrefetcherSpec) {
        (&self.spec, &self.pf)
    }

    fn label(&self) -> String {
        CmpJob::label(self)
    }

    fn records(&self) -> u64 {
        CmpJob::records(self)
    }

    fn memo(h: &Harness) -> &Mutex<HashMap<JobId, Outcome<CmpResult>>> {
        &h.cmp_memo
    }

    fn load(store: &ResultStore, id: JobId, canonical: &str) -> CacheRead<CmpResult> {
        store.load_checked_cmp_id(id, canonical)
    }

    fn save(&self, store: &ResultStore, id: JobId, result: &CmpResult) -> io::Result<()> {
        store.save_cmp_id(self, id, result)
    }

    /// Every core's stream from the warm map, then one discrete-event
    /// `CmpEngine` run. CMP cells never take the streamed path: the
    /// engine interleaves all cores' streams by cycle, so it holds them
    /// whole; per-core workloads are footprint-scaled by core count,
    /// which keeps them inside the budget at supported scales.
    fn run_one(&self, h: &Harness, ctx: &Ctx<'_>) -> CmpResult {
        let streams: Vec<Arc<PreResolved>> = (0..self.cores())
            .map(|k| h.warm_pre(&self.core_job(k), ctx.tx))
            .collect();
        let refs: Vec<&PreResolved> = streams.iter().map(Arc::as_ref).collect();
        self.spec.run_streams(&refs, &self.pf)
    }
}

impl Harness {
    /// Resolves a batch of cells (`ids == C::ids(jobs)`), returning
    /// one outcome per cell in submission order. Duplicates — within
    /// the batch, against earlier batches, or against the on-disk store
    /// — are served without simulating; a corrupt store entry is
    /// quarantined and its cell re-run like a plain miss.
    ///
    /// # Panics
    ///
    /// If the two slices differ in length.
    pub(crate) fn resolve<C: Cell>(&self, jobs: &[C], ids: &[JobId]) -> Vec<Outcome<C::Output>> {
        assert_eq!(jobs.len(), ids.len(), "one id per job");
        debug_assert_eq!(C::ids(jobs), ids);
        let t0 = Instant::now();
        // Deduplicate, preserving first-submission order. A 64-bit
        // content-hash collision between *different* cells is
        // astronomically unlikely but cheap to rule out.
        let mut first_seen: HashMap<JobId, usize> = HashMap::new();
        let mut uniques: Vec<(JobId, &C)> = Vec::new();
        for (&id, job) in ids.iter().zip(jobs) {
            match first_seen.entry(id) {
                Entry::Occupied(seen) => assert_eq!(
                    uniques[*seen.get()].1,
                    job,
                    "{} content-hash collision on {id}; bump {}",
                    C::NOUN,
                    C::CANON
                ),
                Entry::Vacant(slot) => {
                    slot.insert(uniques.len());
                    uniques.push((id, job));
                }
            }
        }

        // Classify under the memo lock alone; the store is read with no
        // harness lock held, so concurrent batches (the daemon's queue
        // workers and its handler's CMP batch) read entries in parallel.
        let mut found: Vec<Found<C::Output>> = {
            let memo = lock(C::memo(self));
            uniques
                .iter()
                .map(|&(id, cell)| {
                    if memo.contains_key(&id) {
                        Found::Memo
                    } else {
                        cell.reject().map_or(Found::Probe, Found::Rejected)
                    }
                })
                .collect()
        };
        if let Some(store) = &self.store {
            // Runs of equal specs format their canonical prefix once, the
            // way `IdHasher` hashes it.
            let mut canon = CanonText::new(C::TAG);
            for (&(id, cell), found) in uniques.iter().zip(&mut found) {
                if matches!(found, Found::Probe) {
                    let (spec, pf) = cell.parts();
                    *found = Found::Store(C::load(store, id, canon.text(spec, pf)));
                }
            }
        }

        // Fold in submission order under the locks. Each pending cell
        // remembers its pre-created record so worker timing lands in
        // submission order.
        let mut pending: Vec<Pending<'_, C>> = Vec::new();
        {
            let mut memo = lock(C::memo(self));
            let mut records = lock(&self.records);
            let mut c = lock(&self.counters);
            c.submitted += jobs.len();
            c.unique += uniques.len();
            for (&(id, cell), found) in uniques.iter().zip(found) {
                // A quarantine is reported even when another batch has
                // filled the memo slot since: the entry was moved away.
                let found = match found {
                    Found::Store(CacheRead::Quarantined { path, reason }) => {
                        c.quarantined += 1;
                        let path = path.display().to_string();
                        if self.cfg.progress {
                            eprintln!(
                                "warning: quarantined corrupt cache entry {path} \
                                 ({reason}); re-running"
                            );
                        }
                        self.bus.publish(&Event::CacheQuarantined { path, reason });
                        Found::Store(CacheRead::Miss)
                    }
                    other => other,
                };
                let mut error = None;
                let mut run = false;
                let source = match (memo.entry(id), found) {
                    // Known at classification, or filled by another
                    // batch between the phases.
                    (Entry::Occupied(_), _) => {
                        c.memo_hits += 1;
                        ResultSource::Memory
                    }
                    (Entry::Vacant(slot), Found::Rejected(reason)) => {
                        self.bus.publish(&Event::JobFailed {
                            label: cell.label(),
                            reason: reason.clone(),
                        });
                        c.failed += 1;
                        slot.insert(Outcome::Failed {
                            reason: reason.clone(),
                        });
                        error = Some(reason);
                        ResultSource::Executed
                    }
                    (Entry::Vacant(slot), Found::Store(CacheRead::Hit(r))) => {
                        c.disk_hits += 1;
                        slot.insert(Outcome::Ok(r));
                        ResultSource::Disk
                    }
                    // A miss, no store, or a healed quarantine.
                    (Entry::Vacant(_), _) => {
                        run = true;
                        ResultSource::Executed
                    }
                };
                let rec = cell.record(id, source).map(|mut rec| {
                    rec.error = error;
                    records.push(rec);
                    records.len() - 1
                });
                if run {
                    pending.push(Pending { id, rec, cell });
                }
            }
        }

        if !pending.is_empty() {
            self.execute(&pending);
        }

        lock(&self.counters).wall += t0.elapsed();
        let memo = lock(C::memo(self));
        ids.iter().map(|id| memo[id].clone()).collect()
    }

    /// [`Harness::resolve`] with every cell required to succeed.
    ///
    /// # Panics
    ///
    /// With a summary naming the failed cells if any failed, after the
    /// whole batch has executed.
    pub(crate) fn resolve_strict<C: Cell>(&self, jobs: &[C]) -> Vec<C::Output> {
        let outcomes = self.resolve(jobs, &C::ids(jobs));
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
            "{} {}(s) failed: {}",
            failed.len(),
            C::NOUN,
            failed.join("; ")
        );
        outcomes
            .into_iter()
            .map(|o| match o {
                Outcome::Ok(r) | Outcome::Retried(r) => r,
                Outcome::Failed { .. } => unreachable!("failures rejected above"),
            })
            .collect()
    }

    /// Runs the pending cells on the worker pool and folds the outcomes
    /// into the memo, the record table and the counters.
    fn execute<C: Cell>(&self, pending: &[Pending<'_, C>]) {
        let cells: Vec<&C> = pending.iter().map(|p| p.cell).collect();
        let units = C::units(&cells);
        let workers = self.workers.min(units.len()).max(1);
        // Each concurrent worker gets an equal share of the process
        // memory budget; jobs whose pre-resolved stream would not fit
        // the share run segment-at-a-time (see `stream_plan`).
        let per_worker = (self.cfg.mem_budget_bytes / workers as u64).max(1);
        let queue: Mutex<VecDeque<usize>> = Mutex::new((0..units.len()).collect());
        let outputs: Mutex<Vec<Option<Slot<C::Output>>>> = Mutex::new(vec![None; pending.len()]);
        let (tx, rx) = mpsc::channel::<Event>();

        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (queue, outputs, units, cells) = (&queue, &outputs, &units, &cells);
                s.spawn(move || loop {
                    let Some(u) = lock(queue).pop_front() else {
                        break;
                    };
                    let unit: Vec<&C> = units[u].iter().map(|&i| cells[i]).collect();
                    for cell in &unit {
                        let _ = tx.send(Event::JobStarted {
                            label: cell.label(),
                        });
                    }
                    let t = Instant::now();
                    let ctx = Ctx {
                        per_worker,
                        tx: &tx,
                    };

                    // Any panic is caught, so a buggy prefetcher fails
                    // only its own cells.
                    let firsts = catch_unwind(AssertUnwindSafe(|| C::run_unit(self, &unit, &ctx)))
                        .unwrap_or_else(|payload| vec![Err(panic_reason(payload)); unit.len()]);

                    // Retry-once policy, per cell: a first-attempt panic
                    // may be environmental (a torn mmap, a one-shot
                    // fault); a second one is the cell's own and final.
                    let outcomes: Vec<Outcome<C::Output>> = unit
                        .iter()
                        .zip(firsts)
                        .map(|(cell, first)| match first {
                            Ok(result) => Outcome::Ok(result),
                            Err(first) => {
                                let _ = tx.send(Event::JobRetried {
                                    label: cell.label(),
                                    reason: first,
                                });
                                match catch_unwind(AssertUnwindSafe(|| cell.run_one(self, &ctx))) {
                                    Ok(result) => Outcome::Retried(result),
                                    Err(payload) => Outcome::Failed {
                                        reason: panic_reason(payload),
                                    },
                                }
                            }
                        })
                        .collect();

                    // The unit ran as one pass; attribute an equal share
                    // of its wall clock to each cell so per-job rates
                    // reflect the amortization.
                    let wall = t.elapsed() / unit.len() as u32;
                    let wall_ms = wall.as_millis() as u64;
                    for ((&i, cell), outcome) in units[u].iter().zip(&unit).zip(outcomes) {
                        let rate = cell.records() as f64 / wall.as_secs_f64().max(1e-9);
                        let _ = tx.send(match &outcome {
                            Outcome::Ok(result) | Outcome::Retried(result) => {
                                if let Some(store) = &self.store {
                                    // Cache-write failure loses only incrementality.
                                    let _ = cell.save(store, pending[i].id, result);
                                }
                                Event::JobFinished {
                                    label: cell.label(),
                                    wall_ms,
                                    insts_per_sec: rate,
                                }
                            }
                            // Nothing cached: a failed cell leaves no
                            // on-disk trace to be mistaken for a result.
                            Outcome::Failed { reason } => Event::JobFailed {
                                label: cell.label(),
                                reason: reason.clone(),
                            },
                        });
                        lock(outputs)[i] = Some((outcome, wall_ms, rate));
                    }
                });
            }
            drop(tx);
            // The submitting thread renders progress, republishes every
            // event on the bus, and tallies the quarantines the workers
            // healed (stream and trace files).
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
        let mut memo = lock(C::memo(self));
        let mut records = lock(&self.records);
        let mut c = lock(&self.counters);
        for (p, out) in pending.iter().zip(outputs) {
            let (outcome, wall_ms, rate) = out.expect("worker completed every queued cell");
            let rec = p.rec.map(|k| &mut records[k]);
            if let Outcome::Failed { reason } = &outcome {
                c.failed += 1;
                if let Some(rec) = rec {
                    rec.error = Some(reason.clone());
                }
            } else {
                let retried = matches!(outcome, Outcome::Retried(_));
                c.executed += 1;
                c.retried += usize::from(retried);
                c.records_simulated += p.cell.records();
                if let Some(rec) = rec {
                    rec.wall_ms = Some(wall_ms);
                    rec.insts_per_sec = Some(rate);
                    rec.retried = retried;
                }
            }
            memo.insert(p.id, outcome);
        }
    }

    /// `job`'s pre-resolved stream from the harness-lifetime warm map.
    /// The first worker to need a stream builds (or disk-loads) it while
    /// others block on the same `OnceLock`; the map's lock is never held
    /// across that work. If the builder panics, the cell stays
    /// uninitialized, so a retry rebuilds it from scratch.
    fn warm_pre(&self, job: &Job, tx: &mpsc::Sender<Event>) -> Arc<PreResolved> {
        let cell = Arc::clone(
            lock(&self.pres)
                .entry(job.pre_key())
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        Arc::clone(cell.get_or_init(|| Arc::new(self.prepare_pre(job, tx))))
    }

    /// Where `job`'s event stream comes from. When the whole
    /// pre-resolved stream fits the worker's budget share: the
    /// materialized, `Arc`-shared warm map, which is both cheaper and
    /// reused across batches. Otherwise blocks of a segment length that
    /// fits the share: read from the store's on-disk stream (built
    /// first if cold), or resolved on this worker thread when there is
    /// no store. Peak resident set is then O(segment).
    ///
    /// Block replay is **exact**: any segmentation produces results
    /// byte-identical to the monolithic stream (`ebcp_sim::segment`
    /// proves this property), so this decision affects memory and wall
    /// clock, never results.
    fn stream(&self, job: &Job, ctx: &Ctx<'_>) -> Stream {
        if source::est_pre_bytes(&job.spec) <= ctx.per_worker {
            return Stream::Whole(self.warm_pre(job, ctx.tx));
        }
        let seg_records = source::seg_records_for_budget(ctx.per_worker);
        Stream::Blocks(match self.store_dir() {
            Some(dir) => Box::new(self.prepare_stream(dir, job, seg_records, ctx.tx).blocks()),
            None => {
                let gen = TraceGenerator::new(&job.spec.workload, job.spec.seed);
                Box::new(resolve_blocks(&job.spec, gen, seg_records))
            }
        })
    }

    /// Opens `job`'s per-segment pre-resolved block stream from the
    /// store, building it first when cold: trace records come from the
    /// segmented trace store (mmap'd windows, verified at open) when it
    /// holds the trace, else from chunked generation — teed into the
    /// trace store when enabled, so a cold build is one generator pass
    /// that reads nothing back — and finished blocks go straight to
    /// disk, so even building the stream never materializes it. Corrupt
    /// cached files (stream or trace) are quarantined, reported over
    /// `tx`, and rebuilt.
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
        if let Some(stream) = hit_or_report(preres::open_stream_checked(dir, job), tx) {
            return stream;
        }
        let spec = &job.spec;
        let mut writer =
            preres::PreresWriter::create(dir, job, seg_records).expect("preres stream writer");
        let stored = if self.cfg.trace_store {
            hit_or_report(traces::open_checked(dir, spec, Backing::Mmap), tx)
        } else {
            None
        };
        match stored {
            Some(trace) => write_blocks(&mut writer, spec, trace, seg_records),
            None if self.cfg.trace_store => {
                let mut tee = traces::TraceTee::new(dir, spec, seg_records);
                write_blocks(&mut writer, spec, &mut tee, seg_records);
                // The front end already has every record; a failed trace
                // write loses only the next run's reuse.
                let _ = tee.finish();
            }
            None => {
                let gen = TraceGenerator::new(&spec.workload, spec.seed);
                write_blocks(&mut writer, spec, gen, seg_records);
            }
        }
        writer.finish().expect("preres stream publish");
        preres::open_written(dir, job)
    }

    /// Obtains the pre-resolved event stream for `job`: from the disk
    /// cache when possible, otherwise by running the front-end pass (and
    /// caching the result for the next process). A corrupt cached
    /// stream is quarantined (reported over `tx`) and rebuilt, its
    /// replacement overwriting the original path.
    fn prepare_pre(&self, job: &Job, tx: &mpsc::Sender<Event>) -> PreResolved {
        if let Some(dir) = self.store_dir() {
            if let Some(pre) = hit_or_report(preres::load_checked(dir, job), tx) {
                return pre;
            }
        }
        let pre = job.spec.pre_resolve();
        if let Some(dir) = self.store_dir() {
            // Cache-write failure loses only incrementality.
            let _ = preres::save(dir, job, &pre);
        }
        pre
    }
}

/// The hit in `read`, if any; a quarantine is reported over `tx`.
fn hit_or_report<T>(read: CacheRead<T>, tx: &mpsc::Sender<Event>) -> Option<T> {
    match read {
        CacheRead::Hit(value) => Some(value),
        CacheRead::Miss => None,
        CacheRead::Quarantined { path, reason } => {
            let _ = tx.send(Event::CacheQuarantined {
                path: path.display().to_string(),
                reason,
            });
            None
        }
    }
}

/// Resolves `spec`'s trace from `src` into blocks of `seg_records`
/// records and streams them into `writer`.
///
/// # Panics
///
/// On a failed block write (see [`Harness::prepare_stream`]).
fn write_blocks(
    writer: &mut preres::PreresWriter,
    spec: &RunSpec,
    src: impl ChunkSource,
    seg_records: u64,
) {
    for b in resolve_blocks(spec, src, seg_records) {
        writer
            .push_block(&b.events, b.records)
            .expect("preres block write");
    }
}
