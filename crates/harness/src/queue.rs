//! The sweep service's job queue: bounded, fair, and deduplicating.
//!
//! A [`JobService`] wraps a shared [`Harness`] with daemon-lifetime
//! semantics the batch API does not provide:
//!
//! - **backpressure** — total queued depth is bounded; a submit beyond
//!   it is refused with [`SubmitError::QueueFull`] and a retry hint,
//!   so a flooding client gets pushback instead of unbounded memory;
//! - **per-client fairness** — each client gets its own FIFO and the
//!   workers drain clients round-robin, so one client's thousand-cell
//!   sweep cannot starve another's three-cell smoke test;
//! - **in-flight dedup** — a job already queued or running (for any
//!   client) is never queued again; later submitters register as
//!   waiters and all receive the one outcome when it lands;
//! - **warm fast path** — a job the harness memo already knows is
//!   answered synchronously, without touching the queue at all.
//!
//! Outcomes are delivered per job over the `mpsc` sender the client
//! passed at submit time, tagged with the [`JobId`] so the client can
//! map completions (which arrive in *completion* order) back to its
//! sweep cells. Fault isolation is inherited from the harness: a cell
//! that panics becomes that client's [`crate::Outcome::Failed`] and
//! nothing else — sibling cells, other clients' sweeps, and the caches
//! are untouched.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::job::{Job, JobId};
use crate::{lock, Harness, JobOutcome};

/// Queue sizing and policy.
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Maximum queued (accepted but not yet running) jobs across all
    /// clients; submits beyond it are refused with a retry hint.
    pub depth: usize,
    /// Worker threads executing queued jobs; `0` means the harness's
    /// resolved worker count.
    pub workers: usize,
    /// The hint returned with a [`SubmitError::QueueFull`] refusal.
    pub retry_after: Duration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            depth: 1024,
            workers: 0,
            retry_after: Duration::from_millis(500),
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity. Resubmit after the hint.
    QueueFull {
        /// Suggested client back-off before retrying.
        retry_after: Duration,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after } => {
                write!(f, "queue full; retry after {} ms", retry_after.as_millis())
            }
            SubmitError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

/// A point-in-time snapshot of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Jobs accepted and waiting for a worker.
    pub queued: usize,
    /// Jobs a worker is executing right now.
    pub running: usize,
    /// Clients with queued work.
    pub clients: usize,
    /// Jobs completed (delivered) since the service started.
    pub completed: u64,
    /// The configured queue bound.
    pub depth: usize,
    /// Pre-resolved event streams held warm by the shared harness.
    pub warm_streams: usize,
    /// On-disk footprint of the shared harness's store (results,
    /// pre-resolved streams, segmented traces); `None` when the
    /// harness runs without a store — or, on the client side, when the
    /// daemon predates the field (absent-tolerant protocol).
    pub store: Option<crate::store::StoreFootprint>,
}

/// One completion listener: where to deliver a job's outcome.
type Waiter = mpsc::Sender<(JobId, JobOutcome)>;

#[derive(Default)]
struct Inner {
    /// Per-client FIFOs of jobs and their ids, drained round-robin by
    /// the workers.
    queues: HashMap<u64, VecDeque<(JobId, Job)>>,
    /// Round-robin rotation of clients with non-empty queues.
    rotation: VecDeque<u64>,
    /// Total entries across all `queues`.
    queued: usize,
    /// Jobs currently executing.
    running: usize,
    /// Every queued-or-running job and the clients awaiting it. A job
    /// present here is never queued a second time: later submits just
    /// add a waiter.
    inflight: HashMap<JobId, Vec<Waiter>>,
}

impl Inner {
    /// Pops the next job round-robin: the head of the least recently
    /// served non-empty client queue.
    fn pop_next(&mut self) -> Option<(JobId, Job)> {
        // A rotation entry whose client queue vanished (or emptied) is
        // a bookkeeping inconsistency; skipping it loses at most one
        // wake-up, while panicking would take the worker thread down
        // and strand every queued job behind it.
        while let Some(client) = self.rotation.pop_front() {
            let Some(queue) = self.queues.get_mut(&client) else {
                continue;
            };
            let Some(job) = queue.pop_front() else {
                self.queues.remove(&client);
                continue;
            };
            if queue.is_empty() {
                self.queues.remove(&client);
            } else {
                self.rotation.push_back(client);
            }
            self.queued = self.queued.saturating_sub(1);
            self.running = self.running.saturating_add(1);
            return Some(job);
        }
        None
    }
}

/// Daemon-lifetime job intake over a shared [`Harness`]. See the
/// module docs for the contract.
pub struct JobService {
    harness: Arc<Harness>,
    cfg: QueueConfig,
    inner: Mutex<Inner>,
    work_ready: Condvar,
    shutting_down: AtomicBool,
    completed: AtomicU64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for JobService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobService")
            .field("cfg", &self.cfg)
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

impl JobService {
    /// Creates a service over `harness`. No workers run yet — call
    /// [`JobService::start`]; the split keeps intake order observable
    /// in tests and lets a server finish binding before work flows.
    pub fn new(harness: Arc<Harness>, cfg: QueueConfig) -> Arc<Self> {
        Arc::new(JobService {
            harness,
            cfg,
            inner: Mutex::new(Inner::default()),
            work_ready: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        })
    }

    /// The shared harness (for telemetry subscription and summaries).
    pub fn harness(&self) -> &Arc<Harness> {
        &self.harness
    }

    /// Spawns the worker pool. Idempotent-ish by construction: callers
    /// start a service exactly once; a second call would add workers,
    /// which is harmless but pointless.
    pub fn start(self: &Arc<Self>) {
        let n = match self.cfg.workers {
            0 => self.harness.workers(),
            n => n,
        };
        let mut workers = lock(&self.workers);
        for _ in 0..n {
            let svc = Arc::clone(self);
            workers.push(std::thread::spawn(move || svc.worker_loop()));
        }
    }

    /// Submits one job for `client`. On acceptance the outcome is
    /// delivered to `done` (tagged with the job's id) when the job
    /// completes — possibly immediately, if the memo already knows it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bound is hit (the job was
    /// *not* accepted; resubmit after the hint) and
    /// [`SubmitError::ShuttingDown`] during shutdown.
    pub fn submit(&self, client: u64, job: Job, done: Waiter) -> Result<(), SubmitError> {
        // One hash serves the memo probe, the delivery and the
        // inflight map.
        self.submit_with_id(client, job.id(), &job, done)
    }

    /// [`JobService::submit`] for a caller that already holds the job's
    /// id (`id == job.id()`), such as a daemon that hashed the request's
    /// jobs to dedupe them. The job is cloned only if it is queued.
    ///
    /// # Errors
    ///
    /// As [`JobService::submit`].
    pub fn submit_with_id(
        &self,
        client: u64,
        id: JobId,
        job: &Job,
        done: Waiter,
    ) -> Result<(), SubmitError> {
        debug_assert_eq!(id, job.id());
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        // Warm fast path: answer from the memo without queueing. Failed
        // jobs are memoized too — the deterministic simulator would
        // only fail again.
        if let Some(outcome) = self.harness.cached_outcome_by_id(id) {
            self.completed.fetch_add(1, Ordering::Relaxed);
            let _ = done.send((id, outcome));
            return Ok(());
        }
        let mut inner = lock(&self.inner);
        if let Some(waiters) = inner.inflight.get_mut(&id) {
            // Already queued or running (for this or any other client):
            // ride along on the one execution.
            waiters.push(done);
            return Ok(());
        }
        if inner.queued >= self.cfg.depth {
            return Err(SubmitError::QueueFull {
                retry_after: self.cfg.retry_after,
            });
        }
        inner.inflight.insert(id, vec![done]);
        let queue = inner.queues.entry(client).or_default();
        let newly_active = queue.is_empty();
        queue.push_back((id, job.clone()));
        if newly_active {
            inner.rotation.push_back(client);
        }
        inner.queued += 1;
        drop(inner);
        self.work_ready.notify_one();
        Ok(())
    }

    /// Begins shutdown: new submits are refused, queued jobs still
    /// drain, and the call returns once every worker has exited. Safe
    /// to call more than once.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.work_ready.notify_all();
        let handles = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// A point-in-time snapshot.
    pub fn status(&self) -> ServiceStatus {
        let inner = lock(&self.inner);
        ServiceStatus {
            queued: inner.queued,
            running: inner.running,
            clients: inner.queues.len(),
            completed: self.completed.load(Ordering::Relaxed),
            depth: self.cfg.depth,
            warm_streams: self.harness.warm_streams(),
            store: self.harness.store_footprint(),
        }
    }

    fn worker_loop(&self) {
        loop {
            let (id, job) = {
                let mut inner = lock(&self.inner);
                loop {
                    if let Some(job) = inner.pop_next() {
                        break job;
                    }
                    if self.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    inner = self
                        .work_ready
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Execute outside the lock: a single-job batch through the
            // full harness path — memo, disk cache, quarantine
            // self-heal, panic isolation with retry-once, telemetry.
            let outcome = self
                .harness
                .resolve(std::slice::from_ref(&job), &[id])
                .pop()
                // A one-job batch yields one outcome; if the harness
                // ever breaks that contract, fail the job for its
                // waiters instead of panicking the worker thread.
                .unwrap_or(JobOutcome::Failed {
                    reason: "harness returned no outcome for the job".into(),
                });
            let waiters = {
                let mut inner = lock(&self.inner);
                inner.running = inner.running.saturating_sub(1);
                inner.inflight.remove(&id).unwrap_or_default()
            };
            for w in &waiters {
                self.completed.fetch_add(1, Ordering::Relaxed);
                let _ = w.send((id, outcome.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
    use ebcp_trace::WorkloadSpec;

    fn job(seed: u64) -> Job {
        Job::new(
            RunSpec {
                workload: WorkloadSpec::database().scaled(1, 16),
                seed,
                warmup_insts: 10_000,
                measure_insts: 10_000,
                sim: SimConfig::scaled_down(16),
            },
            PrefetcherSpec::None,
        )
    }

    fn service(depth: usize, workers: usize) -> Arc<JobService> {
        JobService::new(
            Arc::new(Harness::serial()),
            QueueConfig {
                depth,
                workers,
                retry_after: Duration::from_millis(7),
            },
        )
    }

    #[test]
    fn delivers_outcomes_tagged_with_job_ids() {
        let svc = service(16, 1);
        let (tx, rx) = mpsc::channel();
        let jobs = [job(1), job(2)];
        for j in &jobs {
            svc.submit(0, j.clone(), tx.clone()).unwrap();
        }
        svc.start();
        let mut got = HashMap::new();
        for _ in 0..2 {
            let (id, outcome) = rx.recv().unwrap();
            got.insert(id, outcome);
        }
        for j in &jobs {
            assert!(
                matches!(got[&j.id()], JobOutcome::Ok(_)),
                "job {} must succeed",
                j.label()
            );
        }
        svc.shutdown();
    }

    #[test]
    fn queue_full_rejects_with_retry_hint_without_accepting() {
        // No workers: nothing drains, so the bound is exactly visible.
        let svc = service(2, 0);
        let (tx, _rx) = mpsc::channel();
        svc.submit(0, job(1), tx.clone()).unwrap();
        svc.submit(0, job(2), tx.clone()).unwrap();
        match svc.submit(0, job(3), tx.clone()) {
            Err(SubmitError::QueueFull { retry_after }) => {
                assert_eq!(retry_after, Duration::from_millis(7));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(svc.status().queued, 2, "the refused job was not queued");
        // A duplicate of a queued job still rides along at full depth:
        // dedup does not consume a slot.
        svc.submit(1, job(1), tx).unwrap();
        assert_eq!(svc.status().queued, 2);
    }

    #[test]
    fn flooding_far_past_depth_never_overdraws_or_panics() {
        // A client hammering a full queue: every submit past the bound
        // is refused with the same hint, the queued count stays pinned
        // at the bound (no drift from repeated refusals), and draining
        // afterwards brings the counters back to zero exactly.
        let svc = service(4, 0);
        let (tx, rx) = mpsc::channel();
        for seed in 0..4 {
            svc.submit(0, job(seed), tx.clone()).unwrap();
        }
        for seed in 4..40 {
            match svc.submit(seed % 3, job(seed), tx.clone()) {
                Err(SubmitError::QueueFull { retry_after }) => {
                    assert_eq!(retry_after, Duration::from_millis(7));
                }
                other => panic!("submit {seed} past depth must refuse, got {other:?}"),
            }
            assert_eq!(svc.status().queued, 4, "refusals must not move the count");
        }
        svc.start();
        let delivered: Vec<JobId> = (0..4).map(|_| rx.recv().unwrap().0).collect();
        assert_eq!(delivered.len(), 4);
        svc.shutdown();
        let status = svc.status();
        assert_eq!((status.queued, status.running), (0, 0));
        assert_eq!(status.completed, 4);
    }

    #[test]
    fn round_robin_interleaves_clients() {
        // Client 0 queues three jobs, then client 1 queues one. With a
        // single worker started only after intake, completion order
        // must be 0's first, then 1's — not all of 0's first.
        let svc = service(16, 1);
        let (tx0, rx0) = mpsc::channel();
        let (tx1, rx1) = mpsc::channel();
        let a = [job(10), job(11), job(12)];
        for j in &a {
            svc.submit(0, j.clone(), tx0.clone()).unwrap();
        }
        svc.submit(1, job(20), tx1.clone()).unwrap();
        svc.start();

        // Client 1's single job must complete before client 0's tail.
        let (id1, _) = rx1.recv().unwrap();
        assert_eq!(id1, job(20).id());
        let order: Vec<JobId> = (0..3).map(|_| rx0.recv().unwrap().0).collect();
        assert_eq!(order, vec![a[0].id(), a[1].id(), a[2].id()]);
        // The fairness property: when client 1's job finished, client 0
        // had at most two completions delivered (its third ran after).
        svc.shutdown();
        assert_eq!(svc.status().completed, 4);
    }

    #[test]
    fn inflight_dedup_serves_every_waiter_one_execution() {
        let svc = service(16, 0);
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        // Same job from two clients before any worker runs: one queue
        // slot, two waiters.
        svc.submit(0, job(5), tx_a).unwrap();
        svc.submit(1, job(5), tx_b).unwrap();
        assert_eq!(svc.status().queued, 1);
        svc.start();
        let (_, a) = rx_a.recv().unwrap();
        let (_, b) = rx_b.recv().unwrap();
        assert_eq!(a, b);
        svc.shutdown();
        assert_eq!(
            svc.harness().summary().executed,
            1,
            "one execution serves both clients"
        );
    }

    #[test]
    fn warm_memo_submits_answer_without_queueing() {
        let svc = service(16, 1);
        svc.start();
        let (tx, rx) = mpsc::channel();
        svc.submit(0, job(7), tx.clone()).unwrap();
        let first = rx.recv().unwrap().1;
        // Resubmit: served synchronously from the memo — observable as
        // an already-delivered outcome with zero queue traffic.
        svc.submit(0, job(7), tx).unwrap();
        let second = rx.try_recv().expect("warm submit answers synchronously").1;
        assert_eq!(first, second);
        assert_eq!(svc.status().queued, 0);
        svc.shutdown();
        assert_eq!(svc.harness().summary().executed, 1);
    }

    #[test]
    fn shutdown_refuses_new_work_and_joins_workers() {
        let svc = service(16, 2);
        svc.start();
        svc.shutdown();
        let (tx, _rx) = mpsc::channel();
        assert_eq!(svc.submit(0, job(9), tx), Err(SubmitError::ShuttingDown));
        // Idempotent.
        svc.shutdown();
    }
}
