//! The daemon: listeners, per-connection protocol handling, and the
//! bridge from [`JobService`] completions and the telemetry bus onto
//! client sockets.
//!
//! One [`Server`] owns one shared [`Harness`] (via its [`JobService`]),
//! so every connection sees the same warm memo and pre-resolved
//! streams. Each accepted socket gets a handler thread; a `submit`
//! subscribes to the harness telemetry bus *before* queueing, then
//! streams per-cell results and bus events (filtered to the sweep's own
//! job labels, except cache quarantines, which every client should see)
//! until all unique cells have landed. The lines are coalesced and
//! written in few large writes (`FLUSH_AT`), never held while the
//! handler waits.
//!
//! Isolation is inherited, not re-implemented: a cell that panics
//! becomes that client's `"failed"` cell through the harness's
//! panic-isolation path, and other connections never notice.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ebcp_harness::telemetry::Event;
use ebcp_harness::{
    CmpJob, CmpResultRow, Harness, Job, JobId, JobOutcome, JobService, QueueConfig, ResultRow,
    SubmitError, Value,
};

use crate::proto::{
    resp_accepted, resp_done, resp_error, resp_rejected, resp_shutting_down, resp_status,
    resp_telemetry, write_cell, write_cmp_cell, Conn, PROTO_VERSION,
};
use crate::sweep::SweepSpec;

/// The longest a submit's drain loop waits for a completion before it
/// forwards the telemetry that arrived meanwhile.
const DRAIN_WAIT: Duration = Duration::from_millis(2);

/// A submit's outgoing lines are coalesced into one buffer, written
/// once it holds this many bytes, before the handler waits for a
/// completion or runs the sweep's CMP cells, and with the final line.
const FLUSH_AT: usize = 16 << 10;

/// Where to listen and how to queue.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP listen address (`host:port`); `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix socket path; `None` disables it (and non-Unix platforms
    /// ignore it).
    pub unix: Option<PathBuf>,
    /// Job queue sizing and backpressure policy.
    pub queue: QueueConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tcp: Some("127.0.0.1:3772".into()), // 0xebc
            unix: None,
            queue: QueueConfig::default(),
        }
    }
}

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        // Only an atomic store: async-signal-safe.
        TERM.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT to a flag the accept loop polls, so
    /// `kill <pid>` produces the same orderly drain as a `shutdown`
    /// command.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_term as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn terminated() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn terminated() -> bool {
        false
    }
}

/// The sweep service daemon.
pub struct Server {
    service: Arc<JobService>,
    tcp: Option<TcpListener>,
    #[cfg(unix)]
    unix: Option<UnixListener>,
    unix_path: Option<PathBuf>,
    stop: AtomicBool,
    next_client: AtomicU64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tcp", &self.tcp_addr())
            .field("unix", &self.unix_path)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the configured listeners over `harness`. Workers do not
    /// run until [`Server::run`]. A stale Unix socket file from a dead
    /// daemon is removed before binding.
    ///
    /// # Errors
    ///
    /// Bind failures, or a config with no listener at all.
    pub fn bind(harness: Arc<Harness>, cfg: ServerConfig) -> io::Result<Arc<Self>> {
        let tcp = match &cfg.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        #[cfg(unix)]
        let unix = match &cfg.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        #[cfg(unix)]
        let have_unix = unix.is_some();
        #[cfg(not(unix))]
        let have_unix = false;
        if tcp.is_none() && !have_unix {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server config enables no listener",
            ));
        }
        Ok(Arc::new(Server {
            service: JobService::new(harness, cfg.queue),
            tcp,
            #[cfg(unix)]
            unix,
            unix_path: cfg.unix,
            stop: AtomicBool::new(false),
            next_client: AtomicU64::new(1),
        }))
    }

    /// The bound TCP address (useful after binding port `0`).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The job service (status snapshots, the shared harness).
    pub fn service(&self) -> &Arc<JobService> {
        &self.service
    }

    /// Asks the accept loop to wind down after its current poll.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || sig::terminated()
    }

    /// Starts the worker pool and serves until a `shutdown` command,
    /// [`Server::stop`], SIGTERM or SIGINT. Queued jobs drain before
    /// the call returns; idle connections are simply abandoned to
    /// process exit.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O failures other than `WouldBlock`.
    pub fn run(self: &Arc<Self>) -> io::Result<()> {
        sig::install();
        self.service.start();
        while !self.stopping() {
            let mut idle = true;
            if let Some(l) = &self.tcp {
                match l.accept() {
                    Ok((stream, _peer)) => {
                        idle = false;
                        // The protocol is many small lines; without
                        // nodelay, Nagle + delayed ACKs add ~40 ms per
                        // exchange.
                        let _ = stream.set_nodelay(true);
                        let reader = stream.try_clone()?;
                        self.spawn_handler(Box::new(reader), Box::new(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            #[cfg(unix)]
            if let Some(l) = &self.unix {
                match l.accept() {
                    Ok((stream, _peer)) => {
                        idle = false;
                        let reader = stream.try_clone()?;
                        self.spawn_handler(Box::new(reader), Box::new(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            if idle {
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        self.service.shutdown();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }

    fn spawn_handler(self: &Arc<Self>, read: Box<dyn Read + Send>, write: Box<dyn Write + Send>) {
        let server = Arc::clone(self);
        let client = self.next_client.fetch_add(1, Ordering::Relaxed);
        std::thread::spawn(move || {
            let mut conn = Conn::new(read, write);
            server.handle_conn(client, &mut conn);
        });
    }

    /// One connection's command loop. Returns when the peer hangs up,
    /// sends garbage framing (after an `error` line naming the framing
    /// problem, so a buggy client sees *why* instead of a bare EOF), or
    /// the socket errors.
    fn handle_conn(&self, client: u64, conn: &mut Conn) {
        loop {
            let msg = match conn.recv() {
                Ok(Some(v)) => v,
                Ok(None) => return,
                Err(e) => {
                    if e.kind() == io::ErrorKind::InvalidData {
                        let _ = conn.send(&resp_error(&format!("malformed frame: {e}")));
                    }
                    return;
                }
            };
            if msg.get("v").and_then(Value::as_u64) != Some(PROTO_VERSION) {
                let reason =
                    format!("unsupported protocol version (server speaks {PROTO_VERSION})");
                if conn.send(&resp_error(&reason)).is_err() {
                    return;
                }
                continue;
            }
            let ok = match msg.get("cmd").and_then(Value::as_str) {
                Some("submit") => match msg.get("sweep") {
                    Some(sweep) => self.handle_submit(client, conn, sweep).is_ok(),
                    None => conn.send(&resp_error("submit without a sweep")).is_ok(),
                },
                Some("status") => conn.send(&resp_status(&self.service.status())).is_ok(),
                Some("shutdown") => {
                    let _ = conn.send(&resp_shutting_down());
                    self.stop();
                    return;
                }
                _ => conn.send(&resp_error("unknown cmd")).is_ok(),
            };
            if !ok {
                return;
            }
        }
    }

    /// Resolves, queues and streams one sweep. An `Err` means the
    /// socket died mid-stream; protocol-level refusals (bad names,
    /// backpressure) are sent as `error` / `rejected` lines and return
    /// `Ok`.
    ///
    /// Single-core cells go through the bounded job queue; multi-core
    /// CMP cells run inline on this handler thread through
    /// [`Harness::run_cmp_outcomes`] (the same memo and `.cmp.json`
    /// disk cache a local run uses) while the workers chew the queued
    /// singles — their `cmp_cell` lines stream after the singles drain.
    fn handle_submit(&self, client: u64, conn: &mut Conn, sweep: &Value) -> io::Result<()> {
        let (jobs, cmp_jobs) =
            match SweepSpec::from_value(sweep).and_then(|s| Ok((s.jobs()?, s.cmp_jobs()?))) {
                Ok(expanded) => expanded,
                Err(reason) => return conn.send(&resp_error(&reason)),
            };
        let submitted = jobs.len() + cmp_jobs.len();
        // Each job is hashed once, here, each spec's shared prefix once
        // per run of equal specs: the queue and the CMP runner take
        // these ids, completions route back to their job through
        // `slot_of`, and CMP rows reuse `cmp_ids`.
        let ids = Job::ids(&jobs);
        let mut slot_of: HashMap<JobId, usize> = HashMap::with_capacity(jobs.len());
        let mut unique: Vec<(JobId, Job)> = Vec::new();
        for (job, id) in jobs.into_iter().zip(ids) {
            if let Entry::Vacant(slot) = slot_of.entry(id) {
                slot.insert(unique.len());
                unique.push((id, job));
            }
        }
        let all_cmp_ids = CmpJob::ids(&cmp_jobs);
        let mut seen_cmp = HashSet::with_capacity(cmp_jobs.len());
        let mut cmp_ids: Vec<JobId> = Vec::new();
        let mut unique_cmp: Vec<CmpJob> = Vec::new();
        for (job, id) in cmp_jobs.into_iter().zip(all_cmp_ids) {
            if seen_cmp.insert(id) {
                cmp_ids.push(id);
                unique_cmp.push(job);
            }
        }
        let mut labels: HashSet<String> = unique.iter().map(|(_, job)| job.label()).collect();
        labels.extend(unique_cmp.iter().map(CmpJob::label));

        // Subscribe before queueing so no event of ours is missed.
        let telemetry = self.service.harness().bus().subscribe();
        let (tx, completions) = mpsc::channel();
        for (id, job) in &unique {
            match self.service.submit_with_id(client, *id, job, tx.clone()) {
                Ok(()) => {}
                Err(e) => {
                    // Cells already queued still run and warm the
                    // caches; their deliveries land in a dropped
                    // channel and are ignored.
                    let retry_ms = match &e {
                        SubmitError::QueueFull { retry_after } => {
                            u64::try_from(retry_after.as_millis()).unwrap_or(u64::MAX)
                        }
                        SubmitError::ShuttingDown => 0,
                    };
                    return conn.send(&resp_rejected(&e.to_string(), retry_ms));
                }
            }
        }
        drop(tx);
        // Every line from here on is appended to `out`, which goes to
        // the socket in few large writes.
        let mut out = Outbox::default();
        out.push_value(&resp_accepted(submitted, unique.len() + unique_cmp.len()));

        // CMP cells run here while the workers drain the queued
        // singles; the telemetry subscription (taken before queueing)
        // buffers both streams' events until the drain loop below. A
        // cold CMP cell can take seconds, so `accepted` goes out first.
        if !unique_cmp.is_empty() {
            out.write(conn)?;
        }
        let cmp_outcomes = self
            .service
            .harness()
            .run_cmp_outcomes_with_ids(&unique_cmp, &cmp_ids);

        let mut outcomes: HashMap<JobId, JobOutcome> = HashMap::new();
        while outcomes.len() < unique.len() {
            while let Ok(ev) = telemetry.try_recv() {
                if event_is_for(&ev, &labels) {
                    out.push_value(&resp_telemetry(&ev));
                }
            }
            out.write_if_full(conn)?;
            // A landed cell is taken without waiting; before any wait
            // the pending lines are written, so nothing that has landed
            // sits in the buffer while the handler blocks. Telemetry is
            // drained again after each wait.
            let next = match completions.try_recv() {
                Ok(delivery) => Ok(delivery),
                Err(mpsc::TryRecvError::Empty) => {
                    out.write(conn)?;
                    completions.recv_timeout(DRAIN_WAIT)
                }
                Err(mpsc::TryRecvError::Disconnected) => Err(mpsc::RecvTimeoutError::Disconnected),
            };
            match next {
                Ok((id, outcome)) => {
                    // A completion for a job this sweep never submitted
                    // would be a service routing bug; drop it rather
                    // than panicking the handler thread (which would
                    // silently kill the client's stream).
                    let Some((_, job)) = slot_of.get(&id).map(|&i| &unique[i]) else {
                        continue;
                    };
                    let row = ResultRow {
                        id,
                        workload: job.spec.workload.name.clone(),
                        prefetcher: job.pf.name().to_string(),
                        outcome,
                    };
                    out.push_line(|line| write_cell(line, &row));
                    outcomes.insert(id, row.outcome);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                // All senders gone with cells missing: workers died
                // (shutdown mid-sweep). Close out with what we have.
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        // Late stragglers from the final cell's execution.
        while let Ok(ev) = telemetry.try_recv() {
            if event_is_for(&ev, &labels) {
                out.push_value(&resp_telemetry(&ev));
            }
        }
        let landed = outcomes.len() + cmp_outcomes.len();
        let failed = outcomes.values().filter(|o| o.is_failed()).count()
            + cmp_outcomes.iter().filter(|o| o.is_failed()).count();
        for ((job, &id), outcome) in unique_cmp.iter().zip(&cmp_ids).zip(cmp_outcomes) {
            let row = CmpResultRow {
                id,
                cell: job.spec.name.clone(),
                prefetcher: job.pf.name().to_string(),
                cores: job.cores() as u64,
                outcome,
            };
            out.push_line(|line| write_cmp_cell(line, &row));
            out.write_if_full(conn)?;
        }
        out.push_value(&resp_done(submitted, landed, failed));
        out.write(conn)
    }
}

/// A submit's pending outgoing lines: appended in stream order, written
/// to the socket in one `send_raw` per [`FLUSH_AT`] bytes or wait.
#[derive(Default)]
struct Outbox {
    pending: String,
}

impl Outbox {
    /// Appends the line `write` writes, plus its newline.
    fn push_line(&mut self, write: impl FnOnce(&mut String)) {
        write(&mut self.pending);
        self.pending.push('\n');
    }

    /// Appends `v` as a compact line.
    fn push_value(&mut self, v: &Value) {
        self.push_line(|line| line.push_str(&v.to_json()));
    }

    /// Writes the pending lines, if any.
    fn write(&mut self, conn: &mut Conn) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let sent = conn.send_raw(&self.pending);
        self.pending.clear();
        sent
    }

    /// Writes the pending lines once they reach [`FLUSH_AT`] bytes.
    fn write_if_full(&mut self, conn: &mut Conn) -> io::Result<()> {
        if self.pending.len() >= FLUSH_AT {
            self.write(conn)
        } else {
            Ok(())
        }
    }
}

/// Should this bus event be forwarded to a sweep with these labels?
/// Cache quarantines are operator-relevant regardless of whose job
/// tripped them.
fn event_is_for(ev: &Event, labels: &HashSet<String>) -> bool {
    match ev {
        Event::CacheQuarantined { .. } => true,
        Event::JobStarted { label }
        | Event::JobFinished { label, .. }
        | Event::JobRetried { label, .. }
        | Event::JobFailed { label, .. } => labels.contains(label),
    }
}
