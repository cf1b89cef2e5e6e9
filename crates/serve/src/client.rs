//! The client side: connect, submit a sweep, reassemble the stream.
//!
//! The client expands the sweep grid itself (same workspace code as the
//! daemon), so it knows the exact submission-ordered job ids to expect.
//! Streamed cells arrive in *completion* order and are re-sorted into
//! submission order before rendering — through
//! [`ebcp_harness::results_doc`], the same renderer local runs use,
//! which is what makes a served `results.json` byte-identical to a
//! local one. A cell id the client did not predict is a version-skew
//! error, not a silent mismatch.

use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

use ebcp_harness::{results_doc_cmp, CmpResultRow, JobId, ResultRow, ServiceStatus, Value};

use crate::proto::{read_message, request_shutdown, request_status, request_submit, Conn, Message};
use crate::sweep::SweepSpec;

/// How a submitted sweep ended.
#[derive(Debug, Clone)]
pub enum SweepOutcome {
    /// Every unique cell landed; `results` is the deterministic
    /// document a local run of the same sweep would have written.
    Done {
        /// The assembled `results.json` document.
        results: Value,
        /// Cells that failed (also counted inside `results`).
        failed: usize,
    },
    /// The daemon refused the sweep (backpressure or shutdown).
    Rejected {
        /// Human-readable refusal.
        reason: String,
        /// Suggested back-off before resubmitting.
        retry_after_ms: u64,
    },
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    conn: Conn,
}

fn split<S>(stream: S) -> io::Result<Conn>
where
    S: Read + Write + Send + 'static,
    S: TryCloneStream,
{
    let reader = stream.try_clone_stream()?;
    Ok(Conn::new(reader, Box::new(stream)))
}

/// Object-safe `try_clone` shim over the two socket types.
trait TryCloneStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Read + Send>>;
}

impl TryCloneStream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

#[cfg(unix)]
impl TryCloneStream for UnixStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(self.try_clone()?))
    }
}

impl Client {
    /// Connects to a daemon. Accepts `tcp:host:port` (or a bare
    /// `host:port`) and `unix:/path/to.sock`.
    ///
    /// # Errors
    ///
    /// Connection failures, or a `unix:` address off Unix.
    pub fn connect(addr: &str) -> io::Result<Client> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                return Ok(Client {
                    conn: split(UnixStream::connect(path)?)?,
                });
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        }
        let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
        let stream = TcpStream::connect(hostport)?;
        // Line-at-a-time request/response: Nagle would serialize every
        // exchange behind a delayed ACK.
        let _ = stream.set_nodelay(true);
        Ok(Client {
            conn: split(stream)?,
        })
    }

    /// Submits a sweep and blocks until it finishes or is refused.
    /// Every streamed line (telemetry and cells alike) is passed to
    /// `on_event` for live display before being processed: cells as
    /// their decoded rows, every other event as its JSON tree.
    ///
    /// # Errors
    ///
    /// Socket failures, protocol `error` lines, a cell id outside the
    /// locally expanded grid, or a `done` with cells missing (all
    /// version-skew or daemon-fault conditions — a well-behaved
    /// exchange ends in [`SweepOutcome::Done`] or
    /// [`SweepOutcome::Rejected`]).
    pub fn submit(
        &mut self,
        sweep: &SweepSpec,
        mut on_event: impl FnMut(&Message),
    ) -> io::Result<SweepOutcome> {
        let jobs = sweep.jobs().map_err(bad_input)?;
        let cmp_jobs = sweep.cmp_jobs().map_err(bad_input)?;
        // Submission-ordered unique identity rows, as a local run's
        // results.json would list them. Each job is hashed once; the
        // id sets dedupe here and validate streamed cells below.
        let mut ids: HashSet<JobId> = HashSet::with_capacity(jobs.len());
        let mut order: Vec<(JobId, String, String)> = Vec::new();
        for job in &jobs {
            let id = job.id();
            if ids.insert(id) {
                order.push((
                    id,
                    job.spec.workload.name.clone(),
                    job.pf.name().to_string(),
                ));
            }
        }
        // (id, cell name, prefetcher, cores) per unique CMP cell.
        let mut cmp_ids: HashSet<JobId> = HashSet::with_capacity(cmp_jobs.len());
        let mut cmp_order: Vec<(JobId, String, String, u64)> = Vec::new();
        for job in &cmp_jobs {
            let id = job.id();
            if cmp_ids.insert(id) {
                cmp_order.push((
                    id,
                    job.spec.name.clone(),
                    job.pf.name().to_string(),
                    job.cores() as u64,
                ));
            }
        }
        self.conn.send(&request_submit(sweep.to_value()))?;

        let mut cells: HashMap<JobId, ResultRow> = HashMap::new();
        let mut cmp_cells: HashMap<JobId, CmpResultRow> = HashMap::new();
        let mut line = String::new();
        loop {
            let Some(text) = self.conn.recv_line(&mut line)? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon hung up mid-sweep",
                ));
            };
            let msg = read_message(text).map_err(bad_data)?;
            on_event(&msg);
            let msg = match msg {
                Message::Cell(row) => {
                    if !ids.contains(&row.id) {
                        return Err(bad_data(format!(
                            "daemon streamed cell {} outside the submitted grid \
                             — client/daemon version skew",
                            row.id
                        )));
                    }
                    cells.insert(row.id, row);
                    continue;
                }
                Message::CmpCell(row) => {
                    if !cmp_ids.contains(&row.id) {
                        return Err(bad_data(format!(
                            "daemon streamed CMP cell {} outside the submitted grid \
                             — client/daemon version skew",
                            row.id
                        )));
                    }
                    cmp_cells.insert(row.id, row);
                    continue;
                }
                Message::Event(v) => v,
            };
            match msg.get("event").and_then(Value::as_str) {
                Some("accepted") => {
                    let unique = msg.get("unique").and_then(Value::as_u64);
                    let expected = order.len() + cmp_order.len();
                    if unique != Some(expected as u64) {
                        return Err(bad_data(format!(
                            "daemon resolved {unique:?} unique cells, client expected {expected} \
                             — client/daemon version skew"
                        )));
                    }
                }
                Some("rejected") => {
                    return Ok(SweepOutcome::Rejected {
                        reason: msg
                            .get("reason")
                            .and_then(Value::as_str)
                            .unwrap_or("rejected")
                            .to_string(),
                        retry_after_ms: msg
                            .get("retry_after_ms")
                            .and_then(Value::as_u64)
                            .unwrap_or(0),
                    });
                }
                Some("telemetry") => {}
                Some("done") => {
                    let mut rows = Vec::with_capacity(order.len());
                    for (id, workload, prefetcher) in &order {
                        let row = cells.remove(id).ok_or_else(|| {
                            bad_data(format!("done, but cell {workload} x {prefetcher} missing"))
                        })?;
                        rows.push(row);
                    }
                    let mut cmp_rows = Vec::with_capacity(cmp_order.len());
                    for (id, cell, prefetcher, cores) in &cmp_order {
                        let row = cmp_cells.remove(id).ok_or_else(|| {
                            bad_data(format!(
                                "done, but CMP cell {cell}@{cores}c x {prefetcher} missing"
                            ))
                        })?;
                        cmp_rows.push(row);
                    }
                    let failed = rows.iter().filter(|r| r.outcome.is_failed()).count()
                        + cmp_rows.iter().filter(|r| r.outcome.is_failed()).count();
                    return Ok(SweepOutcome::Done {
                        results: results_doc_cmp(jobs.len() + cmp_jobs.len(), &rows, &cmp_rows),
                        failed,
                    });
                }
                Some("error") => {
                    let reason = msg
                        .get("reason")
                        .and_then(Value::as_str)
                        .unwrap_or("daemon error");
                    return Err(bad_data(reason.to_string()));
                }
                other => {
                    return Err(bad_data(format!("unexpected event {other:?}")));
                }
            }
        }
    }

    /// Fetches a status snapshot.
    ///
    /// # Errors
    ///
    /// Socket failures or a malformed reply.
    pub fn status(&mut self) -> io::Result<ServiceStatus> {
        self.conn.send(&request_status())?;
        let msg = self
            .conn
            .recv()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))?;
        let n = |key: &str| {
            msg.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad_data(format!("status missing {key:?}")))
        };
        Ok(ServiceStatus {
            queued: n("queued")? as usize,
            running: n("running")? as usize,
            clients: n("clients")? as usize,
            completed: n("completed")?,
            depth: n("depth")? as usize,
            warm_streams: n("warm_streams")? as usize,
            // Absent-tolerant: a storeless (or older) daemon sends no
            // footprint.
            store: msg.get("store").and_then(crate::proto::footprint_from_json),
        })
    }

    /// Asks the daemon to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Socket failures or a reply that is not the shutdown ack.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.conn.send(&request_shutdown())?;
        let msg = self
            .conn
            .recv()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))?;
        match msg.get("event").and_then(Value::as_str) {
            Some("shutting_down") => Ok(()),
            other => Err(bad_data(format!("unexpected shutdown reply {other:?}"))),
        }
    }
}

fn bad_input(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, reason)
}

fn bad_data(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}
