//! The wire protocol: line-delimited JSON over any byte stream.
//!
//! Framing is one compact JSON document per `\n`-terminated line —
//! trivially debuggable with `nc` and implementable on bare
//! [`std::net`], which the hermetic build requires (no HTTP stack, no
//! serialization crates). Requests carry a version field; responses are
//! *streamed*: a submit produces a prologue (`accepted` or `rejected`),
//! a telemetry/cell event stream, and a `done` epilogue.
//!
//! ```text
//! client → server   {"v":1,"cmd":"submit","sweep":{...}}
//!                   {"v":1,"cmd":"status"}
//!                   {"v":1,"cmd":"shutdown"}
//! server → client   {"event":"accepted","jobs":N,"unique":M}
//!                   {"event":"rejected","reason":..,"retry_after_ms":N}
//!                   {"event":"telemetry","kind":..,"label":..,...}
//!                   {"event":"cell","id":..,"workload":..,"prefetcher":..,
//!                    "outcome":"ok"|"failed","error":..,"result":{..}}
//!                   {"event":"cmp_cell","id":..,"cell":..,"prefetcher":..,
//!                    "cores":N,"outcome":"ok"|"failed","error":..,"result":{..}}
//!                   {"event":"done","summary":{..}}
//!                   {"event":"status", ...}
//!                   {"event":"error","reason":..}
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};

use ebcp_harness::cmp::{
    cmp_result_from_json, cmp_result_to_json, read_cmp_result, write_cmp_result,
};
use ebcp_harness::json::{ParseError, Reader};
use ebcp_harness::store::{read_result, result_from_json, result_to_json, write_result};
use ebcp_harness::telemetry::Event;
use ebcp_harness::{
    json, CmpOutcome, CmpResultRow, JobId, JobOutcome, ResultRow, ServiceStatus,
    StoreClassFootprint, StoreFootprint, Value,
};
use ebcp_sim::{CmpResult, SimResult};

/// Protocol version; bump on incompatible message changes.
pub const PROTO_VERSION: u64 = 1;

/// A framed connection: reads and writes one JSON document per line.
pub struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl std::fmt::Debug for Conn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conn").finish_non_exhaustive()
    }
}

impl Conn {
    /// Wraps a read half and a write half (use the stream's
    /// `try_clone` to split a socket).
    pub fn new(read: Box<dyn Read + Send>, write: Box<dyn Write + Send>) -> Self {
        Conn {
            reader: BufReader::new(read),
            writer: write,
        }
    }

    /// Sends one document as a compact line.
    ///
    /// # Errors
    ///
    /// Propagates write failures (e.g. the peer hung up).
    pub fn send(&mut self, v: &Value) -> io::Result<()> {
        let mut line = v.to_json();
        line.push('\n');
        self.send_raw(&line)
    }

    /// Sends pre-encoded text: whole `\n`-terminated lines, such as a
    /// [`write_cell`] line plus its newline.
    ///
    /// # Errors
    ///
    /// Propagates write failures (e.g. the peer hung up).
    pub fn send_raw(&mut self, lines: &str) -> io::Result<()> {
        self.writer.write_all(lines.as_bytes())?;
        self.writer.flush()
    }

    /// Receives the next non-blank line into `buf` and returns it
    /// trimmed; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// I/O failures, including [`io::ErrorKind::InvalidData`] for a
    /// line that is not UTF-8.
    pub fn recv_line<'b>(&mut self, buf: &'b mut String) -> io::Result<Option<&'b str>> {
        loop {
            buf.clear();
            if self.reader.read_line(buf)? == 0 {
                return Ok(None);
            }
            if !buf.trim().is_empty() {
                return Ok(Some(buf.trim()));
            }
            // Blank keep-alive lines are permitted.
        }
    }

    /// Receives the next document; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// I/O failures, and [`io::ErrorKind::InvalidData`] for a line that
    /// is not valid JSON.
    pub fn recv(&mut self) -> io::Result<Option<Value>> {
        let mut buf = String::new();
        let Some(line) = self.recv_line(&mut buf)? else {
            return Ok(None);
        };
        json::parse(line)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `submit` request around an encoded sweep.
pub fn request_submit(sweep: Value) -> Value {
    obj(vec![
        ("v", Value::Int(PROTO_VERSION)),
        ("cmd", Value::Str("submit".into())),
        ("sweep", sweep),
    ])
}

/// `status` request.
pub fn request_status() -> Value {
    obj(vec![
        ("v", Value::Int(PROTO_VERSION)),
        ("cmd", Value::Str("status".into())),
    ])
}

/// `shutdown` request.
pub fn request_shutdown() -> Value {
    obj(vec![
        ("v", Value::Int(PROTO_VERSION)),
        ("cmd", Value::Str("shutdown".into())),
    ])
}

/// Submit prologue: the sweep was accepted whole.
pub fn resp_accepted(jobs: usize, unique: usize) -> Value {
    obj(vec![
        ("event", Value::Str("accepted".into())),
        ("jobs", Value::Int(jobs as u64)),
        ("unique", Value::Int(unique as u64)),
    ])
}

/// Submit prologue: refused (backpressure); retry after the hint.
pub fn resp_rejected(reason: &str, retry_after_ms: u64) -> Value {
    obj(vec![
        ("event", Value::Str("rejected".into())),
        ("reason", Value::Str(reason.into())),
        ("retry_after_ms", Value::Int(retry_after_ms)),
    ])
}

/// Acknowledges a `shutdown` request: the daemon stops accepting work
/// and exits once queued jobs drain.
pub fn resp_shutting_down() -> Value {
    obj(vec![("event", Value::Str("shutting_down".into()))])
}

/// Terminal error (bad request, unknown names, version skew).
pub fn resp_error(reason: &str) -> Value {
    obj(vec![
        ("event", Value::Str("error".into())),
        ("reason", Value::Str(reason.into())),
    ])
}

/// One live telemetry event, forwarded from the harness bus.
pub fn resp_telemetry(ev: &Event) -> Value {
    let mut fields = vec![("event", Value::Str("telemetry".into()))];
    match ev {
        Event::JobStarted { label } => {
            fields.push(("kind", Value::Str("job_started".into())));
            fields.push(("label", Value::Str(label.clone())));
        }
        Event::JobFinished {
            label,
            wall_ms,
            insts_per_sec,
        } => {
            fields.push(("kind", Value::Str("job_finished".into())));
            fields.push(("label", Value::Str(label.clone())));
            fields.push(("wall_ms", Value::Int(*wall_ms)));
            fields.push(("insts_per_sec", Value::Num(*insts_per_sec)));
        }
        Event::JobRetried { label, reason } => {
            fields.push(("kind", Value::Str("job_retried".into())));
            fields.push(("label", Value::Str(label.clone())));
            fields.push(("reason", Value::Str(reason.clone())));
        }
        Event::JobFailed { label, reason } => {
            fields.push(("kind", Value::Str("job_failed".into())));
            fields.push(("label", Value::Str(label.clone())));
            fields.push(("reason", Value::Str(reason.clone())));
        }
        Event::CacheQuarantined { path, reason } => {
            fields.push(("kind", Value::Str("cache_quarantined".into())));
            fields.push(("path", Value::Str(path.clone())));
            fields.push(("reason", Value::Str(reason.clone())));
        }
    }
    obj(fields)
}

/// One finished cell.
pub fn resp_cell(row: &ResultRow) -> Value {
    obj(vec![
        ("event", Value::Str("cell".into())),
        ("id", Value::Str(row.id.to_string())),
        ("workload", Value::Str(row.workload.clone())),
        ("prefetcher", Value::Str(row.prefetcher.clone())),
        (
            "outcome",
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
            "error",
            row.outcome
                .failure()
                .map_or(Value::Null, |e| Value::Str(e.into())),
        ),
        (
            "result",
            row.outcome.result().map_or(Value::Null, result_to_json),
        ),
    ])
}

/// One finished multi-core CMP cell.
pub fn resp_cmp_cell(row: &CmpResultRow) -> Value {
    obj(vec![
        ("event", Value::Str("cmp_cell".into())),
        ("id", Value::Str(row.id.to_string())),
        ("cell", Value::Str(row.cell.clone())),
        ("prefetcher", Value::Str(row.prefetcher.clone())),
        ("cores", Value::Int(row.cores)),
        (
            "outcome",
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
            "error",
            row.outcome
                .failure()
                .map_or(Value::Null, |e| Value::Str(e.into())),
        ),
        (
            "result",
            row.outcome.result().map_or(Value::Null, cmp_result_to_json),
        ),
    ])
}

/// Submit epilogue.
pub fn resp_done(submitted: usize, unique: usize, failed: usize) -> Value {
    obj(vec![
        ("event", Value::Str("done".into())),
        (
            "summary",
            obj(vec![
                ("submitted", Value::Int(submitted as u64)),
                ("unique", Value::Int(unique as u64)),
                ("failed", Value::Int(failed as u64)),
            ]),
        ),
    ])
}

/// `status` response. The `store` object is present only when the
/// daemon's harness has a disk store; clients must tolerate its
/// absence (older daemons never send it).
pub fn resp_status(st: &ServiceStatus) -> Value {
    let mut fields = vec![
        ("event", Value::Str("status".into())),
        ("queued", Value::Int(st.queued as u64)),
        ("running", Value::Int(st.running as u64)),
        ("clients", Value::Int(st.clients as u64)),
        ("completed", Value::Int(st.completed)),
        ("depth", Value::Int(st.depth as u64)),
        ("warm_streams", Value::Int(st.warm_streams as u64)),
    ];
    if let Some(fp) = &st.store {
        fields.push(("store", footprint_to_json(fp)));
    }
    obj(fields)
}

/// Encodes a store footprint as the status line's `store` object.
pub fn footprint_to_json(fp: &StoreFootprint) -> Value {
    let class = |c: &StoreClassFootprint| {
        obj(vec![
            ("files", Value::Int(c.files)),
            ("bytes", Value::Int(c.bytes)),
            ("segments", Value::Int(c.segments)),
            ("corrupt", Value::Int(c.corrupt)),
            ("quarantined_bytes", Value::Int(c.quarantined_bytes)),
        ])
    };
    obj(vec![
        ("results", class(&fp.results)),
        ("preres", class(&fp.preres)),
        ("traces", class(&fp.traces)),
        ("total_bytes", Value::Int(fp.total_bytes())),
        ("quarantined_bytes", Value::Int(fp.quarantined_bytes())),
    ])
}

/// Decodes a status line's `store` object; `None` if any field is
/// missing or mistyped (treated as "daemon reported no footprint").
pub fn footprint_from_json(v: &Value) -> Option<StoreFootprint> {
    let class = |key: &str| -> Option<StoreClassFootprint> {
        let c = v.get(key)?;
        let n = |f: &str| c.get(f).and_then(Value::as_u64);
        Some(StoreClassFootprint {
            files: n("files")?,
            bytes: n("bytes")?,
            segments: n("segments")?,
            corrupt: n("corrupt")?,
            // Absent-tolerant: daemons predating the field report no
            // quarantine byte accounting, not a malformed footprint.
            quarantined_bytes: n("quarantined_bytes").unwrap_or(0),
        })
    };
    Some(StoreFootprint {
        results: class("results")?,
        preres: class("preres")?,
        traces: class("traces")?,
    })
}

/// Appends the `cell` line for `row` (without the newline): byte for
/// byte `resp_cell(row).to_json()`, written without building the tree.
pub fn write_cell(out: &mut String, row: &ResultRow) {
    write_cell_head(out, "cell", row.id);
    json::write_key(out, "workload");
    json::write_str(out, &row.workload);
    out.push(',');
    json::write_key(out, "prefetcher");
    json::write_str(out, &row.prefetcher);
    write_cell_tail(
        out,
        row.outcome.failure(),
        row.outcome.result(),
        write_result,
    );
}

/// Appends the `cmp_cell` line for `row` (without the newline): byte
/// for byte `resp_cmp_cell(row).to_json()`.
pub fn write_cmp_cell(out: &mut String, row: &CmpResultRow) {
    write_cell_head(out, "cmp_cell", row.id);
    json::write_key(out, "cell");
    json::write_str(out, &row.cell);
    out.push(',');
    json::write_key(out, "prefetcher");
    json::write_str(out, &row.prefetcher);
    out.push(',');
    json::write_key(out, "cores");
    json::write_u64(out, row.cores);
    write_cell_tail(
        out,
        row.outcome.failure(),
        row.outcome.result(),
        write_cmp_result,
    );
}

/// `{"event":<event>,"id":<id>,`
fn write_cell_head(out: &mut String, event: &str, id: JobId) {
    out.push('{');
    json::write_key(out, "event");
    json::write_str(out, event);
    out.push(',');
    json::write_key(out, "id");
    // `JobId` displays as 16 hex digits: nothing to escape.
    let _ = write!(out, "\"{id}\",");
}

/// `,"outcome":..,"error":..,"result":..}`
fn write_cell_tail<R>(
    out: &mut String,
    failure: Option<&str>,
    result: Option<&R>,
    write: fn(&mut String, &R),
) {
    out.push(',');
    json::write_key(out, "outcome");
    json::write_str(out, if failure.is_some() { "failed" } else { "ok" });
    out.push(',');
    json::write_key(out, "error");
    match failure {
        Some(e) => json::write_str(out, e),
        None => out.push_str("null"),
    }
    out.push(',');
    json::write_key(out, "result");
    match result {
        Some(r) => write(out, r),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// One line from the daemon as the client consumes it: a cell decoded
/// straight into its row, or any other event as a [`Value`] tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A `cell` line.
    Cell(ResultRow),
    /// A `cmp_cell` line.
    CmpCell(CmpResultRow),
    /// Any other line (`accepted`, `telemetry`, `done`, `error`, ...).
    Event(Value),
}

impl Message {
    /// The event tree, unless this is a cell.
    pub fn event(&self) -> Option<&Value> {
        match self {
            Message::Event(v) => Some(v),
            _ => None,
        }
    }
}

/// Decodes one server line. `cell` and `cmp_cell` lines go straight
/// into their rows through the pull reader (no [`Value`] tree); any
/// other line is parsed into a tree. Equivalent to [`json::parse`]
/// followed by [`parse_cell`] / [`parse_cmp_cell`] on cell lines, in
/// any key order.
///
/// # Errors
///
/// Malformed JSON, or a cell with a missing or mistyped field.
pub fn read_message(line: &str) -> Result<Message, String> {
    let mut cell = CellFields::default();
    let mut rd = Reader::new(line);
    let walked = if rd.peek() == Some(b'{') {
        rd.object(|rd, key| cell.field(rd, key))
    } else {
        rd.skip()
    };
    walked
        .and_then(|()| rd.finish())
        .map_err(|e| e.to_string())?;
    match cell.event.take().flatten().as_deref() {
        Some("cell") => cell.into_cell().map(Message::Cell),
        Some("cmp_cell") => cell.into_cmp_cell().map(Message::CmpCell),
        _ => json::parse(line)
            .map(Message::Event)
            .map_err(|e| e.to_string()),
    }
}

/// A cell's `result` as read: decoded as the event already named, or
/// — when `result` came before `event` — the raw span, decoded once
/// the event is known.
enum CellResult<'a> {
    Single(Option<SimResult>),
    Cmp(Option<CmpResult>),
    Raw(&'a str),
}

/// What [`read_message`] collects from one line. Each field is `None`
/// until its key is seen, then `Some(None)` if the value is mistyped;
/// the first occurrence of a key is the one that counts (as with
/// [`Value::get`]).
#[derive(Default)]
struct CellFields<'a> {
    event: Option<Option<Cow<'a, str>>>,
    id: Option<Option<Cow<'a, str>>>,
    workload: Option<Option<Cow<'a, str>>>,
    cell: Option<Option<Cow<'a, str>>>,
    prefetcher: Option<Option<Cow<'a, str>>>,
    cores: Option<Option<u64>>,
    outcome: Option<Option<Cow<'a, str>>>,
    error: Option<Option<Cow<'a, str>>>,
    result: Option<CellResult<'a>>,
}

impl<'a> CellFields<'a> {
    fn field(&mut self, rd: &mut Reader<'a>, key: &str) -> Result<(), ParseError> {
        let slot = match key {
            "event" => &mut self.event,
            "id" => &mut self.id,
            "workload" => &mut self.workload,
            "cell" => &mut self.cell,
            "prefetcher" => &mut self.prefetcher,
            "outcome" => &mut self.outcome,
            "error" => &mut self.error,
            "cores" if self.cores.is_none() => {
                self.cores = Some(rd.opt_u64()?);
                return Ok(());
            }
            "result" if self.result.is_none() => {
                self.result = Some(match self.event.as_ref().and_then(Option::as_deref) {
                    Some("cell") => CellResult::Single(read_result(rd)?),
                    Some("cmp_cell") => CellResult::Cmp(read_cmp_result(rd)?),
                    _ => {
                        let at = rd.pos();
                        rd.skip()?;
                        CellResult::Raw(rd.since(at))
                    }
                });
                return Ok(());
            }
            _ => return rd.skip(),
        };
        if slot.is_none() {
            *slot = Some(rd.opt_str()?);
            Ok(())
        } else {
            rd.skip()
        }
    }

    /// The string field `key`, or the reference decoder's error.
    fn text(v: Option<Option<Cow<'_, str>>>, kind: &str, key: &str) -> Result<String, String> {
        v.flatten()
            .map(Cow::into_owned)
            .ok_or_else(|| format!("{kind} missing {key:?}"))
    }

    fn id(v: Option<Option<Cow<'_, str>>>, kind: &str) -> Result<JobId, String> {
        let id = Self::text(v, kind, "id")?;
        u64::from_str_radix(&id, 16)
            .map(JobId)
            .map_err(|e| format!("bad {kind} id: {e}"))
    }

    fn into_cell(self) -> Result<ResultRow, String> {
        let id = Self::id(self.id, "cell")?;
        let outcome = match Self::text(self.outcome, "cell", "outcome")?.as_str() {
            "ok" => {
                let result = match self.result.ok_or("ok cell missing result")? {
                    CellResult::Single(r) => r,
                    CellResult::Raw(text) => read_result(&mut Reader::new(text)).ok().flatten(),
                    CellResult::Cmp(_) => None,
                };
                JobOutcome::Ok(result.ok_or("undecodable cell result")?)
            }
            "failed" => JobOutcome::Failed {
                reason: Self::text(self.error, "cell", "error")?,
            },
            other => return Err(format!("unknown cell outcome {other:?}")),
        };
        Ok(ResultRow {
            id,
            workload: Self::text(self.workload, "cell", "workload")?,
            prefetcher: Self::text(self.prefetcher, "cell", "prefetcher")?,
            outcome,
        })
    }

    fn into_cmp_cell(self) -> Result<CmpResultRow, String> {
        let id = Self::id(self.id, "cmp_cell")?;
        let cores = self.cores.flatten().ok_or("cmp_cell missing \"cores\"")?;
        let outcome = match Self::text(self.outcome, "cmp_cell", "outcome")?.as_str() {
            "ok" => {
                let result = match self.result.ok_or("ok cmp_cell missing result")? {
                    CellResult::Cmp(r) => r,
                    CellResult::Raw(text) => read_cmp_result(&mut Reader::new(text)).ok().flatten(),
                    CellResult::Single(_) => None,
                };
                CmpOutcome::Ok(result.ok_or("undecodable cmp_cell result")?)
            }
            "failed" => CmpOutcome::Failed {
                reason: Self::text(self.error, "cmp_cell", "error")?,
            },
            other => return Err(format!("unknown cmp_cell outcome {other:?}")),
        };
        Ok(CmpResultRow {
            id,
            cell: Self::text(self.cell, "cmp_cell", "cell")?,
            prefetcher: Self::text(self.prefetcher, "cmp_cell", "prefetcher")?,
            cores,
            outcome,
        })
    }
}

/// Decodes a `cell` line back into a [`ResultRow`].
///
/// # Errors
///
/// A missing or mistyped field.
pub fn parse_cell(v: &Value) -> Result<ResultRow, String> {
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("cell missing {key:?}"))
    };
    let id = u64::from_str_radix(&s("id")?, 16).map_err(|e| format!("bad cell id: {e}"))?;
    let outcome = match s("outcome")?.as_str() {
        "ok" => {
            let result = v.get("result").ok_or("ok cell missing result")?;
            JobOutcome::Ok(result_from_json(result).ok_or("undecodable cell result")?)
        }
        "failed" => JobOutcome::Failed {
            reason: s("error")?,
        },
        other => return Err(format!("unknown cell outcome {other:?}")),
    };
    Ok(ResultRow {
        id: JobId(id),
        workload: s("workload")?,
        prefetcher: s("prefetcher")?,
        outcome,
    })
}

/// Decodes a `cmp_cell` line back into a [`CmpResultRow`].
///
/// # Errors
///
/// A missing or mistyped field.
pub fn parse_cmp_cell(v: &Value) -> Result<CmpResultRow, String> {
    let s = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("cmp_cell missing {key:?}"))
    };
    let id = u64::from_str_radix(&s("id")?, 16).map_err(|e| format!("bad cmp_cell id: {e}"))?;
    let cores = v
        .get("cores")
        .and_then(Value::as_u64)
        .ok_or("cmp_cell missing \"cores\"")?;
    let outcome = match s("outcome")?.as_str() {
        "ok" => {
            let result = v.get("result").ok_or("ok cmp_cell missing result")?;
            CmpOutcome::Ok(cmp_result_from_json(result).ok_or("undecodable cmp_cell result")?)
        }
        "failed" => CmpOutcome::Failed {
            reason: s("error")?,
        },
        other => return Err(format!("unknown cmp_cell outcome {other:?}")),
    };
    Ok(CmpResultRow {
        id: JobId(id),
        cell: s("cell")?,
        prefetcher: s("prefetcher")?,
        cores,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An owned writer the test can read back after the `Conn` is gone.
    #[derive(Clone, Default)]
    struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn framing_round_trips_multiple_lines() {
        let sink = Shared::default();
        {
            let mut c = Conn::new(Box::new(io::empty()), Box::new(sink.clone()));
            c.send(&resp_accepted(6, 4)).unwrap();
            c.send(&resp_done(6, 4, 0)).unwrap();
        }
        let buf = sink.0.lock().unwrap().clone();
        let mut c = Conn::new(Box::new(io::Cursor::new(buf)), Box::new(io::sink()));
        let a = c.recv().unwrap().unwrap();
        assert_eq!(a.get("event").unwrap().as_str(), Some("accepted"));
        assert_eq!(a.get("jobs").unwrap().as_u64(), Some(6));
        let d = c.recv().unwrap().unwrap();
        assert_eq!(d.get("event").unwrap().as_str(), Some("done"));
        assert!(c.recv().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn garbage_line_is_invalid_data_not_a_hang() {
        let mut c = Conn::new(
            Box::new(io::Cursor::new(b"{nope\n".to_vec())),
            Box::new(io::sink()),
        );
        let err = c.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn status_store_footprint_is_absent_tolerant_and_round_trips() {
        let bare = ServiceStatus {
            queued: 1,
            running: 2,
            clients: 1,
            completed: 9,
            depth: 64,
            warm_streams: 3,
            store: None,
        };
        let v = json::parse(&resp_status(&bare).to_json()).unwrap();
        assert!(v.get("store").is_none(), "storeless daemon sends no store");
        assert!(footprint_from_json(&Value::Obj(vec![])).is_none());

        let fp = StoreFootprint {
            results: StoreClassFootprint {
                files: 12,
                bytes: 34_567,
                segments: 0,
                corrupt: 1,
                quarantined_bytes: 4_096,
            },
            preres: StoreClassFootprint {
                files: 3,
                bytes: 1 << 20,
                segments: 17,
                corrupt: 0,
                quarantined_bytes: 0,
            },
            traces: StoreClassFootprint {
                files: 2,
                bytes: 1 << 22,
                segments: 40,
                corrupt: 0,
                quarantined_bytes: 0,
            },
        };
        let with = ServiceStatus {
            store: Some(fp),
            ..bare
        };
        let v = json::parse(&resp_status(&with).to_json()).unwrap();
        let back = v.get("store").and_then(footprint_from_json).unwrap();
        assert_eq!(back, fp);
        assert_eq!(
            v.get("store").unwrap().get("total_bytes").unwrap().as_u64(),
            Some(fp.total_bytes())
        );
        assert_eq!(
            v.get("store")
                .unwrap()
                .get("quarantined_bytes")
                .unwrap()
                .as_u64(),
            Some(4_096)
        );

        // A daemon predating quarantine byte accounting omits the
        // per-class field; the decode treats that as zero, not as a
        // malformed footprint.
        let mut text = resp_status(&with).to_json();
        text = text.replace(",\"quarantined_bytes\":4096", "");
        let v = json::parse(&text).unwrap();
        let back = v.get("store").and_then(footprint_from_json).unwrap();
        assert_eq!(back.results.quarantined_bytes, 0);
        assert_eq!(back.preres, fp.preres);
    }

    #[test]
    fn cell_round_trips_ok_and_failed() {
        use ebcp_sim::SimResult;
        let ok = ResultRow {
            id: JobId(0xabcd_0123_4567_89ef),
            workload: "database".into(),
            prefetcher: "ebcp".into(),
            outcome: JobOutcome::Ok(SimResult {
                insts: u64::MAX,
                ..SimResult::default()
            }),
        };
        let failed = ResultRow {
            id: JobId(7),
            workload: "tpcw".into(),
            prefetcher: "fault".into(),
            outcome: JobOutcome::Failed {
                reason: "injected".into(),
            },
        };
        for row in [&ok, &failed] {
            let text = resp_cell(row).to_json();
            let back = parse_cell(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.id, row.id);
            assert_eq!(back.workload, row.workload);
            assert_eq!(back.outcome, row.outcome);
        }
    }

    /// Rows with every outcome kind and names that need escaping.
    fn sample_rows() -> (Vec<ResultRow>, Vec<CmpResultRow>) {
        use ebcp_sim::{CmpResult, SimResult};
        let result = |name: &str, n: u64| SimResult {
            prefetcher: name.into(),
            workload: "db \"q\" \\ \u{1}é".into(),
            insts: u64::MAX,
            cycles: n,
            ..SimResult::default()
        };
        let single = |outcome| ResultRow {
            id: JobId(0x00ab_cdef_0123_4567),
            workload: "tpcw\t\"x\"".into(),
            prefetcher: "solihin-3,2".into(),
            outcome,
        };
        let multi = |outcome| CmpResultRow {
            id: JobId(u64::MAX),
            cell: "database-mix\n".into(),
            prefetcher: "ebcp+nof".into(),
            cores: 2,
            outcome,
        };
        let cmp = CmpResult {
            cores: vec![result("a", 1), result("b", 2)],
            aggregate: result("agg", 3),
        };
        (
            vec![
                single(JobOutcome::Ok(result("ebcp", 7))),
                single(JobOutcome::Retried(result("ebcp", 8))),
                single(JobOutcome::Failed {
                    reason: "injected fault: \"boom\"\n".into(),
                }),
            ],
            vec![
                multi(CmpOutcome::Ok(cmp.clone())),
                multi(CmpOutcome::Retried(cmp)),
                multi(CmpOutcome::Failed {
                    reason: "panicked \\ twice".into(),
                }),
            ],
        )
    }

    /// The lines of `sample_rows`, written by the typed writers.
    fn sample_lines() -> Vec<String> {
        let (singles, multis) = sample_rows();
        let mut lines = Vec::new();
        for row in &singles {
            let mut line = String::new();
            write_cell(&mut line, row);
            lines.push(line);
        }
        for row in &multis {
            let mut line = String::new();
            write_cmp_cell(&mut line, row);
            lines.push(line);
        }
        lines
    }

    #[test]
    fn typed_cell_writers_match_the_reference_lines() {
        let (singles, multis) = sample_rows();
        let lines = sample_lines();
        let reference = singles
            .iter()
            .map(|r| resp_cell(r).to_json())
            .chain(multis.iter().map(|r| resp_cmp_cell(r).to_json()));
        for (line, want) in lines.iter().zip(reference) {
            assert_eq!(line, &want);
        }
    }

    /// `v` with its top-level keys rotated left by `k` (or reversed
    /// when `k` is the key count), so `result` lands before `event`.
    fn reorder(v: &Value, k: usize) -> Value {
        let Value::Obj(fields) = v else {
            return v.clone();
        };
        let mut fields = fields.clone();
        if k == fields.len() {
            fields.reverse();
        } else {
            fields.rotate_left(k);
        }
        Value::Obj(fields)
    }

    #[test]
    fn read_message_decodes_cells_like_the_reference_in_any_key_order() {
        for line in sample_lines() {
            let tree = json::parse(&line).unwrap();
            let want = match tree.get("event").and_then(Value::as_str) {
                Some("cell") => Message::Cell(parse_cell(&tree).unwrap()),
                _ => Message::CmpCell(parse_cmp_cell(&tree).unwrap()),
            };
            let Value::Obj(fields) = &tree else {
                panic!("a cell line is an object");
            };
            for k in 0..=fields.len() {
                let moved = reorder(&tree, k);
                for text in [moved.to_json(), moved.to_json_pretty()] {
                    assert_eq!(read_message(&text), Ok(want.clone()), "{text}");
                }
            }
        }
        // Failures name the field, as the reference decoder does.
        let err = read_message(r#"{"event":"cell","id":"zz"}"#).unwrap_err();
        assert!(err.contains("bad cell id"), "{err}");
        let err = read_message(r#"{"event":"cmp_cell","id":"01","outcome":"ok"}"#).unwrap_err();
        assert!(err.contains("cores"), "{err}");
    }

    #[test]
    fn truncated_or_garbled_cell_lines_are_errors_not_panics() {
        for line in sample_lines() {
            for n in (0..line.len()).filter(|&n| line.is_char_boundary(n)) {
                assert!(read_message(&line[..n]).is_err(), "{:?}", &line[..n]);
            }
            // Every single-byte overwrite either fails or decodes to
            // what the reference path decodes.
            for n in (0..line.len()).filter(|&n| line.is_char_boundary(n)) {
                for b in ["\"", "{", "]", "x", "9", ","] {
                    let mut bad = line.clone();
                    let end = (n + 1..=line.len())
                        .find(|&e| line.is_char_boundary(e))
                        .unwrap_or(line.len());
                    bad.replace_range(n..end, b);
                    let reference = json::parse(&bad).map_err(|e| e.to_string()).and_then(|v| {
                        match v.get("event").and_then(Value::as_str) {
                            Some("cell") => parse_cell(&v).map(Message::Cell),
                            Some("cmp_cell") => parse_cmp_cell(&v).map(Message::CmpCell),
                            _ => Ok(Message::Event(v)),
                        }
                    });
                    assert_eq!(read_message(&bad).ok(), reference.ok(), "{bad}");
                }
            }
        }
    }

    #[test]
    fn non_cell_lines_stay_trees() {
        for v in [
            resp_accepted(3, 2),
            resp_done(3, 2, 1),
            resp_error("nope"),
            resp_rejected("queue full", 9),
            Value::Arr(vec![]),
        ] {
            assert_eq!(read_message(&v.to_json()), Ok(Message::Event(v)));
        }
    }

    #[test]
    fn cmp_cell_round_trips_ok_and_failed() {
        use ebcp_sim::{CmpResult, SimResult};
        let ok = CmpResultRow {
            id: JobId(0x0123_4567_89ab_cdef),
            cell: "database-mix".into(),
            prefetcher: "ebcp".into(),
            cores: 4,
            outcome: CmpOutcome::Ok(CmpResult {
                cores: vec![
                    SimResult {
                        insts: 1000,
                        ..SimResult::default()
                    };
                    4
                ],
                aggregate: SimResult {
                    insts: 4000,
                    ..SimResult::default()
                },
            }),
        };
        let failed = CmpResultRow {
            id: JobId(9),
            cell: "tpcw-mix".into(),
            prefetcher: "fault".into(),
            cores: 2,
            outcome: CmpOutcome::Failed {
                reason: "injected".into(),
            },
        };
        for row in [&ok, &failed] {
            let text = resp_cmp_cell(row).to_json();
            let back = parse_cmp_cell(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.id, row.id);
            assert_eq!(back.cell, row.cell);
            assert_eq!(back.cores, row.cores);
            assert_eq!(back.outcome, row.outcome);
        }
        // A Retried outcome renders as "ok" and parses back as Ok —
        // whether a cell needed its second attempt is timing, not
        // result.
        let retried = CmpResultRow {
            outcome: CmpOutcome::Retried(ok.outcome.result().unwrap().clone()),
            ..ok.clone()
        };
        let back =
            parse_cmp_cell(&json::parse(&resp_cmp_cell(&retried).to_json()).unwrap()).unwrap();
        assert_eq!(back.outcome, ok.outcome);
    }
}
