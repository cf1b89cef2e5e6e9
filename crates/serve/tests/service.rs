//! End-to-end service tests: a real daemon on a real socket, real
//! concurrent clients, and the byte-identity and warm-cache contracts
//! the service exists to provide.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ebcp_harness::{write_doc, Harness, HarnessConfig, QueueConfig, Scale, Value};
use ebcp_serve::{Client, Message, Server, ServerConfig, SweepOutcome, SweepSpec};

/// A sub-second scale: tiny machine, a fraction of one recurrence
/// interval. Travels over the wire like any other scale.
fn tiny_scale() -> Scale {
    Scale {
        den: 64,
        warm_tenths: 2,
        measure_tenths: 2,
        seed: 7,
    }
}

fn sweep(workloads: &[&str], prefetchers: &[&str]) -> SweepSpec {
    SweepSpec {
        workloads: workloads.iter().map(|s| (*s).to_string()).collect(),
        prefetchers: prefetchers.iter().map(|s| (*s).to_string()).collect(),
        cores: Vec::new(),
        scale: tiny_scale(),
    }
}

struct Daemon {
    server: Arc<Server>,
    addr: String,
    runner: thread::JoinHandle<std::io::Result<()>>,
}

fn daemon(workers: usize, depth: usize) -> Daemon {
    daemon_over(None, 1, workers, depth)
}

/// A daemon whose harness has `jobs` workers and caches in `store`.
fn daemon_over(store: Option<PathBuf>, jobs: usize, workers: usize, depth: usize) -> Daemon {
    let harness = Arc::new(Harness::new(HarnessConfig {
        jobs,
        store_dir: store,
        ..HarnessConfig::default()
    }));
    let server = Server::bind(
        harness,
        ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
            queue: QueueConfig {
                depth,
                workers,
                retry_after: Duration::from_millis(9),
            },
        },
    )
    .unwrap();
    let addr = format!("tcp:{}", server.tcp_addr().unwrap());
    let runner = {
        let s = Arc::clone(&server);
        thread::spawn(move || s.run())
    };
    Daemon {
        server,
        addr,
        runner,
    }
}

fn tmpfile(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ebcp-serve-{tag}-{}.json", std::process::id()))
}

fn job_started_events(msg: &Message) -> bool {
    msg.event().is_some_and(|v| {
        v.get("event").and_then(Value::as_str) == Some("telemetry")
            && v.get("kind").and_then(Value::as_str) == Some("job_started")
    })
}

#[test]
fn served_results_match_a_local_run_byte_for_byte_and_warm_repeats_are_free() {
    let d = daemon(1, 64);
    let spec = sweep(&["database"], &["none", "stream"]);

    // Cold submit: every cell simulates.
    let mut client = Client::connect(&d.addr).unwrap();
    let started = AtomicUsize::new(0);
    let first = client
        .submit(&spec, |ev| {
            if job_started_events(ev) {
                started.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
    let SweepOutcome::Done { results, failed } = first else {
        panic!("cold submit refused: {first:?}");
    };
    assert_eq!(failed, 0);
    assert_eq!(started.load(Ordering::Relaxed), 2, "both cells simulated");
    assert_eq!(d.server.service().harness().summary().executed, 2);

    // The same sweep run locally, through the harness's own writer.
    let local = Harness::serial();
    local.run_outcomes(&spec.jobs().unwrap());
    let local_path = tmpfile("local");
    let served_path = tmpfile("served");
    local.write_results_json(&local_path).unwrap();
    write_doc(&served_path, &results).unwrap();
    assert_eq!(
        std::fs::read(&local_path).unwrap(),
        std::fs::read(&served_path).unwrap(),
        "served results.json must be byte-identical to a local run's"
    );

    // Warm repeat: answered from the memo — zero simulations, zero
    // job_started telemetry, and the identical document again.
    let started_again = AtomicUsize::new(0);
    let second = client
        .submit(&spec, |ev| {
            if job_started_events(ev) {
                started_again.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
    let SweepOutcome::Done { results: warm, .. } = second else {
        panic!("warm submit refused: {second:?}");
    };
    assert_eq!(started_again.load(Ordering::Relaxed), 0, "no cell re-ran");
    assert_eq!(d.server.service().harness().summary().executed, 2);
    assert_eq!(warm.to_json_pretty(), results.to_json_pretty());

    // The daemon held the pre-resolved stream warm across requests.
    let status = client.status().unwrap();
    assert!(status.warm_streams >= 1, "stream cache stayed warm");
    assert_eq!(status.completed, 4, "2 cold + 2 memo deliveries");

    client.shutdown().unwrap();
    d.runner.join().unwrap().unwrap();
    let _ = std::fs::remove_file(local_path);
    let _ = std::fs::remove_file(served_path);
}

#[test]
fn concurrent_clients_isolate_faults_and_both_finish() {
    let d = daemon(2, 64);

    // Client A's sweep contains only the fault-injection prefetcher:
    // every cell panics (twice — the simulator is deterministic) and
    // must come back as that client's "failed" cells.
    let addr_a = d.addr.clone();
    let a = thread::spawn(move || {
        let mut c = Client::connect(&addr_a).unwrap();
        c.submit(&sweep(&["database"], &["fault"]), |_| {}).unwrap()
    });
    // Client B sweeps normally at the same time.
    let addr_b = d.addr.clone();
    let b = thread::spawn(move || {
        let mut c = Client::connect(&addr_b).unwrap();
        c.submit(&sweep(&["database", "tpcw"], &["none"]), |_| {})
            .unwrap()
    });

    let SweepOutcome::Done {
        failed: a_failed,
        results: a_results,
    } = a.join().unwrap()
    else {
        panic!("client A refused");
    };
    let SweepOutcome::Done {
        failed: b_failed, ..
    } = b.join().unwrap()
    else {
        panic!("client B refused");
    };
    assert_eq!(a_failed, 1, "the fault cell failed for client A");
    assert_eq!(b_failed, 0, "client B's sweep was undisturbed");
    let row = &a_results.get("jobs").unwrap().as_arr().unwrap()[0];
    assert_eq!(row.get("outcome").unwrap().as_str(), Some("failed"));
    assert!(row.get("result").unwrap().is_null());

    d.server.stop();
    d.runner.join().unwrap().unwrap();
}

#[test]
fn fault_lane_in_a_mixed_sweep_fails_alone_and_siblings_match_serial() {
    // One submit carries a fault-injection lane *between* healthy
    // lanes. The fault cell must fail alone; every sibling's result
    // must be byte-identical to a serial local reference run of one
    // single-job batch per cell (no lockstep unit) — the end-to-end
    // version of the harness-level isolation test.
    let d = daemon(2, 64);
    let spec = sweep(&["database"], &["none", "fault", "ebcp"]);
    let mut client = Client::connect(&d.addr).unwrap();
    let outcome = client.submit(&spec, |_| {}).unwrap();
    let SweepOutcome::Done { results, failed } = outcome else {
        panic!("submit refused: {outcome:?}");
    };
    assert_eq!(failed, 1, "exactly the fault cell failed");

    let reference = Harness::serial();
    for job in spec.jobs().unwrap() {
        reference.run_outcomes(std::slice::from_ref(&job));
    }
    let ref_path = tmpfile("fault-ref");
    let served_path = tmpfile("fault-served");
    reference.write_results_json(&ref_path).unwrap();
    write_doc(&served_path, &results).unwrap();
    assert_eq!(
        std::fs::read(&ref_path).unwrap(),
        std::fs::read(&served_path).unwrap(),
        "served sweep with a fault lane must match the serial reference byte for byte"
    );

    let rows = results.get("jobs").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 3);
    for (i, expect) in [("none", "ok"), ("fault", "failed"), ("ebcp", "ok")]
        .iter()
        .enumerate()
    {
        let row = &rows[i];
        assert_eq!(row.get("prefetcher").unwrap().as_str(), Some(expect.0));
        assert_eq!(row.get("outcome").unwrap().as_str(), Some(expect.1));
    }
    let fault_err = rows[1].get("error").unwrap().as_str().unwrap();
    assert!(fault_err.contains("injected fault"), "{fault_err}");

    client.shutdown().unwrap();
    d.runner.join().unwrap().unwrap();
    let _ = std::fs::remove_file(ref_path);
    let _ = std::fs::remove_file(served_path);
}

#[test]
fn cmp_cells_flow_through_the_service_and_match_a_local_run() {
    use ebcp_harness::{results_doc_cmp, CmpResultRow};

    let d = daemon(1, 64);
    let mut spec = sweep(&["database"], &["none", "ebcp"]);
    spec.cores = vec![1, 2];
    let mut client = Client::connect(&d.addr).unwrap();
    let outcome = client.submit(&spec, |_| {}).unwrap();
    let SweepOutcome::Done { results, failed } = outcome else {
        panic!("cmp submit refused: {outcome:?}");
    };
    assert_eq!(failed, 0);

    // 2 single-core cells + (1 workload × 2 core counts × 2
    // prefetchers) CMP cells.
    let summary = results.get("summary").unwrap();
    assert_eq!(summary.get("unique").unwrap().as_u64(), Some(6));
    let cmp_rows_json = results.get("cmp_jobs").unwrap().as_arr().unwrap();
    assert_eq!(cmp_rows_json.len(), 4);
    assert_eq!(
        cmp_rows_json[0].get("cell").unwrap().as_str(),
        Some("database-mix")
    );
    assert_eq!(cmp_rows_json[2].get("cores").unwrap().as_u64(), Some(2));
    for row in cmp_rows_json {
        assert_eq!(row.get("outcome").unwrap().as_str(), Some("ok"));
        assert!(row.get("result").unwrap().get("aggregate").is_some());
    }

    // A local run of the same grid, assembled through the same
    // renderer, must be byte-identical — the CMP extension of the
    // sweep/submit contract.
    let local = Harness::serial();
    local.run_outcomes(&spec.jobs().unwrap());
    let cmp_jobs = spec.cmp_jobs().unwrap();
    let cmp_outcomes = local.run_cmp_outcomes(&cmp_jobs);
    let cmp_rows: Vec<CmpResultRow> = cmp_jobs
        .iter()
        .zip(&cmp_outcomes)
        .map(|(job, outcome)| CmpResultRow {
            id: job.id(),
            cell: job.spec.name.clone(),
            prefetcher: job.pf.name().to_string(),
            cores: job.cores() as u64,
            outcome: outcome.clone(),
        })
        .collect();
    let local_doc = results_doc_cmp(
        spec.jobs().unwrap().len() + cmp_jobs.len(),
        &local.result_rows(),
        &cmp_rows,
    );
    assert_eq!(
        local_doc.to_json_pretty(),
        results.to_json_pretty(),
        "served CMP results.json must match the local assembly byte for byte"
    );

    client.shutdown().unwrap();
    d.runner.join().unwrap().unwrap();
}

#[test]
fn repeated_names_dedupe_route_each_cell_once_and_match_a_local_run() {
    use ebcp_harness::{results_doc_cmp, CmpJob, CmpResultRow};
    use std::collections::{HashMap, HashSet};
    use std::sync::Mutex;

    let d = daemon(1, 64);
    let mut spec = sweep(&["database", "database"], &["none", "stream", "none"]);
    spec.cores = vec![2];
    let jobs = spec.jobs().unwrap();
    let cmp_jobs = spec.cmp_jobs().unwrap();
    let unique_ids: HashSet<_> = jobs.iter().map(|j| j.id()).collect();
    let unique_cmp_ids: HashSet<_> = cmp_jobs.iter().map(CmpJob::id).collect();
    assert_eq!((jobs.len(), unique_ids.len()), (6, 2));
    assert_eq!((cmp_jobs.len(), unique_cmp_ids.len()), (6, 2));

    // Record the accepted count and every streamed cell id, per kind.
    let accepted_unique = Mutex::new(None);
    let streamed: Mutex<HashMap<(String, String), usize>> = Mutex::new(HashMap::new());
    let mut client = Client::connect(&d.addr).unwrap();
    let outcome = client
        .submit(&spec, |msg| {
            let (event, id) = match msg {
                Message::Cell(row) => ("cell", row.id),
                Message::CmpCell(row) => ("cmp_cell", row.id),
                Message::Event(ev) => {
                    if ev.get("event").and_then(Value::as_str) == Some("accepted") {
                        *accepted_unique.lock().unwrap() = ev.get("unique").and_then(Value::as_u64);
                    }
                    return;
                }
            };
            *streamed
                .lock()
                .unwrap()
                .entry((event.to_owned(), id.to_string()))
                .or_default() += 1;
        })
        .unwrap();
    let SweepOutcome::Done { results, failed } = outcome else {
        panic!("submit refused: {outcome:?}");
    };
    assert_eq!(failed, 0);
    assert_eq!(
        accepted_unique.into_inner().unwrap(),
        Some((unique_ids.len() + unique_cmp_ids.len()) as u64)
    );
    let streamed = streamed.into_inner().unwrap();
    let expected: HashSet<(String, String)> = unique_ids
        .iter()
        .map(|id| ("cell".to_owned(), id.to_string()))
        .chain(
            unique_cmp_ids
                .iter()
                .map(|id| ("cmp_cell".to_owned(), id.to_string())),
        )
        .collect();
    assert_eq!(streamed.keys().cloned().collect::<HashSet<_>>(), expected);
    assert!(
        streamed.values().all(|&n| n == 1),
        "every unique cell streams exactly once: {streamed:?}"
    );

    // The local assembly `repro sweep` performs: run the singles, run
    // the deduplicated CMP cells, render through the shared renderer.
    let local = Harness::serial();
    local.run_outcomes(&jobs);
    let mut seen = HashSet::new();
    let unique_cmp: Vec<CmpJob> = cmp_jobs
        .iter()
        .filter(|j| seen.insert(j.id()))
        .cloned()
        .collect();
    let cmp_outcomes = local.run_cmp_outcomes(&unique_cmp);
    let cmp_rows: Vec<CmpResultRow> = unique_cmp
        .iter()
        .zip(&cmp_outcomes)
        .map(|(job, outcome)| CmpResultRow {
            id: job.id(),
            cell: job.spec.name.clone(),
            prefetcher: job.pf.name().to_string(),
            cores: job.cores() as u64,
            outcome: outcome.clone(),
        })
        .collect();
    let local_doc = results_doc_cmp(jobs.len() + cmp_jobs.len(), &local.result_rows(), &cmp_rows);
    assert_eq!(
        local_doc.to_json_pretty(),
        results.to_json_pretty(),
        "a sweep with repeated names must match the local assembly byte for byte"
    );

    client.shutdown().unwrap();
    d.runner.join().unwrap().unwrap();
}

#[test]
fn full_queue_rejects_the_sweep_with_a_retry_hint() {
    // No workers and zero depth: a cold submit cannot be accepted.
    let d = daemon(0, 0);
    let mut client = Client::connect(&d.addr).unwrap();
    let outcome = client
        .submit(&sweep(&["database"], &["none"]), |_| {})
        .unwrap();
    let SweepOutcome::Rejected {
        reason,
        retry_after_ms,
    } = outcome
    else {
        panic!("expected rejection, got {outcome:?}");
    };
    assert!(reason.contains("queue full"), "reason: {reason}");
    assert_eq!(retry_after_ms, 9);

    // The daemon is still healthy: status round-trips on the same
    // connection.
    let status = client.status().unwrap();
    assert_eq!(status.depth, 0);

    d.server.stop();
    d.runner.join().unwrap().unwrap();
}

#[test]
fn malformed_frame_gets_an_error_line_not_a_silent_hangup() {
    use std::io::{BufRead, BufReader, Write};

    let d = daemon(1, 64);
    let raw_addr = d.addr.strip_prefix("tcp:").unwrap().to_string();

    // A raw socket speaking garbage: the daemon must answer with a
    // protocol error line naming the framing problem (not hang up
    // silently, and certainly not panic the handler thread).
    let mut bad = std::net::TcpStream::connect(&raw_addr).unwrap();
    bad.write_all(b"this is not json\n").unwrap();
    let mut reply = String::new();
    BufReader::new(bad.try_clone().unwrap())
        .read_line(&mut reply)
        .unwrap();
    let v = ebcp_harness::json::parse(&reply).expect("error line is well-formed JSON");
    assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
    let reason = v.get("reason").and_then(Value::as_str).unwrap_or_default();
    assert!(reason.contains("malformed frame"), "reason: {reason}");
    // The connection is closed after the error line.
    let mut rest = String::new();
    let n = BufReader::new(bad).read_line(&mut rest).unwrap();
    assert_eq!(n, 0, "connection closes after the error line: {rest:?}");

    // The daemon survived and still serves real clients.
    let mut client = Client::connect(&d.addr).unwrap();
    let outcome = client
        .submit(&sweep(&["database"], &["none"]), |_| {})
        .unwrap();
    assert!(matches!(outcome, SweepOutcome::Done { failed: 0, .. }));
    client.shutdown().unwrap();
    d.runner.join().unwrap().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_carries_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("ebcp-serve-sock-{}", std::process::id()));
    let harness = Arc::new(Harness::new(HarnessConfig {
        jobs: 1,
        ..HarnessConfig::default()
    }));
    let server = Server::bind(
        harness,
        ServerConfig {
            tcp: None,
            unix: Some(path.clone()),
            queue: QueueConfig::default(),
        },
    )
    .unwrap();
    let runner = {
        let s = Arc::clone(&server);
        thread::spawn(move || s.run())
    };
    let mut client = Client::connect(&format!("unix:{}", path.display())).unwrap();
    let outcome = client
        .submit(&sweep(&["database"], &["none"]), |_| {})
        .unwrap();
    assert!(matches!(outcome, SweepOutcome::Done { failed: 0, .. }));
    client.shutdown().unwrap();
    runner.join().unwrap().unwrap();
    assert!(!path.exists(), "socket file removed on shutdown");
}

/// Every cell line the daemon streams — ok and failed, single-core and
/// CMP — is byte for byte the reference `resp_cell`/`resp_cmp_cell`
/// encoding of the row it decodes to, so the typed writer changed no
/// wire byte. Spoken over a raw socket to see the lines as sent.
#[test]
fn streamed_cell_lines_equal_the_reference_encoding_of_their_rows() {
    use ebcp_serve::proto::{
        parse_cell, parse_cmp_cell, read_message, request_submit, resp_cell, resp_cmp_cell,
    };
    use std::io::{BufRead, BufReader, Write};

    let d = daemon(2, 64);
    let mut spec = sweep(&["database"], &["none", "fault", "ebcp"]);
    spec.cores = vec![2];
    let raw_addr = d.addr.strip_prefix("tcp:").unwrap().to_string();
    let mut sock = std::net::TcpStream::connect(&raw_addr).unwrap();
    let mut request = request_submit(spec.to_value()).to_json();
    request.push('\n');
    sock.write_all(request.as_bytes()).unwrap();

    let (mut cells, mut cmp_cells, mut failed) = (0, 0, 0);
    for line in BufReader::new(sock.try_clone().unwrap()).lines() {
        let line = line.unwrap();
        let tree = ebcp_harness::json::parse(&line).unwrap();
        match read_message(&line).unwrap() {
            Message::Cell(row) => {
                assert_eq!(line, resp_cell(&row).to_json());
                assert_eq!(parse_cell(&tree).unwrap(), row);
                cells += 1;
                failed += usize::from(row.outcome.is_failed());
            }
            Message::CmpCell(row) => {
                assert_eq!(line, resp_cmp_cell(&row).to_json());
                assert_eq!(parse_cmp_cell(&tree).unwrap(), row);
                cmp_cells += 1;
                failed += usize::from(row.outcome.is_failed());
            }
            Message::Event(v) => {
                assert_eq!(v, tree);
                if v.get("event").and_then(Value::as_str) == Some("done") {
                    break;
                }
            }
        }
    }
    assert_eq!((cells, cmp_cells), (3, 3));
    assert_eq!(failed, 2, "the fault lane fails on one core and on two");

    drop(sock);
    d.server.stop();
    d.runner.join().unwrap().unwrap();
}

/// Reads lines from `rd` until one is an `event` line other than
/// `telemetry` or `accepted`, and returns that line's tree; cell lines
/// are counted into `cells`.
fn read_until_final_event(rd: &mut impl std::io::BufRead, cells: &mut usize) -> Value {
    use ebcp_serve::proto::read_message;
    let mut line = String::new();
    loop {
        line.clear();
        assert!(rd.read_line(&mut line).unwrap() > 0, "daemon hung up");
        match read_message(line.trim()).unwrap() {
            Message::Cell(_) | Message::CmpCell(_) => *cells += 1,
            Message::Event(v) => match v.get("event").and_then(Value::as_str) {
                Some("telemetry" | "accepted") => {}
                _ => return v,
            },
        }
    }
}

/// A scale the machine cannot be built at is refused with an `error`
/// line before any grid expansion, and the connection stays usable: the
/// next submit on it completes.
#[test]
fn hostile_scale_den_gets_an_error_line_and_the_connection_keeps_serving() {
    use ebcp_serve::proto::request_submit;
    use std::io::{BufReader, Write};

    let d = daemon(1, 64);
    let raw_addr = d.addr.strip_prefix("tcp:").unwrap().to_string();
    let mut sock = std::net::TcpStream::connect(&raw_addr).unwrap();
    let mut rd = BufReader::new(sock.try_clone().unwrap());
    for den in [0, 1 << 40] {
        let mut bad = sweep(&["database"], &["none"]);
        bad.scale.den = den;
        let mut request = request_submit(bad.to_value()).to_json();
        request.push('\n');
        sock.write_all(request.as_bytes()).unwrap();
        let v = read_until_final_event(&mut rd, &mut 0);
        assert_eq!(v.get("event").and_then(Value::as_str), Some("error"));
        let reason = v.get("reason").and_then(Value::as_str).unwrap_or_default();
        assert!(reason.contains("scale den"), "den {den}: {reason}");
    }
    let mut request = request_submit(sweep(&["database"], &["none", "ebcp"]).to_value()).to_json();
    request.push('\n');
    sock.write_all(request.as_bytes()).unwrap();
    let mut cells = 0;
    let v = read_until_final_event(&mut rd, &mut cells);
    assert_eq!(v.get("event").and_then(Value::as_str), Some("done"));
    let summary = v.get("summary").expect("done carries a summary");
    assert_eq!(summary.get("failed").and_then(Value::as_u64), Some(0));
    assert_eq!(cells, 2);

    drop((rd, sock));
    d.server.stop();
    d.runner.join().unwrap().unwrap();
}

/// Every non-blank proper prefix of a valid submit line, sent as a line
/// of its own, is answered with an `error` line, and the daemon goes on
/// serving: a truncated request never panics a handler or hangs it.
#[test]
fn every_truncated_submit_line_gets_an_error_line() {
    use ebcp_serve::proto::request_submit;
    use std::io::{BufRead, BufReader, Write};

    let d = daemon(1, 64);
    let raw_addr = d.addr.strip_prefix("tcp:").unwrap().to_string();
    let mut spec = sweep(&["database"], &["none"]);
    spec.cores = vec![2];
    let request = request_submit(spec.to_value()).to_json();
    for end in 1..request.len() {
        let mut sock = std::net::TcpStream::connect(&raw_addr).unwrap();
        sock.write_all(format!("{}\n", &request[..end]).as_bytes())
            .unwrap();
        let mut reply = String::new();
        BufReader::new(sock).read_line(&mut reply).unwrap();
        let v = ebcp_harness::json::parse(&reply)
            .unwrap_or_else(|e| panic!("prefix {:?}: reply {reply:?}: {e}", &request[..end]));
        assert_eq!(
            v.get("event").and_then(Value::as_str),
            Some("error"),
            "prefix {:?}",
            &request[..end]
        );
    }
    // The daemon survived every one and still serves the whole line.
    let mut client = Client::connect(&d.addr).unwrap();
    let outcome = client.submit(&spec, |_| {}).unwrap();
    assert!(matches!(outcome, SweepOutcome::Done { failed: 0, .. }));
    client.shutdown().unwrap();
    d.runner.join().unwrap().unwrap();
}

/// Telemetry lines of kind `kind`.
fn telemetry_kind(msg: &Message, kind: &str) -> bool {
    msg.event().is_some_and(|v| {
        v.get("event").and_then(Value::as_str) == Some("telemetry")
            && v.get("kind").and_then(Value::as_str) == Some(kind)
    })
}

/// A daemon with two queue workers, restarted over the store an earlier
/// daemon filled, answers single-core and CMP cells from disk: its
/// queue workers and its handler's CMP batch read entries at once. The
/// document matches a local run byte for byte. The first restart finds
/// one corrupt entry, quarantines it once and re-runs only its cell;
/// the next restart simulates nothing.
#[test]
fn a_restarted_daemon_answers_from_disk_and_heals_one_corrupt_entry() {
    use ebcp_harness::{results_doc_cmp, CmpResultRow, ResultStore};

    let store = std::env::temp_dir().join(format!("ebcp-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut spec = sweep(&["database", "tpcw"], &["none", "ebcp", "stream"]);
    spec.cores = vec![2];
    let jobs = spec.jobs().unwrap();
    let cmp_jobs = spec.cmp_jobs().unwrap();

    // The local reference, assembled through the renderer `repro sweep`
    // uses.
    let local = Harness::serial();
    local.run_outcomes(&jobs);
    let cmp_rows: Vec<CmpResultRow> = cmp_jobs
        .iter()
        .zip(local.run_cmp_outcomes(&cmp_jobs))
        .map(|(job, outcome)| CmpResultRow {
            id: job.id(),
            cell: job.spec.name.clone(),
            prefetcher: job.pf.name().to_string(),
            cores: job.cores() as u64,
            outcome,
        })
        .collect();
    let want = results_doc_cmp(jobs.len() + cmp_jobs.len(), &local.result_rows(), &cmp_rows)
        .to_json_pretty();

    // Submits `spec` to a fresh two-worker daemon over the store; returns
    // its document, the job_started and cache_quarantined line counts
    // and its harness summary.
    let submit = || {
        let d = daemon_over(Some(store.clone()), 2, 2, 64);
        let mut client = Client::connect(&d.addr).unwrap();
        let (started, quarantined) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let outcome = client
            .submit(&spec, |msg| {
                if telemetry_kind(msg, "job_started") {
                    started.fetch_add(1, Ordering::Relaxed);
                }
                if telemetry_kind(msg, "cache_quarantined") {
                    quarantined.fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap();
        let SweepOutcome::Done { results, failed } = outcome else {
            panic!("submit refused: {outcome:?}");
        };
        assert_eq!(failed, 0);
        let summary = d.server.service().harness().summary();
        client.shutdown().unwrap();
        d.runner.join().unwrap().unwrap();
        (
            results.to_json_pretty(),
            started.into_inner(),
            quarantined.into_inner(),
            summary,
        )
    };

    let cells = jobs.len() + cmp_jobs.len();
    let (cold, started, _, _) = submit();
    assert_eq!(cold, want, "the cold daemon matches the local run");
    assert_eq!(started, cells);

    let entry = ResultStore::open(&store).unwrap().entry_path(&jobs[4]);
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 3]).unwrap();
    let (healed, started, quarantined, summary) = submit();
    assert_eq!(healed, want, "the restarted daemon matches the local run");
    assert_eq!(
        (started, quarantined),
        (1, 1),
        "only the corrupt cell re-ran"
    );
    assert_eq!(summary.quarantined, 1, "{summary:?}");
    assert_eq!(summary.executed, 1, "{summary:?}");
    assert_eq!(summary.disk_hits, cells - 1, "{summary:?}");

    let (warm, started, quarantined, summary) = submit();
    assert_eq!(warm, want, "the next restart matches the local run");
    assert_eq!((started, quarantined), (0, 0));
    assert_eq!(summary.executed, 0, "{summary:?}");
    assert_eq!(summary.disk_hits, cells, "{summary:?}");
    let _ = std::fs::remove_dir_all(&store);
}
