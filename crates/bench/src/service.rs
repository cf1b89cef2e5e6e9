//! CLI glue for the sweep service: `repro serve|submit|status|shutdown|
//! sweep|bench-serve`.
//!
//! Each command returns a process exit code rather than calling
//! `exit()` itself, so `repro` keeps one place that terminates. Codes:
//! `0` success, `1` failed sweep cells, `3` daemon unreachable or the
//! sweep was refused after every retry (`2` stays the usage-error code,
//! assigned by `repro` itself).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ebcp_harness::{write_doc, Harness, HarnessConfig, QueueConfig, Scale, Value};
use ebcp_serve::{Client, Server, ServerConfig, SweepOutcome, SweepSpec};

/// The sweep grid named on the command line.
#[derive(Debug, Clone)]
pub struct GridArgs {
    /// Comma-separated workload preset names; empty means all four.
    pub workloads: Vec<String>,
    /// Comma-separated prefetcher names; empty means `none,ebcp`.
    pub prefetchers: Vec<String>,
    /// CMP core counts (`--cores`); empty means single-core only.
    pub cores: Vec<u64>,
    /// Experiment scale.
    pub scale: Scale,
}

impl GridArgs {
    /// Resolves defaults into a concrete sweep.
    pub fn to_spec(&self) -> SweepSpec {
        let workloads = if self.workloads.is_empty() {
            vec![
                "database".into(),
                "tpcw".into(),
                "specjbb2005".into(),
                "specjappserver2004".into(),
            ]
        } else {
            self.workloads.clone()
        };
        let prefetchers = if self.prefetchers.is_empty() {
            vec!["none".into(), "ebcp".into()]
        } else {
            self.prefetchers.clone()
        };
        SweepSpec {
            workloads,
            prefetchers,
            cores: self.cores.clone(),
            scale: self.scale,
        }
    }
}

/// Splits a `--workloads a,b,c` style list.
pub fn parse_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Splits a `--prefetchers` list. Two roster names carry a comma of
/// their own (`solihin-3,2`, `solihin-6,1`), so a digit-led fragment is
/// re-joined onto a preceding `solihin-N`: `none,solihin-3,2,stream`
/// names three prefetchers.
pub fn parse_prefetchers(s: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for part in parse_list(s) {
        match names.last_mut() {
            Some(prev)
                if prev.starts_with("solihin-")
                    && !prev.contains(',')
                    && part.starts_with(|c: char| c.is_ascii_digit()) =>
            {
                prev.push(',');
                prev.push_str(&part);
            }
            _ => names.push(part),
        }
    }
    names
}

/// Parses a byte-count argument: a plain integer, optionally suffixed
/// `k`/`m`/`g` (binary multiples, case-insensitive) — `--mem-budget
/// 512m`.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.trim().parse().ok()?;
    n.checked_shl(shift)
}

/// Memory/storage knobs shared by every command that builds a harness:
/// the per-process trace budget (which drives the materialize-vs-
/// stream decision) and whether generated traces are persisted in the
/// store's segmented trace cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemArgs {
    /// `--mem-budget`; `None` keeps the harness default.
    pub budget_bytes: Option<u64>,
    /// `--trace-store`.
    pub trace_store: bool,
}

fn harness(jobs: usize, store_dir: Option<PathBuf>, mem: MemArgs) -> Harness {
    Harness::new(HarnessConfig {
        jobs,
        store_dir,
        progress: false,
        mem_budget_bytes: mem
            .budget_bytes
            .unwrap_or(HarnessConfig::default().mem_budget_bytes),
        trace_store: mem.trace_store,
    })
}

/// `repro serve`: bind, print the endpoints, and run until SIGTERM,
/// SIGINT or a client's `shutdown` command. Queued jobs drain before
/// exit.
pub fn cmd_serve(
    addr: Option<String>,
    unix: Option<PathBuf>,
    jobs: usize,
    depth: usize,
    store_dir: Option<PathBuf>,
    mem: MemArgs,
) -> i32 {
    let cfg = ServerConfig {
        // An explicit --unix with no --addr serves the socket alone.
        tcp: match (&addr, &unix) {
            (Some(a), _) => Some(a.clone()),
            (None, Some(_)) => None,
            (None, None) => ServerConfig::default().tcp,
        },
        unix,
        queue: QueueConfig {
            depth,
            ..QueueConfig::default()
        },
    };
    let server = match Server::bind(std::sync::Arc::new(harness(jobs, store_dir, mem)), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not bind: {e}");
            return 3;
        }
    };
    if let Some(a) = server.tcp_addr() {
        eprintln!("# listening on tcp:{a}");
    }
    eprintln!("# serving; stop with SIGTERM or `repro shutdown`");
    match server.run() {
        Ok(()) => {
            eprintln!("# drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("error: server failed: {e}");
            3
        }
    }
}

fn connect(addr: &str) -> Result<Client, i32> {
    Client::connect(addr).map_err(|e| {
        eprintln!("error: could not connect to {addr}: {e}");
        3
    })
}

fn narrate(ev: &Value) {
    let kind = ev.get("kind").and_then(Value::as_str).unwrap_or("");
    let label = ev.get("label").and_then(Value::as_str).unwrap_or("?");
    match kind {
        "job_started" => eprintln!("# started  {label}"),
        "job_finished" => {
            let ms = ev.get("wall_ms").and_then(Value::as_u64).unwrap_or(0);
            eprintln!("# finished {label} ({ms} ms)");
        }
        "job_retried" => eprintln!("# retried  {label}"),
        "job_failed" => eprintln!("# FAILED   {label}"),
        "cache_quarantined" => {
            let path = ev.get("path").and_then(Value::as_str).unwrap_or("?");
            eprintln!("# quarantined cache entry {path}");
        }
        _ => {}
    }
}

/// `repro submit`: send the sweep, stream progress to stderr, write the
/// assembled `results.json` (byte-identical to a local `repro sweep` of
/// the same grid) to `out`. Backpressure refusals are retried up to
/// `retries` times, honouring the daemon's back-off hint.
pub fn cmd_submit(addr: &str, spec: &SweepSpec, out: &Path, retries: u32) -> i32 {
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let mut attempt = 0;
    loop {
        let outcome = match client.submit(spec, |msg| {
            if let Some(ev) = msg.event() {
                if ev.get("event").and_then(Value::as_str) == Some("telemetry") {
                    narrate(ev);
                }
            }
        }) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: submit failed: {e}");
                return 3;
            }
        };
        match outcome {
            SweepOutcome::Done { results, failed } => {
                if let Err(e) = write_doc(out, &results) {
                    eprintln!("error: could not write {}: {e}", out.display());
                    return 3;
                }
                eprintln!("# results: {}", out.display());
                if failed > 0 {
                    eprintln!("error: {failed} cell(s) failed");
                    return 1;
                }
                return 0;
            }
            SweepOutcome::Rejected {
                reason,
                retry_after_ms,
            } => {
                if attempt >= retries {
                    eprintln!("error: sweep refused after {attempt} retr(ies): {reason}");
                    return 3;
                }
                attempt += 1;
                eprintln!("# refused ({reason}); retry {attempt}/{retries} in {retry_after_ms} ms");
                std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
            }
        }
    }
}

/// Renders a byte count with a binary-unit suffix.
fn human_bytes(n: u64) -> String {
    match n {
        0..=1023 => format!("{n} B"),
        _ if n < (1 << 20) => format!("{:.1} KiB", n as f64 / f64::from(1 << 10)),
        _ if n < (1 << 30) => format!("{:.1} MiB", n as f64 / f64::from(1 << 20)),
        _ => format!("{:.2} GiB", n as f64 / f64::from(1 << 30)),
    }
}

/// Renders the on-disk footprint lines shared by local and daemon
/// status: one line per store class plus a total.
fn print_footprint(fp: &ebcp_harness::StoreFootprint) {
    let class = |name: &str, c: &ebcp_harness::StoreClassFootprint| {
        let mut line = format!(
            "store {name:8} {} file(s), {}",
            c.files,
            human_bytes(c.bytes)
        );
        if c.segments > 0 {
            line.push_str(&format!(", {} segment(s)", c.segments));
        }
        if c.corrupt > 0 {
            line.push_str(&format!(
                ", {} quarantined ({})",
                c.corrupt,
                human_bytes(c.quarantined_bytes)
            ));
        }
        println!("{line}");
    };
    class("results", &fp.results);
    class("preres", &fp.preres);
    class("traces", &fp.traces);
    let mut total = format!("store total    {}", human_bytes(fp.total_bytes()));
    if fp.quarantined_bytes() > 0 {
        total.push_str(&format!(
            " (+{} quarantined)",
            human_bytes(fp.quarantined_bytes())
        ));
    }
    println!("{total}");
}

/// `repro status --addr ADDR`: queue snapshot (and the daemon store's
/// footprint, when it has one) on stdout.
pub fn cmd_status(addr: &str) -> i32 {
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.status() {
        Ok(st) => {
            println!(
                "queued {} / depth {}, running {}, clients {}, completed {}, warm streams {}",
                st.queued, st.depth, st.running, st.clients, st.completed, st.warm_streams
            );
            if let Some(fp) = &st.store {
                print_footprint(fp);
            }
            0
        }
        Err(e) => {
            eprintln!("error: status failed: {e}");
            3
        }
    }
}

/// `repro status` with no `--addr`: report the local store's on-disk
/// footprint — cached results, pre-resolved streams and segmented
/// traces with their segment counts.
pub fn cmd_status_local(store_dir: Option<&Path>) -> i32 {
    let Some(dir) = store_dir else {
        eprintln!("error: status needs --addr for a daemon or a store (drop --no-cache)");
        return 2;
    };
    if !dir.is_dir() {
        println!(
            "store {} does not exist yet (no cached entries)",
            dir.display()
        );
        return 0;
    }
    println!("store {}", dir.display());
    print_footprint(&ebcp_harness::store_footprint(dir));
    0
}

/// `repro shutdown`: ask the daemon to drain and exit.
pub fn cmd_shutdown(addr: &str) -> i32 {
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match client.shutdown() {
        Ok(()) => {
            eprintln!("# daemon shutting down");
            0
        }
        Err(e) => {
            eprintln!("error: shutdown failed: {e}");
            3
        }
    }
}

/// `repro sweep`: the same grid run in-process — the local half of the
/// byte-identity contract `repro submit` is tested against. A `cores`
/// axis adds multi-core CMP cells through [`Harness::run_cmp_outcomes`]
/// (the discrete-event engine), assembled through the same
/// `results_doc_cmp` renderer the service client uses.
pub fn cmd_sweep_local(
    spec: &SweepSpec,
    jobs: usize,
    store_dir: Option<PathBuf>,
    mem: MemArgs,
    out: &Path,
) -> i32 {
    let (jobs_vec, cmp_vec) = match spec.jobs().and_then(|j| Ok((j, spec.cmp_jobs()?))) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let h = harness(jobs, store_dir, mem);
    let outcomes = h.run_outcomes(&jobs_vec);
    let mut seen = std::collections::HashSet::new();
    let unique_cmp: Vec<ebcp_harness::CmpJob> = cmp_vec
        .iter()
        .filter(|j| seen.insert(j.id()))
        .cloned()
        .collect();
    let cmp_outcomes = h.run_cmp_outcomes(&unique_cmp);
    let cmp_rows: Vec<ebcp_harness::CmpResultRow> = unique_cmp
        .iter()
        .zip(&cmp_outcomes)
        .map(|(job, outcome)| ebcp_harness::CmpResultRow {
            id: job.id(),
            cell: job.spec.name.clone(),
            prefetcher: job.pf.name().to_string(),
            cores: job.cores() as u64,
            outcome: outcome.clone(),
        })
        .collect();
    let failed = outcomes.iter().filter(|o| o.is_failed()).count()
        + cmp_outcomes.iter().filter(|o| o.is_failed()).count();
    let doc =
        ebcp_harness::results_doc_cmp(jobs_vec.len() + cmp_vec.len(), &h.result_rows(), &cmp_rows);
    if let Err(e) = write_doc(out, &doc) {
        eprintln!("error: could not write {}: {e}", out.display());
        return 3;
    }
    eprintln!("# results: {}", out.display());
    eprintln!("# {}", h.summary().render());
    if failed > 0 {
        eprintln!("error: {failed} cell(s) failed");
        return 1;
    }
    0
}

/// `repro bench-serve`: measures warm-cache submit latency against an
/// in-process daemon and writes `<out-dir>/BENCH_serve.json`.
///
/// The sweep is the grid users submit: every workload × the full
/// sweep roster, plus a 2-core CMP axis (150 cells at quick scale).
/// It is submitted once cold (populating the memo), then
/// `WARM_SUBMITS` more times; each warm submit performs zero
/// simulations, so its wall time is pure service overhead — queueing,
/// memo lookups, streaming and client-side reassembly.
pub fn bench_serve(out_dir: &Path, scale: Scale) -> i32 {
    const WARM_SUBMITS: usize = 30;
    let spec = SweepSpec {
        workloads: scale.workloads_all().into_iter().map(|w| w.name).collect(),
        prefetchers: crate::throughput::sweep_roster(scale)
            .iter()
            .map(ebcp_sim::PrefetcherSpec::name)
            .collect(),
        cores: vec![2],
        scale,
    };
    // One single-core cell plus one CMP cell per core count, for each
    // workload × prefetcher (the roster is deduplicated by name).
    let cells = spec.workloads.len() * spec.prefetchers.len() * (1 + spec.cores.len());
    let server = match Server::bind(
        std::sync::Arc::new(harness(0, None, MemArgs::default())),
        ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
            queue: QueueConfig::default(),
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not bind: {e}");
            return 3;
        }
    };
    let addr = format!(
        "tcp:{}",
        server.tcp_addr().expect("server bound a tcp listener")
    );
    let runner = {
        let s = std::sync::Arc::clone(&server);
        std::thread::spawn(move || s.run())
    };

    let mut client = match connect(&addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let submit_once = |client: &mut Client| -> Result<Duration, i32> {
        let t = Instant::now();
        match client.submit(&spec, |_| {}) {
            Ok(SweepOutcome::Done { failed: 0, .. }) => Ok(t.elapsed()),
            Ok(other) => {
                eprintln!("error: bench sweep did not complete cleanly: {other:?}");
                Err(1)
            }
            Err(e) => {
                eprintln!("error: bench submit failed: {e}");
                Err(3)
            }
        }
    };

    let cold = match submit_once(&mut client) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let executed = server.service().harness().summary().executed;
    let mut warm_ms: Vec<f64> = Vec::with_capacity(WARM_SUBMITS);
    for _ in 0..WARM_SUBMITS {
        match submit_once(&mut client) {
            Ok(d) => warm_ms.push(d.as_secs_f64() * 1e3),
            Err(code) => return code,
        }
    }
    if server.service().harness().summary().executed != executed {
        eprintln!("error: warm submits re-simulated cells; the memo is broken");
        return 1;
    }
    let _ = client.shutdown();
    let _ = runner.join();

    warm_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| warm_ms[((warm_ms.len() - 1) as f64 * p).round() as usize];
    let (p50, p99) = (pct(0.50), pct(0.99));
    let p50_per_cell_us = p50 * 1e3 / cells as f64;
    println!(
        "bench-serve: {cells} cells; cold {:.1} ms, warm submit p50 {p50:.2} ms \
         ({p50_per_cell_us:.1} us/cell) / p99 {p99:.2} ms over {WARM_SUBMITS} submits",
        cold.as_secs_f64() * 1e3,
    );
    let doc = Value::Obj(vec![
        (
            "scale".into(),
            Value::Obj(vec![
                ("den".into(), Value::Int(scale.den)),
                ("warm_tenths".into(), Value::Int(scale.warm_tenths)),
                ("measure_tenths".into(), Value::Int(scale.measure_tenths)),
                ("seed".into(), Value::Int(scale.seed)),
            ]),
        ),
        ("cells".into(), Value::Int(cells as u64)),
        ("warm_submits".into(), Value::Int(WARM_SUBMITS as u64)),
        ("cold_ms".into(), Value::Num(cold.as_secs_f64() * 1e3)),
        ("warm_p50_ms".into(), Value::Num(p50)),
        ("warm_p50_us_per_cell".into(), Value::Num(p50_per_cell_us)),
        ("warm_p99_ms".into(), Value::Num(p99)),
    ]);
    let path = out_dir.join("BENCH_serve.json");
    match write_doc(&path, &doc) {
        Ok(()) => {
            eprintln!("# wrote {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetcher_lists_keep_solihin_commas_and_other_lists_split_as_before() {
        assert_eq!(
            parse_prefetchers("none,solihin-3,2, solihin-6,1,stream,solihin-3,2+nof"),
            [
                "none",
                "solihin-3,2",
                "solihin-6,1",
                "stream",
                "solihin-3,2+nof"
            ]
        );
        assert_eq!(parse_prefetchers("ebcp,,stream"), ["ebcp", "stream"]);
        assert_eq!(
            parse_list("database,tpcw, graph"),
            ["database", "tpcw", "graph"]
        );
        assert_eq!(parse_list("1,2"), ["1", "2"]);
    }
}
