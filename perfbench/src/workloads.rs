//! The three workloads: what a reproducer, a prefetcher designer and a
//! daemon client each wait for. Untraced runs give the end-to-end
//! metrics; traced runs rerun the workload with spans around the layer
//! calls and then run the per-layer ledger.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ebcp_bench::{experiments, report as tables, throughput};
use ebcp_harness::{
    preres, results_doc, results_doc_cmp, CmpJob, CmpResultRow, Event, Harness, HarnessConfig, Job,
    QueueConfig, ResultStore, Scale, Value,
};
use ebcp_serve::{Client, Server, ServerConfig, SweepOutcome, SweepSpec};
use ebcp_sim::{run_preresolved_blocks_many, PrefetcherSpec, SimResult};

use crate::spans::{SpanId, Tracer};
use crate::stats::{digest, median, peak_rss_mib, process_cpu, quantile};
use crate::{ledger, Args, Report};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["figures-cold", "long-trace-cached", "serve-warm"];

/// Worker threads of every harness and daemon: the benchmark host's
/// `nproc`.
pub const WORKERS: usize = 2;

/// Cold requests each workload times at least, however long they take.
const MIN_ROUNDS: usize = 3;

/// Warm requests each workload times at least, so the p90 has ten
/// samples above it. (A warm serve-warm submit takes ~0.1 s, so a
/// p99 with ten samples above it would not fit the run.)
const MIN_WARM: usize = 100;

/// Empty-store set-ups timed per cold round of figures-cold.
const FIGURE_SETUPS: usize = 20;

/// Results digests recorded on the default seed (11) and the held-out
/// seed (12): `(workload, seed, digest)`.
const RECORDED: [(&str, u64, &str); 6] = [
    ("figures-cold", 11, "74449a56934ed068"),
    ("figures-cold", 12, "1eab8857caaaef91"),
    ("long-trace-cached", 11, "153fbff26df7940a"),
    ("long-trace-cached", 12, "ca05cccc4c60bd77"),
    ("serve-warm", 11, "eb229d759e33773b"),
    ("serve-warm", 12, "9363fd61051a8c3a"),
];

/// Wall and CPU seconds of `f`.
fn measure<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let c0 = process_cpu();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    (r, wall, (process_cpu() - c0).as_secs_f64())
}

/// Whether another cold round fits the measurement window, judged by
/// the mean round so far.
fn another_round(t0: Instant, seconds: f64, rounds: usize) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    rounds < MIN_ROUNDS || elapsed + elapsed / rounds as f64 <= seconds
}

/// The samples behind the end-to-end metrics.
#[derive(Debug, Default)]
struct Samples {
    setup: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    warm_ms: Vec<f64>,
    /// Peak resident set to report, when the workload reads it before
    /// its end; otherwise it is read at report time.
    rss_mib: Option<f64>,
}

impl Samples {
    fn report(&self, r: &mut Report) {
        eprintln!(
            "# samples: {} set-up(s), {} cold request(s), {} warm request(s)",
            self.setup.len(),
            self.wall.len(),
            self.warm_ms.len()
        );
        r.metric("setup_s", median(&self.setup), "s");
        r.metric("wall_s", median(&self.wall), "s");
        r.metric("cpu_s", median(&self.cpu), "s");
        r.metric("warm_p50_ms", median(&self.warm_ms), "ms");
        r.metric(
            "peak_rss_mib",
            self.rss_mib.unwrap_or_else(peak_rss_mib),
            "MiB",
        );
        // Informational only: on a shared host the tail moves too much
        // from run to run to carry a regression bound.
        eprintln!("# warm p90: {:.3} ms", quantile(&self.warm_ms, 0.9));
    }
}

/// Compares `out` with the first output of its kind (recording it when
/// it is the first).
fn check_same(r: &mut Report, reference: &mut Option<String>, out: String, what: &str) {
    match reference {
        Some(first) => r.check(*first == out, what),
        None => *reference = Some(out),
    }
}

/// Checks the results document against the digest recorded for this
/// seed, when one is recorded.
fn check_digest(r: &mut Report, workload: &str, seed: u64, doc: &str) {
    let got = digest(doc.as_bytes());
    eprintln!("# {workload} seed {seed}: results digest {got}");
    if let Some((_, _, want)) = RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
    {
        r.check(
            got == *want,
            &format!("{workload} seed {seed}: digest {got}, recorded {want}"),
        );
    }
}

/// The end-to-end metrics of `args.workload`.
pub fn untraced(args: &Args) -> Report {
    let mut r = Report::default();
    let s = match args.workload.as_str() {
        "figures-cold" => figures_cold(args, &mut r),
        "long-trace-cached" => long_trace_cached(args, &mut r),
        _ => serve_warm(args, &mut r),
    };
    s.report(&mut r);
    r
}

/// The per-layer metrics: `args.workload` once untraced and once with
/// spans (coverage and tracing overhead), then the layer ledger.
pub fn traced(args: &Args) -> Report {
    let mut r = Report::default();
    let tracer = Tracer::new();
    let (root, untraced_s) = match args.workload.as_str() {
        "figures-cold" => figures_traced(args, &tracer, &mut r),
        "long-trace-cached" => long_traced(args, &tracer, &mut r),
        _ => serve_traced(args, &tracer, &mut r),
    };
    let traced_s = tracer.duration(root) as f64 / 1e9;
    for (name, ns) in tracer.self_times(root) {
        eprintln!("# self time {name:<34} {:>12.3} ms", ns as f64 / 1e6);
    }
    // Layer spans carry a dotted name; experiment and unit spans do not.
    let coverage = tracer.coverage(root, |name| name.contains('.'));
    let overhead = (traced_s / untraced_s - 1.0) * 100.0;

    let ledger_root = tracer.open("ledger", None);
    ledger::run(args, &tracer, ledger_root, &mut r);
    tracer.close(ledger_root);
    r.metric("trace.coverage", coverage, "ratio");
    r.metric("trace.overhead_pct", overhead, "%");

    let path =
        PathBuf::from(".bench_out").join(format!("{}-seed{}.spans.json", args.workload, args.seed));
    match tracer.save(&path) {
        Ok(()) => eprintln!("# spans: {}", path.display()),
        Err(e) => eprintln!("warning: could not save spans to {}: {e}", path.display()),
    }
    r
}

// ---------------------------------------------------------------------------
// figures-cold: `repro all` at quick scale against an empty store, then
// the same figure set again from a fresh harness over the full store.

/// `repro all`'s experiments, in its order.
const FIGURES: [&str; 10] = [
    "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablation", "cmp", "cmp-bw",
];

fn quick(seed: u64) -> Scale {
    Scale {
        seed,
        ..Scale::quick()
    }
}

fn store_harness(store: &Path) -> Harness {
    Harness::new(HarnessConfig {
        jobs: WORKERS,
        store_dir: Some(store.to_path_buf()),
        ..HarnessConfig::default()
    })
}

/// Runs one experiment of `repro all` and renders its table.
fn figure(h: &Harness, scale: Scale, name: &str) -> String {
    let cores = [1, 2, 4];
    match name {
        "table1" => tables::render_table1(&experiments::table1(h, scale)),
        "fig4" => {
            tables::render_sweep_improvement("fig4", "degree", &experiments::fig4_5(h, scale))
        }
        "fig5" => tables::render_sweep_details("fig5", "degree", &experiments::fig4_5(h, scale)),
        "fig6" => tables::render_sweep_improvement("fig6", "entries", &experiments::fig6(h, scale)),
        "fig7" => tables::render_sweep_improvement("fig7", "buffer", &experiments::fig7(h, scale)),
        "fig8" => tables::render_fig8(&experiments::fig8(h, scale)),
        "fig9" => tables::render_fig9(&experiments::fig9(h, scale)),
        "ablation" => tables::render_ablation(&experiments::ablation(h, scale)),
        "cmp" => tables::render_cmp(&experiments::cmp_interleaving(h, scale, &cores)),
        "cmp-bw" => tables::render_cmp_bw(&experiments::cmp_bandwidth(h, scale, &cores)),
        other => unreachable!("{other} is not a figure"),
    }
}

/// The whole figure set's deterministic output: every table, then the
/// `results.json` document. With a tracer, each experiment runs inside
/// a span under `root`.
fn figure_set(h: &Harness, scale: Scale, trace: Option<(&Tracer, SpanId)>) -> String {
    let mut out = String::new();
    for name in FIGURES {
        out += &match trace {
            Some((t, root)) => t.time(name, Some(root), || figure(h, scale, name)).0,
            None => figure(h, scale, name),
        };
    }
    let doc = results_doc(h.summary().submitted, &h.result_rows());
    out + "\n" + &doc.to_json_pretty()
}

fn figures_cold(args: &Args, r: &mut Report) -> Samples {
    let scale = quick(args.seed);
    let store = args.work.join("store");
    let mut s = Samples::default();
    let mut reference = None;
    let t0 = Instant::now();
    let mut rounds = 0;
    while another_round(t0, args.seconds, rounds) {
        let _ = std::fs::remove_dir_all(&store);
        // Set-up: an empty store and a harness over it.
        for _ in 0..FIGURE_SETUPS {
            let (h, wall, _) = measure(|| store_harness(&store));
            s.setup.push(wall);
            drop(h);
            let _ = std::fs::remove_dir_all(&store);
        }
        let h = store_harness(&store);
        let (out, wall, cpu) = measure(|| figure_set(&h, scale, None));
        s.wall.push(wall);
        s.cpu.push(cpu);
        r.check(h.failures().is_empty(), "the cold figure set failed a job");
        drop(h);
        // Warm re-runs over this round's store, spread over the rounds
        // so the median does not hang on one store's layout: zero
        // simulations and byte-identical output, or the request fails.
        for _ in 0..MIN_WARM.div_ceil(MIN_ROUNDS) {
            let ((executed, warm), wall, _) = measure(|| {
                let h = store_harness(&store);
                let warm = figure_set(&h, scale, None);
                (h.summary().executed, warm)
            });
            s.warm_ms.push(wall * 1e3);
            r.check(
                executed == 0 && warm == out,
                "a warm figure set simulated or differed from the cold one",
            );
        }
        check_same(
            r,
            &mut reference,
            out,
            "cold figure sets differ between rounds",
        );
        rounds += 1;
    }
    check_digest(r, "figures-cold", args.seed, &reference.unwrap_or_default());
    s
}

/// Runs `f` while recording each job on `h`'s event bus as a
/// `harness.job` span, from its `JobStarted` to its `JobFinished`,
/// parented to the experiment span (child of `root`) it started in.
fn with_job_spans<R>(h: &Harness, tracer: &Tracer, root: SpanId, f: impl FnOnce() -> R) -> R {
    let rx = h.bus().subscribe();
    let stop = AtomicBool::new(false);
    let stopped = &stop;
    let (out, jobs) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut open = std::collections::HashMap::new();
            let mut done = Vec::new();
            loop {
                match rx.recv_timeout(Duration::from_millis(20)) {
                    Ok(Event::JobStarted { label }) => {
                        open.insert(label, tracer.now());
                    }
                    Ok(Event::JobFinished { label, .. } | Event::JobFailed { label, .. }) => {
                        if let Some(start) = open.remove(&label) {
                            done.push((start, tracer.now()));
                        }
                    }
                    Ok(_) => {}
                    Err(_) if stopped.load(Ordering::SeqCst) => break done,
                    Err(_) => {}
                }
            }
        });
        let out = f();
        stop.store(true, Ordering::SeqCst);
        (out, collector.join().expect("bus collector thread"))
    });
    let experiments = tracer.children(root);
    for (start, end) in jobs {
        let parent = experiments
            .iter()
            .find(|&&(_, a, b)| a <= start && start <= b)
            .map_or(root, |&(id, _, _)| id);
        tracer.record("harness.job", Some(parent), start, end);
    }
    out
}

fn figures_traced(args: &Args, tracer: &Tracer, r: &mut Report) -> (SpanId, f64) {
    let scale = quick(args.seed);
    let plain = args.work.join("plain");
    let (reference, untraced_s, _) = measure(|| figure_set(&store_harness(&plain), scale, None));
    let _ = std::fs::remove_dir_all(&plain);
    let h = store_harness(&args.work.join("traced"));
    let root = tracer.open("figures-cold", None);
    let out = with_job_spans(&h, tracer, root, || {
        figure_set(&h, scale, Some((tracer, root)))
    });
    tracer.close(root);
    r.check(
        out == reference,
        "the traced figure set differs from the untraced one",
    );
    (root, untraced_s)
}

// ---------------------------------------------------------------------------
// long-trace-cached: the whole roster swept over long traces whose
// pre-resolved block streams are already on disk, under a memory budget
// that forces the bounded-memory block path.

/// The swept workloads; one lockstep unit each, so both workers run.
const LONG_WORKLOADS: [&str; 2] = ["database", "graph"];

/// Trace length as a multiple of the quick scale's.
const LONG_FACTOR: u64 = 3;

/// Process trace-memory budget: smaller than any one stream, so every
/// job streams its blocks from disk.
const LONG_BUDGET: u64 = 16 << 20;

/// Stream-store builds timed per run.
const LONG_SETUPS: usize = 3;

/// Warm re-sweeps timed after each cold sweep. Spread over the whole
/// window this way, their median does not hang on what the shared host
/// was doing during one fraction of a second of it.
const LONG_WARM_PER_ROUND: usize = 40;

/// The 15-name prefetcher roster every sweep runs.
fn roster_names() -> Vec<String> {
    throughput::sweep_roster(Scale::quick())
        .iter()
        .map(PrefetcherSpec::name)
        .collect()
}

fn long_sweep(seed: u64) -> SweepSpec {
    let q = Scale::quick();
    SweepSpec {
        workloads: LONG_WORKLOADS.iter().map(|w| (*w).to_owned()).collect(),
        prefetchers: roster_names(),
        cores: Vec::new(),
        scale: Scale {
            warm_tenths: q.warm_tenths * LONG_FACTOR,
            measure_tenths: q.measure_tenths * LONG_FACTOR,
            seed,
            ..q
        },
    }
}

fn long_harness(store: &Path) -> Harness {
    Harness::new(HarnessConfig {
        jobs: WORKERS,
        mem_budget_bytes: LONG_BUDGET,
        store_dir: Some(store.to_path_buf()),
        trace_store: true,
        ..HarnessConfig::default()
    })
}

/// Deletes the sweep's cached results, keeping traces and streams.
fn clear_results(store: &Path, jobs: &[Job]) {
    if let Ok(rs) = ResultStore::open(store) {
        for job in jobs {
            let _ = std::fs::remove_file(rs.entry_path(job));
        }
    }
}

/// Builds the stream store from nothing: one `none` job per workload
/// makes the harness generate its trace into the trace store and
/// pre-resolve it into a block stream. Their results are then dropped.
fn build_streams(store: &Path, jobs: &[Job]) -> bool {
    let _ = std::fs::remove_dir_all(store);
    let seeds: Vec<Job> = jobs
        .iter()
        .filter(|j| j.pf == PrefetcherSpec::None)
        .cloned()
        .collect();
    let ok = long_harness(store)
        .run_outcomes(&seeds)
        .iter()
        .all(|o| !o.is_failed());
    clear_results(store, &seeds);
    ok
}

fn sweep_doc(h: &Harness, jobs: &[Job]) -> String {
    results_doc(jobs.len(), &h.result_rows()).to_json_pretty()
}

fn long_trace_cached(args: &Args, r: &mut Report) -> Samples {
    let jobs = long_sweep(args.seed)
        .jobs()
        .expect("the roster names resolve");
    let store = args.work.join("store");
    let mut s = Samples::default();
    for _ in 0..LONG_SETUPS {
        let (ok, wall, _) = measure(|| build_streams(&store, &jobs));
        s.setup.push(wall);
        r.check(ok, "building the stream store failed");
    }
    let mut reference = None;
    let t0 = Instant::now();
    let mut rounds = 0;
    while another_round(t0, args.seconds, rounds) {
        clear_results(&store, &jobs);
        let h = long_harness(&store);
        let (outcomes, wall, cpu) = measure(|| h.run_outcomes(&jobs));
        s.wall.push(wall);
        s.cpu.push(cpu);
        r.check(
            outcomes.iter().all(|o| !o.is_failed()) && h.summary().executed == jobs.len(),
            "the sweep failed a cell or found a cached result",
        );
        check_same(
            r,
            &mut reference,
            sweep_doc(&h, &jobs),
            "sweeps differ between rounds",
        );
        drop(h);
        // Warm re-sweeps: every result now comes from the result store.
        let first = reference.as_deref().unwrap_or_default();
        for _ in 0..LONG_WARM_PER_ROUND {
            let ((executed, doc), wall, _) = measure(|| {
                let h = long_harness(&store);
                h.run_outcomes(&jobs);
                (h.summary().executed, sweep_doc(&h, &jobs))
            });
            s.warm_ms.push(wall * 1e3);
            r.check(
                executed == 0 && doc == first,
                "a warm re-sweep simulated or differed from the cold one",
            );
        }
        rounds += 1;
    }
    check_digest(
        r,
        "long-trace-cached",
        args.seed,
        &reference.unwrap_or_default(),
    );
    s
}

/// The harness's streamed path for one lockstep unit, done by hand with
/// a span around each layer call: verify-open the block stream, replay
/// it block by block (each block read its own span), save every lane.
fn replay_unit(
    unit: &[Job],
    store: &Path,
    results: &ResultStore,
    tracer: &Tracer,
    root: SpanId,
) -> Vec<Option<SimResult>> {
    let lead = &unit[0];
    let span = tracer.open(&format!("unit-{}", lead.spec.workload.name), Some(root));
    let (read, _) = tracer.time("preres.open_verify", Some(span), || {
        preres::open_stream_checked(store, lead)
    });
    let Some(mut stream) = read.into_hit() else {
        tracer.close(span);
        return vec![None; unit.len()];
    };
    let pfs: Vec<PrefetcherSpec> = unit.iter().map(|j| j.pf.clone()).collect();
    let replay = tracer.open("replay.blocks", Some(span));
    let blocks = (0..stream.n_segments()).map(|k| {
        tracer
            .time("preres.block_read", Some(replay), || stream.block(k))
            .0
            .expect("a verified stream reads back")
    });
    let lanes: Vec<Option<SimResult>> = run_preresolved_blocks_many(&lead.spec, blocks, &pfs)
        .into_iter()
        .map(Result::ok)
        .collect();
    tracer.close(replay);
    for (job, lane) in unit.iter().zip(&lanes) {
        if let Some(res) = lane {
            let _ = tracer.time("store.save", Some(span), || results.save(job, res));
        }
    }
    tracer.close(span);
    lanes
}

fn long_traced(args: &Args, tracer: &Tracer, r: &mut Report) -> (SpanId, f64) {
    let jobs = long_sweep(args.seed)
        .jobs()
        .expect("the roster names resolve");
    let store = args.work.join("store");
    r.check(
        build_streams(&store, &jobs),
        "building the stream store failed",
    );
    let h = long_harness(&store);
    let (outcomes, untraced_s, _) = measure(|| h.run_outcomes(&jobs));
    let want: Vec<Option<SimResult>> = outcomes.iter().map(|o| o.result().cloned()).collect();
    clear_results(&store, &jobs);

    let results = ResultStore::open(&store).expect("the store directory exists");
    let (store, results) = (store.as_path(), &results);
    let lanes = roster_names().len();
    let root = tracer.open("long-trace-cached", None);
    let got: Vec<Option<SimResult>> = std::thread::scope(|scope| {
        let units: Vec<_> = jobs
            .chunks(lanes)
            .map(|unit| scope.spawn(move || replay_unit(unit, store, results, tracer, root)))
            .collect();
        units
            .into_iter()
            .flat_map(|u| u.join().expect("unit replay thread"))
            .collect()
    });
    tracer.close(root);
    r.check(
        got == want && want.iter().all(Option::is_some),
        "the traced block replay differs from the harness sweep",
    );
    (root, untraced_s)
}

// ---------------------------------------------------------------------------
// serve-warm: an in-process daemon whose memo holds the 5 workloads x
// 15 prefetchers grid plus its 2-core CMP cells; one client submits the
// grid again and again.

/// Daemon set-ups (start plus cold submit on an empty store) timed per
/// run.
const SERVE_SETUPS: usize = 3;

/// Daemon restarts timed per run at least (first submit over the
/// on-disk store).
const SERVE_RESTARTS: usize = 15;

/// Warm submits timed between two daemon restarts.
const SERVE_WARM_PER_RESTART: usize = 8;

/// Untraced and traced submits compared in the traced run.
const SERVE_TRACED_SUBMITS: usize = 200;

fn serve_sweep(seed: u64) -> SweepSpec {
    SweepSpec {
        workloads: Scale::quick()
            .workloads_all()
            .into_iter()
            .map(|w| w.name)
            .collect(),
        prefetchers: roster_names(),
        cores: vec![2],
        scale: quick(seed),
    }
}

/// A daemon on a loopback port, running on its own thread, with one
/// connected client.
struct Daemon {
    server: Arc<Server>,
    runner: JoinHandle<std::io::Result<()>>,
    client: Client,
}

impl Daemon {
    /// Starts a daemon over `store` and connects its client.
    fn start(store: &Path) -> Daemon {
        let server = Server::bind(
            Arc::new(store_harness(store)),
            ServerConfig {
                tcp: Some("127.0.0.1:0".into()),
                unix: None,
                queue: QueueConfig::default(),
            },
        )
        .expect("the daemon binds a loopback port");
        let addr = server.tcp_addr().expect("the daemon has a tcp address");
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let mut client = Client::connect(&format!("tcp:{addr}")).expect("the client connects");
        // The accept loop polls; one status round trip makes sure the
        // connection is being served before anything is timed on it.
        client
            .status()
            .expect("the daemon answers a status request");
        Daemon {
            server,
            runner,
            client,
        }
    }

    /// Simulations the daemon has executed so far.
    fn executed(&self) -> usize {
        self.server.service().harness().summary().executed
    }

    /// Submits `spec`; the reassembled results document when every
    /// cell succeeded.
    fn submit(&mut self, spec: &SweepSpec) -> Option<Value> {
        match self.client.submit(spec, |_| {}) {
            Ok(SweepOutcome::Done { results, failed: 0 }) => Some(results),
            Ok(other) => {
                eprintln!("# submit did not complete cleanly: {other:?}");
                None
            }
            Err(e) => {
                eprintln!("# submit failed: {e}");
                None
            }
        }
    }

    /// Hangs up, stops the daemon and waits for it to drain.
    fn stop(self) {
        drop(self.client);
        self.server.stop();
        let _ = self.runner.join();
    }
}

/// Starts a daemon and warms its memo with one cold submit; returns it
/// with the document `repro sweep` would write for `spec`, assembled by
/// a local harness over the daemon's store, and the set-up time. A cold
/// submit that differs from that document counts as failed.
fn warm_daemon(spec: &SweepSpec, store: &Path, r: &mut Report) -> (Daemon, String, f64) {
    let ((d, cold), setup, _) = measure(|| {
        let mut d = Daemon::start(store);
        let cold = d.submit(spec);
        (d, cold)
    });
    let jobs = spec.jobs().expect("the roster names resolve");
    let cmp = spec.cmp_jobs().expect("the roster names resolve");
    let h = store_harness(store);
    h.run_outcomes(&jobs);
    let mut seen = HashSet::new();
    let unique: Vec<CmpJob> = cmp
        .iter()
        .filter(|j| seen.insert(j.id()))
        .cloned()
        .collect();
    let rows: Vec<CmpResultRow> = unique
        .iter()
        .zip(h.run_cmp_outcomes(&unique))
        .map(|(job, outcome)| CmpResultRow {
            id: job.id(),
            cell: job.spec.name.clone(),
            prefetcher: job.pf.name().to_string(),
            cores: job.cores() as u64,
            outcome,
        })
        .collect();
    let reference =
        results_doc_cmp(jobs.len() + cmp.len(), &h.result_rows(), &rows).to_json_pretty();
    r.check(
        h.summary().executed == 0 && cold.is_some_and(|doc| doc.to_json_pretty() == reference),
        "the cold submit failed or differs from the local document",
    );
    (d, reference, setup)
}

fn serve_warm(args: &Args, r: &mut Report) -> Samples {
    let spec = serve_sweep(args.seed);
    let store = args.work.join("store");
    let mut s = Samples::default();
    let (mut d, reference, setup) = warm_daemon(&spec, &store, r);
    s.setup.push(setup);
    let same = |doc: Option<Value>| doc.is_some_and(|doc| doc.to_json_pretty() == reference);

    // Closed loop: one client, the next submit as soon as one returns.
    // Every few warm submits, a fresh daemon over the same store answers
    // its first submit from disk (the warm daemon idles meanwhile), so
    // both kinds of request are sampled over the whole window.
    let executed = d.executed();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds
        || s.warm_ms.len() < MIN_WARM
        || s.wall.len() < SERVE_RESTARTS
    {
        for _ in 0..SERVE_WARM_PER_RESTART {
            let (doc, wall, _) = measure(|| d.submit(&spec));
            s.warm_ms.push(wall * 1e3);
            r.check(
                same(doc) && d.executed() == executed,
                "a warm submit simulated or differs from the local document",
            );
        }
        let mut fresh = Daemon::start(&store);
        let (doc, wall, cpu) = measure(|| fresh.submit(&spec));
        s.wall.push(wall);
        s.cpu.push(cpu);
        r.check(
            same(doc) && fresh.executed() == 0,
            "a restarted daemon simulated or differs from the local document",
        );
        fresh.stop();
    }
    d.stop();
    // The peak of one daemon's life, read before the set-ups below add
    // their allocator debris to it.
    s.rss_mib = Some(peak_rss_mib());

    // More set-ups, each on an empty store, so that setup_s is a median.
    for _ in 1..SERVE_SETUPS {
        let _ = std::fs::remove_dir_all(&store);
        let (d, doc, setup) = warm_daemon(&spec, &store, r);
        s.setup.push(setup);
        r.check(doc == reference, "cold submits differ between set-ups");
        d.stop();
    }
    check_digest(r, "serve-warm", args.seed, &reference);
    s
}

fn serve_traced(args: &Args, tracer: &Tracer, r: &mut Report) -> (SpanId, f64) {
    let spec = serve_sweep(args.seed);
    let (mut d, reference, _) = warm_daemon(&spec, &args.work.join("store"), r);
    let same = |doc: Option<Value>| doc.is_some_and(|doc| doc.to_json_pretty() == reference);
    let mut plain = Vec::new();
    for _ in 0..SERVE_TRACED_SUBMITS {
        let (doc, wall, _) = measure(|| d.submit(&spec));
        plain.push(wall);
        r.check(same(doc), "a warm submit differs from the local document");
    }
    let root = tracer.open("serve-warm", None);
    let mut traced = Vec::new();
    for _ in 0..SERVE_TRACED_SUBMITS {
        let (doc, ns) = tracer.time("serve.submit", Some(root), || d.submit(&spec));
        traced.push(ns as f64 / 1e9);
        r.check(same(doc), "a warm submit differs from the local document");
    }
    tracer.close(root);
    d.stop();
    // The untraced loop's equivalent duration: the traced loop scaled by
    // the ratio of per-submit medians.
    let untraced_s = tracer.duration(root) as f64 / 1e9 * median(&plain) / median(&traced);
    (root, untraced_s)
}
