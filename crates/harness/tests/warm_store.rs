//! Warm answers from a shared on-disk result store.
//!
//! A harness serves cells it has not run from the store: it classifies
//! the batch against its memo, reads the entries with no harness lock
//! held and folds the reads in submission order. These tests pin that
//! the fold makes the worker count invisible, that the collision guard
//! compares the whole stored canonical string, that two overlapping
//! batches on one harness quarantine a corrupt entry once, and that two
//! harnesses may share one store directory at once.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use ebcp_core::EbcpConfig;
use ebcp_harness::json::{self, Value};
use ebcp_harness::{
    CacheRead, CmpJob, Event, Harness, HarnessConfig, Job, ResultStore, RunSummary,
};
use ebcp_sim::{CmpSpec, PrefetcherSpec, RunSpec, SimConfig};
use ebcp_trace::WorkloadSpec;

/// Prefetchers per workload row: `none` and fourteen EBCP table sizes.
const ROW: usize = 15;

/// `none` and fourteen EBCP table sizes: one workload row.
fn prefetchers() -> Vec<PrefetcherSpec> {
    let pfs: Vec<PrefetcherSpec> = std::iter::once(PrefetcherSpec::None)
        .chain(
            (8..22).map(|k| PrefetcherSpec::Ebcp(EbcpConfig::tuned().with_table_entries(1 << k))),
        )
        .collect();
    assert_eq!(pfs.len(), ROW);
    pfs
}

/// The five commercial workloads at a sixteenth of their footprint.
fn workloads() -> Vec<WorkloadSpec> {
    [
        WorkloadSpec::database(),
        WorkloadSpec::tpcw(),
        WorkloadSpec::specjbb2005(),
        WorkloadSpec::specjappserver2004(),
        WorkloadSpec::graph_analytics(),
    ]
    .into_iter()
    .map(|w| w.scaled(1, 16))
    .collect()
}

/// Five workloads × [`ROW`] prefetchers, workload-major: 75 cells.
fn grid() -> Vec<Job> {
    let pfs = prefetchers();
    workloads()
        .into_iter()
        .flat_map(|workload| {
            let spec = RunSpec {
                workload,
                seed: 3,
                warmup_insts: 4_000,
                measure_insts: 4_000,
                sim: SimConfig::scaled_down(16),
            };
            pfs.iter()
                .map(move |pf| Job::new(spec.clone(), pf.clone()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// [`grid`]'s 75 cells as two-core CMP cells.
fn cmp_grid() -> Vec<CmpJob> {
    let pfs = prefetchers();
    workloads()
        .into_iter()
        .flat_map(|workload| {
            let spec = CmpSpec::homogeneous(workload, 2, 2_000, 2_000, SimConfig::scaled_down(16));
            pfs.iter()
                .map(move |pf| CmpJob::new(spec.clone(), pf.clone()))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ebcp-warm-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_harness(dir: &Path, jobs: usize) -> Harness {
    Harness::new(HarnessConfig {
        jobs,
        store_dir: Some(dir.to_path_buf()),
        ..HarnessConfig::default()
    })
}

/// An event without its wall-clock fields, which differ run to run.
fn shape(ev: &Event) -> String {
    match ev {
        Event::JobStarted { label } => format!("started {label}"),
        Event::JobFinished { label, .. } => format!("finished {label}"),
        Event::JobRetried { label, reason } => format!("retried {label}: {reason}"),
        Event::JobFailed { label, reason } => format!("failed {label}: {reason}"),
        Event::CacheQuarantined { path, reason } => format!("quarantined {path}: {reason}"),
    }
}

/// What one warm run over `dir` left behind: its summary (wall clock
/// zeroed), result rows, `results.json` bytes and bus events in order.
fn warm_run(
    dir: &Path,
    jobs: &[Job],
    workers: usize,
) -> (
    RunSummary,
    Vec<ebcp_harness::ResultRow>,
    Vec<u8>,
    Vec<String>,
) {
    let h = store_harness(dir, workers);
    assert_eq!(h.workers(), workers);
    let events = h.bus().subscribe();
    h.run_outcomes(jobs);
    let events: Vec<String> = events.try_iter().map(|ev| shape(&ev)).collect();
    let out = dir.join(format!("results-{workers}.json"));
    h.write_results_json(&out).unwrap();
    let bytes = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).unwrap();
    let mut summary = h.summary();
    summary.wall = Default::default();
    (summary, h.result_rows(), bytes, events)
}

/// Truncates `job`'s entry to half its length.
fn corrupt(store: &ResultStore, job: &Job) {
    let path = store.entry_path(job);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
}

/// A one-worker and a two-worker harness over the same warm store with
/// two corrupt entries at different grid positions: the fold reports
/// everything in submission order, so both runs agree on the summary,
/// the rows, the `results.json` bytes and the ordered bus events.
#[test]
fn one_and_two_workers_agree_over_a_warm_store_with_corrupt_entries() {
    let dir = temp_dir("workers");
    let jobs = grid();
    store_harness(&dir, 2).run(&jobs);
    let store = ResultStore::open(&dir).unwrap();
    // Both in the first row, so their re-runs form one lockstep unit
    // and even the execution events have one order.
    let bad = [1, ROW - 2];

    let mut runs = Vec::new();
    for workers in [1, 2] {
        for &i in &bad {
            corrupt(&store, &jobs[i]);
        }
        runs.push(warm_run(&dir, &jobs, workers));
    }
    let (summary, rows, bytes, events) = &runs[0];
    assert_eq!(summary.quarantined, 2, "{summary:?}");
    assert_eq!(summary.executed, 2, "{summary:?}");
    assert_eq!(summary.disk_hits, jobs.len() - 2, "{summary:?}");
    let quarantines: Vec<&String> = events
        .iter()
        .filter(|e| e.starts_with("quarantined"))
        .collect();
    assert_eq!(quarantines.len(), 2, "{events:?}");
    assert!(
        quarantines[0].contains(&jobs[bad[0]].id().to_string())
            && quarantines[1].contains(&jobs[bad[1]].id().to_string()),
        "quarantines are reported in submission order: {quarantines:?}"
    );
    assert_eq!(runs[1].0, *summary);
    assert_eq!(runs[1].1, *rows);
    assert_eq!(runs[1].2, *bytes);
    assert_eq!(runs[1].3, *events);
    for job in &jobs {
        assert!(matches!(store.load_checked(job), CacheRead::Hit(_)));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two batches over the same cells on one harness read the store at
/// once, the shape of two clients submitting one CMP grid to a restarted
/// daemon. Both may read a corrupt entry before either moves it away;
/// the reader whose rename finds the file gone takes it as a plain miss,
/// so the entry is quarantined, counted and reported once. Several
/// rounds, each over a fresh harness, give the two batches many chances
/// to overlap on the entry.
#[test]
fn overlapping_batches_on_one_harness_quarantine_a_corrupt_entry_once() {
    let dir = temp_dir("overlap");
    let jobs = cmp_grid();
    let reference = store_harness(&dir, 2).run_cmp(&jobs);
    let store = ResultStore::open(&dir).unwrap();
    let bad = &jobs[2];
    let path = store.cmp_entry_path(bad);
    for round in 0..12 {
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let h = store_harness(&dir, 2);
        let events = h.bus().subscribe();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    let outcomes = h.run_cmp_outcomes(&jobs);
                    for (outcome, want) in outcomes.iter().zip(&reference) {
                        assert_eq!(outcome.result(), Some(want));
                    }
                });
            }
        });
        let summary = h.summary();
        assert_eq!(summary.quarantined, 1, "round {round}: {summary:?}");
        let quarantines: Vec<String> = events
            .try_iter()
            .map(|ev| shape(&ev))
            .filter(|e| e.starts_with("quarantined"))
            .collect();
        assert_eq!(quarantines.len(), 1, "round {round}: {quarantines:?}");
        assert!(quarantines[0].contains(".corrupt"), "{quarantines:?}");
        assert_eq!(
            store.load_checked_cmp(bad),
            CacheRead::Hit(reference[2].clone())
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaces the stored `job` text of `job`'s entry with `text`, leaving
/// the checksum and result valid.
fn rewrite_job_text(store: &ResultStore, job: &Job, text: String) {
    let path = store.entry_path(job);
    let Value::Obj(mut fields) = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
    else {
        panic!("a store entry is an object");
    };
    for (key, value) in &mut fields {
        if key == "job" {
            *value = Value::Str(text.clone());
        }
    }
    std::fs::write(&path, Value::Obj(fields).to_json_pretty()).unwrap();
}

/// The collision guard compares the whole stored canonical string: an
/// entry whose `job` text differs from its cell's only after the spec
/// prefix, or only inside it, reads as a miss (not a quarantine) and
/// its cell is re-run and its entry rewritten.
#[test]
fn an_entry_for_another_prefetcher_or_spec_is_a_miss_and_reruns() {
    let dir = temp_dir("collision");
    let jobs = grid();
    let reference = Harness::serial().run(&jobs);
    store_harness(&dir, 2).run(&jobs);
    let store = ResultStore::open(&dir).unwrap();

    // Cell 4's entry claims cell 5's text: same spec, other prefetcher.
    let (pf_cell, other_pf) = (4, 5);
    // Cell ROW+5's entry claims cell 5's: same prefetcher, other spec.
    let (spec_cell, other_spec) = (ROW + 5, 5);
    let prefix = |job: &Job| format!("{}|{:?}|", ebcp_harness::job::CANON_VERSION, job.spec);
    let (a, b) = (jobs[pf_cell].canonical(), jobs[other_pf].canonical());
    assert!(
        a != b && a.starts_with(&prefix(&jobs[pf_cell])) && b.starts_with(&prefix(&jobs[pf_cell]))
    );
    let (c, d) = (jobs[spec_cell].canonical(), jobs[other_spec].canonical());
    assert!(c != d && c[prefix(&jobs[spec_cell]).len()..] == d[prefix(&jobs[other_spec]).len()..]);
    rewrite_job_text(&store, &jobs[pf_cell], b);
    rewrite_job_text(&store, &jobs[spec_cell], d);

    let h = store_harness(&dir, 2);
    let outcomes = h.run_outcomes(&jobs);
    let summary = h.summary();
    assert_eq!(summary.executed, 2, "{summary:?}");
    assert_eq!(summary.quarantined, 0, "a collision is not corruption");
    assert_eq!(summary.disk_hits, jobs.len() - 2, "{summary:?}");
    let telemetry = dir.join("telemetry.json");
    h.write_telemetry_json(&telemetry).unwrap();
    let doc = json::parse(&std::fs::read_to_string(&telemetry).unwrap()).unwrap();
    let reran: Vec<usize> = doc
        .get("jobs")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .enumerate()
        .filter(|(_, row)| row.get("source").and_then(Value::as_str) == Some("run"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(reran, [pf_cell, spec_cell]);
    for ((job, outcome), want) in jobs.iter().zip(&outcomes).zip(&reference) {
        assert_eq!(outcome.result(), Some(want));
        assert_eq!(store.load_checked(job), CacheRead::Hit(want.clone()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two harnesses sharing one store directory run the same cold sweep at
/// once, the shape of two `repro` processes over one `--out-dir`: both
/// match a serial run, neither quarantines anything, and every entry
/// the pair wrote reads back.
#[test]
fn two_harnesses_share_one_store_through_a_concurrent_cold_sweep() {
    let dir = temp_dir("shared");
    let jobs = grid();
    let serial = Harness::serial();
    let reference = serial.run(&jobs);
    let want = dir.join("serial.json");
    serial.write_results_json(&want).unwrap();
    let want = std::fs::read(&want).unwrap();

    let docs: Vec<(RunSummary, Vec<u8>)> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|k| {
                let (dir, jobs) = (&dir, &jobs);
                s.spawn(move || {
                    let h = store_harness(dir, 2);
                    let results = h.run(jobs);
                    let out = dir.join(format!("concurrent-{k}.json"));
                    h.write_results_json(&out).unwrap();
                    (h.summary(), results, std::fs::read(&out).unwrap())
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| {
                let (summary, results, doc) = run.join().unwrap();
                assert_eq!(results, reference);
                (summary, doc)
            })
            .collect()
    });
    for (summary, doc) in &docs {
        assert_eq!(summary.quarantined, 0, "{summary:?}");
        assert_eq!(summary.failed, 0, "{summary:?}");
        assert_eq!(
            summary.executed + summary.disk_hits,
            jobs.len(),
            "{summary:?}"
        );
        assert!(
            *doc == want,
            "a concurrent run's results.json differs from the serial one"
        );
    }
    let store = ResultStore::open(&dir).unwrap();
    for (job, want) in jobs.iter().zip(&reference) {
        assert_eq!(store.load_checked(job), CacheRead::Hit(want.clone()));
    }
    let warm = store_harness(&dir, 2);
    warm.run(&jobs);
    assert_eq!(warm.summary().disk_hits, jobs.len());
    let _ = std::fs::remove_dir_all(&dir);
}
