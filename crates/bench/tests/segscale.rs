//! Equivalence battery for the scale-out trace paths: segment-spliced
//! replay, of cut streams and of lazily resolved blocks, vs monolithic
//! replay across the full sweep roster, mmap'd segment-file replay vs
//! the in-memory generator, and the harness's forced-streaming
//! end-to-end path vs the materialized reference. These are the checks
//! that let the large trace tier run on the O(segment) paths without a
//! correctness asterisk.

use std::path::PathBuf;
use std::sync::Arc;

use ebcp_bench::throughput::sweep_roster;
use ebcp_bench::{Harness, HarnessConfig, Job, Scale};
use ebcp_harness::ResultStore;
use ebcp_sim::frontend::segment_events;
use ebcp_sim::{resolve_blocks, run_preresolved_blocks};
use ebcp_trace::template::WorkloadProgram;
use ebcp_trace::{Backing, TraceGenerator, TraceRecord};

/// The lockstep battery's trimmed quick scale: the full machine
/// geometry at 1/16, with the instruction budget cut so the roster ×
/// workload matrix stays test-suite-sized.
fn trimmed() -> Scale {
    Scale {
        den: 16,
        warm_tenths: 5,
        measure_tenths: 5,
        seed: 11,
    }
}

/// A miniature scale for the harness end-to-end case, matching the
/// harness integration tests.
fn tiny() -> Scale {
    Scale {
        den: 64,
        warm_tenths: 2,
        measure_tenths: 1,
        seed: 11,
    }
}

/// Segment-spliced replay (`run_preresolved_blocks`) must be
/// byte-identical to monolithic replay for **every** registered
/// prefetcher × workload, at segmentations that land boundaries
/// mid-gap and mid-warm-up; so must replay of the blocks
/// `resolve_blocks` produces from the generator.
#[test]
fn spliced_and_resolved_block_replay_match_monolithic_for_the_full_roster() {
    let scale = trimmed();
    let pfs = sweep_roster(scale);
    assert!(pfs.len() >= 10, "roster shrank to {}", pfs.len());
    for w in scale.workloads() {
        let spec = scale.run_spec(&w, scale.machine());
        let program = Arc::new(WorkloadProgram::build(&spec.workload));
        let pre = spec.pre_resolve_with(Arc::clone(&program));
        let gen = TraceGenerator::with_program(program, spec.workload.clone(), spec.seed);
        let resolved_blocks: Vec<_> = resolve_blocks(&spec, gen, 1 << 18).collect();
        assert!(resolved_blocks.len() > 1, "resolution must actually split");
        for pf in &pfs {
            let mono = spec.run_preresolved(&pre, pf);
            // A prime length (boundaries mid-everything) and a
            // power-of-two length (the tier the benchmark uses).
            for seg in [9_973u64, 1 << 18] {
                let blocks = segment_events(&pre, seg);
                assert!(blocks.len() > 1, "segmentation must actually split");
                let spliced = run_preresolved_blocks(&spec, &blocks, pf);
                assert_eq!(
                    spliced,
                    mono,
                    "spliced replay diverged: {} x {} at seg {seg}",
                    w.name,
                    pf.name()
                );
            }
            let resolved = run_preresolved_blocks(&spec, &resolved_blocks, pf);
            assert_eq!(
                resolved,
                mono,
                "resolved-block replay diverged: {} x {}",
                w.name,
                pf.name()
            );
        }
    }
}

/// Replaying a workload's on-disk segmented trace — through mmap'd
/// windows and through plain buffered reads — must reproduce the
/// generator's records exactly, chunk boundaries and all.
#[test]
fn segmented_trace_replay_is_byte_identical_to_the_generator() {
    let scale = tiny();
    let dir = std::env::temp_dir().join(format!("ebcp-segscale-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch store dir");
    for w in scale.workloads() {
        let spec = scale.run_spec(&w, scale.machine());
        // An awkward segment length: boundaries never align with the
        // read chunking below.
        ebcp_harness::traces::generate(&dir, &spec, 9_973).expect("trace generation");
        let open = |backing| {
            ebcp_harness::traces::open_or_generate(&dir, &spec, 9_973, backing, |p, r| {
                panic!("unexpected quarantine of {}: {r}", p.display())
            })
            .expect("segmented trace open")
        };
        let mut mapped = open(Backing::Mmap);
        let mut buffered = open(Backing::Buffered);
        let mut gen = TraceGenerator::new(&spec.workload, spec.seed);
        let total = spec.warmup_insts + spec.measure_insts;
        let mut seen = 0u64;
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let want = 4_096.min((total - seen) as usize);
            if want == 0 {
                break;
            }
            let got = gen.next_chunk(&mut c, want);
            if got == 0 {
                break;
            }
            let from_map = mapped.next_chunk(&mut a, got);
            let from_buf = buffered.next_chunk(&mut b, got);
            assert_eq!(from_map, got, "{}: mmap ran short at {seen}", w.name);
            assert_eq!(from_buf, got, "{}: buffered ran short at {seen}", w.name);
            assert_eq!(a, c, "{}: mmap replay diverged at {seen}", w.name);
            assert_eq!(b, c, "{}: buffered replay diverged at {seen}", w.name);
            seen += got as u64;
        }
        assert_eq!(seen, total, "{}: replay covered the whole trace", w.name);
        // Both sources must now be exhausted too.
        let mut rest: Vec<TraceRecord> = Vec::new();
        assert_eq!(mapped.next_chunk(&mut rest, 1), 0);
        assert_eq!(buffered.next_chunk(&mut rest, 1), 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// End to end through the harness: a 1-byte memory budget forces every
/// job onto the streamed path (disk-cached pre-resolved blocks over an
/// mmap'd trace store), and the results must be byte-identical to the
/// default materialized execution.
#[test]
fn forced_streaming_harness_matches_materialized_execution() {
    let scale = tiny();
    let pfs = {
        let all = sweep_roster(scale);
        // Three lanes are enough end-to-end: no prefetcher, one GHB
        // baseline, the tuned EBCP tail.
        vec![all[0].clone(), all[1].clone(), all[all.len() - 1].clone()]
    };
    let jobs: Vec<Job> = scale
        .workloads()
        .into_iter()
        .map(|w| scale.run_spec(&w, scale.machine()))
        .flat_map(|spec| pfs.iter().map(move |pf| Job::new(spec.clone(), pf.clone())))
        .collect();

    let reference = Harness::serial().run(&jobs);

    let dir = std::env::temp_dir().join(format!("ebcp-segscale-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Runs the batch on a fresh streamed harness over `dir` with no
    // result cached, returning its results and how many files it
    // quarantined.
    let run_streamed = || {
        let results = ResultStore::open(&dir).unwrap();
        for job in &jobs {
            let _ = std::fs::remove_file(results.entry_path(job));
        }
        let h = Harness::new(HarnessConfig {
            jobs: 2,
            mem_budget_bytes: 1,
            store_dir: Some(dir.clone()),
            trace_store: true,
            ..HarnessConfig::default()
        });
        let out = h.run(&jobs);
        (out, h.summary().quarantined)
    };
    let files = |class: &str| -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = walk(&dir.join(class))
            .into_iter()
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        files
    };
    let inodes = |class: &str| -> Vec<u64> {
        files(class)
            .iter()
            .map(|p| std::os::unix::fs::MetadataExt::ino(&std::fs::metadata(p).unwrap()))
            .collect()
    };

    // Cold: each trace is generated once, teed into the trace store.
    assert_eq!(
        run_streamed(),
        (reference.clone(), 0),
        "streamed execution diverged"
    );
    // The budget really forced the streamed stores into existence.
    assert!(
        !files("preres").is_empty(),
        "no pre-resolved streams were written"
    );
    assert!(
        !files("traces").is_empty(),
        "no segmented traces were written"
    );

    // Streams rebuilt from the tee-written traces: each trace verifies
    // at this open and is replayed, not rewritten.
    let traces = inodes("traces");
    std::fs::remove_dir_all(dir.join("preres")).unwrap();
    assert_eq!(
        run_streamed(),
        (reference.clone(), 0),
        "rebuilt from stored traces"
    );
    assert_eq!(inodes("traces"), traces, "a stored trace was regenerated");

    // Files of the previous format revisions are stale: plain misses,
    // rebuilt in place, nothing quarantined or left beside them.
    let contents = || -> Vec<Vec<u8>> {
        [files("traces"), files("preres")]
            .concat()
            .iter()
            .map(|p| std::fs::read(p).unwrap())
            .collect()
    };
    let current = contents();
    for (class, old) in [("traces", b"EBCPSEG1"), ("preres", b"EBCPPRE3")] {
        for p in files(class) {
            let mut bytes = std::fs::read(&p).unwrap();
            bytes[..8].copy_from_slice(old);
            std::fs::write(&p, bytes).unwrap();
        }
    }
    assert_eq!(run_streamed(), (reference, 0), "rebuilt over old formats");
    assert_eq!(
        contents(),
        current,
        "old-format files are rewritten in place"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recursively lists paths under `dir` (empty if it doesn't exist).
fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}
