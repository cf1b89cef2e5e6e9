//! Trace-scale benchmark: monolithic vs segment-streamed execution of
//! one workload × EBCP cell.
//!
//! Modes of the same computation (the equivalence battery in
//! `tests/segscale.rs` proves them replay-identical):
//!
//! * **monolithic** — one worker, O(trace) memory: the full front-end
//!   pass materializes the packed event stream, then the back end
//!   replays it. Quick tier only.
//! * **segmented** — one worker, O(segment) memory: the front end and
//!   back end interleave block by block over the lazy
//!   [`ebcp_sim::resolve_blocks`] iterator; nothing larger than a
//!   segment is ever resident. Exact.
//! * **1-worker stream replay** — large tier only: the front end runs
//!   once, streaming blocks to an on-disk pre-resolved cache
//!   (`EBCPPRE6`, the harness's own format); one worker then replays
//!   the stream end to end. Exact, and the honest single-worker cost
//!   of a cached back-end pass.
//!
//! The quick tier times the first two (the committed baseline under
//! `crates/bench/baselines/` gates the segmented geomean against a 25%
//! drop under [`crate::gate::TRACE_SCALE`]); the large tier (`--scale
//! large`, ~100× quick) deliberately skips monolithic — materializing
//! a 100× event stream is exactly what the streamed modes exist to
//! avoid, and it would also pollute the process RSS high-water mark
//! this tier reports as evidence of O(segment) residency — and adds
//! the disk-stream cell. Like the throughput benches, cells never flow
//! through the caching harness: a memoized result has no wall time.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ebcp_core::EbcpConfig;
use ebcp_harness::{preres, Job, Value};
use ebcp_sim::{resolve_blocks, run_preresolved_blocks, PreBlock, PrefetcherSpec, RunSpec};
use ebcp_trace::template::WorkloadProgram;
use ebcp_trace::TraceGenerator;

use crate::gate::{geomean, min_wall};
use crate::scale::Scale;

/// One timed workload cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceScaleRow {
    /// Workload name.
    pub workload: String,
    /// Trace records replayed (one record = one instruction).
    pub records: u64,
    /// Segment length used by the streamed modes.
    pub seg_records: u64,
    /// Wall-clock ms for the monolithic mode; `0.0` at the large tier,
    /// which does not run it.
    pub monolithic_ms: f64,
    /// Wall-clock ms for the single-worker segment-streamed mode.
    pub segmented_ms: f64,
    /// Wall-clock ms for one worker replaying the pre-resolved disk
    /// stream end to end; `0.0` at the quick tier, which does not run
    /// the disk-stream cell.
    pub replay1_ms: f64,
    /// Monolithic over segmented; `0.0` at the large tier, which does
    /// not run monolithic.
    pub speedup: f64,
    /// Segmented throughput in simulated Minst/s.
    pub mips: f64,
}

/// Segment length for the benchmark's streamed modes: long enough
/// that per-block overhead (engine handoff, block allocation) is noise,
/// short enough that even the quick workloads split into 10+ segments
/// and the large tier stays comfortably O(segment) — ~2 Mi records is
/// a ~48 MiB worst-case event block.
pub const SEG_RECORDS: u64 = 1 << 21;

/// The timed prefetcher: the paper's tuned EBCP (the cell every figure
/// sweep actually pays for).
fn prefetcher(scale: Scale) -> PrefetcherSpec {
    PrefetcherSpec::Ebcp(EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20)))
}

/// `spec`'s trace generated and pre-resolved lazily in `seg_records`
/// blocks: the front end runs from inside the consumer's iteration, so
/// whoever drives the iterator holds at most one block.
fn blocks(
    spec: &RunSpec,
    program: Arc<WorkloadProgram>,
    seg_records: u64,
) -> impl Iterator<Item = PreBlock> {
    let gen = TraceGenerator::with_program(program, spec.workload.clone(), spec.seed);
    resolve_blocks(spec, gen, seg_records)
}

/// Streams `spec`'s front-end pass into `job`'s on-disk pre-resolved
/// cache under `dir` — one bounded pass, nothing but a block resident.
fn write_stream(
    spec: &RunSpec,
    program: Arc<WorkloadProgram>,
    seg_records: u64,
    dir: &Path,
    job: &Job,
) {
    let mut w = preres::PreresWriter::create(dir, job, seg_records).expect("preres stream writer");
    for b in blocks(spec, program, seg_records) {
        w.push_block(&b.events, b.records)
            .expect("preres block write");
    }
    w.finish().expect("preres stream publish");
}

/// A scratch directory under the system temp dir, removed when the
/// guard drops — on success and when a divergence assert or a stream
/// I/O panic unwinds through it, so a failed large-tier run does not
/// leave its gigabyte-sized stream behind.
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<temp>/<name>-<pid>`.
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch store dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Times every workload at `scale` in the two in-memory modes
/// (min-of-2 per mode, like the throughput benches) and asserts the
/// two results byte-identical — a silently-divergent mode would make
/// the timing comparison meaningless.
///
/// # Panics
///
/// Panics if any mode disagrees with the monolithic result.
pub fn measure(scale: Scale) -> Vec<TraceScaleRow> {
    let pf = prefetcher(scale);
    let mut rows = Vec::new();
    for w in scale.workloads() {
        let spec = scale.run_spec(&w, scale.machine());
        let program = Arc::new(WorkloadProgram::build(&spec.workload));
        let records = spec.warmup_insts + spec.measure_insts;

        // Allocator warm-up, as in the throughput benches: the first
        // multi-MB event buffer pays first-touch page faults the
        // steady state never pays again.
        std::hint::black_box(spec.pre_resolve_with(Arc::clone(&program)));

        let (mono, mono_result) = min_wall(2, || {
            let pre = spec.pre_resolve_with(Arc::clone(&program));
            spec.run_preresolved(&pre, &pf)
        });
        let (seg, ()) = min_wall(2, || {
            let r = run_preresolved_blocks(
                &spec,
                blocks(&spec, Arc::clone(&program), SEG_RECORDS),
                &pf,
            );
            assert_eq!(
                r, mono_result,
                "segmented replay diverged from monolithic on {}",
                w.name
            );
        });

        rows.push(TraceScaleRow {
            workload: w.name.clone(),
            records,
            seg_records: SEG_RECORDS,
            monolithic_ms: mono * 1e3,
            segmented_ms: seg * 1e3,
            replay1_ms: 0.0,
            speedup: mono / seg.max(1e-12),
            mips: records as f64 / seg.max(1e-12) / 1e6,
        });
    }
    rows
}

/// Times the large tier: the database preset only (the O(segment)
/// residency property is workload-independent, and one ~280M-record
/// cell keeps the CI smoke job's wall clock bounded), one rep per mode
/// (the cells run for seconds, so a scheduler hiccup is proportionally
/// noise), and **no monolithic mode** — see the module docs.
///
/// Beyond the segmented in-memory mode, this tier streams the front
/// end once into a scratch on-disk pre-resolved cache and times one
/// worker replaying it end to end, asserted byte-identical to the
/// segmented result (which also proves the disk round-trip). The
/// scratch directory is removed however the function exits.
///
/// # Panics
///
/// Panics if the disk-stream replay diverges, or on scratch-store I/O
/// failure.
pub fn measure_large(scale: Scale) -> Vec<TraceScaleRow> {
    let pf = prefetcher(scale);
    let w = scale
        .workloads()
        .into_iter()
        .find(|w| w.name == "database")
        .expect("the database preset exists at every scale");
    let spec = scale.run_spec(&w, scale.machine());
    let program = Arc::new(WorkloadProgram::build(&spec.workload));
    let records = spec.warmup_insts + spec.measure_insts;

    let (seg, exact) = min_wall(1, || {
        run_preresolved_blocks(&spec, blocks(&spec, Arc::clone(&program), SEG_RECORDS), &pf)
    });

    // Disk-stream cell: the front end runs once into the scratch
    // store, then one validated open outside the timed cell, so the
    // replay pays only the back-end work, as a sweep does once a
    // stream is warm.
    let dir = ScratchDir::new("ebcp-trace-scale");
    let job = Job::new(spec.clone(), pf.clone());
    write_stream(&spec, Arc::clone(&program), SEG_RECORDS, &dir.0, &job);
    let mut stream = preres::open_written(&dir.0, &job).blocks();
    let (replay1, replayed) = min_wall(1, || run_preresolved_blocks(&spec, &mut stream, &pf));
    assert_eq!(
        replayed, exact,
        "disk-stream replay diverged from segmented on {}",
        w.name
    );

    vec![TraceScaleRow {
        workload: w.name.clone(),
        records,
        seg_records: SEG_RECORDS,
        monolithic_ms: 0.0,
        segmented_ms: seg * 1e3,
        replay1_ms: replay1 * 1e3,
        speedup: 0.0,
        mips: records as f64 / seg.max(1e-12) / 1e6,
    }]
}

/// The process's resident-set high-water mark (`VmHWM`), in bytes.
/// `None` off Linux or if `/proc` is unreadable.
pub fn vm_hwm_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Renders the aligned table.
pub fn render(rows: &[TraceScaleRow], large: bool) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let seg = rows.first().map_or(SEG_RECORDS, |r| r.seg_records);
    if large {
        let _ = writeln!(
            out,
            "Trace-scale cells (large tier, seg {seg} records): segmented vs 1-worker stream replay"
        );
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>10} {:>11} {:>8}",
            "workload", "records", "seg ms", "1-work ms", "Minst/s"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>10.1} {:>11.1} {:>8.1}",
                r.workload, r.records, r.segmented_ms, r.replay1_ms, r.mips
            );
        }
        let _ = writeln!(
            out,
            "geomean: {:.1} Minst/s segmented",
            geomean(rows.iter().map(|r| r.mips))
        );
    } else {
        let _ = writeln!(
            out,
            "Trace-scale cells (quick tier, seg {seg} records): monolithic vs streamed modes"
        );
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>12} {:>12} {:>8} {:>10}",
            "workload", "records", "mono ms", "seg ms", "speedup", "Minst/s"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<20} {:>12} {:>12.1} {:>12.1} {:>8.2} {:>10.1}",
                r.workload, r.records, r.monolithic_ms, r.segmented_ms, r.speedup, r.mips
            );
        }
        let _ = writeln!(
            out,
            "geomean: {:.1} Minst/s segmented, monolithic over segmented {:.2}x",
            geomean(rows.iter().map(|r| r.mips)),
            geomean(rows.iter().map(|r| r.speedup))
        );
    }
    out
}

/// Encodes the cells as the `BENCH_trace_scale.json` document
/// (schema 2; schema 1 also carried the deleted scatter cell's
/// `scatter_ms`, `workers` and `scatter_err_pct` per row).
pub fn to_json(scale: Scale, large: bool, rows: &[TraceScaleRow], vm_hwm: Option<u64>) -> Value {
    let rows_json = rows
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("workload".into(), Value::Str(r.workload.clone())),
                ("records".into(), Value::Int(r.records)),
                ("seg_records".into(), Value::Int(r.seg_records)),
                ("monolithic_ms".into(), Value::Num(r.monolithic_ms)),
                ("segmented_ms".into(), Value::Num(r.segmented_ms)),
                ("replay1_ms".into(), Value::Num(r.replay1_ms)),
                ("speedup".into(), Value::Num(r.speedup)),
                ("mips".into(), Value::Num(r.mips)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("schema".into(), Value::Int(2)),
        ("scale_den".into(), Value::Int(scale.den)),
        (
            "tier".into(),
            Value::Str(if large { "large" } else { "quick" }.into()),
        ),
        (
            "geomean_mips".into(),
            Value::Num(geomean(rows.iter().map(|r| r.mips))),
        ),
        (
            "geomean_speedup".into(),
            Value::Num(geomean(rows.iter().map(|r| r.speedup))),
        ),
    ];
    if let Some(hwm) = vm_hwm {
        fields.push(("vm_hwm_bytes".into(), Value::Int(hwm)));
    }
    fields.push(("rows".into(), Value::Arr(rows_json)));
    Value::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;
    use ebcp_sim::stepping::run_stepped;

    /// A trimmed scale so the test matrix stays suite-sized; the real
    /// tiers run through `repro bench-trace-scale`.
    fn tiny() -> Scale {
        Scale {
            den: 16,
            warm_tenths: 2,
            measure_tenths: 1,
            seed: 11,
        }
    }

    #[test]
    fn both_modes_agree_and_rows_are_well_formed() {
        // `measure` itself asserts byte-identity across the modes.
        let rows = measure(tiny());
        assert_eq!(rows.len(), 4, "one row per workload preset");
        for r in &rows {
            assert!(r.records > 0 && r.mips > 0.0 && r.speedup > 0.0);
            assert!(r.monolithic_ms > 0.0, "quick tier times monolithic");
            assert_eq!(r.replay1_ms, 0.0, "quick tier has no disk-stream cell");
        }
    }

    #[test]
    fn segmented_serial_splits_at_the_requested_boundary() {
        let scale = tiny();
        let w = &scale.workloads()[0];
        let spec = scale.run_spec(w, scale.machine());
        let program = Arc::new(WorkloadProgram::build(&spec.workload));
        let pf = prefetcher(scale);
        let reference = run_stepped(&spec, &spec.materialize(), &pf);
        // An awkward prime segment length still replays exactly.
        let r = run_preresolved_blocks(&spec, blocks(&spec, program, 4_999), &pf);
        assert_eq!(r, reference);
    }

    #[test]
    fn disk_stream_replay_is_exact() {
        let scale = tiny();
        let w = &scale.workloads()[0];
        let spec = scale.run_spec(w, scale.machine());
        let program = Arc::new(WorkloadProgram::build(&spec.workload));
        let pf = prefetcher(scale);
        let reference = run_stepped(&spec, &spec.materialize(), &pf);
        let dir = ScratchDir::new("ebcp-trace-scale-test");
        let job = Job::new(spec.clone(), pf.clone());
        // ~9 blocks at this scale: the replay crosses many block seams.
        let seg = 20_000;
        write_stream(&spec, Arc::clone(&program), seg, &dir.0, &job);

        let stream = preres::open_written(&dir.0, &job);
        assert!(stream.n_segments() > 1, "the stream must be segmented");
        let replayed = run_preresolved_blocks(&spec, stream.blocks(), &pf);
        assert_eq!(replayed, reference, "disk round-trip replay is exact");
    }

    #[test]
    fn scratch_dir_is_removed_when_a_panic_unwinds() {
        let name = "ebcp-trace-scale-guard-test";
        let path = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let caught = std::panic::catch_unwind(|| {
            let dir = ScratchDir::new(name);
            std::fs::write(dir.0.join("stream.bin"), [0u8; 64]).unwrap();
            assert!(dir.0.join("stream.bin").exists());
            panic!("diverged mid-measurement");
        });
        assert!(caught.is_err(), "the closure panicked");
        assert!(!path.exists(), "{} left behind", path.display());
        // And on the ordinary path.
        let dir = ScratchDir::new(name);
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists());
    }

    fn row() -> TraceScaleRow {
        TraceScaleRow {
            workload: "database".into(),
            records: 1_000_000,
            seg_records: SEG_RECORDS,
            monolithic_ms: 100.0,
            segmented_ms: 105.0,
            replay1_ms: 0.0,
            speedup: 100.0 / 105.0,
            mips: 1_000_000.0 / 0.105 / 1e6,
        }
    }

    #[test]
    fn json_document_shape() {
        let doc = to_json(Scale::quick(), false, &[row()], Some(123 << 20));
        assert_eq!(doc.get("tier").unwrap().as_str(), Some("quick"));
        assert_eq!(doc.get("vm_hwm_bytes").unwrap().as_u64(), Some(123 << 20));
        assert_eq!(doc.get("schema").unwrap().as_u64(), Some(2));
        let row = &doc.get("rows").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("segmented_ms").unwrap().as_f64(), Some(105.0));
        assert!(row.get("scatter_ms").is_none(), "the scatter cell is gone");
    }

    #[test]
    fn gate_refuses_another_tier_or_scale() {
        let quick = Scale::quick();
        let doc = to_json(quick, false, &[row()], None);
        assert!(gate::check(&doc, &doc, &gate::TRACE_SCALE).is_ok());
        // A tier mismatch is an error, not a silent pass.
        let large = to_json(quick, true, &[row()], None);
        let err = gate::check(&large, &doc, &gate::TRACE_SCALE).unwrap_err();
        assert!(err.contains("tier"), "{err}");
        // So is a machine-scale mismatch at the same tier.
        let den4 = to_json(Scale { den: 4, ..quick }, false, &[row()], None);
        let err = gate::check(&den4, &doc, &gate::TRACE_SCALE).unwrap_err();
        assert!(err.contains("scale_den"), "{err}");
    }

    #[test]
    fn vm_hwm_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let hwm = vm_hwm_bytes().expect("/proc/self/status has VmHWM");
            assert!(hwm > 1 << 20, "a test process surely exceeds 1 MiB");
        }
    }
}
