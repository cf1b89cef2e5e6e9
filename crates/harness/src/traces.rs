//! On-disk store of generated traces, segmented containers of trace
//! records ([`ebcp_trace::segfile`], magic `EBCPSEG3`).
//!
//! Trace generation is deterministic, so this store is a *performance*
//! cache, not a correctness one: a trace depends only on `(workload,
//! seed, record count)`, and with the store enabled
//! ([`crate::HarnessConfig::trace_store`]) each workload is generated
//! **once**. The run that generates it feeds its front end through a
//! [`TraceTee`], which writes every chunk to a [`TraceSink`] as it hands
//! it on; every later front-end pass verifies the file at open and
//! replays it through mmap'd [`SegmentedTrace`] windows instead.
//!
//! Files live under `<store_dir>/traces/<2-hex>/<trace_key>.seg`, their
//! meta the full canonical string the name hashes (collision guard). An
//! older or foreign file is a plain miss, regenerated in place; a corrupt
//! one is quarantined (`*.corrupt`) and regenerated.

use std::io;
use std::path::{Path, PathBuf};

use ebcp_sim::{Engine, RunSpec};
use ebcp_trace::{Backing, ChunkSource, SegmentedTrace, TraceGenerator};
use ebcp_trace::{TraceRecord, TraceSink};

use crate::job::{fnv1a64, CANON_VERSION};
use crate::store::{quarantine, segfile_read, CacheRead};

/// The canonical string a trace file's name hashes and its meta field
/// stores verbatim. Covers everything generation depends on — and the
/// record count, so length changes never alias.
pub fn trace_canonical(spec: &RunSpec) -> String {
    format!(
        "{CANON_VERSION}|trace|{:?}|{}|{}",
        spec.workload,
        spec.seed,
        spec.warmup_insts + spec.measure_insts,
    )
}

/// Stable identity of `spec`'s trace in the store.
pub fn trace_key(spec: &RunSpec) -> u64 {
    fnv1a64(trace_canonical(spec).as_bytes())
}

/// Store path for `spec`'s trace (sharded by the key's first two hex
/// digits). The file may or may not exist.
pub fn path_for(store_dir: &Path, spec: &RunSpec) -> PathBuf {
    let name = format!("{:016x}.seg", trace_key(spec));
    store_dir.join("traces").join(&name[..2]).join(name)
}

/// `spec`'s generator bounded to its trace length, writing every chunk
/// it delivers into the store: the one pass that both feeds a cold
/// front end and stores the trace for later runs.
///
/// Writing is best effort and never changes what the tee delivers: the
/// first failed write drops the sink, which removes its temp file, and
/// [`TraceTee::finish`] reports the failure. The file is published only
/// by `finish`, after the last record has been pulled; a tee dropped
/// before that leaves nothing in the store.
pub struct TraceTee {
    gen: TraceGenerator,
    /// The file being written, or why writing stopped.
    sink: io::Result<TraceSink>,
    /// Records still to deliver.
    left: u64,
}

impl TraceTee {
    /// Starts generating `spec`'s trace into the store, in segments of
    /// `seg_records` records.
    pub fn new(store_dir: &Path, spec: &RunSpec, seg_records: u64) -> TraceTee {
        let path = path_for(store_dir, spec);
        TraceTee {
            gen: TraceGenerator::new(&spec.workload, spec.seed),
            sink: TraceSink::create(&path, trace_canonical(spec).as_bytes(), seg_records),
            left: spec.warmup_insts + spec.measure_insts,
        }
    }

    /// Publishes the trace file (temp file + rename) and returns its
    /// record count.
    ///
    /// # Errors
    ///
    /// The first write failure, or a tee finished before its last
    /// record was pulled: a short file would pass for the whole trace.
    /// Either way nothing is published and no temp file remains.
    pub fn finish(self) -> io::Result<u64> {
        let sink = self.sink?;
        if self.left > 0 {
            return Err(io::Error::other(format!(
                "trace tee finished with {} records not yet pulled",
                self.left
            )));
        }
        sink.finish()
    }
}

impl ChunkSource for TraceTee {
    fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        let want = (max as u64).min(self.left) as usize;
        if want == 0 {
            out.clear();
            return 0;
        }
        let got = self.gen.next_chunk(out, want);
        self.left -= got as u64;
        if let Ok(sink) = &mut self.sink {
            if let Err(e) = sink.push_chunk(out) {
                self.sink = Err(e);
            }
        }
        got
    }
}

/// Generates `spec`'s trace into the store in one streaming pass
/// (chunked generation feeding [`TraceSink`]; nothing materialized) and
/// returns the record count written. Publication is atomic — temp file
/// + rename — so concurrent generators race benignly.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn generate(store_dir: &Path, spec: &RunSpec, seg_records: u64) -> io::Result<u64> {
    let mut tee = TraceTee::new(store_dir, spec, seg_records);
    let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
    while tee.next_chunk(&mut chunk, Engine::CHUNK_RECORDS) > 0 {}
    tee.finish()
}

/// Opens and fully verifies `spec`'s stored trace. A missing, stale or
/// foreign file is a plain miss; a corrupt one, or one that does not
/// hold exactly the spec's record count, is quarantined.
pub fn open_checked(
    store_dir: &Path,
    spec: &RunSpec,
    backing: Backing,
) -> CacheRead<SegmentedTrace> {
    let path = path_for(store_dir, spec);
    let want = spec.warmup_insts + spec.measure_insts;
    let opened = SegmentedTrace::open(&path, trace_canonical(spec).as_bytes(), backing);
    match segfile_read(path.clone(), opened) {
        // A short trace would run its front end dry and change results.
        CacheRead::Hit(trace) if trace.records() != want => quarantine(
            path,
            format!("holds {} records, its spec needs {want}", trace.records()),
        ),
        read => read,
    }
}

/// Opens `spec`'s stored trace for zero-copy replay, generating (or
/// regenerating) it as needed: a missing or stale file is written in
/// place; a corrupt file is quarantined — reported through
/// `on_quarantine` — and regenerated (self-heal). At most one
/// regeneration is attempted; a file that fails to verify immediately
/// after being written is an environment fault and surfaces as an
/// error.
///
/// # Errors
///
/// Propagates file-system failures and regeneration that fails to
/// verify.
pub fn open_or_generate(
    store_dir: &Path,
    spec: &RunSpec,
    seg_records: u64,
    backing: Backing,
    mut on_quarantine: impl FnMut(PathBuf, String),
) -> io::Result<SegmentedTrace> {
    match open_checked(store_dir, spec, backing) {
        CacheRead::Hit(trace) => return Ok(trace),
        CacheRead::Miss => {}
        CacheRead::Quarantined { path, reason } => on_quarantine(path, reason),
    }
    generate(store_dir, spec, seg_records)?;
    let path = path_for(store_dir, spec);
    SegmentedTrace::open(&path, trace_canonical(spec).as_bytes(), backing).map_err(|e| {
        io::Error::other(format!(
            "freshly generated trace {} failed to verify: {e}",
            path.display()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    fn spec() -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 16),
            seed: 21,
            warmup_insts: 6_000,
            measure_insts: 6_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    fn tmpdir(tag: &str) -> crate::TmpDir {
        let d = std::env::temp_dir().join(format!("ebcp-traces-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        crate::TmpDir(d)
    }

    #[test]
    fn stored_trace_replays_identically_to_the_generator() {
        let dir = tmpdir("identical");
        let s = spec();
        let mut seg = open_or_generate(&dir, &s, 1_000, Backing::Mmap, |_, _| {
            panic!("fresh store cannot quarantine")
        })
        .unwrap();
        assert_eq!(seg.records(), 12_000);
        assert_eq!(seg.n_segments(), 12);
        let from_store = drain(&mut seg, 4096);
        let direct = TraceGenerator::new(&s.workload, s.seed).collect_n(from_store.len());
        assert_eq!(from_store, direct);
    }

    #[test]
    fn second_open_reuses_the_file() {
        let dir = tmpdir("reuse");
        let s = spec();
        let _ = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {}).unwrap();
        let p = path_for(&dir, &s);
        let written = std::fs::metadata(&p).unwrap().modified().unwrap();
        let again = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {
            panic!("valid file must not be quarantined")
        })
        .unwrap();
        assert_eq!(again.records(), 12_000);
        assert_eq!(
            std::fs::metadata(&p).unwrap().modified().unwrap(),
            written,
            "a valid cached trace must not be regenerated"
        );
    }

    #[test]
    fn corrupt_trace_is_quarantined_and_regenerated() {
        let dir = tmpdir("heal");
        let s = spec();
        let _ = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {}).unwrap();
        let p = path_for(&dir, &s);
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let mut seen = Vec::new();
        let seg = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |path, reason| {
            seen.push((path, reason));
        })
        .unwrap();
        assert_eq!(seg.records(), 12_000, "self-healed trace replays");
        assert_eq!(seen.len(), 1);
        assert!(seen[0].0.to_string_lossy().ends_with(".corrupt"));
        assert!(seen[0].0.is_file(), "corrupt bytes preserved");
        assert!(seen[0].1.contains("checksum"), "{}", seen[0].1);
    }

    #[test]
    fn stale_trace_is_regenerated_without_quarantine() {
        let dir = tmpdir("stale");
        let s = spec();
        let _ = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {}).unwrap();
        let p = path_for(&dir, &s);
        let fresh = std::fs::read(&p).unwrap();
        // The last pinned `EBCPSEG1` and `EBCPSEG2` files, and this trace
        // behind each older magic.
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../trace/golden");
        let mut olds: Vec<Vec<u8>> = ["trace_v1.seg", "trace_v2.seg"]
            .iter()
            .map(|name| std::fs::read(golden.join(name)).unwrap())
            .collect();
        for old in [b"EBCPSEG0", b"EBCPSEG1", b"EBCPSEG2"] {
            let mut bytes = fresh.clone();
            bytes[..8].copy_from_slice(old);
            olds.push(bytes);
        }
        for bytes in olds {
            std::fs::write(&p, &bytes).unwrap();
            assert!(matches!(
                open_checked(&dir, &s, Backing::Buffered),
                CacheRead::Miss
            ));
            let seg = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, reason| {
                panic!("stale is not corruption: {reason}")
            })
            .unwrap();
            assert_eq!(seg.records(), 12_000);
            assert_eq!(std::fs::read(&p).unwrap(), fresh, "rebuilt in place");
            assert_eq!(
                std::fs::read_dir(p.parent().unwrap()).unwrap().count(),
                1,
                "no *.corrupt or temp file beside the trace"
            );
        }
    }

    /// Pulls every record out of `src`, `chunk` at a time.
    fn drain(src: &mut impl ChunkSource, chunk: usize) -> Vec<TraceRecord> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        while src.next_chunk(&mut buf, chunk) > 0 {
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn tee_written_trace_verifies_and_replays_like_the_generator() {
        let dir = tmpdir("tee");
        let s = spec();
        let mut tee = TraceTee::new(&dir, &s, 1_000);
        let delivered = drain(&mut tee, 777);
        assert_eq!(tee.finish().unwrap(), 12_000);
        let direct = TraceGenerator::new(&s.workload, s.seed).collect_n(12_000);
        assert_eq!(
            delivered, direct,
            "the tee hands on the generator's records"
        );

        // The next open verifies every segment and replays the same trace.
        let mut seg = open_checked(&dir, &s, Backing::Mmap)
            .into_hit()
            .expect("a tee-written trace verifies");
        assert_eq!(drain(&mut seg, 4096), direct);

        // Byte for byte what a plain `generate` writes.
        let teed = std::fs::read(path_for(&dir, &s)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        generate(&dir, &s, 1_000).unwrap();
        assert_eq!(std::fs::read(path_for(&dir, &s)).unwrap(), teed);
    }

    #[test]
    fn abandoned_tee_publishes_nothing() {
        let dir = tmpdir("tee-drop");
        let s = spec();
        let shard = path_for(&dir, &s).parent().unwrap().to_path_buf();

        // Dropped after half its records, as when its consumer panics.
        let mut tee = TraceTee::new(&dir, &s, 1_000);
        let mut buf = Vec::new();
        while tee.left > 6_000 {
            tee.next_chunk(&mut buf, 1_500);
        }
        assert_eq!(
            std::fs::read_dir(&shard).unwrap().count(),
            1,
            "writing a temp file"
        );
        drop(tee);
        assert_eq!(
            std::fs::read_dir(&shard).unwrap().count(),
            0,
            "temp file left behind"
        );

        // Finished early: a short file would pass for the whole trace.
        let mut tee = TraceTee::new(&dir, &s, 1_000);
        tee.next_chunk(&mut buf, 1_500);
        assert!(tee.finish().is_err());
        assert_eq!(std::fs::read_dir(&shard).unwrap().count(), 0);
    }

    #[test]
    fn tee_that_cannot_write_still_delivers_the_trace() {
        let dir = tmpdir("tee-unwritable");
        std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
        std::fs::write(&dir, b"a file where the store directory should be").unwrap();
        let s = spec();
        let mut tee = TraceTee::new(&dir, &s, 1_000);
        let delivered = drain(&mut tee, 4096);
        assert!(tee.finish().is_err());
        assert_eq!(
            delivered,
            TraceGenerator::new(&s.workload, s.seed).collect_n(12_000)
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn trace_of_the_wrong_length_is_quarantined() {
        let dir = tmpdir("length");
        let s = spec();
        let path = path_for(&dir, &s);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let short = TraceGenerator::new(&s.workload, s.seed).collect_n(11_999);
        let mut sink = TraceSink::create(&path, trace_canonical(&s).as_bytes(), 1_000).unwrap();
        sink.push_chunk(&short).unwrap();
        sink.finish().unwrap();
        match open_checked(&dir, &s, Backing::Buffered) {
            CacheRead::Quarantined { reason, .. } => assert!(reason.contains("11999"), "{reason}"),
            _ => panic!("a short trace must not be replayed"),
        }
    }

    #[test]
    fn different_specs_key_different_files() {
        let a = spec();
        let mut b = spec();
        b.seed = 22;
        let mut c = spec();
        c.measure_insts += 1;
        assert_ne!(trace_key(&a), trace_key(&b));
        assert_ne!(trace_key(&a), trace_key(&c));
        let dir = Path::new("/store");
        let pa = path_for(dir, &a);
        assert!(pa.starts_with("/store/traces"));
        assert!(pa.to_string_lossy().ends_with(".seg"));
    }
}
