//! On-disk cache for pre-resolved event streams.
//!
//! A stream depends only on `(workload, seed, record count, L1
//! geometry)` — see [`Job::pre_key`](crate::Job::pre_key) — so across
//! processes the front-end pass runs once per workload and every later
//! sweep deserializes the packed events instead of re-resolving the
//! trace. Files live under `<store_dir>/preres/<2-hex>/<pre_key>.bin`,
//! sharded — like result entries — by the key's first two hex digits.
//!
//! A stream is a segmented container ([`ebcp_trace::segfile`]) of
//! [`EventCodec`] items, magic `EBCPPRE5`, whose meta is the exact
//! string `pre_key` hashed (collision guard). Each segment is one block:
//! its events and the trace records they stand for. The large tier
//! replays a stream a block at a time — O(segment) peak memory — while
//! the quick tier writes one segment covering the whole stream.
//!
//! Every open runs the container's verify walk. A wrong magic (an older
//! revision: `EBCPPRE4`, `EBCPPRE3`, the single-blob `EBCPPRE2`) or a
//! canonical-string mismatch (hash collision) is a plain miss,
//! overwritten in place by the next save; corruption is quarantined to
//! `*.corrupt` and the front-end pass re-runs (self-heal). Either way a
//! bad entry costs one front-end pass, never a wrong stream.

use std::io;
use std::path::{Path, PathBuf};

use ebcp_sim::frontend::{PreBlock, PreEvent, PreResolved};
use ebcp_sim::RunSpec;
use ebcp_trace::segfile::{Backing, Codec, SegReader, SegWriter};

use crate::job::{Job, CANON_VERSION};
use crate::store::{segfile_read, CacheRead};

/// Packed pre-resolved events, 24 bytes each, every field
/// little-endian: `{ pc u64, dline u64, gap u32, flags u32 }`.
pub struct EventCodec;

impl Codec for EventCodec {
    type Item = PreEvent;
    const MAGIC: [u8; 8] = *b"EBCPPRE5";
    const WIDTH: usize = 24;

    fn encode(ev: &PreEvent, out: &mut [u8]) {
        out[0..8].copy_from_slice(&ev.pc.to_le_bytes());
        out[8..16].copy_from_slice(&ev.dline.to_le_bytes());
        out[16..20].copy_from_slice(&ev.gap.to_le_bytes());
        out[20..24].copy_from_slice(&ev.flags.to_le_bytes());
    }

    fn decode(b: &[u8]) -> PreEvent {
        let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        PreEvent {
            pc: word(0),
            dline: word(8),
            gap: half(16),
            flags: half(20),
        }
    }
}

/// The canonical string [`Job::pre_key`] hashes — regenerated here so
/// the stored collision guard and the key can never drift apart.
fn pre_canonical(spec: &RunSpec) -> String {
    format!(
        "{CANON_VERSION}|pre|{:?}|{}|{}|{:?}|{:?}",
        spec.workload,
        spec.seed,
        spec.warmup_insts + spec.measure_insts,
        spec.sim.l1i,
        spec.sim.l1d,
    )
}

/// Cache file path for a job's stream under `store_dir` (sharded by
/// the first two hex digits of the pre-key).
pub fn path_for(store_dir: &Path, job: &Job) -> PathBuf {
    let name = format!("{:016x}.bin", job.pre_key());
    store_dir.join("preres").join(&name[..2]).join(name)
}

/// Streaming writer for a job's cached stream: push blocks as the
/// front-end pass produces them (see [`SegWriter`]).
pub struct PreresWriter(SegWriter<EventCodec>);

impl PreresWriter {
    /// Starts a stream for `job` under `store_dir`. `seg_records` is
    /// the nominal segment length in records (recorded in the footer;
    /// the tail block may run short).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create(store_dir: &Path, job: &Job, seg_records: u64) -> io::Result<PreresWriter> {
        let canon = pre_canonical(&job.spec);
        SegWriter::create(&path_for(store_dir, job), canon.as_bytes(), seg_records)
            .map(PreresWriter)
    }

    /// Appends one segment: `events` covering `records` trace records.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn push_block(&mut self, events: &[PreEvent], records: u64) -> io::Result<()> {
        self.0.push(events)?;
        self.0.end_segment(records);
        Ok(())
    }

    /// Publishes the stream (see [`SegWriter::finish`]).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures; nothing is published.
    pub fn finish(self) -> io::Result<()> {
        self.0.finish().map(drop)
    }
}

/// Saves `pre` as `job`'s cached stream — one segment covering the
/// whole stream (the quick-tier layout; the large tier streams blocks
/// through [`PreresWriter`] directly).
///
/// # Errors
///
/// Propagates file-system failures (callers may ignore them: a failed
/// save only loses incrementality).
pub fn save(store_dir: &Path, job: &Job, pre: &PreResolved) -> io::Result<()> {
    let mut w = PreresWriter::create(store_dir, job, pre.records.max(1))?;
    w.push_block(&pre.events, pre.records)?;
    w.finish()
}

/// A validated, open stream whose blocks are read lazily — the
/// bounded-memory counterpart of a loaded [`PreResolved`].
pub struct PreresStream(SegReader<EventCodec>);

impl PreresStream {
    /// Total trace records the stream stands for.
    pub fn records(&self) -> u64 {
        self.0.footer().records
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.0.segments().len()
    }

    /// Reads segment `k` into an owned block (verified at open).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn block(&mut self, k: usize) -> io::Result<PreBlock> {
        Ok(PreBlock {
            events: self.0.read_segment(k)?,
            records: self.0.segments()[k].records,
        })
    }

    /// Iterates blocks in order, one resident at a time.
    ///
    /// # Panics
    ///
    /// Panics on a file-system failure mid-iteration (the stream was
    /// fully validated at open; a read failing mid-replay is an
    /// environment fault).
    pub fn blocks(mut self) -> impl Iterator<Item = PreBlock> {
        (0..self.n_segments())
            .map(move |k| self.block(k).expect("validated stream read mid-replay"))
    }
}

/// Opens the stream this process has just written for `job`.
///
/// # Panics
///
/// Panics naming the miss, or the quarantine path and reason, when the
/// stream does not verify: a stream written moments ago that fails is
/// a broken run, not a cache miss.
pub fn open_written(store_dir: &Path, job: &Job) -> PreresStream {
    match open_stream_checked(store_dir, job) {
        CacheRead::Hit(stream) => stream,
        CacheRead::Miss => panic!(
            "freshly written pre-resolved stream missing from {}",
            store_dir.display()
        ),
        CacheRead::Quarantined { path, reason } => panic!(
            "freshly written pre-resolved stream quarantined at {}: {reason}",
            path.display()
        ),
    }
}

/// Opens and fully validates `job`'s cached stream for block-at-a-time
/// replay. Corruption quarantines the file, staleness and collisions
/// are plain misses — exactly the [`load_checked`] semantics.
pub fn open_stream_checked(store_dir: &Path, job: &Job) -> CacheRead<PreresStream> {
    let path = path_for(store_dir, job);
    let opened = SegReader::open(
        &path,
        pre_canonical(&job.spec).as_bytes(),
        Backing::Buffered,
    );
    segfile_read(path, opened.map(PreresStream))
}

/// Loads a cached stream for `job`, or `None` on any miss, mismatch or
/// quarantined corruption. Convenience wrapper over [`load_checked`].
pub fn load(store_dir: &Path, job: &Job) -> Option<PreResolved> {
    load_checked(store_dir, job).into_hit()
}

/// Integrity-checked load of the whole stream: distinguishes a valid
/// stream, a plain miss (absent file, older magic, hash collision) and
/// a *corrupt* file, which is quarantined (renamed to `*.corrupt`) so
/// the caller can log it and transparently re-resolve.
///
/// Concatenates every segment — materialized-memory semantics for the
/// quick tier; the large tier uses [`open_stream_checked`] +
/// [`PreresStream::blocks`] instead.
pub fn load_checked(store_dir: &Path, job: &Job) -> CacheRead<PreResolved> {
    let mut stream = match open_stream_checked(store_dir, job) {
        CacheRead::Hit(stream) => stream,
        CacheRead::Miss => return CacheRead::Miss,
        CacheRead::Quarantined { path, reason } => return CacheRead::Quarantined { path, reason },
    };
    let total: u64 = stream.0.segments().iter().map(|s| s.items).sum();
    let mut events = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    for k in 0..stream.n_segments() {
        match stream.0.read_segment(k) {
            Ok(segment) => events.extend_from_slice(&segment),
            Err(_) => return CacheRead::Miss,
        }
    }
    CacheRead::Hit(PreResolved {
        events,
        records: stream.records(),
        l1i: job.spec.sim.l1i,
        l1d: job.spec.sim.l1d,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::{PrefetcherSpec, SimConfig};
    use ebcp_trace::segfile::{FOOTER_BYTES, INDEX_ENTRY_BYTES};
    use ebcp_trace::WorkloadSpec;

    fn job() -> Job {
        Job::new(
            RunSpec {
                workload: WorkloadSpec::database().scaled(1, 16),
                seed: 9,
                warmup_insts: 10_000,
                measure_insts: 10_000,
                sim: SimConfig::scaled_down(16),
            },
            PrefetcherSpec::None,
        )
    }

    fn tmpdir(tag: &str) -> crate::TmpDir {
        let d = std::env::temp_dir().join(format!("ebcp-preres-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        crate::TmpDir(d)
    }

    fn expect_quarantined<T>(read: CacheRead<T>, reason_part: &str) {
        match read {
            CacheRead::Quarantined { path, reason } => {
                assert!(reason.contains(reason_part), "{reason}");
                assert!(
                    path.to_string_lossy().ends_with(".corrupt"),
                    "{}",
                    path.display()
                );
                assert!(path.is_file(), "corrupt bytes must be preserved");
            }
            other => panic!(
                "expected quarantine, got miss/hit: {:?}",
                other.into_hit().is_some()
            ),
        }
    }

    #[test]
    fn round_trip_preserves_stream() {
        let dir = tmpdir("rt");
        let j = job();
        let pre = j.spec.pre_resolve();
        save(&dir, &j, &pre).unwrap();
        let loaded = load(&dir, &j).expect("cache hit");
        assert_eq!(loaded, pre);
    }

    #[test]
    fn multi_segment_stream_round_trips_blockwise() {
        let dir = tmpdir("multiseg");
        let j = job();
        let pre = j.spec.pre_resolve();
        let blocks = ebcp_sim::segment_events(&pre, 3_000);
        let mut w = PreresWriter::create(&dir, &j, 3_000).unwrap();
        for b in &blocks {
            w.push_block(&b.events, b.records).unwrap();
        }
        w.finish().unwrap();

        let stream = open_stream_checked(&dir, &j).into_hit().expect("hit");
        assert_eq!(stream.records(), pre.records);
        assert_eq!(stream.0.footer().seg_records, 3_000);
        assert_eq!(stream.n_segments(), blocks.len());
        let back: Vec<PreBlock> = stream.blocks().collect();
        assert_eq!(back, blocks, "blocks survive the disk round trip");

        // The whole-stream load concatenates the same events.
        let loaded = load(&dir, &j).expect("hit");
        let concat: Vec<PreEvent> = blocks.iter().flat_map(|b| b.events.clone()).collect();
        assert_eq!(loaded.events, concat);
        assert_eq!(loaded.records, pre.records);
    }

    #[test]
    fn missing_file_is_a_miss() {
        let dir = tmpdir("miss");
        assert!(load(&dir, &job()).is_none());
    }

    #[test]
    fn wrong_spec_is_a_miss_despite_forced_key() {
        // Write under one job's path, then corrupt the canonical check
        // by asking for a different spec at the same path: the guard
        // must reject it. (Reaching the same path needs the same
        // pre_key, which a different spec practically never has — so we
        // simulate the collision by renaming the file.)
        let dir = tmpdir("collide");
        let a = job();
        let pre = a.spec.pre_resolve();
        save(&dir, &a, &pre).unwrap();
        let mut b = a.clone();
        b.spec.seed = 10;
        let dest = path_for(&dir, &b);
        std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
        std::fs::rename(path_for(&dir, &a), dest).unwrap();
        assert!(load_checked(&dir, &b).into_hit().is_none());
        assert!(
            path_for(&dir, &b).exists(),
            "collisions are not quarantined"
        );
    }

    #[test]
    fn old_magic_is_a_plain_miss_not_corruption() {
        let dir = tmpdir("oldmagic");
        let j = job();
        let pre = j.spec.pre_resolve();
        save(&dir, &j, &pre).unwrap();
        let p = path_for(&dir, &j);
        let fresh = std::fs::read(&p).unwrap();
        // The last pinned `EBCPPRE4` file, and this stream behind each
        // older magic.
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/preres_v4.bin");
        let mut olds = vec![std::fs::read(golden).unwrap()];
        assert_eq!(&olds[0][..8], b"EBCPPRE4");
        for old in [b"EBCPPRE2", b"EBCPPRE3", b"EBCPPRE4"] {
            let mut bytes = fresh.clone();
            bytes[..8].copy_from_slice(old);
            olds.push(bytes);
        }
        for bytes in olds {
            std::fs::write(&p, &bytes).unwrap();
            assert!(matches!(load_checked(&dir, &j), CacheRead::Miss));
            assert!(p.exists(), "stale formats are overwritten, not quarantined");
            save(&dir, &j, &pre).unwrap();
            assert_eq!(std::fs::read(&p).unwrap(), fresh, "rebuilt in place");
            assert_eq!(
                std::fs::read_dir(p.parent().unwrap()).unwrap().count(),
                1,
                "no *.corrupt or temp file beside the stream"
            );
        }
    }

    /// Three blocks of hand-picked events, the last one empty.
    fn golden_blocks() -> Vec<PreBlock> {
        let ev = |pc, dline, gap, flags| PreEvent {
            pc,
            dline,
            gap,
            flags,
        };
        vec![
            PreBlock {
                events: vec![ev(0x100, 0x8000, 3, 1), ev(0x104, 0, 0, 0x2a)],
                records: 3,
            },
            PreBlock {
                events: vec![ev(u64::MAX, 1 << 40, u32::MAX, 7)],
                records: 2,
            },
            PreBlock {
                events: Vec::new(),
                records: 1,
            },
        ]
    }

    #[test]
    fn golden_file_pins_format() {
        // `EBCP_BLESS_GOLDEN=1` regenerates the pinned file after an
        // *intentional* format revision.
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/preres_v5.bin");
        let dir = tmpdir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.bin");
        let mut w = PreresWriter(SegWriter::create(&path, b"golden-v4", 3).unwrap());
        for b in golden_blocks() {
            w.push_block(&b.events, b.records).unwrap();
        }
        w.finish().unwrap();
        let fresh = std::fs::read(&path).unwrap();
        if std::env::var_os("EBCP_BLESS_GOLDEN").is_some() {
            std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
            std::fs::write(&golden, &fresh).unwrap();
        }
        let pinned = std::fs::read(&golden).expect("golden file missing");
        assert_eq!(
            fresh, pinned,
            "stream format drifted from the pinned golden file"
        );
        let stream = PreresStream(
            SegReader::open(&golden, b"golden-v4", Backing::Buffered).expect("pinned bytes verify"),
        );
        assert_eq!(stream.records(), 6);
        assert_eq!(stream.blocks().collect::<Vec<_>>(), golden_blocks());
    }

    #[test]
    fn truncated_file_is_quarantined() {
        let dir = tmpdir("trunc");
        let j = job();
        let pre = j.spec.pre_resolve();
        save(&dir, &j, &pre).unwrap();
        let p = path_for(&dir, &j);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 13]).unwrap();
        expect_quarantined(load_checked(&dir, &j), "checksum");
        assert!(!p.exists(), "the corrupt file must be moved away");
        // Self-heal: saving again restores a loadable entry.
        save(&dir, &j, &pre).unwrap();
        assert_eq!(load(&dir, &j), Some(pre));
    }

    #[test]
    fn bit_flip_in_payload_is_quarantined() {
        let dir = tmpdir("flip");
        let j = job();
        save(&dir, &j, &j.spec.pre_resolve()).unwrap();
        let p = path_for(&dir, &j);
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();
        expect_quarantined(load_checked(&dir, &j), "checksum");
    }

    #[test]
    fn mid_segment_bit_flip_is_quarantined_at_stream_open() {
        // The streamed open must catch damage inside an interior
        // segment up front (eager verification), not when the block is
        // eventually read.
        let dir = tmpdir("segflip");
        let j = job();
        let pre = j.spec.pre_resolve();
        let blocks = ebcp_sim::segment_events(&pre, 4_000);
        assert!(blocks.len() >= 3, "need interior segments");
        let mut w = PreresWriter::create(&dir, &j, 4_000).unwrap();
        for b in &blocks {
            w.push_block(&b.events, b.records).unwrap();
        }
        w.finish().unwrap();
        let p = path_for(&dir, &j);
        let mut bytes = std::fs::read(&p).unwrap();
        // Damage payload somewhere past the first block.
        let at = 12 + (blocks[0].events.len() + 2) * EventCodec::WIDTH;
        bytes[at] ^= 0x08;
        std::fs::write(&p, &bytes).unwrap();
        expect_quarantined(open_stream_checked(&dir, &j), "checksum mismatch");
    }

    #[test]
    fn trailing_garbage_is_quarantined() {
        let dir = tmpdir("trailing");
        let j = job();
        save(&dir, &j, &j.spec.pre_resolve()).unwrap();
        let p = path_for(&dir, &j);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.extend_from_slice(b"garbage appended after the footer");
        std::fs::write(&p, &bytes).unwrap();
        // The appended bytes shift the footer window, so the footer
        // checksum rejects before any length check even runs.
        expect_quarantined(load_checked(&dir, &j), "checksum");
    }

    #[test]
    fn header_payload_length_disagreement_is_quarantined() {
        // A crafted file with *valid* header/index/footer checksums
        // whose payload length disagrees with the index event counts:
        // only the layout-arithmetic check catches it. Insert a
        // phantom event at the end of the payload and leave everything
        // else untouched — the index checksums still verify (they
        // cover the original payload spans), but the index no longer
        // reaches the footer.
        let dir = tmpdir("exactlen");
        let j = job();
        save(&dir, &j, &j.spec.pre_resolve()).unwrap();
        let p = path_for(&dir, &j);
        let bytes = std::fs::read(&p).unwrap();
        let cut = bytes.len() - FOOTER_BYTES - INDEX_ENTRY_BYTES;
        let mut crafted = bytes[..cut].to_vec();
        crafted.extend_from_slice(&[0u8; EventCodec::WIDTH]); // phantom event
        crafted.extend_from_slice(&bytes[cut..]);
        std::fs::write(&p, &crafted).unwrap();
        expect_quarantined(load_checked(&dir, &j), "disagrees with the index");
    }

    /// The container's property suite, instantiated once per codec. It
    /// lives here because this is the lowest crate that sees both.
    mod container_props {
        use std::fmt::Debug;

        use ebcp_trace::segfile::{
            verify, Backing, Codec, Layout, SegReader, SegWriter, SegfileError, TraceCodec,
        };
        use ebcp_trace::{Op, TraceRecord};
        use ebcp_types::{Addr, Pc};
        use proptest::prelude::*;

        use super::*;

        /// Segments as `(items, records)` pairs.
        type Segs<T> = Vec<(Vec<T>, u64)>;

        fn arb_segments<T: Debug>(
            item: impl Strategy<Value = T>,
        ) -> impl Strategy<Value = Segs<T>> {
            let seg = (proptest::collection::vec(item, 0..6), 1u64..50);
            proptest::collection::vec(seg, 1..4)
        }

        fn arb_record() -> impl Strategy<Value = TraceRecord> {
            (0u32..7, any::<u64>(), any::<u64>()).prop_map(|(kind, pc, addr)| {
                let addr = Addr::new(addr);
                let op = match kind {
                    0 => Op::Alu,
                    1 | 2 => Op::Load {
                        addr,
                        feeds_mispredict: kind == 2,
                    },
                    3 => Op::Store { addr },
                    4 | 5 => Op::Branch {
                        mispredicted: kind == 5,
                    },
                    _ => Op::Serialize,
                };
                TraceRecord::new(Pc::new(pc), op)
            })
        }

        fn arb_event() -> impl Strategy<Value = PreEvent> {
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
                |(pc, dline, gap, flags)| PreEvent {
                    pc,
                    dline,
                    gap,
                    flags,
                },
            )
        }

        const META: &[u8] = b"prop";

        /// A scratch file path, its directory removed on drop.
        fn scratch(tag: &str) -> (crate::TmpDir, PathBuf) {
            let dir = tmpdir(&format!("props-{tag}"));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("s.bin");
            (dir, path)
        }

        /// Writes `segs` at `path` and returns the file's bytes.
        fn write<C: Codec>(path: &Path, segs: &Segs<C::Item>) -> Vec<u8> {
            let mut w = SegWriter::<C>::create(path, META, 8).unwrap();
            for (items, records) in segs {
                w.push(items).unwrap();
                w.end_segment(*records);
            }
            w.finish().unwrap();
            std::fs::read(path).unwrap()
        }

        fn check<C: Codec>(bytes: &[u8]) -> Result<Layout, SegfileError> {
            verify::<C>(&mut io::Cursor::new(bytes), META)
        }

        macro_rules! suite {
            ($name:ident, $codec:ty, $item:expr) => {
                mod $name {
                    use super::*;

                    proptest! {
                        /// Every segment reads back as written through
                        /// both backings.
                        #[test]
                        fn segments_round_trip(segs in arb_segments($item)) {
                            let (_dir, path) = scratch("rt");
                            write::<$codec>(&path, &segs);
                            for backing in [Backing::Buffered, Backing::Mmap] {
                                let mut r = SegReader::<$codec>::open(&path, META, backing).unwrap();
                                let records: u64 = segs.iter().map(|s| s.1).sum();
                                prop_assert_eq!(r.footer().records, records);
                                prop_assert_eq!(r.segments().len(), segs.len());
                                for (k, (items, records)) in segs.iter().enumerate() {
                                    prop_assert_eq!(r.segments()[k].records, *records);
                                    prop_assert_eq!(&r.read_segment(k).unwrap(), items);
                                }
                            }
                        }

                        /// Every proper prefix of a valid file (a torn
                        /// write, a cut copy) is refused.
                        #[test]
                        fn every_truncated_prefix_is_refused(segs in arb_segments($item)) {
                            let (_dir, path) = scratch("prefix");
                            let bytes = write::<$codec>(&path, &segs);
                            prop_assert!(check::<$codec>(&bytes).is_ok(), "the whole file verifies");
                            for cut in 0..bytes.len() {
                                prop_assert!(
                                    check::<$codec>(&bytes[..cut]).is_err(),
                                    "a {}-byte prefix opened", cut
                                );
                            }
                        }

                        /// Arbitrary bytes, foreign or behind the codec's
                        /// magic, never open.
                        #[test]
                        fn arbitrary_bytes_never_open(
                            body in proptest::collection::vec(any::<u8>(), 0..400),
                            ours in any::<bool>(),
                        ) {
                            let mut bytes = if ours { <$codec>::MAGIC.to_vec() } else { Vec::new() };
                            bytes.extend_from_slice(&body);
                            prop_assert!(check::<$codec>(&bytes).is_err());
                        }

                        /// Arbitrary byte edits at distinct offsets of a
                        /// valid file never open.
                        #[test]
                        fn edited_file_never_opens(
                            segs in arb_segments($item),
                            edits in proptest::collection::vec((any::<usize>(), 1u8..255), 1..4),
                        ) {
                            let (_dir, path) = scratch("edit");
                            let mut bytes = write::<$codec>(&path, &segs);
                            let mut at: Vec<(usize, u8)> =
                                edits.iter().map(|&(p, d)| (p % bytes.len(), d)).collect();
                            at.sort_unstable();
                            at.dedup_by_key(|e| e.0);
                            for (p, d) in at {
                                bytes[p] ^= d;
                            }
                            prop_assert!(check::<$codec>(&bytes).is_err());
                        }

                        /// A change confined to one aligned 8-byte word of
                        /// a segment's payload is always called corrupt,
                        /// naming that segment.
                        #[test]
                        fn a_one_word_payload_change_is_always_caught(
                            segs in arb_segments($item),
                            pick in any::<usize>(),
                            mask in 1u64..u64::MAX,
                        ) {
                            let (_dir, path) = scratch("word");
                            let mut bytes = write::<$codec>(&path, &segs);
                            // Only segments with items have payload words.
                            let full: Vec<usize> =
                                (0..segs.len()).filter(|&k| !segs[k].0.is_empty()).collect();
                            if let Some(&k) = full.get(pick % full.len().max(1)) {
                                let width = <$codec>::WIDTH;
                                let base = 12 + META.len()
                                    + segs[..k].iter().map(|s| s.0.len() * width).sum::<usize>();
                                let words = segs[k].0.len() * width / 8;
                                let at = base + pick / full.len() % words * 8;
                                let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                                bytes[at..at + 8].copy_from_slice(&(word ^ mask).to_le_bytes());
                                match check::<$codec>(&bytes) {
                                    Err(SegfileError::Corrupt(why)) => {
                                        let want = format!("segment {k} checksum");
                                        prop_assert!(why.contains(&want), "{}", why);
                                    }
                                    _ => panic!("a one-word change at byte {at} was not called corrupt"),
                                }
                            }
                        }
                    }
                }
            };
        }

        suite!(traces, TraceCodec, arb_record());
        suite!(streams, EventCodec, arb_event());
    }
}
