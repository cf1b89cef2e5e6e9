//! On-disk cache for pre-resolved event streams.
//!
//! A stream depends only on `(workload, seed, record count, L1
//! geometry)` — see [`Job::pre_key`](crate::Job::pre_key) — so across
//! processes the front-end pass runs once per workload and every later
//! sweep deserializes the packed events instead of re-resolving the
//! trace. Files live under `<store_dir>/preres/<2-hex>/<pre_key>.bin`,
//! sharded — like result entries — by the key's first two hex digits;
//! flat pre-sharding files migrate transparently (swept on store open,
//! or read-through on first load).
//!
//! Format v4 ("EBCPPRE4"), all integers little-endian. The event
//! payload is cut into **segments** (each standing for a whole number
//! of trace records) with a per-segment index, so the large tier can
//! replay a stream block at a time — O(segment) peak memory — while
//! the quick tier keeps writing one segment covering the whole stream:
//!
//! ```text
//! magic     8 B   "EBCPPRE4"
//! canon_len u32   length of the canonical key string
//! canon     ...   the exact string `pre_key` hashed (collision guard)
//! payload   per-segment runs of events
//!               { pc u64, dline u64, gap u32, flags u32 }  (24 B each)
//! index     n_segs x { n_events u64, records u64, checksum u64 }
//!               (checksum = word FNV-1a over that segment's payload)
//! footer   48 B   records u64 | seg_records u64 | n_segs u64
//!               | index_checksum u64      (over the index)
//!               | head_checksum u64       (over magic..canon)
//!               | footer_checksum u64     (over the 40 preceding
//!                                          footer bytes)
//! ```
//!
//! Every checksum is [`word_fnv64`]: FNV-1a over little-endian `u64`
//! words (an event is exactly three), shared with the segmented trace
//! format. v3 ("EBCPPRE3") was the same layout with byte-wise FNV-1a.
//!
//! The index and totals live in a footer so [`PreresWriter`] can
//! stream blocks out in one pass without knowing the totals up front
//! (`seg_records` is the writer's nominal segment length in records,
//! recorded for operator display — block replay reads per-segment
//! record counts from the index).
//!
//! Loads are **integrity-checked**. A wrong magic (an older format
//! revision, e.g. "EBCPPRE3" or the single-blob "EBCPPRE2") or a
//! canonical-string mismatch (hash collision) is *staleness*: a plain
//! miss, overwritten in place by the next save. A checksum mismatch, truncation, or
//! length that disagrees with the index is *corruption*: the file is
//! quarantined (renamed to `*.corrupt`) and the front-end pass
//! transparently re-runs, overwriting the original path (self-heal).
//! Either way a bad entry only costs one front-end pass, never a wrong
//! stream. [`open_stream_checked`] verifies header, index, footer
//! **and every segment checksum** in one sequential O(segment) pass at
//! open, so [`PreresStream::block`] reads during replay skip
//! re-verification.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ebcp_sim::frontend::{PreBlock, PreEvent, PreResolved};
use ebcp_sim::RunSpec;
use ebcp_trace::checksum::{word_fnv64, WordFnv};

use crate::job::{Job, CANON_VERSION};
use crate::store::{quarantine, unique_tmp, CacheRead};

/// v4 ("EBCPPRE4"): segmented payload with per-segment index and word
/// checksums.
const MAGIC: &[u8; 8] = b"EBCPPRE4";

/// Bytes per packed event (`pc u64, dline u64, gap u32, flags u32`).
pub const EVENT_BYTES: u64 = 24;

/// Bytes per index entry (`n_events u64, records u64, checksum u64`).
const INDEX_ENTRY_BYTES: u64 = 24;

/// Bytes of the trailing footer.
const FOOTER_BYTES: u64 = 48;

/// Write buffer of a [`PreresWriter`]: streams run to tens of MiB, and
/// the default 8 KiB buffer costs one `write` call per 8 KiB.
const WRITE_BUFFER_BYTES: usize = 1 << 18;

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

/// The legacy flat path streams lived at before sharding.
fn flat_path_for(store_dir: &Path, job: &Job) -> PathBuf {
    store_dir
        .join("preres")
        .join(format!("{:016x}.bin", job.pre_key()))
}

/// One-time sweep moving flat (pre-sharding) stream files — and their
/// `.corrupt` quarantines — into shard directories. Best effort and
/// idempotent; called when a [`crate::ResultStore`] opens.
pub(crate) fn migrate_flat_streams(store_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(store_dir.join("preres")) else {
        return;
    };
    for entry in entries.flatten() {
        // `DirEntry::file_type`, not a `stat` per shard directory.
        if !entry.file_type().is_ok_and(|t| t.is_file()) {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let stem = name.strip_suffix(".corrupt").unwrap_or(name);
        let ok = matches!(stem.strip_suffix(".bin"),
            Some(hex) if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()));
        if !ok {
            continue;
        }
        let shard = store_dir.join("preres").join(&name[..2]);
        if std::fs::create_dir_all(&shard).is_ok() {
            let _ = std::fs::rename(entry.path(), shard.join(name));
        }
    }
}

// ---------------------------------------------------------------------------
// Writing

/// Streaming writer for a job's cached stream: push blocks as the
/// front-end pass produces them; nothing but the index and a small
/// encode batch is buffered. Written to a pid- and sequence-unique temp
/// file and renamed on [`PreresWriter::finish`] so concurrent writers
/// never interleave and readers never observe a partial file. A writer
/// dropped before a successful `finish` removes its temp file.
pub struct PreresWriter {
    w: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    head_checksum: u64,
    seg_records: u64,
    records: u64,
    index: Vec<(u64, u64, u64)>,
    /// Set once the rename has put the file in place.
    published: bool,
}

impl PreresWriter {
    /// Starts a stream for `job` under `store_dir`. `seg_records` is
    /// the nominal segment length in records (recorded in the footer;
    /// the tail block may run short).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create(store_dir: &Path, job: &Job, seg_records: u64) -> io::Result<PreresWriter> {
        let path = path_for(store_dir, job);
        let dir = path.parent().expect("path_for always has a parent");
        std::fs::create_dir_all(dir)?;
        PreresWriter::create_at(path, pre_canonical(&job.spec).as_bytes(), seg_records)
    }

    /// [`PreresWriter::create`] for a stream published at `path` with
    /// collision guard `canon`.
    fn create_at(path: PathBuf, canon: &[u8], seg_records: u64) -> io::Result<PreresWriter> {
        let mut head = Vec::with_capacity(12 + canon.len());
        head.extend_from_slice(MAGIC);
        head.extend_from_slice(&(canon.len() as u32).to_le_bytes());
        head.extend_from_slice(canon);
        let tmp = unique_tmp(&path, "bin");
        let mut writer = PreresWriter {
            w: BufWriter::with_capacity(WRITE_BUFFER_BYTES, File::create(&tmp)?),
            tmp,
            path,
            head_checksum: word_fnv64(&head),
            seg_records,
            records: 0,
            index: Vec::new(),
            published: false,
        };
        writer.w.write_all(&head)?;
        Ok(writer)
    }

    /// Appends one segment: `events` covering `records` trace records,
    /// encoded and hashed a bounded batch at a time.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn push_block(&mut self, events: &[PreEvent], records: u64) -> io::Result<()> {
        const BATCH: usize = 256;
        let mut hash = WordFnv::new();
        let mut buf = [0u8; BATCH * EVENT_BYTES as usize];
        for batch in events.chunks(BATCH) {
            let bytes = &mut buf[..batch.len() * EVENT_BYTES as usize];
            for (out, ev) in bytes.chunks_exact_mut(EVENT_BYTES as usize).zip(batch) {
                out[0..8].copy_from_slice(&ev.pc.to_le_bytes());
                out[8..16].copy_from_slice(&ev.dline.to_le_bytes());
                out[16..20].copy_from_slice(&ev.gap.to_le_bytes());
                out[20..24].copy_from_slice(&ev.flags.to_le_bytes());
            }
            hash.update(bytes);
            self.w.write_all(bytes)?;
        }
        self.index
            .push((events.len() as u64, records, hash.finish()));
        self.records += records;
        Ok(())
    }

    /// Writes index + footer and atomically renames into place.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures; the tmp file is removed on a
    /// failed publish.
    pub fn finish(mut self) -> io::Result<()> {
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_BYTES as usize);
        for &(n_events, records, checksum) in &self.index {
            index_bytes.extend_from_slice(&n_events.to_le_bytes());
            index_bytes.extend_from_slice(&records.to_le_bytes());
            index_bytes.extend_from_slice(&checksum.to_le_bytes());
        }
        let mut footer = Vec::with_capacity(FOOTER_BYTES as usize);
        footer.extend_from_slice(&self.records.to_le_bytes());
        footer.extend_from_slice(&self.seg_records.to_le_bytes());
        footer.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        footer.extend_from_slice(&word_fnv64(&index_bytes).to_le_bytes());
        footer.extend_from_slice(&self.head_checksum.to_le_bytes());
        footer.extend_from_slice(&word_fnv64(&footer).to_le_bytes());
        self.w.write_all(&index_bytes)?;
        self.w.write_all(&footer)?;
        self.w.flush()?;
        std::fs::rename(&self.tmp, &self.path)?;
        self.published = true;
        Ok(())
    }
}

impl Drop for PreresWriter {
    fn drop(&mut self) {
        if !self.published {
            // Best effort: a leftover temp name is never read as a stream.
            let _ = std::fs::remove_file(&self.tmp);
        }
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

// ---------------------------------------------------------------------------
// Reading

#[derive(Clone)]
struct SegEntry {
    n_events: u64,
    records: u64,
    /// Byte offset of this segment's payload from the payload base.
    byte_off: u64,
}

/// A validated, open stream whose blocks are read lazily — the
/// bounded-memory counterpart of a loaded [`PreResolved`].
pub struct PreresStream {
    file: File,
    payload_base: u64,
    records: u64,
    seg_records: u64,
    index: Vec<SegEntry>,
}

impl PreresStream {
    /// Total trace records the stream stands for.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The writer's nominal segment length in records.
    pub fn seg_records(&self) -> u64 {
        self.seg_records
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.index.len()
    }

    /// Reads segment `k` (validated at open; no re-verification).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn block(&mut self, k: usize) -> io::Result<PreBlock> {
        let seg = &self.index[k];
        let mut bytes = vec![0u8; (seg.n_events * EVENT_BYTES) as usize];
        self.file
            .seek(SeekFrom::Start(self.payload_base + seg.byte_off))?;
        self.file.read_exact(&mut bytes)?;
        let mut events = Vec::with_capacity(seg.n_events as usize);
        for ev in bytes.chunks_exact(EVENT_BYTES as usize) {
            events.push(PreEvent {
                pc: u64::from_le_bytes(ev[0..8].try_into().unwrap()),
                dline: u64::from_le_bytes(ev[8..16].try_into().unwrap()),
                gap: u32::from_le_bytes(ev[16..20].try_into().unwrap()),
                flags: u32::from_le_bytes(ev[20..24].try_into().unwrap()),
            });
        }
        Ok(PreBlock {
            events,
            records: seg.records,
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
        (0..self.index.len()).map(move |k| self.block(k).expect("validated stream read mid-replay"))
    }
}

fn read_exact_at(r: &mut (impl Read + Seek), pos: u64, buf: &mut [u8]) -> io::Result<()> {
    r.seek(SeekFrom::Start(pos))?;
    r.read_exact(buf)
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte window"))
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
/// replay. Verification (header, index, footer, every segment
/// checksum) runs in one sequential O(segment)-memory pass; corruption
/// quarantines the file, staleness and collisions are plain misses —
/// exactly the [`load_checked`] semantics.
pub fn open_stream_checked(store_dir: &Path, job: &Job) -> CacheRead<PreresStream> {
    let path = path_for(store_dir, job);
    if !path.exists() {
        // Rename-based migration from the flat pre-sharding path.
        let flat = flat_path_for(store_dir, job);
        if flat.is_file() {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = std::fs::rename(&flat, &path);
        }
    }
    open_at(path, pre_canonical(&job.spec).as_bytes())
}

/// [`open_stream_checked`] of the stream at `path`, whose collision
/// guard must read `canon`.
fn open_at(path: PathBuf, canon: &[u8]) -> CacheRead<PreresStream> {
    let Ok(mut file) = File::open(&path) else {
        return CacheRead::Miss;
    };
    let Ok(file_len) = file.metadata().map(|m| m.len()) else {
        return CacheRead::Miss;
    };
    match verify(&mut file, file_len, canon) {
        Ok(Layout {
            payload_base,
            records,
            seg_records,
            index,
        }) => CacheRead::Hit(PreresStream {
            file,
            payload_base,
            records,
            seg_records,
            index,
        }),
        Err(None) => CacheRead::Miss,
        Err(Some(reason)) => quarantine(path, reason),
    }
}

/// What [`verify`] found in a stream file that checks out.
struct Layout {
    payload_base: u64,
    records: u64,
    seg_records: u64,
    index: Vec<SegEntry>,
}

/// Why a stream file was refused: `None` is a plain miss (another
/// format revision, another spec, a failed read), `Some(reason)` is
/// corruption.
type Refusal = Option<String>;

fn corrupt<T>(reason: impl Into<String>) -> Result<T, Refusal> {
    Err(Some(reason.into()))
}

/// Reads `buf` at `pos`; a failed read is a miss, not damage.
fn read_at(r: &mut (impl Read + Seek), pos: u64, buf: &mut [u8]) -> Result<(), Refusal> {
    read_exact_at(r, pos, buf).map_err(|_| None)
}

/// Verifies the `file_len`-byte stream in `r` whose collision guard must
/// read `canon`: header, footer, index and every segment checksum, in
/// one sequential O(segment)-memory pass, so block reads during replay
/// can skip re-hashing.
fn verify(r: &mut (impl Read + Seek), file_len: u64, canon: &[u8]) -> Result<Layout, Refusal> {
    let min_len = 12 + FOOTER_BYTES;
    if file_len < min_len {
        // Too short to carry a header: ours-but-cut is corruption, a
        // foreign prefix is staleness.
        let mut prefix = vec![0u8; file_len.min(8) as usize];
        read_at(r, 0, &mut prefix)?;
        return if !prefix.is_empty() && prefix.starts_with(&MAGIC[..prefix.len().min(8)]) {
            corrupt("truncated header")
        } else {
            Err(None)
        };
    }

    let mut head_fixed = [0u8; 12];
    read_at(r, 0, &mut head_fixed)?;
    if &head_fixed[0..8] != MAGIC {
        // An older format revision (e.g. "EBCPPRE3") is staleness, not
        // corruption: plain miss, overwritten on save.
        return Err(None);
    }
    let canon_len = u64::from(u32::from_le_bytes(
        head_fixed[8..12].try_into().expect("4-byte window"),
    ));
    let payload_base = 12 + canon_len;
    if payload_base + FOOTER_BYTES > file_len {
        return corrupt(format!(
            "canon length {canon_len} overruns the {file_len}-byte file"
        ));
    }

    let mut footer = [0u8; FOOTER_BYTES as usize];
    read_at(r, file_len - FOOTER_BYTES, &mut footer)?;
    if word_fnv64(&footer[0..40]) != le_u64(&footer, 40) {
        return corrupt("footer checksum mismatch");
    }
    let records = le_u64(&footer, 0);
    let seg_records = le_u64(&footer, 8);
    let n_segs = le_u64(&footer, 16);
    let index_checksum = le_u64(&footer, 24);
    let head_checksum = le_u64(&footer, 32);

    let mut head = vec![0u8; payload_base as usize];
    read_at(r, 0, &mut head)?;
    if word_fnv64(&head) != head_checksum {
        return corrupt("header checksum mismatch");
    }
    if head[12..] != *canon {
        // Collision guard: a valid stream for a *different* spec.
        return Err(None);
    }

    if n_segs > file_len / INDEX_ENTRY_BYTES {
        return corrupt(format!("implausible segment count {n_segs}"));
    }
    let index_len = n_segs * INDEX_ENTRY_BYTES;
    if payload_base + index_len + FOOTER_BYTES > file_len {
        return corrupt("index overruns the file");
    }
    let index_base = file_len - FOOTER_BYTES - index_len;
    let mut index_bytes = vec![0u8; index_len as usize];
    read_at(r, index_base, &mut index_bytes)?;
    if word_fnv64(&index_bytes) != index_checksum {
        return corrupt("index checksum mismatch");
    }
    let mut index = Vec::with_capacity(n_segs as usize);
    let mut byte_off = 0u64;
    let mut rec_sum = 0u64;
    for entry in index_bytes.chunks_exact(INDEX_ENTRY_BYTES as usize) {
        let n_events = le_u64(entry, 0);
        let records = le_u64(entry, 8);
        index.push(SegEntry {
            n_events,
            records,
            byte_off,
        });
        // Checked: the checksums guard against damage, not crafting.
        let (Some(off), Some(sum)) = (
            n_events
                .checked_mul(EVENT_BYTES)
                .and_then(|n| byte_off.checked_add(n)),
            rec_sum.checked_add(records),
        ) else {
            return corrupt("index counts overflow");
        };
        byte_off = off;
        rec_sum = sum;
    }
    if payload_base.checked_add(byte_off) != Some(index_base) {
        return corrupt(format!(
            "payload length {} disagrees with header event count {}",
            index_base - payload_base,
            byte_off / EVENT_BYTES
        ));
    }
    if rec_sum != records {
        return corrupt(format!(
            "index sums to {rec_sum} records, footer claims {records}"
        ));
    }

    let mut buf = Vec::new();
    for (k, (seg, entry)) in index
        .iter()
        .zip(index_bytes.chunks_exact(INDEX_ENTRY_BYTES as usize))
        .enumerate()
    {
        buf.resize((seg.n_events * EVENT_BYTES) as usize, 0);
        read_at(r, payload_base + seg.byte_off, &mut buf)?;
        if word_fnv64(&buf) != le_u64(entry, 16) {
            return corrupt(format!("segment {k} checksum mismatch"));
        }
    }

    Ok(Layout {
        payload_base,
        records,
        seg_records,
        index,
    })
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
    match open_stream_checked(store_dir, job) {
        CacheRead::Hit(mut stream) => {
            let total: u64 = stream.index.iter().map(|s| s.n_events).sum();
            let mut events = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
            for k in 0..stream.n_segments() {
                match stream.block(k) {
                    Ok(b) => events.extend_from_slice(&b.events),
                    Err(_) => return CacheRead::Miss,
                }
            }
            CacheRead::Hit(PreResolved {
                events,
                records: stream.records,
                l1i: job.spec.sim.l1i,
                l1d: job.spec.sim.l1d,
            })
        }
        CacheRead::Miss => CacheRead::Miss,
        CacheRead::Quarantined { path, reason } => CacheRead::Quarantined { path, reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::{PrefetcherSpec, SimConfig};
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
        assert_eq!(stream.seg_records(), 3_000);
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
        for old in [b"EBCPPRE2", b"EBCPPRE3"] {
            let mut bytes = fresh.clone();
            bytes[..8].copy_from_slice(old);
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

    #[test]
    fn dropped_writer_leaves_no_temp_file() {
        let dir = tmpdir("drop");
        let j = job();
        let pre = j.spec.pre_resolve();
        let mut w = PreresWriter::create(&dir, &j, 3_000).unwrap();
        w.push_block(&pre.events[..10], 100).unwrap();
        drop(w);
        let shard = path_for(&dir, &j).parent().unwrap().to_path_buf();
        assert_eq!(std::fs::read_dir(&shard).unwrap().count(), 0);
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
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/preres_v4.bin");
        let dir = tmpdir("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.bin");
        let mut w = PreresWriter::create_at(path.clone(), b"golden-v4", 3).unwrap();
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
        let stream = open_at(golden, b"golden-v4")
            .into_hit()
            .expect("pinned bytes verify");
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
        let at = 12 + (blocks[0].events.len() + 2) * EVENT_BYTES as usize;
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
    fn flat_stream_migrates_on_sweep_and_read_through() {
        let dir = tmpdir("shard-migrate");
        let j = job();
        let pre = j.spec.pre_resolve();
        save(&dir, &j, &pre).unwrap();
        let sharded = path_for(&dir, &j);
        let flat = flat_path_for(&dir, &j);

        // Read-through: a flat file written by pre-sharding code is
        // found, loaded, and moved into its shard.
        std::fs::rename(&sharded, &flat).unwrap();
        assert_eq!(load(&dir, &j), Some(pre.clone()));
        assert!(!flat.exists() && sharded.is_file());

        // Sweep: the store-open migration pass moves flat files too.
        std::fs::rename(&sharded, &flat).unwrap();
        migrate_flat_streams(&dir);
        assert!(!flat.exists() && sharded.is_file());
        assert_eq!(load(&dir, &j), Some(pre));
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
        let cut = bytes.len() - (FOOTER_BYTES + INDEX_ENTRY_BYTES) as usize;
        let mut crafted = bytes[..cut].to_vec();
        crafted.extend_from_slice(&[0u8; EVENT_BYTES as usize]); // phantom event
        crafted.extend_from_slice(&bytes[cut..]);
        std::fs::write(&p, &crafted).unwrap();
        expect_quarantined(load_checked(&dir, &j), "disagrees with header event count");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_blocks() -> impl Strategy<Value = Vec<PreBlock>> {
            let event = (any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
                |(pc, dline, gap, flags)| PreEvent {
                    pc,
                    dline,
                    gap,
                    flags,
                },
            );
            let block = (proptest::collection::vec(event, 0..6), 1u64..50)
                .prop_map(|(events, records)| PreBlock { events, records });
            proptest::collection::vec(block, 1..4)
        }

        /// Writes `blocks` as a stream at `path` and returns its bytes.
        fn write(path: &Path, blocks: &[PreBlock]) -> Vec<u8> {
            let mut w = PreresWriter::create_at(path.to_path_buf(), b"prop", 8).unwrap();
            for b in blocks {
                w.push_block(&b.events, b.records).unwrap();
            }
            w.finish().unwrap();
            std::fs::read(path).unwrap()
        }

        /// How `bytes` verify as a stream file guarded by "prop".
        fn check(bytes: &[u8]) -> Result<Layout, Refusal> {
            verify(&mut io::Cursor::new(bytes), bytes.len() as u64, b"prop")
        }

        fn opens(bytes: &[u8]) -> bool {
            check(bytes).is_ok()
        }

        fn temp_stream(tag: &str) -> (crate::TmpDir, PathBuf) {
            let dir = tmpdir(tag);
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("s.bin");
            (dir, path)
        }

        proptest! {
            /// Every proper prefix of a valid stream reads as a miss or
            /// a quarantine, never a hit.
            #[test]
            fn every_truncated_prefix_is_refused(blocks in arb_blocks()) {
                let (_dir, path) = temp_stream("prefix");
                let bytes = write(&path, &blocks);
                prop_assert!(opens(&bytes), "the whole file verifies");
                for cut in 0..bytes.len() {
                    prop_assert!(!opens(&bytes[..cut]), "a {cut}-byte prefix opened");
                }
            }

            /// Arbitrary bytes, foreign or behind this format's magic,
            /// never open as a stream.
            #[test]
            fn arbitrary_bytes_never_open(
                body in proptest::collection::vec(any::<u8>(), 0..400),
                ours in any::<bool>(),
            ) {
                let mut bytes = if ours { MAGIC.to_vec() } else { Vec::new() };
                bytes.extend_from_slice(&body);
                prop_assert!(!opens(&bytes));
            }

            /// Arbitrary byte edits at distinct offsets of a valid stream
            /// never open.
            #[test]
            fn edited_stream_never_opens(
                blocks in arb_blocks(),
                edits in proptest::collection::vec((any::<usize>(), 1u8..255), 1..4),
            ) {
                let (_dir, path) = temp_stream("edit");
                let mut bytes = write(&path, &blocks);
                let mut at: Vec<(usize, u8)> =
                    edits.iter().map(|&(p, d)| (p % bytes.len(), d)).collect();
                at.sort_unstable();
                at.dedup_by_key(|e| e.0);
                for (p, d) in at {
                    bytes[p] ^= d;
                }
                prop_assert!(!opens(&bytes));
            }

            /// A change confined to one 8-byte word of a block's payload
            /// is always quarantined, naming that block.
            #[test]
            fn a_one_word_payload_change_is_always_caught(
                blocks in arb_blocks(),
                pick in any::<usize>(),
                mask in 1u64..u64::MAX,
            ) {
                let (_dir, path) = temp_stream("word");
                let mut bytes = write(&path, &blocks);
                // Only blocks with events have payload words to change.
                let full: Vec<usize> =
                    (0..blocks.len()).filter(|&k| !blocks[k].events.is_empty()).collect();
                if let Some(&k) = full.get(pick % full.len().max(1)) {
                    let base: usize = 12 + 4 + blocks[..k]
                        .iter()
                        .map(|b| b.events.len() * EVENT_BYTES as usize)
                        .sum::<usize>();
                    let words = blocks[k].events.len() * EVENT_BYTES as usize / 8;
                    let at = base + pick / full.len() % words * 8;
                    let word = le_u64(&bytes, at) ^ mask;
                    bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
                    match check(&bytes) {
                        Err(Some(reason)) => {
                            let want = format!("segment {k} checksum");
                            prop_assert!(reason.contains(&want), "{reason}");
                        }
                        _ => panic!("a one-word change at byte {at} was not called corrupt"),
                    }
                }
            }
        }
    }
}
