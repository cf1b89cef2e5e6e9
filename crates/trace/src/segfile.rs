//! Segmented on-disk trace format for scale-out workloads.
//!
//! Quick-scale traces fit in a `Vec<TraceRecord>`; the ~100x large tier
//! does not. This module stores a trace **once** on disk in a compact,
//! mmap-friendly layout and replays it through the same chunked-delivery
//! interface the engine already consumes, so peak memory is bounded by
//! one *segment* (a fixed-length span of records, cut at record
//! boundaries so epoch structure is preserved across a cut — see
//! DESIGN.md §3f) instead of the whole trace.
//!
//! ```text
//! magic "EBCPSEG2"   (8 bytes)
//! meta_len           (u32 LE)
//! meta               (meta_len bytes; caller-defined collision guard,
//!                     e.g. the canonical workload/seed string)
//! payload            records x 17 bytes, little-endian fixed width:
//!     tag   (u8: 0=Alu 1=Load 2=LoadFeedsMispredict 3=Store
//!                4=Branch 5=BranchMispredicted 6=Serialize)
//!     pc    (u64)
//!     addr  (u64; 0 for ops without a data address)
//! index              n_segs x { records u64, checksum u64 }
//!                    (checksum = word FNV-1a over that segment's payload)
//! footer (48 bytes): records u64 | seg_records u64 | n_segs u64
//!                  | index_checksum u64        (over the index)
//!                  | head_checksum u64         (over magic..meta)
//!                  | footer_checksum u64       (over the 40 preceding
//!                                               footer bytes)
//! ```
//!
//! Every checksum is [`word_fnv64`](crate::checksum::word_fnv64): FNV-1a
//! over little-endian `u64` words, a trailing partial word folded byte
//! by byte. Version 1 (`EBCPSEG1`) was the same layout with byte-wise
//! FNV-1a; its files now read as stale.
//!
//! The index and totals live in a *footer* so [`TraceSink`] can stream
//! the payload in a single pass without knowing the record count up
//! front. Failure semantics follow the result store's cache discipline:
//!
//! * wrong magic, or a verified header whose meta differs from the
//!   caller's expectation → [`SegfileError::Stale`] (a plain cache miss:
//!   regenerate and overwrite);
//! * any checksum/length disagreement → [`SegfileError::Corrupt`]
//!   (callers quarantine the file as `*.corrupt` and regenerate).
//!
//! [`SegmentedTrace::open`] verifies the header, index, footer **and
//! every segment checksum** in one sequential O(segment)-memory pass, so
//! corruption is surfaced at open time (where the quarantine/regenerate
//! machinery lives), and windows loaded during replay can skip
//! re-verification. The cost is one extra sequential read of the file
//! per open; replay itself stays zero-copy under the mmap backing.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ebcp_types::{Addr, Pc};

use crate::checksum::{word_fnv64, WordFnv};
use crate::record::{Op, TraceRecord};

/// Magic prefix of the segmented trace format, version 2.
pub const SEG_MAGIC: &[u8; 8] = b"EBCPSEG2";
/// Fixed width of one encoded record.
pub const RECORD_BYTES: usize = 17;
/// Width of one index entry (`records u64 | checksum u64`).
pub const INDEX_ENTRY_BYTES: usize = 16;
/// Width of the trailing footer.
pub const FOOTER_BYTES: usize = 48;
/// Write buffer of a [`TraceSink`]: a trace runs to hundreds of MiB,
/// and the default 8 KiB buffer costs one `write` call per 8 KiB.
const WRITE_BUFFER_BYTES: usize = 1 << 18;

// ---------------------------------------------------------------------------
// Errors

/// Error opening or validating a segmented trace file.
#[derive(Debug)]
pub enum SegfileError {
    /// The file is not this format version (or carries different meta):
    /// treat as a plain cache miss and regenerate in place.
    Stale,
    /// The file claims to be this format but fails a checksum or length
    /// check: quarantine as `*.corrupt` and regenerate.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for SegfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegfileError::Stale => f.write_str("not a current-version segmented trace"),
            SegfileError::Corrupt(why) => write!(f, "corrupt segmented trace: {why}"),
            SegfileError::Io(e) => write!(f, "segmented trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for SegfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegfileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SegfileError {
    fn from(e: io::Error) -> Self {
        SegfileError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Record codec (fixed width)

fn encode_record_fixed(out: &mut [u8], r: &TraceRecord) {
    let (tag, addr) = match r.op {
        Op::Alu => (0u8, 0u64),
        Op::Load {
            addr,
            feeds_mispredict,
        } => (if feeds_mispredict { 2 } else { 1 }, addr.get()),
        Op::Store { addr } => (3, addr.get()),
        Op::Branch { mispredicted } => (if mispredicted { 5 } else { 4 }, 0),
        Op::Serialize => (6, 0),
    };
    out[0] = tag;
    out[1..9].copy_from_slice(&r.pc.get().to_le_bytes());
    out[9..17].copy_from_slice(&addr.to_le_bytes());
}

/// Decodes one fixed-width record. The payload was checksum-verified at
/// open, so a bad tag here means writer-side corruption of our own
/// making — the same trust boundary as a corrupt `PreEvent` kind — and
/// panics rather than threading an error through the replay hot path.
fn decode_record_fixed(buf: &[u8]) -> TraceRecord {
    let tag = buf[0];
    let pc = Pc::new(u64::from_le_bytes(buf[1..9].try_into().unwrap()));
    let addr = u64::from_le_bytes(buf[9..17].try_into().unwrap());
    let op = match tag {
        0 => Op::Alu,
        1 | 2 => Op::Load {
            addr: Addr::new(addr),
            feeds_mispredict: tag == 2,
        },
        3 => Op::Store {
            addr: Addr::new(addr),
        },
        4 | 5 => Op::Branch {
            mispredicted: tag == 5,
        },
        6 => Op::Serialize,
        t => unreachable!("corrupt segment record tag {t} after checksum verification"),
    };
    TraceRecord::new(pc, op)
}

// ---------------------------------------------------------------------------
// Unique tmp names (pid + sequence, so concurrent writers never collide;
// the final rename makes the publish atomic). Local copy of the harness
// store discipline: this crate sits below the harness.

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique_tmp(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("seg"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(format!(".tmp.{pid}.{seq}"));
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Writer

/// Single-pass streaming writer: generators emit the trace **once**
/// through this sink; every later replay comes from the file.
///
/// Records stream through a buffered writer with a running per-segment
/// checksum state, which carries at most 7 bytes between records, so
/// nothing larger than a small encode batch is ever buffered.
/// [`TraceSink::finish`] closes the partial tail segment, appends the
/// index and footer, and atomically renames the tmp file into place. A
/// sink dropped before a successful `finish` removes its tmp file, so an
/// abandoned write (a panicking consumer, a failed publish) leaves
/// nothing behind.
pub struct TraceSink {
    w: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    head_checksum: u64,
    seg_records: u64,
    records: u64,
    seg_fill: u64,
    seg_hash: WordFnv,
    index: Vec<(u64, u64)>,
    /// Set once the rename has put the file in place.
    published: bool,
}

impl TraceSink {
    /// Starts writing a segmented trace that will be published at
    /// `path` on [`finish`](TraceSink::finish). `meta` is an opaque
    /// collision guard (the caller's canonical identity string);
    /// `seg_records` is the fixed segment length in records.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure creating the tmp file.
    ///
    /// # Panics
    ///
    /// Panics if `seg_records` is zero or `meta` exceeds `u32::MAX`.
    pub fn create(path: &Path, meta: &[u8], seg_records: u64) -> io::Result<TraceSink> {
        assert!(seg_records > 0, "segment length must be at least 1 record");
        let meta_len = u32::try_from(meta.len()).expect("meta fits u32");
        let tmp = unique_tmp(path);
        let file = File::create(&tmp)?;
        let mut head = Vec::with_capacity(12 + meta.len());
        head.extend_from_slice(SEG_MAGIC);
        head.extend_from_slice(&meta_len.to_le_bytes());
        head.extend_from_slice(meta);
        let mut sink = TraceSink {
            w: BufWriter::with_capacity(WRITE_BUFFER_BYTES, file),
            tmp,
            path: path.to_path_buf(),
            head_checksum: word_fnv64(&head),
            seg_records,
            records: 0,
            seg_fill: 0,
            seg_hash: WordFnv::new(),
            index: Vec::new(),
            published: false,
        };
        sink.w.write_all(&head)?;
        Ok(sink)
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    pub fn push(&mut self, r: &TraceRecord) -> io::Result<()> {
        self.push_chunk(std::slice::from_ref(r))
    }

    /// Appends a batch of records (e.g. one generator chunk), encoding
    /// them a bounded batch at a time, never across a segment boundary.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    pub fn push_chunk(&mut self, mut rs: &[TraceRecord]) -> io::Result<()> {
        const BATCH: usize = 256;
        let mut buf = [0u8; BATCH * RECORD_BYTES];
        while !rs.is_empty() {
            let room = (self.seg_records - self.seg_fill).min(BATCH as u64) as usize;
            let (batch, rest) = rs.split_at(room.min(rs.len()));
            let bytes = &mut buf[..batch.len() * RECORD_BYTES];
            for (out, r) in bytes.chunks_exact_mut(RECORD_BYTES).zip(batch) {
                encode_record_fixed(out, r);
            }
            self.seg_hash.update(bytes);
            self.w.write_all(bytes)?;
            self.records += batch.len() as u64;
            self.seg_fill += batch.len() as u64;
            if self.seg_fill == self.seg_records {
                self.close_segment();
            }
            rs = rest;
        }
        Ok(())
    }

    fn close_segment(&mut self) {
        self.index.push((self.seg_fill, self.seg_hash.finish()));
        self.seg_fill = 0;
        self.seg_hash = WordFnv::new();
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Closes the tail segment, writes index + footer and atomically
    /// renames into place. Returns the record count.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure; the tmp file is removed on
    /// a failed publish.
    pub fn finish(mut self) -> io::Result<u64> {
        if self.seg_fill > 0 {
            self.close_segment();
        }
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_BYTES);
        for &(records, checksum) in &self.index {
            index_bytes.extend_from_slice(&records.to_le_bytes());
            index_bytes.extend_from_slice(&checksum.to_le_bytes());
        }
        let mut footer = Vec::with_capacity(FOOTER_BYTES);
        footer.extend_from_slice(&self.records.to_le_bytes());
        footer.extend_from_slice(&self.seg_records.to_le_bytes());
        footer.extend_from_slice(&(self.index.len() as u64).to_le_bytes());
        footer.extend_from_slice(&word_fnv64(&index_bytes).to_le_bytes());
        footer.extend_from_slice(&self.head_checksum.to_le_bytes());
        footer.extend_from_slice(&word_fnv64(&footer).to_le_bytes());
        self.w.write_all(&index_bytes)?;
        self.w.write_all(&footer)?;
        // No fsync, as in every store writer: the checksum walk at
        // open quarantines a torn file (DESIGN.md §3f).
        self.w.flush()?;
        std::fs::rename(&self.tmp, &self.path)?;
        self.published = true;
        Ok(self.records)
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        if !self.published {
            // Best effort: a leftover tmp name is never read as a trace.
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// mmap plumbing (linux only; everything else, and any mmap failure,
// falls back to buffered reads). Raw FFI because the workspace is
// hermetic — no libc crate. The constants are the shared glibc/musl
// Linux values; the page size is queried, never assumed, because
// aarch64 kernels ship 4K/16K/64K pages.

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const _SC_PAGESIZE: i32 = 30;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }

    pub fn page_size() -> u64 {
        // Every Linux page size is a power of two >= 4096; fall back to
        // the universal lower bound if sysconf misbehaves.
        let ps = unsafe { sysconf(_SC_PAGESIZE) };
        if ps > 0 {
            ps as u64
        } else {
            4096
        }
    }
}

/// How [`SegmentedTrace`] loads segment windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backing {
    /// Zero-copy page-cache windows via `mmap` where available
    /// (silently degrades to [`Backing::Buffered`] elsewhere or when a
    /// mapping fails).
    Mmap,
    /// Plain `seek` + `read` into an owned buffer.
    Buffered,
}

/// One loaded segment window: either an owned buffer or a read-only
/// private mapping (with the page-alignment slack tracked so the
/// payload slice starts at the right byte).
enum Window {
    Buf(Vec<u8>),
    #[cfg(target_os = "linux")]
    Map {
        ptr: *mut std::ffi::c_void,
        map_len: usize,
        delta: usize,
        bytes: usize,
    },
}

// SAFETY: a `Map` window is a read-only MAP_PRIVATE mapping; the raw
// pointer is only dereferenced through `payload()` shared borrows and
// `munmap` is thread-agnostic, so moving the window across threads
// (harness workers) is sound.
unsafe impl Send for Window {}

impl Window {
    fn payload(&self) -> &[u8] {
        match self {
            Window::Buf(v) => v,
            #[cfg(target_os = "linux")]
            Window::Map {
                ptr, delta, bytes, ..
            } => unsafe { std::slice::from_raw_parts((*ptr as *const u8).add(*delta), *bytes) },
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            Window::Buf(v) => v.len(),
            #[cfg(target_os = "linux")]
            Window::Map { map_len, .. } => *map_len,
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Window::Map { ptr, map_len, .. } = self {
            unsafe {
                ffi::munmap(*ptr, *map_len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader

struct SegEntry {
    records: u64,
    checksum: u64,
    /// Absolute record index of this segment's first record.
    first_record: u64,
}

/// Zero-copy reader over a file written by [`TraceSink`].
///
/// Replays records through [`SegmentedTrace::next_chunk`] — the same
/// chunked-delivery contract as [`TraceGenerator::next_chunk`]
/// (`crate::ChunkSource`) — holding at most one segment window resident
/// at a time.
///
/// [`TraceGenerator::next_chunk`]: crate::TraceGenerator::next_chunk
pub struct SegmentedTrace {
    file: File,
    backing: Backing,
    payload_base: u64,
    records: u64,
    seg_records: u64,
    index: Vec<SegEntry>,
    cur_seg: usize,
    /// Records already consumed from the current segment.
    cur_off: u64,
    window: Option<Window>,
}

fn read_exact_at(file: &mut File, pos: u64, buf: &mut [u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(pos))?;
    file.read_exact(buf)
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

impl SegmentedTrace {
    /// Opens and fully validates a segmented trace.
    ///
    /// `expected_meta` must match the meta the file was written with
    /// (the caller's collision guard); a verified header with different
    /// meta is [`SegfileError::Stale`], exactly like a canonical-string
    /// mismatch in the result store. Validation checks the footer and
    /// index checksums, the arithmetic consistency of the layout, and
    /// every segment checksum in one sequential O(segment)-memory pass.
    ///
    /// # Errors
    ///
    /// [`SegfileError::Stale`] for wrong-version/wrong-meta files,
    /// [`SegfileError::Corrupt`] for checksum or length disagreements,
    /// [`SegfileError::Io`] for underlying failures.
    pub fn open(
        path: &Path,
        expected_meta: &[u8],
        backing: Backing,
    ) -> Result<SegmentedTrace, SegfileError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let min_len = (12 + FOOTER_BYTES) as u64;
        if file_len < min_len {
            // Too short to even carry a magic: if the prefix matches our
            // magic it is a truncation (corrupt), otherwise foreign.
            let mut prefix = vec![0u8; file_len.min(8) as usize];
            read_exact_at(&mut file, 0, &mut prefix)?;
            return if prefix.starts_with(&SEG_MAGIC[..prefix.len().min(8)]) && !prefix.is_empty() {
                Err(SegfileError::Corrupt(format!(
                    "file is {file_len} bytes, shorter than the {min_len}-byte minimum"
                )))
            } else {
                Err(SegfileError::Stale)
            };
        }

        let mut head_fixed = [0u8; 12];
        read_exact_at(&mut file, 0, &mut head_fixed)?;
        if &head_fixed[0..8] != SEG_MAGIC {
            return Err(SegfileError::Stale);
        }
        let meta_len = u64::from(u32::from_le_bytes(head_fixed[8..12].try_into().unwrap()));
        let payload_base = 12 + meta_len;
        if payload_base + FOOTER_BYTES as u64 > file_len {
            return Err(SegfileError::Corrupt(format!(
                "meta length {meta_len} overruns the {file_len}-byte file"
            )));
        }

        let mut footer = [0u8; FOOTER_BYTES];
        read_exact_at(&mut file, file_len - FOOTER_BYTES as u64, &mut footer)?;
        if word_fnv64(&footer[0..40]) != le_u64(&footer, 40) {
            return Err(SegfileError::Corrupt("footer checksum mismatch".into()));
        }
        let records = le_u64(&footer, 0);
        let seg_records = le_u64(&footer, 8);
        let n_segs = le_u64(&footer, 16);
        let index_checksum = le_u64(&footer, 24);
        let head_checksum = le_u64(&footer, 32);

        let mut head = vec![0u8; payload_base as usize];
        read_exact_at(&mut file, 0, &mut head)?;
        if word_fnv64(&head) != head_checksum {
            return Err(SegfileError::Corrupt("header checksum mismatch".into()));
        }
        if &head[12..] != expected_meta {
            // Header verified intact but written for different contents:
            // a stale/foreign entry, not damage.
            return Err(SegfileError::Stale);
        }

        // Bounding both counts by the file length keeps the layout
        // arithmetic below from overflowing on a crafted footer.
        if seg_records == 0
            || n_segs != records.div_ceil(seg_records)
            || n_segs > (file_len / INDEX_ENTRY_BYTES as u64)
            || records > (file_len / RECORD_BYTES as u64)
        {
            return Err(SegfileError::Corrupt(format!(
                "footer geometry inconsistent: {records} records / {seg_records} per segment \
                 vs {n_segs} segments"
            )));
        }
        let expect_len = payload_base
            + records * RECORD_BYTES as u64
            + n_segs * INDEX_ENTRY_BYTES as u64
            + FOOTER_BYTES as u64;
        if expect_len != file_len {
            return Err(SegfileError::Corrupt(format!(
                "file is {file_len} bytes, layout implies {expect_len}"
            )));
        }

        let index_base = payload_base + records * RECORD_BYTES as u64;
        let mut index_bytes = vec![0u8; (n_segs * INDEX_ENTRY_BYTES as u64) as usize];
        read_exact_at(&mut file, index_base, &mut index_bytes)?;
        if word_fnv64(&index_bytes) != index_checksum {
            return Err(SegfileError::Corrupt("index checksum mismatch".into()));
        }
        let mut index = Vec::with_capacity(n_segs as usize);
        let mut first_record = 0u64;
        for (k, entry) in index_bytes.chunks_exact(INDEX_ENTRY_BYTES).enumerate() {
            let seg_len = le_u64(entry, 0);
            let full = seg_len == seg_records;
            let tail = k as u64 == n_segs - 1 && seg_len == records - first_record;
            if seg_len == 0 || (!full && !tail) {
                return Err(SegfileError::Corrupt(format!(
                    "segment {k} claims {seg_len} records, inconsistent with \
                     {seg_records}-record segments over {records} records"
                )));
            }
            index.push(SegEntry {
                records: seg_len,
                checksum: le_u64(entry, 8),
                first_record,
            });
            first_record += seg_len;
        }
        if first_record != records {
            return Err(SegfileError::Corrupt(format!(
                "index sums to {first_record} records, footer claims {records}"
            )));
        }

        // Eager integrity pass: verify every segment checksum now, with
        // one reusable O(segment) buffer, so replay can trust windows
        // without re-hashing and corruption hits the quarantine path at
        // open time.
        let mut buf = Vec::new();
        for (k, seg) in index.iter().enumerate() {
            let len = (seg.records * RECORD_BYTES as u64) as usize;
            buf.resize(len, 0);
            read_exact_at(
                &mut file,
                payload_base + seg.first_record * RECORD_BYTES as u64,
                &mut buf,
            )?;
            if word_fnv64(&buf) != seg.checksum {
                return Err(SegfileError::Corrupt(format!(
                    "segment {k} checksum mismatch"
                )));
            }
        }

        Ok(SegmentedTrace {
            file,
            backing,
            payload_base,
            records,
            seg_records,
            index,
            cur_seg: 0,
            cur_off: 0,
            window: None,
        })
    }

    /// Total records in the trace.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The fixed segment length (the last segment may be shorter).
    pub fn seg_records(&self) -> u64 {
        self.seg_records
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.index.len()
    }

    /// Records in segment `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn segment_records(&self, k: usize) -> u64 {
        self.index[k].records
    }

    /// Bytes resident for the currently loaded window (mapping length
    /// or buffer length) — the quantity the harness memory budget
    /// charges per streamed worker.
    pub fn window_bytes(&self) -> usize {
        self.window.as_ref().map_or(0, Window::resident_bytes)
    }

    /// Repositions the cursor at the start of segment `k`, dropping the
    /// current window.
    ///
    /// # Panics
    ///
    /// Panics if `k > n_segments()` (`== n_segments()` positions at
    /// end-of-trace).
    pub fn seek_segment(&mut self, k: usize) {
        assert!(k <= self.index.len(), "segment {k} out of range");
        self.cur_seg = k;
        self.cur_off = 0;
        self.window = None;
    }

    /// Loads (or returns) the window for `cur_seg`.
    fn window(&mut self) -> io::Result<&Window> {
        if self.window.is_none() {
            let seg = &self.index[self.cur_seg];
            let start = self.payload_base + seg.first_record * RECORD_BYTES as u64;
            let bytes = (seg.records * RECORD_BYTES as u64) as usize;
            let w = match self.backing {
                Backing::Mmap => self
                    .try_mmap(start, bytes)
                    .map_or_else(|| self.read_window(start, bytes), Ok)?,
                Backing::Buffered => self.read_window(start, bytes)?,
            };
            self.window = Some(w);
        }
        Ok(self.window.as_ref().unwrap())
    }

    fn read_window(&mut self, start: u64, bytes: usize) -> io::Result<Window> {
        let mut buf = vec![0u8; bytes];
        read_exact_at(&mut self.file, start, &mut buf)?;
        Ok(Window::Buf(buf))
    }

    #[cfg(target_os = "linux")]
    fn try_mmap(&self, start: u64, bytes: usize) -> Option<Window> {
        use std::os::fd::AsRawFd;
        if bytes == 0 {
            return Some(Window::Buf(Vec::new()));
        }
        let page = ffi::page_size();
        let aligned = start / page * page;
        let delta = (start - aligned) as usize;
        let map_len = delta + bytes;
        let offset = i64::try_from(aligned).ok()?;
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                map_len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                self.file.as_raw_fd(),
                offset,
            )
        };
        if ptr as isize == -1 {
            return None; // silently fall back to buffered
        }
        Some(Window::Map {
            ptr,
            map_len,
            delta,
            bytes,
        })
    }

    #[cfg(not(target_os = "linux"))]
    fn try_mmap(&self, _start: u64, _bytes: usize) -> Option<Window> {
        None
    }

    /// Refills `out` with up to `max` decoded records, advancing the
    /// cursor across segment boundaries as needed. Returns the number
    /// delivered; `0` means end of trace. Same contract as
    /// [`TraceGenerator::next_chunk`](crate::TraceGenerator::next_chunk).
    ///
    /// # Panics
    ///
    /// Panics on I/O failure while loading a window (replay reads from
    /// a file that was fully validated at open; a read failing mid-run
    /// is an environment fault, same as the generator's allocator).
    pub fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        out.clear();
        while out.len() < max && self.cur_seg < self.index.len() {
            let seg_records = self.index[self.cur_seg].records;
            let want = (max - out.len()) as u64;
            let take = want.min(seg_records - self.cur_off);
            let from = (self.cur_off * RECORD_BYTES as u64) as usize;
            let upto = from + (take * RECORD_BYTES as u64) as usize;
            let window = self
                .window()
                .expect("validated segment window read failed mid-replay");
            for rec in window.payload()[from..upto].chunks_exact(RECORD_BYTES) {
                out.push(decode_record_fixed(rec));
            }
            self.cur_off += take;
            if self.cur_off == seg_records {
                self.cur_seg += 1;
                self.cur_off = 0;
                self.window = None;
            }
        }
        out.len()
    }
}

/// Writes `trace` to `path` in one call (tests and small traces; the
/// large tier streams through [`TraceSink`] directly).
///
/// # Errors
///
/// Returns any underlying I/O failure.
pub fn write_segmented(
    path: &Path,
    meta: &[u8],
    seg_records: u64,
    trace: &[TraceRecord],
) -> io::Result<u64> {
    let mut sink = TraceSink::create(path, meta, seg_records)?;
    sink.push_chunk(trace)?;
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadSpec};

    /// A scratch directory under the temp dir, removed on drop.
    struct TmpDir(PathBuf);

    impl std::ops::Deref for TmpDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TmpDir {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tmpdir(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!(
            "ebcp-segfile-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::alu(Pc::new(0x100)),
            TraceRecord::load(Pc::new(0x104), Addr::new(0x8000)),
            TraceRecord::new(
                Pc::new(0x108),
                Op::Load {
                    addr: Addr::new(0x9000),
                    feeds_mispredict: true,
                },
            ),
            TraceRecord::store(Pc::new(0x10c), Addr::new(0xa000)),
            TraceRecord::new(
                Pc::new(0x110),
                Op::Branch {
                    mispredicted: false,
                },
            ),
            TraceRecord::new(Pc::new(0x114), Op::Branch { mispredicted: true }),
            TraceRecord::new(Pc::new(0x118), Op::Serialize),
        ]
    }

    fn read_all(st: &mut SegmentedTrace, chunk: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while st.next_chunk(&mut buf, chunk) > 0 {
            out.extend_from_slice(&buf);
        }
        out
    }

    #[test]
    fn round_trip_both_backings() {
        let dir = tmpdir("rt");
        let path = dir.join("t.seg");
        let trace = sample();
        assert_eq!(write_segmented(&path, b"meta", 3, &trace).unwrap(), 7);
        for backing in [Backing::Buffered, Backing::Mmap] {
            let mut st = SegmentedTrace::open(&path, b"meta", backing).unwrap();
            assert_eq!(st.records(), 7);
            assert_eq!(st.n_segments(), 3); // 3 + 3 + 1
            assert_eq!(st.segment_records(2), 1);
            for chunk in [1, 2, 3, 5, 100] {
                st.seek_segment(0);
                assert_eq!(read_all(&mut st, chunk), trace, "chunk size {chunk}");
            }
        }
    }

    #[test]
    fn mmap_decode_identical_to_buffered() {
        let dir = tmpdir("ident");
        let path = dir.join("t.seg");
        let spec = WorkloadSpec::database().scaled(1, 64);
        let trace: Vec<_> = TraceGenerator::new(&spec, 7).take(10_000).collect();
        write_segmented(&path, b"m", 1024, &trace).unwrap();
        let mut a = SegmentedTrace::open(&path, b"m", Backing::Mmap).unwrap();
        let mut b = SegmentedTrace::open(&path, b"m", Backing::Buffered).unwrap();
        assert_eq!(read_all(&mut a, 4096), read_all(&mut b, 4096));
        assert_eq!(read_all(&mut b, 4096), Vec::new()); // exhausted
    }

    #[test]
    fn seek_segment_replays_that_segment() {
        let dir = tmpdir("seek");
        let path = dir.join("t.seg");
        let trace = sample();
        write_segmented(&path, b"", 2, &trace).unwrap();
        let mut st = SegmentedTrace::open(&path, b"", Backing::Buffered).unwrap();
        assert_eq!(st.n_segments(), 4);
        st.seek_segment(2);
        let mut buf = Vec::new();
        st.next_chunk(&mut buf, 2);
        assert_eq!(buf, &trace[4..6]);
        // Reading on from here walks to the end.
        st.next_chunk(&mut buf, 100);
        assert_eq!(buf, &trace[6..]);
        assert_eq!(st.next_chunk(&mut buf, 100), 0);
        // Seeking to n_segments() positions at end-of-trace.
        st.seek_segment(4);
        assert_eq!(st.next_chunk(&mut buf, 100), 0);
    }

    #[test]
    fn empty_trace_round_trips() {
        let dir = tmpdir("empty");
        let path = dir.join("t.seg");
        assert_eq!(write_segmented(&path, b"x", 8, &[]).unwrap(), 0);
        let mut st = SegmentedTrace::open(&path, b"x", Backing::Mmap).unwrap();
        assert_eq!(st.records(), 0);
        assert_eq!(st.n_segments(), 0);
        let mut buf = Vec::new();
        assert_eq!(st.next_chunk(&mut buf, 16), 0);
    }

    #[test]
    fn wrong_magic_is_stale() {
        let dir = tmpdir("magic");
        let path = dir.join("t.seg");
        write_segmented(&path, b"", 4, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..8].copy_from_slice(b"EBCPSEG0");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
    }

    #[test]
    fn version_1_file_is_stale() {
        // `golden/trace_v1.seg` is the last pinned `EBCPSEG1` file (the
        // same sample, byte-wise checksums): a plain miss, never damage.
        let v1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/trace_v1.seg");
        assert_eq!(&std::fs::read(&v1).unwrap()[..8], b"EBCPSEG1");
        assert!(matches!(
            SegmentedTrace::open(&v1, b"golden-v1", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
    }

    #[test]
    fn dropped_sink_leaves_no_tmp_file() {
        let dir = tmpdir("drop");
        let path = dir.join("t.seg");
        let mut sink = TraceSink::create(&path, b"m", 2).unwrap();
        sink.push_chunk(&sample()[..3]).unwrap();
        drop(sink);
        assert!(!path.exists(), "an unfinished sink publishes nothing");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "tmp file left behind"
        );
    }

    #[test]
    fn meta_mismatch_is_stale() {
        let dir = tmpdir("meta");
        let path = dir.join("t.seg");
        write_segmented(&path, b"workload-a", 4, &sample()).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"workload-b", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
        // ... but the matching guard opens fine.
        assert!(SegmentedTrace::open(&path, b"workload-a", Backing::Buffered).is_ok());
    }

    #[test]
    fn payload_bit_flip_is_corrupt() {
        let dir = tmpdir("flip");
        let path = dir.join("t.seg");
        write_segmented(&path, b"m", 3, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the *second* segment's payload.
        let at = 13 + 4 * RECORD_BYTES + 5;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match SegmentedTrace::open(&path, b"m", Backing::Mmap) {
            Err(SegfileError::Corrupt(why)) => assert!(why.contains("segment 1"), "{why}"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got Ok"),
        }
    }

    #[test]
    fn truncation_is_corrupt() {
        let dir = tmpdir("trunc");
        let path = dir.join("t.seg");
        write_segmented(&path, b"m", 3, &sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 5, bytes.len() - FOOTER_BYTES - 3, 30] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(
                    SegmentedTrace::open(&path, b"m", Backing::Buffered),
                    Err(SegfileError::Corrupt(_))
                ),
                "cut at {cut}"
            );
        }
        // A short file that isn't ours at all is stale, not corrupt.
        std::fs::write(&path, b"hello").unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
    }

    #[test]
    fn index_and_footer_damage_is_corrupt() {
        let dir = tmpdir("idx");
        let path = dir.join("t.seg");
        write_segmented(&path, b"m", 3, &sample()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Index entry bit flip.
        let mut bytes = clean.clone();
        let index_base = bytes.len() - FOOTER_BYTES - 3 * INDEX_ENTRY_BYTES;
        bytes[index_base + 2] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Corrupt(_))
        ));
        // Footer bit flip.
        let mut bytes = clean.clone();
        let n = bytes.len();
        bytes[n - 20] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Corrupt(_))
        ));
        // Trailing garbage changes the length arithmetic.
        let mut bytes = clean;
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Corrupt(_))
        ));
    }

    #[test]
    fn window_bytes_reports_resident_segment() {
        let dir = tmpdir("win");
        let path = dir.join("t.seg");
        let spec = WorkloadSpec::tpcw().scaled(1, 64);
        let trace: Vec<_> = TraceGenerator::new(&spec, 3).take(5_000).collect();
        write_segmented(&path, b"m", 2_000, &trace).unwrap();
        let mut st = SegmentedTrace::open(&path, b"m", Backing::Buffered).unwrap();
        assert_eq!(st.window_bytes(), 0); // nothing loaded yet
        let mut buf = Vec::new();
        st.next_chunk(&mut buf, 10);
        assert_eq!(st.window_bytes(), 2_000 * RECORD_BYTES);
        // Draining past the boundary swaps, never stacks, windows.
        while st.next_chunk(&mut buf, 1_024) > 0 {
            assert!(st.window_bytes() <= 2_000 * RECORD_BYTES + ffi_page_slack());
        }
    }

    #[cfg(target_os = "linux")]
    fn ffi_page_slack() -> usize {
        ffi::page_size() as usize
    }
    #[cfg(not(target_os = "linux"))]
    fn ffi_page_slack() -> usize {
        0
    }

    #[test]
    fn golden_file_pins_format() {
        // The golden file is the io.rs sample trace written with
        // seg_records=3 and meta "golden-v1". Any byte drift in the
        // encoder shows up as a mismatch here; `EBCP_BLESS_GOLDEN=1`
        // regenerates it after an *intentional* format revision.
        let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/trace_v2.seg");
        let dir = tmpdir("golden");
        let path = dir.join("t.seg");
        write_segmented(&path, b"golden-v1", 3, &sample()).unwrap();
        let fresh = std::fs::read(&path).unwrap();
        if std::env::var_os("EBCP_BLESS_GOLDEN").is_some() {
            std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
            std::fs::write(&golden_path, &fresh).unwrap();
        }
        let pinned = std::fs::read(&golden_path).expect("golden file missing");
        assert_eq!(
            fresh, pinned,
            "segment format drifted from the pinned golden file"
        );
        // And the pinned bytes decode to the expected records.
        let mut st = SegmentedTrace::open(&golden_path, b"golden-v1", Backing::Buffered).unwrap();
        assert_eq!(read_all(&mut st, 4), sample());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_record() -> impl Strategy<Value = TraceRecord> {
            (
                0u32..7,
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(),
            )
                .prop_map(|(kind, pc, addr)| {
                    let pc = Pc::new(pc);
                    let op = match kind {
                        0 => Op::Alu,
                        1 => Op::Load {
                            addr: Addr::new(addr),
                            feeds_mispredict: false,
                        },
                        2 => Op::Load {
                            addr: Addr::new(addr),
                            feeds_mispredict: true,
                        },
                        3 => Op::Store {
                            addr: Addr::new(addr),
                        },
                        4 => Op::Branch {
                            mispredicted: false,
                        },
                        5 => Op::Branch { mispredicted: true },
                        _ => Op::Serialize,
                    };
                    TraceRecord::new(pc, op)
                })
        }

        proptest! {
            /// Arbitrary records -> encode -> decode through both
            /// backings is identity, for arbitrary segment lengths and
            /// chunk sizes.
            #[test]
            fn encode_decode_round_trips(
                recs in proptest::collection::vec(arb_record(), 0..300),
                seg_records in 1u64..40,
                chunk in 1usize..70,
            ) {
                let dir = tmpdir("prop");
                let path = dir.join("t.seg");
                write_segmented(&path, b"prop", seg_records, &recs).unwrap();
                for backing in [Backing::Buffered, Backing::Mmap] {
                    let mut st = SegmentedTrace::open(&path, b"prop", backing).unwrap();
                    prop_assert_eq!(st.records(), recs.len() as u64);
                    prop_assert_eq!(
                        st.n_segments() as u64,
                        (recs.len() as u64).div_ceil(seg_records)
                    );
                    let back = read_all(&mut st, chunk);
                    prop_assert_eq!(&back, &recs);
                }
            }

            /// Every proper prefix of a valid file (a torn write, a cut
            /// copy) reads as stale or corrupt, never as a trace.
            #[test]
            fn every_truncated_prefix_is_refused(
                recs in proptest::collection::vec(arb_record(), 0..8),
                seg_records in 1u64..4,
            ) {
                let dir = tmpdir("prefix");
                let path = dir.join("t.seg");
                write_segmented(&path, b"p", seg_records, &recs).unwrap();
                let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                for cut in (0..file.metadata().unwrap().len()).rev() {
                    file.set_len(cut).unwrap();
                    let read = SegmentedTrace::open(&path, b"p", Backing::Buffered);
                    prop_assert!(read.is_err(), "a {cut}-byte prefix opened");
                }
            }

            /// Arbitrary bytes, foreign or behind this format's magic,
            /// never open as a trace.
            #[test]
            fn arbitrary_bytes_never_open(
                body in proptest::collection::vec(any::<u8>(), 0..400),
                ours in any::<bool>(),
            ) {
                let dir = tmpdir("arb");
                let path = dir.join("t.seg");
                let mut bytes = if ours { SEG_MAGIC.to_vec() } else { Vec::new() };
                bytes.extend_from_slice(&body);
                std::fs::write(&path, &bytes).unwrap();
                prop_assert!(SegmentedTrace::open(&path, b"", Backing::Buffered).is_err());
            }

            /// Arbitrary byte edits at distinct offsets of a valid file
            /// read as stale or corrupt.
            #[test]
            fn edited_file_never_opens(
                recs in proptest::collection::vec(arb_record(), 1..40),
                seg_records in 1u64..8,
                edits in proptest::collection::vec((any::<usize>(), 1u8..255), 1..4),
            ) {
                let dir = tmpdir("edit");
                let path = dir.join("t.seg");
                write_segmented(&path, b"edit", seg_records, &recs).unwrap();
                let mut bytes = std::fs::read(&path).unwrap();
                let mut at: Vec<(usize, u8)> =
                    edits.iter().map(|&(p, d)| (p % bytes.len(), d)).collect();
                at.sort_unstable();
                at.dedup_by_key(|e| e.0);
                for (p, d) in at {
                    bytes[p] ^= d;
                }
                std::fs::write(&path, &bytes).unwrap();
                prop_assert!(SegmentedTrace::open(&path, b"edit", Backing::Buffered).is_err());
            }

            /// A change confined to one aligned 8-byte word of a
            /// segment's payload is always caught, by that segment's
            /// checksum.
            #[test]
            fn a_one_word_payload_change_is_always_caught(
                recs in proptest::collection::vec(arb_record(), 1..60),
                seg_records in 1u64..10,
                pick in any::<usize>(),
                mask in 1u64..u64::MAX,
            ) {
                let dir = tmpdir("word");
                let path = dir.join("t.seg");
                write_segmented(&path, b"w", seg_records, &recs).unwrap();
                let mut bytes = std::fs::read(&path).unwrap();
                let n_segs = recs.len().div_ceil(seg_records as usize);
                let k = pick % n_segs;
                let first = k * seg_records as usize;
                let seg_bytes = (recs.len() - first).min(seg_records as usize) * RECORD_BYTES;
                let at = 13 + first * RECORD_BYTES + pick / n_segs % (seg_bytes / 8) * 8;
                let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) ^ mask;
                bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                match SegmentedTrace::open(&path, b"w", Backing::Buffered) {
                    Err(SegfileError::Corrupt(why)) => {
                        prop_assert!(why.contains(&format!("segment {k} checksum")), "{why}");
                    }
                    Err(other) => panic!("expected Corrupt, got {other:?}"),
                    Ok(_) => panic!("a one-word change at byte {at} went unnoticed"),
                }
            }
        }
    }
}
