//! The segmented container: the one on-disk layout of generated traces
//! and pre-resolved event streams.
//!
//! Quick-scale traces fit in memory; the ~100x large tier does not. The
//! container stores a stream of fixed-width items **once**, cut into
//! *segments* that each stand for a whole number of trace records (so
//! epoch structure survives a cut — DESIGN.md §3f), and reads it back a
//! segment at a time, so peak memory is one segment. A [`Codec`] fixes
//! the item type, its width and the file's magic:
//!
//! | codec | item | width | magic |
//! |---|---|---|---|
//! | [`TraceCodec`] | [`TraceRecord`] | 17 B | `EBCPSEG3` |
//! | `ebcp_harness::preres::EventCodec` | `PreEvent` | 24 B | `EBCPPRE5` |
//!
//! ```text
//! magic              8 bytes, the codec's
//! meta_len           u32
//! meta               meta_len bytes; caller-defined collision guard,
//!                    e.g. the canonical workload/seed string
//! payload            per-segment runs of items, the codec's width each
//! index              n_segs x { items u64, records u64, checksum u64 }
//!                    (checksum = word FNV over that segment's payload)
//! footer (48 bytes): records u64 | seg_records u64 | n_segs u64
//!                  | index_checksum u64        (over the index)
//!                  | head_checksum u64         (over magic..meta)
//!                  | footer_checksum u64       (over the 40 preceding
//!                                               footer bytes)
//! ```
//!
//! All integers are little-endian. `records` is the sum of the index's
//! record counts; `seg_records` is the writer's nominal segment length.
//! A trace has one record per item and full segments but the last (the
//! [`SegmentedTrace`] rule on top of the shared walk); an event stream
//! has one event per L1 miss or gap filler, so its segments hold any
//! number of items.
//!
//! Every checksum is [`word_fnv64`]: FNV-1a over little-endian `u64`
//! words with the high half folded down each step, a trailing partial
//! word folded byte by byte. Earlier revisions read as stale: `EBCPSEG1`
//! and `EBCPPRE3` hashed bytes, `EBCPSEG2` and `EBCPPRE4` hashed words
//! without the fold (and `EBCPSEG2` indexed `{records, checksum}`).
//!
//! The index and totals live in a *footer* so [`SegWriter`] streams the
//! payload in one pass without knowing the totals up front. [`verify`]
//! checks the header, index, footer **and every segment checksum** in one
//! sequential pass at open, where callers quarantine corruption, so
//! segments read later skip re-verification.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ebcp_types::{Addr, Pc};

use crate::checksum::{word_fnv64, WordFnv};
use crate::record::{Op, TraceRecord};

/// Width of one index entry (`items u64 | records u64 | checksum u64`).
pub const INDEX_ENTRY_BYTES: usize = 24;
/// Width of the trailing footer.
pub const FOOTER_BYTES: usize = 48;
/// Magic plus the `meta_len` word.
const HEAD_FIXED_BYTES: u64 = 12;
/// Write buffer of a [`SegWriter`]: a stream runs to hundreds of MiB,
/// and the default 8 KiB buffer costs one `write` call per 8 KiB.
const WRITE_BUFFER_BYTES: usize = 1 << 18;
/// Items encoded and hashed per batch by [`SegWriter::push`].
const ENCODE_BATCH: usize = 256;

// ---------------------------------------------------------------------------
// Codecs

/// A fixed-width item encoding: what one kind of segmented file holds.
pub trait Codec {
    /// The decoded item.
    type Item;
    /// The file's first eight bytes; any other magic reads as stale.
    const MAGIC: [u8; 8];
    /// Bytes per encoded item.
    const WIDTH: usize;
    /// Encodes `item` into `out`, exactly [`WIDTH`](Codec::WIDTH) bytes.
    fn encode(item: &Self::Item, out: &mut [u8]);
    /// Decodes one item from exactly [`WIDTH`](Codec::WIDTH) bytes. The
    /// payload was verified at open, so bytes no encoder writes may panic
    /// rather than thread an error through the replay hot path.
    fn decode(bytes: &[u8]) -> Self::Item;
}

/// Trace records, 17 bytes each:
///
/// ```text
/// tag   u8   0=Alu 1=Load 2=LoadFeedsMispredict 3=Store
///            4=Branch 5=BranchMispredicted 6=Serialize
/// pc    u64
/// addr  u64  0 for ops without a data address
/// ```
pub struct TraceCodec;

impl Codec for TraceCodec {
    type Item = TraceRecord;
    const MAGIC: [u8; 8] = *b"EBCPSEG3";
    const WIDTH: usize = 17;

    fn encode(r: &TraceRecord, out: &mut [u8]) {
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

    fn decode(buf: &[u8]) -> TraceRecord {
        let addr = Addr::new(le_u64(buf, 9));
        let op = match buf[0] {
            0 => Op::Alu,
            tag @ (1 | 2) => Op::Load {
                addr,
                feeds_mispredict: tag == 2,
            },
            3 => Op::Store { addr },
            tag @ (4 | 5) => Op::Branch {
                mispredicted: tag == 5,
            },
            6 => Op::Serialize,
            t => unreachable!("corrupt segment record tag {t} after checksum verification"),
        };
        TraceRecord::new(Pc::new(le_u64(buf, 1)), op)
    }
}

// ---------------------------------------------------------------------------
// Errors

/// Error opening or validating a segmented file.
#[derive(Debug)]
pub enum SegfileError {
    /// Another format version, or another meta: a plain cache miss,
    /// regenerated in place.
    Stale,
    /// This format failing a checksum or length check: quarantined as
    /// `*.corrupt` and regenerated.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for SegfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegfileError::Stale => f.write_str("not a current-version segmented file"),
            SegfileError::Corrupt(why) => write!(f, "corrupt segmented file: {why}"),
            SegfileError::Io(e) => write!(f, "segmented file i/o error: {e}"),
        }
    }
}

impl std::error::Error for SegfileError {}

impl From<io::Error> for SegfileError {
    fn from(e: io::Error) -> Self {
        SegfileError::Io(e)
    }
}

fn corrupt<T>(why: impl Into<String>) -> Result<T, SegfileError> {
    Err(SegfileError::Corrupt(why.into()))
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte window"))
}

fn read_exact_at(r: &mut (impl Read + Seek), pos: u64, buf: &mut [u8]) -> io::Result<()> {
    r.seek(SeekFrom::Start(pos))?;
    r.read_exact(buf)
}

// ---------------------------------------------------------------------------
// Footer

/// The totals a file's 48-byte footer carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footer {
    /// Records over every segment.
    pub records: u64,
    /// The writer's nominal segment length in records.
    pub seg_records: u64,
    /// Number of segments.
    pub n_segs: u64,
    index_checksum: u64,
    head_checksum: u64,
}

impl Footer {
    fn encode(&self) -> [u8; FOOTER_BYTES] {
        let mut out = [0u8; FOOTER_BYTES];
        let totals = [self.records, self.seg_records, self.n_segs];
        let sums = [self.index_checksum, self.head_checksum];
        for (at, w) in out.chunks_exact_mut(8).zip(totals.into_iter().chain(sums)) {
            at.copy_from_slice(&w.to_le_bytes());
        }
        let sum = word_fnv64(&out[..40]);
        out[40..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// The footer in `bytes`, or `None` when its own checksum fails.
    fn decode(bytes: &[u8; FOOTER_BYTES]) -> Option<Footer> {
        (word_fnv64(&bytes[..40]) == le_u64(bytes, 40)).then(|| Footer {
            records: le_u64(bytes, 0),
            seg_records: le_u64(bytes, 8),
            n_segs: le_u64(bytes, 16),
            index_checksum: le_u64(bytes, 24),
            head_checksum: le_u64(bytes, 32),
        })
    }

    /// The footer of the file at `path` if it verifies, reading nothing
    /// else: for read-only reporting, never for contents (see [`verify`]).
    pub fn read(path: &Path) -> Option<Footer> {
        let mut file = File::open(path).ok()?;
        let len = file.metadata().ok()?.len();
        let mut bytes = [0u8; FOOTER_BYTES];
        read_exact_at(&mut file, len.checked_sub(FOOTER_BYTES as u64)?, &mut bytes).ok()?;
        Footer::decode(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Writer

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A pid- and sequence-unique sibling temp path (`<path>.tmp.<pid>.<seq>`)
/// for atomically replacing `path`: every store writer writes one and
/// renames it over `path`. Two processes — or two threads of one
/// process — publishing the same target each write their own temp file,
/// so the final rename is the only contended step and readers never
/// observe a torn file.
pub fn unique_tmp(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    PathBuf::from(name)
}

/// The one writer: per segment, [`push`](SegWriter::push) items, then
/// [`end_segment`](SegWriter::end_segment) with the records they stand
/// for. Items are encoded, hashed and written a small batch at a time;
/// only the index is buffered. [`finish`](SegWriter::finish) appends
/// index and footer and renames the tmp file into place. A writer
/// dropped before a successful `finish` (a panicking producer, a failed
/// publish) removes its tmp file.
pub struct SegWriter<C: Codec> {
    w: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    /// The totals so far; `finish` fills in the index checksum.
    footer: Footer,
    /// Items pushed into the open segment, and their running checksum.
    seg_items: u64,
    seg_hash: WordFnv,
    /// The encoded index entries of the segments ended so far.
    index: Vec<u8>,
    /// Encode buffer of [`ENCODE_BATCH`] items.
    scratch: Vec<u8>,
    /// Set once the rename has put the file in place.
    published: bool,
    codec: PhantomData<fn() -> C>,
}

impl<C: Codec> SegWriter<C> {
    /// Starts a file published at `path`, guarded by `meta` (the caller's
    /// canonical identity string), of nominal `seg_records`-record
    /// segments.
    ///
    /// # Errors
    ///
    /// Returns any I/O failure creating `path`'s directory or the tmp
    /// file.
    ///
    /// # Panics
    ///
    /// Panics if `meta` exceeds `u32::MAX` bytes.
    pub fn create(path: &Path, meta: &[u8], seg_records: u64) -> io::Result<SegWriter<C>> {
        let meta_len = u32::try_from(meta.len()).expect("meta fits u32");
        let mut head = Vec::with_capacity(HEAD_FIXED_BYTES as usize + meta.len());
        head.extend_from_slice(&C::MAGIC);
        head.extend_from_slice(&meta_len.to_le_bytes());
        head.extend_from_slice(meta);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = unique_tmp(path);
        let mut writer = SegWriter {
            w: BufWriter::with_capacity(WRITE_BUFFER_BYTES, File::create(&tmp)?),
            tmp,
            path: path.to_path_buf(),
            footer: Footer {
                records: 0,
                seg_records,
                n_segs: 0,
                index_checksum: 0,
                head_checksum: word_fnv64(&head),
            },
            seg_items: 0,
            seg_hash: WordFnv::new(),
            index: Vec::new(),
            scratch: vec![0; ENCODE_BATCH * C::WIDTH],
            published: false,
            codec: PhantomData,
        };
        writer.w.write_all(&head)?;
        Ok(writer)
    }

    /// Appends `items` to the open segment, encoding and hashing them a
    /// bounded batch at a time.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    pub fn push(&mut self, items: &[C::Item]) -> io::Result<()> {
        for batch in items.chunks(ENCODE_BATCH) {
            let bytes = &mut self.scratch[..batch.len() * C::WIDTH];
            for (out, item) in bytes.chunks_exact_mut(C::WIDTH).zip(batch) {
                C::encode(item, out);
            }
            self.seg_hash.update(bytes);
            self.w.write_all(bytes)?;
        }
        self.seg_items += items.len() as u64;
        Ok(())
    }

    /// Closes the open segment: the items pushed since the last call
    /// stand for `records` trace records.
    pub fn end_segment(&mut self, records: u64) {
        let checksum = std::mem::take(&mut self.seg_hash).finish();
        for word in [self.seg_items, records, checksum] {
            self.index.extend_from_slice(&word.to_le_bytes());
        }
        self.footer.records += records;
        self.footer.n_segs += 1;
        self.seg_items = 0;
    }

    /// Writes index + footer and atomically renames into place. Returns
    /// the record count.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure; nothing is published and the
    /// tmp file is removed.
    ///
    /// # Panics
    ///
    /// Panics if items were pushed after the last
    /// [`end_segment`](SegWriter::end_segment).
    pub fn finish(mut self) -> io::Result<u64> {
        assert_eq!(self.seg_items, 0, "items pushed into an unended segment");
        self.footer.index_checksum = word_fnv64(&self.index);
        self.w.write_all(&self.index)?;
        self.w.write_all(&self.footer.encode())?;
        // No fsync, as in every store writer: the checksum walk at
        // open quarantines a torn file (DESIGN.md §3f).
        self.w.flush()?;
        std::fs::rename(&self.tmp, &self.path)?;
        self.published = true;
        Ok(self.footer.records)
    }
}

impl<C: Codec> Drop for SegWriter<C> {
    fn drop(&mut self) {
        if !self.published {
            // Best effort: a leftover tmp name is never read as a file.
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// Verify

/// One segment of a verified file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Items in the segment.
    pub items: u64,
    /// Trace records the segment stands for.
    pub records: u64,
    /// Byte offset of the segment's payload from the payload base.
    byte_off: u64,
}

/// What [`verify`] found in a file that checks out.
#[derive(Debug)]
pub struct Layout {
    payload_base: u64,
    footer: Footer,
    segments: Vec<Segment>,
}

/// The one verify walk: checks that the file in `r` has `C`'s magic and
/// the meta `meta` (the caller's collision guard), then the header,
/// footer and index checksums, the layout arithmetic, and every segment
/// checksum, in one sequential O(segment)-memory pass.
///
/// # Errors
///
/// [`SegfileError::Stale`] for wrong-version/wrong-meta files,
/// [`SegfileError::Corrupt`] for checksum or length disagreements,
/// [`SegfileError::Io`] for failed reads.
pub fn verify<C: Codec>(r: &mut (impl Read + Seek), meta: &[u8]) -> Result<Layout, SegfileError> {
    let file_len = r.seek(SeekFrom::End(0))?;
    // Another magic, or too few bytes to tell, is staleness; ours cut
    // short of a header and footer is corruption.
    let mut magic = [0u8; 8];
    let seen = &mut magic[..file_len.min(8) as usize];
    read_exact_at(r, 0, seen)?;
    if seen.is_empty() || !C::MAGIC.starts_with(seen) {
        return Err(SegfileError::Stale);
    }
    let min_len = HEAD_FIXED_BYTES + FOOTER_BYTES as u64;
    if file_len < min_len {
        return corrupt(format!(
            "file is {file_len} bytes, shorter than the {min_len}-byte minimum"
        ));
    }
    let mut meta_len = [0u8; 4];
    read_exact_at(r, 8, &mut meta_len)?;
    let meta_len = u64::from(u32::from_le_bytes(meta_len));
    let payload_base = HEAD_FIXED_BYTES + meta_len;
    if payload_base + FOOTER_BYTES as u64 > file_len {
        return corrupt(format!(
            "meta length {meta_len} overruns the {file_len}-byte file"
        ));
    }

    let mut footer = [0u8; FOOTER_BYTES];
    read_exact_at(r, file_len - FOOTER_BYTES as u64, &mut footer)?;
    let Some(footer) = Footer::decode(&footer) else {
        return corrupt("footer checksum mismatch");
    };

    let mut head = vec![0u8; payload_base as usize];
    read_exact_at(r, 0, &mut head)?;
    if word_fnv64(&head) != footer.head_checksum {
        return corrupt("header checksum mismatch");
    }
    if head[HEAD_FIXED_BYTES as usize..] != *meta {
        // Header verified intact but written for different contents:
        // a stale/foreign entry, not damage.
        return Err(SegfileError::Stale);
    }

    // Bounding the count by the file length keeps the layout arithmetic
    // below from overflowing on a crafted footer.
    let n_segs = footer.n_segs;
    if n_segs > file_len / INDEX_ENTRY_BYTES as u64 {
        return corrupt(format!("implausible segment count {n_segs}"));
    }
    let index_len = n_segs * INDEX_ENTRY_BYTES as u64;
    if payload_base + index_len + FOOTER_BYTES as u64 > file_len {
        return corrupt("index overruns the file");
    }
    let index_base = file_len - FOOTER_BYTES as u64 - index_len;
    let mut index = vec![0u8; index_len as usize];
    read_exact_at(r, index_base, &mut index)?;
    if word_fnv64(&index) != footer.index_checksum {
        return corrupt("index checksum mismatch");
    }
    let mut segments = Vec::with_capacity(n_segs as usize);
    let (mut byte_off, mut records) = (0u64, 0u64);
    for entry in index.chunks_exact(INDEX_ENTRY_BYTES) {
        let seg = Segment {
            items: le_u64(entry, 0),
            records: le_u64(entry, 8),
            byte_off,
        };
        // Checked: the checksums guard against damage, not crafting.
        let (Some(off), Some(sum)) = (
            seg.items
                .checked_mul(C::WIDTH as u64)
                .and_then(|n| byte_off.checked_add(n)),
            records.checked_add(seg.records),
        ) else {
            return corrupt("index counts overflow");
        };
        segments.push(seg);
        byte_off = off;
        records = sum;
    }
    if payload_base.checked_add(byte_off) != Some(index_base) {
        return corrupt(format!(
            "payload length {} disagrees with the index's {} items",
            index_base - payload_base,
            byte_off / C::WIDTH as u64
        ));
    }
    if records != footer.records {
        return corrupt(format!(
            "index sums to {records} records, footer claims {}",
            footer.records
        ));
    }

    // Eager integrity pass: verify every segment checksum now, with one
    // reusable O(segment) buffer, so reads during replay can trust the
    // payload without re-hashing.
    let mut buf = Vec::new();
    for (k, (seg, entry)) in segments
        .iter()
        .zip(index.chunks_exact(INDEX_ENTRY_BYTES))
        .enumerate()
    {
        buf.resize((seg.items * C::WIDTH as u64) as usize, 0);
        read_exact_at(r, payload_base + seg.byte_off, &mut buf)?;
        if word_fnv64(&buf) != le_u64(entry, 16) {
            return corrupt(format!("segment {k} checksum mismatch"));
        }
    }

    Ok(Layout {
        payload_base,
        footer,
        segments,
    })
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
        // SAFETY: sysconf reads an integer argument and no memory of ours.
        let ps = unsafe { sysconf(_SC_PAGESIZE) };
        if ps > 0 {
            ps as u64
        } else {
            4096
        }
    }
}

/// How a [`SegReader`] loads segment windows.
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
            // SAFETY: `try_mmap` mapped `delta + bytes` readable bytes at
            // `ptr`, and they stay mapped until `drop` takes `&mut self`.
            Window::Map {
                ptr, delta, bytes, ..
            } => unsafe { std::slice::from_raw_parts((*ptr as *const u8).add(*delta), *bytes) },
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Window::Map { ptr, map_len, .. } = self {
            // SAFETY: unmaps exactly the mapping `try_mmap` made, which no
            // borrow outlives.
            unsafe {
                ffi::munmap(*ptr, *map_len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader

/// A verified, open segmented file whose segments are read on demand.
pub struct SegReader<C: Codec> {
    file: File,
    backing: Backing,
    layout: Layout,
    codec: PhantomData<fn() -> C>,
}

impl<C: Codec> SegReader<C> {
    /// Opens and fully verifies the file at `path`.
    ///
    /// # Errors
    ///
    /// As [`verify`].
    pub fn open(path: &Path, meta: &[u8], backing: Backing) -> Result<Self, SegfileError> {
        let mut file = File::open(path)?;
        let layout = verify::<C>(&mut file, meta)?;
        Ok(SegReader {
            file,
            backing,
            layout,
            codec: PhantomData,
        })
    }

    /// The file's totals.
    pub fn footer(&self) -> &Footer {
        &self.layout.footer
    }

    /// The segments, in file order.
    pub fn segments(&self) -> &[Segment] {
        &self.layout.segments
    }

    /// Reads and decodes segment `k` (verified at open) into a vector.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn read_segment(&mut self, k: usize) -> io::Result<Vec<C::Item>> {
        Ok(self
            .window(k)?
            .payload()
            .chunks_exact(C::WIDTH)
            .map(C::decode)
            .collect())
    }

    /// Loads segment `k`'s payload under the reader's backing.
    fn window(&mut self, k: usize) -> io::Result<Window> {
        let seg = self.layout.segments[k];
        let start = self.layout.payload_base + seg.byte_off;
        let bytes = (seg.items * C::WIDTH as u64) as usize;
        if self.backing == Backing::Mmap {
            if let Some(w) = self.try_mmap(start, bytes) {
                return Ok(w);
            }
        }
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
        // SAFETY: a new read-only private mapping of our open file at a
        // page-aligned offset, at an address the kernel picks; failure
        // is checked below.
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
}

// ---------------------------------------------------------------------------
// Traces

/// Trace writer: cuts a segment every `seg_records` records, and
/// [`TraceSink::finish`] closes the tail segment and publishes.
pub struct TraceSink {
    w: SegWriter<TraceCodec>,
    /// Records in the open segment.
    seg_fill: u64,
}

impl TraceSink {
    /// Starts a trace published at `path` (see [`SegWriter::create`]).
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
        Ok(TraceSink {
            w: SegWriter::create(path, meta, seg_records)?,
            seg_fill: 0,
        })
    }

    /// Appends a batch of records (e.g. one generator chunk), cutting
    /// segments at every `seg_records` boundary.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    pub fn push_chunk(&mut self, mut rs: &[TraceRecord]) -> io::Result<()> {
        while !rs.is_empty() {
            let room = (self.w.footer.seg_records - self.seg_fill).min(rs.len() as u64);
            let (batch, rest) = rs.split_at(room as usize);
            self.w.push(batch)?;
            self.seg_fill += room;
            if self.seg_fill == self.w.footer.seg_records {
                self.w.end_segment(self.seg_fill);
                self.seg_fill = 0;
            }
            rs = rest;
        }
        Ok(())
    }

    /// Closes the tail segment and publishes; see [`SegWriter::finish`].
    ///
    /// # Errors
    ///
    /// As [`SegWriter::finish`].
    pub fn finish(mut self) -> io::Result<u64> {
        if self.seg_fill > 0 {
            self.w.end_segment(self.seg_fill);
        }
        self.w.finish()
    }
}

/// Trace reader: replays a [`TraceSink`] file through
/// [`next_chunk`](SegmentedTrace::next_chunk), one segment window
/// resident at a time.
pub struct SegmentedTrace {
    file: SegReader<TraceCodec>,
    cur_seg: usize,
    /// Records already consumed from the current segment.
    cur_off: u64,
    window: Option<Window>,
}

impl SegmentedTrace {
    /// Opens a trace: the walk of [`verify`], then the trace rule that
    /// every item is one record and every segment but the last holds
    /// exactly `seg_records` of them.
    ///
    /// # Errors
    ///
    /// As [`verify`]; a broken trace rule is [`SegfileError::Corrupt`].
    pub fn open(path: &Path, meta: &[u8], backing: Backing) -> Result<Self, SegfileError> {
        let file = SegReader::open(path, meta, backing)?;
        let (segs, full) = (file.segments(), file.footer().seg_records);
        let uniform = full > 0
            && segs.iter().enumerate().all(|(k, s)| {
                s.items == s.records
                    && (s.records == full
                        || (k + 1 == segs.len() && (1..full).contains(&s.records)))
            });
        if !uniform {
            return corrupt(format!(
                "segment geometry inconsistent with {full}-record segments \
                 of one record per item over {} records",
                file.footer().records
            ));
        }
        Ok(SegmentedTrace {
            file,
            cur_seg: 0,
            cur_off: 0,
            window: None,
        })
    }

    /// Total records in the trace.
    pub fn records(&self) -> u64 {
        self.file.footer().records
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.file.segments().len()
    }

    /// Refills `out` with up to `max` records; `0` means end of trace.
    /// Same contract as
    /// [`TraceGenerator::next_chunk`](crate::TraceGenerator::next_chunk).
    ///
    /// # Panics
    ///
    /// Panics on I/O failure while loading a window: the file verified at
    /// open, so a failing read is an environment fault.
    pub fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        const W: usize = TraceCodec::WIDTH;
        out.clear();
        while out.len() < max && self.cur_seg < self.n_segments() {
            let seg_records = self.file.segments()[self.cur_seg].records;
            let take = ((max - out.len()) as u64).min(seg_records - self.cur_off);
            if self.window.is_none() {
                let w = self.file.window(self.cur_seg);
                self.window = Some(w.expect("a verified segment reads back"));
            }
            let payload = self.window.as_ref().map_or(&[][..], Window::payload);
            let from = self.cur_off as usize * W;
            let upto = from + take as usize * W;
            out.extend(payload[from..upto].chunks_exact(W).map(TraceCodec::decode));
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

    fn write_trace(path: &Path, meta: &[u8], seg_records: u64, trace: &[TraceRecord]) -> u64 {
        let mut sink = TraceSink::create(path, meta, seg_records).unwrap();
        sink.push_chunk(trace).unwrap();
        sink.finish().unwrap()
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

    fn open_err(path: &Path, meta: &[u8]) -> SegfileError {
        match SegmentedTrace::open(path, meta, Backing::Buffered) {
            Err(e) => e,
            Ok(_) => panic!("{} opened", path.display()),
        }
    }

    #[test]
    fn round_trip_both_backings() {
        let dir = tmpdir("rt");
        let path = dir.join("t.seg");
        let trace = sample();
        assert_eq!(write_trace(&path, b"meta", 3, &trace), 7);
        for backing in [Backing::Buffered, Backing::Mmap] {
            for chunk in [1, 2, 3, 5, 100] {
                let mut st = SegmentedTrace::open(&path, b"meta", backing).unwrap();
                assert_eq!(st.records(), 7);
                assert_eq!(st.n_segments(), 3); // 3 + 3 + 1
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
        write_trace(&path, b"m", 1024, &trace);
        let mut a = SegmentedTrace::open(&path, b"m", Backing::Mmap).unwrap();
        let mut b = SegmentedTrace::open(&path, b"m", Backing::Buffered).unwrap();
        assert_eq!(read_all(&mut a, 4096), read_all(&mut b, 4096));
        assert_eq!(read_all(&mut b, 4096), Vec::new()); // exhausted
    }

    #[test]
    fn empty_trace_round_trips() {
        let dir = tmpdir("empty");
        let path = dir.join("t.seg");
        assert_eq!(write_trace(&path, b"x", 8, &[]), 0);
        let mut st = SegmentedTrace::open(&path, b"x", Backing::Mmap).unwrap();
        assert_eq!(st.records(), 0);
        assert_eq!(st.n_segments(), 0);
        let mut buf = Vec::new();
        assert_eq!(st.next_chunk(&mut buf, 16), 0);
    }

    #[test]
    fn wrong_magic_and_meta_are_stale() {
        let dir = tmpdir("magic");
        let path = dir.join("t.seg");
        write_trace(&path, b"workload-a", 4, &sample());
        assert!(matches!(
            open_err(&path, b"workload-b"),
            SegfileError::Stale
        ));
        assert!(SegmentedTrace::open(&path, b"workload-a", Backing::Buffered).is_ok());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..8].copy_from_slice(b"EBCPSEG0");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            open_err(&path, b"workload-a"),
            SegfileError::Stale
        ));
    }

    #[test]
    fn older_versions_are_stale() {
        // `golden/trace_v1.seg` and `golden/trace_v2.seg` are the last
        // pinned `EBCPSEG1`/`EBCPSEG2` files (the same sample; byte-wise
        // and unfolded word checksums): a plain miss, never damage.
        for (name, magic) in [("trace_v1.seg", b"EBCPSEG1"), ("trace_v2.seg", b"EBCPSEG2")] {
            let old = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("golden")
                .join(name);
            assert_eq!(&std::fs::read(&old).unwrap()[..8], magic);
            assert!(matches!(open_err(&old, b"golden-v1"), SegfileError::Stale));
        }
    }

    #[test]
    fn unfinished_or_unpublishable_writer_leaves_nothing() {
        // Dropped before `finish`, as when its producer panics.
        let dir = tmpdir("drop");
        let path = dir.join("t.seg");
        let mut w = SegWriter::<TraceCodec>::create(&path, b"m", 2).unwrap();
        w.push(&sample()[..3]).unwrap();
        w.end_segment(3);
        drop(w);
        assert!(!path.exists(), "an unfinished writer publishes nothing");
        assert_eq!(
            std::fs::read_dir(&*dir).unwrap().count(),
            0,
            "tmp file left"
        );

        // The rename fails: the destination is a directory.
        std::fs::create_dir(&path).unwrap();
        let mut w = SegWriter::<TraceCodec>::create(&path, b"m", 2).unwrap();
        w.push(&sample()).unwrap();
        w.end_segment(7);
        assert!(w.finish().is_err(), "a failed rename is reported");
        assert!(path.is_dir(), "the destination is untouched");
        assert_eq!(std::fs::read_dir(&path).unwrap().count(), 0);
        assert_eq!(
            std::fs::read_dir(&*dir).unwrap().count(),
            1,
            "tmp file left after a failed publish"
        );
    }

    #[test]
    fn trace_geometry_is_enforced_on_top_of_the_walk() {
        // Valid containers that are not traces: a short segment before
        // the tail, and a segment holding fewer items than records.
        let dir = tmpdir("geom");
        let path = dir.join("t.seg");
        for (cuts, records) in [
            (&[2usize, 3, 2][..], [2u64, 3, 2]),
            (&[3, 3, 1][..], [3, 3, 2]),
        ] {
            let mut w = SegWriter::<TraceCodec>::create(&path, b"m", 3).unwrap();
            let mut rs = &sample()[..];
            for (&n, &r) in cuts.iter().zip(&records) {
                w.push(&rs[..n]).unwrap();
                w.end_segment(r);
                rs = &rs[n..];
            }
            w.finish().unwrap();
            assert!(SegReader::<TraceCodec>::open(&path, b"m", Backing::Buffered).is_ok());
            match open_err(&path, b"m") {
                SegfileError::Corrupt(why) => assert!(why.contains("geometry"), "{why}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn index_footer_and_trailing_damage_is_corrupt() {
        let dir = tmpdir("idx");
        let path = dir.join("t.seg");
        write_trace(&path, b"m", 3, &sample());
        let clean = std::fs::read(&path).unwrap();
        let n = clean.len();
        let index_base = n - FOOTER_BYTES - 3 * INDEX_ENTRY_BYTES;
        let (mut index, mut footer, mut trailing) = (clean.clone(), clean.clone(), clean);
        index[index_base + 2] ^= 1;
        footer[n - 20] ^= 1;
        trailing.extend_from_slice(b"junk");
        for bytes in [index, footer, trailing] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(open_err(&path, b"m"), SegfileError::Corrupt(_)));
        }
        // A short file that isn't ours at all is stale, not corrupt.
        std::fs::write(&path, b"hello").unwrap();
        assert!(matches!(open_err(&path, b"m"), SegfileError::Stale));
    }

    #[test]
    fn footer_read_counts_segments_of_an_intact_footer_only() {
        let dir = tmpdir("footer");
        let path = dir.join("t.seg");
        write_trace(&path, b"m", 3, &sample());
        let f = Footer::read(&path).expect("intact footer");
        assert_eq!((f.records, f.seg_records, f.n_segs), (7, 3, 3));
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 30] ^= 4;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(Footer::read(&path), None);
        std::fs::write(&path, &bytes[..FOOTER_BYTES - 1]).unwrap();
        assert_eq!(Footer::read(&path), None);
    }

    #[test]
    fn golden_file_pins_format() {
        // The golden file is the io.rs sample trace written with
        // seg_records=3 and meta "golden-v1". Any byte drift in the
        // encoder shows up as a mismatch here; `EBCP_BLESS_GOLDEN=1`
        // regenerates it after an *intentional* format revision.
        let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/trace_v3.seg");
        let dir = tmpdir("golden");
        let path = dir.join("t.seg");
        write_trace(&path, b"golden-v1", 3, &sample());
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

        proptest! {
            /// Arbitrary records -> sink -> chunked replay through both
            /// backings is identity, for arbitrary segment lengths and
            /// chunk sizes. (The container's own properties run per
            /// codec in `ebcp_harness::preres`.)
            #[test]
            fn sink_and_chunked_replay_round_trip(
                recs in proptest::collection::vec(arb_record(), 0..300),
                seg_records in 1u64..40,
                chunk in 1usize..70,
            ) {
                let dir = tmpdir("prop");
                let path = dir.join("t.seg");
                write_trace(&path, b"prop", seg_records, &recs);
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
        }
    }
}
