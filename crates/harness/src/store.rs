//! On-disk result store: one JSON file per job, keyed by content hash.
//!
//! A warm store makes re-runs incremental — `repro all` executed twice
//! at the same scale performs zero simulations the second time. Files
//! carry the job's full canonical string so a (vanishingly unlikely)
//! 64-bit hash collision is detected and treated as a miss rather than
//! silently returning the wrong result.
//!
//! Entries are **integrity-checked**: each file stores an FNV-1a
//! checksum of its compact result encoding. A corrupt entry — torn
//! write, flipped bit, unparsable JSON — is *quarantined* (renamed to
//! `<id>.json.corrupt`) and reads as a miss, so the job transparently
//! re-runs and overwrites it (self-heal). Merely *stale* entries (an
//! older schema version) are not corruption: they read as a plain miss
//! and are overwritten in place.
//!
//! Entries are **sharded** by the first two hex digits of the job id
//! (`<dir>/ab/<id>.json`, 256-way fan-out), so a store shared by many
//! hosts over a network mount never degenerates into one flat directory
//! of hundreds of thousands of files. Pre-sharding stores migrate
//! transparently: [`ResultStore::open`] sweeps any flat entries (and
//! their `.corrupt` quarantines) into their shards, and reads fall back
//! to the flat path — migrating read-through — in case another process
//! wrote one mid-transition.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ebcp_mem::{BusStats, MemStats};
use ebcp_sim::SimResult;

use crate::job::{fnv1a64, Fnv64, Job, JobId};
use crate::json::{self, JsonSink, ParseError, Reader, Value};

/// On-disk schema version; bump on incompatible result layout changes.
///
/// v3: added the `checksum` integrity field.
const SCHEMA: u64 = 3;

/// Sequence counter making concurrent temp-file names unique within a
/// process; the pid makes them unique across processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A pid- and sequence-unique sibling temp path for atomically
/// replacing `path` (write temp, rename). Two processes — or two
/// threads of one process — publishing the same target concurrently
/// each write their own temp file, so the final rename is the only
/// contended step and readers never observe a torn file.
pub(crate) fn unique_tmp(path: &Path, ext: &str) -> PathBuf {
    path.with_extension(format!(
        "{ext}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Outcome of an integrity-checked cache read.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheRead<T> {
    /// A valid entry.
    Hit(T),
    /// No entry (absent, stale schema, or a detected hash collision) —
    /// the caller simply runs the job and overwrites.
    Miss,
    /// A corrupt entry was detected and renamed to `*.corrupt`; the
    /// caller re-runs the job, overwriting the original path.
    Quarantined {
        /// Where the corrupt bytes were moved (best effort: the
        /// original path if the rename itself failed).
        path: PathBuf,
        /// Why the entry was rejected.
        reason: String,
    },
}

impl<T> CacheRead<T> {
    /// The hit value, if any.
    pub fn into_hit(self) -> Option<T> {
        match self {
            CacheRead::Hit(v) => Some(v),
            _ => None,
        }
    }
}

/// Moves a corrupt cache file out of the way (`<file>.corrupt`,
/// overwriting any previous quarantine of the same path) and returns
/// the quarantine record. A file already gone was quarantined by a
/// concurrent reader of the same entry, which reports it; this read is
/// a plain miss.
pub(crate) fn quarantine<T>(path: PathBuf, reason: String) -> CacheRead<T> {
    let mut corrupt = path.clone().into_os_string();
    corrupt.push(".corrupt");
    let corrupt = PathBuf::from(corrupt);
    match fs::rename(&path, &corrupt) {
        Ok(()) => CacheRead::Quarantined {
            path: corrupt,
            reason,
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => CacheRead::Miss,
        Err(_) => CacheRead::Quarantined { path, reason },
    }
}

/// The 2-hex shard directory a store file belongs to: the first two
/// characters of its 16-hex-digit id (256-way fan-out).
fn shard_of(name: &str) -> &str {
    &name[..2]
}

/// Whether `name` is a store entry (`<16 hex>.json`, optionally with a
/// `.corrupt` quarantine suffix). Temp files and foreign files are not.
fn is_store_entry_name(name: &str) -> bool {
    let stem = name.strip_suffix(".corrupt").unwrap_or(name);
    let Some(hex) = stem.strip_suffix(".json") else {
        return false;
    };
    hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())
}

/// One-time sweep moving flat (pre-sharding) entries — `<id>.json` and
/// their `.corrupt` quarantines — into their shard directories. Best
/// effort and idempotent; concurrent opens race benignly (renaming an
/// already-moved file simply fails and the entry is found sharded).
pub(crate) fn migrate_flat_entries(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        // The entry's own type, not a `stat` of its path: the root holds
        // up to 256 shard directories and this runs on every open.
        if !entry.file_type().is_ok_and(|t| t.is_file()) {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if !is_store_entry_name(name) {
            continue;
        }
        let shard = dir.join(shard_of(name));
        if fs::create_dir_all(&shard).is_ok() {
            let _ = fs::rename(entry.path(), shard.join(name));
        }
    }
}

/// A directory of cached [`SimResult`]s, keyed by [`Job`] hash.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`, migrating any
    /// flat (pre-sharding) entries into their 2-hex shard directories.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created. Migration is best
    /// effort: an entry whose rename fails stays flat and is still
    /// readable through the read-through fallback.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        migrate_flat_entries(&dir);
        crate::preres::migrate_flat_streams(&dir);
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of `job`'s entry (sharded layout). The file may
    /// or may not exist.
    pub fn entry_path(&self, job: &Job) -> PathBuf {
        self.entry_path_of(job.id())
    }

    /// [`ResultStore::entry_path`] of the job with id `id`.
    fn entry_path_of(&self, id: JobId) -> PathBuf {
        let name = format!("{id}.json");
        self.dir.join(shard_of(&name)).join(name)
    }

    /// Loads the cached result for `job`, if present and valid.
    ///
    /// Convenience wrapper over [`ResultStore::load_checked`] that
    /// collapses misses and quarantines to `None`.
    pub fn load(&self, job: &Job) -> Option<SimResult> {
        self.load_checked(job).into_hit()
    }

    /// Integrity-checked load: distinguishes a valid entry, a plain
    /// miss (absent, stale schema, hash collision) and a *corrupt*
    /// entry, which is quarantined (renamed to `<id>.json.corrupt`) so
    /// the caller can log it and transparently re-run the job.
    pub fn load_checked(&self, job: &Job) -> CacheRead<SimResult> {
        self.load_checked_id(job.id(), &job.canonical())
    }

    /// [`ResultStore::load_checked`] for a caller that already holds
    /// the job's id and canonical string (`id == job.id()`,
    /// `canonical == job.canonical()`): the executor, which hashed the
    /// whole batch up front and formats each spec's canonical prefix
    /// once per run of equal specs.
    pub(crate) fn load_checked_id(&self, id: JobId, canonical: &str) -> CacheRead<SimResult> {
        let sharded = self.entry_path_of(id);
        let (path, text) = match fs::read_to_string(&sharded) {
            Ok(text) => (sharded, text),
            Err(_) => {
                // Read-through migration: a process running pre-sharding
                // code may have written a flat entry after this store
                // was opened and swept. Move it home, best effort.
                let flat = self.dir.join(format!("{id}.json"));
                let Ok(text) = fs::read_to_string(&flat) else {
                    return CacheRead::Miss;
                };
                if let Some(parent) = sharded.parent() {
                    let _ = fs::create_dir_all(parent);
                }
                if fs::rename(&flat, &sharded).is_ok() {
                    (sharded, text)
                } else {
                    (flat, text)
                }
            }
        };
        check_entry(path, &text, SCHEMA, canonical, read_result, result_checksum)
    }

    /// Persists `result` for `job` (atomically: write temp, rename).
    /// The temp name is pid- and sequence-unique, so concurrent saves
    /// of the same job — from two processes sharing a store, or two
    /// threads — can never interleave writes into one temp file and
    /// publish a torn entry.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers may treat them as non-fatal
    /// (the run still succeeded, only the cache write was lost).
    pub fn save(&self, job: &Job, result: &SimResult) -> io::Result<()> {
        self.save_id(job, job.id(), result)
    }

    /// [`ResultStore::save`] for a caller that already holds the job's
    /// id (`id == job.id()`).
    pub(crate) fn save_id(&self, job: &Job, id: JobId, result: &SimResult) -> io::Result<()> {
        write_entry(
            &self.entry_path_of(id),
            SCHEMA,
            id,
            job.canonical(),
            result_checksum(result),
            result_to_json(result),
        )
    }
}

/// Writes one store entry document atomically: create the parent
/// directory, write a pid- and sequence-unique temp file, rename it
/// over `path`. The single writer behind [`ResultStore::save`] and
/// [`ResultStore::save_cmp`].
pub(crate) fn write_entry(
    path: &Path,
    schema: u64,
    id: JobId,
    canonical: String,
    checksum: String,
    result: Value,
) -> io::Result<()> {
    let doc = Value::Obj(vec![
        ("schema".into(), Value::Int(schema)),
        ("id".into(), Value::Str(id.to_string())),
        ("job".into(), Value::Str(canonical)),
        ("checksum".into(), Value::Str(checksum)),
        ("result".into(), result),
    ]);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = unique_tmp(path, "json");
    fs::write(&tmp, doc.to_json_pretty())?;
    fs::rename(&tmp, path)
}

/// On-disk footprint of one class of store files (results, pre-resolved
/// streams, or traces).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreClassFootprint {
    /// Valid (non-quarantined) files.
    pub files: u64,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Total segments across the class's segmented files (0 for the
    /// JSON result entries, which are not segmented).
    pub segments: u64,
    /// Quarantined `*.corrupt` files still on disk.
    pub corrupt: u64,
    /// Total size of those quarantined files in bytes. Kept out of
    /// [`StoreClassFootprint::bytes`] so healthy-store totals are not
    /// inflated by quarantine debris awaiting cleanup.
    pub quarantined_bytes: u64,
}

/// On-disk footprint of a whole result store: what `repro status`
/// reports, locally or through the sweep service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Cached simulation results (`<id>.json`).
    pub results: StoreClassFootprint,
    /// Pre-resolved event streams (`preres/*.bin`).
    pub preres: StoreClassFootprint,
    /// Segmented binary traces (`traces/*.seg`).
    pub traces: StoreClassFootprint,
}

impl StoreFootprint {
    /// Total healthy bytes across every class (quarantined files
    /// excluded — see [`StoreFootprint::quarantined_bytes`]).
    pub const fn total_bytes(&self) -> u64 {
        self.results.bytes + self.preres.bytes + self.traces.bytes
    }

    /// Total bytes held hostage by `*.corrupt` quarantine files across
    /// every class.
    pub const fn quarantined_bytes(&self) -> u64 {
        self.results.quarantined_bytes
            + self.preres.quarantined_bytes
            + self.traces.quarantined_bytes
    }
}

/// Segment count from the 48-byte checksummed footer shared by the
/// segmented trace and pre-resolved stream formats (`n_segs` at offset
/// 16, self-checksum over the first 40 bytes at offset 40). `None` when
/// the file is too short or the footer does not verify — the scan then
/// counts the file's bytes but no segments, without quarantining
/// (footprint reporting is read-only).
fn footer_segments(path: &Path) -> Option<u64> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = fs::File::open(path).ok()?;
    let len = f.metadata().ok()?.len();
    if len < 48 {
        return None;
    }
    let mut footer = [0u8; 48];
    f.seek(SeekFrom::Start(len - 48)).ok()?;
    f.read_exact(&mut footer).ok()?;
    let stored = u64::from_le_bytes(footer[40..48].try_into().ok()?);
    if fnv1a64(&footer[0..40]) != stored {
        return None;
    }
    Some(u64::from_le_bytes(footer[16..24].try_into().ok()?))
}

/// Scans one class directory tree, tallying files with `suffix` (and
/// their `.corrupt` quarantines); `segmented` adds per-file footer
/// segment counts.
fn scan_class(root: &Path, suffix: &str, segmented: bool) -> StoreClassFootprint {
    let mut out = StoreClassFootprint::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".corrupt") {
                out.corrupt += 1;
                out.quarantined_bytes += entry.metadata().map_or(0, |m| m.len());
                continue;
            }
            if !name.ends_with(suffix) {
                continue;
            }
            out.files += 1;
            out.bytes += entry.metadata().map_or(0, |m| m.len());
            if segmented {
                out.segments += footer_segments(&path).unwrap_or(0);
            }
        }
    }
    out
}

/// Scans a store directory and reports its on-disk footprint: file and
/// byte counts for result entries, pre-resolved streams and segmented
/// traces, segment counts for the segmented classes, and leftover
/// quarantines. Read-only and best-effort (unreadable entries are
/// skipped); safe to run concurrently with active sweeps.
pub fn store_footprint(dir: &Path) -> StoreFootprint {
    let mut results = StoreClassFootprint::default();
    // Result entries live in 2-hex shard directories directly under the
    // root (plus any not-yet-migrated flat files); `preres/` and
    // `traces/` are separate classes.
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if path.is_dir() && name != "preres" && name != "traces" {
                let sub = scan_class(&path, ".json", false);
                results.files += sub.files;
                results.bytes += sub.bytes;
                results.corrupt += sub.corrupt;
                results.quarantined_bytes += sub.quarantined_bytes;
            } else if path.is_file() && is_store_entry_name(name) {
                if name.ends_with(".corrupt") {
                    results.corrupt += 1;
                    results.quarantined_bytes += entry.metadata().map_or(0, |m| m.len());
                } else {
                    results.files += 1;
                    results.bytes += entry.metadata().map_or(0, |m| m.len());
                }
            }
        }
    }
    StoreFootprint {
        results,
        preres: scan_class(&dir.join("preres"), ".bin", true),
        traces: scan_class(&dir.join("traces"), ".seg", true),
    }
}

/// The integrity-checked read both result shapes share: decodes an
/// entry with the pull reader — `read` decodes the `result` value
/// straight into `T` — and sorts it into a hit, a plain miss (stale
/// `schema`, or a `job` canonical string other than `canonical`) or a
/// quarantine naming the first defect found. The entry's `checksum`
/// must equal `checksum` of the decoded result.
pub(crate) fn check_entry<T>(
    path: PathBuf,
    text: &str,
    schema: u64,
    canonical: &str,
    read: impl Fn(&mut Reader<'_>) -> Result<Option<T>, ParseError>,
    checksum: impl Fn(&T) -> String,
) -> CacheRead<T> {
    const KEYS: [&str; 4] = ["schema", "job", "checksum", "result"];
    // The first occurrence of a key is the one that counts, as with
    // `Value::get`.
    let mut seen = [false; KEYS.len()];
    let (mut version, mut job, mut stored, mut result) = (None, None, None, None);
    let mut rd = Reader::new(text);
    let parsed = if rd.peek() == Some(b'{') {
        rd.object(|rd, key| {
            match KEYS.iter().position(|k| *k == key) {
                Some(i) if !seen[i] => {
                    seen[i] = true;
                    match i {
                        0 => version = rd.opt_u64()?,
                        1 => job = rd.opt_str()?,
                        2 => stored = rd.opt_str()?,
                        _ => result = Some(read(rd)?),
                    }
                }
                _ => rd.skip()?,
            }
            Ok(())
        })
    } else {
        rd.skip()
    };
    if parsed.and_then(|()| rd.finish()).is_err() {
        return quarantine(path, "unparsable JSON".into());
    }
    let Some(version) = version else {
        return quarantine(path, "missing schema field".into());
    };
    if version != schema {
        // A different (older or newer) schema is staleness, not
        // corruption: plain miss, overwritten on save.
        return CacheRead::Miss;
    }
    // Collision guard: the stored canonical string must match the job
    // that hashed to this file name. A well-formed entry for a
    // *different* job is a collision, not corruption.
    match job {
        None => return quarantine(path, "missing job field".into()),
        Some(job) if job != canonical => return CacheRead::Miss,
        Some(_) => {}
    }
    let Some(result) = result else {
        return quarantine(path, "missing result field".into());
    };
    let Some(stored) = stored else {
        return quarantine(path, "missing checksum field".into());
    };
    let Some(result) = result else {
        return quarantine(path, "undecodable result".into());
    };
    if stored != checksum(&result) {
        return quarantine(path, "checksum mismatch".into());
    }
    CacheRead::Hit(result)
}

/// The integrity checksum stored with each entry: FNV-1a over the
/// *compact* encoding of the result, so pretty-printing whitespace can
/// never perturb it. Streamed into the hash; no text is built.
fn result_checksum(r: &SimResult) -> String {
    let mut h = Fnv64::new();
    write_result(&mut h, r);
    format!("{:016x}", h.finish())
}

// The encoded `SimResult` schema, in key order: the two names, the
// `u64` counters, then `mem` — the read and write `BusStats`, each
// three 5-slot arrays. `result_to_json`, `result_from_json`,
// `write_result` and `read_result` all walk these tables, so the key
// list exists once.

/// One field of `S`: its JSON key (the field's name) and accessors.
type Field<S, T> = (&'static str, fn(&S) -> &T, fn(&mut S) -> &mut T);

/// The [`Field`] table of the named fields, in that order.
macro_rules! fields {
    ($($field:ident),* $(,)?) => {
        [$((stringify!($field), |s| &s.$field, |s| &mut s.$field)),*]
    };
}

/// The names.
const NAMES: [Field<SimResult, String>; 2] = fields!(prefetcher, workload);

/// The counters.
const COUNTERS: [Field<SimResult, u64>; 23] = fields!(
    insts,
    cycles,
    epochs,
    l2_inst_misses,
    l2_load_misses,
    l2_store_misses,
    secondary_misses,
    averted_inst,
    averted_load,
    averted_store,
    partial_hits,
    pf_requested,
    pf_issued,
    pf_dropped_bus,
    pf_dropped_mshr,
    pf_filtered,
    pf_evicted_unused,
    table_reads,
    table_read_drops,
    table_writes,
    writebacks,
    store_skipped,
    stall_cycles,
);

/// The key of the memory-traffic object, after the counters.
const MEM: &str = "mem";

/// The two sides of `mem`.
const MEM_SIDES: [Field<MemStats, BusStats>; 2] = fields!(read, write);

/// The per-class arrays of one [`BusStats`].
const BUS_ARRAYS: [Field<BusStats, [u64; 5]>; 3] = fields!(transfers, dropped, busy_cycles);

/// Top-level key `i` of an encoded [`SimResult`]: names, counters,
/// then `mem`.
fn result_key(i: usize) -> &'static str {
    match i.checked_sub(NAMES.len()) {
        None => NAMES[i].0,
        Some(c) => COUNTERS.get(c).map_or(MEM, |c| c.0),
    }
}

/// Number of top-level keys of an encoded [`SimResult`].
const RESULT_KEYS: usize = NAMES.len() + COUNTERS.len() + 1;

fn bus_to_json(b: &BusStats) -> Value {
    Value::Obj(
        BUS_ARRAYS
            .iter()
            .map(|(key, get, _)| {
                let items = get(b).iter().map(|&n| Value::Int(n)).collect();
                ((*key).into(), Value::Arr(items))
            })
            .collect(),
    )
}

fn bus_from_json(v: &Value) -> Option<BusStats> {
    let mut b = BusStats::default();
    for (key, _, get_mut) in &BUS_ARRAYS {
        let items = v.get(key)?.as_arr()?;
        if items.len() != 5 {
            return None;
        }
        for (slot, item) in get_mut(&mut b).iter_mut().zip(items) {
            *slot = item.as_u64()?;
        }
    }
    Some(b)
}

/// Encodes a [`SimResult`] as a JSON tree (also used for
/// `results.json`). [`write_result`] writes the same text directly.
pub fn result_to_json(r: &SimResult) -> Value {
    let mut fields: Vec<(String, Value)> = Vec::with_capacity(RESULT_KEYS);
    for (key, get, _) in &NAMES {
        fields.push(((*key).into(), Value::Str(get(r).clone())));
    }
    for (key, get, _) in &COUNTERS {
        fields.push(((*key).into(), Value::Int(*get(r))));
    }
    let sides = MEM_SIDES
        .iter()
        .map(|(key, get, _)| ((*key).into(), bus_to_json(get(&r.mem))))
        .collect();
    fields.push((MEM.into(), Value::Obj(sides)));
    Value::Obj(fields)
}

/// Decodes a [`SimResult`] from a JSON tree; `None` on any missing or
/// mistyped field. The reference for [`read_result`], which decodes
/// the text directly.
pub fn result_from_json(v: &Value) -> Option<SimResult> {
    let mut r = SimResult::default();
    for (key, _, get_mut) in &NAMES {
        *get_mut(&mut r) = v.get(key)?.as_str()?.to_owned();
    }
    for (key, _, get_mut) in &COUNTERS {
        *get_mut(&mut r) = v.get(key)?.as_u64()?;
    }
    let mem = v.get(MEM)?;
    for (key, _, get_mut) in &MEM_SIDES {
        *get_mut(&mut r.mem) = bus_from_json(mem.get(key)?)?;
    }
    Some(r)
}

/// Appends the compact encoding of `r` to `out`, byte for byte what
/// `result_to_json(r).to_json()` renders, without building the tree.
pub fn write_result(out: &mut impl JsonSink, r: &SimResult) {
    out.push_str("{");
    for (i, (key, get, _)) in NAMES.iter().enumerate() {
        if i > 0 {
            out.push_str(",");
        }
        json::write_key(out, key);
        json::write_str(out, get(r));
    }
    for (key, get, _) in &COUNTERS {
        out.push_str(",");
        json::write_key(out, key);
        json::write_u64(out, *get(r));
    }
    out.push_str(",");
    json::write_key(out, MEM);
    for (i, (side, get, _)) in MEM_SIDES.iter().enumerate() {
        out.push_str(if i == 0 { "{" } else { "," });
        json::write_key(out, side);
        for (j, (key, get_arr, _)) in BUS_ARRAYS.iter().enumerate() {
            out.push_str(if j == 0 { "{" } else { "," });
            json::write_key(out, key);
            for (k, &n) in get_arr(get(&r.mem)).iter().enumerate() {
                out.push_str(if k == 0 { "[" } else { "," });
                json::write_u64(out, n);
            }
            out.push_str("]");
        }
        out.push_str("}");
    }
    out.push_str("}}");
}

/// Reads an object whose keys are `key(0..n)`: in any order, unknown
/// keys skipped, the first occurrence of a repeated key the one that
/// counts (as with `Value::get`). Key `i`'s value goes to
/// `value(reader, i)`, which reports whether it was well-typed.
/// `Ok(false)` when the value is not an object, a key is missing or a
/// value is mistyped; `Err` only on malformed JSON.
///
/// Each key search starts just after the previous hit, so a document
/// in the writer's order costs one comparison per key.
pub(crate) fn read_keyed<'a>(
    rd: &mut Reader<'a>,
    n: usize,
    key: impl Fn(usize) -> &'static str,
    mut value: impl FnMut(&mut Reader<'a>, usize) -> Result<bool, ParseError>,
) -> Result<bool, ParseError> {
    debug_assert!(n < 64, "the seen-set is one u64");
    if rd.peek() != Some(b'{') {
        rd.skip()?;
        return Ok(false);
    }
    let (mut seen, mut ok, mut next) = (0u64, true, 0);
    rd.object(|rd, k| {
        match (next..n).chain(0..next).find(|&i| key(i) == k) {
            Some(i) if seen & 1 << i == 0 => {
                seen |= 1 << i;
                next = i + 1;
                ok &= value(rd, i)?;
            }
            _ => rd.skip()?,
        }
        Ok(())
    })?;
    Ok(ok && seen == (1 << n) - 1)
}

/// Reads exactly `out.len()` exact-`u64` array items into `out`;
/// `Ok(false)` on any other shape.
fn read_counts(rd: &mut Reader<'_>, out: &mut [u64]) -> Result<bool, ParseError> {
    if rd.peek() != Some(b'[') {
        rd.skip()?;
        return Ok(false);
    }
    let (mut n, mut ok) = (0, true);
    rd.array(|rd| {
        match (rd.opt_u64()?, out.get_mut(n)) {
            (Some(v), Some(slot)) => *slot = v,
            _ => ok = false,
        }
        n += 1;
        Ok(())
    })?;
    Ok(ok && n == out.len())
}

/// Decodes the [`SimResult`] at `rd` straight from the text — the
/// typed counterpart of `result_from_json(&json::parse(..)?)`:
/// `Ok(None)` where that gives `None` (a missing or mistyped field,
/// or a value that is not an object), `Err` on malformed JSON. Any key
/// order and whitespace; unknown keys are skipped.
///
/// # Errors
///
/// Malformed JSON.
pub fn read_result(rd: &mut Reader<'_>) -> Result<Option<SimResult>, ParseError> {
    let mut r = SimResult::default();
    let ok = read_keyed(rd, RESULT_KEYS, result_key, |rd, i| {
        let Some(c) = i.checked_sub(NAMES.len()) else {
            return Ok(rd
                .opt_str()?
                .map(|s| *(NAMES[i].2)(&mut r) = s.into_owned())
                .is_some());
        };
        if let Some((_, _, get_mut)) = COUNTERS.get(c) {
            return Ok(rd.opt_u64()?.map(|n| *get_mut(&mut r) = n).is_some());
        }
        let mem = &mut r.mem;
        read_keyed(
            rd,
            MEM_SIDES.len(),
            |s| MEM_SIDES[s].0,
            |rd, s| {
                let bus = (MEM_SIDES[s].2)(mem);
                read_keyed(
                    rd,
                    BUS_ARRAYS.len(),
                    |a| BUS_ARRAYS[a].0,
                    |rd, a| read_counts(rd, (BUS_ARRAYS[a].2)(bus)),
                )
            },
        )
    })?;
    Ok(ok.then_some(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
    use ebcp_trace::WorkloadSpec;

    fn sample_result() -> SimResult {
        SimResult {
            prefetcher: "ebcp".into(),
            workload: "database".into(),
            insts: 123_456,
            cycles: 456_789,
            epochs: 777,
            l2_load_misses: 4_242,
            pf_issued: u64::MAX, // exercise exact u64 round-trip
            mem: MemStats {
                read: BusStats {
                    transfers: [1, 2, 3, 4, 5],
                    dropped: [0; 5],
                    busy_cycles: [9, 8, 7, 6, 5],
                },
                write: BusStats::default(),
            },
            ..SimResult::default()
        }
    }

    fn sample_job() -> Job {
        Job::new(
            RunSpec {
                workload: WorkloadSpec::database().scaled(1, 16),
                seed: 1,
                warmup_insts: 100,
                measure_insts: 100,
                sim: SimConfig::scaled_down(16),
            },
            PrefetcherSpec::None,
        )
    }

    fn temp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("ebcp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn result_codec_round_trips() {
        let r = sample_result();
        let v = result_to_json(&r);
        let text = v.to_json_pretty();
        let back = result_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn save_then_load() {
        let store = temp_store("roundtrip");
        let job = sample_job();
        assert!(store.load(&job).is_none(), "cold store must miss");
        let r = sample_result();
        store.save(&job, &r).unwrap();
        assert_eq!(store.load(&job), Some(r));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unparsable_entry_is_quarantined() {
        let store = temp_store("corrupt");
        let job = sample_job();
        store.save(&job, &sample_result()).unwrap();
        let path = store.entry_path(&job);
        fs::write(&path, "{ not json").unwrap();
        match store.load_checked(&job) {
            CacheRead::Quarantined { path: q, reason } => {
                assert!(q.to_string_lossy().ends_with(".corrupt"), "{}", q.display());
                assert!(q.is_file(), "corrupt bytes must be preserved");
                assert!(reason.contains("unparsable"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "the corrupt entry must be moved away");
        // Self-heal: saving again overwrites and the entry reads back.
        store.save(&job, &sample_result()).unwrap();
        assert_eq!(store.load(&job), Some(sample_result()));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bit_flip_in_counter_is_quarantined() {
        let store = temp_store("bitflip");
        let job = sample_job();
        store.save(&job, &sample_result()).unwrap();
        let path = store.entry_path(&job);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a digit inside the result payload: still valid JSON, but
        // a different value than the checksum covers.
        let at = bytes
            .windows(7)
            .position(|w| w == b"123456,")
            .expect("sample counter must appear in the entry");
        bytes[at] = b'9';
        fs::write(&path, &bytes).unwrap();
        match store.load_checked(&job) {
            CacheRead::Quarantined { reason, .. } => {
                assert!(reason.contains("checksum"), "{reason}")
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_schema_is_a_plain_miss_not_corruption() {
        let store = temp_store("stale");
        let job = sample_job();
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Int(SCHEMA - 1)),
            ("id".into(), Value::Str(job.id().to_string())),
            ("job".into(), Value::Str(job.canonical())),
            ("result".into(), result_to_json(&sample_result())),
        ]);
        let path = store.entry_path(&job);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, doc.to_json()).unwrap();
        assert_eq!(store.load_checked(&job), CacheRead::Miss);
        assert!(path.exists(), "stale entries are not quarantined");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn canonical_mismatch_reads_as_miss() {
        let store = temp_store("collision");
        let job = sample_job();
        // Simulate a hash collision: a valid entry under this job's file
        // name whose canonical string belongs to some other job.
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Int(SCHEMA)),
            ("id".into(), Value::Str(job.id().to_string())),
            ("job".into(), Value::Str("other-job".into())),
            ("result".into(), result_to_json(&sample_result())),
        ]);
        let path = store.entry_path(&job);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, doc.to_json()).unwrap();
        assert_eq!(store.load_checked(&job), CacheRead::Miss);
        assert!(path.exists(), "collisions are not quarantined");
        let _ = fs::remove_dir_all(store.dir());
    }

    /// The entry reader takes keys in any order and ignores unknown
    /// ones, at the top level and inside the result.
    #[test]
    fn reordered_entry_with_unknown_keys_still_hits() {
        let store = temp_store("reordered");
        let job = sample_job();
        let r = sample_result();
        let Value::Obj(mut result) = result_to_json(&r) else {
            panic!("a result encodes as an object");
        };
        result.reverse();
        result.push(("note".into(), Value::Arr(vec![Value::Null])));
        let doc = Value::Obj(vec![
            ("result".into(), Value::Obj(result)),
            ("extra".into(), Value::Bool(true)),
            ("checksum".into(), Value::Str(result_checksum(&r))),
            ("job".into(), Value::Str(job.canonical())),
            ("schema".into(), Value::Int(SCHEMA)),
        ]);
        let path = store.entry_path(&job);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, doc.to_json_pretty()).unwrap();
        assert_eq!(store.load_checked(&job), CacheRead::Hit(r));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Two concurrent writers publishing the same job id — the shape of
    /// two `repro` processes sharing one store — must never tear an
    /// entry: every interleaved load sees either a miss or a fully
    /// valid result, and both final candidates are intact. Before temp
    /// names were unique per save, both writers shared one `json.tmp`
    /// and could rename a half-written file into place.
    #[test]
    fn concurrent_saves_never_publish_a_torn_entry() {
        let store = temp_store("race");
        let job = sample_job();
        let a = sample_result();
        let b = SimResult {
            insts: 999_999_999,
            ..sample_result()
        };
        std::thread::scope(|s| {
            for result in [&a, &b] {
                s.spawn(|| {
                    for _ in 0..200 {
                        store.save(&job, result).unwrap();
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..400 {
                    match store.load_checked(&job) {
                        CacheRead::Hit(r) => assert!(r == a || r == b, "torn entry read back"),
                        CacheRead::Miss => {}
                        CacheRead::Quarantined { reason, .. } => {
                            panic!("torn entry quarantined: {reason}")
                        }
                    }
                }
            });
        });
        let got = store.load(&job).expect("final entry must be valid");
        assert!(got == a || got == b);
        // No temp litter left behind once both writers finished.
        let shard = store.entry_path(&job);
        let leftovers: Vec<_> = fs::read_dir(shard.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A flat (pre-sharding) store migrates on open: entries and their
    /// quarantines move into 2-hex shard directories and read back.
    #[test]
    fn flat_store_migrates_on_open() {
        let store = temp_store("migrate");
        let job = sample_job();
        store.save(&job, &sample_result()).unwrap();
        // Reconstruct the legacy layout: entry + a quarantine, flat.
        let sharded = store.entry_path(&job);
        let flat = store.dir().join(format!("{}.json", job.id()));
        fs::rename(&sharded, &flat).unwrap();
        let flat_corrupt = store.dir().join(format!("{}.json.corrupt", job.id()));
        fs::write(&flat_corrupt, "old corrupt bytes").unwrap();
        let dir = store.dir().to_path_buf();
        drop(store);

        let store = ResultStore::open(&dir).unwrap();
        assert!(!flat.exists(), "entry must move into its shard");
        assert!(sharded.is_file());
        assert!(!flat_corrupt.exists(), "quarantines migrate too");
        let mut corrupt = sharded.clone().into_os_string();
        corrupt.push(".corrupt");
        assert!(PathBuf::from(corrupt).is_file());
        assert_eq!(store.load(&job), Some(sample_result()));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A flat entry that appears *after* open (written by a pre-sharding
    /// process sharing the store) is found and migrated read-through.
    #[test]
    fn flat_entry_is_read_through_migrated() {
        let store = temp_store("readthrough");
        let job = sample_job();
        store.save(&job, &sample_result()).unwrap();
        let sharded = store.entry_path(&job);
        let flat = store.dir().join(format!("{}.json", job.id()));
        fs::rename(&sharded, &flat).unwrap();
        assert_eq!(store.load(&job), Some(sample_result()));
        assert!(!flat.exists(), "read must migrate the flat entry");
        assert!(sharded.is_file());
        let _ = fs::remove_dir_all(store.dir());
    }
}
