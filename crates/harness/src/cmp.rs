//! First-class CMP cells: content-addressed multi-core jobs.
//!
//! A [`CmpJob`] pairs a [`CmpSpec`] (one workload × seed per core over
//! one shared machine) with a [`PrefetcherSpec`], mirroring the
//! single-core [`Job`]. CMP cells get the same treatment single-core
//! cells do: dedup + memoization by content hash, checksummed on-disk
//! result entries (quarantine + self-heal on corruption), per-core
//! pre-resolved streams shared through the harness's warm `pres` map
//! *and* the `preres/` disk cache — each core's stream is exactly the
//! stream of its single-core [`CmpJob::core_job`], so CMP and
//! single-core cells are cache currency for each other — and
//! panic-isolated execution with the retry-once policy
//! ([`crate::Harness::run_cmp_outcomes`]), all through the executor the
//! single-core cells use. Outcomes are [`crate::CmpOutcome`]s.

use std::fs;
use std::io;
use std::path::PathBuf;

use ebcp_sim::{CmpResult, CmpSpec, PrefetcherSpec, SimResult};

use crate::exec::Cell;
use crate::job::{canonical, Fnv64, IdHasher, Job, JobId};
use crate::json::{self, JsonSink, ParseError, Reader, Value};
use crate::store::{
    check_entry, read_keyed, read_result, result_from_json, result_to_json, write_entry,
    write_result, CacheRead, ResultStore,
};

/// Schema tag mixed into every CMP canonical string; versioned
/// independently of the single-core [`crate::job::CANON_VERSION`]
/// because the two result shapes evolve independently.
///
/// v1: the discrete-event CMP engine (metric-identical to the stepping
/// engine it replaced, so no timing discontinuity to fence off).
pub const CMP_CANON_VERSION: &str = "ebcp-cmpjob-v1";

/// On-disk schema version for CMP store entries.
const CMP_SCHEMA: u64 = 1;

/// One unit of CMP work: run `pf` over the multi-core cell `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpJob {
    /// Per-core workloads/seeds and the shared machine.
    pub spec: CmpSpec,
    /// Prefetcher to simulate (one instance shared by all cores).
    pub pf: PrefetcherSpec,
}

impl CmpJob {
    /// Creates a CMP job.
    pub fn new(spec: CmpSpec, pf: PrefetcherSpec) -> Self {
        CmpJob { spec, pf }
    }

    /// The canonical string the job's identity hashes over (see
    /// [`Job::canonical`] for why `Debug` is a sound canonical form).
    #[must_use]
    pub fn canonical(&self) -> String {
        canonical(CMP_CANON_VERSION, &self.spec, &self.pf)
    }

    /// The job's content hash. Lives in the same [`JobId`] namespace as
    /// single-core jobs (distinct canonical prefixes keep the collision
    /// guard meaningful) but in its own memo and store shard files.
    /// Streamed into the hasher, like [`Job::id`].
    #[must_use]
    pub fn id(&self) -> JobId {
        IdHasher::new(CMP_CANON_VERSION).id(&self.spec, &self.pf)
    }

    /// Every job's [`CmpJob::id`], in order, hashing each run of
    /// consecutive cells with equal specs once, as [`Job::ids`] does.
    #[must_use]
    pub fn ids(jobs: &[CmpJob]) -> Vec<JobId> {
        <CmpJob as Cell>::ids(jobs)
    }

    /// The single-core job whose pre-resolved stream core `k` consumes.
    /// This is the bridge into the existing stream infrastructure: the
    /// in-memory `pres` map and the `preres/` disk cache are keyed by
    /// [`Job::pre_key`], so a CMP cell and a single-core sweep over the
    /// same (workload, seed, length, L1) share one stream build.
    #[must_use]
    pub fn core_job(&self, k: usize) -> Job {
        Job::new(self.spec.core_run_spec(k), self.pf.clone())
    }

    /// Number of cores in the cell.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.spec.cores()
    }

    /// Total trace records the job will consume, across all cores.
    #[must_use]
    pub fn records(&self) -> u64 {
        (self.spec.warmup_insts + self.spec.measure_insts) * self.cores() as u64
    }

    /// Short human label, e.g. `database@4c x ebcp`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}c x {}", self.spec.name, self.cores(), self.pf.name())
    }
}

/// The keys of an encoded [`CmpResult`], in order: the per-core
/// results, then the aggregate.
const CMP_KEYS: [&str; 2] = ["cores", "aggregate"];

/// Encodes a [`CmpResult`] as JSON: per-core results plus the
/// aggregate, each in the standard [`result_to_json`] shape.
pub fn cmp_result_to_json(r: &CmpResult) -> Value {
    Value::Obj(vec![
        (
            CMP_KEYS[0].into(),
            Value::Arr(r.cores.iter().map(result_to_json).collect()),
        ),
        (CMP_KEYS[1].into(), result_to_json(&r.aggregate)),
    ])
}

/// Decodes a [`CmpResult`]; `None` on any missing or mistyped field.
/// The reference for [`read_cmp_result`].
pub fn cmp_result_from_json(v: &Value) -> Option<CmpResult> {
    let cores = v
        .get(CMP_KEYS[0])?
        .as_arr()?
        .iter()
        .map(result_from_json)
        .collect::<Option<Vec<SimResult>>>()?;
    Some(CmpResult {
        cores,
        aggregate: result_from_json(v.get(CMP_KEYS[1])?)?,
    })
}

/// Appends the compact encoding of `r`, byte for byte what
/// `cmp_result_to_json(r).to_json()` renders.
pub fn write_cmp_result(out: &mut impl JsonSink, r: &CmpResult) {
    out.push_str("{");
    json::write_key(out, CMP_KEYS[0]);
    out.push_str("[");
    for (i, core) in r.cores.iter().enumerate() {
        if i > 0 {
            out.push_str(",");
        }
        write_result(out, core);
    }
    out.push_str("],");
    json::write_key(out, CMP_KEYS[1]);
    write_result(out, &r.aggregate);
    out.push_str("}");
}

/// Decodes the [`CmpResult`] at `rd` straight from the text, with the
/// contract of [`read_result`].
///
/// # Errors
///
/// Malformed JSON.
pub fn read_cmp_result(rd: &mut Reader<'_>) -> Result<Option<CmpResult>, ParseError> {
    let mut cores = Vec::new();
    let mut aggregate = None;
    let ok = read_keyed(
        rd,
        CMP_KEYS.len(),
        |i| CMP_KEYS[i],
        |rd, i| {
            if i == 1 {
                aggregate = read_result(rd)?;
                return Ok(aggregate.is_some());
            }
            if rd.peek() != Some(b'[') {
                rd.skip()?;
                return Ok(false);
            }
            let mut ok = true;
            rd.array(|rd| {
                match read_result(rd)? {
                    Some(r) => cores.push(r),
                    None => ok = false,
                }
                Ok(())
            })?;
            Ok(ok)
        },
    )?;
    Ok(match (ok, aggregate) {
        (true, Some(aggregate)) => Some(CmpResult { cores, aggregate }),
        _ => None,
    })
}

impl ResultStore {
    /// The on-disk path of a CMP job's entry: same 2-hex sharding as
    /// single-core entries, `.cmp.json` suffix so the two result shapes
    /// never collide on a file name.
    pub fn cmp_entry_path(&self, job: &CmpJob) -> PathBuf {
        self.cmp_entry_path_of(job.id())
    }

    /// [`ResultStore::cmp_entry_path`] of the job with id `id`.
    fn cmp_entry_path_of(&self, id: JobId) -> PathBuf {
        let name = format!("{id}.cmp.json");
        self.dir().join(&name[..2]).join(name)
    }

    /// Integrity-checked load of a CMP entry — same contract as
    /// [`ResultStore::load_checked`]: valid hit, plain miss (absent /
    /// stale schema / hash collision), or quarantined corruption.
    pub fn load_checked_cmp(&self, job: &CmpJob) -> CacheRead<CmpResult> {
        self.load_checked_cmp_id(job.id(), &job.canonical())
    }

    /// [`ResultStore::load_checked_cmp`] for a caller that already holds
    /// the job's id and canonical string (`id == job.id()`,
    /// `canonical == job.canonical()`).
    pub(crate) fn load_checked_cmp_id(&self, id: JobId, canonical: &str) -> CacheRead<CmpResult> {
        let path = self.cmp_entry_path_of(id);
        let Ok(text) = fs::read_to_string(&path) else {
            return CacheRead::Miss;
        };
        check_entry(
            path,
            &text,
            CMP_SCHEMA,
            canonical,
            read_cmp_result,
            cmp_checksum,
        )
    }

    /// Persists a CMP result (atomic write-temp-rename, pid- and
    /// sequence-unique temp names — see [`ResultStore::save`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers may treat them as non-fatal.
    pub fn save_cmp(&self, job: &CmpJob, result: &CmpResult) -> io::Result<()> {
        self.save_cmp_id(job, job.id(), result)
    }

    /// [`ResultStore::save_cmp`] for a caller that already holds the
    /// job's id (`id == job.id()`).
    pub(crate) fn save_cmp_id(
        &self,
        job: &CmpJob,
        id: JobId,
        result: &CmpResult,
    ) -> io::Result<()> {
        write_entry(
            &self.cmp_entry_path_of(id),
            CMP_SCHEMA,
            id,
            job.canonical(),
            cmp_checksum(result),
            cmp_result_to_json(result),
        )
    }
}

/// FNV-1a over the compact result encoding (whitespace-proof),
/// streamed into the hash.
fn cmp_checksum(r: &CmpResult) -> String {
    let mut h = Fnv64::new();
    write_cmp_result(&mut h, r);
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    fn sample_spec(cores: usize) -> CmpSpec {
        CmpSpec::homogeneous(
            WorkloadSpec::database().scaled(1, 32),
            cores,
            5_000,
            5_000,
            SimConfig::scaled_down(16),
        )
    }

    fn sample_result(cores: usize) -> CmpResult {
        CmpResult {
            cores: (0..cores)
                .map(|k| SimResult {
                    prefetcher: "ebcp".into(),
                    workload: format!("database#core{k}"),
                    insts: 5_000,
                    cycles: 9_000 + k as u64,
                    ..SimResult::default()
                })
                .collect(),
            aggregate: SimResult {
                prefetcher: "ebcp".into(),
                workload: "database".into(),
                insts: 5_000 * cores as u64,
                pf_issued: u64::MAX, // exact u64 round-trip
                ..SimResult::default()
            },
        }
    }

    #[test]
    fn cmp_codec_round_trips() {
        let r = sample_result(4);
        let text = cmp_result_to_json(&r).to_json_pretty();
        let back = cmp_result_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn identity_covers_cores_and_prefetcher() {
        let a = CmpJob::new(sample_spec(2), PrefetcherSpec::None);
        assert_eq!(
            a.id(),
            CmpJob::new(sample_spec(2), PrefetcherSpec::None).id()
        );
        let b = CmpJob::new(sample_spec(4), PrefetcherSpec::None);
        assert_ne!(a.id(), b.id(), "core count is identity");
        let c = CmpJob::new(
            sample_spec(2),
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        );
        assert_ne!(a.id(), c.id(), "prefetcher is identity");
        assert_eq!(a.label(), "database x none".replace(" x", "@2c x"));
    }

    #[test]
    fn core_job_shares_stream_identity_with_single_core_cells() {
        // The pre-key of core k's bridge job equals the pre-key of a
        // plain single-core job over the same (workload, seed, length,
        // L1): CMP cells reuse single-core streams and vice versa.
        let cmp = CmpJob::new(sample_spec(2), PrefetcherSpec::None);
        let single = Job::new(cmp.spec.core_run_spec(1), PrefetcherSpec::None);
        assert_eq!(cmp.core_job(1).pre_key(), single.pre_key());
        // Different cores read different seeds, hence different streams.
        assert_ne!(cmp.core_job(0).pre_key(), cmp.core_job(1).pre_key());
    }

    #[test]
    fn cmp_store_save_then_load() {
        let dir = std::env::temp_dir().join(format!("ebcp-cmpstore-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let job = CmpJob::new(sample_spec(2), PrefetcherSpec::None);
        assert_eq!(store.load_checked_cmp(&job), CacheRead::Miss);
        let r = sample_result(2);
        store.save_cmp(&job, &r).unwrap();
        assert_eq!(store.load_checked_cmp(&job), CacheRead::Hit(r));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cmp_entry_is_quarantined_and_heals() {
        let dir = std::env::temp_dir().join(format!("ebcp-cmpstore-q-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let job = CmpJob::new(sample_spec(2), PrefetcherSpec::None);
        store.save_cmp(&job, &sample_result(2)).unwrap();
        let path = store.cmp_entry_path(&job);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes
            .windows(5)
            .position(|w| w == b"9000,")
            .expect("per-core cycle count must appear");
        bytes[at] = b'7';
        fs::write(&path, &bytes).unwrap();
        match store.load_checked_cmp(&job) {
            CacheRead::Quarantined { path: q, reason } => {
                assert!(reason.contains("checksum"), "{reason}");
                assert!(q.to_string_lossy().ends_with(".corrupt"));
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // Self-heal: a fresh save overwrites and reads back.
        store.save_cmp(&job, &sample_result(2)).unwrap();
        assert_eq!(
            store.load_checked_cmp(&job),
            CacheRead::Hit(sample_result(2))
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_cmp_schema_is_a_plain_miss() {
        let dir = std::env::temp_dir().join(format!("ebcp-cmpstore-s-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let job = CmpJob::new(sample_spec(2), PrefetcherSpec::None);
        store.save_cmp(&job, &sample_result(2)).unwrap();
        let path = store.cmp_entry_path(&job);
        let text = fs::read_to_string(&path)
            .unwrap()
            .replace("\"schema\": 1", "\"schema\": 0");
        fs::write(&path, text).unwrap();
        assert_eq!(store.load_checked_cmp(&job), CacheRead::Miss);
        assert!(path.exists(), "stale entries are not quarantined");
        let _ = fs::remove_dir_all(&dir);
    }
}
