//! Content-addressed simulation jobs.
//!
//! A [`Job`] pairs a [`RunSpec`] with a [`PrefetcherSpec`]. Its identity
//! is a hash over a canonical byte string derived from both, so the same
//! `(workload, seed, lengths, machine, prefetcher)` submitted by two
//! different experiment drivers collapses to one simulation — and to one
//! entry in the on-disk result store across processes.

use std::fmt;

use ebcp_sim::{PrefetcherSpec, RunSpec};

use crate::exec::Cell;

/// Schema tag mixed into every canonical string. Bump when the meaning
/// of a spec field changes without its `Debug` shape changing, to
/// invalidate stale on-disk results.
///
/// v2: the engine switched to eager L1 fills (two-phase pipeline), which
/// shifts absolute timing numbers — v1 cached results describe the old
/// model.
pub const CANON_VERSION: &str = "ebcp-job-v2";

/// 64-bit FNV-1a. Stable across platforms and processes (unlike
/// `DefaultHasher`, which is randomly keyed per process), so hashes can
/// key an on-disk store.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Incremental form of [`fnv1a64`], for hashing data produced in
/// chunks (e.g. streaming cache-file writers) without buffering it.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Starts a fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Lets `write!` stream formatted text straight into the hash: the
/// digest equals [`fnv1a64`] of the string `format!` would have built,
/// without building it.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of `args`' formatted text, without allocating it.
pub(crate) fn fnv1a64_fmt(args: fmt::Arguments<'_>) -> u64 {
    let mut h = Fnv64::new();
    // `Fnv64::write_str` never fails, and the specs' `Debug` impls are
    // derived, so formatting cannot fail either.
    let _ = fmt::Write::write_fmt(&mut h, args);
    h.finish()
}

/// The first piece of a cell's canonical string `"{tag}|{spec:?}|{pf:?}"`:
/// `"{tag}|{spec:?}|"`, shared by every cell of one spec. [`write_pf`]
/// writes the rest. The two are the one definition of the layout behind
/// [`Job`] and [`crate::CmpJob`] canonical strings and ids.
fn write_spec_prefix(out: &mut impl fmt::Write, tag: &str, spec: &impl fmt::Debug) {
    // `Fnv64` and `String` never fail, and the specs' `Debug` impls
    // are derived, so formatting cannot fail either.
    let _ = write!(out, "{tag}|{spec:?}|");
}

/// The second piece of a canonical string: the prefetcher's `Debug` text.
fn write_pf(out: &mut impl fmt::Write, pf: &PrefetcherSpec) {
    let _ = write!(out, "{pf:?}");
}

/// The canonical string of the cell `(spec, pf)` under schema `tag`.
pub(crate) fn canonical(tag: &str, spec: &impl fmt::Debug, pf: &PrefetcherSpec) -> String {
    let mut s = String::new();
    write_spec_prefix(&mut s, tag, spec);
    write_pf(&mut s, pf);
    s
}

/// Hashes a sequence of cells' canonical strings, streaming the
/// `"{tag}|{spec:?}|"` prefix into [`Fnv64`] once per run of consecutive
/// cells whose specs compare `==`: each cell clones that hash state and
/// streams only its prefetcher's `Debug` text (~160 B against a
/// 1.5–2.4 KB spec). The ids equal [`fnv1a64`] of the full strings.
///
/// Precondition: specs that compare `==` must format identically. This
/// is the no-NaN, no-−0.0 float invariant [`Job::canonical`] already
/// relies on (`0.0 == -0.0` but they print differently); a debug build
/// checks every id against a hash of the full string.
pub(crate) struct IdHasher<'a, S> {
    tag: &'static str,
    /// The last spec hashed and the hash state after its prefix.
    prefix: Option<(&'a S, Fnv64)>,
}

impl<'a, S: fmt::Debug + PartialEq> IdHasher<'a, S> {
    /// A hasher for cells under schema `tag`.
    pub(crate) fn new(tag: &'static str) -> Self {
        IdHasher { tag, prefix: None }
    }

    /// The id of the cell `(spec, pf)`.
    pub(crate) fn id(&mut self, spec: &'a S, pf: &PrefetcherSpec) -> JobId {
        let mut h = match &self.prefix {
            Some((last, prefix)) if *last == spec => prefix.clone(),
            _ => {
                let mut prefix = Fnv64::new();
                write_spec_prefix(&mut prefix, self.tag, spec);
                self.prefix = Some((spec, prefix.clone()));
                prefix
            }
        };
        write_pf(&mut h, pf);
        let id = JobId(h.finish());
        debug_assert_eq!(
            id,
            JobId(fnv1a64(canonical(self.tag, spec, pf).as_bytes())),
            "specs that compare equal formatted differently"
        );
        id
    }
}

/// Builds a sequence of cells' canonical strings the way [`IdHasher`]
/// hashes them: the `"{tag}|{spec:?}|"` prefix is formatted once per run
/// of consecutive cells whose specs compare `==`, and each cell only
/// replaces the prefetcher's part after it. Same precondition as
/// [`IdHasher`]; a debug build checks every text against
/// [`canonical`].
pub(crate) struct CanonText<'a, S> {
    tag: &'static str,
    /// The last spec formatted and the length of its prefix in `buf`.
    prefix: Option<(&'a S, usize)>,
    buf: String,
}

impl<'a, S: fmt::Debug + PartialEq> CanonText<'a, S> {
    /// A builder for cells under schema `tag`.
    pub(crate) fn new(tag: &'static str) -> Self {
        CanonText {
            tag,
            prefix: None,
            buf: String::new(),
        }
    }

    /// The canonical string of the cell `(spec, pf)`.
    pub(crate) fn text(&mut self, spec: &'a S, pf: &PrefetcherSpec) -> &str {
        match self.prefix {
            Some((last, len)) if last == spec => self.buf.truncate(len),
            _ => {
                self.buf.clear();
                write_spec_prefix(&mut self.buf, self.tag, spec);
                self.prefix = Some((spec, self.buf.len()));
            }
        }
        write_pf(&mut self.buf, pf);
        debug_assert_eq!(
            self.buf,
            canonical(self.tag, spec, pf),
            "specs that compare equal formatted differently"
        );
        &self.buf
    }
}

/// A job's stable identity: the FNV-1a hash of its canonical string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One unit of work: run `pf` over the trace described by `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Workload, trace length and machine.
    pub spec: RunSpec,
    /// Prefetcher to simulate.
    pub pf: PrefetcherSpec,
}

impl Job {
    /// Creates a job.
    pub fn new(spec: RunSpec, pf: PrefetcherSpec) -> Self {
        Job { spec, pf }
    }

    /// The canonical string the job's identity hashes over.
    ///
    /// Built from the `Debug` representation of both specs, which is
    /// complete (every field of every spec type derives `Debug`) and
    /// deterministic. `f64` fields print as shortest round-trip decimals,
    /// so distinct bit patterns yield distinct strings; config floats
    /// are plain literals (no NaN, no −0.0), so the mapping is injective
    /// in practice. Stored next to each cached result to detect hash
    /// collisions.
    #[must_use]
    pub fn canonical(&self) -> String {
        canonical(CANON_VERSION, &self.spec, &self.pf)
    }

    /// The job's content hash: [`fnv1a64`] of [`Job::canonical`],
    /// streamed into the hasher instead of formatted into a `String`.
    #[must_use]
    pub fn id(&self) -> JobId {
        IdHasher::new(CANON_VERSION).id(&self.spec, &self.pf)
    }

    /// Every job's [`Job::id`], in order, hashing each run of
    /// consecutive jobs with equal specs' shared prefix once (see
    /// [`IdHasher`]). A workload-major sweep grid hashes its `RunSpec`
    /// once per workload instead of once per cell.
    #[must_use]
    pub fn ids(jobs: &[Job]) -> Vec<JobId> {
        <Job as Cell>::ids(jobs)
    }

    /// Hash identifying the *trace* this job replays: workload, seed and
    /// record count, but not the machine or prefetcher. Jobs with equal
    /// trace keys can share one materialized trace.
    #[must_use]
    pub fn trace_key(&self) -> u64 {
        fnv1a64_fmt(format_args!(
            "{CANON_VERSION}|trace|{:?}|{}|{}",
            self.spec.workload,
            self.spec.seed,
            self.spec.warmup_insts + self.spec.measure_insts,
        ))
    }

    /// Hash identifying the *pre-resolved event stream* this job can
    /// replay: the trace identity plus the L1 geometries the stream was
    /// resolved under — but not the rest of the machine or the
    /// prefetcher. Jobs with equal pre-keys (every cell of a prefetcher
    /// sweep) share one stream.
    #[must_use]
    pub fn pre_key(&self) -> u64 {
        fnv1a64_fmt(format_args!(
            "{CANON_VERSION}|pre|{:?}|{}|{}|{:?}|{:?}",
            self.spec.workload,
            self.spec.seed,
            self.spec.warmup_insts + self.spec.measure_insts,
            self.spec.sim.l1i,
            self.spec.sim.l1d,
        ))
    }

    /// Total trace records the job will consume.
    #[must_use]
    pub const fn records(&self) -> u64 {
        self.spec.warmup_insts + self.spec.measure_insts
    }

    /// Short human label, e.g. `database x ebcp`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} x {}", self.spec.workload.name, self.pf.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_core::EbcpConfig;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    fn job(seed: u64) -> Job {
        Job::new(
            RunSpec {
                workload: WorkloadSpec::database().scaled(1, 16),
                seed,
                warmup_insts: 10_000,
                measure_insts: 5_000,
                sim: SimConfig::scaled_down(16),
            },
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
        )
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn equal_jobs_equal_ids() {
        assert_eq!(job(3).id(), job(3).id());
    }

    #[test]
    fn different_seed_different_id_same_everything_else() {
        assert_ne!(job(3).id(), job(4).id());
    }

    #[test]
    fn prefetcher_changes_id_but_not_trace_key() {
        let a = job(3);
        let b = Job::new(a.spec.clone(), PrefetcherSpec::None);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.trace_key(), b.trace_key());
    }

    #[test]
    fn machine_changes_id_but_not_trace_key() {
        let a = job(3);
        let mut b = a.clone();
        b.spec.sim = SimConfig::scaled_down(4);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.trace_key(), b.trace_key());
    }

    #[test]
    fn prefetcher_and_backend_changes_keep_pre_key() {
        let a = job(3);
        // Different prefetcher: same stream.
        let b = Job::new(a.spec.clone(), PrefetcherSpec::None);
        assert_eq!(a.pre_key(), b.pre_key());
        // Back-end machine change (L2 etc.) with identical L1s: still
        // the same stream.
        let mut c = a.clone();
        c.spec.sim.l2 = ebcp_mem::CacheGeometry::new(1 << 20, 8);
        assert_eq!(a.pre_key(), c.pre_key());
        // L1 geometry change: a different stream.
        let mut d = a.clone();
        d.spec.sim.l1d = ebcp_mem::CacheGeometry::new(1 << 13, 2);
        assert_ne!(a.pre_key(), d.pre_key());
        // Different trace: a different stream.
        let e = job(4);
        assert_ne!(a.pre_key(), e.pre_key());
    }

    #[test]
    fn workload_changes_trace_key() {
        let a = job(3);
        let mut b = a.clone();
        b.spec.workload = WorkloadSpec::tpcw().scaled(1, 16);
        assert_ne!(a.trace_key(), b.trace_key());
    }

    #[test]
    fn id_formats_as_16_hex_digits() {
        let id = job(1).id();
        let s = id.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
