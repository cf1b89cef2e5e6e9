//! Golden tests for job identity.
//!
//! Job ids, trace keys and pre-keys address the on-disk store, so a
//! store written by an older build stays usable only while every key is
//! byte-identical. The ids are hashed by streaming the formatted specs
//! into FNV-1a; these tests pin that each key equals the FNV-1a of the
//! string the original `format!`-based code hashed, over the whole
//! 5-workload × 15-prefetcher grid plus CMP cells at 1, 2 and 4 cores,
//! and pin two ids as literals.

use ebcp_core::EbcpConfig;
use ebcp_harness::job::CANON_VERSION;
use ebcp_harness::{fnv1a64, CmpJob, Job, JobId, Scale};
use ebcp_sim::PrefetcherSpec;
use ebcp_trace::WorkloadSpec;

/// The 15-name roster a full sweep runs: the EBCP variants, the
/// Figure 9 baselines, the modern competitors and two off-chip-filtered
/// compositions, each resolved the way the sweep service resolves its
/// names.
fn roster(scale: &Scale) -> Vec<PrefetcherSpec> {
    let ebcp =
        PrefetcherSpec::Ebcp(EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20)));
    let baselines: Vec<PrefetcherSpec> = scale
        .figure9_roster()
        .into_iter()
        .chain(scale.modern_roster())
        .map(|(name, cfg)| PrefetcherSpec::baseline(name, cfg))
        .collect();
    let stream = baselines
        .iter()
        .find(|p| p.name() == "stream")
        .expect("the Figure 9 roster has stream")
        .clone();
    let mut pfs = vec![
        PrefetcherSpec::None,
        ebcp.clone(),
        PrefetcherSpec::Ebcp(
            EbcpConfig::comparison_minus().with_table_entries(scale.entries(1 << 20)),
        ),
    ];
    pfs.extend(baselines);
    pfs.push(PrefetcherSpec::filtered(ebcp));
    pfs.push(PrefetcherSpec::filtered(stream));
    pfs
}

fn single_core_grid(scale: &Scale) -> Vec<Job> {
    let machine = scale.machine();
    let pfs = roster(scale);
    let mut jobs = Vec::new();
    for w in scale.workloads_all() {
        let spec = scale.run_spec(&w, machine);
        jobs.extend(pfs.iter().map(|pf| Job::new(spec.clone(), pf.clone())));
    }
    jobs
}

fn cmp_grid(scale: &Scale) -> Vec<CmpJob> {
    let pfs = roster(scale);
    let mut jobs = Vec::new();
    for preset in WorkloadSpec::extended_presets() {
        for cores in [1, 2, 4] {
            let spec = scale.cmp_spec(&preset, cores);
            jobs.extend(pfs.iter().map(|pf| CmpJob::new(spec.clone(), pf.clone())));
        }
    }
    jobs
}

#[test]
fn grid_covers_five_workloads_and_fifteen_prefetchers() {
    let scale = Scale::quick();
    let mut names: Vec<String> = roster(&scale).iter().map(|p| p.name()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), 15, "{names:?}");
    assert_eq!(single_core_grid(&scale).len(), 5 * 15);
    assert_eq!(cmp_grid(&scale).len(), 5 * 3 * 15);
}

#[test]
fn streamed_ids_equal_the_hash_of_the_canonical_string() {
    for scale in [Scale::quick(), Scale::standard()] {
        for job in single_core_grid(&scale) {
            assert_eq!(
                job.id(),
                JobId(fnv1a64(job.canonical().as_bytes())),
                "{}",
                job.label()
            );
        }
        for job in cmp_grid(&scale) {
            assert_eq!(
                job.id(),
                JobId(fnv1a64(job.canonical().as_bytes())),
                "{}",
                job.label()
            );
        }
    }
}

#[test]
fn streamed_trace_and_pre_keys_equal_the_hash_of_their_strings() {
    let scale = Scale::quick();
    let cmp_core_jobs = cmp_grid(&scale)
        .into_iter()
        .flat_map(|c| (0..c.cores()).map(move |k| c.core_job(k)));
    for job in single_core_grid(&scale).into_iter().chain(cmp_core_jobs) {
        let trace = format!(
            "{CANON_VERSION}|trace|{:?}|{}|{}",
            job.spec.workload,
            job.spec.seed,
            job.spec.warmup_insts + job.spec.measure_insts,
        );
        assert_eq!(
            job.trace_key(),
            fnv1a64(trace.as_bytes()),
            "{}",
            job.label()
        );
        let pre = format!(
            "{CANON_VERSION}|pre|{:?}|{}|{}|{:?}|{:?}",
            job.spec.workload,
            job.spec.seed,
            job.spec.warmup_insts + job.spec.measure_insts,
            job.spec.sim.l1i,
            job.spec.sim.l1d,
        );
        assert_eq!(job.pre_key(), fnv1a64(pre.as_bytes()), "{}", job.label());
    }
}

#[test]
fn pinned_ids_keep_older_stores_addressable() {
    let scale = Scale::quick();
    let job = single_core_grid(&scale)
        .into_iter()
        .find(|j| j.label() == "database x ebcp")
        .expect("the grid has database x ebcp");
    assert_eq!(job.id().to_string(), "f38c67eed0c0dedd");
    let cmp = cmp_grid(&scale)
        .into_iter()
        .find(|j| j.label() == "database-mix@2c x ebcp")
        .expect("the grid has database-mix@2c x ebcp");
    assert_eq!(cmp.id().to_string(), "333ec4d3eafe3f21");
}

/// `Job::ids` and `CmpJob::ids` hash each run of equal specs' shared
/// prefix once; whatever the order, they must equal the per-job ids.
fn assert_batch_ids_match<J>(jobs: &[J], batch: fn(&[J]) -> Vec<JobId>, one: fn(&J) -> JobId) {
    let expected: Vec<JobId> = jobs.iter().map(one).collect();
    assert_eq!(batch(jobs), expected);
}

/// The orders a batch can arrive in: as built (runs of equal specs),
/// prefetcher-major (the spec changes on every cell), every cell twice
/// in a row, the grid followed by itself reversed (specs interleave at
/// the seam and repeat far apart), one cell, and none.
fn orders<J: Clone>(grid: &[J], per_spec: usize) -> Vec<Vec<J>> {
    let specs = grid.len() / per_spec;
    let pf_major: Vec<J> = (0..per_spec)
        .flat_map(|p| (0..specs).map(move |s| s * per_spec + p))
        .map(|i| grid[i].clone())
        .collect();
    let doubled: Vec<J> = grid.iter().flat_map(|j| [j.clone(), j.clone()]).collect();
    let mirrored: Vec<J> = grid.iter().chain(grid.iter().rev()).cloned().collect();
    vec![
        grid.to_vec(),
        pf_major,
        doubled,
        mirrored,
        grid[..1].to_vec(),
        Vec::new(),
    ]
}

#[test]
fn batch_ids_equal_per_job_ids_in_any_order() {
    let scale = Scale::quick();
    let grid = single_core_grid(&scale);
    assert_eq!(grid.len(), 5 * 15);
    for jobs in orders(&grid, 15) {
        assert_batch_ids_match(&jobs, Job::ids, Job::id);
    }
    let cmp = cmp_grid(&scale);
    for cores in [1, 2, 4] {
        let at: Vec<CmpJob> = cmp.iter().filter(|j| j.cores() == cores).cloned().collect();
        assert_eq!(at.len(), 5 * 15);
        for jobs in orders(&at, 15) {
            assert_batch_ids_match(&jobs, CmpJob::ids, CmpJob::id);
        }
    }
}
