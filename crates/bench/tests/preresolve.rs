//! Differential gate for the two-phase pipeline: for every registered
//! prefetcher × workload at quick scale, replaying the pre-resolved
//! event stream must produce a `SimResult` byte-identical to the
//! stepping oracle (`ebcp_sim::stepping`, compiled for this battery by
//! the `stepping-oracle` feature) over the full trace. This is the test
//! that lets every product path run on replay without a correctness
//! asterisk.

use ebcp_bench::{throughput, Scale};
use ebcp_sim::frontend::PreResolved;
use ebcp_sim::stepping::run_stepped;

#[test]
fn replay_matches_stepping_for_every_prefetcher_and_workload() {
    let scale = Scale::quick();
    // The sweep roster is the union of every prefetcher the experiment
    // drivers register (throughput + Figure 9 + modern competitors +
    // tuned EBCP variants + off-chip-filtered compositions), over the
    // extended workload roster (the paper's four + evolving graph).
    let pfs = throughput::sweep_roster(scale);
    assert!(pfs.len() >= 14, "roster unexpectedly small: {pfs:?}");
    for w in scale.workloads_all() {
        let spec = scale.run_spec(&w, scale.machine());
        let trace = spec.materialize();
        let pre = PreResolved::from_records(&spec.sim, &trace);
        for pf in &pfs {
            let stepped = run_stepped(&spec, &trace, pf);
            let replayed = spec.run_preresolved(&pre, pf);
            assert_eq!(
                stepped,
                replayed,
                "replay diverged from stepping: {} x {}",
                w.name,
                pf.name()
            );
        }
    }
}
