//! Registry-completeness property test (modern-roster contract).
//!
//! The roster contract has three legs, and a prefetcher added to the
//! registry must hold all of them without any further wiring:
//!
//! 1. every registry entry (Figure 9 + modern) appears by name in the
//!    sweep roster every differential battery iterates;
//! 2. every registry name resolves through the daemon's name-based
//!    wire format and survives a wire round-trip with identical
//!    content-addressed jobs;
//! 3. every registry entry survives the panic-isolation battery: run
//!    as a lockstep lane next to an injected-fault lane, it must
//!    produce its exact serial result while the fault lane dies alone.

use ebcp_bench::throughput::sweep_roster;
use ebcp_bench::Scale;
use ebcp_prefetch::{BaselineConfig, FaultConfig};
use ebcp_serve::SweepSpec;
use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
use ebcp_trace::WorkloadSpec;

/// Every name any registry hands out, in one place.
fn registry_names(scale: &Scale) -> Vec<String> {
    scale
        .figure9_roster()
        .into_iter()
        .chain(scale.modern_roster())
        .map(|(n, _)| n.to_owned())
        .collect()
}

#[test]
fn every_registry_entry_is_in_the_sweep_roster() {
    let scale = Scale::quick();
    let roster_names: Vec<String> = sweep_roster(scale).iter().map(|p| p.name()).collect();
    for name in registry_names(&scale) {
        assert!(
            roster_names.contains(&name),
            "registry entry {name:?} missing from sweep_roster: {roster_names:?}"
        );
    }
}

#[test]
fn every_registry_entry_resolves_and_round_trips_the_wire() {
    let scale = Scale::quick();
    let mut names = registry_names(&scale);
    // The filtered compositions are part of the addressable roster too.
    names.push("ebcp+nof".into());
    names.push("triangel+nof".into());
    for name in &names {
        let pf = SweepSpec::resolve_prefetcher(name, &scale)
            .unwrap_or_else(|e| panic!("{name:?} failed to resolve: {e}"));
        assert_eq!(pf.name(), *name);
    }

    // One grid over every name: encode, decode, and compare the
    // content-addressed jobs both ends would build.
    let spec = SweepSpec {
        workloads: vec!["database".into(), "graph".into()],
        prefetchers: names,
        cores: Vec::new(),
        scale,
    };
    let jobs = spec.jobs().expect("grid expands");
    let text = spec.to_value().to_json();
    let back = SweepSpec::from_value(&ebcp_harness::json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, spec);
    let a: Vec<_> = jobs.iter().map(ebcp_harness::Job::id).collect();
    let b: Vec<_> = back
        .jobs()
        .unwrap()
        .iter()
        .map(ebcp_harness::Job::id)
        .collect();
    assert_eq!(a, b, "wire round-trip changed the content-addressed jobs");
}

#[test]
fn every_registry_entry_survives_the_panic_isolation_battery() {
    let scale = Scale::quick();
    let spec = RunSpec {
        workload: WorkloadSpec::database().scaled(1, 32),
        seed: 11,
        warmup_insts: 40_000,
        measure_insts: 50_000,
        sim: SimConfig::scaled_down(16),
    };
    let pre = spec.pre_resolve();

    let lanes: Vec<PrefetcherSpec> = registry_names(&scale)
        .iter()
        .map(|n| SweepSpec::resolve_prefetcher(n, &scale).unwrap())
        .collect();
    let serial: Vec<_> = lanes
        .iter()
        .map(|pf| spec.run_preresolved(&pre, pf))
        .collect();

    // All registry lanes plus one fault lane, in a single lockstep
    // group: the fault dies alone, every registry entry matches its
    // serial result bit for bit.
    let mut pfs = lanes.clone();
    pfs.push(PrefetcherSpec::baseline(
        "fault",
        BaselineConfig::Fault(FaultConfig::panic_after(25)),
    ));
    let results = spec.run_preresolved_many(&pre, &pfs);
    assert_eq!(results.len(), pfs.len());
    let reason = results
        .last()
        .unwrap()
        .as_ref()
        .expect_err("fault lane must die");
    assert!(reason.contains("injected fault"), "{reason}");
    for ((pf, lane), reference) in lanes.iter().zip(&results).zip(&serial) {
        let got = lane
            .as_ref()
            .unwrap_or_else(|e| panic!("{} died next to the fault lane: {e}", pf.name()));
        assert_eq!(got, reference, "{} disturbed by the fault lane", pf.name());
    }
}
