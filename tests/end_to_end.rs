//! Cross-crate integration tests: whole-system behaviour on synthetic
//! workloads.

use ebcp::core::EbcpConfig;
use ebcp::prefetch::{BaselineConfig, GhbConfig, SolihinConfig, StreamConfig};
use ebcp::sim::{PrefetcherSpec, RunSpec, SimConfig};
use ebcp::trace::WorkloadSpec;

/// A workload that recurs several times within a short trace while its
/// miss working set overflows the 1/16-scale L2.
fn workload() -> WorkloadSpec {
    WorkloadSpec {
        templates: 30,
        segments_per_template: 80,
        data_pool_lines: 1 << 14,
        cold_code_pool_lines: 2048,
        warm_pool_lines: 128,
        ..WorkloadSpec::database()
    }
}

fn spec() -> RunSpec {
    let w = workload();
    let interval = w.recurrence_interval();
    RunSpec {
        workload: w,
        seed: 3,
        warmup_insts: interval * 7 / 2,
        measure_insts: interval,
        sim: SimConfig::scaled_down(16),
    }
}

fn table_entries() -> u64 {
    (1 << 20) / 16
}

#[test]
fn figure9_ordering_holds_end_to_end() {
    let spec = spec();
    let trace = spec.materialize();
    let base = spec.run_on(&trace, &PrefetcherSpec::None);
    assert!(
        base.l2_load_misses > 500,
        "workload must miss: {}",
        base.l2_load_misses
    );

    let ebcp = spec.run_on(
        &trace,
        &PrefetcherSpec::Ebcp(EbcpConfig::comparison().with_table_entries(table_entries())),
    );
    let minus = spec.run_on(
        &trace,
        &PrefetcherSpec::Ebcp(EbcpConfig::comparison_minus().with_table_entries(table_entries())),
    );
    let solihin = spec.run_on(
        &trace,
        &PrefetcherSpec::baseline(
            "solihin-6,1",
            BaselineConfig::Solihin(SolihinConfig {
                entries: table_entries(),
                ..SolihinConfig::deep()
            }),
        ),
    );
    let stream = spec.run_on(
        &trace,
        &PrefetcherSpec::baseline("stream", BaselineConfig::Stream(StreamConfig::default())),
    );

    let imp = |r: &ebcp::sim::SimResult| r.improvement_over(&base);
    assert!(imp(&ebcp) > 0.08, "EBCP improvement {:.3}", imp(&ebcp));
    assert!(
        imp(&ebcp) > imp(&solihin),
        "EBCP ({:.3}) must beat Solihin 6,1 ({:.3})",
        imp(&ebcp),
        imp(&solihin)
    );
    assert!(
        imp(&ebcp) > imp(&minus),
        "EBCP ({:.3}) must beat EBCP-minus ({:.3})",
        imp(&ebcp),
        imp(&minus)
    );
    assert!(
        imp(&stream) < 0.05,
        "the stream prefetcher must be ineffective on irregular accesses: {:.3}",
        imp(&stream)
    );
}

#[test]
fn degree_sweep_is_monotone_up_to_saturation() {
    let spec = spec();
    let trace = spec.materialize();
    let base = spec.run_on(&trace, &PrefetcherSpec::None);
    let mut last = -1.0f64;
    for degree in [1usize, 2, 4, 8] {
        let cfg = EbcpConfig::idealized()
            .with_table_entries((8 << 20) / 16)
            .with_degree(degree);
        let r = spec.run_on(&trace, &PrefetcherSpec::Ebcp(cfg));
        let imp = r.improvement_over(&base);
        assert!(
            imp > last - 0.01,
            "improvement should not regress with degree: d{degree} {imp:.3} after {last:.3}"
        );
        last = imp;
    }
}

#[test]
fn tiny_correlation_table_erodes_performance() {
    let spec = spec();
    let trace = spec.materialize();
    let base = spec.run_on(&trace, &PrefetcherSpec::None);
    let big = spec.run_on(
        &trace,
        &PrefetcherSpec::Ebcp(EbcpConfig::tuned().with_table_entries(1 << 16)),
    );
    let tiny = spec.run_on(
        &trace,
        &PrefetcherSpec::Ebcp(EbcpConfig::tuned().with_table_entries(1 << 6)),
    );
    assert!(
        big.improvement_over(&base) > tiny.improvement_over(&base) + 0.03,
        "a 64-entry table must alias badly: big {:.3} vs tiny {:.3}",
        big.improvement_over(&base),
        tiny.improvement_over(&base)
    );
}

#[test]
fn coverage_and_accuracy_are_probabilities() {
    let spec = spec();
    let trace = spec.materialize();
    for pf in [
        PrefetcherSpec::Ebcp(EbcpConfig::tuned().with_table_entries(table_entries())),
        PrefetcherSpec::baseline("ghb-large", BaselineConfig::Ghb(GhbConfig::large())),
    ] {
        let r = spec.run_on(&trace, &pf);
        assert!(
            (0.0..=1.0).contains(&r.coverage()),
            "{} coverage {}",
            r.prefetcher,
            r.coverage()
        );
        assert!(
            (0.0..=1.0).contains(&r.accuracy()),
            "{} accuracy {}",
            r.prefetcher,
            r.accuracy()
        );
        assert!(r.pf_useful() <= r.pf_issued + r.partial_hits);
    }
}

/// The chunked production path (the generator streamed in chunks
/// through the front end, then replayed) must match stepping the
/// materialized trace record by record.
#[test]
fn streaming_and_materialized_runs_agree() {
    let spec = spec();
    let trace = spec.materialize();
    let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned().with_table_entries(table_entries()));
    let a = spec.run_on(&trace, &pf);
    let b = spec.run_preresolved(&spec.pre_resolve(), &pf);
    assert_eq!(a, b, "streamed and materialized runs must be identical");
}

#[test]
fn prefetching_never_hurts_baseline_demand_traffic() {
    // The paper's priority rule: demand accesses are never delayed by
    // prefetches or table traffic. Consequently CPI with any prefetcher
    // can be at most marginally worse than baseline (partial-window
    // second-order effects only).
    let spec = spec();
    let trace = spec.materialize();
    let base = spec.run_on(&trace, &PrefetcherSpec::None);
    for (name, cfg) in BaselineConfig::figure9_roster() {
        let r = spec.run_on(&trace, &PrefetcherSpec::baseline(name, cfg));
        assert!(
            r.cpi() <= base.cpi() * 1.02,
            "{name}: cpi {:.3} vs baseline {:.3}",
            r.cpi(),
            base.cpi()
        );
    }
}
