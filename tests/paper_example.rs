//! The paper's running example (§3.1-§3.2), end to end through the
//! engine users run (pre-resolved replay): a recurring miss sequence
//! A..I in epochs
//! {A,B} {C,D,E} {F,G} {H,I}. Without prefetching the final occurrence
//! costs 4 epochs; with the epoch-based correlation prefetcher it costs
//! 2 (A's entry prefetches F,G,H,I; C's entry prefetches H,I).

use ebcp::core::EbcpConfig;
use ebcp::sim::{PrefetcherSpec, RunSpec, SimConfig};
use ebcp::trace::{Op, TraceRecord, WorkloadSpec};
use ebcp::types::{Addr, LineAddr, Pc};

fn lines() -> Vec<LineAddr> {
    (0..9u64)
        .map(|i| LineAddr::from_index(0x10_0000 + i * 0x111))
        .collect()
}

fn filler(t: &mut Vec<TraceRecord>, n: usize) {
    for k in 0..n {
        t.push(TraceRecord::alu(Pc::new(0x4000 + (k as u64 % 16) * 4)));
    }
}

fn occurrence(t: &mut Vec<TraceRecord>, lines: &[LineAddr]) {
    let epochs: [&[usize]; 4] = [&[0, 1], &[2, 3, 4], &[5, 6], &[7, 8]];
    for epoch in epochs {
        filler(t, 200);
        for (k, &i) in epoch.iter().enumerate() {
            t.push(TraceRecord::new(
                Pc::new(0x4000 + i as u64 * 4),
                Op::Load {
                    addr: Addr::new(lines[i].base().get()),
                    feeds_mispredict: k + 1 == epoch.len(),
                },
            ));
        }
    }
}

fn evict_all(t: &mut Vec<TraceRecord>, round: u64, l2_lines: u64) {
    for i in 0..l2_lines * 3 {
        filler(t, 200);
        t.push(TraceRecord::load(
            Pc::new(0x4100),
            Addr::new((0x80_0000 + round * 0x10_0000 + i) * 64),
        ));
    }
}

fn build_trace() -> (Vec<TraceRecord>, usize) {
    let lines = lines();
    let l2_lines = SimConfig::scaled_down(16).l2.lines();
    let mut trace = Vec::new();
    for round in 0..6u64 {
        occurrence(&mut trace, &lines);
        evict_all(&mut trace, round, l2_lines);
    }
    let measure_from = trace.len();
    occurrence(&mut trace, &lines);
    filler(&mut trace, 3000);
    (trace, measure_from)
}

/// Runs `pf` through the product path (`RunSpec::run_on`: pre-resolve,
/// then replay) with everything before the final occurrence as
/// warm-up. The workload preset only names the result.
fn run(pf: &PrefetcherSpec) -> (u64, u64, u64) {
    let (trace, measure_from) = build_trace();
    let spec = RunSpec {
        workload: WorkloadSpec::database(),
        seed: 0,
        warmup_insts: measure_from as u64,
        measure_insts: (trace.len() - measure_from) as u64,
        sim: SimConfig::scaled_down(16),
    };
    let r = spec.run_on(&trace, pf);
    (r.epochs, r.l2_load_misses, r.averted_load)
}

#[test]
fn baseline_needs_four_epochs() {
    let (epochs, misses, averted) = run(&PrefetcherSpec::None);
    assert_eq!(epochs, 4, "the example has exactly 4 epochs");
    assert_eq!(misses, 9, "all of A..I miss");
    assert_eq!(averted, 0);
}

#[test]
fn ebcp_eliminates_epochs() {
    let (base_epochs, ..) = run(&PrefetcherSpec::None);
    let (epochs, _misses, averted) = run(&PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
    assert!(
        averted >= 4,
        "F,G,H,I (at least) must be served by the buffer, got {averted}"
    );
    assert!(
        epochs <= base_epochs - 2,
        "EBCP should remove at least two epochs ({base_epochs} -> {epochs})"
    );
}

#[test]
fn ebcp_minus_is_less_effective_here() {
    // EBCP-minus stores epochs +1/+2 under each trigger: its prefetches
    // for the *next* epoch cannot be timely, so fewer epochs disappear.
    let (minus_epochs, _, minus_averted) = run(&PrefetcherSpec::Ebcp(EbcpConfig::tuned_minus()));
    let (epochs, _, averted) = run(&PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
    assert!(
        epochs <= minus_epochs,
        "standard EBCP ({epochs}) must not need more epochs than minus ({minus_epochs})"
    );
    assert!(averted >= minus_averted.min(4));
}
