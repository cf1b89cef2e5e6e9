//! Epoch anatomy: the paper's running example (§3.1-§3.2), driven
//! through the real simulation engine.
//!
//! A recurring sequence of miss addresses A..I falls into four epochs:
//!
//! ```text
//! epoch:   i      i+1       i+2    i+3
//! misses:  A,B    C,D,E     F,G    H,I
//! ```
//!
//! The example builds a hand-crafted trace that produces exactly this
//! epoch structure, repeats it until the prefetchers have learned it,
//! and then reports how many epochs each scheme needs for the final
//! occurrence — reproducing the paper's comparison tables: no
//! prefetching takes 4 epochs, the epoch-based correlation prefetcher
//! takes 2.
//!
//! ```text
//! cargo run --release --example epoch_anatomy
//! ```

use ebcp::core::EbcpConfig;
use ebcp::prefetch::SolihinConfig;
use ebcp::sim::{PrefetcherSpec, RunSpec, SimConfig};
use ebcp::trace::{Op, TraceRecord, WorkloadSpec};
use ebcp::types::{Addr, LineAddr, Pc};

/// The miss lines A..I, far apart so they never share cache sets
/// pathologically.
fn lines() -> Vec<LineAddr> {
    (0..9u64)
        .map(|i| LineAddr::from_index(0x10_0000 + i * 0x111))
        .collect()
}

/// Filler: `n` ALU instructions within one warm code line.
fn filler(t: &mut Vec<TraceRecord>, n: usize) {
    for k in 0..n {
        t.push(TraceRecord::alu(Pc::new(0x4000 + (k as u64 % 16) * 4)));
    }
}

/// One occurrence of the example: epochs {A,B} {C,D,E} {F,G} {H,I},
/// separated by gaps longer than the ROB.
fn occurrence(t: &mut Vec<TraceRecord>, lines: &[LineAddr]) {
    let epochs: [&[usize]; 4] = [&[0, 1], &[2, 3, 4], &[5, 6], &[7, 8]];
    for epoch in epochs {
        filler(t, 200); // > 128-entry ROB: a fresh epoch
        for (k, &i) in epoch.iter().enumerate() {
            t.push(TraceRecord::new(
                Pc::new(0x4000 + i as u64 * 4),
                Op::Load {
                    addr: Addr::new(lines[i].base().get()),
                    // The last load of each group feeds a dependent
                    // mispredict: the window closes right after it.
                    feeds_mispredict: k + 1 == epoch.len(),
                },
            ));
        }
    }
}

/// A long stretch of unrelated misses that evicts A..I from the L2, so
/// the next occurrence misses again (the paper assumes the sequence
/// "recurs after a sufficiently long period").
fn evict_all(t: &mut Vec<TraceRecord>, round: u64, l2_lines: u64) {
    for i in 0..l2_lines * 3 {
        filler(t, 200);
        t.push(TraceRecord::load(
            Pc::new(0x4100),
            Addr::new((0x80_0000 + round * 0x10_0000 + i) * 64),
        ));
    }
}

/// Runs `pf` over the hand-built trace, warming on everything before
/// `measure_from` and measuring the rest. The workload preset only
/// names the result: `run_on` replays the given records, not a
/// generated trace.
fn run(pf: &PrefetcherSpec, trace: &[TraceRecord], measure_from: usize) -> (u64, u64, u64) {
    let spec = RunSpec {
        workload: WorkloadSpec::database(),
        seed: 0,
        warmup_insts: measure_from as u64,
        measure_insts: (trace.len() - measure_from) as u64,
        sim: SimConfig::scaled_down(16), // small L2 keeps eviction cheap
    };
    let r = spec.run_on(trace, pf);
    (r.epochs, r.l2_load_misses, r.averted_load)
}

fn main() {
    let lines = lines();
    let l2_lines = SimConfig::scaled_down(16).l2.lines();
    let mut trace = Vec::new();
    // Several learning rounds: occurrence, then eviction traffic.
    for round in 0..6u64 {
        occurrence(&mut trace, &lines);
        evict_all(&mut trace, round, l2_lines);
    }
    let measure_from = trace.len();
    // The measured final occurrence.
    occurrence(&mut trace, &lines);
    filler(&mut trace, 3000); // drain

    println!("paper example: epochs {{A,B}} {{C,D,E}} {{F,G}} {{H,I}} recurring\n");
    println!(
        "{:<22} {:>7} {:>8} {:>9}   paper's prediction",
        "prefetcher", "epochs", "misses", "averted"
    );
    let cases: Vec<(PrefetcherSpec, &str)> = vec![
        (PrefetcherSpec::None, "4 epochs"),
        (
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
            "2 epochs: A's entry prefetches F,G,H,I",
        ),
        (
            PrefetcherSpec::baseline(
                "solihin-6,1",
                ebcp::prefetch::BaselineConfig::Solihin(SolihinConfig::deep()),
            ),
            "more epochs: successors 1-3 are not timely",
        ),
    ];
    for (pf, note) in cases {
        let (epochs, misses, averted) = run(&pf, &trace, measure_from);
        println!(
            "{:<22} {:>7} {:>8} {:>9}   {}",
            pf.name(),
            epochs,
            misses,
            averted,
            note
        );
    }
}
