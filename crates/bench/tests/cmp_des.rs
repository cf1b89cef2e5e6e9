//! Stepping-vs-DES differential battery.
//!
//! The discrete-event CMP engine earns its place by being
//! METRIC-IDENTICAL — full `CmpResult` equality, every counter of every
//! core — to the record-stepping oracle it replaced. This battery pins
//! that across the real sweep grid: the CMP prefetcher roster × all
//! four workload presets × {1, 2, 4, 8} cores, on the same
//! `Scale::cmp_spec` cells the figure driver, the sweep service and the
//! throughput bench build (trimmed warm-up/measure so the whole matrix
//! steps in debug tier-1 time — the unit-scale edge cases live next to
//! the engine in `ebcp-sim`). A release-tier test adds untrimmed
//! quick-scale cells, long enough for hundreds of thousands of runs of
//! the engine's inline fast loop.
//!
//! The `#[ignore]`d wall-clock test is the performance half of the
//! contract: CI runs it in `--release` with `--include-ignored`, where
//! the two-phase DES path must clear a 2× geomean speedup over the
//! pre-PR pipeline (trace generation + stepping) on untrimmed
//! quick-scale cells. The PR targeted 5×; measured reality was ~3×
//! (see DESIGN.md §3e for the table and the Amdahl analysis), and the
//! gate is set at 2× so honest wall-clock noise cannot flake CI. The
//! DES's per-record cost against single-core replay on the same stream
//! is tabled in DESIGN.md §3e (the `des` group of the `components`
//! bench reproduces it). Steady-state regressions are separately
//! caught by the throughput baseline's 25% CMP geomean gate.

use std::time::Instant;

use ebcp_core::EbcpConfig;
use ebcp_harness::Scale;
use ebcp_prefetch::{BaselineConfig, SolihinConfig};
use ebcp_sim::{CmpEngine, CmpResult, CmpSpec, PreResolved, PrefetcherSpec, SteppingCmpEngine};
use ebcp_trace::{TraceGenerator, TraceRecord, WorkloadSpec};

/// The CMP roster the grid sweeps: no prefetching, tuned EBCP (per-core
/// EMABs over one shared table), and the memory-side Solihin engine
/// whose successor chains the interleaved miss stream scrambles.
fn roster(scale: Scale) -> Vec<PrefetcherSpec> {
    let entries = scale.entries(1 << 20);
    vec![
        PrefetcherSpec::None,
        PrefetcherSpec::Ebcp(EbcpConfig::comparison().with_table_entries(entries)),
        PrefetcherSpec::baseline(
            "solihin-6,1",
            BaselineConfig::Solihin(SolihinConfig {
                entries,
                ..SolihinConfig::deep()
            }),
        ),
    ]
}

/// The quick-scale CMP cell with warm-up/measure overridden: identical
/// workload structure, per-core disjointness and machine geometry to
/// the real grid point, just shorter.
fn battery_spec(
    scale: Scale,
    preset: &WorkloadSpec,
    cores: usize,
    warm: u64,
    meas: u64,
) -> CmpSpec {
    let mut spec = scale.cmp_spec(preset, cores);
    spec.warmup_insts = warm;
    spec.measure_insts = meas;
    spec
}

/// Materializes one trace per core (what the stepping oracle consumes).
fn traces(spec: &CmpSpec) -> Vec<Vec<TraceRecord>> {
    (0..spec.cores())
        .map(|k| spec.core_run_spec(k).materialize().to_vec())
        .collect()
}

fn run_des(spec: &CmpSpec, t: &[Vec<TraceRecord>], pf: &PrefetcherSpec) -> CmpResult {
    let mut engine = CmpEngine::new(spec.sim, spec.cores(), pf.build());
    engine.run(t, spec.warmup_insts, spec.measure_insts, &spec.name)
}

fn run_oracle(spec: &CmpSpec, t: &[Vec<TraceRecord>], pf: &PrefetcherSpec) -> CmpResult {
    let mut oracle = SteppingCmpEngine::new(spec.sim, spec.cores(), pf.build());
    oracle.run(t, spec.warmup_insts, spec.measure_insts, &spec.name)
}

#[test]
fn des_is_metric_identical_to_stepping_across_the_grid() {
    let scale = Scale::quick();
    for preset in WorkloadSpec::all_presets() {
        for cores in [1usize, 2, 4, 8] {
            let spec = battery_spec(scale, &preset, cores, 3_000, 3_000);
            let t = traces(&spec);
            for pf in roster(scale) {
                assert_eq!(
                    run_des(&spec, &t, &pf),
                    run_oracle(&spec, &t, &pf),
                    "DES diverged from the stepping oracle: {} @ {cores} cores x {}",
                    spec.name,
                    pf.name()
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release tier: untrimmed quick-scale cells step millions of records per core"
)]
fn des_is_metric_identical_to_stepping_on_untrimmed_cells() {
    // Untrimmed quick-scale cells run long enough for hundreds of
    // thousands of inline runs, windows opening and closing inside
    // them, and cores parking at each other's ticks: every 2-core cell
    // of the serve grid, and the database mix at 1 and 4 cores.
    let scale = Scale::quick();
    let mut cells: Vec<_> = WorkloadSpec::extended_presets()
        .iter()
        .map(|w| scale.cmp_spec(w, 2))
        .collect();
    cells.push(scale.cmp_spec(&WorkloadSpec::database(), 1));
    cells.push(scale.cmp_spec(&WorkloadSpec::database(), 4));
    for spec in cells {
        let t = traces(&spec);
        for pf in roster(scale) {
            assert_eq!(
                run_des(&spec, &t, &pf),
                run_oracle(&spec, &t, &pf),
                "DES diverged from the stepping oracle: {} @ {} cores x {}",
                spec.name,
                spec.cores(),
                pf.name()
            );
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn registration_order_never_changes_the_result() {
    // The wake heap breaks ties on `(next_tick, component_id)`, so the
    // order cores are scheduled onto it must be unobservable. Pin it by
    // replaying the same cell under randomized registration
    // permutations and requiring full-result equality every time.
    let scale = Scale::quick();
    let preset = WorkloadSpec::database();
    let pf = &roster(scale)[1];
    for cores in [4usize, 8] {
        let spec = battery_spec(scale, &preset, cores, 3_000, 3_000);
        let streams = spec.pre_resolve_cores();
        let refs: Vec<&PreResolved> = streams.iter().collect();
        let identity: Vec<usize> = (0..cores).collect();
        let mut engine = CmpEngine::new(spec.sim, cores, pf.build());
        let reference = engine.run_streams_registered(
            &refs,
            spec.warmup_insts,
            spec.measure_insts,
            &spec.name,
            &identity,
        );

        let mut state = 0x9e37_79b9_7f4a_7c15_u64 ^ cores as u64;
        for round in 0..6 {
            let mut order = identity.clone();
            for i in (1..cores).rev() {
                let j = (xorshift(&mut state) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let mut engine = CmpEngine::new(spec.sim, cores, pf.build());
            let got = engine.run_streams_registered(
                &refs,
                spec.warmup_insts,
                spec.measure_insts,
                &spec.name,
                &order,
            );
            assert_eq!(
                got, reference,
                "registration order {order:?} (round {round}, {cores} cores) changed the result"
            );
        }
    }
}

#[test]
#[ignore = "wall-clock gate; CI runs it in --release with --include-ignored"]
fn des_replay_beats_the_pre_pr_pipeline_geomean() {
    // Untrimmed quick-scale CMP cells, each side measured the way its
    // pipeline actually ran a roster cell. Pre-PR, the CMP path was
    // excluded from the two-phase split: every (cell, prefetcher) run
    // pulled its per-core traces from the generators and stepped every
    // record. Post-PR, per-core streams are pre-resolved once
    // (disk-cached by the harness, shared across the roster) and each
    // prefetcher pays only the DES replay with algebraic idle-skip.
    // The per-cell Minst/s ratio is therefore generation + stepping
    // vs. replay.
    let scale = Scale::quick();
    let preset = WorkloadSpec::database();
    let pf = &roster(scale)[1];
    let mut ratios = Vec::new();
    for cores in [2usize, 4, 8] {
        let spec = scale.cmp_spec(&preset, cores);
        let streams = spec.pre_resolve_cores();
        let refs: Vec<&PreResolved> = streams.iter().collect();
        // Untimed warm pass so neither side pays first-touch costs.
        spec.run_streams(&refs, pf);

        let t0 = Instant::now();
        let des = spec.run_streams(&refs, pf);
        let des_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut gens: Vec<TraceGenerator> = (0..cores)
            .map(|k| {
                let rs = spec.core_run_spec(k);
                TraceGenerator::new(&rs.workload, rs.seed)
            })
            .collect();
        let mut oracle = SteppingCmpEngine::new(spec.sim, cores, pf.build());
        let stepped =
            oracle.run_chunked(&mut gens, spec.warmup_insts, spec.measure_insts, &spec.name);
        let step_s = t1.elapsed().as_secs_f64();
        assert_eq!(des, stepped, "{cores} cores");

        let ratio = step_s / des_s;
        println!("{cores} cores: pre-PR cell {step_s:.3}s / DES replay {des_s:.3}s = {ratio:.2}x");
        ratios.push(ratio);
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!("geomean speedup: {geomean:.2}x (PR target 5x, measured ~3x; gate 2x)");
    assert!(
        geomean >= 2.0,
        "DES speedup geomean {geomean:.2}x (per-cell {ratios:?}) is below the 2x gate"
    );
}
