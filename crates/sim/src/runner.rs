//! Convenience layer: run a workload × prefetcher matrix.

use std::sync::Arc;

use ebcp_core::{EbcpConfig, EbcpPrefetcher};
use ebcp_prefetch::{
    BaselineConfig, NullPrefetcher, OffchipFilter, OffchipFilterConfig, Prefetcher,
};
use ebcp_trace::template::WorkloadProgram;
use ebcp_trace::{TraceGenerator, TraceRecord, WorkloadSpec};
use serde::{Deserialize, Serialize};

use crate::cmp::{CmpEngine, CmpResult};
use crate::config::SimConfig;
use crate::engine::Engine;
use crate::frontend::PreResolved;
use crate::lockstep::Lockstep;
use crate::metrics::SimResult;
use crate::segment::{self, resolve_blocks};

pub use ebcp_trace::template::WorkloadProgram as Program;

/// Which prefetcher to simulate: none, a baseline from `ebcp-prefetch`,
/// or the EBCP itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PrefetcherSpec {
    /// No prefetching (the baseline of every figure).
    None,
    /// One of the Figure 9 baselines, with a display name.
    Baseline {
        /// Display name ("ghb-large", ...).
        name: String,
        /// The baseline's configuration.
        config: BaselineConfig,
    },
    /// The epoch-based correlation prefetcher.
    Ebcp(EbcpConfig),
    /// Any other spec wrapped in the perceptron-style off-chip
    /// prediction filter (`"<inner>+nof"`): the inner prefetcher runs
    /// unchanged and the filter drops its low-confidence candidates.
    Filtered {
        /// The filter's predictor configuration.
        filter: OffchipFilterConfig,
        /// The wrapped prefetcher.
        inner: Box<PrefetcherSpec>,
    },
}

impl PrefetcherSpec {
    /// A named baseline.
    pub fn baseline(name: &str, config: BaselineConfig) -> Self {
        PrefetcherSpec::Baseline {
            name: name.to_owned(),
            config,
        }
    }

    /// Wraps `inner` in the off-chip prediction filter.
    pub fn filtered(inner: PrefetcherSpec) -> Self {
        PrefetcherSpec::Filtered {
            filter: OffchipFilterConfig::default_config(),
            inner: Box::new(inner),
        }
    }

    /// Builds the prefetcher instance.
    pub fn build(&self) -> Box<dyn Prefetcher> {
        match self {
            PrefetcherSpec::None => Box::new(NullPrefetcher),
            PrefetcherSpec::Baseline { name, config } => config.build_named(name),
            PrefetcherSpec::Ebcp(cfg) => Box::new(EbcpPrefetcher::new(*cfg)),
            PrefetcherSpec::Filtered { filter, inner } => {
                Box::new(OffchipFilter::wrap(*filter, inner.build()))
            }
        }
    }

    /// Display name of the prefetcher this spec builds.
    pub fn name(&self) -> String {
        match self {
            PrefetcherSpec::None => "none".to_owned(),
            PrefetcherSpec::Baseline { name, .. } => name.clone(),
            PrefetcherSpec::Ebcp(cfg) => match cfg.variant {
                ebcp_core::EbcpVariant::Standard => "ebcp".to_owned(),
                ebcp_core::EbcpVariant::Minus => "ebcp-minus".to_owned(),
            },
            PrefetcherSpec::Filtered { inner, .. } => format!("{}+nof", inner.name()),
        }
    }
}

/// A complete run specification: workload, trace length and machine.
///
/// # Examples
///
/// ```
/// use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
/// use ebcp_trace::WorkloadSpec;
///
/// let spec = RunSpec {
///     workload: WorkloadSpec::database().scaled(1, 32),
///     seed: 7,
///     warmup_insts: 30_000,
///     measure_insts: 30_000,
///     sim: SimConfig::scaled_down(16),
/// };
/// let base = spec.run(&PrefetcherSpec::None);
/// assert!(base.l2_load_misses > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// The workload to generate.
    pub workload: WorkloadSpec,
    /// Trace seed (runtime randomness; structure comes from the spec).
    pub seed: u64,
    /// Instructions simulated before statistics reset.
    pub warmup_insts: u64,
    /// Instructions measured after warm-up.
    pub measure_insts: u64,
    /// Machine configuration.
    pub sim: SimConfig,
}

impl RunSpec {
    /// Materializes the trace once (`warmup + measure` records) so many
    /// configurations can replay it.
    pub fn materialize(&self) -> Arc<Vec<TraceRecord>> {
        let n = (self.warmup_insts + self.measure_insts) as usize;
        let mut gen = TraceGenerator::new(&self.workload, self.seed);
        Arc::new(gen.collect_n(n))
    }

    /// Runs a prefetcher over this spec (generating the trace on the
    /// fly).
    pub fn run(&self, pf: &PrefetcherSpec) -> SimResult {
        let trace = self.materialize();
        self.run_on(&trace, pf)
    }

    /// Runs a prefetcher over a pre-materialized trace.
    pub fn run_on(&self, trace: &[TraceRecord], pf: &PrefetcherSpec) -> SimResult {
        let mut engine = Engine::new(self.sim, pf.build());
        let warm = (self.warmup_insts as usize).min(trace.len());
        for rec in &trace[..warm] {
            engine.step(rec);
        }
        engine.reset_stats();
        for rec in &trace[warm..] {
            engine.step(rec);
        }
        engine.result(&self.workload.name)
    }

    /// Pre-resolves this spec's trace through the L1 front end into a
    /// compact event stream, streaming the generator in chunks
    /// (constant memory — nothing is materialized).
    ///
    /// The stream depends only on (workload, seed, record count, L1
    /// geometry), never on the prefetcher, so one stream serves every
    /// [`RunSpec::run_preresolved`] cell of a sweep.
    pub fn pre_resolve(&self) -> PreResolved {
        self.pre_resolve_with(Arc::new(WorkloadProgram::build(&self.workload)))
    }

    /// [`RunSpec::pre_resolve`] reusing an already-built workload
    /// program: the one block [`resolve_blocks`] yields when it never
    /// cuts.
    pub fn pre_resolve_with(&self, program: Arc<WorkloadProgram>) -> PreResolved {
        let gen = TraceGenerator::with_program(program, self.workload.clone(), self.seed);
        let block = resolve_blocks(self, gen, u64::MAX)
            .next()
            .expect("resolve_blocks yields at least one block");
        PreResolved {
            events: block.events,
            records: block.records,
            l1i: self.sim.l1i,
            l1d: self.sim.l1d,
        }
    }

    /// Runs a prefetcher by replaying a pre-resolved event stream —
    /// byte-identical results to [`RunSpec::run_on`] over the stream's
    /// underlying trace, at back-end-only cost.
    ///
    /// # Panics
    ///
    /// Panics if the stream was resolved under different L1 geometries
    /// than `self.sim` (the stream would describe a different machine).
    pub fn run_preresolved(&self, pre: &PreResolved, pf: &PrefetcherSpec) -> SimResult {
        assert_eq!(
            (pre.l1i, pre.l1d),
            (self.sim.l1i, self.sim.l1d),
            "pre-resolved stream L1 geometry mismatch for {} x {}: the stream \
             describes a different machine and must be rebuilt",
            self.workload.name,
            pf.name(),
        );
        let mut engine = Engine::new(self.sim, pf.build());
        segment::warm_measure::<_, PreResolved, _, _>(&mut engine, self, [pre]);
        engine.result(&self.workload.name)
    }

    /// Runs a whole roster of prefetchers over one pre-resolved stream
    /// in a single lockstep pass (see [`Lockstep`]) — each lane's
    /// result byte-identical to its own [`RunSpec::run_preresolved`]
    /// call, at amortized stream cost.
    ///
    /// Per-lane fault isolation: a lane whose prefetcher panics comes
    /// back as `Err(panic reason)` while sibling lanes complete
    /// normally.
    ///
    /// # Panics
    ///
    /// Panics if `pfs` is empty or the stream was resolved under
    /// different L1 geometries than `self.sim`.
    pub fn run_preresolved_many(
        &self,
        pre: &PreResolved,
        pfs: &[PrefetcherSpec],
    ) -> Vec<Result<SimResult, String>> {
        assert_eq!(
            (pre.l1i, pre.l1d),
            (self.sim.l1i, self.sim.l1d),
            "pre-resolved stream L1 geometry mismatch for {} lockstep sweep: the \
             stream describes a different machine and must be rebuilt",
            self.workload.name,
        );
        let mut group = Lockstep::new(segment::engines(self, pfs));
        segment::warm_measure::<_, PreResolved, _, _>(&mut group, self, [pre]);
        group.results(&self.workload.name)
    }
}

/// A complete CMP run specification: one workload × seed per core over
/// one shared machine.
///
/// The per-core front ends are prefetcher-independent, so each core's
/// stream is exactly the stream of its single-core [`RunSpec`]
/// (see [`CmpSpec::core_run_spec`]) — which is how the harness shares
/// per-core pre-resolved streams between CMP cells, single-core cells
/// and the on-disk cache.
///
/// # Examples
///
/// ```
/// use ebcp_sim::{CmpSpec, PrefetcherSpec, SimConfig};
/// use ebcp_trace::WorkloadSpec;
///
/// let spec = CmpSpec::homogeneous(
///     WorkloadSpec::database().scaled(1, 32),
///     2,
///     20_000,
///     20_000,
///     SimConfig::scaled_down(16),
/// );
/// let r = spec.run(&PrefetcherSpec::None);
/// assert_eq!(r.cores.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmpSpec {
    /// Display name for the whole cell (per-core results append
    /// `#core<k>`).
    pub name: String,
    /// One workload per core.
    pub workloads: Vec<WorkloadSpec>,
    /// One trace seed per core.
    pub seeds: Vec<u64>,
    /// Instructions each core runs before statistics reset.
    pub warmup_insts: u64,
    /// Instructions each core measures after warm-up.
    pub measure_insts: u64,
    /// The shared machine (per-core L1s + shared L2/bus/DRAM).
    pub sim: SimConfig,
}

impl CmpSpec {
    /// N cores all running `workload`, distinguished only by seed
    /// (`k + 1`) — the multi-threaded-single-application scenario.
    pub fn homogeneous(
        workload: WorkloadSpec,
        cores: usize,
        warmup_insts: u64,
        measure_insts: u64,
        sim: SimConfig,
    ) -> Self {
        let name = workload.name.clone();
        CmpSpec {
            name,
            workloads: vec![workload; cores],
            seeds: (0..cores as u64).map(|k| k + 1).collect(),
            warmup_insts,
            measure_insts,
            sim,
        }
    }

    /// One workload per core, each from its own spec/seed pair — the
    /// consolidated-server scenario.
    ///
    /// # Panics
    ///
    /// Panics if `per_core` is empty.
    pub fn heterogeneous(
        name: &str,
        per_core: Vec<(WorkloadSpec, u64)>,
        warmup_insts: u64,
        measure_insts: u64,
        sim: SimConfig,
    ) -> Self {
        assert!(!per_core.is_empty(), "at least one core");
        let (workloads, seeds) = per_core.into_iter().unzip();
        CmpSpec {
            name: name.to_owned(),
            workloads,
            seeds,
            warmup_insts,
            measure_insts,
            sim,
        }
    }

    /// Number of cores.
    ///
    /// # Panics
    ///
    /// Panics if the workload and seed lists disagree in length (a
    /// malformed spec).
    pub fn cores(&self) -> usize {
        assert_eq!(
            self.workloads.len(),
            self.seeds.len(),
            "one seed per core workload"
        );
        self.workloads.len()
    }

    /// The single-core [`RunSpec`] whose trace and pre-resolved stream
    /// core `k` consumes — shared cache currency with the single-core
    /// paths.
    pub fn core_run_spec(&self, k: usize) -> RunSpec {
        RunSpec {
            workload: self.workloads[k].clone(),
            seed: self.seeds[k],
            warmup_insts: self.warmup_insts,
            measure_insts: self.measure_insts,
            sim: self.sim,
        }
    }

    /// Pre-resolves every core's stream (front end only, no
    /// prefetcher), streaming each generator in chunks.
    pub fn pre_resolve_cores(&self) -> Vec<PreResolved> {
        (0..self.cores())
            .map(|k| self.core_run_spec(k).pre_resolve())
            .collect()
    }

    /// Runs a prefetcher over this spec, pre-resolving per-core streams
    /// on the fly. Sweeps over a roster should pre-resolve once with
    /// [`CmpSpec::pre_resolve_cores`] and call [`CmpSpec::run_streams`]
    /// per prefetcher.
    pub fn run(&self, pf: &PrefetcherSpec) -> CmpResult {
        let streams = self.pre_resolve_cores();
        let refs: Vec<&PreResolved> = streams.iter().collect();
        self.run_streams(&refs, pf)
    }

    /// Runs a prefetcher over already pre-resolved per-core streams.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one stream per core, resolved
    /// under this spec's L1 geometries.
    pub fn run_streams(&self, streams: &[&PreResolved], pf: &PrefetcherSpec) -> CmpResult {
        let mut engine = CmpEngine::new(self.sim, self.cores(), pf.build());
        engine.run_streams(streams, self.warmup_insts, self.measure_insts, &self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 32),
            seed: 11,
            warmup_insts: 60_000,
            measure_insts: 60_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    #[test]
    fn baseline_run_produces_misses_and_epochs() {
        let r = quick_spec().run(&PrefetcherSpec::None);
        assert!(r.l2_load_misses > 20, "load misses {}", r.l2_load_misses);
        assert!(r.epochs > 20, "epochs {}", r.epochs);
        assert!(r.cpi() > 0.5, "cpi {}", r.cpi());
        assert_eq!(r.pf_issued, 0);
    }

    /// A workload small enough to recur several times within a short
    /// trace while its miss working set still overflows the scaled L2
    /// (128 KB = 2048 lines): recurrence is what correlation prefetching
    /// feeds on, eviction is what makes recurrences miss.
    fn recurring_spec() -> RunSpec {
        RunSpec {
            workload: WorkloadSpec {
                templates: 30,
                segments_per_template: 80,
                data_pool_lines: 1 << 14,
                cold_code_pool_lines: 2048,
                warm_pool_lines: 128,
                ..WorkloadSpec::database()
            },
            seed: 3,
            warmup_insts: 700_000,
            measure_insts: 700_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    #[test]
    fn ebcp_improves_over_baseline() {
        let spec = recurring_spec();
        let trace = spec.materialize();
        let base = spec.run_on(&trace, &PrefetcherSpec::None);
        let ebcp = spec.run_on(&trace, &PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        assert!(
            ebcp.pf_issued > 100,
            "EBCP must issue prefetches, got {}",
            ebcp.pf_issued
        );
        assert!(
            ebcp.pf_useful() > 50,
            "prefetches must hit, got {}",
            ebcp.pf_useful()
        );
        let imp = ebcp.improvement_over(&base);
        assert!(
            imp > 0.02,
            "EBCP should improve CPI, got {:.2}%",
            imp * 100.0
        );
    }

    /// The chunked production path (generator chunks pre-resolved into
    /// an event stream, then replayed) must be observationally
    /// identical to stepping a materialized trace record by record —
    /// same counters, cycles and stats.
    #[test]
    fn chunked_and_stepped_runs_agree() {
        let spec = quick_spec();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let stepped = spec.run_on(&spec.materialize(), &pf);
        let chunked = spec.run_preresolved(&spec.pre_resolve(), &pf);
        assert_eq!(stepped, chunked);
    }

    /// Runs `spec` over a hand-built trace both ways — per-record
    /// stepping and pre-resolved replay — and asserts byte-identical
    /// results.
    fn assert_replay_identical(
        spec: &RunSpec,
        trace: &[TraceRecord],
        pf: &PrefetcherSpec,
    ) -> SimResult {
        let stepped = spec.run_on(trace, pf);
        let pre = crate::frontend::PreResolved::from_records(&spec.sim, trace);
        let replayed = spec.run_preresolved(&pre, pf);
        assert_eq!(stepped, replayed);
        stepped
    }

    fn edge_spec(warmup: u64, measure: u64) -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 32),
            seed: 1,
            warmup_insts: warmup,
            measure_insts: measure,
            sim: SimConfig::scaled_down(16),
        }
    }

    #[test]
    fn preresolved_matches_stepped() {
        let spec = quick_spec();
        let trace = spec.materialize();
        let pre = spec.pre_resolve();
        for pf in [
            PrefetcherSpec::None,
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
        ] {
            assert_eq!(spec.run_on(&trace, &pf), spec.run_preresolved(&pre, &pf));
        }
    }

    #[test]
    fn edge_serialize_adjacent_to_l1_miss_load() {
        use ebcp_trace::Op;
        use ebcp_types::{Addr, Pc};
        // An off-chip load with a serialize immediately after: the
        // serialize is a window terminator right next to the miss, so
        // the gap between the two events is zero.
        let mut t: Vec<TraceRecord> = (0..64)
            .map(|i| TraceRecord::alu(Pc::new(0x1000 + 4 * (i % 16))))
            .collect();
        t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.push(TraceRecord::new(Pc::new(0x1004), Op::Serialize));
        // And the mirror adjacency: serialize, then the miss.
        t.push(TraceRecord::new(Pc::new(0x1008), Op::Serialize));
        t.push(TraceRecord::load(Pc::new(0x100c), Addr::new(0x90_0000)));
        t.extend((0..400).map(|i| TraceRecord::alu(Pc::new(0x1000 + 4 * (i % 16)))));
        let spec = edge_spec(32, t.len() as u64 - 32);
        let r = assert_replay_identical(&spec, &t, &PrefetcherSpec::None);
        assert!(r.epochs >= 2, "both loads must open epochs: {}", r.epochs);
    }

    #[test]
    fn edge_feeds_mispredict_outcome_differs_across_prefetchers() {
        use ebcp_trace::Op;
        // A feeds_mispredict load is only a window terminator if it
        // goes OFF-CHIP — a prefetcher that catches the line in the
        // prefetch buffer defuses it. The front end cannot know which,
        // so the event carries the flag and the back end decides:
        // replay must match stepping under both outcomes.
        let spec = recurring_spec();
        let trace: Vec<TraceRecord> = {
            let mut gen = TraceGenerator::new(&spec.workload, spec.seed);
            gen.collect_n((spec.warmup_insts + spec.measure_insts) as usize)
        };
        assert!(
            trace.iter().any(|r| matches!(
                r.op,
                Op::Load {
                    feeds_mispredict: true,
                    ..
                }
            )),
            "workload must exercise dependent-mispredict loads"
        );
        let base = assert_replay_identical(&spec, &trace, &PrefetcherSpec::None);
        let ebcp =
            assert_replay_identical(&spec, &trace, &PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        // The same stream really did diverge in the back end.
        assert!(ebcp.averted_load + ebcp.partial_hits > 0);
        assert_ne!(base.cycles, ebcp.cycles);
    }

    #[test]
    fn edge_store_l1_hit_propagates_dirty() {
        use ebcp_types::{Addr, Pc};
        // Store miss fills L1D; the second store to the line is an L1
        // hit whose only back-end effect is the L2 dirty bit. Evict the
        // line from the (tiny) L2 afterwards: a writeback must appear,
        // and replay must account for it identically.
        let sim = SimConfig::scaled_down(16);
        let l2_lines = sim.l2.lines();
        let mut t: Vec<TraceRecord> = (0..16)
            .map(|i| TraceRecord::alu(Pc::new(0x1000 + 4 * (i % 16))))
            .collect();
        t.push(TraceRecord::store(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.push(TraceRecord::store(Pc::new(0x1004), Addr::new(0x80_0000)));
        for i in 0..l2_lines * 2 {
            t.push(TraceRecord::load(
                Pc::new(0x1000),
                Addr::new(0x200_0000 + i * 64),
            ));
            t.extend((0..32).map(|k| TraceRecord::alu(Pc::new(0x1000 + 4 * (k % 16)))));
        }
        let spec = RunSpec {
            workload: WorkloadSpec::database().scaled(1, 32),
            seed: 1,
            warmup_insts: 8,
            measure_insts: t.len() as u64 - 8,
            sim,
        };
        let r = assert_replay_identical(&spec, &t, &PrefetcherSpec::None);
        assert!(r.writebacks > 0, "dirty line must write back on eviction");
    }

    #[test]
    fn edge_warmup_boundary_inside_gap() {
        use ebcp_types::{Addr, Pc};
        // A long pure-ALU stretch forms one big gap; place the
        // warmup/measure boundary in the middle of it. Replay must cut
        // the gap at the exact record, reset statistics there, and
        // still agree with stepping.
        let mut t: Vec<TraceRecord> = (0..16)
            .map(|i| TraceRecord::alu(Pc::new(0x1000 + 4 * (i % 16))))
            .collect();
        t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.extend((0..10_000).map(|i| TraceRecord::alu(Pc::new(0x1000 + 4 * (i % 16)))));
        t.push(TraceRecord::load(Pc::new(0x1004), Addr::new(0x90_0000)));
        t.extend((0..500).map(|i| TraceRecord::alu(Pc::new(0x1000 + 4 * (i % 16)))));
        // Boundary at 5k: deep inside the 10k-record gap.
        let spec = edge_spec(5_000, t.len() as u64 - 5_000);
        let r = assert_replay_identical(&spec, &t, &PrefetcherSpec::None);
        assert_eq!(r.insts, t.len() as u64 - 5_000);
        assert_eq!(
            r.l2_load_misses, 1,
            "only the post-boundary load is measured"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = quick_spec();
        let a = spec.run(&PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        let b = spec.run(&PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        assert_eq!(a, b);
    }

    #[test]
    fn cmp_spec_matches_direct_engine_run() {
        // CmpSpec::run over shared per-core streams is the same
        // computation as handing the engine materialized traces.
        let spec = CmpSpec::homogeneous(
            WorkloadSpec::database().scaled(1, 32),
            3,
            30_000,
            60_000,
            SimConfig::scaled_down(16),
        );
        let via_spec = spec.run(&PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        let traces: Vec<Vec<TraceRecord>> = (0..3)
            .map(|k| {
                let mut gen = TraceGenerator::new(&spec.workloads[k], spec.seeds[k]);
                gen.collect_n(90_000)
            })
            .collect();
        let mut engine = crate::cmp::CmpEngine::new(
            spec.sim,
            3,
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()).build(),
        );
        let direct = engine.run(&traces, 30_000, 60_000, &spec.name);
        assert_eq!(via_spec, direct);
        // Core streams are the single-core RunSpec streams — the cache
        // currency the harness shares with single-core cells.
        let s0 = spec.core_run_spec(0).pre_resolve();
        assert_eq!(s0.records, 90_000);
    }

    #[test]
    fn spec_names() {
        assert_eq!(PrefetcherSpec::None.name(), "none");
        assert_eq!(PrefetcherSpec::Ebcp(EbcpConfig::tuned()).name(), "ebcp");
        let b = PrefetcherSpec::baseline(
            "ghb-large",
            BaselineConfig::Ghb(ebcp_prefetch::GhbConfig::large()),
        );
        assert_eq!(b.name(), "ghb-large");
        let f = PrefetcherSpec::filtered(PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        assert_eq!(f.name(), "ebcp+nof");
        assert_eq!(f.build().name(), "ebcp+nof");
    }

    #[test]
    fn filtered_spec_replays_identically_and_runs_the_inner() {
        // The filter composes over EBCP: replay must stay byte-identical
        // to stepping, and the inner prefetcher must still issue.
        let spec = recurring_spec();
        let trace: Vec<TraceRecord> = {
            let mut gen = TraceGenerator::new(&spec.workload, spec.seed);
            gen.collect_n((spec.warmup_insts + spec.measure_insts) as usize)
        };
        let pf = PrefetcherSpec::filtered(PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        let r = assert_replay_identical(&spec, &trace, &pf);
        assert!(r.pf_issued > 0, "filtered EBCP must still prefetch");
        // The filter only ever drops candidates, never adds them.
        let unfiltered = spec.run_on(&trace, &PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
        assert!(r.pf_issued <= unfiltered.pf_issued);
    }

    #[test]
    fn lockstep_matches_serial_preresolved_replay() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pfs = vec![
            PrefetcherSpec::None,
            PrefetcherSpec::baseline(
                "ghb-large",
                BaselineConfig::Ghb(ebcp_prefetch::GhbConfig::large()),
            ),
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
        ];
        let serial: Vec<SimResult> = pfs
            .iter()
            .map(|pf| spec.run_preresolved(&pre, pf))
            .collect();
        let lock = spec.run_preresolved_many(&pre, &pfs);
        for ((s, l), pf) in serial.iter().zip(&lock).zip(&pfs) {
            assert_eq!(s, l.as_ref().unwrap(), "lane {} diverged", pf.name());
        }
    }

    #[test]
    fn lockstep_single_lane_matches_serial() {
        let spec = recurring_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let serial = spec.run_preresolved(&pre, &pf);
        let lock = spec.run_preresolved_many(&pre, std::slice::from_ref(&pf));
        assert_eq!(serial, *lock[0].as_ref().unwrap());
    }

    #[test]
    fn lockstep_panicking_lane_fails_alone() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pfs = vec![
            PrefetcherSpec::None,
            PrefetcherSpec::baseline(
                "fault",
                BaselineConfig::Fault(ebcp_prefetch::FaultConfig::panic_after(40)),
            ),
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
        ];
        let lock = spec.run_preresolved_many(&pre, &pfs);
        let err = lock[1].as_ref().unwrap_err();
        assert!(err.contains("injected fault"), "reason: {err}");
        // Siblings are byte-identical to their own serial replays.
        assert_eq!(
            spec.run_preresolved(&pre, &pfs[0]),
            *lock[0].as_ref().unwrap()
        );
        assert_eq!(
            spec.run_preresolved(&pre, &pfs[2]),
            *lock[2].as_ref().unwrap()
        );
    }
}
