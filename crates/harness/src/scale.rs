//! Experiment scaling.
//!
//! Lives in the harness (rather than the bench crate) because it is
//! shared by every layer that turns a *named* sweep into concrete jobs:
//! the experiment drivers in `ebcp-bench` and the sweep service in
//! `ebcp-serve` both resolve scales and rosters through this module, so
//! a client and a daemon built from the same workspace agree exactly on
//! what "quick" means.

use ebcp_prefetch::{
    AmcConfig, BaselineConfig, GhbConfig, SmsConfig, SolihinConfig, StreamConfig, TcpConfig,
    TriangelConfig,
};
use ebcp_sim::{CmpSpec, RunSpec, SimConfig};
use ebcp_trace::WorkloadSpec;

/// How large an experiment to run.
///
/// `den` divides the machine's caches, the workload footprints and every
/// capacity-class predictor table; warm-up and measurement lengths are
/// expressed in tenths of the workload's recurrence interval (warm-up
/// needs ~3.5 intervals for correlation tables to mature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Scale denominator (1 = the paper's full machine).
    pub den: u64,
    /// Warm-up, in tenths of the recurrence interval.
    pub warm_tenths: u64,
    /// Measurement, in tenths of the recurrence interval.
    pub measure_tenths: u64,
    /// Trace seed.
    pub seed: u64,
}

impl Scale {
    /// The largest scale denominator: at `den` 128 the 32 KB 4-way L1s
    /// shrink to a single set, and at 256 they would hold less than
    /// one. The machine and every roster prefetcher build at every
    /// power of two up to it; [`SimConfig::scaled_down`] rejects any
    /// other `den`.
    pub const MAX_DEN: u64 = 128;

    /// Fast CI-sized runs (1/16 machine).
    pub const fn quick() -> Self {
        Scale {
            den: 16,
            warm_tenths: 35,
            measure_tenths: 10,
            seed: 11,
        }
    }

    /// The default reporting scale (1/4 machine, ~minutes for the full
    /// suite on one core).
    pub const fn standard() -> Self {
        Scale {
            den: 4,
            warm_tenths: 35,
            measure_tenths: 10,
            seed: 11,
        }
    }

    /// The paper's full 2 MB-L2 machine (long runs, streamed traces).
    pub const fn full() -> Self {
        Scale {
            den: 1,
            warm_tenths: 35,
            measure_tenths: 10,
            seed: 11,
        }
    }

    /// The scale-out tier: the quick machine over **100×-longer
    /// traces** (the warm-up/measure tenths are 100× quick's). Trace
    /// length, not machine size, is what stresses the scaled-out
    /// pipeline — segmented on-disk traces, block-streamed pre-resolved
    /// events, block-at-a-time replay — so this tier keeps the 1/16
    /// machine where every prefetcher is cheap to build and spends its
    /// time on volume. Runs are expected to use the bounded-memory
    /// streamed path (`--mem-budget`): peak RSS stays O(segment)
    /// regardless of trace length.
    pub const fn large() -> Self {
        Scale {
            den: 16,
            warm_tenths: 3_500,
            measure_tenths: 1_000,
            seed: 11,
        }
    }

    /// Parses a scale name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "standard" => Some(Self::standard()),
            "full" => Some(Self::full()),
            "large" => Some(Self::large()),
            _ => None,
        }
    }

    /// The four workload presets at this scale.
    pub fn workloads(&self) -> Vec<WorkloadSpec> {
        WorkloadSpec::all_presets()
            .into_iter()
            .map(|w| w.scaled(1, self.den as usize))
            .collect()
    }

    /// The extended workload roster at this scale: the paper's four plus
    /// the evolving-graph preset. Comparison sweeps and differential
    /// batteries use this; the paper's figures keep
    /// [`Scale::workloads`].
    pub fn workloads_all(&self) -> Vec<WorkloadSpec> {
        WorkloadSpec::extended_presets()
            .into_iter()
            .map(|w| w.scaled(1, self.den as usize))
            .collect()
    }

    /// The machine at this scale.
    pub fn machine(&self) -> SimConfig {
        SimConfig::scaled_down(self.den)
    }

    /// Builds the run specification for one workload.
    pub fn run_spec(&self, w: &WorkloadSpec, sim: SimConfig) -> RunSpec {
        let interval = w.recurrence_interval();
        RunSpec {
            workload: w.clone(),
            seed: self.seed,
            warmup_insts: interval * self.warm_tenths / 10,
            measure_insts: interval * self.measure_tenths / 10,
            sim,
        }
    }

    /// The N-core CMP cell for one **unscaled** workload preset: each
    /// core runs a disjoint copy of the workload — its own transaction
    /// mix (`seed_tag`), its own address space, and a per-core share of
    /// the footprint — over the shared L2/bus/DRAM at this scale.
    ///
    /// One recipe shared by the figure driver (`repro cmp`), the sweep
    /// service's `cores` axis and the throughput bench, so the same
    /// grid point is content-identical (same `CmpJob` id, same caches)
    /// wherever it is built.
    pub fn cmp_spec(&self, preset: &WorkloadSpec, cores: usize) -> CmpSpec {
        let per_core: Vec<(WorkloadSpec, u64)> = (0..cores)
            .map(|k| {
                let w = WorkloadSpec {
                    seed_tag: 0x0d00 + k as u64,
                    addr_space: 1 + k as u64,
                    ..preset.clone().scaled(1, self.den as usize * cores)
                };
                (w, self.seed + k as u64)
            })
            .collect();
        let interval = per_core
            .iter()
            .map(|(w, _)| w.recurrence_interval())
            .max()
            .unwrap_or(1);
        CmpSpec::heterogeneous(
            &format!("{}-mix", preset.name),
            per_core,
            interval * self.warm_tenths / 10,
            interval * self.measure_tenths / 10,
            self.machine(),
        )
    }

    /// Divides a table-entry count by the scale denominator (minimum 1K).
    pub fn entries(&self, full_scale: u64) -> u64 {
        (full_scale / self.den).max(1 << 10)
    }

    /// The Figure 9 baseline roster with capacity-class tables scaled.
    pub fn figure9_roster(&self) -> Vec<(&'static str, BaselineConfig)> {
        let d = self.den as usize;
        let l1_sets = ((32 << 10) / self.den / 64 / 4).max(16);
        vec![
            (
                "ghb-small",
                BaselineConfig::Ghb(GhbConfig {
                    index_entries: ((16 << 10) / d).max(1 << 9),
                    ghb_entries: ((16 << 10) / d).max(1 << 9),
                    ..GhbConfig::small()
                }),
            ),
            (
                "ghb-large",
                BaselineConfig::Ghb(GhbConfig {
                    index_entries: ((256 << 10) / d).max(1 << 10),
                    ghb_entries: ((256 << 10) / d).max(1 << 10),
                    ..GhbConfig::large()
                }),
            ),
            (
                "tcp-small",
                BaselineConfig::Tcp(TcpConfig {
                    l1_sets,
                    pht_sets: (2048 / d).max(64),
                    ..TcpConfig::small()
                }),
            ),
            (
                "tcp-large",
                BaselineConfig::Tcp(TcpConfig {
                    l1_sets,
                    pht_sets: ((32 << 10) / d).max(256),
                    ..TcpConfig::large()
                }),
            ),
            ("stream", BaselineConfig::Stream(StreamConfig::default())),
            (
                "sms",
                BaselineConfig::Sms(SmsConfig {
                    pht_entries: ((16 << 10) / d).max(1 << 9),
                    ..SmsConfig::default()
                }),
            ),
            (
                "solihin-3,2",
                BaselineConfig::Solihin(SolihinConfig {
                    entries: self.entries(1 << 20),
                    ..SolihinConfig::original()
                }),
            ),
            (
                "solihin-6,1",
                BaselineConfig::Solihin(SolihinConfig {
                    entries: self.entries(1 << 20),
                    ..SolihinConfig::deep()
                }),
            ),
        ]
    }

    /// The post-2007 competitor roster with capacity-class tables
    /// scaled. Kept separate from [`Scale::figure9_roster`] so the
    /// paper's figures stay the paper's figures; comparison sweeps
    /// concatenate the two.
    pub fn modern_roster(&self) -> Vec<(&'static str, BaselineConfig)> {
        let d = self.den as usize;
        vec![
            (
                "triangel",
                BaselineConfig::Triangel(TriangelConfig {
                    pc_entries: ((1 << 10) / d).max(128),
                    sample_sets: (64 / d).max(8),
                    markov_sets: ((4 << 10) / d).max(256),
                    ..TriangelConfig::default_config()
                }),
            ),
            (
                "amc",
                BaselineConfig::Amc(AmcConfig {
                    sets: ((4 << 10) / d).max(256),
                    ..AmcConfig::default_config()
                }),
            ),
        ]
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_names() {
        assert_eq!(Scale::parse("quick"), Some(Scale::quick()));
        assert_eq!(Scale::parse("standard"), Some(Scale::standard()));
        assert_eq!(Scale::parse("full"), Some(Scale::full()));
        assert_eq!(Scale::parse("large"), Some(Scale::large()));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn large_is_quick_machine_at_100x_length() {
        let (q, l) = (Scale::quick(), Scale::large());
        assert_eq!(l.den, q.den, "same machine");
        assert_eq!(l.warm_tenths, q.warm_tenths * 100);
        assert_eq!(l.measure_tenths, q.measure_tenths * 100);
        let w = &l.workloads()[0];
        let (qs, ls) = (q.run_spec(w, q.machine()), l.run_spec(w, l.machine()));
        assert_eq!(
            ls.warmup_insts + ls.measure_insts,
            (qs.warmup_insts + qs.measure_insts) * 100
        );
    }

    #[test]
    fn workloads_scaled() {
        let s = Scale::standard();
        for w in s.workloads() {
            assert!(w.templates > 0);
        }
        assert_eq!(s.machine().l2.size_bytes(), (2 << 20) / 4);
    }

    #[test]
    fn entries_floor() {
        let s = Scale {
            den: 1 << 30,
            ..Scale::quick()
        };
        assert_eq!(s.entries(1 << 20), 1 << 10);
    }

    #[test]
    fn roster_has_eight_baselines() {
        assert_eq!(Scale::standard().figure9_roster().len(), 8);
    }

    #[test]
    fn modern_roster_scales_and_builds() {
        let names: Vec<_> = Scale::quick()
            .modern_roster()
            .into_iter()
            .map(|(n, cfg)| {
                assert_eq!(cfg.build_named(n).name(), n);
                n
            })
            .collect();
        assert_eq!(names, vec!["triangel", "amc"]);
        // Capacity-class tables shrink with the machine.
        let (full, quick) = (Scale::full(), Scale::quick());
        for ((_, f), (_, q)) in full
            .modern_roster()
            .iter()
            .zip(quick.modern_roster().iter())
        {
            match (f, q) {
                (BaselineConfig::Triangel(f), BaselineConfig::Triangel(q)) => {
                    assert!(q.markov_sets < f.markov_sets);
                }
                (BaselineConfig::Amc(f), BaselineConfig::Amc(q)) => {
                    assert!(q.sets < f.sets);
                }
                other => panic!("unexpected roster pair {other:?}"),
            }
        }
    }

    #[test]
    fn workloads_all_adds_graph() {
        let s = Scale::quick();
        assert_eq!(s.workloads_all().len(), s.workloads().len() + 1);
        let graph = s
            .workloads_all()
            .into_iter()
            .find(|w| w.name == "graph")
            .expect("graph preset present");
        assert!(graph.evolve_every_execs > 0);
        graph.validate().unwrap();
    }

    #[test]
    fn cmp_spec_builds_disjoint_per_core_mixes() {
        let s = Scale::quick();
        let preset = WorkloadSpec::database();
        let spec = s.cmp_spec(&preset, 4);
        assert_eq!(spec.cores(), 4);
        assert_eq!(spec.name, "database-mix");
        for (k, w) in spec.workloads.iter().enumerate() {
            assert_eq!(w.addr_space, 1 + k as u64, "truly disjoint lines");
            assert_eq!(w.seed_tag, 0x0d00 + k as u64, "distinct mixes");
        }
        assert_eq!(spec.seeds, vec![11, 12, 13, 14]);
        // The per-core footprint is a per-core share: scaled by den x n.
        let single = s.cmp_spec(&preset, 1);
        assert!(spec.workloads[0].templates <= single.workloads[0].templates);
        assert!(spec.warmup_insts > 0 && spec.measure_insts > 0);
    }
}
