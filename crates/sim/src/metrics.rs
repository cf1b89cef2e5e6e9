//! Simulation results and derived metrics.

use ebcp_mem::MemStats;
use ebcp_types::{Cycle, MemClass};
use serde::{Deserialize, Serialize};

/// Raw and derived results of one simulation run (measurement phase
/// only; warm-up is excluded).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Prefetcher name.
    pub prefetcher: String,
    /// Workload name.
    pub workload: String,
    /// Instructions measured.
    pub insts: u64,
    /// Cycles elapsed over the measurement.
    pub cycles: Cycle,
    /// Epochs observed.
    pub epochs: u64,
    /// Off-chip demand instruction misses.
    pub l2_inst_misses: u64,
    /// Off-chip demand load misses.
    pub l2_load_misses: u64,
    /// Off-chip store write-allocates.
    pub l2_store_misses: u64,
    /// Demand misses that merged into an already-outstanding MSHR
    /// (secondary misses; consume no new register, create no epoch).
    pub secondary_misses: u64,
    /// Instruction misses averted by prefetch-buffer hits.
    pub averted_inst: u64,
    /// Load misses averted by prefetch-buffer hits.
    pub averted_load: u64,
    /// Store accesses served from the prefetch buffer.
    pub averted_store: u64,
    /// Demand misses whose latency was partially hidden by an in-flight
    /// prefetch to the same line.
    pub partial_hits: u64,
    /// Prefetch requests the prefetcher asked for, before the engine's
    /// filter / MSHR / bus gates (`pf_issued + pf_filtered +
    /// pf_dropped_mshr + pf_dropped_bus`).
    pub pf_requested: u64,
    /// Prefetches issued to memory.
    pub pf_issued: u64,
    /// Prefetches dropped by bus saturation.
    pub pf_dropped_bus: u64,
    /// Prefetches dropped for want of an MSHR.
    pub pf_dropped_mshr: u64,
    /// Prefetch requests filtered (already cached / buffered / in
    /// flight).
    pub pf_filtered: u64,
    /// Prefetched lines evicted from the buffer unused.
    pub pf_evicted_unused: u64,
    /// Predictor table reads issued.
    pub table_reads: u64,
    /// Predictor table reads dropped (saturation).
    pub table_read_drops: u64,
    /// Predictor table writes issued.
    pub table_writes: u64,
    /// Dirty-line writebacks.
    pub writebacks: u64,
    /// Store write-allocates skipped because MSHRs were exhausted (the
    /// store buffer absorbs the write; no fill happens).
    pub store_skipped: u64,
    /// Cycles spent stalled on off-chip miss groups.
    pub stall_cycles: Cycle,
    /// Bus/memory traffic statistics.
    pub mem: MemStats,
}

impl SimResult {
    /// Overall cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.cycles as f64 / self.insts as f64
        }
    }

    /// Epochs per 1000 instructions (Table 1's second row).
    pub fn epi_per_kilo(&self) -> f64 {
        per_kilo(self.epochs, self.insts)
    }

    /// L2 instruction misses per 1000 instructions.
    pub fn inst_mr(&self) -> f64 {
        per_kilo(self.l2_inst_misses, self.insts)
    }

    /// L2 load misses per 1000 instructions.
    pub fn load_mr(&self) -> f64 {
        per_kilo(self.l2_load_misses, self.insts)
    }

    /// Secondary (MSHR-merged) misses per 1000 instructions.
    pub fn secondary_mr(&self) -> f64 {
        per_kilo(self.secondary_misses, self.insts)
    }

    /// Fraction of prefetch requests that survived the engine's gates
    /// and reached memory (`pf_issued / pf_requested`).
    pub fn pf_issue_rate(&self) -> f64 {
        ratio(self.pf_issued, self.pf_requested)
    }

    /// Mean off-chip misses per epoch.
    pub fn mlp(&self) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            (self.l2_inst_misses + self.l2_load_misses) as f64 / self.epochs as f64
        }
    }

    /// Useful prefetches: demand accesses served by the prefetch buffer.
    pub fn pf_useful(&self) -> u64 {
        self.averted_inst + self.averted_load + self.averted_store
    }

    /// Coverage: fraction of would-be off-chip misses averted by the
    /// prefetcher (Figure 5).
    pub fn coverage(&self) -> f64 {
        let averted = self.averted_inst + self.averted_load;
        let total = averted + self.l2_inst_misses + self.l2_load_misses;
        ratio(averted, total)
    }

    /// Instruction-miss coverage.
    pub fn coverage_inst(&self) -> f64 {
        ratio(self.averted_inst, self.averted_inst + self.l2_inst_misses)
    }

    /// Load-miss coverage.
    pub fn coverage_load(&self) -> f64 {
        ratio(self.averted_load, self.averted_load + self.l2_load_misses)
    }

    /// Accuracy: fraction of issued prefetches that were used (Figure 5).
    pub fn accuracy(&self) -> f64 {
        ratio(self.pf_useful(), self.pf_issued)
    }

    /// Overall performance improvement over `baseline`
    /// (speedup − 1, the paper's primary metric).
    pub fn improvement_over(&self, baseline: &SimResult) -> f64 {
        if self.cpi() == 0.0 {
            0.0
        } else {
            baseline.cpi() / self.cpi() - 1.0
        }
    }

    /// EPI reduction relative to `baseline` (Figure 5).
    pub fn epi_reduction_over(&self, baseline: &SimResult) -> f64 {
        let (b, s) = (baseline.epi_per_kilo(), self.epi_per_kilo());
        if b == 0.0 {
            0.0
        } else {
            1.0 - s / b
        }
    }

    /// Read-bus utilization over the measured cycles.
    pub fn read_bus_utilization(&self) -> f64 {
        ratio(self.mem.read.busy_total(), self.cycles)
    }

    /// Write-bus utilization over the measured cycles.
    pub fn write_bus_utilization(&self) -> f64 {
        ratio(self.mem.write.busy_total(), self.cycles)
    }

    /// Read-bus cycles consumed by prefetch + table traffic.
    pub fn overhead_read_cycles(&self) -> u64 {
        self.mem.read.busy_for(MemClass::Prefetch) + self.mem.read.busy_for(MemClass::TableRead)
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} {:<12} cpi={:<6.3} epi/1k={:<5.2} instMR={:<5.2} loadMR={:<5.2} secMR={:<5.2} cov={:<5.1}% acc={:<5.1}% pfReq={}",
            self.workload,
            self.prefetcher,
            self.cpi(),
            self.epi_per_kilo(),
            self.inst_mr(),
            self.load_mr(),
            self.secondary_mr(),
            self.coverage() * 100.0,
            self.accuracy() * 100.0,
            self.pf_requested,
        )
    }
}

fn per_kilo(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 * 1000.0 / d as f64
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            insts: 1_000_000,
            cycles: 2_000_000,
            epochs: 3_000,
            l2_inst_misses: 1_000,
            l2_load_misses: 4_000,
            averted_inst: 1_000,
            averted_load: 4_000,
            pf_issued: 20_000,
            ..SimResult::default()
        }
    }

    #[test]
    fn cpi_and_epi() {
        let r = sample();
        assert_eq!(r.cpi(), 2.0);
        assert_eq!(r.epi_per_kilo(), 3.0);
        assert_eq!(r.inst_mr(), 1.0);
        assert_eq!(r.load_mr(), 4.0);
    }

    #[test]
    fn coverage_and_accuracy() {
        let r = sample();
        assert_eq!(r.coverage(), 0.5);
        assert_eq!(r.coverage_inst(), 0.5);
        assert_eq!(r.coverage_load(), 0.5);
        assert_eq!(r.accuracy(), 0.25);
    }

    #[test]
    fn improvement_math() {
        let base = SimResult {
            insts: 1000,
            cycles: 3000,
            ..SimResult::default()
        };
        let faster = SimResult {
            insts: 1000,
            cycles: 2400,
            ..SimResult::default()
        };
        let imp = faster.improvement_over(&base);
        assert!((imp - 0.25).abs() < 1e-12, "3.0/2.4 - 1 = 0.25, got {imp}");
    }

    #[test]
    fn epi_reduction() {
        let base = SimResult {
            insts: 1000,
            epochs: 4,
            ..SimResult::default()
        };
        let better = SimResult {
            insts: 1000,
            epochs: 3,
            ..SimResult::default()
        };
        assert!((better.epi_reduction_over(&base) - 0.25).abs() < 1e-12);
    }

    /// Every derived metric must yield a finite 0.0 — never NaN or
    /// inf — on an empty run (all counters zero). NaN here would leak
    /// into the report tables and `results.json`.
    #[test]
    fn zero_denominators_are_safe() {
        let r = SimResult::default();
        for (name, v) in [
            ("cpi", r.cpi()),
            ("epi_per_kilo", r.epi_per_kilo()),
            ("inst_mr", r.inst_mr()),
            ("load_mr", r.load_mr()),
            ("secondary_mr", r.secondary_mr()),
            ("pf_issue_rate", r.pf_issue_rate()),
            ("mlp", r.mlp()),
            ("coverage", r.coverage()),
            ("coverage_inst", r.coverage_inst()),
            ("coverage_load", r.coverage_load()),
            ("accuracy", r.accuracy()),
            ("improvement_over", r.improvement_over(&r)),
            ("epi_reduction_over", r.epi_reduction_over(&r)),
            ("read_bus_utilization", r.read_bus_utilization()),
            ("write_bus_utilization", r.write_bus_utilization()),
        ] {
            assert!(v.is_finite(), "{name} must be finite on an empty run");
            assert_eq!(v, 0.0, "{name} must be 0.0 on an empty run");
        }
    }

    /// Nonzero numerators over zero denominators — a miss-free run
    /// (zero epochs, zero issued prefetches, zero instructions counted)
    /// that still accumulated other counters — must also stay at 0.0
    /// rather than dividing through to inf.
    #[test]
    fn nonzero_over_zero_is_still_zero() {
        let r = SimResult {
            insts: 0,
            cycles: 5_000,
            epochs: 0,
            l2_inst_misses: 7,
            l2_load_misses: 9,
            secondary_misses: 3,
            pf_requested: 0,
            pf_issued: 0,
            averted_inst: 0,
            averted_load: 0,
            ..SimResult::default()
        };
        assert_eq!(r.cpi(), 0.0, "cycles without instructions");
        assert_eq!(r.epi_per_kilo(), 0.0);
        assert_eq!(r.inst_mr(), 0.0, "misses without instructions");
        assert_eq!(r.load_mr(), 0.0);
        assert_eq!(r.secondary_mr(), 0.0);
        assert_eq!(r.mlp(), 0.0, "misses without epochs");
        assert_eq!(r.pf_issue_rate(), 0.0);
        assert_eq!(r.accuracy(), 0.0, "no prefetch was ever issued");
        // A healthy result compared against a degenerate baseline stays
        // finite (baseline cpi 0 / healthy cpi 2 − 1 = −1), and the
        // degenerate side guards its own zero cpi to 0.0.
        let healthy = sample();
        assert_eq!(healthy.improvement_over(&r), -1.0);
        assert_eq!(r.improvement_over(&healthy), 0.0, "degenerate self guards");
        assert_eq!(healthy.epi_reduction_over(&r), 0.0, "baseline epi is zero");
        // And the rendered summary carries no NaN/inf text.
        let s = r.summary();
        assert!(!s.contains("NaN") && !s.contains("inf"), "{s}");
    }

    #[test]
    fn summary_mentions_key_metrics() {
        let s = sample().summary();
        assert!(s.contains("cpi="));
        assert!(s.contains("cov="));
        assert!(s.contains("secMR="));
        assert!(s.contains("pfReq="));
    }

    #[test]
    fn secondary_and_request_metrics() {
        let r = SimResult {
            insts: 1_000_000,
            secondary_misses: 2_000,
            pf_requested: 40_000,
            pf_issued: 10_000,
            ..SimResult::default()
        };
        assert_eq!(r.secondary_mr(), 2.0);
        assert_eq!(r.pf_issue_rate(), 0.25);
    }
}
