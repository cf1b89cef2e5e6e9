//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation (§5).
//!
//! Each driver returns typed rows and can print an aligned table with the
//! paper's reference values beside the measured ones. The `repro` binary
//! exposes one subcommand per experiment; `repro bench-throughput` and
//! `repro bench-trace-scale` time the drivers' cells under the baseline
//! gates of [`gate`], and the `components` Criterion bench in
//! `benches/` times the individual components.
//!
//! # Scaling
//!
//! Experiments run on a *proportionally scaled* machine: caches and
//! workload footprints are divided by the same factor (default 4), which
//! preserves Table 1's per-instruction statistics while cutting the
//! recurrence interval — and hence the trace length — by the factor.
//! Capacity-class predictor tables (GHB, TCP PHT, SMS PHT, the
//! main-memory correlation tables) scale with the factor too, so every
//! capacity ratio in the comparison is preserved; structural parameters
//! (prefetch buffer, MSHRs, memory latency, bus widths, 2 KB spatial
//! regions) stay at the paper's values. `Scale::full()` runs the true
//! 2 MB-L2 machine.

pub mod experiments;
pub mod gate;
pub mod report;
pub mod scale;
pub mod service;
pub mod throughput;
pub mod tracescale;

pub use ebcp_harness::{Harness, HarnessConfig, Job};
pub use experiments::{
    ablation, cmp_bandwidth, cmp_interleaving, fig4_5, fig6, fig7, fig8, fig9, table1,
    AblationPoint, BwPoint, CmpBwPoint, CmpPoint, CmpPointRow, SweepPoint, Table1Row,
};
pub use scale::Scale;
pub use throughput::ThroughputRow;
