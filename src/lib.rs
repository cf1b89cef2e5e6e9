//! # EBCP — Epoch-Based Correlation Prefetching
//!
//! A full reproduction of *“Low-Cost Epoch-Based Correlation Prefetching
//! for Commercial Applications”* (Yuan Chou, MICRO 2007): the prefetcher,
//! the epoch-model timing simulator it is evaluated on, synthetic
//! commercial workloads calibrated to the paper's Table 1, and every
//! baseline prefetcher from the paper's comparison.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`types`] — addresses, cycles, access kinds, statistics primitives.
//! * [`trace`] — trace records, the segmented on-disk container, and
//!   the four synthetic workload generators (`database`, `tpcw`,
//!   `specjbb2005`, `specjappserver2004`).
//! * [`mem`] — caches, MSHRs, the prefetch buffer, and the
//!   split-transaction bus + DRAM timing model.
//! * [`prefetch`] — the event-driven [`prefetch::Prefetcher`] trait and
//!   the baselines: stream, GHB PC/DC, TCP, SMS, Solihin.
//! * [`core`] — **the paper's contribution**: the epoch tracker, the
//!   EMAB, the main-memory correlation table and
//!   [`core::EbcpPrefetcher`].
//! * [`sim`] — the trace-driven epoch-model engine and run helpers.
//! * [`harness`] — parallel experiment orchestration: content-addressed
//!   jobs, a worker pool with shared traces, an on-disk result cache
//!   and run telemetry.
//!
//! # Quickstart
//!
//! ```
//! use ebcp::core::EbcpConfig;
//! use ebcp::sim::{PrefetcherSpec, RunSpec, SimConfig};
//! use ebcp::trace::WorkloadSpec;
//!
//! // A small machine and workload so the doctest stays fast; see the
//! // examples and the `repro` binary for paper-scale runs.
//! let workload = WorkloadSpec::database().scaled(1, 32);
//! let interval = workload.recurrence_interval();
//! let spec = RunSpec {
//!     workload,
//!     seed: 7,
//!     warmup_insts: interval,
//!     measure_insts: interval / 2,
//!     sim: SimConfig::scaled_down(16),
//! };
//! let trace = spec.materialize();
//! let baseline = spec.run_on(&trace, &PrefetcherSpec::None);
//! let ebcp = spec.run_on(&trace, &PrefetcherSpec::Ebcp(EbcpConfig::tuned()));
//! assert!(ebcp.pf_issued > 0);
//! assert!(ebcp.cpi() <= baseline.cpi());
//! ```

pub use ebcp_core as core;
pub use ebcp_harness as harness;
pub use ebcp_mem as mem;
pub use ebcp_prefetch as prefetch;
pub use ebcp_sim as sim;
pub use ebcp_trace as trace;
pub use ebcp_types as types;
