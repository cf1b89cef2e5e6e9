//! The epoch-model trace-driven timing simulator.
//!
//! This crate stands in for the proprietary cycle-accurate SPARC
//! simulator of §4.3. It consumes instruction traces and models the parts
//! of the machine the paper's evaluation depends on, at cycle
//! granularity:
//!
//! * a 4-wide in-order *consumption* front end over the trace, with an
//!   out-of-order **miss window**: after an off-chip load miss the core
//!   keeps running — issuing further (overlappable) misses — until a
//!   *window termination condition* from §2.1 fires: reorder buffer full,
//!   a serializing instruction, a mispredicted branch dependent on an
//!   off-chip miss, or an off-chip instruction miss (always blocking).
//!   Then it stalls to the completion of the whole overlapped miss
//!   group — which is precisely one *epoch*;
//! * the full L1I/L1D/L2 hierarchy with MSHRs, a prefetch buffer
//!   searched in parallel with the L2, and the split-transaction
//!   bus + DRAM model with demand/prefetch/table priorities;
//! * event-driven prefetcher interaction: main-memory table reads
//!   complete after a real modelled round-trip, prefetches arrive in the
//!   buffer after theirs, and everything competes for bandwidth.
//!
//! See `DESIGN.md` §5 for why this epoch-model substitution preserves the
//! behaviours the paper measures.
//!
//! # Examples
//!
//! ```
//! use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
//! use ebcp_trace::WorkloadSpec;
//!
//! let spec = RunSpec {
//!     workload: WorkloadSpec::specjbb2005().scaled(1, 32),
//!     seed: 1,
//!     warmup_insts: 20_000,
//!     measure_insts: 20_000,
//!     sim: SimConfig::scaled_down(16),
//! };
//! let result = spec.run(&PrefetcherSpec::None);
//! assert!(result.cpi() > 0.0);
//! ```

pub mod cmp;
#[cfg(any(test, feature = "stepping-oracle"))]
pub mod cmp_stepping;
pub mod config;
pub mod des;
pub mod engine;
pub mod frontend;
pub mod lockstep;
pub mod metrics;
pub mod runner;
pub mod segment;
#[cfg(any(test, feature = "stepping-oracle"))]
pub mod stepping;
mod uncore;

pub use cmp::{CmpEngine, CmpResult};
#[cfg(any(test, feature = "stepping-oracle"))]
pub use cmp_stepping::SteppingCmpEngine;
pub use config::{CoreConfig, SimConfig};
pub use des::{Tick, WakeHeap};
pub use engine::Engine;
pub use frontend::{segment_events, PreBlock, PreEvent, PreResolved, PreResolver, ReplayCursor};
pub use lockstep::Lockstep;
pub use metrics::SimResult;
pub use runner::{CmpSpec, PrefetcherSpec, RunSpec};
pub use segment::{resolve_blocks, run_preresolved_blocks, run_preresolved_blocks_many};
