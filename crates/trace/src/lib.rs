//! Trace format and synthetic commercial workload generators.
//!
//! The paper evaluates on proprietary, hardware-validated SPARC traces of
//! four commercial workloads (a large OLTP database, TPC-W, SPECjbb2005
//! and SPECjAppServer2004). Those traces do not exist outside Sun; this
//! crate replaces them with **synthetic workload generators** built around
//! a *transaction template* model that reproduces the properties the
//! paper's evaluation depends on:
//!
//! * **Recurring irregular miss sequences** — each workload is a mix of
//!   transaction templates; a template's data-miss *clusters* (the misses
//!   of one epoch) and cold-code runs recur every time the template
//!   executes, so correlation prefetchers can learn them, while the
//!   addresses themselves are pointer-chasing-irregular, defeating stride
//!   prefetchers.
//! * **Epoch structure** — clusters are spaced by more filler
//!   instructions than the 128-entry ROB can span, so each cluster forms
//!   one epoch; cluster-size distributions (with a heavy tail) set the
//!   memory-level parallelism, and cold instruction lines terminate the
//!   window immediately, exactly like the paper's window-termination
//!   conditions.
//! * **Control-flow variability** — *fork* segments pick one of two
//!   alternative clusters per execution, bounding prefetch accuracy and
//!   exercising the width-vs-depth trade-off; *noise* substitutes random
//!   lines at emission time.
//! * **Spatial structure** — some templates revisit 2 KB regions with
//!   fixed footprints across consecutive epochs (spatial-memory-streaming
//!   material); a small fraction of clusters are sequential scans (stream
//!   prefetcher material).
//!
//! Four presets ([`WorkloadSpec::database`], [`WorkloadSpec::tpcw`],
//! [`WorkloadSpec::specjbb2005`], [`WorkloadSpec::specjappserver2004`])
//! are calibrated against Table 1 of the paper.
//!
//! # Examples
//!
//! ```
//! use ebcp_trace::{TraceGenerator, WorkloadSpec};
//!
//! let spec = WorkloadSpec::database().scaled(1, 8); // small footprint for tests
//! let trace: Vec<_> = TraceGenerator::new(&spec, 42).take(10_000).collect();
//! assert_eq!(trace.len(), 10_000);
//! // Deterministic: same seed, same trace.
//! let again: Vec<_> = TraceGenerator::new(&spec, 42).take(10_000).collect();
//! assert_eq!(trace, again);
//! ```

pub mod checksum;
pub mod gen;
pub mod io;
pub mod record;
pub mod segfile;
pub mod spec;
pub mod stats;
pub mod template;

pub use gen::TraceGenerator;
pub use io::{read_trace, write_trace, TraceCodecError};
pub use record::{Op, TraceRecord};
pub use segfile::{Backing, SegfileError, SegmentedTrace, TraceSink};
pub use spec::WorkloadSpec;
pub use stats::TraceStats;

/// Chunked trace delivery: refill `out` with up to `max` records,
/// preserving the underlying sequence across calls; `0` means the
/// source is exhausted (generators are infinite and never return `0`
/// for `max > 0`).
///
/// This is the contract [`TraceGenerator::next_chunk`] has always had;
/// the trait exists so the simulator's one front-end producer
/// (`ebcp_sim::resolve_blocks`) accepts either a live generator or an
/// on-disk [`SegmentedTrace`] without materializing the records in
/// between.
pub trait ChunkSource {
    /// Refills `out` (cleared first) with up to `max` records.
    fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize;
}

impl ChunkSource for TraceGenerator {
    fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        TraceGenerator::next_chunk(self, out, max)
    }
}

/// Lends a source to a consumer that takes it by value, so the caller
/// keeps it afterwards (the harness finishes its trace tee this way).
impl<S: ChunkSource + ?Sized> ChunkSource for &mut S {
    fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        (**self).next_chunk(out, max)
    }
}

impl ChunkSource for SegmentedTrace {
    fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        SegmentedTrace::next_chunk(self, out, max)
    }
}
