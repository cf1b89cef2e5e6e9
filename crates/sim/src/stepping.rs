//! The record-stepping single-core engine, retained as a differential
//! oracle.
//!
//! This is the original composition of the single-core simulator: each
//! trace record is resolved against the L1 front end and then run
//! through the back end, one record at a time. The product path is the
//! two-phase pipeline instead: the front end pre-resolves the trace into
//! a packed event stream once ([`crate::PreResolver`]) and the back end
//! replays it ([`Engine::replay_events`]), which every `RunSpec` entry
//! point, harness job and lockstep lane runs. That replay must be
//! *byte-identical* to stepping the same records; the differential tests
//! (this crate's own, `crates/bench/tests/preresolve.rs` and the
//! segment battery) compare against [`run_stepped`] to pin it.
//!
//! The oracle shares the back end's per-record prologue and epilogue
//! with the replay path (`Engine::step_resolved` and the replay's event
//! dispatch both call the same `pre_op`/`post_op`), so only the L1
//! resolution and the op dispatch are independent.
//!
//! Compiled only for tests and under the `stepping-oracle` feature so
//! the release binaries carry a single single-core execution path.

use ebcp_prefetch::Prefetcher;
use ebcp_trace::TraceRecord;

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::frontend::FrontEnd;
use crate::metrics::SimResult;
use crate::runner::{PrefetcherSpec, RunSpec};

/// An [`Engine`] paired with its own L1 [`FrontEnd`], stepped one
/// trace record at a time.
#[derive(Debug)]
pub(crate) struct Stepper {
    fe: FrontEnd,
    /// The back end: statistics, resets and results.
    pub(crate) engine: Engine,
}

impl Stepper {
    /// A cold machine (L1s included) for `cfg` with prefetcher `pf`.
    pub(crate) fn new(cfg: SimConfig, pf: Box<dyn Prefetcher>) -> Self {
        Stepper {
            fe: FrontEnd::new(&cfg),
            engine: Engine::new(cfg, pf),
        }
    }

    /// Simulates one trace record: resolve the L1 front end, then run
    /// the back end. The two phases share no state (the front end never
    /// reads the clock, the back end never touches L1), which is what
    /// lets replay run the identical back end over a stream resolved
    /// long in advance.
    pub(crate) fn step(&mut self, rec: &TraceRecord) {
        let r = self.fe.resolve(rec);
        self.engine.step_resolved(&r);
    }
}

/// Steps `spec`'s warm-up and measurement over `trace`: the first
/// `warmup_insts` records, a statistics reset, then at most
/// `measure_insts` more. Statistics reset even when the trace ends
/// inside the warm-up, and records past `warmup_insts + measure_insts`
/// are ignored — the contract `RunSpec::run_on` replays under.
pub fn run_stepped(spec: &RunSpec, trace: &[TraceRecord], pf: &PrefetcherSpec) -> SimResult {
    let mut s = Stepper::new(spec.sim, pf.build());
    let warm = trace.len().min(spec.warmup_insts as usize);
    for rec in &trace[..warm] {
        s.step(rec);
    }
    s.engine.reset_stats();
    for rec in trace[warm..].iter().take(spec.measure_insts as usize) {
        s.step(rec);
    }
    s.engine.result(&spec.workload.name)
}
