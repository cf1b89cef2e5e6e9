//! The block pipeline: one front-end producer and one warm/measure
//! replay loop.
//!
//! The large trace tier cannot afford `run_preresolved`'s contract of
//! one materialized event stream per job. This module produces and
//! replays a job as bounded [`PreBlock`]s instead:
//!
//! * [`resolve_blocks`] — **the one producer**: chunks from any
//!   [`ChunkSource`] (a live generator or an on-disk segmented trace)
//!   through one [`PreResolver`], cut every `seg_records` records.
//!   `RunSpec::pre_resolve` is its single block at `u64::MAX`; the
//!   harness writes its blocks to the on-disk stream cache, or replays
//!   them on the worker thread when there is no store.
//! * [`run_preresolved_blocks`] / [`run_preresolved_blocks_many`] —
//!   **serial, exact**: one engine (or one lockstep group) consumes
//!   blocks back to back through the one warm/measure loop, which
//!   `RunSpec::run_preresolved(_many)` — and through them
//!   `RunSpec::run`/`run_on` — also run over a whole stream as one
//!   block. State handoff between blocks is complete by construction
//!   (it is the same engine), so the result is byte-identical to
//!   replaying the unsplit stream; peak memory is O(block).
//!
//! Every single-core result the crate produces comes out of
//! `warm_measure`; the per-record stepping engine survives only as
//! the test-only `stepping` oracle the loop is checked against.
//!
//! Budget arithmetic: `Engine::replay_events` consumes exactly
//! `min(budget, records remaining in the block)` instructions, so the
//! warm-up/measure boundary is tracked arithmetically without querying
//! the engine — including when the boundary lands mid-gap (the cursor
//! resumes from the exact record).

use std::borrow::Borrow;

use ebcp_trace::ChunkSource;

use crate::engine::Engine;
use crate::frontend::{PreBlock, PreEvent, PreResolved, PreResolver, ReplayCursor};
use crate::lockstep::Lockstep;
use crate::metrics::SimResult;
use crate::runner::{PrefetcherSpec, RunSpec};

/// Resolves `spec`'s `warmup + measure` records from `src` through the
/// L1 front end, yielding a [`PreBlock`] every `seg_records` records
/// (the last one may be shorter). Only the block being built is
/// resident, so whoever drives the iterator holds O(segment).
///
/// Always yields at least one block: a source with nothing to give
/// yields one empty block. The blocks concatenate to exactly the
/// stream [`PreResolved::from_records`] builds from the same records,
/// cut as [`crate::frontend::segment_events`] cuts it.
///
/// # Panics
///
/// Panics if `seg_records` is zero.
pub fn resolve_blocks<S: ChunkSource>(
    spec: &RunSpec,
    mut src: S,
    seg_records: u64,
) -> impl Iterator<Item = PreBlock> {
    assert!(seg_records > 0, "segment length must be at least 1 record");
    let mut pr = PreResolver::new(&spec.sim);
    let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
    let mut left = spec.warmup_insts + spec.measure_insts;
    let mut yielded = false;
    std::iter::from_fn(move || {
        while left > 0 {
            let room = seg_records - pr.pending_records();
            let want = (Engine::CHUNK_RECORDS as u64).min(left).min(room) as usize;
            let got = src.next_chunk(&mut chunk, want);
            if got == 0 {
                left = 0; // the source ran dry
                break;
            }
            pr.push_chunk(&chunk);
            left -= got as u64;
            if pr.pending_records() == seg_records {
                yielded = true;
                return Some(pr.split_block());
            }
        }
        let tail = pr.pending_records() > 0 || !yielded;
        yielded = true;
        tail.then(|| pr.split_block())
    })
}

/// A back end the warm/measure loop drives: one [`Engine`], or a
/// [`Lockstep`] group of them.
pub(crate) trait Replay {
    /// Replays up to `budget` records of `events` from `cur`.
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64);

    /// Resets measurement counters (the warm-up/measure boundary).
    fn reset_stats(&mut self);
}

impl Replay for Engine {
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        self.replay_events(events, cur, budget);
    }

    fn reset_stats(&mut self) {
        Engine::reset_stats(self);
    }
}

impl Replay for Lockstep {
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        Lockstep::replay(self, events, cur, budget);
    }

    fn reset_stats(&mut self) {
        Lockstep::reset_stats(self);
    }
}

/// What the warm/measure loop replays as one block: a [`PreBlock`] of
/// a segmented stream, or a whole [`PreResolved`] stream, borrowed.
pub(crate) trait Block {
    /// The block's packed events.
    fn events(&self) -> &[PreEvent];

    /// Trace records the events stand for.
    fn records(&self) -> u64;
}

impl Block for PreBlock {
    fn events(&self) -> &[PreEvent] {
        &self.events
    }

    fn records(&self) -> u64 {
        self.records
    }
}

impl Block for PreResolved {
    fn events(&self) -> &[PreEvent] {
        &self.events
    }

    fn records(&self) -> u64 {
        self.records
    }
}

/// The one warm/measure loop: replays `blocks` back to back on `back`,
/// resetting statistics after the first `spec.warmup_insts` records
/// (wherever in a block that lands) and stopping after the next
/// `spec.measure_insts`. Statistics reset even when the blocks run out
/// inside the warm-up, as stepping the same records would.
pub(crate) fn warm_measure<R, T, B, I>(back: &mut R, spec: &RunSpec, blocks: I)
where
    R: Replay,
    T: Block + ?Sized,
    B: Borrow<T>,
    I: IntoIterator<Item = B>,
{
    let mut left = [spec.warmup_insts, spec.measure_insts];
    let mut phase = 0;
    if left[0] == 0 {
        back.reset_stats();
        phase = 1;
    }
    'blocks: for block in blocks {
        let block = block.borrow();
        let mut cur = ReplayCursor::default();
        let mut block_left = block.records();
        loop {
            let take = left[phase].min(block_left);
            back.replay(block.events(), &mut cur, take);
            left[phase] -= take;
            block_left -= take;
            if left[phase] > 0 {
                continue 'blocks;
            }
            if phase == 1 {
                break 'blocks;
            }
            back.reset_stats();
            phase = 1;
        }
    }
    if phase == 0 {
        back.reset_stats();
    }
}

/// One engine per prefetcher, for a [`Lockstep`] group.
pub(crate) fn engines(spec: &RunSpec, pfs: &[PrefetcherSpec]) -> Vec<Engine> {
    pfs.iter()
        .map(|pf| Engine::new(spec.sim, pf.build()))
        .collect()
}

/// Replays `blocks` back to back on one engine — byte-identical to
/// [`RunSpec::run_preresolved`] over the concatenated stream, with peak
/// memory bounded by the largest block (plus the engine).
///
/// `blocks` must cover at least `warmup + measure` records of the
/// spec's trace, resolved under `spec.sim`'s L1 geometries (the
/// harness enforces the geometry via the stream cache's canonical
/// string; [`resolve_blocks`] and [`crate::frontend::segment_events`]
/// both preserve it).
pub fn run_preresolved_blocks<I, B>(spec: &RunSpec, blocks: I, pf: &PrefetcherSpec) -> SimResult
where
    I: IntoIterator<Item = B>,
    B: Borrow<PreBlock>,
{
    let mut engine = Engine::new(spec.sim, pf.build());
    warm_measure::<_, PreBlock, _, _>(&mut engine, spec, blocks);
    engine.result(&spec.workload.name)
}

/// [`run_preresolved_blocks`] for a whole prefetcher roster in one
/// lockstep pass per block — each lane byte-identical to its own serial
/// block replay (and therefore to its monolithic replay), with the same
/// per-lane fault isolation as [`RunSpec::run_preresolved_many`].
pub fn run_preresolved_blocks_many<I, B>(
    spec: &RunSpec,
    blocks: I,
    pfs: &[PrefetcherSpec],
) -> Vec<Result<SimResult, String>>
where
    I: IntoIterator<Item = B>,
    B: Borrow<PreBlock>,
{
    let mut group = Lockstep::new(engines(spec, pfs));
    warm_measure::<_, PreBlock, _, _>(&mut group, spec, blocks);
    group.results(&spec.workload.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::frontend::segment_events;
    use ebcp_core::EbcpConfig;
    use ebcp_prefetch::BaselineConfig;
    use ebcp_trace::WorkloadSpec;

    fn quick_spec() -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 32),
            seed: 11,
            warmup_insts: 60_000,
            measure_insts: 60_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    fn roster() -> Vec<PrefetcherSpec> {
        vec![
            PrefetcherSpec::None,
            PrefetcherSpec::baseline(
                "ghb-large",
                BaselineConfig::Ghb(ebcp_prefetch::GhbConfig::large()),
            ),
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
        ]
    }

    #[test]
    fn block_replay_is_exact_for_odd_segment_lengths() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        for pf in roster() {
            let mono = spec.run_preresolved(&pre, &pf);
            // Segment lengths chosen to land boundaries mid-gap, on
            // events, and at the warm-up boundary's own block.
            for seg in [977, 4096, 60_000, 59_999, 1_000_000] {
                let blocks = segment_events(&pre, seg);
                let spliced = run_preresolved_blocks(&spec, &blocks, &pf);
                assert_eq!(mono, spliced, "{} with seg {seg}", pf.name());
            }
        }
    }

    #[test]
    fn segment_events_preserves_record_accounting() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        for seg in [1, 977, 120_000, 120_001] {
            let blocks = segment_events(&pre, seg);
            assert_eq!(blocks.iter().map(|b| b.records).sum::<u64>(), pre.records);
            for (k, b) in blocks.iter().enumerate() {
                let by_events: u64 = b.events.iter().map(crate::PreEvent::records).sum();
                assert_eq!(by_events, b.records, "block {k} of seg {seg}");
                if k + 1 < blocks.len() {
                    assert_eq!(b.records, seg, "only the tail may run short");
                }
            }
        }
    }

    #[test]
    fn lockstep_block_replay_matches_serial() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pfs = roster();
        let blocks = segment_events(&pre, 7_001);
        let lock = run_preresolved_blocks_many(&spec, &blocks, &pfs);
        for (pf, l) in pfs.iter().zip(&lock) {
            assert_eq!(
                spec.run_preresolved(&pre, pf),
                *l.as_ref().unwrap(),
                "lane {}",
                pf.name()
            );
        }
    }

    #[test]
    fn resolved_blocks_match_segmented_stream_and_stepping_oracle() {
        let spec = quick_spec();
        let pre = PreResolved::from_records(&spec.sim, &spec.materialize());
        let stepped: Vec<SimResult> = roster()
            .iter()
            .map(|pf| crate::stepping::run_stepped(&spec, &spec.materialize(), pf))
            .collect();
        for seg in [4_999, 65_536, u64::MAX] {
            let gen = ebcp_trace::TraceGenerator::new(&spec.workload, spec.seed);
            let blocks: Vec<PreBlock> = resolve_blocks(&spec, gen, seg).collect();
            assert_eq!(blocks, segment_events(&pre, seg), "seg {seg}");
            for (pf, oracle) in roster().iter().zip(&stepped) {
                let replayed = run_preresolved_blocks(&spec, &blocks, pf);
                assert_eq!(replayed, *oracle, "{} with seg {seg}", pf.name());
            }
        }
        // Nothing to resolve still yields the one empty block.
        let empty = RunSpec {
            warmup_insts: 0,
            measure_insts: 0,
            ..spec.clone()
        };
        let gen = ebcp_trace::TraceGenerator::new(&empty.workload, empty.seed);
        let blocks: Vec<PreBlock> = resolve_blocks(&empty, gen, 4_999).collect();
        assert_eq!(blocks, vec![PreBlock::default()]);
    }
}
