//! The block pipeline: one front-end producer, one warm/measure replay
//! loop, and segment-parallel scatter.
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
//!   `RunSpec::run_preresolved(_many)` also run over a whole stream as
//!   one block. State handoff between blocks is complete by
//!   construction (it is the same engine), so the result is
//!   byte-identical to replaying the unsplit stream; peak memory is
//!   O(block).
//! * [`run_scatter_spans_with`] — **segment-parallel, documented
//!   tolerance**: contiguous spans of the measured region replay on
//!   independent workers, each warming a cold engine on an overlap
//!   window, and the per-span deltas are spliced. Handoff is
//!   *incomplete*, so results approximate the monolithic run within a
//!   tolerance that shrinks as the overlap grows (DESIGN.md §3f). This
//!   is the ≥2-worker configuration that beats a single worker on
//!   wall-clock: workers skip the serial warm-up prefix outside their
//!   overlap windows.
//!
//! Budget arithmetic: `Engine::replay_events` consumes exactly
//! `min(budget, records remaining in the block)` instructions, so the
//! warm-up/measure boundary is tracked arithmetically without querying
//! the engine — including when the boundary lands mid-gap (the cursor
//! resumes from the exact record).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Segment-parallel scatter run over blocks fetched on demand.
///
/// The blocks intersecting the measured region are partitioned into at
/// most `spans` contiguous spans, and each span is one worker task: the
/// worker reconstructs warm state by replaying the `overlap` blocks
/// before the span (and the unmeasured prefix of its first block) on a
/// cold engine, then the span's blocks replay continuously on the same
/// engine (complete handoff inside a span, exactly like the serial
/// mode). The per-span deltas are spliced in block order. Approximate
/// — see the module docs — but deterministic for a given
/// `(blocks, overlap, spans)`: `threads` only changes wall-clock.
/// `spans = usize::MAX` gives one span per measured block.
///
/// `block_records[k]` gives the record count of block `k` (streams
/// carry this in their index, so no block needs to be read to compute
/// the task set). `reader()` is called once per worker; the returned
/// closure must yield block `k` of the same logical stream for any
/// `k` a worker asks for — each worker holds at most one fetched block
/// at a time, so the resident set stays O(segment × workers) even when
/// the block sequence itself would not fit in memory.
///
/// The span count is what makes scatter profitable when the measured
/// region is wide: with one span per block, a region of `m` blocks
/// costs `m × (overlap + 1)` block replays — more than the serial
/// replay of the whole trace once `overlap + 1` exceeds the
/// trace-to-region ratio. A handful of spans costs
/// `m + spans × overlap` instead, while still skipping the serial
/// warm-up prefix that dominates a large-tier trace.
///
/// Fewer spans also means fewer cold-start seams, so the approximation
/// error only tightens as `spans` shrinks (at `spans == 1` with enough
/// overlap to reach the trace start, the run is the exact serial
/// replay).
///
/// # Panics
///
/// Panics if `threads` or `spans` is zero or the blocks cover fewer
/// than `warmup + measure` records.
pub fn run_scatter_spans_with<G, F, B>(
    spec: &RunSpec,
    block_records: &[u64],
    reader: G,
    pf: &PrefetcherSpec,
    overlap: usize,
    spans: usize,
    threads: usize,
) -> SimResult
where
    G: Fn() -> F + Sync,
    F: FnMut(usize) -> B,
    B: Borrow<PreBlock>,
{
    assert!(threads > 0, "at least one worker");
    assert!(spans > 0, "at least one span");
    let covered: u64 = block_records.iter().sum();
    assert!(
        covered >= spec.warmup_insts + spec.measure_insts,
        "blocks cover {covered} records, spec needs {}",
        spec.warmup_insts + spec.measure_insts
    );
    // Absolute record offset of each block's first record.
    let starts: Vec<u64> = block_records
        .iter()
        .scan(0u64, |acc, r| {
            let s = *acc;
            *acc += r;
            Some(s)
        })
        .collect();
    let ws = spec.warmup_insts;
    let we = spec.warmup_insts + spec.measure_insts;
    // Blocks intersecting the measured region form one contiguous run.
    let measured: Vec<usize> = (0..block_records.len())
        .filter(|&k| starts[k] < we && starts[k] + block_records[k] > ws)
        .collect();
    let first = *measured.first().expect("at least one measured block");
    let n = measured.len();
    let spans_n = spans.min(n);
    // Near-equal contiguous partition of the measured run.
    let bounds: Vec<(usize, usize)> = (0..spans_n)
        .map(|i| (first + i * n / spans_n, first + (i + 1) * n / spans_n - 1))
        .collect();

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<SimResult>>> = Mutex::new(vec![None; bounds.len()]);
    let workers = threads.min(bounds.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut fetch = reader();
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= bounds.len() {
                        return;
                    }
                    let (a, b) = bounds[t];
                    let mut engine = Engine::new(spec.sim, pf.build());
                    for j in a.saturating_sub(overlap)..a {
                        let block = fetch(j);
                        let block = block.borrow();
                        let mut cur = ReplayCursor::default();
                        engine.replay_events(&block.events, &mut cur, block.records);
                    }
                    let mut measuring = starts[a] >= ws;
                    if measuring {
                        engine.reset_stats();
                    }
                    for k in a..=b {
                        let block = fetch(k);
                        let block = block.borrow();
                        let mut cur = ReplayCursor::default();
                        let mut off = starts[k];
                        let mut left = block_records[k];
                        if !measuring {
                            // Only the first span can start pre-warm-up,
                            // and the prefix always ends inside it (the
                            // block intersects the measured region).
                            let prefix = ws - off;
                            engine.replay_events(&block.events, &mut cur, prefix);
                            off += prefix;
                            left -= prefix;
                            engine.reset_stats();
                            measuring = true;
                        }
                        let take = (we - off).min(left);
                        engine.replay_events(&block.events, &mut cur, take);
                        if off + take == we {
                            break;
                        }
                    }
                    slots.lock().expect("scatter slots")[t] =
                        Some(engine.result(&spec.workload.name));
                }
            });
        }
    });

    let parts = slots.into_inner().expect("scatter slots");
    let mut it = parts.into_iter().map(|r| r.expect("worker filled slot"));
    let mut total = it.next().expect("at least one span");
    for part in it {
        total.accumulate(&part);
    }
    total
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

    /// Per-block scatter (one span per measured block) over a slice.
    fn scatter(
        spec: &RunSpec,
        blocks: &[PreBlock],
        pf: &PrefetcherSpec,
        overlap: usize,
        threads: usize,
    ) -> SimResult {
        let records: Vec<u64> = blocks.iter().map(|b| b.records).collect();
        run_scatter_spans_with(
            spec,
            &records,
            || |k: usize| &blocks[k],
            pf,
            overlap,
            usize::MAX,
            threads,
        )
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
            .map(|pf| spec.run_on(&spec.materialize(), pf))
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

    #[test]
    fn scatter_is_deterministic_and_close() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let mono = spec.run_preresolved(&pre, &pf);
        let blocks = segment_events(&pre, 15_000);
        // Overlap must cover the 60k-record warm-up (4 blocks) for the
        // reconstruction to be faithful at this tiny scale; measured
        // error is then ~1.5% (overlap 1 leaves ~22% cold-start error —
        // the convergence table lives in DESIGN.md §3f).
        let a = scatter(&spec, &blocks, &pf, 4, 4);
        let b = scatter(&spec, &blocks, &pf, 4, 1);
        assert_eq!(a, b, "scatter must not depend on worker count");
        assert_eq!(a.insts, spec.measure_insts, "splice covers the region");
        let rel = (a.cpi() - mono.cpi()).abs() / mono.cpi();
        assert!(
            rel < 0.05,
            "scatter CPI {:.4} vs monolithic {:.4} ({:.1}% off)",
            a.cpi(),
            mono.cpi(),
            rel * 100.0
        );
    }

    #[test]
    fn scatter_with_on_demand_reader_matches_slice_scatter() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let blocks = segment_events(&pre, 15_000);
        let records: Vec<u64> = blocks.iter().map(|b| b.records).collect();
        let by_slice = scatter(&spec, &blocks, &pf, 4, 4);
        // An owning reader that clones each block on demand stands in
        // for a disk-backed stream reopened per worker.
        let by_fetch = run_scatter_spans_with(
            &spec,
            &records,
            || |k: usize| blocks[k].clone(),
            &pf,
            4,
            usize::MAX,
            2,
        );
        assert_eq!(by_slice, by_fetch);
    }

    #[test]
    fn span_scatter_specializes_to_per_block_scatter_and_tightens_with_fewer_spans() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let mono = spec.run_preresolved(&pre, &pf);
        let blocks = segment_events(&pre, 15_000);
        let records: Vec<u64> = blocks.iter().map(|b| b.records).collect();
        let per_block = scatter(&spec, &blocks, &pf, 4, 4);
        // As many spans as measured blocks (the 60k-record region is
        // four 15k blocks) is exactly the per-block mode.
        let measured_blocks = (spec.measure_insts / 15_000) as usize;
        let max_spans = run_scatter_spans_with(
            &spec,
            &records,
            || |k: usize| &blocks[k],
            &pf,
            4,
            measured_blocks,
            4,
        );
        assert_eq!(per_block, max_spans);
        // Fewer spans: deterministic across thread counts, and at
        // least as close to the monolithic run (fewer cold seams).
        let spans2_a =
            run_scatter_spans_with(&spec, &records, || |k: usize| &blocks[k], &pf, 4, 2, 4);
        let spans2_b =
            run_scatter_spans_with(&spec, &records, || |k: usize| &blocks[k], &pf, 4, 2, 1);
        assert_eq!(
            spans2_a, spans2_b,
            "span scatter must not depend on worker count"
        );
        assert_eq!(
            spans2_a.insts, spec.measure_insts,
            "splice covers the region"
        );
        let err = |r: &SimResult| (r.cpi() - mono.cpi()).abs() / mono.cpi();
        assert!(
            err(&spans2_a) <= err(&per_block) + 1e-9,
            "fewer seams, no worse: {:.4} vs {:.4}",
            err(&spans2_a),
            err(&per_block)
        );
        // One span warmed all the way back to the trace start replays
        // the exact monolithic history.
        let full = run_scatter_spans_with(
            &spec,
            &records,
            || |k: usize| &blocks[k],
            &pf,
            blocks.len(),
            1,
            4,
        );
        assert_eq!(full, mono, "one fully-overlapped span is exact");
    }

    #[test]
    fn scatter_overlap_tightens_the_approximation() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::None;
        let mono = spec.run_preresolved(&pre, &pf);
        let blocks = segment_events(&pre, 10_000);
        let err = |overlap| {
            let r = scatter(&spec, &blocks, &pf, overlap, 4);
            (r.cpi() - mono.cpi()).abs() / mono.cpi()
        };
        // With the whole prefix as overlap the handoff is complete:
        // every worker replays exactly the monolithic history.
        let full = scatter(&spec, &blocks, &pf, blocks.len(), 4);
        assert_eq!(full, mono, "full overlap is exact");
        assert!(err(2) <= err(0) + 1e-9, "more overlap, no worse");
    }
}
