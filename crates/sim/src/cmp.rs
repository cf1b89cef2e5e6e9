//! The chip-multiprocessor engine — the paper's §6 future work — as a
//! discrete-event simulator.
//!
//! N cores, each with its own miss window / epoch tracker, share the
//! L2, the prefetch buffer, the MSHR file, the memory system and one
//! prefetcher. Every demand miss is reported with its core id: the
//! on-chip prefetcher control sits in front of the core-to-L2 crossbar
//! (§3.2, Figure 2), so EBCP keeps per-core EMABs over a *shared*
//! correlation table, while a memory-side scheme such as Solihin's
//! observes only the interleaved stream arriving at the controller —
//! the very situation §3.3.1 argues destroys its correlations.
//!
//! # Discrete-event scheduling
//!
//! The engine is event-driven over a [`WakeHeap`] of `(next_tick,
//! component_id)` wake-ups — one component per core, with the uncore
//! (bus/DRAM/table completions) as an implicit extra component whose
//! wake-up (`next_ev_at`) is compared against the heap head. Each core
//! consumes a pre-resolved [`PreEvent`] stream (the prefetcher-
//! independent L1 front end runs once, in [`crate::frontend`], and is
//! shared across the whole prefetcher roster); between two wake-ups the
//! core advances *algebraically* over all its core-local records
//! (`Core::advance_inert`), never stepping them one by one.
//!
//! ## Why this is metric-identical to record stepping
//!
//! The stepping oracle (`crate::cmp_stepping`, test-only) always steps
//! the core with the smallest local clock, ties to the lowest index, so
//! records execute in ascending `(pre-record clock, core index)` order
//! — exactly the heap order here. The collapse is exact because:
//!
//! * a record is *core-local* iff it touches nothing shared: gap
//!   records (L1 hits, ALU, predicted branches), and — with no miss
//!   window open — mispredicted branches and serializing instructions.
//!   Local records commute with every shared interaction, so executing
//!   them early (at the collapse) is invisible;
//! * everything else *yields*: the record becomes the core's next
//!   wake-up and runs through the full per-record machinery
//!   ([`CmpEngine::exec_one`]), a verbatim transcription of the
//!   oracle's `step_core`. Under an open window, the `gap_advance`
//!   deadline algebra bounds the collapse (first outstanding-miss
//!   completion, ROB fill, dependence countdown) so the deadline record
//!   itself always yields; warm-up crossing records always yield so the
//!   shared-counter reset lands at the oracle's exact global
//!   position;
//! * uncore completions drain at the head of the loop whenever
//!   `next_ev_at <=` the next yield tick — the oracle drains them in
//!   each record's pre-op, and handlers take their own `ev.at` as
//!   `now`, so only the *order* relative to shared interactions matters
//!   (preserved by the comparison; the uncore wins ties, as the
//!   oracle's pre-op drain runs before the record body). After the heap
//!   empties, trailing local records still drain matured events in the
//!   oracle — up to the last consumed record's pre-clock — which the
//!   residual drain reproduces via the per-core `last_pre` watermark.
//!
//! ## One back end, two drivers
//!
//! The cores' state and the shared uncore (L2, prefetch buffer, MSHRs,
//! memory, prefetcher, event heap, traffic counters) are
//! `crate::uncore`'s, and so is every demand path: the single-core
//! [`crate::Engine`] runs the same code over a private uncore. This
//! module holds only the driver — the wake heap, the algebraic advance,
//! the inline loop and the warm-up protocol. The shared uncore differs
//! from the private one in its MSHR-merge model (DESIGN.md §5): a
//! demand miss that finds its line in an MSHR with no prefetch in
//! flight also counts as this core's miss and joins its window at full
//! memory latency, since the fill may be another core's.
//!
//! One deliberate non-observable: a store fill's (rare) dirty-eviction
//! writeback is stamped with the drain's clock, where the oracle uses
//! core 0's — but writebacks ride the *write* bus, whose outcome is
//! discarded and whose state never reaches a [`CmpResult`]. The
//! differential battery (`crates/bench/tests/cmp_des.rs`) pins
//! full-roster metric identity.

use ebcp_prefetch::Prefetcher;
use ebcp_trace::TraceRecord;
use ebcp_types::{Cycle, LineAddr};

use crate::config::SimConfig;
use crate::des::WakeHeap;
use crate::frontend::{
    PreEvent, PreResolved, ReplayCursor, F_IFETCH_MISS, K_LOAD, K_LOAD_FEEDS, K_MISPREDICT,
    K_SERIALIZE, K_SHIFT, K_STORE_HIT, K_STORE_MISS,
};
use crate::metrics::SimResult;
use crate::uncore::{Core, Uncore};

/// Per-core measurement results plus the shared-traffic aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpResult {
    /// One result per core (shared traffic counters are zero here; see
    /// `aggregate`).
    pub cores: Vec<SimResult>,
    /// Workload-wide aggregate: instruction/cycle sums, prefetch and
    /// table traffic, memory statistics.
    pub aggregate: SimResult,
}

impl CmpResult {
    /// Mean per-core CPI.
    pub fn mean_cpi(&self) -> f64 {
        if self.cores.is_empty() {
            0.0
        } else {
            self.cores.iter().map(|r| r.cpi()).sum::<f64>() / self.cores.len() as f64
        }
    }

    /// Mean per-core improvement over a baseline CMP run.
    pub fn improvement_over(&self, base: &CmpResult) -> f64 {
        if self.mean_cpi() == 0.0 {
            0.0
        } else {
            base.mean_cpi() / self.mean_cpi() - 1.0
        }
    }

    /// Aggregate prefetch coverage.
    pub fn coverage(&self) -> f64 {
        self.aggregate.coverage()
    }
}

/// One core component: its back-end [`Core`] plus the replay cursor
/// into its stream and the `last_pre` watermark — the pre-record clock
/// of the most recently consumed record, which the residual event
/// drain needs.
struct Slot {
    core: Core,
    cur: ReplayCursor,
    last_pre: Cycle,
}

impl Slot {
    /// [`Core::advance_inert`] over `k > 0` provably-local records,
    /// keeping the `last_pre` watermark: the caller guarantees none of
    /// them is a yield (deadline / warm-up crossing / shared
    /// interaction).
    #[inline]
    fn advance_inert(&mut self, k: u64, w: u64) {
        debug_assert!(k > 0);
        self.last_pre = self.core.cycle + (u64::from(self.core.issue_slots) + k - 1) / w;
        self.core.advance_inert(k, w);
    }
}

/// The N-core shared-L2 engine, discrete-event scheduled.
pub struct CmpEngine {
    cores: Vec<Slot>,
    uncore: Uncore<true>,
}

impl std::fmt::Debug for CmpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmpEngine")
            .field("cores", &self.cores.len())
            .field("prefetcher", &self.uncore.prefetcher_name())
            .finish_non_exhaustive()
    }
}

impl CmpEngine {
    /// Creates an N-core engine over a cold machine.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero or exceeds 255.
    pub fn new(cfg: SimConfig, n_cores: usize, pf: Box<dyn Prefetcher>) -> Self {
        assert!(n_cores > 0 && n_cores <= 255, "1..=255 cores");
        let cores = (0..n_cores)
            .map(|id| Slot {
                core: Core::new(id as u8, cfg.mshrs),
                cur: ReplayCursor::default(),
                last_pre: 0,
            })
            .collect();
        CmpEngine {
            cores,
            uncore: Uncore::new(cfg, pf),
        }
    }

    /// Runs one trace per core (all cores consume `warmup + measure`
    /// records; statistics cover the measurement part). Returns per-core
    /// and aggregate results.
    ///
    /// Each trace is pre-resolved through the per-core L1 front end
    /// first; callers sweeping a prefetcher roster over the same traces
    /// should pre-resolve once themselves and use
    /// [`CmpEngine::run_streams`].
    ///
    /// # Panics
    ///
    /// Panics unless exactly one trace per core is supplied.
    pub fn run(
        &mut self,
        traces: &[Vec<TraceRecord>],
        warmup: u64,
        measure: u64,
        workload: &str,
    ) -> CmpResult {
        assert_eq!(traces.len(), self.cores.len(), "one trace per core");
        let total = warmup + measure;
        let streams: Vec<PreResolved> = traces
            .iter()
            .map(|t| {
                let n = t.len().min(usize::try_from(total).unwrap_or(usize::MAX));
                PreResolved::from_records(&self.uncore.cfg, &t[..n])
            })
            .collect();
        let refs: Vec<&PreResolved> = streams.iter().collect();
        self.run_des(&refs, warmup, total, workload, None)
    }

    /// Runs one pre-resolved stream per core — the two-phase path: the
    /// harness pre-resolves (and disk-caches) each per-core stream once
    /// and replays the whole prefetcher roster over it.
    ///
    /// Each core consumes `warmup + measure` records (or its whole
    /// stream, if shorter).
    ///
    /// # Panics
    ///
    /// Panics unless exactly one stream per core is supplied and every
    /// stream was resolved under this engine's L1 geometries.
    pub fn run_streams(
        &mut self,
        streams: &[&PreResolved],
        warmup: u64,
        measure: u64,
        workload: &str,
    ) -> CmpResult {
        self.run_des(streams, warmup, warmup + measure, workload, None)
    }

    /// [`CmpEngine::run_streams`] with an explicit component
    /// registration order: core `order[0]` is scheduled onto the wake
    /// heap first, and so on. The `(next_tick, component_id)` tie-break
    /// makes the result independent of `order` — which the determinism
    /// property tests pin by permuting it.
    ///
    /// # Panics
    ///
    /// Panics unless `order` is a permutation of `0..n_cores` (checked
    /// as: right length, every index in range — duplicates would
    /// double-schedule and are caught by the stream-cursor assertion).
    pub fn run_streams_registered(
        &mut self,
        streams: &[&PreResolved],
        warmup: u64,
        measure: u64,
        workload: &str,
        order: &[usize],
    ) -> CmpResult {
        self.run_des(streams, warmup, warmup + measure, workload, Some(order))
    }

    /// The discrete-event main loop. See the module docs for the
    /// equivalence argument to the stepping oracle.
    fn run_des(
        &mut self,
        streams: &[&PreResolved],
        warmup: u64,
        total: u64,
        workload: &str,
        prime_order: Option<&[usize]>,
    ) -> CmpResult {
        assert_eq!(streams.len(), self.cores.len(), "one stream per core");
        for s in streams {
            assert!(
                s.l1i == self.uncore.cfg.l1i && s.l1d == self.uncore.cfg.l1d,
                "stream resolved under different L1 geometry"
            );
        }
        let n = self.cores.len();
        let mut heap = WakeHeap::with_capacity(n);
        let default_order: Vec<usize> = (0..n).collect();
        let order = prime_order.unwrap_or(&default_order);
        assert_eq!(order.len(), n, "registration order must cover every core");
        for &i in order {
            assert!(i < n, "registration order index out of range");
            if let Some(tick) = self.advance_local(i, &streams[i].events, warmup, total) {
                heap.schedule(tick, i as u32);
            }
        }
        while let Some((mut tick, id)) = heap.pop() {
            let i = id as usize;
            let events = &streams[i].events;
            // The popped core keeps the chip while its next yield sorts
            // below the runner-up's wake key; the heap cannot change
            // meanwhile, since only this core is running.
            let runner_up = heap.peek().unwrap_or((Cycle::MAX, u32::MAX));
            // Ties go to the lower id, so a runner-up with a higher id
            // lets this core run a yield at the runner-up's tick.
            let yield_bound = if id < runner_up.1 {
                runner_up.0.saturating_add(1)
            } else {
                runner_up.0
            };
            loop {
                if self.uncore.next_ev_at <= tick {
                    // The uncore component wakes first on ties: the
                    // oracle drains matured completions in the record's
                    // pre-op, before its body.
                    self.uncore.drain_events(tick);
                }
                // The core sits at a yield record whose key is the
                // global minimum. The fast loop runs it inline if it
                // can; otherwise the full machinery does.
                let insts = self.cores[i].core.insts;
                let bound = yield_bound.min(self.uncore.next_ev_at);
                let mut next = self.run_inline(i, events, warmup, total, bound);
                if self.cores[i].core.insts == insts {
                    self.exec_one(i, events);
                    // Each core crosses once, through `exec_one`; the
                    // last crossing starts the shared measurement.
                    if self.cores[i].core.insts == warmup {
                        self.cores[i].core.reset_stats();
                        if self.cores.iter().all(|s| s.core.insts >= warmup) {
                            self.uncore.reset_stats();
                        }
                    }
                    next = self.advance_local(i, events, warmup, total);
                } else if next.is_none() {
                    next = self.advance_local(i, events, warmup, total);
                }
                match next {
                    Some(t) if (t, id) < runner_up => tick = t,
                    Some(t) => {
                        heap.schedule(t, id);
                        break;
                    }
                    None => break,
                }
            }
        }
        // Residual drain: in the oracle, trailing core-local records
        // keep draining matured events in their pre-ops, up to the
        // globally last consumed record's pre-record clock.
        let residual = self.cores.iter().map(|s| s.last_pre).max().unwrap_or(0);
        if self.uncore.next_ev_at <= residual {
            self.uncore.drain_events(residual);
        }
        self.collect(workload)
    }

    /// Advances core `i` over everything core-local, returning the
    /// pre-record clock of its next *yield* — the next record that
    /// needs the full machinery — or `None` when the core has consumed
    /// its whole budget (stream end or `total` records).
    ///
    /// Yields are: any record touching shared state (L1-missing
    /// fetches, loads, stores — including store L1 hits, which dirty
    /// the shared L2), any flagged record while a miss window is open,
    /// the `gap_advance` deadline records of an open window (first
    /// outstanding completion, ROB fill, dependence countdown), and the
    /// warm-up crossing record (so statistics reset at the oracle's
    /// exact global position). Mispredicted branches and serializing
    /// instructions with nothing outstanding touch only the local
    /// clock and are consumed here.
    fn advance_local(
        &mut self,
        i: usize,
        events: &[PreEvent],
        warmup: u64,
        total: u64,
    ) -> Option<Cycle> {
        let cfg = self.uncore.cfg.core;
        let w = u64::from(cfg.issue_width);
        let s = &mut self.cores[i];
        loop {
            if s.core.insts >= total {
                return None;
            }
            let &ev = events.get(s.cur.idx)?;
            let gap_left = u64::from(ev.gap()) - u64::from(s.cur.gap_done);
            if gap_left == 0 && ev.flags() == 0 {
                // Exhausted pure filler: no event record behind it.
                s.cur.idx += 1;
                s.cur.gap_done = 0;
                continue;
            }
            // Records this core may consume before one must yield.
            let mut lim = total - s.core.insts;
            if s.core.insts < warmup {
                lim = lim.min(warmup - s.core.insts - 1);
            }
            let windowed = !s.core.outstanding.is_empty();
            if windowed {
                lim = lim.min(s.core.window_room(w, cfg.rob_entries));
            }
            if lim == 0 {
                return Some(s.core.cycle);
            }
            if gap_left > 0 {
                let take = gap_left.min(lim);
                s.advance_inert(take, w);
                s.cur.gap_done += take as u32;
                continue;
            }
            // At the event record itself (gap exhausted, flags != 0).
            if windowed || ev.flags() & F_IFETCH_MISS != 0 {
                return Some(s.core.cycle);
            }
            match ev.flags() >> K_SHIFT {
                K_MISPREDICT | K_SERIALIZE => {
                    // Nothing outstanding: a pure local clock bump
                    // (serialize never stalls with an empty window).
                    s.advance_inert(1, w);
                    s.core.cycle += if ev.flags() >> K_SHIFT == K_MISPREDICT {
                        cfg.mispredict_penalty
                    } else {
                        cfg.serialize_cost
                    };
                    s.cur.idx += 1;
                    s.cur.gap_done = 0;
                }
                _ => return Some(s.core.cycle),
            }
        }
    }

    /// The fast loop: runs core `i`'s stream on register-resident
    /// clock state, executing gap records, L2-hit loads, L2-hit
    /// stores, store L1 hits and mispredicts inline (and serializing
    /// instructions, when nothing is outstanding) — each iteration
    /// [`CmpEngine::exec_one`] specialized to a record that retires
    /// nothing and ends no window, the same shape as the single-core
    /// `Engine::replay_fast`. With a miss window open it also runs,
    /// between the window's deadlines (first outstanding completion,
    /// ROB fill, dependence countdown), which [`CmpEngine::advance_local`]
    /// computes the same way.
    ///
    /// A record that touches the shared L2 runs here only if its
    /// pre-record clock is below `bound`: the uncore's `next_ev_at` and
    /// the runner-up core's wake tick, the caller having applied the
    /// lower-id tie rule. Mispredicts and serializing instructions
    /// touch nothing shared and ignore `bound`.
    ///
    /// Returns `Some(tick)` when the core is parked at a record that
    /// needs the scheduler or the full machinery — a shared record at
    /// or past `bound`, an instruction-fetch miss, a window deadline, a
    /// serializing instruction under an open window — with the gap in
    /// front of it consumed and `tick` its pre-record clock: exactly
    /// where `advance_local` would stop. Returns `None` to hand back
    /// to `advance_local` on a non-power-of-two issue width, a pure
    /// filler, a deadline inside a gap, the warm-up crossing record,
    /// the `total` bound and stream end, and after an L2 miss, whose
    /// prefetch-buffer/MSHR/off-chip continuation runs here first.
    fn run_inline(
        &mut self,
        i: usize,
        events: &[PreEvent],
        warmup: u64,
        total: u64,
        bound: Cycle,
    ) -> Option<Cycle> {
        if !self.uncore.cfg.core.issue_width.is_power_of_two() {
            None
        } else if self.cores[i].core.outstanding.is_empty() {
            self.run_inline_as::<false>(i, events, warmup, total, bound)
        } else {
            self.run_inline_as::<true>(i, events, warmup, total, bound)
        }
    }

    /// [`CmpEngine::run_inline`] compiled separately for an idle core
    /// and an open window, so the idle loop carries no window
    /// bookkeeping.
    fn run_inline_as<const WINDOWED: bool>(
        &mut self,
        i: usize,
        events: &[PreEvent],
        warmup: u64,
        total: u64,
        bound: Cycle,
    ) -> Option<Cycle> {
        let cfg = self.uncore.cfg.core;
        let shift = cfg.issue_width.trailing_zeros();
        let mask = u64::from(cfg.issue_width) - 1;
        let rob = u64::from(cfg.rob_entries);

        let Slot { core, cur, .. } = &self.cores[i];
        let windowed = WINDOWED;
        debug_assert_eq!(windowed, !core.outstanding.is_empty());
        // Loop-invariant: only the general path retires or adds misses.
        let min_done = if windowed {
            core.outstanding.iter().map(|o| o.done).min()
        } else {
            None
        };
        let mut cycle = core.cycle;
        let mut slots = u64::from(core.issue_slots);
        let mut insts = core.insts;
        let mut idx = cur.idx;
        let mut gap_done = u64::from(cur.gap_done);
        let mut last_pre = self.cores[i].last_pre;
        let mut win = u64::from(core.window_insts);
        let mut cd = core.dep_countdown.map(u64::from);
        // Records with an index below `stop` may run here: the warm-up
        // crossing record (index `warmup - 1`) and the `total` bound
        // belong to the general path.
        let stop = if insts < warmup { warmup - 1 } else { total };
        let mut parked = None;
        let mut miss = None;

        while let Some(&ev) = events.get(idx) {
            // Overlap the next event's L2 set fetch with this one's work.
            if let Some(next) = events.get(idx + 1) {
                self.uncore
                    .l2
                    .prefetch_set(LineAddr::from_index(next.dline()));
            }
            if ev.flags() == 0 {
                break;
            }
            let gap_left = u64::from(ev.gap()) - gap_done;
            if insts + gap_left >= stop {
                break;
            }
            // Records that may run before the window's next deadline
            // (`advance_local`'s algebra).
            let room = match min_done {
                None => u64::MAX,
                Some(done) => {
                    let k_done = if done <= cycle {
                        0
                    } else {
                        ((done - cycle) << shift).saturating_sub(slots)
                    };
                    k_done.min(rob - 1 - win).min(cd.unwrap_or(u64::MAX))
                }
            };
            if gap_left > room {
                break;
            }
            let pre = cycle + ((slots + gap_left) >> shift);
            let kind = ev.flags() >> K_SHIFT;
            let local = kind == K_MISPREDICT || (kind == K_SERIALIZE && !windowed);
            if gap_left == room
                || ev.flags() & F_IFETCH_MISS != 0
                || (kind == K_SERIALIZE && windowed)
                || (!local && pre >= bound)
            {
                // Park at this record; its gap is local work.
                if gap_left > 0 {
                    last_pre = cycle + ((slots + gap_left - 1) >> shift);
                    insts += gap_left;
                    slots += gap_left;
                    cycle += slots >> shift;
                    slots &= mask;
                    gap_done += gap_left;
                    if windowed {
                        win += gap_left;
                        cd = cd.map(|c| c - gap_left);
                    }
                }
                parked = Some(cycle);
                break;
            }

            insts += gap_left + 1;
            slots += gap_left + 1;
            cycle += slots >> shift;
            slots &= mask;
            last_pre = pre;
            idx += 1;
            gap_done = 0;
            if windowed {
                win += gap_left + 1;
                cd = cd.map(|c| c - gap_left);
            }

            let line = LineAddr::from_index(ev.dline());
            // The guards take the L2 probe; a miss falls through to the
            // continuation arm.
            match kind {
                K_LOAD | K_LOAD_FEEDS if self.uncore.l2.access(line) => cycle += cfg.l2_hit_exposed,
                K_STORE_MISS if self.uncore.l2.access_dirty(line) => {}
                K_LOAD | K_LOAD_FEEDS | K_STORE_MISS => {
                    miss = Some(ev);
                    break;
                }
                K_STORE_HIT => {
                    self.uncore.l2.mark_dirty(line);
                }
                K_MISPREDICT => cycle += cfg.mispredict_penalty,
                // Nothing outstanding: serialize never stalls.
                K_SERIALIZE => cycle += cfg.serialize_cost,
                other => unreachable!("corrupt PreEvent kind {other}"),
            }
            // The post-op countdown step; a miss leaves it to `post_op`.
            cd = cd.map(|c| c - 1);
        }

        let s = &mut self.cores[i];
        s.core.cycle = cycle;
        s.core.issue_slots = slots as u32;
        s.core.insts = insts;
        s.cur.idx = idx;
        s.cur.gap_done = gap_done as u32;
        s.last_pre = last_pre;
        s.core.window_insts = win as u32;
        s.core.dep_countdown = cd.map(|c| c as u32);
        if let Some(ev) = miss {
            self.uncore.fill_after_probe(&mut s.core, &ev);
        }
        parked
    }

    /// Executes core `i`'s current record through the full per-record
    /// machinery ([`Uncore::step`]) — the oracle's `step_core` minus the
    /// L1 probes the pre-resolve pass already answered.
    fn exec_one(&mut self, i: usize, events: &[PreEvent]) {
        let s = &mut self.cores[i];
        let ev = events[s.cur.idx];
        s.last_pre = s.core.cycle;
        if s.cur.gap_done < ev.gap() {
            s.cur.gap_done += 1;
            self.uncore.step(&mut s.core, None);
        } else {
            s.cur.idx += 1;
            s.cur.gap_done = 0;
            self.uncore.step(&mut s.core, Some(&ev));
        }
    }

    fn collect(&self, workload: &str) -> CmpResult {
        let name = self.uncore.prefetcher_name();
        let cores: Vec<SimResult> = self
            .cores
            .iter()
            .map(|s| s.core.result(name, format!("{workload}#core{}", s.core.id)))
            .collect();
        let mut aggregate = SimResult {
            prefetcher: name.to_owned(),
            workload: workload.to_owned(),
            ..SimResult::default()
        };
        self.uncore.traffic_into(&mut aggregate);
        for c in &cores {
            aggregate.insts += c.insts;
            aggregate.cycles = aggregate.cycles.max(c.cycles);
            aggregate.epochs += c.epochs;
            aggregate.l2_inst_misses += c.l2_inst_misses;
            aggregate.l2_load_misses += c.l2_load_misses;
            aggregate.l2_store_misses += c.l2_store_misses;
            aggregate.secondary_misses += c.secondary_misses;
            aggregate.store_skipped += c.store_skipped;
            aggregate.averted_inst += c.averted_inst;
            aggregate.averted_load += c.averted_load;
            aggregate.averted_store += c.averted_store;
            aggregate.partial_hits += c.partial_hits;
            aggregate.stall_cycles += c.stall_cycles;
        }
        CmpResult { cores, aggregate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmp_stepping::SteppingCmpEngine;
    use ebcp_core::{EbcpConfig, EbcpPrefetcher};
    use ebcp_prefetch::NullPrefetcher;
    use ebcp_trace::{Op, TraceGenerator, WorkloadSpec};
    use ebcp_types::{Addr, Pc};

    fn small_workload() -> WorkloadSpec {
        WorkloadSpec {
            templates: 24,
            segments_per_template: 60,
            data_pool_lines: 1 << 14,
            cold_code_pool_lines: 2048,
            warm_pool_lines: 128,
            ..WorkloadSpec::database()
        }
    }

    /// Per-core traces over the SAME program (shared working set) —
    /// cores differ only in execution order and noise.
    fn traces(n: usize, len: usize) -> Vec<Vec<TraceRecord>> {
        let w = small_workload();
        (0..n)
            .map(|s| TraceGenerator::new(&w, s as u64 + 1).take(len).collect())
            .collect()
    }

    /// Per-core traces over DISJOINT programs (distinct footprints) —
    /// the consolidated-server scenario where cores compete for the L2.
    ///
    /// Disjointness needs `addr_space`: a distinct `seed_tag` alone only
    /// varies the access pattern over the SAME line pools, which lets
    /// co-runners prefill the shared L2 for each other. Each core's
    /// data pool (1K lines) fits the scaled-down L2 (2048 lines)
    /// comfortably on its own but four cores together oversubscribe it,
    /// so the contention contrast is structural, not a property of one
    /// particular random trace.
    fn disjoint_traces(n: usize, len: usize) -> Vec<Vec<TraceRecord>> {
        (0..n)
            .map(|s| {
                let w = WorkloadSpec {
                    seed_tag: 0x100 + s as u64,
                    addr_space: 1 + s as u64,
                    data_pool_lines: 1 << 10,
                    ..small_workload()
                };
                TraceGenerator::new(&w, s as u64 + 1).take(len).collect()
            })
            .collect()
    }

    #[test]
    fn all_cores_progress_and_measure() {
        let mut cmp = CmpEngine::new(SimConfig::scaled_down(16), 2, Box::new(NullPrefetcher));
        let t = traces(2, 120_000);
        let r = cmp.run(&t, 40_000, 80_000, "small");
        assert_eq!(r.cores.len(), 2);
        for c in &r.cores {
            assert_eq!(c.insts, 80_000);
            assert!(c.epochs > 50, "core must have epochs: {}", c.epochs);
        }
        assert!(r.mean_cpi() > 0.5);
    }

    #[test]
    fn des_matches_stepping_exactly() {
        // The tentpole invariant at unit scale: the DES engine must be
        // METRIC-IDENTICAL (full CmpResult equality) to the stepping
        // oracle — baseline and with a real prefetcher in the loop
        // (table round-trips, prefetch arrivals, partial hits). The
        // full roster × workloads × core-count battery lives in
        // crates/bench/tests/cmp_des.rs.
        let sim = SimConfig::scaled_down(16);
        for n in [1usize, 2, 3] {
            let t = traces(n, 150_000);
            let mut des = CmpEngine::new(sim, n, Box::new(NullPrefetcher));
            let mut oracle = SteppingCmpEngine::new(sim, n, Box::new(NullPrefetcher));
            assert_eq!(
                des.run(&t, 50_000, 100_000, "w"),
                oracle.run(&t, 50_000, 100_000, "w"),
                "null prefetcher, {n} cores"
            );

            let pf = || {
                Box::new(EbcpPrefetcher::new(
                    EbcpConfig::tuned().with_table_entries(1 << 14),
                ))
            };
            let mut des = CmpEngine::new(sim, n, pf());
            let mut oracle = SteppingCmpEngine::new(sim, n, pf());
            assert_eq!(
                des.run(&t, 50_000, 100_000, "w"),
                oracle.run(&t, 50_000, 100_000, "w"),
                "ebcp, {n} cores"
            );
        }
    }

    #[test]
    fn des_matches_stepping_disjoint_footprints() {
        // Contended shared L2 (disjoint per-core pools) exercises the
        // cross-core MSHR merge and eviction paths.
        let sim = SimConfig::scaled_down(16);
        let t = disjoint_traces(4, 120_000);
        let mut des = CmpEngine::new(sim, 4, Box::new(NullPrefetcher));
        let mut oracle = SteppingCmpEngine::new(sim, 4, Box::new(NullPrefetcher));
        assert_eq!(
            des.run(&t, 40_000, 80_000, "w"),
            oracle.run(&t, 40_000, 80_000, "w")
        );
    }

    #[test]
    fn des_matches_stepping_zero_warmup_and_short_trace() {
        // Edge cases: no warm-up reset at all, and a trace shorter than
        // the requested budget (cores run dry mid-measurement).
        let sim = SimConfig::scaled_down(16);
        let t = traces(2, 30_000);
        let mut des = CmpEngine::new(sim, 2, Box::new(NullPrefetcher));
        let mut oracle = SteppingCmpEngine::new(sim, 2, Box::new(NullPrefetcher));
        assert_eq!(des.run(&t, 0, 25_000, "w"), oracle.run(&t, 0, 25_000, "w"));

        let mut des = CmpEngine::new(sim, 2, Box::new(NullPrefetcher));
        let mut oracle = SteppingCmpEngine::new(sim, 2, Box::new(NullPrefetcher));
        assert_eq!(
            des.run(&t, 10_000, 90_000, "w"),
            oracle.run(&t, 10_000, 90_000, "w"),
            "budget past stream end"
        );
    }

    #[test]
    fn registration_order_is_invisible() {
        // The (next_tick, component_id) tie-break makes the schedule a
        // pure function of the streams: priming the wake heap in any
        // core order yields the identical CmpResult.
        let sim = SimConfig::scaled_down(16);
        let t = traces(4, 90_000);
        let streams: Vec<PreResolved> = t
            .iter()
            .map(|tr| PreResolved::from_records(&sim, &tr[..80_000]))
            .collect();
        let refs: Vec<&PreResolved> = streams.iter().collect();
        let pf = || {
            Box::new(EbcpPrefetcher::new(
                EbcpConfig::tuned().with_table_entries(1 << 14),
            ))
        };
        let reference = CmpEngine::new(sim, 4, pf()).run_streams_registered(
            &refs,
            30_000,
            50_000,
            "w",
            &[0, 1, 2, 3],
        );
        for order in [[3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]] {
            let r = CmpEngine::new(sim, 4, pf())
                .run_streams_registered(&refs, 30_000, 50_000, "w", &order);
            assert_eq!(r, reference, "registration order {order:?}");
        }
    }

    #[test]
    fn run_streams_matches_run() {
        // The two-phase entry point over externally pre-resolved
        // streams is the same computation as `run` over raw traces.
        let sim = SimConfig::scaled_down(16);
        let t = traces(2, 100_000);
        let mut a = CmpEngine::new(sim, 2, Box::new(NullPrefetcher));
        let ra = a.run(&t, 30_000, 60_000, "w");
        let streams: Vec<PreResolved> = t
            .iter()
            .map(|tr| PreResolved::from_records(&sim, &tr[..90_000]))
            .collect();
        let refs: Vec<&PreResolved> = streams.iter().collect();
        let mut b = CmpEngine::new(sim, 2, Box::new(NullPrefetcher));
        let rb = b.run_streams(&refs, 30_000, 60_000, "w");
        assert_eq!(ra, rb);
    }

    #[test]
    fn shared_l2_contention_raises_miss_rates() {
        // Four cores with DISJOINT footprints over one shared L2 evict
        // each other: per-core load miss rates must exceed the
        // single-core run's.
        let t1 = disjoint_traces(1, 150_000);
        let mut one = CmpEngine::new(SimConfig::scaled_down(16), 1, Box::new(NullPrefetcher));
        let r1 = one.run(&t1, 50_000, 100_000, "w");
        let t4 = disjoint_traces(4, 150_000);
        let mut four = CmpEngine::new(SimConfig::scaled_down(16), 4, Box::new(NullPrefetcher));
        let r4 = four.run(&t4, 50_000, 100_000, "w");
        let mr1 = r1.cores[0].load_mr();
        let mr4 = r4.cores[0].load_mr();
        assert!(
            mr4 > mr1,
            "shared-L2 contention: {mr4:.2} vs {mr1:.2} per 1k"
        );
    }

    #[test]
    fn shared_working_set_is_constructive() {
        // The flip side: cores running the SAME program prefill the
        // shared L2 for each other, so per-core miss rates DROP — the
        // multi-threaded-single-application scenario.
        let t1 = traces(1, 150_000);
        let mut one = CmpEngine::new(SimConfig::scaled_down(16), 1, Box::new(NullPrefetcher));
        let r1 = one.run(&t1, 50_000, 100_000, "w");
        let t4 = traces(4, 150_000);
        let mut four = CmpEngine::new(SimConfig::scaled_down(16), 4, Box::new(NullPrefetcher));
        let r4 = four.run(&t4, 50_000, 100_000, "w");
        assert!(
            r4.cores[0].load_mr() < r1.cores[0].load_mr(),
            "shared data: {:.2} vs {:.2} per 1k",
            r4.cores[0].load_mr(),
            r1.cores[0].load_mr()
        );
    }

    /// A loop over `lines` data lines `base` apart from other loops:
    /// three ALU records, then a load (now and then a store, a
    /// mispredicted branch or a serializing instruction). Once the
    /// lines sit in L2, every access is an L1 miss and an L2 hit, so
    /// the fast loop runs long stretches; `lead` ALU records in front
    /// shift the core's clock against its co-runners.
    fn loop_trace(n: usize, lines: u64, base: u64, lead: usize) -> Vec<TraceRecord> {
        let body = (0..n as u64).map(|k| {
            let pc = Pc::new(0x1000 + 4 * (k % 16));
            if k % 4 != 3 {
                return TraceRecord::alu(pc);
            }
            let j = k / 4;
            let addr = Addr::new(base + (j % lines) * 64);
            match j {
                j if j % 9 == 5 => TraceRecord::store(pc, addr),
                j if j % 13 == 6 => TraceRecord::new(pc, Op::Branch { mispredicted: true }),
                j if j % 29 == 11 => TraceRecord::new(pc, Op::Serialize),
                _ => TraceRecord::load(pc, addr),
            }
        });
        (0..lead)
            .map(|_| TraceRecord::alu(Pc::new(0x1000)))
            .chain(body)
            .take(n)
            .collect()
    }

    fn assert_des_matches_stepping(
        sim: SimConfig,
        t: &[Vec<TraceRecord>],
        pf: impl Fn() -> Box<dyn Prefetcher>,
        warmup: u64,
        measure: u64,
        what: &str,
    ) {
        let n = t.len();
        assert_eq!(
            CmpEngine::new(sim, n, pf()).run(t, warmup, measure, "w"),
            SteppingCmpEngine::new(sim, n, pf()).run(t, warmup, measure, "w"),
            "{what}"
        );
    }

    fn null() -> Box<dyn Prefetcher> {
        Box::new(NullPrefetcher)
    }

    fn ebcp() -> Box<dyn Prefetcher> {
        Box::new(EbcpPrefetcher::new(
            EbcpConfig::tuned().with_table_entries(1 << 14),
        ))
    }

    #[test]
    fn fast_loop_ties_with_the_runner_up_match_stepping() {
        // Cores running the same loop over the same lines meet at equal
        // ticks all the time: the lower id must run first, whichever
        // core is popped. A `lead` of 4 records is one cycle at width
        // 4, so the lagging core reaches the leader's parked tick from
        // below (popped core with the higher id) and the leader reaches
        // the lagging core's tick with the lower id. The two line
        // counts give an L2-resident loop and a miss-heavy one, where
        // who goes first decides the primary and the secondary miss.
        let sim = SimConfig::scaled_down(16);
        for lines in [256, 4096] {
            for leads in [[0, 0, 0], [0, 4, 0], [4, 0, 8], [1, 3, 4]] {
                let t: Vec<_> = leads
                    .iter()
                    .map(|&lead| loop_trace(60_000, lines, 0x80_0000, lead))
                    .collect();
                for n in [2, 3] {
                    assert_des_matches_stepping(
                        sim,
                        &t[..n],
                        null,
                        10_000,
                        50_000,
                        &format!("{lines} lines, leads {leads:?}, {n} cores"),
                    );
                }
            }
        }
    }

    #[test]
    fn fast_loop_uncore_events_at_the_parked_tick_match_stepping() {
        // Store fills, table round-trips and prefetch arrivals mature
        // while cores run inline; one maturing exactly at a parked tick
        // must drain before that core's record. EBCP on co-running
        // loops over disjoint and shared lines produces thousands.
        let sim = SimConfig::scaled_down(16);
        for bases in [[0x80_0000, 0x80_0000], [0x80_0000, 0x400_0000]] {
            let t: Vec<_> = bases
                .iter()
                .zip([0, 4])
                .map(|(&base, lead)| loop_trace(80_000, 3000, base, lead))
                .collect();
            assert_des_matches_stepping(sim, &t, ebcp, 20_000, 60_000, &format!("{bases:x?}"));
            assert_des_matches_stepping(sim, &t, null, 20_000, 60_000, &format!("{bases:x?}"));
        }
        let g = traces(2, 80_000);
        assert_des_matches_stepping(sim, &g, ebcp, 20_000, 60_000, "generated traces");
    }

    #[test]
    fn fast_loop_warmup_crossing_and_total_bound_match_stepping() {
        // The warm-up crossing record and the `total` bound fall inside
        // long inline runs: at the first records, at odd offsets, and
        // past the end of the stream.
        let sim = SimConfig::scaled_down(16);
        let t: Vec<_> = [0, 4]
            .iter()
            .map(|&lead| loop_trace(30_000, 256, 0x80_0000, lead))
            .collect();
        for (warmup, measure) in [
            (1, 9_000),
            (2, 1),
            (3, 17_001),
            (997, 12_345),
            (4_096, 4_096),
            (10_001, 0),
            (20_000, 20_000),
        ] {
            for n in [1, 2] {
                assert_des_matches_stepping(
                    sim,
                    &t[..n],
                    null,
                    warmup,
                    measure,
                    &format!("warm-up {warmup}, measure {measure}, {n} cores"),
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_issue_width_matches_stepping() {
        // The fast loop only runs at power-of-two widths; at any other
        // width every record takes the general path.
        for width in [3, 6] {
            let mut sim = SimConfig::scaled_down(16);
            sim.core.issue_width = width;
            let t: Vec<_> = [0, 4]
                .iter()
                .map(|&lead| loop_trace(40_000, 256, 0x80_0000, lead))
                .collect();
            assert_des_matches_stepping(sim, &t, null, 10_000, 30_000, &format!("width {width}"));
            let g = traces(2, 60_000);
            assert_des_matches_stepping(sim, &g, ebcp, 20_000, 40_000, &format!("width {width}"));
        }
    }

    #[test]
    fn mshr_merge_models_differ_only_where_documented() {
        // A store miss, then a load of the same line while the store's
        // fill is still in flight: the load finds the line in an MSHR
        // with no prefetch in flight. The private model (`Engine`)
        // merges it as a secondary miss and opens nothing; the shared
        // model cannot tell whose fill that is, so it also counts the
        // core's own load miss, opens an epoch and stalls on it.
        let sim = SimConfig::scaled_down(16);
        let line = 0x2_0000;
        let kind = |k: u32| k << K_SHIFT;
        let pre = PreResolved {
            events: vec![
                PreEvent::new(0x1000, line, 0, kind(K_STORE_MISS)).unwrap(),
                PreEvent::new(0x1004, line, 3, kind(K_LOAD)).unwrap(),
                PreEvent::new(0x1008, 0, 2000, 0).unwrap(),
            ],
            records: 2005,
            l1i: sim.l1i,
            l1d: sim.l1d,
        };

        let mut private = crate::Engine::new(sim, Box::new(NullPrefetcher));
        private.replay_events(&pre.events, &mut ReplayCursor::default(), pre.records);
        let p = private.result("w");
        assert_eq!(p.insts, 2005);
        assert_eq!(
            (p.l2_store_misses, p.secondary_misses, p.l2_load_misses),
            (1, 1, 0)
        );
        assert_eq!((p.epochs, p.stall_cycles), (0, 0), "no window opened");

        let shared = CmpEngine::new(sim, 1, Box::new(NullPrefetcher)).run_streams(
            &[&pre],
            0,
            pre.records,
            "w",
        );
        let c = &shared.cores[0];
        assert_eq!(c.insts, 2005);
        assert_eq!(
            (c.l2_store_misses, c.secondary_misses, c.l2_load_misses),
            (1, 1, 1)
        );
        assert_eq!(c.epochs, 1, "the merged load opens an epoch");
        assert!(c.stall_cycles > 0, "and the core stalls on it");
        assert!(c.cycles > p.cycles);
    }

    #[test]
    fn ebcp_still_works_on_cmp() {
        let t = traces(2, 250_000);
        let sim = SimConfig::scaled_down(16);
        let mut base = CmpEngine::new(sim, 2, Box::new(NullPrefetcher));
        let rb = base.run(&t, 100_000, 150_000, "w");
        let mut with = CmpEngine::new(
            sim,
            2,
            Box::new(EbcpPrefetcher::new(
                EbcpConfig::tuned().with_table_entries(1 << 16),
            )),
        );
        let rw = with.run(&t, 100_000, 150_000, "w");
        assert!(
            rw.aggregate.pf_issued > 100,
            "prefetches issued: {}",
            rw.aggregate.pf_issued
        );
        let imp = rw.improvement_over(&rb);
        assert!(imp > 0.03, "EBCP should help on a 2-core CMP: {:.3}", imp);
    }
}
