//! The single-core replay driver.
//!
//! One [`Engine`] is one `Core` over a private `Uncore`: the §4.4
//! memory hierarchy with a pluggable prefetcher. The back end — demand
//! paths, prefetcher notifications, window stall, event heap — is the
//! one `crate::uncore` shares with the CMP engine; this module walks a
//! pre-resolved stream through it, collapsing inert gap records
//! algebraically and running the idle common case on register-resident
//! clock state.

use ebcp_mem::SetAssocCache;
use ebcp_prefetch::Prefetcher;
use ebcp_types::{Cycle, LineAddr};

use crate::config::SimConfig;
use crate::frontend::{PreEvent, ReplayCursor};
#[cfg(any(test, feature = "stepping-oracle"))]
use crate::frontend::{Resolved, ResolvedOp};
use crate::metrics::SimResult;
use crate::uncore::{Core, Uncore};

/// The simulation engine: the prefetcher-dependent back end, replaying
/// a stream the L1 front end resolved in advance.
///
/// # Examples
///
/// ```
/// use ebcp_prefetch::NullPrefetcher;
/// use ebcp_sim::{Engine, PreResolved, ReplayCursor, SimConfig};
/// use ebcp_trace::{TraceGenerator, WorkloadSpec};
///
/// let spec = WorkloadSpec::database().scaled(1, 32);
/// let cfg = SimConfig::scaled_down(16);
/// let trace: Vec<_> = TraceGenerator::new(&spec, 1).take(50_000).collect();
/// let pre = PreResolved::from_records(&cfg, &trace);
/// let mut engine = Engine::new(cfg, Box::new(NullPrefetcher));
/// engine.replay_events(&pre.events, &mut ReplayCursor::default(), pre.records);
/// assert!(engine.result("database").cpi() > 0.25);
/// ```
pub struct Engine {
    core: Core,
    uncore: Uncore<false>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.core.cycle)
            .field("insts", &self.core.insts)
            .field("prefetcher", &self.uncore.prefetcher_name())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine over a fresh (cold) machine.
    pub fn new(cfg: SimConfig, pf: Box<dyn Prefetcher>) -> Self {
        Engine {
            core: Core::new(0, cfg.mshrs),
            uncore: Uncore::new(cfg, pf),
        }
    }

    /// Current core cycle.
    pub const fn cycle(&self) -> Cycle {
        self.core.cycle
    }

    /// Instructions consumed so far (including warm-up).
    pub const fn insts(&self) -> u64 {
        self.core.insts
    }

    /// Resets measurement counters (call at the end of warm-up). Machine
    /// state — caches, tables, in-flight traffic — is untouched.
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
        self.uncore.reset_stats();
    }

    /// Trace records per chunk wherever a trace source is drained in
    /// reusable-buffer chunks ([`ebcp_trace::ChunkSource::next_chunk`]):
    /// 4096 records (~64 KB) keeps the working chunk inside the host L2
    /// while amortizing the source's per-call overhead over thousands
    /// of records.
    pub const CHUNK_RECORDS: usize = 4096;

    /// The prefetcher-dependent back end for one resolved record — the
    /// stepping oracle's back end (`crate::stepping`), which feeds it
    /// straight from a [`crate::frontend::FrontEnd`] one record at a
    /// time. It dispatches on the decoded op itself, but shares the
    /// per-record prologue, epilogue and demand paths with replay's
    /// [`Uncore::step`].
    #[cfg(any(test, feature = "stepping-oracle"))]
    pub(crate) fn step_resolved(&mut self, r: &Resolved) {
        let Engine { core, uncore } = self;
        uncore.pre_op(core, r.ifetch_miss, r.pc);
        match r.op {
            ResolvedOp::None => {}
            ResolvedOp::LoadMiss {
                line,
                feeds_mispredict,
            } => uncore.load_miss(core, line, r.pc, feeds_mispredict),
            ResolvedOp::StoreMiss { line } => uncore.store_miss(core, line),
            // L1D write hit: only the dirty bit travels down.
            ResolvedOp::StoreHit { line } => {
                uncore.l2.mark_dirty(line);
            }
            ResolvedOp::Mispredict => core.cycle += uncore.cfg.core.mispredict_penalty,
            ResolvedOp::Serialize => uncore.serialize(core),
        }
        uncore.post_op(core);
    }

    /// Replays up to `budget` instructions from a pre-resolved stream,
    /// resuming at (and updating) `cur`. Produces state byte-identical
    /// to stepping the underlying records one by one (the test-only
    /// `stepping` oracle) — the stream's events run the same
    /// per-record back end, and gaps advance through
    /// [`Engine::gap_advance`], which is an exact algebraic collapse of
    /// consecutive inert records.
    ///
    /// The engine has no L1 model of its own: callers are responsible
    /// for pairing a stream with the matching `SimConfig` (see
    /// `RunSpec::run_preresolved`, which checks the geometries).
    pub fn replay_events(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        let pow2 = self.uncore.cfg.core.issue_width.is_power_of_two();
        let mut left = budget;
        while cur.idx < events.len() {
            // An idle back end (nothing outstanding, no heap event due)
            // is the overwhelmingly common state; a specialized loop
            // runs it on register-resident clock state until something
            // needs the full machinery.
            if pow2 && left > 0 && self.lane_idle() {
                self.replay_fast(events, cur, &mut left);
                if cur.idx >= events.len() {
                    return;
                }
            }
            // General path: the one stream entry the fast loop bailed
            // on, with the full per-record machinery. The lockstep
            // driver makes the identical `take`/`run_event` split, so
            // both replays execute the same per-entry body.
            let ev = &events[cur.idx];
            let gap_left = u64::from(ev.gap()) - u64::from(cur.gap_done);
            let take = gap_left.min(left);
            let run_event = ev.flags() != 0 && left > gap_left;
            self.replay_entry_general(ev, take, run_event);
            cur.gap_done += take as u32;
            left -= take;
            if take < gap_left {
                return; // budget exhausted mid-gap
            }
            if ev.flags() != 0 {
                if left == 0 {
                    return; // budget boundary right before the event
                }
                left -= 1;
            }
            cur.idx += 1;
            cur.gap_done = 0;
        }
    }

    /// One stream entry through the general path: `take` gap records
    /// (the caller's `min(gap_left, budget)`) and, when `run_event`,
    /// the entry's event itself. Budget and cursor arithmetic stay with
    /// the caller — [`Engine::replay_events`] and the lockstep driver
    /// share this body so serial and lockstep replay execute the exact
    /// same per-entry machinery.
    pub(crate) fn replay_entry_general(&mut self, ev: &PreEvent, take: u64, run_event: bool) {
        let w = u64::from(self.uncore.cfg.core.issue_width);
        if take > 0 {
            // A gap over an idle back end with no heap event due
            // inside it still collapses to arithmetic.
            let next_ev = self.uncore.next_ev_at;
            if self.core.outstanding.is_empty()
                && (next_ev == Cycle::MAX
                    || (next_ev > self.core.cycle && self.core.records_until(next_ev, w) >= take))
            {
                self.core.advance_inert(take, w);
            } else {
                self.gap_advance(take);
            }
        }
        if run_event {
            self.uncore.step(&mut self.core, Some(ev));
        }
    }

    /// Single-entry specialization of the [`Engine::replay_fast`] body
    /// for the lockstep driver's per-lane path: processes one
    /// event-bearing entry (its `gap_left` remaining gap records plus
    /// the event) entirely with fast arithmetic, or returns `false`
    /// having touched nothing so the caller can fall back to
    /// [`Engine::replay_entry_general`].
    ///
    /// Caller-checked preconditions (shared across lanes): power-of-two
    /// issue width, `ev.flags() != 0`, no instruction-fetch miss, and
    /// `gap_left < budget left` so the event itself runs.
    pub(crate) fn replay_entry_fast(&mut self, ev: &PreEvent, gap_left: u64) -> bool {
        use crate::frontend::{
            K_LOAD, K_LOAD_FEEDS, K_MISPREDICT, K_SERIALIZE, K_SHIFT, K_STORE_HIT, K_STORE_MISS,
        };
        if !self.lane_idle() {
            return false;
        }
        let cfg = self.uncore.cfg.core;
        let shift = cfg.issue_width.trailing_zeros();
        let mut cycle = self.core.cycle;
        let mut slots = u64::from(self.core.issue_slots);
        if self.uncore.next_ev_at <= cycle + ((slots + gap_left) >> shift) {
            return false; // heap event due inside this entry
        }

        self.core.insts += gap_left + 1;
        slots += gap_left + 1;
        cycle += slots >> shift;
        slots &= u64::from(cfg.issue_width) - 1;

        let line = LineAddr::from_index(ev.dline());
        // The guards take the L2 probe; a miss falls through to the
        // continuation arm.
        match ev.flags() >> K_SHIFT {
            K_LOAD | K_LOAD_FEEDS if self.uncore.l2.access(line) => cycle += cfg.l2_hit_exposed,
            K_STORE_MISS if self.uncore.l2.access_dirty(line) => {}
            K_LOAD | K_LOAD_FEEDS | K_STORE_MISS => {
                self.core.cycle = cycle;
                self.core.issue_slots = slots as u32;
                self.miss_continuation(ev);
                return true;
            }
            K_STORE_HIT => {
                self.uncore.l2.mark_dirty(line);
            }
            K_MISPREDICT => cycle += cfg.mispredict_penalty,
            K_SERIALIZE => cycle += cfg.serialize_cost,
            other => unreachable!("corrupt PreEvent kind {other}"),
        }
        self.core.cycle = cycle;
        self.core.issue_slots = slots as u32;
        true
    }

    // --- Lockstep lane access --------------------------------------------
    // The minimal surface `crate::lockstep` needs to drive several
    // engines over one shared stream with SoA-packed clock state. All
    // mutations mirror what `replay_fast` does with its own locals.

    /// The machine configuration (lanes in one lockstep group must
    /// share it exactly).
    pub(crate) fn lane_cfg(&self) -> &SimConfig {
        &self.uncore.cfg
    }

    /// Whether this lane qualifies for the fast loop: nothing
    /// outstanding and no heap event due.
    pub(crate) fn lane_idle(&self) -> bool {
        self.core.outstanding.is_empty() && self.uncore.next_ev_at > self.core.cycle
    }

    /// The lane's `(cycle, issue_slots, insts)` clock triple.
    pub(crate) fn lane_clock(&self) -> (Cycle, u32, u64) {
        (self.core.cycle, self.core.issue_slots, self.core.insts)
    }

    /// Writes back a clock triple the driver advanced in SoA form.
    pub(crate) fn lane_set_clock(&mut self, cycle: Cycle, slots: u32, insts: u64) {
        self.core.cycle = cycle;
        self.core.issue_slots = slots;
        self.core.insts = insts;
    }

    /// The lane's next heap-event deadline (loop-invariant while the
    /// lane stays in the fast loop).
    pub(crate) fn lane_next_ev(&self) -> Cycle {
        self.uncore.next_ev_at
    }

    /// The lane's private L2, for the per-lane tag probes.
    pub(crate) fn lane_l2(&mut self) -> &mut SetAssocCache {
        &mut self.uncore.l2
    }

    /// The continuation of a load or store event whose L2 probe missed,
    /// with the clock already written back: prefetch buffer, MSHRs,
    /// memory, then the post-op window checks.
    pub(crate) fn miss_continuation(&mut self, ev: &PreEvent) {
        self.uncore.fill_after_probe(&mut self.core, ev);
    }

    /// The replay hot loop. Processes stream entries while the back end
    /// stays *idle* — no outstanding misses (hence no open window, and
    /// by the window invariant no dependence countdown) and no heap
    /// event due — keeping `cycle`/`issue_slots`/`insts` in locals so
    /// the compiler can hold them in registers across the loop. Each
    /// iteration is exactly [`Uncore::step`] specialized to that
    /// state; anything else (instruction-fetch misses, L2 misses,
    /// a heap event coming due, a budget boundary, pure gap fillers)
    /// syncs the locals back and returns to the general path.
    ///
    /// Preconditions (checked by the caller): power-of-two issue width,
    /// `left > 0`, `outstanding` empty, `next_ev_at > cycle`.
    fn replay_fast(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, left: &mut u64) {
        use crate::frontend::{
            F_IFETCH_MISS, K_LOAD, K_LOAD_FEEDS, K_MISPREDICT, K_SERIALIZE, K_SHIFT, K_STORE_HIT,
            K_STORE_MISS,
        };
        let cfg = self.uncore.cfg.core;
        let shift = cfg.issue_width.trailing_zeros();
        let mask = u64::from(cfg.issue_width) - 1;

        let mut cycle = self.core.cycle;
        let mut slots = u64::from(self.core.issue_slots);
        let mut insts = self.core.insts;
        // Nothing inside this loop pushes heap events, so the deadline
        // is loop-invariant; paths that can push (the miss
        // continuations) sync and leave.
        let next_ev = self.uncore.next_ev_at;
        let mut lleft = *left;

        while cur.idx < events.len() {
            let ev = events[cur.idx];
            // Overlap the next event's L2 set fetch with this event's
            // work: the probe is the loop's longest dependency chain.
            if let Some(next) = events.get(cur.idx + 1) {
                self.uncore
                    .l2
                    .prefetch_set(LineAddr::from_index(next.dline()));
            }
            // Instruction-fetch misses and pure fillers take the
            // general path; both are rare.
            if ev.flags() == 0 || ev.flags() & F_IFETCH_MISS != 0 {
                break;
            }
            let gap_left = u64::from(ev.gap()) - u64::from(cur.gap_done);
            if gap_left >= lleft {
                break; // budget boundary inside this entry
            }
            // Stepping drains the heap at the start of any record whose
            // clock reaches the deadline; the event record starts at
            // cycle + (slots + gap_left) / width. Bail just before.
            if next_ev <= cycle + ((slots + gap_left) >> shift) {
                break;
            }

            // Gap records plus this instruction through the issue stage
            // (same collapse as `advance_inert`; no window is open).
            insts += gap_left + 1;
            slots += gap_left + 1;
            cycle += slots >> shift;
            slots &= mask;
            lleft -= gap_left + 1;
            cur.idx += 1;
            cur.gap_done = 0;

            let line = LineAddr::from_index(ev.dline());
            // The guards take the L2 probe; a miss falls through to the
            // continuation arm.
            match ev.flags() >> K_SHIFT {
                K_LOAD | K_LOAD_FEEDS if self.uncore.l2.access(line) => cycle += cfg.l2_hit_exposed,
                K_STORE_MISS if self.uncore.l2.access_dirty(line) => {}
                K_LOAD | K_LOAD_FEEDS | K_STORE_MISS => {
                    // The continuation touches pbuf/MSHRs/memory:
                    // commit state and finish this event generally.
                    self.lane_set_clock(cycle, slots as u32, insts);
                    *left = lleft;
                    self.miss_continuation(&ev);
                    return;
                }
                // L1D write hit: only the dirty bit travels down.
                K_STORE_HIT => {
                    self.uncore.l2.mark_dirty(line);
                }
                K_MISPREDICT => cycle += cfg.mispredict_penalty,
                // Nothing outstanding by the loop invariant.
                K_SERIALIZE => cycle += cfg.serialize_cost,
                other => unreachable!("corrupt PreEvent kind {other}"),
            }
        }

        self.lane_set_clock(cycle, slots as u32, insts);
        *left = lleft;
    }

    /// Advances the back end over `n` inert records without executing
    /// them one by one.
    ///
    /// Invariants that make the collapse exact:
    ///
    /// * `issue_slots` is always `insts % issue_width`, so the clock at
    ///   the *start* of the k-th upcoming inert record is
    ///   `cycle + (issue_slots + k) / width` — pure arithmetic;
    /// * inert records never add `outstanding` entries or heap events,
    ///   so the only state they can touch beyond the clock is via four
    ///   *deadlines*, each expressible as "k records from now": the
    ///   first outstanding-miss completion, the next heap event
    ///   becoming due, the ROB filling, and the dependent-mispredict
    ///   countdown reaching zero.
    ///
    /// The loop jumps to the nearest deadline arithmetically, executes
    /// that single record through the full [`Uncore::step`] state
    /// machine, and repeats. With nothing outstanding, none of the
    /// window machinery can fire and whole gaps collapse to O(events
    /// due) work.
    fn gap_advance(&mut self, mut n: u64) {
        let w = u64::from(self.uncore.cfg.core.issue_width);
        let rob = self.uncore.cfg.core.rob_entries;
        let Engine { core, uncore } = self;
        while n > 0 {
            let next_ev = uncore.next_ev_at;
            if core.outstanding.is_empty() {
                // Fast path: only heap events can need attention, and
                // they cannot create outstanding misses. Drain each at
                // the exact clock value stepping would have seen (the
                // start of the record whose issue advance catches up to
                // the event) — event handlers issue bus traffic, and
                // the bus model is sensitive to request time.
                if next_ev <= core.cycle {
                    uncore.drain_events(core.cycle);
                    continue;
                }
                // At least one record: the event is past this clock.
                let take = if next_ev == Cycle::MAX {
                    n
                } else {
                    core.records_until(next_ev, w).min(n)
                };
                core.advance_inert(take, w);
                n -= take;
                continue;
            }
            // Slow path: a miss window is open. Find the first record
            // where anything can happen.
            let mut k = core.window_room(w, rob);
            if next_ev != Cycle::MAX {
                k = k.min(core.records_until(next_ev, w));
            }
            let k = k.min(n);
            if k > 0 {
                core.advance_inert(k, w);
                n -= k;
                if n == 0 {
                    return;
                }
            }
            // The deadline record itself: full per-record machinery.
            uncore.step(core, None);
            n -= 1;
        }
    }

    /// The measurement-phase result.
    pub fn result(&self, workload: &str) -> SimResult {
        let mut r = self
            .core
            .result(self.uncore.prefetcher_name(), workload.to_owned());
        self.uncore.traffic_into(&mut r);
        r.mem = self.uncore.mem_stats();
        r
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepping::Stepper;
    use ebcp_prefetch::NullPrefetcher;
    use ebcp_trace::{Op, TraceRecord};
    use ebcp_types::{Addr, Pc};

    fn tiny_cfg() -> SimConfig {
        SimConfig::scaled_down(16)
    }

    fn alu_run(pc0: u64, n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord::alu(Pc::new(pc0 + 4 * (i % 16))))
            .collect()
    }

    /// Steps every record of `trace` through the stepping oracle `e`.
    fn feed(e: &mut Stepper, trace: impl IntoIterator<Item = TraceRecord>) {
        for rec in trace {
            e.step(&rec);
        }
    }

    #[test]
    fn pure_alu_cpi_is_quarter() {
        let mut e = Stepper::new(tiny_cfg(), Box::new(NullPrefetcher));
        // First fetch of the line misses everything: one epoch.
        feed(&mut e, alu_run(0x1000, 40_000));
        let r = e.engine.result("t");
        // 40k insts at 4-wide = 10k cycles, plus one cold ifetch miss.
        assert!(r.cpi() > 0.25 && r.cpi() < 0.27, "cpi {}", r.cpi());
        assert_eq!(r.epochs, 1, "single cold instruction-fetch epoch");
    }

    #[test]
    fn overlapped_loads_form_one_epoch() {
        let mut e = Stepper::new(tiny_cfg(), Box::new(NullPrefetcher));
        // Warm the code line, then two adjacent off-chip loads.
        let mut t = alu_run(0x1000, 16);
        t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.push(TraceRecord::load(Pc::new(0x1004), Addr::new(0x90_0000)));
        t.extend(alu_run(0x1000, 200));
        feed(&mut e, t);
        let r = e.engine.result("t");
        assert_eq!(r.l2_load_misses, 2);
        // Cold ifetch epoch + one overlapped load epoch.
        assert_eq!(r.epochs, 2, "both loads overlap into one epoch");
    }

    #[test]
    fn rob_limit_terminates_window() {
        let cfg = tiny_cfg();
        let rob = cfg.core.rob_entries as u64;
        let mut e = Stepper::new(cfg, Box::new(NullPrefetcher));
        // Load, then > ROB instructions, then another load: two epochs.
        let mut t = alu_run(0x1000, 16);
        t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.extend(alu_run(0x1000, rob + 32));
        t.push(TraceRecord::load(Pc::new(0x1004), Addr::new(0x90_0000)));
        t.extend(alu_run(0x1000, 300));
        feed(&mut e, t);
        let r = e.engine.result("t");
        assert_eq!(r.epochs, 3, "ifetch epoch + two separated load epochs");
        assert!(
            r.stall_cycles > 900,
            "two full stalls expected, got {}",
            r.stall_cycles
        );
    }

    #[test]
    fn serialize_terminates_window() {
        let mut e = Stepper::new(tiny_cfg(), Box::new(NullPrefetcher));
        let mut t = alu_run(0x1000, 16);
        t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.push(TraceRecord::new(Pc::new(0x1004), Op::Serialize));
        t.push(TraceRecord::load(Pc::new(0x1008), Addr::new(0x90_0000)));
        t.extend(alu_run(0x1000, 300));
        feed(&mut e, t);
        assert_eq!(e.engine.result("t").epochs, 3);
    }

    #[test]
    fn dependent_mispredict_terminates_window() {
        let cfg = tiny_cfg();
        let mut e = Stepper::new(cfg, Box::new(NullPrefetcher));
        let mut t = alu_run(0x1000, 16);
        t.push(TraceRecord::new(
            Pc::new(0x1000),
            Op::Load {
                addr: Addr::new(0x80_0000),
                feeds_mispredict: true,
            },
        ));
        // Within the dep window: a second load would have overlapped,
        // but the dependent mispredict cuts the window first.
        t.extend(alu_run(0x1000, 10));
        t.push(TraceRecord::load(Pc::new(0x1004), Addr::new(0x90_0000)));
        t.extend(alu_run(0x1000, 300));
        feed(&mut e, t);
        assert_eq!(
            e.engine.result("t").epochs,
            3,
            "dep-mispredict split the loads"
        );
    }

    #[test]
    fn repeated_lines_hit_after_first_epoch() {
        let mut e = Stepper::new(tiny_cfg(), Box::new(NullPrefetcher));
        let mut t = alu_run(0x1000, 16);
        for _ in 0..5 {
            t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
            t.extend(alu_run(0x1000, 200));
        }
        feed(&mut e, t);
        let r = e.engine.result("t");
        assert_eq!(r.l2_load_misses, 1, "subsequent accesses hit the L2");
    }

    #[test]
    fn secondary_miss_does_not_double_count() {
        let mut e = Stepper::new(tiny_cfg(), Box::new(NullPrefetcher));
        let mut t = alu_run(0x1000, 16);
        t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.push(TraceRecord::load(Pc::new(0x1004), Addr::new(0x80_0010))); // same line
        t.extend(alu_run(0x1000, 300));
        feed(&mut e, t);
        let r = e.engine.result("t");
        assert_eq!(r.l2_load_misses, 1);
    }

    #[test]
    fn store_misses_do_not_create_epochs() {
        let mut e = Stepper::new(tiny_cfg(), Box::new(NullPrefetcher));
        let mut t = alu_run(0x1000, 16);
        for i in 0..8u64 {
            t.push(TraceRecord::store(
                Pc::new(0x1000),
                Addr::new(0x80_0000 + i * 64),
            ));
        }
        t.extend(alu_run(0x1000, 2000));
        feed(&mut e, t);
        let r = e.engine.result("t");
        assert_eq!(r.epochs, 1, "only the cold ifetch epoch");
        assert_eq!(r.l2_store_misses, 8);
    }

    #[test]
    fn dirty_evictions_produce_writebacks() {
        let cfg = tiny_cfg();
        let l2_lines = cfg.l2.lines();
        let mut e = Stepper::new(cfg, Box::new(NullPrefetcher));
        let mut t = alu_run(0x1000, 16);
        // Dirty many lines, then stream enough loads through to evict.
        for i in 0..64u64 {
            t.push(TraceRecord::store(
                Pc::new(0x1000),
                Addr::new(0x80_0000 + i * 64),
            ));
            t.extend(alu_run(0x1000, 64));
        }
        for i in 0..l2_lines * 3 {
            t.push(TraceRecord::load(
                Pc::new(0x1000),
                Addr::new(0x200_0000 + i * 64),
            ));
            t.extend(alu_run(0x1000, 200));
        }
        feed(&mut e, t);
        assert!(e.engine.result("t").writebacks > 0);
    }

    #[test]
    fn replay_matches_stepping_mixed_trace() {
        use crate::frontend::PreResolved;
        use ebcp_trace::{TraceGenerator, WorkloadSpec};

        let spec = WorkloadSpec::database().scaled(1, 32);
        let records: Vec<TraceRecord> = TraceGenerator::new(&spec, 11).take(60_000).collect();
        let cfg = tiny_cfg();

        let mut stepped = Stepper::new(cfg, Box::new(NullPrefetcher));
        for r in &records {
            stepped.step(r);
        }

        let pre = PreResolved::from_records(&cfg, &records);
        let mut replayed = Engine::new(cfg, Box::new(NullPrefetcher));
        let mut cur = ReplayCursor::default();
        // Split the budget awkwardly to exercise mid-gap resumption.
        for budget in [1, 999, 17, 40_000, u64::MAX] {
            replayed.replay_events(&pre.events, &mut cur, budget);
        }

        assert_eq!(stepped.engine.result("t"), replayed.result("t"));
        assert_eq!(stepped.engine.insts(), replayed.insts());
        assert_eq!(stepped.engine.cycle(), replayed.cycle());
    }

    #[test]
    fn warmup_reset_isolates_measurement() {
        let mut e = Stepper::new(tiny_cfg(), Box::new(NullPrefetcher));
        let mut t = alu_run(0x1000, 16);
        t.push(TraceRecord::load(Pc::new(0x1000), Addr::new(0x80_0000)));
        t.extend(alu_run(0x1000, 300));
        feed(&mut e, t);
        e.engine.reset_stats();
        feed(&mut e, alu_run(0x1000, 4000));
        let r = e.engine.result("t");
        assert_eq!(r.l2_load_misses, 0);
        assert_eq!(r.epochs, 0);
        assert!(
            (r.cpi() - 0.25).abs() < 0.01,
            "pure issue-limited: {}",
            r.cpi()
        );
    }
}
