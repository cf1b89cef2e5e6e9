//! The trace-driven epoch-model timing engine.
//!
//! One [`Engine`] simulates one core with the §4.4 memory hierarchy and a
//! pluggable prefetcher. The model is described in the crate docs; the
//! invariants worth keeping in mind while reading:
//!
//! * `cycle` only moves forward; stalls jump it to the completion of the
//!   outstanding off-chip miss group.
//! * A miss *window* is open exactly while `outstanding` is non-empty.
//!   Window termination (ROB full, serialize, dependent mispredict,
//!   instruction miss) calls [`Engine::stall_all`], which is also where
//!   epochs end.
//! * All deferred work (table-read completions, prefetch arrivals, store
//!   fills) lives in a time-ordered event heap, drained whenever the
//!   clock catches up to the next event.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ebcp_core::EpochTracker;
use ebcp_mem::{
    MemOutcome, MemStats, MemorySystem, MshrFile, MshrOutcome, PrefetchBuffer, SetAssocCache,
};
use ebcp_prefetch::{Action, MissInfo, PrefetchHitInfo, Prefetcher};
use ebcp_types::{AccessKind, Cycle, LineAddr, MemClass, Pc};

use crate::config::SimConfig;
use crate::frontend::{PreEvent, ReplayCursor};
#[cfg(any(test, feature = "stepping-oracle"))]
use crate::frontend::{Resolved, ResolvedOp};
use crate::metrics::SimResult;

#[derive(Debug, Clone, Copy)]
struct Outst {
    line: LineAddr,
    done: Cycle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    TableDone { token: u64 },
    PrefetchArrive { line: LineAddr, origin: u64 },
    StoreFill { line: LineAddr },
}

#[derive(Debug, Clone, Copy, Eq)]
struct Ev {
    at: Cycle,
    seq: u64,
    kind: EvKind,
}

/// Heap ordering key: `(at, seq)`. `seq` is unique per engine, so the
/// key alone identifies an event; equality deliberately matches `Ord`
/// (comparing `kind` too would let `a == b` disagree with
/// `a.cmp(&b) == Equal`, violating the `Ord` contract `BinaryHeap`
/// relies on).
impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    inst_misses: u64,
    load_misses: u64,
    store_misses: u64,
    secondary_misses: u64,
    averted_inst: u64,
    averted_load: u64,
    averted_store: u64,
    partial_hits: u64,
    pf_requested: u64,
    pf_filtered: u64,
    pf_dropped_mshr: u64,
    pf_dropped_bus: u64,
    pf_issued: u64,
    pf_evicted_unused: u64,
    store_skipped: u64,
    table_reads: u64,
    table_read_drops: u64,
    table_writes: u64,
    writebacks: u64,
    stall_cycles: Cycle,
    mispredicts: u64,
}

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
    cfg: SimConfig,
    l2: SetAssocCache,
    pbuf: PrefetchBuffer,
    mshr: MshrFile,
    mem: MemorySystem,
    pf: Box<dyn Prefetcher>,
    epoch: EpochTracker,

    cycle: Cycle,
    issue_slots: u32,
    insts: u64,
    outstanding: Vec<Outst>,
    /// Spare buffer swapped with `outstanding` in `stall_all` so that
    /// draining a window never reallocates.
    outs_scratch: Vec<Outst>,
    window_insts: u32,
    dep_countdown: Option<u32>,
    /// Prefetches in flight to memory (line, arrival cycle). Bounded by
    /// the MSHR count, so a flat scan beats hashing on the every-miss
    /// lookup.
    pf_inflight: Vec<(LineAddr, Cycle)>,
    events: BinaryHeap<Reverse<Ev>>,
    next_ev_at: Cycle,
    ev_seq: u64,
    actions: Vec<Action>,

    c: Counters,
    cycle_base: Cycle,
    insts_base: u64,
    mem_base: MemStats,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.cycle)
            .field("insts", &self.insts)
            .field("prefetcher", &self.pf.name())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine over a fresh (cold) machine.
    pub fn new(cfg: SimConfig, pf: Box<dyn Prefetcher>) -> Self {
        Engine {
            l2: SetAssocCache::new(cfg.l2),
            pbuf: PrefetchBuffer::new(cfg.pbuf_entries, cfg.pbuf_ways.min(cfg.pbuf_entries)),
            mshr: MshrFile::new(cfg.mshrs),
            mem: MemorySystem::new(cfg.mem),
            pf,
            epoch: EpochTracker::new(),
            cycle: 0,
            issue_slots: 0,
            insts: 0,
            outstanding: Vec::with_capacity(cfg.mshrs),
            outs_scratch: Vec::with_capacity(cfg.mshrs),
            window_insts: 0,
            dep_countdown: None,
            pf_inflight: Vec::with_capacity(cfg.mshrs),
            events: BinaryHeap::new(),
            next_ev_at: Cycle::MAX,
            ev_seq: 0,
            actions: Vec::new(),
            c: Counters::default(),
            cycle_base: 0,
            insts_base: 0,
            mem_base: MemStats::default(),
            cfg,
        }
    }

    /// Current core cycle.
    pub const fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Instructions consumed so far (including warm-up).
    pub const fn insts(&self) -> u64 {
        self.insts
    }

    /// Resets measurement counters (call at the end of warm-up). Machine
    /// state — caches, tables, in-flight traffic — is untouched.
    pub fn reset_stats(&mut self) {
        self.c = Counters::default();
        self.cycle_base = self.cycle;
        self.insts_base = self.insts;
        self.mem_base = self.mem.stats();
        self.epoch.reset_stats();
        self.pf.reset_aux_stats();
    }

    /// Trace records per chunk wherever a trace source is drained in
    /// reusable-buffer chunks ([`ebcp_trace::ChunkSource::next_chunk`]):
    /// 4096 records (~64 KB) keeps the working chunk inside the host L2
    /// while amortizing the source's per-call overhead over thousands
    /// of records.
    pub const CHUNK_RECORDS: usize = 4096;

    /// Everything a record does before its data/control op: retire
    /// work the clock caught up to, count the instruction, run the
    /// fetch path and advance issue bandwidth. Shared verbatim by the
    /// replay back end ([`Engine::step_event`]) and the stepping
    /// oracle's (`step_resolved`) so the two cannot drift.
    #[inline]
    fn pre_op(&mut self, ifetch_miss: bool, pc: Pc) {
        if !self.outstanding.is_empty() {
            self.drain_outstanding();
        }
        if self.next_ev_at <= self.cycle {
            self.drain_events(self.cycle);
        }

        self.insts += 1;

        if ifetch_miss {
            self.fetch_miss(pc.line(), pc);
        }

        // Issue bandwidth.
        self.issue_slots += 1;
        if self.issue_slots >= self.cfg.core.issue_width {
            self.cycle += 1;
            self.issue_slots = 0;
        }
        if !self.outstanding.is_empty() {
            self.window_insts += 1;
        }
    }

    /// Window termination conditions (§2.1) — the shared tail of both
    /// back ends.
    #[inline]
    fn post_op(&mut self) {
        if !self.outstanding.is_empty() {
            if self.window_insts >= self.cfg.core.rob_entries {
                self.stall_all();
            } else if let Some(cd) = self.dep_countdown {
                if cd == 0 {
                    self.stall_all();
                } else {
                    self.dep_countdown = Some(cd - 1);
                }
            }
        }
    }

    /// The prefetcher-dependent back end for one resolved record — the
    /// stepping oracle's back end (`crate::stepping`), which feeds it
    /// straight from a [`crate::frontend::FrontEnd`] one record at a
    /// time.
    #[cfg(any(test, feature = "stepping-oracle"))]
    #[inline]
    pub(crate) fn step_resolved(&mut self, r: &Resolved) {
        self.pre_op(r.ifetch_miss, r.pc);

        match r.op {
            ResolvedOp::None => {}
            ResolvedOp::LoadMiss {
                line,
                feeds_mispredict,
            } => self.load_miss(line, r.pc, feeds_mispredict),
            ResolvedOp::StoreMiss { line } => self.store_miss(line),
            ResolvedOp::StoreHit { line } => {
                // L1D write hit: only the dirty bit travels down.
                self.l2.mark_dirty(line);
            }
            ResolvedOp::Mispredict => {
                self.c.mispredicts += 1;
                self.cycle += self.cfg.core.mispredict_penalty;
            }
            ResolvedOp::Serialize => {
                if self.outstanding.is_empty() {
                    self.cycle += self.cfg.core.serialize_cost;
                } else {
                    self.stall_all();
                }
            }
        }

        self.post_op();
    }

    /// The back end for one packed event, dispatching straight on the
    /// stream encoding. Op for op this is the stepping oracle's
    /// `step_resolved` over `ev.decode().unwrap()` — the prologue and
    /// epilogue are the same functions — but skipping the intermediate
    /// [`crate::frontend::Resolved`] removes a second data-dependent
    /// dispatch from the replay hot path, which is worth a measurable
    /// slice of sweep throughput. The differential replay-vs-stepping
    /// tests pin the equivalence.
    #[inline]
    fn step_event(&mut self, ev: &PreEvent) {
        use crate::frontend::{
            F_IFETCH_MISS, K_LOAD, K_LOAD_FEEDS, K_MISPREDICT, K_NONE, K_SERIALIZE, K_SHIFT,
            K_STORE_HIT, K_STORE_MISS,
        };
        let pc = Pc::new(ev.pc());
        self.pre_op(ev.flags() & F_IFETCH_MISS != 0, pc);

        let line = LineAddr::from_index(ev.dline());
        match ev.flags() >> K_SHIFT {
            K_NONE => {}
            K_LOAD => self.load_miss(line, pc, false),
            K_LOAD_FEEDS => self.load_miss(line, pc, true),
            K_STORE_MISS => self.store_miss(line),
            K_STORE_HIT => {
                // L1D write hit: only the dirty bit travels down.
                self.l2.mark_dirty(line);
            }
            K_MISPREDICT => {
                self.c.mispredicts += 1;
                self.cycle += self.cfg.core.mispredict_penalty;
            }
            K_SERIALIZE => {
                if self.outstanding.is_empty() {
                    self.cycle += self.cfg.core.serialize_cost;
                } else {
                    self.stall_all();
                }
            }
            other => unreachable!("corrupt PreEvent kind {other}"),
        }

        self.post_op();
    }

    /// An inert record for the back end: no fetch miss, no data op.
    /// Exactly [`Engine::step_event`] with the fetch and op arms
    /// skipped — [`Engine::gap_advance`] falls back to this whenever a
    /// gap record is not provably inert.
    fn step_plain(&mut self) {
        if !self.outstanding.is_empty() {
            self.drain_outstanding();
        }
        if self.next_ev_at <= self.cycle {
            self.drain_events(self.cycle);
        }
        self.insts += 1;
        self.issue_slots += 1;
        if self.issue_slots >= self.cfg.core.issue_width {
            self.cycle += 1;
            self.issue_slots = 0;
        }
        if !self.outstanding.is_empty() {
            self.window_insts += 1;
            if self.window_insts >= self.cfg.core.rob_entries {
                self.stall_all();
            } else if let Some(cd) = self.dep_countdown {
                if cd == 0 {
                    self.stall_all();
                } else {
                    self.dep_countdown = Some(cd - 1);
                }
            }
        }
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
        let pow2 = self.cfg.core.issue_width.is_power_of_two();
        let mut left = budget;
        while cur.idx < events.len() {
            // An idle back end (nothing outstanding, no heap event due)
            // is the overwhelmingly common state; a specialized loop
            // runs it on register-resident clock state until something
            // needs the full machinery.
            if pow2 && left > 0 && self.outstanding.is_empty() && self.next_ev_at > self.cycle {
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
        let w = u64::from(self.cfg.core.issue_width);
        if take > 0 {
            // A gap over an idle back end with no heap event due
            // inside it still collapses to arithmetic.
            if self.outstanding.is_empty()
                && (self.next_ev_at == Cycle::MAX
                    || (self.next_ev_at > self.cycle
                        && self.records_until(self.next_ev_at, w) >= take))
            {
                self.advance_inert(take, w, false);
            } else {
                self.gap_advance(take);
            }
        }
        if run_event {
            self.step_event(ev);
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
        if !self.outstanding.is_empty() || self.next_ev_at <= self.cycle {
            return false;
        }
        let shift = self.cfg.core.issue_width.trailing_zeros();
        let mask = u64::from(self.cfg.core.issue_width) - 1;
        let mut cycle = self.cycle;
        let mut slots = u64::from(self.issue_slots);
        if self.next_ev_at <= cycle + ((slots + gap_left) >> shift) {
            return false; // heap event due inside this entry
        }

        self.insts += gap_left + 1;
        slots += gap_left + 1;
        cycle += slots >> shift;
        slots &= mask;

        let line = LineAddr::from_index(ev.dline());
        match ev.flags() >> K_SHIFT {
            K_LOAD | K_LOAD_FEEDS => {
                if self.l2.access(line) {
                    cycle += self.cfg.core.l2_hit_exposed;
                } else {
                    self.cycle = cycle;
                    self.issue_slots = slots as u32;
                    self.load_fill(
                        line,
                        Pc::new(ev.pc()),
                        ev.flags() >> K_SHIFT == K_LOAD_FEEDS,
                    );
                    self.post_op();
                    return true;
                }
            }
            K_STORE_MISS => {
                if !self.l2.access_dirty(line) {
                    self.cycle = cycle;
                    self.issue_slots = slots as u32;
                    self.store_fill(line);
                    self.post_op();
                    return true;
                }
            }
            K_STORE_HIT => {
                self.l2.mark_dirty(line);
            }
            K_MISPREDICT => {
                self.c.mispredicts += 1;
                cycle += self.cfg.core.mispredict_penalty;
            }
            K_SERIALIZE => {
                cycle += self.cfg.core.serialize_cost;
            }
            other => unreachable!("corrupt PreEvent kind {other}"),
        }
        self.cycle = cycle;
        self.issue_slots = slots as u32;
        true
    }

    // --- Lockstep lane access --------------------------------------------
    // The minimal surface `crate::lockstep` needs to drive several
    // engines over one shared stream with SoA-packed clock state. All
    // mutations mirror what `replay_fast` does with its own locals.

    /// The machine configuration (lanes in one lockstep group must
    /// share it exactly).
    pub(crate) fn lane_cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Whether this lane qualifies for the fast loop: nothing
    /// outstanding and no heap event due.
    pub(crate) fn lane_idle(&self) -> bool {
        self.outstanding.is_empty() && self.next_ev_at > self.cycle
    }

    /// The lane's `(cycle, issue_slots, insts)` clock triple.
    pub(crate) fn lane_clock(&self) -> (Cycle, u32, u64) {
        (self.cycle, self.issue_slots, self.insts)
    }

    /// Writes back a clock triple the driver advanced in SoA form.
    pub(crate) fn lane_set_clock(&mut self, cycle: Cycle, slots: u32, insts: u64) {
        self.cycle = cycle;
        self.issue_slots = slots;
        self.insts = insts;
    }

    /// The lane's next heap-event deadline (loop-invariant while the
    /// lane stays in the fast loop).
    pub(crate) fn lane_next_ev(&self) -> Cycle {
        self.next_ev_at
    }

    /// The lane's private L2, for the per-lane tag probes.
    pub(crate) fn lane_l2(&mut self) -> &mut SetAssocCache {
        &mut self.l2
    }

    /// Credits `n` mispredicts accumulated as a shared scalar while the
    /// lane sat in the lockstep fast loop.
    pub(crate) fn lane_add_mispredicts(&mut self, n: u64) {
        self.c.mispredicts += n;
    }

    /// The load-miss continuation of the fast loop (clock already
    /// written back): pbuf/MSHR/memory machinery plus `post_op`.
    pub(crate) fn lane_load_continuation(&mut self, line: LineAddr, pc: Pc, feeds: bool) {
        self.load_fill(line, pc, feeds);
        self.post_op();
    }

    /// The store-miss continuation of the fast loop.
    pub(crate) fn lane_store_continuation(&mut self, line: LineAddr) {
        self.store_fill(line);
        self.post_op();
    }

    /// The replay hot loop. Processes stream entries while the back end
    /// stays *idle* — no outstanding misses (hence no open window, and
    /// by the window invariant no dependence countdown) and no heap
    /// event due — keeping `cycle`/`issue_slots`/`insts` in locals so
    /// the compiler can hold them in registers across the loop. Each
    /// iteration is exactly [`Engine::step_event`] specialized to that
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
        let shift = self.cfg.core.issue_width.trailing_zeros();
        let mask = u64::from(self.cfg.core.issue_width) - 1;
        let l2_hit = self.cfg.core.l2_hit_exposed;
        let mp_pen = self.cfg.core.mispredict_penalty;
        let ser_cost = self.cfg.core.serialize_cost;

        let mut cycle = self.cycle;
        let mut slots = u64::from(self.issue_slots);
        let mut insts = self.insts;
        // Nothing inside this loop pushes heap events, so the deadline
        // is loop-invariant; paths that can push (the miss
        // continuations) sync and leave.
        let next_ev = self.next_ev_at;
        let mut lleft = *left;

        while cur.idx < events.len() {
            let ev = events[cur.idx];
            // Overlap the next event's L2 set fetch with this event's
            // work: the probe is the loop's longest dependency chain.
            if let Some(next) = events.get(cur.idx + 1) {
                self.l2.prefetch_set(LineAddr::from_index(next.dline()));
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

            let line = LineAddr::from_index(ev.dline());
            match ev.flags() >> K_SHIFT {
                K_LOAD | K_LOAD_FEEDS => {
                    if self.l2.access(line) {
                        cycle += l2_hit;
                    } else {
                        // Miss continuation touches pbuf/MSHRs/memory:
                        // commit state and finish this event generally.
                        self.cycle = cycle;
                        self.issue_slots = slots as u32;
                        self.insts = insts;
                        self.load_fill(
                            line,
                            Pc::new(ev.pc()),
                            ev.flags() >> K_SHIFT == K_LOAD_FEEDS,
                        );
                        self.post_op();
                        *left = lleft - (gap_left + 1);
                        cur.idx += 1;
                        cur.gap_done = 0;
                        return;
                    }
                }
                K_STORE_MISS => {
                    if !self.l2.access_dirty(line) {
                        self.cycle = cycle;
                        self.issue_slots = slots as u32;
                        self.insts = insts;
                        self.store_fill(line);
                        self.post_op();
                        *left = lleft - (gap_left + 1);
                        cur.idx += 1;
                        cur.gap_done = 0;
                        return;
                    }
                }
                K_STORE_HIT => {
                    // L1D write hit: only the dirty bit travels down.
                    self.l2.mark_dirty(line);
                }
                K_MISPREDICT => {
                    self.c.mispredicts += 1;
                    cycle += mp_pen;
                }
                K_SERIALIZE => {
                    // Nothing outstanding by the loop invariant.
                    cycle += ser_cost;
                }
                other => unreachable!("corrupt PreEvent kind {other}"),
            }

            lleft -= gap_left + 1;
            cur.idx += 1;
            cur.gap_done = 0;
        }

        self.cycle = cycle;
        self.issue_slots = slots as u32;
        self.insts = insts;
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
    /// that single record through the full [`Engine::step_plain`] state
    /// machine, and repeats. With nothing outstanding, none of the
    /// window machinery can fire and whole gaps collapse to O(events
    /// due) work.
    fn gap_advance(&mut self, mut n: u64) {
        let w = u64::from(self.cfg.core.issue_width);
        while n > 0 {
            if self.outstanding.is_empty() {
                // Fast path: only heap events can need attention, and
                // they cannot create outstanding misses. Drain each at
                // the exact clock value stepping would have seen (the
                // start of the record whose issue advance catches up to
                // the event) — event handlers issue bus traffic, and
                // the bus model is sensitive to request time.
                if self.next_ev_at <= self.cycle {
                    self.drain_events(self.cycle);
                    continue;
                }
                let take = if self.next_ev_at == Cycle::MAX {
                    n
                } else {
                    self.records_until(self.next_ev_at, w).min(n)
                };
                if take == 0 {
                    // next_ev_at is within this record's clock: handled
                    // by the drain branch above after the advance below
                    // computed a zero jump — advance a single record.
                    self.advance_inert(1, w, false);
                    n -= 1;
                    continue;
                }
                self.advance_inert(take, w, false);
                n -= take;
                continue;
            }
            // Slow path: a miss window is open. Find the first record
            // where anything can happen.
            let min_done = self
                .outstanding
                .iter()
                .map(|o| o.done)
                .min()
                .expect("outstanding non-empty");
            let mut k = self.records_until(min_done, w);
            if self.next_ev_at != Cycle::MAX {
                k = k.min(self.records_until(self.next_ev_at, w));
            }
            // ROB: record k raises window_insts to window_insts + k + 1,
            // and stalls when that reaches rob_entries.
            k = k.min(u64::from(self.cfg.core.rob_entries - 1 - self.window_insts));
            if let Some(cd) = self.dep_countdown {
                // Record cd (0-indexed) observes the countdown at zero.
                k = k.min(u64::from(cd));
            }
            let k = k.min(n);
            if k > 0 {
                self.advance_inert(k, w, true);
                n -= k;
                if n == 0 {
                    return;
                }
            }
            // The deadline record itself: full per-record machinery.
            self.step_plain();
            n -= 1;
        }
    }

    /// First k ≥ 0 such that the clock at the start of the k-th
    /// upcoming record reaches `at`.
    #[inline]
    fn records_until(&self, at: Cycle, w: u64) -> u64 {
        if at <= self.cycle {
            0
        } else {
            ((at - self.cycle) * w).saturating_sub(u64::from(self.issue_slots))
        }
    }

    /// Arithmetically applies `k` provably-inert records: instruction
    /// count, issue clock, and (inside a window) the window-instruction
    /// count and dependence countdown.
    ///
    /// Runs once per gap on the replay hot path, so the issue-width
    /// division matters: for power-of-two widths (every modeled machine
    /// is 4-wide) it is a shift/mask — a 64-bit divide on the host costs
    /// more than the rest of this function combined.
    #[inline]
    fn advance_inert(&mut self, k: u64, w: u64, windowed: bool) {
        self.insts += k;
        let slots = u64::from(self.issue_slots) + k;
        if w.is_power_of_two() {
            self.cycle += slots >> w.trailing_zeros();
            self.issue_slots = (slots & (w - 1)) as u32;
        } else {
            self.cycle += slots / w;
            self.issue_slots = (slots % w) as u32;
        }
        if windowed {
            self.window_insts += k as u32;
            if let Some(cd) = self.dep_countdown {
                self.dep_countdown = Some(cd - k as u32);
            }
        }
    }

    /// The measurement-phase result.
    pub fn result(&self, workload: &str) -> SimResult {
        let mem_now = self.mem.stats();
        SimResult {
            prefetcher: self.pf.name().to_owned(),
            workload: workload.to_owned(),
            insts: self.insts - self.insts_base,
            cycles: self.cycle - self.cycle_base,
            epochs: self.epoch.stats().epochs,
            l2_inst_misses: self.c.inst_misses,
            l2_load_misses: self.c.load_misses,
            l2_store_misses: self.c.store_misses,
            secondary_misses: self.c.secondary_misses,
            averted_inst: self.c.averted_inst,
            averted_load: self.c.averted_load,
            averted_store: self.c.averted_store,
            partial_hits: self.c.partial_hits,
            pf_requested: self.c.pf_requested,
            pf_issued: self.c.pf_issued,
            pf_dropped_bus: self.c.pf_dropped_bus,
            pf_dropped_mshr: self.c.pf_dropped_mshr,
            pf_filtered: self.c.pf_filtered,
            pf_evicted_unused: self.c.pf_evicted_unused,
            table_reads: self.c.table_reads,
            table_read_drops: self.c.table_read_drops,
            table_writes: self.c.table_writes,
            writebacks: self.c.writebacks,
            store_skipped: self.c.store_skipped,
            stall_cycles: self.c.stall_cycles,
            mem: diff_mem(mem_now, self.mem_base),
        }
    }

    // ------------------------------------------------------------------
    // Demand paths (L1 already resolved: these all start below L1)
    // ------------------------------------------------------------------

    #[inline]
    fn fetch_miss(&mut self, iline: LineAddr, pc: Pc) {
        if self.l2.access(iline) {
            self.cycle += self.cfg.core.l2_hit_exposed;
            return;
        }
        if let Some(origin) = self.pbuf.lookup_consume(iline) {
            self.c.averted_inst += 1;
            self.cycle += self.cfg.core.l2_hit_exposed;
            self.fill_l2(iline, false);
            self.notify_pbuf_hit(iline, pc, AccessKind::InstrFetch, origin);
            return;
        }
        // Off-chip instruction miss: always a window terminator (§2.1).
        self.offchip_demand(iline, pc, AccessKind::InstrFetch);
        self.stall_all();
    }

    #[inline]
    fn load_miss(&mut self, dline: LineAddr, pc: Pc, feeds_mispredict: bool) {
        if self.l2.access(dline) {
            self.cycle += self.cfg.core.l2_hit_exposed;
            return;
        }
        self.load_fill(dline, pc, feeds_mispredict);
    }

    /// [`Engine::load_miss`] past the (already taken) L2 probe: the
    /// prefetch-buffer and off-chip continuation. Split out so the
    /// replay fast loop can probe L2 inline and delegate only misses.
    #[inline]
    fn load_fill(&mut self, dline: LineAddr, pc: Pc, feeds_mispredict: bool) {
        if let Some(origin) = self.pbuf.lookup_consume(dline) {
            self.c.averted_load += 1;
            self.cycle += self.cfg.core.l2_hit_exposed;
            self.fill_l2(dline, false);
            self.notify_pbuf_hit(dline, pc, AccessKind::Load, origin);
            return;
        }
        self.offchip_demand(dline, pc, AccessKind::Load);
        if feeds_mispredict {
            self.dep_countdown = Some(self.cfg.core.dep_branch_window);
        }
    }

    #[inline]
    fn store_miss(&mut self, dline: LineAddr) {
        if self.l2.access_dirty(dline) {
            return;
        }
        self.store_fill(dline);
    }

    /// [`Engine::store_miss`] past the (already taken) L2 probe — same
    /// split as [`Engine::load_fill`].
    #[inline]
    fn store_fill(&mut self, dline: LineAddr) {
        if self.pbuf.lookup_consume(dline).is_some() {
            self.c.averted_store += 1;
            self.fill_l2(dline, true);
            return;
        }
        // Off-chip write-allocate: non-blocking under weak consistency,
        // never an epoch trigger, never reported to the prefetcher.
        if self.mshr.contains(dline) {
            self.c.secondary_misses += 1;
            return;
        }
        if self.mshr.len() + self.pf_inflight.len() >= self.cfg.mshrs {
            // Store buffer absorbs it; the fill is skipped. Rare, but
            // counted so the skip is visible in the result.
            self.c.store_skipped += 1;
            return;
        }
        self.c.store_misses += 1;
        self.mshr.allocate(dline);
        let done = match self.mem.request(self.cycle, MemClass::Demand) {
            MemOutcome::Done { done } => done,
            MemOutcome::Dropped => unreachable!("demand requests are never dropped"),
        };
        self.push_event(done, EvKind::StoreFill { line: dline });
    }

    #[inline]
    fn offchip_demand(&mut self, line: LineAddr, pc: Pc, kind: AccessKind) {
        // A demand miss to a line with a prefetch already in flight: the
        // prefetch becomes the demand fill (partial latency hiding).
        if let Some(i) = self.pf_inflight.iter().position(|&(l, _)| l == line) {
            let (_, arrival) = self.pf_inflight.swap_remove(i);
            self.c.partial_hits += 1;
            let trigger = self.epoch.on_offchip_issue(self.cycle);
            self.count_miss(kind);
            self.mshr.allocate(line);
            let done = arrival.max(self.cycle + 1);
            self.outstanding.push(Outst { line, done });
            self.notify_miss(line, pc, kind, trigger);
            return;
        }
        if self.mshr.contains(line) {
            // Secondary miss: merges into the existing MSHR.
            self.c.secondary_misses += 1;
            return;
        }
        self.wait_for_mshr();
        let trigger = self.epoch.on_offchip_issue(self.cycle);
        self.count_miss(kind);
        debug_assert!(matches!(self.mshr.allocate(line), MshrOutcome::Primary));
        let done = match self.mem.request(self.cycle, MemClass::Demand) {
            MemOutcome::Done { done } => done,
            MemOutcome::Dropped => unreachable!("demand requests are never dropped"),
        };
        self.outstanding.push(Outst { line, done });
        self.notify_miss(line, pc, kind, trigger);
    }

    #[inline]
    fn count_miss(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::InstrFetch => self.c.inst_misses += 1,
            AccessKind::Load => self.c.load_misses += 1,
            AccessKind::Store => self.c.store_misses += 1,
        }
    }

    fn wait_for_mshr(&mut self) {
        while self.mshr.is_full() {
            if !self.outstanding.is_empty() {
                self.stall_all();
            } else if self.next_ev_at != Cycle::MAX {
                self.cycle = self.cycle.max(self.next_ev_at);
                self.drain_events(self.cycle);
            } else {
                unreachable!("MSHRs full with nothing in flight");
            }
        }
    }

    // ------------------------------------------------------------------
    // Prefetcher interaction
    // ------------------------------------------------------------------

    fn notify_miss(&mut self, line: LineAddr, pc: Pc, kind: AccessKind, trigger: bool) {
        let info = MissInfo {
            line,
            pc,
            kind,
            epoch_trigger: trigger,
            now: self.cycle,
            core: 0,
        };
        let mut acts = std::mem::take(&mut self.actions);
        acts.clear();
        self.pf.on_miss(&info, &mut acts);
        self.apply_actions(self.cycle, &acts);
        self.actions = acts;
    }

    fn notify_pbuf_hit(&mut self, line: LineAddr, pc: Pc, kind: AccessKind, origin: u64) {
        let info = PrefetchHitInfo {
            line,
            pc,
            kind,
            origin,
            would_be_trigger: self.epoch.would_trigger(),
            now: self.cycle,
            core: 0,
        };
        let mut acts = std::mem::take(&mut self.actions);
        acts.clear();
        self.pf.on_prefetch_hit(&info, &mut acts);
        self.apply_actions(self.cycle, &acts);
        self.actions = acts;
    }

    #[inline]
    fn apply_actions(&mut self, now: Cycle, acts: &[Action]) {
        for a in acts {
            match *a {
                Action::Prefetch { line, origin } => {
                    self.c.pf_requested += 1;
                    if self.l2.probe(line)
                        || self.pbuf.contains(line)
                        || self.mshr.contains(line)
                        || self.pf_inflight.iter().any(|&(l, _)| l == line)
                    {
                        self.c.pf_filtered += 1;
                        continue;
                    }
                    if self.mshr.len() + self.pf_inflight.len() >= self.cfg.mshrs {
                        self.c.pf_dropped_mshr += 1;
                        continue;
                    }
                    match self.mem.request(now, MemClass::Prefetch) {
                        MemOutcome::Done { done } => {
                            self.c.pf_issued += 1;
                            self.pf_inflight.push((line, done));
                            self.push_event(done, EvKind::PrefetchArrive { line, origin });
                        }
                        MemOutcome::Dropped => self.c.pf_dropped_bus += 1,
                    }
                }
                Action::TableRead { token, delay } => {
                    match self.mem.request(now + delay, MemClass::TableRead) {
                        MemOutcome::Done { done } => {
                            self.c.table_reads += 1;
                            self.push_event(done, EvKind::TableDone { token });
                        }
                        MemOutcome::Dropped => {
                            self.c.table_read_drops += 1;
                            self.pf.on_table_dropped(token);
                        }
                    }
                }
                Action::TableWrite => {
                    self.c.table_writes += 1;
                    let _ = self.mem.request(now, MemClass::TableWrite);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Time advancement
    // ------------------------------------------------------------------

    #[inline]
    fn fill_l2(&mut self, line: LineAddr, dirty: bool) {
        if let Some(ev) = self.l2.fill(line, dirty) {
            if ev.dirty {
                self.c.writebacks += 1;
                let _ = self.mem.request(self.cycle, MemClass::Writeback);
            }
        }
    }

    fn stall_all(&mut self) {
        let max_done = self
            .outstanding
            .iter()
            .map(|o| o.done)
            .max()
            .unwrap_or(self.cycle);
        if max_done > self.cycle {
            self.c.stall_cycles += max_done - self.cycle;
            self.cycle = max_done;
        }
        let mut outs = std::mem::take(&mut self.outs_scratch);
        std::mem::swap(&mut outs, &mut self.outstanding);
        for o in outs.drain(..) {
            self.complete_demand(o);
        }
        self.outs_scratch = outs;
        self.end_window();
    }

    fn complete_demand(&mut self, o: Outst) {
        self.fill_l2(o.line, false);
        self.mshr.release(o.line);
    }

    fn end_window(&mut self) {
        self.epoch.on_all_complete(self.cycle);
        let mut acts = std::mem::take(&mut self.actions);
        acts.clear();
        self.pf.on_epoch_end(self.cycle, &mut acts);
        self.apply_actions(self.cycle, &acts);
        self.actions = acts;
        self.window_insts = 0;
        self.dep_countdown = None;
        if self.next_ev_at <= self.cycle {
            self.drain_events(self.cycle);
        }
    }

    /// Retires outstanding misses that completed while the core kept
    /// running (natural overlap, no stall).
    #[inline]
    fn drain_outstanding(&mut self) {
        let mut i = 0;
        let mut removed = false;
        while i < self.outstanding.len() {
            if self.outstanding[i].done <= self.cycle {
                let o = self.outstanding.swap_remove(i);
                self.complete_demand(o);
                removed = true;
            } else {
                i += 1;
            }
        }
        if removed && self.outstanding.is_empty() {
            self.end_window();
        }
    }

    #[inline]
    fn push_event(&mut self, at: Cycle, kind: EvKind) {
        let ev = Ev {
            at,
            seq: self.ev_seq,
            kind,
        };
        self.ev_seq += 1;
        self.events.push(Reverse(ev));
        self.next_ev_at = self.next_ev_at.min(at);
    }

    fn drain_events(&mut self, upto: Cycle) {
        while let Some(Reverse(ev)) = self.events.peek().copied() {
            if ev.at > upto {
                break;
            }
            self.events.pop();
            match ev.kind {
                EvKind::TableDone { token } => {
                    let mut acts = std::mem::take(&mut self.actions);
                    acts.clear();
                    self.pf.on_table_done(token, ev.at, &mut acts);
                    self.apply_actions(ev.at, &acts);
                    self.actions = acts;
                }
                EvKind::PrefetchArrive { line, origin } => {
                    if let Some(i) = self.pf_inflight.iter().position(|&(l, _)| l == line) {
                        self.pf_inflight.swap_remove(i);
                    }
                    if !self.l2.probe(line)
                        && !self.mshr.contains(line)
                        && self.pbuf.insert(line, origin).is_some()
                    {
                        self.c.pf_evicted_unused += 1;
                    }
                }
                EvKind::StoreFill { line } => {
                    self.fill_l2(line, true);
                    self.mshr.release(line);
                }
            }
        }
        self.next_ev_at = self
            .events
            .peek()
            .map(|Reverse(e)| e.at)
            .unwrap_or(Cycle::MAX);
    }
}

fn diff_bus(now: ebcp_mem::BusStats, base: ebcp_mem::BusStats) -> ebcp_mem::BusStats {
    let mut out = now;
    for i in 0..out.transfers.len() {
        out.transfers[i] -= base.transfers[i];
        out.dropped[i] -= base.dropped[i];
        out.busy_cycles[i] -= base.busy_cycles[i];
    }
    out
}

fn diff_mem(now: MemStats, base: MemStats) -> MemStats {
    MemStats {
        read: diff_bus(now.read, base.read),
        write: diff_bus(now.write, base.write),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stepping::Stepper;
    use ebcp_prefetch::NullPrefetcher;
    use ebcp_trace::{Op, TraceRecord};
    use ebcp_types::Addr;

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
    fn ev_eq_agrees_with_ord() {
        // Regression: PartialEq used to include `kind`, so two events
        // with equal (at, seq) but different kinds compared unequal
        // while Ord said Equal — a contract violation.
        let a = Ev {
            at: 100,
            seq: 7,
            kind: EvKind::TableDone { token: 1 },
        };
        let b = Ev {
            at: 100,
            seq: 7,
            kind: EvKind::StoreFill {
                line: LineAddr::from_index(42),
            },
        };
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(a, b, "eq must agree with Ord::cmp == Equal");
        let c = Ev {
            at: 100,
            seq: 8,
            kind: EvKind::TableDone { token: 1 },
        };
        assert_ne!(a, c);
        assert!(a < c);
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
