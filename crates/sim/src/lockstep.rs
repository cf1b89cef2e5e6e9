//! Lockstep multi-prefetcher replay: one pass over a shared
//! pre-resolved stream drives N back-end engines at once.
//!
//! The two-phase split (see `frontend`) already makes the event stream
//! prefetcher-independent; a whole-roster sweep nevertheless used to
//! replay it once per prefetcher, paying event decode, gap collapse,
//! and budget bookkeeping N times. [`Lockstep`] hoists all of that
//! stream-driven work out of the per-prefetcher loop:
//!
//! * **One shared cursor.** The replay cursor's position depends only
//!   on record counts, never on simulated state, so every lane sits at
//!   the same stream entry at all times.
//! * **Shared clock scalars.** `insts` and `issue_slots` are functions
//!   of records consumed (`issue_slots == insts % width` is an engine
//!   invariant), so they are shared scalars; only `cycle` and the heap
//!   deadline diverge per lane.
//! * **SoA lane state.** While every lane is *idle* (nothing
//!   outstanding, no heap event due) the fast pass keeps per-lane
//!   `cycle[]`/`next_ev[]` in flat arrays and advances them with two
//!   plain lane loops (`add_broadcast`, `any_due`); event decode, gap
//!   collapse, and the deadline test are paid once per entry for the
//!   whole group. The loops stay scalar on purpose: the pass is bound
//!   by the per-lane L2 probe, and SSE2/AVX2 versions of them measured
//!   no faster (DESIGN.md §3d).
//! * **Per-entry fallback.** When any lane has a miss window open, the
//!   group processes one entry at a time: each lane takes the
//!   single-entry fast specialization if it qualifies, else the exact
//!   general path (`Engine::replay_entry_general`) that serial replay
//!   uses.
//!
//! Because lanes share no mutable state and are advanced entry by
//! entry in submission order, each lane's operation sequence is
//! *exactly* the serial replay's — results are byte-identical by
//! construction, and `crates/bench/tests/lockstep.rs` enforces it over
//! the full roster × workload matrix.
//!
//! **Fault isolation.** Prefetcher code only runs inside the
//! miss-continuation and general-path calls; each is wrapped in
//! [`catch_unwind`] per lane. A panicking lane is marked dead with its
//! panic reason and drops out of the group; sibling lanes continue
//! unperturbed, preserving the harness's per-cell fault isolation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ebcp_types::LineAddr;

use crate::engine::Engine;
use crate::frontend::{
    PreEvent, ReplayCursor, F_IFETCH_MISS, K_LOAD, K_LOAD_FEEDS, K_MISPREDICT, K_SERIALIZE,
    K_SHIFT, K_STORE_HIT, K_STORE_MISS,
};
use crate::metrics::SimResult;

/// Extracts a printable reason from a caught panic payload.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Advances every lane's clock by `inc` (wrapping).
#[inline]
fn add_broadcast(xs: &mut [u64], inc: u64) {
    for x in xs {
        *x = x.wrapping_add(inc);
    }
}

/// Whether any lane's next event deadline falls within the entry about
/// to be replayed: `next_ev[i] <= cycle[i] + step` (wrapping add — idle
/// lanes carry `u64::MAX`).
#[inline]
fn any_due(next_ev: &[u64], cycle: &[u64], step: u64) -> bool {
    debug_assert_eq!(next_ev.len(), cycle.len());
    next_ev
        .iter()
        .zip(cycle)
        .any(|(&ne, &cy)| ne <= cy.wrapping_add(step))
}

struct Lane {
    engine: Engine,
    /// Panic reason if this lane died mid-replay.
    dead: Option<String>,
}

/// A group of engines replaying one shared stream in lockstep.
///
/// Construct with [`Lockstep::new`] (one [`Engine`] per prefetcher,
/// all on the same `SimConfig`), drive with [`Lockstep::replay`] using
/// a single shared [`ReplayCursor`], and collect per-lane results with
/// [`Lockstep::results`]. `RunSpec::run_preresolved_many` wraps the
/// warmup/measure protocol.
pub struct Lockstep {
    lanes: Vec<Lane>,
    /// Indices of lanes still alive, in submission order.
    live: Vec<usize>,
    /// SoA per-live-lane clock, valid only inside `fast_pass`.
    cycle_soa: Vec<u64>,
    /// SoA per-live-lane heap deadline, valid only inside `fast_pass`.
    next_soa: Vec<u64>,
    /// Scratch: live-lane positions whose L2 probe missed this entry.
    missed: Vec<usize>,
}

impl Lockstep {
    /// A lockstep group over `engines`.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or the engines disagree on machine
    /// configuration (lanes must share the timing model exactly for
    /// the shared clock scalars to be valid).
    pub fn new(engines: Vec<Engine>) -> Self {
        assert!(!engines.is_empty(), "a lockstep group needs >= 1 lane");
        let cfg = *engines[0].lane_cfg();
        for e in &engines[1..] {
            assert!(
                *e.lane_cfg() == cfg,
                "lockstep lanes must share one SimConfig"
            );
        }
        let live = (0..engines.len()).collect();
        Lockstep {
            lanes: engines
                .into_iter()
                .map(|engine| Lane { engine, dead: None })
                .collect(),
            live,
            cycle_soa: Vec::new(),
            next_soa: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// Resets measurement counters on every surviving lane (the
    /// warmup/measure boundary).
    pub fn reset_stats(&mut self) {
        for lane in &mut self.lanes {
            if lane.dead.is_none() {
                lane.engine.reset_stats();
            }
        }
    }

    /// Per-lane results in submission order: `Ok(SimResult)` for lanes
    /// that survived, `Err(panic reason)` for lanes that died.
    pub fn results(&self, workload: &str) -> Vec<Result<SimResult, String>> {
        self.lanes
            .iter()
            .map(|lane| match &lane.dead {
                Some(reason) => Err(reason.clone()),
                None => Ok(lane.engine.result(workload)),
            })
            .collect()
    }

    fn refresh_live(&mut self) {
        let lanes = &self.lanes;
        self.live.retain(|&i| lanes[i].dead.is_none());
    }

    fn all_live_idle(&self) -> bool {
        self.live.iter().all(|&i| self.lanes[i].engine.lane_idle())
    }

    /// Replays up to `budget` instructions from `events` on every live
    /// lane, resuming at (and updating) the shared cursor — the
    /// lockstep counterpart of `Engine::replay_events`, byte-identical
    /// per lane to running it serially.
    pub fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        let mut left = budget;
        self.refresh_live();
        if self.live.is_empty() {
            return;
        }
        let pow2 = self.lanes[self.live[0]]
            .engine
            .lane_cfg()
            .core
            .issue_width
            .is_power_of_two();
        while cur.idx < events.len() {
            if self.live.is_empty() {
                return;
            }
            // Group fast pass: every live lane idle, SoA clock state,
            // one broadcast lane advance. Mirrors `Engine::replay_fast`.
            if pow2 && left > 0 && self.all_live_idle() {
                self.fast_pass(events, cur, &mut left);
                self.refresh_live();
                if cur.idx >= events.len() || self.live.is_empty() {
                    return;
                }
            }
            // Per-entry path: the entry the fast pass bailed on (or a
            // lane with an open window). Each lane takes the
            // single-entry fast specialization when it qualifies, else
            // the exact serial general path. The budget/cursor split
            // is computed once, identically to serial replay.
            let ev = events[cur.idx];
            let gap_left = u64::from(ev.gap()) - u64::from(cur.gap_done);
            let take = gap_left.min(left);
            let run_event = ev.flags() != 0 && left > gap_left;
            let lane_fast = pow2 && run_event && ev.flags() & F_IFETCH_MISS == 0;
            if run_event {
                // Overlap the lanes' independent L2 set fetches (same
                // hint as the fast pass; harmless for filler entries).
                let line = LineAddr::from_index(ev.dline());
                for k in 0..self.live.len() {
                    let i = self.live[k];
                    self.lanes[i].engine.lane_l2().prefetch_set(line);
                }
            }
            for k in 0..self.live.len() {
                let lane = &mut self.lanes[self.live[k]];
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if !(lane_fast && lane.engine.replay_entry_fast(&ev, gap_left)) {
                        lane.engine.replay_entry_general(&ev, take, run_event);
                    }
                }));
                if let Err(payload) = outcome {
                    lane.dead = Some(panic_reason(payload));
                }
            }
            self.refresh_live();
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

    /// The group hot loop: all live lanes idle, clock state SoA-packed,
    /// stream work amortized across the group. Structure and bail
    /// conditions mirror `Engine::replay_fast` exactly; the loop exits
    /// (after writing the SoA state back) on a filler or fetch-miss
    /// entry, a budget boundary, any lane's heap deadline, or any
    /// lane's L2 miss (whose continuation re-arms that lane's window).
    fn fast_pass(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, left: &mut u64) {
        let Lockstep {
            lanes,
            live,
            cycle_soa,
            next_soa,
            missed,
        } = self;
        let cfg = *lanes[live[0]].engine.lane_cfg();
        let shift = cfg.core.issue_width.trailing_zeros();
        let mask = u64::from(cfg.core.issue_width) - 1;
        let l2_hit = cfg.core.l2_hit_exposed;
        let mp_pen = cfg.core.mispredict_penalty;
        let ser_cost = cfg.core.serialize_cost;

        // Sync in: shared scalars from lane 0 (all live lanes agree by
        // the records-consumed invariant), per-lane cycle/deadline SoA.
        let (_, slots0, insts0) = lanes[live[0]].engine.lane_clock();
        let mut slots = u64::from(slots0);
        let mut insts = insts0;
        cycle_soa.clear();
        next_soa.clear();
        for &i in live.iter() {
            let (cycle, lane_slots, lane_insts) = lanes[i].engine.lane_clock();
            debug_assert_eq!(
                (lane_slots, lane_insts),
                (slots0, insts0),
                "lockstep lanes out of phase"
            );
            cycle_soa.push(cycle);
            next_soa.push(lanes[i].engine.lane_next_ev());
        }
        let mut lleft = *left;

        while cur.idx < events.len() {
            let ev = events[cur.idx];
            if ev.flags() == 0 || ev.flags() & F_IFETCH_MISS != 0 {
                break;
            }
            let gap_left = u64::from(ev.gap()) - u64::from(cur.gap_done);
            if gap_left >= lleft {
                break; // budget boundary inside this entry
            }
            // Any lane whose heap deadline falls within this entry
            // sends the whole group back to the general path.
            let step = (slots + gap_left) >> shift;
            if any_due(next_soa, cycle_soa, step) {
                break;
            }

            // Shared advance: gap records plus this instruction through
            // the issue stage, one broadcast add over every lane.
            insts += gap_left + 1;
            slots += gap_left + 1;
            let inc = slots >> shift;
            slots &= mask;
            add_broadcast(cycle_soa, inc);

            let line = LineAddr::from_index(ev.dline());
            match ev.flags() >> K_SHIFT {
                kind @ (K_LOAD | K_LOAD_FEEDS | K_STORE_MISS) => {
                    // Kick every lane's set fetch off before the first
                    // probe: the per-lane L2 blocks are independent, so
                    // the host overlaps what would otherwise be a chain
                    // of dependent cache misses.
                    for &i in live.iter() {
                        lanes[i].engine.lane_l2().prefetch_set(line);
                    }
                    missed.clear();
                    for (k, &i) in live.iter().enumerate() {
                        let l2 = lanes[i].engine.lane_l2();
                        if kind == K_STORE_MISS {
                            // A store that hits the L2 after all costs
                            // nothing extra (write buffering hides it).
                            if !l2.access_dirty(line) {
                                missed.push(k);
                            }
                        } else if l2.access(line) {
                            cycle_soa[k] += l2_hit;
                        } else {
                            missed.push(k);
                        }
                    }
                    if !missed.is_empty() {
                        lleft -= gap_left + 1;
                        cur.idx += 1;
                        cur.gap_done = 0;
                        for (k, &i) in live.iter().enumerate() {
                            lanes[i]
                                .engine
                                .lane_set_clock(cycle_soa[k], slots as u32, insts);
                        }
                        for &k in missed.iter() {
                            let lane = &mut lanes[live[k]];
                            let outcome = catch_unwind(AssertUnwindSafe(|| {
                                lane.engine.miss_continuation(&ev);
                            }));
                            if let Err(payload) = outcome {
                                lane.dead = Some(panic_reason(payload));
                            }
                        }
                        *left = lleft;
                        return;
                    }
                }
                K_STORE_HIT => {
                    for &i in live.iter() {
                        lanes[i].engine.lane_l2().mark_dirty(line);
                    }
                }
                K_MISPREDICT => add_broadcast(cycle_soa, mp_pen),
                K_SERIALIZE => {
                    add_broadcast(cycle_soa, ser_cost);
                }
                other => unreachable!("corrupt PreEvent kind {other}"),
            }

            lleft -= gap_left + 1;
            cur.idx += 1;
            cur.gap_done = 0;
        }

        for (k, &i) in live.iter().enumerate() {
            lanes[i]
                .engine
                .lane_set_clock(cycle_soa[k], slots as u32, insts);
        }
        *left = lleft;
    }
}
