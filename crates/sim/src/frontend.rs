//! The L1 front end and the pre-resolved event stream.
//!
//! The engine's L1I/L1D contents are **prefetcher-independent by
//! construction**: every L1-missing access installs its line into L1 at
//! the access record itself, unconditionally, whether the data comes
//! from the L2, the prefetch buffer or off-chip (see
//! [`PreResolver::push_chunk`]), and nothing else ever writes L1
//! state. The L1 hit/miss outcome of every record is therefore a pure
//! function of the record sequence — which is what makes a *two-phase*
//! simulation possible:
//!
//! 1. a **front-end pass** ([`PreResolver`]) consumes the trace once
//!    through the L1 model and emits one packed [`PreEvent`] per record
//!    the back end cares about (L1-miss fetch/load/store, store-L1-hit,
//!    serialize, mispredicted branch), each prefixed by a *gap* count of
//!    the skipped inert records (ALU ops, L1-hit loads, correctly
//!    predicted branches, L1-hit or same-line fetches);
//! 2. a **replay pass** (`Engine::replay_events`) runs only the
//!    prefetcher-dependent back end — L2, prefetch buffer, MSHRs, epoch
//!    tracker, memory system — over the event stream, advancing through
//!    gaps arithmetically instead of per record.
//!
//! Replay is the only single-core execution path. Its results are
//! byte-identical to full per-record stepping (kept as the test-only
//! `stepping` oracle) because both execute the *same* back-end state
//! machine on the same [`Resolved`] sequence; the only thing replay
//! elides is the per-record L1 scan whose outcome was already computed.
//! A fig4–fig9 sweep therefore pays the front-end cost once per
//! workload instead of once per (workload × prefetcher) cell.
//!
//! Gap records advance the clock uniformly (issue bandwidth only), so a
//! gap's cycle delta is derivable from its instruction count and the
//! issue-slot phase — the stream stores only the instruction gap.

use ebcp_mem::SetAssocCache;
use ebcp_trace::{Op, TraceRecord};
use ebcp_types::{LineAddr, Pc};

use crate::config::SimConfig;

/// What the back end must do for one record, with the L1 outcome
/// already resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The record's program counter (needed for prefetcher miss
    /// notifications; the fetch line is `pc.line()`).
    pub pc: Pc,
    /// The instruction fetch missed L1I (a new line was fetched and it
    /// was not resident).
    pub ifetch_miss: bool,
    /// The data-side / control work, if any.
    pub op: ResolvedOp,
}

/// The back-end-visible part of a record's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedOp {
    /// Nothing for the back end: ALU, L1-hit load, correctly predicted
    /// branch.
    None,
    /// A load that missed L1D.
    LoadMiss {
        /// The missing data line.
        line: LineAddr,
        /// A mispredicted branch depends on this load (§2.1 window
        /// terminator — *if* the load goes off-chip, which only the
        /// back end knows).
        feeds_mispredict: bool,
    },
    /// A store that missed L1D.
    StoreMiss {
        /// The missing data line.
        line: LineAddr,
    },
    /// A store that hit L1D: the back end only propagates the dirty bit
    /// to the L2 (writeback accounting).
    StoreHit {
        /// The written data line.
        line: LineAddr,
    },
    /// A serializing instruction (window terminator).
    Serialize,
    /// A mispredicted branch (fixed penalty at this exact position).
    Mispredict,
}

/// The prefetcher-independent L1 front end: both L1 caches plus the
/// fetch-line filter. Owned by [`PreResolver`] for the batch
/// pre-resolution pass, and by the stepping oracle for per-record
/// stepping — the two uses run the identical transition function.
#[derive(Debug, Clone)]
pub(crate) struct FrontEnd {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    /// Last instruction line fetched; `LineAddr::from_index(u64::MAX)`
    /// (no real line — indices fit in 58 bits) means "none yet".
    last_fetch_line: LineAddr,
}

impl FrontEnd {
    /// A cold front end for `cfg`'s L1 geometries.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        FrontEnd {
            l1i: SetAssocCache::new(cfg.l1i),
            l1d: SetAssocCache::new(cfg.l1d),
            last_fetch_line: LineAddr::from_index(u64::MAX),
        }
    }

    /// Resolves one record against the L1 model, updating it.
    ///
    /// Every L1 miss fills its line *here*, eagerly — never later, and
    /// never keyed to when the data would actually arrive. This is the
    /// deliberate modeling choice that keeps L1 state independent of
    /// the prefetcher (a deferred fill would make the hit/miss stream
    /// depend on prefetcher-specific drain timing).
    ///
    /// The reference form of [`FrontEnd::resolve_packed`], compiled for
    /// the stepping oracle only.
    #[cfg(any(test, feature = "stepping-oracle"))]
    #[inline]
    pub(crate) fn resolve(&mut self, rec: &TraceRecord) -> Resolved {
        let iline = rec.pc.line();
        let ifetch_miss = if self.last_fetch_line == iline {
            false
        } else {
            self.last_fetch_line = iline;
            !self.l1i.access_fill(iline)
        };
        let op = match rec.op {
            Op::Alu => ResolvedOp::None,
            Op::Load {
                addr,
                feeds_mispredict,
            } => {
                let line = addr.line();
                if self.l1d.access_fill(line) {
                    ResolvedOp::None
                } else {
                    ResolvedOp::LoadMiss {
                        line,
                        feeds_mispredict,
                    }
                }
            }
            Op::Store { addr } => {
                let line = addr.line();
                if self.l1d.access_fill(line) {
                    ResolvedOp::StoreHit { line }
                } else {
                    ResolvedOp::StoreMiss { line }
                }
            }
            Op::Branch { mispredicted } => {
                if mispredicted {
                    ResolvedOp::Mispredict
                } else {
                    ResolvedOp::None
                }
            }
            Op::Serialize => ResolvedOp::Serialize,
        };
        Resolved {
            pc: rec.pc,
            ifetch_miss,
            op,
        }
    }

    /// Resolves one record straight to the packed stream encoding —
    /// `encode(&self.resolve(rec))` without the intermediate enum
    /// round-trip, with `(0, 0)` standing for an inert record. Runs
    /// once per trace record on the pre-resolution hot path (the
    /// equivalence is pinned by a unit test below and, end to end, by
    /// the replay-vs-stepping differential tests).
    #[inline]
    pub(crate) fn resolve_packed(&mut self, rec: &TraceRecord) -> (u32, u64) {
        let iline = rec.pc.line();
        let f_ifetch = if self.last_fetch_line == iline {
            0
        } else {
            self.last_fetch_line = iline;
            u32::from(!self.l1i.access_fill(iline))
        };
        match rec.op {
            Op::Alu => (f_ifetch, 0),
            Op::Load {
                addr,
                feeds_mispredict,
            } => {
                let line = addr.line();
                if self.l1d.access_fill(line) {
                    (f_ifetch, 0)
                } else {
                    let k = if feeds_mispredict {
                        K_LOAD_FEEDS
                    } else {
                        K_LOAD
                    };
                    (f_ifetch | (k << K_SHIFT), line.index())
                }
            }
            Op::Store { addr } => {
                let line = addr.line();
                let k = if self.l1d.access_fill(line) {
                    K_STORE_HIT
                } else {
                    K_STORE_MISS
                };
                (f_ifetch | (k << K_SHIFT), line.index())
            }
            Op::Branch { mispredicted } => {
                if mispredicted {
                    (f_ifetch | (K_MISPREDICT << K_SHIFT), 0)
                } else {
                    (f_ifetch, 0)
                }
            }
            Op::Serialize => (f_ifetch | (K_SERIALIZE << K_SHIFT), 0),
        }
    }
}

// Packed event flags: bit 0 = instruction fetch missed L1I; bits 1..=3
// = data/control kind. `flags == 0` is a pure gap filler (no event
// record at all — used for trailing gaps and gap-field overflow).
pub(crate) const F_IFETCH_MISS: u32 = 1;
pub(crate) const K_SHIFT: u32 = 1;
pub(crate) const K_NONE: u32 = 0;
pub(crate) const K_LOAD: u32 = 1;
pub(crate) const K_LOAD_FEEDS: u32 = 2;
pub(crate) const K_STORE_MISS: u32 = 3;
pub(crate) const K_STORE_HIT: u32 = 4;
pub(crate) const K_SERIALIZE: u32 = 5;
pub(crate) const K_MISPREDICT: u32 = 6;

/// Bit position of the gap field in [`PreEvent`]'s packed word.
const GAP_SHIFT: u32 = 48;
/// Bit position of the flags field in [`PreEvent`]'s packed word.
const FLAGS_SHIFT: u32 = 60;

/// One packed entry of the pre-resolved stream: `gap` inert records,
/// then (unless this is a pure filler) one event record whose resolved
/// content is encoded in `flags`/`pc`/`dline`. 16 bytes, one layout in
/// memory and on disk (`EBCPPRE6`, the two words little-endian):
///
/// ```text
/// pc    u64   the event record's program counter (raw; 0 for a filler)
/// word  u64   bits  0..48  dline: data line index (loads/stores; else 0)
///             bits 48..60  gap: inert records before the event
///             bits 60..64  flags: packed kind bits; 0 = filler
/// ```
///
/// A line index below 2^48 is a byte address below 2^54; the workload
/// presets stay below 2^42. Longer inert runs than the 12-bit gap field
/// holds are split into pure fillers, which replay exactly.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreEvent {
    pc: u64,
    word: u64,
}

const _: () = assert!(std::mem::size_of::<PreEvent>() == 16);

/// A data line index that does not fit [`PreEvent`]'s 48-bit line field
/// (a byte address of 2^54 or more). Never truncated: the front-end pass
/// stops with this error's message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOutOfRange(pub u64);

impl std::fmt::Display for LineOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrepresentable data line {:#x}: a pre-resolved event holds line \
             indices up to {:#x} (byte addresses below 2^54)",
            self.0,
            PreEvent::MAX_DLINE
        )
    }
}

impl std::error::Error for LineOutOfRange {}

impl PreEvent {
    /// The largest data line index the packed word holds.
    pub const MAX_DLINE: u64 = (1 << GAP_SHIFT) - 1;
    /// The largest gap the packed word holds.
    pub const MAX_GAP: u32 = (1 << (FLAGS_SHIFT - GAP_SHIFT)) - 1;
    /// The largest flags value the packed word holds.
    pub const MAX_FLAGS: u32 = (1 << (64 - FLAGS_SHIFT)) - 1;

    /// Packs one entry: `gap` inert records, then the event record
    /// `flags`/`pc`/`dline` (`flags == 0` makes it a pure filler).
    ///
    /// # Errors
    ///
    /// [`LineOutOfRange`] when `dline` exceeds [`PreEvent::MAX_DLINE`].
    ///
    /// # Panics
    ///
    /// Panics if `gap` or `flags` exceeds its field: every producer
    /// bounds both, so that is a bug, not an input.
    #[inline]
    pub fn new(pc: u64, dline: u64, gap: u32, flags: u32) -> Result<PreEvent, LineOutOfRange> {
        assert!(
            gap <= Self::MAX_GAP && flags <= Self::MAX_FLAGS,
            "gap {gap} or flags {flags:#x} exceeds its packed field"
        );
        if dline > Self::MAX_DLINE {
            return Err(LineOutOfRange(dline));
        }
        Ok(PreEvent {
            pc,
            word: dline | (u64::from(gap) << GAP_SHIFT) | (u64::from(flags) << FLAGS_SHIFT),
        })
    }

    /// A pure filler standing for `gap` inert records.
    ///
    /// # Panics
    ///
    /// Panics if `gap` exceeds [`PreEvent::MAX_GAP`].
    #[inline]
    pub fn filler(gap: u32) -> PreEvent {
        assert!(gap <= Self::MAX_GAP, "filler gap {gap} exceeds its field");
        PreEvent {
            pc: 0,
            word: u64::from(gap) << GAP_SHIFT,
        }
    }

    /// The entry from its two raw words, `[pc, word]` as laid out above.
    /// Every bit pattern is a well-formed entry except flags above
    /// `0xd` (no such kind), which [`PreEvent::decode`] rejects.
    #[inline]
    pub fn from_words(words: [u64; 2]) -> PreEvent {
        PreEvent {
            pc: words[0],
            word: words[1],
        }
    }

    /// The entry's two raw words, `[pc, word]`.
    #[inline]
    pub fn words(&self) -> [u64; 2] {
        [self.pc, self.word]
    }

    /// The event record's program counter (raw).
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The event's data line index (loads/stores; 0 otherwise).
    #[inline]
    pub fn dline(&self) -> u64 {
        self.word & Self::MAX_DLINE
    }

    /// Inert records preceding the event.
    #[inline]
    pub fn gap(&self) -> u32 {
        (self.word >> GAP_SHIFT) as u32 & Self::MAX_GAP
    }

    /// Packed kind bits; `0` = filler (gap only, no event record).
    #[inline]
    pub fn flags(&self) -> u32 {
        (self.word >> FLAGS_SHIFT) as u32
    }

    /// This entry with its gap replaced (`gap` within the field).
    #[inline]
    pub(crate) fn with_gap(self, gap: u32) -> PreEvent {
        debug_assert!(gap <= Self::MAX_GAP);
        PreEvent {
            pc: self.pc,
            word: (self.word & !(u64::from(Self::MAX_GAP) << GAP_SHIFT))
                | (u64::from(gap) << GAP_SHIFT),
        }
    }

    /// Decodes the event record, or `None` for a pure gap filler.
    #[inline]
    pub fn decode(&self) -> Option<Resolved> {
        let flags = self.flags();
        if flags == 0 {
            return None;
        }
        let line = LineAddr::from_index(self.dline());
        let op = match flags >> K_SHIFT {
            K_NONE => ResolvedOp::None,
            K_LOAD => ResolvedOp::LoadMiss {
                line,
                feeds_mispredict: false,
            },
            K_LOAD_FEEDS => ResolvedOp::LoadMiss {
                line,
                feeds_mispredict: true,
            },
            K_STORE_MISS => ResolvedOp::StoreMiss { line },
            K_STORE_HIT => ResolvedOp::StoreHit { line },
            K_SERIALIZE => ResolvedOp::Serialize,
            K_MISPREDICT => ResolvedOp::Mispredict,
            other => unreachable!("corrupt PreEvent kind {other}"),
        };
        Some(Resolved {
            pc: Pc::new(self.pc),
            ifetch_miss: flags & F_IFETCH_MISS != 0,
            op,
        })
    }

    /// Trace records this entry stands for (`gap` + the event itself).
    #[inline]
    pub fn records(&self) -> u64 {
        u64::from(self.gap()) + u64::from(self.flags() != 0)
    }
}

/// Reference encoding of a [`Resolved`] record — kept as the spec that
/// [`FrontEnd::resolve_packed`] is tested against.
#[cfg(test)]
fn encode(r: &Resolved) -> Option<(u32, u64)> {
    let (kind, dline) = match r.op {
        ResolvedOp::None => (K_NONE, 0),
        ResolvedOp::LoadMiss {
            line,
            feeds_mispredict: false,
        } => (K_LOAD, line.index()),
        ResolvedOp::LoadMiss {
            line,
            feeds_mispredict: true,
        } => (K_LOAD_FEEDS, line.index()),
        ResolvedOp::StoreMiss { line } => (K_STORE_MISS, line.index()),
        ResolvedOp::StoreHit { line } => (K_STORE_HIT, line.index()),
        ResolvedOp::Serialize => (K_SERIALIZE, 0),
        ResolvedOp::Mispredict => (K_MISPREDICT, 0),
    };
    let flags = (kind << K_SHIFT) | u32::from(r.ifetch_miss);
    if flags == 0 {
        None // inert record: absorbed into the next event's gap
    } else {
        Some((flags, dline))
    }
}

/// A complete pre-resolved stream for one trace under one L1 geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreResolved {
    /// The packed event stream.
    pub events: Vec<PreEvent>,
    /// Total trace records the stream stands for.
    pub records: u64,
    /// L1I geometry the stream was resolved under.
    pub l1i: ebcp_mem::CacheGeometry,
    /// L1D geometry the stream was resolved under.
    pub l1d: ebcp_mem::CacheGeometry,
}

impl PreResolved {
    /// Pre-resolves a fully materialized record slice (convenience for
    /// tests and small traces; large traces should feed a
    /// [`PreResolver`] chunk by chunk).
    pub fn from_records(cfg: &SimConfig, records: &[TraceRecord]) -> Self {
        let mut pr = PreResolver::new(cfg);
        // Event density runs 20-30% across the workload presets; one
        // up-front reservation replaces ~20 doubling reallocations of a
        // multi-MB buffer (large enough to go through mmap each time,
        // which measurably stalls long-lived processes).
        pr.events.reserve(records.len() / 3 + 16);
        pr.push_chunk(records);
        pr.finish()
    }
}

/// One bounded span of a pre-resolved stream: the events covering
/// `records` consecutive trace records, cut at a record boundary.
///
/// Cutting is replay-**exact**: a boundary that lands inside a gap
/// flushes the prefix as a pure filler event, and clock advance over
/// inert records is linear in record count with issue-slot phase carried
/// across calls (the same invariance behind the gap-field overflow
/// filler), so replaying blocks back to back on one engine is the same
/// computation as replaying the unsplit stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreBlock {
    /// The packed events of this span.
    pub events: Vec<PreEvent>,
    /// Trace records the span stands for.
    pub records: u64,
}

/// Incremental builder for a [`PreResolved`] stream: feed trace records
/// in order (chunked delivery works — the builder keeps no record
/// history, only the L1 model and a gap counter).
#[derive(Debug)]
pub struct PreResolver {
    fe: FrontEnd,
    gap: u32,
    events: Vec<PreEvent>,
    records: u64,
    /// `records` as of the last [`PreResolver::split_block`] call.
    records_mark: u64,
    l1i: ebcp_mem::CacheGeometry,
    l1d: ebcp_mem::CacheGeometry,
}

impl PreResolver {
    /// A builder over a cold L1 model for `cfg`'s geometries.
    pub fn new(cfg: &SimConfig) -> Self {
        PreResolver {
            fe: FrontEnd::new(cfg),
            gap: 0,
            events: Vec::new(),
            records: 0,
            records_mark: 0,
            l1i: cfg.l1i,
            l1d: cfg.l1d,
        }
    }

    /// Resolves and appends a run of records. The stream does not
    /// depend on how the records are split into chunks; the gap
    /// counter stays in a local across the chunk — worth a measurable
    /// slice of the once-per-workload pre-resolution pass.
    ///
    /// # Panics
    ///
    /// Panics with the [`LineOutOfRange`] message when a data line does
    /// not fit the packed event (a byte address of 2^54 or more); the
    /// harness reports that as the job's failure.
    pub fn push_chunk(&mut self, recs: &[TraceRecord]) {
        self.records += recs.len() as u64;
        let mut gap = self.gap;
        for rec in recs {
            let (flags, dline) = self.fe.resolve_packed(rec);
            if flags == 0 {
                gap += 1;
                if gap == PreEvent::MAX_GAP {
                    // The gap field is full: flush it as a pure filler.
                    self.events.push(PreEvent::filler(gap));
                    gap = 0;
                }
            } else {
                match PreEvent::new(rec.pc.get(), dline, gap, flags) {
                    Ok(ev) => self.events.push(ev),
                    Err(e) => panic!("{e}"),
                }
                gap = 0;
            }
        }
        self.gap = gap;
    }

    /// Cuts the stream here and hands back everything resolved since
    /// the previous cut as a [`PreBlock`], flushing any pending gap as
    /// a pure filler so the block stands for a whole number of records.
    ///
    /// The L1 model carries over untouched — the next block continues
    /// the same front-end state — so the concatenated blocks replay
    /// identically to the unsplit stream. This is how the large tier
    /// streams a trace through pre-resolution in O(segment) memory.
    pub fn split_block(&mut self) -> PreBlock {
        if self.gap > 0 {
            self.events.push(PreEvent::filler(self.gap));
            self.gap = 0;
        }
        let records = self.records - self.records_mark;
        self.records_mark = self.records;
        PreBlock {
            events: std::mem::take(&mut self.events),
            records,
        }
    }

    /// Trace records resolved since the last [`PreResolver::split_block`].
    pub fn pending_records(&self) -> u64 {
        self.records - self.records_mark
    }

    /// Finishes the stream, flushing any trailing gap as a filler.
    pub fn finish(mut self) -> PreResolved {
        let events = self.split_block().events;
        PreResolved {
            events,
            records: self.records,
            l1i: self.l1i,
            l1d: self.l1d,
        }
    }
}

/// Cuts a monolithic pre-resolved stream into [`PreBlock`]s of
/// `seg_records` records each (the last block may be shorter). A
/// boundary that lands inside an event's gap splits the gap into a
/// pure filler (closing the block) plus the remainder carried by the
/// event — replay-exact, see [`PreBlock`].
///
/// # Panics
///
/// Panics if `seg_records` is zero.
pub fn segment_events(pre: &PreResolved, seg_records: u64) -> Vec<PreBlock> {
    assert!(seg_records > 0, "segment length must be at least 1 record");
    let mut blocks =
        Vec::with_capacity(usize::try_from(pre.records / seg_records + 1).unwrap_or(1));
    let mut cur: Vec<PreEvent> = Vec::new();
    let mut fill = 0u64;
    fn close(blocks: &mut Vec<PreBlock>, cur: &mut Vec<PreEvent>, records: u64) {
        blocks.push(PreBlock {
            events: std::mem::take(cur),
            records,
        });
    }
    for ev in &pre.events {
        let mut gap = u64::from(ev.gap());
        while fill + gap >= seg_records {
            // Boundary inside (or at the end of) the inert run: flush
            // the prefix (at most this entry's gap) as a filler and
            // close the block.
            let take = seg_records - fill;
            if take > 0 {
                cur.push(PreEvent::filler(take as u32));
            }
            gap -= take;
            close(&mut blocks, &mut cur, seg_records);
            fill = 0;
        }
        if ev.flags() != 0 {
            cur.push(ev.with_gap(gap as u32));
            fill += gap + 1;
            if fill == seg_records {
                close(&mut blocks, &mut cur, seg_records);
                fill = 0;
            }
        } else if gap > 0 {
            // Remainder of a pure filler (gap-field overflow or stream
            // tail): stays a filler in the open block.
            cur.push(PreEvent::filler(gap as u32));
            fill += gap;
        }
    }
    if fill > 0 || blocks.is_empty() {
        close(&mut blocks, &mut cur, fill);
    }
    blocks
}

/// Resume position inside a pre-resolved stream, so replay can stop at
/// an instruction budget (the warm-up boundary) — which may land in the
/// middle of a gap — and continue from the exact same record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCursor {
    /// Index of the current [`PreEvent`].
    pub idx: usize,
    /// Gap records of that event already replayed.
    pub gap_done: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_trace::{TraceGenerator, WorkloadSpec};
    use ebcp_types::Addr;

    fn cfg() -> SimConfig {
        SimConfig::scaled_down(16)
    }

    #[test]
    fn stream_accounts_for_every_record() {
        let spec = WorkloadSpec::database().scaled(1, 32);
        let trace: Vec<TraceRecord> = TraceGenerator::new(&spec, 3).take(50_000).collect();
        let pre = PreResolved::from_records(&cfg(), &trace);
        assert_eq!(pre.records, 50_000);
        let by_events: u64 = pre.events.iter().map(PreEvent::records).sum();
        assert_eq!(by_events, 50_000, "gaps + events must cover the trace");
        // A real workload has plenty of both events and gaps.
        assert!(pre.events.len() > 100);
        assert!((pre.events.len() as u64) < pre.records);
    }

    #[test]
    fn chunked_and_batch_resolution_agree() {
        let spec = WorkloadSpec::tpcw().scaled(1, 32);
        let trace: Vec<TraceRecord> = TraceGenerator::new(&spec, 5).take(20_000).collect();
        let batch = PreResolved::from_records(&cfg(), &trace);
        let mut pr = PreResolver::new(&cfg());
        for chunk in trace.chunks(777) {
            pr.push_chunk(chunk);
        }
        assert_eq!(pr.finish(), batch);
    }

    #[test]
    fn encode_decode_round_trip() {
        let line = LineAddr::from_index(42);
        let cases = [
            Resolved {
                pc: Pc::new(0x4000),
                ifetch_miss: true,
                op: ResolvedOp::None,
            },
            Resolved {
                pc: Pc::new(0x4004),
                ifetch_miss: false,
                op: ResolvedOp::LoadMiss {
                    line,
                    feeds_mispredict: true,
                },
            },
            Resolved {
                pc: Pc::new(0x4008),
                ifetch_miss: true,
                op: ResolvedOp::StoreMiss { line },
            },
            Resolved {
                pc: Pc::new(0x400c),
                ifetch_miss: false,
                op: ResolvedOp::StoreHit { line },
            },
            Resolved {
                pc: Pc::new(0x4010),
                ifetch_miss: false,
                op: ResolvedOp::Serialize,
            },
            Resolved {
                pc: Pc::new(0x4014),
                ifetch_miss: true,
                op: ResolvedOp::Mispredict,
            },
        ];
        for r in cases {
            let (flags, dline) = encode(&r).expect("all cases are events");
            let ev = PreEvent::new(r.pc.get(), dline, 0, flags).unwrap();
            assert_eq!(ev.decode(), Some(r));
        }
        // The one non-event: inert record.
        assert_eq!(
            encode(&Resolved {
                pc: Pc::new(0),
                ifetch_miss: false,
                op: ResolvedOp::None
            }),
            None
        );
    }

    #[test]
    fn packed_fields_hold_their_boundary_values() {
        let max = PreEvent::MAX_DLINE;
        for (pc, dline, gap, flags) in [
            (0, 0, 0, 0),
            (u64::MAX, max, PreEvent::MAX_GAP, PreEvent::MAX_FLAGS),
            (1 << 63, max, 0, 1),
            (0, 1, PreEvent::MAX_GAP, 0),
            (0x4480_0000_377c, 0x252_0000_01fe, 65, 0xd),
        ] {
            let ev = PreEvent::new(pc, dline, gap, flags).unwrap();
            assert_eq!(
                (ev.pc(), ev.dline(), ev.gap(), ev.flags()),
                (pc, dline, gap, flags)
            );
            assert_eq!(PreEvent::from_words(ev.words()), ev);
            for g in [0, 1, PreEvent::MAX_GAP] {
                let re = ev.with_gap(g);
                assert_eq!(
                    (re.pc(), re.dline(), re.gap(), re.flags()),
                    (pc, dline, g, flags)
                );
            }
        }
        assert_eq!(PreEvent::filler(7), PreEvent::new(0, 0, 7, 0).unwrap());
        assert_eq!(
            PreEvent::new(0x40, max + 1, 0, 3),
            Err(LineOutOfRange(max + 1))
        );
        assert_eq!(
            PreEvent::new(0x40, u64::MAX, 0, 3),
            Err(LineOutOfRange(u64::MAX))
        );
    }

    #[test]
    fn unrepresentable_data_line_fails_the_pass_by_name() {
        let pc = Pc::new(0x4000);
        let top = (PreEvent::MAX_DLINE + 1) * 64; // byte address 2^54
        let mut pr = PreResolver::new(&cfg());
        pr.push_chunk(&[TraceRecord::store(pc, Addr::new(top - 64))]);
        assert_eq!(
            pr.events[0].dline(),
            PreEvent::MAX_DLINE,
            "the last line fits"
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pr.push_chunk(&[TraceRecord::store(pc, Addr::new(top))]);
        }))
        .expect_err("a line past the field must not be truncated");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert_eq!(*msg, LineOutOfRange(PreEvent::MAX_DLINE + 1).to_string());
        assert!(
            msg.starts_with("unrepresentable data line 0x1000000000000"),
            "{msg}"
        );
    }

    #[test]
    fn inert_runs_longer_than_the_gap_field_split_into_fillers() {
        let cap = u64::from(PreEvent::MAX_GAP);
        let pc = Pc::new(0x5000);
        // Record one is a cold ifetch miss; the rest share its fetch line.
        let mut recs = vec![TraceRecord::alu(pc); 1 + 2 * cap as usize + 5];
        recs.push(TraceRecord::load(pc, Addr::new(0x80_0000)));
        recs.extend(vec![TraceRecord::alu(pc); cap as usize + 3]);
        let pre = PreResolved::from_records(&cfg(), &recs);
        let filler = PreEvent::filler(PreEvent::MAX_GAP);
        assert_eq!(pre.events[1..3], [filler, filler], "two full gap fields");
        assert_eq!(pre.events[3].gap(), 5, "the event keeps the remainder");
        assert_eq!(pre.events[3].flags() >> K_SHIFT, K_LOAD);
        assert_eq!(
            pre.events[4..],
            [filler, PreEvent::filler(3)],
            "the tail too"
        );
        let total: u64 = pre.events.iter().map(PreEvent::records).sum();
        assert_eq!(total, recs.len() as u64);
        // Cutting mid-run keeps every filler within the field and the
        // record accounting exact.
        for seg in [1, 7, cap - 1, cap, cap + 1, 3 * cap] {
            let blocks = segment_events(&pre, seg);
            for b in &blocks {
                assert_eq!(
                    b.events.iter().map(PreEvent::records).sum::<u64>(),
                    b.records
                );
            }
            let back: u64 = blocks.iter().map(|b| b.records).sum();
            assert_eq!(back, recs.len() as u64, "segment length {seg}");
        }
    }

    #[test]
    fn resolve_is_prefetcher_independent_shape() {
        // Same trace, two independent front ends: identical streams.
        // (The real independence claim — against back-end state — is
        // enforced by the engine's differential replay tests.)
        let spec = WorkloadSpec::specjbb2005().scaled(1, 32);
        let trace: Vec<TraceRecord> = TraceGenerator::new(&spec, 9).take(30_000).collect();
        let a = PreResolved::from_records(&cfg(), &trace);
        let b = PreResolved::from_records(&cfg(), &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn resolve_packed_matches_resolve_plus_encode() {
        // The fused hot-path encoder must agree record for record with
        // the reference `encode(resolve(..))` over a real trace mix.
        let spec = WorkloadSpec::database().scaled(1, 32);
        let trace: Vec<TraceRecord> = TraceGenerator::new(&spec, 3).take(50_000).collect();
        let mut ref_fe = FrontEnd::new(&cfg());
        let mut fast_fe = FrontEnd::new(&cfg());
        for rec in &trace {
            let expected = encode(&ref_fe.resolve(rec)).unwrap_or((0, 0));
            assert_eq!(fast_fe.resolve_packed(rec), expected, "record {rec:?}");
        }
    }

    #[test]
    fn store_hit_after_store_miss_same_line() {
        let mut fe = FrontEnd::new(&cfg());
        let pc = Pc::new(0x7000);
        let st = TraceRecord::store(pc, Addr::new(0x80_0000));
        // Fetch resolves first (cold ifetch miss on record one).
        let first = fe.resolve(&st);
        assert!(matches!(first.op, ResolvedOp::StoreMiss { .. }));
        // Eager fill: the very next store to the same line hits L1D.
        let second = fe.resolve(&st);
        assert!(matches!(second.op, ResolvedOp::StoreHit { .. }));
        assert!(!second.ifetch_miss, "same fetch line");
    }

    use proptest::prelude::*;

    /// Random records over small pc/line pools, sized so both L1 hits
    /// and misses (and therefore every `ResolvedOp` kind) occur under
    /// `cfg()`'s tiny scaled-down geometries.
    fn arb_record() -> impl Strategy<Value = TraceRecord> {
        (0u32..100, 0u64..64, 0u64..96, 0u32..2).prop_map(|(kind, pcsel, line, flag)| {
            let pc = Pc::new(0x1_0000 + pcsel * 0x40 + 8);
            let addr = Addr::new(0x80_0000 + line * 64);
            let op = match kind % 6 {
                // Weight toward inert ALU work so real gaps form.
                0 | 1 => Op::Alu,
                2 => Op::Load {
                    addr,
                    feeds_mispredict: flag == 1,
                },
                3 => Op::Store { addr },
                4 => Op::Branch {
                    mispredicted: flag == 1,
                },
                _ => Op::Serialize,
            };
            TraceRecord::new(pc, op)
        })
    }

    proptest! {
        /// The packed stream is exactly `encode(resolve(..))` folded with
        /// the gap counter, every event decodes back to its `Resolved`,
        /// and the per-event record accounting sums to the trace length.
        #[test]
        fn packed_stream_round_trips_random_records(
            recs in proptest::collection::vec(arb_record(), 1..400),
        ) {
            let mut ref_fe = FrontEnd::new(&cfg());
            let mut fast_fe = FrontEnd::new(&cfg());
            let mut expected = Vec::new();
            let mut gap = 0u32;
            for rec in &recs {
                let r = ref_fe.resolve(rec);
                let packed = fast_fe.resolve_packed(rec);
                prop_assert_eq!(packed, encode(&r).unwrap_or((0, 0)), "record {:?}", rec);
                let (flags, dline) = packed;
                if flags == 0 {
                    gap += 1; // inert: absorbed into the next event's gap
                } else {
                    let ev = PreEvent::new(rec.pc.get(), dline, gap, flags).unwrap();
                    prop_assert_eq!(ev.decode(), Some(r), "decode round trip");
                    prop_assert_eq!(ev.records(), u64::from(gap) + 1);
                    expected.push(ev);
                    gap = 0;
                }
            }
            if gap > 0 {
                expected.push(PreEvent::filler(gap));
            }
            let stream = PreResolved::from_records(&cfg(), &recs);
            prop_assert_eq!(&stream.events, &expected);
            prop_assert_eq!(stream.records, recs.len() as u64);
            prop_assert_eq!(
                stream.events.iter().map(PreEvent::records).sum::<u64>(),
                recs.len() as u64,
                "event accounting must cover every trace record"
            );
            if let Some(last) = stream.events.last() {
                if last.flags() == 0 {
                    prop_assert_eq!(last.decode(), None, "fillers carry no event");
                }
            }
        }

        /// Chunk boundaries are invisible: any split of the record stream
        /// across `push_chunk` calls yields the identical packed stream.
        #[test]
        fn chunking_is_invisible_in_the_packed_stream(
            recs in proptest::collection::vec(arb_record(), 1..300),
            cuts in proptest::collection::vec(0usize..300, 1..6),
        ) {
            let whole = PreResolved::from_records(&cfg(), &recs);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (recs.len() + 1)).collect();
            cuts.sort_unstable();
            let mut pr = PreResolver::new(&cfg());
            let mut prev = 0;
            for c in cuts {
                pr.push_chunk(&recs[prev..c]);
                prev = c;
            }
            pr.push_chunk(&recs[prev..]);
            prop_assert_eq!(whole, pr.finish());
        }

        /// Gap-field saturation: when the inert-run counter reaches
        /// `MAX_GAP` mid-chunk, a pure filler is flushed and the counter
        /// restarts — with any short remainder flushed by `finish()`.
        #[test]
        fn gap_counter_saturation_flushes_an_overflow_filler(
            k in 1u32..4,
            extra in 0u32..5,
        ) {
            let mut pr = PreResolver::new(&cfg());
            let pc = Pc::new(0x5000);
            // Record one is a cold ifetch miss: one real event, gap 0.
            pr.push_chunk(&[TraceRecord::alu(pc)]);
            prop_assert_eq!(pr.events.len(), 1);
            // Start the counter just below the cap without pushing
            // the records: the builder keeps no record history.
            pr.gap = PreEvent::MAX_GAP - k;
            for _ in 0..k + extra {
                pr.push_chunk(&[TraceRecord::alu(pc)]); // same fetch line: inert
            }
            let stream = pr.finish();
            let filler = stream.events[1];
            prop_assert_eq!(filler, PreEvent::filler(PreEvent::MAX_GAP));
            prop_assert_eq!(filler.decode(), None);
            prop_assert_eq!(filler.records(), u64::from(PreEvent::MAX_GAP));
            if extra > 0 {
                prop_assert_eq!(stream.events.len(), 3, "trailing gap flushed by finish()");
                prop_assert_eq!(stream.events[2], PreEvent::filler(extra));
            } else {
                prop_assert_eq!(stream.events.len(), 2, "no trailing gap to flush");
            }
        }
    }
}
