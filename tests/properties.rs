//! Property-based tests over the core data structures and the trace
//! substrate.

use std::collections::{HashMap, VecDeque};

use ebcp::core::{compress_line, decompress_line, CorrelationTable, Emab};
use ebcp::mem::{CacheGeometry, MshrFile, PrefetchBuffer, SetAssocCache};
use ebcp::trace::{
    Backing, Op, SegmentedTrace, TraceGenerator, TraceRecord, TraceSink, WorkloadSpec,
};
use ebcp::types::{Addr, LineAddr, Pc, LINE_BYTES};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Alu),
        (any::<u64>(), any::<bool>()).prop_map(|(a, f)| Op::Load {
            addr: Addr::new(a),
            feeds_mispredict: f
        }),
        any::<u64>().prop_map(|a| Op::Store { addr: Addr::new(a) }),
        any::<bool>().prop_map(|m| Op::Branch { mispredicted: m }),
        Just(Op::Serialize),
    ]
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (any::<u64>(), arb_op()).prop_map(|(pc, op)| TraceRecord::new(Pc::new(pc), op))
}

/// A scratch directory under the temp dir, removed on drop.
struct TmpDir(std::path::PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ebcp-{tag}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    /// The segmented trace container round-trips arbitrary records,
    /// full 64-bit pc and address included, across segment seams.
    #[test]
    fn trace_codec_round_trips(trace in proptest::collection::vec(arb_record(), 0..200)) {
        let dir = TmpDir::new("prop-trace");
        let path = dir.0.join("t.seg");
        let mut sink = TraceSink::create(&path, b"prop", 64).unwrap();
        sink.push_chunk(&trace).unwrap();
        prop_assert_eq!(sink.finish().unwrap(), trace.len() as u64);
        let mut st = SegmentedTrace::open(&path, b"prop", Backing::Mmap).unwrap();
        let (mut back, mut chunk) = (Vec::new(), Vec::new());
        while st.next_chunk(&mut chunk, 4096) > 0 {
            back.extend_from_slice(&chunk);
        }
        prop_assert_eq!(trace, back);
    }

    /// Address compression round-trips whenever the upper bits match.
    #[test]
    fn compression_round_trips(key in any::<u64>(), low in 0u64..(1 << 40)) {
        let key = LineAddr::from_index(key);
        let addr = LineAddr::from_index((key.index() >> 40 << 40) | low);
        let c = compress_line(key, addr).expect("same upper bits must compress");
        prop_assert_eq!(decompress_line(key, c), addr);
    }

    /// The cache never exceeds its capacity and a fill is always
    /// immediately visible.
    #[test]
    fn cache_capacity_invariant(lines in proptest::collection::vec(0u64..4096, 1..300)) {
        let geom = CacheGeometry::new(64 * LINE_BYTES, 4); // 16 sets x 4 ways
        let mut cache = SetAssocCache::new(geom);
        for &l in &lines {
            let line = LineAddr::from_index(l);
            cache.fill(line, false);
            prop_assert!(cache.probe(line), "a just-filled line must be present");
            prop_assert!(cache.occupancy() <= geom.lines());
        }
    }

    /// LRU: among lines mapping to one set, the most recently filled
    /// `ways` lines are always resident.
    #[test]
    fn cache_lru_keeps_most_recent(ways_used in proptest::collection::vec(0u64..8, 4..60)) {
        let geom = CacheGeometry::new(4 * LINE_BYTES, 4); // one set, 4 ways
        let mut cache = SetAssocCache::new(geom);
        let mut recent: VecDeque<u64> = VecDeque::new();
        for &t in &ways_used {
            let line = LineAddr::from_index(t);
            cache.fill(line, false);
            recent.retain(|&x| x != t);
            recent.push_back(t);
            if recent.len() > 4 {
                recent.pop_front();
            }
            for &r in &recent {
                prop_assert!(cache.probe(LineAddr::from_index(r)),
                    "recently used line {r} evicted too early");
            }
        }
    }

    /// MSHR occupancy equals the number of distinct outstanding lines
    /// and never exceeds capacity.
    #[test]
    fn mshr_matches_reference(ops in proptest::collection::vec((0u64..32, any::<bool>()), 1..200)) {
        let mut mshr = MshrFile::new(8);
        let mut reference: HashMap<u64, ()> = HashMap::new();
        for (line, release) in ops {
            let l = LineAddr::from_index(line);
            if release {
                mshr.release(l);
                reference.remove(&line);
            } else if reference.contains_key(&line) || reference.len() < 8 {
                mshr.allocate(l);
                reference.insert(line, ());
            } else {
                prop_assert_eq!(mshr.allocate(l), ebcp::mem::MshrOutcome::Full);
            }
            prop_assert_eq!(mshr.len(), reference.len());
            prop_assert!(mshr.len() <= 8);
        }
    }

    /// The prefetch buffer never reports more hits than inserts, and a
    /// consumed line is gone.
    #[test]
    fn prefetch_buffer_accounting(ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..200)) {
        let mut pb = PrefetchBuffer::new(16, 4);
        for (line, consume) in ops {
            let l = LineAddr::from_index(line);
            if consume {
                if pb.lookup_consume(l).is_some() {
                    prop_assert!(!pb.contains(l));
                }
            } else {
                pb.insert(l, line);
                prop_assert!(pb.contains(l));
            }
            let s = pb.stats();
            prop_assert!(s.hits <= s.inserts + s.duplicate_inserts);
            prop_assert!(pb.occupancy() <= 16);
        }
    }

    /// The correlation table entry holds at most `slots` addresses, in
    /// MRU order, and learning is idempotent for repeated inputs.
    #[test]
    fn correlation_table_slots_bounded(
        addr_sets in proptest::collection::vec(
            proptest::collection::vec(0u64..100, 1..12), 1..20)
    ) {
        let mut t = CorrelationTable::new(64, 6);
        let key = LineAddr::from_index(7);
        for addrs in &addr_sets {
            let lines: Vec<LineAddr> = addrs.iter().map(|&a| LineAddr::from_index(a)).collect();
            t.learn(key, &lines);
            let e = t.lookup(key).unwrap();
            prop_assert!(e.len() <= 6);
            // The first (older-epoch) addresses of this learn are MRU.
            prop_assert_eq!(e.addrs()[0], lines[0]);
            // No duplicates within an entry.
            let mut seen = std::collections::HashSet::new();
            for a in e.addrs() {
                prop_assert!(seen.insert(*a), "duplicate address in entry");
            }
        }
    }

    /// EMAB learning keys always come from the retiring epoch's trigger
    /// and the payload only contains recorded addresses.
    #[test]
    fn emab_learning_is_consistent(
        epochs in proptest::collection::vec(proptest::collection::vec(0u64..1000, 0..5), 5..20)
    ) {
        let mut emab = Emab::new(4, 32);
        let mut history: Vec<Vec<u64>> = Vec::new();
        for epoch in &epochs {
            if let Some(learn) = emab.begin_epoch() {
                let retired = history.len() - 4;
                prop_assert_eq!(learn.key.index(), history[retired][0],
                    "key must be the retiring epoch's trigger");
                let expect: Vec<u64> = history[retired + 2]
                    .iter()
                    .chain(history[retired + 3].iter())
                    .copied()
                    .collect();
                let got: Vec<u64> = learn.addrs.iter().map(|l| l.index()).collect();
                prop_assert_eq!(got, expect, "payload must be epochs +2 and +3");
            }
            for &a in epoch {
                emab.record(LineAddr::from_index(a));
            }
            history.push(epoch.clone());
        }
    }

    /// Trace generation is deterministic and changes with the seed.
    #[test]
    fn generator_determinism(seed in any::<u64>()) {
        let spec = WorkloadSpec { templates: 4, ..WorkloadSpec::specjbb2005().scaled(1, 64) };
        let a: Vec<_> = TraceGenerator::new(&spec, seed).take(3000).collect();
        let b: Vec<_> = TraceGenerator::new(&spec, seed).take(3000).collect();
        prop_assert_eq!(&a, &b);
        let c: Vec<_> = TraceGenerator::new(&spec, seed.wrapping_add(1)).take(3000).collect();
        prop_assert_ne!(&a, &c);
    }
}

/// A non-proptest sanity check kept here because it exercises the same
/// reference-model style: EMAB learning in the exact paper scenario.
#[test]
fn emab_paper_scenario() {
    let mut emab = Emab::new(4, 32);
    let epochs: [&[u64]; 4] = [&[1, 2], &[3, 4, 5], &[6, 7], &[8, 9]];
    for e in epochs {
        assert!(emab.begin_epoch().is_none());
        for &a in e {
            emab.record(LineAddr::from_index(a));
        }
    }
    let learn = emab.begin_epoch().unwrap();
    assert_eq!(learn.key, LineAddr::from_index(1));
    assert_eq!(
        learn.addrs,
        vec![6u64, 7, 8, 9]
            .into_iter()
            .map(LineAddr::from_index)
            .collect::<Vec<_>>()
    );
}
