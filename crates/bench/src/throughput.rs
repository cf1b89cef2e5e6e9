//! Simulated-throughput benchmark: engine Minst/s per workload ×
//! prefetcher.
//!
//! Unlike the figure drivers, throughput runs never flow through the
//! caching [`Harness`](ebcp_harness::Harness) — a memoized result has no
//! wall time. Each workload's trace is pre-resolved once (generation and
//! the front-end pass excluded from the timed region); each cell replays
//! that stream through a fresh engine and reports simulated millions of
//! instructions per wall-clock second.
//! The committed baseline under `crates/bench/baselines/` turns the
//! numbers into a CI gate ([`crate::gate::THROUGHPUT`]): a geometric-mean
//! regression beyond the tolerance fails the run.

use ebcp_core::EbcpConfig;
use ebcp_harness::Value;
use ebcp_prefetch::{BaselineConfig, GhbConfig, StreamConfig};
use ebcp_sim::PrefetcherSpec;

use crate::gate::{geomean, min_wall};
use crate::scale::Scale;

/// One timed cell of the throughput matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Trace records replayed (one record = one instruction).
    pub records: u64,
    /// Wall-clock milliseconds for the back-end replay.
    pub wall_ms: f64,
    /// Simulated millions of instructions per second.
    pub mips: f64,
}

/// The prefetchers timed per workload: the no-prefetch hot path, a
/// cheap sequential baseline, a table-heavy baseline and the EBCP.
pub fn roster(scale: Scale) -> Vec<PrefetcherSpec> {
    let d = scale.den as usize;
    let entries = scale.entries(1 << 20);
    vec![
        PrefetcherSpec::None,
        PrefetcherSpec::baseline("stream", BaselineConfig::Stream(StreamConfig::default())),
        PrefetcherSpec::baseline(
            "ghb-large",
            BaselineConfig::Ghb(GhbConfig {
                index_entries: ((256 << 10) / d).max(1 << 10),
                ghb_entries: ((256 << 10) / d).max(1 << 10),
                ..GhbConfig::large()
            }),
        ),
        PrefetcherSpec::Ebcp(EbcpConfig::comparison().with_table_entries(entries)),
    ]
}

/// Every prefetcher any experiment driver registers: the throughput
/// roster plus the Figure 9 comparison roster (capacity-matched
/// baselines, tuned EBCP, EBCP-minus), the modern competitor roster
/// (Triangel, AMC) and the off-chip-filtered compositions, deduplicated
/// by name. This is the "all prefetchers" column of a sweep-mode cell,
/// and the roster the differential replay gate must cover.
pub fn sweep_roster(scale: Scale) -> Vec<PrefetcherSpec> {
    let mut pfs = roster(scale);
    for (name, cfg) in scale.figure9_roster() {
        pfs.push(PrefetcherSpec::baseline(name, cfg));
    }
    for (name, cfg) in scale.modern_roster() {
        pfs.push(PrefetcherSpec::baseline(name, cfg));
    }
    pfs.push(PrefetcherSpec::Ebcp(
        EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20)),
    ));
    pfs.push(PrefetcherSpec::Ebcp(
        EbcpConfig::comparison_minus().with_table_entries(scale.entries(1 << 20)),
    ));
    // The neural off-chip filter composed over the main contender and a
    // cheap baseline ("{inner}+nof" cells).
    pfs.push(PrefetcherSpec::filtered(PrefetcherSpec::Ebcp(
        EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20)),
    )));
    pfs.push(PrefetcherSpec::filtered(PrefetcherSpec::baseline(
        "stream",
        BaselineConfig::Stream(StreamConfig::default()),
    )));
    let mut seen = std::collections::HashSet::new();
    pfs.retain(|p| seen.insert(p.name()));
    pfs
}

/// Times every workload × roster cell at `scale` (sequential, so cells
/// do not contend for cores and the numbers are comparable run to run).
/// Each workload is pre-resolved once, untimed; a cell times exactly
/// [`RunSpec::run_preresolved`](ebcp_sim::RunSpec::run_preresolved),
/// min-of-2 like every other cell: a replay-only cell runs tens of ms,
/// where one scheduler hiccup on a shared host is a large share.
pub fn measure(scale: Scale) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    for w in scale.workloads_all() {
        let spec = scale.run_spec(&w, scale.machine());
        let pre = spec.pre_resolve();
        for pf in roster(scale) {
            let (wall, _) = min_wall(2, || spec.run_preresolved(&pre, &pf));
            rows.push(ThroughputRow {
                workload: w.name.clone(),
                prefetcher: pf.name(),
                records: pre.records,
                wall_ms: wall * 1e3,
                mips: pre.records as f64 / wall / 1e6,
            });
        }
    }
    rows
}

/// One sweep-mode cell: a whole workload × roster column, one
/// prefetcher at a time — one front-end pre-resolution pass, then
/// back-end-only replays for every prefetcher. The front end is inside
/// the timed region: it is exactly what the replays amortize. This is
/// the serial half of the lockstep cell (see [`sweep_rows`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Workload name.
    pub workload: String,
    /// Roster prefetchers replayed against the shared stream.
    pub prefetchers: u64,
    /// Trace records per cell (one record = one instruction).
    pub records: u64,
    /// Wall-clock ms to pre-resolve once + replay every cell.
    pub sweep_ms: f64,
    /// Amortized sweep throughput: `records × prefetchers / sweep_ms`,
    /// in Minst/s.
    pub mips: f64,
}

/// One lockstep-mode cell: the whole sweep roster driven by a single
/// pass over the shared pre-resolved stream
/// ([`RunSpec::run_preresolved_many`](ebcp_sim::RunSpec)), against the
/// serial pre-resolve-once + replay-each sweep the harness used before
/// lockstep. The decode and gap-collapse work the serial sweep repeats
/// per prefetcher is paid once here, so this is the cell the lockstep
/// replay is gated on.
#[derive(Debug, Clone, PartialEq)]
pub struct LockstepRow {
    /// Workload name.
    pub workload: String,
    /// Roster prefetchers replayed as lockstep lanes.
    pub prefetchers: u64,
    /// Trace records per cell (one record = one instruction).
    pub records: u64,
    /// Wall-clock ms to pre-resolve once + replay each lane serially.
    pub serial_ms: f64,
    /// Wall-clock ms to pre-resolve once + one lockstep pass.
    pub lockstep_ms: f64,
    /// `serial_ms / lockstep_ms`.
    pub speedup: f64,
    /// Amortized lockstep throughput: `records × prefetchers /
    /// lockstep_ms`, in Minst/s.
    pub mips: f64,
}

/// Times one lockstep cell per workload at `scale`: the serial
/// replay-each sweep against a single lockstep pass over the same
/// stream. Sequential for run-to-run comparability, like [`measure`].
pub fn measure_lockstep(scale: Scale) -> Vec<LockstepRow> {
    use ebcp_sim::frontend::PreResolved;
    let mut rows = Vec::new();
    for w in scale.workloads_all() {
        let spec = scale.run_spec(&w, scale.machine());
        let trace = spec.materialize();
        let roster = sweep_roster(scale);

        // Allocator warm-up: the first multi-MB event buffer built in a
        // fresh region pays first-touch page faults (hundreds of ms on
        // the largest workloads) that neither a steady-state process
        // nor the harness's disk-cached stream path pays again; one
        // untimed pass keeps that out of the measurement.
        std::hint::black_box(PreResolved::from_records(&spec.sim, &trace));

        // Min-of-2 per mode, identical treatment for a fair ratio. Both
        // modes include the front-end pass: it is part of what a sweep
        // costs, and both amortize it the same way.
        let (serial, _) = min_wall(2, || {
            let pre = PreResolved::from_records(&spec.sim, &trace);
            for pf in &roster {
                std::hint::black_box(spec.run_preresolved(&pre, pf));
            }
        });
        let (lockstep, _) = min_wall(2, || {
            let pre = PreResolved::from_records(&spec.sim, &trace);
            spec.run_preresolved_many(&pre, &roster)
        });

        let total = trace.len() as u64 * roster.len() as u64;
        rows.push(LockstepRow {
            workload: w.name.clone(),
            prefetchers: roster.len() as u64,
            records: trace.len() as u64,
            serial_ms: serial * 1e3,
            lockstep_ms: lockstep * 1e3,
            speedup: serial / lockstep.max(1e-12),
            mips: total as f64 / lockstep.max(1e-12) / 1e6,
        });
    }
    rows
}

/// The sweep cells, read off the lockstep cells' serial halves: a
/// serial replay-each pass over the shared stream *is* the
/// one-prefetcher-at-a-time sweep, so it is timed once.
pub fn sweep_rows(lockstep: &[LockstepRow]) -> Vec<SweepRow> {
    lockstep
        .iter()
        .map(|r| SweepRow {
            workload: r.workload.clone(),
            prefetchers: r.prefetchers,
            records: r.records,
            sweep_ms: r.serial_ms,
            mips: (r.records * r.prefetchers) as f64 / r.serial_ms.max(1e-9) / 1e3,
        })
        .collect()
}

/// One CMP-mode cell: a whole N-core chip — per-core front ends
/// pre-resolved once (untimed, like trace materialization above), then
/// the discrete-event CMP engine replays all cores against the shared
/// L2/bus/DRAM. This is the path the stepping engine made unaffordable;
/// the DES rebuild gets its own baseline gate so it cannot silently
/// regress back toward cycle-stepping cost.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpThroughputRow {
    /// Cores on the chip.
    pub cores: u64,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Trace records replayed chip-wide (one record = one instruction).
    pub records: u64,
    /// Wall-clock milliseconds for the DES replay.
    pub wall_ms: f64,
    /// Simulated millions of instructions per second, chip-wide.
    pub mips: f64,
}

/// The prefetchers timed per CMP cell: the no-prefetch hot path and the
/// EBCP (the two the `repro cmp` driver sweeps at every core count).
fn cmp_roster(scale: Scale) -> Vec<PrefetcherSpec> {
    vec![
        PrefetcherSpec::None,
        PrefetcherSpec::Ebcp(EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20))),
    ]
}

/// Times the CMP DES cells at `scale`: {1, 2, 4, 8}-core database mixes
/// × the CMP roster. Per-core streams are pre-resolved untimed (the
/// harness serves them from its warm map / disk cache in real sweeps);
/// the timed region is exactly the discrete-event replay. Sequential
/// for run-to-run comparability, like [`measure`].
pub fn measure_cmp(scale: Scale) -> Vec<CmpThroughputRow> {
    let preset = ebcp_trace::WorkloadSpec::database();
    let mut rows = Vec::new();
    for cores in [1u64, 2, 4, 8] {
        let spec = scale.cmp_spec(&preset, cores as usize);
        let streams = spec.pre_resolve_cores();
        let refs: Vec<&ebcp_sim::frontend::PreResolved> = streams.iter().collect();
        let records = (spec.warmup_insts + spec.measure_insts) * cores;
        for pf in cmp_roster(scale) {
            let (wall, _) = min_wall(2, || spec.run_streams(&refs, &pf));
            rows.push(CmpThroughputRow {
                cores,
                prefetcher: pf.name(),
                records,
                wall_ms: wall * 1e3,
                mips: records as f64 / wall.max(1e-12) / 1e6,
            });
        }
    }
    rows
}

/// Encodes the matrix plus the sweep, lockstep and CMP cells as the
/// `BENCH_throughput.json` document (schema 6; schema 5 timed each
/// matrix cell by record stepping, front end included, and gave each
/// sweep cell a stepping half — `stepped_ms`, `speedup` and
/// `sweep_geomean_speedup`; schema 4 predates the modern competitor
/// roster and the evolving-graph workload, schema 3 had no CMP section,
/// schema 2 no lockstep section, schema 1 no sweep section).
pub fn to_json(
    scale: Scale,
    rows: &[ThroughputRow],
    sweep: &[SweepRow],
    lockstep: &[LockstepRow],
    cmp: &[CmpThroughputRow],
) -> Value {
    let rows_json = rows
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("workload".into(), Value::Str(r.workload.clone())),
                ("prefetcher".into(), Value::Str(r.prefetcher.clone())),
                ("records".into(), Value::Int(r.records)),
                ("wall_ms".into(), Value::Num(r.wall_ms)),
                ("mips".into(), Value::Num(r.mips)),
            ])
        })
        .collect();
    let sweep_json = sweep
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("workload".into(), Value::Str(r.workload.clone())),
                ("prefetchers".into(), Value::Int(r.prefetchers)),
                ("records".into(), Value::Int(r.records)),
                ("sweep_ms".into(), Value::Num(r.sweep_ms)),
                ("mips".into(), Value::Num(r.mips)),
            ])
        })
        .collect();
    let lockstep_json = lockstep
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("workload".into(), Value::Str(r.workload.clone())),
                ("prefetchers".into(), Value::Int(r.prefetchers)),
                ("records".into(), Value::Int(r.records)),
                ("serial_ms".into(), Value::Num(r.serial_ms)),
                ("lockstep_ms".into(), Value::Num(r.lockstep_ms)),
                ("speedup".into(), Value::Num(r.speedup)),
                ("mips".into(), Value::Num(r.mips)),
            ])
        })
        .collect();
    let cmp_json = cmp
        .iter()
        .map(|r| {
            Value::Obj(vec![
                ("cores".into(), Value::Int(r.cores)),
                ("prefetcher".into(), Value::Str(r.prefetcher.clone())),
                ("records".into(), Value::Int(r.records)),
                ("wall_ms".into(), Value::Num(r.wall_ms)),
                ("mips".into(), Value::Num(r.mips)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Int(6)),
        ("scale_den".into(), Value::Int(scale.den)),
        (
            "geomean_mips".into(),
            Value::Num(geomean(rows.iter().map(|r| r.mips))),
        ),
        (
            "sweep_geomean_mips".into(),
            Value::Num(geomean(sweep.iter().map(|r| r.mips))),
        ),
        (
            "lockstep_geomean_mips".into(),
            Value::Num(geomean(lockstep.iter().map(|r| r.mips))),
        ),
        (
            "lockstep_geomean_speedup".into(),
            Value::Num(geomean(lockstep.iter().map(|r| r.speedup))),
        ),
        (
            "cmp_geomean_mips".into(),
            Value::Num(geomean(cmp.iter().map(|r| r.mips))),
        ),
        ("rows".into(), Value::Arr(rows_json)),
        ("sweep".into(), Value::Arr(sweep_json)),
        ("lockstep".into(), Value::Arr(lockstep_json)),
        ("cmp".into(), Value::Arr(cmp_json)),
    ])
}

/// Renders the matrix as an aligned table.
pub fn render(rows: &[ThroughputRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Simulated throughput (engine replay; generation and front end excluded)"
    );
    let _ = writeln!(
        s,
        "{:<22} {:<14} {:>12} {:>10} {:>10}",
        "workload", "prefetcher", "records", "wall ms", "Minst/s"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<22} {:<14} {:>12} {:>10.1} {:>10.1}",
            r.workload, r.prefetcher, r.records, r.wall_ms, r.mips
        );
    }
    let _ = writeln!(
        s,
        "geomean: {:.1} Minst/s",
        geomean(rows.iter().map(|r| r.mips))
    );
    s
}

/// Renders the sweep cells as an aligned table.
pub fn render_sweep(rows: &[SweepRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Sweep throughput (pre-resolve once, replay every prefetcher)"
    );
    let _ = writeln!(
        s,
        "{:<22} {:>4} {:>12} {:>10} {:>10}",
        "workload", "pf", "records", "sweep ms", "Minst/s"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<22} {:>4} {:>12} {:>10.1} {:>10.1}",
            r.workload, r.prefetchers, r.records, r.sweep_ms, r.mips
        );
    }
    let _ = writeln!(
        s,
        "geomean: {:.1} Minst/s amortized",
        geomean(rows.iter().map(|r| r.mips))
    );
    s
}

/// Renders the lockstep cells as an aligned table.
pub fn render_lockstep(rows: &[LockstepRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Lockstep throughput (one pass over the shared stream drives every lane)"
    );
    let _ = writeln!(
        s,
        "{:<22} {:>4} {:>12} {:>10} {:>11} {:>8} {:>10}",
        "workload", "pf", "records", "serial ms", "lockstep ms", "speedup", "Minst/s"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<22} {:>4} {:>12} {:>10.1} {:>11.1} {:>7.2}x {:>10.1}",
            r.workload, r.prefetchers, r.records, r.serial_ms, r.lockstep_ms, r.speedup, r.mips
        );
    }
    let _ = writeln!(
        s,
        "geomean: {:.1} Minst/s amortized, {:.2}x vs serial replay",
        geomean(rows.iter().map(|r| r.mips)),
        geomean(rows.iter().map(|r| r.speedup))
    );
    s
}

/// Renders the CMP DES cells as an aligned table.
pub fn render_cmp(rows: &[CmpThroughputRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "CMP throughput (discrete-event engine; per-core streams pre-resolved untimed)"
    );
    let _ = writeln!(
        s,
        "{:<8} {:<14} {:>12} {:>10} {:>10}",
        "cores", "prefetcher", "records", "wall ms", "Minst/s"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<8} {:<14} {:>12} {:>10.1} {:>10.1}",
            r.cores, r.prefetcher, r.records, r.wall_ms, r.mips
        );
    }
    let _ = writeln!(
        s,
        "geomean: {:.1} Minst/s chip-wide",
        geomean(rows.iter().map(|r| r.mips))
    );
    s
}

/// One row of the per-event-kind histogram (`repro bench-throughput
/// --event-mix`): how one workload's pre-resolved stream decomposes
/// into the kinds the replay loop dispatches on. This is the measured
/// input to DESIGN.md §3d's probe-bound analysis — and to the DES
/// idle-skip argument, since every `inert` record is a cycle the CMP
/// engine never has to step.
#[derive(Debug, Clone, PartialEq)]
pub struct EventMixRow {
    /// Workload name.
    pub workload: String,
    /// Event kind label.
    pub kind: &'static str,
    /// Trace records of this kind.
    pub count: u64,
    /// Fraction of the workload's records.
    pub share: f64,
}

/// The event-kind labels, in reporting order. `inert` counts the
/// records the front end collapsed into gap fields (no L2-visible
/// event); the rest are the flagged event records by decoded kind,
/// including `ifetch-only` records whose sole action is an off-chip
/// instruction miss. Those first eight kinds partition the stream.
/// `+ifetch-miss` is an overlay — every record carrying an instruction
/// miss, whatever its data kind — so it double-counts by design and is
/// excluded from the partition sum.
pub const EVENT_KINDS: [&str; 9] = [
    "inert",
    "load-miss",
    "load-feeds-mispredict",
    "store-miss",
    "store-hit-dirty",
    "serialize",
    "mispredict",
    "ifetch-only",
    "+ifetch-miss",
];

/// Decomposes each workload's pre-resolved stream (at `scale`, the same
/// streams every replay and sweep consumes) into per-kind record
/// counts. Deterministic — no timing involved.
pub fn event_mix(scale: Scale) -> Vec<EventMixRow> {
    use ebcp_sim::frontend::{PreResolved, ResolvedOp};
    let mut rows = Vec::new();
    for w in scale.workloads_all() {
        let spec = scale.run_spec(&w, scale.machine());
        let trace = spec.materialize();
        let pre = PreResolved::from_records(&spec.sim, &trace);
        let mut counts = [0u64; 9];
        for ev in &pre.events {
            counts[0] += u64::from(ev.gap());
            let Some(r) = ev.decode() else { continue };
            let k = match r.op {
                ResolvedOp::None => {
                    // An event record with no data op exists only to
                    // carry an instruction miss.
                    debug_assert!(r.ifetch_miss);
                    7
                }
                ResolvedOp::LoadMiss {
                    feeds_mispredict: false,
                    ..
                } => 1,
                ResolvedOp::LoadMiss {
                    feeds_mispredict: true,
                    ..
                } => 2,
                ResolvedOp::StoreMiss { .. } => 3,
                ResolvedOp::StoreHit { .. } => 4,
                ResolvedOp::Serialize => 5,
                ResolvedOp::Mispredict => 6,
            };
            counts[k] += 1;
            if r.ifetch_miss {
                counts[8] += 1;
            }
        }
        let total = trace.len() as f64;
        for (k, &count) in counts.iter().enumerate() {
            rows.push(EventMixRow {
                workload: w.name.clone(),
                kind: EVENT_KINDS[k],
                count,
                share: count as f64 / total.max(1.0),
            });
        }
    }
    rows
}

/// Renders the event-mix histogram as an aligned table.
pub fn render_event_mix(rows: &[EventMixRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Event mix (front-end pre-resolved stream; DESIGN.md §3d probe-bound analysis)"
    );
    let _ = writeln!(
        s,
        "{:<22} {:<22} {:>12} {:>8}",
        "workload", "kind", "records", "share"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<22} {:<22} {:>12} {:>7.2}%",
            r.workload,
            r.kind,
            r.count,
            r.share * 100.0
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate;

    fn row(mips: f64) -> ThroughputRow {
        ThroughputRow {
            workload: "database".into(),
            prefetcher: "none".into(),
            records: 1_000_000,
            wall_ms: 1_000_000.0 / mips / 1e3,
            mips,
        }
    }

    fn sweep_row(mips: f64) -> SweepRow {
        SweepRow {
            workload: "database".into(),
            prefetchers: 4,
            records: 1_000_000,
            sweep_ms: 4.0 * 1_000_000.0 / mips / 1e3,
            mips,
        }
    }

    fn lockstep_row(mips: f64, speedup: f64) -> LockstepRow {
        let lockstep_ms = 4.0 * 1_000_000.0 / mips / 1e3;
        LockstepRow {
            workload: "database".into(),
            prefetchers: 4,
            records: 1_000_000,
            serial_ms: lockstep_ms * speedup,
            lockstep_ms,
            speedup,
            mips,
        }
    }

    fn cmp_row(mips: f64) -> CmpThroughputRow {
        CmpThroughputRow {
            cores: 4,
            prefetcher: "ebcp".into(),
            records: 4_000_000,
            wall_ms: 4_000_000.0 / mips / 1e3,
            mips,
        }
    }

    #[test]
    fn sweep_rows_are_the_lockstep_serial_halves() {
        // 4 lanes × 1M records serially in 40 ms: 100 Minst/s.
        let l = lockstep_row(400.0, 4.0);
        assert!((l.serial_ms - 40.0).abs() < 1e-9);
        let sweep = sweep_rows(std::slice::from_ref(&l));
        assert_eq!(sweep.len(), 1);
        assert_eq!((sweep[0].prefetchers, sweep[0].records), (4, 1_000_000));
        assert_eq!(sweep[0].sweep_ms, l.serial_ms);
        assert!((sweep[0].mips - 100.0).abs() < 1e-9);
    }

    #[test]
    fn json_document_shape() {
        let rows = [row(25.0)];
        let sweeps = [sweep_row(100.0)];
        let locksteps = [lockstep_row(400.0, 4.0)];
        let cmps = [cmp_row(800.0)];
        let v = to_json(Scale::quick(), &rows, &sweeps, &locksteps, &cmps);
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(6));
        assert_eq!(v.get("scale_den").unwrap().as_u64(), Some(16));
        let parsed = ebcp_harness::json::parse(&v.to_json_pretty()).unwrap();
        let back = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].get("workload").unwrap().as_str(), Some("database"));
        assert!((back[0].get("mips").unwrap().as_f64().unwrap() - 25.0).abs() < 1e-9);
        let sw = parsed.get("sweep").unwrap().as_arr().unwrap();
        assert_eq!(sw.len(), 1);
        assert_eq!(sw[0].get("prefetchers").unwrap().as_u64(), Some(4));
        assert!(sw[0].get("stepped_ms").is_none(), "no stepping half");
        assert!(parsed.get("sweep_geomean_speedup").is_none());
        let g = parsed.get("sweep_geomean_mips").unwrap().as_f64().unwrap();
        assert!((g - 100.0).abs() < 1e-9);
        let ls = parsed.get("lockstep").unwrap().as_arr().unwrap();
        assert_eq!(ls.len(), 1);
        assert!((ls[0].get("speedup").unwrap().as_f64().unwrap() - 4.0).abs() < 1e-9);
        let lg = parsed
            .get("lockstep_geomean_mips")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((lg - 400.0).abs() < 1e-9);
        let cm = parsed.get("cmp").unwrap().as_arr().unwrap();
        assert_eq!(cm.len(), 1);
        assert_eq!(cm[0].get("cores").unwrap().as_u64(), Some(4));
        assert!((cm[0].get("mips").unwrap().as_f64().unwrap() - 800.0).abs() < 1e-9);
        let cg = parsed.get("cmp_geomean_mips").unwrap().as_f64().unwrap();
        assert!((cg - 800.0).abs() < 1e-9);
    }

    #[test]
    fn gate_refuses_a_baseline_at_another_scale() {
        let cells = |scale| {
            to_json(
                scale,
                &[row(40.0)],
                &[sweep_row(100.0)],
                &[lockstep_row(400.0, 4.0)],
                &[cmp_row(800.0)],
            )
        };
        let quick = cells(Scale::quick());
        let passed = gate::check(&quick, &quick, &gate::THROUGHPUT).unwrap();
        assert_eq!(passed.len(), 4, "every gate reads the document");
        // Den-4 Minst/s against a den-16 baseline is a configuration
        // error, not a pass or a regression.
        let err = gate::check(&cells(Scale::standard()), &quick, &gate::THROUGHPUT).unwrap_err();
        assert!(err.contains("scale_den"), "{err}");
    }

    #[test]
    fn render_lists_every_cell() {
        let s = render(&[row(25.0)]);
        assert!(s.contains("database"));
        assert!(s.contains("geomean"));
        let sw = render_sweep(&[sweep_row(100.0)]);
        assert!(sw.contains("database"));
        assert!(sw.contains("100.0"));
        let ls = render_lockstep(&[lockstep_row(400.0, 4.0)]);
        assert!(ls.contains("database"));
        assert!(ls.contains("4.00x"));
        assert!(ls.starts_with(
            "Lockstep throughput (one pass over the shared stream drives every lane)\n"
        ));
        let cm = render_cmp(&[cmp_row(800.0)]);
        assert!(cm.contains("ebcp"));
        assert!(cm.contains("chip-wide"));
    }

    #[test]
    fn event_mix_covers_every_record() {
        // The histogram partitions each workload's trace: inert + the
        // data/control kinds (ifetch-miss overlays, so it is excluded
        // from the partition) must sum to the record count exactly.
        let scale = Scale::quick();
        let rows = event_mix(scale);
        for w in scale.workloads_all() {
            let spec = scale.run_spec(&w, scale.machine());
            let total = spec.warmup_insts + spec.measure_insts;
            let partition: u64 = rows
                .iter()
                .filter(|r| r.workload == w.name && r.kind != "+ifetch-miss")
                .map(|r| r.count)
                .sum();
            assert_eq!(partition, total, "{} partition", w.name);
            // A real workload has inert records and load misses.
            let get = |kind: &str| {
                rows.iter()
                    .find(|r| r.workload == w.name && r.kind == kind)
                    .unwrap()
                    .count
            };
            assert!(get("inert") > 0, "{} inert", w.name);
            assert!(get("load-miss") > 0, "{} load-miss", w.name);
        }
        assert_eq!(rows.len(), scale.workloads_all().len() * EVENT_KINDS.len());
        let table = render_event_mix(&rows);
        assert!(table.contains("inert"));
        assert!(table.contains('%'));
    }

    #[test]
    fn roster_names() {
        let names: Vec<String> = roster(Scale::quick()).iter().map(|p| p.name()).collect();
        assert_eq!(names, ["none", "stream", "ghb-large", "ebcp"]);
    }

    #[test]
    fn sweep_roster_covers_every_registered_prefetcher() {
        let scale = Scale::quick();
        let names: Vec<String> = sweep_roster(scale).iter().map(|p| p.name()).collect();
        // Every figure-9 and modern registry entry appears by name.
        for (name, _) in scale.figure9_roster() {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
        for (name, _) in scale.modern_roster() {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
        // The filtered compositions ride along.
        for name in ["ebcp", "ebcp-minus", "ebcp+nof", "stream+nof"] {
            assert!(names.iter().any(|n| n == name), "missing {name}");
        }
        // Dedup by name held.
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len());
    }
}
