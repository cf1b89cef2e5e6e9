//! The per-layer ledger of a traced run: each layer's public entry
//! points timed from outside, on quick-scale inputs made from the run's
//! seed. Comparisons between two ways of doing the same work run
//! interleaved, alternating which side goes first, and report the
//! median and spread of each side.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ebcp_bench::throughput::sweep_roster;
use ebcp_harness::{
    json, preres, results_doc_cmp, traces, Event, Harness, HarnessConfig, Job, ResultStore, Scale,
};
use ebcp_mem::SetAssocCache;
use ebcp_serve::proto;
use ebcp_sim::frontend::ResolvedOp;
use ebcp_sim::{
    run_preresolved_blocks, segment_events, Engine, PreEvent, PreResolved, PreResolver,
    PrefetcherSpec, RunSpec, SimResult,
};
use ebcp_trace::{Backing, TraceGenerator, WorkloadSpec};

use crate::spans::{SpanId, Tracer};
use crate::stats::{median, spread};
use crate::workloads::WORKERS;
use crate::{Args, Report};

/// Interleaved repetitions of every timed comparison.
const REPEATS: usize = 3;

/// Segment length of the block-format measurements, in trace records.
const SEG_RECORDS: u64 = 1 << 16;

/// Passes over the grid for the per-cell serve costs.
const SERVE_PASSES: usize = 20;

/// Metric-name form of a prefetcher name (`solihin-3,2` becomes
/// `solihin-3_2`, `ebcp+nof` becomes `ebcp_nof`).
fn key(name: &str) -> String {
    name.replace([',', '+'], "_")
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The order of an interleaved comparison's sides in repetition `rep`.
fn order<const N: usize>(rep: usize) -> [usize; N] {
    let mut sides = [0; N];
    for (i, s) in sides.iter_mut().enumerate() {
        *s = if rep.is_multiple_of(2) { i } else { N - 1 - i };
    }
    sides
}

/// Runs the ledger, appending its metrics and checks to `r`.
pub fn run(args: &Args, tracer: &Tracer, root: SpanId, r: &mut Report) {
    let scale = Scale {
        seed: args.seed,
        ..Scale::quick()
    };
    let roster = sweep_roster(scale);
    let none = roster
        .iter()
        .position(|p| *p == PrefetcherSpec::None)
        .expect("the roster has the no-prefetch baseline");
    let specs: Vec<RunSpec> = scale
        .workloads_all()
        .iter()
        .map(|w| scale.run_spec(w, scale.machine()))
        .collect();
    let db = specs
        .iter()
        .position(|s| s.workload.name == "database")
        .expect("the database preset");

    // Trace generation and the front end, timed chunk by chunk.
    let span = tracer.open("ledger-frontend", Some(root));
    let (mut gen_ns, mut fe_ns, mut records) = (0, 0, 0u64);
    let pres: Vec<PreResolved> = specs
        .iter()
        .map(|spec| {
            let mut gen = TraceGenerator::new(&spec.workload, spec.seed);
            let mut pr = PreResolver::new(&spec.sim);
            let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
            let mut left = spec.warmup_insts + spec.measure_insts;
            while left > 0 {
                let want = (Engine::CHUNK_RECORDS as u64).min(left) as usize;
                let (got, ns) =
                    tracer.time("trace.gen", Some(span), || gen.next_chunk(&mut chunk, want));
                gen_ns += ns;
                if got == 0 {
                    break;
                }
                fe_ns += tracer
                    .time("frontend.push_chunk", Some(span), || pr.push_chunk(&chunk))
                    .1;
                left -= got as u64;
                records += got as u64;
            }
            let (pre, ns) = tracer.time("frontend.finish", Some(span), || pr.finish());
            fe_ns += ns;
            pre
        })
        .collect();
    tracer.close(span);
    r.check(
        pres[db].events == specs[db].pre_resolve().events,
        "chunk-timed pre-resolution differs from RunSpec::pre_resolve",
    );
    let events: Vec<u64> = pres.iter().map(|p| p.events.len() as u64).collect();
    let all_events: u64 = events.iter().sum();
    r.metric(
        "trace.gen_ns_per_record",
        gen_ns as f64 / records as f64,
        "ns",
    );
    r.metric(
        "frontend.ns_per_record",
        fe_ns as f64 / records as f64,
        "ns",
    );
    r.metric(
        "frontend.events_per_krecord",
        all_events as f64 * 1e3 / records as f64,
        "count",
    );

    // Replay: lockstep against serial per workload; on database also
    // pre-resolve + serial replay, the baseline's other sweep cell.
    let span = tracer.open("ledger-replay", Some(root));
    let mut lane_ns: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); roster.len()]; specs.len()];
    let mut serial_results: Vec<Vec<SimResult>> = Vec::new();
    for (w, (spec, pre)) in specs.iter().zip(&pres).enumerate() {
        let name = &spec.workload.name;
        let (mut serial, mut lockstep, mut fresh) = (Vec::new(), Vec::new(), Vec::new());
        let (mut serial_out, mut lockstep_out) = (Vec::new(), Vec::new());
        for rep in 0..REPEATS {
            for side in order::<3>(rep) {
                match side {
                    0 => {
                        let (lanes, ns) = tracer.time("replay.lockstep", Some(span), || {
                            spec.run_preresolved_many(pre, &roster)
                        });
                        lockstep.push(ms(ns));
                        lockstep_out = lanes;
                    }
                    1 => {
                        let all = tracer.open("replay.serial", Some(span));
                        serial_out = roster
                            .iter()
                            .enumerate()
                            .map(|(k, pf)| {
                                let (res, ns) = tracer.time("replay.lane", Some(all), || {
                                    spec.run_preresolved(pre, pf)
                                });
                                lane_ns[w][k].push(ns as f64);
                                res
                            })
                            .collect();
                        serial.push(ms(tracer.close(all)));
                    }
                    _ if w == db => {
                        let ((), ns) = tracer.time("frontend+replay.serial", Some(span), || {
                            let pre = spec.pre_resolve();
                            for pf in &roster {
                                std::hint::black_box(spec.run_preresolved(&pre, pf));
                            }
                        });
                        fresh.push(ms(ns));
                    }
                    _ => {}
                }
            }
        }
        r.check(
            lockstep_out.len() == serial_out.len()
                && lockstep_out
                    .iter()
                    .zip(&serial_out)
                    .all(|(l, s)| l.as_ref() == Ok(s)),
            &format!("{name}: a lockstep lane differs from its serial replay"),
        );
        r.metric(format!("lockstep.{name}.serial_ms"), median(&serial), "ms");
        r.metric(
            format!("lockstep.{name}.serial_spread"),
            spread(&serial),
            "ratio",
        );
        r.metric(
            format!("lockstep.{name}.lockstep_ms"),
            median(&lockstep),
            "ms",
        );
        r.metric(
            format!("lockstep.{name}.lockstep_spread"),
            spread(&lockstep),
            "ratio",
        );
        r.metric(
            format!("lockstep.{name}.speedup_vs_serial"),
            median(&serial) / median(&lockstep),
            "x",
        );
        r.metric(
            format!("replay.{name}.ns_per_event"),
            median(&lane_ns[w][none]) / events[w] as f64,
            "ns",
        );
        if w == db {
            r.metric("compare.database.replay_only_ms", median(&serial), "ms");
            r.metric(
                "compare.database.replay_only_spread",
                spread(&serial),
                "ratio",
            );
            r.metric(
                "compare.database.preresolve_replay_ms",
                median(&fresh),
                "ms",
            );
            r.metric(
                "compare.database.preresolve_replay_spread",
                spread(&fresh),
                "ratio",
            );
        }
        serial_results.push(serial_out);
    }
    tracer.close(span);

    // Prefetcher cost over the no-prefetch replay, and usefulness.
    for (k, pf) in roster.iter().enumerate().filter(|&(k, _)| k != none) {
        let over: f64 = (0..specs.len())
            .map(|w| median(&lane_ns[w][k]) - median(&lane_ns[w][none]))
            .sum();
        let (issued, useful, insts) = serial_results
            .iter()
            .map(|rs| &rs[k])
            .fold((0, 0, 0), |(i, u, n), s| {
                (i + s.pf_issued, u + s.pf_useful(), n + s.insts)
            });
        let name = key(&pf.name());
        r.metric(
            format!("prefetch.{name}.ns_per_event_over_none"),
            over / all_events as f64,
            "ns",
        );
        r.metric(
            format!("prefetch.{name}.issued_per_kinst"),
            issued as f64 * 1e3 / insts.max(1) as f64,
            "count",
        );
        r.metric(
            format!("prefetch.{name}.accuracy"),
            useful as f64 / issued.max(1) as f64,
            "ratio",
        );
    }

    // L2 probes at the machine's L2 geometry, fed database's probe
    // lines (instruction-fetch and data misses of the L1s).
    let lines: Vec<_> = pres[db]
        .events
        .iter()
        .filter_map(PreEvent::decode)
        .flat_map(|ev| {
            let data = match ev.op {
                ResolvedOp::LoadMiss { line, .. } | ResolvedOp::StoreMiss { line } => Some(line),
                _ => None,
            };
            ev.ifetch_miss.then(|| ev.pc.line()).into_iter().chain(data)
        })
        .collect();
    let probe: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut cache = SetAssocCache::new(scale.machine().l2);
            let (hits, ns) = tracer.time("mem.l2_probe", Some(root), || {
                lines.iter().filter(|&&l| cache.access(l)).count()
            });
            std::hint::black_box(hits);
            ns as f64 / lines.len().max(1) as f64
        })
        .collect();
    r.metric("mem.l2_probe_ns", median(&probe), "ns");

    // The discrete-event CMP engine on the database mix.
    for cores in [1usize, 2, 4, 8] {
        let spec = scale.cmp_spec(&WorkloadSpec::database(), cores);
        let streams = spec.pre_resolve_cores();
        let refs: Vec<&PreResolved> = streams.iter().collect();
        let chip_records = (spec.warmup_insts + spec.measure_insts) * cores as u64;
        let name = format!("des.c{cores}");
        let ns: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let (res, ns) = tracer.time(&name, Some(root), || {
                    spec.run_streams(&refs, &PrefetcherSpec::None)
                });
                std::hint::black_box(res);
                ns as f64 / chip_records as f64
            })
            .collect();
        r.metric(format!("{name}.ns_per_record"), median(&ns), "ns");
    }

    // Block-at-a-time against monolithic replay of one stream.
    let blocks = segment_events(&pres[db], SEG_RECORDS);
    let (mut mono, mut seg) = (Vec::new(), Vec::new());
    let (mut mono_out, mut seg_out) = (None, None);
    for rep in 0..REPEATS {
        for side in order::<2>(rep) {
            if side == 0 {
                let (res, ns) = tracer.time("replay.monolithic", Some(root), || {
                    specs[db].run_preresolved(&pres[db], &PrefetcherSpec::None)
                });
                mono.push(ns as f64);
                mono_out = Some(res);
            } else {
                let (res, ns) = tracer.time("replay.blocks", Some(root), || {
                    run_preresolved_blocks(&specs[db], &blocks, &PrefetcherSpec::None)
                });
                seg.push(ns as f64);
                seg_out = Some(res);
            }
        }
    }
    r.check(
        mono_out == seg_out,
        "block replay differs from monolithic replay",
    );
    r.metric(
        "segment.block_overhead_pct",
        (median(&seg) / median(&mono) - 1.0) * 100.0,
        "%",
    );

    // Segmented trace files: open (verify) and read back every record.
    let store = args.work.join("ledger");
    let spec = &specs[db];
    let written = traces::generate(&store, spec, SEG_RECORDS).unwrap_or(0);
    r.check(
        written == spec.warmup_insts + spec.measure_insts,
        "writing the segmented trace failed",
    );
    let read: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (n, ns) = tracer.time("trace.segfile_read", Some(root), || {
                let Ok(mut t) =
                    traces::open_or_generate(&store, spec, SEG_RECORDS, Backing::Mmap, |_, _| {})
                else {
                    return 0;
                };
                let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
                let mut n = 0u64;
                loop {
                    let got = t.next_chunk(&mut chunk, Engine::CHUNK_RECORDS);
                    if got == 0 {
                        break n;
                    }
                    n += got as u64;
                }
            });
            r.check(n == written, "the segmented trace read back short");
            ns as f64 / n.max(1) as f64
        })
        .collect();
    r.metric("trace.segfile_read_ns_per_record", median(&read), "ns");

    // Pre-resolved block streams: write, verify-open, read blocks.
    let job = Job::new(spec.clone(), PrefetcherSpec::None);
    let mib = events[db] as f64 * 24.0 / f64::from(1 << 20);
    let (mut write, mut open, mut block) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (ok, ns) = tracer.time("preres.write", Some(root), || -> std::io::Result<()> {
            let mut w = preres::PreresWriter::create(&store, &job, SEG_RECORDS)?;
            for b in &blocks {
                w.push_block(&b.events, b.records)?;
            }
            w.finish()
        });
        r.check(ok.is_ok(), "writing the pre-resolved stream failed");
        write.push(ms(ns) / mib);
        let (stream, ns) = tracer.time("preres.open_verify", Some(root), || {
            preres::open_stream_checked(&store, &job)
        });
        open.push(ms(ns) / mib);
        let Some(mut stream) = stream.into_hit() else {
            r.check(false, "the pre-resolved stream failed to verify");
            continue;
        };
        let (back, ns) = tracer.time("preres.block_read", Some(root), || {
            (0..stream.n_segments())
                .map(|k| stream.block(k))
                .collect::<std::io::Result<Vec<_>>>()
        });
        block.push(ns as f64 / events[db] as f64);
        r.check(
            back.is_ok_and(|back| {
                back.len() == blocks.len()
                    && back
                        .iter()
                        .zip(&blocks)
                        .all(|(a, b)| a.events == b.events && a.records == b.records)
            }),
            "pre-resolved blocks read back differently",
        );
    }
    r.metric("preres.write_ms_per_mib", median(&write), "ms/MiB");
    r.metric("preres.open_verify_ms_per_mib", median(&open), "ms/MiB");
    r.metric("preres.block_read_ns_per_event", median(&block), "ns");

    // The result store: save and integrity-checked load of every cell.
    let cells: Vec<(Job, &SimResult)> = specs
        .iter()
        .zip(&serial_results)
        .flat_map(|(spec, results)| {
            roster
                .iter()
                .zip(results)
                .map(move |(pf, res)| (Job::new(spec.clone(), pf.clone()), res))
        })
        .collect();
    let results =
        ResultStore::open(store.join("results")).expect("the scratch directory is writable");
    let (mut save_ns, mut load_ns, mut same) = (0, 0, true);
    for (job, res) in &cells {
        let (ok, ns) = tracer.time("store.save", Some(root), || results.save(job, res));
        save_ns += ns;
        same &= ok.is_ok();
    }
    for (job, res) in &cells {
        let (back, ns) = tracer.time("store.load_checked", Some(root), || {
            results.load_checked(job)
        });
        load_ns += ns;
        same &= back.into_hit().is_some_and(|back| &back == *res);
    }
    r.check(same, "the result store lost or changed a result");
    r.metric(
        "store.save_us",
        save_ns as f64 / 1e3 / cells.len() as f64,
        "us",
    );
    r.metric(
        "store.load_checked_us",
        load_ns as f64 / 1e3 / cells.len() as f64,
        "us",
    );

    // The harness: one 5 x 15 batch on two workers, watched on its bus.
    // Each workload is one lockstep unit, so a unit's span runs from its
    // first JobStarted to its last JobFinished.
    let jobs: Vec<Job> = cells.iter().map(|(job, _)| job.clone()).collect();
    let h = Harness::new(HarnessConfig {
        jobs: WORKERS,
        ..HarnessConfig::default()
    });
    let rx = h.bus().subscribe();
    let n_jobs = jobs.len();
    let span = tracer.open("harness.batch", Some(root));
    let submitted = Instant::now();
    let (outcomes, seen) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut seen: Vec<(String, bool, Duration)> = Vec::new();
            let mut finished = 0;
            while finished < n_jobs {
                match rx.recv_timeout(Duration::from_secs(60)) {
                    Ok(Event::JobStarted { label }) => {
                        seen.push((label, true, submitted.elapsed()))
                    }
                    Ok(Event::JobFinished { label, .. } | Event::JobFailed { label, .. }) => {
                        finished += 1;
                        seen.push((label, false, submitted.elapsed()));
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            seen
        });
        let outcomes = h.run_outcomes(&jobs);
        (outcomes, collector.join().expect("bus collector thread"))
    });
    let wall = submitted.elapsed();
    tracer.close(span);
    r.check(
        outcomes
            .iter()
            .zip(&cells)
            .all(|(o, (_, res))| o.result() == Some(*res)),
        "the harness batch differs from the serial replays",
    );
    let waits: Vec<f64> = seen
        .iter()
        .filter(|(_, started, _)| *started)
        .map(|(_, _, t)| t.as_secs_f64() * 1e3)
        .collect();
    let mut units: HashMap<String, (Duration, Duration)> = HashMap::new();
    for (label, _, t) in &seen {
        let workload = label.split(" x ").next().unwrap_or(label).to_owned();
        let unit = units.entry(workload).or_insert((*t, *t));
        unit.0 = unit.0.min(*t);
        unit.1 = unit.1.max(*t);
    }
    let busy: f64 = units.values().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
    r.metric(
        "harness.queue_wait_ms",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        "ms",
    );
    r.metric(
        "harness.busy_share",
        busy / (wall.as_secs_f64() * WORKERS as f64),
        "ratio",
    );

    // The daemon's per-submit costs, on the same grid: memo lookups,
    // results-document reassembly, and one cell line's framing.
    let lookup: Vec<f64> = (0..SERVE_PASSES)
        .map(|_| {
            let (hits, ns) = tracer.time("serve.memo_lookup", Some(root), || {
                jobs.iter()
                    .filter(|j| h.cached_outcome(j).is_some())
                    .count()
            });
            std::hint::black_box(hits);
            ns as f64 / 1e3 / jobs.len() as f64
        })
        .collect();
    r.metric("serve.memo_lookup_us", median(&lookup), "us");
    let rows = h.result_rows();
    let doc: Vec<f64> = (0..SERVE_PASSES)
        .map(|_| {
            let (d, ns) = tracer.time("serve.results_doc", Some(root), || {
                results_doc_cmp(rows.len(), &rows, &[])
            });
            std::hint::black_box(d);
            ms(ns)
        })
        .collect();
    r.metric("serve.results_doc_ms", median(&doc), "ms");
    let mut framed = true;
    let frame: Vec<f64> = (0..SERVE_PASSES)
        .map(|_| {
            let (ok, ns) = tracer.time("serve.frame", Some(root), || {
                rows.iter().all(|row| {
                    let line = proto::resp_cell(row).to_json();
                    json::parse(&line)
                        .ok()
                        .and_then(|v| proto::parse_cell(&v).ok())
                        .is_some_and(|back| back.id == row.id && back.outcome == row.outcome)
                })
            });
            framed &= ok;
            ns as f64 / 1e3 / rows.len() as f64
        })
        .collect();
    r.check(framed, "a cell line did not survive framing");
    r.metric("serve.frame_us", median(&frame), "us");
}
