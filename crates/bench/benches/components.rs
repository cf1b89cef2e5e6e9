//! Component microbenchmarks: cache, prefetch buffer, correlation
//! table, trace generation, raw engine throughput, the CMP DES beside
//! single-core replay, job hashing and warm reads from the result
//! store.

use std::cell::OnceCell;
use std::path::{Path, PathBuf};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ebcp_bench::service::serve_grid;
use ebcp_bench::throughput::sweep_roster;
use ebcp_core::CorrelationTable;
use ebcp_harness::{results_doc, CmpJob, Harness, HarnessConfig, Job, ResultStore, Scale};
use ebcp_mem::{CacheGeometry, PrefetchBuffer, SetAssocCache};
use ebcp_prefetch::NullPrefetcher;
use ebcp_serve::SweepSpec;
use ebcp_sim::{CmpSpec, Engine, PreResolved, PrefetcherSpec, ReplayCursor, SimConfig};
use ebcp_trace::{TraceGenerator, WorkloadSpec};
use ebcp_types::LineAddr;

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("l2_access_fill_mix", |b| {
        let mut cache = SetAssocCache::new(CacheGeometry::new(128 << 10, 4));
        let mut x: u64 = 1;
        b.iter(|| {
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let line = LineAddr::from_index(x >> 48);
                if !cache.access(line) {
                    cache.fill(line, x & 1 == 0);
                }
            }
        });
    });
    g.finish();
}

fn bench_prefetch_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefetch_buffer");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("insert_consume", |b| {
        let mut pb = PrefetchBuffer::new(64, 4);
        let mut x: u64 = 1;
        b.iter(|| {
            for _ in 0..10_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let line = LineAddr::from_index(x >> 52);
                if x & 1 == 0 {
                    pb.insert(line, x);
                } else {
                    let _ = pb.lookup_consume(line);
                }
            }
        });
    });
    g.finish();
}

fn bench_correlation_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("correlation_table");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("learn_lookup", |b| {
        let mut t = CorrelationTable::new(1 << 18, 8);
        let mut x: u64 = 1;
        b.iter(|| {
            for _ in 0..1_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let key = LineAddr::from_index((x >> 50) + 0x1000);
                let addrs: Vec<LineAddr> = (0..4)
                    .map(|k| LineAddr::from_index((x >> 40) + k))
                    .collect();
                t.learn(key, &addrs);
                let _ = t.lookup(key);
            }
        });
    });
    g.finish();
}

fn bench_generator(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_generator");
    let spec = WorkloadSpec::database().scaled(1, 16);
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("database_100k_records", |b| {
        b.iter_batched(
            || TraceGenerator::new(&spec, 1),
            |mut gen| gen.collect_n(100_000),
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// The back end alone: one engine replaying a stream pre-resolved
/// outside the timed region.
fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let spec = WorkloadSpec::database().scaled(1, 16);
    let cfg = SimConfig::scaled_down(16);
    let trace: Vec<_> = TraceGenerator::new(&spec, 1).take(200_000).collect();
    let pre = PreResolved::from_records(&cfg, &trace);
    g.throughput(Throughput::Elements(pre.records));
    g.bench_function("database_200k_insts_null_prefetcher", |b| {
        b.iter(|| {
            let mut engine = Engine::new(cfg, Box::new(NullPrefetcher));
            engine.replay_events(&pre.events, &mut ReplayCursor::default(), pre.records);
            engine.cycle()
        });
    });
    g.finish();
}

/// One serve-grid CMP mix at 1, 2 and 4 cores, streams pre-resolved.
/// The 1-core cell is core 0 of the 2-core cell, on the same stream.
struct DesCell {
    one: CmpSpec,
    two: CmpSpec,
    four: CmpSpec,
    pre2: Vec<PreResolved>,
    pre4: Vec<PreResolved>,
}

/// The discrete-event CMP engine against single-core replay, on the
/// serve grid's CMP cells (every quick-scale workload mix, no
/// prefetcher, streams pre-resolved outside the timed region). Each
/// iteration runs all five workloads; throughput counts chip-wide
/// records. `replay_core0` and `des_1core` replay the same stream,
/// core 0's of the 2-core cell, so their ratio is the DES's per-record
/// scheduling cost; `des_2core` and `des_4core` run the 2- and 4-core
/// cells.
fn bench_des(c: &mut Criterion) {
    let scale = Scale::quick();
    let cells: Vec<DesCell> = WorkloadSpec::extended_presets()
        .iter()
        .map(|w| {
            let two = scale.cmp_spec(w, 2);
            let four = scale.cmp_spec(w, 4);
            let one = CmpSpec {
                workloads: two.workloads[..1].to_vec(),
                seeds: two.seeds[..1].to_vec(),
                ..two.clone()
            };
            let (pre2, pre4) = (two.pre_resolve_cores(), four.pre_resolve_cores());
            DesCell {
                one,
                two,
                four,
                pre2,
                pre4,
            }
        })
        .collect();
    let records = |streams: fn(&DesCell) -> &[PreResolved]| {
        Throughput::Elements(
            cells
                .iter()
                .flat_map(|c| streams(c).iter().map(|p| p.records))
                .sum(),
        )
    };
    let none = PrefetcherSpec::None;
    let mut g = c.benchmark_group("des");
    g.throughput(records(|c| &c.pre2[..1]));
    g.bench_function("replay_core0", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|c| c.two.core_run_spec(0).run_preresolved(&c.pre2[0], &none))
                .collect::<Vec<_>>()
        });
    });
    g.bench_function("des_1core", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|c| c.one.run_streams(&[&c.pre2[0]], &none))
                .collect::<Vec<_>>()
        });
    });
    g.throughput(records(|c| &c.pre2));
    g.bench_function("des_2core", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|c| c.two.run_streams(&c.pre2.iter().collect::<Vec<_>>(), &none))
                .collect::<Vec<_>>()
        });
    });
    g.throughput(records(|c| &c.pre4));
    g.bench_function("des_4core", |b| {
        b.iter(|| {
            cells
                .iter()
                .map(|c| {
                    c.four
                        .run_streams(&c.pre4.iter().collect::<Vec<_>>(), &none)
                })
                .collect::<Vec<_>>()
        });
    });
    g.finish();
}

/// Hashing the 150-cell serve grid (75 jobs, 75 two-core CMP cells),
/// as each end of a submit does: one full canonical-string hash per
/// cell, against one spec prefix per run of equal specs.
fn bench_job_ids(c: &mut Criterion) {
    let grid = serve_grid(Scale::quick());
    let jobs = grid.jobs().expect("the serve grid expands");
    let cmp = grid.cmp_jobs().expect("the serve grid expands");
    let mut g = c.benchmark_group("job_ids");
    g.sample_size(50);
    g.throughput(Throughput::Elements((jobs.len() + cmp.len()) as u64));
    g.bench_function("per_job_id_serve_grid", |b| {
        b.iter(|| {
            let ids: Vec<_> = jobs.iter().map(Job::id).collect();
            let cmp_ids: Vec<_> = cmp.iter().map(CmpJob::id).collect();
            (ids, cmp_ids)
        });
    });
    g.bench_function("batch_ids_serve_grid", |b| {
        b.iter(|| (Job::ids(&jobs), CmpJob::ids(&cmp)));
    });
    g.finish();
}

/// A two-worker harness over the store at `dir`.
fn store_harness(dir: &Path) -> Harness {
    Harness::new(HarnessConfig {
        jobs: 2,
        store_dir: Some(dir.to_path_buf()),
        ..HarnessConfig::default()
    })
}

/// A scratch store directory holding every result of `jobs` and `cmp`,
/// simulated once.
fn warm_store(tag: &str, jobs: &[Job], cmp: &[CmpJob]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ebcp-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let h = store_harness(&dir);
    h.run(jobs);
    h.run_cmp(cmp);
    dir
}

/// Warm answers from the result store. On the serve grid (75 jobs, 75
/// two-core CMP cells): one integrity-checked load per cell, against a
/// fresh harness resolving the whole grid from the store (store open,
/// classify, probe, fold). On the 30-cell grid of perfbench's
/// `long-trace-cached` (database and graph at 3x quick length, seed
/// 11): a fresh harness's warm re-sweep, and the pretty `results.json`
/// document of its rows.
fn bench_store_reads(c: &mut Criterion) {
    // Each store is simulated on first use, so a bench name filter that
    // selects none of this group skips the simulations too.
    let serve_cell = OnceCell::new();
    let serve = || {
        serve_cell.get_or_init(|| {
            let grid = serve_grid(Scale::quick());
            let jobs = grid.jobs().expect("the serve grid expands");
            let cmp = grid.cmp_jobs().expect("the serve grid expands");
            let dir = warm_store("serve", &jobs, &cmp);
            (jobs, cmp, dir)
        })
    };
    let long_cell = OnceCell::new();
    let long = || {
        long_cell.get_or_init(|| {
            let q = Scale::quick();
            let jobs = SweepSpec {
                workloads: vec!["database".into(), "graph".into()],
                prefetchers: sweep_roster(q).iter().map(PrefetcherSpec::name).collect(),
                cores: Vec::new(),
                scale: Scale {
                    warm_tenths: q.warm_tenths * 3,
                    measure_tenths: q.measure_tenths * 3,
                    seed: 11,
                    ..q
                },
            }
            .jobs()
            .expect("the roster names resolve");
            let dir = warm_store("long", &jobs, &[]);
            (jobs, dir)
        })
    };

    let mut g = c.benchmark_group("store_reads");
    g.sample_size(30);
    g.bench_function("per_cell_load_checked_serve_grid", |b| {
        let (jobs, cmp, dir) = serve();
        let store = ResultStore::open(dir).expect("the store opens");
        b.iter(|| {
            let hits = jobs
                .iter()
                .filter_map(|j| store.load_checked(j).into_hit())
                .count();
            hits + cmp
                .iter()
                .filter_map(|j| store.load_checked_cmp(j).into_hit())
                .count()
        });
    });
    g.bench_function("batch_resolve_serve_grid", |b| {
        let (jobs, cmp, dir) = serve();
        b.iter(|| {
            let h = store_harness(dir);
            (h.run_outcomes(jobs), h.run_cmp_outcomes(cmp))
        });
    });
    g.bench_function("batch_resolve_long_grid", |b| {
        let (jobs, dir) = long();
        b.iter(|| store_harness(dir).run_outcomes(jobs));
    });
    g.bench_function("results_doc_pretty_long_grid", |b| {
        let (jobs, dir) = long();
        let h = store_harness(dir);
        h.run_outcomes(jobs);
        assert_eq!(h.summary().executed, 0, "the long grid reads warm");
        let rows = h.result_rows();
        b.iter(|| results_doc(jobs.len(), &rows).to_json_pretty());
    });
    g.finish();
    let dirs = [
        serve_cell.get().map(|s| &s.2),
        long_cell.get().map(|l| &l.1),
    ];
    for dir in dirs.into_iter().flatten() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cache, bench_prefetch_buffer, bench_correlation_table, bench_generator, bench_engine,
        bench_des, bench_job_ids, bench_store_reads
}
criterion_main!(benches);
