//! Component microbenchmarks: cache, prefetch buffer, correlation
//! table, trace generation, raw engine throughput and job hashing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ebcp_bench::service::serve_grid;
use ebcp_core::CorrelationTable;
use ebcp_harness::{CmpJob, Job, Scale};
use ebcp_mem::{CacheGeometry, PrefetchBuffer, SetAssocCache};
use ebcp_prefetch::NullPrefetcher;
use ebcp_sim::{Engine, SimConfig};
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

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    let spec = WorkloadSpec::database().scaled(1, 16);
    let trace: Vec<_> = TraceGenerator::new(&spec, 1).take(200_000).collect();
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("database_200k_insts_null_prefetcher", |b| {
        b.iter(|| {
            let mut engine = Engine::new(SimConfig::scaled_down(16), Box::new(NullPrefetcher));
            for rec in &trace {
                engine.step(rec);
            }
            engine.cycle()
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cache, bench_prefetch_buffer, bench_correlation_table, bench_generator, bench_engine,
        bench_job_ids
}
criterion_main!(benches);
