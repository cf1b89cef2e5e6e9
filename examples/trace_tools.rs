//! Trace tooling: generate a synthetic commercial workload, inspect its
//! statistics, and round-trip it through the segmented on-disk trace
//! container.
//!
//! ```text
//! cargo run --release --example trace_tools
//! ```

use ebcp::trace::{Backing, SegmentedTrace, TraceGenerator, TraceSink, TraceStats, WorkloadSpec};

fn main() {
    for spec in WorkloadSpec::all_presets() {
        let spec = spec.scaled(1, 16);
        let trace: Vec<_> = TraceGenerator::new(&spec, 42).take(200_000).collect();
        let stats = TraceStats::analyze(&trace);
        println!("== {} (1/16 scale, 200k records)", spec.name);
        println!("{stats}");
        println!(
            "mean cluster size {:.2} loads/epoch, recurrence interval ~{}k insts\n",
            spec.mean_cluster_size(),
            spec.recurrence_interval() / 1000
        );
    }

    // On-disk round-trip through the segmented container.
    let spec = WorkloadSpec::database().scaled(1, 32);
    let trace: Vec<_> = TraceGenerator::new(&spec, 1).take(50_000).collect();
    let dir = std::env::temp_dir().join(format!("ebcp-trace-tools-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("database.seg");
    let mut sink = TraceSink::create(&path, b"trace_tools", 16_384).expect("create");
    sink.push_chunk(&trace).expect("write");
    sink.finish().expect("publish");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    let mut back = Vec::with_capacity(trace.len());
    let mut chunk = Vec::new();
    let mut reader = SegmentedTrace::open(&path, b"trace_tools", Backing::Mmap).expect("open");
    while reader.next_chunk(&mut chunk, 4096) > 0 {
        back.extend_from_slice(&chunk);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(trace, back);
    println!(
        "segmented trace round-trip: {} records -> {} bytes ({:.1} B/record)",
        trace.len(),
        bytes,
        bytes as f64 / trace.len() as f64
    );
}
