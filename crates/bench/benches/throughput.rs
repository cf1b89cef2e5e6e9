//! Throughput bench: simulated Minst/s per workload × prefetcher at
//! quick scale, writing `BENCH_throughput.json` next to the other
//! benchmark outputs. Plain `main` (not Criterion) because each cell is
//! a single deliberately long timed run, and the JSON document — not a
//! statistical estimate — is the deliverable the CI gate consumes.

use ebcp_bench::{throughput, Scale};

fn main() {
    // `cargo bench` passes `--bench`; ignore any harness-style flags.
    let scale = Scale::quick();
    let rows = throughput::measure(scale);
    print!("{}", throughput::render(&rows));
    let lockstep = throughput::measure_lockstep(scale);
    let sweep = throughput::sweep_rows(&lockstep);
    println!();
    print!("{}", throughput::render_sweep(&sweep));
    println!();
    print!("{}", throughput::render_lockstep(&lockstep));
    let cmp = throughput::measure_cmp(scale);
    println!();
    print!("{}", throughput::render_cmp(&cmp));
    let doc = throughput::to_json(scale, &rows, &sweep, &lockstep, &cmp);
    let out = std::path::Path::new("target/ebcp-results");
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("warning: could not create {}: {e}", out.display());
        return;
    }
    let path = out.join("BENCH_throughput.json");
    match std::fs::write(&path, doc.to_json_pretty()) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
