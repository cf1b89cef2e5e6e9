//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <table1|fig4|fig5|fig6|fig7|fig8|fig9|ablation|cmp|cmp-bw|all|bench-throughput>
//!       [--scale quick|standard|full] [--csv] [--jobs N] [--cores 1,2,4]
//!       [--out-dir DIR] [--json] [--no-cache] [--keep-going]
//!       [--check-baseline FILE] [--event-mix]
//! repro serve   [--addr HOST:PORT] [--unix PATH] [--jobs N] [--depth N]
//!               [--out-dir DIR] [--no-cache]
//! repro submit  --addr ADDR [--workloads a,b] [--prefetchers x,y]
//!               [--cores 1,2,4] [--scale S] [--out FILE] [--retries N]
//! repro sweep   [--workloads a,b] [--prefetchers x,y] [--cores 1,2,4]
//!               [--scale S] [--jobs N] [--out FILE] [--out-dir DIR] [--no-cache]
//! repro status --addr ADDR
//! repro shutdown --addr ADDR
//! repro bench-serve [--scale S] [--out-dir DIR]
//! ```
//!
//! All simulations flow through one `Harness`: shared baselines run once
//! across figures, results are cached under `<out-dir>/jobs/` so re-runs
//! are incremental, and a consolidated `<out-dir>/results.json` is
//! written at the end. Tables go to stdout (byte-identical for any
//! `--jobs` count); progress and timing go to stderr.
//!
//! **Failure semantics.** A job that panics is retried once and, if it
//! fails again, recorded as failed without disturbing sibling jobs
//! (their results stay cached). By default (strict mode) the first
//! experiment containing a failed job stops the run; with
//! `--keep-going` the remaining experiments still execute. Either way
//! the process prints a failure summary naming every failed cell,
//! writes `results.json` (failed cells carry `"outcome": "failed"` and
//! the panic message), and exits with status 1. Exit status 2 means a
//! usage error; 0 means every job succeeded.
//!
//! **Service mode.** `repro serve` runs the sweep daemon (stop it with
//! SIGTERM or `repro shutdown`); `repro submit` sends a named grid to a
//! daemon and writes a `results.json` byte-identical to `repro sweep`
//! (the same grid run locally). Service commands exit `3` when the
//! daemon is unreachable or the sweep stays refused; `1` keeps meaning
//! failed cells.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ebcp_bench::{
    experiments, gate, report, service, throughput, tracescale, Harness, HarnessConfig, Scale,
};
use ebcp_harness::Value;

fn usage() -> ! {
    eprintln!(
        "usage: repro <table1|fig4|fig5|fig6|fig7|fig8|fig9|ablation|cmp|cmp-bw|all|bench-throughput|bench-trace-scale> \
         [--scale quick|standard|full|large] [--csv] [--jobs N] [--cores 1,2,4] [--out-dir DIR] [--json] \
         [--no-cache] [--keep-going] [--check-baseline FILE] [--event-mix] \
         [--mem-budget BYTES[k|m|g]] [--trace-store]\n\
         \x20      repro <serve|submit|sweep|status|shutdown|bench-serve> \
         [--addr HOST:PORT] [--unix PATH] [--depth N] [--workloads a,b] [--prefetchers x,y] \
         [--cores 1,2,4] [--out FILE] [--retries N]\n\
         \x20      repro status  # no --addr: local store footprint under <out-dir>/jobs"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what: Option<String> = None;
    let mut scale = Scale::standard();
    let mut csv = false;
    let mut jobs = 0usize; // 0 = available_parallelism
    let mut out_dir = PathBuf::from("target/ebcp-results");
    let mut json = false;
    let mut no_cache = false;
    let mut keep_going = false;
    let mut check_baseline: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut depth = 1024usize;
    let mut workloads: Vec<String> = Vec::new();
    let mut prefetchers: Vec<String> = Vec::new();
    let mut cores: Vec<u64> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut retries = 5u32;
    let mut event_mix = false;
    let mut mem_budget: Option<u64> = None;
    let mut trace_store = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = Scale::parse(v).unwrap_or_else(|| usage());
            }
            "--csv" => csv = true,
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| usage());
                jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--out-dir" => {
                let v = it.next().unwrap_or_else(|| usage());
                out_dir = PathBuf::from(v);
            }
            "--json" => json = true,
            "--no-cache" => no_cache = true,
            "--keep-going" => keep_going = true,
            "--check-baseline" => {
                let v = it.next().unwrap_or_else(|| usage());
                check_baseline = Some(PathBuf::from(v));
            }
            "--addr" => {
                let v = it.next().unwrap_or_else(|| usage());
                addr = Some(v.clone());
            }
            "--unix" => {
                let v = it.next().unwrap_or_else(|| usage());
                unix = Some(PathBuf::from(v));
            }
            "--depth" => {
                let v = it.next().unwrap_or_else(|| usage());
                depth = v.parse().unwrap_or_else(|_| usage());
            }
            "--workloads" => {
                let v = it.next().unwrap_or_else(|| usage());
                workloads = service::parse_list(v);
            }
            "--prefetchers" => {
                let v = it.next().unwrap_or_else(|| usage());
                prefetchers = service::parse_prefetchers(v);
            }
            "--cores" => {
                let v = it.next().unwrap_or_else(|| usage());
                cores = service::parse_list(v)
                    .iter()
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if cores.iter().any(|&n| n == 0 || n > 64) {
                    eprintln!("error: --cores values must be 1..=64");
                    std::process::exit(2);
                }
            }
            "--event-mix" => event_mix = true,
            "--mem-budget" => {
                let v = it.next().unwrap_or_else(|| usage());
                mem_budget = Some(service::parse_bytes(v).unwrap_or_else(|| usage()));
            }
            "--trace-store" => trace_store = true,
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage());
                out = Some(PathBuf::from(v));
            }
            "--retries" => {
                let v = it.next().unwrap_or_else(|| usage());
                retries = v.parse().unwrap_or_else(|_| usage());
            }
            s if what.is_none() && !s.starts_with('-') => what = Some(s.to_owned()),
            _ => usage(),
        }
    }
    let what = what.unwrap_or_else(|| usage());
    let t0 = Instant::now();

    // Service commands: thin wrappers that exit with the returned code.
    {
        let grid = service::GridArgs {
            workloads,
            prefetchers,
            cores: cores.clone(),
            scale,
        };
        let store_dir = || {
            if no_cache {
                None
            } else {
                Some(out_dir.join("jobs"))
            }
        };
        let need_addr = || {
            addr.clone().unwrap_or_else(|| {
                eprintln!("error: {what} requires --addr (e.g. --addr 127.0.0.1:3772)");
                std::process::exit(2);
            })
        };
        let mem = service::MemArgs {
            budget_bytes: mem_budget,
            trace_store,
        };
        let code = match what.as_str() {
            "serve" => Some(service::cmd_serve(
                addr.clone(),
                unix.clone(),
                jobs,
                depth,
                store_dir(),
                mem,
            )),
            "submit" => {
                let out = out.clone().unwrap_or_else(|| out_dir.join("results.json"));
                Some(service::cmd_submit(
                    &need_addr(),
                    &grid.to_spec(),
                    &out,
                    retries,
                ))
            }
            "sweep" => {
                let out = out.clone().unwrap_or_else(|| out_dir.join("results.json"));
                Some(service::cmd_sweep_local(
                    &grid.to_spec(),
                    jobs,
                    store_dir(),
                    mem,
                    &out,
                ))
            }
            // With --addr, ask the daemon; without, report the local
            // store's on-disk footprint.
            "status" => Some(match &addr {
                Some(a) => service::cmd_status(a),
                None => service::cmd_status_local(store_dir().as_deref()),
            }),
            "shutdown" => Some(service::cmd_shutdown(&need_addr())),
            "bench-serve" => Some(service::bench_serve(&out_dir, scale)),
            _ => None,
        };
        if let Some(code) = code {
            eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
            std::process::exit(code);
        }
    }

    // Trace-scale cells are timing-sensitive too: same contract as
    // bench-throughput below. `--scale large` selects the ~100× tier
    // (streamed modes only); any other scale times monolithic and
    // segmented.
    if what == "bench-trace-scale" {
        bench_trace_scale(scale, &out_dir, check_baseline.as_deref());
        eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
        return;
    }

    // Throughput is timing-sensitive: it bypasses the caching harness
    // (a memoized result has no wall time) and exits before the
    // results.json machinery below.
    if what == "bench-throughput" {
        if event_mix {
            // Histogram only: deterministic stream decomposition, no
            // timed cells — fast enough to run on every curiosity.
            print!(
                "{}",
                throughput::render_event_mix(&throughput::event_mix(scale))
            );
        } else {
            bench_throughput(scale, &out_dir, check_baseline.as_deref());
        }
        eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());
        return;
    }

    // Cached results are keyed by job content (workload, scale, machine,
    // prefetcher), so one jobs/ directory safely serves every scale.
    let h = Harness::new(HarnessConfig {
        jobs,
        store_dir: if no_cache {
            None
        } else {
            Some(out_dir.join("jobs"))
        },
        progress: true,
        mem_budget_bytes: mem_budget.unwrap_or(HarnessConfig::default().mem_budget_bytes),
        trace_store,
    });
    eprintln!(
        "# scale 1/{} machine ({} KB L2), warm-up {} tenths / measure {} tenths of the recurrence interval; {} worker(s)",
        scale.den,
        (2 << 20) / scale.den / 1024,
        scale.warm_tenths,
        scale.measure_tenths,
        h.workers(),
    );

    // With --json the tables are suppressed; the consolidated document
    // goes to stdout instead (and to <out-dir>/results.json either way).
    let table = |text: String| {
        if !json {
            print!("{text}");
        }
    };

    // CMP core-count axis: `--cores` (validated 1..=64 above), default
    // the paper-adjacent {1, 2, 4}.
    let core_counts: Vec<usize> = if cores.is_empty() {
        vec![1, 2, 4]
    } else {
        cores.iter().map(|&n| n as usize).collect()
    };

    let run_one = |name: &str| match name {
        "table1" => {
            let rows = experiments::table1(&h, scale);
            table(report::render_table1(&rows));
        }
        "fig4" => {
            let rows = experiments::fig4_5(&h, scale);
            if csv {
                table(report::sweep_csv(&rows));
            } else {
                table(report::render_sweep_improvement(
                    "Figure 4: improvement vs prefetch degree (idealized table)",
                    "degree",
                    &rows,
                ));
            }
        }
        "fig5" => {
            let rows = experiments::fig4_5(&h, scale);
            if csv {
                table(report::sweep_csv(&rows));
            } else {
                table(report::render_sweep_details(
                    "Figure 5: EPI reduction, residual miss rates, coverage and accuracy vs degree",
                    "degree",
                    &rows,
                ));
            }
        }
        "fig6" => {
            let rows = experiments::fig6(&h, scale);
            if csv {
                table(report::sweep_csv(&rows));
            } else {
                table(report::render_sweep_improvement(
                    &format!(
                        "Figure 6: improvement vs correlation-table entries \
                         (multiply by {} for the paper-equivalent size)",
                        scale.den
                    ),
                    "entries",
                    &rows,
                ));
            }
        }
        "fig7" => {
            let rows = experiments::fig7(&h, scale);
            if csv {
                table(report::sweep_csv(&rows));
            } else {
                table(report::render_sweep_improvement(
                    "Figure 7: improvement vs prefetch-buffer entries \
                     (64 = the tuned EBCP; paper: 23/13/31/26%)",
                    "buffer",
                    &rows,
                ));
            }
        }
        "fig8" => {
            let rows = experiments::fig8(&h, scale);
            table(report::render_fig8(&rows));
        }
        "fig9" => {
            let rows = experiments::fig9(&h, scale);
            table(report::render_fig9(&rows));
        }
        "ablation" => {
            let rows = experiments::ablation(&h, scale);
            table(report::render_ablation(&rows));
        }
        "cmp" => {
            let rows = experiments::cmp_interleaving(&h, scale, &core_counts);
            table(report::render_cmp(&rows));
        }
        "cmp-bw" => {
            let rows = experiments::cmp_bandwidth(&h, scale, &core_counts);
            table(report::render_cmp_bw(&rows));
        }
        other => {
            eprintln!("unknown experiment: {other}");
            usage();
        }
    };

    // Each experiment runs under `catch_unwind`: `Harness::run` is
    // strict and panics (after the whole batch has executed and
    // cached) when any of its jobs failed. Strict mode stops at the
    // first failed experiment; `--keep-going` runs the rest — sibling
    // results are preserved and cached either way. The failure summary
    // below names every failed cell, and the process exits non-zero.
    let mut broken: Vec<String> = Vec::new();
    let mut run_caught = |name: &str| -> bool {
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(name))).is_ok();
        if !ok {
            broken.push(name.to_owned());
        }
        ok
    };
    if what == "all" {
        for name in [
            "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablation", "cmp", "cmp-bw",
        ] {
            if !run_caught(name) && !keep_going {
                break;
            }
            if !json {
                println!();
            }
        }
    } else {
        run_caught(&what);
    }

    let results_path = out_dir.join("results.json");
    match h.write_results_json(&results_path) {
        Ok(()) => {
            if json {
                print!(
                    "{}",
                    std::fs::read_to_string(&results_path).unwrap_or_default()
                );
            }
            eprintln!("# results: {}", results_path.display());
        }
        Err(e) => eprintln!("warning: could not write {}: {e}", results_path.display()),
    }
    eprintln!("# {}", h.summary().render());
    eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());

    let failures = h.failures();
    if !failures.is_empty() || !broken.is_empty() {
        eprintln!(
            "error: {} job(s) failed in {}:",
            failures.len(),
            broken.join(", ")
        );
        for (label, reason) in &failures {
            eprintln!("error:   {label}: {reason}");
        }
        if !keep_going {
            eprintln!("error: run stopped at the first failed experiment (use --keep-going to run the rest)");
        }
        std::process::exit(1);
    }
}

/// Runs the trace-scale cells and writes `<out-dir>/BENCH_trace_scale.json`
/// (with the process RSS high-water mark — the large tier's bounded-
/// memory evidence), gated under [`gate::TRACE_SCALE`].
fn bench_trace_scale(scale: Scale, out_dir: &Path, baseline: Option<&Path>) {
    let large = scale == Scale::large();
    let rows = if large {
        tracescale::measure_large(scale)
    } else {
        tracescale::measure(scale)
    };
    print!("{}", tracescale::render(&rows, large));
    let vm_hwm = tracescale::vm_hwm_bytes();
    if let Some(hwm) = vm_hwm {
        eprintln!(
            "# peak RSS (VmHWM): {:.1} MiB",
            hwm as f64 / (1 << 20) as f64
        );
    }
    let doc = tracescale::to_json(scale, large, &rows, vm_hwm);
    let file = "BENCH_trace_scale.json";
    write_and_gate(&doc, out_dir, file, baseline, &gate::TRACE_SCALE);
}

/// Runs the simulated-throughput matrix plus the sweep, lockstep and
/// CMP DES cells and writes `<out-dir>/BENCH_throughput.json`, gated
/// under [`gate::THROUGHPUT`].
fn bench_throughput(scale: Scale, out_dir: &Path, baseline: Option<&Path>) {
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
    let file = "BENCH_throughput.json";
    write_and_gate(&doc, out_dir, file, baseline, &gate::THROUGHPUT);
}

/// Writes a bench command's document to `<out-dir>/<file>` and, with
/// `--check-baseline`, checks it against the baseline under `table`;
/// an unreadable baseline or a failed gate exits the process with 1.
fn write_and_gate(
    doc: &Value,
    out_dir: &Path,
    file: &str,
    baseline: Option<&Path>,
    table: &gate::Table,
) {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: could not create {}: {e}", out_dir.display());
    }
    let path = out_dir.join(file);
    match std::fs::write(&path, doc.to_json_pretty()) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    let Some(baseline) = baseline else { return };
    let checked = std::fs::read_to_string(baseline)
        .map_err(|e| e.to_string())
        .and_then(|text| ebcp_harness::json::parse(&text).map_err(|e| e.to_string()))
        .map_err(|e| format!("could not read baseline {}: {e}", baseline.display()))
        .and_then(|base| gate::check(doc, &base, table));
    match checked {
        Ok(passed) => {
            for (key, cur, base) in passed {
                eprintln!("# {key} gate passed: {cur:.1} vs baseline {base:.1}");
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
