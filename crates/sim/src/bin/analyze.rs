//! Per-commit critical-path analysis of an observed run.
//!
//! ```text
//! cargo run --release -p sb-sim --bin analyze -- \
//!     [--cores N] [--app NAME] [--proto P|all] [--insns N] [--seed S] [--top K] [--jobs N]
//! ```
//!
//! With `--proto all`, the per-protocol runs execute on `--jobs` worker
//! threads (default: all hardware threads); reports still print in
//! protocol order, byte-identical to a serial run.
//!
//! For each requested protocol the run is executed with causal tracing
//! on, every commit's critical path is reconstructed from the flow graph
//! ([`sb_sim::commit_paths`]), and two views are printed:
//!
//! * an **aggregate attribution table** — where all commit-latency
//!   cycles went (service, inject wait, wire, grab wait, held-inv wait,
//!   backoff, perturbation), reconciled exactly against the run's
//!   recorded latency distribution;
//! * the **top-K slowest commits**, each as a chronological waterfall of
//!   its segments (offset from commit start, length, kind, message).
//!
//! This is the tool that answers "why is BulkSC's 64-core commit latency
//! 30x ScalableBulk's?" — see EXPERIMENTS.md for the walkthrough.
//!
//! **Run-diff mode**: `analyze --diff A.json B.json` compares two series
//! reports written by `figures --series-out` instead of running a
//! simulation — per-aggregate and per-segment attribution deltas,
//! per-track window divergence, and the first simulated cycle at which
//! the runs diverge. Diffing a run against itself prints all-zero
//! deltas; byte-identical inputs are guaranteed identical output.

use sb_proto::ProtocolKind;
use sb_sim::parallel::{parallel_map, AUTO_JOBS};
use sb_sim::{commit_paths, run_simulation, Attribution, CommitPath, SegmentKind, SimConfig};
use sb_workloads::AppProfile;

fn usage() -> ! {
    eprintln!(
        "usage: analyze -- [--cores N] [--app NAME] [--proto P|all] \
         [--insns N] [--seed S] [--top K] [--jobs N|auto]\n\
         \x20      analyze -- --diff A.json B.json"
    );
    std::process::exit(2);
}

/// `--diff` mode: compares two series reports and prints the run diff.
fn diff_mode(path_a: &str, path_b: &str) -> ! {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("[analyze] cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let (a, b) = (read(path_a), read(path_b));
    match sb_sim::diff_report_texts(&a, &b) {
        Ok(d) => {
            println!("== run diff: {path_a} vs {path_b} ==");
            print!("{}", sb_sim::render_diff(&d));
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[analyze] diff failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        match (args.get(1), args.get(2), args.len()) {
            (Some(a), Some(b), 3) => diff_mode(a, b),
            _ => usage(),
        }
    }
    let mut cores: u16 = 64;
    let mut app = AppProfile::fft();
    let mut protos: Vec<ProtocolKind> = vec![ProtocolKind::ScalableBulk];
    let mut insns: u64 = 10_000;
    let mut seed: u64 = 0x5ca1ab1e;
    let mut top: usize = 5;
    let mut jobs: usize = AUTO_JOBS;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cores" => {
                i += 1;
                cores = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--app" => {
                i += 1;
                app = args
                    .get(i)
                    .and_then(|v| AppProfile::by_name(v))
                    .unwrap_or_else(|| usage());
            }
            "--proto" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("all") => protos = ProtocolKind::ALL.to_vec(),
                    Some(p) => protos = vec![p.parse().unwrap_or_else(|_| usage())],
                    None => usage(),
                }
            }
            "--insns" => {
                i += 1;
                insns = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--top" => {
                i += 1;
                top = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|v| sb_sim::parallel::parse_jobs(v))
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    // Runs fan out over workers; reports print in protocol order below.
    let runs = parallel_map(&protos, jobs, |&proto| {
        let mut cfg = SimConfig::paper_default(cores, app, proto);
        cfg.insns_per_thread = insns;
        cfg.seed = seed;
        cfg.trace = true;
        cfg.obs = sb_sim::ObsConfig::on();
        run_simulation(&cfg)
    });
    for (&proto, r) in protos.iter().zip(&runs) {
        let mut paths = match commit_paths(r) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("[analyze] {proto}: critical-path reconstruction failed: {e}");
                std::process::exit(1);
            }
        };

        println!(
            "== {} on {cores} cores under {proto} ({insns} insns/thread, seed {seed:#x}) ==",
            app.name
        );
        println!(
            "{} commits in {} wall cycles; commit latency mean {:.1}, p50 {}, p95 {}, p99 {}, max {}",
            r.commits,
            r.wall_cycles,
            r.latency.mean(),
            r.latency.p50(),
            r.latency.p95(),
            r.latency.p99(),
            r.latency.max()
        );

        let a = Attribution::from_paths(&paths);
        // The module guarantees this; keep the tool honest about it too.
        assert_eq!(a.total(), r.latency.sum(), "attribution != latency sum");
        println!(
            "critical-path attribution ({} cycles total, exact):",
            a.total()
        );
        for (name, cycles, frac) in a.rows() {
            println!("  {name:<14} {cycles:>12}  {:>5.1}%", frac * 100.0);
        }

        paths.sort_by(|x, y| y.latency().cmp(&x.latency()).then(x.tag.cmp(&y.tag)));
        for (rank, p) in paths.iter().take(top).enumerate() {
            println!();
            print_waterfall(rank + 1, p);
        }
        println!();
    }
}

/// Prints one commit's chronological segment waterfall.
fn print_waterfall(rank: usize, p: &CommitPath) {
    println!(
        "#{rank} {} (core {}): {} cycles, started at {}",
        p.tag,
        p.core,
        p.latency(),
        p.started
    );
    let scale = (p.latency().max(1) as f64) / 40.0;
    for s in &p.segments {
        let off = (s.from - p.started).as_u64();
        let bar = "#".repeat(((s.len() as f64 / scale).ceil() as usize).clamp(1, 40));
        println!(
            "  +{off:<7} {:>6}  {:<14} {:<16} {bar}",
            s.len(),
            s.kind.as_str(),
            s.label
        );
    }
    // One-line rollup of the dominant kinds for quick scanning.
    let mut tot: Vec<(SegmentKind, u64)> = SegmentKind::ALL
        .iter()
        .map(|&k| (k, p.total(k)))
        .filter(|&(_, c)| c > 0)
        .collect();
    tot.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let roll: Vec<String> = tot
        .iter()
        .map(|(k, c)| format!("{} {c}", k.as_str()))
        .collect();
    println!("  = {}", roll.join(", "));
}
