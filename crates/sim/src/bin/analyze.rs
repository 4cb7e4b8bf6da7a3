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
use sb_sim::cli::{self, Args};
use sb_sim::experiments::Sweep;
use sb_sim::parallel::parallel_map;
use sb_sim::{commit_paths, run_simulation, Attribution, CommitPath, ObsConfig, SegmentKind};
use sb_workloads::AppProfile;

const USAGE: &str = "analyze -- [--cores N] [--app NAME] [--proto P|all] [--insns N] [--seed S] \
                     [--top K] [--jobs N|auto]\n       analyze -- --diff A.json B.json";

/// `--diff` mode: compares two series reports and prints the run diff.
fn diff_mode(path_a: &str, path_b: &str) -> ! {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            cli::note(format_args!("[analyze] cannot read {path}: {e}"));
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
            cli::note(format_args!("[analyze] diff failed: {e}"));
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = Args::from_env(USAGE);
    if args.take("--diff") {
        let (a, b): (String, String) = (args.value(cli::parse), args.value(cli::parse));
        if args.next_arg().is_some() {
            args.usage();
        }
        diff_mode(&a, &b);
    }
    let mut cores: u16 = 64;
    let mut app = AppProfile::fft();
    let mut protos: Vec<ProtocolKind> = vec![ProtocolKind::ScalableBulk];
    let mut sweep = Sweep {
        insns_per_thread: 10_000,
        ..Sweep::default()
    };
    let mut top: usize = 5;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--cores" => cores = args.value(cli::cores),
            "--app" => app = args.value(AppProfile::by_name),
            "--proto" => {
                protos = args.value(|s| match s {
                    "all" => Some(ProtocolKind::ALL.to_vec()),
                    p => p.parse().ok().map(|p| vec![p]),
                })
            }
            "--insns" => sweep.insns_per_thread = args.value(cli::parse),
            "--seed" => sweep.seed = args.value(cli::seed),
            "--top" => top = args.value(cli::parse),
            "--jobs" => sweep.jobs = args.value(cli::jobs),
            _ => args.usage(),
        }
    }

    // Runs fan out over workers; reports print in protocol order below.
    let runs = parallel_map(&protos, sweep.jobs, |&proto| {
        let mut cfg = sweep.config(cores, app, proto);
        cfg.trace = true;
        cfg.obs = ObsConfig::on();
        run_simulation(&cfg)
    });
    for (&proto, r) in protos.iter().zip(&runs) {
        let mut paths = match commit_paths(r) {
            Ok(p) => p,
            Err(e) => {
                cli::note(format_args!(
                    "[analyze] {proto}: critical-path reconstruction failed: {e}"
                ));
                std::process::exit(1);
            }
        };

        println!(
            "== {} on {cores} cores under {proto} ({} insns/thread, seed {:#x}) ==",
            app.name, sweep.insns_per_thread, sweep.seed
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
