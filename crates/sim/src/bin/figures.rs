//! Regenerates every table and figure of the ScalableBulk paper.
//!
//! ```text
//! cargo run --release -p sb-sim --bin figures -- <id> [--insns N] [--seed S] [--jobs N] [--csv DIR] [--timing] [--attribution] [--trace-out PATH]
//! cargo run --release -p sb-sim --bin figures -- all
//! cargo run --release -p sb-sim --bin figures -- --timing
//! ```
//!
//! `--jobs N` sets the worker-thread count for the independent runs
//! inside each figure (default: all hardware threads; `--jobs 1` is
//! fully serial). Output is byte-identical at any value — results merge
//! in work-list order, not completion order.
//!
//! `--timing` appends a host-side simulator-throughput probe (events/sec,
//! sim-cycles/sec per core count, per-phase wall times from the metrics
//! registry, commit-latency percentiles) after the requested figures; it
//! can also be used alone.
//!
//! `--attribution` runs each Table-3 protocol with causal tracing on and
//! prints (a) the Figure-7 cycle breakdown *reconstructed from the
//! observability stream* — asserted equal to the aggregate accounting —
//! and (b) the exact critical-path attribution of all commit-latency
//! cycles (see the `analyze` binary for per-commit waterfalls).
//!
//! `--trace-out PATH` additionally runs one observed 8-core
//! FFT/ScalableBulk point (at the sweep's insns/seed) and writes its
//! Perfetto/chrome-trace JSON to PATH — load it in `chrome://tracing`
//! or ui.perfetto.dev. For other apps/protocols/core counts use the
//! dedicated `trace` binary.
//!
//! `--series-out PATH` runs the same observed point and writes its
//! deterministic time-series report (windowed commit/squash rates,
//! directory occupancy, network inject-wait, queue depths, plus the
//! exact critical-path attribution) as canonical JSON — the input
//! format of `analyze --diff`. `--series-window N` overrides the
//! window width in simulated cycles (default: ~64 windows over the
//! run). Output is byte-identical at any `--jobs` value — the CI
//! profile-smoke step diffs it across job counts to enforce that.
//!
//! IDs: `table1 table2 table3 fig7 fig8 fig9 fig10 fig11 fig12 fig13
//! fig14 fig15 fig16 fig17 fig18 fig19 ablation_oci ablation_sig
//! ablation_rotation ext_seqts scaling`.
//!
//! `scaling` (not part of `all`; beyond-the-paper) sweeps FFT under
//! every protocol across `--cores LIST` (default `64,128,256`) and
//! `--fabrics LIST` (default `torus`; also `cmesh`, `xtorus`) and
//! reports commit throughput, its scaling versus the smallest swept
//! machine, and the dominant critical-path segment per cell — the
//! evidence behind EXPERIMENTS.md's scaling-cliff section.

use sb_sim::experiments::{self, Sweep};
use sb_workloads::{AppProfile, Suite};

fn usage() -> ! {
    eprintln!(
        "usage: figures -- <table1|table2|table3|fig7..fig19|ablation_oci|ablation_sig|ablation_rotation|scaling|all> [--insns N] [--seed S] [--jobs N|auto] [--cores LIST] [--fabrics LIST] [--csv DIR] [--timing] [--attribution] [--trace-out PATH] [--series-out PATH] [--series-window N]"
    );
    std::process::exit(2);
}

/// Runs the fig-7 FFT/ScalableBulk point at several core counts and
/// prints the host-side throughput of each run plus the aggregate.
fn timing_probe(sweep: &Sweep) {
    use sb_proto::ProtocolKind;
    use sb_sim::{run_simulation, SimConfig};

    println!("== Simulator throughput (host-side; FFT under ScalableBulk) ==");
    let mut total = sb_stats::PerfReport::default();
    let mut phases = sb_stats::MetricsRegistry::new();
    for cores in [8u16, 32, 64] {
        let mut cfg =
            SimConfig::paper_default(cores, AppProfile::fft(), ProtocolKind::ScalableBulk);
        cfg.insns_per_thread = sweep.insns_per_thread;
        cfg.seed = sweep.seed;
        let r = run_simulation(&cfg);
        println!("{:>3} cores: {}", cores, r.perf.render());
        println!("          {}", render_phases(&r.metrics));
        // Percentiles are per-run reads (gauges sum under merge), so
        // render them here rather than from the merged registry.
        println!(
            "          commit latency: mean {:.1}, p50 {}, p95 {}, p99 {}, max {} cycles",
            r.latency.mean(),
            r.latency.p50(),
            r.latency.p95(),
            r.latency.p99(),
            r.latency.max()
        );
        total.accumulate(&r.perf);
        phases.merge(&r.metrics);
    }
    println!("  overall: {}", total.render());
    println!("           {}", render_phases(&phases));
}

/// Runs each Table-3 protocol (64-core FFT) with causal tracing on and
/// prints the obs-reconstructed Figure-7 breakdown plus the exact
/// critical-path attribution of all commit-latency cycles.
fn attribution_probe(sweep: &Sweep) {
    use sb_proto::ProtocolKind;
    use sb_sim::{breakdown_from_obs, commit_paths, run_simulation, Attribution, SimConfig};

    println!(
        "== Critical-path attribution (FFT, 64 cores; reconstructed from the causal trace) =="
    );
    for proto in ProtocolKind::ALL {
        let mut cfg = SimConfig::paper_default(64, AppProfile::fft(), proto);
        cfg.insns_per_thread = sweep.insns_per_thread;
        cfg.seed = sweep.seed;
        cfg.trace = true;
        cfg.obs = sb_sim::ObsConfig::on();
        let r = run_simulation(&cfg);
        let b = breakdown_from_obs(r.obs.as_ref().expect("obs on"));
        // The trace-reconstructed breakdown must equal the aggregate
        // accounting *exactly* — same invariant verify_observability
        // checks; asserting here keeps the printed numbers honest.
        assert_eq!(b, r.breakdown, "{proto}: obs breakdown diverged");
        let paths = commit_paths(&r).expect("critical paths");
        let a = Attribution::from_paths(&paths);
        assert_eq!(a.total(), r.latency.sum(), "{proto}: attribution diverged");
        println!(
            "{proto}: useful {:.1}%, cache {:.1}%, commit {:.1}%, squash {:.1}% (from trace, == aggregate)",
            b.fraction_useful() * 100.0,
            b.fraction_cache_miss() * 100.0,
            b.fraction_commit() * 100.0,
            b.fraction_squash() * 100.0
        );
        println!(
            "  {} commits, latency mean {:.1} / p95 {} / max {}; {} path cycles:",
            r.commits,
            r.latency.mean(),
            r.latency.p95(),
            r.latency.max(),
            a.total()
        );
        for (name, cycles, frac) in a.rows() {
            println!("    {name:<14} {cycles:>12}  {:>5.1}%", frac * 100.0);
        }
    }
}

/// One-line per-phase wall-time rendering from the metrics registry —
/// the same numbers `bench_json` exports.
fn render_phases(m: &sb_stats::MetricsRegistry) -> String {
    let g = |name| m.gauge(name).unwrap_or(0.0);
    format!(
        "phases: setup {:.3}s, run {:.3}s, drain {:.3}s",
        g("phase.setup_secs"),
        g("phase.run_secs"),
        g("phase.drain_secs"),
    )
}

/// Runs one observed 8-core FFT/ScalableBulk point and writes its
/// Perfetto trace to `path`.
fn trace_out(sweep: &Sweep, path: &std::path::Path) {
    use sb_proto::ProtocolKind;
    use sb_sim::{perfetto_trace, run_simulation, SimConfig};

    let mut cfg = SimConfig::paper_default(8, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = sweep.insns_per_thread;
    cfg.seed = sweep.seed;
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    let r = run_simulation(&cfg);
    let json = perfetto_trace(&r);
    std::fs::write(path, json.to_string_pretty()).expect("write trace");
    eprintln!(
        "[trace-out -> {} ({} commits, {} squashes)]",
        path.display(),
        r.commits,
        r.squashes()
    );
}

/// Runs the same observed 8-core FFT/ScalableBulk point as
/// [`trace_out`] and writes its deterministic series report to `path`.
fn series_out(sweep: &Sweep, path: &std::path::Path, window: u64) {
    use sb_proto::ProtocolKind;
    use sb_sim::{run_simulation, series, SimConfig};

    let mut cfg = SimConfig::paper_default(8, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = sweep.insns_per_thread;
    cfg.seed = sweep.seed;
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    cfg.obs.series_window = window;
    let r = run_simulation(&cfg);
    let w = series::configured_series_window(&cfg, &r);
    let report = sb_sim::series_report(&cfg, &r, w).expect("series report");
    std::fs::write(path, report.to_string_pretty()).expect("write series");
    eprintln!(
        "[series-out -> {} ({} windows of {} cycles)]",
        path.display(),
        report
            .get("series")
            .and_then(|s| s.get("windows"))
            .and_then(|v| v.as_i64())
            .unwrap_or(0),
        w
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    // (ids may legitimately be empty when only --timing was requested;
    // checked after parsing.)
    let mut ids: Vec<String> = Vec::new();
    let mut sweep = Sweep::default();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut timing = false;
    let mut attribution = false;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut series_path: Option<std::path::PathBuf> = None;
    let mut series_window: u64 = 0;
    // The `scaling` sweep's axes (comma-separated): core counts beyond
    // the paper's 64 and interconnect fabrics by Topology::by_name.
    let mut scaling_cores: Vec<u16> = vec![64, 128, 256];
    let mut scaling_fabrics: Vec<String> = vec!["torus".to_string()];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--timing" => timing = true,
            "--attribution" => attribution = true,
            "--trace-out" => {
                i += 1;
                trace_path = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--series-out" => {
                i += 1;
                series_path = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--series-window" => {
                i += 1;
                series_window = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--insns" => {
                i += 1;
                sweep.insns_per_thread = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                sweep.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                sweep.jobs = args
                    .get(i)
                    .and_then(|v| sb_sim::parallel::parse_jobs(v))
                    .unwrap_or_else(|| usage());
            }
            "--cores" => {
                i += 1;
                scaling_cores = args
                    .get(i)
                    .and_then(|v| {
                        v.split(',')
                            .map(|c| c.trim().parse::<u16>().ok().filter(|&c| c >= 1))
                            .collect()
                    })
                    .unwrap_or_else(|| usage());
            }
            "--fabrics" => {
                i += 1;
                scaling_fabrics = args
                    .get(i)
                    .map(|v| v.split(',').map(|f| f.trim().to_string()).collect())
                    .unwrap_or_else(|| usage());
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() && !timing && !attribution && trace_path.is_none() && series_path.is_none() {
        usage();
    }
    if ids.iter().any(|i| i == "all") {
        ids = [
            "table1",
            "table2",
            "table3",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "ablation_oci",
            "ablation_sig",
            "ablation_rotation",
            "ext_seqts",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    for id in &ids {
        let started = std::time::Instant::now();
        let (title, table) = match id.as_str() {
            "table1" => (
                "Table 1: message types in ScalableBulk".to_string(),
                experiments::message_types_table(),
            ),
            "table2" => (
                "Table 2: simulated system configuration".to_string(),
                experiments::system_config_table(),
            ),
            "table3" => (
                "Table 3: simulated cache coherence protocols".to_string(),
                experiments::protocols_table(),
            ),
            "fig7" => (
                "Figure 7: SPLASH-2 execution time (normalized; speedup vs 1 proc)".to_string(),
                experiments::exec_time_table(Suite::Splash2, &sweep),
            ),
            "fig8" => (
                "Figure 8: PARSEC execution time (normalized; speedup vs 1 proc)".to_string(),
                experiments::exec_time_table(Suite::Parsec, &sweep),
            ),
            "fig9" => (
                "Figure 9: directories per chunk commit, SPLASH-2".to_string(),
                experiments::dirs_per_commit_table(Suite::Splash2, &sweep),
            ),
            "fig10" => (
                "Figure 10: directories per chunk commit, PARSEC".to_string(),
                experiments::dirs_per_commit_table(Suite::Parsec, &sweep),
            ),
            "fig11" => (
                "Figure 11: distribution of directories per commit, SPLASH-2, 64 procs (%)"
                    .to_string(),
                experiments::dirs_distribution_table(Suite::Splash2, &sweep),
            ),
            "fig12" => (
                "Figure 12: distribution of directories per commit, PARSEC, 64 procs (%)"
                    .to_string(),
                experiments::dirs_distribution_table(Suite::Parsec, &sweep),
            ),
            "fig13" => (
                "Figure 13: chunk commit latency (cycles; paper 64p means: SB 91, TCC 411, SEQ 153, BulkSC 2954)"
                    .to_string(),
                experiments::commit_latency_table(&sweep),
            ),
            "fig14" => (
                "Figure 14: bottleneck ratio, SPLASH-2, 64 procs".to_string(),
                experiments::bottleneck_ratio_table(Suite::Splash2, &sweep),
            ),
            "fig15" => (
                "Figure 15: bottleneck ratio, PARSEC, 64 procs".to_string(),
                experiments::bottleneck_ratio_table(Suite::Parsec, &sweep),
            ),
            "fig16" => (
                "Figure 16: chunk queue length, SPLASH-2, 64 procs".to_string(),
                experiments::queue_length_table(Suite::Splash2, &sweep),
            ),
            "fig17" => (
                "Figure 17: chunk queue length, PARSEC, 64 procs".to_string(),
                experiments::queue_length_table(Suite::Parsec, &sweep),
            ),
            "fig18" => (
                "Figure 18: message characterization, SPLASH-2, 64 procs (normalized to TCC)"
                    .to_string(),
                experiments::traffic_table(Suite::Splash2, &sweep),
            ),
            "fig19" => (
                "Figure 19: message characterization, PARSEC, 64 procs (normalized to TCC)"
                    .to_string(),
                experiments::traffic_table(Suite::Parsec, &sweep),
            ),
            "ablation_oci" => (
                "Ablation: Optimistic Commit Initiation on/off (64 procs)".to_string(),
                experiments::ablation_oci_table(
                    &[
                        AppProfile::radix(),
                        AppProfile::barnes(),
                        AppProfile::canneal(),
                        AppProfile::fft(),
                    ],
                    &sweep,
                ),
            ),
            "ablation_sig" => (
                "Ablation: signature size sweep (Barnes, 64 procs)".to_string(),
                experiments::ablation_signature_table(AppProfile::barnes(), &sweep),
            ),
            "ext_seqts" => (
                "Extension: SEQ-PRO vs SEQ-TS vs ScalableBulk (64 procs)".to_string(),
                experiments::seq_ts_table(&sweep),
            ),
            "ablation_rotation" => (
                "Ablation: leader-priority rotation on/off (Radix, 64 procs)".to_string(),
                experiments::ablation_rotation_table(AppProfile::radix(), &sweep),
            ),
            "scaling" => (
                format!(
                    "Scaling sweep: FFT, cores {:?}, fabrics {:?}",
                    scaling_cores, scaling_fabrics
                ),
                experiments::scaling_table(&sweep, &scaling_cores, &scaling_fabrics),
            ),
            other => {
                eprintln!("unknown experiment id {other:?}");
                usage();
            }
        };
        println!("== {title} ==");
        println!(
            "(insns/thread={}, seed={:#x})",
            sweep.insns_per_thread, sweep.seed
        );
        println!("{}", table.render());
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{id}.csv"));
            std::fs::write(&path, table.to_csv()).expect("write csv");
            eprintln!("[{} csv -> {}]", id, path.display());
        }
        eprintln!("[{} done in {:?}]", id, started.elapsed());
    }
    if timing {
        timing_probe(&sweep);
    }
    if attribution {
        attribution_probe(&sweep);
    }
    if let Some(path) = trace_path {
        trace_out(&sweep, &path);
    }
    if let Some(path) = series_path {
        series_out(&sweep, &path, series_window);
    }
}
