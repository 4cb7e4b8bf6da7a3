//! Regenerates every table and figure of the ScalableBulk paper.
//!
//! ```text
//! cargo run --release -p sb-sim --bin figures -- <id>... [--insns N] [--seed S] [--jobs N] [--csv DIR] [--attribution] [--trace-out PATH]
//! cargo run --release -p sb-sim --bin figures -- all
//! ```
//!
//! The requested ids share one run cache: a configuration is simulated
//! the first time any id needs it, and later ids reuse the result. At
//! exit a stderr line `[runs: N simulated, M reused]` reports both
//! counts.
//!
//! `--jobs N` sets the worker-thread count for the independent runs
//! inside each figure (default: all hardware threads; `--jobs 1` is
//! fully serial). Output is byte-identical at any value — results merge
//! in work-list order, not completion order.
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
//!
//! Bad flag values, unknown ids and fabrics, and fabrics too small for a
//! requested core count exit 2 with usage before anything runs; an
//! output path that cannot be written exits 1.

use std::path::{Path, PathBuf};

use sb_proto::ProtocolKind;
use sb_sim::cli::{self, Args};
use sb_sim::experiments::{self, RunCache, Sweep};
use sb_sim::{ObsConfig, SimConfig};
use sb_workloads::AppProfile;

/// The ids `all` expands to, in order (`scaling` is not part of `all`).
const ALL_IDS: [&str; 20] = [
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
];

const USAGE: &str = "figures -- <table1|table2|table3|fig7..fig19|ablation_oci|ablation_sig|ablation_rotation|ext_seqts|scaling|all>... [--insns N] [--seed S] [--jobs N|auto] [--cores LIST] [--fabrics LIST] [--csv DIR] [--attribution] [--trace-out PATH] [--series-out PATH] [--series-window N]";

/// Runs each Table-3 protocol (64-core FFT) with causal tracing on and
/// prints the obs-reconstructed Figure-7 breakdown plus the exact
/// critical-path attribution of all commit-latency cycles.
fn attribution_probe(sweep: &Sweep) {
    use sb_sim::{breakdown_from_obs, commit_paths, run_simulation, Attribution};

    println!(
        "== Critical-path attribution (FFT, 64 cores; reconstructed from the causal trace) =="
    );
    for proto in ProtocolKind::ALL {
        let mut cfg = sweep.config(64, AppProfile::fft(), proto);
        cfg.trace = true;
        cfg.obs = ObsConfig::on();
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

/// The observed 8-core FFT/ScalableBulk point `--trace-out` and
/// `--series-out` run.
fn observed_point(sweep: &Sweep) -> SimConfig {
    let mut cfg = sweep.config(8, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.trace = true;
    cfg.obs = ObsConfig::on();
    cfg
}

/// Runs the observed point and writes its Perfetto trace to `path`.
fn trace_out(sweep: &Sweep, path: &Path) {
    use sb_sim::{perfetto_trace, run_simulation};

    let r = run_simulation(&observed_point(sweep));
    cli::write_or_exit("figures", path, &perfetto_trace(&r).to_string());
    cli::note(format_args!(
        "[trace-out -> {} ({} commits, {} squashes)]",
        path.display(),
        r.commits,
        r.squashes()
    ));
}

/// Runs the observed point and writes its deterministic series report
/// to `path`.
fn series_out(sweep: &Sweep, path: &Path, window: u64) {
    use sb_sim::{run_simulation, series};

    let mut cfg = observed_point(sweep);
    cfg.obs.series_window = window;
    let r = run_simulation(&cfg);
    let w = series::configured_series_window(&cfg, &r);
    let report = sb_sim::series_report(&cfg, &r, w).expect("series report");
    cli::write_or_exit("figures", path, &report.to_string_pretty());
    cli::note(format_args!(
        "[series-out -> {} ({} windows of {} cycles)]",
        path.display(),
        report
            .get("series")
            .and_then(|s| s.get("windows"))
            .and_then(|v| v.as_i64())
            .unwrap_or(0),
        w
    ));
}

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut ids: Vec<String> = Vec::new();
    let mut sweep = Sweep::default();
    let mut csv_dir: Option<PathBuf> = None;
    let mut attribution = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut series_path: Option<PathBuf> = None;
    let mut series_window: u64 = 0;
    // The `scaling` sweep's axes (comma-separated): core counts beyond
    // the paper's 64 and interconnect fabrics by Topology::by_name.
    let mut scaling_cores: Vec<u16> = vec![64, 128, 256];
    let mut scaling_fabrics: Vec<String> = vec!["torus".to_string()];
    while let Some(arg) = args.next_arg() {
        match arg.as_str() {
            "--attribution" => attribution = true,
            "--trace-out" => trace_path = Some(args.value(cli::parse)),
            "--series-out" => series_path = Some(args.value(cli::parse)),
            "--series-window" => series_window = args.value(cli::parse),
            "--csv" => csv_dir = Some(args.value(cli::parse)),
            "--insns" => sweep.insns_per_thread = args.value(cli::parse),
            "--seed" => sweep.seed = args.value(cli::seed),
            "--jobs" => sweep.jobs = args.value(cli::jobs),
            "--cores" => scaling_cores = args.value(|s| cli::list(s, cli::cores)),
            "--fabrics" => scaling_fabrics = args.value(|s| cli::list(s, cli::parse)),
            _ => ids.push(arg),
        }
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(bad) = ids
        .iter()
        .find(|id| *id != "scaling" && !ALL_IDS.contains(&id.as_str()))
    {
        cli::note(format_args!("unknown experiment id {bad:?}"));
        args.usage();
    }
    if ids.is_empty() && !attribution && trace_path.is_none() && series_path.is_none() {
        args.usage();
    }
    if !cli::fabrics_fit(&scaling_fabrics, &scaling_cores) {
        args.usage();
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            cli::note(format_args!(
                "[figures] cannot write {}: {e}",
                dir.display()
            ));
            std::process::exit(1);
        }
    }
    let mut cache = RunCache::new(sweep.clone());
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
                experiments::exec_time_table(&AppProfile::splash2(), &mut cache),
            ),
            "fig8" => (
                "Figure 8: PARSEC execution time (normalized; speedup vs 1 proc)".to_string(),
                experiments::exec_time_table(&AppProfile::parsec(), &mut cache),
            ),
            "fig9" => (
                "Figure 9: directories per chunk commit, SPLASH-2".to_string(),
                experiments::dirs_per_commit_table(&AppProfile::splash2(), &mut cache),
            ),
            "fig10" => (
                "Figure 10: directories per chunk commit, PARSEC".to_string(),
                experiments::dirs_per_commit_table(&AppProfile::parsec(), &mut cache),
            ),
            "fig11" => (
                "Figure 11: distribution of directories per commit, SPLASH-2, 64 procs (%)"
                    .to_string(),
                experiments::dirs_distribution_table(&AppProfile::splash2(), &mut cache),
            ),
            "fig12" => (
                "Figure 12: distribution of directories per commit, PARSEC, 64 procs (%)"
                    .to_string(),
                experiments::dirs_distribution_table(&AppProfile::parsec(), &mut cache),
            ),
            "fig13" => (
                "Figure 13: chunk commit latency (cycles; paper 64p means: SB 91, TCC 411, SEQ 153, BulkSC 2954)"
                    .to_string(),
                experiments::commit_latency_table(&AppProfile::all(), &mut cache),
            ),
            "fig14" => (
                "Figure 14: bottleneck ratio, SPLASH-2, 64 procs".to_string(),
                experiments::bottleneck_ratio_table(&AppProfile::splash2(), &mut cache),
            ),
            "fig15" => (
                "Figure 15: bottleneck ratio, PARSEC, 64 procs".to_string(),
                experiments::bottleneck_ratio_table(&AppProfile::parsec(), &mut cache),
            ),
            "fig16" => (
                "Figure 16: chunk queue length, SPLASH-2, 64 procs".to_string(),
                experiments::queue_length_table(&AppProfile::splash2(), &mut cache),
            ),
            "fig17" => (
                "Figure 17: chunk queue length, PARSEC, 64 procs".to_string(),
                experiments::queue_length_table(&AppProfile::parsec(), &mut cache),
            ),
            "fig18" => (
                "Figure 18: message characterization, SPLASH-2, 64 procs (normalized to TCC)"
                    .to_string(),
                experiments::traffic_table(&AppProfile::splash2(), &mut cache),
            ),
            "fig19" => (
                "Figure 19: message characterization, PARSEC, 64 procs (normalized to TCC)"
                    .to_string(),
                experiments::traffic_table(&AppProfile::parsec(), &mut cache),
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
                    &mut cache,
                ),
            ),
            "ablation_sig" => (
                "Ablation: signature size sweep (Barnes, 64 procs)".to_string(),
                experiments::ablation_signature_table(AppProfile::barnes(), &mut cache),
            ),
            "ext_seqts" => (
                "Extension: SEQ-PRO vs SEQ-TS vs ScalableBulk (64 procs)".to_string(),
                experiments::seq_ts_table(&mut cache),
            ),
            "ablation_rotation" => (
                "Ablation: leader-priority rotation on/off (Radix, 64 procs)".to_string(),
                experiments::ablation_rotation_table(AppProfile::radix(), &mut cache),
            ),
            "scaling" => (
                format!(
                    "Scaling sweep: FFT, cores {:?}, fabrics {:?}",
                    scaling_cores, scaling_fabrics
                ),
                experiments::scaling_table(&mut cache, &scaling_cores, &scaling_fabrics),
            ),
            other => unreachable!("unknown id {other:?} passed validation"),
        };
        println!("== {title} ==");
        println!(
            "(insns/thread={}, seed={:#x})",
            sweep.insns_per_thread, sweep.seed
        );
        println!("{}", table.render());
        if let Some(dir) = &csv_dir {
            let path = dir.join(format!("{id}.csv"));
            cli::write_or_exit("figures", &path, &table.to_csv());
            cli::note(format_args!("[{} csv -> {}]", id, path.display()));
        }
        cli::note(format_args!("[{} done in {:?}]", id, started.elapsed()));
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
    cli::note(format_args!(
        "[runs: {} simulated, {} reused]",
        cache.simulated(),
        cache.reused()
    ));
}
