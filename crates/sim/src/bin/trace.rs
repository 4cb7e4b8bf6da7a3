//! Exports one observed run as a Perfetto/chrome-trace JSON document.
//!
//! ```text
//! cargo run --release -p sb-sim --bin trace -- \
//!     [--out trace.json] [--metrics-out metrics.json] \
//!     [--cores N] [--app NAME] [--proto P] [--insns N] [--seed S] \
//!     [--series] [--series-out PATH] [--series-window N] [--validate]
//! ```
//!
//! The run is executed with both the chunk-lifecycle trace and the
//! directory-side observability log enabled; the resulting document
//! loads directly in `chrome://tracing` or ui.perfetto.dev. With
//! `--validate` the full observability oracle
//! ([`sb_sim::verify_observability`]) runs on the result and the
//! process exits non-zero on any violation.
//!
//! `--series` embeds the windowed telemetry (commit/squash rates,
//! directory occupancy, inject wait, queue depths) as Perfetto counter
//! tracks alongside the spans; `--series-out PATH` writes the same
//! telemetry as a standalone series report — the input of `analyze
//! --diff` — for any cores/app/protocol combination (the fixed fig-7
//! point lives in `figures --series-out`). `--series-window N` sets the
//! window width in simulated cycles (default: ~64 windows over the run).

use sb_proto::ProtocolKind;
use sb_sim::cli::{self, Args};
use sb_sim::experiments::Sweep;
use sb_sim::{perfetto_trace, run_simulation, verify_observability};
use sb_workloads::AppProfile;

const USAGE: &str = "trace -- [--out PATH] [--metrics-out PATH] [--cores N] [--app NAME] \
                     [--proto P] [--insns N] [--seed S] [--series] [--series-out PATH] \
                     [--series-window N] [--validate]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut out = String::from("trace.json");
    let mut metrics_out: Option<String> = None;
    let mut cores: u16 = 4;
    let mut app = AppProfile::fft();
    let mut proto = ProtocolKind::ScalableBulk;
    let mut sweep = Sweep {
        insns_per_thread: 6_000,
        ..Sweep::default()
    };
    let mut validate = false;
    let mut series = false;
    let mut series_out: Option<String> = None;
    let mut series_window: u64 = 0;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--series" => series = true,
            "--series-out" => series_out = Some(args.value(cli::parse)),
            "--series-window" => series_window = args.value(cli::parse),
            "--out" => out = args.value(cli::parse),
            "--metrics-out" => metrics_out = Some(args.value(cli::parse)),
            "--cores" => cores = args.value(cli::cores),
            "--app" => app = args.value(AppProfile::by_name),
            "--proto" => proto = args.value(cli::parse),
            "--insns" => sweep.insns_per_thread = args.value(cli::parse),
            "--seed" => sweep.seed = args.value(cli::seed),
            "--validate" => validate = true,
            _ => args.usage(),
        }
    }

    let mut cfg = sweep.config(cores, app, proto);
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    cfg.obs.series_window = series_window;
    cli::note(format_args!(
        "[trace] {} on {cores} cores under {proto}, {} insns/thread, seed {:#x}",
        app.name, sweep.insns_per_thread, sweep.seed
    ));
    let r = run_simulation(&cfg);
    cli::note(format_args!(
        "[trace] {} commits, {} squashes, {} cycles; {}",
        r.commits,
        r.squashes(),
        r.wall_cycles,
        r.perf.render()
    ));

    if validate {
        let violations = verify_observability(&r);
        if !violations.is_empty() {
            for v in &violations {
                cli::note(format_args!("[trace] VIOLATION: {v}"));
            }
            std::process::exit(1);
        }
        cli::note(format_args!("[trace] observability oracle: clean"));
    }

    let window = sb_sim::configured_series_window(&cfg, &r);
    let doc = if series {
        sb_sim::perfetto_trace_with_series(&r, window)
    } else {
        perfetto_trace(&r)
    };
    cli::write_or_exit("trace", &out, &doc.to_string());
    cli::note(format_args!("[trace] wrote {out} ({} events)", doc.len()));

    if let Some(path) = metrics_out {
        cli::write_or_exit("trace", &path, &r.metrics.to_json().to_string_pretty());
        cli::note(format_args!(
            "[trace] wrote {path} ({} metrics)",
            r.metrics.len()
        ));
    }

    if let Some(path) = series_out {
        let report = match sb_sim::series_report(&cfg, &r, window) {
            Ok(v) => v,
            Err(e) => {
                cli::note(format_args!("[trace] series report failed: {e}"));
                std::process::exit(1);
            }
        };
        cli::write_or_exit("trace", &path, &report.to_string_pretty());
        cli::note(format_args!(
            "[trace] wrote {path} (window {window} cycles)"
        ));
    }
}
