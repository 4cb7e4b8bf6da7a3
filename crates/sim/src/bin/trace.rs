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
use sb_sim::{perfetto_trace, run_simulation, verify_observability, SimConfig};
use sb_workloads::AppProfile;

fn usage() -> ! {
    eprintln!(
        "usage: trace -- [--out PATH] [--metrics-out PATH] [--cores N] \
         [--app NAME] [--proto P] [--insns N] [--seed S] [--series] \
         [--series-out PATH] [--series-window N] [--validate]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("trace.json");
    let mut metrics_out: Option<String> = None;
    let mut cores: u16 = 4;
    let mut app = AppProfile::fft();
    let mut proto = ProtocolKind::ScalableBulk;
    let mut insns: u64 = 6_000;
    let mut seed: u64 = 0x5ca1ab1e;
    let mut validate = false;
    let mut series = false;
    let mut series_out: Option<String> = None;
    let mut series_window: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--series" => series = true,
            "--series-out" => {
                i += 1;
                series_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--series-window" => {
                i += 1;
                series_window = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--cores" => {
                i += 1;
                cores = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&c: &u16| c >= 1)
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
                proto = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
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
            "--validate" => validate = true,
            _ => usage(),
        }
        i += 1;
    }

    let mut cfg = SimConfig::paper_default(cores, app, proto);
    cfg.insns_per_thread = insns;
    cfg.seed = seed;
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    cfg.obs.series_window = series_window;
    eprintln!(
        "[trace] {} on {cores} cores under {proto}, {insns} insns/thread, seed {seed:#x}",
        cfg.app.name
    );
    let r = run_simulation(&cfg);
    eprintln!(
        "[trace] {} commits, {} squashes, {} cycles; {}",
        r.commits,
        r.squashes(),
        r.wall_cycles,
        r.perf.render()
    );

    if validate {
        let violations = verify_observability(&r);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("[trace] VIOLATION: {v}");
            }
            std::process::exit(1);
        }
        eprintln!("[trace] observability oracle: clean");
    }

    let window = sb_sim::configured_series_window(&cfg, &r);
    let json = if series {
        sb_sim::perfetto_trace_with_series(&r, window)
    } else {
        perfetto_trace(&r)
    };
    let n_events = json
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .map_or(0, |e| e.len());
    if let Err(e) = std::fs::write(&out, json.to_string_pretty()) {
        eprintln!("[trace] cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("[trace] wrote {out} ({n_events} events)");

    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, r.metrics.to_json().to_string_pretty()) {
            eprintln!("[trace] cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[trace] wrote {path} ({} metrics)", r.metrics.len());
    }

    if let Some(path) = series_out {
        let report = match sb_sim::series_report(&cfg, &r, window) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("[trace] series report failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(&path, report.to_string_pretty()) {
            eprintln!("[trace] cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[trace] wrote {path} (window {window} cycles)");
    }
}
