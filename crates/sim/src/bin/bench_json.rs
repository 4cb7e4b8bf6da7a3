//! Machine-readable simulator-throughput benchmark.
//!
//! Runs the fig-7 FFT sweep point under every protocol at each swept
//! core count (default 8/32/64) and fabric (default the 2D torus) and
//! writes `BENCH_throughput.json` (by default into the current
//! directory — run from the repo root to place it there):
//!
//! ```text
//! cargo run --release -p sb-sim --bin bench_json [-- --out PATH] [--insns N] [--repeats R] \
//!     [--cores LIST] [--fabrics LIST] [--protocols LIST] \
//!     [--jobs N] [--compare BASELINE.json] [--max-regress PCT] \
//!     [--profile] [--max-rss-mb MB]
//! ```
//!
//! Each entry records both the simulated outcome (`wall_cycles`,
//! `commits` — these must not change across simulator optimizations) and
//! the host-side cost (`events`, `wall_secs`, `events_per_sec` — these
//! are what an optimization is allowed to improve). `repeats` runs each
//! configuration several times and keeps the fastest wall time.
//!
//! `--cores LIST` (comma-separated, default `8,32,64`) and
//! `--fabrics LIST` (Topology::by_name names, default `torus`) choose
//! the sweep axes; `--protocols LIST` restricts the protocol set (names
//! as accepted by `ProtocolKind::from_str`, default all four of
//! Table 3) — the lever that keeps >=256-core smoke cells affordable.
//!
//! `--compare BASELINE.json` turns the run into a **perf-regression
//! gate**: every `(protocol, cores, fabric)` cell present in the
//! baseline is checked against the fresh measurement (baseline rows
//! without a `fabric` field mean `torus`), and the process exits
//! non-zero if any cell's `events_per_sec` dropped by more than
//! `--max-regress` percent (default 15). Cells faster than baseline
//! always pass.
//!
//! `--max-rss-mb MB` (implies `--profile`) additionally gates on
//! memory: the process exits non-zero if any cell's peak RSS exceeds
//! the budget — the measuring stick for the memory-lean >=256-core
//! directory state.
//!
//! `--jobs N` runs the cells on worker threads (simulated outcomes are
//! unaffected; results merge in cell order). The default stays `1`:
//! this binary *measures* host-side throughput, and concurrent cells
//! contend for cores and caches, which would make `events_per_sec` (and
//! the regression gate) noisy. Use `--jobs` only when regenerating the
//! simulated fields quickly, not for gating.
//!
//! `--profile` turns on the executor's host self-profiling
//! (`cfg.obs.profile`) and adds per-cell `prof_*` fields: superphase
//! counts, hub utilization, calendar-queue tier push counts, and peak
//! RSS. Off by default so the gated measurement stays exactly the
//! baseline configuration (profiling costs two clock reads per
//! superphase — small, but a gate should compare like with like).

use sb_net::Topology;
use sb_obs::json::JsonValue;
use sb_proto::ProtocolKind;
use sb_sim::parallel::parallel_map;
use sb_sim::{run_simulation, SimConfig};
use sb_workloads::AppProfile;

struct Entry {
    protocol: ProtocolKind,
    cores: u16,
    fabric: String,
    result: sb_sim::RunResult,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_throughput.json");
    let mut insns: u64 = 10_000;
    let mut repeats: u32 = 3;
    let mut compare: Option<String> = None;
    let mut max_regress: f64 = 15.0;
    let mut jobs: usize = 1;
    let mut profile = false;
    let mut cores_list: Vec<u16> = vec![8, 32, 64];
    let mut fabrics: Vec<String> = vec!["torus".to_string()];
    let mut protocols: Vec<ProtocolKind> = ProtocolKind::ALL.to_vec();
    let mut max_rss_mb: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--profile" => profile = true,
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned().expect("--out needs a path");
            }
            "--insns" => {
                i += 1;
                insns = args.get(i).and_then(|v| v.parse().ok()).expect("--insns N");
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats R");
            }
            "--compare" => {
                i += 1;
                compare = Some(args.get(i).cloned().expect("--compare needs a path"));
            }
            "--max-regress" => {
                i += 1;
                max_regress = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--max-regress PCT");
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|v| sb_sim::parallel::parse_jobs(v))
                    .expect("--jobs N|auto");
            }
            "--cores" => {
                i += 1;
                cores_list = args
                    .get(i)
                    .and_then(|v| {
                        v.split(',')
                            .map(|c| c.trim().parse::<u16>().ok().filter(|&c| c >= 1))
                            .collect()
                    })
                    .expect("--cores N[,N...]");
            }
            "--fabrics" => {
                i += 1;
                fabrics = args
                    .get(i)
                    .map(|v| v.split(',').map(|f| f.trim().to_string()).collect())
                    .expect("--fabrics NAME[,NAME...]");
                for f in &fabrics {
                    assert!(
                        Topology::by_name(f, 64).is_some(),
                        "unknown fabric {f:?}; expected torus, cmesh, or xtorus"
                    );
                }
            }
            "--protocols" => {
                i += 1;
                protocols = args
                    .get(i)
                    .and_then(|v| {
                        v.split(',')
                            .map(|s| s.trim().parse::<ProtocolKind>().ok())
                            .collect()
                    })
                    .expect("--protocols NAME[,NAME...]");
            }
            "--max-rss-mb" => {
                i += 1;
                max_rss_mb = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .expect("--max-rss-mb MB"),
                );
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}\n\
                     usage: bench_json [--out PATH] [--insns N] [--repeats R] [--cores LIST] \
                     [--fabrics LIST] [--protocols LIST] [--jobs N] [--compare BASELINE.json] \
                     [--max-regress PCT] [--profile] [--max-rss-mb MB]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let repeats = repeats.max(1);
    // The RSS gate reads `prof.peak_rss_bytes`, which only the
    // self-profiling executor records.
    if max_rss_mb.is_some() {
        profile = true;
    }

    let mut cells: Vec<(u16, String, ProtocolKind)> = Vec::new();
    for &cores in &cores_list {
        for fabric in &fabrics {
            for &protocol in &protocols {
                cells.push((cores, fabric.clone(), protocol));
            }
        }
    }
    // Each cell keeps its repeats serial (back-to-back runs of the same
    // config are the fair wall-clock comparison); `--jobs` only spreads
    // distinct cells over workers. Entries come back in cell order, so
    // the JSON and log are byte-stable at any job count.
    let entries: Vec<Entry> = parallel_map(&cells, jobs, |(cores, fabric, protocol)| {
        let (cores, protocol) = (*cores, *protocol);
        let mut cfg = SimConfig::paper_default(cores, AppProfile::fft(), protocol);
        cfg.insns_per_thread = insns;
        cfg.obs.profile = profile;
        cfg.set_topology(Topology::by_name(fabric, cores).expect("fabric validated at parse"));
        let mut best: Option<sb_sim::RunResult> = None;
        for _ in 0..repeats {
            let r = run_simulation(&cfg);
            if let Some(b) = &best {
                // Identical simulated outcome is a hard invariant.
                assert_eq!(b.wall_cycles, r.wall_cycles, "{protocol}@{cores}/{fabric}");
                assert_eq!(b.commits, r.commits, "{protocol}@{cores}/{fabric}");
                if r.perf.wall < b.perf.wall {
                    best = Some(r);
                }
            } else {
                best = Some(r);
            }
        }
        Entry {
            protocol,
            cores,
            fabric: fabric.clone(),
            result: best.expect("repeats >= 1"),
        }
    });
    for e in &entries {
        eprintln!(
            "[bench] {:>12} @ {:>4} cores on {:>6}: {}",
            e.protocol,
            e.cores,
            e.fabric,
            e.result.perf.render()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"sim_throughput\",\n");
    json.push_str("  \"app\": \"fft\",\n");
    json.push_str(&format!("  \"insns_per_thread\": {insns},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let p = &e.result.perf;
        // Phase wall-times come from the run's metrics registry — the
        // same source `figures --timing` renders.
        let phase = |name| e.result.metrics.gauge(name).unwrap_or(0.0);
        json.push_str(&format!(
            concat!(
                "    {{\"protocol\": \"{}\", \"cores\": {}, \"fabric\": \"{}\", ",
                "\"wall_cycles\": {}, \"commits\": {}, ",
                "\"events\": {}, \"protocol_steps\": {}, ",
                "\"wall_secs\": {:.6}, \"wall_ms\": {:.3}, \"events_per_sec\": {:.0}, ",
                "\"sim_cycles_per_sec\": {:.0}, ",
                "\"phase_setup_secs\": {:.6}, \"phase_run_secs\": {:.6}, ",
                "\"phase_drain_secs\": {:.6}}}{}\n"
            ),
            e.protocol,
            e.cores,
            e.fabric,
            e.result.wall_cycles,
            e.result.commits,
            p.events_dispatched,
            p.protocol_steps,
            p.wall.as_secs_f64(),
            p.wall.as_secs_f64() * 1e3,
            p.events_per_sec(),
            p.sim_cycles_per_sec(),
            phase("phase.setup_secs"),
            phase("phase.run_secs"),
            phase("phase.drain_secs"),
            // With --profile a prof object always follows this one, so
            // the comma is unconditional there.
            if profile || i + 1 != entries.len() {
                ","
            } else {
                ""
            },
        ));
        if profile {
            // Host self-profiling fields (see the `profile` binary for
            // the human-readable report of the same counters).
            let m = &e.result.metrics;
            let c = |name| m.counter(name).unwrap_or(0);
            json.push_str(&format!(
                concat!(
                    "    {{\"prof\": true, \"protocol\": \"{}\", \"cores\": {}, ",
                    "\"fabric\": \"{}\", ",
                    "\"superphases\": {}, \"hub_busy_phases\": {}, ",
                    "\"hub_utilization\": {:.6}, ",
                    "\"queue_ring_pushes\": {}, \"queue_far_pushes\": {}, ",
                    "\"queue_past_pushes\": {}, \"peak_rss_bytes\": {}}}{}\n"
                ),
                e.protocol,
                e.cores,
                e.fabric,
                c("prof.superphases"),
                c("prof.hub_busy_phases"),
                m.gauge("prof.hub_utilization").unwrap_or(0.0),
                c("prof.queue.ring_pushes"),
                c("prof.queue.far_pushes"),
                c("prof.queue.past_pushes"),
                m.gauge("prof.peak_rss_bytes").unwrap_or(0.0) as u64,
                if i + 1 == entries.len() { "" } else { "," },
            ));
        }
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("[bench] cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[bench] wrote {out_path}");

    if let Some(limit_mb) = max_rss_mb {
        let over = check_rss(&entries, limit_mb);
        if over > 0 {
            eprintln!("[bench] FAIL: {over} cell(s) exceeded the {limit_mb} MB peak-RSS budget");
            std::process::exit(1);
        }
        eprintln!("[bench] peak-RSS gate passed (budget {limit_mb} MB)");
    }

    if let Some(baseline_path) = compare {
        let regressions = check_regressions(&baseline_path, &entries, max_regress);
        if regressions > 0 {
            eprintln!("[bench] FAIL: {regressions} cell(s) regressed more than {max_regress}%");
            std::process::exit(1);
        }
        eprintln!("[bench] regression gate passed (threshold {max_regress}%)");
    }
}

/// Checks every cell's `prof.peak_rss_bytes` against the budget; prints
/// one line per cell and returns how many exceeded it. Peak RSS is a
/// process-wide high-water mark, so cells measured later in the process
/// inherit earlier peaks — run one cell per process (as the CI smoke
/// does) for per-configuration numbers.
fn check_rss(entries: &[Entry], limit_mb: u64) -> u32 {
    let mut over = 0u32;
    for e in entries {
        let rss = e.result.metrics.gauge("prof.peak_rss_bytes").unwrap_or(0.0) as u64;
        let rss_mb = rss / (1024 * 1024);
        let verdict = if rss == 0 {
            "unmeasured" // platform without RSS reporting: do not gate
        } else if rss_mb > limit_mb {
            over += 1;
            "OVER BUDGET"
        } else {
            "ok"
        };
        eprintln!(
            "[bench] {:>12} @ {:>4} cores on {:>6}: peak RSS {} MB (budget {} MB) {}",
            e.protocol, e.cores, e.fabric, rss_mb, limit_mb, verdict
        );
    }
    over
}

/// Compares the fresh measurements against a baseline
/// `BENCH_throughput.json`; prints one line per `(protocol, cores,
/// fabric)` cell and returns how many regressed beyond `max_regress`
/// percent. Baseline rows without a `fabric` field predate the fabric
/// sweeps and mean `torus`; `prof` rows carry no throughput and are
/// skipped.
fn check_regressions(baseline_path: &str, entries: &[Entry], max_regress: f64) -> u32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[bench] cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline = match JsonValue::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("[bench] baseline {baseline_path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let runs = baseline
        .get("runs")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| {
            eprintln!("[bench] baseline {baseline_path} has no \"runs\" array");
            std::process::exit(1);
        });

    let mut regressions = 0u32;
    for run in runs {
        if run.get("prof").is_some() {
            continue; // profiling side-row, no throughput to gate on
        }
        let (Some(proto), Some(cores), Some(base_eps)) = (
            run.get("protocol").and_then(|v| v.as_str()),
            run.get("cores").and_then(|v| v.as_i64()),
            run.get("events_per_sec").and_then(|v| v.as_f64()),
        ) else {
            eprintln!("[bench] baseline entry missing protocol/cores/events_per_sec; skipped");
            continue;
        };
        let fabric = run
            .get("fabric")
            .and_then(|v| v.as_str())
            .unwrap_or("torus");
        let Some(e) = entries.iter().find(|e| {
            e.protocol.to_string() == proto && e.cores as i64 == cores && e.fabric == fabric
        }) else {
            eprintln!("[bench] {proto}@{cores}/{fabric}: in baseline but not measured; skipped");
            continue;
        };
        let now_eps = e.result.perf.events_per_sec();
        if base_eps <= 0.0 {
            continue; // degenerate baseline cell; nothing to gate on
        }
        let delta_pct = (now_eps - base_eps) / base_eps * 100.0;
        let verdict = if delta_pct < -max_regress {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        eprintln!(
            "[bench] {proto:>12} @ {cores:>4} cores on {fabric:>6}: {base_eps:>12.0} -> {now_eps:>12.0} ev/s ({delta_pct:+.1}%) {verdict}"
        );
    }
    regressions
}
