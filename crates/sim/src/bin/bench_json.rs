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
//! `--max-regress` percent (default 15), or if any cell's simulated
//! fields (`wall_cycles`, `commits`, `events`, `protocol_steps`) differ
//! from the baseline's: a faster run of different simulated work is no
//! comparison. Cells faster than baseline with the same simulated
//! fields pass. A baseline of another `app` or `insns_per_thread` than
//! the run's exits 1 before any cell is compared.
//!
//! `--max-rss-mb MB` (implies `--profile`) additionally gates on
//! memory: the process exits non-zero if any cell's peak RSS exceeds
//! the budget of `MB` MiB (2^20 bytes, compared to the byte) — the
//! measuring stick for the memory-lean >=256-core directory state.
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
//! counts, hub utilization, event-queue pushes and summed peak length,
//! directory expansions and the lines they matched, and peak RSS. Off by default
//! so the gated measurement stays exactly the baseline configuration
//! (profiling costs two clock reads per superphase — small, but a gate
//! should compare like with like).

use sb_net::Topology;
use sb_obs::json::JsonValue;
use sb_proto::ProtocolKind;
use sb_sim::cli::{self, Args};
use sb_sim::experiments::Sweep;
use sb_sim::parallel::parallel_map;
use sb_sim::run_simulation;
use sb_workloads::AppProfile;

/// Bytes per MiB, the unit of `--max-rss-mb`.
const MIB: u64 = 1 << 20;

/// The application every cell runs.
const APP: &str = "fft";

/// The fields of a cell that depend only on the simulated work, which
/// `--compare` requires to equal the baseline's.
const SIMULATED: [&str; 4] = ["wall_cycles", "commits", "events", "protocol_steps"];

struct Entry {
    protocol: ProtocolKind,
    cores: u16,
    fabric: String,
    result: sb_sim::RunResult,
}

const USAGE: &str = "bench_json [--out PATH] [--insns N] [--repeats R] [--cores LIST] \
                     [--fabrics LIST] [--protocols LIST] [--jobs N|auto] \
                     [--compare BASELINE.json] [--max-regress PCT] [--profile] [--max-rss-mb MB]";

fn main() {
    let mut args = Args::from_env(USAGE);
    let mut out_path = String::from("BENCH_throughput.json");
    let mut sweep = Sweep {
        insns_per_thread: 10_000,
        jobs: 1,
        ..Sweep::default()
    };
    let mut repeats: u32 = 3;
    let mut compare: Option<String> = None;
    let mut max_regress: f64 = 15.0;
    let mut profile = false;
    let mut cores_list: Vec<u16> = vec![8, 32, 64];
    let mut fabrics: Vec<String> = vec!["torus".to_string()];
    let mut protocols: Vec<ProtocolKind> = ProtocolKind::ALL.to_vec();
    let mut max_rss_mb: Option<u64> = None;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--profile" => profile = true,
            "--out" => out_path = args.value(cli::parse),
            "--insns" => sweep.insns_per_thread = args.value(cli::parse),
            "--repeats" => repeats = args.value(cli::parse),
            "--compare" => compare = Some(args.value(cli::parse)),
            // A NaN or infinite threshold would pass every cell.
            "--max-regress" => {
                max_regress =
                    args.value(|s| cli::parse(s).filter(|p: &f64| p.is_finite() && *p >= 0.0))
            }
            "--jobs" => sweep.jobs = args.value(cli::jobs),
            "--cores" => cores_list = args.value(|s| cli::list(s, cli::cores)),
            "--fabrics" => fabrics = args.value(|s| cli::list(s, cli::parse)),
            "--protocols" => protocols = args.value(|s| cli::list(s, cli::parse)),
            "--max-rss-mb" => max_rss_mb = Some(args.value(cli::parse)),
            _ => args.usage(),
        }
    }
    if !cli::fabrics_fit(&fabrics, &cores_list) {
        args.usage();
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
    let entries: Vec<Entry> = parallel_map(&cells, sweep.jobs, |(cores, fabric, protocol)| {
        let (cores, protocol) = (*cores, *protocol);
        let mut cfg = sweep.config(cores, AppProfile::fft(), protocol);
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
        cli::note(format_args!(
            "[bench] {:>12} @ {:>4} cores on {:>6}: {}",
            e.protocol,
            e.cores,
            e.fabric,
            e.result.perf.render()
        ));
    }

    let mut runs = Vec::new();
    for e in &entries {
        let p = &e.result.perf;
        let m = &e.result.metrics;
        // Phase wall-times and profiling gauges come from the run's
        // metrics registry.
        let gauge = |name| m.gauge(name).unwrap_or(0.0);
        let cell = [
            ("protocol", JsonValue::from(e.protocol.to_string())),
            ("cores", JsonValue::from(u64::from(e.cores))),
            ("fabric", JsonValue::from(e.fabric.as_str())),
        ];
        let wall = p.wall.as_secs_f64();
        runs.push(JsonValue::obj(cell.clone().into_iter().chain([
            ("wall_cycles", JsonValue::from(e.result.wall_cycles)),
            ("commits", JsonValue::from(e.result.commits)),
            ("events", JsonValue::from(p.events_dispatched)),
            ("protocol_steps", JsonValue::from(p.protocol_steps)),
            ("wall_secs", places(wall, 6)),
            ("wall_ms", places(wall * 1e3, 3)),
            ("events_per_sec", places(p.events_per_sec(), 0)),
            ("sim_cycles_per_sec", places(p.sim_cycles_per_sec(), 0)),
            ("phase_setup_secs", places(gauge("phase.setup_secs"), 6)),
            ("phase_run_secs", places(gauge("phase.run_secs"), 6)),
            ("phase_drain_secs", places(gauge("phase.drain_secs"), 6)),
        ])));
        if profile {
            // Host self-profiling fields (see the `profile` binary for
            // the human-readable report of the same counters).
            let c = |name| JsonValue::from(m.counter(name).unwrap_or(0));
            let prof = [("prof", JsonValue::from(true))];
            runs.push(JsonValue::obj(prof.into_iter().chain(cell).chain([
                ("superphases", c("prof.superphases")),
                ("unit_visits", c("prof.unit_visits")),
                ("hub_busy_phases", c("prof.hub_busy_phases")),
                ("hub_utilization", places(gauge("prof.hub_utilization"), 6)),
                ("queue_pushes", c("prof.queue.ring_pushes")),
                ("queue_peak_len", places(gauge("prof.queue.ring_hwm"), 0)),
                ("dir_expansions", c("prof.dir_expansions")),
                ("dir_lines_matched", c("prof.dir_lines_matched")),
                ("core_expansions", c("prof.core_expansions")),
                ("core_lines_matched", c("prof.core_lines_matched")),
                ("accesses", c("prof.accesses")),
                ("lines_recorded", c("prof.lines_recorded")),
                ("peak_rss_bytes", places(gauge("prof.peak_rss_bytes"), 0)),
            ])));
        }
    }
    let json = JsonValue::obj([
        ("benchmark", JsonValue::from("sim_throughput")),
        ("app", JsonValue::from(APP)),
        ("insns_per_thread", JsonValue::from(sweep.insns_per_thread)),
        ("repeats", JsonValue::from(u64::from(repeats))),
        ("runs", JsonValue::Array(runs)),
    ])
    .to_string_pretty();
    cli::write_or_exit("bench", &out_path, &json);
    cli::note(format_args!("[bench] wrote {out_path}"));

    if let Some(limit_mb) = max_rss_mb {
        let over = check_rss(&entries, limit_mb);
        if over > 0 {
            cli::note(format_args!(
                "[bench] FAIL: {over} cell(s) exceeded the {limit_mb} MiB peak-RSS budget"
            ));
            std::process::exit(1);
        }
        cli::note(format_args!(
            "[bench] peak-RSS gate passed (budget {limit_mb} MiB)"
        ));
    }

    if let Some(baseline_path) = compare {
        let failures = check_regressions(
            &baseline_path,
            &entries,
            sweep.insns_per_thread,
            max_regress,
        );
        if failures > 0 {
            cli::note(format_args!(
                "[bench] FAIL: {failures} cell(s) regressed more than {max_regress}% \
                 or differ from the baseline's simulated fields"
            ));
            std::process::exit(1);
        }
        cli::note(format_args!(
            "[bench] regression gate passed (threshold {max_regress}%, simulated fields equal)"
        ));
    }
}

/// Checks every cell's `prof.peak_rss_bytes` against the budget; prints
/// one line per cell and returns how many exceeded it. Peak RSS is a
/// process-wide high-water mark, so cells measured later in the process
/// inherit earlier peaks — run one cell per process (as the CI smoke
/// does) for per-configuration numbers.
fn check_rss(entries: &[Entry], limit_mib: u64) -> u32 {
    let mut over = 0u32;
    for e in entries {
        let rss = e.result.metrics.gauge("prof.peak_rss_bytes").unwrap_or(0.0) as u64;
        let verdict = if rss == 0 {
            "unmeasured" // platform without RSS reporting: do not gate
        } else if over_budget(rss, limit_mib) {
            over += 1;
            "OVER BUDGET"
        } else {
            "ok"
        };
        cli::note(format_args!(
            "[bench] {:>12} @ {:>4} cores on {:>6}: peak RSS {:.1} MiB (budget {} MiB) {}",
            e.protocol,
            e.cores,
            e.fabric,
            rss as f64 / MIB as f64,
            limit_mib,
            verdict
        ));
    }
    over
}

/// Whether a peak of `rss` bytes exceeds a budget of `limit_mib` MiB,
/// compared in bytes, so a peak even one byte over the budget fails.
fn over_budget(rss: u64, limit_mib: u64) -> bool {
    rss > limit_mib.saturating_mul(MIB)
}

/// `x` rounded to `digits` decimal places, the resolution the report
/// keeps; with none it is written as an integer.
fn places(x: f64, digits: i32) -> JsonValue {
    if digits == 0 {
        return JsonValue::from(x.round() as u64);
    }
    let scale = 10f64.powi(digits);
    JsonValue::from((x * scale).round() / scale)
}

/// The values of `e`'s [`SIMULATED`] fields.
fn simulated(e: &Entry) -> [u64; 4] {
    let (r, p) = (&e.result, &e.result.perf);
    [
        r.wall_cycles,
        r.commits,
        p.events_dispatched,
        p.protocol_steps,
    ]
}

/// The [`SIMULATED`] fields of baseline row `run` that differ from
/// `now`, each as `field baseline -> now`; a field the row lacks
/// differs.
fn simulated_mismatches(run: &JsonValue, now: [u64; 4]) -> Vec<String> {
    SIMULATED
        .into_iter()
        .zip(now)
        .filter_map(|(field, now)| {
            let base = run.get(field);
            (base != Some(&JsonValue::from(now))).then(|| {
                let base = base.map_or("missing".to_string(), JsonValue::to_string);
                format!("{field} {base} -> {now}")
            })
        })
        .collect()
}

/// Compares the fresh measurements against a baseline
/// `BENCH_throughput.json`; prints one line per `(protocol, cores,
/// fabric)` cell and returns how many regressed beyond `max_regress`
/// percent or differ in a [`SIMULATED`] field. Exits 1 if the baseline
/// ran another app or `insns_per_thread`. Baseline rows without a
/// `fabric` field predate the fabric sweeps and mean `torus`; `prof`
/// rows carry no throughput and are skipped.
fn check_regressions(
    baseline_path: &str,
    entries: &[Entry],
    insns_per_thread: u64,
    max_regress: f64,
) -> u32 {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            cli::note(format_args!(
                "[bench] cannot read baseline {baseline_path}: {e}"
            ));
            std::process::exit(1);
        }
    };
    let baseline = match JsonValue::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            cli::note(format_args!(
                "[bench] baseline {baseline_path} is not valid JSON: {e}"
            ));
            std::process::exit(1);
        }
    };
    let runs = baseline
        .get("runs")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| {
            cli::note(format_args!(
                "[bench] baseline {baseline_path} has no \"runs\" array"
            ));
            std::process::exit(1);
        });
    for (field, now) in [
        ("app", JsonValue::from(APP)),
        ("insns_per_thread", JsonValue::from(insns_per_thread)),
    ] {
        let base = baseline.get(field);
        if base != Some(&now) {
            let base = base.map_or("none".to_string(), JsonValue::to_string);
            cli::note(format_args!(
                "[bench] baseline {baseline_path} has {field} {base}, this run {now}: not comparable"
            ));
            std::process::exit(1);
        }
    }

    let mut failures = 0u32;
    for run in runs {
        if run.get("prof").is_some() {
            continue; // profiling side-row, no throughput to gate on
        }
        let (Some(proto), Some(cores), Some(base_eps)) = (
            run.get("protocol").and_then(|v| v.as_str()),
            run.get("cores").and_then(|v| v.as_i64()),
            run.get("events_per_sec").and_then(|v| v.as_f64()),
        ) else {
            cli::note(format_args!(
                "[bench] baseline entry missing protocol/cores/events_per_sec; skipped"
            ));
            continue;
        };
        let fabric = run
            .get("fabric")
            .and_then(|v| v.as_str())
            .unwrap_or("torus");
        let Some(e) = entries.iter().find(|e| {
            e.protocol.to_string() == proto && e.cores as i64 == cores && e.fabric == fabric
        }) else {
            cli::note(format_args!(
                "[bench] {proto}@{cores}/{fabric}: in baseline but not measured; skipped"
            ));
            continue;
        };
        let mismatches = simulated_mismatches(run, simulated(e));
        for m in &mismatches {
            cli::note(format_args!(
                "[bench] {proto:>12} @ {cores:>4} cores on {fabric:>6}: {m} DIFFERS"
            ));
        }
        let mut failed = !mismatches.is_empty();
        let now_eps = e.result.perf.events_per_sec();
        // A degenerate baseline cell has no throughput to gate on.
        if base_eps > 0.0 {
            let delta_pct = (now_eps - base_eps) / base_eps * 100.0;
            let verdict = if delta_pct < -max_regress {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            cli::note(format_args!(
                "[bench] {proto:>12} @ {cores:>4} cores on {fabric:>6}: {base_eps:>12.0} -> {now_eps:>12.0} ev/s ({delta_pct:+.1}%) {verdict}"
            ));
        }
        failures += u32::from(failed);
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_with_one_simulated_field_off_differs() {
        let row = |events: u64| {
            JsonValue::obj([
                ("protocol", JsonValue::from("ScalableBulk")),
                ("wall_cycles", JsonValue::from(15_789u64)),
                ("commits", JsonValue::from(55u64)),
                ("events", JsonValue::from(events)),
                ("protocol_steps", JsonValue::from(650u64)),
                ("events_per_sec", JsonValue::from(419_946u64)),
            ])
        };
        let now = [15_789, 55, 5_755, 650];
        assert!(simulated_mismatches(&row(5_755), now).is_empty());
        assert_eq!(
            simulated_mismatches(&row(5_756), now),
            ["events 5756 -> 5755"]
        );
        let bare = JsonValue::obj([("wall_cycles", JsonValue::from(15_789u64))]);
        assert_eq!(
            simulated_mismatches(&bare, now).len(),
            3,
            "missing fields differ"
        );
    }

    #[test]
    fn rss_gate_compares_bytes() {
        assert!(!over_budget(600 * MIB, 600), "exactly the budget passes");
        assert!(over_budget(600 * MIB + 1, 600), "one byte over fails");
    }
}
