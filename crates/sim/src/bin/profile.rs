//! Host self-profiling report for the two-plane superphase executor.
//!
//! ```text
//! cargo run --release -p sb-sim --bin profile -- \
//!     [--cores N] [--app NAME] [--proto P] [--insns N] [--seed S] [--out PATH]
//! ```
//!
//! Runs one simulation with `cfg.obs.profile` on (independent of the
//! observability log — profiling alone allocates nothing per event) and
//! prints where the *host* time went: core-unit (plane A) busy time and
//! unit visits (units actually run, per dispatched event), hub-plane
//! utilization, directory signature expansions and the lines they
//! matched, the accesses the cores executed and how many of them were
//! new to their chunk, the calendar queue's tier occupancy/overflow
//! counters, and peak RSS.
//!
//! Profiling never touches simulated state: wall cycles and commits are
//! bit-identical with profiling on or off (the golden-trace battery
//! pins this), and with `obs` fully off the run is byte-identical to an
//! unprofiled one.
//!
//! `--out PATH` additionally writes the full metrics registry (simulated
//! counters + `prof.*` fields) as canonical JSON for CI artifacts.

use sb_proto::ProtocolKind;
use sb_sim::{run_simulation, SimConfig};
use sb_workloads::AppProfile;

fn usage() -> ! {
    eprintln!(
        "usage: profile -- [--cores N] [--app NAME] [--proto P] [--insns N] \
         [--seed S] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cores: u16 = 64;
    let mut app = AppProfile::fft();
    let mut proto = ProtocolKind::ScalableBulk;
    let mut insns: u64 = 10_000;
    let mut seed: u64 = 0x5ca1ab1e;
    let mut out: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
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
            "--out" => {
                i += 1;
                out = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }

    let mut cfg = SimConfig::paper_default(cores, app, proto);
    cfg.insns_per_thread = insns;
    cfg.seed = seed;
    cfg.obs.profile = true;
    let r = run_simulation(&cfg);
    let m = &r.metrics;
    let c = |name: &str| m.counter(name).unwrap_or(0);
    let g = |name: &str| m.gauge(name).unwrap_or(0.0);

    println!(
        "== executor profile: {} on {cores} cores under {proto} ({insns} insns/thread, seed {seed:#x}) ==",
        app.name
    );
    println!(
        "simulated: {} commits in {} wall cycles (bit-identical with profiling off)",
        r.commits, r.wall_cycles
    );
    println!("host:      {}", r.perf.render());
    println!();

    let superphases = c("prof.superphases");
    println!(
        "superphases: {superphases} ({} in drain)",
        c("prof.drain_superphases")
    );
    let visits = c("prof.unit_visits");
    let events = r.perf.events_dispatched.max(1);
    println!(
        "core units plane A: {:.6}s busy, {visits} unit visits ({:.3} per event)",
        g("prof.domain_busy_secs.d0"),
        visits as f64 / events as f64
    );
    println!(
        "hub plane B: busy {}/{} phases (utilization {:.3}), {:.6}s",
        c("prof.hub_busy_phases"),
        c("prof.hub_phases"),
        g("prof.hub_utilization"),
        g("prof.hub_busy_secs")
    );
    println!(
        "directory expansions: {} (sharers_matching + apply_commit), {} lines matched",
        c("prof.dir_expansions"),
        c("prof.dir_lines_matched")
    );
    println!(
        "core-side expansions: {} (bulk_invalidate), {} lines matched",
        c("prof.core_expansions"),
        c("prof.core_lines_matched")
    );
    println!(
        "chunk recording: {} accesses, {} (line, kind) pairs new to their chunk",
        c("prof.accesses"),
        c("prof.lines_recorded")
    );
    println!(
        "calendar queue: {} ring pushes (hwm {}), {} far (hwm {}), {} past (hwm {})",
        c("prof.queue.ring_pushes"),
        g("prof.queue.ring_hwm") as u64,
        c("prof.queue.far_pushes"),
        g("prof.queue.far_hwm") as u64,
        c("prof.queue.past_pushes"),
        g("prof.queue.past_hwm") as u64
    );
    let rss = g("prof.peak_rss_bytes");
    if rss > 0.0 {
        println!("peak RSS: {:.1} MiB", rss / (1024.0 * 1024.0));
    }

    if let Some(path) = out {
        let mut doc = sb_obs::json::JsonValue::obj([
            (
                "meta",
                sb_obs::json::JsonValue::obj([
                    ("protocol", format!("{proto:?}").into()),
                    ("app", app.name.into()),
                    ("cores", (cores as u64).into()),
                    ("insns_per_thread", insns.into()),
                    ("seed", seed.into()),
                ]),
            ),
            (
                "simulated",
                sb_obs::json::JsonValue::obj([
                    ("wall_cycles", r.wall_cycles.into()),
                    ("commits", r.commits.into()),
                ]),
            ),
        ]);
        if let sb_obs::json::JsonValue::Object(members) = &mut doc {
            members.push(("metrics".to_string(), m.to_json()));
        }
        std::fs::write(&path, doc.to_string_pretty()).expect("write profile json");
        eprintln!("[profile -> {}]", path.display());
    }
}
