//! One-line calibration probe: run a single (app, protocol, cores,
//! insns) configuration and print every headline metric on one line.
//! Handy for quick comparisons while tuning workload models.
//!
//! ```text
//! cargo run --release -p sb-sim --bin calib -- [app] [protocol] [cores] [insns]
//! ```
//!
//! Environment: `SB_MAX_SQUASH=<n>` overrides the starvation-reservation
//! threshold; `SB_SIM_PROGRESS=1` prints liveness diagnostics.

use sb_proto::ProtocolKind;
use sb_sim::{run_simulation, SimConfig};
use sb_workloads::AppProfile;

fn usage() -> ! {
    eprintln!("usage: calib -- [app] [protocol] [cores] [insns]");
    std::process::exit(2);
}

/// Positional argument `i` parsed by `parse`, `default` when absent; a
/// value that does not parse is a usage error.
fn arg<T>(args: &[String], i: usize, default: T, parse: impl Fn(&str) -> Option<T>) -> T {
    args.get(i)
        .map_or(Some(default), |s| parse(s))
        .unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() > 5 {
        usage();
    }
    let app = arg(&args, 1, AppProfile::fft(), AppProfile::by_name);
    let proto: ProtocolKind = arg(&args, 2, ProtocolKind::ScalableBulk, |s| s.parse().ok());
    let cores: u16 = arg(&args, 3, 64, |s| s.parse().ok().filter(|&c| c >= 1));
    let insns: u64 = arg(&args, 4, 20_000, |s| s.parse().ok());
    let t0 = std::time::Instant::now();
    let app_name = app.name;
    let mut cfg = SimConfig::paper_default(cores, app, proto);
    cfg.insns_per_thread = insns;
    if let Ok(m) = std::env::var("SB_MAX_SQUASH") {
        cfg.sb.max_squashes_before_reservation = m.parse().unwrap();
    }
    let r = run_simulation(&cfg);
    println!(
        "{app_name} {proto} cores={cores} wall={} commits={} lat={:.1} dW={:.2} dR={:.2} br={:.2} q={:.2} sq={:.4} nacks={} u%={:.2} c%={:.2} co%={:.3} s%={:.4} msgs={} rr={} [{:?}]",
        r.wall_cycles, r.commits, r.latency.mean(),
        r.dirs.mean_write_group(), r.dirs.mean_read_group(),
        r.gauges.bottleneck_ratio(), r.gauges.mean_queue_length(),
        r.squash_rate(), r.read_nacks,
        r.breakdown.fraction_useful(), r.breakdown.fraction_cache_miss(),
        r.breakdown.fraction_commit(), r.breakdown.fraction_squash(),
        r.traffic.total_messages(), r.remote_reads, t0.elapsed()
    );
    use sb_net::TrafficClass::*;
    println!(
        "  classes: MemRd={} ShRd={} DirtyRd={} Large={} SmallC={}",
        r.traffic.count(MemRd),
        r.traffic.count(RemoteShRd),
        r.traffic.count(RemoteDirtyRd),
        r.traffic.count(LargeCMessage),
        r.traffic.count(SmallCMessage)
    );
}
