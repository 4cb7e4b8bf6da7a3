//! Protocol-dispatching run entry points.

use sb_baselines::{BulkSc, Seq, SeqTs, Tcc};
use sb_core::ScalableBulk;
use sb_proto::ProtocolKind;
use sb_workloads::AppProfile;

use crate::config::SimConfig;
use crate::machine::Machine;
use crate::result::RunResult;
use crate::sched::Scheduler;

/// Runs one simulation described by `cfg`, instantiating the configured
/// protocol.
///
/// # Examples
///
/// ```
/// use sb_proto::ProtocolKind;
/// use sb_sim::{run_simulation, SimConfig};
/// use sb_workloads::AppProfile;
///
/// let mut cfg = SimConfig::paper_default(8, AppProfile::fft(), ProtocolKind::ScalableBulk);
/// cfg.insns_per_thread = 6_000;
/// let r = run_simulation(&cfg);
/// assert!(r.commits > 0);
/// assert!(r.wall_cycles > 0);
/// ```
pub fn run_simulation(cfg: &SimConfig) -> RunResult {
    run_simulation_with(cfg, None)
}

/// Like [`run_simulation`], dispatching same-cycle event batches through
/// `sched` (see [`Scheduler`](crate::sched::Scheduler)). Used by the
/// `sb-check` bounded-interleaving explorer to enumerate and replay
/// schedules.
pub fn run_simulation_scheduled(cfg: &SimConfig, sched: &mut dyn Scheduler) -> RunResult {
    run_simulation_with(cfg, Some(sched))
}

fn run_simulation_with(cfg: &SimConfig, sched: Option<&mut dyn Scheduler>) -> RunResult {
    match cfg.protocol {
        ProtocolKind::ScalableBulk => {
            Machine::new(cfg.clone(), ScalableBulk::new(cfg.sb, cfg.cores)).run_with(sched)
        }
        ProtocolKind::Tcc => {
            Machine::new(cfg.clone(), Tcc::new(cfg.tcc, cfg.cores)).run_with(sched)
        }
        ProtocolKind::Seq => Machine::new(cfg.clone(), Seq::new(cfg.cores)).run_with(sched),
        ProtocolKind::SeqTs => Machine::new(cfg.clone(), SeqTs::new(cfg.cores)).run_with(sched),
        // BulkSc::new clamps an out-of-range arbiter placement itself.
        ProtocolKind::BulkSc => {
            Machine::new(cfg.clone(), BulkSc::new(cfg.bulksc, cfg.cores, cfg.cores)).run_with(sched)
        }
    }
}

/// Convenience: runs `app` on `cores` cores under `protocol` with
/// `insns_per_thread` committed instructions per thread.
pub fn run_app(
    app: AppProfile,
    cores: u16,
    protocol: ProtocolKind,
    insns_per_thread: u64,
) -> RunResult {
    let mut cfg = SimConfig::paper_default(cores, app, protocol);
    cfg.insns_per_thread = insns_per_thread;
    run_simulation(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(protocol: ProtocolKind) -> SimConfig {
        let mut cfg = SimConfig::paper_default(8, AppProfile::fft(), protocol);
        cfg.insns_per_thread = 8_000;
        cfg
    }

    #[test]
    fn all_four_protocols_complete_a_small_run() {
        for protocol in ProtocolKind::ALL {
            let r = run_simulation(&small_cfg(protocol));
            assert!(r.commits >= 8 * 3, "{protocol}: commits {}", r.commits);
            assert!(r.wall_cycles > 8_000, "{protocol}");
            assert!(r.breakdown.useful > 0, "{protocol}");
            assert!(r.latency.count() > 0, "{protocol}");
        }
    }

    #[test]
    fn runs_are_deterministic_under_every_protocol() {
        // Regression guard for the zero-copy/no-alloc event-loop work:
        // shared signature handles, reused command buffers, and Fx-hashed
        // internal maps must leave every protocol a pure function of its
        // config and seed.
        // Table 3's four protocols plus the SEQ-TS extension.
        for protocol in ProtocolKind::ALL.into_iter().chain([ProtocolKind::SeqTs]) {
            let cfg = small_cfg(protocol);
            let a = run_simulation(&cfg);
            let b = run_simulation(&cfg);
            assert_eq!(a.wall_cycles, b.wall_cycles, "{protocol}");
            assert_eq!(a.commits, b.commits, "{protocol}");
            assert_eq!(
                a.traffic.total_messages(),
                b.traffic.total_messages(),
                "{protocol}"
            );
        }
    }

    #[test]
    fn single_processor_run_completes() {
        let mut cfg = SimConfig::single_processor(AppProfile::fft(), 8, 4_000);
        cfg.seed = 3;
        let r = run_simulation(&cfg);
        assert!(r.commits >= 8, "one core does all threads' chunks");
        // No commit contention on one core: zero squashes.
        assert_eq!(r.squashes(), 0);
    }

    #[test]
    fn scalablebulk_avoids_commit_stall_on_shared_dirs() {
        // Blackscholes-like wide groups: SB should show less commit stall
        // than TCC on the same workload.
        let mut sb_cfg =
            SimConfig::paper_default(16, AppProfile::blackscholes(), ProtocolKind::ScalableBulk);
        sb_cfg.insns_per_thread = 12_000;
        let mut tcc_cfg = sb_cfg.clone();
        tcc_cfg.protocol = ProtocolKind::Tcc;
        let sb = run_simulation(&sb_cfg);
        let tcc = run_simulation(&tcc_cfg);
        assert!(
            sb.breakdown.commit <= tcc.breakdown.commit,
            "SB commit stall {} vs TCC {}",
            sb.breakdown.commit,
            tcc.breakdown.commit
        );
    }
}
