//! The run-level parallel executor must be unobservable in results.
//!
//! Every figure/bench/fuzz driver funnels its independent runs through
//! `sb_sim::parallel`, so the whole-system guarantee reduces to: the
//! same work-list executed at different `jobs` values yields the same
//! `RunResult`s in the same order, and everything rendered from them
//! (tables, merged metrics JSON) is byte-identical. `--jobs 1` is the
//! serial reference path (no threads are spawned at all).

use sb_proto::ProtocolKind;
use sb_sim::experiments::{ablation_signature_table, RunSet, Sweep};
use sb_sim::parallel::parallel_map;
use sb_sim::{run_simulation, SimConfig};
use sb_workloads::AppProfile;

fn sweep_with_jobs(jobs: usize) -> Sweep {
    Sweep {
        insns_per_thread: 4_000,
        seed: 0xd15c0,
        jobs,
    }
}

/// The same RunSet collected serially and on 4 workers holds identical
/// simulated outcomes, metric for metric.
#[test]
fn runset_is_identical_at_jobs_1_and_4() {
    let apps = [AppProfile::fft(), AppProfile::radix()];
    let protos = [ProtocolKind::ScalableBulk, ProtocolKind::Tcc];
    let serial = RunSet::collect(&apps, &[8], &protos, &sweep_with_jobs(1), true);
    let parallel = RunSet::collect(&apps, &[8], &protos, &sweep_with_jobs(4), true);
    for app in &apps {
        for &p in &protos {
            let a = serial.get(app.name, 8, p);
            let b = parallel.get(app.name, 8, p);
            assert_eq!(a.wall_cycles, b.wall_cycles, "{}/{p}", app.name);
            assert_eq!(a.commits, b.commits, "{}/{p}", app.name);
            assert_eq!(a.squashes(), b.squashes(), "{}/{p}", app.name);
            // Host-side phase gauges legitimately differ run to run, so
            // compare only the simulated (deterministic) metrics.
            for name in a.metrics.names().filter(|n| !n.starts_with("phase.")) {
                assert_eq!(
                    a.metrics.counter(name),
                    b.metrics.counter(name),
                    "{}/{p}: metric {name}",
                    app.name
                );
            }
        }
        let (sa, sb) = (serial.single(app.name, 8), parallel.single(app.name, 8));
        assert_eq!(sa.wall_cycles, sb.wall_cycles, "{} 1p run", app.name);
    }
}

/// A rendered experiment table is byte-identical at any job count.
#[test]
fn rendered_table_is_byte_identical_across_job_counts() {
    let t1 = ablation_signature_table(AppProfile::fft(), &sweep_with_jobs(1)).render();
    let t4 = ablation_signature_table(AppProfile::fft(), &sweep_with_jobs(4)).render();
    assert_eq!(t1, t4, "table text depends on worker count");
}

/// Direct parallel_map over SimConfigs preserves input order even when
/// later items finish first (the 2-core config finishes well before the
/// 16-core one that precedes it).
#[test]
fn run_results_come_back_in_spec_order() {
    let mut specs: Vec<SimConfig> = Vec::new();
    for cores in [16u16, 2, 8, 4] {
        let mut cfg = SimConfig::paper_default(cores, AppProfile::fft(), ProtocolKind::Tcc);
        cfg.insns_per_thread = 2_000;
        specs.push(cfg);
    }
    let expect: Vec<(u64, u64)> = specs
        .iter()
        .map(|c| {
            let r = run_simulation(c);
            (r.wall_cycles, r.commits)
        })
        .collect();
    let got: Vec<(u64, u64)> = parallel_map(&specs, 4, |c| {
        let r = run_simulation(c);
        (r.wall_cycles, r.commits)
    });
    assert_eq!(got, expect);
}
