//! The run-level parallel executor must be unobservable in results.
//!
//! Every figure/bench/fuzz driver funnels its independent runs through
//! `sb_sim::parallel`, so the whole-system guarantee reduces to: the
//! same work-list executed at different `jobs` values yields the same
//! `RunResult`s in the same order, and everything rendered from them
//! (tables, metrics JSON) is byte-identical. `--jobs 1` is the
//! serial reference path (no threads are spawned at all).

use sb_proto::ProtocolKind;
use sb_sim::experiments::{ablation_signature_table, RunCache, Sweep};
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

/// The same runs cached serially and on 4 workers are identical
/// simulated outcomes, metric for metric.
#[test]
fn run_cache_is_identical_at_jobs_1_and_4() {
    let apps = [AppProfile::fft(), AppProfile::radix()];
    let protos = [ProtocolKind::ScalableBulk, ProtocolKind::Tcc];
    let single = |app: &AppProfile| {
        let mut cfg = SimConfig::single_processor(*app, 8, 4_000);
        cfg.seed = 0xd15c0;
        cfg
    };
    let fill = |jobs| {
        let mut cache = RunCache::new(sweep_with_jobs(jobs));
        let mut configs = cache.sweep().grid(&apps, &[8], &protos);
        configs.extend(apps.iter().map(single));
        cache.fill(&configs);
        cache
    };
    let (serial, parallel) = (fill(1), fill(4));
    for app in &apps {
        for &p in &protos {
            let a = serial.run(8, app, p);
            let b = parallel.run(8, app, p);
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
        let (sa, sb) = (serial.get(&single(app)), parallel.get(&single(app)));
        assert_eq!(sa.wall_cycles, sb.wall_cycles, "{} 1p run", app.name);
    }
}

/// A rendered experiment table is byte-identical at any job count.
#[test]
fn rendered_table_is_byte_identical_across_job_counts() {
    let render = |jobs| {
        ablation_signature_table(AppProfile::fft(), &mut RunCache::new(sweep_with_jobs(jobs)))
            .render()
    };
    assert_eq!(render(1), render(4), "table text depends on worker count");
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
