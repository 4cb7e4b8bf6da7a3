//! Cross-crate end-to-end tests: full-system runs through the public
//! facade API. The per-protocol golden table of observed runs lives in
//! `crates/sim/tests/golden_trace.rs`.

use scalablebulk::prelude::*;

fn quick(app: AppProfile, cores: u16, proto: ProtocolKind) -> RunResult {
    let mut cfg = SimConfig::paper_default(cores, app, proto);
    cfg.insns_per_thread = 6_000;
    cfg.seed = 0xfeed;
    run_simulation(&cfg)
}

#[test]
fn every_protocol_completes_every_suite_sample() {
    // One SPLASH-2 and one PARSEC app through all four protocols.
    for app in [AppProfile::fft(), AppProfile::vips()] {
        for proto in ProtocolKind::ALL {
            let r = quick(app, 16, proto);
            assert!(r.commits >= 16 * 2, "{}/{proto}: {}", app.name, r.commits);
            assert!(r.wall_cycles > 0);
            assert_eq!(
                r.latency.count(),
                r.commits,
                "every commit has exactly one latency sample"
            );
        }
    }
}

#[test]
fn committed_work_matches_the_configured_target() {
    let mut cfg = SimConfig::paper_default(8, AppProfile::lu(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = 10_000;
    let r = run_simulation(&cfg);
    // Every core must retire at least its target of committed instructions;
    // chunks are ~2000 insns, so the expected commit count is bounded.
    assert!(r.commits >= 8 * (10_000 / 2_300), "commits {}", r.commits);
    assert!(r.commits <= 8 * (10_000 / 1_000), "commits {}", r.commits);
}

#[test]
fn identical_configs_are_bit_deterministic() {
    let a = quick(AppProfile::barnes(), 16, ProtocolKind::ScalableBulk);
    let b = quick(AppProfile::barnes(), 16, ProtocolKind::ScalableBulk);
    assert_eq!(a.wall_cycles, b.wall_cycles);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.squashes(), b.squashes());
    assert_eq!(a.traffic.total_messages(), b.traffic.total_messages());
    assert_eq!(a.dirs.mean_write_group(), b.dirs.mean_write_group());
}

#[test]
fn different_seeds_differ() {
    let mut cfg = SimConfig::paper_default(8, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = 6_000;
    cfg.seed = 1;
    let a = run_simulation(&cfg);
    cfg.seed = 2;
    let b = run_simulation(&cfg);
    assert_ne!(a.wall_cycles, b.wall_cycles);
}

#[test]
fn single_processor_normalization_run_works() {
    let mut cfg = SimConfig::single_processor(AppProfile::fft(), 8, 4_000);
    cfg.seed = 5;
    let r = run_simulation(&cfg);
    assert!(r.commits >= 12, "does 8 threads' worth of chunks");
    assert_eq!(r.squashes(), 0, "no conflicts on one core");
    assert_eq!(r.breakdown.commit, 0, "no commit contention on one core");
}

#[test]
fn squash_rates_stay_sane_across_the_board() {
    for app in [
        AppProfile::fft(),
        AppProfile::canneal(),
        AppProfile::radix(),
    ] {
        let r = quick(app, 16, ProtocolKind::ScalableBulk);
        assert!(
            r.squash_rate() < 0.30,
            "{}: squash rate {:.3}",
            app.name,
            r.squash_rate()
        );
    }
}

#[test]
fn oci_off_is_a_valid_configuration() {
    let mut cfg = SimConfig::paper_default(16, AppProfile::barnes(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = 6_000;
    cfg.oci = false;
    let r = run_simulation(&cfg);
    assert!(r.commits > 0, "conservative commit initiation still works");
}

#[test]
fn priority_rotation_is_a_valid_configuration() {
    let mut cfg = SimConfig::paper_default(16, AppProfile::fmm(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = 6_000;
    cfg.sb.rotation_interval = Some(5_000);
    let r = run_simulation(&cfg);
    assert!(r.commits > 0);
}

#[test]
fn smaller_signatures_squash_more() {
    let mut base = SimConfig::paper_default(16, AppProfile::barnes(), ProtocolKind::ScalableBulk);
    base.insns_per_thread = 8_000;
    let big = run_simulation(&base);
    let mut small = base.clone();
    small.sig = SignatureConfig::new(256, 4);
    let small_r = run_simulation(&small);
    assert!(
        small_r.squashes_alias >= big.squashes_alias,
        "256-bit signatures must alias at least as much: {} vs {}",
        small_r.squashes_alias,
        big.squashes_alias
    );
}
