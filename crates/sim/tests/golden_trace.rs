//! Golden snapshot of the Perfetto export for one small deterministic
//! run, plus the observational-purity guard.
//!
//! The exporter's JSON must be a pure function of the run (itself a pure
//! function of config + seed): this pins the byte fingerprint of the
//! serialized document the way `golden_fig7` pins simulated results.
//! Any drift means either the simulation changed (regenerate
//! `golden_fig7` first) or the export schema changed (regenerate here).
//!
//! To regenerate after an *intentional* change, run
//!
//! ```text
//! SB_GOLDEN_PRINT=1 cargo test -p sb-sim --test golden_trace -- --nocapture
//! ```
//!
//! and paste the printed constants over `GOLDEN_*`.

use sb_proto::ProtocolKind;
use sb_sim::{perfetto_trace, run_simulation, verify_observability, SimConfig};
use sb_workloads::AppProfile;

const CORES: u16 = 4;
const INSNS: u64 = 4_000;

/// FNV-1a fingerprint of the serialized Perfetto document.
const GOLDEN_FINGERPRINT: u64 = 0x28a0a9ee6a3cb1fd;
/// Number of entries in `traceEvents` (metadata + timed).
const GOLDEN_EVENTS: usize = 397;

fn observed_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default(CORES, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = INSNS;
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    cfg
}

#[test]
fn perfetto_export_matches_golden_snapshot() {
    let r = run_simulation(&observed_cfg());
    let json = perfetto_trace(&r);
    let text = json.to_string();
    let events = json.get("traceEvents").unwrap().as_array().unwrap().len();
    if std::env::var_os("SB_GOLDEN_PRINT").is_some() {
        println!(
            "const GOLDEN_FINGERPRINT: u64 = {:#x};",
            sb_obs::fingerprint(text.as_bytes())
        );
        println!("const GOLDEN_EVENTS: usize = {events};");
        return;
    }
    assert_eq!(events, GOLDEN_EVENTS, "export event count drifted");
    assert_eq!(
        sb_obs::fingerprint(text.as_bytes()),
        GOLDEN_FINGERPRINT,
        "perfetto export drifted from golden snapshot"
    );
    // The pinned document is well-formed and reconciles with the run.
    let violations = verify_observability(&r);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Seed of the network-timing adversary for the perturbed golden row.
const ADVERSARY: u64 = 0x7e17_a11d;

/// Observed 16-core FFT runs (4k insns/thread, seed `0xfeed`, trace and
/// obs on) under all five protocols, plus ScalableBulk under the timing
/// adversary. Columns: protocol, perturbation seed (0 = none), commits,
/// wall cycles, `RunTrace::fingerprint`, Perfetto document fingerprint.
#[rustfmt::skip]
const GOLDEN_PROTOCOLS: [(ProtocolKind, u64, u64, u64, u64, u64); 6] = [
    (ProtocolKind::ScalableBulk, 0, 56, 9964, 0xb7ffbbca7db3b7d4, 0x8b3dca93bb224595),
    (ProtocolKind::Tcc, 0, 56, 10225, 0xbcd471d2a49c3978, 0x760c34ac128e19d0),
    (ProtocolKind::Seq, 0, 56, 10004, 0x7a93f514942129be, 0x96d91d9762b6b38e),
    (ProtocolKind::SeqTs, 0, 56, 9967, 0x4cc2be5eb57958f9, 0xae85931e61b75e2e),
    (ProtocolKind::BulkSc, 0, 56, 9945, 0xe1d4f8702a839e3d, 0x329b7719afd3df55),
    (ProtocolKind::ScalableBulk, ADVERSARY, 56, 13517, 0x2b2b8204ecf97d86, 0x4debe9fb5ebf1f56),
];

#[test]
fn every_protocol_matches_its_golden_row() {
    let print = std::env::var_os("SB_GOLDEN_PRINT").is_some();
    for (proto, perturb_seed, commits, wall, trace_fp, perfetto_fp) in GOLDEN_PROTOCOLS {
        let mut cfg = SimConfig::paper_default(16, AppProfile::fft(), proto);
        cfg.insns_per_thread = 4_000;
        cfg.seed = 0xfeed;
        cfg.trace = true;
        cfg.obs = sb_sim::ObsConfig::on();
        if perturb_seed != 0 {
            cfg.perturb = Some(sb_net::PerturbationConfig::from_seed(perturb_seed));
        }
        let r = run_simulation(&cfg);
        let trace = r.trace.as_ref().expect("golden rows enable tracing");
        let got = (
            r.commits,
            r.wall_cycles,
            trace.fingerprint(),
            sb_obs::fingerprint(perfetto_trace(&r).to_string().as_bytes()),
        );
        if print {
            println!(
                "({proto:?}, {perturb_seed:#x}, {}, {}, {:#x}, {:#x}),",
                got.0, got.1, got.2, got.3
            );
            continue;
        }
        assert_eq!(
            got,
            (commits, wall, trace_fp, perfetto_fp),
            "{proto} perturb={perturb_seed:#x} drifted from its golden row"
        );
    }
}

#[test]
fn double_export_is_byte_identical() {
    let r = run_simulation(&observed_cfg());
    let a = perfetto_trace(&r).to_string();
    let b = perfetto_trace(&r).to_string();
    assert_eq!(a, b, "export of the same result diverged");
    // And two runs of the same config export identically too.
    let r2 = run_simulation(&observed_cfg());
    let c = perfetto_trace(&r2).to_string();
    assert_eq!(a, c, "export across identical runs diverged");
}

#[test]
fn export_has_at_least_two_track_types() {
    let r = run_simulation(&observed_cfg());
    let json = perfetto_trace(&r);
    let events = json.get("traceEvents").unwrap().as_array().unwrap();
    let cats: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
        .collect();
    assert!(
        cats.contains("chunk") && cats.contains("grab"),
        "need core-lifecycle and directory-occupancy tracks, got {cats:?}"
    );
    assert!(
        cats.contains("flow"),
        "causal flow arrows missing: {cats:?}"
    );
}

#[test]
fn observability_never_changes_simulated_results() {
    // The golden-guard for "zero-cost when disabled" and "purely
    // observational when enabled": the same config with trace/obs on and
    // off must produce bit-identical simulated metrics.
    let mut plain = observed_cfg();
    plain.trace = false;
    plain.obs = sb_sim::ObsConfig::default();
    let observed = run_simulation(&observed_cfg());
    let bare = run_simulation(&plain);
    assert_eq!(observed.wall_cycles, bare.wall_cycles);
    assert_eq!(observed.commits, bare.commits);
    assert_eq!(observed.squashes(), bare.squashes());
    assert_eq!(
        observed.traffic.total_messages(),
        bare.traffic.total_messages()
    );
    assert_eq!(observed.read_nacks, bare.read_nacks);
    // Flow stamping rides the same scheduled events: the full latency
    // distribution and cycle breakdown must not move either.
    assert_eq!(observed.latency.count(), bare.latency.count());
    assert_eq!(observed.latency.sum(), bare.latency.sum());
    assert_eq!(observed.latency.max(), bare.latency.max());
    assert_eq!(observed.breakdown, bare.breakdown);
    assert_eq!(observed.commit_retries, bare.commit_retries);
}
