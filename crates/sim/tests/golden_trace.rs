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

use sb_engine::hash::fnv1a;
use sb_obs::json::JsonValue;
use sb_proto::ProtocolKind;
use sb_sim::{
    perfetto_trace, perfetto_trace_with_series, run_simulation, verify_observability, SimConfig,
};
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
    let doc = perfetto_trace(&r);
    let text = doc.to_string();
    let json = doc.to_json();
    let events = json.get("traceEvents").unwrap().as_array().unwrap().len();
    if std::env::var_os("SB_GOLDEN_PRINT").is_some() {
        println!(
            "const GOLDEN_FINGERPRINT: u64 = {:#x};",
            fnv1a(text.as_bytes())
        );
        println!("const GOLDEN_EVENTS: usize = {events};");
        return;
    }
    assert_eq!(events, GOLDEN_EVENTS, "export event count drifted");
    assert_eq!(
        fnv1a(text.as_bytes()),
        GOLDEN_FINGERPRINT,
        "perfetto export drifted from golden snapshot"
    );
    // The pinned document is well-formed and reconciles with the run.
    let violations = verify_observability(&r);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// FNV-1a fingerprint of the Perfetto document with the series counter
/// tracks, at the run's default series window.
const GOLDEN_SERIES_FINGERPRINT: u64 = 0x2465fee31df06595;
/// Number of entries in that document's `traceEvents`.
const GOLDEN_SERIES_EVENTS: usize = 840;

#[test]
fn perfetto_export_with_series_matches_golden_snapshot() {
    let cfg = observed_cfg();
    let r = run_simulation(&cfg);
    let window = sb_sim::configured_series_window(&cfg, &r);
    let text = perfetto_trace_with_series(&r, window).to_string();
    let parsed = JsonValue::parse(&text).expect("the export parses");
    let events = parsed.get("traceEvents").unwrap().as_array().unwrap().len();
    if std::env::var_os("SB_GOLDEN_PRINT").is_some() {
        println!(
            "const GOLDEN_SERIES_FINGERPRINT: u64 = {:#x};",
            fnv1a(text.as_bytes())
        );
        println!("const GOLDEN_SERIES_EVENTS: usize = {events};");
        return;
    }
    assert_eq!(
        events, GOLDEN_SERIES_EVENTS,
        "series export event count drifted"
    );
    assert_eq!(
        fnv1a(text.as_bytes()),
        GOLDEN_SERIES_FINGERPRINT,
        "perfetto export with series drifted from golden snapshot"
    );
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

/// An observed FFT run (seed `0xfeed`, trace and obs on).
fn observed_fft(cores: u16, insns: u64, proto: ProtocolKind) -> SimConfig {
    let mut cfg = SimConfig::paper_default(cores, AppProfile::fft(), proto);
    cfg.insns_per_thread = insns;
    cfg.seed = 0xfeed;
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    cfg
}

/// The pinned columns of a golden row: commits, wall cycles,
/// `RunTrace::fingerprint`, Perfetto document fingerprint.
fn pinned_columns(cfg: &SimConfig) -> (u64, u64, u64, u64) {
    let r = run_simulation(cfg);
    let trace = r.trace.as_ref().expect("golden rows enable tracing");
    (
        r.commits,
        r.wall_cycles,
        trace.fingerprint(),
        fnv1a(perfetto_trace(&r).to_string().as_bytes()),
    )
}

#[test]
fn every_protocol_matches_its_golden_row() {
    let print = std::env::var_os("SB_GOLDEN_PRINT").is_some();
    for (proto, perturb_seed, commits, wall, trace_fp, perfetto_fp) in GOLDEN_PROTOCOLS {
        let mut cfg = observed_fft(16, 4_000, proto);
        if perturb_seed != 0 {
            cfg.perturb = Some(sb_net::PerturbationConfig::from_seed(perturb_seed));
        }
        let got = pinned_columns(&cfg);
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

/// Observed ScalableBulk FFT runs past the 64-bit word of a core set
/// (seed `0xfeed`, trace and obs on), where most units sit idle in any
/// one superphase: 128 cores on two fabrics, whose sets span two 64-tile
/// windows, and 256 cores on the torus, whose sets span four. Columns:
/// fabric, cores, insns/thread, commits, wall cycles,
/// `RunTrace::fingerprint`, Perfetto document fingerprint.
#[rustfmt::skip]
const GOLDEN_WIDE: [(&str, u16, u64, u64, u64, u64, u64); 3] = [
    ("torus", 128, 3000, 391, 15192, 0x3329c3929caf9b42, 0x49e96f6e68e4e7cd),
    ("cmesh", 128, 3000, 391, 13763, 0xc31c2c53cab04d7c, 0xfd2335146c03b43b),
    ("torus", 256, 1500, 526, 14124, 0xabc15791e8d6440d, 0x5de965fc37ffba77),
];

#[test]
fn wide_machine_matches_its_golden_rows() {
    let print = std::env::var_os("SB_GOLDEN_PRINT").is_some();
    for (fabric, cores, insns, commits, wall, trace_fp, perfetto_fp) in GOLDEN_WIDE {
        let mut cfg = observed_fft(cores, insns, ProtocolKind::ScalableBulk);
        cfg.set_topology(sb_net::Topology::by_name(fabric, cores).expect("known fabric"));
        let got = pinned_columns(&cfg);
        if print {
            println!(
                "({fabric:?}, {cores}, {insns}, {}, {}, {:#x}, {:#x}),",
                got.0, got.1, got.2, got.3
            );
            continue;
        }
        assert_eq!(
            got,
            (commits, wall, trace_fp, perfetto_fp),
            "{cores}-core {fabric} drifted from its golden row"
        );
    }
}

/// Observed 16-core Radix runs (4k insns/thread, seed `0xfeed`, trace and
/// obs on) under non-default signature geometries, where directory
/// expansion sees other bank counts and widths: one bank, two, six, and
/// sixteen (banks 0 and 8 both index at line granularity). Squash counts
/// swing with aliasing, so an inexact expansion moves them. Columns:
/// protocol, total bits, banks, commits, squashes, wall cycles,
/// `RunTrace::fingerprint`.
#[rustfmt::skip]
const GOLDEN_GEOMETRIES: [(ProtocolKind, u32, u32, u64, u64, u64, u64); 14] = [
    (ProtocolKind::ScalableBulk, 512, 4, 55, 4, 12906, 0x79ebc7ce9e3193c8),
    (ProtocolKind::ScalableBulk, 4096, 4, 55, 0, 9685, 0xdcc2fb0425df3e38),
    (ProtocolKind::ScalableBulk, 256, 4, 55, 34, 20175, 0x653097b3b5b85d37),
    (ProtocolKind::ScalableBulk, 1024, 2, 55, 28, 13617, 0x4e56b61b147b40ae),
    (ProtocolKind::ScalableBulk, 256, 1, 55, 576, 78118, 0x4c7eb4f3407c701e),
    (ProtocolKind::ScalableBulk, 3072, 6, 55, 0, 9685, 0x2a63c08ad9b682fc),
    (ProtocolKind::ScalableBulk, 1024, 16, 55, 0, 11233, 0x8762a8068fd86cda),
    (ProtocolKind::Tcc, 512, 4, 55, 5, 14130, 0x7894664d7fdb89c9),
    (ProtocolKind::Tcc, 4096, 4, 55, 0, 11982, 0xbdedd3029303bf06),
    (ProtocolKind::Tcc, 256, 4, 55, 87, 18284, 0xa67c279bbefeb09a),
    (ProtocolKind::Tcc, 1024, 2, 55, 42, 16126, 0x827e8574dbc6b1b0),
    (ProtocolKind::Tcc, 256, 1, 55, 1768, 88617, 0x3b75581859b70773),
    (ProtocolKind::Tcc, 3072, 6, 55, 0, 11982, 0xbdedd3029303bf06),
    (ProtocolKind::Tcc, 1024, 16, 55, 0, 11982, 0x38da65ae473d5697),
];

#[test]
fn signature_geometries_match_their_golden_rows() {
    let print = std::env::var_os("SB_GOLDEN_PRINT").is_some();
    for (proto, bits, banks, commits, squashes, wall, trace_fp) in GOLDEN_GEOMETRIES {
        let mut cfg = SimConfig::paper_default(16, AppProfile::radix(), proto);
        cfg.insns_per_thread = 4_000;
        cfg.seed = 0xfeed;
        cfg.trace = true;
        cfg.obs = sb_sim::ObsConfig::on();
        cfg.sig = sb_sigs::SignatureConfig::new(bits, banks);
        let r = run_simulation(&cfg);
        let got = (
            r.commits,
            r.squashes(),
            r.wall_cycles,
            r.trace
                .as_ref()
                .expect("golden rows enable tracing")
                .fingerprint(),
        );
        if print {
            println!(
                "(ProtocolKind::{proto:?}, {bits}, {banks}, {}, {}, {}, {:#x}),",
                got.0, got.1, got.2, got.3
            );
            continue;
        }
        assert_eq!(
            got,
            (commits, squashes, wall, trace_fp),
            "{proto} {bits}/{banks} drifted from its golden row"
        );
    }
}

/// Application, insns/thread, bits, banks, commits, squashes, wall
/// cycles, trace fingerprint.
type BulkScRow = (&'static str, u64, u32, u32, u64, u64, u64, u64);

/// Observed 64-core BulkSC runs on the torus (seed `0xfeed`, trace and
/// obs on). The arbiter broadcasts every committing W signature to all
/// other cores, so these rows pin the caches' bulk-invalidation
/// expansion; the 256/1 row adds the aliasing that makes broadcasts
/// match lines the committer never wrote. Columns: application,
/// insns/thread, total bits, banks, commits, squashes, wall cycles,
/// `RunTrace::fingerprint`.
#[rustfmt::skip]
const GOLDEN_BULKSC: [BulkScRow; 3] = [
    ("FFT", 3000, 2048, 4, 198, 4, 51232, 0xe49a4450c134ee98),
    ("Radix", 3000, 2048, 4, 192, 0, 49447, 0x16e0a74aed4acac9),
    ("FFT", 1500, 256, 1, 131, 3674, 137327, 0x56b6f5743d52df8b),
];

#[test]
fn bulksc_broadcasts_match_their_golden_rows() {
    let print = std::env::var_os("SB_GOLDEN_PRINT").is_some();
    for (app, insns, bits, banks, commits, squashes, wall, trace_fp) in GOLDEN_BULKSC {
        let profile = AppProfile::by_name(app).expect("known app");
        let mut cfg = SimConfig::paper_default(64, profile, ProtocolKind::BulkSc);
        cfg.insns_per_thread = insns;
        cfg.seed = 0xfeed;
        cfg.trace = true;
        cfg.obs = sb_sim::ObsConfig::on();
        cfg.sig = sb_sigs::SignatureConfig::new(bits, banks);
        let r = run_simulation(&cfg);
        let got = (
            r.commits,
            r.squashes(),
            r.wall_cycles,
            r.trace
                .as_ref()
                .expect("golden rows enable tracing")
                .fingerprint(),
        );
        if print {
            println!(
                "({app:?}, {insns}, {bits}, {banks}, {}, {}, {}, {:#x}),",
                got.0, got.1, got.2, got.3
            );
            continue;
        }
        assert_eq!(
            got,
            (commits, squashes, wall, trace_fp),
            "BulkSC {app} {insns} insns {bits}/{banks} drifted from its golden row"
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
    let json = perfetto_trace(&r).to_json();
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
