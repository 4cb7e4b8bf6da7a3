//! Behavioural tests of the full-system machine: properties that need a
//! real network, caches and workload underneath the protocol.

use sb_proto::ProtocolKind;
use sb_sim::{run_simulation, SimConfig, TraceEvent};
use sb_workloads::AppProfile;

fn cfg(app: AppProfile, cores: u16, proto: ProtocolKind) -> SimConfig {
    let mut cfg = SimConfig::paper_default(cores, app, proto);
    cfg.insns_per_thread = 6_000;
    cfg.seed = 0xd1ce;
    cfg
}

#[test]
fn all_apps_complete_under_scalablebulk() {
    // Every one of the 18 application models runs to completion on a
    // 16-core machine (catch-all liveness net for the workload x protocol
    // surface).
    for app in AppProfile::all() {
        let r = run_simulation(&cfg(app, 16, ProtocolKind::ScalableBulk));
        assert!(r.commits >= 16 * 2, "{}: {}", app.name, r.commits);
    }
}

#[test]
fn breakdown_components_are_consistent() {
    let r = run_simulation(&cfg(AppProfile::fmm(), 16, ProtocolKind::ScalableBulk));
    let b = &r.breakdown;
    // Useful cycles equal committed instructions (1 IPC) plus nothing
    // else: committed insns are ~2000/chunk.
    assert!(
        b.useful >= r.commits * 500,
        "useful {} commits {}",
        b.useful,
        r.commits
    );
    // Fractions sum to 1.
    let sum =
        b.fraction_useful() + b.fraction_cache_miss() + b.fraction_commit() + b.fraction_squash();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn useful_cycles_scale_with_target() {
    let mut small = cfg(AppProfile::lu(), 8, ProtocolKind::ScalableBulk);
    small.insns_per_thread = 4_000;
    let mut big = small.clone();
    big.insns_per_thread = 12_000;
    let rs = run_simulation(&small);
    let rb = run_simulation(&big);
    let ratio = rb.breakdown.useful as f64 / rs.breakdown.useful as f64;
    assert!(
        (2.0..4.5).contains(&ratio),
        "3x the instruction target must give ~3x the useful cycles: {ratio:.2}"
    );
    assert!(rb.wall_cycles > rs.wall_cycles);
}

#[test]
fn oci_reduces_commit_latency_under_contention() {
    // With conflicts present, the conservative (nacking) initiation holds
    // bulk invalidations while commits are in flight, stretching the
    // winner's commit; OCI consumes them immediately (§3.3).
    let mut with_oci = cfg(AppProfile::barnes(), 32, ProtocolKind::ScalableBulk);
    with_oci.insns_per_thread = 10_000;
    let mut without = with_oci.clone();
    without.oci = false;
    let a = run_simulation(&with_oci);
    let b = run_simulation(&without);
    assert!(a.commits > 0 && b.commits > 0);
    assert!(
        a.latency.mean() <= b.latency.mean() * 1.2,
        "OCI {} vs conservative {}",
        a.latency.mean(),
        b.latency.mean()
    );
}

#[test]
fn dirs_per_commit_counts_every_commit() {
    let r = run_simulation(&cfg(AppProfile::vips(), 16, ProtocolKind::ScalableBulk));
    assert_eq!(r.dirs.commits(), r.commits);
    assert!(r.dirs.mean_total() > 0.5);
}

#[test]
fn traffic_has_all_flavours() {
    use sb_net::TrafficClass::*;
    let r = run_simulation(&cfg(AppProfile::canneal(), 32, ProtocolKind::ScalableBulk));
    assert!(
        r.traffic.count(RemoteShRd) > 0,
        "pool reads serve cache-to-cache"
    );
    assert!(
        r.traffic.count(LargeCMessage) > 0,
        "commit requests carry signatures"
    );
    assert!(r.traffic.count(SmallCMessage) > 0, "grabs/acks are small");
    assert!(
        r.traffic.count(RemoteDirtyRd) > 0,
        "committed lines are read dirty"
    );
}

#[test]
fn squashed_work_is_reexecuted_not_lost() {
    // Under heavy conflicts the committed instruction target must still
    // be reached exactly: squashes cause re-execution, not lost work.
    let mut c = cfg(AppProfile::barnes(), 16, ProtocolKind::ScalableBulk);
    c.app.conflict_prob = 0.3; // crank conflicts
    let r = run_simulation(&c);
    assert!(r.squashes() > 0, "the cranked workload must squash");
    assert!(
        r.commits >= 16 * 2,
        "all cores still reach their commit target"
    );
    assert!(r.breakdown.squash > 0, "squash cycles accounted");
}

#[test]
fn torus_size_changes_latency() {
    let small = run_simulation(&cfg(AppProfile::fft(), 16, ProtocolKind::ScalableBulk));
    let big = run_simulation(&cfg(AppProfile::fft(), 64, ProtocolKind::ScalableBulk));
    // More tiles -> more hops -> higher commit latency (groups span the
    // same pages but farther apart).
    assert!(
        big.latency.mean() > small.latency.mean() * 0.8,
        "16c {} vs 64c {}",
        small.latency.mean(),
        big.latency.mean()
    );
}

#[test]
fn striped_page_policy_also_works() {
    let mut c = cfg(AppProfile::fft(), 16, ProtocolKind::ScalableBulk);
    c.page_policy = sb_mem::PageMapPolicy::Striped;
    let r = run_simulation(&c);
    assert!(r.commits > 0);
}

#[test]
fn contention_free_network_is_faster() {
    let mut with_contention = cfg(AppProfile::canneal(), 32, ProtocolKind::Tcc);
    let mut without = with_contention.clone();
    without.net.model_contention = false;
    let a = run_simulation(&with_contention);
    let b = run_simulation(&without);
    assert!(
        b.wall_cycles <= a.wall_cycles,
        "ideal network cannot be slower: {} vs {}",
        b.wall_cycles,
        a.wall_cycles
    );
    let _ = &mut with_contention;
}

#[test]
fn lines_recorded_counts_each_chunks_distinct_pairs() {
    // On one core nothing invalidates a chunk, so every executed chunk
    // commits once and the trace's committed footprints (rebuilt from
    // the chunk specs) hold exactly the (line, kind) pairs recorded.
    let mut c = cfg(AppProfile::fft(), 1, ProtocolKind::ScalableBulk);
    c.trace = true;
    c.obs.profile = true;
    let r = run_simulation(&c);
    assert_eq!(r.squashes_conflict + r.squashes_alias, 0);
    let pairs: u64 = r
        .trace
        .as_ref()
        .expect("traced run")
        .events
        .iter()
        .map(|e| match e {
            TraceEvent::Committed { reads, writes, .. } => (reads.len() + writes.len()) as u64,
            _ => 0,
        })
        .sum();
    let counter = |name| r.metrics.counter(name).expect("profiled run");
    assert_eq!(counter("prof.lines_recorded"), pairs);
    assert!(
        counter("prof.accesses") > pairs,
        "FFT chunks touch their lines more than once"
    );
}
