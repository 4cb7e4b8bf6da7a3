//! Degenerate-run coverage for the observability pipeline: runs with
//! zero commits and runs with a single chunk must flow through
//! `commit_paths`, `breakdown_from_obs`, `perfetto_trace` and
//! `verify_observability` without panicking — empty flow DAG, no
//! grab/release spans, zero-row attributions — not just the dense
//! many-commit configurations the golden tests pin.

use sb_proto::ProtocolKind;
use sb_sim::critical_path::{breakdown_from_obs, commit_paths, Attribution};
use sb_sim::{perfetto_trace, run_simulation, verify_observability, SimConfig};
use sb_workloads::AppProfile;

fn observed(cores: u16, insns: u64, protocol: ProtocolKind) -> SimConfig {
    let mut cfg = SimConfig::paper_default(cores, AppProfile::fft(), protocol);
    cfg.insns_per_thread = insns;
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    cfg
}

/// Perfetto categories present in a run's export.
fn categories(r: &sb_sim::RunResult) -> std::collections::BTreeSet<String> {
    perfetto_trace(r)
        .to_json()
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
        .map(str::to_owned)
        .collect()
}

#[test]
fn zero_commit_run_exports_an_empty_flow_dag() {
    for protocol in [ProtocolKind::ScalableBulk, ProtocolKind::Tcc] {
        let r = run_simulation(&observed(4, 0, protocol));
        assert_eq!(r.commits, 0, "{protocol}: no instructions, no commits");
        assert_eq!(r.latency.count(), 0);

        // Critical-path reconstruction of nothing is an empty set, and
        // its attribution has no rows (total 0, no division blow-ups).
        let paths = commit_paths(&r).expect("{protocol}: empty reconstruction");
        assert!(paths.is_empty());
        let attr = Attribution::from_paths(&paths);
        assert_eq!(attr.total(), 0);
        assert!(attr.rows().is_empty());

        // The obs-side breakdown is all zeros and still reconciles.
        let obs = r.obs.as_ref().expect("obs enabled");
        assert!(obs.flows.is_empty(), "{protocol}: flow DAG must be empty");
        let b = breakdown_from_obs(obs);
        assert_eq!(b.useful + b.cache_miss + b.squash + b.commit, 0);
        let violations = verify_observability(&r);
        assert!(violations.is_empty(), "{protocol}: {violations:#?}");

        // The export is a well-formed document with metadata only: no
        // chunk spans, no directory grab/release spans, no flow arrows.
        let cats = categories(&r);
        for absent in ["chunk", "grab", "flow"] {
            assert!(
                !cats.contains(absent),
                "{protocol}: unexpected {absent:?} events in {cats:?}"
            );
        }
    }
}

#[test]
fn minimal_single_core_run_reconciles_end_to_end() {
    // One core, one instruction: the smallest run with commits (a single
    // body chunk plus the terminating partial chunk). Its per-commit
    // reconstruction must tile, and the export must carry the chunk
    // spans without inventing conflict spans.
    let r = run_simulation(&observed(1, 1, ProtocolKind::ScalableBulk));
    assert!(r.commits >= 1, "one instruction must still commit");
    assert_eq!(r.squashes(), 0, "nobody to conflict with");

    let paths = commit_paths(&r).expect("minimal reconstruction");
    assert_eq!(paths.len() as u64, r.latency.count());
    let mut total: u128 = 0;
    for p in &paths {
        let tiled: u64 = p.segments.iter().map(|s| s.len()).sum();
        assert_eq!(tiled, p.latency(), "{}: segments must tile", p.tag);
        total += p.latency() as u128;
    }
    let attr = Attribution::from_paths(&paths);
    assert_eq!(attr.total(), total);

    let violations = verify_observability(&r);
    assert!(violations.is_empty(), "{violations:#?}");
    let cats = categories(&r);
    assert!(cats.contains("chunk"), "chunk spans must export: {cats:?}");
}

#[test]
fn zero_commit_run_flows_through_the_series_exporter() {
    let cfg = observed(4, 0, ProtocolKind::ScalableBulk);
    let r = run_simulation(&cfg);
    assert_eq!(r.commits, 0);
    let obs = r.obs.as_ref().expect("obs enabled");

    // Empty-window handling: every window width, including one wider
    // than the whole run, yields a well-formed (possibly empty) series
    // whose totals still reconcile with the (zero) aggregate counters.
    for window in [1, 64, u64::MAX] {
        let ts = sb_sim::time_series_from_obs(obs, window);
        assert_eq!(ts.total("commits"), 0);
        assert_eq!(ts.total("squashes"), 0);
        let report = sb_sim::series_report(&cfg, &r, window).expect("report");
        let text = report.to_string();
        let parsed = sb_obs::json::JsonValue::parse(&text).expect("parses");
        assert_eq!(
            parsed
                .get("aggregates")
                .and_then(|a| a.get("commits"))
                .and_then(|v| v.as_i64()),
            Some(0)
        );
    }
}

#[test]
fn minimal_single_core_series_diffs_against_itself_as_all_zero() {
    let cfg = observed(1, 1, ProtocolKind::ScalableBulk);
    let r = run_simulation(&cfg);
    let window = sb_sim::configured_series_window(&cfg, &r);
    let text = sb_sim::series_report(&cfg, &r, window)
        .expect("report")
        .to_string();

    // A run diffed against itself is the degenerate fixed point: no
    // divergence cycle, every aggregate/attribution/track delta zero.
    let d = sb_sim::diff_report_texts(&text, &text).expect("diff");
    assert!(d.identical(), "self-diff must be all-zero: {d:?}");
    assert_eq!(d.first_divergence_cycle, None);
    assert!(
        d.warnings.is_empty(),
        "same meta, no warnings: {:?}",
        d.warnings
    );
    assert!(d
        .tracks
        .iter()
        .all(|t| t.diverging == 0 && t.max_delta == 0 && t.total_a == t.total_b));
    assert!(sb_sim::render_diff(&d).contains("runs are identical"));
}

#[test]
fn zero_commit_self_diff_handles_empty_tracks() {
    // The emptiest diffable pair: a zero-commit run against itself.
    let cfg = observed(4, 0, ProtocolKind::Tcc);
    let r = run_simulation(&cfg);
    let text = sb_sim::series_report(&cfg, &r, 64)
        .expect("report")
        .to_string();
    let d = sb_sim::diff_report_texts(&text, &text).expect("diff");
    assert!(d.identical());
    // And against a run that *does* commit, the diff localizes the first
    // divergence without tripping over the empty side.
    let busy_cfg = observed(4, 200, ProtocolKind::Tcc);
    let busy = run_simulation(&busy_cfg);
    let busy_text = sb_sim::series_report(&busy_cfg, &busy, 64)
        .expect("report")
        .to_string();
    let d = sb_sim::diff_report_texts(&text, &busy_text).expect("diff");
    assert!(!d.identical());
    assert!(d.first_divergence_cycle.is_some());
}
