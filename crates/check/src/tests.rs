use super::*;
use sb_sim::{run_simulation, InjectedBug};
use std::collections::BTreeSet;

/// A short slice of the default schedule passes cleanly, covers all five
/// protocols, and actually exercises conflicts (squashes and processed
/// bulk invalidations), so the oracle has something to check.
#[test]
fn smoke_slice_is_clean_and_covers_every_protocol() {
    let mut protocols = BTreeSet::new();
    let mut perturbed = 0u32;
    let report = run_smoke(
        0xf0f0_2026,
        15,
        Some(&mut |_, case: &FuzzCase, cr: &CaseReport| {
            protocols.insert(protocol_name(case.protocol));
            perturbed += (case.perturb_seed != 0) as u32;
            assert!(cr.fingerprint != 0, "{case}: trace missing");
        }),
    );
    for (case, cr) in &report.failures {
        eprintln!("FAIL {}  {:?}", case.replay_command(), cr.violations);
    }
    assert!(report.passed(), "{} failing cases", report.failures.len());
    assert_eq!(protocols.len(), PROTOCOLS.len(), "{protocols:?}");
    assert!(perturbed > 0 && perturbed < 15, "mix of timing modes");
    assert!(report.commits > 0);
    assert!(report.invs_processed > 0, "no bulk invalidations processed");
    assert!(report.squashes > 0, "no conflicts exercised");
}

/// The oracle has teeth: with the injected conflict-detection bug
/// (read-set conflicts ignored) the machine lets write-after-read
/// conflicts commit, and the oracle flags the run — while the identical
/// case with the bug off is clean.
#[test]
fn injected_conflict_bug_is_caught() {
    let mut caught = None;
    for i in 0..40u64 {
        let case = FuzzCase::nth(0xbad_c0de, i);
        let mut cfg = case.config();
        cfg.inject_bug = Some(InjectedBug::SkipReadSetConflicts);
        let r = run_simulation(&cfg);
        let violations = verify_result(&r);
        if violations.iter().any(|v| v.starts_with("serializability")) {
            caught = Some((case, violations));
            break;
        }
    }
    let (case, violations) =
        caught.expect("oracle never flagged the injected read-set-conflict bug in 40 cases");
    eprintln!("caught via {}: {}", case, violations[0]);
    // The same case is clean with the sabotage off.
    let clean = check_case(&case);
    assert!(clean.passed(), "{case}: {:?}", clean.violations);
}

/// A failing-case triple replays exactly: parsing round-trips and two
/// runs of one case produce the identical trace fingerprint.
#[test]
fn replay_triples_round_trip_and_replay_deterministically() {
    for i in [0u64, 1, 2, 7] {
        let case = FuzzCase::nth(42, i);
        let parsed = FuzzCase::parse(&case.to_string()).expect("round trip");
        assert_eq!(parsed, case);
        assert!(case.replay_command().contains(&case.to_string()));
    }
    assert_eq!(
        FuzzCase::parse("12:0:seqts").map(|c| c.protocol),
        Some(ProtocolKind::SeqTs)
    );
    assert_eq!(FuzzCase::parse("12:0:nope"), None);
    assert_eq!(FuzzCase::parse("12:0"), None);
    assert_eq!(FuzzCase::parse("12:0:sb:extra"), None);

    let case = FuzzCase::nth(7, 4); // i % 3 != 0 → perturbed
    assert_ne!(case.perturb_seed, 0);
    let a = check_case(&case);
    let b = check_case(&case);
    assert!(a.passed(), "{case}: {:?}", a.violations);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.commits, b.commits);
}

/// The timing adversary changes schedules (different fingerprint) but
/// never correctness: the same workload passes both with and without
/// perturbation.
#[test]
fn perturbation_perturbs_timing_not_correctness() {
    let perturbed = FuzzCase::nth(99, 5);
    assert_ne!(perturbed.perturb_seed, 0);
    let plain = FuzzCase {
        perturb_seed: 0,
        ..perturbed
    };
    let rp = check_case(&perturbed);
    let rq = check_case(&plain);
    assert!(rp.passed(), "{perturbed}: {:?}", rp.violations);
    assert!(rq.passed(), "{plain}: {:?}", rq.violations);
    assert_ne!(
        rp.fingerprint, rq.fingerprint,
        "perturbation should alter the schedule"
    );
}

/// Trace-stream well-formedness holds under every protocol, with and
/// without the timing adversary: every exec span is closed by exactly
/// one commit or squash, directory grab/release events alternate and
/// balance per module at quiescence, and the Perfetto export
/// round-trips through JSON with monotonically non-decreasing
/// per-track timestamps (all enforced by
/// [`sb_sim::verify_observability`], which `verify_result` folds in —
/// this test pins that each protocol's event emission satisfies it on
/// seeds beyond the smoke slice).
#[test]
fn trace_streams_are_well_formed_under_every_protocol() {
    for (pi, protocol) in PROTOCOLS.into_iter().enumerate() {
        for (si, perturb_seed) in [0u64, 0x0b5e_12ab | 1].into_iter().enumerate() {
            let case = FuzzCase {
                workload_seed: 0x0b5_f00d + 17 * pi as u64,
                perturb_seed,
                protocol,
            };
            let r = run_simulation(&case.config());
            assert!(r.obs.is_some(), "{case}: fuzz configs enable obs");
            let violations = sb_sim::verify_observability(&r);
            assert!(
                violations.is_empty(),
                "{case} (variant {si}): {violations:#?}"
            );
            // The streams are not trivially empty: the protocols emitted
            // occupancy pairs and the exporter produced both track types.
            let obs = r.obs.as_ref().unwrap();
            assert!(
                obs.count(|k| matches!(k, sb_sim::ObsKind::DirGrabbed { .. })) > 0,
                "{case}: no directory occupancy recorded"
            );
        }
    }
}

/// Critical-path reconciliation survives the timing adversary: with
/// perturbed deliveries, every commit's reconstructed path still tiles
/// its latency interval exactly, the per-protocol sums/max/count match
/// the recorded latency distribution, and adversary delay shows up as
/// explicit [`sb_sim::SegmentKind::Perturb`] slices on some path.
#[test]
fn critical_paths_reconcile_under_timing_adversary() {
    use sb_sim::SegmentKind;
    let mut saw_perturb_segment = false;
    for (pi, protocol) in PROTOCOLS.into_iter().enumerate() {
        let case = FuzzCase {
            workload_seed: 0xcafe_0b5e + 31 * pi as u64,
            perturb_seed: 0x7e17_a11d | 1,
            protocol,
        };
        let r = run_simulation(&case.config());
        let paths = sb_sim::commit_paths(&r).unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(paths.len() as u64, r.latency.count(), "{case}");
        let (mut sum, mut max) = (0u128, 0u64);
        for p in &paths {
            let tiled: u64 = p.segments.iter().map(|s| s.len()).sum();
            assert_eq!(tiled, p.latency(), "{case}: {} does not tile", p.tag);
            sum += p.latency() as u128;
            max = max.max(p.latency());
            saw_perturb_segment |= p.total(SegmentKind::Perturb) > 0;
        }
        assert_eq!(sum, r.latency.sum(), "{case}: sum diverged");
        assert_eq!(max, r.latency.max(), "{case}: max diverged");
    }
    assert!(
        saw_perturb_segment,
        "adversary delay never surfaced as a Perturb segment"
    );
}

/// The parallel sweep driver is deterministic: over 50 cases, `--jobs 1`
/// and `--jobs 4` produce identical ordered results and byte-identical
/// rendered output (failing-case blocks, totals, per-protocol summary
/// lines) — worker interleaving must be unobservable.
#[test]
fn sweep_output_is_byte_identical_at_jobs_1_and_4() {
    let serial = run_cases(0xf0f0_2026, 50, 1);
    let parallel = run_cases(0xf0f0_2026, 50, 4);
    assert_eq!(serial.len(), 50);
    for ((ca, ra), (cb, rb)) in serial.iter().zip(&parallel) {
        assert_eq!(ca, cb);
        assert_eq!(ra.fingerprint, rb.fingerprint, "{ca}");
        assert_eq!(ra.commits, rb.commits, "{ca}");
        assert_eq!(ra.violations, rb.violations, "{ca}");
    }
    let out1 = render_sweep(&serial);
    let out4 = render_sweep(&parallel);
    assert_eq!(out1, out4, "sweep output depends on worker count");
    // The summary covers every protocol and the run verdict.
    for p in PROTOCOLS {
        assert!(out1.contains(protocol_name(p)), "missing {p} summary line");
    }
    assert!(out1.contains("50 cases:"));
    // And the case list matches what the serial streaming API reports.
    let smoke = run_smoke(0xf0f0_2026, 50, None);
    let agg = SmokeReport::from_cases(&serial);
    assert_eq!(smoke.cases, agg.cases);
    assert_eq!(smoke.commits, agg.commits);
    assert_eq!(smoke.squashes, agg.squashes);
    assert_eq!(smoke.invs_processed, agg.invs_processed);
    assert_eq!(smoke.failures.len(), agg.failures.len());
}

/// Schedule derivation is stable: the same (base, i) always yields the
/// same case, different bases diverge.
#[test]
fn schedule_is_deterministic_per_base_seed() {
    assert_eq!(FuzzCase::nth(1, 3), FuzzCase::nth(1, 3));
    assert_ne!(
        FuzzCase::nth(1, 3).workload_seed,
        FuzzCase::nth(2, 3).workload_seed
    );
    // i % 3 == 0 cases run unperturbed.
    assert_eq!(FuzzCase::nth(1, 0).perturb_seed, 0);
    assert_eq!(FuzzCase::nth(1, 3).perturb_seed, 0);
    assert_ne!(FuzzCase::nth(1, 1).perturb_seed, 0);
}
