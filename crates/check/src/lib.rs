//! Differential serializability fuzzer for the full-system machine.
//!
//! The paper claims ScalableBulk's grab/commit/recall protocol stays
//! correct — serializable and live — under arbitrary message timings.
//! `crates/core/tests/exhaustive.rs` model-checks small group-formation
//! scenarios on the protocol-level `sb_proto::Fabric` host; this crate
//! attacks the *whole machine* instead: caches, directories, the torus,
//! and all five commit protocols, driven by randomized conflict-heavy
//! workloads under a seeded network-timing adversary
//! ([`sb_net::PerturbationConfig`]).
//!
//! One fuzz case is the triple `(workload_seed, perturbation_seed,
//! protocol)` — everything else (core count, app footprint, run length,
//! OCI mode) derives deterministically from the workload seed, so a
//! failure replays from a one-line command:
//!
//! ```text
//! cargo run --release -p sb-check --bin check -- --replay <wseed>:<pseed>:<proto>
//! ```
//!
//! (The bin lives here, not under `sb-sim`, because the oracle depends
//! on `sb-sim`, not the other way around.)
//!
//! Each run's [`RunTrace`](sb_sim::RunTrace) is validated by one oracle,
//! [`verify_result`], that is independent of the machine's own conflict
//! logic. The bounded explorer ([`explore`]) and both replay commands use
//! it too:
//!
//! * **serializability** — commit order is a valid serial order iff no
//!   chunk committed after a foreign conflicting write set was applied at
//!   its core mid-execution; the oracle recomputes every such conflict
//!   decision from recorded footprint snapshots;
//! * **liveness/cleanup** — the run makes progress (at least one chunk of
//!   every colliding set commits, or the machine would have deadlocked
//!   and panicked) and the protocol's in-flight table (ScalableBulk's
//!   CSTs) drains to empty at quiescence;
//! * **lifecycle and occupancy** — [`sb_sim::verify_observability`]:
//!   every exec span closes exactly once by a commit or a squash,
//!   directory grabs and releases alternate and balance, and the export
//!   reconciles with the run's aggregates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;

use std::fmt;
use std::panic::{self, AssertUnwindSafe};

use sb_engine::SplitMix64;
use sb_net::PerturbationConfig;
use sb_proto::ProtocolKind;
use sb_sim::{run_simulation, RunResult, SimConfig, TraceEvent};
use sb_workloads::AppProfile;

/// The five commit protocols under differential test: Table 3's four
/// plus the SEQ-TS extension.
pub const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::ScalableBulk,
    ProtocolKind::Tcc,
    ProtocolKind::Seq,
    ProtocolKind::SeqTs,
    ProtocolKind::BulkSc,
];

/// Short stable name used in replay triples; `ProtocolKind::from_str`
/// parses it back.
pub fn protocol_name(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::ScalableBulk => "sb",
        ProtocolKind::Tcc => "tcc",
        ProtocolKind::Seq => "seq",
        ProtocolKind::SeqTs => "seqts",
        ProtocolKind::BulkSc => "bulksc",
    }
}

/// One fuzz case: everything needed to reproduce a run exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Seeds the workload shape (app footprint, core count, run length,
    /// OCI mode) and the simulation RNG streams.
    pub workload_seed: u64,
    /// Seeds the network-timing adversary; `0` disables perturbation.
    pub perturb_seed: u64,
    /// The commit protocol under test.
    pub protocol: ProtocolKind,
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}",
            self.workload_seed,
            self.perturb_seed,
            protocol_name(self.protocol)
        )
    }
}

impl FuzzCase {
    /// The `i`-th case of the deterministic schedule rooted at
    /// `base_seed`. Cycles through all five protocols and leaves roughly
    /// every third case unperturbed (so plain-timing coverage is kept).
    pub fn nth(base_seed: u64, i: u64) -> FuzzCase {
        let mut rng = SplitMix64::new(base_seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let workload_seed = rng.next_u64();
        let perturb_seed = if i.is_multiple_of(3) {
            0
        } else {
            rng.next_u64() | 1
        };
        FuzzCase {
            workload_seed,
            perturb_seed,
            protocol: PROTOCOLS[(i % PROTOCOLS.len() as u64) as usize],
        }
    }

    /// Parses a `workload:perturb:protocol` replay triple.
    pub fn parse(s: &str) -> Option<FuzzCase> {
        let mut parts = s.split(':');
        let workload_seed = parts.next()?.trim().parse().ok()?;
        let perturb_seed = parts.next()?.trim().parse().ok()?;
        let protocol = parts.next()?.trim().parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(FuzzCase {
            workload_seed,
            perturb_seed,
            protocol,
        })
    }

    /// The one-line command reproducing this case's exact trace.
    pub fn replay_command(&self) -> String {
        format!("cargo run --release -p sb-check --bin check -- --replay {self}")
    }

    /// The full machine configuration this case runs: a small,
    /// conflict-heavy machine derived purely from the seeds.
    pub fn config(&self) -> SimConfig {
        let mut rng = SplitMix64::new(self.workload_seed ^ 0xca5e_c04f);
        let cores = [2u16, 4, 8][(rng.next_u64() % 3) as usize];
        let app = AppProfile::synthetic(self.workload_seed);
        let mut cfg = SimConfig::paper_default(cores, app, self.protocol);
        cfg.insns_per_thread = 1_000 + rng.next_u64() % 2_000;
        cfg.seed = self.workload_seed;
        // Exercise the conservative held-invalidation mode (Figure 4(c))
        // on a quarter of the cases.
        cfg.oci = !rng.next_u64().is_multiple_of(4);
        cfg.warmup_chunks = 1;
        cfg.trace = true;
        cfg.obs = sb_sim::ObsConfig::on();
        cfg.perturb = match self.perturb_seed {
            0 => None,
            s => Some(PerturbationConfig::from_seed(s)),
        };
        cfg
    }
}

/// What checking one case produced.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// FNV-1a fingerprint of the run's trace (0 if the machine panicked).
    pub fingerprint: u64,
    /// Chunks committed.
    pub commits: u64,
    /// Chunks squashed.
    pub squashes: u64,
    /// Bulk invalidations processed at cores (conflict-check coverage).
    pub invs_processed: u64,
    /// Oracle/invariant violations; empty means the case passed.
    pub violations: Vec<String>,
}

impl CaseReport {
    /// Whether the case passed all checks.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one case end to end and validates it.
pub fn check_case(case: &FuzzCase) -> CaseReport {
    let cfg = case.config();
    run_checked(|| run_simulation(&cfg))
}

/// Runs one simulation and validates it with [`verify_result`]: the one
/// checked run behind fuzz cases, explored schedules and replays. A
/// machine panic (deadlock detector, internal assertion) is reported as
/// a violation rather than propagated, so a sweep or a search survives a
/// crashing run and still prints its replay command.
pub(crate) fn run_checked(run: impl FnOnce() -> RunResult) -> CaseReport {
    match panic::catch_unwind(AssertUnwindSafe(run)) {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            CaseReport {
                fingerprint: 0,
                commits: 0,
                squashes: 0,
                invs_processed: 0,
                violations: vec![format!("machine panicked: {msg}")],
            }
        }
        Ok(r) => {
            let trace = r.trace.as_ref().expect("fuzz configs enable tracing");
            let invs = trace
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::InvProcessed { .. }))
                .count() as u64;
            CaseReport {
                fingerprint: trace.fingerprint(),
                commits: r.commits,
                squashes: r.squashes(),
                invs_processed: invs,
                violations: verify_result(&r),
            }
        }
    }
}

/// The oracle: validates one traced run that recorded its observability
/// log. Returns every violation found (empty = the run is serializable
/// and all invariants held).
pub fn verify_result(r: &RunResult) -> Vec<String> {
    let mut violations = Vec::new();
    let Some(trace) = r.trace.as_ref() else {
        return vec!["run carries no trace; enable SimConfig::trace".into()];
    };
    // Where each chunk committed in the trace. Tags are never reused, so
    // each tag is one instance; chunk lifecycles are checked by
    // `verify_observability` below.
    let committed: std::collections::HashMap<sb_chunks::ChunkTag, usize> = trace
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            TraceEvent::Committed { tag, .. } => Some((*tag, i)),
            _ => None,
        })
        .collect();

    // Serializability: the commit order is a valid serial order iff no
    // committed chunk had a conflicting foreign write set applied at its
    // core between its execution start and its commit. The conflict test
    // (signature membership over the chunk's accessed lines at that
    // moment) is recomputed here from the recorded snapshots — it does
    // not trust the machine's own `find_victim` verdict.
    for (i, e) in trace.events.iter().enumerate() {
        let TraceEvent::InvProcessed {
            core,
            committer,
            wsig,
            inflight,
            ..
        } = e
        else {
            continue;
        };
        for snap in inflight {
            let Some(&commit_idx) = committed.get(&snap.tag) else {
                continue; // never committed: squashed or still re-executing
            };
            if commit_idx <= i {
                continue; // invalidation processed after the commit: serializes after
            }
            if let Some(line) = snap
                .reads
                .iter()
                .chain(snap.writes.iter())
                .find(|l| wsig.test(l.as_u64()))
            {
                violations.push(format!(
                    "serializability: chunk {:?} at core {core} committed despite a \
                     conflicting bulk invalidation from committer {committer:?} \
                     (line {line:?} is in the published W signature) processed \
                     mid-execution — it should have been squashed",
                    snap.tag
                ));
            }
        }
    }

    // Liveness/progress: the run finished (no deadlock panic) and
    // committed work. With conflicting chunks this is the observable form
    // of "at least one chunk of a colliding set commits".
    if r.commits == 0 {
        violations.push("run finished without committing any chunk".into());
    }
    // Protocol cleanup at quiescence (e.g. ScalableBulk's CSTs).
    if trace.final_in_flight != 0 {
        violations.push(format!(
            "protocol still tracks {} in-flight commits at quiescence",
            trace.final_in_flight
        ));
    }
    // Lifecycle and observability well-formedness: exec spans close
    // exactly once, directory grabs/releases alternate and balance, and
    // the Perfetto export round-trips and reconciles with the run's
    // aggregates.
    violations.extend(sb_sim::verify_observability(r));
    violations
}

/// Aggregate outcome of a fuzz sweep.
#[derive(Clone, Debug, Default)]
pub struct SmokeReport {
    /// Cases run.
    pub cases: u64,
    /// Total commits observed across all runs.
    pub commits: u64,
    /// Total squashes observed (conflict coverage).
    pub squashes: u64,
    /// Total bulk invalidations processed (oracle coverage).
    pub invs_processed: u64,
    /// Failing cases with their reports.
    pub failures: Vec<(FuzzCase, CaseReport)>,
}

impl SmokeReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl SmokeReport {
    /// Aggregates a completed case list (as produced by [`run_cases`]).
    pub fn from_cases(results: &[(FuzzCase, CaseReport)]) -> SmokeReport {
        let mut report = SmokeReport::default();
        for (case, cr) in results {
            report.cases += 1;
            report.commits += cr.commits;
            report.squashes += cr.squashes;
            report.invs_processed += cr.invs_processed;
            if !cr.passed() {
                report.failures.push((*case, cr.clone()));
            }
        }
        report
    }
}

/// Runs cases `0..n` of the deterministic schedule rooted at `base_seed`
/// on up to `jobs` worker threads ([`sb_sim::parallel::AUTO_JOBS`] = all
/// hardware threads) and returns `(case, report)` pairs **in case
/// order** — workers may finish in any order, but the returned list (and
/// therefore anything rendered from it) is identical at every `jobs`
/// value.
pub fn run_cases(base_seed: u64, n: u64, jobs: usize) -> Vec<(FuzzCase, CaseReport)> {
    let cases: Vec<FuzzCase> = (0..n).map(|i| FuzzCase::nth(base_seed, i)).collect();
    let reports = sb_sim::parallel::parallel_map(&cases, jobs, check_case);
    cases.into_iter().zip(reports).collect()
}

/// One deterministic summary line per protocol, in [`PROTOCOLS`] order:
/// case/commit/squash/invalidation counts, failure count, and an
/// XOR-of-fingerprints digest that pins the exact set of traces run.
pub fn protocol_summary(results: &[(FuzzCase, CaseReport)]) -> Vec<String> {
    PROTOCOLS
        .into_iter()
        .map(|p| {
            let (mut cases, mut commits, mut squashes, mut invs) = (0u64, 0u64, 0u64, 0u64);
            let (mut failed, mut digest) = (0u64, 0u64);
            for (case, cr) in results.iter().filter(|(c, _)| c.protocol == p) {
                cases += 1;
                commits += cr.commits;
                squashes += cr.squashes;
                invs += cr.invs_processed;
                failed += u64::from(!cr.passed());
                digest ^= cr.fingerprint.rotate_left((case.workload_seed % 63) as u32);
            }
            format!(
                "  {:>6}: {cases:>4} cases, {commits:>6} commits, {squashes:>5} squashes, \
                 {invs:>6} invs, {failed} failed, digest {digest:#018x}",
                protocol_name(p)
            )
        })
        .collect()
}

/// Renders the sweep verdict the `check` binary prints after running:
/// every failing case (in case order) with its replay command, the
/// aggregate totals, and the per-protocol summary. Pure function of
/// `results`, so the output is byte-identical at any worker count.
pub fn render_sweep(results: &[(FuzzCase, CaseReport)]) -> String {
    use std::fmt::Write as _;

    let report = SmokeReport::from_cases(results);
    let mut out = String::new();
    for (i, (case, cr)) in results.iter().enumerate() {
        if cr.passed() {
            continue;
        }
        let _ = writeln!(out, "case {i} FAILED:");
        let _ = writeln!(
            out,
            "  case {case}: fingerprint {:#018x}, {} commits, {} squashes, {} invs",
            cr.fingerprint, cr.commits, cr.squashes, cr.invs_processed
        );
        for v in &cr.violations {
            let _ = writeln!(out, "  violation: {v}");
        }
        let _ = writeln!(out, "  replay: {}", case.replay_command());
    }
    let _ = writeln!(
        out,
        "{} cases: {} commits, {} squashes, {} bulk invalidations checked",
        report.cases, report.commits, report.squashes, report.invs_processed
    );
    for line in protocol_summary(results) {
        let _ = writeln!(out, "{line}");
    }
    let _ = if report.passed() {
        writeln!(out, "all cases passed")
    } else {
        writeln!(
            out,
            "{} case(s) FAILED (replay commands above)",
            report.failures.len()
        )
    };
    out
}

#[cfg(test)]
mod tests;
