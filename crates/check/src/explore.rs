//! Bounded model checking: exhaustive schedule exploration of small
//! configurations.
//!
//! The fuzzer (`lib.rs`) samples the schedule space; this module walks
//! it. A run's nondeterminism is exactly the set of same-cycle dispatch
//! permutations the [`Scheduler`] seam exposes (see
//! [`sb_sim::sched`]): whenever a core unit or the hub has more than one
//! event ready at the earliest cycle, the scheduler picks which handler
//! runs first. The explorer drives that seam with a *choice string* — a
//! sequence of indices, one per consulted choice point — and enumerates
//! choice strings depth-first until the bounded tree is exhausted.
//!
//! ## Stateless search
//!
//! The machine cannot be checkpointed mid-run, so the search is
//! stateless (VeriSoft-style): every schedule is a fresh simulation
//! driven by a forced prefix of choices, with index 0 (= FIFO order)
//! taken beyond the prefix. After a run, the explorer expands
//! alternatives only at choice points *at or past* its prefix — each
//! choice string is therefore generated exactly once.
//!
//! ## Partial-order reduction
//!
//! Naively every index of every choice point branches. Most of those
//! schedules are equivalent: dispatching two *independent* events (no
//! shared tile state, no overlapping address footprints — see
//! [`ChoiceMeta::independent`]) in either order leaves the machine in
//! the same state at the end of the cycle, because the seam never
//! reorders across cycles. The sleep-set rule used here enumerates one
//! representative per equivalence class of each batch: at a choice
//! point, alternative `j > 0` branches only if `ready[j]` is dependent
//! on some earlier `ready[m]` (`m < j`). If `ready[j]` commutes with
//! everything before it, picking it first is equivalent to a schedule
//! already generated with a smaller first index. The report counts what
//! this prunes versus naive enumeration.
//!
//! ## Oracle
//!
//! Every terminal state is one checked run, judged by the fuzzer's
//! oracle ([`verify_result`](crate::verify_result)): serializability,
//! progress and in-flight cleanup, plus exec-span closure and directory
//! grab/release balance over the whole obs stream. A machine panic (the
//! deadlock detector) is a violation, not a crash.
//!
//! ## Counterexamples
//!
//! A failing schedule is shrunk to a 1-minimal choice string (every
//! non-zero choice is necessary and trailing zeros are dropped) and
//! printed as a [`ScheduleToken`] that replays it exactly through the
//! normal machine:
//!
//! ```text
//! cargo run --release -p sb-check --bin check -- --replay-schedule <token>
//! ```

use std::fmt;

use sb_proto::{ChoiceMeta, ProtocolKind};
use sb_sim::sched::{ChoiceSite, Scheduler};
use sb_sim::{run_simulation_scheduled, InjectedBug, SimConfig};
use sb_workloads::AppProfile;

use crate::{protocol_name, run_checked, CaseReport};

/// Hard cap on recorded choice points per run: beyond this the recorder
/// stops logging (choices default to 0 anyway), bounding memory on
/// pathological configs.
const MAX_RECORDED_POINTS: usize = 4096;

/// One bounded-exploration problem: the machine configuration and the
/// search bounds. Everything is encoded in the [`ScheduleToken`], so a
/// counterexample replays from one string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Commit protocol under test.
    pub protocol: ProtocolKind,
    /// Machine size. The default 3 (a 3×1 ring) with the explore
    /// workload homes shared pages on two directory modules.
    pub cores: u16,
    /// Committed instructions per thread (short scripts: a few chunks).
    pub insns_per_thread: u64,
    /// Workload seed (shapes the synthetic access streams).
    pub wseed: u64,
    /// Optimistic commit initiation; `false` exercises the held-
    /// invalidation path (Figure 4(c)) the PR 2 deadlock lived in.
    pub oci: bool,
    /// Deliberate sabotage for oracle self-tests.
    pub inject_bug: Option<InjectedBug>,
    /// Only the first `depth` choice points branch; later ones take
    /// FIFO order. Bounds the tree depth.
    pub depth: usize,
    /// Schedule budget: the search stops (reported as not exhausted)
    /// after this many runs.
    pub max_schedules: u64,
    /// Partial-order reduction on (off = naive enumeration, for
    /// measuring what DPOR buys).
    pub dpor: bool,
}

impl ExploreConfig {
    /// The default small config of the acceptance criteria: 3 cores on
    /// a ring, shared pages first-touched on two of them, two short
    /// chunks per core.
    pub fn small(protocol: ProtocolKind) -> ExploreConfig {
        ExploreConfig {
            protocol,
            cores: 3,
            insns_per_thread: 120,
            wseed: 2,
            oci: true,
            inject_bug: None,
            depth: 9,
            max_schedules: 200_000,
            dpor: true,
        }
    }

    /// The conflict-heavy explore workload: tiny chunks, a small truly
    /// shared pool, high write sharing — so 3 cores × ~2 chunks already
    /// produce group formation, conflicts and squashes.
    fn app(&self) -> AppProfile {
        let mut app = AppProfile::synthetic(self.wseed);
        app.name = "Explore";
        app.chunk_insns = 60;
        app.private_frac = 0.30;
        app.shared_ws_kb = 16; // few pages: dense sharing across 2 homes
        app.shared_write_frac = 0.6;
        app.rw_overlap = 0.5;
        app.conflict_prob = 0.5;
        app.hot_lines = 2;
        app.hot_write_frac = 0.7;
        app
    }

    /// The full machine configuration this exploration runs.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper_default(self.cores, self.app(), self.protocol);
        cfg.insns_per_thread = self.insns_per_thread;
        cfg.seed = self.wseed;
        cfg.oci = self.oci;
        cfg.warmup_chunks = 0;
        cfg.trace = true;
        cfg.obs = sb_sim::ObsConfig::on();
        cfg.inject_bug = self.inject_bug;
        cfg
    }
}

/// One recorded choice point of a run.
#[derive(Clone, Debug)]
struct ChoicePoint {
    /// Number of ready events (always ≥ 2: singleton batches are not
    /// consulted).
    arity: usize,
    /// Alternative indices worth branching to under the sleep-set rule
    /// (all of `0..arity` except the index taken when DPOR is off).
    branch: Vec<usize>,
}

/// The recording/replaying [`Scheduler`]: forces `prefix`, then takes
/// index 0, logging every consulted choice point.
struct Recorder<'a> {
    prefix: &'a [u16],
    pos: usize,
    dpor: bool,
    log: Vec<ChoicePoint>,
    /// Choice points whose arity clipped a forced choice (a stale
    /// prefix replayed against a changed binary); diagnostics only.
    clipped: usize,
}

impl<'a> Recorder<'a> {
    fn new(prefix: &'a [u16], dpor: bool) -> Self {
        Recorder {
            prefix,
            pos: 0,
            dpor,
            log: Vec::new(),
            clipped: 0,
        }
    }
}

impl Scheduler for Recorder<'_> {
    fn choose(&mut self, _site: ChoiceSite, ready: &[ChoiceMeta]) -> usize {
        let want = self.prefix.get(self.pos).map(|&c| c as usize).unwrap_or(0);
        self.pos += 1;
        let chosen = want.min(ready.len() - 1);
        if chosen != want {
            self.clipped += 1;
        }
        if self.log.len() < MAX_RECORDED_POINTS {
            // Sleep-set rule: alternative j is a fresh equivalence class
            // only if it depends on something dispatched before it in
            // the FIFO order; an all-independent j commutes back to an
            // already-enumerated schedule.
            let branch = (0..ready.len())
                .filter(|&j| j != chosen)
                .filter(|&j| !self.dpor || (0..j).any(|m| !ready[m].independent(&ready[j])))
                .collect();
            self.log.push(ChoicePoint {
                arity: ready.len(),
                branch,
            });
        }
        chosen
    }
}

/// Runs one schedule: the machine under `prefix`-forced choices, checked
/// by the fuzzer's oracle, with the choice points it consulted. After a
/// panic the log ends where the run stopped.
fn run_schedule(cfg: &ExploreConfig, prefix: &[u16]) -> (CaseReport, Vec<ChoicePoint>) {
    let sim = cfg.sim_config();
    let mut rec = Recorder::new(prefix, cfg.dpor);
    let report = run_checked(|| run_simulation_scheduled(&sim, &mut rec));
    (report, rec.log)
}

/// A replayable schedule: the exploration config plus the choice
/// string, rendered as one token.
///
/// Format (all fields fixed-position, `:`-separated):
///
/// ```text
/// v1:<proto>:<cores>:<insns>:<wseed>:<oci 0|1>:<bug|->:<c.c.c|->
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleToken {
    /// Machine/workload identity (bounds are not part of a replay).
    pub protocol: ProtocolKind,
    /// Core count.
    pub cores: u16,
    /// Instructions per thread.
    pub insns_per_thread: u64,
    /// Workload seed.
    pub wseed: u64,
    /// OCI mode.
    pub oci: bool,
    /// Injected bug, if the schedule was found under sabotage.
    pub inject_bug: Option<InjectedBug>,
    /// The forced choice string.
    pub choices: Vec<u16>,
}

fn bug_name(b: InjectedBug) -> &'static str {
    match b {
        InjectedBug::SkipReadSetConflicts => "skip-read-set-conflicts",
    }
}

/// Inverse of the bug name used in tokens and `--inject-bug`.
pub fn bug_by_name(s: &str) -> Option<InjectedBug> {
    match s {
        "skip-read-set-conflicts" => Some(InjectedBug::SkipReadSetConflicts),
        _ => None,
    }
}

impl fmt::Display for ScheduleToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let choices = if self.choices.is_empty() {
            "-".to_string()
        } else {
            self.choices
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(".")
        };
        write!(
            f,
            "v1:{}:{}:{}:{}:{}:{}:{}",
            protocol_name(self.protocol),
            self.cores,
            self.insns_per_thread,
            self.wseed,
            u8::from(self.oci),
            self.inject_bug.map(bug_name).unwrap_or("-"),
            choices
        )
    }
}

impl ScheduleToken {
    /// Parses a `v1:...` token (see the type docs for the format).
    pub fn parse(s: &str) -> Option<ScheduleToken> {
        let mut p = s.trim().split(':');
        if p.next()? != "v1" {
            return None;
        }
        let protocol = p.next()?.parse().ok()?;
        let cores = sb_sim::cli::cores(p.next()?)?;
        let insns_per_thread = p.next()?.parse().ok().filter(|&n: &u64| n >= 1)?;
        let wseed = p.next()?.parse().ok()?;
        let oci = match p.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let inject_bug = match p.next()? {
            "-" => None,
            b => Some(bug_by_name(b)?),
        };
        let choices = match p.next()? {
            "-" => Vec::new(),
            cs => cs
                .split('.')
                .map(|c| c.parse().ok())
                .collect::<Option<Vec<u16>>>()?,
        };
        if p.next().is_some() {
            return None;
        }
        Some(ScheduleToken {
            protocol,
            cores,
            insns_per_thread,
            wseed,
            oci,
            inject_bug,
            choices,
        })
    }

    /// The exploration config this token replays under (search bounds
    /// are irrelevant for a single replay and set to minimal values).
    pub fn explore_config(&self) -> ExploreConfig {
        ExploreConfig {
            protocol: self.protocol,
            cores: self.cores,
            insns_per_thread: self.insns_per_thread,
            wseed: self.wseed,
            oci: self.oci,
            inject_bug: self.inject_bug,
            depth: 0,
            max_schedules: 1,
            dpor: true,
        }
    }

    /// Token for `cfg`'s machine with the given choice string.
    pub fn new(cfg: &ExploreConfig, choices: Vec<u16>) -> ScheduleToken {
        ScheduleToken {
            protocol: cfg.protocol,
            cores: cfg.cores,
            insns_per_thread: cfg.insns_per_thread,
            wseed: cfg.wseed,
            oci: cfg.oci,
            inject_bug: cfg.inject_bug,
            choices,
        }
    }

    /// The one-line command replaying this schedule.
    pub fn replay_command(&self) -> String {
        format!("cargo run --release -p sb-check --bin check -- --replay-schedule {self}")
    }
}

/// Replays one schedule token exactly: same machine, same forced
/// choices, same oracle.
pub fn replay_schedule(token: &ScheduleToken) -> CaseReport {
    run_schedule(&token.explore_config(), &token.choices).0
}

/// A minimized counterexample with the search context it fell out of.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The minimized, replayable schedule.
    pub token: ScheduleToken,
    /// Choice-string length before minimization.
    pub original_len: usize,
    /// Violations the minimized schedule reproduces.
    pub violations: Vec<String>,
}

/// What one bounded exploration did.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// The explored problem.
    pub config: ExploreConfig,
    /// Schedules (terminal states) run.
    pub schedules: u64,
    /// Distinct trace fingerprints among them (semantic coverage:
    /// schedules DPOR kept that still collapsed to the same trace).
    pub distinct_traces: u64,
    /// Choice points consulted across all runs (step states visited).
    pub choice_points: u64,
    /// Branches the sleep-set rule declined at visited expansion
    /// points (0 when DPOR is off). Each declined branch roots a whole
    /// subtree, so this *understates* total pruning — the
    /// schedule-count comparison against a `dpor: false` run of the
    /// same bounds (CLI `--compare`) is the full measure.
    pub pruned_branches: u64,
    /// Branches available at the same visited points
    /// (`sum(arity - 1)` within the depth bound).
    pub naive_branches: u64,
    /// `true` when the bounded tree was fully drained; `false` when
    /// `max_schedules` stopped the search early.
    pub exhausted: bool,
    /// First counterexample found (the search stops at it), minimized.
    pub counterexample: Option<Counterexample>,
}

impl ExploreReport {
    /// Fraction of naive branches DPOR pruned, in percent.
    pub fn pruned_pct(&self) -> f64 {
        if self.naive_branches == 0 {
            0.0
        } else {
            100.0 * self.pruned_branches as f64 / self.naive_branches as f64
        }
    }

    /// Renders the state-count/coverage report the CLI prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let c = &self.config;
        let _ = writeln!(
            out,
            "explore {}: {} cores, {} insns/thread, seed {}, oci {}, depth {}, dpor {}",
            protocol_name(c.protocol),
            c.cores,
            c.insns_per_thread,
            c.wseed,
            u8::from(c.oci),
            c.depth,
            if c.dpor { "on" } else { "off" },
        );
        let _ = writeln!(
            out,
            "  {} schedules ({}), {} distinct traces, {} choice points",
            self.schedules,
            if self.exhausted {
                "exhausted"
            } else {
                "budget hit"
            },
            self.distinct_traces,
            self.choice_points,
        );
        let _ = writeln!(
            out,
            "  branches at visited points: {} taken, {} declined of {} ({:.1}%; \
             subtree pruning compounds — see --compare)",
            self.naive_branches - self.pruned_branches,
            self.pruned_branches,
            self.naive_branches,
            self.pruned_pct(),
        );
        if let Some(cx) = &self.counterexample {
            let _ = writeln!(
                out,
                "  COUNTEREXAMPLE ({} choices, minimized from {}):",
                cx.token.choices.len(),
                cx.original_len
            );
            for v in &cx.violations {
                let _ = writeln!(out, "    violation: {v}");
            }
            let _ = writeln!(out, "    replay: {}", cx.token.replay_command());
        } else {
            let _ = writeln!(out, "  no violations");
        }
        out
    }
}

/// Exhaustively explores the bounded schedule tree of `cfg`
/// depth-first. Stops at the first violation (minimized into
/// [`ExploreReport::counterexample`]) or when the tree/budget is
/// drained.
pub fn explore(cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport {
        config: *cfg,
        schedules: 0,
        distinct_traces: 0,
        choice_points: 0,
        pruned_branches: 0,
        naive_branches: 0,
        exhausted: true,
        counterexample: None,
    };
    let mut traces = std::collections::BTreeSet::new();
    // DFS worklist of forced prefixes still to run.
    let mut stack: Vec<Vec<u16>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.schedules >= cfg.max_schedules {
            report.exhausted = false;
            break;
        }
        let (out, log) = run_schedule(cfg, &prefix);
        report.schedules += 1;
        report.choice_points += log.len() as u64;
        if traces.insert(out.fingerprint) {
            report.distinct_traces += 1;
        }
        if !out.passed() {
            report.counterexample = Some(minimize(cfg, prefix, out.violations));
            break;
        }
        // Expand alternatives at points this run owns: at or past its
        // prefix (earlier points belong to ancestors) and within the
        // depth bound. Pushed in reverse so the DFS visits smaller
        // indices first.
        let hi = cfg.depth.min(log.len());
        for i in (prefix.len()..hi).rev() {
            let cp = &log[i];
            report.naive_branches += (cp.arity - 1) as u64;
            report.pruned_branches += (cp.arity - 1 - cp.branch.len()) as u64;
            for &j in cp.branch.iter().rev() {
                // This run took the default at point i (it is past the
                // prefix), so the new prefix is `prefix`, zero-padded
                // to i, with j forced at i.
                let mut p = Vec::with_capacity(i + 1);
                p.extend_from_slice(&prefix);
                p.resize(i, 0);
                p.push(j as u16);
                stack.push(p);
            }
        }
    }
    report
}

/// Shrinks a failing choice string to a 1-minimal counterexample: the
/// shortest failing truncation, then every remaining non-zero choice
/// zeroed where the failure survives, then trailing zeros dropped
/// (index 0 is the default, so they are no-ops).
fn minimize(cfg: &ExploreConfig, choices: Vec<u16>, violations: Vec<String>) -> Counterexample {
    let original_len = choices.len();
    let fails = |c: &[u16]| !run_schedule(cfg, c).0.passed();

    let mut cur: Vec<u16> = choices;
    // Trailing zeros first: free to drop, shortens everything after.
    while cur.last() == Some(&0) {
        cur.pop();
    }
    // Shortest failing truncation (suffix reverts to FIFO).
    for len in 0..cur.len() {
        if fails(&cur[..len]) {
            cur.truncate(len);
            break;
        }
    }
    // Zero-out pass: every surviving non-zero choice is necessary.
    for i in 0..cur.len() {
        if cur[i] != 0 {
            let saved = cur[i];
            cur[i] = 0;
            if !fails(&cur) {
                cur[i] = saved;
            }
        }
    }
    while cur.last() == Some(&0) {
        cur.pop();
    }
    // Re-run the minimized schedule for its (possibly reworded)
    // violations; fall back to the originals if shrinking was unstable.
    let (out, _) = run_schedule(cfg, &cur);
    let violations = if out.passed() {
        violations
    } else {
        out.violations
    };
    Counterexample {
        token: ScheduleToken::new(cfg, cur),
        original_len,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{verify_result, PROTOCOLS};
    use sb_sim::{run_simulation, FifoScheduler, ObsKind, TraceEvent};

    #[test]
    fn schedule_tokens_round_trip_and_reject_garbage() {
        let cfg = ExploreConfig::small(ProtocolKind::SeqTs);
        for choices in [vec![], vec![0], vec![3, 0, 1]] {
            let tok = ScheduleToken::new(&cfg, choices);
            assert_eq!(ScheduleToken::parse(&tok.to_string()), Some(tok));
        }
        let mut bug = ExploreConfig::small(ProtocolKind::ScalableBulk);
        bug.inject_bug = Some(InjectedBug::SkipReadSetConflicts);
        let tok = ScheduleToken::new(&bug, vec![1]);
        assert_eq!(tok.to_string(), "v1:sb:3:120:2:1:skip-read-set-conflicts:1");
        assert_eq!(ScheduleToken::parse(&tok.to_string()), Some(tok));
        for garbage in [
            "",
            "v2:sb:3:120:2:1:-:-",
            "v1:nope:3:120:2:1:-:-",
            "v1:sb:3:120:2:2:-:-",
            "v1:sb:3:120:2:1:unknown-bug:-",
            "v1:sb:3:120:2:1:-:1.x",
            "v1:sb:3:120:2:1:-:-:extra",
            "v1:sb:3:120:2:1:-",
            "v1:sb:0:100:2:1:-:-",
            "v1:sb:3:0:2:1:-:-",
        ] {
            assert_eq!(ScheduleToken::parse(garbage), None, "{garbage:?}");
        }
    }

    /// The seam contract, from the consumer side: a scheduler that
    /// always picks index 0 reproduces the unscheduled machine exactly.
    #[test]
    fn fifo_scheduler_is_identical_to_the_default_path() {
        for proto in [ProtocolKind::ScalableBulk, ProtocolKind::Tcc] {
            let sim = ExploreConfig::small(proto).sim_config();
            let plain = run_simulation(&sim);
            let mut fifo = FifoScheduler;
            let scheduled = run_simulation_scheduled(&sim, &mut fifo);
            assert_eq!(plain.wall_cycles, scheduled.wall_cycles, "{proto}");
            assert_eq!(
                plain.trace.as_ref().unwrap().fingerprint(),
                scheduled.trace.as_ref().unwrap().fingerprint(),
                "{proto}"
            );
        }
    }

    /// The one oracle keeps every verdict the explorer's own step-wise
    /// invariants gave: each fault planted in a real explored run — a
    /// lost directory release, a chunk that never finishes, a doubled
    /// grab — is a violation.
    #[test]
    fn the_oracle_rejects_mutated_explore_runs() {
        let clean = run_simulation(&ExploreConfig::small(ProtocolKind::ScalableBulk).sim_config());
        assert_eq!(verify_result(&clean), Vec::<String>::new());
        let rejects = |r: &sb_sim::RunResult, fault: &str, want: &str| {
            let violations = verify_result(r);
            assert!(
                violations.iter().any(|v| v.contains(want)),
                "{fault}: {violations:?}"
            );
        };
        let first = |r: &sb_sim::RunResult, pred: fn(&ObsKind) -> bool| {
            let obs = r.obs.as_ref().expect("explore runs record obs");
            obs.events
                .iter()
                .position(|e| pred(&e.kind))
                .expect("event recorded")
        };

        let mut r = clean.clone();
        let i = first(&r, |k| matches!(k, ObsKind::DirReleased { .. }));
        r.obs.as_mut().unwrap().events.remove(i);
        rejects(&r, "dropped DirReleased", "never released at quiescence");

        let mut r = clean.clone();
        let trace = r.trace.as_mut().unwrap();
        let i = (trace.events.iter())
            .position(|e| matches!(e, TraceEvent::Committed { .. }))
            .expect("the run commits");
        let TraceEvent::Committed { tag, .. } = trace.events.remove(i) else {
            unreachable!()
        };
        (r.obs.as_mut().unwrap().events)
            .retain(|e| !matches!(e.kind, ObsKind::ChunkDone { tag: t, .. } if t == tag));
        rejects(&r, "dropped terminal event", "exec span never closed");

        let mut r = clean;
        let i = first(&r, |k| matches!(k, ObsKind::DirGrabbed { .. }));
        let events = &mut r.obs.as_mut().unwrap().events;
        events.insert(i, events[i]);
        rejects(&r, "duplicated DirGrabbed", "grabbed twice");
    }

    /// Acceptance: the default small config (3 cores, shared pages on
    /// two homes) is exhausted for all five protocols, violation-free.
    #[test]
    fn explorer_exhausts_the_small_config_under_every_protocol() {
        for proto in PROTOCOLS {
            let mut cfg = ExploreConfig::small(proto);
            cfg.depth = 4; // debug-build budget; CI explores depth 9 in release
            let r = explore(&cfg);
            assert!(r.exhausted, "{proto}: budget must not bind at depth 4");
            assert!(r.schedules > 1, "{proto}: tree must actually branch");
            assert!(
                r.counterexample.is_none(),
                "{proto}: {:?}",
                r.counterexample
            );
            assert!(r.distinct_traces >= 1 && r.choice_points > r.schedules);
        }
    }

    /// Acceptance: the sleep-set reduction prunes at least half the
    /// naive tree while reaching the same set of distinct traces.
    #[test]
    fn dpor_prunes_at_least_half_of_the_naive_tree() {
        for proto in [ProtocolKind::ScalableBulk, ProtocolKind::BulkSc] {
            let mut on = ExploreConfig::small(proto);
            on.depth = 6;
            let mut off = on;
            off.dpor = false;
            let r_on = explore(&on);
            let r_off = explore(&off);
            assert!(r_on.exhausted && r_off.exhausted, "{proto}");
            assert!(
                2 * r_on.schedules <= r_off.schedules,
                "{proto}: dpor {} vs naive {} schedules",
                r_on.schedules,
                r_off.schedules
            );
            // Reduction must not lose coverage: every trace the naive
            // tree reaches, the reduced tree reaches too.
            assert_eq!(
                r_on.distinct_traces, r_off.distinct_traces,
                "{proto}: dpor changed semantic coverage"
            );
            assert!(r_on.counterexample.is_none() && r_off.counterexample.is_none());
        }
    }

    /// Acceptance: a planted conflict-detection bug yields a minimized,
    /// replayable counterexample — and only the explorer's reordering
    /// exposes it (the FIFO schedule of the same machine passes).
    #[test]
    fn planted_bug_yields_a_minimized_replayable_counterexample() {
        let mut cfg = ExploreConfig::small(ProtocolKind::ScalableBulk);
        cfg.wseed = 9;
        cfg.inject_bug = Some(InjectedBug::SkipReadSetConflicts);
        let r = explore(&cfg);
        let cx = r.counterexample.expect("sabotage must be caught");
        assert!(!cx.token.choices.is_empty(), "FIFO alone must not fail");
        assert!(cx.token.choices.len() <= cx.original_len.max(1));
        assert!(
            *cx.token.choices.last().unwrap() != 0,
            "minimal: no trailing zeros"
        );
        assert!(
            cx.violations.iter().any(|v| v.contains("serializability")),
            "{:?}",
            cx.violations
        );

        // The token replays the exact failure through the normal machine.
        let tok = ScheduleToken::parse(&cx.token.to_string()).expect("token parses");
        let replay = replay_schedule(&tok);
        assert!(!replay.passed());

        // Control 1: the FIFO schedule under the same sabotage passes.
        let fifo = ScheduleToken::new(&cfg, Vec::new());
        assert!(replay_schedule(&fifo).passed());

        // Control 2: the counterexample schedule passes on clean code.
        let mut clean_tok = tok;
        clean_tok.inject_bug = None;
        assert!(replay_schedule(&clean_tok).passed());
    }

    /// Satellite: every schedule in `crates/check/corpus/` replays with
    /// its recorded verdict — each bug the explorer ever finds becomes
    /// a permanent tier-1 test.
    #[test]
    fn corpus_replays_with_recorded_verdicts() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus directory exists")
            .map(|e| e.expect("readable corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "sched"))
            .collect();
        entries.sort();
        assert!(!entries.is_empty(), "corpus must not be empty");
        let mut replayed = 0;
        for path in entries {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            for (ln, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let at = format!("{}:{}", path.display(), ln + 1);
                let (verdict, token) = line.split_once(' ').expect(&at);
                let expect_pass = match verdict {
                    "pass" => true,
                    "fail" => false,
                    other => panic!("{at}: unknown verdict {other:?}"),
                };
                let tok = ScheduleToken::parse(token.trim())
                    .unwrap_or_else(|| panic!("{at}: bad token {token:?}"));
                let report = replay_schedule(&tok);
                assert_eq!(
                    report.passed(),
                    expect_pass,
                    "{at}: {token} expected {verdict}, violations {:?}",
                    report.violations
                );
                replayed += 1;
            }
        }
        assert!(replayed >= 10, "corpus shrank to {replayed} schedules");
    }
}
