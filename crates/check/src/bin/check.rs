//! Fuzz-sweep / replay / bounded-exploration driver.
//!
//! ```text
//! check [--smoke N | --cases N] [--seed S] [--jobs J|auto]
//!                                   run N cases of the schedule rooted at S
//! check --replay W:P:PROTO          re-run one fuzz case and print its verdict
//! check explore [--proto P|all] [--depth N] [--max-schedules N] [--cores N]
//!               [--insns N] [--wseed S] [--no-oci] [--inject-bug NAME]
//!               [--no-dpor] [--compare]
//!                                   exhaustively explore bounded schedules
//! check --replay-schedule TOKEN     replay one explored schedule exactly
//! ```
//!
//! `--jobs` spreads the independent cases over worker threads (default:
//! all hardware threads). The sweep output — failing cases in case
//! order, totals, one summary line per protocol — is buffered and
//! byte-identical at every job count; only wall-clock changes.
//!
//! `explore` runs the bounded model checker (see `sb_check::explore`):
//! it enumerates same-cycle dispatch schedules of a small machine up to
//! `--depth` choice points, pruning equivalent interleavings unless
//! `--no-dpor`, and stops at the first counterexample, minimized into a
//! `--replay-schedule` token. `--compare` also runs the naive (no-DPOR)
//! enumeration and reports what the reduction pruned.
//!
//! Exit status is non-zero iff any case failed; every failure prints the
//! one-line replay command and the trace fingerprint it reproduces.

use std::process::ExitCode;

use sb_check::explore::{bug_by_name, explore, replay_schedule, ExploreConfig, ScheduleToken};
use sb_check::{
    check_case, protocol_by_name, render_sweep, run_cases, CaseReport, FuzzCase, SmokeReport,
    PROTOCOLS,
};
use sb_sim::parallel::AUTO_JOBS;

const DEFAULT_CASES: u64 = 200;
const DEFAULT_SEED: u64 = 0xf0f0_2026;

fn usage() -> ExitCode {
    eprintln!(
        "usage: check [--smoke N | --cases N] [--seed S] [--jobs J|auto]\n\
         \u{20}      check --replay W:P:PROTO\n\
         \u{20}      check explore [--proto P|all] [--depth N] [--max-schedules N] [--cores N]\n\
         \u{20}                    [--insns N] [--wseed S] [--no-oci] [--inject-bug NAME]\n\
         \u{20}                    [--no-dpor] [--compare]\n\
         \u{20}      check --replay-schedule TOKEN"
    );
    ExitCode::from(2)
}

/// Runs the bounded explorer for every requested protocol; with
/// `compare`, re-runs each exploration without DPOR and reports the
/// schedule-count reduction (the honest pruning measure: each pruned
/// branch roots a whole subtree).
fn run_explore(mut configs: Vec<ExploreConfig>, compare: bool) -> ExitCode {
    let mut failed = false;
    for cfg in configs.iter_mut() {
        let report = explore(cfg);
        print!("{}", report.render());
        if compare {
            let mut naive = *cfg;
            naive.dpor = false;
            let nr = explore(&naive);
            let pruned = 100.0 * (1.0 - report.schedules as f64 / nr.schedules.max(1) as f64);
            println!(
                "  vs naive: {} schedules ({}), {} distinct traces, {pruned:.1}% pruned by DPOR",
                nr.schedules,
                if nr.exhausted {
                    "exhausted"
                } else {
                    "budget hit"
                },
                nr.distinct_traces,
            );
        }
        failed |= report.counterexample.is_some();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn explore_main(args: &[String]) -> ExitCode {
    let mut protos: Vec<_> = PROTOCOLS.to_vec();
    let mut base = ExploreConfig::small(protos[0]);
    let mut compare = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--proto" => match it.next().map(String::as_str) {
                Some("all") => protos = PROTOCOLS.to_vec(),
                Some(p) => match protocol_by_name(p) {
                    Some(p) => protos = vec![p],
                    None => return usage(),
                },
                None => return usage(),
            },
            "--depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(d) => base.depth = d,
                None => return usage(),
            },
            "--max-schedules" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => base.max_schedules = n,
                None => return usage(),
            },
            "--cores" => match it.next().and_then(|v| v.parse().ok()) {
                Some(c) => base.cores = c,
                None => return usage(),
            },
            "--insns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => base.insns_per_thread = n,
                None => return usage(),
            },
            "--wseed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => base.wseed = s,
                None => return usage(),
            },
            "--no-oci" => base.oci = false,
            "--inject-bug" => match it.next().and_then(|v| bug_by_name(v)) {
                Some(b) => base.inject_bug = Some(b),
                None => return usage(),
            },
            "--no-dpor" => base.dpor = false,
            "--compare" => compare = true,
            _ => return usage(),
        }
    }
    let configs = protos
        .into_iter()
        .map(|p| ExploreConfig {
            protocol: p,
            ..base
        })
        .collect();
    run_explore(configs, compare)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("explore") {
        return explore_main(&args[1..]);
    }
    let mut cases = DEFAULT_CASES;
    let mut seed = DEFAULT_SEED;
    let mut jobs = AUTO_JOBS;
    let mut replay: Option<FuzzCase> = None;
    let mut replay_sched: Option<ScheduleToken> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" | "--cases" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cases = n,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|v| sb_sim::parallel::parse_jobs(v)) {
                Some(j) => jobs = j,
                None => return usage(),
            },
            "--replay" => match it.next().and_then(|v| FuzzCase::parse(v)) {
                Some(c) => replay = Some(c),
                None => return usage(),
            },
            "--replay-schedule" => match it.next().and_then(|v| ScheduleToken::parse(v)) {
                Some(t) => replay_sched = Some(t),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    if let Some(token) = replay_sched {
        let report = replay_schedule(&token);
        println!(
            "  schedule {token}: fingerprint {:#018x}",
            report.fingerprint
        );
        for v in &report.violations {
            eprintln!("  violation: {v}");
        }
        return if report.passed() {
            println!("  ok");
            ExitCode::SUCCESS
        } else {
            eprintln!("  replay: {}", token.replay_command());
            ExitCode::FAILURE
        };
    }

    if let Some(case) = replay {
        let report = check_case(&case);
        print_case(&case, &report);
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    println!("fuzzing {cases} cases (schedule seed {seed:#x}) ...");
    let results = run_cases(seed, cases, jobs);
    // Everything below is a pure render of the ordered results, so the
    // bytes printed are independent of how the workers interleaved.
    print!("{}", render_sweep(&results));
    let report = SmokeReport::from_cases(&results);
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_case(case: &FuzzCase, report: &CaseReport) {
    println!(
        "  case {case}: fingerprint {:#018x}, {} commits, {} squashes, {} invs",
        report.fingerprint, report.commits, report.squashes, report.invs_processed
    );
    for v in &report.violations {
        eprintln!("  violation: {v}");
    }
    if !report.violations.is_empty() {
        eprintln!("  replay: {}", case.replay_command());
    } else {
        println!("  ok");
    }
}
