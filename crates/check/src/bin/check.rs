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
use sb_check::{check_case, render_sweep, run_cases, CaseReport, FuzzCase, SmokeReport, PROTOCOLS};
use sb_sim::cli::{self, Args};
use sb_sim::parallel::AUTO_JOBS;

const DEFAULT_CASES: u64 = 200;
const DEFAULT_SEED: u64 = 0xf0f0_2026;

const USAGE: &str = "check [--smoke N | --cases N] [--seed S] [--jobs J|auto]
       check --replay W:P:PROTO
       check explore [--proto P|all] [--depth N] [--max-schedules N] [--cores N]
                     [--insns N] [--wseed S] [--no-oci] [--inject-bug NAME]
                     [--no-dpor] [--compare]
       check --replay-schedule TOKEN";

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

fn explore_main(mut args: Args) -> ExitCode {
    let mut protos: Vec<_> = PROTOCOLS.to_vec();
    let mut base = ExploreConfig::small(protos[0]);
    let mut compare = false;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--proto" => {
                protos = args.value(|s| match s {
                    "all" => Some(PROTOCOLS.to_vec()),
                    p => p.parse().ok().map(|p| vec![p]),
                })
            }
            "--depth" => base.depth = args.value(cli::parse),
            "--max-schedules" => base.max_schedules = args.value(cli::parse),
            "--cores" => base.cores = args.value(cli::cores),
            "--insns" => {
                base.insns_per_thread = args.value(|s| cli::parse(s).filter(|&n: &u64| n >= 1))
            }
            "--wseed" => base.wseed = args.value(cli::seed),
            "--no-oci" => base.oci = false,
            "--inject-bug" => base.inject_bug = Some(args.value(bug_by_name)),
            "--no-dpor" => base.dpor = false,
            "--compare" => compare = true,
            _ => args.usage(),
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
    let mut args = Args::from_env(USAGE);
    if args.take("explore") {
        return explore_main(args);
    }
    let mut cases = DEFAULT_CASES;
    let mut seed = DEFAULT_SEED;
    let mut jobs = AUTO_JOBS;
    let mut replay: Option<FuzzCase> = None;
    let mut replay_sched: Option<ScheduleToken> = None;
    while let Some(flag) = args.next_arg() {
        match flag.as_str() {
            "--smoke" | "--cases" => cases = args.value(cli::parse),
            "--seed" => seed = args.value(cli::seed),
            "--jobs" => jobs = args.value(cli::jobs),
            "--replay" => replay = Some(args.value(FuzzCase::parse)),
            "--replay-schedule" => replay_sched = Some(args.value(ScheduleToken::parse)),
            _ => args.usage(),
        }
    }

    if let Some(token) = replay_sched {
        let report = replay_schedule(&token);
        println!(
            "  schedule {token}: fingerprint {:#018x}",
            report.fingerprint
        );
        for v in &report.violations {
            cli::note(format_args!("  violation: {v}"));
        }
        return if report.passed() {
            println!("  ok");
            ExitCode::SUCCESS
        } else {
            cli::note(format_args!("  replay: {}", token.replay_command()));
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
        cli::note(format_args!("  violation: {v}"));
    }
    if !report.violations.is_empty() {
        cli::note(format_args!("  replay: {}", case.replay_command()));
    } else {
        println!("  ok");
    }
}
