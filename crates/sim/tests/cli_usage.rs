//! Bad flag values are usage errors: every binary exits with status 2
//! (after printing usage) instead of panicking with status 101. An
//! output path that cannot be written exits 1 with a message.

use std::process::{Command, Output, Stdio};

const PROFILE: &str = env!("CARGO_BIN_EXE_profile");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");
const ANALYZE: &str = env!("CARGO_BIN_EXE_analyze");
const BENCH_JSON: &str = env!("CARGO_BIN_EXE_bench_json");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

/// Every value-taking flag of every binary: the binary, the arguments
/// before the flag, the flag, and values it must reject (none for a
/// path, which any string names). `figures` runs `table1`, which takes
/// milliseconds, so only the flag can fail it.
const FLAGS: &[(&str, &[&str], &str, &[&str])] = &[
    (PROFILE, &[], "--cores", &["0", "x"]),
    (PROFILE, &[], "--app", &["NOAPP"]),
    (PROFILE, &[], "--proto", &["bogus"]),
    (PROFILE, &[], "--insns", &["x"]),
    (PROFILE, &[], "--seed", &["x", "0xg"]),
    (PROFILE, &[], "--max-squash", &["x", "-1"]),
    (PROFILE, &[], "--out", &[]),
    (TRACE, &[], "--out", &[]),
    (TRACE, &[], "--metrics-out", &[]),
    (TRACE, &[], "--cores", &["0", "x"]),
    (TRACE, &[], "--app", &["NOAPP"]),
    (TRACE, &[], "--proto", &["bogus"]),
    (TRACE, &[], "--insns", &["x"]),
    (TRACE, &[], "--seed", &["x"]),
    (TRACE, &[], "--series-out", &[]),
    (TRACE, &[], "--series-window", &["x"]),
    (ANALYZE, &[], "--cores", &["0", "x"]),
    (ANALYZE, &[], "--app", &["NOAPP"]),
    (ANALYZE, &[], "--proto", &["bogus"]),
    (ANALYZE, &[], "--insns", &["x"]),
    (ANALYZE, &[], "--seed", &["x"]),
    (ANALYZE, &[], "--top", &["x"]),
    (ANALYZE, &[], "--jobs", &["0", "x"]),
    (ANALYZE, &[], "--diff", &[]),
    (BENCH_JSON, &[], "--out", &[]),
    (BENCH_JSON, &[], "--insns", &["x"]),
    (BENCH_JSON, &[], "--repeats", &["x"]),
    (BENCH_JSON, &[], "--compare", &[]),
    (BENCH_JSON, &[], "--max-regress", &["x", "nan", "inf", "-5"]),
    (BENCH_JSON, &[], "--jobs", &["0", "x"]),
    (BENCH_JSON, &[], "--cores", &["0", "x", "8,0"]),
    (BENCH_JSON, &[], "--fabrics", &["bogus", "torus,bogus"]),
    (BENCH_JSON, &[], "--protocols", &["bogus", "sb,bogus"]),
    (BENCH_JSON, &[], "--max-rss-mb", &["x"]),
    (FIGURES, &["table1"], "--insns", &["x"]),
    (FIGURES, &["table1"], "--seed", &["x"]),
    (FIGURES, &["table1"], "--jobs", &["0", "x"]),
    (FIGURES, &["table1"], "--cores", &["0", "8,x"]),
    (FIGURES, &["table1"], "--fabrics", &["bogus", "torus,bogus"]),
    (FIGURES, &["table1"], "--csv", &[]),
    (FIGURES, &["table1"], "--trace-out", &[]),
    (FIGURES, &["table1"], "--series-out", &[]),
    (FIGURES, &["table1"], "--series-window", &["x"]),
];

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Runs `bin` with `args` and asserts it exits with the usage status.
fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: expected a usage error, got {:?}\n{stderr}",
        out.status
    );
    assert!(stderr.contains("usage"), "{bin} {args:?} printed no usage");
}

#[test]
fn missing_and_unparsable_values_are_usage_errors() {
    for &(bin, before, flag, bad_values) in FLAGS {
        let mut args = before.to_vec();
        args.push(flag);
        assert_usage_exit(bin, &args);
        for bad in bad_values {
            args.push(bad);
            assert_usage_exit(bin, &args);
            args.pop();
        }
    }
}

#[test]
fn unknown_flags_and_ids_are_usage_errors() {
    for (bin, args) in [
        (PROFILE, &["--bogus"][..]),
        (TRACE, &["--bogus"]),
        (ANALYZE, &["--diff", "a.json"]),
        (ANALYZE, &["--diff", "a.json", "b.json", "c.json"]),
        (BENCH_JSON, &["--domains", "2"]),
        (FIGURES, &[]),
        (FIGURES, &["table1", "--timing"]),
        (FIGURES, &["table1", "fig99"]),
    ] {
        assert_usage_exit(bin, args);
    }
}

#[test]
fn unwritable_outputs_exit_1() {
    // A path below a regular file can be neither created nor written.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    for (bin, args) in [
        (FIGURES, &["table1", "--csv", bad][..]),
        (FIGURES, &["--trace-out", bad, "--insns", "500"]),
        (FIGURES, &["--series-out", bad, "--insns", "500"]),
        (PROFILE, &["--out", bad, "--cores", "4", "--insns", "500"]),
        (TRACE, &["--out", bad, "--cores", "4", "--insns", "500"]),
        (
            BENCH_JSON,
            &["--out", bad, "--cores", "4", "--insns", "500"],
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("cannot write"), "{bin} {args:?}: {stderr}");
    }
}

/// A usage error still exits 2, an unwritable output 1, and a finished
/// run 0 when stderr is a pipe whose reader has gone: a failed stderr
/// line is not a panic.
#[test]
fn error_statuses_survive_a_closed_stderr() {
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    let tmp = |name| format!("{}/closed_stderr_{name}.json", env!("CARGO_TARGET_TMPDIR"));
    let (trace, profile, bench) = (tmp("trace"), tmp("profile"), tmp("bench"));
    for (bin, args, code) in [
        (PROFILE, vec!["--bogus"], 2),
        (FIGURES, vec!["nope"], 2),
        (
            PROFILE,
            vec!["--out", bad, "--cores", "4", "--insns", "500"],
            1,
        ),
        (
            TRACE,
            vec!["--out", &trace, "--cores", "4", "--insns", "500"],
            0,
        ),
        (FIGURES, vec!["table1"], 0),
        (
            PROFILE,
            vec!["--out", &profile, "--cores", "4", "--insns", "500"],
            0,
        ),
        (
            BENCH_JSON,
            vec![
                "--out",
                &bench,
                "--cores",
                "4",
                "--insns",
                "500",
                "--repeats",
                "1",
                "--protocols",
                "sb",
            ],
            0,
        ),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(bin)
            .args(&args)
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        assert_eq!(status.code(), Some(code), "{bin} {args:?}");
    }
}

/// `bench_json --compare` passes a baseline of the same simulated work
/// and exits 1 on a doctored one: another `insns_per_thread`, or a cell
/// whose `wall_cycles`, `commits`, `events` or `protocol_steps` differ.
#[test]
fn bench_json_compare_rejects_a_doctored_baseline() {
    let tmp = |name| format!("{}/compare_{name}.json", env!("CARGO_TARGET_TMPDIR"));
    let (fresh, doctored, out_path) = (tmp("fresh"), tmp("doctored"), tmp("out"));
    let bench = |extra: &[&str]| {
        let cell = "--cores 4 --insns 500 --repeats 1 --protocols sb --out";
        run(
            BENCH_JSON,
            &[&cell.split(' ').collect::<Vec<_>>(), extra].concat(),
        )
    };
    assert!(bench(&[&fresh]).status.success());
    let baseline = std::fs::read_to_string(&fresh).expect("bench_json wrote --out");
    // No run can drop by 100%, so only the simulated fields can fail.
    let compare = |path: &str| bench(&[&out_path, "--compare", path, "--max-regress", "100"]);
    let out = compare(&fresh);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("simulated fields equal"), "{stderr}");
    for field in [
        "insns_per_thread",
        "wall_cycles",
        "commits",
        "events",
        "protocol_steps",
    ] {
        // A leading 1 changes the field's first value.
        let key = format!("\"{field}\": ");
        let text = baseline.replacen(&key, &format!("{key}1"), 1);
        assert_ne!(text, baseline, "{field} is in the baseline");
        std::fs::write(&doctored, text).expect("write the doctored baseline");
        let out = compare(&doctored);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{field}: {stderr}");
        assert!(stderr.contains(field), "{field}: {stderr}");
    }
}

/// Every binary prints its seed in hex; that hex parses back to the
/// same run as its decimal value.
#[test]
fn hex_and_decimal_seeds_give_identical_runs() {
    let analyze = |seed| {
        let args = [
            "--cores", "4", "--insns", "500", "--jobs", "1", "--seed", seed,
        ];
        let out = run(ANALYZE, &args);
        assert!(out.status.success(), "analyze {args:?}");
        out.stdout
    };
    let hex = analyze("0x2a");
    assert!(String::from_utf8_lossy(&hex).contains("seed 0x2a"));
    assert_eq!(hex, analyze("42"));
}

/// A seed past 2^63 reads back from the `trace --series-out` and
/// `profile --out` reports as the hex the binaries print, not as the
/// negative number an `i64` cast would make of it.
#[test]
fn reports_keep_seeds_past_i64() {
    let seed = u64::MAX - 255;
    let hex = format!("{seed:#x}");
    let tmp = |name| format!("{}/wide_seed_{name}.json", env!("CARGO_TARGET_TMPDIR"));
    let (trace, series, profile) = (tmp("trace"), tmp("series"), tmp("profile"));
    for (bin, outs, report) in [
        (
            TRACE,
            vec!["--out", &trace, "--series-out", &series],
            &series,
        ),
        (PROFILE, vec!["--out", &profile], &profile),
    ] {
        let mut args = vec!["--cores", "4", "--insns", "500", "--seed", &hex];
        args.extend(outs);
        let out = run(bin, &args);
        assert!(out.status.success(), "{bin} exited {:?}", out.status);
        let text = std::fs::read_to_string(report).expect("the report was written");
        let doc = sb_obs::json::JsonValue::parse(&text).expect("the report parses");
        let got = doc.get("meta").and_then(|m| m.get("seed"));
        assert_eq!(got.and_then(|s| s.as_str()), Some(hex.as_str()), "{bin}");
        assert_eq!(
            got.and_then(|s| s.as_str()).and_then(sb_sim::cli::seed),
            Some(seed)
        );
    }
}

/// `profile` counts the allocations of building the machine and of
/// running it, on standard output and in its `--out` document.
#[test]
fn profile_prints_its_allocation_counts() {
    let path = format!("{}/profile_allocations.json", env!("CARGO_TARGET_TMPDIR"));
    let out = run(PROFILE, &["--cores", "4", "--insns", "500", "--out", &path]);
    assert!(out.status.success(), "profile exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("allocations: setup "))
        .unwrap_or_else(|| panic!("no allocations line in\n{stdout}"));
    let setup: u64 = line
        .split_whitespace()
        .nth(2)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparsable setup count: {line}"));
    assert!(setup > 0, "building a machine allocates: {line}");
    assert!(line.contains(" per event)"), "{line}");
    let doc = std::fs::read_to_string(&path).expect("profile wrote --out");
    for key in ["\"allocations\"", "\"setup_bytes\"", "\"run_per_event\""] {
        assert!(doc.contains(key), "--out lacks {key}");
    }
}

/// `profile` splits the machine's setup time over `Machine::new`'s
/// passes plus `other`, on one `setup:` line that adds up, and writes
/// each pass as a `prof.setup.*` gauge in its `--out` document.
#[test]
fn profile_prints_its_setup_split() {
    let path = format!("{}/profile_setup.json", env!("CARGO_TARGET_TMPDIR"));
    let out = run(PROFILE, &["--cores", "4", "--insns", "500", "--out", &path]);
    assert!(out.status.success(), "profile exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("setup: "))
        .unwrap_or_else(|| panic!("no setup line in\n{stdout}"));
    let (total, parts) = line
        .strip_prefix("setup: ")
        .and_then(|l| l.strip_suffix(" ms"))
        .and_then(|l| l.split_once(" ms = "))
        .unwrap_or_else(|| panic!("malformed setup line: {line}"));
    let ms = |s: &str| -> f64 { s.parse().unwrap_or_else(|_| panic!("{s:?} in {line}")) };
    let parts: Vec<(&str, f64)> = parts
        .split(" + ")
        .map(|p| {
            let (name, v) = p.rsplit_once(' ').expect("a part is `name ms`");
            (name, ms(v))
        })
        .collect();
    let names: Vec<&str> = parts.iter().map(|(n, _)| *n).collect();
    let mut want = sb_sim::SETUP_PASSES.to_vec();
    want.push("other");
    assert_eq!(names, want, "{line}");
    // Each figure is rounded to 0.1 ms.
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    assert!(
        (sum - ms(total)).abs() <= 0.05 * (parts.len() + 1) as f64,
        "{line}"
    );
    let doc = std::fs::read_to_string(&path).expect("profile wrote --out");
    for pass in sb_sim::SETUP_PASSES {
        let key = format!("\"prof.setup.{pass}_secs\"");
        assert!(doc.contains(&key), "--out lacks {key}");
    }
}

/// `profile` prints the directories' page records and spilled sharer
/// sets at the end of the run with their host sizes, on one
/// `directory:` line whose MiB figure is records × bytes + sets ×
/// bytes, and writes the counts as `prof.dir_pages` and
/// `prof.dir_spilled_sets` in its `--out` document.
#[test]
fn profile_prints_its_directory_pages() {
    let path = format!("{}/profile_dir_pages.json", env!("CARGO_TARGET_TMPDIR"));
    let out = run(PROFILE, &["--cores", "4", "--insns", "500", "--out", &path]);
    assert!(out.status.success(), "profile exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("directory: "))
        .unwrap_or_else(|| panic!("no directory line in\n{stdout}"));
    let (pages, page_bytes, sets, set_bytes, mib) = line
        .strip_prefix("directory: ")
        .and_then(|l| l.strip_suffix(" MiB"))
        .and_then(|l| {
            let (pages, l) = l.split_once(" page records × ")?;
            let (page_bytes, l) = l.split_once(" B + ")?;
            let (sets, l) = l.split_once(" sharer sets × ")?;
            let (set_bytes, mib) = l.split_once(" B = ")?;
            Some((
                pages.parse::<u64>().ok()?,
                page_bytes.parse::<u64>().ok()?,
                sets.parse::<u64>().ok()?,
                set_bytes.parse::<u64>().ok()?,
                mib.parse::<f64>().ok()?,
            ))
        })
        .unwrap_or_else(|| panic!("malformed directory line: {line}"));
    assert_eq!(
        page_bytes,
        sb_mem::DirectoryState::PAGE_RECORD_BYTES as u64,
        "{line}"
    );
    assert_eq!(
        set_bytes,
        std::mem::size_of::<sb_mem::CoreSet>() as u64,
        "{line}"
    );
    // The shared pool is warmed a page at a time into every machine.
    assert!(pages > 0, "{line}");
    let want = (pages * page_bytes + sets * set_bytes) as f64 / (1024.0 * 1024.0);
    assert!((mib - want).abs() <= 0.05, "{line}");
    let doc = std::fs::read_to_string(&path).expect("profile wrote --out");
    for key in [
        format!("\"prof.dir_pages\": {pages}"),
        format!("\"prof.dir_spilled_sets\": {sets}"),
    ] {
        assert!(doc.contains(&key), "--out lacks {key}");
    }
}

/// Where procfs is available, `profile` splits the minor page faults of
/// the machine's setup over the same passes, in the same order, on one
/// `setup faults:` line that adds up, and writes each pass as a
/// `prof.setup.*_faults` counter in its `--out` document; without
/// procfs it prints no such line.
#[test]
fn profile_prints_its_setup_faults() {
    let path = format!("{}/profile_faults.json", env!("CARGO_TARGET_TMPDIR"));
    let out = run(PROFILE, &["--cores", "4", "--insns", "500", "--out", &path]);
    assert!(out.status.success(), "profile exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("setup faults: "));
    if !std::path::Path::new("/proc/self/stat").exists() {
        assert_eq!(line, None);
        return;
    }
    let line = line.unwrap_or_else(|| panic!("no setup faults line in\n{stdout}"));
    let (total, parts) = line
        .strip_prefix("setup faults: ")
        .and_then(|l| l.split_once(" = "))
        .unwrap_or_else(|| panic!("malformed setup faults line: {line}"));
    let n = |s: &str| -> u64 { s.parse().unwrap_or_else(|_| panic!("{s:?} in {line}")) };
    let parts: Vec<(&str, u64)> = parts
        .split(" + ")
        .map(|p| {
            let (name, v) = p.rsplit_once(' ').expect("a part is `name count`");
            (name, n(v))
        })
        .collect();
    let names: Vec<&str> = parts.iter().map(|(name, _)| *name).collect();
    let mut want = sb_sim::SETUP_PASSES.to_vec();
    want.push("other");
    assert_eq!(names, want, "{line}");
    assert_eq!(
        parts.iter().map(|(_, v)| v).sum::<u64>(),
        n(total),
        "{line}"
    );
    // Building the caches alone touches fresh pages.
    assert!(n(total) > 0, "{line}");
    let doc = std::fs::read_to_string(&path).expect("profile wrote --out");
    for pass in want {
        let key = format!("\"prof.setup.{pass}_faults\"");
        assert!(doc.contains(&key), "--out lacks {key}");
    }
}
