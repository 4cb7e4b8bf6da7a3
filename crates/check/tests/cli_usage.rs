//! Bad flag values are usage errors: `check` exits with status 2 (after
//! printing usage) instead of panicking with status 101.

use std::process::{Command, Stdio};

/// Every value-taking flag of `check`: the arguments before the flag,
/// the flag, and values it must reject.
const FLAGS: &[(&[&str], &str, &[&str])] = &[
    (&[], "--smoke", &["x"]),
    (&[], "--cases", &["x"]),
    (&[], "--seed", &["x", "0x"]),
    (&[], "--jobs", &["0", "x"]),
    (&[], "--replay", &["1:2", "1:2:nope"]),
    (
        &[],
        "--replay-schedule",
        &["v2:sb:3:120:2:1:-:-", "v1:sb:0:100:2:1:-:-"],
    ),
    (&["explore"], "--proto", &["nope"]),
    (&["explore"], "--depth", &["x"]),
    (&["explore"], "--max-schedules", &["x"]),
    (&["explore"], "--cores", &["0", "x"]),
    (&["explore"], "--insns", &["0", "x"]),
    (&["explore"], "--wseed", &["x"]),
    (&["explore"], "--inject-bug", &["nope"]),
];

/// Runs `check` with `args` and asserts it exits with the usage status.
fn assert_usage_exit(args: &[&str]) {
    let bin = env!("CARGO_BIN_EXE_check");
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "check {args:?}: expected a usage error, got {:?}\n{stderr}",
        out.status
    );
    assert!(stderr.contains("usage"), "check {args:?} printed no usage");
}

#[test]
fn check_rejects_malformed_values() {
    for &(before, flag, bad_values) in FLAGS {
        let mut args = before.to_vec();
        args.push(flag);
        assert_usage_exit(&args);
        for bad in bad_values {
            args.push(bad);
            assert_usage_exit(&args);
            args.pop();
        }
    }
    // Unknown flags, in the sweep and in `explore`.
    assert_usage_exit(&["--proto", "nope"]);
    assert_usage_exit(&["explore", "--bogus"]);
}

/// A usage error still exits 2, and a replay that finds a violation 1,
/// when stderr is a pipe whose reader has gone: a failed stderr line is
/// not a panic.
#[test]
fn usage_status_survives_a_closed_stderr() {
    for (token, code) in [
        ("v1:sb:0:100:2:1:-:-", 2),
        ("v1:sb:3:120:9:1:skip-read-set-conflicts:1", 1),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_check"))
            .args(["--replay-schedule", token])
            .stdout(Stdio::null())
            .stderr(writer)
            .status()
            .expect("check runs");
        assert_eq!(status.code(), Some(code), "check --replay-schedule {token}");
    }
}
