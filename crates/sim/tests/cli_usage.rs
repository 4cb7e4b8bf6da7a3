//! Bad flag values are usage errors: every binary exits with status 2
//! (after printing usage) instead of panicking with status 101. An
//! output path that cannot be written exits 1 with a message.

use std::process::Command;

/// Runs `bin` with `args` and asserts it exits with the usage status.
fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: expected a usage error, got {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage"),
        "{bin} {args:?} printed no usage"
    );
}

#[test]
fn zero_cores_is_a_usage_error() {
    for bin in [
        env!("CARGO_BIN_EXE_profile"),
        env!("CARGO_BIN_EXE_trace"),
        env!("CARGO_BIN_EXE_analyze"),
        env!("CARGO_BIN_EXE_bench_json"),
    ] {
        assert_usage_exit(bin, &["--cores", "0"]);
    }
}

#[test]
fn bench_json_rejects_malformed_values() {
    let bin = env!("CARGO_BIN_EXE_bench_json");
    for args in [
        &["--cores", "x"][..],
        &["--cores", "8,0"],
        &["--insns", "x"],
        &["--repeats", "x"],
        &["--max-rss-mb", "x"],
        &["--max-regress", "x"],
        &["--fabrics", "bogus"],
        &["--fabrics", "torus,bogus"],
        &["--protocols", "bogus"],
        &["--jobs", "x"],
        &["--out"],
        &["--compare"],
    ] {
        assert_usage_exit(bin, args);
    }
}

#[test]
fn missing_values_are_usage_errors() {
    for bin in [
        env!("CARGO_BIN_EXE_profile"),
        env!("CARGO_BIN_EXE_trace"),
        env!("CARGO_BIN_EXE_analyze"),
    ] {
        for args in [&["--cores"][..], &["--cores", "x"], &["--insns", "x"]] {
            assert_usage_exit(bin, args);
        }
    }
}

#[test]
fn calib_rejects_bad_positionals() {
    let bin = env!("CARGO_BIN_EXE_calib");
    for args in [&["FFT", "bogus"][..], &["FFT", "sb", "x"], &["NOAPP"]] {
        assert_usage_exit(bin, args);
    }
}

#[test]
fn figures_rejects_malformed_values() {
    let bin = env!("CARGO_BIN_EXE_figures");
    // `table1` runs in milliseconds, so only the bad value can fail it.
    for args in [
        &["table1", "--insns", "x"][..],
        &["table1", "--jobs", "0"],
        &["table1", "--timing"],
        &["table1", "fig99"],
        &["scaling", "--fabrics", "bogus"],
        &["scaling", "--fabrics", "torus,bogus"],
    ] {
        assert_usage_exit(bin, args);
    }
}

#[test]
fn figures_reports_unwritable_outputs() {
    let bin = env!("CARGO_BIN_EXE_figures");
    // A path below a regular file can be neither created nor written.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    for args in [
        &["table1", "--csv", bad][..],
        &["--trace-out", bad, "--insns", "500"],
        &["--series-out", bad, "--insns", "500"],
    ] {
        let out = Command::new(bin).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "figures {args:?}: {stderr}");
        assert!(
            stderr.contains("cannot write"),
            "figures {args:?}: {stderr}"
        );
    }
}
