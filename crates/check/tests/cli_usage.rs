//! Bad flag values are usage errors: `check` exits with status 2 (after
//! printing usage) instead of panicking with status 101.

use std::process::Command;

#[test]
fn check_rejects_malformed_values() {
    let bin = env!("CARGO_BIN_EXE_check");
    for args in [
        &["--smoke", "x"][..],
        &["--proto", "nope"],
        &["explore", "--proto", "nope"],
        &["explore", "--depth", "x"],
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        assert_eq!(
            out.status.code(),
            Some(2),
            "check {args:?}: expected a usage error, got {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage"),
            "check {args:?} printed no usage"
        );
    }
}
