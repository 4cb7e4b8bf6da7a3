//! The command-line front door of every binary in the workspace.
//!
//! [`Args`] walks one process's arguments. A flag's value goes through
//! one of the parsers below, and a missing or unparsable value prints
//! the binary's usage and exits 2, so no input reaches a panic. The
//! parsers are shared: `--cores`, `--seed` or `--jobs` accept the same
//! values in every binary. Every stderr line goes through [`note`],
//! which ignores a failed write (a closed pipe, say), so a binary keeps
//! its exit status however its stderr is wired.

use std::io::Write;
use std::iter::{Peekable, Skip};
use std::path::Path;
use std::str::FromStr;

use sb_net::Topology;

use crate::parallel::AUTO_JOBS;

/// A cursor over the process arguments after the program name.
pub struct Args {
    usage: &'static str,
    rest: Peekable<Skip<std::env::Args>>,
}

impl Args {
    /// The process arguments; `usage` is what follows `usage: ` in every
    /// error.
    pub fn from_env(usage: &'static str) -> Args {
        Args {
            usage,
            rest: std::env::args().skip(1).peekable(),
        }
    }

    /// The next argument, flag or positional.
    pub fn next_arg(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// Consumes the next argument if it is `word` (a subcommand or a
    /// mode that must come first).
    pub fn take(&mut self, word: &str) -> bool {
        self.rest.next_if(|a| a == word).is_some()
    }

    /// The value after the current flag, parsed by `parse`. A missing or
    /// unparsable value is a usage error.
    pub fn value<T>(&mut self, parse: impl FnOnce(&str) -> Option<T>) -> T {
        match self.rest.next().as_deref().and_then(parse) {
            Some(v) => v,
            None => self.usage(),
        }
    }

    /// Prints the usage and exits 2.
    pub fn usage(&self) -> ! {
        note(format_args!("usage: {}", self.usage));
        std::process::exit(2)
    }
}

/// Writes `line` and a newline to stderr, ignoring a failed write:
/// `eprintln!` panics when stderr is a closed pipe, which would turn a
/// finished run into exit 101.
pub fn note(line: impl std::fmt::Display) {
    let _ = writeln!(std::io::stderr(), "{line}");
}

/// Any [`FromStr`] value: counts, limits, paths and protocol names.
pub fn parse<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// A core count: at least one.
pub fn cores(s: &str) -> Option<u16> {
    s.parse().ok().filter(|&c| c >= 1)
}

/// A seed in decimal or `0x` hex, so a seed printed as `{:#x}` parses
/// back.
pub fn seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// A worker count: a positive integer, or `auto` for [`AUTO_JOBS`].
pub fn jobs(s: &str) -> Option<usize> {
    if s == "auto" {
        return Some(AUTO_JOBS);
    }
    s.parse().ok().filter(|&n| n >= 1)
}

/// A comma-separated list; `None` if any element fails `item`.
pub fn list<T>(s: &str, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    s.split(',').map(|x| item(x.trim())).collect()
}

/// Whether every fabric is a [`Topology::by_name`] name whose fabric
/// holds every core count.
pub fn fabrics_fit(fabrics: &[String], cores: &[u16]) -> bool {
    fabrics.iter().all(|f| {
        cores
            .iter()
            .all(|&c| Topology::by_name(f, c).is_some_and(|t| t.tiles() >= c))
    })
}

/// Writes `contents` to `path`, or says why it cannot (tagged `[tag]`)
/// and exits 1.
pub fn write_or_exit(tag: &str, path: impl AsRef<Path>, contents: &str) {
    let path = path.as_ref();
    if let Err(e) = std::fs::write(path, contents) {
        note(format_args!("[{tag}] cannot write {}: {e}", path.display()));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_proto::ProtocolKind;

    #[test]
    fn cores_must_be_positive() {
        assert_eq!(cores("1"), Some(1));
        assert_eq!(cores("1024"), Some(1024));
        assert_eq!(cores("0"), None);
        assert_eq!(cores("-4"), None);
        assert_eq!(cores("65536"), None);
        assert_eq!(cores("x"), None);
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(seed("42"), Some(42));
        assert_eq!(seed("0x2a"), Some(42));
        assert_eq!(seed("0x5ca1ab1e"), Some(0x5ca1_ab1e));
        // Every seed printed with `{:#x}` parses back.
        for s in [0, 7, 0xbe9c, 0xf0f0_2026, u64::MAX] {
            assert_eq!(seed(&format!("{s:#x}")), Some(s));
            assert_eq!(seed(&s.to_string()), Some(s));
        }
        for bad in ["", "0x", "0xg", "x2a", "-1", "18446744073709551616"] {
            assert_eq!(seed(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn jobs_are_positive_or_auto() {
        assert_eq!(jobs("auto"), Some(AUTO_JOBS));
        assert_eq!(jobs("1"), Some(1));
        assert_eq!(jobs("12"), Some(12));
        assert_eq!(jobs("0"), None);
        assert_eq!(jobs("-3"), None);
        assert_eq!(jobs("fast"), None);
    }

    #[test]
    fn a_list_with_one_bad_element_is_rejected() {
        assert_eq!(list("8, 16,32", cores), Some(vec![8, 16, 32]));
        assert_eq!(list("8,0,32", cores), None);
        assert_eq!(list("8,,32", cores), None);
        assert_eq!(
            list("sb,tcc", parse),
            Some(vec![ProtocolKind::ScalableBulk, ProtocolKind::Tcc])
        );
        assert_eq!(list("sb,mesi", parse::<ProtocolKind>), None);
    }

    #[test]
    fn every_fabric_must_hold_every_core_count() {
        let fabrics = |names: &[&str]| names.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert!(fabrics_fit(&fabrics(&["torus", "cmesh"]), &[8, 64, 256]));
        assert!(!fabrics_fit(&fabrics(&["torus", "bogus"]), &[64]));
        assert!(fabrics_fit(&[], &[64]));
    }
}
