//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     [--workload NAME | --workloads LIST] [--seed N] [--rounds N] [--seconds S] \
//!     [--trace 0|1] [--out PATH] [--trace-out PATH]
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! Without `--trace` it runs the untraced rounds and then the traced
//! passes; `--trace 0` runs only the rounds (end-to-end metrics),
//! `--trace 1` only the passes (per-layer metrics). `--seconds S` keeps
//! measuring until S seconds have passed instead of a fixed `--rounds`
//! count. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit status is 1
//! when any run or check failed.
//!
//! `compare` prints, for every workload and end-to-end metric of two
//! `--out` reports, both medians, the change and the metric's bound from
//! `BENCHMARK.json`, and exits 1 when a change exceeds its bound or any
//! run failed.

use std::process::exit;

use sb_obs::json::JsonValue;
use sb_perfbench::bench::{self, Options};
use sb_perfbench::report::compare;
use sb_perfbench::workloads::{by_name, WORKLOADS};

fn usage(why: &str) -> ! {
    eprintln!("benchmark: {why}");
    eprintln!(
        "usage: benchmark [--workload NAME | --workloads LIST] [--seed N] [--rounds N] \
         [--seconds S] [--trace 0|1] [--out PATH] [--trace-out PATH]\n       \
         benchmark compare A.json B.json [--spec BENCHMARK.json]"
    );
    eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(", "));
    exit(2);
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]);
    }
    let mut opts = Options::default();
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" | "--workloads" => {
                let list = value();
                opts.workloads = list
                    .split(',')
                    .map(|n| {
                        by_name(n.trim())
                            .unwrap_or_else(|| usage(&format!("unknown workload {n:?}")))
                    })
                    .collect();
            }
            "--seed" => {
                let v = value();
                opts.seed = parse_seed(v).unwrap_or_else(|| usage(&format!("bad seed {v:?}")));
            }
            "--rounds" => {
                let v = value();
                opts.rounds = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage(&format!("bad round count {v:?}")));
            }
            "--seconds" => {
                let v = value();
                let s = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage(&format!("bad duration {v:?}")));
                opts.seconds = Some(s);
            }
            "--trace" => match value() {
                "0" => (opts.end_to_end, opts.layers) = (true, false),
                "1" => (opts.end_to_end, opts.layers) = (false, true),
                v => usage(&format!("--trace takes 0 or 1, not {v:?}")),
            },
            "--out" => out = Some(value().to_string()),
            "--trace-out" => trace_out = Some(value().to_string()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let report = bench::run(&opts);
    print!("{}", report.table());
    if let Some(path) = out {
        write_or_exit(&path, &report.to_json().to_string_pretty());
    }
    if let Some(path) = trace_out {
        let names: Vec<&str> = report.workloads.iter().map(|w| w.workload.name).collect();
        write_or_exit(&path, &report.tracer.to_perfetto(&names).to_string());
    }
    eprintln!("[benchmark] finished in {:.1} s", report.wall_s);
    let line = report.result_line();
    println!("{line}");
    if line.get("correct") != Some(&JsonValue::Bool(true)) {
        exit(1);
    }
}

fn write_or_exit(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("benchmark: cannot write {path}: {e}");
        exit(1);
    }
    eprintln!("[benchmark] wrote {path}");
}

fn read_json(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchmark: cannot read {path}: {e}");
        exit(1)
    });
    JsonValue::parse(&text).unwrap_or_else(|e| {
        eprintln!("benchmark: {path} is not valid JSON: {e}");
        exit(1)
    })
}

fn run_compare(args: &[String]) -> ! {
    let mut files = Vec::new();
    let mut spec = String::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => {
                spec = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage("--spec needs a path"))
            }
            f if !f.starts_with("--") => files.push(f.to_string()),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let [a, b] = files.as_slice() else {
        usage("compare takes two report files");
    };
    let (rows, failed) =
        compare(&read_json(a), &read_json(b), &read_json(&spec)).unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            exit(1)
        });
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    let mut regressed = 0;
    for r in &rows {
        let verdict = if r.regressed() {
            regressed += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        let worse = r
            .worse_by()
            .map_or("n/a".into(), |w| format!("{:+.1}%", w * 100.0));
        println!(
            "{:<14} {:<12} {:>12.6} {:>12.6} {:>8} {:>5.0}% {verdict}",
            r.workload,
            r.metric,
            r.before,
            r.after,
            worse,
            r.bound * 100.0
        );
    }
    println!("{regressed} regression(s) beyond bound, {failed} failed run(s)");
    exit(if regressed == 0 && failed == 0 { 0 } else { 1 });
}
