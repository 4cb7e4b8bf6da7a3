//! Every workload at a small size, one round: every metric the benchmark
//! definition names is emitted for every workload, and nothing fails.

use sb_obs::json::JsonValue;
use sb_perfbench::bench::{self, Options};

fn definition() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn names(def: &JsonValue, list: &str) -> Vec<String> {
    def.get(list)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn every_defined_metric_is_emitted_for_every_workload() {
    let def = definition();
    let report = bench::run(&Options {
        insns: Some(2_000),
        rounds: 1,
        ..Options::default()
    });
    let line = report.result_line();
    let metrics = line.get("metrics").expect("metrics");
    assert_eq!(report.workloads.len(), 5);
    for w in &report.workloads {
        let name = w.workload.name;
        assert_eq!(w.tally.failed, 0, "{name}: {:?}", w.tally.failures);
        assert!(
            w.tally.attempted >= 5,
            "{name}: warm-up, round and a traced pass"
        );
        for metric in names(&def, "end_to_end")
            .iter()
            .chain(&names(&def, "per_layer"))
        {
            let m = metrics
                .get(&format!("{name}/{metric}"))
                .unwrap_or_else(|| panic!("{name} does not emit {metric}"));
            let v = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("numeric value");
            assert!(v.is_finite(), "{name}/{metric} = {v}");
        }
    }
    assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(line.get("failed").and_then(JsonValue::as_i64), Some(0));
}

#[test]
fn the_traced_split_reconciles() {
    let report = bench::run(&Options {
        workloads: vec![sb_perfbench::workloads::by_name("sb-radix-64").unwrap()],
        insns: Some(2_000),
        rounds: 1,
        ..Options::default()
    });
    let w = &report.workloads[0];
    let get = |n: &str| w.layers.iter().find(|l| l.0 == n).unwrap().2;
    let run = get("sim.plane_a_s") + get("sim.hub_s") + get("sim.loop_s");
    assert!((run - get("trace.run_s")).abs() < 1e-9);
    let setup: f64 = [
        "setup.workloads_s",
        "setup.mem_caches_s",
        "setup.mem_dirs_s",
        "setup.net_s",
        "setup.mem_pages_s",
        "setup.mem_prefill_s",
        "setup.unattributed_s",
    ]
    .iter()
    .map(|n| get(n))
    .sum();
    assert!((setup - get("setup.total_s")).abs() < 1e-9);
    // Every replay runs once per chunk the simulated run committed.
    let commits = w.samples[0].digest.commits as f64;
    assert!(commits > 0.0);
    for calls in w.layers.iter().filter(|l| l.0.ends_with(".calls")) {
        assert_eq!(calls.2, commits, "{}", calls.0);
    }
}
