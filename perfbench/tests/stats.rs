//! Order statistics, the regression bound, and report comparison.

use sb_obs::json::JsonValue;
use sb_perfbench::report::compare;
use sb_perfbench::stats::{exceeds_bound, regression, Summary};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
    let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]).unwrap();
    assert!(
        close(s.q1, 2.5) && close(s.median, 5.0) && close(s.q3, 7.5),
        "{s:?}"
    );
    assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 9));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    let s = Summary::of(&[4.0, 3.0, 2.0, 1.0]).unwrap();
    assert!(
        close(s.q1, 1.25) && close(s.median, 2.5) && close(s.q3, 3.75),
        "{s:?}"
    );
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    let s = Summary::of(&[20.0, 10.0]).unwrap();
    assert!(
        close(s.q1, 7.5) && close(s.median, 15.0) && close(s.q3, 22.5),
        "{s:?}"
    );
}

#[test]
fn degenerate_sample_sets() {
    assert_eq!(Summary::of(&[]), None);
    let s = Summary::of(&[3.5]).unwrap();
    assert_eq!((s.median, s.q1, s.q3, s.n), (3.5, 3.5, 3.5, 1));
}

#[test]
fn regression_is_oriented_by_direction() {
    // A lower-is-better time that rises 10% is a +10% regression ...
    assert!(close(regression(2.0, 2.2, false).unwrap(), 0.1));
    // ... and a higher-is-better rate that rises 10% is a -10% one.
    assert!(close(regression(2.0, 2.2, true).unwrap(), -0.1));
    assert_eq!(regression(0.0, 1.0, false), None);
}

#[test]
fn bound_admits_noise_and_improvement_but_not_regression() {
    assert!(!exceeds_bound(1.0, 1.09, false, 0.10));
    assert!(exceeds_bound(1.0, 1.11, false, 0.10));
    assert!(
        !exceeds_bound(1.0, 0.5, false, 0.10),
        "an improvement never fails"
    );
    assert!(exceeds_bound(100.0, 80.0, true, 0.10));
    assert!(!exceeds_bound(100.0, 140.0, true, 0.10));
    assert!(
        exceeds_bound(0.0, 1.0, false, 0.10),
        "no baseline, no verdict"
    );
}

fn report(failed: i64, total_s: f64, sim_kips: f64) -> JsonValue {
    let median = |v: f64| JsonValue::obj([("median", JsonValue::from(v))]);
    JsonValue::obj([(
        "workloads",
        JsonValue::arr([JsonValue::obj([
            ("name", JsonValue::from("w")),
            ("runs_failed", JsonValue::from(failed)),
            (
                "end_to_end",
                JsonValue::obj([("total_s", median(total_s)), ("sim_kips", median(sim_kips))]),
            ),
        ])]),
    )])
}

fn spec() -> JsonValue {
    let metric = |name: &str, better: &str, bound: f64| {
        JsonValue::obj([
            ("name", JsonValue::from(name)),
            ("better", JsonValue::from(better)),
            ("bound", JsonValue::from(bound)),
        ])
    };
    JsonValue::obj([(
        "end_to_end",
        JsonValue::arr([
            metric("total_s", "lower", 0.1),
            metric("sim_kips", "higher", 0.1),
        ]),
    )])
}

#[test]
fn compare_flags_each_metric_against_its_bound() {
    let (rows, failed) = compare(&report(0, 1.0, 100.0), &report(0, 1.05, 85.0), &spec()).unwrap();
    assert_eq!(failed, 0);
    assert_eq!(rows.len(), 2);
    assert!(!rows[0].regressed(), "total_s +5% is within 10%");
    assert!(rows[1].regressed(), "sim_kips -15% is not");
    let (_, failed) = compare(&report(0, 1.0, 100.0), &report(2, 1.0, 100.0), &spec()).unwrap();
    assert_eq!(failed, 2);
}

#[test]
fn compare_rejects_a_report_missing_a_workload() {
    let empty = JsonValue::obj([("workloads", JsonValue::arr([]))]);
    assert!(compare(&report(0, 1.0, 1.0), &empty, &spec()).is_err());
}
