//! Reports: the full JSON document, the one-line result, a text table,
//! and the comparison of two saved reports.

use sb_obs::json::JsonValue;

use crate::bench::{Metric, Report, WorkloadReport, END_TO_END, RAW};
use crate::stats::{exceeds_bound, regression, Summary};

fn summary_json(s: &Summary, unit: &str, better: &str, samples: Vec<f64>) -> JsonValue {
    JsonValue::obj([
        ("unit", JsonValue::from(unit)),
        ("better", JsonValue::from(better)),
        ("median", JsonValue::from(s.median)),
        ("q1", JsonValue::from(s.q1)),
        ("q3", JsonValue::from(s.q3)),
        ("min", JsonValue::from(s.min)),
        ("max", JsonValue::from(s.max)),
        ("n", JsonValue::from(s.n as u64)),
        (
            "samples",
            JsonValue::arr(samples.into_iter().map(JsonValue::from)),
        ),
    ])
}

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

impl WorkloadReport {
    fn to_json(&self) -> JsonValue {
        let w = self.workload;
        let summaries = |metrics: &[Metric]| {
            let members = metrics.iter().filter_map(|m| {
                let s = self.summary(m)?;
                let samples = self.samples.iter().map(m.of).collect();
                let better = better(m.higher_is_better);
                Some((m.name, summary_json(&s, m.unit, better, samples)))
            });
            JsonValue::obj(members)
        };
        let layers = self.layers.iter().map(|&(name, unit, value)| {
            let v = JsonValue::obj([
                ("value", JsonValue::from(value)),
                ("unit", JsonValue::from(unit)),
            ]);
            (name, v)
        });
        JsonValue::obj([
            ("name", JsonValue::from(w.name)),
            ("protocol", JsonValue::from(w.protocol.to_string())),
            ("app", JsonValue::from((w.app)().name)),
            ("cores", JsonValue::from(w.cores as u64)),
            ("insns_per_thread", JsonValue::from(self.insns)),
            ("why", JsonValue::from(w.why)),
            ("runs_attempted", JsonValue::from(self.tally.attempted)),
            ("runs_failed", JsonValue::from(self.tally.failed)),
            (
                "failures",
                JsonValue::arr(
                    self.tally
                        .failures
                        .iter()
                        .map(|f| JsonValue::from(f.as_str())),
                ),
            ),
            ("end_to_end", summaries(&END_TO_END)),
            ("raw", summaries(&RAW)),
            ("traced_passes", JsonValue::from(self.passes as u64)),
            ("per_layer", JsonValue::obj(layers)),
        ])
    }

    /// `(name, unit, value)` of every metric this invocation reports for
    /// the workload: end-to-end medians and/or per-layer values.
    fn values(&self, end_to_end: bool, layers: bool) -> Vec<(&'static str, &'static str, f64)> {
        let mut v = Vec::new();
        if end_to_end {
            for m in &END_TO_END {
                if let Some(s) = self.summary(m) {
                    v.push((m.name, m.unit, s.median));
                }
            }
        }
        if layers {
            v.extend(self.layers.iter().copied());
        }
        v
    }
}

impl Report {
    /// Runs attempted, over every workload.
    pub fn attempted(&self) -> u64 {
        self.workloads.iter().map(|w| w.tally.attempted).sum()
    }

    /// Runs and checks failed, over every workload.
    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.tally.failed).sum()
    }

    /// The full report, as `--out` writes it and `compare` reads it.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("benchmark", JsonValue::from("sb-perfbench")),
            ("seed", JsonValue::from(format!("{:#x}", self.seed))),
            ("wall_s", JsonValue::from(self.wall_s)),
            (
                "note",
                JsonValue::from(
                    "medians and quartiles over the measured rounds; fewer than 10 samples lie \
                     beyond any tail percentile, so none is reported. peak_rss_mb includes heap \
                     the allocator kept from earlier simulations of the process: run one \
                     workload per process for per-workload peaks",
                ),
            ),
            (
                "workloads",
                JsonValue::arr(self.workloads.iter().map(WorkloadReport::to_json)),
            ),
        ])
    }

    /// The one-line result: `correct`, `attempted`, `failed` and every
    /// metric as `{value, unit}`. Metric names carry a `workload/` prefix
    /// when more than one workload ran.
    pub fn result_line(&self) -> JsonValue {
        let prefix = self.workloads.len() > 1;
        let mut metrics = Vec::new();
        let mut complete = true;
        for w in &self.workloads {
            let values = w.values(self.end_to_end, self.layers);
            let expected = if self.end_to_end { END_TO_END.len() } else { 0 }
                + if self.layers {
                    crate::layers::PER_LAYER.len()
                } else {
                    0
                };
            complete &= values.len() == expected;
            for (name, unit, value) in values {
                let key = if prefix {
                    format!("{}/{name}", w.workload.name)
                } else {
                    name.to_string()
                };
                let v = JsonValue::obj([
                    ("value", JsonValue::from(value)),
                    ("unit", JsonValue::from(unit)),
                ]);
                metrics.push((key, v));
            }
        }
        JsonValue::obj([
            ("correct", JsonValue::from(complete && self.failed() == 0)),
            ("attempted", JsonValue::from(self.attempted())),
            ("failed", JsonValue::from(self.failed())),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }

    /// A human-readable table of everything measured.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            out += &format!(
                "{} ({} attempted, {} failed, {} measured rounds, {} traced passes)\n",
                w.workload.name,
                w.tally.attempted,
                w.tally.failed,
                w.samples.len(),
                w.passes
            );
            for f in &w.tally.failures {
                out += &format!("  FAILED: {f}\n");
            }
            if self.end_to_end {
                out += &format!(
                    "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3} unit\n",
                    "metric", "median", "q1", "q3", "min", "max", "n"
                );
                for m in END_TO_END.iter().chain(&RAW) {
                    let Some(s) = w.summary(m) else { continue };
                    out += &format!(
                        "  {:<24} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>3} {}\n",
                        m.name, s.median, s.q1, s.q3, s.min, s.max, s.n, m.unit
                    );
                }
            }
            for (name, unit, value) in &w.layers {
                out += &format!("  {name:<28} {value:>16.6} {unit}\n");
            }
        }
        out
    }
}

/// One row of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareRow {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: String,
    /// Median in the first report.
    pub before: f64,
    /// Median in the second report.
    pub after: f64,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// The metric's bound from the benchmark definition.
    pub bound: f64,
}

impl CompareRow {
    /// Relative change, positive when worse (`None` for a zero baseline).
    pub fn worse_by(&self) -> Option<f64> {
        regression(self.before, self.after, self.higher_is_better)
    }

    /// Whether the change worsens the metric by more than its bound.
    pub fn regressed(&self) -> bool {
        exceeds_bound(self.before, self.after, self.higher_is_better, self.bound)
    }
}

/// Compares every end-to-end metric of every workload in report `a`
/// with report `b`, using the metrics, directions and bounds of `spec`
/// (a parsed `BENCHMARK.json`). Also returns the runs failed in either
/// report.
pub fn compare(
    a: &JsonValue,
    b: &JsonValue,
    spec: &JsonValue,
) -> Result<(Vec<CompareRow>, u64), String> {
    let metrics = spec
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("benchmark definition has no end_to_end list")?;
    let workloads = |r: &JsonValue| -> Result<Vec<JsonValue>, String> {
        Ok(r.get("workloads")
            .and_then(JsonValue::as_array)
            .ok_or("report has no workloads list")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let failed: u64 = wa
        .iter()
        .chain(&wb)
        .map(|w| {
            w.get("runs_failed")
                .and_then(JsonValue::as_i64)
                .unwrap_or(1) as u64
        })
        .sum();
    let mut rows = Vec::new();
    for x in &wa {
        let name = x
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("workload without a name")?;
        let y = wb
            .iter()
            .find(|y| y.get("name").and_then(JsonValue::as_str) == Some(name))
            .ok_or(format!("{name} is missing from the second report"))?;
        for m in metrics {
            let metric = m
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("metric without a bound")?;
            let median = |w: &JsonValue| {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric))
                    .and_then(|e| e.get("median"))
                    .and_then(JsonValue::as_f64)
                    .ok_or(format!("{name}: no median for {metric}"))
            };
            rows.push(CompareRow {
                workload: name.to_string(),
                metric: metric.to_string(),
                before: median(x)?,
                after: median(y)?,
                higher_is_better: m.get("better").and_then(JsonValue::as_str) == Some("higher"),
                bound,
            });
        }
    }
    Ok((rows, failed))
}
