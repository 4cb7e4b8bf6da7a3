//! A named metrics registry: typed counters, gauges and histograms with
//! deterministic JSON export.
//!
//! The simulator registers everything it measures here by name —
//! message counts and bytes per Table-1 traffic class, grab-queue wait,
//! event-queue depth, wall time per simulation phase — so one dump
//! carries the whole picture. Export goes through [`sb_obs::json`],
//! with names iterated in sorted (BTreeMap) order, so the same run
//! always produces the same bytes.
//!
//! # Examples
//!
//! ```
//! use sb_stats::{Metric, MetricsRegistry};
//!
//! let mut m = MetricsRegistry::new();
//! m.add_counter("traffic.msgs.mem_rd", 3);
//! m.set_gauge("phase.run_secs", 0.25);
//! m.observe("obs.held_inv_depth", 2, 16, 1);
//! assert_eq!(m.counter("traffic.msgs.mem_rd"), Some(3));
//! let json = m.to_json().to_string();
//! assert!(json.contains("traffic.msgs.mem_rd"));
//! ```

use std::collections::BTreeMap;

use sb_engine::stats::Histogram;
use sb_obs::json::JsonValue;

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A bounded histogram of `u64` samples.
    Histogram(Histogram),
}

/// Registry of named metrics with deterministic iteration order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, registering it at zero first if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different type.
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(v) => *v += delta,
            other => panic!("metric {name:?} is not a counter: {other:?}"),
        }
    }

    /// Sets the named gauge (registering it if needed).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different type.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Gauge(0.0))
        {
            Metric::Gauge(v) => *v = value,
            other => panic!("metric {name:?} is not a gauge: {other:?}"),
        }
    }

    /// Records one sample into the named histogram, creating it with
    /// `buckets` buckets of `width` on first use.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different type.
    pub fn observe(&mut self, name: &str, value: u64, buckets: usize, width: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(buckets, width)))
        {
            Metric::Histogram(h) => h.record(value),
            other => panic!("metric {name:?} is not a histogram: {other:?}"),
        }
    }

    /// Registers a pre-built histogram under `name`, replacing any
    /// previous value.
    pub fn insert_histogram(&mut self, name: &str, h: Histogram) {
        self.metrics.insert(name.to_string(), Metric::Histogram(h));
    }

    /// The named counter's value.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named gauge's value.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(|k| k.as_str())
    }

    /// Deterministic JSON dump: one object per metric kind, names in
    /// sorted order, histograms with their full bucket vectors.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(v) => counters.push((name.clone(), JsonValue::from(*v))),
                Metric::Gauge(v) => gauges.push((name.clone(), JsonValue::from(*v))),
                Metric::Histogram(h) => {
                    let counts = JsonValue::arr(
                        (0..h.buckets()).map(|i| JsonValue::from(h.bucket_count(i))),
                    );
                    histograms.push((
                        name.clone(),
                        JsonValue::obj([
                            ("bucket_width", JsonValue::from(h.bucket_width())),
                            ("counts", counts),
                            ("overflow", JsonValue::from(h.overflow())),
                            ("total", JsonValue::from(h.total())),
                            ("mean", JsonValue::from(h.mean())),
                            ("max", JsonValue::from(h.max().unwrap_or(0))),
                        ]),
                    ));
                }
            }
        }
        JsonValue::obj([
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("histograms", JsonValue::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_access_and_lazy_registration() {
        let mut m = MetricsRegistry::new();
        m.add_counter("c", 2);
        m.add_counter("c", 3);
        m.set_gauge("g", 1.5);
        m.observe("h", 7, 4, 10);
        m.observe("h", 45, 4, 10);
        assert_eq!(m.counter("c"), Some(5));
        assert_eq!(m.gauge("g"), Some(1.5));
        let h = m.histogram("h").unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.overflow(), 1);
        // Cross-type access answers None rather than lying.
        assert_eq!(m.counter("g"), None);
        assert_eq!(m.gauge("h"), None);
        assert_eq!(m.histogram("c"), None);
        assert_eq!(m.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_collision_panics() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("x", 1.0);
        m.add_counter("x", 1);
    }

    #[test]
    fn json_dump_is_deterministic_and_sorted() {
        let mut m = MetricsRegistry::new();
        // Insert out of order; the dump sorts by name.
        m.add_counter("z.last", 1);
        m.add_counter("a.first", 2);
        m.set_gauge("m.middle", 3.5);
        m.observe("h.depth", 2, 2, 1);
        let first = m.to_json().to_string();
        let second = m.to_json().to_string();
        assert_eq!(first, second);
        assert!(first.find("a.first").unwrap() < first.find("z.last").unwrap());
        // Round-trips through the parser.
        let parsed = sb_obs::json::JsonValue::parse(&first).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("a.first")
                .unwrap()
                .as_i64(),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("h.depth")
                .unwrap()
                .get("total")
                .unwrap()
                .as_i64(),
            Some(1)
        );
    }

    #[test]
    fn empty_registry_dumps_empty_sections() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(
            m.to_json().to_string(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }
}
