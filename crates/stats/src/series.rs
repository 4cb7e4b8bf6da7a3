//! Fixed-window time-series over simulated cycles.
//!
//! A [`TimeSeries`] holds named tracks of `u64` values, one value per
//! window of `window` simulated cycles (window `w` covers cycles
//! `[w * window, (w + 1) * window)`). Tracks are sparse on write and
//! zero-padded to a common length on read/export, so recording is O(1)
//! per sample and export is deterministic.
//!
//! The container enforces the property the simulator's reconciliation
//! oracle depends on: everything recorded via [`TimeSeries::add`] or
//! [`TimeSeries::add_span`] is attributed to windows *exactly* — a span
//! is split across the windows it overlaps with no rounding — so the sum
//! over windows of any track equals the sum of the recorded amounts.
//!
//! # Examples
//!
//! ```
//! use sb_stats::TimeSeries;
//!
//! let mut ts = TimeSeries::new(100);
//! ts.add("commits", 30, 1);
//! ts.add("commits", 250, 1);
//! ts.add_span("hold", 90, 210); // 10 cycles in w0, 100 in w1, 10 in w2
//! assert_eq!(ts.track("commits"), Some(&[1, 0, 1][..]));
//! assert_eq!(ts.track("hold"), Some(&[10, 100, 10][..]));
//! assert_eq!(ts.total("hold"), 120);
//! ```

use std::collections::BTreeMap;

use sb_obs::json::JsonValue;

/// A set of aligned fixed-window counters over simulated cycles: named
/// `u64` tracks, one value per window of `window` cycles, with spans
/// split across the windows they overlap exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeSeries {
    window: u64,
    tracks: BTreeMap<String, Vec<u64>>,
}

impl TimeSeries {
    /// Creates an empty series with the given window width in cycles
    /// (clamped to at least 1).
    pub fn new(window: u64) -> Self {
        TimeSeries {
            window: window.max(1),
            tracks: BTreeMap::new(),
        }
    }

    /// Window width in simulated cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Number of windows: enough to cover the latest cycle recorded on
    /// any track.
    pub fn windows(&self) -> usize {
        self.tracks.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Adds `amount` to `track` in the window containing `cycle`.
    pub fn add(&mut self, track: &str, cycle: u64, amount: u64) {
        let w = (cycle / self.window) as usize;
        let values = self.ensure(track);
        if values.len() <= w {
            values.resize(w + 1, 0);
        }
        values[w] += amount;
    }

    /// Adds the half-open cycle span `[start, end)` to `track`, splitting
    /// it exactly across every window it overlaps (each window receives
    /// the number of the span's cycles that fall inside it). Empty or
    /// inverted spans record nothing.
    pub fn add_span(&mut self, track: &str, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let window = self.window;
        let first = start / window;
        let last = (end - 1) / window;
        let values = self.ensure(track);
        if values.len() <= last as usize {
            values.resize(last as usize + 1, 0);
        }
        for w in first..=last {
            let lo = start.max(w * window);
            let hi = end.min((w + 1) * window);
            values[w as usize] += hi - lo;
        }
    }

    /// The values of one track (unpadded: may be shorter than
    /// [`windows`](TimeSeries::windows)), or `None` if never written.
    pub fn track(&self, name: &str) -> Option<&[u64]> {
        self.tracks.get(name).map(Vec::as_slice)
    }

    /// Track names in sorted order.
    pub fn track_names(&self) -> impl Iterator<Item = &str> {
        self.tracks.keys().map(String::as_str)
    }

    /// Sum of a track over all windows (0 for unknown tracks). Exactly
    /// equals the sum of the recorded amounts — the reconciliation
    /// invariant.
    pub fn total(&self, name: &str) -> u64 {
        self.tracks.get(name).map_or(0, |v| v.iter().copied().sum())
    }

    /// Deterministic JSON form: window width, window count, and every
    /// track zero-padded to the common length, in sorted name order.
    pub fn to_json(&self) -> JsonValue {
        let n = self.windows();
        JsonValue::obj([
            ("window", JsonValue::from(self.window)),
            ("windows", JsonValue::from(n as u64)),
            (
                "tracks",
                JsonValue::Object(
                    self.tracks
                        .iter()
                        .map(|(name, values)| {
                            let padded = values
                                .iter()
                                .copied()
                                .chain(std::iter::repeat(0))
                                .take(n)
                                .map(JsonValue::from);
                            (name.clone(), JsonValue::arr(padded))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn ensure(&mut self, track: &str) -> &mut Vec<u64> {
        if !self.tracks.contains_key(track) {
            self.tracks.insert(track.to_string(), Vec::new());
        }
        self.tracks.get_mut(track).expect("just inserted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_buckets_by_window() {
        let mut ts = TimeSeries::new(10);
        ts.add("c", 0, 1);
        ts.add("c", 9, 2);
        ts.add("c", 10, 4);
        ts.add("c", 35, 8);
        assert_eq!(ts.track("c"), Some(&[3, 4, 0, 8][..]));
        assert_eq!(ts.windows(), 4);
        assert_eq!(ts.total("c"), 15);
    }

    #[test]
    fn span_split_is_exact_at_every_alignment() {
        // Sweep all (start, len) pairs around window boundaries: the sum
        // over windows must always equal the span length exactly.
        for start in 0..25u64 {
            for len in 0..40u64 {
                let mut ts = TimeSeries::new(8);
                ts.add_span("s", start, start + len);
                assert_eq!(ts.total("s"), len, "start={start} len={len}");
                // And no window holds more than the window width.
                if let Some(v) = ts.track("s") {
                    assert!(v.iter().all(|&x| x <= 8));
                }
            }
        }
    }

    #[test]
    fn empty_and_inverted_spans_record_nothing() {
        let mut ts = TimeSeries::new(10);
        ts.add_span("s", 5, 5);
        ts.add_span("s", 9, 3);
        assert_eq!(ts.track("s"), None);
        assert_eq!(ts.total("s"), 0);
        assert_eq!(ts.windows(), 0);
    }

    #[test]
    fn zero_window_is_clamped() {
        let mut ts = TimeSeries::new(0);
        assert_eq!(ts.window(), 1);
        ts.add("c", 3, 1);
        assert_eq!(ts.track("c"), Some(&[0, 0, 0, 1][..]));
    }

    #[test]
    fn json_is_deterministic_and_padded() {
        let mut ts = TimeSeries::new(5);
        ts.add("b", 12, 1); // 3 windows
        ts.add("a", 0, 2); // 1 window, padded to 3
        let text = ts.to_json().to_string();
        assert_eq!(
            text,
            r#"{"window":5,"windows":3,"tracks":{"a":[2,0,0],"b":[0,0,1]}}"#
        );
        // Stable across re-serialization.
        assert_eq!(ts.to_json().to_string(), text);
    }
}
