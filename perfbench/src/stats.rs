//! Order statistics of a metric's samples and the regression-bound rule.

/// Median, quartiles and range of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    ///
    /// Quartiles use the "exclusive" method of Python's
    /// `statistics.quantiles(data, n=4)`, so they match what a reader
    /// computes from the same samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let (&min, &max) = (s.first()?, s.last()?);
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (min, min)
        } else {
            (exclusive_quantile(&s, 1), exclusive_quantile(&s, 3))
        };
        Some(Summary {
            median,
            q1,
            q3,
            min,
            max,
            n,
        })
    }
}

/// The `i`-th of the three cut points dividing sorted `s` (at least two
/// samples) into quarters, interpolating between order statistics.
fn exclusive_quantile(s: &[f64], i: usize) -> f64 {
    let m = s.len() + 1;
    let j = (i * m / 4).clamp(1, s.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

/// Signed relative change from `before` to `after`, oriented so that a
/// positive value is a regression: a rise for a lower-is-better metric,
/// a fall for a higher-is-better one. `None` when `before` is zero.
pub fn regression(before: f64, after: f64, higher_is_better: bool) -> Option<f64> {
    if before == 0.0 {
        return None;
    }
    let change = (after - before) / before.abs();
    Some(if higher_is_better { -change } else { change })
}

/// Whether a change of `before` → `after` worsens the metric by more
/// than `bound` (a share of `before`). An unmeasurable change (zero
/// baseline) counts as out of bound.
pub fn exceeds_bound(before: f64, after: f64, higher_is_better: bool, bound: f64) -> bool {
    regression(before, after, higher_is_better).is_none_or(|r| r > bound)
}
