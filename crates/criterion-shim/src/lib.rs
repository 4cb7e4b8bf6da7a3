//! A small, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so the workspace renames
//! this crate to `criterion` via
//! `criterion = { package = "sb-criterion", path = ... }` and the benches
//! keep their upstream-compatible spelling. It implements the surface the
//! workspace benches use — [`Criterion::benchmark_group`],
//! [`Criterion::bench_function`], [`BenchmarkGroup::bench_with_input`],
//! [`Bencher::iter`], [`BenchmarkId`], [`criterion_group!`] and
//! [`criterion_main!`] — with a simple wall-clock measurement loop:
//! batch size is calibrated so one batch takes ≥ ~5 ms, then up to
//! `sample_size` batches are timed (bounded by `measurement_time`), and
//! the mean/min per-iteration time is printed.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One measured benchmark, as recorded by [`Bencher::iter`].
#[derive(Clone, Copy, Debug)]
struct Measurement {
    mean: Duration,
    min: Duration,
    batch: u64,
    samples: usize,
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_secs_f64() * 1e9;
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Times one routine. Handed to the closures given to
/// [`Criterion::bench_function`] / [`BenchmarkGroup::bench_with_input`].
pub struct Bencher {
    sample_size: usize,
    measurement_time: Duration,
    result: Option<Measurement>,
}

impl Bencher {
    fn new(sample_size: usize, measurement_time: Duration) -> Self {
        Bencher {
            sample_size,
            measurement_time,
            result: None,
        }
    }

    /// Measures `routine`, batching fast routines so each timed sample is
    /// long enough for the clock to resolve.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: double the batch size until one batch takes >= 5 ms.
        let mut batch: u64 = 1;
        let first = loop {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let dt = t.elapsed();
            if dt >= Duration::from_millis(5) || batch >= 1 << 22 {
                break dt;
            }
            batch = batch.saturating_mul(2);
        };
        let mut per_iter: Vec<Duration> = vec![first / batch as u32];
        let started = Instant::now();
        while per_iter.len() < self.sample_size.max(2) && started.elapsed() < self.measurement_time
        {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            per_iter.push(t.elapsed() / batch as u32);
        }
        let total: Duration = per_iter.iter().sum();
        self.result = Some(Measurement {
            mean: total / per_iter.len() as u32,
            min: *per_iter.iter().min().expect("at least one sample"),
            batch,
            samples: per_iter.len(),
        });
    }
}

/// A `function/parameter` benchmark label.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// Combines a function name and a parameter into one label.
    pub fn new<A: std::fmt::Display, B: std::fmt::Display>(func: A, param: B) -> Self {
        BenchmarkId {
            full: format!("{func}/{param}"),
        }
    }
}

/// A group of related benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of timed samples.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Accepted for API compatibility; warm-up is folded into batch
    /// calibration.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Upper bound on time spent collecting samples for one benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmarks `f` with `input`, labelled by `id` within the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.sample_size, self.measurement_time);
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id.full), b.result);
        self
    }

    /// Benchmarks `f`, labelled by `name` within the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.sample_size, self.measurement_time);
        f(&mut b);
        report(&format!("{}/{}", self.name, name), b.result);
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(&mut self) {}
}

fn report(label: &str, m: Option<Measurement>) {
    match m {
        Some(m) => println!(
            "bench {label:<56} mean {:>10}  min {:>10}  ({} samples x {} iters)",
            fmt_duration(m.mean),
            fmt_duration(m.min),
            m.samples,
            m.batch,
        ),
        None => println!("bench {label:<56} (no measurement recorded)"),
    }
}

/// The benchmark driver. One per process, created by [`criterion_main!`].
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(5),
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(10, Duration::from_secs(5));
        f(&mut b);
        report(name, b.result);
        self
    }
}

/// Bundles benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_format() {
        assert_eq!(BenchmarkId::new("app", 64).full, "app/64");
    }

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher::new(3, Duration::from_millis(50));
        // Several nanoseconds of work: a single add measures as a 0 ns
        // mean once the optimizer has had its way with it.
        b.iter(|| (0..64u64).map(std::hint::black_box).sum::<u64>());
        let m = b.result.expect("measured");
        assert!(m.samples >= 1);
        assert!(m.mean > Duration::ZERO);
    }
}
