//! The measurement loop: interleaved closed-loop rounds of every chosen
//! workload with tracing off, then traced passes for the layer split.

use std::time::Instant;

use sb_sim::SimConfig;

use crate::host::LatencyProbe;
use crate::layers::{traced_pass, Pass, PER_LAYER};
use crate::run::{simulate, Sample, Tally};
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// An end-to-end metric: what a user of the simulator waits for or pays.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// The metric's value in one simulation.
    pub of: fn(&Sample) -> f64,
}

/// The end-to-end metrics, reported per workload. Host times are
/// divided by the host's memory-latency factor measured around each
/// simulation (see [`crate::host`]), so that they compare across periods
/// when other tenants load the machine; the raw readings are reported
/// beside them ([`RAW`]).
pub const END_TO_END: [Metric; 4] = [
    Metric {
        name: "total_s",
        unit: "s",
        higher_is_better: false,
        of: |s| s.total_s / s.host_factor,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        of: |s| s.setup_s / s.host_factor,
    },
    Metric {
        name: "sim_kips",
        unit: "kinsn/s",
        higher_is_better: true,
        of: |s| s.sim_kips * s.host_factor,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        of: |s| s.peak_rss_mb - LatencyProbe::mib(),
    },
];

/// Raw readings behind the end-to-end metrics, and the machine's own
/// setup gauge to cross-check `setup_s` against. Reported, not bounded.
pub const RAW: [Metric; 4] = [
    Metric {
        name: "raw_total_s",
        unit: "s",
        higher_is_better: false,
        of: |s| s.total_s,
    },
    Metric {
        name: "raw_setup_s",
        unit: "s",
        higher_is_better: false,
        of: |s| s.setup_s,
    },
    Metric {
        name: "phase_setup_secs",
        unit: "s",
        higher_is_better: false,
        of: |s| s.setup_gauge_s,
    },
    Metric {
        name: "host_factor",
        unit: "ratio",
        higher_is_better: false,
        of: |s| s.host_factor,
    },
];

/// What to run and for how long.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workloads, in the order of the first round.
    pub workloads: Vec<&'static Workload>,
    /// Seed of every workload's inputs.
    pub seed: u64,
    /// Committed instructions per thread for every workload; `None`
    /// runs each at its own size.
    pub insns: Option<u64>,
    /// Measured untraced rounds when `seconds` is unset (one traced
    /// pass per workload then).
    pub rounds: usize,
    /// Keep measuring until this many seconds have passed, for the
    /// untraced rounds and again for the traced passes.
    pub seconds: Option<f64>,
    /// Run the untraced rounds (end-to-end metrics).
    pub end_to_end: bool,
    /// Run the traced passes (per-layer metrics).
    pub layers: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workloads: WORKLOADS.iter().collect(),
            seed: DEFAULT_SEED,
            insns: None,
            rounds: 9,
            seconds: None,
            end_to_end: true,
            layers: true,
        }
    }
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct WorkloadReport {
    /// The workload.
    pub workload: &'static Workload,
    /// Committed instructions per thread it ran with.
    pub insns: u64,
    /// Attempted and failed runs.
    pub tally: Tally,
    /// One sample per measured round.
    pub samples: Vec<Sample>,
    /// Per-layer values of the median traced pass, in [`PER_LAYER`]
    /// order, with units; empty without a successful pass.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Successful traced passes.
    pub passes: usize,
}

impl WorkloadReport {
    /// Summary of `m` over the measured rounds.
    pub fn summary(&self, m: &Metric) -> Option<Summary> {
        let v: Vec<f64> = self.samples.iter().map(m.of).collect();
        Summary::of(&v)
    }
}

/// The result of one benchmark invocation.
#[derive(Debug)]
pub struct Report {
    /// Seed every workload ran with.
    pub seed: u64,
    /// Per workload, in the order given.
    pub workloads: Vec<WorkloadReport>,
    /// Spans of the traced passes.
    pub tracer: Tracer,
    /// Which halves ran.
    pub end_to_end: bool,
    /// See [`Options::layers`].
    pub layers: bool,
    /// Host seconds the whole invocation took.
    pub wall_s: f64,
}

/// Runs the benchmark.
///
/// One single-threaded process runs every simulation back to back
/// (a closed loop: each starts when the previous one ends). A round runs
/// each workload once; the order rotates by one each round, and the first
/// round is a discarded warm-up. Traced passes follow, also rotated.
pub fn run(opts: &Options) -> Report {
    let start = Instant::now();
    let probe = LatencyProbe::new();
    let k = opts.workloads.len();
    let cfgs: Vec<SimConfig> = opts
        .workloads
        .iter()
        .map(|w| w.config(opts.seed, opts.insns.unwrap_or(w.insns_per_thread)))
        .collect();
    let mut reports: Vec<WorkloadReport> = opts
        .workloads
        .iter()
        .zip(&cfgs)
        .map(|(w, cfg)| WorkloadReport {
            workload: w,
            insns: cfg.insns_per_thread,
            tally: Tally::new(w.expected(opts.seed, cfg.insns_per_thread)),
            samples: Vec::new(),
            layers: Vec::new(),
            passes: 0,
        })
        .collect();

    // The warm-up round runs even when only traced passes follow: it
    // faults in the allocator's pages before anything is measured.
    let mut round = 0;
    let untraced_rounds = opts.end_to_end.then_some(opts.rounds);
    rounds(opts.seconds, untraced_rounds, true, |measured| {
        for j in 0..k {
            let i = (round + j) % k;
            let r = &mut reports[i];
            let outcome = simulate(&cfgs[i], r.workload.observed, Some(&probe));
            if let Some(o) = r.tally.record("run", outcome) {
                eprintln!(
                    "[benchmark] {:>13} round {round:>2}{}: total {:.3} s, setup {:.3} s, {:.0} kinsn/s, {:.0} MiB",
                    r.workload.name,
                    if measured { "" } else { " (warm-up)" },
                    o.sample.total_s,
                    o.sample.setup_s,
                    o.sample.sim_kips,
                    o.sample.peak_rss_mb,
                );
                if measured {
                    r.samples.push(o.sample);
                }
            }
        }
        round += 1;
    });

    let mut tracer = Tracer::default();
    if opts.layers {
        let mut passes: Vec<Vec<Pass>> = vec![Vec::new(); k];
        let mut round = 0;
        rounds(opts.seconds, Some(1), false, |_| {
            for j in 0..k {
                let i = (round + j) % k;
                tracer.set_track(i);
                let r = &mut reports[i];
                if let Some(p) = traced_pass(r.workload, &cfgs[i], &mut r.tally, &mut tracer) {
                    eprintln!(
                        "[benchmark] {:>13} traced pass {round}: run {:.3} s traced vs {:.3} s untraced",
                        r.workload.name, p.traced_run_s, p.untraced_run_s
                    );
                    passes[i].push(p);
                }
            }
            round += 1;
        });
        for (r, p) in reports.iter_mut().zip(passes) {
            r.passes = p.len();
            r.layers = median_pass_layers(&r.samples, p);
        }
    }
    Report {
        seed: opts.seed,
        workloads: reports,
        tracer,
        end_to_end: opts.end_to_end,
        layers: opts.layers,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Calls `round(false)` once when `warm_up`, then `round(true)` for
/// `count` measured rounds, or for as many as start within `seconds`
/// (at least one). No measured rounds when `count` is `None`.
fn rounds(seconds: Option<f64>, count: Option<usize>, warm_up: bool, mut round: impl FnMut(bool)) {
    if warm_up {
        round(false);
    }
    let Some(count) = count else {
        return;
    };
    let t = Instant::now();
    let mut measured = 0;
    loop {
        round(true);
        measured += 1;
        let done = match seconds {
            Some(s) => t.elapsed().as_secs_f64() >= s,
            None => measured >= count,
        };
        if done {
            break;
        }
    }
}

/// The layer values of the pass whose traced run time is the median (the
/// lower middle for an even count), so that a pass's parts still add up
/// to its own totals. `trace.overhead_pct` compares that pass's traced
/// run with the median of every untraced run of the workload.
fn median_pass_layers(
    samples: &[Sample],
    mut passes: Vec<Pass>,
) -> Vec<(&'static str, &'static str, f64)> {
    if passes.is_empty() {
        return Vec::new();
    }
    let untraced: Vec<f64> = samples
        .iter()
        .map(|s| s.run_s)
        .chain(passes.iter().map(|p| p.untraced_run_s))
        .collect();
    let reference = Summary::of(&untraced)
        .expect("every pass has an untraced run")
        .median;
    passes.sort_by(|a, b| a.traced_run_s.total_cmp(&b.traced_run_s));
    let p = &passes[(passes.len() - 1) / 2];
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_pct" {
                (p.traced_run_s / reference - 1.0) * 100.0
            } else {
                p.values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("a pass reports every layer metric; {name} missing"))
                    .1
            };
            (name, unit, value)
        })
        .collect()
}
