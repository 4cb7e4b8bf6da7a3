//! One timed simulation: `SimConfig` in, host times, peak memory and the
//! simulated digest out.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sb_baselines::Tcc;
use sb_core::ScalableBulk;
use sb_proto::{CommitProtocol, ProtocolKind};
use sb_sim::{Machine, RunResult, SimConfig};

use crate::host::{LatencyProbe, REFERENCE_NS};
use crate::workloads::Digest;

/// Host-side measurements of one simulation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Protocol construction plus `Machine::new`.
    pub setup_s: f64,
    /// `Machine::run`.
    pub run_s: f64,
    /// Perfetto trace with series plus series report, serialised (0 when
    /// the run exports nothing).
    pub export_s: f64,
    /// Setup, run and export together.
    pub total_s: f64,
    /// Committed kilo-instructions per host second of `Machine::run`.
    pub sim_kips: f64,
    /// Peak resident memory of the process during this simulation. It
    /// cannot fall below what the process held when the simulation
    /// started, including heap the allocator kept from earlier ones.
    pub peak_rss_mb: f64,
    /// The machine's own `phase.setup_secs` gauge, to cross-check
    /// `setup_s` against.
    pub setup_gauge_s: f64,
    /// Host memory-latency factor around this simulation (1.0 at the
    /// reference speed, and when not measured); see [`crate::host`].
    pub host_factor: f64,
    /// Simulated outcome.
    pub digest: Digest,
}

/// A finished simulation: its measurements and everything it produced.
pub struct Outcome {
    /// Host-side measurements.
    pub sample: Sample,
    /// The run's result (metrics registry, trace and log when enabled).
    pub result: RunResult,
}

/// Runs `cfg` once, timing setup and run separately; with `export`, also
/// serialises the Perfetto trace (with series) and the series report, as
/// the `trace` tool does. With a `probe`, measures the host's
/// memory-latency factor just before and just after. A panic inside the
/// simulator (a deadlock is one) comes back as `Err`, as does a host
/// that cannot report peak memory.
pub fn simulate(
    cfg: &SimConfig,
    export: bool,
    probe: Option<&LatencyProbe>,
) -> Result<Outcome, String> {
    let before = probe.map(LatencyProbe::ns_per_load);
    reset_peak_rss()?;
    let (setup, run, result) = catch_unwind(AssertUnwindSafe(|| match cfg.protocol {
        ProtocolKind::ScalableBulk => timed(cfg, || ScalableBulk::new(cfg.sb, cfg.cores)),
        ProtocolKind::Tcc => timed(cfg, || Tcc::new(cfg.tcc, cfg.cores)),
        other => panic!("no benchmark workload runs {other}"),
    }))
    .map_err(|e| format!("simulation panicked: {}", panic_text(e.as_ref())))?;
    let t = Instant::now();
    if export {
        let window = sb_sim::configured_series_window(cfg, &result);
        let trace = sb_sim::perfetto_trace_with_series(&result, window).to_string();
        let series = sb_sim::series_report(cfg, &result, window)?.to_string();
        std::hint::black_box((trace, series));
    }
    let export_s = if export {
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let (setup_s, run_s) = (setup.as_secs_f64(), run.as_secs_f64());
    let peak_rss_mb = peak_rss_mb()?;
    let host_factor = match (before, probe) {
        (Some(b), Some(p)) => (b + p.ns_per_load()) / 2.0 / REFERENCE_NS,
        _ => 1.0,
    };
    let sample = Sample {
        setup_s,
        run_s,
        export_s,
        total_s: setup_s + run_s + export_s,
        sim_kips: cfg.total_insns() as f64 / 1e3 / run_s,
        peak_rss_mb,
        setup_gauge_s: result.metrics.gauge("phase.setup_secs").unwrap_or(f64::NAN),
        host_factor,
        digest: Digest::of(&result),
    };
    Ok(Outcome { sample, result })
}

/// Attempted and failed runs of one workload, and the digest every run
/// must reproduce.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Simulations started.
    pub attempted: u64,
    /// Runs or checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Digest pinned in the workload table, when it applies.
    pinned: Option<Digest>,
    /// Digest of the first run; later runs at the same seed must match.
    first: Option<Digest>,
}

impl Tally {
    /// A tally checking runs against `pinned`, if given.
    pub fn new(pinned: Option<Digest>) -> Self {
        Tally {
            pinned,
            ..Tally::default()
        }
    }

    /// Counts one simulation. A panic, a digest other than the pinned
    /// one, or a digest other than the first run's fails it; a failed
    /// run yields `None` so its times are never reported.
    pub fn record(&mut self, what: &str, outcome: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += 1;
        let o = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                return None;
            }
        };
        let d = o.sample.digest;
        let expected = self.pinned.or(self.first);
        self.first.get_or_insert(d);
        match expected {
            Some(e) if e != d => {
                self.fail(format!("{what}: digest {d:?}, expected {e:?}"));
                None
            }
            _ => Some(o),
        }
    }

    /// Counts a failed check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

fn timed<P: CommitProtocol>(
    cfg: &SimConfig,
    proto: impl FnOnce() -> P,
) -> (Duration, Duration, RunResult) {
    let cfg = cfg.clone();
    let t = Instant::now();
    let machine = Machine::new(cfg, proto());
    let setup = t.elapsed();
    let t = Instant::now();
    let result = machine.run();
    (setup, t.elapsed(), result)
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-text panic payload".into())
}

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current resident set, so the next reading covers one simulation
/// rather than everything the process ran before.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark (/proc/self/clear_refs): {e}"))
}

/// `VmHWM` in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}
