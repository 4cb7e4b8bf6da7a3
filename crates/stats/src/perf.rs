//! Host-side simulator-throughput metrics.
//!
//! Everything else in this crate measures the *simulated* machine; this
//! module measures the *simulator* — how many discrete events and protocol
//! steps the host dispatched, how long that took in wall time, and the
//! derived throughput rates. The numbers feed `bench_json` and
//! `BENCH_throughput.json`.
//!
//! A [`PerfReport`] never influences simulated results: it is built from
//! monotonic host-side counters after the run completes.

use std::time::Duration;

/// Host-side cost accounting for one simulation run.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use sb_stats::PerfReport;
///
/// let p = PerfReport {
///     events_dispatched: 2_000_000,
///     protocol_steps: 500_000,
///     sim_cycles: 4_000_000,
///     wall: Duration::from_millis(500),
/// };
/// assert_eq!(p.events_per_sec().round() as u64, 4_000_000);
/// assert_eq!(p.sim_cycles_per_sec().round() as u64, 8_000_000);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerfReport {
    /// Discrete events popped off the event queue.
    pub events_dispatched: u64,
    /// Protocol up-calls (`deliver`/`start_commit`/`bulk_inv_acked`)
    /// whose emitted commands were executed.
    pub protocol_steps: u64,
    /// Final simulated clock, in cycles.
    pub sim_cycles: u64,
    /// Host wall time for the run.
    pub wall: Duration,
}

impl PerfReport {
    /// Events dispatched per wall-clock second (0 if the run was too fast
    /// for the clock to observe).
    pub fn events_per_sec(&self) -> f64 {
        Self::rate(self.events_dispatched, self.wall)
    }

    /// Simulated cycles advanced per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        Self::rate(self.sim_cycles, self.wall)
    }

    /// Protocol steps per wall-clock second.
    pub fn protocol_steps_per_sec(&self) -> f64 {
        Self::rate(self.protocol_steps, self.wall)
    }

    fn rate(count: u64, wall: Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            count as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        format!(
            "{} events, {} proto steps, {} sim cycles in {:.3}s ({:.0} events/s, {:.0} sim cycles/s)",
            self.events_dispatched,
            self.protocol_steps,
            self.sim_cycles,
            self.wall.as_secs_f64(),
            self.events_per_sec(),
            self.sim_cycles_per_sec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_wall_time_gives_zero_rates() {
        let p = PerfReport {
            events_dispatched: 100,
            ..Default::default()
        };
        assert_eq!(p.events_per_sec(), 0.0);
        assert_eq!(p.sim_cycles_per_sec(), 0.0);
        assert_eq!(p.protocol_steps_per_sec(), 0.0);
    }

    #[test]
    fn render_mentions_all_rates() {
        let p = PerfReport {
            events_dispatched: 1000,
            protocol_steps: 200,
            sim_cycles: 5000,
            wall: Duration::from_secs(1),
        };
        let s = p.render();
        assert!(s.contains("1000 events"));
        assert!(s.contains("events/s"));
        assert!(s.contains("sim cycles/s"));
    }
}
