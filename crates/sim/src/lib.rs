//! Full-system ScalableBulk simulator and experiment harness.
//!
//! This crate wires every substrate together into the machine of Figure 1
//! / Table 2: 32 or 64 tiles on a 2D torus (7-cycle links), each with a
//! 1-IPC core, private 32 KB L1 + 512 KB L2, and a directory module;
//! first-touch page mapping; 2 Kbit address signatures; two active chunks
//! of ~2000 instructions per core; 300-cycle memory. Any of the four
//! commit protocols (Table 3) plugs in through
//! [`sb_proto::CommitProtocol`].
//!
//! * [`SimConfig`] — the simulated system configuration (Table 2 defaults
//!   via [`SimConfig::paper_default`]).
//! * [`Machine`] — the discrete-event full-system model: cores execute
//!   synthetic per-application chunk streams (`sb-workloads`), caches and
//!   the torus provide timing, directories run the protocol, bulk
//!   invalidations squash conflicting chunks, and every figure's metric
//!   is collected along the way.
//! * [`RunResult`] — everything one run produces (cycle breakdown,
//!   dirs/commit, commit-latency distribution, serialization gauges,
//!   traffic counters).
//! * [`run_simulation`] / [`run_app`] — protocol-dispatching entry points.
//! * [`experiments`] — one function per paper figure/table, returning
//!   printable tables; the `figures` binary exposes them on the command
//!   line.
//! * [`cli`] — the argument cursor and value parsers every binary shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod config;
pub mod critical_path;
pub mod experiments;
mod export;
mod machine;
mod obs;
pub mod parallel;
mod result;
pub mod rundiff;
mod runner;
pub mod sched;
pub mod series;
mod trace;

pub use config::{InjectedBug, ObsConfig, SimConfig};
pub use critical_path::{
    breakdown_from_obs, commit_paths, Attribution, CommitPath, Segment, SegmentKind,
};
pub use export::{perfetto_trace, perfetto_trace_with_series, verify_observability};
pub use machine::{Machine, SETUP_PASSES};
pub use obs::{FlowEvent, FlowKind, ObsEvent, ObsKind, ObsLog};
pub use result::RunResult;
pub use rundiff::{diff_report_texts, diff_reports, render_diff, RunDiff, TrackDiff};
pub use runner::{run_app, run_simulation, run_simulation_scheduled, run_simulation_split};
pub use sched::{ChoiceSite, FifoScheduler, Scheduler};
pub use series::{
    configured_series_window, default_series_window, series_report, time_series_from_obs,
};
pub use trace::{ChunkSnapshot, RunTrace, TraceEvent};
