//! The repository benchmark: end-to-end host cost of five simulator
//! workloads, and a traced per-layer split of where that cost goes.
//!
//! Every later performance claim is measured with this crate. It links
//! the simulator crates as a user would and times calls into their
//! public functions; it changes none of them. See `README.md` beside
//! this crate for the workloads, metrics, predictions and measured noise.
//!
//! * [`workloads`] — the workload table and pinned simulated digests.
//! * [`run`] — one timed simulation and the failure tally.
//! * [`bench`] — interleaved rounds and traced passes.
//! * [`host`] — the host's memory-latency factor.
//! * [`layers`] — the traced pass: setup split and layer replays.
//! * [`spans`] — in-memory spans, self times, Perfetto export.
//! * [`stats`] — medians, quartiles and the regression bound.
//! * [`report`] — JSON report, result line, table and comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod host;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
