//! Observability primitives for the ScalableBulk simulator.
//!
//! The build environment is fully offline (no `serde`/`serde_json`), so
//! this crate provides the two things the observability layer needs from
//! scratch, with deterministic output suitable for golden-snapshot tests:
//!
//! * [`json`] — an ordered JSON value type with a canonical writer and a
//!   minimal parser, so exported traces can be round-tripped and diffed
//!   byte-for-byte.
//! * [`perfetto`] — a builder for the chrome-trace / Perfetto
//!   "traceEvents" JSON format (complete spans, instants, counters and
//!   track-name metadata), plus a structural validator.
//!
//! Nothing here knows about the simulator: `sb-sim` converts its
//! `RunTrace` + observability log into a [`perfetto::PerfettoTrace`], and
//! `sb-stats` dumps its metrics registry through [`json::JsonValue`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
