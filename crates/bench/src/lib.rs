//! Criterion microbenchmarks of the simulator's substrates.
//!
//! The benches live in `benches/microbench_substrates.rs`; this library
//! is empty. Whole-run timing belongs to `bench_json` (the CI throughput
//! gates) and to the `perfbench` package (the repository benchmark), and
//! the paper's tables come from the `figures` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
