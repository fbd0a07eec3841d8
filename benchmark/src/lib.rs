//! # ecnsharp-benchmark
//!
//! The repository's end-to-end benchmark: four fixed simulator
//! workloads, four host-side end-to-end metrics, and a per-layer cost
//! table measured from outside the engine. `README.md` beside this crate
//! has the metric and workload tables and how to run it.
//!
//! - [`scenario`] builds the workloads and checks their outputs;
//! - [`pass`] runs the end-to-end pass and the traced pass;
//! - [`probes`] holds the standalone per-layer timed loops;
//! - [`trace`] records spans and writes them as JSON lines;
//! - [`host`] reads the machine (memory, load, calibration loop);
//! - [`report`] is the metric registry and the printed result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The root `clippy.toml` bans the wall clock because it must never feed
// a simulation. This crate is host-side tooling: timing the engine from
// outside is its whole job, and nothing here feeds simulated time.
#![allow(clippy::disallowed_methods)]

pub mod host;
pub mod pass;
pub mod probes;
pub mod report;
pub mod scenario;
pub mod trace;
