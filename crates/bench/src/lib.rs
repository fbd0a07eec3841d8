//! # ecnsharp-bench
//!
//! The paired microbenches behind `cargo xtask bench`. Every
//! `bench_function` under `benches/` is one side of a same-run ratio gate
//! in xtask's `PAIRED_GATES` table, and the command fails on a row no
//! gate names:
//!
//! - `engine` — `telemetry_noop/port_churn_40k_noop`, run from the default
//!   build and from a `--no-default-features` build (the zero-cost claim
//!   of OBSERVABILITY.md);
//! - `cache_pressure` — the two working-set pairs: calendar lanes at ~8
//!   vs ~200 events per bucket, pooled port rings over 16 vs 384 ports;
//! - `supervision_cost` — one DCTCP transfer with the run guards off vs
//!   armed.
//!
//! Whole-simulation wall time, per-layer probe costs and everything
//! compared across commits live in `benchmark/` (`BENCHMARK.json`).
//!
//! This lib target exists to document the crate; it intentionally exports
//! nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
