//! # ecnsharp-experiments
//!
//! The evaluation harness: everything needed to regenerate every table and
//! figure of the paper, as library functions (used by the `fig*`/`table*`
//! binaries, the `benchmark/` package, and the integration tests).
//!
//! See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.

pub mod env;
pub mod figures;
pub mod perf;
pub mod runner;
pub mod scenario;
pub mod scheme;
pub mod telemetry;

pub use env::{parse_fault_seed, results_dir, DEFAULT_FAULT_SEED};
pub use runner::{guarded_run, parallel_map, try_parallel_map, Scale, SweepOutcome};
pub use scenario::{
    run_chaos_leaf_spine, run_dwrr, run_fat_tree_sharded, run_incast_micro_with,
    run_incast_micro_with_subscriber, run_leaf_spine_sharded, run_testbed_star,
    run_testbed_star_with_subscriber, ChaosResult, DwrrResult, FctScenario, IncastResult,
    IncastTimeline,
};
pub use scheme::{Scheme, SchemeParams};
pub use telemetry::{
    jsonl_sink_from_env_or_exit, perf_json_path_or_exit, telemetry_json_path_or_exit,
};
