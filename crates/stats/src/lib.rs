//! # ecnsharp-stats
//!
//! Metrics for the ECN♯ evaluation harness:
//!
//! - [`FctBreakdown`] — flow-completion-time summaries broken down exactly
//!   like the paper's figures: overall, short `(0,100 KB]`, large
//!   `[10 MB,∞)`; averages and 99th percentiles; multi-run averaging;
//! - [`QueueSummary`] — queue-occupancy series statistics (Fig. 10);
//! - [`BoxStats`] — the five-number box-plot summary (Fig. 1);
//! - [`Table`] — aligned text tables and CSV files for every report
//!   binary;
//! - percentile/mean helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fct;
pub mod hist;
pub mod percentile;
pub mod series;
pub mod table;

pub use fct::{average_breakdowns, FctBreakdown, FctSummary, LARGE_MIN, SHORT_MAX};
pub use hist::BoxStats;
pub use percentile::{mean, percentile};
pub use series::QueueSummary;
pub use table::{ratio, us, Table};

// Compile-time shard-safety proofs: per-shard statistics are merged on
// the host thread after parallel runs (ROADMAP item 1). Lint rules
// R7/R8 guard the source text; these assertions guard the types.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<FctBreakdown>();
    assert_send_sync::<Table>();
    assert_send_sync::<QueueSummary>();
};
