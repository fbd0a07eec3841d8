//! Flow-completion-time statistics with the paper's size breakdown:
//! short flows `(0, 100 KB]`, large flows `[10 MB, ∞)`, plus overall.

use crate::percentile::{mean, percentile_sorted};
use ecnsharp_net::{FlowOutcome, FlowRecord};

/// The paper's short-flow boundary.
pub const SHORT_MAX: u64 = 100_000;
/// The paper's large-flow boundary.
pub const LARGE_MIN: u64 = 10_000_000;

/// FCT summary of one flow population (all values in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctSummary {
    /// Number of flows.
    pub count: usize,
    /// Mean FCT.
    pub avg: f64,
    /// Median FCT.
    pub p50: f64,
    /// 99th-percentile FCT.
    pub p99: f64,
}

impl FctSummary {
    /// The summary of an empty population: zero flows, NaN statistics.
    /// Used for the overall bucket when every flow in a run failed — the
    /// counts stay meaningful while the timing columns are explicitly
    /// not-a-number rather than a fabricated zero.
    pub const EMPTY: FctSummary = FctSummary {
        count: 0,
        avg: f64::NAN,
        p50: f64::NAN,
        p99: f64::NAN,
    };

    /// Summarize a set of FCTs in seconds, sorting them in place: the
    /// mean is summed in the given order first, then both percentiles are
    /// read off the one sort. `None` when empty.
    fn summarize(xs: &mut [f64]) -> Option<FctSummary> {
        let avg = mean(xs)?;
        xs.sort_unstable_by(f64::total_cmp);
        Some(FctSummary {
            count: xs.len(),
            avg,
            p50: percentile_sorted(xs, 0.50)?,
            p99: percentile_sorted(xs, 0.99)?,
        })
    }
}

/// The per-bucket breakdown the paper's figures report.
#[derive(Debug, Clone, Copy)]
pub struct FctBreakdown {
    /// All flows.
    pub overall: FctSummary,
    /// Flows of ≤ 100 KB.
    pub short: Option<FctSummary>,
    /// Flows of ≥ 10 MB.
    pub large: Option<FctSummary>,
    /// Everything in between.
    pub medium: Option<FctSummary>,
    /// Total retransmission timeouts across the population (completed and
    /// failed flows alike).
    pub timeouts: u64,
    /// Flows that aborted ([`FlowOutcome::Failed`]) — counted here,
    /// excluded from every timing summary (an abort time is not a
    /// completion time).
    pub failed: u64,
}

impl FctBreakdown {
    /// Build from finished-flow records. Failed flows are tallied in
    /// [`FctBreakdown::failed`] and excluded from the timing buckets.
    ///
    /// # Panics
    /// If `records` is empty — summarizing an experiment that finished no
    /// flows is a harness bug worth failing loudly on. (An all-failed
    /// population is *not* a panic: counts survive, timings are NaN.)
    pub fn from_records(records: &[FlowRecord]) -> FctBreakdown {
        assert!(!records.is_empty(), "no completed flows to summarize");
        // One pass, in record order: each completed flow's FCT goes to the
        // overall population and to its size class.
        let mut all = Vec::with_capacity(records.len());
        let (mut short, mut medium, mut large) = (vec![], vec![], vec![]);
        let mut timeouts = 0;
        for r in records {
            timeouts += u64::from(r.timeouts);
            if r.outcome != FlowOutcome::Completed {
                continue;
            }
            let fct = r.fct().as_secs_f64();
            all.push(fct);
            match r.size {
                s if s <= SHORT_MAX => short.push(fct),
                s if s >= LARGE_MIN => large.push(fct),
                _ => medium.push(fct),
            }
        }
        FctBreakdown {
            failed: (records.len() - all.len()) as u64,
            overall: FctSummary::summarize(&mut all).unwrap_or(FctSummary::EMPTY),
            short: FctSummary::summarize(&mut short),
            large: FctSummary::summarize(&mut large),
            medium: FctSummary::summarize(&mut medium),
            timeouts,
        }
    }
}

/// Average several runs' breakdowns metric-by-metric (the paper reports
/// the mean of three runs).
pub fn average_breakdowns(runs: &[FctBreakdown]) -> FctBreakdown {
    assert!(!runs.is_empty());
    let avg_summaries = |get: &dyn Fn(&FctBreakdown) -> Option<FctSummary>| {
        let xs: Vec<FctSummary> = runs.iter().filter_map(get).collect();
        if xs.is_empty() {
            return None;
        }
        let n = xs.len() as f64;
        Some(FctSummary {
            count: xs.iter().map(|s| s.count).sum::<usize>() / xs.len(),
            avg: xs.iter().map(|s| s.avg).sum::<f64>() / n,
            p50: xs.iter().map(|s| s.p50).sum::<f64>() / n,
            p99: xs.iter().map(|s| s.p99).sum::<f64>() / n,
        })
    };
    FctBreakdown {
        overall: avg_summaries(&|b: &FctBreakdown| Some(b.overall)).expect("non-empty"),
        short: avg_summaries(&|b: &FctBreakdown| b.short),
        large: avg_summaries(&|b: &FctBreakdown| b.large),
        medium: avg_summaries(&|b: &FctBreakdown| b.medium),
        timeouts: runs.iter().map(|b| b.timeouts).sum::<u64>() / runs.len() as u64,
        failed: runs.iter().map(|b| b.failed).sum::<u64>() / runs.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_net::{FlowId, NodeId};
    use ecnsharp_sim::SimTime;

    fn rec(id: u64, size: u64, fct_us: u64) -> FlowRecord {
        FlowRecord {
            flow: FlowId(id),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            start: SimTime::ZERO,
            finish: SimTime::from_micros(fct_us),
            class: 0,
            timeouts: 0,
            outcome: FlowOutcome::Completed,
        }
    }

    fn failed_rec(id: u64, size: u64, abort_us: u64, timeouts: u32) -> FlowRecord {
        FlowRecord {
            timeouts,
            outcome: FlowOutcome::Failed,
            ..rec(id, size, abort_us)
        }
    }

    #[test]
    fn buckets_split_correctly() {
        let records = vec![
            rec(1, 10_000, 100),      // short
            rec(2, 100_000, 200),     // short (boundary inclusive)
            rec(3, 500_000, 400),     // medium
            rec(4, 10_000_000, 900),  // large (boundary inclusive)
            rec(5, 50_000_000, 1500), // large
        ];
        let b = FctBreakdown::from_records(&records);
        assert_eq!(b.overall.count, 5);
        assert_eq!(b.short.unwrap().count, 2);
        assert_eq!(b.medium.unwrap().count, 1);
        assert_eq!(b.large.unwrap().count, 2);
        assert!((b.short.unwrap().avg - 150e-6).abs() < 1e-12);
        assert!((b.large.unwrap().avg - 1200e-6).abs() < 1e-12);
    }

    #[test]
    fn empty_buckets_are_none() {
        let b = FctBreakdown::from_records(&[rec(1, 1_000, 50)]);
        assert!(b.large.is_none());
        assert!(b.medium.is_none());
        assert_eq!(b.short.unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "no completed flows")]
    fn empty_records_panic() {
        let _ = FctBreakdown::from_records(&[]);
    }

    #[test]
    fn p99_picks_tail() {
        let records: Vec<FlowRecord> = (0..100).map(|i| rec(i, 1_000, 100 + i)).collect();
        let b = FctBreakdown::from_records(&records);
        assert!(
            (b.overall.p99 * 1e6 - 198.0).abs() < 1.0,
            "{}",
            b.overall.p99
        );
    }

    #[test]
    fn averaging_runs() {
        let r1 = FctBreakdown::from_records(&[rec(1, 1_000, 100)]);
        let r2 = FctBreakdown::from_records(&[rec(1, 1_000, 300)]);
        let avg = average_breakdowns(&[r1, r2]);
        assert!((avg.overall.avg - 200e-6).abs() < 1e-12);
        assert!((avg.short.unwrap().avg - 200e-6).abs() < 1e-12);
        assert!(avg.large.is_none());
    }

    #[test]
    fn timeouts_summed() {
        let mut a = rec(1, 1_000, 100);
        a.timeouts = 2;
        let b = rec(2, 1_000, 100);
        let bd = FctBreakdown::from_records(&[a, b]);
        assert_eq!(bd.timeouts, 2);
    }

    #[test]
    fn failed_flows_counted_not_averaged() {
        // One completed 100 us flow + one failed flow whose 9-second abort
        // time must NOT contaminate the FCT average.
        let records = vec![rec(1, 1_000, 100), failed_rec(2, 1_000, 9_000_000, 8)];
        let b = FctBreakdown::from_records(&records);
        assert_eq!(b.failed, 1);
        assert_eq!(b.overall.count, 1, "only the completed flow is timed");
        assert!((b.overall.avg - 100e-6).abs() < 1e-12);
        assert_eq!(b.short.unwrap().count, 1);
        assert_eq!(b.timeouts, 8, "failed flows' timeouts still counted");
    }

    /// The one-pass summary is bit for bit what [`mean`] and
    /// [`percentile`] give per class, on a mixed population with failed
    /// flows interleaved.
    #[test]
    fn one_pass_matches_per_class_mean_and_percentile() {
        use crate::percentile::percentile;
        let mut rng = ecnsharp_sim::Rng::seed_from_u64(7);
        let records: Vec<FlowRecord> = (0..2_000)
            .map(|i| {
                let size = match rng.below(3) {
                    0 => rng.range_u64(1, SHORT_MAX + 1),
                    1 => rng.range_u64(SHORT_MAX + 1, LARGE_MIN),
                    _ => rng.range_u64(LARGE_MIN, 4 * LARGE_MIN),
                };
                let fct_us = rng.range_u64(10, 1_000_000);
                if rng.below(10) == 0 {
                    failed_rec(i, size, fct_us, 3)
                } else {
                    rec(i, size, fct_us)
                }
            })
            .collect();
        let b = FctBreakdown::from_records(&records);
        let want = |keep: &dyn Fn(u64) -> bool| {
            let xs: Vec<f64> = records
                .iter()
                .filter(|r| r.outcome == FlowOutcome::Completed && keep(r.size))
                .map(|r| r.fct().as_secs_f64())
                .collect();
            let bits = |x: Option<f64>| x.map(f64::to_bits);
            (
                xs.len(),
                bits(mean(&xs)),
                bits(percentile(&xs, 0.5)),
                bits(percentile(&xs, 0.99)),
            )
        };
        let got = |s: Option<FctSummary>| {
            s.map_or((0, None, None, None), |s| {
                (
                    s.count,
                    Some(s.avg.to_bits()),
                    Some(s.p50.to_bits()),
                    Some(s.p99.to_bits()),
                )
            })
        };
        assert_eq!(got(Some(b.overall)), want(&|_| true));
        assert_eq!(got(b.short), want(&|s| s <= SHORT_MAX));
        assert_eq!(got(b.medium), want(&|s| s > SHORT_MAX && s < LARGE_MIN));
        assert_eq!(got(b.large), want(&|s| s >= LARGE_MIN));
        let failed = records.len() - b.overall.count;
        assert!(failed > 100 && b.failed == failed as u64);
        assert_eq!(b.timeouts, 3 * b.failed);
    }

    #[test]
    fn all_failed_population_is_empty_but_counted() {
        let records = vec![failed_rec(1, 1_000, 500, 8), failed_rec(2, 1_000, 700, 8)];
        let b = FctBreakdown::from_records(&records);
        assert_eq!(b.failed, 2);
        assert_eq!(b.overall.count, 0);
        assert!(b.overall.avg.is_nan());
        assert!(b.short.is_none());
        assert_eq!(b.timeouts, 16);
    }
}
