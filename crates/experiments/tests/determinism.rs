//! Perf counters must be observers, not participants: reading them (or
//! not) around a run must leave results bit-identical. These tests pin
//! that property at the level the figures consume — FCT summary rows and
//! port mark/drop statistics rendered to CSV text.

use ecnsharp_experiments::{
    perf, run_incast_micro_with, run_testbed_star, FctScenario, IncastTimeline, Scheme,
};
use ecnsharp_stats::FctBreakdown;
use ecnsharp_workload::dists;

/// Render a breakdown + port stats to a CSV row with bit-exact floats
/// (`{:?}` on f64 prints the shortest round-trip representation, so two
/// rows match iff the underlying bits match).
fn csv_row(fct: &FctBreakdown, stats: &ecnsharp_net::PortStats) -> String {
    let s = |x: &Option<ecnsharp_stats::FctSummary>| match x {
        Some(s) => format!("{},{:?},{:?},{:?}", s.count, s.avg, s.p50, s.p99),
        None => "-".to_string(),
    };
    format!(
        "{},{},{},{},{:?},{},{},{},{},{},{}",
        fct.overall.count,
        s(&fct.short),
        s(&fct.large),
        s(&fct.medium),
        fct.overall.avg,
        fct.timeouts,
        stats.enq_marks,
        stats.deq_marks,
        stats.tail_drops,
        stats.aqm_enq_drops,
        stats.dequeued,
    )
}

/// Every transmission draws a `TxDone` tag and either queues the event
/// (something was waiting) or elides it; neither scenario here loses
/// packets on the wire, so transmissions are `packets_forwarded`. The
/// identity is additive, so it holds on any sum of runs a snapshot holds.
fn assert_tx_done_identity(p: &perf::Snapshot) {
    let c = &p.counters;
    assert!(c.tx_done_elided > 0 && c.tx_done_pushed > 0, "{p:?}");
    assert_eq!(
        c.tx_done_pushed + c.tx_done_elided,
        c.packets_forwarded,
        "{p:?}"
    );
}

/// The accumulator is process-global and both tests here reset it and
/// compare exact snapshots of it, so they take turns: run on parallel
/// test threads, one's absorb could land inside the other's timed
/// section (seen once under `cargo test --workspace` on a loaded box).
static ACCUMULATOR_TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn take_turn() -> std::sync::MutexGuard<'static, ()> {
    // A failed assertion in the other test poisons the lock, not the
    // accumulator: `reset()` starts every timed section from zero.
    ACCUMULATOR_TURN
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn scenario() -> FctScenario {
    FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.6, 120, 42)
}

#[test]
fn counters_read_vs_ignored_yield_identical_csv_rows() {
    let _turn = take_turn();
    // Run 1: counters completely ignored (reset only, never read).
    perf::reset();
    let (fct_a, stats_a) = run_testbed_star(&scenario());
    let row_a = csv_row(&fct_a, &stats_a);

    // Run 2: counters read aggressively — before, around (via `timed`),
    // and after the run — with stale state from an unrelated run left in
    // the accumulator to prove global counter state cannot leak into
    // results.
    let _ = run_incast_micro_with(Scheme::DctcpRedTail, 4, 7, IncastTimeline::Compressed);
    let _ = perf::snapshot();
    let t = perf::timed(|| run_testbed_star(&scenario()));
    let after = perf::snapshot();
    let (fct_b, stats_b) = t.result;
    let row_b = csv_row(&fct_b, &stats_b);

    assert_eq!(row_a, row_b, "reading perf counters perturbed results");
    // And the counters themselves did observe the run.
    assert!(t.perf.counters.events_popped > 0);
    assert!(t.perf.counters.packets_forwarded > 0);
    assert_tx_done_identity(&t.perf);
    assert_eq!(
        after, t.perf,
        "no simulation ran between timed() and snapshot()"
    );
}

#[test]
fn same_seed_same_counters() {
    let _turn = take_turn();
    // Determinism extends to the counters: identical seeds produce
    // identical event/packet/mark totals, not just identical results.
    let t1 = perf::timed(|| {
        run_incast_micro_with(Scheme::EcnSharp(None), 8, 3, IncastTimeline::Compressed)
    });
    let t2 = perf::timed(|| {
        run_incast_micro_with(Scheme::EcnSharp(None), 8, 3, IncastTimeline::Compressed)
    });
    assert_eq!(t1.perf, t2.perf);
    assert_tx_done_identity(&t1.perf);
    // Byte-identical figure rows too.
    assert_eq!(
        format!("{:?},{}", t1.result.standing_pkts, t1.result.drops),
        format!("{:?},{}", t2.result.standing_pkts, t2.result.drops),
    );
}
