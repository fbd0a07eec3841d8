//! The fault-injection acceptance checks: a chaos point (flapping link +
//! 1% Gilbert–Elliott burst loss) replays byte-identically from the same
//! seed, and a permanently-down last hop terminates — flows abort with
//! `Failed` instead of retrying forever.

use ecnsharp_aqm::DropTail;
use ecnsharp_experiments::{run_chaos_leaf_spine, ChaosResult, Scheme};
use ecnsharp_net::topology::dumbbell;
use ecnsharp_net::{FlowCmd, FlowId, FlowOutcome, PortConfig, Supervision};
use ecnsharp_sim::{Duration, Rate, SimTime};
use ecnsharp_stats::FctSummary;
use ecnsharp_transport::{TcpConfig, TcpStack};

/// Render every field of a chaos result with bit-exact floats (`{:?}` on
/// f64 is the shortest round-trip form): two renders match iff the
/// underlying bits match.
fn render(r: &ChaosResult) -> String {
    let s = |x: &Option<FctSummary>| match x {
        Some(s) => format!("{},{:?},{:?},{:?}", s.count, s.avg, s.p50, s.p99),
        None => "-".to_string(),
    };
    format!(
        "{},{:?},{:?},{:?}|{}|{}|{}|{},{},{},{},{},{}",
        r.fct.overall.count,
        r.fct.overall.avg,
        r.fct.overall.p50,
        r.fct.overall.p99,
        s(&r.fct.short),
        s(&r.fct.medium),
        s(&r.fct.large),
        r.completed,
        r.failed,
        r.timeouts,
        r.ce_marks,
        r.burst_drops,
        r.no_route_drops,
    )
}

#[test]
fn chaos_point_is_replay_identical() {
    let run = || {
        run_chaos_leaf_spine(
            Scheme::EcnSharp(None),
            0.01,
            Some(Duration::from_micros(200)),
            40,
            42,
            1,
            Supervision::default(),
            false,
        )
        .expect("chaos point")
    };
    let a = run();
    let b = run();
    assert_eq!(
        render(&a),
        render(&b),
        "same seed must replay byte-identically under flaps + burst loss"
    );
    assert!(a.burst_drops > 0, "the GE process must actually fire");
    assert_eq!(a.completed + a.failed, 40);
}

#[test]
fn permanently_down_last_hop_fails_flows() {
    let plain = || PortConfig::fifo(1_000_000, Box::new(DropTail::new()));
    let mut d = dumbbell(
        11,
        Rate::from_gbps(10),
        Rate::from_gbps(10),
        Duration::from_micros(5),
        TcpStack::boxed(TcpConfig::dctcp()),
        TcpStack::boxed(TcpConfig::dctcp()),
        plain,
        plain(),
    );
    // The receiver's last hop goes down before the flow starts and never
    // comes back.
    d.net.set_link_up(d.s2, d.b, false);
    d.net.schedule_flow(
        SimTime::ZERO,
        FlowCmd {
            flow: FlowId(1),
            src: d.a,
            dst: d.b,
            size: 100_000,
            class: 0,
            extra_delay: Duration::ZERO,
        },
    );
    // Terminates: the sender gives up after `max_rto_retries` instead of
    // backing off forever.
    d.net.run_until_idle();
    let recs = d.net.records();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].outcome, FlowOutcome::Failed);
    assert_eq!(recs[0].timeouts, TcpConfig::dctcp().max_rto_retries);
    assert_eq!(d.net.unfinished_flows(), 0);
    let perf = d.net.perf();
    assert_eq!(perf.flows_failed, 1);
    assert!(
        perf.no_route_drops > 0,
        "packets towards the dead hop are counted as no-route discards"
    );
}
