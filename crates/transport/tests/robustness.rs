//! Property-based robustness: whatever the loss pattern, flow sizes and
//! ACK policy, every flow completes and the simulation stays deterministic.

use ecnsharp_aqm::DropTail;
use ecnsharp_net::topology::star;
use ecnsharp_net::{FlowCmd, FlowId, GilbertElliott, PortConfig};
use ecnsharp_sim::{Duration, Rate, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use proptest::prelude::*;

/// Run `sizes.len()` flows from 3 senders to 1 receiver over a switch with
/// the given wire-drop probability; return per-flow FCT in ns.
fn run(sizes: &[u64], drop_p: f64, delack: u32, seed: u64) -> Vec<u64> {
    let cfg = TcpConfig {
        delack_count: delack,
        ..TcpConfig::dctcp()
    };
    let mut topo = star(
        seed,
        4,
        Rate::from_gbps(10),
        Duration::from_micros(5),
        |_| TcpStack::boxed(cfg),
        || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
        || {
            PortConfig::fifo(1_000_000, Box::new(DropTail::new()))
                .with_ge(GilbertElliott::new(0.0, 1.0, 0.0, drop_p))
        },
    );
    let receiver = topo.hosts[3];
    for (k, &size) in sizes.iter().enumerate() {
        topo.net.schedule_flow(
            SimTime::from_micros(k as u64 * 20),
            FlowCmd {
                flow: FlowId(k as u64),
                src: topo.hosts[k % 3],
                dst: receiver,
                size,
                class: 0,
                extra_delay: Duration::from_micros((k as u64 % 4) * 30),
            },
        );
    }
    topo.net.run_until_idle();
    assert_eq!(
        topo.net.records().len(),
        sizes.len(),
        "every flow must complete (drop_p={drop_p})"
    );
    let mut fcts: Vec<(FlowId, u64)> = topo
        .net
        .records()
        .iter()
        .map(|r| (r.flow, r.fct().as_nanos()))
        .collect();
    fcts.sort_by_key(|&(f, _)| f);
    fcts.into_iter().map(|(_, f)| f).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All flows complete under random sizes and loss rates, with either
    /// per-packet or delayed ACKs.
    #[test]
    fn flows_always_complete(
        sizes in proptest::collection::vec(1u64..150_000, 1..8),
        drop_pm in 0u32..30,            // up to 3% wire loss
        delack in 1u32..3,
        seed in 0u64..1_000,
    ) {
        let fcts = run(&sizes, drop_pm as f64 / 1000.0, delack, seed);
        prop_assert_eq!(fcts.len(), sizes.len());
        prop_assert!(fcts.iter().all(|&f| f > 0));
    }

    /// Determinism: the exact same inputs give the exact same FCT vector.
    #[test]
    fn replay_identical(
        sizes in proptest::collection::vec(1u64..80_000, 1..5),
        seed in 0u64..100,
    ) {
        let a = run(&sizes, 0.01, 1, seed);
        let b = run(&sizes, 0.01, 1, seed);
        prop_assert_eq!(a, b);
    }

    /// Monotonicity sanity: on a clean network, a 10x bigger flow never
    /// finishes faster than a tiny one started at the same time from the
    /// same sender (FIFO bottleneck, no loss).
    #[test]
    fn bigger_flows_take_longer_clean(size in 2_000u64..100_000) {
        let small = run(&[1_000], 0.0, 1, 7)[0];
        let big = run(&[size * 10], 0.0, 1, 7)[0];
        prop_assert!(big >= small, "big {big} < small {small}");
    }
}

/// Zero-byte flows complete immediately after the handshake.
#[test]
fn zero_byte_flow_completes() {
    let fcts = run(&[0], 0.0, 1, 3);
    assert_eq!(fcts.len(), 1);
    // One RTT-ish: SYN + SYN-ACK.
    assert!(fcts[0] < 100_000, "fct {}ns", fcts[0]);
}

/// A single-byte flow and a single-MSS flow have nearly identical FCT
/// (both are one data packet).
#[test]
fn sub_mss_flows_single_packet() {
    let one = run(&[1], 0.0, 1, 5)[0];
    let mss = run(&[1460], 0.0, 1, 5)[0];
    let diff = mss.abs_diff(one);
    assert!(diff < 10_000, "1B {one}ns vs MSS {mss}ns");
}
