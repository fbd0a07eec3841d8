//! The sharded conservative-PDES engine is an execution mode, not a
//! model change: for the same seed, a run partitioned over worker
//! threads must produce byte-identical results to the serial event loop
//! — figure CSVs, chaos-sweep ledgers, and scheme-internal counters
//! alike. CONCURRENCY.md carries the argument; these tests pin it.
//!
//! The figure-level test drives the real `ECNSHARP_SHARDS` knob through
//! `figures::fig9` (the leaf-spine sweep every load/scheme grid uses).
//! Everything else passes an explicit shard count to its runner, so no
//! other test in this binary depends on mutated process environment.

use ecnsharp_aqm::DropTail;
use ecnsharp_experiments::{
    figures, run_chaos_leaf_spine, run_fat_tree_sharded, run_leaf_spine_sharded, FctScenario,
    Scale, Scheme, SchemeParams,
};
use ecnsharp_net::topology::fat_tree;
use ecnsharp_net::{NodeId, PortConfig, Supervision};
use ecnsharp_sim::{Duration, Rng, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use ecnsharp_workload::{dists, Pattern, RttVariation, TrafficSpec};

/// Leaf-spine FCT sweep point, serial vs explicit shard counts. `{:?}`
/// on `FctBreakdown` prints shortest-round-trip floats, so string
/// equality is bit equality.
#[test]
fn leaf_spine_fct_is_shard_invariant() {
    let mut sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.6, 160, 53);
    sc.rtt = RttVariation::sim_3x();
    let serial = format!("{:?}", run_leaf_spine_sharded(&sc, 2, 2, 4, 1));
    assert_eq!(
        serial,
        format!("{:?}", run_leaf_spine_sharded(&sc, 2, 2, 4, 2)),
        "2 shards"
    );
    // 4 requested, clamped to the 2-leaf ceiling — the documented
    // sweep-friendly behaviour of the knob.
    assert_eq!(
        serial,
        format!("{:?}", run_leaf_spine_sharded(&sc, 2, 2, 4, 4)),
        "4 shards (clamped)"
    );
    // 4 spines × 4 leaves × 4 hosts: four shards that are not clamped.
    let sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.2, 30, 6);
    assert_eq!(
        format!("{:?}", run_leaf_spine_sharded(&sc, 4, 4, 4, 1)),
        format!("{:?}", run_leaf_spine_sharded(&sc, 4, 4, 4, 4)),
        "4x4x4, 4 shards"
    );
}

/// Fat-tree (k=4, 16 hosts, cross-pod traffic over the core) FCT, serial
/// vs per-pod cuts.
#[test]
fn fat_tree_fct_is_shard_invariant() {
    let mut sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.5, 120, 7);
    sc.rtt = RttVariation::sim_3x();
    let serial = format!("{:?}", run_fat_tree_sharded(&sc, 4, 1));
    assert_eq!(
        serial,
        format!("{:?}", run_fat_tree_sharded(&sc, 4, 2)),
        "2 shards"
    );
    assert_eq!(
        serial,
        format!("{:?}", run_fat_tree_sharded(&sc, 4, 4)),
        "4 shards"
    );
}

/// The TCP fat-tree (k=4) run on `shards` shards, as its step count, each
/// record and each port's statistics. `shuffle` lists the flows in a
/// fixed scrambled order instead of by start time.
fn fat_tree_records_and_ports(shards: u32, shuffle: bool) -> Vec<String> {
    {
        let sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.2, 30, 6);
        let params = SchemeParams::derive(&sc.rtt, sc.rate);
        let ft = fat_tree(
            sc.seed,
            4,
            sc.rate,
            sc.rate,
            Duration::from_nanos(sc.rtt.min().as_nanos() / 12),
            |_| TcpStack::boxed(TcpConfig::dctcp()),
            || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
            || params.port(&sc.scheme, sc.buffer, 0xFA7),
        );
        let plan = (shards >= 2).then(|| ft.shard_plan(shards));
        let mut net = ft.net;
        let spec = TrafficSpec {
            cdf: sc.cdf.clone(),
            load: sc.load,
            bottleneck: sc.rate,
            pattern: Pattern::AllToAll {
                hosts: ft.hosts.clone(),
            },
            rtt: sc.rtt,
            class: 0,
            start: SimTime::ZERO,
        };
        let mut rng = Rng::seed_from_u64(sc.seed);
        let mut flows = spec.generate(sc.n_flows, 1, &mut rng);
        if shuffle {
            let mut times: Vec<SimTime> = flows.iter().map(|f| f.0).collect();
            times.sort_unstable();
            times.dedup();
            assert_eq!(times.len(), flows.len(), "start times must be distinct");
            let third = flows.len() / 3;
            flows.reverse();
            flows.rotate_left(third);
        }
        for (at, cmd) in flows {
            net.schedule_flow(at, cmd);
        }
        match &plan {
            Some(p) => net.run_sharded_until_idle(p),
            None => net.run_until_idle(),
        };
        assert_eq!(net.records().len(), sc.n_flows);
        let mut out = vec![format!("steps {}", net.steps())];
        out.extend(net.records().iter().map(|r| format!("{r:?}")));
        for node in 0..net.node_count() {
            let n = NodeId(node);
            for port in 0..net.port_count(n) {
                out.push(format!("port {node}.{port} {:?}", net.port_stats(n, port)));
            }
        }
        out
    }
}

/// [`fat_tree_records_and_ports`] compared record by record and port by
/// port, with the step count: an FCT aggregate could hide two flows
/// trading completion times, or a port trading drops for marks.
#[test]
fn fat_tree_records_and_ports_are_shard_invariant() {
    let run = |shards| fat_tree_records_and_ports(shards, false);
    let serial = run(1);
    for shards in [2, 4] {
        let sharded = run(shards);
        assert_eq!(serial.len(), sharded.len(), "{shards} shards");
        for (a, b) in serial.iter().zip(&sharded) {
            assert_eq!(a, b, "{shards} shards");
        }
    }
}

/// The same run with its flows scheduled out of start-time order: the
/// network sorts its arrival list, and the split hands each shard, in
/// order, the arrivals its hosts send. Every flow starts at a distinct
/// time, so the shuffle changes no tie order and the run on any shard
/// count must match the serial run of the sorted schedule.
#[test]
fn fat_tree_shuffled_schedule_is_shard_invariant() {
    let serial = fat_tree_records_and_ports(1, false);
    for shards in [1, 2, 4] {
        let shuffled = fat_tree_records_and_ports(shards, true);
        assert_eq!(serial.len(), shuffled.len(), "{shards} shards");
        for (a, b) in serial.iter().zip(&shuffled) {
            assert_eq!(a, b, "{shards} shards, shuffled");
        }
    }
}

/// Chaos-sweep outputs — fault application (flaps, GE burst loss, route
/// rebuilds) crosses shard boundaries, so this is the adversarial case
/// for the epoch/straggler protocol. The full `ChaosResult` ledger
/// (FCT + every drop/abort counter) must match field for field.
#[test]
fn chaos_sweep_is_shard_invariant() {
    for (loss, flap) in [
        (0.0, None),
        (0.01, Some(ecnsharp_sim::Duration::from_micros(200))),
    ] {
        let run = |shards: u32| {
            let r = run_chaos_leaf_spine(
                Scheme::EcnSharp(None),
                loss,
                flap,
                60,
                0xC0DE,
                shards,
                Supervision::default(),
                false,
            );
            format!("{:?}", r.expect("chaos point"))
        };
        let serial = run(1);
        for shards in [2u32, 4] {
            assert_eq!(
                serial,
                run(shards),
                "loss={loss} flap={flap:?} shards={shards}"
            );
        }
    }
}

/// Figure-level pinning through the real env knob: fig9's quick CSV must
/// be byte-identical under `ECNSHARP_SHARDS` ∈ {unset, 2, 4}. Runs
/// last-alphabetically irrelevant — the knob is only read by this test's
/// own figure calls (every other test here passes explicit shard counts),
/// so the mutation cannot leak meaning into concurrent tests.
#[test]
fn sharded_figure_csv_is_byte_identical() {
    let dir = std::env::temp_dir().join("ecnsharp_shard_equivalence");
    std::fs::create_dir_all(&dir).expect("temp results dir");
    std::env::set_var("ECNSHARP_RESULTS", &dir);

    std::env::remove_var("ECNSHARP_SHARDS");
    let serial = figures::fig9(Scale::Quick).to_csv();
    for shards in ["2", "4"] {
        std::env::set_var("ECNSHARP_SHARDS", shards);
        assert_eq!(
            serial,
            figures::fig9(Scale::Quick).to_csv(),
            "ECNSHARP_SHARDS={shards} changed fig9"
        );
    }
    std::env::remove_var("ECNSHARP_SHARDS");
}

/// White-box property: the shard count never changes ECN♯'s `MarkStats`
/// on any switch port — the marker sees the exact same packet sequence
/// at the exact same sojourn times regardless of partitioning — nor how
/// many steps the run took and how many `TxDone` events it queued or
/// elided: whether a port queues one depends only on what is waiting at
/// that port, which no partition changes.
mod mark_stats_prop {
    use ecnsharp_aqm::DropTail;
    use ecnsharp_core::{EcnSharp, MarkStats};
    use ecnsharp_net::topology::leaf_spine;
    use ecnsharp_net::{FlowCmd, FlowId, Network, NodeId, PortConfig, ShardSubscriber};
    use ecnsharp_sim::{Duration, Rate, SimTime};
    use ecnsharp_transport::{TcpConfig, TcpStack};
    use proptest::prelude::*;

    use super::*;

    /// 2 spines × 4 leaves × 2 hosts with ECN♯ on every switch egress,
    /// DCTCP endpoints, and a deterministic cross-leaf flow pattern.
    /// Returns every switch port's `MarkStats` (ports without an ECN♯
    /// marker never appear — hosts use DropTail NICs) and the run's
    /// [`Counts`].
    fn mark_stats(seed: u64, shards: u32) -> (Vec<(usize, usize, MarkStats)>, Counts) {
        let params = SchemeParams::derive(&RttVariation::sim_3x(), Rate::from_gbps(10));
        let scheme = Scheme::EcnSharp(None);
        let ls = leaf_spine(
            seed,
            2,
            4,
            2,
            Rate::from_gbps(10),
            Rate::from_gbps(10),
            Duration::from_micros(1),
            |_| TcpStack::boxed(TcpConfig::dctcp()),
            || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
            || params.port(&scheme, 200_000, 0xBEEF),
        );
        let plan = (shards >= 2).then(|| ls.shard_plan(shards));
        let mut net = ls.net;
        let n = ls.hosts.len() as u64;
        for f in 0..4 * n {
            let (src, dst) = ((f % n) as usize, ((f * 3 + 2) % n) as usize);
            if src / 2 == dst / 2 {
                continue; // keep flows cross-leaf so they meet the fabric
            }
            net.schedule_flow(
                SimTime::from_nanos(157 * f),
                FlowCmd {
                    flow: FlowId(1 + f),
                    src: ls.hosts[src],
                    dst: ls.hosts[dst],
                    size: 1460 * (2 + f % 14),
                    class: 0,
                    extra_delay: Duration::ZERO,
                },
            );
        }
        match plan {
            Some(plan) => {
                net.run_sharded_until_idle(&plan);
            }
            None => {
                net.run_until_idle();
            }
        }
        assert_eq!(net.unfinished_flows(), 0, "all flows complete");
        let c = net.perf();
        assert_eq!(
            c.tx_done_pushed + c.tx_done_elided,
            c.packets_forwarded,
            "every transmission queued its TxDone or elided it"
        );
        let counts = Counts {
            steps: net.steps(),
            events_popped: c.events_popped,
            tx_done_pushed: c.tx_done_pushed,
            tx_done_elided: c.tx_done_elided,
        };
        (collect(&net), counts)
    }

    /// Engine counts that no partition may change.
    #[derive(Debug, PartialEq)]
    struct Counts {
        steps: u64,
        events_popped: u64,
        tx_done_pushed: u64,
        tx_done_elided: u64,
    }

    fn collect<S: ShardSubscriber>(net: &Network<S>) -> Vec<(usize, usize, MarkStats)> {
        let mut out = Vec::new();
        for node in 0..net.node_count() {
            for port in 0..net.port_count(NodeId(node)) {
                if let Some(aqm) = net.aqm_as_any(NodeId(node), port) {
                    if let Some(m) = aqm.downcast_ref::<EcnSharp>() {
                        out.push((node, port, m.stats()));
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Serial and n-shard runs of the same seed produce identical
        /// `MarkStats` on every switch port and identical step, pop and
        /// `TxDone` counts, and the workload actually exercises the
        /// marker (some port saw packets) and both `TxDone` outcomes.
        #[test]
        fn prop_shard_count_never_changes_mark_stats(
            seed in 0u64..1_000_000,
            shards in 2u32..5,
        ) {
            let serial = mark_stats(seed, 1);
            prop_assert!(
                serial.0.iter().any(|(_, _, m)| m.packets > 0),
                "workload never reached an ECN# port"
            );
            prop_assert!(
                serial.1.tx_done_pushed > 0 && serial.1.tx_done_elided > 0,
                "{:?}",
                serial.1
            );
            let sharded = mark_stats(seed, shards);
            prop_assert_eq!(serial, sharded);
        }
    }
}
