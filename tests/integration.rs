//! Cross-crate integration tests: whole simulations exercising the event
//! engine, network model, transport, AQMs and harness together.

use ecn_sharp::aqm::DctcpRed;
use ecn_sharp::core::{EcnSharp, EcnSharpConfig};
use ecn_sharp::experiments::{run_testbed_star, FctScenario, Scheme};
use ecn_sharp::net::topology::star;
use ecn_sharp::net::{FlowCmd, FlowId, GilbertElliott, PortConfig};
use ecn_sharp::sim::{Duration, Rate, SimTime};
use ecn_sharp::transport::{TcpConfig, TcpStack};
use ecn_sharp::workload::dists;
use ecnsharp_aqm::{Aqm, DropTail};

/// Identical seeds must give bit-identical experiment outcomes across the
/// whole stack (workload generation, ECMP, transport, AQM).
#[test]
fn whole_experiment_is_deterministic() {
    let run = || {
        let sc = FctScenario::testbed(Scheme::EcnSharp(None), dists::web_search(), 0.5, 80, 1234);
        let (fct, stats) = run_testbed_star(&sc);
        (
            (fct.overall.avg * 1e18) as u64,
            (fct.overall.p99 * 1e18) as u64,
            stats.enqueued,
            stats.total_marks(),
        )
    };
    assert_eq!(run(), run());
}

/// Different seeds must actually change the workload (guards against a
/// pinned RNG).
#[test]
fn different_seeds_differ() {
    let run = |seed| {
        let sc = FctScenario::testbed(Scheme::DctcpRedTail, dists::web_search(), 0.5, 60, seed);
        (run_testbed_star(&sc).0.overall.avg * 1e15) as u64
    };
    assert_ne!(run(1), run(2));
}

/// The paper's central mechanism end-to-end: with long-lived small-RTT
/// flows holding a standing queue under a tail-RTT threshold, ECN♯ drains
/// the queue (short probes get much faster) while the long flows keep
/// their throughput.
#[test]
fn ecnsharp_drains_standing_queue_without_throughput_loss() {
    /// Run the standing-queue scenario with the given switch AQM; return
    /// (probe FCT average in seconds, average queue in packets).
    fn measure(make: fn() -> Box<dyn Aqm>) -> (f64, f64) {
        let rate = Rate::from_gbps(10);
        let mut topo = star(
            3,
            4,
            rate,
            Duration::from_micros(17),
            |_| TcpStack::boxed(TcpConfig::dctcp()),
            || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
            || PortConfig::fifo(1_000_000, make()),
        );
        let receiver = topo.hosts[3];
        for (i, extra_us) in [0u64, 140].into_iter().enumerate() {
            topo.net.schedule_flow(
                SimTime::ZERO,
                FlowCmd {
                    flow: FlowId(1 + i as u64),
                    src: topo.hosts[i],
                    dst: receiver,
                    size: 100_000_000,
                    class: 0,
                    extra_delay: Duration::from_micros(extra_us),
                },
            );
        }
        for k in 0..10u64 {
            topo.net.schedule_flow(
                SimTime::from_millis(40 + k * 3),
                FlowCmd {
                    flow: FlowId(100 + k),
                    src: topo.hosts[2],
                    dst: receiver,
                    size: 20_000,
                    class: 0,
                    extra_delay: Duration::ZERO,
                },
            );
        }
        let bport = topo.net.port_towards(topo.switch, receiver).unwrap();
        // Backlog in packets every 100 µs over [40 ms, 75 ms].
        let mut q = Vec::new();
        let mut t = SimTime::from_millis(40);
        while t <= SimTime::from_millis(75) {
            topo.net.run_until(t);
            q.push(topo.net.backlog(topo.switch, bport).1);
            t += Duration::from_micros(100);
        }
        topo.net.run_until(SimTime::from_millis(80));
        let probes: Vec<f64> = topo
            .net
            .records()
            .iter()
            .filter(|r| r.flow.0 >= 100)
            .map(|r| r.fct().as_secs_f64())
            .collect();
        assert!(!probes.is_empty());
        let probe_avg = probes.iter().sum::<f64>() / probes.len() as f64;
        let q_avg = q.iter().sum::<u64>() as f64 / q.len() as f64;
        (probe_avg, q_avg)
    }

    let (red_probe, red_q) = measure(|| Box::new(DctcpRed::with_threshold(250_000)));
    let (sharp_probe, sharp_q) = measure(|| {
        Box::new(EcnSharp::new(EcnSharpConfig::new(
            Duration::from_micros(200),
            Duration::from_micros(20),
            Duration::from_micros(200),
        )))
    });
    assert!(
        sharp_q < red_q / 2.0,
        "ECN# queue {sharp_q:.1} pkts should be well below RED-Tail's {red_q:.1}"
    );
    assert!(
        sharp_probe < red_probe * 0.8,
        "ECN# probes {sharp_probe:.6}s vs RED {red_probe:.6}s"
    );
}

/// Fault injection end-to-end: with lossy switch ports, every flow still
/// completes (retransmission machinery) and FCTs remain finite.
#[test]
fn lossy_fabric_still_completes_all_flows() {
    let rate = Rate::from_gbps(10);
    let mut topo = star(
        9,
        4,
        rate,
        Duration::from_micros(10),
        |_| TcpStack::boxed(TcpConfig::dctcp()),
        || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
        || {
            PortConfig::fifo(1_000_000, Box::new(DropTail::new()))
                .with_ge(GilbertElliott::new(0.0, 1.0, 0.0, 0.005))
        },
    );
    let receiver = topo.hosts[3];
    for k in 0..30u64 {
        topo.net.schedule_flow(
            SimTime::from_micros(k * 50),
            FlowCmd {
                flow: FlowId(k),
                src: topo.hosts[(k % 3) as usize],
                dst: receiver,
                size: 50_000,
                class: 0,
                extra_delay: Duration::ZERO,
            },
        );
    }
    topo.net.run_until_idle();
    assert_eq!(topo.net.records().len(), 30, "all flows must complete");
    assert_eq!(topo.net.unfinished_flows(), 0);
}
