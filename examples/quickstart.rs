//! Quickstart: the paper's core claim in one minimal experiment.
//!
//! Two DCTCP senders share a 10 Gbps bottleneck. One has a small base RTT,
//! one a large base RTT (3× spread — the paper's §2.2 situation). The
//! switch runs either "current practice" (DCTCP-RED with a threshold sized
//! for the 90th-percentile RTT) or ECN♯. We then fire a burst of short
//! flows through the same port and compare their latency.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use ecn_sharp::aqm::DctcpRed;
use ecn_sharp::core::{EcnSharp, EcnSharpConfig};
use ecn_sharp::net::topology::star;
use ecn_sharp::net::{FlowCmd, FlowId, PortConfig};
use ecn_sharp::sim::{Duration, Rate, SimTime};
use ecn_sharp::stats::FctBreakdown;
use ecn_sharp::transport::{TcpConfig, TcpStack};
use ecnsharp_aqm::{Aqm, DropTail};

fn run(label: &str, make_aqm: impl Fn() -> Box<dyn Aqm>) {
    let rate = Rate::from_gbps(10);
    // 4 hosts: two long-flow senders, one probe sender, one receiver.
    let mut topo = star(
        7,
        4,
        rate,
        Duration::from_micros(70 / 4), // base network RTT ≈ 70 us
        |_| TcpStack::boxed(TcpConfig::dctcp()),
        || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
        || PortConfig::fifo(1_000_000, make_aqm()),
    );
    let receiver = topo.hosts[3];

    // Long-lived flows: one small-RTT (no extra delay), one large-RTT
    // (+140 us, the 3x case). Both run for the whole experiment.
    for (i, extra_us) in [0u64, 140].into_iter().enumerate() {
        topo.net.schedule_flow(
            SimTime::ZERO,
            FlowCmd {
                flow: FlowId(1 + i as u64),
                src: topo.hosts[i],
                dst: receiver,
                size: 500_000_000,
                class: 0,
                extra_delay: Duration::from_micros(extra_us),
            },
        );
    }
    // After the long flows converge, probe with 30 short flows (20 KB).
    for k in 0..30u64 {
        topo.net.schedule_flow(
            SimTime::from_millis(100) + Duration::from_millis(k * 3),
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
    // Sample the switch queue (packets) every 100 µs over [100, 200] ms.
    let mut q = Vec::new();
    let mut t = SimTime::from_millis(100);
    while t <= SimTime::from_millis(200) {
        topo.net.run_until(t);
        q.push(topo.net.backlog(topo.switch, bport).1);
        t += Duration::from_micros(100);
    }
    topo.net.run_until(SimTime::from_millis(220));

    let probes: Vec<_> = topo
        .net
        .records()
        .iter()
        .filter(|r| r.flow.0 >= 100)
        .cloned()
        .collect();
    let fct = FctBreakdown::from_records(&probes);
    let avg_q = q.iter().sum::<u64>() as f64 / q.len() as f64;
    println!(
        "{label:16}  probe FCT avg {:7.1} us   p99 {:7.1} us   switch queue avg {avg_q:6.1} pkts",
        fct.overall.avg * 1e6,
        fct.overall.p99 * 1e6,
    );
}

fn main() {
    println!("ECN# quickstart: short-flow latency under RTT variation (3x, 70..210 us)\n");
    // Current practice: instantaneous threshold from the 90th-pct RTT
    // (K = 10 Gbps x 200 us = 250 KB).
    run("DCTCP-RED-Tail", || {
        Box::new(DctcpRed::with_threshold(250_000))
    });
    // ECN#: same instantaneous threshold as sojourn time, plus the
    // persistent-queue detector (pst_target 20 us, pst_interval 200 us).
    run("ECN#", || {
        Box::new(EcnSharp::new(EcnSharpConfig::new(
            Duration::from_micros(200),
            Duration::from_micros(20),
            Duration::from_micros(200),
        )))
    });
    println!("\nThe standing queue built by the small-RTT flow under the 250 KB");
    println!("threshold is pure latency for the probes; ECN#'s conservative");
    println!("persistent marking drains it without costing the long flows their");
    println!("throughput (paper sections 2.3 and 3.2).");
}
