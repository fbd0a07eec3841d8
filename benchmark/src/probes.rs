//! Layer probes: standalone timed loops on each layer's public API,
//! sized from the counts of the workload they are run for.
//!
//! A probe gives the unit cost of one layer operation in isolation —
//! warm caches, no other layer interleaved — so `count × unit cost`
//! summed over the layers is a lower bound on the run wall, and what is
//! left over (`net.network.residual_ns_per_event`) is the dispatch,
//! routing and agent-callback cost that cannot be reached from outside.

use crate::scenario::SwitchPorts;
use ecnsharp_aqm::{PacketView, QueueState};
use ecnsharp_core::{EcnSharp, EcnSharpConfig};
use ecnsharp_net::port::bench_port;
use ecnsharp_net::{
    Action, Ctx, EgressPort, FlowCmd, FlowId, NodeId, NoopSubscriber, Packet, RingArena,
};
use ecnsharp_sim::{Duration, EventQueue, Rate, Rng, SimTime};
use ecnsharp_tofino::{TofinoEcnSharp, WrapCmp};
use ecnsharp_transport::{Receiver, Sender, SenderState, TcpConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per operation of `ops` operations timed from `start`.
fn per_op(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The hold model on an [`EventQueue`]: keep `depth` events pending and
/// repeatedly pop the earliest and schedule a successor, with successor
/// offsets uniform on `[0, 2 × depth × gap_ns]` so pops come `gap_ns`
/// apart on average. With `flows > 0`, every step also re-arms one of
/// `flows` cancellable timers an RTO (5 ms) ahead — the per-ACK pattern.
/// Returns nanoseconds per step.
fn hold(depth: u64, gap_ns: u64, steps: u64, flows: usize) -> f64 {
    let mut rng = Rng::seed_from_u64(0xB0DE);
    let spread = (2 * depth * gap_ns).max(2);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(rng.range_u64(0, spread)), i);
    }
    let mut tokens = vec![None; flows];
    let rto = Duration::from_millis(5);
    let start = Instant::now();
    for i in 0..steps {
        let (now, ev) = q.pop().expect("the hold model never drains the queue");
        q.schedule(now + Duration::from_nanos(rng.range_u64(0, spread)), ev);
        if flows > 0 {
            let slot = i as usize % flows;
            tokens[slot] = Some(q.rearm_timer(tokens[slot], now + rto, slot as u64));
        }
    }
    black_box(q.len());
    per_op(start, steps)
}

/// `sim.queue.probe_ns_per_event`: schedule + pop at the workload's peak
/// pending depth and mean event gap.
pub fn queue_ns_per_event(peak_pending: u64, gap_ns: u64, steps: u64) -> f64 {
    hold(peak_pending.max(1), gap_ns.max(1), steps, 0)
}

/// `sim.wheel.probe_ns_per_rearm`: the extra cost per step of re-arming
/// one of `flows` timers, over the same hold loop without timers.
pub fn wheel_ns_per_rearm(peak_pending: u64, gap_ns: u64, steps: u64, flows: usize) -> f64 {
    let (depth, gap) = (peak_pending.max(1), gap_ns.max(1));
    (hold(depth, gap, steps, flows.max(1)) - hold(depth, gap, steps, 0)).max(0.0)
}

/// Enqueue bursts of eight full-size packets and drain them, `n` packets
/// in all: the forwarding path of one egress port, AQM included.
fn port_churn(port: &mut EgressPort, arena: &mut RingArena, n: u64) -> f64 {
    let (src, dst) = (NodeId(0), NodeId(1));
    let mut sub = NoopSubscriber;
    let mut now = SimTime::ZERO;
    let mut sent = 0u64;
    let start = Instant::now();
    for i in 0..n {
        let pkt = Packet::data(FlowId(1 + i % 64), src, dst, (i % 1_000) * 1_460, 1_460);
        port.bench_enqueue(now, pkt, arena, &mut sub);
        if i % 8 == 7 {
            while let Some((_, tx)) = port.bench_next_tx(now, || 0.5, arena, &mut sub) {
                now += tx;
                sent += 1;
            }
        }
        now += Duration::from_nanos(100);
    }
    black_box(sent);
    per_op(start, n)
}

/// `net.port.probe_ns_per_pkt` and `…_pooled`: the workload's switch port
/// on a private FIFO and on a [`RingArena`].
pub fn port_ns_per_pkt(ports: &SwitchPorts, n: u64) -> (f64, f64) {
    let mut private = bench_port(ports.make());
    let fifo = port_churn(&mut private, &mut RingArena::new(), n);
    let mut pooled = bench_port(ports.make());
    let mut arena = RingArena::new();
    pooled.bench_pool_ring(&mut arena);
    (fifo, port_churn(&mut pooled, &mut arena, n))
}

/// `net.packet.probe_ns_per_clone`: the per-hop copy — clone, re-mark,
/// store — over a working set of `n` packets.
pub fn packet_ns_per_clone(n: u64) -> f64 {
    let pkts: Vec<Packet> = (0..n)
        .map(|i| {
            Packet::data(
                FlowId(i % 512),
                NodeId(0),
                NodeId(1),
                (i % 1_000) * 1_460,
                1_460,
            )
        })
        .collect();
    let mut copies: Vec<Packet> = Vec::with_capacity(pkts.len());
    let start = Instant::now();
    for (i, p) in pkts.iter().enumerate() {
        let mut q = p.clone();
        q.set_class((i % 8) as u8);
        copies.push(q);
    }
    black_box(copies.iter().map(|p| p.seq() + p.payload()).sum::<u64>());
    per_op(start, n)
}

/// Sojourn seen by the `k`-th dequeue of the decision probes: a ramp
/// from empty to 400 µs and back every 4 096 packets, crossing every
/// scheme's thresholds in both directions.
fn ramp_sojourn_ns(k: u64) -> u64 {
    let phase = k % 4_096;
    phase.min(4_096 - phase) * 195
}

/// Line-rate spacing of full-size packets at 10 Gbps.
const PKT_GAP_NS: u64 = 1_230;

/// `aqm.probe_ns_per_decision`: `Aqm::on_dequeue` of the workload's
/// scheme over the sojourn ramp.
pub fn aqm_ns_per_decision(ports: &SwitchPorts, n: u64) -> f64 {
    let mut aqm = ports.make().aqm;
    let mut verdicts = 0u64;
    let start = Instant::now();
    for k in 0..n {
        let now = SimTime::from_nanos(1_000_000 + k * PKT_GAP_NS);
        let sojourn = ramp_sojourn_ns(k);
        let q = QueueState {
            backlog_bytes: sojourn * 10 / 8,
            backlog_pkts: sojourn * 10 / 8 / 1_538,
            capacity_bytes: ports.buffer,
            drain_rate: Rate::from_gbps(10),
        };
        let pkt = PacketView {
            bytes: 1_538,
            ect: true,
            enqueued_at: now - Duration::from_nanos(sojourn),
        };
        verdicts += u64::from(aqm.on_dequeue(now, &q, &pkt) != ecnsharp_aqm::DequeueVerdict::Pass);
    }
    black_box(verdicts);
    per_op(start, n)
}

/// `core.marker.probe_ns_per_decision`: the reference ECN♯ marker
/// (Algorithm 1 + 2) over the sojourn ramp.
pub fn marker_ns_per_decision(n: u64) -> f64 {
    let mut marker = EcnSharp::new(EcnSharpConfig::paper_testbed());
    let mut marks = 0u64;
    let start = Instant::now();
    for k in 0..n {
        let now = SimTime::from_nanos(1_000_000 + k * PKT_GAP_NS);
        let reason = marker.decide(now, Duration::from_nanos(ramp_sojourn_ns(k)));
        marks += u64::from(reason != ecnsharp_core::MarkReason::None);
    }
    black_box(marks);
    per_op(start, n)
}

/// `tofino.pipeline.probe_ns_per_decision`: the match-action pipeline
/// model of the same marker.
pub fn pipeline_ns_per_decision(n: u64) -> f64 {
    let mut pipe = TofinoEcnSharp::new(EcnSharpConfig::paper_testbed(), 1, 0, WrapCmp::CorrectedLt);
    let mut marks = 0u64;
    let start = Instant::now();
    for k in 0..n {
        let now = 1_000_000 + k * PKT_GAP_NS;
        marks += u64::from(pipe.on_dequeue_raw(now, now - ramp_sojourn_ns(k)));
    }
    black_box(marks);
    per_op(start, n)
}

fn probe_flow(id: u64, size: u64) -> FlowCmd {
    FlowCmd {
        flow: FlowId(id),
        src: NodeId(0),
        dst: NodeId(1),
        size,
        class: 0,
        extra_delay: Duration::ZERO,
    }
}

/// `transport.probe_ns_per_ack`: one loss-free DCTCP flow of `bytes`
/// bytes, data and ACKs handed straight from `Sender` to `Receiver` and
/// back through detached contexts. One "ack" is a full clock tick: the
/// receiver takes a data segment, the sender takes the ACK it triggers.
pub fn transport_ns_per_ack(bytes: u64) -> f64 {
    let cfg = TcpConfig::dctcp();
    let cmd = probe_flow(1, bytes);
    let mut actions: Vec<Action> = Vec::new();
    let mut wire: VecDeque<Packet> = VecDeque::new();
    let mut now = SimTime::from_micros(1);
    let start = Instant::now();
    let mut tx = Sender::start(
        cmd.clone(),
        cfg,
        &mut Ctx::detached(now, cmd.src, &mut actions),
    );
    let mut rx = Receiver::new(cmd.flow, cmd.dst, cmd.src, cmd.class, cfg);
    let mut acks = 0u64;
    loop {
        // Timer actions are dropped: nothing is lost, so no timer of
        // the flow ever needs to fire.
        wire.extend(actions.drain(..).filter_map(|a| match a {
            Action::Send(pkt, _) => Some(pkt),
            _ => None,
        }));
        let Some(pkt) = wire.pop_front() else { break };
        now += Duration::from_nanos(PKT_GAP_NS);
        let mut ctx = Ctx::detached(now, pkt.dst, &mut actions);
        if pkt.dst == cmd.dst {
            rx.on_packet(&mut ctx, &pkt);
        } else {
            tx.on_ack(&mut ctx, &pkt);
            acks += 1;
        }
    }
    assert_eq!(
        tx.state,
        SenderState::Done,
        "the probe flow runs to completion"
    );
    per_op(start, acks)
}

/// `transport.probe_ns_per_flow_start`: `Sender::start` (SYN + RTO arm)
/// plus `Receiver::new`, `n` times.
pub fn transport_ns_per_flow_start(n: u64) -> f64 {
    let cfg = TcpConfig::dctcp();
    let mut actions: Vec<Action> = Vec::new();
    let start = Instant::now();
    for id in 0..n {
        let cmd = probe_flow(id, 20_000);
        let mut ctx = Ctx::detached(SimTime::from_micros(id), cmd.src, &mut actions);
        let tx = Sender::start(cmd.clone(), cfg, &mut ctx);
        let rx = Receiver::new(cmd.flow, cmd.dst, cmd.src, cmd.class, cfg);
        black_box((&tx, &rx));
        actions.clear();
    }
    per_op(start, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;

    #[test]
    fn every_probe_returns_a_positive_cost() {
        let ports = Workload::StarWebsearch.params(1, true).switch_ports();
        assert!(queue_ns_per_event(500, 200, 20_000) > 0.0);
        assert!(wheel_ns_per_rearm(500, 200, 20_000, 16) >= 0.0);
        let (fifo, pooled) = port_ns_per_pkt(&ports, 20_000);
        assert!(fifo > 0.0 && pooled > 0.0);
        assert!(packet_ns_per_clone(10_000) > 0.0);
        assert!(aqm_ns_per_decision(&ports, 20_000) > 0.0);
        assert!(marker_ns_per_decision(20_000) > 0.0);
        assert!(pipeline_ns_per_decision(20_000) > 0.0);
        assert!(transport_ns_per_ack(2_000_000) > 0.0);
        assert!(transport_ns_per_flow_start(1_000) > 0.0);
    }

    #[test]
    fn ramp_covers_zero_to_400_us() {
        let max = (0..4_096).map(ramp_sojourn_ns).max().unwrap();
        assert_eq!(ramp_sojourn_ns(0), 0);
        assert!((390_000..=400_000).contains(&max));
    }
}
