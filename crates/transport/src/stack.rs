//! The TCP stack as a network [`Agent`]: demultiplexes packets and timers
//! to per-flow [`Sender`]/[`Receiver`] state.
//!
//! # Flow-state lifecycle
//!
//! Per-flow state follows the flow. A [`Sender`] leaves the table in the
//! callback that reports the flow done or failed; a later ACK or RTO
//! token for it finds no entry and is dropped. A [`Receiver`] leaves when
//! it closes — every byte up to the FIN held, no ACK owed — and only its
//! `rcv_nxt` stays behind, which is all it takes to answer a late
//! duplicate the way the live receiver would have (DESIGN.md "Flow-state
//! lifecycle" has the argument, `conn.rs` the property test). A receiver
//! whose FIN never lands (its sender gave up) stays live: nothing tells
//! it the flow is over.

use crate::config::TcpConfig;
use crate::conn::{parse_timer_key, Receiver, Sender, TimerKind};
use ecnsharp_net::{Agent, Ctx, FlowCmd, FlowId, FlowState, Packet};
use std::collections::btree_map::{BTreeMap, Entry};

/// A host's transport stack: any number of concurrent sending and
/// receiving flows.
pub struct TcpStack {
    cfg: TcpConfig,
    /// Sending flows in progress.
    senders: BTreeMap<FlowId, Sender>,
    /// Receiving flows in progress.
    receivers: BTreeMap<FlowId, Receiver>,
    /// `rcv_nxt` of every receiver that has closed.
    closed: BTreeMap<FlowId, u64>,
}

impl TcpStack {
    /// Create a stack with the given transport configuration.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpStack {
            cfg,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            closed: BTreeMap::new(),
        }
    }

    /// Boxed constructor, convenient for topology builders.
    pub fn boxed(cfg: TcpConfig) -> Box<dyn Agent> {
        Box::new(TcpStack::new(cfg))
    }

    /// Run `f` on `flow`'s sender, if the flow is still in progress, and
    /// free the sender if that finished it.
    fn with_sender(&mut self, flow: FlowId, f: impl FnOnce(&mut Sender)) {
        if let Entry::Occupied(mut e) = self.senders.entry(flow) {
            f(e.get_mut());
            if e.get().is_finished() {
                e.remove();
            }
        }
    }

    /// Replace `flow`'s receiver, which has just closed, by its `rcv_nxt`.
    fn close_receiver(&mut self, flow: FlowId) {
        if let Some(r) = self.receivers.remove(&flow) {
            self.closed.insert(flow, r.rcv_nxt);
        }
    }
}

impl Agent for TcpStack {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        let flow = pkt.flow;
        if pkt.flags().ack {
            // ACK or SYN-ACK: for one of our senders.
            self.with_sender(flow, |s| s.on_ack(ctx, &pkt));
            return;
        }
        // SYN or data: for one of our receivers, created on demand (the
        // SYN usually creates it, but a retransmitted first data segment
        // must not crash a fresh receiver) unless it has come and gone.
        let r = match self.receivers.entry(flow) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                if let Some(&rcv_nxt) = self.closed.get(&flow) {
                    Receiver::answer_closed(ctx, &pkt, rcv_nxt);
                    return;
                }
                v.insert(Receiver::new(flow, pkt.dst, pkt.src, pkt.class(), self.cfg))
            }
        };
        r.on_packet(ctx, &pkt);
        if r.is_closed() {
            self.close_receiver(flow);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        let (flow, kind) = parse_timer_key(key);
        match kind {
            TimerKind::Rto => self.with_sender(flow, |s| s.on_rto(ctx)),
            // A token that outlives its receiver is a no-op, as it would
            // have been live: a closed receiver owes no ACK.
            TimerKind::DelAck => {
                if let Some(r) = self.receivers.get_mut(&flow) {
                    r.on_delack_timer(ctx);
                    if r.is_closed() {
                        self.close_receiver(flow);
                    }
                }
            }
        }
    }

    fn on_flow_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: FlowCmd) {
        let flow = cmd.flow;
        let sender = Sender::start(cmd, self.cfg, ctx);
        self.senders.insert(flow, sender);
    }

    fn flow_state(&self) -> FlowState {
        FlowState {
            live_senders: self.senders.len(),
            live_receivers: self.receivers.len(),
            closed_receivers: self.closed.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::timer_key;
    use ecnsharp_aqm::{DctcpRed, DropTail, Tcn};
    use ecnsharp_net::topology::{dumbbell, leaf_spine, star, Dumbbell};
    use ecnsharp_net::{Action, GilbertElliott, NodeId, PortConfig};
    use ecnsharp_sim::{Duration, Rate, SimTime};

    fn plain() -> PortConfig {
        PortConfig::fifo(1_000_000, Box::new(DropTail::new()))
    }

    /// [`plain`] losing each packet on the wire independently with
    /// probability `p`: a Gilbert–Elliott chain that never leaves its good
    /// state.
    fn lossy(p: f64) -> PortConfig {
        plain().with_ge(GilbertElliott::new(0.0, 1.0, 0.0, p))
    }

    fn dumbbell_with(bottleneck: PortConfig, cfg: TcpConfig) -> Dumbbell {
        dumbbell(
            7,
            Rate::from_gbps(40),
            Rate::from_gbps(10),
            Duration::from_micros(5),
            TcpStack::boxed(cfg),
            TcpStack::boxed(cfg),
            plain,
            bottleneck,
        )
    }

    /// Bottleneck backlog in bytes, read every 50 µs over `[from, until]`
    /// after every event at each instant.
    fn bottleneck_bytes(d: &mut Dumbbell, from: SimTime, until: SimTime) -> Vec<u64> {
        let mut samples = Vec::new();
        let mut t = from;
        while t <= until {
            d.net.run_until(t);
            samples.push(d.net.backlog(d.s1, d.bottleneck_port).0);
            t += Duration::from_micros(50);
        }
        samples
    }

    fn residue(live_senders: usize, live_receivers: usize, closed_receivers: usize) -> FlowState {
        FlowState {
            live_senders,
            live_receivers,
            closed_receivers,
        }
    }

    fn flow(id: u64, src: NodeId, dst: NodeId, size: u64) -> FlowCmd {
        FlowCmd {
            flow: FlowId(id),
            src,
            dst,
            size,
            class: 0,
            extra_delay: Duration::ZERO,
        }
    }

    #[test]
    fn single_small_flow_completes_in_two_rtts() {
        let mut d = dumbbell_with(plain(), TcpConfig::dctcp());
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, 1460));
        d.net.run_until_idle();
        assert_eq!(d.net.records().len(), 1);
        let r = &d.net.records()[0];
        // Base RTT ≈ 3 hops × (5us prop + ~1.2us tx) ≈ 40 us round trip
        // incl. handshake: FCT ≈ 2 RTT ≈ 80 us. Generous bounds:
        let fct = r.fct().as_micros_f64();
        assert!(fct > 40.0 && fct < 150.0, "fct {fct}us");
        assert_eq!(r.timeouts, 0);
    }

    #[test]
    fn large_flow_over_droptail_completes_despite_overshoot() {
        // Pure DropTail: slow start overshoots the 1 MB buffer and loses a
        // burst of segments; SACK-less NewReno then repairs one hole per
        // RTT (faithful to the ns-3-class transport the paper simulates),
        // so goodput lands below line rate but well above half.
        let mut d = dumbbell_with(plain(), TcpConfig::dctcp());
        let (a, b) = (d.a, d.b);
        let size = 50_000_000u64; // 50 MB
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, size));
        d.net.run_until_idle();
        let r = &d.net.records()[0];
        let gbps = (size * 8) as f64 / r.fct().as_secs_f64() / 1e9;
        assert!(gbps > 5.0, "goodput {gbps} Gbps");
        let drops = d.net.port_stats(d.s1, d.bottleneck_port).total_drops();
        assert!(drops > 0, "DropTail must have overflowed during slow start");
    }

    #[test]
    fn large_flow_with_ecn_marking_reaches_line_rate() {
        // With a marking AQM at BDP-scale threshold, DCTCP holds the
        // bottleneck at full utilization with zero drops — the behaviour
        // every paper experiment relies on.
        let mut d = dumbbell_with(
            PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(65_000))),
            TcpConfig::dctcp(),
        );
        let (a, b) = (d.a, d.b);
        let size = 50_000_000u64;
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, size));
        d.net.run_until_idle();
        let r = &d.net.records()[0];
        let gbps = (size * 8) as f64 / r.fct().as_secs_f64() / 1e9;
        assert!(gbps > 8.5, "goodput {gbps} Gbps");
        assert_eq!(r.timeouts, 0);
        assert_eq!(
            d.net.port_stats(d.s1, d.bottleneck_port).total_drops(),
            0,
            "ECN marking must prevent drops"
        );
    }

    #[test]
    fn dctcp_with_red_keeps_queue_near_threshold() {
        let k = 60_000u64;
        let mut d = dumbbell_with(
            PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(k))),
            TcpConfig::dctcp(),
        );
        let (a, b, s1, bp) = (d.a, d.b, d.s1, d.bottleneck_port);
        d.net
            .schedule_flow(SimTime::ZERO, flow(1, a, b, 100_000_000));
        let q = bottleneck_bytes(&mut d, SimTime::from_millis(20), SimTime::from_millis(75));
        d.net.run_until_idle();
        let r = &d.net.records()[0];
        let gbps = (r.size * 8) as f64 / r.fct().as_secs_f64() / 1e9;
        assert!(gbps > 8.0, "goodput {gbps} Gbps");
        // Queue stays bounded near K (not at buffer cap).
        let max_q = q.into_iter().max().unwrap();
        assert!(max_q < 4 * k, "queue peaked at {max_q} bytes");
        let marks = d.net.port_stats(s1, bp).enq_marks;
        assert!(marks > 0, "RED must have marked");
        assert_eq!(r.timeouts, 0);
    }

    #[test]
    fn two_flows_share_fairly() {
        // 3-host star: two senders, one receiver; equal-RTT DCTCP flows
        // should finish a same-size transfer at roughly the same time.
        let mut s = star(
            11,
            3,
            Rate::from_gbps(10),
            Duration::from_micros(5),
            |_| TcpStack::boxed(TcpConfig::dctcp()),
            plain,
            || PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(60_000))),
        );
        let (h0, h1, h2) = (s.hosts[0], s.hosts[1], s.hosts[2]);
        s.net
            .schedule_flow(SimTime::ZERO, flow(1, h0, h2, 20_000_000));
        s.net
            .schedule_flow(SimTime::ZERO, flow(2, h1, h2, 20_000_000));
        s.net.run_until_idle();
        let recs = s.net.records();
        assert_eq!(recs.len(), 2);
        let f1 = recs.iter().find(|r| r.flow == FlowId(1)).unwrap().fct();
        let f2 = recs.iter().find(|r| r.flow == FlowId(2)).unwrap().fct();
        let ratio = f1.as_secs_f64() / f2.as_secs_f64();
        assert!((0.7..1.4).contains(&ratio), "unfair: {ratio}");
        // Combined goodput ≈ line rate.
        let total_t = f1.max(f2).as_secs_f64();
        let gbps = (40_000_000u64 * 8) as f64 / total_t / 1e9;
        assert!(gbps > 8.0, "aggregate {gbps} Gbps");
    }

    #[test]
    fn recovers_from_random_drops() {
        // 1% wire drops on the bottleneck: the flow must still complete.
        let mut d = dumbbell_with(lossy(0.01), TcpConfig::dctcp());
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, 2_000_000));
        d.net.run_until_idle();
        assert_eq!(d.net.records().len(), 1, "flow must complete despite drops");
        let drops = d.net.port_stats(d.s1, d.bottleneck_port).burst_drops;
        assert!(drops > 0, "fault injection must have fired");
        // Retransmissions and all, the flow leaves one `rcv_nxt` behind.
        assert_eq!(d.net.flow_state(), residue(0, 0, 1));
    }

    #[test]
    fn dead_path_gives_up_with_failed_outcome() {
        // 100% wire loss on the bottleneck: a permanently dead path. The
        // flow must terminate with a Failed outcome after max_rto_retries
        // instead of hanging the simulation on endless backoffs.
        let tcp = TcpConfig::dctcp();
        let mut d = dumbbell_with(lossy(1.0), tcp);
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, 1_000_000));
        d.net.run_until_idle();
        assert_eq!(d.net.records().len(), 1);
        let r = &d.net.records()[0];
        assert_eq!(r.outcome, ecnsharp_net::FlowOutcome::Failed);
        assert_eq!(r.timeouts, tcp.max_rto_retries);
        assert_eq!(d.net.unfinished_flows(), 0, "abort clears pending state");
        assert_eq!(d.net.perf().flows_failed, 1);
        // Giving up frees the sender; no SYN ever reached `b`.
        assert_eq!(d.net.flow_state(), residue(0, 0, 0));
    }

    #[test]
    fn failed_flow_whose_syn_landed_leaves_its_receiver_live() {
        // The same dead link, flow reversed: every SYN reaches `a`, every
        // SYN-ACK dies on the way back. The sender gives up and is freed;
        // the receiver never sees a FIN, so nothing tells it the flow is
        // over and it stays live — the documented residue of a failure.
        let mut d = dumbbell_with(lossy(1.0), TcpConfig::dctcp());
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, b, a, 1_000_000));
        d.net.run_until_idle();
        assert_eq!(
            d.net.records()[0].outcome,
            ecnsharp_net::FlowOutcome::Failed
        );
        assert_eq!(d.net.flow_state(), residue(0, 1, 0));
    }

    #[test]
    fn zero_byte_flow_closes_its_receiver_at_the_syn() {
        let mut d = dumbbell_with(plain(), TcpConfig::dctcp());
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, 0));
        d.net.run_until_idle();
        assert_eq!(d.net.records().len(), 1);
        assert_eq!(d.net.records()[0].timeouts, 0);
        assert_eq!(d.net.flow_state(), residue(0, 0, 1));
    }

    #[test]
    fn ack_and_rto_token_for_a_freed_sender_do_nothing() {
        fn at(us: u64, actions: &mut Vec<Action>) -> Ctx<'_> {
            Ctx::detached(SimTime::from_micros(us), NodeId(0), actions)
        }
        let mut stack = TcpStack::new(TcpConfig::dctcp());
        let (a, b) = (NodeId(0), NodeId(1));
        let mut actions = Vec::new();
        stack.on_flow_cmd(&mut at(0, &mut actions), flow(1, a, b, 1460));
        let mut syn_ack = Packet::ack(FlowId(1), b, a, 0);
        syn_ack.set_syn(true);
        stack.on_packet(&mut at(50, &mut actions), syn_ack);
        assert_eq!(stack.flow_state(), residue(1, 0, 0));
        let ack = Packet::ack(FlowId(1), b, a, 1460);
        stack.on_packet(&mut at(100, &mut actions), ack.clone());
        // Freed in the callback that reported the flow done.
        assert_eq!(stack.flow_state(), residue(0, 0, 0));
        assert!(matches!(
            actions.last(),
            Some(Action::FlowDone(FlowId(1), 0))
        ));
        // A duplicate of the final ACK and a straggling RTO token find no
        // sender: no action, nothing resurrected.
        actions.clear();
        stack.on_packet(&mut at(150, &mut actions), ack);
        let rto = timer_key(FlowId(1), TimerKind::Rto);
        stack.on_timer(&mut at(10_000, &mut actions), rto);
        assert_eq!(stack.flow_state(), residue(0, 0, 0));
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn sojourn_marking_via_tcn_bounds_queueing() {
        let mut d = dumbbell_with(
            PortConfig::fifo(1_000_000, Box::new(Tcn::new(Duration::from_micros(50)))),
            TcpConfig::dctcp(),
        );
        let (a, b, s1, bp) = (d.a, d.b, d.s1, d.bottleneck_port);
        d.net
            .schedule_flow(SimTime::ZERO, flow(1, a, b, 50_000_000));
        let q = bottleneck_bytes(&mut d, SimTime::from_millis(10), SimTime::from_millis(40));
        d.net.run_until_idle();
        // 50 us sojourn at 10 Gbps ≈ 62.5 KB; queue must stay well below
        // an unmarked BDP-sized standing queue.
        let avg_q = q.iter().sum::<u64>() as f64 / q.len() as f64;
        assert!(avg_q < 150_000.0, "avg queue {avg_q} bytes");
        assert!(d.net.port_stats(s1, bp).deq_marks > 0);
    }

    #[test]
    fn delayed_acks_still_complete() {
        let cfg = TcpConfig {
            delack_count: 2,
            ..TcpConfig::dctcp()
        };
        let mut d = dumbbell_with(plain(), cfg);
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, 1_000_000));
        d.net.run_until_idle();
        assert_eq!(d.net.records().len(), 1);
        assert_eq!(d.net.records()[0].timeouts, 0);
    }

    #[test]
    fn many_concurrent_short_flows() {
        let mut s = star(
            13,
            8,
            Rate::from_gbps(10),
            Duration::from_micros(5),
            |_| TcpStack::boxed(TcpConfig::dctcp()),
            plain,
            || PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(80_000))),
        );
        let receiver = s.hosts[7];
        let mut id = 0;
        for round in 0..10u64 {
            for (i, &h) in s.hosts[..7].iter().enumerate() {
                id += 1;
                s.net.schedule_flow(
                    SimTime::from_micros(round * 100 + i as u64),
                    flow(id, h, receiver, 14_600),
                );
            }
        }
        s.net.run_until_idle();
        assert_eq!(s.net.records().len(), 70);
        assert_eq!(s.net.unfinished_flows(), 0);
        // Every sender freed at completion, every receiver closed at its
        // FIN: what stays is one `rcv_nxt` per flow.
        assert_eq!(s.net.flow_state(), residue(0, 0, 70));
    }

    #[test]
    fn sharded_run_leaves_the_same_flow_state_as_its_serial_twin() {
        // 2 spines × 2 leaves × 4 hosts, cross-leaf flows into a buffer
        // shallow enough to drop, one leaf per shard. Zero-byte and
        // one-segment flows ride along.
        let run = |sharded: bool| {
            let ls = leaf_spine(
                21,
                2,
                2,
                4,
                Rate::from_gbps(10),
                Rate::from_gbps(10),
                Duration::from_micros(1),
                |_| TcpStack::boxed(TcpConfig::dctcp()),
                plain,
                || PortConfig::fifo(30_000, Box::new(DropTail::new())),
            );
            let plan = ls.shard_plan(2);
            let mut net = ls.net;
            for f in 0..40u64 {
                let (src, dst) = ((f % 4) as usize, 4 + (f % 3) as usize);
                net.schedule_flow(
                    SimTime::from_nanos(211 * f),
                    flow(1 + f, ls.hosts[src], ls.hosts[dst], 1460 * (f % 9)),
                );
            }
            if sharded {
                net.run_sharded_until_idle(&plan);
            } else {
                net.run_until_idle();
            }
            assert!(net.perf().drops > 0, "the workload must lose packets");
            (net.flow_state(), format!("{:?}", net.records()))
        };
        let serial = run(false);
        assert_eq!(serial.0, residue(0, 0, 40));
        assert_eq!(serial, run(true));
    }
}
