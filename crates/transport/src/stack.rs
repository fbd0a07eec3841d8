//! The TCP stack as a network [`Agent`]: demultiplexes packets and timers
//! to per-flow [`Sender`]/[`Receiver`] state.

use crate::config::TcpConfig;
use crate::conn::{parse_timer_key, Receiver, Sender, SenderState, TimerKind};
use ecnsharp_net::{Agent, Ctx, FlowCmd, FlowId, Packet};
use std::collections::BTreeMap;

/// A host's transport stack: any number of concurrent sending and
/// receiving flows.
pub struct TcpStack {
    cfg: TcpConfig,
    senders: BTreeMap<FlowId, Sender>,
    receivers: BTreeMap<FlowId, Receiver>,
}

impl TcpStack {
    /// Create a stack with the given transport configuration.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpStack {
            cfg,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
        }
    }

    /// Boxed constructor, convenient for topology builders.
    pub fn boxed(cfg: TcpConfig) -> Box<dyn Agent> {
        Box::new(TcpStack::new(cfg))
    }

    /// Number of sending flows not yet complete (or given up).
    pub fn active_senders(&self) -> usize {
        self.senders
            .values()
            .filter(|s| !matches!(s.state, SenderState::Done | SenderState::Failed))
            .count()
    }

    /// Inspect a sender (tests and diagnostics).
    pub fn sender(&self, flow: FlowId) -> Option<&Sender> {
        self.senders.get(&flow)
    }
}

impl Agent for TcpStack {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.flags().ack {
            // ACK or SYN-ACK: for one of our senders.
            if let Some(s) = self.senders.get_mut(&pkt.flow) {
                s.on_ack(ctx, &pkt);
            }
        } else {
            // SYN or data: for one of our receivers (created on demand —
            // the SYN usually creates it, but a retransmitted first data
            // segment must not crash a fresh receiver).
            let r = self.receivers.entry(pkt.flow).or_insert_with(|| {
                Receiver::new(pkt.flow, pkt.dst, pkt.src, pkt.class(), self.cfg)
            });
            r.on_packet(ctx, &pkt);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        let (flow, kind) = parse_timer_key(key);
        match kind {
            TimerKind::Rto => {
                if let Some(s) = self.senders.get_mut(&flow) {
                    if !matches!(s.state, SenderState::Done | SenderState::Failed) {
                        s.on_rto(ctx);
                    }
                }
            }
            TimerKind::DelAck => {
                if let Some(r) = self.receivers.get_mut(&flow) {
                    r.on_delack_timer(ctx);
                }
            }
        }
    }

    fn on_flow_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: FlowCmd) {
        let flow = cmd.flow;
        debug_assert!(
            !self.senders.contains_key(&flow),
            "duplicate flow id {flow}"
        );
        let sender = Sender::start(cmd, self.cfg, ctx);
        self.senders.insert(flow, sender);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_aqm::{DctcpRed, DropTail, Tcn};
    use ecnsharp_net::topology::{dumbbell, star, Dumbbell};
    use ecnsharp_net::{NodeId, PortConfig};
    use ecnsharp_sim::{Duration, Rate, SimTime};

    fn plain() -> PortConfig {
        PortConfig::fifo(1_000_000, Box::new(DropTail::new()))
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
        d.net.add_queue_monitor(
            s1,
            bp,
            Duration::from_micros(50),
            SimTime::from_millis(20),
            SimTime::from_millis(75),
        );
        d.net.run_until_idle();
        let r = &d.net.records()[0];
        let gbps = (r.size * 8) as f64 / r.fct().as_secs_f64() / 1e9;
        assert!(gbps > 8.0, "goodput {gbps} Gbps");
        // Queue stays bounded near K (not at buffer cap).
        let m = &d.net.monitors()[0];
        let max_q = m.samples.iter().map(|&(_, b, _)| b).max().unwrap();
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
        let cfg = PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_fault_drop(0.01);
        let mut d = dumbbell_with(cfg, TcpConfig::dctcp());
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, 2_000_000));
        d.net.run_until_idle();
        assert_eq!(d.net.records().len(), 1, "flow must complete despite drops");
        let drops = d.net.port_stats(d.s1, d.bottleneck_port).fault_drops;
        assert!(drops > 0, "fault injection must have fired");
    }

    #[test]
    fn dead_path_gives_up_with_failed_outcome() {
        // 100% wire loss on the bottleneck: a permanently dead path. The
        // flow must terminate with a Failed outcome after max_rto_retries
        // instead of hanging the simulation on endless backoffs.
        let cfg = PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_fault_drop(1.0);
        let tcp = TcpConfig::dctcp();
        let mut d = dumbbell_with(cfg, tcp);
        let (a, b) = (d.a, d.b);
        d.net.schedule_flow(SimTime::ZERO, flow(1, a, b, 1_000_000));
        d.net.run_until_idle();
        assert_eq!(d.net.records().len(), 1);
        let r = &d.net.records()[0];
        assert_eq!(r.outcome, ecnsharp_net::FlowOutcome::Failed);
        assert_eq!(r.timeouts, tcp.max_rto_retries);
        assert_eq!(d.net.unfinished_flows(), 0, "abort clears pending state");
        assert_eq!(d.net.perf().flows_failed, 1);
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
        d.net.add_queue_monitor(
            s1,
            bp,
            Duration::from_micros(50),
            SimTime::from_millis(10),
            SimTime::from_millis(40),
        );
        d.net.run_until_idle();
        let m = &d.net.monitors()[0];
        // 50 us sojourn at 10 Gbps ≈ 62.5 KB; queue must stay well below
        // an unmarked BDP-sized standing queue.
        let avg_q: f64 =
            m.samples.iter().map(|&(_, b, _)| b as f64).sum::<f64>() / m.samples.len() as f64;
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
    }

    #[test]
    fn ecn_tcp_halves_instead_of_proportional() {
        // Both run over a marking bottleneck; DCTCP should sustain higher
        // goodput than ECN-TCP at an aggressive (low) threshold because its
        // cuts are proportional.
        let run = |cfg: TcpConfig| {
            let mut d = dumbbell_with(
                PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(30_000))),
                cfg,
            );
            let (a, b) = (d.a, d.b);
            d.net
                .schedule_flow(SimTime::ZERO, flow(1, a, b, 30_000_000));
            d.net.run_until_idle();
            let r = &d.net.records()[0];
            (r.size * 8) as f64 / r.fct().as_secs_f64() / 1e9
        };
        let dctcp = run(TcpConfig::dctcp());
        let ecn = run(TcpConfig::ecn_tcp());
        assert!(
            dctcp > ecn * 1.02,
            "dctcp {dctcp} Gbps vs ecn-tcp {ecn} Gbps"
        );
    }
}
