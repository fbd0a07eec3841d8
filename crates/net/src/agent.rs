//! Host agents: the pluggable endpoint logic (a TCP stack, a traffic sink,
//! a probe generator) that a [`crate::Network`] drives with packets, timers
//! and flow commands.

use crate::ids::{FlowId, NodeId};
use crate::packet::Packet;
use ecnsharp_sim::{Duration, SimTime};
#[cfg(feature = "telemetry")]
use ecnsharp_telemetry::TransportEvent;

/// An instruction to a source host: "open a flow of `size` bytes to `dst`".
#[derive(Debug, Clone)]
pub struct FlowCmd {
    /// Unique flow identifier.
    pub flow: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes to deliver.
    pub size: u64,
    /// Service class for multi-queue schedulers.
    pub class: u8,
    /// Extra one-way processing delay the *sender* adds to every packet of
    /// this flow — the netem emulation of base-RTT variation (§2.3): the
    /// flow's base RTT becomes network RTT + `extra_delay`.
    pub extra_delay: Duration,
}

/// How a flow ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Every application byte was delivered and acknowledged.
    Completed,
    /// The sender gave up (e.g. `max_rto_retries` consecutive timeouts on
    /// a dead path) — the flow terminated without delivering its bytes.
    Failed,
}

/// A finished flow (completed or aborted), as recorded by the network.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// The flow.
    pub flow: FlowId,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Application bytes.
    pub size: u64,
    /// When the source agent was told to start.
    pub start: SimTime,
    /// When the source agent reported completion (last byte acked).
    pub finish: SimTime,
    /// Service class.
    pub class: u8,
    /// Retransmission timeouts suffered (diagnostics for incast analyses).
    pub timeouts: u32,
    /// Whether the flow completed or was aborted by the sender.
    pub outcome: FlowOutcome,
}

impl FlowRecord {
    /// Flow completion time. For a [`FlowOutcome::Failed`] flow this is the
    /// time from start to abort, not a delivery time — FCT statistics must
    /// exclude failed flows (see `ecnsharp-stats`).
    pub fn fct(&self) -> Duration {
        self.finish.saturating_since(self.start)
    }
}

/// How much per-flow endpoint state is resident — the observer of the
/// transport's flow-state lifecycle. One agent's count from
/// [`Agent::flow_state`]; summed over every host by
/// [`crate::Network::flow_state`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowState {
    /// Sending flows with full sender state resident.
    pub live_senders: usize,
    /// Receiving flows with full receiver state resident.
    pub live_receivers: usize,
    /// Receiving flows reduced to what answers a late duplicate.
    pub closed_receivers: usize,
}

/// Side effects an agent callback can request.
#[derive(Debug)]
pub enum Action {
    /// Transmit a packet from this host's NIC, after an artificial
    /// processing delay (the netem knob; [`Duration::ZERO`] for none).
    Send(Packet, Duration),
    /// Arm (or re-arm) the cancellable timer identified by `key` on this
    /// node to fire [`Agent::on_timer`] at absolute time `at`. Backed by
    /// the engine's hierarchical timer wheel: a previously armed timer
    /// with the same key is silently replaced without ever reaching the
    /// event queue's pop path.
    ArmTimer(SimTime, u64),
    /// Cancel the armed timer identified by `key` on this node, if any.
    CancelTimer(u64),
    /// Report a flow as complete (FCT bookkeeping) with a timeout count.
    FlowDone(FlowId, u32),
    /// Report a flow as aborted after the given number of timeouts — the
    /// sender gave up (graceful degradation) instead of retrying forever.
    FlowFailed(FlowId, u32),
    /// A transport-owned memory budget (e.g. receiver reassembly state)
    /// exceeded its ceiling: `live` entries against `ceiling`. The engine
    /// latches the run's first breach as
    /// [`SimError::MemBudgetExceeded`](ecnsharp_sim::SimError) and the
    /// fallible entry points fail fast with it.
    MemBreach {
        /// Live entries at the breaching admission.
        live: u64,
        /// The configured ceiling.
        ceiling: u64,
    },
}

/// Callback context handed to agents; collects requested actions and
/// (when a telemetry subscriber is attached) transport events.
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The host this agent lives on.
    pub node: NodeId,
    pub(crate) actions: &'a mut Vec<Action>,
    /// Transport-event buffer, present only when the network's subscriber
    /// is enabled (so detached/no-op paths never pay for the pushes).
    #[cfg(feature = "telemetry")]
    pub(crate) events: Option<&'a mut Vec<TransportEvent>>,
}

impl<'a> Ctx<'a> {
    /// Build a detached context collecting into `actions` — for unit tests
    /// of agents outside a running [`crate::Network`]. Transport events
    /// are discarded.
    pub fn detached(now: SimTime, node: NodeId, actions: &'a mut Vec<Action>) -> Ctx<'a> {
        Ctx {
            now,
            node,
            actions,
            #[cfg(feature = "telemetry")]
            events: None,
        }
    }

    /// Report a congestion-window update for telemetry (no-op unless a
    /// subscriber is attached).
    #[inline]
    pub fn emit_cwnd(&mut self, flow: FlowId, cwnd_bytes: u64, ssthresh_bytes: u64) {
        #[cfg(feature = "telemetry")]
        if let Some(events) = self.events.as_deref_mut() {
            events.push(TransportEvent::Cwnd {
                flow: flow.0,
                cwnd_bytes,
                ssthresh_bytes,
            });
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (flow, cwnd_bytes, ssthresh_bytes);
    }

    /// Report a DCTCP alpha fold for telemetry (no-op unless a subscriber
    /// is attached).
    #[inline]
    pub fn emit_alpha(&mut self, flow: FlowId, alpha: f64) {
        #[cfg(feature = "telemetry")]
        if let Some(events) = self.events.as_deref_mut() {
            events.push(TransportEvent::Alpha {
                flow: flow.0,
                alpha,
            });
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (flow, alpha);
    }

    /// Report a fired retransmission timeout for telemetry (no-op unless a
    /// subscriber is attached). `streak` is the consecutive-RTO count.
    #[inline]
    pub fn emit_rto(&mut self, flow: FlowId, streak: u32) {
        #[cfg(feature = "telemetry")]
        if let Some(events) = self.events.as_deref_mut() {
            events.push(TransportEvent::Rto {
                flow: flow.0,
                streak,
            });
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (flow, streak);
    }

    /// Send `pkt` out of this host's NIC immediately.
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(Action::Send(pkt, Duration::ZERO));
    }

    /// Send `pkt` after an artificial processing delay (netem emulation).
    pub fn send_delayed(&mut self, pkt: Packet, delay: Duration) {
        self.actions.push(Action::Send(pkt, delay));
    }

    /// Arm — or re-arm, replacing any pending deadline — the cancellable
    /// timer `key` to fire `after` from now. Re-arming never pushes a
    /// stale event through the queue (see [`Action::ArmTimer`]).
    pub fn arm_timer(&mut self, after: Duration, key: u64) {
        self.actions.push(Action::ArmTimer(self.now + after, key));
    }

    /// Cancel the pending cancellable timer `key`, if armed.
    pub fn cancel_timer(&mut self, key: u64) {
        self.actions.push(Action::CancelTimer(key));
    }

    /// Report that `flow` has completed (sender-side, last byte acked).
    pub fn flow_done(&mut self, flow: FlowId, timeouts: u32) {
        self.actions.push(Action::FlowDone(flow, timeouts));
    }

    /// Report that the sender has aborted `flow` after `timeouts`
    /// consecutive retransmission timeouts without forward progress.
    pub fn flow_failed(&mut self, flow: FlowId, timeouts: u32) {
        self.actions.push(Action::FlowFailed(flow, timeouts));
    }

    /// Report a transport-owned memory-budget breach (`live` entries
    /// against `ceiling`). Observation-only from the agent's point of
    /// view: the engine stops the run through the fallible entry points
    /// but never alters the agent's own state or scheduling.
    pub fn report_mem_breach(&mut self, live: u64, ceiling: u64) {
        self.actions.push(Action::MemBreach { live, ceiling });
    }
}

/// Endpoint logic attached to a host.
pub trait Agent: Send {
    /// A packet addressed to this host has arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// A timer armed via [`Ctx::arm_timer`] has reached its deadline.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64);

    /// The workload driver wants this host to start sending a flow.
    fn on_flow_cmd(&mut self, ctx: &mut Ctx<'_>, cmd: FlowCmd);

    /// Per-flow state this agent holds right now. Agents that keep none
    /// report zeros.
    fn flow_state(&self) -> FlowState {
        FlowState::default()
    }
}

/// A trivial agent that ignores everything — placeholder for pure-sink
/// hosts and unit tests.
#[derive(Debug, Default)]
pub struct NullAgent;

impl Agent for NullAgent {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _key: u64) {}
    fn on_flow_cmd(&mut self, _ctx: &mut Ctx<'_>, _cmd: FlowCmd) {}
}

/// An agent that echoes every data packet back to its source as an ACK —
/// handy for RTT probes and engine tests.
#[derive(Debug, Default)]
pub struct EchoAgent;

impl Agent for EchoAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if !pkt.flags().ack {
            let reply = Packet::ack(pkt.flow, pkt.dst, pkt.src, pkt.seq_end());
            ctx.send(reply);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _key: u64) {}
    fn on_flow_cmd(&mut self, _ctx: &mut Ctx<'_>, _cmd: FlowCmd) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_actions() {
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(5), NodeId(0), &mut actions);
        ctx.send(Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 100));
        ctx.arm_timer(Duration::from_micros(10), 7);
        ctx.flow_done(FlowId(1), 0);
        assert_eq!(actions.len(), 3);
        match &actions[1] {
            Action::ArmTimer(at, key) => {
                assert_eq!(*at, SimTime::from_micros(15));
                assert_eq!(*key, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn echo_agent_acks_data() {
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1), &mut actions);
        let mut agent = EchoAgent;
        let data = Packet::data(FlowId(3), NodeId(0), NodeId(1), 100, 200);
        agent.on_packet(&mut ctx, data);
        match &actions[0] {
            Action::Send(p, _) => {
                assert!(p.flags().ack);
                assert_eq!(p.ack_no(), 300);
                assert_eq!(p.dst, NodeId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        // ACKs are not echoed (no loops).
        actions.clear();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1), &mut actions);
        agent.on_packet(&mut ctx, Packet::ack(FlowId(3), NodeId(0), NodeId(1), 5));
        assert!(actions.is_empty());
    }

    #[test]
    fn flow_record_fct() {
        let r = FlowRecord {
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1000,
            start: SimTime::from_micros(100),
            finish: SimTime::from_micros(350),
            class: 0,
            timeouts: 0,
            outcome: FlowOutcome::Completed,
        };
        assert_eq!(r.fct(), Duration::from_micros(250));
    }
}
