//! Per-flow connection state: the sending side (congestion control, loss
//! recovery, RTO) and the receiving side (cumulative ACKs, out-of-order
//! reassembly, the DCTCP CE-echo state machine).
//!
//! The model is byte-counted TCP without SACK: slow start, congestion
//! avoidance, NewReno fast retransmit/recovery on three duplicate ACKs,
//! go-back-N on RTO with exponential backoff, and ECN reactions per
//! [`CcKind`]. This is the fidelity class of the ns-3 models the paper's
//! simulations use.

use crate::config::{CcKind, TcpConfig};
use crate::rtt::RttEstimator;
use ecnsharp_net::{Ctx, Ecn, FlowCmd, FlowId, NodeId, Packet};
use ecnsharp_sim::SimTime;
use std::collections::BTreeMap;

/// Sender connection states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderState {
    /// SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Data transfer in progress.
    Established,
    /// All bytes acknowledged; flow reported complete.
    Done,
    /// Aborted after `max_rto_retries` consecutive timeouts without
    /// forward progress; flow reported failed.
    Failed,
}

/// The sending half of a flow.
pub struct Sender {
    /// Immutable flow parameters.
    pub cmd: FlowCmd,
    cfg: TcpConfig,
    /// Connection state.
    pub state: SenderState,
    /// Lowest unacknowledged byte.
    pub snd_una: u64,
    /// Next byte to send.
    pub snd_nxt: u64,
    /// Congestion window in bytes.
    pub cwnd: f64,
    /// Slow-start threshold in bytes.
    pub ssthresh: f64,
    dupacks: u32,
    /// NewReno recovery point: `Some(snd_nxt at loss)` while recovering.
    recover: Option<u64>,
    /// RTT/RTO estimation.
    pub rtt: RttEstimator,
    backoff: u32,
    /// Consecutive RTOs without an intervening new ACK; at
    /// `max_rto_retries` the sender gives up (see [`SenderState::Failed`]).
    rto_streak: u32,
    /// Retransmission timeouts suffered.
    pub timeouts: u32,
    // ── DCTCP state ─────────────────────────────────────────────────────
    /// EWMA of the marked-byte fraction.
    pub alpha: f64,
    acked_bytes: u64,
    marked_bytes: u64,
    /// When `snd_una` passes this, fold the counters into `alpha`.
    alpha_seq: u64,
    /// Congestion-window-reduced until `snd_una` passes this (one reaction
    /// per window, both for DCTCP and ECN-TCP).
    cwr_end: Option<u64>,
}

impl Sender {
    /// Create a sender for `cmd` and emit its first packet (SYN).
    pub fn start(cmd: FlowCmd, cfg: TcpConfig, ctx: &mut Ctx<'_>) -> Self {
        let mut s = Sender {
            state: SenderState::SynSent,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: cfg.init_cwnd_bytes(),
            ssthresh: cfg.max_cwnd as f64,
            dupacks: 0,
            recover: None,
            rtt: RttEstimator::new(cfg.min_rto, cfg.max_rto, cfg.init_rto),
            backoff: 1,
            rto_streak: 0,
            timeouts: 0,
            alpha: cfg.dctcp_init_alpha,
            acked_bytes: 0,
            marked_bytes: 0,
            alpha_seq: 0,
            cwr_end: None,
            cmd,
            cfg,
        };
        s.send_syn(ctx);
        s.arm_rto(ctx);
        s
    }

    /// Has the flow been reported done or failed? Every callback of a
    /// finished sender is a no-op, so the stack frees it on the spot.
    pub(crate) fn is_finished(&self) -> bool {
        matches!(self.state, SenderState::Done | SenderState::Failed)
    }

    fn mss(&self) -> u64 {
        self.cfg.mss
    }

    fn send_syn(&mut self, ctx: &mut Ctx<'_>) {
        let mut p = Packet::data(self.cmd.flow, self.cmd.src, self.cmd.dst, 0, 0);
        p.set_syn(true);
        // A zero-byte flow has no last segment to carry the FIN.
        p.set_fin(self.cmd.size == 0);
        p.set_class(self.cmd.class);
        p.ts = ctx.now;
        ctx.send_delayed(p, self.cmd.extra_delay);
    }

    fn send_segment(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        let len = self.mss().min(self.cmd.size - seq);
        debug_assert!(len > 0);
        let mut p = Packet::data(self.cmd.flow, self.cmd.src, self.cmd.dst, seq, len);
        // The segment that ends the flow tells the receiver so (see
        // `Receiver::is_closed`); retransmissions of it say it again.
        p.set_fin(seq + len == self.cmd.size);
        p.set_class(self.cmd.class);
        p.ts = ctx.now;
        ctx.send_delayed(p, self.cmd.extra_delay);
    }

    /// Transmit whatever the window allows.
    fn send_available(&mut self, ctx: &mut Ctx<'_>) {
        let cwnd = (self.cwnd as u64).min(self.cfg.max_cwnd);
        while self.snd_nxt < self.cmd.size {
            let len = self.mss().min(self.cmd.size - self.snd_nxt);
            let in_flight = self.snd_nxt - self.snd_una;
            if in_flight + len > cwnd {
                break;
            }
            let seq = self.snd_nxt;
            self.send_segment(ctx, seq);
            self.snd_nxt += len;
        }
    }

    /// (Re-)arm the retransmission timer: the pending deadline on the
    /// engine's timer wheel is replaced in place.
    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        let timeout = self.rtt.rto() * self.backoff as u64;
        ctx.arm_timer(timeout, timer_key(self.cmd.flow, TimerKind::Rto));
    }

    /// Cancel the retransmission timer.
    fn disarm_rto(&mut self, ctx: &mut Ctx<'_>) {
        ctx.cancel_timer(timer_key(self.cmd.flow, TimerKind::Rto));
    }

    /// Handle an incoming ACK / SYN-ACK for this flow.
    pub fn on_ack(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        if self.is_finished() {
            return;
        }
        if pkt.flags().syn {
            // SYN-ACK: connection established.
            if self.state == SenderState::SynSent {
                self.state = SenderState::Established;
                if pkt.ts != SimTime::ZERO {
                    self.rtt.sample(ctx.now.saturating_since(pkt.ts));
                }
                self.backoff = 1;
                self.rto_streak = 0;
                if self.cmd.size == 0 {
                    self.complete(ctx);
                    return;
                }
                self.send_available(ctx);
                self.arm_rto(ctx);
            }
            return;
        }
        if self.state != SenderState::Established {
            return;
        }

        if pkt.ack_no() > self.snd_una {
            self.on_new_ack(ctx, pkt);
        } else if pkt.ack_no() == self.snd_una {
            self.on_dup_ack(ctx, pkt);
        }
    }

    fn on_new_ack(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let acked = pkt.ack_no() - self.snd_una;
        self.snd_una = pkt.ack_no();
        // A late ACK for data sent before an RTO's go-back-N rewind can
        // overtake snd_nxt; sending resumes from the ACK point.
        self.snd_nxt = self.snd_nxt.max(self.snd_una);
        self.dupacks = 0;
        self.backoff = 1;
        self.rto_streak = 0;
        if pkt.ts != SimTime::ZERO {
            self.rtt.sample(ctx.now.saturating_since(pkt.ts));
        }

        // DCTCP bookkeeping: every acked byte counts; ECE-carrying ACKs
        // contribute to the marked fraction.
        self.acked_bytes += acked;
        if pkt.flags().ece {
            self.marked_bytes += acked;
        }
        if self.snd_una >= self.alpha_seq {
            if let CcKind::Dctcp { g } = self.cfg.cc {
                if self.acked_bytes > 0 {
                    let frac = self.marked_bytes as f64 / self.acked_bytes as f64;
                    self.alpha = (1.0 - g) * self.alpha + g * frac;
                    ctx.emit_alpha(self.cmd.flow, self.alpha);
                }
            }
            self.acked_bytes = 0;
            self.marked_bytes = 0;
            self.alpha_seq = self.snd_nxt.max(self.snd_una + 1);
        }

        match self.recover {
            Some(recover) if self.snd_una < recover => {
                // Partial ACK inside recovery: the next hole is lost too.
                let seq = self.snd_una;
                self.send_segment(ctx, seq);
                self.arm_rto(ctx);
            }
            Some(_) => {
                // Recovery complete.
                self.recover = None;
                self.cwnd = self.ssthresh;
            }
            None => {
                // Normal growth.
                if self.cwnd < self.ssthresh {
                    // Slow start: one MSS per ACK (bounded by acked bytes).
                    self.cwnd += acked.min(self.mss()) as f64;
                } else {
                    // Congestion avoidance: ~one MSS per RTT.
                    self.cwnd += (self.mss() * self.mss()) as f64 / self.cwnd
                        * (acked as f64 / self.mss() as f64).min(1.0);
                }
                self.cwnd = self.cwnd.min(self.cfg.max_cwnd as f64);
            }
        }

        // ECN reaction, at most once per window, never during loss
        // recovery (loss already cut the window).
        if pkt.flags().ece && self.recover.is_none() {
            let past_cwr = self.cwr_end.is_none_or(|e| self.snd_una >= e);
            if past_cwr {
                let factor = match self.cfg.cc {
                    CcKind::Dctcp { .. } => 1.0 - self.alpha / 2.0,
                    CcKind::EcnTcp => 0.5,
                    CcKind::Reno => 1.0,
                };
                if factor < 1.0 {
                    self.cwnd = (self.cwnd * factor).max((2 * self.mss()) as f64);
                    self.ssthresh = self.cwnd;
                    self.cwr_end = Some(self.snd_nxt);
                }
            }
        }

        ctx.emit_cwnd(self.cmd.flow, self.cwnd as u64, self.ssthresh as u64);

        if self.snd_una >= self.cmd.size {
            self.complete(ctx);
            return;
        }
        self.send_available(ctx);
        self.arm_rto(ctx);
    }

    fn on_dup_ack(&mut self, ctx: &mut Ctx<'_>, _pkt: &Packet) {
        self.dupacks += 1;
        if self.recover.is_some() {
            // NewReno window inflation keeps the pipe full in recovery.
            self.cwnd += self.mss() as f64;
            self.send_available(ctx);
            return;
        }
        if self.dupacks == 3 {
            // Fast retransmit.
            let flight = (self.snd_nxt - self.snd_una) as f64;
            self.ssthresh = (flight / 2.0).max((2 * self.mss()) as f64);
            self.cwnd = self.ssthresh + (3 * self.mss()) as f64;
            self.recover = Some(self.snd_nxt);
            ctx.emit_cwnd(self.cmd.flow, self.cwnd as u64, self.ssthresh as u64);
            let seq = self.snd_una;
            self.send_segment(ctx, seq);
            self.arm_rto(ctx);
        }
    }

    /// RTO fired.
    pub fn on_rto(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            SenderState::Done | SenderState::Failed => {}
            SenderState::SynSent => {
                self.timeouts += 1;
                self.rto_streak += 1;
                ctx.emit_rto(self.cmd.flow, self.rto_streak);
                if self.rto_streak >= self.cfg.max_rto_retries {
                    self.fail(ctx);
                    return;
                }
                self.backoff = (self.backoff * 2).min(64);
                self.send_syn(ctx);
                self.arm_rto(ctx);
            }
            SenderState::Established => {
                if self.snd_una >= self.cmd.size {
                    return;
                }
                self.timeouts += 1;
                self.rto_streak += 1;
                ctx.emit_rto(self.cmd.flow, self.rto_streak);
                if self.rto_streak >= self.cfg.max_rto_retries {
                    self.fail(ctx);
                    return;
                }
                // Classic RTO reaction: collapse to one segment, go-back-N.
                self.ssthresh =
                    ((self.snd_nxt - self.snd_una) as f64 / 2.0).max((2 * self.mss()) as f64);
                self.cwnd = self.mss() as f64;
                ctx.emit_cwnd(self.cmd.flow, self.cwnd as u64, self.ssthresh as u64);
                self.snd_nxt = self.snd_una;
                self.dupacks = 0;
                self.recover = None;
                self.cwr_end = None;
                self.backoff = (self.backoff * 2).min(64);
                self.send_available(ctx);
                self.arm_rto(ctx);
            }
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>) {
        self.state = SenderState::Done;
        self.disarm_rto(ctx);
        ctx.flow_done(self.cmd.flow, self.timeouts);
    }

    /// Give up: the path is (effectively) dead. Stops all retransmission
    /// and reports the flow as failed so FCT accounting can count the
    /// abort without polluting completion-time statistics.
    fn fail(&mut self, ctx: &mut Ctx<'_>) {
        self.state = SenderState::Failed;
        self.disarm_rto(ctx);
        ctx.flow_failed(self.cmd.flow, self.timeouts);
    }
}

/// The receiving half of a flow.
pub struct Receiver {
    flow: FlowId,
    /// This host.
    me: NodeId,
    /// The sender to ACK back to.
    peer: NodeId,
    class: u8,
    cfg: TcpConfig,
    /// Next expected in-order byte.
    pub rcv_nxt: u64,
    /// One past the flow's last byte, once a FIN-stamped packet has said
    /// where that is (the last data segment, or the SYN of a zero-byte
    /// flow).
    fin_end: Option<u64>,
    /// Out-of-order segments: start → end (exclusive).
    ooo: BTreeMap<u64, u64>,
    // ── DCTCP CE-echo state machine (DCTCP paper §3.2) ──────────────────
    /// Last CE state observed.
    ce_state: bool,
    /// Data segments received since the last ACK.
    pending: u32,
    /// Whether a wheel delayed-ACK timer is currently armed.
    delack_armed: bool,
    /// Logical delayed-ACK deadline (only ever set with
    /// `delack_count > 1`; per-segment ACKs never wait). The physical
    /// wheel token is *not* cancelled when an ACK goes out and *not*
    /// re-armed on every data packet; instead this field tracks the
    /// deadline the receiver actually owes. A token firing with no
    /// deadline (`None`) is suppressed; one firing early (deadline still
    /// in the future) pushes the token forward in place. Cuts per-packet
    /// wheel traffic to at most one arm per quiet period while keeping ACK
    /// emission times identical to cancelling and re-arming per packet.
    delack_deadline: Option<SimTime>,
    /// Timestamp to echo on the next ACK.
    echo_ts: SimTime,
}

impl Receiver {
    /// Create receiver state upon the first packet of a flow.
    pub fn new(flow: FlowId, me: NodeId, peer: NodeId, class: u8, cfg: TcpConfig) -> Self {
        Receiver {
            flow,
            me,
            peer,
            class,
            cfg,
            rcv_nxt: 0,
            fin_end: None,
            ooo: BTreeMap::new(),
            ce_state: false,
            pending: 0,
            delack_armed: false,
            delack_deadline: None,
            echo_ts: SimTime::ZERO,
        }
    }

    /// Every byte has arrived and no ACK is owed: nothing the sender can
    /// still do changes this receiver's answers, so the stack replaces it
    /// by its `rcv_nxt` (see [`Receiver::answer_closed`]). A receiver
    /// driven on its own keeps working past this point.
    pub(crate) fn is_closed(&self) -> bool {
        self.fin_end == Some(self.rcv_nxt) && self.pending == 0 && self.delack_deadline.is_none()
    }

    /// Answer `pkt` on behalf of a receiver that closed at `rcv_nxt`,
    /// action for action what the live receiver would have done. A closed
    /// receiver holds every byte, so any data segment is a duplicate and
    /// draws one immediate ACK at `rcv_nxt` echoing that segment's CE and
    /// timestamp; it has `pending == 0` on entry, so the CE-flip branch
    /// never fires and `ce_state` is never read; it owes nothing, so no
    /// timer is armed. A live sender whose final ACK was lost needs
    /// exactly this `rcv_nxt` to finish, which is why it is kept.
    pub(crate) fn answer_closed(ctx: &mut Ctx<'_>, pkt: &Packet, rcv_nxt: u64) {
        let (flow, me, peer, class) = (pkt.flow, pkt.dst, pkt.src, pkt.class());
        if pkt.flags().syn {
            ctx.send(syn_ack(flow, me, peer, class, pkt.ts));
        } else if pkt.payload() > 0 {
            debug_assert!(pkt.seq() + pkt.payload() <= rcv_nxt, "data past the FIN");
            let ece = pkt.ecn().is_ce();
            ctx.send(pure_ack(flow, me, peer, class, rcv_nxt, ece, pkt.ts));
        }
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>, ece: bool) {
        ctx.send(pure_ack(
            self.flow,
            self.me,
            self.peer,
            self.class,
            self.rcv_nxt,
            ece,
            self.echo_ts,
        ));
        self.pending = 0;
        // Batched bookkeeping: leave the physical wheel token (if any)
        // armed and only clear the logical deadline — the eventual firing
        // is suppressed in [`Receiver::on_delack_timer`]. Saves one cancel
        // per count-triggered ACK on the hot path.
        self.delack_deadline = None;
    }

    /// Handle an arriving SYN or data packet.
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        if pkt.flags().syn {
            if pkt.flags().fin {
                self.fin_end = Some(0);
            }
            ctx.send(syn_ack(self.flow, self.me, self.peer, self.class, pkt.ts));
            return;
        }
        if pkt.payload() == 0 {
            return;
        }

        // Reassembly.
        let (start, end) = (pkt.seq(), pkt.seq() + pkt.payload());
        if pkt.flags().fin {
            self.fin_end = Some(end);
        }
        let duplicate = end <= self.rcv_nxt;
        if !duplicate {
            if start <= self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.max(end);
                // Drain any now-contiguous buffered segments.
                while let Some((&s, &e)) = self.ooo.first_key_value() {
                    if s > self.rcv_nxt {
                        break;
                    }
                    self.rcv_nxt = self.rcv_nxt.max(e);
                    self.ooo.remove(&s);
                }
            } else {
                // Buffer out-of-order segment (coarse: keyed by start).
                let entry = self.ooo.entry(start).or_insert(end);
                *entry = (*entry).max(end);
                // Reassembly state is the only transport state whose
                // size the network's reordering decides (the stack holds
                // a fixed-size entry per flow in progress and one
                // `rcv_nxt` per closed receiver); meter it against the
                // configured budget. The report never alters receiver
                // behaviour, so an armed-but-untriggered budget stays
                // byte-identical.
                if let Some(budget) = self.cfg.ooo_budget {
                    if self.ooo.len() as u64 > u64::from(budget) {
                        ctx.report_mem_breach(self.ooo.len() as u64, u64::from(budget));
                    }
                }
            }
        }

        self.echo_ts = pkt.ts;
        let ce = pkt.ecn().is_ce();
        self.pending += 1;

        // DCTCP CE-echo: on a CE-state flip, immediately ACK what is
        // pending with the *old* state so the sender's marked-byte
        // accounting stays exact, then continue with the new state.
        if ce != self.ce_state && self.pending > 1 {
            let old = self.ce_state;
            self.pending -= 1; // the current packet is acked by the next ACK
            self.send_ack(ctx, old);
            self.pending = 1;
        }
        self.ce_state = ce;

        // Out-of-order or duplicate data ⇒ immediate (dup-)ACK to drive
        // fast retransmit; in-order data follows the delayed-ACK policy.
        let out_of_order = duplicate || start > self.rcv_nxt || !self.ooo.is_empty();
        if out_of_order || self.pending >= self.cfg.delack_count {
            self.send_ack(ctx, ce);
        } else {
            // Owe a delayed ACK (reachable only with `delack_count > 1`):
            // record the deadline; only touch the wheel if no token is in
            // flight. An in-flight token always has a physical deadline ≤
            // this logical one (deadlines are `now + timeout` and `now` is
            // monotone), so the early firing re-arms forward rather than
            // missing it.
            self.delack_deadline = Some(ctx.now + self.cfg.delack_timeout);
            if !self.delack_armed {
                self.delack_armed = true;
                ctx.arm_timer(
                    self.cfg.delack_timeout,
                    timer_key(self.flow, TimerKind::DelAck),
                );
            }
        }
    }

    /// Delayed-ACK timer fired.
    pub fn on_delack_timer(&mut self, ctx: &mut Ctx<'_>) {
        // The firing spent the wheel timer; nothing left to cancel.
        self.delack_armed = false;
        match self.delack_deadline {
            // The token outlived its ACK (batched bookkeeping never
            // cancels); nothing is owed.
            None => return,
            // Fired at a stale earlier deadline; push the token forward
            // to the live one in place.
            Some(d) if d > ctx.now => {
                self.delack_armed = true;
                ctx.arm_timer(
                    d.saturating_since(ctx.now),
                    timer_key(self.flow, TimerKind::DelAck),
                );
                return;
            }
            Some(_) => self.delack_deadline = None,
        }
        if self.pending > 0 {
            let ce = self.ce_state;
            self.send_ack(ctx, ce);
        }
    }
}

/// The receiver's reply to a SYN, echoing the SYN's timestamp.
fn syn_ack(flow: FlowId, me: NodeId, peer: NodeId, class: u8, ts: SimTime) -> Packet {
    let mut sa = Packet::ack(flow, me, peer, 0);
    sa.set_syn(true);
    sa.ts = ts;
    sa.set_class(class);
    sa.set_ecn(Ecn::NotEct);
    sa
}

/// A pure cumulative ACK at `ack`, echoing `ts`.
fn pure_ack(
    flow: FlowId,
    me: NodeId,
    peer: NodeId,
    class: u8,
    ack: u64,
    ece: bool,
    ts: SimTime,
) -> Packet {
    let mut a = Packet::ack(flow, me, peer, ack);
    a.set_ece(ece);
    a.set_class(class);
    a.ts = ts;
    // Pure ACKs are not ECT (standard practice; they are tiny and
    // marking them would signal the wrong direction).
    a.set_ecn(Ecn::NotEct);
    a
}

/// Timer namespaces multiplexed into the agent's single `u64` key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Sender retransmission timeout.
    Rto,
    /// Receiver delayed ACK.
    DelAck,
}

/// Pack `(flow, kind)` into a timer key. Flow ids must fit 31 bits.
pub fn timer_key(flow: FlowId, kind: TimerKind) -> u64 {
    debug_assert!(flow.0 < (1 << 31), "flow id too large for timer key");
    let kind_bit = match kind {
        TimerKind::Rto => 0u64,
        TimerKind::DelAck => 1u64,
    };
    (kind_bit << 63) | (flow.0 << 32)
}

/// Unpack a timer key.
pub fn parse_timer_key(key: u64) -> (FlowId, TimerKind) {
    let kind = if key >> 63 == 0 {
        TimerKind::Rto
    } else {
        TimerKind::DelAck
    };
    (FlowId((key >> 32) & 0x7FFF_FFFF), kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_net::Ctx;
    use ecnsharp_sim::Duration;

    #[test]
    fn timer_key_roundtrip() {
        for (flow, kind) in [
            (FlowId(0), TimerKind::Rto),
            (FlowId(12345), TimerKind::DelAck),
            (FlowId((1 << 31) - 1), TimerKind::Rto),
        ] {
            assert_eq!(parse_timer_key(timer_key(flow, kind)), (flow, kind));
        }
    }

    // ── Sender state-machine unit tests (detached contexts) ────────────

    fn sender_cmd(size: u64) -> FlowCmd {
        FlowCmd {
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            class: 0,
            extra_delay: Duration::ZERO,
        }
    }

    /// Collect the data packets a callback caused the sender to emit.
    fn sent(actions: &mut Vec<ecnsharp_net::Action>) -> Vec<Packet> {
        actions
            .drain(..)
            .filter_map(|a| match a {
                ecnsharp_net::Action::Send(p, _) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// Drive a sender to Established and return it (SYN-ACK consumed).
    fn established(size: u64) -> (Sender, Vec<Packet>) {
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(0), NodeId(0), &mut actions);
        let mut s = Sender::start(sender_cmd(size), TcpConfig::dctcp(), &mut ctx);
        let syn = sent(&mut actions);
        assert_eq!(syn.len(), 1);
        assert!(syn[0].flags().syn);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(100), NodeId(0), &mut actions);
        let mut synack = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 0);
        synack.set_syn(true);
        synack.ts = SimTime::from_micros(0);
        s.on_ack(&mut ctx, &synack);
        let first_window = sent(&mut actions);
        (s, first_window)
    }

    /// Build an ACK for the sender with optional ECE.
    fn ack_pkt(ack: u64, ece: bool, ts_us: u64) -> Packet {
        let mut a = Packet::ack(FlowId(1), NodeId(1), NodeId(0), ack);
        a.set_ece(ece);
        a.ts = SimTime::from_micros(ts_us);
        a
    }

    #[test]
    fn initial_window_is_three_segments() {
        let (s, w) = established(1_000_000);
        assert_eq!(w.len(), 3, "IW=3");
        assert_eq!(w[0].seq(), 0);
        assert_eq!(w[1].seq(), 1460);
        assert_eq!(w[2].seq(), 2920);
        assert_eq!(s.snd_nxt, 4380);
        assert_eq!(s.state, SenderState::Established);
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let (mut s, _) = established(10_000_000);
        let cwnd0 = s.cwnd;
        // Ack the three IW segments: slow start adds 1 MSS per ACK.
        for (i, ack) in [1460u64, 2920, 4380].into_iter().enumerate() {
            let mut actions = Vec::new();
            let mut ctx = Ctx::detached(
                SimTime::from_micros(200 + i as u64),
                NodeId(0),
                &mut actions,
            );
            s.on_ack(&mut ctx, &ack_pkt(ack, false, 100));
        }
        assert!(
            (s.cwnd - (cwnd0 + 3.0 * 1460.0)).abs() < 1.0,
            "cwnd {}",
            s.cwnd
        );
    }

    #[test]
    fn dctcp_alpha_decays_without_marks_and_rises_with() {
        let (mut s, _) = established(100_000_000);
        #[expect(
            clippy::float_cmp,
            reason = "initialization assigns the literal 1.0; no arithmetic involved"
        )]
        {
            assert_eq!(s.alpha, 1.0, "Linux-style init");
        }
        // Several clean windows: alpha decays by (1-g) per window.
        let mut ack = 0u64;
        for k in 0..50u64 {
            ack += 1460;
            let mut actions = Vec::new();
            let mut ctx = Ctx::detached(SimTime::from_micros(300 + k), NodeId(0), &mut actions);
            s.on_ack(&mut ctx, &ack_pkt(ack, false, 200));
        }
        assert!(s.alpha < 0.8, "alpha should decay, got {}", s.alpha);
        let low = s.alpha;
        // Now every ACK carries ECE: alpha climbs towards 1.
        for k in 0..300u64 {
            ack += 1460;
            let mut actions = Vec::new();
            let mut ctx = Ctx::detached(SimTime::from_micros(1_000 + k), NodeId(0), &mut actions);
            s.on_ack(&mut ctx, &ack_pkt(ack, true, 900));
        }
        assert!(s.alpha > low, "alpha should rise, got {}", s.alpha);
        assert!(s.alpha > 0.5, "alpha {}", s.alpha);
    }

    #[test]
    fn ece_cuts_once_per_window() {
        let (mut s, _) = established(100_000_000);
        // Grow a bit first.
        let mut ack = 0u64;
        for k in 0..20u64 {
            ack += 1460;
            let mut actions = Vec::new();
            let mut ctx = Ctx::detached(SimTime::from_micros(300 + k), NodeId(0), &mut actions);
            s.on_ack(&mut ctx, &ack_pkt(ack, false, 200));
        }
        let before = s.cwnd;
        // Two consecutive ECE ACKs within one window: only one cut.
        ack += 1460;
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(400), NodeId(0), &mut actions);
        s.on_ack(&mut ctx, &ack_pkt(ack, true, 300));
        let after_first = s.cwnd;
        assert!(after_first < before, "first ECE must cut");
        ack += 1460;
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(401), NodeId(0), &mut actions);
        s.on_ack(&mut ctx, &ack_pkt(ack, true, 300));
        // Second cut suppressed (CWR window), modulo normal growth.
        assert!(s.cwnd >= after_first, "second ECE in window must not cut");
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let (mut s, _) = established(10_000_000);
        // Ack first segment so snd_una = 1460 and more data flies.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(300), NodeId(0), &mut actions);
        s.on_ack(&mut ctx, &ack_pkt(1460, false, 200));
        sent(&mut actions);
        // Three duplicate ACKs at 1460.
        for k in 0..3 {
            let mut actions = Vec::new();
            let mut ctx = Ctx::detached(SimTime::from_micros(310 + k), NodeId(0), &mut actions);
            s.on_ack(&mut ctx, &ack_pkt(1460, false, 0));
            let out = sent(&mut actions);
            if k < 2 {
                assert!(out.is_empty(), "no retransmit before 3rd dupack");
            } else {
                assert_eq!(out.len(), 1, "fast retransmit on 3rd dupack");
                assert_eq!(out[0].seq(), 1460, "retransmits the hole");
            }
        }
    }

    #[test]
    fn rto_rewinds_and_collapses_window() {
        let (mut s, _) = established(10_000_000);
        let nxt_before = s.snd_nxt;
        assert!(nxt_before > 0);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_millis(50), NodeId(0), &mut actions);
        s.on_rto(&mut ctx);
        assert_eq!(s.timeouts, 1);
        #[expect(
            clippy::float_cmp,
            reason = "RTO assigns cwnd = mss as f64 exactly; no arithmetic involved"
        )]
        {
            assert_eq!(s.cwnd, 1460.0, "cwnd collapses to one segment");
        }
        let out = sent(&mut actions);
        assert_eq!(out.len(), 1, "go-back-N resends from snd_una");
        assert_eq!(out[0].seq(), 0);
    }

    #[test]
    fn completion_reports_flow_done() {
        let (mut s, _) = established(1_460);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(500), NodeId(0), &mut actions);
        s.on_ack(&mut ctx, &ack_pkt(1460, false, 200));
        assert_eq!(s.state, SenderState::Done);
        assert!(actions.iter().any(|a| matches!(
            a,
            ecnsharp_net::Action::FlowDone(f, 0) if *f == FlowId(1)
        )));
        // Further ACKs are ignored harmlessly.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(600), NodeId(0), &mut actions);
        s.on_ack(&mut ctx, &ack_pkt(1460, false, 0));
        assert!(actions.is_empty());
    }

    #[test]
    fn rto_streak_gives_up_after_max_retries() {
        let (mut s, _) = established(10_000_000);
        let max = TcpConfig::dctcp().max_rto_retries;
        for k in 0..max {
            let mut actions = Vec::new();
            let mut ctx =
                Ctx::detached(SimTime::from_millis(50 + k as u64), NodeId(0), &mut actions);
            s.on_rto(&mut ctx);
            if k + 1 < max {
                assert_eq!(s.state, SenderState::Established);
            } else {
                assert_eq!(s.state, SenderState::Failed, "gives up on RTO #{max}");
                assert!(actions.iter().any(|a| matches!(
                    a,
                    ecnsharp_net::Action::FlowFailed(f, t) if *f == FlowId(1) && *t == max
                )));
                assert!(
                    !actions
                        .iter()
                        .any(|a| matches!(a, ecnsharp_net::Action::Send(_, _))),
                    "no retransmission after giving up"
                );
            }
        }
        // Further RTOs and ACKs are ignored harmlessly.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_millis(100), NodeId(0), &mut actions);
        s.on_rto(&mut ctx);
        s.on_ack(&mut ctx, &ack_pkt(1460, false, 0));
        assert!(actions.is_empty());
        assert_eq!(s.timeouts, max);
    }

    #[test]
    fn ack_progress_resets_rto_streak() {
        let (mut s, _) = established(10_000_000);
        let max = TcpConfig::dctcp().max_rto_retries;
        // max-1 consecutive RTOs: still alive.
        for k in 0..max - 1 {
            let mut actions = Vec::new();
            let mut ctx =
                Ctx::detached(SimTime::from_millis(50 + k as u64), NodeId(0), &mut actions);
            s.on_rto(&mut ctx);
        }
        assert_eq!(s.state, SenderState::Established);
        // Forward progress resets the streak...
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_millis(80), NodeId(0), &mut actions);
        s.on_ack(&mut ctx, &ack_pkt(1460, false, 0));
        // ...so the next RTO is streak 1, not max.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_millis(90), NodeId(0), &mut actions);
        s.on_rto(&mut ctx);
        assert_eq!(s.state, SenderState::Established, "streak was reset");
        assert_eq!(s.timeouts, max, "total timeouts still accumulate");
    }

    #[test]
    fn syn_retry_exhaustion_fails_flow() {
        // A flow whose SYN never gets through must also give up.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(0), &mut actions);
        let cfg = TcpConfig::dctcp();
        let mut s = Sender::start(sender_cmd(1_000_000), cfg, &mut ctx);
        for k in 0..cfg.max_rto_retries {
            let mut actions = Vec::new();
            let mut ctx =
                Ctx::detached(SimTime::from_millis(10 + k as u64), NodeId(0), &mut actions);
            s.on_rto(&mut ctx);
        }
        assert_eq!(s.state, SenderState::Failed);
        assert_eq!(s.timeouts, cfg.max_rto_retries);
    }

    #[test]
    fn late_ack_after_rto_rewind_is_safe() {
        // Regression test: an ACK beyond snd_nxt after go-back-N must not
        // underflow the in-flight computation.
        let (mut s, _) = established(10_000_000);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_millis(50), NodeId(0), &mut actions);
        s.on_rto(&mut ctx); // snd_nxt rewound to snd_una = 0
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_millis(51), NodeId(0), &mut actions);
        // Old in-flight data gets acked beyond the rewound snd_nxt.
        s.on_ack(&mut ctx, &ack_pkt(2920, false, 0));
        assert!(s.snd_nxt >= s.snd_una);
        let out = sent(&mut actions);
        assert!(!out.is_empty(), "transmission resumes from the ACK point");
    }

    // Receiver-side unit tests.

    #[test]
    fn receiver_reassembles_out_of_order() {
        let cfg = TcpConfig::default();
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), 0, cfg);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1), &mut actions);
        // Segment [1460, 2920) arrives first.
        let p2 = Packet::data(FlowId(1), NodeId(0), NodeId(1), 1460, 1460);
        r.on_packet(&mut ctx, &p2);
        assert_eq!(r.rcv_nxt, 0);
        // Hole filled: rcv_nxt jumps over the buffered segment.
        let p1 = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1460);
        r.on_packet(&mut ctx, &p1);
        assert_eq!(r.rcv_nxt, 2920);
    }

    #[test]
    fn receiver_acks_syn_with_synack() {
        let cfg = TcpConfig::default();
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), 0, cfg);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(9), NodeId(1), &mut actions);
        let mut syn = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 0);
        syn.set_syn(true);
        syn.ts = SimTime::from_micros(3);
        r.on_packet(&mut ctx, &syn);
        match &actions[0] {
            ecnsharp_net::Action::Send(p, _) => {
                assert!(p.flags().syn && p.flags().ack);
                assert_eq!(p.ts, SimTime::from_micros(3), "ts echoed");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn receiver_echoes_ce_per_packet() {
        let cfg = TcpConfig::default(); // delack_count = 1: per-packet ACKs
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), 0, cfg);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1), &mut actions);
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1460);
        p.set_ecn(Ecn::Ce);
        r.on_packet(&mut ctx, &p);
        let mut p2 = Packet::data(FlowId(1), NodeId(0), NodeId(1), 1460, 1460);
        p2.set_ecn(Ecn::Ect);
        r.on_packet(&mut ctx, &p2);
        let eces: Vec<bool> = actions
            .iter()
            .map(|a| match a {
                ecnsharp_net::Action::Send(p, _) => p.flags().ece,
                _ => panic!(),
            })
            .collect();
        assert_eq!(eces, vec![true, false]);
    }

    #[test]
    fn duplicate_data_triggers_dup_ack() {
        let cfg = TcpConfig::default();
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), 0, cfg);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1), &mut actions);
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1460);
        r.on_packet(&mut ctx, &p);
        r.on_packet(&mut ctx, &p); // duplicate
        assert_eq!(actions.len(), 2);
        match &actions[1] {
            ecnsharp_net::Action::Send(a, _) => assert_eq!(a.ack_no(), 1460),
            _ => panic!(),
        }
    }

    // ── Wheel-batched delayed-ACK bookkeeping (delack_count > 1) ───────

    fn delack2_cfg() -> TcpConfig {
        TcpConfig {
            delack_count: 2,
            ..TcpConfig::dctcp()
        }
    }

    fn data(seq: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 1460)
    }

    #[test]
    fn batched_delack_never_cancels_and_suppresses_spent_token() {
        let cfg = delack2_cfg();
        let timeout = cfg.delack_timeout;
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), 0, cfg);

        // First in-order segment: below the count threshold, so no ACK and
        // exactly one physical wheel arm.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1), &mut actions);
        r.on_packet(&mut ctx, &data(0));
        assert!(
            matches!(actions[..], [ecnsharp_net::Action::ArmTimer(at, _)]
            if at == SimTime::ZERO + timeout)
        );

        // Second segment hits the count: the ACK goes out, but the token is
        // left armed — batched bookkeeping emits no CancelTimer.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(10), NodeId(1), &mut actions);
        r.on_packet(&mut ctx, &data(1460));
        assert!(matches!(actions[..], [ecnsharp_net::Action::Send(..)]));

        // The orphaned token eventually fires: nothing is owed, so it must
        // be swallowed without an ACK or a re-arm.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO + timeout, NodeId(1), &mut actions);
        r.on_delack_timer(&mut ctx);
        assert!(actions.is_empty(), "spurious fire must be suppressed");
    }

    #[test]
    fn batched_delack_pushes_early_fire_to_live_deadline() {
        let cfg = delack2_cfg();
        let timeout = cfg.delack_timeout;
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), 0, cfg);

        // t=0: segment arms the token (physical deadline = timeout).
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(1), &mut actions);
        r.on_packet(&mut ctx, &data(0));
        assert_eq!(actions.len(), 1);

        // t=10us: second segment ACKs (count reached), token stays armed.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(10), NodeId(1), &mut actions);
        r.on_packet(&mut ctx, &data(1460));
        assert!(matches!(actions[..], [ecnsharp_net::Action::Send(..)]));

        // t=20us: a third segment only records the later logical deadline —
        // the in-flight token means no new physical arm.
        let arrive = SimTime::from_micros(20);
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(arrive, NodeId(1), &mut actions);
        r.on_packet(&mut ctx, &data(2920));
        assert!(actions.is_empty(), "in-flight token must absorb the arm");

        // The token fires at its stale physical deadline: the live logical
        // deadline is still ahead, so it re-arms forward without ACKing.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO + timeout, NodeId(1), &mut actions);
        r.on_delack_timer(&mut ctx);
        assert!(
            matches!(actions[..], [ecnsharp_net::Action::ArmTimer(at, _)]
            if at == arrive + timeout)
        );

        // At the live deadline the owed ACK finally goes out.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(arrive + timeout, NodeId(1), &mut actions);
        r.on_delack_timer(&mut ctx);
        match &actions[..] {
            [ecnsharp_net::Action::Send(a, _)] => assert_eq!(a.ack_no(), 4380),
            other => panic!("expected the owed ACK, got {other:?}"),
        }
        // The deadline is spent: a duplicate fire is a no-op.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(arrive + timeout + timeout, NodeId(1), &mut actions);
        r.on_delack_timer(&mut ctx);
        assert!(actions.is_empty());
    }

    #[test]
    fn batched_delack_ack_cadence_matches_legacy_reference() {
        // Drive a fixed arrival schedule through the batched receiver,
        // replaying its timer actions the way the wheel dispatches them
        // (one live token per key, cancellable, re-armable in place), and
        // compare the emitted ACK stream with the one the un-batched
        // receiver — a one-shot, epoch-filtered timer per in-order packet —
        // produced for the same arrivals at the last commit that carried
        // it, written out below.
        let mut r = Receiver::new(FlowId(1), NodeId(1), NodeId(0), 0, delack2_cfg());
        let mut acks: Vec<(SimTime, u64, bool)> = Vec::new();
        let mut token: Option<SimTime> = None;
        // Pairs complete immediately; a CE flip forces an immediate
        // mid-count ACK; the trailing odd segment is owed to the timer.
        let mut ce = data(4380);
        ce.set_ecn(Ecn::Ce);
        let mut arrivals = [data(0), data(1460), data(2920), ce, data(5840)]
            .into_iter()
            .enumerate()
            .map(|(i, p)| (SimTime::from_micros(5 * i as u64), p));
        loop {
            // Arrivals first (all land before the first deadline), then
            // the quiet period: fire the token until nothing is armed.
            let (now, pkt) = match arrivals.next() {
                Some((at, p)) => (at, Some(p)),
                None => match token.take() {
                    Some(at) => (at, None),
                    None => break,
                },
            };
            let mut actions = Vec::new();
            let mut ctx = Ctx::detached(now, NodeId(1), &mut actions);
            match &pkt {
                Some(p) => r.on_packet(&mut ctx, p),
                None => r.on_delack_timer(&mut ctx),
            }
            for a in actions {
                match a {
                    ecnsharp_net::Action::Send(p, _) => {
                        acks.push((now, p.ack_no(), p.flags().ece));
                    }
                    ecnsharp_net::Action::ArmTimer(at, key) => {
                        assert_eq!(parse_timer_key(key).1, TimerKind::DelAck);
                        token = Some(at);
                    }
                    ecnsharp_net::Action::CancelTimer(_) => token = None,
                    _ => {}
                }
            }
        }
        let us = SimTime::from_micros;
        assert_eq!(
            acks,
            [
                (us(5), 2920, false),
                (us(15), 5840, false),
                (us(20), 7300, true),
                // Timer-driven: `delack_timeout` after the last arrival.
                (us(20) + TcpConfig::dctcp().delack_timeout, 7300, false),
            ]
        );
    }

    // ── Flow-state lifecycle: FIN stamping, closing ────────────────────

    #[test]
    fn sender_stamps_fin_on_the_segment_that_ends_the_flow() {
        // 2.5 segments: only the last, short one carries the FIN.
        let (mut s, w) = established(3_650);
        let fins: Vec<(u64, bool)> = w.iter().map(|p| (p.seq(), p.flags().fin)).collect();
        assert_eq!(fins, [(0, false), (1460, false), (2920, true)]);
        // A go-back-N retransmission of it says so again.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::from_micros(300), NodeId(0), &mut actions);
        s.on_ack(&mut ctx, &ack_pkt(2920, false, 200));
        let mut ctx = Ctx::detached(SimTime::from_millis(50), NodeId(0), &mut actions);
        s.on_rto(&mut ctx);
        let again = sent(&mut actions);
        assert!(matches!(&again[..], [p] if p.seq() == 2920 && p.flags().fin));
        // A zero-byte flow has no data segment: its SYN carries the FIN.
        let mut actions = Vec::new();
        let mut ctx = Ctx::detached(SimTime::ZERO, NodeId(0), &mut actions);
        Sender::start(sender_cmd(0), TcpConfig::dctcp(), &mut ctx);
        let syn = sent(&mut actions);
        assert!(syn[0].flags().syn && syn[0].flags().fin);
        let (_, w) = established(1_460);
        assert!(w[0].flags().fin && !w[0].flags().syn);
    }

    /// The stack's receive side — which closes a receiver at its FIN and
    /// answers from the stored `rcv_nxt` afterwards — and a bare
    /// [`Receiver`], which on its own never closes, fed the same events.
    /// Every callback's action list must match byte for byte (`Debug`
    /// prints every packet field, the private flag word included).
    struct Twins {
        stack: crate::TcpStack,
        reference: Receiver,
        /// Deadline and key of the one delayed-ACK token in flight, kept
        /// the way the wheel keeps it: replaced by a re-arm, spent by
        /// firing.
        token: Option<(SimTime, u64)>,
    }

    impl Twins {
        const ME: NodeId = NodeId(1);

        /// Deliver `pkt` (or, with `None`, fire the token) at `now`.
        fn deliver(&mut self, now: SimTime, pkt: Option<&Packet>) {
            use ecnsharp_net::Agent;
            let (mut closing, mut live) = (Vec::new(), Vec::new());
            let mut ctx = Ctx::detached(now, Self::ME, &mut closing);
            match pkt {
                Some(p) => self.stack.on_packet(&mut ctx, p.clone()),
                None => {
                    let (_, key) = self.token.take().expect("a token to fire");
                    self.stack.on_timer(&mut ctx, key);
                }
            }
            let mut ctx = Ctx::detached(now, Self::ME, &mut live);
            match pkt {
                Some(p) => self.reference.on_packet(&mut ctx, p),
                None => self.reference.on_delack_timer(&mut ctx),
            }
            assert_eq!(format!("{closing:?}"), format!("{live:?}"), "at {now}");
            for a in closing {
                match a {
                    ecnsharp_net::Action::ArmTimer(at, key) => self.token = Some((at, key)),
                    ecnsharp_net::Action::CancelTimer(_) => self.token = None,
                    _ => {}
                }
            }
        }

        /// Fire the token as often as it comes due up to `now`.
        fn fire_due(&mut self, now: SimTime) {
            while let Some((at, _)) = self.token.filter(|&(at, _)| at <= now) {
                self.deliver(at, None);
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Closing a receiver is invisible on the wire. The event sequence
        /// is: a random prefix (reordered, duplicated and CE-flipped
        /// segments, duplicate SYNs); one in-order pass that completes the
        /// flow; random stragglers (re-sent FIN segment included); and a
        /// go-back-N pass from a random segment — a sender whose final ACK
        /// was lost. The delayed-ACK token fires whenever it comes due in
        /// between, so late events meet the receiver live, owing its last
        /// ACK, closed with a token still in flight, and closed for good.
        #[test]
        fn prop_closing_a_receiver_never_changes_an_action(
            segs in 0u64..6,
            tail in 0u64..1460,
            delack_count in 1u32..=2,
            class in 0u8..4,
            early in collection::vec((0u64..8, any::<bool>(), 0u64..400), 0..12),
            late in collection::vec((0u64..8, any::<bool>(), 0u64..400), 1..16),
            rewind in 0u64..8,
        ) {
            let (flow, peer) = (FlowId(9), NodeId(0));
            let size = segs * 1460 + tail;
            let cfg = TcpConfig { delack_count, ..TcpConfig::dctcp() };
            // What a `Sender` of `size` bytes can put on the wire: index 0
            // is the SYN, then the MSS-aligned segments.
            let mut wire = vec![Packet::data(flow, peer, Twins::ME, 0, 0)];
            wire[0].set_syn(true);
            wire[0].set_fin(size == 0);
            for seq in (0..size).step_by(1460) {
                let len = 1460.min(size - seq);
                let mut p = Packet::data(flow, peer, Twins::ME, seq, len);
                p.set_fin(seq + len == size);
                wire.push(p);
            }
            for p in &mut wire {
                p.set_class(class);
            }
            let pick = |i: u64| (i % wire.len() as u64) as usize;
            let in_order = |from: usize| (from..wire.len()).map(|i| (i, false, 7));
            let script: Vec<(usize, bool, u64)> = early
                .iter()
                .map(|&(i, ce, dt)| (pick(i), ce, dt))
                .chain(in_order(0))
                .chain(late.iter().map(|&(i, ce, dt)| (pick(i), ce, dt)))
                .chain(in_order(pick(rewind)))
                .collect();

            let mut twins = Twins {
                stack: crate::TcpStack::new(cfg),
                reference: Receiver::new(flow, Twins::ME, peer, class, cfg),
                token: None,
            };
            let mut now = SimTime::from_micros(1);
            for (i, ce, dt) in script {
                now += Duration::from_micros(dt);
                twins.fire_due(now);
                let mut p = wire[i].clone();
                p.ts = now;
                if ce {
                    p.set_ecn(Ecn::Ce);
                }
                twins.deliver(now, Some(&p));
            }
            twins.fire_due(SimTime::MAX);
            // The comparison was not vacuous: the stack did close.
            prop_assert_eq!(twins.reference.rcv_nxt, size);
            prop_assert_eq!(
                ecnsharp_net::Agent::flow_state(&twins.stack),
                ecnsharp_net::FlowState {
                    live_senders: 0,
                    live_receivers: 0,
                    closed_receivers: 1,
                }
            );
        }
    }
}
