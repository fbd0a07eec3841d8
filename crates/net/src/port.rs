//! Egress ports: the buffered, AQM-policed, scheduler-ordered transmit side
//! of every link attachment. The queueing behaviour the whole paper is
//! about lives here.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::arena::{PooledRing, RingArena};
use crate::fault::{validate_p, GilbertElliott};
use crate::ids::NodeId;
use crate::packet::{Ecn, Packet};
use ecnsharp_aqm::{Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState};
use ecnsharp_sched::{Dequeued, Fifo, Scheduler};
use ecnsharp_sim::{Duration, Rate, Rng, SimTime};
use ecnsharp_telemetry::Subscriber;
#[cfg(feature = "telemetry")]
use ecnsharp_telemetry::{
    CeMarked, DropReason, EpisodeEntered, EpisodeExited, MarkSite, Meta, PacketDropped,
    PacketEnqueued, SojournSampled,
};

/// The scheduler slot of a port. Almost every port in every experiment is
/// a plain FIFO, and its enqueue/dequeue/backlog calls sit on the
/// per-packet hot path — so the FIFO case is stored inline and statically
/// dispatched, with a boxed trait object as the escape hatch for the
/// multi-class schedulers (DWRR in §5.4).
pub enum PortSched {
    /// Inline single-queue FIFO (static dispatch, private ring).
    Fifo(Fifo<Packet>),
    /// Single-queue FIFO whose slots live in the owning node's shared
    /// [`RingArena`] (switch ports; see [`crate::arena`]).
    Pooled(PooledRing),
    /// Any other scheduler, behind the [`Scheduler`] trait.
    Dyn(Box<dyn Scheduler<Packet>>),
}

impl PortSched {
    #[inline]
    fn classes(&self) -> usize {
        match self {
            PortSched::Fifo(_) | PortSched::Pooled(_) => 1,
            PortSched::Dyn(s) => s.classes(),
        }
    }

    #[inline]
    fn enqueue(&mut self, arena: &mut RingArena, class: usize, bytes: u64, item: Packet) {
        match self {
            PortSched::Fifo(f) => f.enqueue(class, bytes, item),
            PortSched::Pooled(r) => {
                debug_assert_eq!(class, 0, "pooled FIFO has a single class");
                r.enqueue(arena, bytes, item);
            }
            PortSched::Dyn(s) => s.enqueue(class, bytes, item),
        }
    }

    #[inline]
    fn dequeue(&mut self, arena: &mut RingArena) -> Option<Dequeued<Packet>> {
        match self {
            PortSched::Fifo(f) => f.dequeue(),
            PortSched::Pooled(r) => r.dequeue(arena).map(|(bytes, item)| Dequeued {
                class: 0,
                bytes,
                item,
            }),
            PortSched::Dyn(s) => s.dequeue(),
        }
    }

    #[inline]
    fn backlog_bytes(&self) -> u64 {
        match self {
            PortSched::Fifo(f) => Scheduler::backlog_bytes(f),
            PortSched::Pooled(r) => r.backlog_bytes(),
            PortSched::Dyn(s) => s.backlog_bytes(),
        }
    }

    #[inline]
    fn backlog_pkts(&self) -> u64 {
        match self {
            PortSched::Fifo(f) => Scheduler::backlog_pkts(f),
            PortSched::Pooled(r) => r.backlog_pkts(),
            PortSched::Dyn(s) => s.backlog_pkts(),
        }
    }
}

/// Most slots a pooled ring's window grows to: one buffer's worth of MTU
/// packets (wire MTU ≈ 1538 B) plus a thin slack margin. The slack
/// matters — a queue held at byte capacity by tail drop packs slightly
/// more sub-MTU packets than the MTU estimate predicts, and a window that
/// is even one slot too small routes every enqueue through the overflow
/// deque exactly when the port is hottest (each packet then gets copied
/// twice). Windows start far below this and double on demand (see
/// [`crate::arena`]), so the ceiling costs nothing until a port really
/// queues that deep.
pub(crate) fn pooled_ring_slots(capacity_bytes: u64) -> usize {
    let est = (capacity_bytes / 1538).clamp(16, 4096) as usize;
    est + est / 8 + 8
}

/// Static configuration of an egress port.
pub struct PortConfig {
    /// Buffer capacity in wire bytes (tail drop beyond it).
    pub capacity_bytes: u64,
    /// AQM policy instance.
    pub aqm: Box<dyn Aqm>,
    /// Packet scheduler instance.
    pub sched: PortSched,
    /// Probability of dropping an outgoing packet on the wire (fault
    /// injection; 0.0 disables). Deterministically seeded by the network.
    pub fault_drop_p: f64,
    /// Probability of corrupting an outgoing packet on the wire — the
    /// receiver's checksum fails and the packet is dropped, counted
    /// separately from `fault_drop_p` (0.0 disables).
    pub corrupt_p: f64,
    /// Optional Gilbert–Elliott burst-loss process applied to outgoing
    /// packets (`None` disables).
    pub ge: Option<GilbertElliott>,
}

impl PortConfig {
    /// A FIFO port with the given buffer and AQM, no fault injection.
    pub fn fifo(capacity_bytes: u64, aqm: Box<dyn Aqm>) -> Self {
        PortConfig {
            capacity_bytes,
            aqm,
            // Unallocated until the first packet: switch ports trade this
            // FIFO for a pooled ring at `connect`, and a NIC queue grows
            // to what its backlog actually needs.
            sched: PortSched::Fifo(Fifo::new()),
            fault_drop_p: 0.0,
            corrupt_p: 0.0,
            ge: None,
        }
    }

    /// Replace the scheduler (e.g. DWRR for the §5.4 experiment).
    pub fn with_sched(mut self, sched: Box<dyn Scheduler<Packet>>) -> Self {
        self.sched = PortSched::Dyn(sched);
        self
    }

    /// Enable random wire drops with probability `p` (fault injection).
    /// Panics unless `p` is a probability in `[0, 1]` (NaN rejected).
    pub fn with_fault_drop(mut self, p: f64) -> Self {
        self.fault_drop_p = validate_p("fault_drop_p", p);
        self
    }

    /// Enable wire corruption (checksum-fail → drop) with probability `p`.
    /// Panics unless `p` is a probability in `[0, 1]` (NaN rejected).
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_p = validate_p("corrupt_p", p);
        self
    }

    /// Attach a Gilbert–Elliott burst-loss process to the wire.
    pub fn with_ge(mut self, ge: GilbertElliott) -> Self {
        self.ge = Some(ge);
        self
    }
}

/// Counters exposed per port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Packets admitted to the queue.
    pub enqueued: u64,
    /// Packets handed to the wire.
    pub dequeued: u64,
    /// Packets refused because the buffer was full.
    pub tail_drops: u64,
    /// Packets dropped by the AQM at enqueue.
    pub aqm_enq_drops: u64,
    /// Packets dropped by the AQM at dequeue.
    pub aqm_deq_drops: u64,
    /// Packets dropped by fault injection on the wire.
    pub fault_drops: u64,
    /// Packets corrupted on the wire (checksum fail at the receiver).
    pub corrupt_drops: u64,
    /// Packets lost to the Gilbert–Elliott burst-loss process.
    pub burst_drops: u64,
    /// CE marks applied at enqueue.
    pub enq_marks: u64,
    /// CE marks applied at dequeue.
    pub deq_marks: u64,
}

impl PortStats {
    /// All drops combined.
    pub fn total_drops(&self) -> u64 {
        self.tail_drops
            + self.aqm_enq_drops
            + self.aqm_deq_drops
            + self.fault_drops
            + self.corrupt_drops
            + self.burst_drops
    }

    /// All CE marks combined.
    pub fn total_marks(&self) -> u64 {
        self.enq_marks + self.deq_marks
    }
}

/// When a port's wire is free again — its whole transmit state.
///
/// Every transmission reserves the `(time, tag)` key at which its
/// serialization ends, but the `TxDone` event for that key is only worth
/// queueing when a packet is waiting behind the one on the wire: on an
/// un-backlogged port it would pop, find nothing to send and do nothing.
/// So a transmitting port is in one of two states (see
/// `Network::kick`), and an idle port is simply one whose key has passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireFree {
    /// A `TxDone` event is queued at the end of the serialization: the
    /// port is busy until it pops, and its handler starts the next packet.
    OnTxDone,
    /// No event is queued. The wire is busy for every step ordered before
    /// this reserved key and free from it on; the first step at or past
    /// it that kicks the port transmits at once, exactly as if a no-op
    /// `TxDone` had popped at the key. A port that never transmitted
    /// holds the zero key.
    At(SimTime, u64),
}

/// The egress side of a link attachment.
///
/// Transmission is driven by `Network::kick`; between kicks the port is
/// idle, serializing with its `TxDone` queued, or serializing with the
/// `TxDone` key only reserved (the crate-private `WireFree`).
pub struct EgressPort {
    /// Peer node on the other end of the wire.
    pub peer: NodeId,
    /// Peer's port index (its ingress identity; informational).
    pub peer_port: usize,
    /// Serialization rate.
    pub rate: Rate,
    /// Propagation delay to the peer.
    pub delay: Duration,
    pub(crate) capacity_bytes: u64,
    pub(crate) aqm: Box<dyn Aqm>,
    pub(crate) sched: PortSched,
    pub(crate) fault_drop_p: f64,
    pub(crate) corrupt_p: f64,
    pub(crate) ge: Option<GilbertElliott>,
    /// Is the attached link up? A downed port neither transmits nor
    /// appears in route computation; queued packets wait for the link to
    /// come back (or tail-drop new arrivals meanwhile).
    pub(crate) link_up: bool,
    /// When the wire is free for the next packet.
    pub(crate) wire_free: WireFree,
    pub(crate) stats: PortStats,
    /// Cumulative transmitted *payload* bytes per service class (goodput
    /// accounting for the scheduling experiments).
    pub(crate) tx_payload_per_class: Vec<u64>,
    /// Wire bytes admitted to the queue (strict-invariants accounting).
    pub(crate) accounted_in_bytes: u64,
    /// Wire bytes removed from the queue — transmitted or dropped after
    /// admission (strict-invariants accounting).
    pub(crate) accounted_out_bytes: u64,
    /// Node this port belongs to (telemetry event identity; set by
    /// [`crate::Network::connect`], `NodeId(0)` for standalone ports).
    pub(crate) owner: NodeId,
    /// Index of this port within its owner (telemetry event identity).
    pub(crate) owner_port: u64,
    /// Fault-injection dice stream owned by this port, seeded from the
    /// network seed and the port's identity at [`crate::Network::connect`]
    /// time. Per-port streams (rather than one network-global RNG) make
    /// fault outcomes a pure function of the port's own traffic, which is
    /// what lets a sharded run consume dice identically to a serial run.
    pub(crate) dice: Rng,
}

/// Outcome of asking a port for its next transmission.
pub(crate) struct TxStart {
    /// The packet to put on the wire.
    pub pkt: Packet,
    /// Serialization time at this port's rate.
    pub tx_time: Duration,
}

impl EgressPort {
    pub(crate) fn new(
        peer: NodeId,
        peer_port: usize,
        rate: Rate,
        delay: Duration,
        cfg: PortConfig,
    ) -> Self {
        // Pre-size the per-class goodput counters so the dequeue path never
        // reallocates them.
        let classes = cfg.sched.classes();
        EgressPort {
            peer,
            peer_port,
            rate,
            delay,
            capacity_bytes: cfg.capacity_bytes,
            aqm: cfg.aqm,
            sched: cfg.sched,
            fault_drop_p: cfg.fault_drop_p,
            corrupt_p: cfg.corrupt_p,
            ge: cfg.ge,
            link_up: true,
            wire_free: WireFree::At(SimTime::ZERO, 0),
            stats: PortStats::default(),
            tx_payload_per_class: vec![0; classes],
            accounted_in_bytes: 0,
            accounted_out_bytes: 0,
            owner: NodeId(0),
            owner_port: 0,
            dice: Rng::seed_from_u64(0),
        }
    }

    /// (Re)seed the port's fault-injection dice stream.
    pub(crate) fn seed_dice(&mut self, seed: u64) {
        self.dice = Rng::seed_from_u64(seed);
    }

    /// Migrate an inline-FIFO port onto the owning node's shared
    /// [`RingArena`]. Called at [`crate::Network::connect`] time (the
    /// queue is necessarily empty); ports with a [`PortSched::Dyn`]
    /// scheduler keep their own storage.
    pub(crate) fn pool_ring(&mut self, arena: &mut RingArena) {
        if let PortSched::Fifo(f) = &self.sched {
            debug_assert_eq!(
                Scheduler::backlog_pkts(f),
                0,
                "ring pooling requires an empty queue"
            );
            let cap = pooled_ring_slots(self.capacity_bytes);
            let off = arena.alloc(cap);
            self.sched = PortSched::Pooled(PooledRing::new(off, cap));
        }
    }

    /// [`Self::next_tx`] drawing dice from the port's own seeded stream.
    ///
    /// Ports without any fault knob never consume dice (the injector
    /// short-circuits on `p > 0.0` / `ge.is_some()`), so the common
    /// fault-free path skips the stream entirely.
    pub(crate) fn next_tx_dice<S: Subscriber>(
        &mut self,
        now: SimTime,
        arena: &mut RingArena,
        sub: &mut S,
    ) -> Option<TxStart> {
        if self.fault_drop_p > 0.0 || self.corrupt_p > 0.0 || self.ge.is_some() {
            let mut rng = std::mem::replace(&mut self.dice, Rng::seed_from_u64(0));
            let tx = self.next_tx(now, || rng.f64(), arena, sub);
            self.dice = rng;
            tx
        } else {
            // Never called: every dice site is behind a knob checked above.
            self.next_tx(now, || 0.0, arena, sub)
        }
    }

    /// Port statistics so far.
    pub fn stats(&self) -> PortStats {
        self.stats
    }

    /// Queued wire bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.sched.backlog_bytes()
    }

    /// Queued packets.
    pub fn backlog_pkts(&self) -> u64 {
        self.sched.backlog_pkts()
    }

    /// Downcast access to the AQM's internals, for schemes that opt into
    /// [`ecnsharp_aqm::Aqm::as_any`] (white-box equivalence assertions).
    pub fn aqm_as_any(&self) -> Option<&dyn std::any::Any> {
        self.aqm.as_any()
    }

    /// Cumulative transmitted payload bytes per service class (classes the
    /// port never served read as 0).
    pub fn tx_payload_per_class(&self) -> &[u64] {
        &self.tx_payload_per_class
    }

    fn queue_state(&self) -> QueueState {
        QueueState {
            backlog_bytes: self.sched.backlog_bytes(),
            backlog_pkts: self.sched.backlog_pkts(),
            capacity_bytes: self.capacity_bytes,
            drain_rate: self.rate,
        }
    }

    fn view(pkt: &Packet) -> PacketView {
        PacketView {
            bytes: pkt.wire_bytes(),
            ect: pkt.ecn().is_ect(),
            enqueued_at: pkt.enqueued_at,
        }
    }

    /// Telemetry metadata stamp for an event at `at` on this port.
    #[cfg(feature = "telemetry")]
    #[inline]
    fn meta(&self, at: SimTime) -> Meta {
        Meta {
            at,
            node: self.owner.0 as u64,
        }
    }

    /// A [`PacketDropped`] event for `pkt` with the given reason.
    #[cfg(feature = "telemetry")]
    #[inline]
    fn drop_ev(&self, pkt: &Packet, reason: DropReason) -> PacketDropped {
        PacketDropped {
            port: self.owner_port,
            flow: pkt.flow.0,
            seq: pkt.seq(),
            payload: pkt.payload(),
            wire_bytes: pkt.wire_bytes(),
            reason,
        }
    }

    /// Forward any pending ECN♯ episode entry/exit from the AQM to the
    /// subscriber. Polled after every AQM decision.
    #[cfg(feature = "telemetry")]
    #[inline]
    fn emit_episode<S: Subscriber>(&mut self, now: SimTime, sub: &mut S) {
        if !S::ENABLED {
            return;
        }
        if let Some(tr) = self.aqm.take_episode_transition() {
            let meta = self.meta(now);
            if tr.entered {
                sub.on_episode_entered(
                    &meta,
                    &EpisodeEntered {
                        port: self.owner_port,
                    },
                );
            } else {
                sub.on_episode_exited(
                    &meta,
                    &EpisodeExited {
                        port: self.owner_port,
                        marks: tr.marks,
                    },
                );
            }
        }
    }

    #[cfg(not(feature = "telemetry"))]
    #[inline]
    fn emit_episode<S: Subscriber>(&mut self, _now: SimTime, _sub: &mut S) {}

    /// Admit `pkt` to the queue (tail-drop capacity check, then AQM).
    /// Returns `true` when the packet was queued. Telemetry events
    /// (enqueue, drops, marks) are delivered to `sub`.
    pub(crate) fn enqueue<S: Subscriber>(
        &mut self,
        now: SimTime,
        mut pkt: Packet,
        arena: &mut RingArena,
        sub: &mut S,
    ) -> bool {
        let wire = pkt.wire_bytes();
        let backlog = self.sched.backlog_bytes();
        if backlog + wire > self.capacity_bytes {
            self.stats.tail_drops += 1;
            emit!(
                sub,
                on_packet_dropped,
                self.meta(now),
                self.drop_ev(&pkt, DropReason::Tail)
            );
            return false;
        }
        pkt.enqueued_at = now;
        let verdict = self
            .aqm
            .on_enqueue(now, &self.queue_state(), &Self::view(&pkt));
        self.emit_episode(now, sub);
        match verdict {
            EnqueueVerdict::Drop => {
                self.stats.aqm_enq_drops += 1;
                emit!(
                    sub,
                    on_packet_dropped,
                    self.meta(now),
                    self.drop_ev(&pkt, DropReason::AqmEnqueue)
                );
                return false;
            }
            EnqueueVerdict::AdmitMark => {
                debug_assert!(pkt.ecn().is_ect());
                pkt.set_ecn(Ecn::Ce);
                self.stats.enq_marks += 1;
                emit!(
                    sub,
                    on_ce_marked,
                    self.meta(now),
                    CeMarked {
                        port: self.owner_port,
                        flow: pkt.flow.0,
                        seq: pkt.seq(),
                        site: MarkSite::Enqueue,
                    }
                );
            }
            EnqueueVerdict::Admit => {}
        }
        emit!(
            sub,
            on_packet_enqueued,
            self.meta(now),
            PacketEnqueued {
                port: self.owner_port,
                flow: pkt.flow.0,
                seq: pkt.seq(),
                payload: pkt.payload(),
                wire_bytes: wire,
                backlog_bytes: backlog,
                marked: pkt.ecn() == Ecn::Ce,
            }
        );
        let class = (pkt.class() as usize).min(self.sched.classes() - 1);
        self.sched.enqueue(arena, class, wire, pkt);
        self.stats.enqueued += 1;
        if cfg!(feature = "strict-invariants") {
            self.accounted_in_bytes += wire;
            ecnsharp_sim::invariant!(
                self.accounted_in_bytes == self.accounted_out_bytes + self.sched.backlog_bytes(),
                "byte conservation broken after enqueue: in={} out={} backlog={}",
                self.accounted_in_bytes,
                self.accounted_out_bytes,
                self.sched.backlog_bytes()
            );
        }
        true
    }

    /// Pull the next transmittable packet, applying dequeue-time AQM and
    /// fault injection. `dice` supplies deterministic uniform randoms for
    /// the fault injector. Returns `None` when the queue is empty.
    /// Telemetry events (sojourn samples, marks, wire drops, episode
    /// transitions) are delivered to `sub`.
    pub(crate) fn next_tx<S: Subscriber>(
        &mut self,
        now: SimTime,
        mut dice: impl FnMut() -> f64,
        arena: &mut RingArena,
        sub: &mut S,
    ) -> Option<TxStart> {
        loop {
            let d = self.sched.dequeue(arena)?;
            let mut pkt = d.item;
            if cfg!(feature = "strict-invariants") {
                self.accounted_out_bytes += d.bytes;
                ecnsharp_sim::invariant!(
                    self.accounted_in_bytes
                        == self.accounted_out_bytes + self.sched.backlog_bytes(),
                    "byte conservation broken after dequeue: in={} out={} backlog={}",
                    self.accounted_in_bytes,
                    self.accounted_out_bytes,
                    self.sched.backlog_bytes()
                );
                ecnsharp_sim::invariant!(
                    now >= pkt.enqueued_at,
                    "negative sojourn: dequeued at {now} but enqueued at {}",
                    pkt.enqueued_at
                );
            }
            let verdict = self
                .aqm
                .on_dequeue(now, &self.queue_state(), &Self::view(&pkt));
            self.emit_episode(now, sub);
            match verdict {
                DequeueVerdict::Drop => {
                    self.stats.aqm_deq_drops += 1;
                    emit!(
                        sub,
                        on_packet_dropped,
                        self.meta(now),
                        self.drop_ev(&pkt, DropReason::AqmDequeue)
                    );
                    continue;
                }
                DequeueVerdict::Mark => {
                    debug_assert!(pkt.ecn().is_ect());
                    pkt.set_ecn(Ecn::Ce);
                    self.stats.deq_marks += 1;
                    emit!(
                        sub,
                        on_ce_marked,
                        self.meta(now),
                        CeMarked {
                            port: self.owner_port,
                            flow: pkt.flow.0,
                            seq: pkt.seq(),
                            site: MarkSite::Dequeue,
                        }
                    );
                }
                DequeueVerdict::Pass => {}
            }
            emit!(
                sub,
                on_sojourn_sampled,
                self.meta(now),
                SojournSampled {
                    port: self.owner_port,
                    flow: pkt.flow.0,
                    sojourn_ns: now.saturating_since(pkt.enqueued_at).as_nanos(),
                    backlog_bytes: self.sched.backlog_bytes(),
                }
            );
            self.stats.dequeued += 1;
            let class = d.class;
            // Pre-sized in `new()` to the scheduler's class count; the
            // resize only fires if a scheduler dequeues an out-of-range
            // class it never advertised.
            if self.tx_payload_per_class.len() <= class {
                self.tx_payload_per_class.resize(class + 1, 0);
            }
            self.tx_payload_per_class[class] += pkt.payload();
            if self.fault_drop_p > 0.0 && dice() < self.fault_drop_p {
                self.stats.fault_drops += 1;
                emit!(
                    sub,
                    on_packet_dropped,
                    self.meta(now),
                    self.drop_ev(&pkt, DropReason::Fault)
                );
                continue;
            }
            if self.corrupt_p > 0.0 && dice() < self.corrupt_p {
                self.stats.corrupt_drops += 1;
                emit!(
                    sub,
                    on_packet_dropped,
                    self.meta(now),
                    self.drop_ev(&pkt, DropReason::Corrupt)
                );
                continue;
            }
            if let Some(ge) = self.ge.as_mut() {
                if ge.roll(&mut dice) {
                    self.stats.burst_drops += 1;
                    emit!(
                        sub,
                        on_packet_dropped,
                        self.meta(now),
                        self.drop_ev(&pkt, DropReason::Burst)
                    );
                    continue;
                }
            }
            let tx_time = self.rate.tx_time(d.bytes);
            return Some(TxStart { pkt, tx_time });
        }
    }

    /// Bench-support wrapper around the crate-private [`Self::enqueue`]
    /// (the `telemetry_noop` and `cache_pressure` gates of `ecnsharp-bench`
    /// drive the port hot path in isolation). Not part of the public API surface.
    #[doc(hidden)]
    pub fn bench_enqueue<S: Subscriber>(
        &mut self,
        now: SimTime,
        pkt: Packet,
        arena: &mut RingArena,
        sub: &mut S,
    ) -> bool {
        self.enqueue(now, pkt, arena, sub)
    }

    /// Bench-support wrapper around the crate-private [`Self::next_tx`]:
    /// returns the transmitted packet and its serialization time.
    #[doc(hidden)]
    pub fn bench_next_tx<S: Subscriber>(
        &mut self,
        now: SimTime,
        dice: impl FnMut() -> f64,
        arena: &mut RingArena,
        sub: &mut S,
    ) -> Option<(Packet, Duration)> {
        self.next_tx(now, dice, arena, sub)
            .map(|t| (t.pkt, t.tx_time))
    }

    /// Bench-support wrapper around the crate-private [`Self::pool_ring`]:
    /// migrates this port's FIFO onto `arena`. Not part of the public API
    /// surface.
    #[doc(hidden)]
    pub fn bench_pool_ring(&mut self, arena: &mut RingArena) {
        self.pool_ring(arena);
    }
}

/// Bench-support constructor for a standalone port not owned by a
/// [`crate::Network`]. Not part of the public API surface.
#[doc(hidden)]
pub fn bench_port(cfg: PortConfig) -> EgressPort {
    EgressPort::new(
        NodeId(0),
        0,
        Rate::from_gbps(10),
        Duration::from_micros(1),
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use ecnsharp_aqm::{DctcpRed, DropTail, Tcn};
    use ecnsharp_telemetry::NoopSubscriber;

    fn pooled(cfg: PortConfig) -> (EgressPort, RingArena) {
        let mut p = port(cfg);
        let mut arena = RingArena::new();
        p.pool_ring(&mut arena);
        (p, arena)
    }

    fn port(cfg: PortConfig) -> EgressPort {
        EgressPort::new(
            NodeId(1),
            0,
            Rate::from_gbps(10),
            Duration::from_micros(1),
            cfg,
        )
    }

    fn pkt(payload: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(2), 0, payload)
    }

    #[test]
    fn pooled_port_matches_fifo_behaviour() {
        // The pooled ring must be observationally identical to the inline
        // FIFO: same admissions, same tail drops, same dequeue order.
        let (mut p, mut arena) = pooled(PortConfig::fifo(4_000, Box::new(DropTail::new())));
        assert!(matches!(p.sched, PortSched::Pooled(_)));
        assert!(p.enqueue(SimTime::ZERO, pkt(1460), &mut arena, &mut NoopSubscriber));
        assert!(p.enqueue(SimTime::ZERO, pkt(1460), &mut arena, &mut NoopSubscriber));
        assert!(!p.enqueue(SimTime::ZERO, pkt(1460), &mut arena, &mut NoopSubscriber));
        assert_eq!(p.stats().tail_drops, 1);
        assert_eq!(p.backlog_pkts(), 2);
        assert_eq!(p.backlog_bytes(), 3076);
        let a = p
            .next_tx(SimTime::ZERO, || 1.0, &mut arena, &mut NoopSubscriber)
            .unwrap();
        // 1538 B at 10 Gbps, same as the inline-FIFO tx_time test.
        assert_eq!(a.tx_time, Duration::from_nanos(1230));
        assert!(p
            .next_tx(SimTime::ZERO, || 1.0, &mut arena, &mut NoopSubscriber)
            .is_some());
        assert!(p
            .next_tx(SimTime::ZERO, || 1.0, &mut arena, &mut NoopSubscriber)
            .is_none());
        assert_eq!(p.backlog_bytes(), 0);
    }

    #[test]
    fn pooled_port_marks_at_enqueue_like_fifo() {
        let (mut p, mut arena) = pooled(PortConfig::fifo(
            1_000_000,
            Box::new(DctcpRed::with_threshold(3_500)),
        ));
        for _ in 0..3 {
            assert!(p.enqueue(SimTime::ZERO, pkt(1460), &mut arena, &mut NoopSubscriber));
        }
        assert_eq!(p.stats().enq_marks, 1);
        let mut last = None;
        while let Some(tx) = p.next_tx(SimTime::ZERO, || 1.0, &mut arena, &mut NoopSubscriber) {
            last = Some(tx.pkt.ecn());
        }
        assert_eq!(last, Some(Ecn::Ce), "marked packet dequeues last");
    }

    #[test]
    fn pooled_port_and_private_fifo_agree_on_a_mixed_trace() {
        // Same arrivals and service opportunities through both storage
        // kinds: bursts that wrap, grow and (with tiny packets under a
        // byte-capacity buffer) spill the pooled window, drains that
        // rewind it. Every observable must match at every step.
        let cfg = || PortConfig::fifo(20_000, Box::new(DctcpRed::with_threshold(6_000)));
        let mut private = port(cfg());
        let (mut pooled, mut arena) = pooled(cfg());
        let mut none = RingArena::new();
        let mut rng = Rng::seed_from_u64(0xF1F0);
        let mut now = SimTime::ZERO;
        let mut spilled = false;
        for step in 0..4_000u64 {
            // Phases of mostly-arrivals and mostly-service, so the queue
            // both saturates and drains dry.
            let arrive = rng.f64() < if (step / 400) % 2 == 0 { 0.7 } else { 0.3 };
            if arrive {
                let payload = [1, 100, 1460][(rng.f64() * 3.0) as usize];
                let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(2), step, payload);
                p.set_ecn(Ecn::Ect);
                let a = private.enqueue(now, p.clone(), &mut none, &mut NoopSubscriber);
                let b = pooled.enqueue(now, p, &mut arena, &mut NoopSubscriber);
                assert_eq!(a, b, "admission differs at step {step}");
            } else {
                let a = private.next_tx(now, || 1.0, &mut none, &mut NoopSubscriber);
                let b = pooled.next_tx(now, || 1.0, &mut arena, &mut NoopSubscriber);
                assert_eq!(
                    a.map(|t| (t.pkt.seq(), t.pkt.ecn(), t.tx_time)),
                    b.map(|t| (t.pkt.seq(), t.pkt.ecn(), t.tx_time)),
                    "transmission differs at step {step}"
                );
            }
            assert_eq!(private.backlog_pkts(), pooled.backlog_pkts());
            assert_eq!(private.backlog_bytes(), pooled.backlog_bytes());
            spilled |= pooled.backlog_pkts() > pooled_ring_slots(20_000) as u64;
            now += Duration::from_nanos(500);
        }
        assert_eq!(private.stats(), pooled.stats());
        let st = pooled.stats();
        assert!(st.tail_drops > 0 && st.enq_marks > 0 && st.dequeued > 1_000);
        assert!(
            spilled,
            "trace never pushed the pooled ring past its window"
        );
        assert!(arena.overflow_breach().is_none());
    }

    #[test]
    fn tail_drop_at_capacity() {
        let mut p = port(PortConfig::fifo(4_000, Box::new(DropTail::new())));
        assert!(p.enqueue(
            SimTime::ZERO,
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        )); // 1538 wire
        assert!(p.enqueue(
            SimTime::ZERO,
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        )); // 3076
        assert!(!p.enqueue(
            SimTime::ZERO,
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        )); // would be 4614 > 4000
        assert_eq!(p.stats().tail_drops, 1);
        assert_eq!(p.backlog_pkts(), 2);
    }

    #[test]
    fn dctcp_red_marks_at_enqueue() {
        let mut p = port(PortConfig::fifo(
            1_000_000,
            Box::new(DctcpRed::with_threshold(3_500)),
        ));
        assert!(p.enqueue(
            SimTime::ZERO,
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        )); // occupancy 1538
        assert!(p.enqueue(
            SimTime::ZERO,
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        )); // occupancy 3076
            // Third packet pushes occupancy to 4614 > 3500: marked.
        assert!(p.enqueue(
            SimTime::ZERO,
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        ));
        assert_eq!(p.stats().enq_marks, 1);
        // The marked packet is the last one out.
        let mut dice = || 1.0;
        let a = p
            .next_tx(
                SimTime::ZERO,
                &mut dice,
                &mut RingArena::new(),
                &mut NoopSubscriber,
            )
            .unwrap();
        let b = p
            .next_tx(
                SimTime::ZERO,
                &mut dice,
                &mut RingArena::new(),
                &mut NoopSubscriber,
            )
            .unwrap();
        let c = p
            .next_tx(
                SimTime::ZERO,
                &mut dice,
                &mut RingArena::new(),
                &mut NoopSubscriber,
            )
            .unwrap();
        assert_eq!(a.pkt.ecn(), Ecn::Ect);
        assert_eq!(b.pkt.ecn(), Ecn::Ect);
        assert_eq!(c.pkt.ecn(), Ecn::Ce);
    }

    #[test]
    fn tcn_marks_at_dequeue_based_on_sojourn() {
        let mut p = port(PortConfig::fifo(
            1_000_000,
            Box::new(Tcn::new(Duration::from_micros(100))),
        ));
        assert!(p.enqueue(
            SimTime::from_micros(0),
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        ));
        // Dequeued 150 us later: sojourn above threshold, marked.
        let tx = p
            .next_tx(
                SimTime::from_micros(150),
                &mut || 1.0,
                &mut RingArena::new(),
                &mut NoopSubscriber,
            )
            .unwrap();
        assert_eq!(tx.pkt.ecn(), Ecn::Ce);
        assert_eq!(p.stats().deq_marks, 1);
        // Fast path: no mark.
        assert!(p.enqueue(
            SimTime::from_micros(200),
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber
        ));
        let tx = p
            .next_tx(
                SimTime::from_micros(250),
                &mut || 1.0,
                &mut RingArena::new(),
                &mut NoopSubscriber,
            )
            .unwrap();
        assert_eq!(tx.pkt.ecn(), Ecn::Ect);
    }

    #[test]
    fn tx_time_uses_wire_bytes() {
        let mut p = port(PortConfig::fifo(1_000_000, Box::new(DropTail::new())));
        p.enqueue(
            SimTime::ZERO,
            pkt(1460),
            &mut RingArena::new(),
            &mut NoopSubscriber,
        );
        let tx = p
            .next_tx(
                SimTime::ZERO,
                &mut || 1.0,
                &mut RingArena::new(),
                &mut NoopSubscriber,
            )
            .unwrap();
        // 1538 B at 10 Gbps = 1230.4 ns
        assert_eq!(tx.tx_time, Duration::from_nanos(1230));
    }

    #[test]
    fn fault_injection_drops_deterministically() {
        let cfg = PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_fault_drop(0.5);
        let mut p = port(cfg);
        for _ in 0..4 {
            p.enqueue(
                SimTime::ZERO,
                pkt(1460),
                &mut RingArena::new(),
                &mut NoopSubscriber,
            );
        }
        // Dice alternating below/above p: drop, keep, drop, keep.
        let seq = [0.1, 0.9, 0.2, 0.8];
        let mut i = 0;
        let mut dice = || {
            let v = seq[i];
            i += 1;
            v
        };
        let tx = p.next_tx(
            SimTime::ZERO,
            &mut dice,
            &mut RingArena::new(),
            &mut NoopSubscriber,
        );
        assert!(tx.is_some());
        assert_eq!(p.stats().fault_drops, 1);
        let tx = p.next_tx(
            SimTime::ZERO,
            &mut dice,
            &mut RingArena::new(),
            &mut NoopSubscriber,
        );
        assert!(tx.is_some());
        assert_eq!(p.stats().fault_drops, 2);
        assert!(p
            .next_tx(
                SimTime::ZERO,
                &mut || 1.0,
                &mut RingArena::new(),
                &mut NoopSubscriber
            )
            .is_none());
    }

    #[test]
    fn empty_queue_yields_none() {
        let mut p = port(PortConfig::fifo(1_000, Box::new(DropTail::new())));
        assert!(p
            .next_tx(
                SimTime::ZERO,
                || 1.0,
                &mut RingArena::new(),
                &mut NoopSubscriber
            )
            .is_none());
    }

    #[test]
    fn stats_totals() {
        let s = PortStats {
            tail_drops: 1,
            aqm_enq_drops: 2,
            aqm_deq_drops: 3,
            fault_drops: 4,
            corrupt_drops: 7,
            burst_drops: 9,
            enq_marks: 5,
            deq_marks: 6,
            ..PortStats::default()
        };
        assert_eq!(s.total_drops(), 26);
        assert_eq!(s.total_marks(), 11);
    }

    #[test]
    #[should_panic(expected = "fault_drop_p must be a probability")]
    fn fault_drop_rejects_out_of_range() {
        let _ = PortConfig::fifo(1_000, Box::new(DropTail::new())).with_fault_drop(1.5);
    }

    #[test]
    #[should_panic(expected = "fault_drop_p must be a probability")]
    fn fault_drop_rejects_nan() {
        let _ = PortConfig::fifo(1_000, Box::new(DropTail::new())).with_fault_drop(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "corrupt_p must be a probability")]
    fn corrupt_rejects_negative() {
        let _ = PortConfig::fifo(1_000, Box::new(DropTail::new())).with_corrupt(-0.1);
    }

    #[test]
    fn corruption_counted_separately_from_fault_drops() {
        let cfg = PortConfig::fifo(1_000_000, Box::new(DropTail::new()))
            .with_fault_drop(0.25)
            .with_corrupt(0.25);
        let mut p = port(cfg);
        for _ in 0..3 {
            p.enqueue(
                SimTime::ZERO,
                pkt(1460),
                &mut RingArena::new(),
                &mut NoopSubscriber,
            );
        }
        // Packet 1: fault draw 0.1 < 0.25 → fault drop (no corrupt draw).
        // Packet 2: fault 0.9, corrupt 0.1 < 0.25 → corrupt drop.
        // Packet 3: fault 0.9, corrupt 0.9 → transmitted.
        let seq = [0.1, 0.9, 0.1, 0.9, 0.9];
        let mut i = 0;
        let mut dice = || {
            let v = seq[i];
            i += 1;
            v
        };
        let tx = p.next_tx(
            SimTime::ZERO,
            &mut dice,
            &mut RingArena::new(),
            &mut NoopSubscriber,
        );
        assert!(tx.is_some());
        assert_eq!(i, 5, "fault-dropped packet must not consume a corrupt draw");
        assert_eq!(p.stats().fault_drops, 1);
        assert_eq!(p.stats().corrupt_drops, 1);
        assert_eq!(p.stats().burst_drops, 0);
    }

    #[test]
    fn ge_burst_drops_counted_and_draw_exact() {
        // Always-bad GE chain: every packet dropped as a burst loss, and
        // each surviving/attempted packet costs exactly two draws.
        let ge = GilbertElliott::new(1.0, 0.0, 1.0, 0.0);
        let cfg = PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_ge(ge);
        let mut p = port(cfg);
        for _ in 0..3 {
            p.enqueue(
                SimTime::ZERO,
                pkt(1460),
                &mut RingArena::new(),
                &mut NoopSubscriber,
            );
        }
        let mut draws = 0u64;
        let tx = p.next_tx(
            SimTime::ZERO,
            || {
                draws += 1;
                0.0
            },
            &mut RingArena::new(),
            &mut NoopSubscriber,
        );
        assert!(tx.is_none(), "all packets lost to the burst");
        assert_eq!(p.stats().burst_drops, 3);
        assert_eq!(draws, 6, "two draws per packet");
        assert_eq!(p.stats().fault_drops, 0);
        assert_eq!(p.stats().corrupt_drops, 0);
    }

    #[test]
    fn byte_conservation_holds_with_wire_drops() {
        // All wire-loss classes fire after dequeue accounting, so the
        // strict-invariants byte-conservation check must hold throughout
        // (under the default build the invariant! calls are debug_asserts —
        // the test still exercises the same code path).
        let ge = GilbertElliott::new(0.5, 0.5, 1.0, 0.0);
        let cfg = PortConfig::fifo(1_000_000, Box::new(DropTail::new()))
            .with_fault_drop(0.3)
            .with_corrupt(0.3)
            .with_ge(ge);
        let mut p = port(cfg);
        let mut rng = ecnsharp_sim::Rng::seed_from_u64(99);
        let mut sent = 0u64;
        let mut dropped = 0u64;
        for _ in 0..50 {
            assert!(p.enqueue(
                SimTime::ZERO,
                pkt(1460),
                &mut RingArena::new(),
                &mut NoopSubscriber
            ));
            while let Some(_tx) = p.next_tx(
                SimTime::ZERO,
                || rng.f64(),
                &mut RingArena::new(),
                &mut NoopSubscriber,
            ) {
                sent += 1;
            }
        }
        dropped += p.stats().fault_drops + p.stats().corrupt_drops + p.stats().burst_drops;
        assert_eq!(sent + dropped, 50, "every admitted packet is accounted");
        assert!(dropped > 0, "seeded run should see some wire loss");
        assert_eq!(p.backlog_pkts(), 0);
    }

    #[test]
    fn same_seed_same_fault_drops() {
        // The fault_drop_p wire-loss path is driven entirely by the seeded
        // dice: identical seeds must produce identical drop counts.
        let run = |seed: u64| {
            let cfg = PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_fault_drop(0.3);
            let mut p = port(cfg);
            let mut rng = ecnsharp_sim::Rng::seed_from_u64(seed);
            for _ in 0..100 {
                assert!(p.enqueue(
                    SimTime::ZERO,
                    pkt(1460),
                    &mut RingArena::new(),
                    &mut NoopSubscriber
                ));
                while p
                    .next_tx(
                        SimTime::ZERO,
                        || rng.f64(),
                        &mut RingArena::new(),
                        &mut NoopSubscriber,
                    )
                    .is_some()
                {}
            }
            p.stats().fault_drops
        };
        let a = run(7);
        assert!(a > 0, "p=0.3 over 100 packets must drop some");
        assert_eq!(a, run(7), "same seed, same drops");
        assert_ne!(a, run(8), "different seed takes a different drop path");
    }
}
