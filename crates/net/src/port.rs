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

use crate::cell::{CellList, CellSlab};
use crate::fault::GilbertElliott;
use crate::ids::NodeId;
use crate::packet::{Ecn, Packet};
use ecnsharp_aqm::{Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState};
use ecnsharp_sched::Dwrr;
use ecnsharp_sim::{Duration, Rate, Rng, SimTime};
use ecnsharp_telemetry::Subscriber;
#[cfg(feature = "telemetry")]
use ecnsharp_telemetry::{
    CeMarked, DropReason, EpisodeEntered, EpisodeExited, MarkSite, Meta, PacketDropped,
    PacketEnqueued, SojournSampled,
};

/// The scheduler slot of a port. Almost every port in every experiment is
/// a plain FIFO, and its enqueue/dequeue/backlog calls sit on the
/// per-packet hot path — so the set is closed and every call is a `match`,
/// with the rarely used DWRR (§5.4) boxed to keep the slot small.
pub enum PortSched {
    /// Single-queue FIFO whose packets sit in the engine's [`CellSlab`]
    /// (see [`crate::cell`]).
    Fifo(CellList),
    /// Deficit Weighted Round Robin over the packet classes, in its own
    /// per-class storage.
    Dwrr(Box<Dwrr<Packet>>),
}

impl PortSched {
    #[inline]
    fn classes(&self) -> usize {
        match self {
            PortSched::Fifo(_) => 1,
            PortSched::Dwrr(d) => d.classes(),
        }
    }

    /// Append `item` to `class`, which is below [`Self::classes`].
    #[inline]
    fn enqueue(&mut self, cells: &mut CellSlab, class: usize, bytes: u64, item: Packet) {
        debug_assert!(class < self.classes(), "class {class} out of range");
        match self {
            PortSched::Fifo(q) => q.push(cells, bytes, item),
            PortSched::Dwrr(d) => d.enqueue(class, bytes, item),
        }
    }

    /// The next packet to transmit as `(class, bytes, packet)`.
    #[inline]
    fn dequeue(&mut self, cells: &mut CellSlab) -> Option<(usize, u64, Packet)> {
        match self {
            PortSched::Fifo(q) => q.pop(cells).map(|(bytes, item)| (0, bytes, item)),
            PortSched::Dwrr(d) => d.dequeue(),
        }
    }

    #[inline]
    fn backlog_bytes(&self) -> u64 {
        match self {
            PortSched::Fifo(q) => q.backlog_bytes(),
            PortSched::Dwrr(d) => d.backlog_bytes(),
        }
    }

    #[inline]
    fn backlog_pkts(&self) -> u64 {
        match self {
            PortSched::Fifo(q) => q.backlog_pkts(),
            PortSched::Dwrr(d) => d.backlog_pkts(),
        }
    }
}

/// Static configuration of an egress port.
pub struct PortConfig {
    /// Buffer capacity in wire bytes (tail drop beyond it).
    pub capacity_bytes: u64,
    /// AQM policy instance.
    pub aqm: Box<dyn Aqm>,
    /// Packet scheduler instance.
    pub sched: PortSched,
    /// Optional Gilbert–Elliott loss process applied to outgoing packets
    /// (`None` disables) — the one wire-loss model. Deterministically
    /// seeded by the network.
    pub ge: Option<GilbertElliott>,
}

impl PortConfig {
    /// A FIFO port with the given buffer and AQM, no fault injection.
    pub fn fifo(capacity_bytes: u64, aqm: Box<dyn Aqm>) -> Self {
        PortConfig {
            capacity_bytes,
            aqm,
            sched: PortSched::Fifo(CellList::default()),
            ge: None,
        }
    }

    /// Serve the port's classes with `dwrr` instead of one FIFO (the §5.4
    /// experiment).
    pub fn with_dwrr(mut self, dwrr: Dwrr<Packet>) -> Self {
        self.sched = PortSched::Dwrr(Box::new(dwrr));
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
        self.tail_drops + self.aqm_enq_drops + self.aqm_deq_drops + self.burst_drops
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
    /// The port's exact identities (`strict-invariants` builds only).
    #[cfg(feature = "strict-invariants")]
    audit: Audit,
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

/// What `strict-invariants` builds check a port against, in exact
/// integers: byte conservation, Little's law over each busy period, and
/// work conservation. Other builds do not have it, so a port costs them
/// nothing for it.
#[cfg(feature = "strict-invariants")]
#[derive(Debug, Clone, Copy, Default)]
struct Audit {
    /// Wire bytes admitted to the queue.
    bytes_in: u64,
    /// Wire bytes removed from the queue, transmitted or dropped.
    bytes_out: u64,
    /// ∫ backlog dt since the queue was last empty, in ns·packets.
    area: u128,
    /// Σ sojourn of the packets that left the queue since then, in ns.
    /// Wrapping, so a negative sojourn shows up as a broken identity.
    sojourn: u128,
    /// When the backlog last changed.
    changed_at: SimTime,
    /// When the last transmission's serialization ends.
    tx_end: SimTime,
    /// When the last packet entered an empty queue.
    filled_at: SimTime,
    /// When the link last came up.
    up_at: SimTime,
}

/// The `strict-invariants` side of a port: see [`Audit`].
#[cfg(feature = "strict-invariants")]
impl EgressPort {
    /// Fold the backlog held since its last change into the Little's-law
    /// area.
    fn audit_backlog(&mut self, now: SimTime) {
        let held = now.saturating_since(self.audit.changed_at).as_nanos();
        self.audit.area += u128::from(self.sched.backlog_pkts()) * u128::from(held);
        self.audit.changed_at = now;
    }

    /// Work conservation: a transmission of `tx_time` starting at `now`
    /// starts exactly when the previous one ended, the queue last filled
    /// from empty, or the link last came up, whichever is latest.
    pub(crate) fn audit_tx_start(&mut self, now: SimTime, tx_time: Duration) {
        let a = &mut self.audit;
        let due = a.tx_end.max(a.filled_at).max(a.up_at);
        ecnsharp_sim::invariant!(
            now == due,
            "work conservation broken: a transmission starts at {now}, not at {due} \
             (wire free {}, queue filled {}, link up {})",
            a.tx_end,
            a.filled_at,
            a.up_at
        );
        a.tx_end = now + tx_time;
    }

    /// Record a link-up transition at `at`.
    pub(crate) fn audit_link_up(&mut self, at: SimTime) {
        self.audit.up_at = at;
    }
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
            ge: cfg.ge,
            link_up: true,
            wire_free: WireFree::At(SimTime::ZERO, 0),
            stats: PortStats::default(),
            tx_payload_per_class: vec![0; classes],
            #[cfg(feature = "strict-invariants")]
            audit: Audit::default(),
            owner: NodeId(0),
            owner_port: 0,
            dice: Rng::seed_from_u64(0),
        }
    }

    /// (Re)seed the port's fault-injection dice stream.
    pub(crate) fn seed_dice(&mut self, seed: u64) {
        self.dice = Rng::seed_from_u64(seed);
    }

    /// Move this port's queued packets, oldest first, from `from` into
    /// `to`: its node is changing engines. A DWRR port's queues travel
    /// inside the port.
    pub(crate) fn migrate_cells(&mut self, from: &mut CellSlab, to: &mut CellSlab) {
        if let PortSched::Fifo(q) = &mut self.sched {
            q.migrate(from, to);
        }
    }

    /// [`Self::next_tx`] drawing dice from the port's own seeded stream.
    ///
    /// Ports without a loss process never consume dice, so the common
    /// fault-free path skips the stream entirely.
    pub(crate) fn next_tx_dice<S: Subscriber>(
        &mut self,
        now: SimTime,
        cells: &mut CellSlab,
        sub: &mut S,
    ) -> Option<TxStart> {
        if self.ge.is_some() {
            let mut rng = std::mem::replace(&mut self.dice, Rng::seed_from_u64(0));
            let tx = self.next_tx(now, || rng.f64(), cells, sub);
            self.dice = rng;
            tx
        } else {
            // Never called: the one dice site is behind the check above.
            self.next_tx(now, || 0.0, cells, sub)
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
        cells: &mut CellSlab,
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
        #[cfg(feature = "strict-invariants")]
        {
            self.audit_backlog(now);
            if self.sched.backlog_pkts() == 0 {
                self.audit.filled_at = now;
            }
        }
        self.sched.enqueue(cells, class, wire, pkt);
        self.stats.enqueued += 1;
        #[cfg(feature = "strict-invariants")]
        {
            self.audit.bytes_in += wire;
            ecnsharp_sim::invariant!(
                self.audit.bytes_in == self.audit.bytes_out + self.sched.backlog_bytes(),
                "byte conservation broken after enqueue: in={} out={} backlog={}",
                self.audit.bytes_in,
                self.audit.bytes_out,
                self.sched.backlog_bytes()
            );
        }
        true
    }

    /// Pull the next transmittable packet, applying dequeue-time AQM and
    /// wire loss. `dice` supplies deterministic uniform randoms for the
    /// Gilbert–Elliott process. Returns `None` when the queue is empty.
    /// Telemetry events (sojourn samples, marks, wire drops, episode
    /// transitions) are delivered to `sub`.
    pub(crate) fn next_tx<S: Subscriber>(
        &mut self,
        now: SimTime,
        mut dice: impl FnMut() -> f64,
        cells: &mut CellSlab,
        sub: &mut S,
    ) -> Option<TxStart> {
        loop {
            #[cfg(feature = "strict-invariants")]
            self.audit_backlog(now);
            let (class, bytes, mut pkt) = self.sched.dequeue(cells)?;
            #[cfg(feature = "strict-invariants")]
            {
                self.audit.bytes_out += bytes;
                ecnsharp_sim::invariant!(
                    self.audit.bytes_in == self.audit.bytes_out + self.sched.backlog_bytes(),
                    "byte conservation broken after dequeue: in={} out={} backlog={}",
                    self.audit.bytes_in,
                    self.audit.bytes_out,
                    self.sched.backlog_bytes()
                );
                // Little's law, exactly: over a busy period the packets'
                // sojourns add up to the area under the backlog. A packet
                // dropped at dequeue or on the wire counts; a tail drop
                // never entered the queue.
                let a = &mut self.audit;
                a.sojourn = a
                    .sojourn
                    .wrapping_add(u128::from(now.as_nanos()))
                    .wrapping_sub(u128::from(pkt.enqueued_at.as_nanos()));
                if self.sched.backlog_pkts() == 0 {
                    ecnsharp_sim::invariant!(
                        a.sojourn == a.area,
                        "Little's law broken at {now}: sojourns sum to {} ns but the \
                         backlog integrates to {} ns·pkts",
                        a.sojourn as i128,
                        a.area
                    );
                    (a.sojourn, a.area) = (0, 0);
                }
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
            // Sized in `new()` to the scheduler's class count.
            self.tx_payload_per_class[class] += pkt.payload();
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
            let tx_time = self.rate.tx_time(bytes);
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
        cells: &mut CellSlab,
        sub: &mut S,
    ) -> bool {
        self.enqueue(now, pkt, cells, sub)
    }

    /// Bench-support wrapper around the crate-private [`Self::next_tx`]:
    /// returns the transmitted packet and its serialization time.
    #[doc(hidden)]
    pub fn bench_next_tx<S: Subscriber>(
        &mut self,
        now: SimTime,
        dice: impl FnMut() -> f64,
        cells: &mut CellSlab,
        sub: &mut S,
    ) -> Option<(Packet, Duration)> {
        self.next_tx(now, dice, cells, sub)
            .map(|t| (t.pkt, t.tx_time))
    }

    /// Kept for the benchmark harness, which pools a port before
    /// driving it: every FIFO port already queues in the [`CellSlab`] its
    /// caller passes, so there is nothing to do. Not part of the public
    /// API surface.
    #[doc(hidden)]
    pub fn bench_pool_ring(&mut self, _cells: &mut CellSlab) {}
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

    /// A standalone port and the slab its FIFO queues in.
    struct Rig {
        p: EgressPort,
        cells: CellSlab,
    }

    impl Rig {
        fn new(cfg: PortConfig) -> Self {
            Rig {
                p: port(cfg),
                cells: CellSlab::new(),
            }
        }

        fn enqueue(&mut self, now: SimTime, pkt: Packet) -> bool {
            self.p
                .enqueue(now, pkt, &mut self.cells, &mut NoopSubscriber)
        }

        fn next_tx(&mut self, now: SimTime, dice: impl FnMut() -> f64) -> Option<TxStart> {
            self.p
                .next_tx(now, dice, &mut self.cells, &mut NoopSubscriber)
        }
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
    fn tail_drop_at_capacity() {
        let mut r = Rig::new(PortConfig::fifo(4_000, Box::new(DropTail::new())));
        assert!(r.enqueue(SimTime::ZERO, pkt(1460))); // 1538 wire
        assert!(r.enqueue(SimTime::ZERO, pkt(1460))); // 3076
        assert!(!r.enqueue(SimTime::ZERO, pkt(1460))); // would be 4614 > 4000
        assert_eq!(r.p.stats().tail_drops, 1);
        assert_eq!((r.p.backlog_pkts(), r.p.backlog_bytes()), (2, 3076));
        assert_eq!(r.cells.live(), 2, "a refused packet takes no cell");
        assert!(r.next_tx(SimTime::ZERO, || 1.0).is_some());
        assert!(r.next_tx(SimTime::ZERO, || 1.0).is_some());
        assert!(r.next_tx(SimTime::ZERO, || 1.0).is_none());
        assert_eq!((r.p.backlog_bytes(), r.cells.live()), (0, 0));
    }

    #[test]
    fn ports_sharing_a_slab_behave_as_on_their_own() {
        // Port `a` sees the same arrivals and service opportunities twice:
        // alone on its own slab, and on a slab it shares with a busy
        // neighbour whose cells interleave with its own. Bursts saturate
        // the 20 kB buffer with mixed sizes; drains run it dry. Every
        // observable of `a` must match at every step.
        let cfg = || PortConfig::fifo(20_000, Box::new(DctcpRed::with_threshold(6_000)));
        let mut alone = Rig::new(cfg());
        let (mut a, mut b, mut shared) = (port(cfg()), port(cfg()), CellSlab::new());
        let mut rng = Rng::seed_from_u64(0xF1F0);
        let mut now = SimTime::ZERO;
        let sub = &mut NoopSubscriber;
        for step in 0..4_000u64 {
            let arrive = rng.f64() < if (step / 400) % 2 == 0 { 0.7 } else { 0.3 };
            let mut p = Packet::data(
                FlowId(1),
                NodeId(0),
                NodeId(2),
                step,
                [1, 100, 1460][(step % 3) as usize],
            );
            p.set_ecn(Ecn::Ect);
            if rng.f64() < 0.6 {
                b.enqueue(now, p.clone(), &mut shared, sub);
            } else {
                let _ = b.next_tx(now, || 1.0, &mut shared, sub);
            }
            if arrive {
                let x = alone.enqueue(now, p.clone());
                let y = a.enqueue(now, p, &mut shared, sub);
                assert_eq!(x, y, "admission differs at step {step}");
            } else {
                let x = alone.next_tx(now, || 1.0);
                let y = a.next_tx(now, || 1.0, &mut shared, sub);
                assert_eq!(
                    x.map(|t| (t.pkt.seq(), t.pkt.ecn(), t.tx_time)),
                    y.map(|t| (t.pkt.seq(), t.pkt.ecn(), t.tx_time)),
                    "transmission differs at step {step}"
                );
            }
            assert_eq!(alone.p.backlog_pkts(), a.backlog_pkts());
            assert_eq!(alone.p.backlog_bytes(), a.backlog_bytes());
            assert_eq!(shared.live(), a.backlog_pkts() + b.backlog_pkts());
            now += Duration::from_nanos(500);
        }
        assert_eq!(alone.p.stats(), a.stats());
        let st = a.stats();
        assert!(st.tail_drops > 0 && st.enq_marks > 0 && st.dequeued > 1_000);
        assert!(shared.breach().is_none());
    }

    #[test]
    fn dctcp_red_marks_at_enqueue() {
        let mut r = Rig::new(PortConfig::fifo(
            1_000_000,
            Box::new(DctcpRed::with_threshold(3_500)),
        ));
        assert!(r.enqueue(SimTime::ZERO, pkt(1460))); // occupancy 1538
        assert!(r.enqueue(SimTime::ZERO, pkt(1460))); // occupancy 3076
                                                      // Third packet pushes occupancy to 4614 > 3500: marked.
        assert!(r.enqueue(SimTime::ZERO, pkt(1460)));
        assert_eq!(r.p.stats().enq_marks, 1);
        // The marked packet is the last one out.
        let order: Vec<Ecn> = std::iter::from_fn(|| r.next_tx(SimTime::ZERO, || 1.0))
            .map(|t| t.pkt.ecn())
            .collect();
        assert_eq!(order, vec![Ecn::Ect, Ecn::Ect, Ecn::Ce]);
    }

    #[test]
    fn tcn_marks_at_dequeue_based_on_sojourn() {
        let mut r = Rig::new(PortConfig::fifo(
            1_000_000,
            Box::new(Tcn::new(Duration::from_micros(100))),
        ));
        assert!(r.enqueue(SimTime::from_micros(0), pkt(1460)));
        // Dequeued 150 us later: sojourn above threshold, marked.
        let tx = r.next_tx(SimTime::from_micros(150), || 1.0).unwrap();
        assert_eq!(tx.pkt.ecn(), Ecn::Ce);
        assert_eq!(r.p.stats().deq_marks, 1);
        // Fast path: no mark.
        assert!(r.enqueue(SimTime::from_micros(200), pkt(1460)));
        let tx = r.next_tx(SimTime::from_micros(250), || 1.0).unwrap();
        assert_eq!(tx.pkt.ecn(), Ecn::Ect);
    }

    #[test]
    fn tx_time_uses_wire_bytes() {
        let mut r = Rig::new(PortConfig::fifo(1_000_000, Box::new(DropTail::new())));
        r.enqueue(SimTime::ZERO, pkt(1460));
        let tx = r.next_tx(SimTime::ZERO, || 1.0).unwrap();
        // 1538 B at 10 Gbps = 1230.4 ns
        assert_eq!(tx.tx_time, Duration::from_nanos(1230));
    }

    #[test]
    fn empty_queue_yields_none() {
        let mut r = Rig::new(PortConfig::fifo(1_000, Box::new(DropTail::new())));
        assert!(r.next_tx(SimTime::ZERO, || 1.0).is_none());
    }

    #[test]
    fn stats_totals() {
        let s = PortStats {
            tail_drops: 1,
            aqm_enq_drops: 2,
            aqm_deq_drops: 3,
            burst_drops: 9,
            enq_marks: 5,
            deq_marks: 6,
            ..PortStats::default()
        };
        assert_eq!(s.total_drops(), 15);
        assert_eq!(s.total_marks(), 11);
    }

    #[test]
    fn ge_burst_drops_counted_and_draw_exact() {
        // Always-bad GE chain: every packet dropped as a burst loss, and
        // each surviving/attempted packet costs exactly two draws.
        let ge = GilbertElliott::new(1.0, 0.0, 1.0, 0.0);
        let mut r = Rig::new(PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_ge(ge));
        for _ in 0..3 {
            r.enqueue(SimTime::ZERO, pkt(1460));
        }
        let mut draws = 0u64;
        let tx = r.next_tx(SimTime::ZERO, || {
            draws += 1;
            0.0
        });
        assert!(tx.is_none(), "all packets lost to the burst");
        assert_eq!(r.p.stats().burst_drops, 3);
        assert_eq!(draws, 6, "two draws per packet");
        assert_eq!(r.cells.live(), 0, "a wire drop frees its cell");
    }

    #[test]
    fn byte_conservation_holds_with_wire_drops() {
        // Wire loss fires after dequeue accounting, so the
        // strict-invariants byte-conservation check must hold throughout
        // (under the default build the invariant! calls are debug_asserts —
        // the test still exercises the same code path).
        let ge = GilbertElliott::new(0.5, 0.5, 1.0, 0.0);
        let mut r = Rig::new(PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_ge(ge));
        let mut rng = ecnsharp_sim::Rng::seed_from_u64(99);
        let mut sent = 0u64;
        for _ in 0..50 {
            assert!(r.enqueue(SimTime::ZERO, pkt(1460)));
            while r.next_tx(SimTime::ZERO, || rng.f64()).is_some() {
                sent += 1;
            }
        }
        let dropped = r.p.stats().burst_drops;
        assert_eq!(sent + dropped, 50, "every admitted packet is accounted");
        assert!(dropped > 0, "seeded run should see some wire loss");
        assert_eq!(r.p.backlog_pkts(), 0);
    }

    #[test]
    fn same_seed_same_wire_drops() {
        // Independent per-packet loss (a chain that never leaves the good
        // state) is driven entirely by the seeded dice: identical seeds
        // must produce identical drop counts.
        let run = |seed: u64| {
            let ge = GilbertElliott::new(0.0, 1.0, 0.0, 0.3);
            let mut r =
                Rig::new(PortConfig::fifo(1_000_000, Box::new(DropTail::new())).with_ge(ge));
            let mut rng = ecnsharp_sim::Rng::seed_from_u64(seed);
            for _ in 0..100 {
                assert!(r.enqueue(SimTime::ZERO, pkt(1460)));
                while r.next_tx(SimTime::ZERO, || rng.f64()).is_some() {}
            }
            r.p.stats().burst_drops
        };
        let a = run(7);
        assert!(a > 0, "p=0.3 over 100 packets must drop some");
        assert_eq!(a, run(7), "same seed, same drops");
        assert_ne!(a, run(8), "different seed takes a different drop path");
    }
}
