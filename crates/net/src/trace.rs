//! Packet-event tracing: an optional, bounded record of what happened to
//! packets as they moved through the network — the simulator's analogue of
//! the `--pcap` switches that event-driven stacks ship for debugging.
//!
//! The [`Tracer`] is a telemetry [`Subscriber`]: attach one with
//! [`crate::Network::with_subscriber`] (alone or in a composition tuple)
//! and it records the `ENQ`/`DRP`/`MRK` lifecycle from the typed event
//! stream. Events are kept in a bounded ring so a runaway simulation
//! cannot exhaust memory.

use crate::ids::{FlowId, NodeId};
use ecnsharp_sim::SimTime;
use ecnsharp_telemetry::DropReason;
#[cfg(feature = "telemetry")]
use ecnsharp_telemetry::{CeMarked, Meta, PacketDropped, PacketEnqueued, Subscriber};
use std::collections::VecDeque;
use std::fmt;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Packet was admitted to an egress queue.
    Enqueue,
    /// Packet was dropped, with the cause (tail, AQM, wire faults,
    /// no-route — the same taxonomy as the per-port drop counters).
    Drop(DropReason),
    /// Packet was CE-marked.
    Mark,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceKind::Enqueue => f.write_str("ENQ"),
            TraceKind::Drop(reason) => write!(f, "DRP:{reason}"),
            TraceKind::Mark => f.write_str("MRK"),
        }
    }
}

/// One traced event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When.
    pub at: SimTime,
    /// Where.
    pub node: NodeId,
    /// What.
    pub kind: TraceKind,
    /// Flow of the packet.
    pub flow: FlowId,
    /// Byte sequence of the packet.
    pub seq: u64,
    /// Payload bytes.
    pub payload: u64,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} {} {} {} seq={} len={}",
            format!("{}", self.at),
            self.kind,
            self.node,
            self.flow,
            self.seq,
            self.payload
        )
    }
}

/// A bounded ring of trace events.
#[derive(Debug)]
pub struct Tracer {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    /// Total events observed (including ones evicted from the ring).
    pub observed: u64,
    /// Restrict tracing to one flow, if set.
    pub flow_filter: Option<FlowId>,
}

/// Hard ceiling on [`Tracer`] ring capacity. Keeps the ring's one-shot
/// pre-allocation bounded (~64 Ki events ≈ 3 MiB) no matter what a
/// caller asks for.
pub const MAX_TRACE_CAPACITY: usize = 65_536;

impl Tracer {
    /// Create a tracer holding at most `capacity` events. Capacities above
    /// [`MAX_TRACE_CAPACITY`] are clamped to it, so the ring's single
    /// up-front allocation is also its peak: the eviction path never
    /// grows it (pinned by the `capacity_clamp_bounds_peak_allocation`
    /// test).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let capacity = capacity.min(MAX_TRACE_CAPACITY);
        Tracer {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            observed: 0,
            flow_filter: None,
        }
    }

    /// The (clamped) event capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record an event from raw fields (the telemetry events the tracer
    /// is fed from carry no packet). Honors the flow filter and the ring
    /// bound.
    pub fn record_raw(
        &mut self,
        at: SimTime,
        node: NodeId,
        kind: TraceKind,
        flow: FlowId,
        seq: u64,
        payload: u64,
    ) {
        if let Some(f) = self.flow_filter {
            if flow != f {
                return;
            }
        }
        self.observed += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceEvent {
            at,
            node,
            kind,
            flow,
            seq,
            payload,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Render the retained events as text, one per line.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.ring {
            out.push_str(&format!("{e}\n"));
        }
        out
    }
}

#[cfg(feature = "telemetry")]
impl Subscriber for Tracer {
    #[inline]
    fn on_packet_enqueued(&mut self, meta: &Meta, ev: &PacketEnqueued) {
        self.record_raw(
            meta.at,
            NodeId(meta.node as usize),
            TraceKind::Enqueue,
            FlowId(ev.flow),
            ev.seq,
            ev.payload,
        );
    }

    #[inline]
    fn on_packet_dropped(&mut self, meta: &Meta, ev: &PacketDropped) {
        self.record_raw(
            meta.at,
            NodeId(meta.node as usize),
            TraceKind::Drop(ev.reason),
            FlowId(ev.flow),
            ev.seq,
            ev.payload,
        );
    }

    #[inline]
    fn on_ce_marked(&mut self, meta: &Meta, ev: &CeMarked) {
        self.record_raw(
            meta.at,
            NodeId(meta.node as usize),
            TraceKind::Mark,
            FlowId(ev.flow),
            ev.seq,
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: &mut Tracer, at: SimTime, node: usize, kind: TraceKind, flow: u64, seq: u64) {
        t.record_raw(at, NodeId(node), kind, FlowId(flow), seq, 1460);
    }

    #[test]
    fn records_and_dumps() {
        let mut t = Tracer::new(10);
        rec(&mut t, SimTime::from_micros(1), 2, TraceKind::Enqueue, 7, 0);
        rec(&mut t, SimTime::from_micros(2), 2, TraceKind::Mark, 7, 1460);
        assert_eq!(t.len(), 2);
        let dump = t.dump();
        assert!(dump.contains("ENQ"));
        assert!(dump.contains("MRK"));
        assert!(dump.contains("f7"));
    }

    #[test]
    fn ring_bounds_memory() {
        let mut t = Tracer::new(3);
        for k in 0..100u64 {
            rec(&mut t, SimTime::from_micros(k), 0, TraceKind::Enqueue, 1, k);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.observed, 100);
        // Oldest retained is event 97.
        assert_eq!(t.events().next().unwrap().seq, 97);
    }

    #[test]
    fn flow_filter() {
        let mut t = Tracer::new(10);
        t.flow_filter = Some(FlowId(5));
        rec(&mut t, SimTime::ZERO, 0, TraceKind::Enqueue, 4, 0);
        rec(&mut t, SimTime::ZERO, 0, TraceKind::Enqueue, 5, 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.events().next().unwrap().flow, FlowId(5));
    }

    #[test]
    fn capacity_clamp_bounds_peak_allocation() {
        // Ask for far more than the ceiling; the clamp must bound both the
        // logical capacity and the ring's actual allocation, even after
        // overflowing eviction kicks in.
        let mut t = Tracer::new(10_000_000);
        assert_eq!(t.capacity(), MAX_TRACE_CAPACITY);
        let initial_alloc = t.ring.capacity();
        for k in 0..(MAX_TRACE_CAPACITY as u64 + 100) {
            rec(&mut t, SimTime::from_nanos(k), 0, TraceKind::Enqueue, 1, k);
        }
        assert_eq!(t.len(), MAX_TRACE_CAPACITY);
        assert_eq!(t.observed, MAX_TRACE_CAPACITY as u64 + 100);
        // Peak allocation equals the up-front allocation: eviction keeps
        // len == capacity, so push_back never reallocates.
        assert_eq!(t.ring.capacity(), initial_alloc);
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn tracer_subscribes_to_events() {
        let mut t = Tracer::new(8);
        let meta = Meta {
            at: SimTime::from_micros(4),
            node: 3,
        };
        t.on_packet_enqueued(
            &meta,
            &PacketEnqueued {
                port: 0,
                flow: 9,
                seq: 100,
                payload: 1460,
                wire_bytes: 1518,
                backlog_bytes: 0,
                marked: false,
            },
        );
        t.on_packet_dropped(
            &meta,
            &PacketDropped {
                port: 0,
                flow: 9,
                seq: 200,
                payload: 1460,
                wire_bytes: 1518,
                reason: DropReason::Tail,
            },
        );
        t.on_ce_marked(
            &meta,
            &CeMarked {
                port: 0,
                flow: 9,
                seq: 300,
                site: ecnsharp_telemetry::MarkSite::Enqueue,
            },
        );
        assert_eq!(t.len(), 3);
        let dump = t.dump();
        assert!(dump.contains("ENQ"));
        assert!(dump.contains("DRP:tail"));
        assert!(dump.contains("MRK"));
        assert!(dump.contains("n3"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TraceKind::Drop(DropReason::Tail)), "DRP:tail");
        assert_eq!(
            format!("{}", TraceKind::Drop(DropReason::NoRoute)),
            "DRP:no-route"
        );
        let e = TraceEvent {
            at: SimTime::from_micros(3),
            node: NodeId(1),
            kind: TraceKind::Mark,
            flow: FlowId(9),
            seq: 100,
            payload: 1460,
        };
        let s = format!("{e}");
        assert!(s.contains("n1") && s.contains("f9") && s.contains("seq=100"));
    }
}
