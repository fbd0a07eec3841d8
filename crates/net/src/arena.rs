//! Pooled per-switch ring storage for egress FIFO queues.
//!
//! A [`RingArena`] packs all of a node's FIFO slots into one `Vec` owned
//! by the [`crate::node::Node`]; each pooled port holds only an
//! `(offset, capacity)` window plus cursor state ([`PooledRing`]), so a
//! switch's queues share cache lines and the arena moves with the node
//! across shards (plain owned data: `Send` for free, no `unsafe`).
//!
//! # Footprint follows backlog
//!
//! ECN# holds queues at a few tens of packets, so a port buffer is almost
//! always nearly empty. Two rules keep the lines a port touches
//! proportional to what it actually queues, not to its buffer size:
//!
//! - **Rewind on drain.** A dequeue that empties the ring resets `head`
//!   to slot 0 instead of advancing it. A port with a packet or two in
//!   flight therefore reuses the same one or two slots forever; it no
//!   longer walks its whole window cyclically (which made every enqueue
//!   a cold line once a fabric had a few hundred ports).
//! - **Grow on demand.** A window starts at `INITIAL_SLOTS` (16) and doubles
//!   when an enqueue finds it full, up to the port's maximum (one
//!   buffer's worth of MTU packets plus thin slack, see
//!   `port::pooled_ring_slots`). Growing appends a fresh window to the
//!   arena and copies the queue over in FIFO order (unwrapped, `head`
//!   back at 0); the old window is abandoned, so dead slots total less
//!   than the live window (geometric sum) and only ports that really
//!   queued that deep pay for depth.
//!
//! Workloads of tiny packets can exceed the maximum slot count while
//! staying under the byte capacity, so each ring keeps an overflow
//! `VecDeque`. Invariant: **overflow non-empty ⇒ window full at its
//! maximum size** — every enqueue goes to the overflow while it is
//! non-empty and dequeues refill the window from its front, so arrival
//! order survives and the hot paths never touch the deque.
//!
//! Slots are plain `(bytes, Packet)` pairs — exactly one cache line each
//! (const-asserted) — not `Option`s: occupancy is fully determined by the
//! ring's `head`/`len` cursors, and the `Option` discriminant would push
//! the slot to 72 bytes, straddling two lines and nearly doubling the
//! memory traffic of a saturated port. Drained slots simply keep their
//! stale payload until overwritten.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::ids::{FlowId, NodeId};
use crate::packet::Packet;
use std::collections::VecDeque;

const _: () = assert!(
    std::mem::size_of::<(u64, Packet)>() == 64,
    "a pooled ring slot must be exactly one cache line"
);

/// Slots a pooled window starts with; it doubles from here on demand.
/// Sixteen one-line slots cover the standing queue ECN# aims for, so most
/// ports never grow.
const INITIAL_SLOTS: usize = 16;

/// One node's pooled ring storage: the slot windows of all its pooled
/// ports, in allocation order (abandoned pre-growth windows included).
pub struct RingArena {
    slots: Vec<(u64, Packet)>,
    /// Live entries across every ring's overflow deque. The ring windows
    /// themselves are bounded by construction (each stops growing at its
    /// maximum); the overflow deques are the only unbounded growth on the
    /// switch data path, so the memory guard meters exactly them.
    overflow_live: u64,
    /// Admission ceiling on `overflow_live`; `u64::MAX` disarms the
    /// guard. Crossing it latches `overflow_breached` without perturbing
    /// queueing, so an armed-but-untriggered ceiling is observation-only.
    overflow_ceiling: u64,
    /// Sticky flag: the overflow ceiling was crossed at some spill.
    overflow_breached: bool,
}

impl Default for RingArena {
    fn default() -> Self {
        RingArena {
            slots: Vec::new(),
            overflow_live: 0,
            overflow_ceiling: u64::MAX,
            overflow_breached: false,
        }
    }
}

impl RingArena {
    /// An empty arena (hosts and standalone bench ports never grow one).
    pub fn new() -> Self {
        RingArena::default()
    }

    /// Open a window for a ring that may grow to `max_cap` slots and
    /// return its offset. Only the first `INITIAL_SLOTS` are allocated;
    /// [`PooledRing::new`] takes the same `max_cap`.
    pub(crate) fn alloc(&mut self, max_cap: usize) -> usize {
        let off = self.slots.len();
        self.append(max_cap.min(INITIAL_SLOTS));
        off
    }

    /// Append `n` slots. Windows are only ever appended, so offsets
    /// already handed out stay valid.
    fn append(&mut self, n: usize) {
        // Filler payload: never read (head/len track occupancy), just
        // keeps the storage initialized without `unsafe`.
        self.slots.resize(
            self.slots.len() + n,
            (0, Packet::data(FlowId(0), NodeId(0), NodeId(0), 0, 0)),
        );
    }

    /// Arm (or, with `None`, disarm) the ceiling on live overflow-deque
    /// entries across this node's rings.
    pub fn set_overflow_ceiling(&mut self, ceiling: Option<u64>) {
        self.overflow_ceiling = ceiling.unwrap_or(u64::MAX);
        self.overflow_breached = false;
    }

    /// The latched `(live, ceiling)` pair once a spill has crossed the
    /// ceiling, if any. `live` reports the current count — the fail-fast
    /// contract stops the run within a few events of the breach.
    pub fn overflow_breach(&self) -> Option<(u64, u64)> {
        if self.overflow_breached {
            Some((self.overflow_live, self.overflow_ceiling))
        } else {
            None
        }
    }
}

/// A single-class FIFO whose slots live in a shared [`RingArena`] window
/// instead of a private allocation. Byte/packet backlog is tracked here so
/// backlog queries never touch the arena.
pub struct PooledRing {
    /// First slot of this ring's current window in the arena.
    off: usize,
    /// Current window size in slots (`<= max_cap`).
    cap: usize,
    /// Size the window may grow to; beyond it enqueues spill.
    max_cap: usize,
    /// In-window index of the oldest occupied slot; 0 whenever the ring
    /// is empty (rewind on drain).
    head: usize,
    /// Occupied slots.
    len: usize,
    /// Queued wire bytes (ring + overflow).
    bytes: u64,
    /// Spill queue for slot counts beyond `max_cap`; non-empty only while
    /// the window is full at its maximum size.
    overflow: VecDeque<(u64, Packet)>,
}

impl PooledRing {
    /// A ring over the window [`RingArena::alloc`] opened at `off` for the
    /// same `max_cap`.
    pub(crate) fn new(off: usize, max_cap: usize) -> Self {
        debug_assert!(max_cap > 0, "pooled ring needs at least one slot");
        PooledRing {
            off,
            cap: max_cap.min(INITIAL_SLOTS),
            max_cap,
            head: 0,
            len: 0,
            bytes: 0,
            overflow: VecDeque::new(),
        }
    }

    /// Arena index of in-window position `i` (`i < 2 * cap` always, since
    /// `head < cap` and `len <= cap`): a conditional subtract, which beats
    /// both `%` (a divide) and a power-of-two mask (which would force an
    /// oversized maximum window).
    #[inline]
    fn slot_at(&self, i: usize) -> usize {
        self.off + if i >= self.cap { i - self.cap } else { i }
    }

    #[inline]
    pub(crate) fn enqueue(&mut self, arena: &mut RingArena, bytes: u64, item: Packet) {
        self.bytes += bytes;
        // Invariant: a non-empty overflow implies a window full at its
        // maximum (enqueue spills only there; dequeue refills until the
        // window is full or the overflow is drained). So `len < cap`
        // alone proves the overflow is empty — the fast path never
        // touches the deque.
        if self.len == self.cap {
            if self.cap == self.max_cap {
                // Everything goes to the overflow so arrival order
                // survives.
                self.overflow.push_back((bytes, item));
                arena.overflow_live += 1;
                if arena.overflow_live > arena.overflow_ceiling {
                    arena.overflow_breached = true;
                }
                return;
            }
            self.grow(arena);
        }
        debug_assert!(
            self.overflow.is_empty(),
            "overflow behind a non-full window"
        );
        arena.slots[self.slot_at(self.head + self.len)] = (bytes, item);
        self.len += 1;
    }

    /// Move a full window into a fresh one of twice the size (capped at
    /// `max_cap`) at the end of the arena, oldest packet first, so the
    /// new window starts unwrapped with `head == 0`.
    #[cold]
    fn grow(&mut self, arena: &mut RingArena) {
        debug_assert_eq!(self.len, self.cap, "only a full window grows");
        let new_cap = (self.cap * 2).min(self.max_cap);
        let new_off = arena.slots.len();
        let (lo, mid, hi) = (self.off, self.off + self.head, self.off + self.cap);
        arena.slots.reserve(new_cap);
        arena.slots.extend_from_within(mid..hi);
        arena.slots.extend_from_within(lo..mid);
        arena.append(new_cap - self.cap);
        self.off = new_off;
        self.cap = new_cap;
        self.head = 0;
    }

    #[inline]
    pub(crate) fn dequeue(&mut self, arena: &mut RingArena) -> Option<(u64, Packet)> {
        if self.len == 0 {
            debug_assert!(self.overflow.is_empty(), "overflow without a full ring");
            return None;
        }
        let (bytes, item) = arena.slots[self.off + self.head].clone();
        self.len -= 1;
        self.bytes -= bytes;
        // Rewind on drain: an emptied ring restarts at slot 0, so a port
        // that drains on every packet keeps hitting the same line.
        self.head = if self.len == 0 || self.head + 1 == self.cap {
            0
        } else {
            self.head + 1
        };
        // Refill from the spill queue so the ring window always holds the
        // oldest packets (the FIFO prefix). The overflow can only be
        // non-empty when the window *was* full (see the enqueue
        // invariant), so a register test on `len` screens out the common
        // case before the deque is ever touched.
        if self.len + 1 == self.cap && !self.overflow.is_empty() {
            while self.len < self.cap {
                let Some((b, p)) = self.overflow.pop_front() else {
                    break;
                };
                arena.overflow_live -= 1;
                arena.slots[self.slot_at(self.head + self.len)] = (b, p);
                self.len += 1;
            }
        }
        Some((bytes, item))
    }

    #[inline]
    pub(crate) fn backlog_bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    pub(crate) fn backlog_pkts(&self) -> u64 {
        (self.len + self.overflow.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 1460)
    }

    #[test]
    fn preserves_fifo_order() {
        let mut arena = RingArena::new();
        let off = arena.alloc(4);
        let mut r = PooledRing::new(off, 4);
        for i in 0..4u64 {
            r.enqueue(&mut arena, 100 + i, pkt(i));
        }
        for i in 0..4u64 {
            let (b, p) = r.dequeue(&mut arena).unwrap();
            assert_eq!((b, p.seq()), (100 + i, i));
        }
        assert!(r.dequeue(&mut arena).is_none());
        assert_eq!(r.backlog_bytes(), 0);
    }

    #[test]
    fn overflow_keeps_fifo_order() {
        // Window of 2, 6 packets: 4 spill to the overflow. Interleave
        // dequeues so the refill path runs with a wrapped head.
        let mut arena = RingArena::new();
        let off = arena.alloc(2);
        let mut r = PooledRing::new(off, 2);
        for i in 0..6u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        assert_eq!(r.backlog_pkts(), 6);
        assert_eq!(r.backlog_bytes(), 600);
        let mut out = Vec::new();
        for _ in 0..3 {
            out.push(r.dequeue(&mut arena).unwrap().1.seq());
        }
        for i in 6..8u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        while let Some((_, p)) = r.dequeue(&mut arena) {
            out.push(p.seq());
        }
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(r.backlog_pkts(), 0);
    }

    #[test]
    fn two_rings_share_one_arena_without_interference() {
        let mut arena = RingArena::new();
        let off_a = arena.alloc(4);
        let off_b = arena.alloc(4);
        let mut a = PooledRing::new(off_a, 4);
        let mut b = PooledRing::new(off_b, 4);
        for i in 0..3u64 {
            a.enqueue(&mut arena, 10, pkt(i));
            b.enqueue(&mut arena, 20, pkt(100 + i));
        }
        assert_eq!(a.backlog_bytes(), 30);
        assert_eq!(b.backlog_bytes(), 60);
        for i in 0..3u64 {
            assert_eq!(a.dequeue(&mut arena).unwrap().1.seq(), i);
            assert_eq!(b.dequeue(&mut arena).unwrap().1.seq(), 100 + i);
        }
        assert_eq!(a.backlog_pkts(), 0);
        assert_eq!(b.backlog_pkts(), 0);
        assert_eq!(a.backlog_bytes(), 0);
        assert_eq!(b.backlog_bytes(), 0);
    }

    /// Drain `r` completely, returning the sequence numbers in order.
    fn drain(r: &mut PooledRing, arena: &mut RingArena) -> Vec<u64> {
        std::iter::from_fn(|| r.dequeue(arena).map(|(_, p)| p.seq())).collect()
    }

    #[test]
    fn drain_rewinds_to_slot_zero() {
        let mut arena = RingArena::new();
        let off = arena.alloc(64);
        let mut r = PooledRing::new(off, 64);
        // One packet in flight at a time: the ring never leaves slot 0.
        for i in 0..100u64 {
            r.enqueue(&mut arena, 100, pkt(i));
            assert_eq!((r.head, r.len), (0, 1));
            assert_eq!(r.dequeue(&mut arena).unwrap().1.seq(), i);
            assert_eq!((r.head, r.len), (0, 0));
        }
        // A held backlog advances the head as usual; the drain that
        // empties it rewinds, and order survives across the rewind.
        for i in 0..5u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        assert_eq!(r.dequeue(&mut arena).unwrap().1.seq(), 0);
        assert_eq!(r.dequeue(&mut arena).unwrap().1.seq(), 1);
        assert_eq!(r.head, 2);
        for i in 5..8u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        assert_eq!(drain(&mut r, &mut arena), (2..8).collect::<Vec<_>>());
        assert_eq!((r.head, r.len, r.backlog_bytes()), (0, 0, 0));
        assert_eq!(r.cap, INITIAL_SLOTS, "a short queue never grows");
        assert_eq!(arena.slots.len(), INITIAL_SLOTS);
    }

    #[test]
    fn grows_while_wrapped_keeping_fifo_order() {
        let mut arena = RingArena::new();
        let off = arena.alloc(100);
        let mut r = PooledRing::new(off, 100);
        // Wrap the initial window: fill it, take 10, put 10 back.
        for i in 0..16u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        for i in 0..10u64 {
            assert_eq!(r.dequeue(&mut arena).unwrap().1.seq(), i);
        }
        for i in 16..26u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        assert_eq!((r.head, r.len, r.cap), (10, 16, 16));
        // The next enqueue grows the full, wrapped window: it comes out
        // unwrapped at the arena's end, twice the size.
        r.enqueue(&mut arena, 100, pkt(26));
        assert_eq!((r.off, r.head, r.len, r.cap), (16, 0, 17, 32));
        // Doubling stops at the maximum: 32 -> 64 -> 100.
        for i in 27..90u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        assert_eq!(r.cap, 100);
        assert!(r.overflow.is_empty());
        assert_eq!(r.backlog_pkts(), 80);
        assert_eq!(drain(&mut r, &mut arena), (10..90).collect::<Vec<_>>());
        // Abandoned windows (16 + 32 + 64) stay behind the live one.
        assert_eq!(arena.slots.len(), 16 + 32 + 64 + 100);
    }

    #[test]
    fn grow_then_overflow_then_refill() {
        let mut arena = RingArena::new();
        let off = arena.alloc(40);
        let mut r = PooledRing::new(off, 40);
        // 16 -> 32 -> 40, then 10 spill past the maximum window.
        for i in 0..50u64 {
            r.enqueue(&mut arena, 100, pkt(i));
            assert!(
                r.overflow.is_empty() || (r.len, r.cap) == (40, 40),
                "overflow behind a window that could still grow"
            );
        }
        assert_eq!((r.cap, r.len, r.overflow.len()), (40, 40, 10));
        assert_eq!(r.backlog_pkts(), 50);
        // Each dequeue refills one slot from the overflow's front.
        let mut out = Vec::new();
        for _ in 0..5 {
            out.push(r.dequeue(&mut arena).unwrap().1.seq());
            assert_eq!(r.len, 40);
        }
        assert_eq!(r.overflow.len(), 5);
        // New arrivals queue behind the spilled ones.
        for i in 50..53u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        out.extend(drain(&mut r, &mut arena));
        assert_eq!(out, (0..53).collect::<Vec<_>>());
        assert_eq!((r.head, r.len, r.backlog_bytes()), (0, 0, 0));
        assert!(arena.overflow_breach().is_none());
    }

    #[test]
    fn growth_leaves_a_neighbour_ring_alone() {
        let mut arena = RingArena::new();
        let off_a = arena.alloc(64);
        let off_b = arena.alloc(64);
        let mut a = PooledRing::new(off_a, 64);
        let mut b = PooledRing::new(off_b, 64);
        for i in 0..8u64 {
            b.enqueue(&mut arena, 20, pkt(100 + i));
        }
        for i in 0..40u64 {
            a.enqueue(&mut arena, 10, pkt(i));
        }
        assert_eq!((a.cap, b.cap), (64, 16));
        assert_eq!(drain(&mut b, &mut arena), (100..108).collect::<Vec<_>>());
        assert_eq!(drain(&mut a, &mut arena), (0..40).collect::<Vec<_>>());
    }

    proptest! {
        /// Any enqueue/dequeue schedule, any maximum window: the ring is
        /// a FIFO (checked against a `VecDeque`), an empty ring sits at
        /// slot 0, and the overflow is used only by a window that is full
        /// at its maximum size.
        #[test]
        fn prop_ring_is_a_fifo_under_rewind_and_growth(
            max_cap in 1usize..70,
            ops in proptest::collection::vec((0u8..8, 1u64..40), 1..400),
        ) {
            let mut arena = RingArena::new();
            let off = arena.alloc(max_cap);
            let mut r = PooledRing::new(off, max_cap);
            let mut model: VecDeque<(u64, u64)> = VecDeque::new();
            let mut model_bytes = 0u64;
            let mut seq = 0u64;
            for (op, n) in ops {
                // Bursts of enqueues and of dequeues, biased to enqueue
                // so windows fill, wrap, grow and spill.
                for _ in 0..n {
                    if op < 5 {
                        r.enqueue(&mut arena, 60 + seq % 7, pkt(seq));
                        model.push_back((60 + seq % 7, seq));
                        model_bytes += 60 + seq % 7;
                        seq += 1;
                    } else {
                        let got = r.dequeue(&mut arena).map(|(b, p)| (b, p.seq()));
                        let want = model.pop_front();
                        model_bytes -= want.map_or(0, |e| e.0);
                        prop_assert_eq!(got, want);
                    }
                    prop_assert_eq!(r.backlog_pkts(), model.len() as u64);
                    prop_assert_eq!(r.backlog_bytes(), model_bytes);
                    prop_assert!(r.len > 0 || r.head == 0, "empty ring off slot 0");
                    prop_assert!(r.cap <= r.max_cap && r.len <= r.cap);
                    prop_assert!(
                        r.overflow.is_empty() || (r.len == r.cap && r.cap == r.max_cap),
                        "overflow behind a window that is not full at its maximum"
                    );
                }
            }
            let rest: Vec<(u64, u64)> =
                std::iter::from_fn(|| r.dequeue(&mut arena).map(|(b, p)| (b, p.seq()))).collect();
            prop_assert_eq!(rest, model.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(arena.overflow_live, 0);
        }
    }

    #[test]
    fn overflow_ceiling_latches_breach_without_perturbing_fifo() {
        let mut arena = RingArena::new();
        let off = arena.alloc(2);
        let mut r = PooledRing::new(off, 2);
        arena.set_overflow_ceiling(Some(1));
        for i in 0..4u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        // 2 spilled with a ceiling of 1: breached, FIFO order intact.
        assert!(arena.overflow_breach().is_some());
        let mut out = Vec::new();
        while let Some((_, p)) = r.dequeue(&mut arena) {
            out.push(p.seq());
        }
        assert_eq!(out, (0..4).collect::<Vec<_>>());
        // Disarming resets the latch; re-spilling under MAX never trips.
        arena.set_overflow_ceiling(None);
        for i in 0..4u64 {
            r.enqueue(&mut arena, 100, pkt(i));
        }
        assert!(arena.overflow_breach().is_none());
    }
}
