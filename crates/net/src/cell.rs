//! Queued-packet storage: one cell slab per engine, one cell list per
//! FIFO port.
//!
//! Every packet waiting in a FIFO egress queue — switch port or NIC —
//! sits in one [`CellSlab`] owned by the [`crate::Network`] engine (so a
//! sharded run has one per shard). A port holds only a [`CellList`]: the
//! head and tail cells of its queue, its length and its queued bytes.
//!
//! # Footprint follows the instantaneous backlog
//!
//! ECN♯ holds queues at a few tens of packets, but a port's deepest
//! backlog can be far larger, and per-port storage sized by that
//! high-water mark is never given back. Cells are shared instead:
//!
//! - a drained cell goes onto a LIFO free list threaded through its
//!   `next` field, so the next enqueue anywhere in the engine reuses the
//!   line that was just written;
//! - the slab grows only when no cell is free, so it is as long as the
//!   most packets ever queued at once across the engine's ports, not the
//!   sum of each port's own peak.
//!
//! A cell is `{ next, wire_bytes, packet }`, exactly one cache line
//! (const-asserted). Which cells are live is known from the lists, so a
//! drained cell keeps its stale packet until it is reused.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::packet::Packet;

/// End of a list: the `next` of a tail cell and of the last free cell.
const NIL: u32 = u32::MAX;

/// One queued packet and the link to the cell behind it.
struct Cell {
    /// The next cell of the same port's queue, or of the free list.
    next: u32,
    /// The packet's wire bytes, as the port accounted them at enqueue.
    wire_bytes: u32,
    pkt: Packet,
}

const _: () = assert!(
    std::mem::size_of::<Cell>() == 64,
    "a packet cell must be exactly one cache line"
);

/// The cells of every FIFO port of one engine.
pub struct CellSlab {
    cells: Vec<Cell>,
    /// Head of the free list (most recently freed first), or [`NIL`].
    free: u32,
    /// Cells on some port's list.
    live: u64,
    /// Admission ceiling on `live`; `u64::MAX` disarms the guard.
    /// Crossing it latches `breached` without perturbing queueing, so an
    /// armed-but-untriggered ceiling is observation-only.
    ceiling: u64,
    /// Sticky flag: an enqueue took `live` past the ceiling.
    breached: bool,
}

impl Default for CellSlab {
    fn default() -> Self {
        CellSlab {
            cells: Vec::new(),
            free: NIL,
            live: 0,
            ceiling: u64::MAX,
            breached: false,
        }
    }
}

impl CellSlab {
    /// An empty slab.
    pub fn new() -> Self {
        CellSlab::default()
    }

    /// Packets queued in this slab right now.
    pub(crate) fn live(&self) -> u64 {
        self.live
    }

    /// Arm (or, with `None`, disarm) the ceiling on live cells.
    pub(crate) fn set_ceiling(&mut self, ceiling: Option<u64>) {
        self.ceiling = ceiling.unwrap_or(u64::MAX);
        self.breached = false;
    }

    /// The latched `(live, ceiling)` pair once an enqueue has crossed the
    /// ceiling, if any. `live` reports the current count — the fail-fast
    /// contract stops the run within a few events of the breach.
    pub(crate) fn breach(&self) -> Option<(u64, u64)> {
        self.breached.then_some((self.live, self.ceiling))
    }

    /// Store `pkt` in the most recently freed cell, or a new one.
    #[inline]
    fn alloc(&mut self, wire_bytes: u64, pkt: Packet) -> u32 {
        ecnsharp_sim::invariant!(
            wire_bytes <= u64::from(u32::MAX),
            "a {wire_bytes} B packet does not fit a cell"
        );
        let cell = Cell {
            next: NIL,
            wire_bytes: wire_bytes as u32,
            pkt,
        };
        self.live += 1;
        if self.free == NIL {
            ecnsharp_sim::invariant!(self.cells.len() < NIL as usize, "packet cells exhausted");
            self.cells.push(cell);
            return (self.cells.len() - 1) as u32;
        }
        let idx = self.free;
        let slot = &mut self.cells[idx as usize];
        self.free = slot.next;
        *slot = cell;
        idx
    }
}

/// One FIFO queue threaded through a [`CellSlab`]. Its backlog counts
/// live here, so backlog queries never touch the slab.
#[derive(Default)]
pub struct CellList {
    /// Oldest cell; meaningless while `len == 0`.
    head: u32,
    /// Newest cell; meaningless while `len == 0`.
    tail: u32,
    /// Queued packets.
    len: u32,
    /// Queued wire bytes.
    bytes: u64,
}

impl CellList {
    /// Append `pkt`, of `wire_bytes` bytes on the wire.
    #[inline]
    pub(crate) fn push(&mut self, slab: &mut CellSlab, wire_bytes: u64, pkt: Packet) {
        self.link(slab, wire_bytes, pkt);
        if slab.live > slab.ceiling {
            slab.breached = true;
        }
    }

    /// [`Self::push`] without the ceiling check.
    #[inline]
    fn link(&mut self, slab: &mut CellSlab, wire_bytes: u64, pkt: Packet) {
        let idx = slab.alloc(wire_bytes, pkt);
        if self.len == 0 {
            self.head = idx;
        } else {
            slab.cells[self.tail as usize].next = idx;
        }
        self.tail = idx;
        self.len += 1;
        self.bytes += wire_bytes;
    }

    /// Remove the oldest packet as `(wire bytes, packet)`, freeing its
    /// cell.
    #[inline]
    pub(crate) fn pop(&mut self, slab: &mut CellSlab) -> Option<(u64, Packet)> {
        if self.len == 0 {
            return None;
        }
        let idx = self.head;
        let cell = &mut slab.cells[idx as usize];
        let (bytes, pkt) = (u64::from(cell.wire_bytes), cell.pkt.clone());
        self.head = cell.next;
        cell.next = slab.free;
        slab.free = idx;
        slab.live -= 1;
        self.len -= 1;
        self.bytes -= bytes;
        Some((bytes, pkt))
    }

    /// Move every queued packet, oldest first, from `from`'s cells into
    /// `to`'s: a port whose node changes engines takes its queue along.
    pub(crate) fn migrate(&mut self, from: &mut CellSlab, to: &mut CellSlab) {
        let mut moved = CellList::default();
        while let Some((bytes, pkt)) = self.pop(from) {
            moved.link(to, bytes, pkt);
        }
        *self = moved;
    }

    #[inline]
    pub(crate) fn backlog_bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    pub(crate) fn backlog_pkts(&self) -> u64 {
        u64::from(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 1460)
    }

    /// Drain `q` completely, returning `(bytes, seq)` in order.
    fn drain(q: &mut CellList, slab: &mut CellSlab) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop(slab).map(|(b, p)| (b, p.seq()))).collect()
    }

    /// The free list's cells, most recently freed first.
    fn free_cells(slab: &CellSlab) -> Vec<u32> {
        let mut out = Vec::new();
        let mut i = slab.free;
        while i != NIL {
            out.push(i);
            i = slab.cells[i as usize].next;
        }
        out
    }

    #[test]
    fn preserves_fifo_order() {
        let mut slab = CellSlab::new();
        let mut q = CellList::default();
        for i in 0..4u64 {
            q.push(&mut slab, 100 + i, pkt(i));
        }
        assert_eq!((q.backlog_pkts(), q.backlog_bytes()), (4, 406));
        assert_eq!(
            drain(&mut q, &mut slab),
            (0..4).map(|i| (100 + i, i)).collect::<Vec<_>>()
        );
        assert!(q.pop(&mut slab).is_none());
        assert_eq!(
            (q.backlog_pkts(), q.backlog_bytes(), slab.live()),
            (0, 0, 0)
        );
    }

    #[test]
    fn two_queues_share_one_slab_without_interference() {
        let mut slab = CellSlab::new();
        let (mut a, mut b) = (CellList::default(), CellList::default());
        for i in 0..3u64 {
            a.push(&mut slab, 10, pkt(i));
            b.push(&mut slab, 20, pkt(100 + i));
        }
        assert_eq!((a.backlog_bytes(), b.backlog_bytes()), (30, 60));
        assert_eq!(slab.live(), 6);
        for i in 0..3u64 {
            assert_eq!(a.pop(&mut slab).map(|(_, p)| p.seq()), Some(i));
            assert_eq!(b.pop(&mut slab).map(|(_, p)| p.seq()), Some(100 + i));
        }
        assert_eq!((a.backlog_pkts(), b.backlog_pkts()), (0, 0));
        assert_eq!((a.backlog_bytes(), b.backlog_bytes()), (0, 0));
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn a_drained_cell_is_the_next_enqueues_cell() {
        let mut slab = CellSlab::new();
        let (mut a, mut b) = (CellList::default(), CellList::default());
        // One packet in flight at a time: the slab never leaves cell 0,
        // whichever port holds it.
        for i in 0..100u64 {
            let q = if i % 2 == 0 { &mut a } else { &mut b };
            q.push(&mut slab, 100, pkt(i));
            assert_eq!(q.head, 0);
            assert_eq!(q.pop(&mut slab).map(|(_, p)| p.seq()), Some(i));
        }
        assert_eq!(slab.cells.len(), 1);
        // A held backlog takes new cells; draining frees them newest
        // first, and the next enqueues reuse them in that order.
        for i in 0..5u64 {
            a.push(&mut slab, 100, pkt(i));
        }
        assert_eq!(slab.cells.len(), 5);
        assert_eq!(drain(&mut a, &mut slab).len(), 5);
        assert_eq!(free_cells(&slab), vec![4, 3, 2, 1, 0]);
        b.push(&mut slab, 100, pkt(9));
        assert_eq!(b.head, 4);
        assert_eq!(slab.cells.len(), 5, "no growth while a cell is free");
    }

    #[test]
    fn interleaved_queues_keep_their_own_order() {
        // Interleaved pushes scatter each queue over the slab; the links,
        // not the cell positions, carry the order.
        let mut slab = CellSlab::new();
        let (mut a, mut b) = (CellList::default(), CellList::default());
        for i in 0..8u64 {
            b.push(&mut slab, 20, pkt(100 + i));
        }
        for i in 0..40u64 {
            a.push(&mut slab, 10, pkt(i));
            if i % 5 == 0 {
                let _ = b.pop(&mut slab);
                b.push(&mut slab, 20, pkt(200 + i));
            }
        }
        let want_b: Vec<u64> = (0..8).map(|k| 200 + 5 * k).collect();
        let got_b: Vec<u64> = drain(&mut b, &mut slab).into_iter().map(|e| e.1).collect();
        assert_eq!(got_b, want_b);
        let got_a: Vec<u64> = drain(&mut a, &mut slab).into_iter().map(|e| e.1).collect();
        assert_eq!(got_a, (0..40).collect::<Vec<_>>());
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn migrate_keeps_order_and_moves_the_count() {
        let (mut from, mut to) = (CellSlab::new(), CellSlab::new());
        let (mut q, mut other) = (CellList::default(), CellList::default());
        other.push(&mut to, 1, pkt(999));
        for i in 0..6u64 {
            q.push(&mut from, 100 + i, pkt(i));
        }
        let _ = q.pop(&mut from);
        q.migrate(&mut from, &mut to);
        assert_eq!((from.live(), to.live()), (0, 6));
        assert_eq!((q.backlog_pkts(), q.backlog_bytes()), (5, 515));
        assert_eq!(
            drain(&mut q, &mut to),
            (1..6).map(|i| (100 + i, i)).collect::<Vec<_>>()
        );
        assert_eq!(drain(&mut other, &mut to), vec![(1, 999)]);
    }

    #[test]
    fn ceiling_latches_a_breach_without_perturbing_fifo() {
        let mut slab = CellSlab::new();
        let mut q = CellList::default();
        slab.set_ceiling(Some(1));
        q.push(&mut slab, 100, pkt(0));
        assert!(slab.breach().is_none(), "at the ceiling is not past it");
        q.push(&mut slab, 100, pkt(1));
        assert_eq!(slab.breach(), Some((2, 1)));
        assert_eq!(
            drain(&mut q, &mut slab),
            vec![(100, 0), (100, 1)],
            "a breach never changes what the queue holds"
        );
        // Disarming resets the latch; migration never trips it.
        slab.set_ceiling(None);
        assert!(slab.breach().is_none());
        let mut other = CellSlab::new();
        other.set_ceiling(Some(0));
        q.push(&mut slab, 100, pkt(2));
        q.migrate(&mut slab, &mut other);
        assert!(other.breach().is_none());
        assert_eq!(other.live(), 1);
    }

    proptest! {
        /// Interleaved enqueues and dequeues over 1–8 ports sharing one
        /// slab: each port is a FIFO (checked against its own
        /// `VecDeque`), the slab's live count is the sum of the backlogs,
        /// and the slab is never longer than the most packets ever queued
        /// at once.
        #[test]
        fn prop_ports_on_one_slab_are_fifos(
            ports in 1usize..9,
            ops in proptest::collection::vec((0u8..8, 0usize..8, 1u64..30), 1..300),
        ) {
            let mut slab = CellSlab::new();
            let mut qs: Vec<CellList> = (0..ports).map(|_| CellList::default()).collect();
            let mut models: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); ports];
            let (mut seq, mut peak) = (0u64, 0u64);
            for (op, port, n) in ops {
                let p = port % ports;
                // Bursts on one port, biased to enqueue so queues build
                // up and interleave in the slab.
                for _ in 0..n {
                    if op < 5 {
                        let bytes = 60 + seq % 7;
                        qs[p].push(&mut slab, bytes, pkt(seq));
                        models[p].push_back((bytes, seq));
                        seq += 1;
                    } else {
                        let got = qs[p].pop(&mut slab).map(|(b, pk)| (b, pk.seq()));
                        prop_assert_eq!(got, models[p].pop_front());
                    }
                    prop_assert_eq!(qs[p].backlog_pkts(), models[p].len() as u64);
                    prop_assert_eq!(
                        qs[p].backlog_bytes(),
                        models[p].iter().map(|e| e.0).sum::<u64>()
                    );
                    let total: u64 = models.iter().map(|m| m.len() as u64).sum();
                    prop_assert_eq!(slab.live(), total);
                    peak = peak.max(total);
                    prop_assert_eq!(slab.cells.len() as u64, peak);
                }
            }
            for (q, m) in qs.iter_mut().zip(models) {
                prop_assert_eq!(drain(q, &mut slab), m.into_iter().collect::<Vec<_>>());
            }
            prop_assert_eq!(slab.live(), 0);
            prop_assert_eq!(free_cells(&slab).len(), slab.cells.len());
        }
    }
}
