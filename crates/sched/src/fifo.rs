//! Single-queue FIFO scheduler: the default for every port that doesn't
//! need service differentiation.
//!
//! Storage follows backlog: the deque starts unallocated and doubles on
//! demand, and a dequeue that empties it rewinds its cursor to the first
//! slot, so a NIC queue holding a packet or two keeps reusing the same
//! cache line instead of walking a buffer-sized ring.

use std::collections::VecDeque;

/// First-in first-out, one class.
pub struct Fifo<P> {
    q: VecDeque<(u64, P)>,
    bytes: u64,
}

impl<P> Fifo<P> {
    /// Create an empty FIFO.
    pub fn new() -> Self {
        Fifo {
            q: VecDeque::new(),
            bytes: 0,
        }
    }
}

impl<P> Default for Fifo<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> Fifo<P> {
    /// Append an item of `bytes` bytes.
    pub fn enqueue(&mut self, bytes: u64, item: P) {
        self.bytes += bytes;
        self.q.push_back((bytes, item));
    }

    /// Remove the oldest item, returning its size and the item itself, or
    /// `None` when empty.
    pub fn dequeue(&mut self) -> Option<(u64, P)> {
        let (bytes, item) = self.q.pop_front()?;
        self.bytes -= bytes;
        if self.q.is_empty() {
            // Rewind on drain: `pop_front` leaves the head wherever it
            // got to; `clear` on the (already empty) deque resets it.
            self.q.clear();
        }
        Some((bytes, item))
    }

    /// Queued bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.bytes
    }

    /// Queued items.
    pub fn backlog_pkts(&self) -> u64 {
        self.q.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let mut f = Fifo::new();
        for i in 0..10u32 {
            f.enqueue(100 + i as u64, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| f.dequeue().map(|d| d.1)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn byte_accounting() {
        let mut f = Fifo::new();
        f.enqueue(1500, "a");
        f.enqueue(64, "b");
        assert_eq!(f.backlog_bytes(), 1564);
        assert_eq!(f.backlog_pkts(), 2);
        assert_eq!(f.dequeue(), Some((1500, "a")));
        assert_eq!(f.backlog_bytes(), 64);
        assert_eq!(f.dequeue(), Some((64, "b")));
        assert_eq!((f.backlog_pkts(), f.backlog_bytes()), (0, 0));
    }

    #[test]
    fn drain_rewinds_to_first_slot() {
        // Perf property, not a correctness one: after a drain the next
        // packet lands in the slot the first one used.
        let mut f = Fifo::new();
        f.enqueue(1, 0u32);
        let first = f.q.as_slices().0.as_ptr();
        for i in 1..100u32 {
            assert_eq!(f.dequeue().map(|d| d.1), Some(i - 1));
            f.enqueue(1, i);
            assert_eq!(f.q.as_slices().0.as_ptr(), first, "cycle {i}");
        }
        // While backlog is held the head advances as usual, FIFO intact.
        f.enqueue(1, 100);
        assert_eq!(f.dequeue().map(|d| d.1), Some(99));
        assert_ne!(f.q.as_slices().0.as_ptr(), first);
        assert_eq!(f.dequeue().map(|d| d.1), Some(100));
        f.enqueue(1, 101);
        assert_eq!(f.q.as_slices().0.as_ptr(), first);
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut f: Fifo<u32> = Fifo::new();
        assert!(f.dequeue().is_none());
    }
}
