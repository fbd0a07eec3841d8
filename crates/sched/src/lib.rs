//! # ecnsharp-sched
//!
//! Packet schedulers for switch egress ports, generic over the queued item
//! type so the crate has no dependency on the network model.
//!
//! A [`Scheduler`] owns one or more FIFO sub-queues ("classes"/"services")
//! and decides which class supplies the next packet for transmission:
//!
//! - [`Fifo`] — a single queue (the degenerate scheduler every basic port
//!   uses);
//! - [`Dwrr`] — Deficit Weighted Round Robin (Shreedhar & Varghese), the
//!   scheduler of the paper's §5.4 experiment (3 services, weights 2:1:1).
//!
//! Sojourn-time AQMs (TCN, ECN♯) are scheduler-agnostic by design: the AQM
//! sits at the port and sees packets in whatever order the scheduler
//! releases them. This crate is what makes that claim testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod dwrr;
pub mod fifo;

pub use dwrr::Dwrr;
pub use fifo::Fifo;

/// A multi-class packet scheduler.
///
/// `P` is the queued item type; the scheduler additionally tracks each
/// item's wire size in bytes, which weighted schedulers need for their
/// accounting.
pub trait Scheduler<P>: Send {
    /// Number of classes this scheduler serves.
    fn classes(&self) -> usize;

    /// Append an item of `bytes` bytes to class `class`.
    ///
    /// # Panics
    /// If `class >= self.classes()`.
    fn enqueue(&mut self, class: usize, bytes: u64, item: P);

    /// Remove and return the next item to transmit, with its class and
    /// size, or `None` when all classes are empty.
    fn dequeue(&mut self) -> Option<Dequeued<P>>;

    /// Total queued bytes across all classes.
    fn backlog_bytes(&self) -> u64;

    /// Total queued items across all classes.
    fn backlog_pkts(&self) -> u64;

    /// Queued bytes in one class.
    fn class_backlog_bytes(&self, class: usize) -> u64;

    /// `true` when nothing is queued.
    fn is_empty(&self) -> bool {
        self.backlog_pkts() == 0
    }
}

/// An item released by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dequeued<P> {
    /// The class it was queued in.
    pub class: usize,
    /// Its recorded size in bytes.
    pub bytes: u64,
    /// The item itself.
    pub item: P,
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Drain a scheduler completely, returning (class, bytes) in service
    /// order.
    pub fn drain<P, S: Scheduler<P>>(s: &mut S) -> Vec<(usize, u64)> {
        std::iter::from_fn(|| s.dequeue().map(|d| (d.class, d.bytes))).collect()
    }

    /// Served bytes per class while all classes stay backlogged: enqueue
    /// `n_per_class` packets of `pkt_bytes` each, then count the first
    /// `serve` dequeues.
    pub fn served_ratio<S: Scheduler<u32>>(
        s: &mut S,
        n_per_class: usize,
        pkt_bytes: u64,
        serve: usize,
    ) -> Vec<u64> {
        let k = s.classes();
        for i in 0..n_per_class {
            for c in 0..k {
                s.enqueue(c, pkt_bytes, (i * k + c) as u32);
            }
        }
        let mut served = vec![0u64; k];
        for _ in 0..serve {
            let d = s.dequeue().expect("enough backlog");
            served[d.class] += d.bytes;
        }
        served
    }
}

// Compile-time shard-safety proofs: schedulers sit on ports inside the
// `Network` a sharded engine (ROADMAP item 1) moves across worker
// threads — which is why the `Scheduler` trait itself requires `Send`.
// Lint rule R7 guards the source text; these assertions guard the
// types.
const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<Box<dyn Scheduler<u64>>>();
    assert_send_sync::<Dwrr<u64>>();
    assert_send_sync::<Fifo<u64>>();
};
