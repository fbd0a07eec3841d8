//! # ecnsharp-sched
//!
//! Multi-class packet schedulers for switch egress ports, generic over the
//! queued item type so the crate has no dependency on the network model.
//!
//! A scheduler owns several FIFO sub-queues ("classes"/"services") and
//! decides which class supplies the next packet for transmission. The
//! network's `PortSched` enum names the two port kinds, with no trait
//! between: a single FIFO, whose packets sit in the engine's packet slab
//! (`ecnsharp_net::cell`), and this crate's [`Dwrr`] — Deficit Weighted
//! Round Robin (Shreedhar & Varghese), the scheduler of the paper's §5.4
//! experiment (3 services, weights 2:1:1).
//!
//! Sojourn-time AQMs (TCN, ECN♯) are scheduler-agnostic by design: the AQM
//! sits at the port and sees packets in whatever order the scheduler
//! releases them. This crate is what makes that claim testable.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod dwrr;

pub use dwrr::Dwrr;

// Compile-time shard-safety proofs: schedulers sit on ports inside the
// `Network` a sharded engine moves across worker threads. Lint rule R7
// guards the source text; these assertions guard the types.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Dwrr<u64>>();
};
