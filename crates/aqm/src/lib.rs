//! # ecnsharp-aqm
//!
//! The active-queue-management abstraction used by every switch egress port
//! in the simulator, plus the baseline schemes the paper compares against:
//!
//! - [`DropTail`] — no marking at all (pure tail-drop, enforced by the port);
//! - [`DctcpRed`] — the DCTCP paper's simplified RED: instantaneous queue
//!   length against a single threshold `Kmin = Kmax = K` ("current practice"
//!   when `K` is derived from a high-percentile RTT);
//! - [`CoDel`] — Controlling Queue Delay (Nichols & Jacobson) operated in
//!   ECN-marking mode, the persistent-congestion-only comparator;
//! - [`Tcn`] — TCN (CoNEXT'16): instantaneous *sojourn time* against a single
//!   threshold, the scheduler-agnostic instantaneous-marking comparator.
//!
//! ECN♯ itself lives in `ecnsharp-core` and implements the same [`Aqm`]
//! trait, as does the Tofino match-action pipeline in `ecnsharp-tofino`.
//!
//! ## Hook points
//!
//! An AQM sees every packet twice:
//!
//! 1. [`Aqm::on_enqueue`] — when the packet is admitted to the queue (after
//!    the port's tail-drop capacity check). Queue-length schemes
//!    (DCTCP-RED) decide here.
//! 2. [`Aqm::on_dequeue`] — when the packet starts transmission, which is
//!    the first moment its sojourn time is known. Sojourn-time schemes
//!    (CoDel, TCN, ECN♯) decide here; this is also what makes them work
//!    unchanged underneath multi-queue packet schedulers (§5.4).

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod codel;
pub mod dctcp_red;
pub mod droptail;
pub mod params;
pub mod tcn;

pub use codel::CoDel;
pub use dctcp_red::DctcpRed;
pub use droptail::DropTail;
pub use tcn::Tcn;

use ecnsharp_sim::{Duration, Rate, SimTime};

/// The AQM-visible view of a packet.
#[derive(Debug, Clone, Copy)]
pub struct PacketView {
    /// Wire size of the packet in bytes (headers included).
    pub bytes: u64,
    /// Whether the packet is ECN-capable (ECT codepoint). A "mark" decision
    /// on a non-ECT packet degrades to a drop, per RFC 3168.
    pub ect: bool,
    /// When the packet was enqueued at this port; `on_dequeue` derives the
    /// sojourn time from it.
    pub enqueued_at: SimTime,
}

impl PacketView {
    /// Sojourn time of this packet as of `now` (zero if clocks disagree).
    #[inline]
    pub fn sojourn(&self, now: SimTime) -> Duration {
        now.saturating_since(self.enqueued_at)
    }
}

/// The AQM-visible state of the egress queue the packet belongs to.
#[derive(Debug, Clone, Copy)]
pub struct QueueState {
    /// Bytes currently queued (excluding the packet being decided on).
    pub backlog_bytes: u64,
    /// Packets currently queued (excluding the packet being decided on).
    pub backlog_pkts: u64,
    /// Configured buffer capacity of the port in bytes.
    pub capacity_bytes: u64,
    /// Drain rate of the port (the link rate).
    pub drain_rate: Rate,
}

/// Decision taken when a packet is admitted to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueVerdict {
    /// Admit unmodified.
    Admit,
    /// Admit and set the CE codepoint.
    AdmitMark,
    /// Refuse the packet (early drop).
    Drop,
}

/// Decision taken when a packet leaves the queue for transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DequeueVerdict {
    /// Transmit unmodified.
    Pass,
    /// Set the CE codepoint and transmit.
    Mark,
    /// Discard instead of transmitting (CoDel's behaviour for non-ECT
    /// traffic).
    Drop,
}

/// Resolve a "this packet should be signalled" decision against the packet's
/// ECN capability: ECT packets get marked, others dropped.
#[inline]
pub fn mark_or_drop(ect: bool) -> DequeueVerdict {
    if ect {
        DequeueVerdict::Mark
    } else {
        DequeueVerdict::Drop
    }
}

/// Resolve the same decision at enqueue time.
#[inline]
pub fn admit_mark_or_drop(ect: bool) -> EnqueueVerdict {
    if ect {
        EnqueueVerdict::AdmitMark
    } else {
        EnqueueVerdict::Drop
    }
}

/// An active queue management policy attached to one egress port.
///
/// Implementations must be deterministic given the call sequence (any
/// randomness must come from state seeded at construction) so that whole
/// simulations replay bit-identically.
pub trait Aqm: Send {
    /// Called when `pkt` is admitted to the queue. `q` describes the queue
    /// *before* this packet is added.
    fn on_enqueue(&mut self, now: SimTime, q: &QueueState, pkt: &PacketView) -> EnqueueVerdict {
        let _ = (now, q, pkt);
        EnqueueVerdict::Admit
    }

    /// Called when `pkt` is dequeued for transmission. `q` describes the
    /// queue *after* this packet was removed.
    fn on_dequeue(&mut self, now: SimTime, q: &QueueState, pkt: &PacketView) -> DequeueVerdict {
        let _ = (now, q, pkt);
        DequeueVerdict::Pass
    }

    /// Take the marking-episode transition produced by the last
    /// `on_enqueue`/`on_dequeue` call, if any. Episodic schemes (ECN♯'s
    /// Algorithm 1) record entry/exit here; the port layer polls this
    /// after every AQM decision and forwards transitions to telemetry
    /// subscribers. Stateless schemes keep the default `None`.
    fn take_episode_transition(&mut self) -> Option<EpisodeTransition> {
        None
    }

    /// Downcast hook for white-box inspection of scheme-internal state
    /// (e.g. ECN♯'s `MarkStats`) behind the `Box<dyn Aqm>` a port holds.
    /// Schemes opt in by returning `Some(self)`; the default `None` keeps
    /// internals private. Used by equivalence tests that must assert a
    /// scheme's counters are identical across execution modes.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// One entry into — or exit from — a marking episode, as reported by an
/// episodic AQM via [`Aqm::take_episode_transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeTransition {
    /// `true` for episode entry, `false` for exit.
    pub entered: bool,
    /// Simulation time of the transition.
    pub at: SimTime,
    /// Marks attributed to the episode; meaningful on exit (entry
    /// reports the first mark, i.e. `1`).
    pub marks: u64,
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A 10 Gbps queue state with the given backlog.
    pub fn q(backlog_bytes: u64) -> QueueState {
        QueueState {
            backlog_bytes,
            backlog_pkts: backlog_bytes / 1500,
            capacity_bytes: 2_000_000,
            drain_rate: Rate::from_gbps(10),
        }
    }

    /// An ECT MTU packet enqueued at `enq_us` microseconds.
    pub fn pkt(enq_us: u64) -> PacketView {
        PacketView {
            bytes: 1500,
            ect: true,
            enqueued_at: SimTime::from_micros(enq_us),
        }
    }

    /// A non-ECT MTU packet enqueued at `enq_us` microseconds.
    pub fn pkt_nonect(enq_us: u64) -> PacketView {
        PacketView {
            ect: false,
            ..pkt(enq_us)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_view_sojourn() {
        let p = PacketView {
            bytes: 1500,
            ect: true,
            enqueued_at: SimTime::from_micros(10),
        };
        assert_eq!(
            p.sojourn(SimTime::from_micros(25)),
            Duration::from_micros(15)
        );
        assert_eq!(p.sojourn(SimTime::from_micros(5)), Duration::ZERO);
    }

    #[test]
    fn resolution_helpers() {
        assert_eq!(mark_or_drop(true), DequeueVerdict::Mark);
        assert_eq!(mark_or_drop(false), DequeueVerdict::Drop);
        assert_eq!(admit_mark_or_drop(true), EnqueueVerdict::AdmitMark);
        assert_eq!(admit_mark_or_drop(false), EnqueueVerdict::Drop);
    }

    struct Noop;
    impl Aqm for Noop {}

    #[test]
    fn default_hooks_pass_everything() {
        let mut a = Noop;
        let q = testutil::q(0);
        let p = testutil::pkt(0);
        assert_eq!(a.on_enqueue(SimTime::ZERO, &q, &p), EnqueueVerdict::Admit);
        assert_eq!(a.on_dequeue(SimTime::ZERO, &q, &p), DequeueVerdict::Pass);
    }
}

// Compile-time shard-safety proofs: AQMs sit on ports inside the
// `Network` a sharded engine (ROADMAP item 1) moves across worker
// threads — which is why the `Aqm` trait itself requires `Send`. Lint
// rule R7 guards the source text; these assertions guard the types.
const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<Box<dyn Aqm>>();
    assert_send_sync::<CoDel>();
    assert_send_sync::<DctcpRed>();
    assert_send_sync::<Tcn>();
    assert_send_sync::<DropTail>();
};
