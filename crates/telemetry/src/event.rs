//! The typed event catalogue.
//!
//! Every event is a plain-old-data struct carrying raw integer ids
//! (node/flow/port numbers), so subscribers can be written without
//! depending on the network crate. Events are borrowed (`&Meta`, `&E`)
//! when delivered; subscribers copy out what they keep.

use ecnsharp_sim::SimTime;

/// Common context attached to every delivered event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Simulation time at which the event occurred.
    pub at: SimTime,
    /// The node (host or switch) the event occurred on.
    pub node: u64,
}

/// Why a packet was discarded. Mirrors the drop taxonomy of the port's
/// `PortStats` and the network's `PerfCounters`, so traces, metrics, and
/// counters all agree on classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Buffer full: the port's tail-drop capacity check refused the packet.
    Tail,
    /// The AQM refused the packet at enqueue (early drop, or a "mark"
    /// decision on a non-ECT packet).
    AqmEnqueue,
    /// The AQM discarded the packet at dequeue (CoDel-style drop of
    /// non-ECT traffic under persistent congestion).
    AqmDequeue,
    /// Wire loss from the port's Gilbert-Elliott process.
    Burst,
    /// A switch had no route towards the destination (link failures
    /// partitioned the topology).
    NoRoute,
}

impl DropReason {
    /// Every reason, in declaration order.
    pub const ALL: [DropReason; 5] = [
        DropReason::Tail,
        DropReason::AqmEnqueue,
        DropReason::AqmDequeue,
        DropReason::Burst,
        DropReason::NoRoute,
    ];

    /// Short stable identifier used in traces, CSV, and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Tail => "tail",
            DropReason::AqmEnqueue => "aqm-enq",
            DropReason::AqmDequeue => "aqm-deq",
            DropReason::Burst => "burst",
            DropReason::NoRoute => "no-route",
        }
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the port pipeline a CE mark was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkSite {
    /// Marked on admission (queue-length schemes: DCTCP-RED, RED, PIE).
    Enqueue,
    /// Marked at dequeue, when the sojourn time is known (CoDel, TCN, ECN♯).
    Dequeue,
}

impl MarkSite {
    /// Short stable identifier used in CSV and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            MarkSite::Enqueue => "enqueue",
            MarkSite::Dequeue => "dequeue",
        }
    }
}

/// A packet was admitted to an egress queue.
#[derive(Debug, Clone, Copy)]
pub struct PacketEnqueued {
    /// Egress port index on the emitting node.
    pub port: u64,
    /// Flow the packet belongs to.
    pub flow: u64,
    /// First payload byte carried (TCP-style sequence number).
    pub seq: u64,
    /// Payload bytes carried.
    pub payload: u64,
    /// Wire size in bytes (headers included).
    pub wire_bytes: u64,
    /// Queue backlog in bytes *before* this packet was added.
    pub backlog_bytes: u64,
    /// Whether the AQM set the CE codepoint on admission.
    pub marked: bool,
}

/// A packet was discarded (anywhere in the port pipeline or at routing).
#[derive(Debug, Clone, Copy)]
pub struct PacketDropped {
    /// Egress port index on the emitting node; `u64::MAX` when no egress
    /// port was involved (routing-stage no-route drops).
    pub port: u64,
    /// Flow the packet belonged to.
    pub flow: u64,
    /// First payload byte carried.
    pub seq: u64,
    /// Payload bytes carried.
    pub payload: u64,
    /// Wire size in bytes.
    pub wire_bytes: u64,
    /// Drop classification.
    pub reason: DropReason,
}

/// A packet had its CE codepoint set.
#[derive(Debug, Clone, Copy)]
pub struct CeMarked {
    /// Egress port index on the emitting node.
    pub port: u64,
    /// Flow the packet belongs to.
    pub flow: u64,
    /// First payload byte carried.
    pub seq: u64,
    /// Pipeline stage that applied the mark.
    pub site: MarkSite,
}

/// A packet left the queue for transmission; its sojourn time is known.
#[derive(Debug, Clone, Copy)]
pub struct SojournSampled {
    /// Egress port index on the emitting node.
    pub port: u64,
    /// Flow the packet belongs to.
    pub flow: u64,
    /// Time the packet spent queued, in nanoseconds.
    pub sojourn_ns: u64,
    /// Queue backlog in bytes *after* this packet was removed.
    pub backlog_bytes: u64,
}

/// An ECN♯ persistent-marking episode began (Algorithm 1 entered the
/// marking state; the packet triggering entry receives the first mark).
#[derive(Debug, Clone, Copy)]
pub struct EpisodeEntered {
    /// Egress port index on the emitting node.
    pub port: u64,
}

/// An ECN♯ persistent-marking episode ended (the persistent-queue signal
/// cleared).
#[derive(Debug, Clone, Copy)]
pub struct EpisodeExited {
    /// Egress port index on the emitting node.
    pub port: u64,
    /// Packets marked during the episode, including the entry mark.
    pub marks: u64,
}

/// A sender's congestion window changed.
#[derive(Debug, Clone, Copy)]
pub struct CwndUpdated {
    /// The flow whose window changed.
    pub flow: u64,
    /// New congestion window in bytes.
    pub cwnd_bytes: u64,
    /// New slow-start threshold in bytes.
    pub ssthresh_bytes: u64,
}

/// A DCTCP sender folded its marked-byte fraction into `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct AlphaUpdated {
    /// The flow whose `alpha` changed.
    pub flow: u64,
    /// New EWMA of the marked-byte fraction, in `[0, 1]`.
    pub alpha: f64,
}

/// A retransmission timeout fired on a sender.
#[derive(Debug, Clone, Copy)]
pub struct RtoFired {
    /// The flow that timed out.
    pub flow: u64,
    /// Consecutive RTOs without intervening forward progress.
    pub streak: u32,
}

/// A link changed administrative state (fault injection).
#[derive(Debug, Clone, Copy)]
pub struct LinkStateChanged {
    /// One endpoint of the link.
    pub node_a: u64,
    /// The other endpoint.
    pub node_b: u64,
    /// `true` when the link came up, `false` when it went down.
    pub up: bool,
}

/// A flow finished — completed all bytes, or gave up after repeated RTOs.
#[derive(Debug, Clone, Copy)]
pub struct FlowCompleted {
    /// The finished flow.
    pub flow: u64,
    /// Flow size in bytes.
    pub bytes: u64,
    /// Flow completion time (start to finish) in nanoseconds.
    pub fct_ns: u64,
    /// `true` for successful completion, `false` for an abort.
    pub completed: bool,
}

/// A transport-side event buffered through the agent callback context.
///
/// Endpoint agents have no direct subscriber access (the subscriber lives
/// on the network, which is mutably borrowed while agents run), so the
/// transport pushes these into the callback context and the network
/// forwards them to the subscriber when the callback returns.
#[derive(Debug, Clone, Copy)]
pub enum TransportEvent {
    /// Congestion window change — forwarded as [`CwndUpdated`].
    Cwnd {
        /// The flow whose window changed.
        flow: u64,
        /// New congestion window in bytes.
        cwnd_bytes: u64,
        /// New slow-start threshold in bytes.
        ssthresh_bytes: u64,
    },
    /// DCTCP alpha fold — forwarded as [`AlphaUpdated`].
    Alpha {
        /// The flow whose `alpha` changed.
        flow: u64,
        /// New EWMA of the marked-byte fraction.
        alpha: f64,
    },
    /// Retransmission timeout — forwarded as [`RtoFired`].
    Rto {
        /// The flow that timed out.
        flow: u64,
        /// Consecutive RTOs without forward progress.
        streak: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_strings_are_distinct_and_stable() {
        let mut seen: Vec<&str> = DropReason::ALL.iter().map(|r| r.as_str()).collect();
        assert_eq!(seen.len(), 5);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5, "reason strings must be unique");
        assert_eq!(DropReason::Tail.as_str(), "tail");
        assert_eq!(DropReason::NoRoute.to_string(), "no-route");
        assert_eq!(MarkSite::Enqueue.as_str(), "enqueue");
        assert_eq!(MarkSite::Dequeue.as_str(), "dequeue");
    }
}
