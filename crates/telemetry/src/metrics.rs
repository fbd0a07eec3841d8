//! Counter/gauge aggregation keyed by a static registry.
//!
//! [`MetricsAggregator`] maintains one `u64` counter per [`Metric`] in a
//! fixed array — no hash maps, no default hashers (clippy's
//! `disallowed_types`), no allocation on the event path — plus two
//! high-watermark gauges. The registry is the [`METRIC_NAMES`] array,
//! index-aligned with the enum, so CSV/JSON output is stable and
//! exhaustively enumerable.

use crate::event::{
    AlphaUpdated, CeMarked, CwndUpdated, DropReason, EpisodeEntered, EpisodeExited, FlowCompleted,
    LinkStateChanged, Meta, PacketDropped, PacketEnqueued, RtoFired, SojournSampled,
};
use crate::subscribe::Subscriber;

/// The counter registry. Each variant is one monotonic counter; the
/// numeric discriminant is its slot in [`MetricsAggregator`]'s array and
/// in [`METRIC_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Packets admitted to an egress queue.
    PacketsEnqueued = 0,
    /// CE marks applied at enqueue.
    EnqueueMarks,
    /// CE marks applied at dequeue.
    DequeueMarks,
    /// Sojourn-time samples observed (one per transmitted packet).
    SojournSamples,
    /// Tail drops (buffer full).
    DropsTail,
    /// AQM early drops at enqueue.
    DropsAqmEnqueue,
    /// AQM drops at dequeue.
    DropsAqmDequeue,
    /// Injected random-loss drops.
    DropsFault,
    /// Injected corruption drops.
    DropsCorrupt,
    /// Gilbert-Elliott burst-loss drops.
    DropsBurst,
    /// Routing no-route drops.
    DropsNoRoute,
    /// ECN♯ marking episodes entered.
    EpisodesEntered,
    /// ECN♯ marking episodes exited.
    EpisodesExited,
    /// Marks attributed to completed episodes (sum over exits).
    EpisodeMarks,
    /// Congestion-window updates reported by senders.
    CwndUpdates,
    /// DCTCP alpha folds reported by senders.
    AlphaUpdates,
    /// Retransmission timeouts fired.
    RtoFirings,
    /// Link state transitions (up or down).
    LinkTransitions,
    /// Flows that completed successfully.
    FlowsCompleted,
    /// Flows that aborted.
    FlowsFailed,
}

/// Number of counters in the registry.
pub const METRIC_COUNT: usize = 20;

/// Counter names, index-aligned with [`Metric`]. This is the stable
/// output registry: CSV rows appear in exactly this order.
pub const METRIC_NAMES: [&str; METRIC_COUNT] = [
    "packets_enqueued",
    "enqueue_marks",
    "dequeue_marks",
    "sojourn_samples",
    "drops_tail",
    "drops_aqm_enqueue",
    "drops_aqm_dequeue",
    "drops_fault",
    "drops_corrupt",
    "drops_burst",
    "drops_no_route",
    "episodes_entered",
    "episodes_exited",
    "episode_marks",
    "cwnd_updates",
    "alpha_updates",
    "rto_firings",
    "link_transitions",
    "flows_completed",
    "flows_failed",
];

impl Metric {
    /// The counter a drop with `reason` increments.
    pub fn for_drop(reason: DropReason) -> Metric {
        match reason {
            DropReason::Tail => Metric::DropsTail,
            DropReason::AqmEnqueue => Metric::DropsAqmEnqueue,
            DropReason::AqmDequeue => Metric::DropsAqmDequeue,
            DropReason::Fault => Metric::DropsFault,
            DropReason::Corrupt => Metric::DropsCorrupt,
            DropReason::Burst => Metric::DropsBurst,
            DropReason::NoRoute => Metric::DropsNoRoute,
        }
    }

    /// Registry name of this counter.
    pub fn name(self) -> &'static str {
        METRIC_NAMES[self as usize]
    }
}

/// Subscriber folding the event stream into the fixed counter registry
/// plus two high-watermark gauges. Cheap enough to leave attached on any
/// run; merges across `parallel_map` workers by addition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsAggregator {
    counters: [u64; METRIC_COUNT],
    /// Largest queue backlog (bytes) observed by any admitted packet.
    max_backlog_bytes: u64,
    /// Largest sojourn time (ns) observed by any transmitted packet.
    max_sojourn_ns: u64,
}

impl MetricsAggregator {
    /// All counters and gauges at zero.
    pub fn new() -> Self {
        MetricsAggregator {
            counters: [0; METRIC_COUNT],
            max_backlog_bytes: 0,
            max_sojourn_ns: 0,
        }
    }

    #[inline]
    fn bump(&mut self, m: Metric) {
        self.add(m, 1);
    }

    #[inline]
    fn add(&mut self, m: Metric, n: u64) {
        if let Some(c) = self.counters.get_mut(m as usize) {
            *c = c.saturating_add(n);
        }
    }

    /// Current value of one counter.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters.get(m as usize).copied().unwrap_or(0)
    }

    /// Largest queue backlog (bytes) observed by any admitted packet.
    pub fn max_backlog_bytes(&self) -> u64 {
        self.max_backlog_bytes
    }

    /// Largest sojourn time (ns) observed by any transmitted packet.
    pub fn max_sojourn_ns(&self) -> u64 {
        self.max_sojourn_ns
    }

    /// Sum of all drop counters.
    pub fn total_drops(&self) -> u64 {
        DropReason::ALL
            .iter()
            .map(|&r| self.get(Metric::for_drop(r)))
            .sum()
    }

    /// Merge another aggregator (e.g. from a parallel worker): counters
    /// add, gauges take the maximum.
    pub fn merge(&mut self, other: &MetricsAggregator) {
        for (dst, src) in self.counters.iter_mut().zip(other.counters.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.max_backlog_bytes = self.max_backlog_bytes.max(other.max_backlog_bytes);
        self.max_sojourn_ns = self.max_sojourn_ns.max(other.max_sojourn_ns);
    }

    /// CSV dump: `metric,value` rows in registry order, gauges last.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (name, value) in METRIC_NAMES.iter().zip(self.counters.iter()) {
            out.push_str(&format!("{name},{value}\n"));
        }
        out.push_str(&format!("max_backlog_bytes,{}\n", self.max_backlog_bytes));
        out.push_str(&format!("max_sojourn_ns,{}\n", self.max_sojourn_ns));
        out
    }
}

impl Default for MetricsAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::subscribe::ShardSubscriber for MetricsAggregator {
    fn fork_shard(&self, _shard: usize) -> Self {
        MetricsAggregator::new()
    }

    fn merge_shard(&mut self, child: Self) {
        self.merge(&child);
    }
}

impl Subscriber for MetricsAggregator {
    #[inline]
    fn on_packet_enqueued(&mut self, _meta: &Meta, ev: &PacketEnqueued) {
        self.bump(Metric::PacketsEnqueued);
        self.max_backlog_bytes = self.max_backlog_bytes.max(ev.backlog_bytes);
    }

    #[inline]
    fn on_packet_dropped(&mut self, _meta: &Meta, ev: &PacketDropped) {
        self.bump(Metric::for_drop(ev.reason));
    }

    #[inline]
    fn on_ce_marked(&mut self, _meta: &Meta, ev: &CeMarked) {
        match ev.site {
            crate::event::MarkSite::Enqueue => self.bump(Metric::EnqueueMarks),
            crate::event::MarkSite::Dequeue => self.bump(Metric::DequeueMarks),
        }
    }

    #[inline]
    fn on_sojourn_sampled(&mut self, _meta: &Meta, ev: &SojournSampled) {
        self.bump(Metric::SojournSamples);
        self.max_sojourn_ns = self.max_sojourn_ns.max(ev.sojourn_ns);
    }

    #[inline]
    fn on_episode_entered(&mut self, _meta: &Meta, _ev: &EpisodeEntered) {
        self.bump(Metric::EpisodesEntered);
    }

    #[inline]
    fn on_episode_exited(&mut self, _meta: &Meta, ev: &EpisodeExited) {
        self.bump(Metric::EpisodesExited);
        self.add(Metric::EpisodeMarks, ev.marks);
    }

    #[inline]
    fn on_cwnd_updated(&mut self, _meta: &Meta, _ev: &CwndUpdated) {
        self.bump(Metric::CwndUpdates);
    }

    #[inline]
    fn on_alpha_updated(&mut self, _meta: &Meta, _ev: &AlphaUpdated) {
        self.bump(Metric::AlphaUpdates);
    }

    #[inline]
    fn on_rto_fired(&mut self, _meta: &Meta, _ev: &RtoFired) {
        self.bump(Metric::RtoFirings);
    }

    #[inline]
    fn on_link_state_changed(&mut self, _meta: &Meta, _ev: &LinkStateChanged) {
        self.bump(Metric::LinkTransitions);
    }

    #[inline]
    fn on_flow_completed(&mut self, _meta: &Meta, ev: &FlowCompleted) {
        if ev.completed {
            self.bump(Metric::FlowsCompleted);
        } else {
            self.bump(Metric::FlowsFailed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MarkSite;
    use ecnsharp_sim::SimTime;

    fn meta() -> Meta {
        Meta {
            at: SimTime::from_micros(5),
            node: 1,
        }
    }

    #[test]
    fn registry_is_exhaustive_and_aligned() {
        // Every drop reason maps to a distinct counter named after it.
        let mut slots: Vec<usize> = DropReason::ALL
            .iter()
            .map(|&r| Metric::for_drop(r) as usize)
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 7);
        assert_eq!(Metric::DropsTail.name(), "drops_tail");
        assert_eq!(Metric::FlowsFailed as usize, METRIC_COUNT - 1);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let mut m = MetricsAggregator::new();
        m.on_packet_enqueued(
            &meta(),
            &PacketEnqueued {
                port: 0,
                flow: 1,
                seq: 0,
                payload: 1460,
                wire_bytes: 1500,
                backlog_bytes: 9_000,
                marked: true,
            },
        );
        m.on_ce_marked(
            &meta(),
            &CeMarked {
                port: 0,
                flow: 1,
                seq: 0,
                site: MarkSite::Enqueue,
            },
        );
        m.on_packet_dropped(
            &meta(),
            &PacketDropped {
                port: 0,
                flow: 2,
                seq: 0,
                payload: 1460,
                wire_bytes: 1500,
                reason: DropReason::Burst,
            },
        );
        m.on_episode_exited(&meta(), &EpisodeExited { port: 0, marks: 4 });
        assert_eq!(m.get(Metric::PacketsEnqueued), 1);
        assert_eq!(m.get(Metric::EnqueueMarks), 1);
        assert_eq!(m.get(Metric::DropsBurst), 1);
        assert_eq!(m.get(Metric::EpisodeMarks), 4);
        assert_eq!(m.total_drops(), 1);
        assert_eq!(m.max_backlog_bytes(), 9_000);

        let mut merged = MetricsAggregator::new();
        merged.merge(&m);
        merged.merge(&m);
        assert_eq!(merged.get(Metric::EpisodeMarks), 8);
        assert_eq!(merged.max_backlog_bytes(), 9_000);
    }

    #[test]
    fn csv_lists_every_registry_row() {
        let csv = MetricsAggregator::new().to_csv();
        for name in METRIC_NAMES {
            assert!(csv.contains(&format!("{name},0\n")), "missing {name}");
        }
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("max_backlog_bytes,0\n"));
    }
}
