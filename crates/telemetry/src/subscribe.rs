//! The statically-dispatched [`Subscriber`] trait.
//!
//! Modeled on s2n-quic's `event::Subscriber`: one default-no-op method per
//! event, delivered by value of a shared reference, dispatched through a
//! generic parameter (never a trait object) so the compiler can inline and
//! fold the whole delivery path. The associated `ENABLED` constant lets
//! emission sites guard event *construction* too:
//!
//! ```ignore
//! if S::ENABLED {
//!     sub.on_packet_dropped(&meta, &ev); // not even built for Noop
//! }
//! ```
//!
//! [`NoopSubscriber`] sets `ENABLED = false`, so with the default
//! subscriber every emission site is `if false { .. }` — dead code the
//! optimizer removes entirely (the `telemetry_noop` gate of `cargo xtask
//! bench` pins this).
//!
//! Subscribers compose as tuples: `(metrics, (histograms, timeline))` is a
//! subscriber that fans every event out to all three, still statically
//! dispatched.

use crate::event::{
    AlphaUpdated, CeMarked, CwndUpdated, EpisodeEntered, EpisodeExited, FlowCompleted,
    LinkStateChanged, Meta, PacketDropped, PacketEnqueued, RtoFired, SojournSampled,
};

/// A consumer of simulation telemetry events.
///
/// All methods default to no-ops; implement only what you need. Methods
/// take `&mut self` — subscribers are owned by the network and accumulate
/// state across the run. Implementations must be deterministic given the
/// event sequence (no clocks, no ambient randomness, no hash-order
/// iteration) so that attaching one never perturbs simulation results and
/// two identical runs produce identical output.
pub trait Subscriber: Send + 'static {
    /// Whether emission sites should construct and deliver events at all.
    /// Leave at `true` for real subscribers; only [`NoopSubscriber`] (and
    /// tuples of no-ops) set it to `false`.
    const ENABLED: bool = true;

    /// A packet was admitted to an egress queue.
    #[inline]
    fn on_packet_enqueued(&mut self, meta: &Meta, ev: &PacketEnqueued) {
        let _ = (meta, ev);
    }

    /// A packet was discarded.
    #[inline]
    fn on_packet_dropped(&mut self, meta: &Meta, ev: &PacketDropped) {
        let _ = (meta, ev);
    }

    /// A packet had its CE codepoint set.
    #[inline]
    fn on_ce_marked(&mut self, meta: &Meta, ev: &CeMarked) {
        let _ = (meta, ev);
    }

    /// A dequeued packet's sojourn time was measured.
    #[inline]
    fn on_sojourn_sampled(&mut self, meta: &Meta, ev: &SojournSampled) {
        let _ = (meta, ev);
    }

    /// An ECN♯ persistent-marking episode began.
    #[inline]
    fn on_episode_entered(&mut self, meta: &Meta, ev: &EpisodeEntered) {
        let _ = (meta, ev);
    }

    /// An ECN♯ persistent-marking episode ended.
    #[inline]
    fn on_episode_exited(&mut self, meta: &Meta, ev: &EpisodeExited) {
        let _ = (meta, ev);
    }

    /// A sender's congestion window changed.
    #[inline]
    fn on_cwnd_updated(&mut self, meta: &Meta, ev: &CwndUpdated) {
        let _ = (meta, ev);
    }

    /// A DCTCP sender updated `alpha`.
    #[inline]
    fn on_alpha_updated(&mut self, meta: &Meta, ev: &AlphaUpdated) {
        let _ = (meta, ev);
    }

    /// A retransmission timeout fired.
    #[inline]
    fn on_rto_fired(&mut self, meta: &Meta, ev: &RtoFired) {
        let _ = (meta, ev);
    }

    /// A link changed administrative state.
    #[inline]
    fn on_link_state_changed(&mut self, meta: &Meta, ev: &LinkStateChanged) {
        let _ = (meta, ev);
    }

    /// A flow finished (completed or aborted).
    #[inline]
    fn on_flow_completed(&mut self, meta: &Meta, ev: &FlowCompleted) {
        let _ = (meta, ev);
    }
}

/// The do-nothing subscriber: `ENABLED = false`, so every emission site
/// guarded by `S::ENABLED` compiles to nothing. This is the default
/// subscriber of `Network`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSubscriber;

impl Subscriber for NoopSubscriber {
    const ENABLED: bool = false;
}

macro_rules! forward_pair {
    ($($method:ident($ev:ty)),+ $(,)?) => {
        $(
            #[inline]
            fn $method(&mut self, meta: &Meta, ev: &$ev) {
                self.0.$method(meta, ev);
                self.1.$method(meta, ev);
            }
        )+
    };
}

/// Tuple composition: deliver every event to both members, in order.
/// Nest tuples for wider fan-out: `(a, (b, c))`.
impl<A: Subscriber, B: Subscriber> Subscriber for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    forward_pair! {
        on_packet_enqueued(PacketEnqueued),
        on_packet_dropped(PacketDropped),
        on_ce_marked(CeMarked),
        on_sojourn_sampled(SojournSampled),
        on_episode_entered(EpisodeEntered),
        on_episode_exited(EpisodeExited),
        on_cwnd_updated(CwndUpdated),
        on_alpha_updated(AlphaUpdated),
        on_rto_fired(RtoFired),
        on_link_state_changed(LinkStateChanged),
        on_flow_completed(FlowCompleted),
    }
}

/// A [`Subscriber`] that can be split across simulation shards and
/// deterministically recombined.
///
/// The sharded engine gives every shard a fork of the run's subscriber;
/// each fork sees exactly the events of its shard's nodes. After the run,
/// forks are merged back **in shard-index order**, so the merged result is
/// a pure function of the per-shard event streams — independent of thread
/// scheduling. Aggregate subscribers (counters, histograms) are natural
/// fits: their merge is commutative, so they are additionally independent
/// of the shard *count* whenever the underlying event multiset is.
/// Stream-order subscribers (e.g. JSONL writers) cannot implement this
/// trait meaningfully and are rejected by the sharded entry points at
/// compile time.
pub trait ShardSubscriber: Subscriber + Sized {
    /// An empty subscriber for shard `shard`, configured compatibly with
    /// `self` (same precision, same registry, ...).
    fn fork_shard(&self, shard: usize) -> Self;

    /// Fold a shard's fork back into the run-level subscriber. Called once
    /// per fork, in ascending shard index.
    fn merge_shard(&mut self, child: Self);
}

impl ShardSubscriber for NoopSubscriber {
    fn fork_shard(&self, _shard: usize) -> Self {
        NoopSubscriber
    }

    fn merge_shard(&mut self, _child: Self) {}
}

impl<A: ShardSubscriber, B: ShardSubscriber> ShardSubscriber for (A, B) {
    fn fork_shard(&self, shard: usize) -> Self {
        (self.0.fork_shard(shard), self.1.fork_shard(shard))
    }

    fn merge_shard(&mut self, child: Self) {
        self.0.merge_shard(child.0);
        self.1.merge_shard(child.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropReason;
    use ecnsharp_sim::SimTime;

    struct Counting(u64);
    impl Subscriber for Counting {
        fn on_packet_dropped(&mut self, _meta: &Meta, _ev: &PacketDropped) {
            self.0 += 1;
        }
    }

    #[test]
    #[expect(
        clippy::assertions_on_constants,
        reason = "the whole point is that these are compile-time constants"
    )]
    fn noop_is_disabled_and_real_subscribers_are_enabled() {
        assert!(!NoopSubscriber::ENABLED);
        assert!(Counting::ENABLED);
        assert!(<(Counting, NoopSubscriber)>::ENABLED);
        assert!(!<(NoopSubscriber, NoopSubscriber)>::ENABLED);
    }

    #[test]
    fn tuple_fans_out_to_both_members() {
        let meta = Meta {
            at: SimTime::ZERO,
            node: 3,
        };
        let ev = PacketDropped {
            port: 0,
            flow: 1,
            seq: 0,
            payload: 1460,
            wire_bytes: 1500,
            reason: DropReason::Tail,
        };
        let mut pair = (Counting(0), (Counting(0), NoopSubscriber));
        pair.on_packet_dropped(&meta, &ev);
        pair.on_packet_dropped(&meta, &ev);
        assert_eq!(pair.0 .0, 2);
        assert_eq!(pair.1 .0 .0, 2);
    }
}
