//! # ecnsharp-telemetry
//!
//! The observability layer of the ECN♯ reproduction: typed simulation
//! events and statically-dispatched subscribers, modeled on s2n-quic's
//! `event::Subscriber` pattern.
//!
//! - [`event`] — the event catalogue ([`PacketEnqueued`],
//!   [`PacketDropped`] with a [`DropReason`], [`CeMarked`],
//!   [`SojournSampled`], [`EpisodeEntered`]/[`EpisodeExited`],
//!   [`CwndUpdated`], [`AlphaUpdated`], [`RtoFired`],
//!   [`LinkStateChanged`], [`FlowCompleted`]);
//! - [`subscribe`] — the [`Subscriber`] trait, the zero-cost
//!   [`NoopSubscriber`], and tuple composition;
//! - [`metrics`] — [`MetricsAggregator`], counters/gauges keyed by the
//!   static [`METRIC_NAMES`] registry (no hash maps, no default hashers);
//! - [`hist`] — [`LogLinearHistogram`], a deterministic HDR-style
//!   histogram over `u64` values with documented quantile error bounds,
//!   mergeable across `parallel_map` workers;
//! - [`timeline`] — [`TimelineSampler`], per-port queue/sojourn and
//!   per-flow cwnd/alpha CSV series on a **sim-event-driven** cadence
//!   (never the wall clock);
//! - [`json`] — [`JsonlWriter`], a qlog-style JSON-lines structured
//!   writer over any `io::Write` sink.
//!
//! All event ids are raw integers (`u64` node/flow/port numbers) so this
//! crate sits *below* `ecnsharp-net` in the dependency graph: the network
//! emits events, subscribers consume them, and nothing here can reach back
//! into simulation state.
//!
//! Every subscriber is deterministic given the event sequence; none of
//! them reads clocks, environment, or ambient randomness. Emission in the
//! simulator is guarded by `Subscriber::ENABLED` so that the no-op
//! subscriber compiles down to nothing (held by the `telemetry_noop`
//! gate of `cargo xtask bench`; see OBSERVABILITY.md).

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod subscribe;
pub mod timeline;

pub use event::{
    AlphaUpdated, CeMarked, CwndUpdated, DropReason, EpisodeEntered, EpisodeExited, FlowCompleted,
    LinkStateChanged, MarkSite, Meta, PacketDropped, PacketEnqueued, RtoFired, SojournSampled,
    TransportEvent,
};
pub use hist::{HistogramRecorder, LogLinearHistogram, PrecisionMismatch, FCT_BUCKET_NAMES};
pub use json::JsonlWriter;
pub use metrics::{Metric, MetricsAggregator, METRIC_COUNT, METRIC_NAMES};
pub use subscribe::{NoopSubscriber, ShardSubscriber, Subscriber};
pub use timeline::TimelineSampler;

// Compile-time shard-safety proofs: subscribers travel with their
// `Network` across worker threads, and per-shard recorders are merged on
// the host thread (ROADMAP item 1). Lint rule R7 guards the source
// text; these assertions guard the types themselves.
const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<JsonlWriter<std::io::Sink>>();
    assert_send_sync::<MetricsAggregator>();
    assert_send_sync::<HistogramRecorder>();
    assert_send_sync::<NoopSubscriber>();
};
