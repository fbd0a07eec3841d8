//! # ecnsharp-net
//!
//! The packet-level datacenter network model the ECN♯ reproduction runs on:
//!
//! - [`Packet`] — byte-counted segments with ECN codepoints and TCP-ish
//!   flags;
//! - [`EgressPort`] — the buffered transmit side of a link attachment:
//!   tail-drop capacity, a pluggable [`ecnsharp_aqm::Aqm`] policy, a FIFO
//!   or [`ecnsharp_sched::Dwrr`] scheduler ([`PortSched`]), store-and-forward
//!   serialization, optional fault injection;
//! - [`Network`] — owns nodes and links, runs the deterministic event loop,
//!   routes with flow-consistent ECMP, and records flow completions;
//! - [`Agent`] — endpoint logic plugged into hosts (the DCTCP stack lives
//!   in `ecnsharp-transport`);
//! - topology builders for the paper's scenarios ([`topology::star`],
//!   [`topology::leaf_spine`], [`topology::dumbbell`]).
//!
//! Per-flow artificial sender-side processing delay
//! ([`FlowCmd::extra_delay`]) reproduces the paper's netem-based base-RTT
//! variation.
//!
//! With the default-on `telemetry` feature, the hot paths emit typed
//! events ([`ecnsharp_telemetry::PacketEnqueued`], drops with a
//! [`DropReason`], CE marks, sojourn samples, ECN♯ episode transitions,
//! …) to a statically-dispatched [`Subscriber`]. [`Network`] is generic
//! over the subscriber with a [`NoopSubscriber`] default whose emission
//! sites fold away entirely; see OBSERVABILITY.md.

/// Deliver one telemetry event to a subscriber.
///
/// Expands the event construction *inside* an `if S::ENABLED` guard, so
/// with [`NoopSubscriber`] (`ENABLED = false`) the whole site folds away
/// at compile time, and with the `telemetry` feature off it is not
/// compiled at all. Call sites must have a `S: Subscriber` type parameter
/// named `S` in scope (the macro is textual, like s2n-quic's event
/// macros). Defined before the module declarations so textual
/// `macro_rules!` scoping makes it visible throughout the crate.
#[cfg(feature = "telemetry")]
macro_rules! emit {
    ($sub:expr, $method:ident, $meta:expr, $ev:expr) => {
        if S::ENABLED {
            ecnsharp_telemetry::Subscriber::$method($sub, &$meta, &$ev);
        }
    };
}
#[cfg(not(feature = "telemetry"))]
macro_rules! emit {
    ($sub:expr, $method:ident, $meta:expr, $ev:expr) => {{
        let _ = &$sub;
    }};
}

pub mod agent;
pub mod arena;
mod arrival;
pub mod fault;
pub mod ids;
pub mod network;
pub mod node;
pub mod packet;
pub mod port;
pub mod shard;
pub mod topology;

pub use agent::{
    Action, Agent, Ctx, EchoAgent, FlowCmd, FlowOutcome, FlowRecord, FlowState, NullAgent,
};
pub use arena::RingArena;
pub use fault::{FaultAction, FaultEvent, FaultPlan, GilbertElliott};
pub use ids::{FlowId, NodeId, PortId};
pub use network::{Network, PerfCounters};
pub use packet::{Ecn, Flags, Packet};
pub use port::{EgressPort, PortConfig, PortSched, PortStats};
pub use shard::ShardPlan;

// Re-export the subscriber vocabulary so downstream crates can attach
// telemetry without depending on `ecnsharp-telemetry` directly.
pub use ecnsharp_telemetry::{DropReason, NoopSubscriber, ShardSubscriber, Subscriber};

// Re-export the run-supervision vocabulary (see `ecnsharp_sim::supervise`)
// so fallible runners and sweeps need only this crate.
pub use ecnsharp_sim::supervise::{
    MemBreach, MemComponent, ProgressGuard, ShardDiag, SimError, Supervision,
};

// Compile-time shard-safety proofs: a sharded engine (ROADMAP item 1)
// hands whole `Network` instances to worker threads, so every piece of
// the network model must stay `Send`. Lint rule R7 guards the source
// text; these assertions guard the types themselves.
const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<Network<NoopSubscriber>>();
    assert_send::<Box<dyn Agent>>();
    assert_send::<PortConfig>();
    assert_send::<FaultPlan>();
    assert_send_sync::<Packet>();
    assert_send_sync::<GilbertElliott>();
    // The sharded runner moves these between threads: whole engines into
    // the worker scope, cross-shard packets through the mailboxes, and
    // the plan's owner map behind an Arc.
    assert_send::<network::OutMsg>();
    assert_send_sync::<ShardPlan>();
    // Pooled ring storage moves with its node across shard threads.
    assert_send::<RingArena>();
    // Supervision config is copied into every shard engine; guard trips
    // cross the worker scope back to the caller.
    assert_send_sync::<Supervision>();
    assert_send_sync::<SimError>();
    // Cache-layout pin alongside the shard-safety proofs: the packed
    // Packet (and therefore every pooled arena slot) must stay within one
    // 64-byte cache line, or the host-path working set regresses.
    assert!(std::mem::size_of::<Packet>() <= 64);
    assert!(std::mem::size_of::<Option<(u64, Packet)>>() <= 72);
};
