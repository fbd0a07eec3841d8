//! # ecnsharp-transport
//!
//! Endpoint transport for the ECN♯ reproduction: a byte-counted TCP
//! running DCTCP, as every endhost does in the paper's evaluation (§5.1),
//! packaged as an [`ecnsharp_net::Agent`]. The receiver echoes CE per
//! packet (with the DCTCP delayed-ACK state machine when ACK coalescing is
//! on); the sender maintains `α ← (1−g)·α + g·F` per window and cuts
//! `cwnd ← cwnd·(1 − α/2)`. Every setting no caller varies is a constant
//! in [`config`] or [`rtt`].
//!
//! Loss recovery is NewReno (3 dup-ACKs → fast retransmit, partial-ACK
//! retransmissions), with go-back-N and exponential backoff on RTO. The
//! RTO floor is 5 ms ([`rtt::RTO_MIN`]) — the datacenter setting that
//! makes each incast timeout cost "more than 1 ms" of FCT as the paper
//! observes.
//!
//! ```
//! use ecnsharp_transport::{TcpStack, TcpConfig};
//! use ecnsharp_net::{topology::dumbbell, PortConfig, FlowCmd, FlowId};
//! use ecnsharp_aqm::DctcpRed;
//! use ecnsharp_sim::{Rate, Duration, SimTime};
//!
//! let plain = || PortConfig::fifo(1_000_000, Box::new(ecnsharp_aqm::DropTail::new()));
//! let mut d = dumbbell(
//!     1, Rate::from_gbps(40), Rate::from_gbps(10), Duration::from_micros(5),
//!     TcpStack::boxed(TcpConfig::dctcp()),
//!     TcpStack::boxed(TcpConfig::dctcp()),
//!     plain,
//!     PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(65_000))),
//! );
//! let (a, b) = (d.a, d.b);
//! d.net.schedule_flow(SimTime::ZERO, FlowCmd {
//!     flow: FlowId(1), src: a, dst: b, size: 1_000_000, class: 0,
//!     extra_delay: Duration::ZERO,
//! });
//! d.net.run_until_idle();
//! assert_eq!(d.net.records().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod conn;
pub mod rtt;
pub mod stack;

pub use config::TcpConfig;
pub use conn::{Receiver, Sender, SenderState};
pub use rtt::RttEstimator;
pub use stack::TcpStack;

// Compile-time shard-safety proofs: endpoint stacks live inside the
// `Network` a sharded engine (ROADMAP item 1) moves across worker
// threads. Lint rule R7 guards the source text; these assertions
// guard the types themselves.
const fn assert_send<T: Send>() {}
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send::<TcpStack>();
    assert_send::<Sender>();
    assert_send::<Receiver>();
    assert_send_sync::<TcpConfig>();
    assert_send_sync::<RttEstimator>();
};
