//! # ecnsharp-core
//!
//! ECN♯ ("ECN-Sharp"), the AQM contributed by *Enabling ECN for Datacenter
//! Networks with RTT Variations* (Zhang, Bai, Chen — CoNEXT 2019).
//!
//! ## The problem
//!
//! ECN-based datacenter transports (DCTCP, DCQCN, …) mark packets at the
//! switch against a threshold derived from a **fixed** base RTT
//! (`K = λ·C·RTT`, Eq. 1). Base RTTs actually vary ~3× and more across flows
//! (load balancers, hypervisors, stack load — §2.2). Deriving the threshold
//! from a high-percentile RTT preserves throughput but lets flows with
//! *small* RTTs maintain a standing queue below the threshold — pure
//! queueing delay that inflates short-flow latency by 50%+ (§2.3). Deriving
//! it from a low-percentile RTT instead starves the large-RTT flows.
//!
//! ## The ECN♯ idea
//!
//! Keep the high-percentile instantaneous threshold (burst tolerance, full
//! throughput) **and** watch for queues that stay above a small
//! `pst_target` for a whole `pst_interval` — such standing queues cannot be
//! contributing throughput, so ECN♯ conservatively marks one packet per
//! (shrinking) interval until they drain. See [`EcnSharp`] for the exact
//! Algorithm-1 state machine and [`EcnSharpConfig`] for the §3.4
//! rule-of-thumb. §3.5's probabilistic variant for
//! rate-based transports is not implemented; the paper leaves it to
//! future work.
//!
//! ```
//! use ecnsharp_core::{EcnSharp, EcnSharpConfig, MarkReason};
//! use ecnsharp_sim::{Duration, SimTime};
//!
//! let mut m = EcnSharp::new(EcnSharpConfig::paper_testbed());
//! // A 300 us sojourn exceeds ins_target (200 us): instantaneous mark.
//! assert_eq!(
//!     m.decide(SimTime::from_micros(0), Duration::from_micros(300)),
//!     MarkReason::Instantaneous,
//! );
//! // A standing 100 us queue (above pst_target 85 us, below ins_target)
//! // is tolerated for one pst_interval (200 us)...
//! assert_eq!(
//!     m.decide(SimTime::from_micros(50), Duration::from_micros(100)),
//!     MarkReason::None,
//! );
//! // ...and conservatively marked once it persists.
//! assert_eq!(
//!     m.decide(SimTime::from_micros(251), Duration::from_micros(100)),
//!     MarkReason::Persistent,
//! );
//! ```

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod config;
pub mod marker;

pub use config::EcnSharpConfig;
pub use marker::{EcnSharp, MarkReason, MarkStats};

// Compile-time shard-safety proofs: markers sit on ports inside the
// `Network` a sharded engine (ROADMAP item 1) moves across worker
// threads. Lint rule R7 guards the source text; these assertions
// guard the types themselves.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<EcnSharp>();
    assert_send_sync::<EcnSharpConfig>();
};
