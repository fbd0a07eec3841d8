//! # ecnsharp-workload
//!
//! Workload generation for the ECN♯ evaluation:
//!
//! - [`dists::web_search`] / [`dists::data_mining`] — the two production
//!   flow-size CDFs of Fig. 5 (DCTCP and VL2 measurements, point sets as
//!   shipped in the authors' TrafficGenerator);
//! - [`TrafficSpec`] — Poisson open-loop flow arrivals hitting a target
//!   bottleneck load, with per-flow long-tail base-RTT variation
//!   ([`RttVariation`], the netem emulation of §2.3);
//! - [`IncastSpec`] — the §5.4 query bursts (N concurrent 3–60 KB
//!   responses);
//! - [`processing`] — the Table-1 processing-component delay model
//!   (stack / SLB / hypervisor / load), for reproducing Fig. 1 and
//!   Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod dists;
pub mod processing;
pub mod rtt;
pub mod traffic;

pub use cdf::PiecewiseCdf;
pub use processing::{measure_case, Component, RttSampleStats, Table1Case};
pub use rtt::{RttStats, RttVariation};
pub use traffic::{IncastSpec, Pattern, TrafficSpec};

// Compile-time shard-safety proofs: workload generators are cloned into
// per-shard workers by the sharded engine (ROADMAP item 1). Lint rule
// R7 guards the source text; these assertions guard the types.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<PiecewiseCdf>();
    assert_send_sync::<RttVariation>();
    assert_send_sync::<TrafficSpec>();
};
