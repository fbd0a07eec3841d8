//! # ecn-sharp
//!
//! A from-scratch Rust reproduction of **“Enabling ECN for Datacenter
//! Networks with RTT Variations”** (Zhang, Bai, Chen — CoNEXT 2019): the
//! **ECN♯** switch AQM, together with every substrate its evaluation needs
//! — a deterministic packet-level datacenter network simulator, a DCTCP
//! transport, the baseline AQMs (DCTCP-RED, CoDel, TCN), the DWRR
//! multi-queue packet scheduler, production workload
//! generators, a Tofino match-action-pipeline emulation of the §4 hardware
//! implementation, and a harness regenerating every table and figure of
//! the paper.
//!
//! This crate is the facade: it re-exports all workspace crates under one
//! name. Use the individual `ecnsharp-*` crates directly when you need
//! only a piece.
//!
//! ```
//! use ecn_sharp::core::{EcnSharp, EcnSharpConfig, MarkReason};
//! use ecn_sharp::sim::{Duration, SimTime};
//!
//! // The heart of the paper in three lines: instantaneous marking above a
//! // high-percentile-RTT target, conservative marking on persistent
//! // queues above a small target.
//! let mut marker = EcnSharp::new(EcnSharpConfig::paper_testbed());
//! let decision = marker.decide(SimTime::ZERO, Duration::from_micros(300));
//! assert_eq!(decision, MarkReason::Instantaneous);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Discrete-event engine: time, rates, RNG, event queue.
pub use ecnsharp_sim as sim;

/// AQM trait and baseline schemes.
pub use ecnsharp_aqm as aqm;

/// ECN♯ itself (Algorithm 1 on the sojourn-time signal).
pub use ecnsharp_core as core;

/// Tofino hardware-model emulation (§4).
pub use ecnsharp_tofino as tofino;

/// Packet schedulers (FIFO, DWRR).
pub use ecnsharp_sched as sched;

/// The network model: packets, ports, switches, hosts, topologies.
pub use ecnsharp_net as net;

/// Typed telemetry events, subscribers, histograms and sinks.
pub use ecnsharp_telemetry as telemetry;

/// DCTCP endpoint transport.
pub use ecnsharp_transport as transport;

/// Workloads: CDFs, Poisson traffic, incast, RTT variation.
pub use ecnsharp_workload as workload;

/// Metrics: FCT breakdowns, queue series, tables.
pub use ecnsharp_stats as stats;

/// The paper's evaluation harness (figures/tables).
pub use ecnsharp_experiments as experiments;
