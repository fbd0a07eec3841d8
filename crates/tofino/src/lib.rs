//! # ecnsharp-tofino
//!
//! Emulation of the paper's §4 Barefoot Tofino implementation, faithful to
//! the two hardware constraints that shaped it:
//!
//! 1. **32-bit ALUs** — the 64-bit nanosecond egress timestamp cannot be
//!    compared directly, so [`TimeEmulator`] reproduces Algorithm 2's
//!    two-register 32-bit tick clock (with the paper's literal `<=`
//!    wrap test and the corrected `<` selectable via [`WrapCmp`] — see the
//!    reproduction note in [`time_emu`]);
//! 2. **one register access per pipeline pass** — [`RegisterFile`] panics
//!    on a second access, the same failure the Tofino compiler raises for
//!    the naive control flow of Fig. 4b; [`TofinoEcnSharp`] is ECN♯
//!    reorganized into per-register match-action stages (Fig. 4c) with the
//!    `interval/sqrt(count)` division replaced by a lookup table.
//!
//! The pipeline implements the same [`ecnsharp_aqm::Aqm`] trait as the
//! reference `ecnsharp_core::EcnSharp` and is differential-tested against
//! it packet-for-packet.

pub mod pipeline;
pub mod register;
pub mod time_emu;

pub use pipeline::{ResourceReport, TofinoEcnSharp};
pub use register::{RegId, RegisterFile};
pub use time_emu::{reference_ticks, TimeEmulator, WrapCmp};

// Compile-time shard-safety proofs: the pipeline model runs inside the
// `Network` a sharded engine (ROADMAP item 1) moves across worker
// threads. Lint rule R7 guards the source text; these assertions
// guard the types themselves.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<TofinoEcnSharp>();
    assert_send_sync::<RegisterFile>();
    assert_send_sync::<TimeEmulator>();
};
