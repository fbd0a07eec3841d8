//! Algorithm 2: emulating a 32-bit ~microsecond system time on Tofino.
//!
//! The egress pipeline supplies a 64-bit nanosecond timestamp, but Tofino
//! ALUs compare 32-bit values only. Using the lower 32 bits wraps every
//! ~4.3 s; the paper's trick: right-shift the lower 32 bits by 10 to get a
//! 22-bit coarse-microsecond (1024 ns tick) counter, and maintain the
//! missing high 10 bits in a register incremented whenever the 22-bit
//! value wraps. The resulting 32-bit tick counter wraps only every ~73 min.
//!
//! **Reproduction note.** Algorithm 2 as printed detects a wrap with
//! `time_low <= register_low`. The second of two packets inside the same
//! 1024 ns tick then matches the condition, spuriously bumping the high
//! bits by one tick-epoch (+2²² ticks ≈ 4.3 s). One port's back-to-back
//! MTUs are ~1 230 ns apart at 10 Gbps, but small frames (64 B: ~51 ns)
//! and the pipe's other ports share ticks: both registers have one slot,
//! so they are one clock for every port. On the figures' switch traffic
//! the printed `<=` bumps 2–6×10⁵ times per simulated second
//! (EXPERIMENTS.md D4). The hardware code surely used strict `<`; we
//! implement both ([`WrapCmp`]), default to the corrected one, and
//! unit-test the discrepancy.

use crate::register::{RegId, RegisterFile};

/// Which wrap-detection comparison to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapCmp {
    /// The paper's literal `time_low <= register_low` (Algorithm 2 line 3).
    PaperLe,
    /// The corrected strict `time_low < register_low`.
    CorrectedLt,
}

/// The two-register time emulator.
pub struct TimeEmulator {
    reg_low: RegId,
    reg_high: RegId,
    cmp: WrapCmp,
}

/// The reference value Algorithm 2 approximates: the 1024 ns tick counter
/// truncated to 32 bits.
pub fn reference_ticks(tstamp_ns: u64) -> u32 {
    ((tstamp_ns >> 10) & 0xFFFF_FFFF) as u32
}

impl TimeEmulator {
    /// Allocate the emulator's two registers in `rf`.
    pub fn new(rf: &mut RegisterFile, cmp: WrapCmp) -> Self {
        TimeEmulator {
            reg_low: rf.alloc("time_emu_low", 1),
            reg_high: rf.alloc("time_emu_high", 1),
            cmp,
        }
    }

    /// Algorithm 2 for one packet: derive the emulated 32-bit tick time
    /// from the 64-bit nanosecond timestamp. Must be called once per pass.
    pub fn emulate(&self, rf: &mut RegisterFile, tstamp_ns: u64) -> u32 {
        let tmp = (tstamp_ns & 0xFFFF_FFFF) as u32;
        let time_low = tmp >> 10; // 22 bits
        let cmp = self.cmp;
        // One access to the low register: detect wrap, store new value.
        let wrapped = rf.access(self.reg_low, 0, move |old| {
            let wrapped = match cmp {
                WrapCmp::PaperLe => time_low <= old,
                WrapCmp::CorrectedLt => time_low < old,
            };
            (time_low, wrapped)
        });
        // One access to the high register: conditional increment, read out.
        let high = rf.access(self.reg_high, 0, move |old| {
            let new = if wrapped { old.wrapping_add(1) } else { old };
            (new, new)
        });
        (high << 22) | time_low
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn emu(cmp: WrapCmp) -> (RegisterFile, TimeEmulator) {
        let mut rf = RegisterFile::new();
        let e = TimeEmulator::new(&mut rf, cmp);
        (rf, e)
    }

    /// Feed a monotone series of nanosecond timestamps, return emulated vs
    /// reference ticks.
    fn run(cmp: WrapCmp, stamps: &[u64]) -> Vec<(u32, u32)> {
        let (mut rf, e) = emu(cmp);
        stamps
            .iter()
            .map(|&ts| {
                rf.begin_pass();
                (e.emulate(&mut rf, ts), reference_ticks(ts))
            })
            .collect()
    }

    #[test]
    fn matches_reference_without_wraps() {
        // Ticks strictly increasing, well inside one 22-bit window.
        let stamps: Vec<u64> = (1..1000u64).map(|k| k * 2048).collect();
        for (got, want) in run(WrapCmp::CorrectedLt, &stamps) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn tracks_reference_across_22bit_wraps() {
        // Jump across several 4.3 s epochs with ~1 ms steps near each edge.
        let mut stamps = Vec::new();
        let epoch = 1u64 << 32; // lower-32 wrap in ns = 2^32 ns
        for e in 0..3u64 {
            for k in 0..2_000u64 {
                stamps.push(e * epoch + k * 2_000_000); // 2 ms steps
            }
        }
        for (got, want) in run(WrapCmp::CorrectedLt, &stamps) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn paper_le_comparator_overcounts_on_same_tick() {
        // Two packets in the same 1024 ns tick: the literal algorithm
        // spuriously detects a wrap and jumps ~4.3 s into the future.
        let stamps = [10_240, 10_500]; // same tick (10)
        let le = run(WrapCmp::PaperLe, &stamps);
        let lt = run(WrapCmp::CorrectedLt, &stamps);
        assert_eq!(lt[1].0, lt[1].1, "corrected variant stays exact");
        assert_eq!(
            le[1].0,
            lt[1].0 + (1 << 22),
            "literal variant jumps one 22-bit epoch"
        );
    }

    #[test]
    fn wraps_at_32_bits_like_reference() {
        // March from t=0 across the full 32-bit tick wrap (~73 min of
        // simulated time) with one packet per 22-bit window (gap just
        // under the 4.19 s bound): the emulator must witness every wrap
        // and stay equal to the reference throughout, including the final
        // 32-bit wrap where the 10 high bits overflow naturally.
        let window_ns = 1u64 << 32; // one 22-bit tick window = 2^32 ns
        let stamps: Vec<u64> = (0..1_030u64).map(|k| k * (window_ns - 4096)).collect();
        for (got, want) in run(WrapCmp::CorrectedLt, &stamps) {
            assert_eq!(got, want);
        }
    }

    proptest! {
        /// For any strictly-tick-increasing timestamp sequence whose gaps
        /// stay below one 22-bit epoch, the corrected emulator equals the
        /// reference.
        #[test]
        fn prop_equivalence_under_gap_bound(
            gaps in proptest::collection::vec(1u64..4_000_000u64, 1..300),
        ) {
            // gaps are in 1024 ns ticks, each < 2^22.
            let mut ts = 0u64;
            let mut stamps = Vec::new();
            for g in gaps {
                ts += g * 1024;
                stamps.push(ts);
            }
            for (got, want) in run(WrapCmp::CorrectedLt, &stamps) {
                prop_assert_eq!(got, want);
            }
        }
    }
}
