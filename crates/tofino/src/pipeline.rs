//! ECN♯ as a Tofino egress pipeline (§4), organized the way Fig. 4c
//! requires: conditions are computed into packet metadata first, then each
//! register is touched by exactly one stateful-ALU access per packet, and
//! the division-by-`sqrt(count)` of Algorithm 1 — impossible at line rate —
//! becomes a precomputed match-action lookup table.
//!
//! Stage order for each dequeued packet:
//!
//! 1. **Time emulation** (Algorithm 2, 2 registers) → `now` ticks;
//! 2. **Condition metadata**: sojourn ticks, `above_pst`, `above_ins`;
//! 3. **`first_above_time` register** (1 access): reset / stamp / compare
//!    → `detected`;
//! 4. **`marking_state` register** (1 access): enter/leave episode →
//!    `was_marking`;
//! 5. **`marking_count` register** (1 access): reset-to-1 or conditional
//!    increment → `count`;
//! 6. **sqrt lookup MAT**: `count → pst_interval / sqrt(count)` ticks;
//! 7. **`marking_next` register** (1 access): compare & reschedule →
//!    persistent-mark decision.
//!
//! The per-port state is one slot of each array (the paper provisions all
//! 128 ports). The pipeline is differential-tested against the reference
//! `ecnsharp_core::EcnSharp` in this module, and shadowed packet by packet
//! on the figures' traffic by `crates/experiments/tests/tofino_shadow.rs`.

use crate::register::{RegId, RegisterFile};
use crate::time_emu::{TimeEmulator, WrapCmp};
use ecnsharp_aqm::{mark_or_drop, Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState};
use ecnsharp_core::EcnSharpConfig;
use ecnsharp_sim::SimTime;

/// Static resource usage of the pipeline, for the §4 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceReport {
    /// Match-action tables (stages 2–7 plus the two time-emulation
    /// updates folded into one table each).
    pub match_action_tables: usize,
    /// 32-bit register arrays.
    pub reg32_arrays: usize,
    /// Entries in the sqrt range-match table.
    pub sqrt_table_entries: usize,
    /// Packet metadata bits carried between stages.
    pub metadata_bits: usize,
    /// Register memory bytes for a 128-port deployment.
    pub register_bytes: usize,
}

/// ECN♯ compiled to the constrained register/MAT model.
pub struct TofinoEcnSharp {
    rf: RegisterFile,
    time: TimeEmulator,
    port: usize,
    // Thresholds in 1024 ns ticks, each rounded to the nearest tick.
    ins_target_ticks: u32,
    pst_target_ticks: u32,
    pst_interval_ticks: u32,
    // Register arrays (one slot per port).
    first_above: RegId,
    marking_state: RegId,
    marking_count: RegId,
    marking_next: RegId,
    /// The MAT of stage 6, a range match: `(first count, delta)` in count
    /// order, one entry per rounded `interval/sqrt(count + 1)` in ticks.
    sqrt_lut: Vec<(u64, u32)>,
}

/// A threshold in 1024 ns ticks, rounded to the nearest: truncating took
/// up to a tick off each, and Algorithm 1 is sensitive to a lower
/// `pst_target` (EXPERIMENTS.md "§4 shadow"). Timestamps stay truncated,
/// as the hardware's tick counter is.
fn to_ticks(d: ecnsharp_sim::Duration) -> u32 {
    ((d.as_nanos() + 512) >> 10) as u32
}

impl TofinoEcnSharp {
    /// Build the pipeline for one port of a `ports`-port switch.
    pub fn new(cfg: EcnSharpConfig, ports: usize, port: usize, cmp: WrapCmp) -> Self {
        assert!(port < ports);
        let mut rf = RegisterFile::new();
        let time = TimeEmulator::new(&mut rf, cmp);
        let first_above = rf.alloc("first_above_time", ports);
        let marking_state = rf.alloc("marking_state", ports);
        let marking_count = rf.alloc("marking_count", ports);
        let marking_next = rf.alloc("marking_next", ports);
        let interval = to_ticks(cfg.pst_interval).max(1);
        // delta(c) <= v exactly when interval/sqrt(c + 1) < v + 1/2, i.e.
        // c >= floor(4 interval² / (2v + 1)²): the entry for delta v starts
        // there. Count 1 takes the largest delta, round(interval/sqrt 2).
        let i2 = 4 * u64::from(interval).pow(2);
        let top = ((f64::from(interval) / 2f64.sqrt()).round() as u32).max(1);
        let mut sqrt_lut: Vec<(u64, u32)> = (1..=top)
            .map(|v| ((i2 / (2 * u64::from(v) + 1).pow(2)).max(1), v))
            .collect();
        sqrt_lut.dedup_by_key(|e| e.0);
        sqrt_lut.reverse();
        TofinoEcnSharp {
            rf,
            time,
            port,
            ins_target_ticks: to_ticks(cfg.ins_target),
            pst_target_ticks: to_ticks(cfg.pst_target),
            pst_interval_ticks: interval,
            first_above,
            marking_state,
            marking_count,
            marking_next,
            sqrt_lut,
        }
    }

    /// Resource usage of this pipeline (compare with §4's "7 match action
    /// tables, 5×32-bit + 2×64-bit register arrays, 124-bit metadata").
    pub fn resources(&self) -> ResourceReport {
        ResourceReport {
            match_action_tables: 7,
            reg32_arrays: self.rf.array_count(),
            sqrt_table_entries: self.sqrt_lut.len(),
            // now(32) + sojourn(32) + flags(3) + count(32) + delta(32)
            metadata_bits: 131,
            register_bytes: self.rf.memory_bytes(),
        }
    }

    /// Process one dequeued packet through the pipeline; returns whether it
    /// must be CE-marked. `now_ns` is the egress timestamp, `enq_ns` the
    /// packet's enqueue timestamp metadata.
    pub fn on_dequeue_raw(&mut self, now_ns: u64, enq_ns: u64) -> bool {
        self.rf.begin_pass();

        // Stage 1: Algorithm 2.
        let now = self.time.emulate(&mut self.rf, now_ns);

        // Stage 2: condition metadata. Sojourn with 32-bit wrapping
        // arithmetic, as the ALUs compute it.
        let enq_ticks = ((enq_ns >> 10) & 0xFFFF_FFFF) as u32;
        let sojourn = now.wrapping_sub(enq_ticks);
        let above_pst = sojourn >= self.pst_target_ticks;
        let above_ins = sojourn > self.ins_target_ticks;

        // Stage 3: first_above_time (single access).
        let pst_interval = self.pst_interval_ticks;
        let detected = self.rf.access(self.first_above, self.port, move |old| {
            if !above_pst {
                (0, false) // queue expired: reset (0 = unset sentinel)
            } else if old == 0 {
                // First excursion above target: stamp. A true timestamp of
                // 0 is indistinguishable from "unset"; like the P4 code we
                // accept the 1-tick bias and store max(now, 1).
                (now.max(1), false)
            } else {
                (old, now.wrapping_sub(old) > pst_interval)
            }
        });

        // Stage 4: marking_state (single access). 1 = in episode.
        let was_marking = self.rf.access(self.marking_state, self.port, move |old| {
            let new = if detected { 1 } else { 0 };
            (new, old == 1)
        });

        // Stage 5: marking_count (single access): reset to 1 on episode
        // entry, else read. Its increment depends on stage 7's compare, so
        // it is committed after the pass (`bump_count`).
        let count = self.rf.access(self.marking_count, self.port, move |old| {
            let new = if detected && !was_marking { 1 } else { old };
            (new, new)
        });

        // Stage 6: sqrt lookup MAT.
        let delta = self.sqrt_delta(count);

        // Stage 7: marking_next (single access) — the actual decision.
        let pst_mark = self.rf.access(self.marking_next, self.port, move |old| {
            if !detected {
                (old, false)
            } else if !was_marking {
                // Episode entry: mark now, schedule one interval out.
                (now.wrapping_add(pst_interval), true)
            } else if now.wrapping_sub(old) != 0 && now.wrapping_sub(old) < (1 << 31) {
                // now > marking_next in wrapping arithmetic: mark and
                // push the schedule forward by interval/sqrt(count+1).
                (old.wrapping_add(delta), true)
            } else {
                (old, false)
            }
        });

        // Count increment is committed when stage 7 marked in-episode; on
        // hardware this is stage 5 of the next pass reading a metadata
        // bridge. We commit it here between passes (not a register access
        // within the pass).
        if pst_mark && was_marking {
            self.bump_count();
        }

        above_ins || pst_mark
    }

    /// Commit the deferred count increment (the metadata bridge between
    /// consecutive passes; happens outside the single-access window).
    fn bump_count(&mut self) {
        self.rf.begin_pass();
        self.rf.access(self.marking_count, self.port, |old| {
            (old.saturating_add(1), ())
        });
    }

    /// The delta, in ticks, the sqrt MAT returns for `count`: the
    /// schedule push when the count advances to `count + 1`.
    pub fn sqrt_delta(&self, count: u32) -> u32 {
        let i = self
            .sqrt_lut
            .partition_point(|&(first, _)| first <= u64::from(count));
        self.sqrt_lut[i.saturating_sub(1)].1
    }
}

impl Aqm for TofinoEcnSharp {
    fn on_enqueue(&mut self, _now: SimTime, _q: &QueueState, _pkt: &PacketView) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(&mut self, now: SimTime, _q: &QueueState, pkt: &PacketView) -> DequeueVerdict {
        if self.on_dequeue_raw(now.as_nanos(), pkt.enqueued_at.as_nanos()) {
            mark_or_drop(pkt.ect)
        } else {
            DequeueVerdict::Pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_core::{EcnSharp, MarkReason};
    use ecnsharp_sim::{Duration, Rng};

    const TICK: u64 = 1024;

    fn cfg() -> EcnSharpConfig {
        // Tick-aligned variant of the paper testbed config so the
        // quantized pipeline and the exact reference agree bit-for-bit:
        // all values are multiples of 1024 ns.
        EcnSharpConfig::new(
            Duration::from_nanos(200 * TICK),
            Duration::from_nanos(85 * TICK),
            Duration::from_nanos(200 * TICK),
        )
    }

    fn pipeline() -> TofinoEcnSharp {
        TofinoEcnSharp::new(cfg(), 128, 5, WrapCmp::CorrectedLt)
    }

    #[test]
    fn thresholds_round_to_the_nearest_tick() {
        let p = TofinoEcnSharp::new(
            EcnSharpConfig::new(
                Duration::from_nanos(200 * TICK + 511),
                Duration::from_nanos(17 * TICK + 512),
                Duration::from_nanos(200 * TICK - 1),
            ),
            1,
            0,
            WrapCmp::CorrectedLt,
        );
        assert_eq!(
            (p.ins_target_ticks, p.pst_target_ticks, p.pst_interval_ticks),
            (200, 18, 200)
        );
    }

    #[test]
    fn instantaneous_marking() {
        let mut p = pipeline();
        // sojourn 300 ticks > ins_target 200: mark.
        assert!(p.on_dequeue_raw(1_000 * TICK, 700 * TICK));
        // sojourn 50 ticks < pst_target: nothing fires.
        assert!(!p.on_dequeue_raw(2_000 * TICK, 1_950 * TICK));
        // sojourn exactly ins_target, below-interval episode: no mark.
        assert!(!p.on_dequeue_raw(2_010 * TICK, 1_810 * TICK));
    }

    /// Run both implementations over the same trace; return their mark
    /// times (in ticks).
    fn mark_times(trace: &[(u64, u64)], // (now_ticks, sojourn_ticks)
    ) -> (Vec<u64>, Vec<u64>) {
        let mut hw = pipeline();
        let mut sw = EcnSharp::new(cfg());
        let mut hw_marks = Vec::new();
        let mut sw_marks = Vec::new();
        for &(now, sojourn) in trace {
            if hw.on_dequeue_raw(now * TICK, (now - sojourn) * TICK) {
                hw_marks.push(now);
            }
            if sw.decide(
                SimTime::from_nanos(now * TICK),
                Duration::from_nanos(sojourn * TICK),
            ) != MarkReason::None
            {
                sw_marks.push(now);
            }
        }
        (hw_marks, sw_marks)
    }

    #[test]
    fn persistent_marking_tracks_reference_trace() {
        // Sojourn fixed at 100 ticks (between pst and ins targets),
        // packets every 10 ticks. The pipeline quantizes the
        // interval/sqrt(count) schedule to 1024 ns ticks, so individual
        // mark instants may drift by a few ticks from the exact-nanosecond
        // reference; the *episode entry* must coincide exactly and the
        // overall marking intensity must match closely.
        let trace: Vec<(u64, u64)> = (0..2_000u64).map(|k| (1_000 + k * 10, 100)).collect();
        let (hw, sw) = mark_times(&trace);
        assert!(!sw.is_empty());
        assert_eq!(hw.first(), sw.first(), "episode entry must be tick-exact");
        let diff = (hw.len() as f64 - sw.len() as f64).abs() / sw.len() as f64;
        assert!(
            diff < 0.05,
            "mark counts diverged: hw {} sw {}",
            hw.len(),
            sw.len()
        );
        // Pairwise mark times stay within a small fraction of the base
        // interval.
        for (a, b) in hw.iter().zip(sw.iter()) {
            assert!(
                a.abs_diff(*b) <= 20,
                "mark schedule drifted: hw {a} vs sw {b}"
            );
        }
    }

    #[test]
    fn random_trace_closeness() {
        // Random tick-aligned sojourns: total marking decisions must agree
        // within a few percent (exact per-packet equality is impossible —
        // the schedule is tick-quantized) and instantaneous marks, which
        // are stateless, must agree exactly.
        let mut hw = pipeline();
        let mut sw = EcnSharp::new(cfg());
        let mut rng = Rng::seed_from_u64(99);
        let mut now = 10_000u64;
        let (mut hw_marks, mut sw_marks, mut ins_mismatch) = (0u64, 0u64, 0u64);
        for _ in 0..20_000u64 {
            now += rng.range_u64(1, 30);
            let sojourn = rng.range_u64(0, 400);
            let hw_mark = hw.on_dequeue_raw(now * TICK, (now - sojourn) * TICK);
            let sw_mark = sw.decide(
                SimTime::from_nanos(now * TICK),
                Duration::from_nanos(sojourn * TICK),
            ) != MarkReason::None;
            hw_marks += hw_mark as u64;
            sw_marks += sw_mark as u64;
            if sojourn > 200 && !hw_mark {
                ins_mismatch += 1;
            }
        }
        assert_eq!(ins_mismatch, 0, "instantaneous marks are stateless");
        let diff = (hw_marks as f64 - sw_marks as f64).abs() / sw_marks as f64;
        assert!(diff < 0.05, "hw {hw_marks} vs sw {sw_marks}");
    }

    #[test]
    fn sqrt_lut_matches_formula() {
        // sqrt_delta(old_count) is the schedule push applied when the
        // count advances to old_count + 1: interval / sqrt(old_count + 1),
        // rounded, at least one tick. Real episodes run past 1 024 marks
        // (the shadow differential in crates/experiments/tests saw 1 445 on
        // fig6's star), so every count up to where the push bottoms out
        // at 1 tick must be right.
        for interval in [1u64, 7, 195, 200] {
            let mut c = cfg();
            c.pst_interval = Duration::from_nanos(interval * TICK);
            let p = TofinoEcnSharp::new(c, 1, 0, WrapCmp::CorrectedLt);
            for old_count in 1..=(4 * interval * interval + 10) as u32 {
                let exact = interval as f64 / f64::from(old_count + 1).sqrt();
                let got = f64::from(p.sqrt_delta(old_count));
                assert!(
                    (got - exact.max(1.0)).abs() <= 0.5,
                    "interval {interval}, old_count {old_count}: {got} ticks for {exact:.3}"
                );
            }
        }
    }

    #[test]
    fn resource_report_comparable_to_paper() {
        let p = pipeline();
        let r = p.resources();
        // Paper: 7 MATs, 5×32-bit + 2×64-bit register arrays, ~37 KB for
        // 128 ports, 124-bit metadata. Ours: 6 arrays of 32-bit (we fold
        // their two 64-bit arrays into 32-bit tick registers), similar
        // metadata width.
        assert_eq!(r.match_action_tables, 7);
        assert_eq!(r.reg32_arrays, 6);
        assert!(r.register_bytes < 40_000, "{} bytes", r.register_bytes);
        assert!((100..160).contains(&r.metadata_bits));
    }

    #[test]
    fn ports_isolated() {
        let mut a = TofinoEcnSharp::new(cfg(), 128, 1, WrapCmp::CorrectedLt);
        // Drive port 1 into an episode...
        for k in 0..100u64 {
            a.on_dequeue_raw((1_000 + k * 10) * TICK, (900 + k * 10) * TICK);
        }
        // ...its own registers moved, other ports' slots untouched.
        assert!(a.rf.peek(a.marking_state, 1) == 1);
        assert_eq!(a.rf.peek(a.marking_state, 0), 0);
        assert_eq!(a.rf.peek(a.first_above, 7), 0);
    }

    #[test]
    fn aqm_trait_integration() {
        use ecnsharp_aqm::QueueState;
        use ecnsharp_sim::Rate;
        let mut p = pipeline();
        let q = QueueState {
            backlog_bytes: 100_000,
            backlog_pkts: 66,
            capacity_bytes: 1_000_000,
            drain_rate: Rate::from_gbps(10),
        };
        let pkt = PacketView {
            bytes: 1500,
            ect: true,
            enqueued_at: SimTime::from_nanos(0),
        };
        // sojourn enormous: instantaneous mark.
        let v = p.on_dequeue(SimTime::from_nanos(500 * TICK), &q, &pkt);
        assert_eq!(v, DequeueVerdict::Mark);
    }
}
