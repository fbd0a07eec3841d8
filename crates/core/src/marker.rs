//! The ECN♯ marking algorithm (paper §3.2, Algorithm 1), sojourn-time
//! flavour — the variant the paper implements on Tofino and in ns-3.
//!
//! A dequeued packet is CE-marked when **either**
//!
//! 1. its sojourn time exceeds `ins_target` (instantaneous marking — burst
//!    tolerance and high throughput, inherited from current practice), or
//! 2. the persistent-congestion state machine
//!    ([`EcnSharp::should_persistent_mark`]) decides to mark — conservative
//!    marking that drains standing queues built by small-RTT flows without
//!    hurting throughput.
//!
//! Both conditions are evaluated for every packet: the persistent-state
//! machine must observe every dequeue to track `first_above_time`
//! correctly, even when the instantaneous check already marked the packet.

use crate::config::EcnSharpConfig;
use ecnsharp_aqm::{
    mark_or_drop, Aqm, DequeueVerdict, EnqueueVerdict, EpisodeTransition, PacketView, QueueState,
};
use ecnsharp_sim::{Duration, SimTime};

/// Why a packet was marked (exposed for the microscopic analyses of §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkReason {
    /// Not marked.
    None,
    /// Sojourn time above `ins_target`.
    Instantaneous,
    /// Persistent-queue conservative marking.
    Persistent,
    /// Both conditions fired on the same packet.
    Both,
}

/// Counters describing what the marker has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarkStats {
    /// Packets examined at dequeue.
    pub packets: u64,
    /// Marks caused by the instantaneous condition (alone or jointly).
    pub ins_marks: u64,
    /// Marks caused by the persistent condition (alone or jointly).
    pub pst_marks: u64,
    /// Persistent-congestion episodes entered.
    pub episodes: u64,
}

/// The ECN♯ AQM (sojourn-time signals).
#[derive(Debug, Clone)]
pub struct EcnSharp {
    cfg: EcnSharpConfig,
    // ── Algorithm 1 state (Table 2) ────────────────────────────────────
    /// `marking_state`: are we inside a conservative-marking episode?
    marking_state: bool,
    /// `marking_count`: marks issued in the current episode.
    marking_count: u64,
    /// `marking_next`: the next scheduled conservative mark.
    marking_next: SimTime,
    /// `first_above_time`: when the sojourn time first exceeded
    /// `pst_target` (None encodes the algorithm's `0`).
    first_above_time: Option<SimTime>,
    stats: MarkStats,
    /// Latest episode entry/exit, until the port layer collects it via
    /// [`Aqm::take_episode_transition`]. Entry and exit can never occur on
    /// the same packet, so one slot is enough.
    pending_transition: Option<EpisodeTransition>,
}

impl EcnSharp {
    /// Create from a configuration.
    pub fn new(cfg: EcnSharpConfig) -> Self {
        EcnSharp {
            cfg,
            marking_state: false,
            marking_count: 0,
            marking_next: SimTime::ZERO,
            first_above_time: None,
            stats: MarkStats::default(),
            pending_transition: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> EcnSharpConfig {
        self.cfg
    }

    /// Marking statistics so far.
    pub fn stats(&self) -> MarkStats {
        self.stats
    }

    /// Whether the conservative-marking episode is active (`marking_state`).
    pub fn in_marking_state(&self) -> bool {
        self.marking_state
    }

    /// Algorithm 1, `IsPersistentQueueBuildups`: has the sojourn time stayed
    /// at or above `pst_target` for a full `pst_interval`?
    fn is_persistent_queue_buildup(&mut self, now: SimTime, sojourn: Duration) -> bool {
        if sojourn < self.cfg.pst_target {
            // Queue expired: forget the episode start.
            self.first_above_time = None;
            return false;
        }
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now);
                false
            }
            Some(fat) => now > fat + self.cfg.pst_interval,
        }
    }

    /// Algorithm 1, `ShouldPersistentMark`: run the conservative-marking
    /// state machine for one dequeued packet and return its decision.
    pub fn should_persistent_mark(&mut self, now: SimTime, sojourn: Duration) -> bool {
        let detected = self.is_persistent_queue_buildup(now, sojourn);
        let mark = if self.marking_state {
            if !detected {
                self.marking_state = false;
                self.pending_transition = Some(EpisodeTransition {
                    entered: false,
                    at: now,
                    marks: self.marking_count,
                });
                false
            } else if now > self.marking_next {
                // One more conservative mark; shrink the spacing so marking
                // intensifies while the queue refuses to drain.
                self.marking_count += 1;
                self.marking_next += self
                    .cfg
                    .pst_interval
                    .div_f64((self.marking_count as f64).sqrt());
                true
            } else {
                false
            }
        } else if detected {
            self.marking_state = true;
            self.marking_count = 1;
            self.marking_next = now + self.cfg.pst_interval;
            self.stats.episodes += 1;
            self.pending_transition = Some(EpisodeTransition {
                entered: true,
                at: now,
                marks: 1,
            });
            true
        } else {
            false
        };
        self.check_state_legality(now, mark);
        mark
    }

    /// Algorithm 1 state legality, verified after every transition (debug
    /// builds and `strict-invariants`; free otherwise).
    fn check_state_legality(&self, now: SimTime, mark: bool) {
        ecnsharp_sim::invariant!(
            !self.marking_state || self.marking_count >= 1,
            "in marking_state with marking_count == 0"
        );
        ecnsharp_sim::invariant!(
            !self.marking_state || self.first_above_time.is_some(),
            "in marking_state without a first_above_time"
        );
        ecnsharp_sim::invariant!(
            !mark || self.marking_state,
            "issued a conservative mark outside a marking episode"
        );
        if let Some(fat) = self.first_above_time {
            ecnsharp_sim::invariant!(
                fat <= now,
                "first_above_time {fat} is in the future (now {now})"
            );
        }
        if self.marking_state {
            ecnsharp_sim::invariant!(
                self.marking_next > SimTime::ZERO,
                "marking episode active but marking_next never scheduled"
            );
        }
    }

    /// Full per-packet decision: instantaneous OR persistent.
    pub fn decide(&mut self, now: SimTime, sojourn: Duration) -> MarkReason {
        self.stats.packets += 1;
        let ins = sojourn > self.cfg.ins_target;
        let pst = self.should_persistent_mark(now, sojourn);
        if ins {
            self.stats.ins_marks += 1;
        }
        if pst {
            self.stats.pst_marks += 1;
        }
        match (ins, pst) {
            (false, false) => MarkReason::None,
            (true, false) => MarkReason::Instantaneous,
            (false, true) => MarkReason::Persistent,
            (true, true) => MarkReason::Both,
        }
    }
}

impl Aqm for EcnSharp {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_enqueue(&mut self, _now: SimTime, _q: &QueueState, _pkt: &PacketView) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(&mut self, now: SimTime, _q: &QueueState, pkt: &PacketView) -> DequeueVerdict {
        match self.decide(now, pkt.sojourn(now)) {
            MarkReason::None => DequeueVerdict::Pass,
            _ => mark_or_drop(pkt.ect),
        }
    }

    fn take_episode_transition(&mut self) -> Option<EpisodeTransition> {
        self.pending_transition.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn marker() -> EcnSharp {
        EcnSharp::new(EcnSharpConfig::paper_testbed()) // ins 200, pst 85, int 200 (us)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }
    fn d(us: u64) -> Duration {
        Duration::from_micros(us)
    }

    #[test]
    fn instantaneous_marking_above_ins_target() {
        let mut m = marker();
        assert_eq!(m.decide(t(0), d(201)), MarkReason::Instantaneous);
        assert_eq!(
            m.decide(t(1), d(200)),
            MarkReason::None,
            "not strictly above"
        );
    }

    #[test]
    fn no_persistent_mark_below_pst_target() {
        let mut m = marker();
        for i in 0..10_000 {
            assert!(!m.should_persistent_mark(t(i), d(84)));
        }
        assert_eq!(m.stats().episodes, 0);
    }

    #[test]
    fn persistent_detection_needs_full_interval() {
        let mut m = marker();
        // sojourn 100 (>= pst_target 85, < ins 200) starting at t=0
        assert!(!m.should_persistent_mark(t(0), d(100))); // sets first_above_time
        assert!(!m.should_persistent_mark(t(100), d(100)));
        assert!(
            !m.should_persistent_mark(t(200), d(100)),
            "now == fat+interval is not >"
        );
        assert!(
            m.should_persistent_mark(t(201), d(100)),
            "first conservative mark"
        );
        assert!(m.in_marking_state());
    }

    #[test]
    fn first_mark_schedules_next_interval_away() {
        let mut m = marker();
        m.should_persistent_mark(t(0), d(100));
        assert!(m.should_persistent_mark(t(201), d(100)));
        // Next mark strictly after marking_next = 201 + 200 = 401.
        assert!(!m.should_persistent_mark(t(300), d(100)));
        assert!(!m.should_persistent_mark(t(401), d(100)));
        assert!(m.should_persistent_mark(t(402), d(100)));
    }

    #[test]
    fn marking_interval_shrinks_with_sqrt_count() {
        let mut m = marker();
        m.should_persistent_mark(t(0), d(100));
        let mut marks = vec![];
        for us in 1..3_000u64 {
            if m.should_persistent_mark(t(us), d(100)) {
                marks.push(us);
            }
        }
        assert!(marks.len() >= 4, "got {marks:?}");
        // Expected schedule: 201, then +200/sqrt(2) ≈ 342 (marking_next
        // 401+141=542? no: marking_next after first mark = 201+200 = 401;
        // second mark at 402 with count=2 bumps marking_next by
        // 200/sqrt(2)=141 → 542; third at 543 with count=3 bumps by
        // 200/sqrt(3)=115 → 657...). Gaps must be non-increasing.
        let gaps: Vec<u64> = marks.windows(2).map(|w| w[1] - w[0]).collect();
        for pair in gaps.windows(2) {
            // <= +1 tolerates microsecond rounding of the sqrt schedule.
            assert!(pair[1] <= pair[0] + 1, "gaps should shrink: {gaps:?}");
        }
    }

    #[test]
    fn queue_expiry_exits_marking_state() {
        let mut m = marker();
        m.should_persistent_mark(t(0), d(100));
        assert!(m.should_persistent_mark(t(201), d(100)));
        assert!(m.in_marking_state());
        // One packet below target ends the episode...
        assert!(!m.should_persistent_mark(t(250), d(10)));
        assert!(!m.in_marking_state());
        // ...and detection must again take a full interval.
        assert!(!m.should_persistent_mark(t(260), d(100)));
        assert!(!m.should_persistent_mark(t(460), d(100)));
        assert!(m.should_persistent_mark(t(461), d(100)));
    }

    #[test]
    fn decide_combines_reasons() {
        let mut m = marker();
        // Drive into marking state with sojourn above both thresholds.
        m.decide(t(0), d(300)); // Instantaneous (fat set)
        let r = m.decide(t(201), d(300));
        assert_eq!(r, MarkReason::Both);
        let s = m.stats();
        assert_eq!(s.ins_marks, 2);
        assert_eq!(s.pst_marks, 1);
        assert_eq!(s.episodes, 1);
        assert_eq!(s.packets, 2);
    }

    #[test]
    fn persistent_state_advances_even_when_ins_marks() {
        // Instantaneous marking must not blind the persistent detector.
        let mut m = marker();
        for us in (0..=400).step_by(50) {
            m.decide(t(us), d(500)); // all above ins_target
        }
        assert!(m.in_marking_state(), "episode must have been entered");
    }

    #[test]
    fn aqm_trait_marks_ect_and_drops_nonect() {
        use ecnsharp_aqm::{DequeueVerdict, QueueState};
        use ecnsharp_sim::Rate;
        let mut m = marker();
        let q = QueueState {
            backlog_bytes: 50_000,
            backlog_pkts: 33,
            capacity_bytes: 1_000_000,
            drain_rate: Rate::from_gbps(10),
        };
        let mk = |enq_us: u64, ect: bool| PacketView {
            bytes: 1500,
            ect,
            enqueued_at: t(enq_us),
        };
        // sojourn 300 us > ins_target
        assert_eq!(m.on_dequeue(t(300), &q, &mk(0, true)), DequeueVerdict::Mark);
        assert_eq!(
            m.on_dequeue(t(600), &q, &mk(300, false)),
            DequeueVerdict::Drop
        );
    }

    #[test]
    fn stats_start_zeroed() {
        let m = marker();
        assert_eq!(m.stats(), MarkStats::default());
    }

    /// The exact sqrt-shrink schedule across four consecutive marks, probed
    /// at 1 µs resolution. With `pst_interval` = 200 µs and `first_above_time`
    /// = 0: mark 1 fires at 201 (first t > fat + 200) and schedules
    /// marking_next = 401; mark 2 at 402 bumps by 200/√2 ≈ 141.42 µs
    /// (marking_next ≈ 542.42); mark 3 at 543 bumps by 200/√3 ≈ 115.47
    /// (≈ 657.89); mark 4 at 658.
    #[test]
    fn sqrt_shrink_schedule_exact_times() {
        let mut m = marker();
        m.should_persistent_mark(t(0), d(100)); // sets first_above_time = 0
        let mut marks = vec![];
        for us in 1..700u64 {
            if m.should_persistent_mark(t(us), d(100)) {
                marks.push(us);
            }
        }
        assert_eq!(marks, vec![201, 402, 543, 658]);
    }

    /// Exiting an episode resets `first_above_time`: re-entry needs another
    /// full `pst_interval` of high sojourn, and the episode counter reflects
    /// both episodes.
    #[test]
    fn episode_reentry_resets_first_above_time_and_counts() {
        let mut m = marker();
        m.should_persistent_mark(t(0), d(100));
        assert!(m.should_persistent_mark(t(201), d(100)));
        assert_eq!(m.stats().episodes, 1);
        // Sojourn collapse ends the episode and clears first_above_time.
        assert!(!m.should_persistent_mark(t(250), d(10)));
        assert!(!m.in_marking_state());
        // High again at t=300: detection restarts from scratch, so the
        // second episode's first mark cannot land before 300 + 200.
        assert!(!m.should_persistent_mark(t(300), d(100)));
        assert!(
            !m.should_persistent_mark(t(500), d(100)),
            "500 == fat+interval is not >"
        );
        assert!(m.should_persistent_mark(t(501), d(100)));
        assert_eq!(m.stats().episodes, 2);
        assert!(m.in_marking_state());
    }

    /// `MarkReason::Both` only when the two conditions fire on the *same*
    /// packet; adjacent packets where they fire separately report the
    /// individual reasons.
    #[test]
    fn both_path_requires_same_packet_coincidence() {
        let mut m = marker();
        // Persistent machinery sees high sojourn from t=0 but below
        // ins_target (200), so only Persistent can fire here.
        assert_eq!(m.decide(t(0), d(150)), MarkReason::None);
        assert_eq!(m.decide(t(201), d(150)), MarkReason::Persistent);
        // Instantaneous-only while the episode waits for marking_next (401).
        assert_eq!(m.decide(t(300), d(250)), MarkReason::Instantaneous);
        // At t=402 both fire together on one packet.
        assert_eq!(m.decide(t(402), d(250)), MarkReason::Both);
        let s = m.stats();
        assert_eq!((s.ins_marks, s.pst_marks, s.episodes), (2, 2, 1));
    }

    proptest! {
        /// Invariant: with sojourn permanently below pst_target (and
        /// ins_target), ECN# never marks anything.
        #[test]
        fn prop_never_marks_below_targets(
            times in proptest::collection::vec(0u64..1_000_000, 1..500),
        ) {
            let mut m = marker();
            let mut ts = times.clone();
            ts.sort_unstable();
            for us in ts {
                prop_assert_eq!(m.decide(t(us), d(84)), MarkReason::None);
            }
        }

        /// Invariant: marking_next is strictly increasing within an episode
        /// (conservative marks never bunch up).
        #[test]
        fn prop_marks_spaced_out(step in 1u64..50) {
            let mut m = marker();
            let mut last_mark: Option<u64> = None;
            let mut us = 0;
            for _ in 0..5_000 {
                us += step;
                if m.should_persistent_mark(t(us), d(100)) {
                    if let Some(prev) = last_mark {
                        // Marks must be separated by at least one step and
                        // the schedule is monotone.
                        prop_assert!(us > prev);
                    }
                    last_mark = Some(us);
                }
            }
            // With sojourn persistently above target, marking must happen.
            prop_assert!(last_mark.is_some());
        }

        /// Invariant: the detector requires a full pst_interval of
        /// continuously-high sojourn before the first mark of an episode.
        #[test]
        fn prop_first_mark_not_early(gap in 1u64..200) {
            let mut m = marker();
            let mut first_seen = None;
            let mut us = 0;
            for _ in 0..10_000 {
                if m.should_persistent_mark(t(us), d(100)) {
                    first_seen = Some(us);
                    break;
                }
                us += gap;
            }
            if let Some(first) = first_seen {
                // first_above_time was set at t=0; interval is 200 us.
                prop_assert!(first > 200, "marked at {first}us with gap {gap}");
            }
        }

        /// Determinism end-to-end: the same RNG seed drives the marker to
        /// bit-identical `MarkStats`, using the simulator's own seeded
        /// xoshiro RNG as the sojourn source (the workload shape the
        /// experiments actually produce).
        #[test]
        fn prop_same_seed_same_markstats(seed in 0u64..u64::MAX, n in 50usize..400) {
            let run = |seed: u64| {
                let mut rng = ecnsharp_sim::Rng::seed_from_u64(seed);
                let mut m = marker();
                let mut now = SimTime::ZERO;
                for _ in 0..n {
                    now += rng.exp_duration(Duration::from_micros(20));
                    let sojourn = rng.exp_duration(Duration::from_micros(120));
                    m.decide(now, sojourn);
                }
                m.stats()
            };
            prop_assert_eq!(run(seed), run(seed));
        }

        /// Determinism: identical inputs yield identical decision streams.
        #[test]
        fn prop_deterministic(
            sojourns in proptest::collection::vec(0u64..400, 1..300),
        ) {
            let run = |sjs: &[u64]| {
                let mut m = marker();
                sjs.iter()
                    .enumerate()
                    .map(|(i, &s)| m.decide(t(i as u64 * 10), d(s)))
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(&sojourns), run(&sojourns));
        }
    }

    #[test]
    fn episode_transitions_are_reported_once() {
        let mut m = marker();
        assert_eq!(m.take_episode_transition(), None);
        // Drive into an episode: sojourn persistently above pst_target.
        m.should_persistent_mark(t(0), d(100));
        let mut entered_at = None;
        for us in 1..1_000 {
            m.should_persistent_mark(t(us), d(100));
            if let Some(tr) = m.take_episode_transition() {
                assert!(tr.entered, "first transition must be an entry");
                assert_eq!(tr.marks, 1);
                entered_at = Some(tr.at);
                break;
            }
        }
        assert!(entered_at.is_some(), "episode never entered");
        assert_eq!(m.take_episode_transition(), None, "transition is one-shot");
        // Queue drains: next call exits the episode and reports its marks.
        m.should_persistent_mark(t(2_000), d(10));
        let tr = m.take_episode_transition().expect("exit transition");
        assert!(!tr.entered);
        assert!(tr.marks >= 1);
        assert_eq!(tr.at, t(2_000));
    }
}
