//! CoDel — "Controlling Queue Delay" (Nichols & Jacobson, ACM Queue 2012 /
//! RFC 8289) — operated in ECN-marking mode, as the paper deploys it on the
//! Tofino testbed (§5.1: "we implement CoDel on Barefoot Tofino to perform
//! ECN marking").
//!
//! CoDel tracks whether the packet sojourn time has remained above `target`
//! for a full `interval`; once it has, it enters the *dropping* (here:
//! marking) state and signals one packet per control-law interval
//! `interval / sqrt(count)`. CoDel reacts **only** to persistent congestion
//! — it has no instantaneous component — which is exactly why the paper
//! finds it fragile under incast bursts (§5.4): nothing tames the first
//! flight of a burst, so the buffer overflows and packets are lost.

use crate::{mark_or_drop, Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState};
use ecnsharp_sim::{Duration, SimTime};

/// CoDel AQM (marking or dropping mode).
#[derive(Debug, Clone)]
pub struct CoDel {
    target: Duration,
    interval: Duration,
    /// `true`: CE-mark ECT packets (the paper's Tofino deployment);
    /// `false`: drop on every control-law signal (classic CoDel and the
    /// ns-3 queue disc the paper's simulations use).
    ecn_mode: bool,
    /// When the sojourn time first went above `target` (None = not above).
    first_above_time: Option<SimTime>,
    /// Are we in the dropping/marking state?
    dropping: bool,
    /// Next time to signal while in the dropping state.
    drop_next: SimTime,
    /// Signals sent in the current dropping episode.
    count: u64,
    /// `count` when we left the dropping state (for the count-reuse rule).
    last_count: u64,
}

impl CoDel {
    /// Create with the given `target` sojourn time and control `interval`.
    /// The canonical Internet defaults are 5 ms / 100 ms; datacenter
    /// deployments scale both down (the paper uses 85 µs / 200 µs).
    pub fn new(target: Duration, interval: Duration) -> Self {
        assert!(!interval.is_zero(), "CoDel interval must be positive");
        CoDel {
            target,
            interval,
            ecn_mode: true,
            first_above_time: None,
            dropping: false,
            drop_next: SimTime::ZERO,
            count: 0,
            last_count: 0,
        }
    }

    /// Classic dropping CoDel (the ns-3 queue-disc behaviour the paper's
    /// simulations compare against): every control-law signal discards the
    /// packet instead of marking it.
    pub fn new_dropping(target: Duration, interval: Duration) -> Self {
        CoDel {
            ecn_mode: false,
            ..CoDel::new(target, interval)
        }
    }

    /// Whether this instance marks (true) or drops (false).
    pub fn is_ecn_mode(&self) -> bool {
        self.ecn_mode
    }

    /// The configured target.
    pub fn target(&self) -> Duration {
        self.target
    }

    /// The configured interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Whether the control law is currently in its marking state.
    pub fn in_dropping_state(&self) -> bool {
        self.dropping
    }

    /// The RFC 8289 `control_law`: time of the next signal.
    fn control_law(&self, t: SimTime) -> SimTime {
        t + self.interval.div_f64((self.count.max(1) as f64).sqrt())
    }

    /// Resolve a control-law signal per the configured mode.
    fn signal(&self, pkt: &PacketView) -> DequeueVerdict {
        if self.ecn_mode {
            mark_or_drop(pkt.ect)
        } else {
            DequeueVerdict::Drop
        }
    }

    /// Should the state machine consider signalling? Mirrors RFC 8289
    /// `dodeque`: track the first time sojourn went above target and report
    /// `true` once it has stayed there for one full interval.
    fn ok_to_signal(&mut self, now: SimTime, q: &QueueState, sojourn: Duration) -> bool {
        if sojourn < self.target || q.backlog_bytes <= q.drain_rate.bytes_in(self.target).min(1514)
        {
            // Below target (or queue nearly empty): forget the episode.
            self.first_above_time = None;
            return false;
        }
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now + self.interval);
                false
            }
            Some(fat) => now >= fat,
        }
    }
}

impl Aqm for CoDel {
    fn on_enqueue(&mut self, _now: SimTime, _q: &QueueState, _pkt: &PacketView) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(&mut self, now: SimTime, q: &QueueState, pkt: &PacketView) -> DequeueVerdict {
        let sojourn = pkt.sojourn(now);
        let ok = self.ok_to_signal(now, q, sojourn);

        if self.dropping {
            if !ok {
                self.dropping = false;
                self.last_count = self.count;
                return DequeueVerdict::Pass;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.drop_next = self.control_law(self.drop_next);
                return self.signal(pkt);
            }
            DequeueVerdict::Pass
        } else if ok {
            self.dropping = true;
            // Count reuse (RFC 8289 §5.4): if we re-enter soon after the
            // last episode, resume near the old signalling rate instead of
            // starting over.
            let recently = now.saturating_since(self.drop_next) < self.interval * 16;
            self.count = if recently && self.last_count > 2 {
                self.last_count - 2
            } else {
                1
            };
            self.drop_next = self.control_law(now);
            self.signal(pkt)
        } else {
            DequeueVerdict::Pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{pkt_nonect, q};
    use crate::PacketView;

    const TARGET_US: u64 = 85;
    const INTERVAL_US: u64 = 200;

    fn codel() -> CoDel {
        CoDel::new(
            Duration::from_micros(TARGET_US),
            Duration::from_micros(INTERVAL_US),
        )
    }

    /// A packet dequeued at `now_us` whose sojourn is `soj_us`.
    fn deq(c: &mut CoDel, now_us: u64, soj_us: u64, backlog: u64) -> DequeueVerdict {
        let p = PacketView {
            bytes: 1500,
            ect: true,
            enqueued_at: SimTime::from_micros(now_us - soj_us),
        };
        c.on_dequeue(SimTime::from_micros(now_us), &q(backlog), &p)
    }

    #[test]
    fn no_marks_below_target() {
        let mut c = codel();
        for t in (0..10_000).step_by(10) {
            assert_eq!(deq(&mut c, t + 50, 50, 100_000), DequeueVerdict::Pass);
        }
        assert!(!c.in_dropping_state());
    }

    #[test]
    fn first_mark_only_after_full_interval_above_target() {
        let mut c = codel();
        // sojourn 120 us > target from t=1000 us on
        assert_eq!(deq(&mut c, 1_000, 120, 100_000), DequeueVerdict::Pass);
        // Still within the interval: no mark.
        assert_eq!(deq(&mut c, 1_100, 120, 100_000), DequeueVerdict::Pass);
        assert_eq!(deq(&mut c, 1_199, 120, 100_000), DequeueVerdict::Pass);
        // One full interval elapsed: mark.
        assert_eq!(deq(&mut c, 1_200, 120, 100_000), DequeueVerdict::Mark);
        assert!(c.in_dropping_state());
    }

    #[test]
    fn dip_below_target_resets_episode() {
        let mut c = codel();
        assert_eq!(deq(&mut c, 1_000, 120, 100_000), DequeueVerdict::Pass);
        // Sojourn dips below target: episode forgotten.
        assert_eq!(deq(&mut c, 1_100, 10, 100_000), DequeueVerdict::Pass);
        // Above target again; clock restarts, so t=1300 (only 100us since
        // restart) must not mark.
        assert_eq!(deq(&mut c, 1_200, 120, 100_000), DequeueVerdict::Pass);
        assert_eq!(deq(&mut c, 1_300, 120, 100_000), DequeueVerdict::Pass);
        assert_eq!(deq(&mut c, 1_400, 120, 100_000), DequeueVerdict::Mark);
    }

    #[test]
    fn marking_rate_accelerates() {
        let mut c = codel();
        // Enter dropping state.
        deq(&mut c, 1_000, 120, 100_000);
        assert_eq!(deq(&mut c, 1_200, 120, 100_000), DequeueVerdict::Mark);
        // Sweep time forward with persistently high sojourn and record marks.
        let mut mark_times = vec![];
        for t in (1_201..4_000).step_by(2) {
            if deq(&mut c, t, 120, 100_000) == DequeueVerdict::Mark {
                mark_times.push(t);
            }
        }
        assert!(mark_times.len() >= 3, "marks: {mark_times:?}");
        // Inter-mark gaps shrink (interval / sqrt(count)).
        let gaps: Vec<i64> = mark_times
            .windows(2)
            .map(|w| (w[1] - w[0]) as i64)
            .collect();
        for pair in gaps.windows(2) {
            assert!(pair[1] <= pair[0] + 2, "gaps should shrink: {gaps:?}");
        }
    }

    #[test]
    fn leaves_dropping_state_when_queue_drains() {
        let mut c = codel();
        deq(&mut c, 1_000, 120, 100_000);
        assert_eq!(deq(&mut c, 1_200, 120, 100_000), DequeueVerdict::Mark);
        assert!(c.in_dropping_state());
        // Sojourn falls below target.
        assert_eq!(deq(&mut c, 1_300, 5, 100_000), DequeueVerdict::Pass);
        assert!(!c.in_dropping_state());
    }

    #[test]
    fn non_ect_packets_get_dropped() {
        let mut c = codel();
        deq(&mut c, 1_000, 120, 100_000);
        deq(&mut c, 1_150, 120, 100_000);
        let p = pkt_nonect(1_200 - 120);
        let v = c.on_dequeue(SimTime::from_micros(1_200), &q(100_000), &p);
        assert_eq!(v, DequeueVerdict::Drop);
    }

    #[test]
    fn tiny_backlog_suppresses_signalling() {
        // With less than one MTU queued, CoDel must stay quiet even if the
        // sojourn number looks large (RFC 8289's maxpacket clause).
        let mut c = codel();
        for t in (1_000..5_000).step_by(100) {
            assert_eq!(deq(&mut c, t, 500, 1_000), DequeueVerdict::Pass);
        }
    }

    #[test]
    fn count_reuse_on_quick_reentry() {
        let mut c = codel();
        // Build up an episode with several marks.
        deq(&mut c, 1_000, 120, 100_000);
        deq(&mut c, 1_200, 120, 100_000); // mark #1
        let mut marks = 1;
        let mut t = 1_201;
        while marks < 6 && t < 10_000 {
            if deq(&mut c, t, 120, 100_000) == DequeueVerdict::Mark {
                marks += 1;
            }
            t += 1;
        }
        assert_eq!(marks, 6);
        // Exit and quickly re-enter: first mark of the new episode should
        // come with count > 1 (faster follow-up marking).
        deq(&mut c, t, 5, 100_000); // exits dropping
        deq(&mut c, t + 10, 120, 100_000); // restarts above-target clock
        let v = deq(&mut c, t + 10 + INTERVAL_US, 120, 100_000);
        assert_eq!(v, DequeueVerdict::Mark);
        assert!(c.count > 1, "count reused, got {}", c.count);
    }

    #[test]
    fn dropping_mode_drops_ect_packets() {
        let mut c = CoDel::new_dropping(
            Duration::from_micros(TARGET_US),
            Duration::from_micros(INTERVAL_US),
        );
        assert!(!c.is_ecn_mode());
        deq(&mut c, 1_000, 120, 100_000);
        // ECT packet still gets dropped, not marked, in drop mode.
        assert_eq!(deq(&mut c, 1_200, 120, 100_000), DequeueVerdict::Drop);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = CoDel::new(Duration::from_micros(10), Duration::ZERO);
    }
}
