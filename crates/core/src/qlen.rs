//! Queue-length flavour of ECN♯.
//!
//! §3.2: "By nature, ECN♯ works with both queue length and sojourn time as
//! congestion signals." This variant drives the same Algorithm-1 state
//! machine with the instantaneous queue *occupancy* (bytes) compared against
//! byte thresholds derived via Equation 1, marking at **enqueue** like
//! DCTCP-RED. It exists to demonstrate signal-agnosticism and as an ablation
//! in the benches; the paper's deployed variant is the sojourn one
//! ([`crate::EcnSharp`]).

use crate::config::EcnSharpConfig;
use ecnsharp_aqm::{
    admit_mark_or_drop, params, Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState,
};
use ecnsharp_sim::{Rate, SimTime};

/// ECN♯ driven by queue length instead of sojourn time.
#[derive(Debug, Clone)]
pub struct EcnSharpQlen {
    /// Instantaneous marking threshold in bytes (Eq. 1).
    ins_target_bytes: u64,
    /// Persistent-queue byte target.
    pst_target_bytes: u64,
    /// Observation window / marking spacing (time, as in Algorithm 1).
    pst_interval: ecnsharp_sim::Duration,
    marking_state: bool,
    marking_count: u64,
    marking_next: SimTime,
    first_above_time: Option<SimTime>,
}

impl EcnSharpQlen {
    /// Build from a sojourn-time config and the port drain rate, converting
    /// the time targets into byte thresholds (`K = T × C`).
    pub fn from_config(cfg: EcnSharpConfig, drain_rate: Rate) -> Self {
        EcnSharpQlen {
            ins_target_bytes: params::sojourn_to_queue(cfg.ins_target, drain_rate),
            pst_target_bytes: params::sojourn_to_queue(cfg.pst_target, drain_rate),
            pst_interval: cfg.pst_interval,
            marking_state: false,
            marking_count: 0,
            marking_next: SimTime::ZERO,
            first_above_time: None,
        }
    }

    /// Build from explicit byte thresholds.
    pub fn with_thresholds(
        ins_target_bytes: u64,
        pst_target_bytes: u64,
        pst_interval: ecnsharp_sim::Duration,
    ) -> Self {
        assert!(!pst_interval.is_zero(), "pst_interval must be positive");
        assert!(pst_target_bytes <= ins_target_bytes);
        EcnSharpQlen {
            ins_target_bytes,
            pst_target_bytes,
            pst_interval,
            marking_state: false,
            marking_count: 0,
            marking_next: SimTime::ZERO,
            first_above_time: None,
        }
    }

    /// The instantaneous byte threshold.
    pub fn ins_target_bytes(&self) -> u64 {
        self.ins_target_bytes
    }

    /// The persistent byte target.
    pub fn pst_target_bytes(&self) -> u64 {
        self.pst_target_bytes
    }

    fn is_persistent(&mut self, now: SimTime, backlog: u64) -> bool {
        if backlog < self.pst_target_bytes {
            self.first_above_time = None;
            return false;
        }
        match self.first_above_time {
            None => {
                self.first_above_time = Some(now);
                false
            }
            Some(fat) => now > fat + self.pst_interval,
        }
    }

    fn should_persistent_mark(&mut self, now: SimTime, backlog: u64) -> bool {
        let detected = self.is_persistent(now, backlog);
        if self.marking_state {
            if !detected {
                self.marking_state = false;
                false
            } else if now > self.marking_next {
                self.marking_count += 1;
                self.marking_next += self
                    .pst_interval
                    .div_f64((self.marking_count as f64).sqrt());
                true
            } else {
                false
            }
        } else if detected {
            self.marking_state = true;
            self.marking_count = 1;
            self.marking_next = now + self.pst_interval;
            true
        } else {
            false
        }
    }
}

impl Aqm for EcnSharpQlen {
    fn on_enqueue(&mut self, now: SimTime, q: &QueueState, pkt: &PacketView) -> EnqueueVerdict {
        let backlog = q.backlog_bytes + pkt.bytes;
        let ins = backlog > self.ins_target_bytes;
        let pst = self.should_persistent_mark(now, backlog);
        if ins || pst {
            admit_mark_or_drop(pkt.ect)
        } else {
            EnqueueVerdict::Admit
        }
    }

    fn on_dequeue(&mut self, _now: SimTime, _q: &QueueState, _pkt: &PacketView) -> DequeueVerdict {
        DequeueVerdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_sim::{Duration, Rate};

    fn qs(backlog: u64) -> QueueState {
        QueueState {
            backlog_bytes: backlog,
            backlog_pkts: backlog / 1500,
            capacity_bytes: 2_000_000,
            drain_rate: Rate::from_gbps(10),
        }
    }

    fn pv() -> PacketView {
        PacketView {
            bytes: 1500,
            ect: true,
            enqueued_at: SimTime::ZERO,
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn mk() -> EcnSharpQlen {
        // ins 250 KB, pst 106.25 KB, interval 200 us at 10 Gbps — derived
        // from the paper testbed config.
        EcnSharpQlen::from_config(crate::EcnSharpConfig::paper_testbed(), Rate::from_gbps(10))
    }

    #[test]
    fn thresholds_follow_eq1() {
        let m = mk();
        assert_eq!(m.ins_target_bytes(), 250_000);
        assert_eq!(m.pst_target_bytes(), 106_250);
    }

    #[test]
    fn instantaneous_mark_above_ins_bytes() {
        let mut m = mk();
        assert_eq!(m.on_enqueue(t(0), &qs(0), &pv()), EnqueueVerdict::Admit);
        assert_eq!(
            m.on_enqueue(t(1), &qs(300_000), &pv()),
            EnqueueVerdict::AdmitMark
        );
    }

    #[test]
    fn persistent_mark_after_interval_of_standing_queue() {
        let mut m = mk();
        // 150 KB standing queue: above pst (106 KB) but below ins (250 KB).
        assert_eq!(
            m.on_enqueue(t(0), &qs(150_000), &pv()),
            EnqueueVerdict::Admit
        );
        assert_eq!(
            m.on_enqueue(t(100), &qs(150_000), &pv()),
            EnqueueVerdict::Admit
        );
        assert_eq!(
            m.on_enqueue(t(200), &qs(150_000), &pv()),
            EnqueueVerdict::Admit
        );
        assert_eq!(
            m.on_enqueue(t(201), &qs(150_000), &pv()),
            EnqueueVerdict::AdmitMark,
            "persistent mark after a full interval"
        );
    }

    #[test]
    fn drained_queue_resets() {
        let mut m = mk();
        m.on_enqueue(t(0), &qs(150_000), &pv());
        m.on_enqueue(t(201), &qs(150_000), &pv()); // marks, enters state
        assert_eq!(m.on_enqueue(t(250), &qs(0), &pv()), EnqueueVerdict::Admit);
        // Needs a fresh interval again.
        assert_eq!(
            m.on_enqueue(t(260), &qs(150_000), &pv()),
            EnqueueVerdict::Admit
        );
        assert_eq!(
            m.on_enqueue(t(460), &qs(150_000), &pv()),
            EnqueueVerdict::Admit
        );
        assert_eq!(
            m.on_enqueue(t(461), &qs(150_000), &pv()),
            EnqueueVerdict::AdmitMark
        );
    }

    #[test]
    fn explicit_thresholds_constructor() {
        let m = EcnSharpQlen::with_thresholds(100_000, 50_000, Duration::from_micros(100));
        assert_eq!(m.ins_target_bytes(), 100_000);
        assert_eq!(m.pst_target_bytes(), 50_000);
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_rejected() {
        let _ = EcnSharpQlen::with_thresholds(10, 20, Duration::from_micros(100));
    }
}
