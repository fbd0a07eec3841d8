//! DCTCP-RED: the simplified RED from the DCTCP paper (Alizadeh et al.,
//! SIGCOMM'10), which the ECN♯ paper calls "current practice".
//!
//! A packet arriving at the queue is CE-marked iff the *instantaneous* queue
//! occupancy exceeds a single threshold `Kmin = Kmax = K`. No averaging, no
//! probability ramp — the cut-off behaviour is what gives DCTCP its burst
//! tolerance and 1-RTT reaction time.
//!
//! The threshold is configured from Equation 1 (`K = λ·C·RTT`). With the
//! 90th-percentile RTT this is **DCTCP-RED-Tail**; with the average RTT,
//! **DCTCP-RED-AVG** (paper §5.1). Construction helpers for both are
//! provided.

use crate::{
    admit_mark_or_drop, params, Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState,
};
use ecnsharp_sim::{Duration, Rate, SimTime};

/// Instantaneous single-threshold ECN marking on queue length.
#[derive(Debug, Clone)]
pub struct DctcpRed {
    /// Marking threshold `K` in bytes.
    k_bytes: u64,
}

impl DctcpRed {
    /// Create with an explicit threshold in bytes.
    pub fn with_threshold(k_bytes: u64) -> Self {
        DctcpRed { k_bytes }
    }

    /// "Current practice": derive `K` from a high-percentile RTT (Eq. 1).
    pub fn tail(lambda: f64, capacity: Rate, rtt_high_pct: Duration) -> Self {
        DctcpRed {
            k_bytes: params::queue_threshold(lambda, capacity, rtt_high_pct),
        }
    }

    /// The low-threshold alternative: derive `K` from the average RTT.
    pub fn avg(lambda: f64, capacity: Rate, rtt_avg: Duration) -> Self {
        DctcpRed {
            k_bytes: params::queue_threshold(lambda, capacity, rtt_avg),
        }
    }

    /// The configured threshold in bytes.
    pub fn threshold(&self) -> u64 {
        self.k_bytes
    }
}

impl Aqm for DctcpRed {
    fn on_enqueue(&mut self, _now: SimTime, q: &QueueState, pkt: &PacketView) -> EnqueueVerdict {
        // Instantaneous occupancy check: queue length *including* the
        // arriving packet, matching the ns-3/DCTCP convention where the
        // packet that pushes the queue past K is the first one marked.
        if q.backlog_bytes + pkt.bytes > self.k_bytes {
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
    use crate::testutil::{pkt, pkt_nonect, q};

    #[test]
    fn marks_above_threshold_only() {
        let mut red = DctcpRed::with_threshold(100_000);
        let now = SimTime::from_micros(1);
        assert_eq!(red.on_enqueue(now, &q(0), &pkt(0)), EnqueueVerdict::Admit);
        assert_eq!(
            red.on_enqueue(now, &q(98_500), &pkt(0)),
            EnqueueVerdict::Admit,
            "exactly at K is not above"
        );
        assert_eq!(
            red.on_enqueue(now, &q(98_501), &pkt(0)),
            EnqueueVerdict::AdmitMark
        );
        assert_eq!(
            red.on_enqueue(now, &q(500_000), &pkt(0)),
            EnqueueVerdict::AdmitMark
        );
    }

    #[test]
    fn non_ect_dropped_instead_of_marked() {
        let mut red = DctcpRed::with_threshold(10_000);
        assert_eq!(
            red.on_enqueue(SimTime::ZERO, &q(50_000), &pkt_nonect(0)),
            EnqueueVerdict::Drop
        );
    }

    #[test]
    fn dequeue_never_acts() {
        let mut red = DctcpRed::with_threshold(0);
        assert_eq!(
            red.on_dequeue(SimTime::from_millis(1), &q(1_000_000), &pkt(0)),
            DequeueVerdict::Pass
        );
    }

    #[test]
    fn tail_and_avg_constructors() {
        let c = Rate::from_gbps(10);
        let tail = DctcpRed::tail(1.0, c, Duration::from_micros(200));
        assert_eq!(tail.threshold(), 250_000);
        let avg = DctcpRed::avg(1.0, c, Duration::from_micros(100));
        assert_eq!(avg.threshold(), 125_000);
        assert!(avg.threshold() < tail.threshold());
    }

    #[test]
    fn marking_is_stateless() {
        // Same inputs, same verdict, regardless of history.
        let mut red = DctcpRed::with_threshold(50_000);
        let v1 = red.on_enqueue(SimTime::ZERO, &q(60_000), &pkt(0));
        for _ in 0..10 {
            red.on_enqueue(SimTime::ZERO, &q(0), &pkt(0));
        }
        let v2 = red.on_enqueue(SimTime::ZERO, &q(60_000), &pkt(0));
        assert_eq!(v1, v2);
    }
}
