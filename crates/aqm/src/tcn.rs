//! TCN — "Enabling ECN over Generic Packet Scheduling" (Bai et al.,
//! CoNEXT 2016).
//!
//! TCN marks a packet at dequeue iff its *instantaneous sojourn time*
//! exceeds a single threshold (Eq. 2's `T = λ × RTT`). Using sojourn time
//! instead of queue length makes the scheme oblivious to how the scheduler
//! splits the port's capacity across queues. TCN is pure instantaneous
//! marking: under RTT variations it inherits the §2.3 dilemma — a
//! high-percentile threshold lets small-RTT flows build persistent queues,
//! which is precisely the gap ECN♯ closes.

use crate::{mark_or_drop, params, Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState};
use ecnsharp_sim::{Duration, SimTime};

/// Instantaneous sojourn-time threshold marking.
#[derive(Debug, Clone)]
pub struct Tcn {
    threshold: Duration,
}

impl Tcn {
    /// Create with an explicit sojourn-time threshold.
    pub fn new(threshold: Duration) -> Self {
        Tcn { threshold }
    }

    /// Derive the threshold from Equation 2 (`T = λ × RTT`).
    pub fn from_rtt(lambda: f64, rtt: Duration) -> Self {
        Tcn {
            threshold: params::sojourn_threshold(lambda, rtt),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }
}

impl Aqm for Tcn {
    fn on_enqueue(&mut self, _now: SimTime, _q: &QueueState, _pkt: &PacketView) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(&mut self, now: SimTime, _q: &QueueState, pkt: &PacketView) -> DequeueVerdict {
        if pkt.sojourn(now) > self.threshold {
            mark_or_drop(pkt.ect)
        } else {
            DequeueVerdict::Pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{pkt, pkt_nonect, q};

    #[test]
    fn marks_strictly_above_threshold() {
        let mut t = Tcn::new(Duration::from_micros(150));
        // Sojourn 150 us exactly: not above.
        assert_eq!(
            t.on_dequeue(SimTime::from_micros(150), &q(10_000), &pkt(0)),
            DequeueVerdict::Pass
        );
        // Sojourn 151 us: mark.
        assert_eq!(
            t.on_dequeue(SimTime::from_micros(151), &q(10_000), &pkt(0)),
            DequeueVerdict::Mark
        );
    }

    #[test]
    fn stateless_across_packets() {
        let mut t = Tcn::new(Duration::from_micros(100));
        for _ in 0..100 {
            assert_eq!(
                t.on_dequeue(SimTime::from_micros(500), &q(0), &pkt(0)),
                DequeueVerdict::Mark
            );
            assert_eq!(
                t.on_dequeue(SimTime::from_micros(500), &q(0), &pkt(450)),
                DequeueVerdict::Pass
            );
        }
    }

    #[test]
    fn non_ect_dropped() {
        let mut t = Tcn::new(Duration::from_micros(10));
        assert_eq!(
            t.on_dequeue(SimTime::from_micros(100), &q(0), &pkt_nonect(0)),
            DequeueVerdict::Drop
        );
    }

    #[test]
    fn from_rtt_uses_eq2() {
        let t = Tcn::from_rtt(1.0, Duration::from_micros(150));
        assert_eq!(t.threshold(), Duration::from_micros(150));
        let t = Tcn::from_rtt(0.17, Duration::from_micros(100));
        assert_eq!(t.threshold(), Duration::from_micros(17));
    }

    #[test]
    fn never_acts_on_enqueue() {
        let mut t = Tcn::new(Duration::ZERO);
        assert_eq!(
            t.on_enqueue(SimTime::from_micros(9), &q(1_000_000), &pkt(0)),
            EnqueueVerdict::Admit
        );
    }
}
