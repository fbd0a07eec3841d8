//! RTT estimation and retransmission-timeout computation (RFC 6298, with a
//! datacenter-scale minimum RTO).

use ecnsharp_sim::Duration;

/// Lower clamp on the retransmission timeout. Datacenter stacks run
/// single-digit milliseconds (the paper notes one timeout costs >1 ms).
pub const RTO_MIN: Duration = Duration::from_millis(5);
/// RTO before the first RTT sample.
pub const RTO_INIT: Duration = Duration::from_millis(10);
/// Upper clamp on the RTO, the backed-off one included (RFC 6298 §5.5).
pub const RTO_MAX: Duration = Duration::from_secs(1);

/// Jacobson/Karels smoothed RTT estimator.
#[derive(Debug, Clone, Default)]
pub struct RttEstimator {
    srtt: Option<f64>,
    rttvar: f64,
}

impl RttEstimator {
    /// Create with no sample yet: [`RttEstimator::rto`] is [`RTO_INIT`].
    pub fn new() -> Self {
        RttEstimator::default()
    }

    /// Feed one RTT sample.
    pub fn sample(&mut self, rtt: Duration) {
        let r = rtt.as_secs_f64();
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                // RFC 6298: alpha = 1/8, beta = 1/4.
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
    }

    /// Current smoothed RTT, if any sample has been seen.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt.map(Duration::from_secs_f64)
    }

    /// Retransmission timeout: `srtt + 4·rttvar`, clamped to
    /// `[RTO_MIN, RTO_MAX]`; [`RTO_INIT`] before any sample.
    pub fn rto(&self) -> Duration {
        match self.srtt {
            None => RTO_INIT,
            Some(srtt) => {
                let raw = Duration::from_secs_f64(srtt + 4.0 * self.rttvar);
                raw.max(RTO_MIN).min(RTO_MAX)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_used_before_samples() {
        let e = RttEstimator::new();
        assert_eq!(e.rto(), RTO_INIT);
        assert!(e.srtt().is_none());
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new();
        e.sample(Duration::from_micros(100));
        assert_eq!(e.srtt().unwrap(), Duration::from_micros(100));
        // rto = srtt + 4*rttvar = 100 + 200 = 300 us, clamped up to 5 ms.
        assert_eq!(e.rto(), RTO_MIN);
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.sample(Duration::from_micros(200));
        }
        let srtt = e.srtt().unwrap().as_micros_f64();
        assert!((srtt - 200.0).abs() < 1.0, "{srtt}");
    }

    #[test]
    fn rto_clamped_to_max() {
        let mut e = RttEstimator::new();
        e.sample(Duration::from_millis(500));
        // 500 ms + 4 · 250 ms = 1.5 s, clamped down.
        assert_eq!(e.rto(), RTO_MAX);
    }

    #[test]
    fn variance_raises_rto() {
        let mut e = RttEstimator::new();
        for i in 0..50 {
            e.sample(Duration::from_millis(if i % 2 == 0 { 1 } else { 9 }));
        }
        // The mean RTT and the floor are both 5 ms; heavy oscillation must
        // lift the RTO well above them.
        assert!(e.rto() > Duration::from_millis(10), "{:?}", e.rto());
    }
}
