//! Link rates and byte quantities.
//!
//! [`Rate`] is stored in bits per second. The conversion everybody needs in a
//! packet simulator — "how long does it take to serialize N bytes at this
//! rate" — is [`Rate::tx_time`], computed in integer nanoseconds with
//! rounding so that repeated transmissions don't accumulate float drift.

use crate::time::Duration;
use core::fmt;

/// A transmission rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate(u64);

impl Rate {
    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` bytes at this rate, rounded to the nearest
    /// nanosecond.
    ///
    /// Uses 128-bit intermediate math: `bytes * 8e9` overflows u64 for
    /// multi-gigabyte transfers.
    #[inline]
    pub fn tx_time(self, bytes: u64) -> Duration {
        debug_assert!(self.0 > 0, "zero rate");
        let num = (bytes as u128) * 8 * 1_000_000_000;
        let den = self.0 as u128;
        Duration::from_nanos(((num + den / 2) / den) as u64)
    }

    /// Bytes fully serializable within `d` at this rate (floor).
    #[inline]
    pub fn bytes_in(self, d: Duration) -> u64 {
        let bits = (self.0 as u128) * (d.as_nanos() as u128) / 1_000_000_000;
        (bits / 8) as u64
    }

    /// The classic bandwidth-delay product `C × RTT` in bytes (Eq. 1's
    /// `C × RTT` factor).
    #[inline]
    pub fn bdp(self, rtt: Duration) -> u64 {
        self.bytes_in(rtt)
    }

    /// Scale the rate by a float factor (e.g. to express an offered load).
    #[inline]
    pub fn mul_f64(self, f: f64) -> Rate {
        debug_assert!(f >= 0.0);
        Rate((self.0 as f64 * f).round() as u64)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// Commonly used byte-size constants for readability at call sites.
pub mod bytes {
    /// One kilobyte (10^3 bytes, matching the paper's KB thresholds).
    pub const KB: u64 = 1_000;
    /// One megabyte.
    pub const MB: u64 = 1_000_000;
    /// Standard Ethernet MTU-sized IP packet.
    pub const MTU: u64 = 1_500;
    /// TCP maximum segment size under a 1500 B MTU (40 B IP+TCP headers).
    pub const MSS: u64 = 1_460;
    /// Per-frame wire overhead beyond the IP packet: Ethernet header (14) +
    /// FCS (4) + preamble/SFD (8) + inter-frame gap (12) + IP/TCP headers
    /// are accounted separately in the packet size.
    pub const ETH_OVERHEAD: u64 = 38;
    /// IP + TCP header bytes carried inside the MTU.
    pub const HDR: u64 = 40;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_10g_mtu() {
        // 1500 B at 10 Gbps = 1.2 us (the paper quotes ~1.2 us).
        let t = Rate::from_gbps(10).tx_time(1_500);
        assert_eq!(t, Duration::from_nanos(1_200));
    }

    #[test]
    fn tx_time_rounding() {
        // 1 byte at 3 bps = 8/3 s = 2.666..s, rounds to 2_666_666_667 ns.
        let t = Rate::from_bps(3).tx_time(1);
        assert_eq!(t.as_nanos(), 2_666_666_667);
    }

    #[test]
    fn tx_time_huge_transfer_no_overflow() {
        // 10 GB at 10 Gbps = 8 s; naive u64 math would overflow.
        let t = Rate::from_gbps(10).tx_time(10_000_000_000);
        assert_eq!(t, Duration::from_secs(8));
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let r = Rate::from_gbps(10);
        let d = r.tx_time(123_456);
        let b = r.bytes_in(d);
        assert!((b as i64 - 123_456i64).abs() <= 1, "{b}");
    }

    #[test]
    fn bdp_matches_eq1() {
        // C = 10 Gbps, RTT = 200 us -> C*RTT = 250 KB (the paper's RED-Tail
        // threshold for the 90th-percentile RTT scenario).
        let k = Rate::from_gbps(10).bdp(Duration::from_micros(200));
        assert_eq!(k, 250_000);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Rate::from_gbps(10)), "10.00Gbps");
        assert_eq!(format!("{}", Rate::from_mbps(100)), "100.00Mbps");
    }

    #[test]
    fn load_scaling() {
        assert_eq!(Rate::from_gbps(10).mul_f64(0.5), Rate::from_gbps(5));
    }
}
