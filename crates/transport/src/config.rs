//! Transport configuration.

use ecnsharp_sim::{bytes, Duration};

/// Which congestion-control algorithm a sender runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// DCTCP (Alizadeh et al., SIGCOMM'10): window cut proportional to the
    /// EWMA fraction `alpha` of CE-marked bytes, `cwnd ← cwnd·(1 − α/2)`,
    /// at most once per window. `g` is the EWMA gain (paper: 1/16).
    Dctcp {
        /// EWMA gain for the marked-fraction estimate.
        g: f64,
    },
    /// Regular ECN-enabled TCP: halve the window on the first ECE of a
    /// window (λ = 1 in Eq. 1's terms).
    EcnTcp,
    /// Loss-only NewReno (ignores ECE) — the no-ECN control case.
    Reno,
}

impl CcKind {
    /// DCTCP with the paper's default gain.
    pub fn dctcp_default() -> Self {
        CcKind::Dctcp { g: 1.0 / 16.0 }
    }
}

/// Endpoint transport parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: u64,
    /// Initial congestion window, in segments.
    pub init_cwnd_segs: u64,
    /// Lower clamp on the retransmission timeout. Datacenter stacks run
    /// single-digit milliseconds (the paper notes one timeout costs >1 ms).
    pub min_rto: Duration,
    /// RTO before the first RTT sample.
    pub init_rto: Duration,
    /// Upper clamp on the (backed-off) RTO.
    pub max_rto: Duration,
    /// ACK every `delack_count` data segments (1 = per-packet ACKs).
    pub delack_count: u32,
    /// Flush a pending delayed ACK after this long.
    pub delack_timeout: Duration,
    /// Congestion control algorithm.
    pub cc: CcKind,
    /// Initial DCTCP `alpha` (the Linux implementation starts at 1 so the
    /// first marks bite hard).
    pub dctcp_init_alpha: f64,
    /// Upper bound on cwnd in bytes (receive-window stand-in).
    pub max_cwnd: u64,
    /// Give up after this many *consecutive* retransmission timeouts
    /// without forward progress: the flow aborts with a `Failed` outcome
    /// instead of backing off forever (a permanently dead path would
    /// otherwise hang the simulation). Any new ACK resets the streak.
    pub max_rto_retries: u32,
    /// Memory-budget ceiling on the receiver's out-of-order reassembly
    /// ranges (the transport state that grows without bound under
    /// pathological reordering/loss). `None` (the default) disarms the
    /// guard. Crossing the ceiling reports a typed breach through
    /// [`ecnsharp_net::Ctx::report_mem_breach`] — behaviour is otherwise
    /// unchanged, so an armed-but-untriggered budget stays byte-identical.
    pub ooo_budget: Option<u32>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: bytes::MSS,
            init_cwnd_segs: 3,
            min_rto: Duration::from_millis(5),
            init_rto: Duration::from_millis(10),
            max_rto: Duration::from_secs(1),
            delack_count: 1,
            delack_timeout: Duration::from_micros(500),
            cc: CcKind::dctcp_default(),
            dctcp_init_alpha: 1.0,
            max_cwnd: 10_000_000,
            max_rto_retries: 8,
            ooo_budget: None,
        }
    }
}

impl TcpConfig {
    /// The evaluation default: DCTCP at every endhost (paper §5.1).
    pub fn dctcp() -> Self {
        TcpConfig::default()
    }

    /// Regular ECN-TCP endhosts.
    pub fn ecn_tcp() -> Self {
        TcpConfig {
            cc: CcKind::EcnTcp,
            ..TcpConfig::default()
        }
    }

    /// Loss-only Reno endhosts.
    pub fn reno() -> Self {
        TcpConfig {
            cc: CcKind::Reno,
            ..TcpConfig::default()
        }
    }

    /// Initial congestion window in bytes.
    pub fn init_cwnd_bytes(&self) -> f64 {
        (self.init_cwnd_segs * self.mss) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = TcpConfig::dctcp();
        assert_eq!(c.mss, 1460);
        assert_eq!(c.max_rto_retries, 8);
        assert!(matches!(c.cc, CcKind::Dctcp { g } if (g - 0.0625).abs() < 1e-12));
        assert_eq!(c.delack_count, 1);
        // 3 * 1460 is exact in f64.
        #[allow(clippy::float_cmp)]
        {
            assert_eq!(c.init_cwnd_bytes(), 4380.0);
        }
    }

    #[test]
    fn variants() {
        assert_eq!(TcpConfig::ecn_tcp().cc, CcKind::EcnTcp);
        assert_eq!(TcpConfig::reno().cc, CcKind::Reno);
    }
}
