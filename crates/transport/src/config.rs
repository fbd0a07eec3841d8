//! Transport configuration: DCTCP at every endhost (paper §5.1). What no
//! caller varies is a constant; [`TcpConfig`] holds the three settings
//! that callers do set.

use ecnsharp_sim::{bytes, Duration};

/// Maximum segment size (payload bytes per packet).
pub const MSS: u64 = bytes::MSS;
/// Initial congestion window, in segments.
pub const INIT_CWND_SEGS: u64 = 3;
/// Upper bound on cwnd in bytes (receive-window stand-in).
pub const MAX_CWND: u64 = 10_000_000;
/// DCTCP's EWMA gain for the marked-fraction estimate (paper: 1/16).
pub const DCTCP_G: f64 = 1.0 / 16.0;
/// Initial DCTCP `alpha` (the Linux implementation starts at 1 so the
/// first marks bite hard).
pub const DCTCP_INIT_ALPHA: f64 = 1.0;
/// Flush a pending delayed ACK after this long.
pub const DELACK_TIMEOUT: Duration = Duration::from_micros(500);

/// Endpoint transport parameters.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// ACK every `delack_count` data segments (1 = per-packet ACKs).
    pub delack_count: u32,
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

impl TcpConfig {
    /// The evaluation default: DCTCP at every endhost (paper §5.1).
    pub fn dctcp() -> Self {
        TcpConfig {
            delack_count: 1,
            max_rto_retries: 8,
            ooo_budget: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = TcpConfig::dctcp();
        assert_eq!(MSS, 1460);
        assert_eq!(INIT_CWND_SEGS * MSS, 4380);
        assert!((DCTCP_G - 0.0625).abs() < 1e-12);
        assert_eq!(c.max_rto_retries, 8);
        assert_eq!(c.delack_count, 1);
        assert_eq!(c.ooo_budget, None);
    }
}
