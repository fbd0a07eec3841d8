//! The two production workloads of the evaluation (paper Fig. 5):
//!
//! - **web search** — the flow-size distribution measured in the DCTCP
//!   paper's production cluster (Alizadeh et al., SIGCOMM'10);
//! - **data mining** — the VL2 paper's cluster (Greenberg et al.,
//!   SIGCOMM'09).
//!
//! Point sets are the ones shipped with the authors' HKUST-SING
//! TrafficGenerator (the tool the paper's testbed uses). Both are heavy
//! tailed: most flows are small, most *bytes* live in a few large flows.

use crate::cdf::PiecewiseCdf;

/// Web-search workload (DCTCP paper). Mean ≈ 1.6 MB.
pub fn web_search() -> PiecewiseCdf {
    PiecewiseCdf::new(&[
        (1.0, 0.0),
        (10_000.0, 0.15),
        (20_000.0, 0.20),
        (30_000.0, 0.30),
        (50_000.0, 0.40),
        (80_000.0, 0.53),
        (200_000.0, 0.60),
        (1_000_000.0, 0.70),
        (2_000_000.0, 0.80),
        (5_000_000.0, 0.90),
        (10_000_000.0, 0.97),
        (30_000_000.0, 1.0),
    ])
}

/// Data-mining workload (VL2 paper). Mean ≈ 7.4 MB, even heavier tail.
pub fn data_mining() -> PiecewiseCdf {
    PiecewiseCdf::new(&[
        (100.0, 0.0),
        (180.0, 0.10),
        (250.0, 0.20),
        (560.0, 0.30),
        (900.0, 0.40),
        (1_100.0, 0.50),
        (1_870.0, 0.60),
        (3_160.0, 0.70),
        (10_000.0, 0.80),
        (400_000.0, 0.90),
        (3_160_000.0, 0.95),
        (100_000_000.0, 0.98),
        (1_000_000_000.0, 1.0),
    ])
}

/// The paper's short-flow FCT bucket: `(0, 100 KB]`.
pub const SHORT_FLOW_MAX: u64 = 100_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_search_stats() {
        let c = web_search();
        let mean = c.mean();
        assert!(
            (1_400_000.0..1_800_000.0).contains(&mean),
            "web search mean {mean}"
        );
        // Heavy tail: ≥ 40% of flows are "short" (< 100 KB) but they carry
        // only a sliver of the bytes.
        assert!(c.cdf(SHORT_FLOW_MAX as f64) > 0.4);
        assert!(c.quantile(0.99) > 10_000_000.0);
    }

    #[test]
    fn data_mining_stats() {
        let c = data_mining();
        let mean = c.mean();
        // Linear interpolation over the published VL2 points puts the mean
        // in the low tens of MB — the 2% of flows between 100 MB and 1 GB
        // dominate the byte count (VL2's headline heavy tail).
        assert!(
            (8_000_000.0..16_000_000.0).contains(&mean),
            "data mining mean {mean}"
        );
        // Even more extreme: ~80% of flows under 10 KB.
        assert!(c.cdf(10_000.0) >= 0.79);
        assert!(c.quantile(0.995) > 100_000_000.0);
    }

    #[test]
    fn majority_of_flows_short_in_both() {
        for c in [web_search(), data_mining()] {
            assert!(c.cdf(SHORT_FLOW_MAX as f64) >= 0.4);
        }
    }

    #[test]
    fn data_mining_shorter_flows_than_web_search_at_median() {
        assert!(data_mining().quantile(0.5) < web_search().quantile(0.5));
    }
}
