//! The AQM schemes under comparison and their parameterization from RTT
//! statistics, following §5.1's settings and §3.4's rule-of-thumb.

use ecnsharp_aqm::{params, CoDel, DctcpRed, DropTail, Tcn};
use ecnsharp_core::{EcnSharp, EcnSharpConfig};
use ecnsharp_net::PortConfig;
use ecnsharp_sim::{Duration, Rate};
use ecnsharp_workload::RttVariation;

/// One of the compared switch configurations.
#[derive(Debug, Clone)]
pub enum Scheme {
    /// DCTCP-RED with `K = C × p90(RTT)` — "current practice".
    DctcpRedTail,
    /// DCTCP-RED with `K = C × mean(RTT)`.
    DctcpRedAvg,
    /// DCTCP-RED with an explicit threshold in bytes (the Fig. 2 sweep).
    DctcpRedK(u64),
    /// CoDel in marking mode (target = λ·mean RTT, interval = p90 RTT) —
    /// the paper's Tofino deployment.
    CoDel,
    /// CoDel in classic dropping mode — the ns-3 queue disc the paper's
    /// simulations (Figures 10–11) compare against.
    CoDelDrop,
    /// TCN with threshold `λ × p90(RTT)` (or an explicit override).
    Tcn(Option<Duration>),
    /// ECN♯ with the §3.4 rule-of-thumb (or an explicit config).
    EcnSharp(Option<EcnSharpConfig>),
    /// Plain tail-drop.
    DropTail,
}

impl Scheme {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Scheme::DctcpRedTail => "DCTCP-RED-Tail".into(),
            Scheme::DctcpRedAvg => "DCTCP-RED-AVG".into(),
            Scheme::DctcpRedK(k) => format!("DCTCP-RED-{}KB", k / 1000),
            Scheme::CoDel => "CoDel".into(),
            Scheme::CoDelDrop => "CoDel-drop".into(),
            Scheme::Tcn(_) => "TCN".into(),
            Scheme::EcnSharp(_) => "ECN#".into(),
            Scheme::DropTail => "DropTail".into(),
        }
    }

    /// The four schemes of the testbed figures (6, 7).
    pub fn testbed_set() -> Vec<Scheme> {
        vec![
            Scheme::DctcpRedTail,
            Scheme::DctcpRedAvg,
            Scheme::CoDel,
            Scheme::EcnSharp(None),
        ]
    }
}

/// Thresholds derived from an RTT model the way an operator would derive
/// them from PingMesh-style measurements (§2.3, §3.4, §5.1). λ = 1
/// throughout, matching the paper's settings (they size for regular-TCP
/// robustness even though endhosts run DCTCP).
#[derive(Debug, Clone, Copy)]
pub struct SchemeParams {
    /// Mean base RTT of the deployment.
    pub rtt_avg: Duration,
    /// 90th-percentile base RTT.
    pub rtt_p90: Duration,
    /// Bottleneck capacity.
    pub capacity: Rate,
}

impl SchemeParams {
    /// Derive from an RTT-variation model (deterministic Monte-Carlo
    /// stats) and the bottleneck rate.
    pub fn derive(rtt: &RttVariation, capacity: Rate) -> Self {
        let s = rtt.stats();
        SchemeParams {
            rtt_avg: s.mean,
            rtt_p90: s.p90,
            capacity,
        }
    }

    /// `K` for DCTCP-RED-Tail (Eq. 1 with p90).
    pub fn k_tail(&self) -> u64 {
        params::queue_threshold(1.0, self.capacity, self.rtt_p90)
    }

    /// `K` for DCTCP-RED-AVG (Eq. 1 with the mean).
    pub fn k_avg(&self) -> u64 {
        params::queue_threshold(1.0, self.capacity, self.rtt_avg)
    }

    /// The persistent-queue target. §3.4 recommends `≥ λ × avg RTT` with
    /// λ from the transport; all endhosts run DCTCP (λ ≈ 0.17), and the
    /// paper's own simulations use ~10 µs targets (§5.4 sets CoDel's
    /// target to 10 µs and Fig. 12b sweeps pst_target over 6–18 µs), i.e.
    /// the λ_DCTCP regime rather than the conservative λ=1 the testbed
    /// uses. We follow the simulation setting.
    pub fn pst_target(&self) -> Duration {
        self.rtt_avg.mul_f64(ecnsharp_aqm::params::LAMBDA_DCTCP)
    }

    /// The rule-of-thumb ECN♯ config: `ins_target` = p90 (λ=1 headroom for
    /// burst tolerance), `pst_interval` = p90 (one worst-case RTT),
    /// `pst_target` = λ_DCTCP × mean (see [`Self::pst_target`]).
    pub fn ecnsharp(&self) -> EcnSharpConfig {
        EcnSharpConfig::new(self.rtt_p90, self.pst_target(), self.rtt_p90)
    }

    /// CoDel configured like the paper's simulations: same target as
    /// ECN♯'s persistent component, interval = one p90 RTT.
    pub fn codel(&self) -> (Duration, Duration) {
        (self.pst_target(), self.rtt_p90) // (target, interval)
    }

    /// TCN threshold (Eq. 2 with p90).
    pub fn tcn(&self) -> Duration {
        self.rtt_p90
    }

    /// Build the egress-port configuration for `scheme`.
    ///
    /// `_seed` is unused: no scheme draws random numbers. It is kept only
    /// because `benchmark/` calls this three-argument form.
    pub fn port(&self, scheme: &Scheme, buffer: u64, _seed: u64) -> PortConfig {
        let aqm: Box<dyn ecnsharp_aqm::Aqm> = match scheme {
            Scheme::DctcpRedTail => Box::new(DctcpRed::tail(1.0, self.capacity, self.rtt_p90)),
            Scheme::DctcpRedAvg => Box::new(DctcpRed::avg(1.0, self.capacity, self.rtt_avg)),
            Scheme::DctcpRedK(k) => Box::new(DctcpRed::with_threshold(*k)),
            Scheme::CoDel => {
                let (target, interval) = self.codel();
                Box::new(CoDel::new(target, interval))
            }
            Scheme::CoDelDrop => {
                let (target, interval) = self.codel();
                Box::new(CoDel::new_dropping(target, interval))
            }
            Scheme::Tcn(thr) => Box::new(Tcn::new(thr.unwrap_or_else(|| self.tcn()))),
            Scheme::EcnSharp(cfg) => {
                Box::new(EcnSharp::new(cfg.unwrap_or_else(|| self.ecnsharp())))
            }
            Scheme::DropTail => Box::new(DropTail::new()),
        };
        PortConfig::fifo(buffer, aqm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_thresholds_from_3x_model() {
        let p = SchemeParams::derive(&RttVariation::paper_3x(), Rate::from_gbps(10));
        // p90 ≈ 200 us → K_tail ≈ 250 KB (paper's setting).
        let k = p.k_tail();
        assert!((230_000..265_000).contains(&k), "K_tail {k}");
        // mean ≈ 85-110 us → K_avg ≈ 105-140 KB (paper rounds to 80 KB;
        // same low-percentile regime).
        let k = p.k_avg();
        assert!((95_000..145_000).contains(&k), "K_avg {k}");
        let c = p.ecnsharp();
        assert!(c.ins_target > c.pst_target);
        assert_eq!(c.pst_interval, p.rtt_p90);
        // pst_target in the paper's simulation regime (~10-25 us).
        let tgt = c.pst_target.as_micros_f64();
        assert!((10.0..30.0).contains(&tgt), "pst_target {tgt}us");
    }

    /// Every `Scheme` variant, once.
    fn all_schemes() -> [Scheme; 8] {
        [
            Scheme::DctcpRedTail,
            Scheme::DctcpRedAvg,
            Scheme::DctcpRedK(100_000),
            Scheme::CoDel,
            Scheme::CoDelDrop,
            Scheme::Tcn(None),
            Scheme::EcnSharp(None),
            Scheme::DropTail,
        ]
    }

    #[test]
    fn every_scheme_builds_a_port() {
        let p = SchemeParams::derive(&RttVariation::paper_3x(), Rate::from_gbps(10));
        for s in all_schemes() {
            let cfg = p.port(&s, 1_000_000, 7);
            assert_eq!(cfg.capacity_bytes, 1_000_000, "{}", s.label());
        }
    }

    /// Labels key the CSV rows and fig10's per-scheme series file names.
    #[test]
    fn labels_unique() {
        let labels: std::collections::BTreeSet<String> =
            all_schemes().iter().map(Scheme::label).collect();
        assert_eq!(labels.len(), all_schemes().len());
    }
}
