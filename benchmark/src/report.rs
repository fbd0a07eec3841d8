//! The metric registry, and the result a pass prints: human-readable
//! lines followed by one JSON object on the last line.

use crate::host::Summary;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// baseline median by which it may worsen before a change is rejected.
pub type EndToEndMetric = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics, as listed in `BENCHMARK.json`.
pub const END_TO_END: [EndToEndMetric; 4] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("run_wall_s", "s", Better::Lower, 0.25),
    ("pkt_hops_per_s", "1/s", Better::Higher, 0.25),
    ("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

/// The per-layer metrics, as listed in `BENCHMARK.json`: name, unit and
/// direction. Counts and simulated statistics repeat exactly per seed.
pub const PER_LAYER: [(&str, &str, Better); 43] = [
    ("sim.events_popped", "count", Better::Lower),
    ("sim.peak_pending", "count", Better::Lower),
    ("sim.heap_spills", "count", Better::Lower),
    ("sim.timers_armed", "count", Better::Lower),
    ("sim.timers_fired", "count", Better::Lower),
    ("sim.timers_stale_suppressed", "count", Better::Higher),
    ("sim.ns_per_event", "ns", Better::Lower),
    ("trace.slice_ns_per_event_p50", "ns", Better::Lower),
    ("trace.slice_ns_per_event_p95", "ns", Better::Lower),
    ("sim.queue.probe_ns_per_event", "ns", Better::Lower),
    ("sim.wheel.probe_ns_per_rearm", "ns", Better::Lower),
    ("net.pkt_hops", "count", Better::Lower),
    ("net.ce_marks", "count", Better::Lower),
    ("net.drops", "count", Better::Lower),
    ("net.topology.build_s", "s", Better::Lower),
    ("net.shard.plan_s", "s", Better::Lower),
    ("net.port.probe_ns_per_pkt", "ns", Better::Lower),
    ("net.port.probe_ns_per_pkt_pooled", "ns", Better::Lower),
    ("net.packet.probe_ns_per_clone", "ns", Better::Lower),
    ("net.shard.speedup", "ratio", Better::Higher),
    ("net.shard.overhead_cpu_s", "s", Better::Lower),
    ("aqm.probe_ns_per_decision", "ns", Better::Lower),
    ("core.marker.probe_ns_per_decision", "ns", Better::Lower),
    ("tofino.pipeline.probe_ns_per_decision", "ns", Better::Lower),
    ("transport.probe_ns_per_ack", "ns", Better::Lower),
    ("transport.probe_ns_per_flow_start", "ns", Better::Lower),
    ("transport.cwnd_updates", "count", Better::Lower),
    ("transport.rto_firings", "count", Better::Lower),
    ("transport.flows_completed", "count", Better::Higher),
    ("workload.generate_s", "s", Better::Lower),
    ("workload.ns_per_flow", "ns", Better::Lower),
    ("stats.fct_breakdown_s", "s", Better::Lower),
    ("telemetry.traced_overhead_ratio", "ratio", Better::Lower),
    ("simstat.fct_avg_us", "us", Better::Lower),
    ("simstat.fct_short_p99_us", "us", Better::Lower),
    ("simstat.golden_match", "count", Better::Higher),
    ("host.calib_ns", "ns", Better::Lower),
    ("host.loadavg1", "count", Better::Lower),
    ("model.coverage", "ratio", Better::Higher),
    ("net.network.residual_ns_per_event", "ns", Better::Lower),
    ("transport.host_tx_pkts", "count", Better::Lower),
    ("transport.concurrent_flows", "count", Better::Lower),
    ("workload.flows_scheduled", "count", Better::Higher),
];

/// Unit and direction of a registered metric.
///
/// # Panics
/// If `name` is not in [`END_TO_END`] or [`PER_LAYER`]: reporting an
/// unlisted metric is a bug in the benchmark.
fn registered(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1, m.2))
        .chain(PER_LAYER.iter().copied())
        .find(|m| m.0 == name)
        .map(|m| (m.1, m.2))
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

/// Unit of a registered metric (panics on an unlisted name).
pub fn unit_of(name: &str) -> &'static str {
    registered(name).0
}

/// Direction of a registered metric (panics on an unlisted name).
pub fn better_of(name: &str) -> Better {
    registered(name).1
}

/// Which statistic of repeated samples a metric reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The median: for set-up time, which is sampled 25 times or more.
    Median,
    /// The best sample — lowest or highest by the metric's direction.
    /// Host-time noise on a shared machine only ever slows a rep down
    /// (co-tenants, thread placement, barrier wake-ups), so the fastest
    /// rep is the steadiest estimate of what the code costs.
    Best,
}

/// The scalar after `"key":` in flat JSON text, quotes stripped. Enough
/// for the two formats this crate reads back — its own result line and
/// `golden.json` — and nothing more.
pub fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let at = text.find(&format!("\"{key}\":"))?;
    let rest = text[at + key.len() + 3..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The result of one pass over one workload.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: flows scheduled.
    pub attempted: u64,
    /// Operations failed: aborted flows, or all of them on a failed check.
    pub failed: u64,
    /// `(name, value)` of every metric of the pass, registry order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable detail printed before the JSON line.
    pub text: String,
    /// Exact simulated counts, one line; `--agree` compares it verbatim.
    pub sim_counts: String,
    /// The calibration loop's time just before the workload ran.
    pub calib_ns: u64,
}

impl Report {
    /// Record a single-valued metric.
    pub fn put(&mut self, name: &'static str, value: f64) {
        let _ = writeln!(self.text, "  {name:<40} {value:>16.6} {}", unit_of(name));
        self.metrics.push((name, value));
    }

    /// Record a metric sampled several times, as the statistic `stat`
    /// of `samples`. Median, quartiles, minimum, sample count and the
    /// samples themselves are printed beside it either way.
    pub fn put_samples(&mut self, name: &'static str, samples: &[f64], stat: Stat) {
        let s = Summary::of(samples);
        let value = match stat {
            Stat::Median => s.median,
            Stat::Best if better_of(name) == Better::Lower => s.min,
            Stat::Best => s.max,
        };
        let _ = writeln!(
            self.text,
            "  {name:<40} {value:>16.6} {}  ({stat:?} of n {}: median {:.6}, q1 {:.6}, q3 {:.6}, min {:.6})",
            unit_of(name),
            s.n,
            s.median,
            s.q1,
            s.q3,
            s.min,
        );
        let listed: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
        let _ = writeln!(self.text, "    samples in order: {}", listed.join(" "));
        self.metrics.push((name, value));
    }

    /// Add a line of human-readable detail.
    pub fn note(&mut self, line: &str) {
        self.text.push_str(line);
        self.text.push('\n');
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The JSON object the contract asks for on the last line of output.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest decimal that reads back exactly.
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }

    /// Read back what [`Report::json_line`] wrote (names are matched
    /// against the registry; anything else is an error).
    pub fn parse_json_line(line: &str) -> Result<Report, String> {
        let field = |key: &str| json_field(line, key).ok_or(format!("no \"{key}\" in result line"));
        let mut report = Report {
            correct: field("correct")? == "true",
            attempted: field("attempted")?
                .parse()
                .map_err(|e| format!("attempted: {e}"))?,
            failed: field("failed")?
                .parse()
                .map_err(|e| format!("failed: {e}"))?,
            ..Report::default()
        };
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            let key = format!("\"{name}\": {{\"value\": ");
            let Some(at) = line.find(&key) else {
                continue;
            };
            let rest = &line[at + key.len()..];
            let value = rest[..rest.find(',').ok_or("unterminated metric")?]
                .parse()
                .map_err(|e| format!("{name}: {e}"))?;
            report.metrics.push((name, value));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips() {
        let mut r = Report {
            correct: true,
            attempted: 4_000,
            failed: 0,
            ..Report::default()
        };
        r.put("run_wall_s", 4.25);
        r.put_samples("setup_s", &[0.004, 0.006, 0.005], Stat::Median);
        r.put_samples("pkt_hops_per_s", &[4.0e6, 4.5e6, 4.25e6], Stat::Best);
        r.put("sim.events_popped", 42_289_797.0);
        let line = r.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4000, \"failed\": 0"));
        assert!(line.contains("\"run_wall_s\": {\"value\": 4.25, \"unit\": \"s\"}"));
        let back = Report::parse_json_line(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (4_000, 0));
        assert_eq!(back.get("run_wall_s"), Some(4.25));
        assert_eq!(back.get("setup_s"), Some(0.005));
        assert_eq!(back.get("pkt_hops_per_s"), Some(4.5e6));
        assert_eq!(back.get("sim.events_popped"), Some(42_289_797.0));
        assert_eq!(back.get("peak_rss_mib"), None);
    }

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
