//! Queue-occupancy time-series statistics (for the Fig. 10 microscope).

use ecnsharp_sim::SimTime;

/// Summary of a queue-occupancy series, in packets.
#[derive(Debug, Clone, Copy)]
pub struct QueueSummary {
    /// Number of samples.
    pub samples: usize,
    /// Mean backlog in packets.
    pub avg_pkts: f64,
    /// Peak backlog in packets.
    pub max_pkts: u64,
    /// Mean backlog in bytes.
    pub avg_bytes: f64,
}

impl QueueSummary {
    /// Summarize `(time, backlog bytes, backlog packets)` samples.
    ///
    /// # Panics
    /// On an empty series.
    pub fn from_samples(samples: &[(SimTime, u64, u64)]) -> QueueSummary {
        assert!(!samples.is_empty(), "queue series has no samples");
        let n = samples.len() as f64;
        QueueSummary {
            samples: samples.len(),
            avg_pkts: samples.iter().map(|&(_, _, p)| p as f64).sum::<f64>() / n,
            max_pkts: samples.iter().map(|&(_, _, p)| p).max().unwrap(),
            avg_bytes: samples.iter().map(|&(_, b, _)| b as f64).sum::<f64>() / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_math() {
        let s = QueueSummary::from_samples(&[
            (SimTime::from_micros(0), 1500, 1),
            (SimTime::from_micros(1), 4500, 3),
            (SimTime::from_micros(2), 3000, 2),
        ]);
        assert_eq!(s.samples, 3);
        assert!((s.avg_pkts - 2.0).abs() < 1e-12);
        assert_eq!(s.max_pkts, 3);
        assert!((s.avg_bytes - 3000.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_series_panics() {
        let _ = QueueSummary::from_samples(&[]);
    }
}
