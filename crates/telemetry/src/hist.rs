//! Deterministic log-linear histograms (HDR-style) over `u64` values.
//!
//! [`LogLinearHistogram`] buckets values on a hybrid scale: exact below
//! `2^p` (one bucket per value), then `2^p` sub-buckets per power of two —
//! so every bucket's width is at most `2^-p` of its lower bound and any
//! reported quantile has **relative error ≤ 2^-p** (≈ 0.8% at the default
//! precision of 7 bits). Bucket boundaries depend only on the precision,
//! never on the data, which makes histograms from `parallel_map` workers
//! mergeable by plain element-wise addition — merging is associative,
//! commutative, and lossless.
//!
//! [`HistogramRecorder`] is the [`Subscriber`] packaging: sojourn time,
//! queue depth, and flow-completion time split across the paper's flow
//! size buckets.

use crate::event::{FlowCompleted, Meta, PacketEnqueued, SojournSampled};
use crate::subscribe::Subscriber;

/// Merge attempted between histograms of different precision.
///
/// Bucket layouts with different precision are incompatible; re-record or
/// construct both sides with the same precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecisionMismatch {
    /// Precision (bits) of the destination histogram.
    pub dst: u32,
    /// Precision (bits) of the source histogram.
    pub src: u32,
}

impl std::fmt::Display for PrecisionMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot merge histograms of different precision ({} vs {} bits)",
            self.dst, self.src
        )
    }
}

impl std::error::Error for PrecisionMismatch {}

/// A deterministic log-linear histogram of `u64` values.
///
/// Values `v < 2^p` land in exact singleton buckets; larger values land in
/// one of `2^p` equal-width sub-buckets of their power-of-two range. The
/// full `u64` domain is covered (including `u64::MAX`); recording never
/// fails and never panics. Counts and the running sum saturate at
/// `u64::MAX` rather than wrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearHistogram {
    precision: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Default precision: 7 bits = 128 sub-buckets per power of two,
/// relative quantile error ≤ 1/128 ≈ 0.79%, ~58 KiB of buckets.
pub const DEFAULT_PRECISION: u32 = 7;

/// Largest accepted precision (space bound: p = 10 is ~440 KiB).
const MAX_PRECISION: u32 = 10;

impl LogLinearHistogram {
    /// Create an empty histogram with `precision` sub-bucket bits,
    /// clamped to `1..=10`.
    pub fn with_precision(precision: u32) -> Self {
        let p = precision.clamp(1, MAX_PRECISION);
        // Exponents run p..=63, each contributing 2^p sub-buckets, plus
        // the 2^p singleton buckets below 2^p.
        let len = ((64 - p + 1) as usize) << p;
        LogLinearHistogram {
            precision: p,
            buckets: vec![0; len],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Create an empty histogram at [`DEFAULT_PRECISION`].
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION)
    }

    /// Sub-bucket bits of this histogram.
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// Upper bound on the relative error of any reported quantile:
    /// `2^-precision`.
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (1u64 << self.precision) as f64
    }

    /// Record one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(v);
        if let Some(b) = self.buckets.get_mut(idx) {
            *b = b.saturating_add(n);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), or `None` if empty.
    ///
    /// Returns the upper bound of the bucket containing the rank
    /// `max(1, ceil(q·count))` observation, clamped to the recorded
    /// `[min, max]` — so the result is never below the true quantile and
    /// overshoots it by at most [`Self::relative_error_bound`] relative.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum = cum.saturating_add(n);
            if cum >= target {
                let (_, hi) = self.bounds_of(idx);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge `other` into `self` (element-wise bucket addition). Both
    /// histograms must share the same precision. Merging is associative
    /// and commutative, so per-worker histograms can be folded in any
    /// order with identical results.
    pub fn merge(&mut self, other: &LogLinearHistogram) -> Result<(), PrecisionMismatch> {
        if self.precision != other.precision {
            return Err(PrecisionMismatch {
                dst: self.precision,
                src: other.precision,
            });
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        Ok(())
    }

    /// Iterate the non-empty buckets as `(lower, upper, count)` with
    /// inclusive value bounds, in ascending value order.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| {
                let (lo, hi) = self.bounds_of(idx);
                (lo, hi, n)
            })
    }

    /// CSV dump of the non-empty buckets: `lower,upper,count` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("lower,upper,count\n");
        for (lo, hi, n) in self.iter_buckets() {
            out.push_str(&format!("{lo},{hi},{n}\n"));
        }
        out
    }

    #[inline]
    fn index_of(&self, v: u64) -> usize {
        let p = self.precision;
        if v < (1u64 << p) {
            v as usize
        } else {
            let e = 63 - v.leading_zeros();
            let sub = (v >> (e - p)) & ((1u64 << p) - 1);
            ((u64::from(e - p + 1) << p) | sub) as usize
        }
    }

    fn bounds_of(&self, idx: usize) -> (u64, u64) {
        let p = self.precision;
        if idx < (1usize << p) {
            (idx as u64, idx as u64)
        } else {
            let e = (idx >> p) as u32 + p - 1;
            let sub = (idx & ((1usize << p) - 1)) as u64;
            let width = 1u64 << (e - p);
            let lo = (1u64 << e) | (sub * width);
            (lo, lo + (width - 1))
        }
    }
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Flow size class used to bucket completion times, matching the paper's
/// workload taxonomy: small (< 100 KB), medium (100 KB – 10 MB),
/// large (> 10 MB).
fn fct_bucket(bytes: u64) -> usize {
    if bytes < 100_000 {
        0
    } else if bytes <= 10_000_000 {
        1
    } else {
        2
    }
}

/// Names for the three FCT size buckets, index-aligned with
/// [`HistogramRecorder::fct`].
pub const FCT_BUCKET_NAMES: [&str; 3] = ["small", "medium", "large"];

/// Subscriber recording log-linear histograms of the distributional
/// signals: per-packet sojourn time (ns), queue depth seen by arriving
/// packets (bytes), and flow completion time (ns) split by flow size
/// bucket. All histograms share one precision and merge across
/// `parallel_map` workers via [`HistogramRecorder::merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramRecorder {
    /// Sojourn time of every dequeued packet, nanoseconds.
    pub sojourn_ns: LogLinearHistogram,
    /// Queue backlog observed by every admitted packet, bytes.
    pub queue_depth_bytes: LogLinearHistogram,
    /// Completion time by flow size bucket (see [`FCT_BUCKET_NAMES`]),
    /// nanoseconds; aborted flows are not recorded.
    pub fct: [LogLinearHistogram; 3],
}

impl HistogramRecorder {
    /// Empty recorder at `precision` bits (clamped to `1..=10`).
    pub fn with_precision(precision: u32) -> Self {
        let h = LogLinearHistogram::with_precision(precision);
        HistogramRecorder {
            sojourn_ns: h.clone(),
            queue_depth_bytes: h.clone(),
            fct: [h.clone(), h.clone(), h],
        }
    }

    /// Empty recorder at [`DEFAULT_PRECISION`].
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_PRECISION)
    }

    /// Merge another recorder (e.g. from a parallel worker) into this one.
    pub fn merge(&mut self, other: &HistogramRecorder) -> Result<(), PrecisionMismatch> {
        self.sojourn_ns.merge(&other.sojourn_ns)?;
        self.queue_depth_bytes.merge(&other.queue_depth_bytes)?;
        for (dst, src) in self.fct.iter_mut().zip(other.fct.iter()) {
            dst.merge(src)?;
        }
        Ok(())
    }
}

impl Default for HistogramRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl crate::subscribe::ShardSubscriber for HistogramRecorder {
    fn fork_shard(&self, _shard: usize) -> Self {
        Self::with_precision(self.sojourn_ns.precision())
    }

    fn merge_shard(&mut self, child: Self) {
        // Once-per-run fold at the post-run barrier, not a per-packet path.
        #[expect(
            clippy::expect_used,
            reason = "fork inherits precision, so the mismatch arm is unreachable"
        )]
        self.merge(&child)
            .expect("shard fork precision matches by construction");
    }
}

impl Subscriber for HistogramRecorder {
    #[inline]
    fn on_packet_enqueued(&mut self, _meta: &Meta, ev: &PacketEnqueued) {
        self.queue_depth_bytes.record(ev.backlog_bytes);
    }

    #[inline]
    fn on_sojourn_sampled(&mut self, _meta: &Meta, ev: &SojournSampled) {
        self.sojourn_ns.record(ev.sojourn_ns);
    }

    #[inline]
    fn on_flow_completed(&mut self, _meta: &Meta, ev: &FlowCompleted) {
        if ev.completed {
            if let Some(h) = self.fct.get_mut(fct_bucket(ev.bytes)) {
                h.record(ev.fct_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_below_two_to_p() {
        let mut h = LogLinearHistogram::with_precision(7);
        for v in 0..128u64 {
            h.record(v);
        }
        for (lo, hi, n) in h.iter_buckets() {
            assert_eq!(lo, hi, "linear region buckets are singletons");
            assert_eq!(n, 1);
        }
        assert_eq!(h.count(), 128);
    }

    #[test]
    fn zero_max_and_saturation() {
        let mut h = LogLinearHistogram::with_precision(4);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        // Saturating count/sum: huge weights don't wrap.
        h.record_n(u64::MAX, u64::MAX);
        h.record_n(1, u64::MAX);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn precision_mismatch_is_an_error() {
        let mut a = LogLinearHistogram::with_precision(4);
        let b = LogLinearHistogram::with_precision(5);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err, PrecisionMismatch { dst: 4, src: 5 });
        assert!(err.to_string().contains("different precision"));
    }

    #[test]
    fn precision_is_clamped() {
        assert_eq!(LogLinearHistogram::with_precision(0).precision(), 1);
        assert_eq!(LogLinearHistogram::with_precision(40).precision(), 10);
    }

    /// Reference quantile with the same rank rule as the histogram.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as u64;
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        sorted[(target - 1) as usize]
    }

    proptest! {
        #[test]
        fn bucket_bounds_contain_the_value(v in 0u64..u64::MAX, p in 1u32..10) {
            let h = LogLinearHistogram::with_precision(p);
            let idx = h.index_of(v);
            let (lo, hi) = h.bounds_of(idx);
            prop_assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
            // Width bound behind the quantile error guarantee.
            if lo > 0 {
                prop_assert!((hi - lo) as f64 / lo as f64 <= h.relative_error_bound());
            }
        }

        #[test]
        fn quantile_error_within_bucket_bound(
            vals in collection::vec(0u64..1_000_000_000, 1..200),
            p in 2u32..9,
        ) {
            let mut h = LogLinearHistogram::with_precision(p);
            for &v in &vals {
                h.record(v);
            }
            let mut sorted = vals.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let exact = exact_quantile(&sorted, q);
                let est = h.quantile(q).unwrap();
                prop_assert!(est >= exact, "q={q}: est {est} < exact {exact}");
                let slack = (exact as f64 * h.relative_error_bound()).ceil() as u64 + 1;
                prop_assert!(
                    est - exact <= slack,
                    "q={q}: est {est} overshoots exact {exact} by more than {slack}"
                );
            }
        }

        #[test]
        fn merge_is_associative_and_matches_combined_recording(
            a in collection::vec(0u64..1_000_000, 0..60),
            b in collection::vec(0u64..1_000_000, 0..60),
            c in collection::vec(0u64..1_000_000, 0..60),
        ) {
            let hist_of = |vals: &[u64]| {
                let mut h = LogLinearHistogram::with_precision(6);
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
            // (a ⊕ b) ⊕ c
            let mut left = ha.clone();
            left.merge(&hb).unwrap();
            left.merge(&hc).unwrap();
            // a ⊕ (b ⊕ c)
            let mut bc = hb.clone();
            bc.merge(&hc).unwrap();
            let mut right = ha.clone();
            right.merge(&bc).unwrap();
            prop_assert_eq!(&left, &right);
            // Both equal recording everything into one histogram.
            let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
            prop_assert_eq!(&left, &hist_of(&all));
        }
    }

    #[test]
    fn recorder_routes_events_and_merges() {
        use ecnsharp_sim::SimTime;
        let meta = Meta {
            at: SimTime::ZERO,
            node: 0,
        };
        let mut r = HistogramRecorder::new();
        r.on_packet_enqueued(
            &meta,
            &PacketEnqueued {
                port: 0,
                flow: 1,
                seq: 0,
                payload: 1460,
                wire_bytes: 1500,
                backlog_bytes: 3000,
                marked: false,
            },
        );
        r.on_sojourn_sampled(
            &meta,
            &SojournSampled {
                port: 0,
                flow: 1,
                sojourn_ns: 42_000,
                backlog_bytes: 1500,
            },
        );
        for (bytes, bucket) in [(50_000u64, 0usize), (1_000_000, 1), (50_000_000, 2)] {
            r.on_flow_completed(
                &meta,
                &FlowCompleted {
                    flow: 1,
                    bytes,
                    fct_ns: 7_000_000,
                    completed: true,
                },
            );
            assert_eq!(r.fct[bucket].count(), 1, "size {bytes} -> bucket {bucket}");
        }
        // Aborts are not FCT samples.
        r.on_flow_completed(
            &meta,
            &FlowCompleted {
                flow: 2,
                bytes: 10,
                fct_ns: 1,
                completed: false,
            },
        );
        assert_eq!(r.fct[0].count(), 1);
        let mut merged = HistogramRecorder::new();
        merged.merge(&r).unwrap();
        merged.merge(&r).unwrap();
        assert_eq!(merged.sojourn_ns.count(), 2);
        assert_eq!(merged.queue_depth_bytes.count(), 2);
        assert_eq!(merged.fct[1].count(), 2);
    }
}
