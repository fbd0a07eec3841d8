//! Deficit Weighted Round Robin (Shreedhar & Varghese, SIGCOMM'95).
//!
//! Each class has a weight; one round visits every backlogged class and
//! grants it `weight × quantum` additional byte credit ("deficit"). A class
//! transmits head-of-line packets while its deficit covers them; leftover
//! deficit carries to the next round, which is what makes the long-run
//! served-byte ratios converge to the weights regardless of packet sizes.
//! An emptied class forfeits its deficit (standard DRR rule).
//!
//! This is the scheduler of the paper's §5.4 experiment: 3 services with
//! weights 2:1:1, under which ECN♯ must both preserve the 2:1:1 goodput
//! split and still kill persistent queues.

use std::collections::VecDeque;

struct Class<P> {
    q: VecDeque<(u64, P)>,
    bytes: u64,
    weight: u64,
    deficit: u64,
}

/// Deficit Weighted Round Robin over `P`.
pub struct Dwrr<P> {
    classes: Vec<Class<P>>,
    /// Byte quantum granted per unit weight per round; should be at least
    /// one MTU so every round can serve at least one packet.
    quantum: u64,
    /// Next class index to visit.
    cursor: usize,
    /// Whether the class under the cursor has already received its quantum
    /// for the current visit (we may be mid-service of that class).
    in_service: bool,
    total_bytes: u64,
    total_pkts: u64,
}

impl<P> Dwrr<P> {
    /// Create with one entry per class giving its weight.
    ///
    /// # Panics
    /// If `weights` is empty, any weight is zero, or `quantum` is zero.
    pub fn new(weights: &[u64], quantum: u64) -> Self {
        assert!(!weights.is_empty(), "DWRR needs at least one class");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        assert!(quantum > 0, "quantum must be positive");
        Dwrr {
            classes: weights
                .iter()
                .map(|&w| Class {
                    q: VecDeque::new(),
                    bytes: 0,
                    weight: w,
                    deficit: 0,
                })
                .collect(),
            quantum,
            cursor: 0,
            in_service: false,
            total_bytes: 0,
            total_pkts: 0,
        }
    }

    /// Number of classes served.
    pub fn classes(&self) -> usize {
        self.classes.len()
    }

    /// Append an item of `bytes` bytes to class `class`.
    ///
    /// # Panics
    /// If `class >= self.classes()`.
    pub fn enqueue(&mut self, class: usize, bytes: u64, item: P) {
        let c = &mut self.classes[class];
        c.q.push_back((bytes, item));
        c.bytes += bytes;
        self.total_bytes += bytes;
        self.total_pkts += 1;
    }

    /// Remove the next item to transmit, returning its class, its size and
    /// the item itself, or `None` when all classes are empty.
    pub fn dequeue(&mut self) -> Option<(usize, u64, P)> {
        if self.total_pkts == 0 {
            return None;
        }
        // Each full sweep grants every backlogged class `weight × quantum`
        // extra deficit, so a head packet of any finite size is eventually
        // servable: the loop always terminates while backlog exists.
        loop {
            let idx = self.cursor;
            let n = self.classes.len();
            let quantum = self.quantum;
            let c = &mut self.classes[idx];
            if c.q.is_empty() {
                // Idle classes forfeit deficit and are skipped.
                c.deficit = 0;
                self.in_service = false;
                self.cursor = (idx + 1) % n;
                continue;
            }
            if !self.in_service {
                // First visit of this round: grant the quantum exactly once.
                c.deficit += c.weight * quantum;
                self.in_service = true;
            }
            // Non-empty was checked above; a None head simply falls through
            // to the deficit-carry branch instead of aborting the sim.
            let head_bytes = c.q.front().map(|&(b, _)| b).unwrap_or(u64::MAX);
            if c.deficit >= head_bytes {
                if let Some((bytes, item)) = c.q.pop_front() {
                    c.deficit -= bytes;
                    c.bytes -= bytes;
                    self.total_bytes -= bytes;
                    self.total_pkts -= 1;
                    if c.q.is_empty() {
                        // Standard DRR: an emptied class forfeits its deficit.
                        c.deficit = 0;
                        self.in_service = false;
                        self.cursor = (idx + 1) % n;
                    }
                    // Otherwise stay mid-service: the next call continues with
                    // the remaining deficit, without a fresh grant.
                    return Some((idx, bytes, item));
                }
            }
            // Deficit exhausted for this visit: carry it and move on.
            self.in_service = false;
            self.cursor = (idx + 1) % n;
        }
    }

    /// Queued bytes across all classes.
    pub fn backlog_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Queued items across all classes.
    pub fn backlog_pkts(&self) -> u64 {
        self.total_pkts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Served bytes per class while all classes stay backlogged: enqueue
    /// `n_per_class` packets of `pkt_bytes` each, then count the first
    /// `serve` dequeues.
    fn served_ratio(
        d: &mut Dwrr<u32>,
        n_per_class: usize,
        pkt_bytes: u64,
        serve: usize,
    ) -> Vec<u64> {
        let k = d.classes();
        for i in 0..n_per_class {
            for c in 0..k {
                d.enqueue(c, pkt_bytes, (i * k + c) as u32);
            }
        }
        let mut served = vec![0u64; k];
        for _ in 0..serve {
            let (class, bytes, _) = d.dequeue().expect("enough backlog");
            served[class] += bytes;
        }
        served
    }

    #[test]
    fn paper_weights_2_1_1() {
        let mut d = Dwrr::new(&[2, 1, 1], 1500);
        let served = served_ratio(&mut d, 2_000, 1_500, 4_000);
        let total: u64 = served.iter().sum();
        let frac: Vec<f64> = served.iter().map(|&s| s as f64 / total as f64).collect();
        assert!((frac[0] - 0.5).abs() < 0.02, "{frac:?}");
        assert!((frac[1] - 0.25).abs() < 0.02, "{frac:?}");
        assert!((frac[2] - 0.25).abs() < 0.02, "{frac:?}");
    }

    #[test]
    fn single_class_is_fifo() {
        let mut d = Dwrr::new(&[1], 1500);
        for i in 0..50u32 {
            d.enqueue(0, 1500, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| d.dequeue().map(|x| x.2)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn idle_class_capacity_redistributed() {
        // Class 0 idle: classes 1 and 2 split everything 1:1.
        let mut d = Dwrr::new(&[2, 1, 1], 1500);
        for i in 0..1_000u32 {
            d.enqueue(1, 1_500, i);
            d.enqueue(2, 1_500, i);
        }
        let mut served = [0u64; 3];
        for _ in 0..1_000 {
            let (class, bytes, _) = d.dequeue().unwrap();
            served[class] += bytes;
        }
        assert_eq!(served[0], 0);
        let ratio = served[1] as f64 / served[2] as f64;
        assert!((ratio - 1.0).abs() < 0.05, "{served:?}");
    }

    #[test]
    fn variable_packet_sizes_still_weighted() {
        // Class 0 sends large packets, class 1 small ones; byte ratio must
        // still approach 1:1 for equal weights.
        let mut d = Dwrr::new(&[1, 1], 1500);
        for i in 0..6_000u32 {
            d.enqueue(0, 1_500, i);
        }
        for i in 0..60_000u32 {
            d.enqueue(1, 150, i);
        }
        let mut served = [0u64; 2];
        for _ in 0..20_000 {
            let (class, bytes, _) = d.dequeue().unwrap();
            served[class] += bytes;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((ratio - 1.0).abs() < 0.05, "{served:?}");
    }

    #[test]
    fn byte_and_pkt_accounting() {
        let mut d = Dwrr::new(&[1, 3], 1000);
        d.enqueue(0, 700, "a");
        d.enqueue(1, 300, "b");
        assert_eq!(d.backlog_bytes(), 1_000);
        assert_eq!(d.backlog_pkts(), 2);
        d.dequeue().unwrap();
        d.dequeue().unwrap();
        assert_eq!((d.backlog_pkts(), d.backlog_bytes()), (0, 0));
        assert!(d.dequeue().is_none());
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn zero_weight_rejected() {
        let _ = Dwrr::<u32>::new(&[1, 0], 1500);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_weights_rejected() {
        let _ = Dwrr::<u32>::new(&[], 1500);
    }

    proptest! {
        /// Long-run served-byte fractions approach weights for any weight
        /// vector (all classes backlogged, MTU packets).
        #[test]
        fn prop_served_matches_weights(
            weights in proptest::collection::vec(1u64..8, 2..5),
        ) {
            // Serve fewer packets than any single class holds so every
            // class stays backlogged throughout (otherwise the served
            // ratio trivially collapses to the enqueued ratio).
            let mut d = Dwrr::new(&weights, 1500);
            let served = served_ratio(&mut d, 4_000, 1_500, 4_000);
            let total: u64 = served.iter().sum();
            let wsum: u64 = weights.iter().sum();
            for (s, w) in served.iter().zip(&weights) {
                let got = *s as f64 / total as f64;
                let want = *w as f64 / wsum as f64;
                prop_assert!((got - want).abs() < 0.03,
                    "weights {weights:?} served {served:?}");
            }
        }

        /// Work conservation: with any backlog, dequeue never returns None
        /// until exactly backlog_pkts() items were served.
        #[test]
        fn prop_work_conserving(
            pkts in proptest::collection::vec((0usize..3, 60u64..1500), 1..200),
        ) {
            let mut d = Dwrr::new(&[2, 1, 1], 1500);
            for (i, &(c, b)) in pkts.iter().enumerate() {
                d.enqueue(c, b, i as u32);
            }
            let n = d.backlog_pkts();
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..n {
                let x = d.dequeue();
                prop_assert!(x.is_some());
                prop_assert!(seen.insert(x.unwrap().2), "duplicate item");
            }
            prop_assert!(d.dequeue().is_none());
            prop_assert_eq!(d.backlog_bytes(), 0);
        }

        /// Per-class FIFO order is preserved.
        #[test]
        fn prop_per_class_fifo(
            pkts in proptest::collection::vec(0usize..3, 1..300),
        ) {
            let mut d = Dwrr::new(&[2, 1, 1], 1500);
            for (i, &c) in pkts.iter().enumerate() {
                d.enqueue(c, 1500, i as u32);
            }
            let mut last: [Option<u32>; 3] = [None; 3];
            while let Some((class, _, item)) = d.dequeue() {
                if let Some(prev) = last[class] {
                    prop_assert!(item > prev, "class {class} out of order");
                }
                last[class] = Some(item);
            }
        }
    }
}
