//! Deterministic fault injection: scheduled link-state changes (flaps,
//! rate/latency degradation) and a seeded Gilbert–Elliott burst-loss
//! model.
//!
//! A [`FaultPlan`] is a list of `(time, action)` pairs installed into a
//! [`crate::Network`] with [`crate::Network::install_fault_plan`]; the
//! network replays it through its ordinary event queue, so fault timing is
//! part of the same `(time, seq)` total order as every packet and timer —
//! runs with the same seed and the same plan are byte-identical.
//! [`GilbertElliott`] lives inside an egress port (see
//! [`crate::PortConfig::with_ge`]) and burns exactly two dice draws per
//! transmitted packet, so enabling it shifts the dice stream by a fixed,
//! replayable amount.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::ids::NodeId;
use ecnsharp_sim::{Duration, Rate, SimTime};

/// Validate a probability knob at construction time: finite and in
/// `[0, 1]`. `NaN` fails the range check (all comparisons with `NaN` are
/// false) and is rejected like any other out-of-range value.
fn validate_p(name: &str, p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "{name} must be a probability in [0, 1], got {p}"
    );
    p
}

/// A two-state Markov (Gilbert–Elliott) packet-loss process: a *good*
/// state with loss probability [`GilbertElliott::loss_good`] and a *bad*
/// state with [`GilbertElliott::loss_bad`], switching per packet with
/// probabilities `p_gb` (good→bad) and `p_bg` (bad→good). Losses cluster
/// into bursts of mean length `1 / p_bg` packets — the loss pattern link
/// errors and shallow-buffer overflow actually produce. A chain that never
/// leaves the good state, `GilbertElliott::new(0.0, 1.0, 0.0, p)`, is
/// independent per-packet loss with probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of switching good → bad.
    pub p_gb: f64,
    /// Per-packet probability of switching bad → good.
    pub p_bg: f64,
    /// Drop probability while in the bad state.
    pub loss_bad: f64,
    /// Drop probability while in the good state.
    pub loss_good: f64,
    /// Current chain state (starts good).
    in_bad: bool,
}

impl GilbertElliott {
    /// Build a model from explicit transition and loss probabilities.
    pub fn new(p_gb: f64, p_bg: f64, loss_bad: f64, loss_good: f64) -> Self {
        GilbertElliott {
            p_gb: validate_p("p_gb", p_gb),
            p_bg: validate_p("p_bg", p_bg),
            loss_bad: validate_p("loss_bad", loss_bad),
            loss_good: validate_p("loss_good", loss_good),
            in_bad: false,
        }
    }

    /// Parameterize from a target long-run loss rate and a mean burst
    /// length (in packets): `p_bg = 1/mean_burst_len`, `p_gb` solved so
    /// the stationary bad-state probability equals `mean_loss`, with the
    /// bad state dropping everything and the good state nothing.
    pub fn from_mean_loss(mean_loss: f64, mean_burst_len: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&mean_loss),
            "mean_loss must be in [0, 1), got {mean_loss}"
        );
        assert!(
            mean_burst_len >= 1.0,
            "mean_burst_len must be >= 1 packet, got {mean_burst_len}"
        );
        if mean_loss <= 0.0 {
            return GilbertElliott::new(0.0, 1.0, 0.0, 0.0);
        }
        let p_bg = 1.0 / mean_burst_len;
        let p_gb = (mean_loss * p_bg / (1.0 - mean_loss)).min(1.0);
        GilbertElliott::new(p_gb, p_bg, 1.0, 0.0)
    }

    /// Stationary probability of the bad state, `p_gb / (p_gb + p_bg)`.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_gb + self.p_bg;
        if denom > 0.0 {
            self.p_gb / denom
        } else {
            0.0
        }
    }

    /// Long-run mean loss rate implied by the parameters.
    pub fn mean_loss(&self) -> f64 {
        let bad = self.stationary_bad();
        bad * self.loss_bad + (1.0 - bad) * self.loss_good
    }

    /// Advance the chain by one packet and decide its fate; `true` means
    /// drop. Always consumes exactly two uniform draws from `dice` — one
    /// for the state transition, one for the loss decision — so the dice
    /// stream's alignment never depends on the chain's current state.
    #[inline]
    pub fn roll(&mut self, mut dice: impl FnMut() -> f64) -> bool {
        let transition = dice();
        if self.in_bad {
            if transition < self.p_bg {
                self.in_bad = false;
            }
        } else if transition < self.p_gb {
            self.in_bad = true;
        }
        let loss = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        let fate = dice();
        loss > 0.0 && fate < loss
    }
}

/// One thing a fault plan can do to the network. Link actions apply to
/// both directions of the `a`↔`b` link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take the link down: queued and newly arriving packets wait (or tail
    /// drop); routes are rebuilt so ECMP fails over where an alternative
    /// path exists.
    LinkDown {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
    },
    /// Bring the link back up: routes are rebuilt and both egress ports
    /// are kicked so backlogged packets resume immediately.
    LinkUp {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
    },
    /// Degrade (or restore) the link's serialization rate.
    SetLinkRate {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// New rate for both directions.
        rate: Rate,
    },
    /// Change the link's one-way propagation delay (latency degradation).
    SetLinkDelay {
        /// One end of the link.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// New propagation delay for both directions.
        delay: Duration,
    },
}

/// A scheduled fault: apply `action` at simulation time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// An ordered schedule of fault events. Built with the fluent [`at`] /
/// [`flap`] combinators and installed once via
/// [`crate::Network::install_fault_plan`].
///
/// [`at`]: FaultPlan::at
/// [`flap`]: FaultPlan::flap
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The scheduled events, in insertion order. Events at equal times
    /// apply in insertion order (the network assigns them queue sequence
    /// numbers as they are installed).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `action` at `at`.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Flap the `a`↔`b` link: starting at `first_down`, take it down for
    /// `down_time` out of every `period`, until `until` (exclusive).
    pub fn flap(
        mut self,
        a: NodeId,
        b: NodeId,
        first_down: SimTime,
        period: Duration,
        down_time: Duration,
        until: SimTime,
    ) -> Self {
        assert!(!period.is_zero(), "flap period must be non-zero");
        assert!(
            down_time < period,
            "down_time {down_time} must be shorter than the flap period {period}"
        );
        let mut t = first_down;
        while t < until {
            self = self.at(t, FaultAction::LinkDown { a, b });
            self = self.at(t + down_time, FaultAction::LinkUp { a, b });
            t += period;
        }
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecnsharp_sim::Rng;

    #[test]
    fn ge_from_mean_loss_hits_target_rate() {
        let mut ge = GilbertElliott::from_mean_loss(0.01, 8.0);
        assert!((ge.mean_loss() - 0.01).abs() < 1e-12);
        let mut rng = Rng::seed_from_u64(7);
        let n = 200_000;
        let mut drops = 0u64;
        for _ in 0..n {
            if ge.roll(|| rng.f64()) {
                drops += 1;
            }
        }
        let observed = drops as f64 / n as f64;
        assert!(
            (observed - 0.01).abs() < 0.003,
            "observed loss {observed} far from 1%"
        );
    }

    #[test]
    fn ge_losses_cluster_into_bursts() {
        let mut ge = GilbertElliott::from_mean_loss(0.02, 10.0);
        let mut rng = Rng::seed_from_u64(11);
        let mut bursts = Vec::new();
        let mut run = 0u64;
        for _ in 0..300_000 {
            if ge.roll(|| rng.f64()) {
                run += 1;
            } else if run > 0 {
                bursts.push(run);
                run = 0;
            }
        }
        let mean_burst = bursts.iter().sum::<u64>() as f64 / bursts.len() as f64;
        // Target mean burst is 10 packets (p_bg = 0.1); allow generous
        // statistical slack but rule out the memoryless value of ~1.02
        // that independent 2% drops would give.
        assert!(
            mean_burst > 5.0 && mean_burst < 15.0,
            "mean burst {mean_burst}"
        );
    }

    #[test]
    fn ge_roll_is_seed_deterministic_and_draw_exact() {
        let seq = |seed: u64| {
            let mut ge = GilbertElliott::from_mean_loss(0.05, 4.0);
            let mut rng = Rng::seed_from_u64(seed);
            let mut draws = 0u64;
            let fates: Vec<bool> = (0..1_000)
                .map(|_| {
                    ge.roll(|| {
                        draws += 1;
                        rng.f64()
                    })
                })
                .collect();
            (fates, draws)
        };
        let (f1, d1) = seq(42);
        let (f2, d2) = seq(42);
        assert_eq!(f1, f2, "same seed must replay identically");
        assert_eq!(d1, 2_000, "exactly two draws per packet");
        assert_eq!(d2, 2_000);
    }

    #[test]
    fn ge_zero_loss_never_drops() {
        let mut ge = GilbertElliott::from_mean_loss(0.0, 8.0);
        let mut rng = Rng::seed_from_u64(3);
        assert!((0..10_000).all(|_| !ge.roll(|| rng.f64())));
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn ge_rejects_out_of_range() {
        let _ = GilbertElliott::new(1.5, 0.1, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "probability in [0, 1]")]
    fn ge_rejects_nan() {
        let _ = GilbertElliott::new(f64::NAN, 0.1, 1.0, 0.0);
    }

    #[test]
    fn flap_builder_alternates_down_up() {
        let (a, b) = (NodeId(3), NodeId(5));
        let plan = FaultPlan::new().flap(
            a,
            b,
            SimTime::from_micros(100),
            Duration::from_micros(200),
            Duration::from_micros(50),
            SimTime::from_micros(500),
        );
        // Flap cycles start at 100 and 300 us (500 is excluded).
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.events[0],
            FaultEvent {
                at: SimTime::from_micros(100),
                action: FaultAction::LinkDown { a, b },
            }
        );
        assert_eq!(
            plan.events[1],
            FaultEvent {
                at: SimTime::from_micros(150),
                action: FaultAction::LinkUp { a, b },
            }
        );
        assert_eq!(plan.events[2].at, SimTime::from_micros(300));
        assert_eq!(plan.events[3].at, SimTime::from_micros(350));
        // Every down has a matching up inside the window.
        let downs = plan
            .events
            .iter()
            .filter(|e| matches!(e.action, FaultAction::LinkDown { .. }))
            .count();
        let ups = plan.len() - downs;
        assert_eq!(downs, ups);
    }

    #[test]
    #[should_panic(expected = "shorter than the flap period")]
    fn flap_rejects_down_time_longer_than_period() {
        let _ = FaultPlan::new().flap(
            NodeId(0),
            NodeId(1),
            SimTime::ZERO,
            Duration::from_micros(100),
            Duration::from_micros(100),
            SimTime::from_millis(1),
        );
    }
}
