//! Plain tail-drop "AQM": never marks, never early-drops. The port's
//! capacity check provides the tail-drop behaviour; this policy simply
//! declines to add anything on top. Useful as the null baseline and for
//! host NIC queues.

use crate::{Aqm, DequeueVerdict, EnqueueVerdict, PacketView, QueueState};
use ecnsharp_sim::SimTime;

/// The do-nothing queue policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct DropTail;

impl DropTail {
    /// Create a tail-drop policy.
    pub fn new() -> Self {
        DropTail
    }
}

impl Aqm for DropTail {
    fn on_enqueue(&mut self, _now: SimTime, _q: &QueueState, _pkt: &PacketView) -> EnqueueVerdict {
        EnqueueVerdict::Admit
    }

    fn on_dequeue(&mut self, _now: SimTime, _q: &QueueState, _pkt: &PacketView) -> DequeueVerdict {
        DequeueVerdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{pkt, q};

    #[test]
    fn never_interferes() {
        let mut dt = DropTail::new();
        for backlog in [0u64, 10_000, 1_999_999] {
            assert_eq!(
                dt.on_enqueue(SimTime::from_micros(1), &q(backlog), &pkt(0)),
                EnqueueVerdict::Admit
            );
            assert_eq!(
                dt.on_dequeue(SimTime::from_micros(1_000), &q(backlog), &pkt(0)),
                DequeueVerdict::Pass
            );
        }
    }
}
