//! Sim-time timeline sampling.
//!
//! [`TimelineSampler`] tracks the latest per-port queue state and
//! per-flow congestion state, and appends one CSV row per tracked entity
//! every time simulation time crosses the sampling interval. The cadence
//! is driven **entirely by event timestamps** — the sampler owns no
//! timers and never reads the wall clock (clippy's `disallowed_methods`)
//! — so output is a deterministic function of the event stream: quiet
//! periods produce no rows, and two identical runs produce byte-identical
//! series.

use crate::event::{
    AlphaUpdated, CwndUpdated, EpisodeEntered, EpisodeExited, Meta, PacketEnqueued, RtoFired,
    SojournSampled,
};
use crate::subscribe::Subscriber;
use ecnsharp_sim::{Duration, SimTime};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, Default)]
struct PortSample {
    backlog_bytes: u64,
    last_sojourn_ns: u64,
    in_episode: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct FlowSample {
    cwnd_bytes: u64,
    ssthresh_bytes: u64,
    alpha: f64,
    rtos: u64,
}

/// Subscriber emitting per-port and per-flow CSV time series on a
/// sim-event-driven cadence.
///
/// State updates happen on every event; a snapshot row for every tracked
/// port and flow is appended whenever an event timestamp reaches the next
/// sampling deadline (deadlines advance from the first event, so the
/// series is sparse during idle periods). Iteration order is `BTreeMap`
/// order — numeric, stable, hasher-free.
#[derive(Debug, Clone)]
pub struct TimelineSampler {
    interval: Duration,
    next: Option<SimTime>,
    ports: BTreeMap<(u64, u64), PortSample>,
    flows: BTreeMap<u64, FlowSample>,
    port_rows: String,
    flow_rows: String,
}

impl TimelineSampler {
    /// Sampler flushing a snapshot every `interval` of simulation time.
    /// A zero interval is promoted to 1 ns (snapshot at every event).
    pub fn new(interval: Duration) -> Self {
        TimelineSampler {
            interval: interval.max(Duration::from_nanos(1)),
            next: None,
            ports: BTreeMap::new(),
            flows: BTreeMap::new(),
            port_rows: String::new(),
            flow_rows: String::new(),
        }
    }

    /// The per-port series: `time_ns,node,port,backlog_bytes,sojourn_ns,in_episode`.
    pub fn ports_csv(&self) -> String {
        let mut out = String::from("time_ns,node,port,backlog_bytes,sojourn_ns,in_episode\n");
        out.push_str(&self.port_rows);
        out
    }

    /// The per-flow series: `time_ns,flow,cwnd_bytes,ssthresh_bytes,alpha,rtos`.
    pub fn flows_csv(&self) -> String {
        let mut out = String::from("time_ns,flow,cwnd_bytes,ssthresh_bytes,alpha,rtos\n");
        out.push_str(&self.flow_rows);
        out
    }

    /// Number of snapshot rows accumulated so far (ports + flows).
    pub fn rows(&self) -> usize {
        self.port_rows.lines().count() + self.flow_rows.lines().count()
    }

    fn tick(&mut self, at: SimTime) {
        match self.next {
            None => {
                // First event anchors the cadence; the first snapshot
                // lands one interval later.
                self.next = Some(at + self.interval);
            }
            Some(next) if at >= next => {
                self.flush(at);
                self.next = Some(at + self.interval);
            }
            Some(_) => {}
        }
    }

    fn flush(&mut self, at: SimTime) {
        let t = at.as_nanos();
        for (&(node, port), s) in &self.ports {
            self.port_rows.push_str(&format!(
                "{t},{node},{port},{},{},{}\n",
                s.backlog_bytes,
                s.last_sojourn_ns,
                u8::from(s.in_episode)
            ));
        }
        for (&flow, s) in &self.flows {
            self.flow_rows.push_str(&format!(
                "{t},{flow},{},{},{:.6},{}\n",
                s.cwnd_bytes, s.ssthresh_bytes, s.alpha, s.rtos
            ));
        }
    }
}

impl Subscriber for TimelineSampler {
    fn on_packet_enqueued(&mut self, meta: &Meta, ev: &PacketEnqueued) {
        let s = self.ports.entry((meta.node, ev.port)).or_default();
        s.backlog_bytes = ev.backlog_bytes + ev.wire_bytes;
        self.tick(meta.at);
    }

    fn on_sojourn_sampled(&mut self, meta: &Meta, ev: &SojournSampled) {
        let s = self.ports.entry((meta.node, ev.port)).or_default();
        s.backlog_bytes = ev.backlog_bytes;
        s.last_sojourn_ns = ev.sojourn_ns;
        self.tick(meta.at);
    }

    fn on_episode_entered(&mut self, meta: &Meta, ev: &EpisodeEntered) {
        self.ports
            .entry((meta.node, ev.port))
            .or_default()
            .in_episode = true;
        self.tick(meta.at);
    }

    fn on_episode_exited(&mut self, meta: &Meta, ev: &EpisodeExited) {
        self.ports
            .entry((meta.node, ev.port))
            .or_default()
            .in_episode = false;
        self.tick(meta.at);
    }

    fn on_cwnd_updated(&mut self, meta: &Meta, ev: &CwndUpdated) {
        let s = self.flows.entry(ev.flow).or_default();
        s.cwnd_bytes = ev.cwnd_bytes;
        s.ssthresh_bytes = ev.ssthresh_bytes;
        self.tick(meta.at);
    }

    fn on_alpha_updated(&mut self, meta: &Meta, ev: &AlphaUpdated) {
        self.flows.entry(ev.flow).or_default().alpha = ev.alpha;
        self.tick(meta.at);
    }

    fn on_rto_fired(&mut self, meta: &Meta, ev: &RtoFired) {
        self.flows.entry(ev.flow).or_default().rtos += 1;
        self.tick(meta.at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(us: u64, node: u64) -> Meta {
        Meta {
            at: SimTime::from_micros(us),
            node,
        }
    }

    fn enq(port: u64, backlog: u64) -> PacketEnqueued {
        PacketEnqueued {
            port,
            flow: 1,
            seq: 0,
            payload: 1460,
            wire_bytes: 1500,
            backlog_bytes: backlog,
            marked: false,
        }
    }

    #[test]
    fn cadence_is_event_driven_and_sparse() {
        let mut t = TimelineSampler::new(Duration::from_micros(10));
        // Events at 0, 5 µs: below the first deadline (10 µs) -> no rows.
        t.on_packet_enqueued(&meta(0, 1), &enq(0, 0));
        t.on_packet_enqueued(&meta(5, 1), &enq(0, 1500));
        assert_eq!(t.ports_csv().lines().count(), 1, "header only");
        // Event at 12 µs crosses the deadline -> one port row at 12 µs.
        t.on_packet_enqueued(&meta(12, 1), &enq(0, 3000));
        let csv = t.ports_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("12000,1,0,4500,0,0\n"), "csv was:\n{csv}");
        // A long quiet gap produces no filler rows; the next event
        // yields exactly one more snapshot.
        t.on_packet_enqueued(&meta(500, 1), &enq(0, 0));
        assert_eq!(t.ports_csv().lines().count(), 3);
    }

    #[test]
    fn flow_state_tracks_latest_values() {
        let mut t = TimelineSampler::new(Duration::from_micros(1));
        t.on_cwnd_updated(
            &meta(0, 0),
            &CwndUpdated {
                flow: 7,
                cwnd_bytes: 4380,
                ssthresh_bytes: 100_000,
            },
        );
        t.on_alpha_updated(
            &meta(1, 0),
            &AlphaUpdated {
                flow: 7,
                alpha: 0.5,
            },
        );
        t.on_rto_fired(&meta(3, 0), &RtoFired { flow: 7, streak: 1 });
        let csv = t.flows_csv();
        assert!(
            csv.contains("3000,7,4380,100000,0.500000,1\n"),
            "csv was:\n{csv}"
        );
    }

    #[test]
    fn episode_flag_flips() {
        let mut t = TimelineSampler::new(Duration::from_micros(1));
        t.on_episode_entered(&meta(0, 2), &EpisodeEntered { port: 3 });
        t.on_packet_enqueued(&meta(5, 2), &enq(3, 0));
        assert!(t.ports_csv().contains(",1\n"), "in_episode set");
        t.on_episode_exited(&meta(6, 2), &EpisodeExited { port: 3, marks: 2 });
        t.on_packet_enqueued(&meta(20, 2), &enq(3, 0));
        let csv = t.ports_csv();
        assert!(csv.lines().last().is_some_and(|l| l.ends_with(",0")));
    }

    #[test]
    fn identical_event_streams_produce_identical_csv() {
        let run = || {
            let mut t = TimelineSampler::new(Duration::from_micros(2));
            for i in 0..50u64 {
                t.on_packet_enqueued(&meta(i, i % 3), &enq(i % 2, i * 100));
            }
            (t.ports_csv(), t.flows_csv())
        };
        assert_eq!(run(), run());
    }
}
