//! The hardware ECN♯ (`ecnsharp-tofino`) shadowed packet by packet on the
//! figures' own traffic.
//!
//! Each scenario runs the reference ECN♯ on the star's switch with a
//! [`Recorder`] attached. The receiver-facing port's dequeue stream (each
//! packet's egress time, sojourn and CE mark) is then replayed offline
//! through three deciders:
//!
//! 1. a fresh reference `EcnSharp` with the run's config. Its marks must
//!    equal the run's, packet for packet, and the port must have no
//!    dequeue-side AQM drop, since a dropped packet emits no sojourn
//!    sample. Together these prove the stream is the one the AQM saw;
//! 2. the same `EcnSharp` on tick-quantized inputs and config, as the
//!    pipeline quantizes them: `now` and `enq` truncated to 1 024 ns, the
//!    three durations rounded to the nearest 1 024 ns. It runs the same
//!    code as 1, so every difference between 1 and 2 is time quantization
//!    (class 2);
//! 3. the pipeline, `TofinoEcnSharp` with `WrapCmp::CorrectedLt`, on the
//!    raw `(now, enq)` nanoseconds.
//!
//! A packet where 2 and 3 disagree is class 3, a persistent mark that the
//! LUT's rounded `interval/√count` moves, only if all of these hold:
//!
//! - the instantaneous test fires for neither: `sojourn > ins_target` is
//!   stateless, and 2 and 3 evaluate it on the same ticks;
//! - 2 is inside a marking episode both before and after the packet, so
//!   the packet is neither an entry nor an exit. Those come from
//!   `first_above_time`, which no LUT touches;
//! - 3's decision is `now > next`, where `next` is the pipeline's own
//!   deadline rebuilt from its public LUT: `now + pst_interval` at entry,
//!   then `+ sqrt_delta(count)` for each of 3's in-episode marks so far.
//!   Where an instantaneous mark hides 3's persistent decision,
//!   `now > next` stands in for it;
//! - every LUT step taken so far in the episode is within one tick of the
//!   exact `pst_interval/√(count + 1)` that 2 adds instead.
//!
//! Any other difference is unexplained and fails the test.
//!
//! D4 (EXPERIMENTS.md): Algorithm 2's two registers have one slot each, so
//! on hardware they are one clock for every port of a pipe. The switch's
//! merged egress stream (every port's dequeues, drops at dequeue included)
//! is fed to one `TimeEmulator` per `WrapCmp`. The corrected `<` must see
//! no spurious wrap; the paper's printed `<=` is reported.
#![cfg(feature = "telemetry")]

use ecnsharp_core::{EcnSharp, EcnSharpConfig, MarkReason};
use ecnsharp_experiments::figures::spurious_wraps;
use ecnsharp_experiments::{
    run_incast_micro_with_subscriber, run_testbed_star_with_subscriber, FctScenario,
    IncastTimeline, Scheme, SchemeParams,
};
use ecnsharp_sim::{Duration, Rate, SimTime};
use ecnsharp_telemetry::{
    CeMarked, DropReason, MarkSite, Meta, PacketDropped, SojournSampled, Subscriber,
};
use ecnsharp_tofino::{TofinoEcnSharp, WrapCmp};
use ecnsharp_workload::{dists, PiecewiseCdf, RttVariation};

const TICK: u64 = 1024;

/// One packet leaving the shadowed port.
#[derive(Debug, Clone, Copy)]
struct Dequeue {
    at: u64,
    sojourn: u64,
    marked: bool,
}

/// Records one switch port's dequeue stream and the switch's merged
/// egress stamps. The star's switch is node `n_hosts`, and its port `i`
/// faces host `i`.
struct Recorder {
    switch: u64,
    port: u64,
    /// A dequeue-side CE mark, emitted just before the same packet's
    /// sojourn sample.
    marked: bool,
    stream: Vec<Dequeue>,
    aqm_deq_drops: u64,
    /// Every dequeue of every switch port, in event order.
    egress: Vec<u64>,
}

impl Recorder {
    fn new(switch: u64, port: u64) -> Self {
        Recorder {
            switch,
            port,
            marked: false,
            stream: Vec::new(),
            aqm_deq_drops: 0,
            egress: Vec::new(),
        }
    }
}

impl Subscriber for Recorder {
    fn on_packet_dropped(&mut self, meta: &Meta, ev: &PacketDropped) {
        if meta.node == self.switch && ev.reason == DropReason::AqmDequeue {
            self.egress.push(meta.at.as_nanos());
            self.aqm_deq_drops += u64::from(ev.port == self.port);
        }
    }

    fn on_ce_marked(&mut self, meta: &Meta, ev: &CeMarked) {
        if meta.node == self.switch && ev.port == self.port && ev.site == MarkSite::Dequeue {
            self.marked = true;
        }
    }

    fn on_sojourn_sampled(&mut self, meta: &Meta, ev: &SojournSampled) {
        if meta.node != self.switch {
            return;
        }
        self.egress.push(meta.at.as_nanos());
        if ev.port == self.port {
            self.stream.push(Dequeue {
                at: meta.at.as_nanos(),
                sojourn: ev.sojourn_ns,
                marked: std::mem::take(&mut self.marked),
            });
        }
    }
}

/// What one replay found.
#[derive(Debug, Default)]
struct Counts {
    decisions: u64,
    /// Marks of deciders 1 (= the run's), 2 and 3.
    marks: u64,
    quant_marks: u64,
    pipe_marks: u64,
    class2: u64,
    class3: u64,
    unexplained: u64,
}

/// A timestamp truncated to its tick.
fn ticked(ns: u64) -> u64 {
    ns / TICK * TICK
}

/// A threshold rounded to the nearest tick.
fn ticked_d(d: Duration) -> Duration {
    Duration::from_nanos(ticked(d.as_nanos() + TICK / 2))
}

/// Replay `stream` through the three deciders and classify every
/// difference by the rules in the module doc.
fn replay(cfg: EcnSharpConfig, stream: &[Dequeue]) -> Counts {
    let cfg_q = EcnSharpConfig::new(
        ticked_d(cfg.ins_target),
        ticked_d(cfg.pst_target),
        ticked_d(cfg.pst_interval),
    );
    let interval = cfg_q.pst_interval;
    let mut exact = EcnSharp::new(cfg);
    let mut quant = EcnSharp::new(cfg_q);
    let mut pipe = TofinoEcnSharp::new(cfg, 1, 0, WrapCmp::CorrectedLt);
    // The pipeline's deadline and marking count rebuilt from its LUT, and
    // whether every LUT step this episode was within a tick of exact.
    let (mut next, mut count, mut lut_ok) = (0u64, 0u32, true);
    let mut c = Counts::default();
    for d in stream {
        let enq_ns = d.at - d.sojourn;
        let m1 = exact.decide(SimTime::from_nanos(d.at), Duration::from_nanos(d.sojourn))
            != MarkReason::None;
        assert_eq!(m1, d.marked, "reference replay left the run at {} ns", d.at);
        let (now, enq) = (ticked(d.at), ticked(enq_ns));
        let was_marking = quant.in_marking_state();
        let m2 = quant.decide(SimTime::from_nanos(now), Duration::from_nanos(now - enq))
            != MarkReason::None;
        let m3 = pipe.on_dequeue_raw(d.at, enq_ns);
        let ins = now - enq > cfg_q.ins_target.as_nanos();
        let mid = was_marking && quant.in_marking_state();
        let due = now > next;
        c.decisions += 1;
        c.marks += u64::from(m1);
        c.quant_marks += u64::from(m2);
        c.pipe_marks += u64::from(m3);
        c.class2 += u64::from(m1 != m2);
        if m2 != m3 {
            if !ins && mid && m3 == due && lut_ok {
                c.class3 += 1;
            } else {
                c.unexplained += 1;
            }
        }
        if !was_marking && quant.in_marking_state() {
            (next, count, lut_ok) = (now + interval.as_nanos(), 1, true);
        } else if mid && (if ins { due } else { m3 }) {
            let step = u64::from(pipe.sqrt_delta(count)) * TICK;
            let exact_step = interval.div_f64(f64::from(count + 1).sqrt()).as_nanos();
            lut_ok &= step.abs_diff(exact_step) <= TICK;
            next += step;
            count += 1;
        }
    }
    c
}

/// Replay, print and check one scenario point, then D4 on its switch.
fn shadow(name: &str, cfg: EcnSharpConfig, rec: &Recorder) {
    assert_eq!(
        rec.aqm_deq_drops, 0,
        "{name}: the shadowed port dropped at dequeue"
    );
    let c = replay(cfg, &rec.stream);
    assert!(c.marks > 0, "{name}: no marks, nothing shadowed");
    let (lt, _) = spurious_wraps(WrapCmp::CorrectedLt, &rec.egress);
    let (le, first) = spurious_wraps(WrapCmp::PaperLe, &rec.egress);
    let secs = rec.egress.last().map_or(0.0, |&t| t as f64 / 1e9);
    println!(
        "{name}: decisions {} marks (reference / ticked / pipeline) {} / {} / {} \
         class-2 {} class-3 {} unexplained {} | D4 over {} egress stamps: \
         '<' {lt} spurious wraps, '<=' {le} ({:.0}/s, first at {:.3} ms)",
        c.decisions,
        c.marks,
        c.quant_marks,
        c.pipe_marks,
        c.class2,
        c.class3,
        c.unexplained,
        rec.egress.len(),
        le as f64 / secs,
        first.map_or(f64::NAN, |t| t as f64 / 1e6),
    );
    assert_eq!(lt, 0, "{name}: the corrected '<' bumped the high register");
    assert_eq!(c.unexplained, 0, "{name}: {c:?}");
}

/// A Figs. 6–8 point: the 8-host testbed star, receiver host 7.
fn star(name: &str, sc: FctScenario) {
    let cfg = SchemeParams::derive(&sc.rtt, sc.rate).ecnsharp();
    let (_, stats, rec) = run_testbed_star_with_subscriber(&sc, Recorder::new(8, 7));
    let marks = rec.stream.iter().filter(|d| d.marked).count() as u64;
    assert_eq!(stats.deq_marks, marks, "{name}: recorded another port");
    shadow(name, cfg, &rec);
}

fn testbed(cdf: PiecewiseCdf, load: f64, flows: usize, seed: u64) -> FctScenario {
    FctScenario::testbed(Scheme::EcnSharp(None), cdf, load, flows, seed)
}

#[test]
fn fig6_web_search_load_30() {
    star("fig6 30%", testbed(dists::web_search(), 0.3, 120, 37));
}

#[test]
fn fig6_web_search_load_70() {
    star("fig6 70%", testbed(dists::web_search(), 0.7, 120, 37));
}

#[test]
fn fig7_data_mining_load_70() {
    star("fig7 70%", testbed(dists::data_mining(), 0.7, 40, 37));
}

#[test]
fn fig8_5x_variation_load_70() {
    let mut sc = testbed(dists::web_search(), 0.7, 120, 46);
    sc.rtt = RttVariation::paper_nx(5);
    star("fig8 5x 70%", sc);
}

/// Fig. 10's microscope: 17 hosts, receiver host 16, ECN♯ derived from
/// the simulation RTT model.
#[test]
fn fig10_incast_fanout_40() {
    let cfg = SchemeParams::derive(&RttVariation::sim_3x(), Rate::from_gbps(10)).ecnsharp();
    let (_, rec) = run_incast_micro_with_subscriber(
        Scheme::EcnSharp(None),
        40,
        61,
        IncastTimeline::Compressed,
        Recorder::new(17, 16),
    );
    shadow("fig10 fanout 40", cfg, &rec);
}
