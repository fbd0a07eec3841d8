//! Run-wide engine performance accounting for the figure binaries.
//!
//! Every scenario run absorbs its network's [`ecnsharp_net::PerfCounters`]
//! into a process-global accumulator on completion (atomics, so the
//! [`crate::parallel_map`] worker threads can report concurrently), and the
//! binaries wrap their figure computation in [`timed`] to print an
//! engine-rate line: packet-hops per second (work done — the rate that
//! survives a change to how many events a hop costs), events processed
//! and ns/event beside it, and — the number the ROADMAP cares about —
//! simulated seconds per wall-clock second.
//!
//! Reading (or not reading) these counters cannot change simulation
//! results: the accumulator is written after a run finishes and is never
//! consulted by the engine. `tests/determinism.rs` in this crate pins that
//! property.

// Host-side instrumentation: wall-clock here measures the harness itself
// and never feeds the simulation.
#![allow(clippy::disallowed_methods)]

use ecnsharp_net::{Network, Subscriber};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The process-global accumulator: every counter in one struct so the
/// shared state is a single audited item, not seventeen scattered ones.
/// All updates are commutative (`fetch_add`/`fetch_max`), so worker
/// interleaving cannot change a snapshot taken after the joins.
struct Accum {
    events_pushed: AtomicU64,
    events_popped: AtomicU64,
    peak_pending: AtomicU64,
    packets_forwarded: AtomicU64,
    ce_marks: AtomicU64,
    drops: AtomicU64,
    sim_nanos: AtomicU64,
    runs: AtomicU64,
    timers_armed: AtomicU64,
    timers_cancelled: AtomicU64,
    timers_fired: AtomicU64,
    timers_stale_suppressed: AtomicU64,
    heap_spills: AtomicU64,
    flows_failed: AtomicU64,
    no_route_drops: AtomicU64,
    tx_done_pushed: AtomicU64,
    tx_done_elided: AtomicU64,
}

impl Accum {
    const fn new() -> Accum {
        Accum {
            events_pushed: AtomicU64::new(0),
            events_popped: AtomicU64::new(0),
            peak_pending: AtomicU64::new(0),
            packets_forwarded: AtomicU64::new(0),
            ce_marks: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            sim_nanos: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            timers_armed: AtomicU64::new(0),
            timers_cancelled: AtomicU64::new(0),
            timers_fired: AtomicU64::new(0),
            timers_stale_suppressed: AtomicU64::new(0),
            heap_spills: AtomicU64::new(0),
            flows_failed: AtomicU64::new(0),
            no_route_drops: AtomicU64::new(0),
            tx_done_pushed: AtomicU64::new(0),
            tx_done_elided: AtomicU64::new(0),
        }
    }
}

// Host-side throughput accounting, written only after a run completes
// and never consulted by the engine (tests/determinism.rs pins that),
// so it cannot couple shards or perturb results.
static ACCUM: Accum = Accum::new();

/// Fold a finished run's counters into the process-global accumulator.
/// Called by every `run_*` scenario just before it returns. Generic over
/// the network's telemetry subscriber: counters exist (and agree) whether
/// or not one is attached.
pub fn absorb<S: Subscriber>(net: &Network<S>) {
    let c = net.perf();
    ACCUM
        .events_pushed
        .fetch_add(c.events_pushed, Ordering::Relaxed);
    ACCUM
        .events_popped
        .fetch_add(c.events_popped, Ordering::Relaxed);
    ACCUM
        .peak_pending
        .fetch_max(c.peak_pending, Ordering::Relaxed);
    ACCUM
        .packets_forwarded
        .fetch_add(c.packets_forwarded, Ordering::Relaxed);
    ACCUM.ce_marks.fetch_add(c.ce_marks, Ordering::Relaxed);
    ACCUM.drops.fetch_add(c.drops, Ordering::Relaxed);
    ACCUM
        .sim_nanos
        .fetch_add(net.now().as_nanos(), Ordering::Relaxed);
    ACCUM.runs.fetch_add(1, Ordering::Relaxed);
    ACCUM
        .timers_armed
        .fetch_add(c.timers_armed, Ordering::Relaxed);
    ACCUM
        .timers_cancelled
        .fetch_add(c.timers_cancelled, Ordering::Relaxed);
    ACCUM
        .timers_fired
        .fetch_add(c.timers_fired, Ordering::Relaxed);
    ACCUM
        .timers_stale_suppressed
        .fetch_add(c.timers_stale_suppressed, Ordering::Relaxed);
    ACCUM
        .heap_spills
        .fetch_add(c.heap_spills, Ordering::Relaxed);
    ACCUM
        .flows_failed
        .fetch_add(c.flows_failed, Ordering::Relaxed);
    ACCUM
        .no_route_drops
        .fetch_add(c.no_route_drops, Ordering::Relaxed);
    ACCUM
        .tx_done_pushed
        .fetch_add(c.tx_done_pushed, Ordering::Relaxed);
    ACCUM
        .tx_done_elided
        .fetch_add(c.tx_done_elided, Ordering::Relaxed);
}

/// Totals absorbed since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Events scheduled, summed over runs.
    pub events_pushed: u64,
    /// Events processed, summed over runs.
    pub events_popped: u64,
    /// Largest pending-event peak of any single run.
    pub peak_pending: u64,
    /// Packets put on a wire (hop-counted), summed over runs.
    pub packets_forwarded: u64,
    /// CE marks applied, summed over runs.
    pub ce_marks: u64,
    /// Packets dropped, summed over runs.
    pub drops: u64,
    /// Simulated nanoseconds, summed over runs.
    pub sim_nanos: u64,
    /// Number of absorbed runs.
    pub runs: u64,
    /// Wheel timer arms (including re-arms), summed over runs.
    pub timers_armed: u64,
    /// Wheel timers cancelled before firing, summed over runs.
    pub timers_cancelled: u64,
    /// Wheel timers that fired, summed over runs.
    pub timers_fired: u64,
    /// Stale timers suppressed by in-place re-arm — queue events an
    /// epoch-filtering design would have pushed and popped for nothing.
    pub timers_stale_suppressed: u64,
    /// Events scheduled beyond the 1 ms lane horizon (into the heap),
    /// summed over runs.
    pub heap_spills: u64,
    /// Flows aborted after exhausting their RTO retries, summed over runs.
    pub flows_failed: u64,
    /// Switch discards for unreachable destinations, summed over runs.
    pub no_route_drops: u64,
    /// `TxDone` events queued (a packet was waiting behind the one on the
    /// wire), summed over runs.
    pub tx_done_pushed: u64,
    /// `TxDone` events never queued because nothing was waiting, summed
    /// over runs; with `tx_done_pushed`, every transmission started.
    pub tx_done_elided: u64,
}

/// Read the accumulator.
pub fn snapshot() -> Snapshot {
    Snapshot {
        events_pushed: ACCUM.events_pushed.load(Ordering::Relaxed),
        events_popped: ACCUM.events_popped.load(Ordering::Relaxed),
        peak_pending: ACCUM.peak_pending.load(Ordering::Relaxed),
        packets_forwarded: ACCUM.packets_forwarded.load(Ordering::Relaxed),
        ce_marks: ACCUM.ce_marks.load(Ordering::Relaxed),
        drops: ACCUM.drops.load(Ordering::Relaxed),
        sim_nanos: ACCUM.sim_nanos.load(Ordering::Relaxed),
        runs: ACCUM.runs.load(Ordering::Relaxed),
        timers_armed: ACCUM.timers_armed.load(Ordering::Relaxed),
        timers_cancelled: ACCUM.timers_cancelled.load(Ordering::Relaxed),
        timers_fired: ACCUM.timers_fired.load(Ordering::Relaxed),
        timers_stale_suppressed: ACCUM.timers_stale_suppressed.load(Ordering::Relaxed),
        heap_spills: ACCUM.heap_spills.load(Ordering::Relaxed),
        flows_failed: ACCUM.flows_failed.load(Ordering::Relaxed),
        no_route_drops: ACCUM.no_route_drops.load(Ordering::Relaxed),
        tx_done_pushed: ACCUM.tx_done_pushed.load(Ordering::Relaxed),
        tx_done_elided: ACCUM.tx_done_elided.load(Ordering::Relaxed),
    }
}

/// Zero the accumulator (start of a timed section).
pub fn reset() {
    ACCUM.events_pushed.store(0, Ordering::Relaxed);
    ACCUM.events_popped.store(0, Ordering::Relaxed);
    ACCUM.peak_pending.store(0, Ordering::Relaxed);
    ACCUM.packets_forwarded.store(0, Ordering::Relaxed);
    ACCUM.ce_marks.store(0, Ordering::Relaxed);
    ACCUM.drops.store(0, Ordering::Relaxed);
    ACCUM.sim_nanos.store(0, Ordering::Relaxed);
    ACCUM.runs.store(0, Ordering::Relaxed);
    ACCUM.timers_armed.store(0, Ordering::Relaxed);
    ACCUM.timers_cancelled.store(0, Ordering::Relaxed);
    ACCUM.timers_fired.store(0, Ordering::Relaxed);
    ACCUM.timers_stale_suppressed.store(0, Ordering::Relaxed);
    ACCUM.heap_spills.store(0, Ordering::Relaxed);
    ACCUM.flows_failed.store(0, Ordering::Relaxed);
    ACCUM.no_route_drops.store(0, Ordering::Relaxed);
    ACCUM.tx_done_pushed.store(0, Ordering::Relaxed);
    ACCUM.tx_done_elided.store(0, Ordering::Relaxed);
}

/// Outcome of a [`timed`] section: the callee's result plus the rate
/// report.
pub struct Timed<R> {
    /// What the wrapped closure returned.
    pub result: R,
    /// Wall-clock seconds spent.
    pub wall_secs: f64,
    /// Engine counters absorbed during the section.
    pub perf: Snapshot,
}

impl<R> Timed<R> {
    /// Packet-hops per wall-clock second (0 when nothing ran): packets
    /// put on a wire, the unit of work a figure is made of. Unlike
    /// [`Timed::events_per_sec`] it does not fall when the engine learns
    /// to spend fewer events per hop.
    pub fn pkt_hops_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.perf.packets_forwarded as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Events processed per wall-clock second (0 when nothing ran).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.perf.events_popped as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Simulated seconds per wall-clock second, the headline engine rate.
    pub fn sim_secs_per_wall_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.perf.sim_nanos as f64 / 1e9 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The [`Timed::report`] line as one JSON object (no trailing newline),
    /// for the `ECNSHARP_PERF_JSON` sink and machine consumers.
    pub fn to_json(&self, name: &str) -> String {
        let p = &self.perf;
        format!(
            "{{\"name\":{:?},\"wall_secs\":{:.6},\"events_pushed\":{},\"events_popped\":{},\
             \"peak_pending\":{},\"packets_forwarded\":{},\"ce_marks\":{},\"drops\":{},\
             \"sim_nanos\":{},\"runs\":{},\"timers_armed\":{},\"timers_cancelled\":{},\
             \"timers_fired\":{},\"timers_stale_suppressed\":{},\"heap_spills\":{},\
             \"flows_failed\":{},\"no_route_drops\":{},\"tx_done_pushed\":{},\
             \"tx_done_elided\":{},\"pkt_hops_per_sec\":{:.1},\"events_per_sec\":{:.1},\
             \"sim_secs_per_wall_sec\":{:.4}}}",
            name,
            self.wall_secs,
            p.events_pushed,
            p.events_popped,
            p.peak_pending,
            p.packets_forwarded,
            p.ce_marks,
            p.drops,
            p.sim_nanos,
            p.runs,
            p.timers_armed,
            p.timers_cancelled,
            p.timers_fired,
            p.timers_stale_suppressed,
            p.heap_spills,
            p.flows_failed,
            p.no_route_drops,
            p.tx_done_pushed,
            p.tx_done_elided,
            self.pkt_hops_per_sec(),
            self.events_per_sec(),
            self.sim_secs_per_wall_sec(),
        )
    }

    /// One-line human-readable rate report for a figure binary.
    ///
    /// When `ECNSHARP_PERF_JSON=<path>` is set, the same report is also
    /// appended to `<path>` as one JSON line (see [`Timed::to_json`]).
    /// The knob is strict: an empty value, or a path that cannot be
    /// written, prints an error and exits 2 — a perf log that silently
    /// went nowhere is worse than no run.
    pub fn report(&self, name: &str) -> String {
        if let Some(path) = crate::telemetry::perf_json_path_or_exit() {
            if let Err(e) = crate::telemetry::append_line(&path, &self.to_json(name)) {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        let p = &self.perf;
        let ns_per_event = if p.events_popped > 0 {
            self.wall_secs * 1e9 / p.events_popped as f64
        } else {
            0.0
        };
        format!(
            "[perf] {name}: wall {:.2}s | {:.1}M pkt-hops/s | {} events ({:.1}M ev/s, {:.0} ns/ev) | \
             sim {:.3}s over {} runs ({:.2} sim-s/wall-s) | {} pkts fwd, {} CE marks, {} drops | \
             timers: {} armed, {} cancelled, {} fired, {} stale-suppressed | \
             {} heap spills | TxDone: {} queued, {} elided | \
             faults: {} failed flows, {} no-route drops",
            self.wall_secs,
            self.pkt_hops_per_sec() / 1e6,
            p.events_popped,
            self.events_per_sec() / 1e6,
            ns_per_event,
            p.sim_nanos as f64 / 1e9,
            p.runs,
            self.sim_secs_per_wall_sec(),
            p.packets_forwarded,
            p.ce_marks,
            p.drops,
            p.timers_armed,
            p.timers_cancelled,
            p.timers_fired,
            p.timers_stale_suppressed,
            p.heap_spills,
            p.tx_done_pushed,
            p.tx_done_elided,
            p.flows_failed,
            p.no_route_drops,
        )
    }
}

/// Reset the accumulator, run `f`, and return its result together with the
/// wall time and the engine counters it generated. The figure binaries use
/// this so every invocation reports sim-seconds-per-wall-second.
pub fn timed<R>(f: impl FnOnce() -> R) -> Timed<R> {
    reset();
    let t0 = Instant::now();
    let result = f();
    let wall_secs = t0.elapsed().as_secs_f64();
    Timed {
        result,
        wall_secs,
        perf: snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_reports_engine_rate() {
        // A tiny real run: the quick incast micro scenario.
        let t = timed(|| {
            crate::run_incast_micro_with(
                crate::Scheme::DctcpRedTail,
                4,
                1,
                crate::IncastTimeline::Compressed,
            )
        });
        assert!(t.perf.runs >= 1);
        assert!(t.perf.events_popped > 0);
        assert!(t.perf.events_pushed >= t.perf.events_popped);
        assert!(t.perf.sim_nanos > 0);
        assert!(t.perf.packets_forwarded > 0);
        // (The exact identity, queued + elided == transmissions, is pinned
        // in tests/determinism.rs: other tests of this binary absorb into
        // the accumulator concurrently, so a snapshot here can catch one
        // of them mid-absorb.)
        assert!(t.perf.tx_done_elided > 0);
        // Both rates share the wall: their ratio is the counters'.
        assert!(t.pkt_hops_per_sec() > 0.0);
        let ratio = t.pkt_hops_per_sec() / t.events_per_sec();
        let counts = t.perf.packets_forwarded as f64 / t.perf.events_popped as f64;
        assert!((ratio - counts).abs() < 1e-9, "{ratio} vs {counts}");
        let line = t.report("test");
        assert!(line.contains("sim-s/wall-s"), "{line}");
        assert!(line.contains("[perf] test:"), "{line}");
        // The work rate leads; events/s follows it.
        let hops = line.find("pkt-hops/s").expect("pkt-hops/s in the line");
        assert!(
            hops < line.find("ev/s").expect("ev/s in the line"),
            "{line}"
        );
        assert!(
            line.contains(&format!(
                "TxDone: {} queued, {} elided",
                t.perf.tx_done_pushed, t.perf.tx_done_elided
            )),
            "{line}"
        );
        let json = t.to_json("test");
        assert!(json.starts_with("{\"name\":\"test\""), "{json}");
        assert!(json.ends_with('}'), "{json}");
        assert!(json.contains("\"events_popped\":"), "{json}");
        assert!(json.contains("\"sim_secs_per_wall_sec\":"), "{json}");
        assert!(json.contains("\"pkt_hops_per_sec\":"), "{json}");
        assert!(json.contains("\"events_per_sec\":"), "{json}");
        assert!(
            json.contains(&format!("\"tx_done_elided\":{},", t.perf.tx_done_elided)),
            "{json}"
        );
    }
}
