//! Run-wide engine performance accounting for the figure binaries.
//!
//! Every scenario run absorbs its network's [`PerfCounters`] into a
//! process-global accumulator on completion (one lock around one
//! [`Snapshot`], so the [`crate::parallel_map`] worker threads can report
//! concurrently), and the binaries wrap their figure computation in
//! [`timed`] to print an engine-rate line: packet-hops per second (work
//! done — the rate that survives a change to how many events a hop costs),
//! events processed and ns/event beside it, and — the number the ROADMAP
//! cares about — simulated seconds per wall-clock second.
//!
//! Reading (or not reading) these counters cannot change simulation
//! results: the accumulator is written after a run finishes and is never
//! consulted by the engine. `tests/determinism.rs` in this crate pins that
//! property.

#![expect(
    clippy::disallowed_methods,
    reason = "host-side instrumentation: the wall clock times the harness, never the simulation"
)]

use ecnsharp_net::{Network, PerfCounters, Subscriber};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Totals absorbed since the last [`reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Engine counters summed over runs, except `peak_pending`: the
    /// largest peak of any single run.
    pub counters: PerfCounters,
    /// Simulated nanoseconds, summed over runs.
    pub sim_nanos: u64,
    /// Number of absorbed runs.
    pub runs: u64,
}

impl Snapshot {
    /// Fold one finished run in. Sums and a max commute, so the order in
    /// which worker threads fold their runs cannot change the total.
    fn fold(&mut self, run: &PerfCounters, sim_nanos: u64) {
        let peak = self.counters.peak_pending.max(run.peak_pending);
        self.counters.absorb(run);
        self.counters.peak_pending = peak;
        self.sim_nanos += sim_nanos;
        self.runs += 1;
    }
}

/// The process-global accumulator: one [`Snapshot`] behind one lock, so
/// the shared state is a single audited item. `None` reads as all zeros.
struct Accum(Mutex<Option<Snapshot>>);

impl Accum {
    const fn new() -> Accum {
        Accum(Mutex::new(None))
    }
}

// Host-side throughput accounting, written only after a run completes
// and never consulted by the engine (tests/determinism.rs pins that),
// so it cannot couple shards or perturb results.
static ACCUM: Accum = Accum::new();

/// The accumulator, locked. A poisoned lock still holds whole runs: it
/// is held only across a fold, which adds integers.
fn accum() -> MutexGuard<'static, Option<Snapshot>> {
    ACCUM.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fold a finished run's counters into the process-global accumulator.
/// Called by every `run_*` scenario just before it returns. Generic over
/// the network's telemetry subscriber: counters exist (and agree) whether
/// or not one is attached.
pub fn absorb<S: Subscriber>(net: &Network<S>) {
    let run = net.perf();
    accum()
        .get_or_insert_with(Snapshot::default)
        .fold(&run, net.now().as_nanos());
}

/// Read the accumulator.
pub fn snapshot() -> Snapshot {
    accum().unwrap_or_default()
}

/// Zero the accumulator (start of a timed section).
pub fn reset() {
    *accum() = None;
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
    /// `n` per wall-clock second (0 when nothing ran).
    fn per_wall_sec(&self, n: f64) -> f64 {
        if self.wall_secs > 0.0 {
            n / self.wall_secs
        } else {
            0.0
        }
    }

    /// Packet-hops per wall-clock second: packets put on a wire, the unit
    /// of work a figure is made of. Unlike [`Timed::events_per_sec`] it
    /// does not fall when the engine learns to spend fewer events per hop.
    pub fn pkt_hops_per_sec(&self) -> f64 {
        self.per_wall_sec(self.perf.counters.packets_forwarded as f64)
    }

    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.per_wall_sec(self.perf.counters.events_popped as f64)
    }

    /// Simulated seconds per wall-clock second, the headline engine rate.
    pub fn sim_secs_per_wall_sec(&self) -> f64 {
        self.per_wall_sec(self.perf.sim_nanos as f64 / 1e9)
    }

    /// The [`Timed::report`] line as one JSON object (no trailing newline),
    /// for the `ECNSHARP_PERF_JSON` sink and machine consumers.
    pub fn to_json(&self, name: &str) -> String {
        let p = &self.perf;
        let mut json = format!(
            "{{\"name\":{name:?},\"wall_secs\":{:.6},\"sim_nanos\":{},\"runs\":{}",
            self.wall_secs, p.sim_nanos, p.runs
        );
        for (key, value) in p.counters.fields() {
            json.push_str(&format!(",\"{key}\":{value}"));
        }
        json.push_str(&format!(
            ",\"pkt_hops_per_sec\":{:.1},\"events_per_sec\":{:.1},\"sim_secs_per_wall_sec\":{:.4}}}",
            self.pkt_hops_per_sec(),
            self.events_per_sec(),
            self.sim_secs_per_wall_sec(),
        ));
        json
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
        let c = &p.counters;
        let ns_per_event = if c.events_popped > 0 {
            self.wall_secs * 1e9 / c.events_popped as f64
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
            c.events_popped,
            self.events_per_sec() / 1e6,
            ns_per_event,
            p.sim_nanos as f64 / 1e9,
            p.runs,
            self.sim_secs_per_wall_sec(),
            c.packets_forwarded,
            c.ce_marks,
            c.drops,
            c.timers_armed,
            c.timers_cancelled,
            c.timers_fired,
            c.timers_stale_suppressed,
            c.heap_spills,
            c.tx_done_pushed,
            c.tx_done_elided,
            c.flows_failed,
            c.no_route_drops,
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

    /// A counter set whose every field differs from every other, and from
    /// every field of `distinct(b)` for `b != base`.
    fn distinct(base: u64) -> PerfCounters {
        PerfCounters {
            events_pushed: base + 1,
            events_popped: base + 2,
            peak_pending: base + 3,
            packets_forwarded: base + 4,
            ce_marks: base + 5,
            drops: base + 6,
            timers_armed: base + 7,
            timers_cancelled: base + 8,
            timers_fired: base + 9,
            timers_stale_suppressed: base + 10,
            heap_spills: base + 11,
            flows_failed: base + 12,
            no_route_drops: base + 13,
            burst_drops: base + 14,
            tx_done_pushed: base + 15,
            tx_done_elided: base + 16,
        }
    }

    #[test]
    fn fold_sums_every_counter_but_keeps_the_largest_peak() {
        let (a, b) = (distinct(1000), distinct(20));
        let mut total = Snapshot::default();
        total.fold(&a, 5);
        total.fold(&b, 7);
        assert_eq!((total.sim_nanos, total.runs), (12, 2));
        let folded = total.counters.fields();
        for ((name, got), ((_, x), (_, y))) in folded
            .into_iter()
            .zip(a.fields().into_iter().zip(b.fields()))
        {
            let want = if name == "peak_pending" {
                x.max(y)
            } else {
                x + y
            };
            assert_eq!(got, want, "{name}");
        }
        // The other fold order gives the same total.
        let mut reversed = Snapshot::default();
        reversed.fold(&b, 7);
        reversed.fold(&a, 5);
        assert_eq!(reversed, total);
    }

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
        assert!(t.perf.counters.events_popped > 0);
        assert!(t.perf.counters.events_pushed >= t.perf.counters.events_popped);
        assert!(t.perf.sim_nanos > 0);
        assert!(t.perf.counters.packets_forwarded > 0);
        // (The exact identity, queued + elided == transmissions, is pinned
        // in tests/determinism.rs: other tests of this binary absorb into
        // the accumulator concurrently, and their runs may lose packets on
        // the wire.)
        assert!(t.perf.counters.tx_done_elided > 0);
        // Both rates share the wall: their ratio is the counters'.
        assert!(t.pkt_hops_per_sec() > 0.0);
        let ratio = t.pkt_hops_per_sec() / t.events_per_sec();
        let counts =
            t.perf.counters.packets_forwarded as f64 / t.perf.counters.events_popped as f64;
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
                t.perf.counters.tx_done_pushed, t.perf.counters.tx_done_elided
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
            json.contains(&format!(
                "\"tx_done_elided\":{},",
                t.perf.counters.tx_done_elided
            )),
            "{json}"
        );
    }
}
