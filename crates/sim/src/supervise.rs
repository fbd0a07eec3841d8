//! Run supervision: deterministic watchdogs, memory budgets, and the
//! structured error taxonomy they trip into.
//!
//! Long sweeps need three guarantees the bare engine does not give:
//! a pathological scenario must not *hang* (zero-delay event cycles, a
//! stalled barrier window), must not *grow without bound* (event queue,
//! packet-ring overflow, transport reassembly state), and must not take
//! the whole process down with an opaque panic. This module provides the
//! vocabulary for all three:
//!
//! - [`Supervision`] — the knob block threaded into the engine. All
//!   budgets are **event-count or sim-time based** (never wall clock, which
//!   clippy's `disallowed_methods` bans) and all default to unset. There is one
//!   run loop whatever the budgets: an unset budget is a guard that is
//!   never consulted. Armed-but-untriggered runs are byte-identical to
//!   runs with no budget set — a property pinned by test — and cost
//!   about 1 % more wall time: what arming adds to that one loop is
//!   `ProgressGuard::on_event` and the memory-breach poll, and
//!   `ecnsharp-bench`'s `supervision_cost` gate (budget 1.05) read a
//!   median armed / unset ratio on a 10 MB DCTCP transfer of 1.010
//!   over 26 runs (Q1–Q3 1.007–1.013, range 1.002–1.018).
//! - [`ProgressGuard`] — the livelock watchdog: counts events popped
//!   without sim-time advancing and trips past a configured budget.
//! - [`MemBreach`] / [`MemComponent`] — a typed report of which bounded
//!   component exceeded its ceiling, carried by
//!   [`SimError::MemBudgetExceeded`].
//! - [`SimError`] — the structured failure taxonomy returned by the
//!   fallible `try_run_*` entry points, serializable to one JSONL line
//!   per failure via [`SimError::to_jsonl`].
//!
//! The guards deliberately live in `sim` (below `net`): the engine core
//! and the shard barrier both consume them, and the experiments crate
//! re-exports them to sweep binaries.

// Hot path (per packet or per event): a panic aborts a whole figure run.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use std::fmt;

/// Which bounded-memory component exceeded its admission ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemComponent {
    /// The central event queue (live scheduled events + armed timers).
    EventQueue,
    /// The pooled switch-ring overflow deques ([`RingArena`] spill space).
    ///
    /// [`RingArena`]: https://docs.rs/
    RingOverflow,
    /// Transport receiver out-of-order reassembly state.
    TransportOoo,
}

impl MemComponent {
    /// Stable machine-readable name (used in JSONL serialization).
    pub fn name(self) -> &'static str {
        match self {
            MemComponent::EventQueue => "event_queue",
            MemComponent::RingOverflow => "ring_overflow",
            MemComponent::TransportOoo => "transport_ooo",
        }
    }
}

/// A typed report of a memory-budget breach: which component, how many
/// live entries it held, the configured ceiling, and (when attributable)
/// the node whose admission crossed the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBreach {
    /// The component that breached.
    pub component: MemComponent,
    /// Live entries at the moment of the breach.
    pub live: u64,
    /// The configured admission ceiling.
    pub ceiling: u64,
    /// Node whose admission crossed the ceiling, when attributable
    /// (`None` for setup-context admissions).
    pub node: Option<u32>,
}

/// Per-shard diagnostic snapshot carried by [`SimError::BarrierStall`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDiag {
    /// Shard index.
    pub shard: u32,
    /// The shard's next-event time in nanoseconds (`u64::MAX` = idle).
    pub clock_ns: u64,
    /// The shard's queued events plus its unstarted flow arrivals.
    pub pending: u64,
    /// The shard's next `(time_ns, tag)` key — a queued event or a flow
    /// arrival, whichever is earlier — when anything is pending.
    pub oldest_key: Option<(u64, u64)>,
}

/// Structured failure taxonomy for supervised runs.
///
/// Returned by the fallible `try_run_until_idle` /
/// `try_run_sharded_until_idle` entry points; the infallible APIs
/// delegate and treat any error as fatal. Serializes to one JSONL line
/// per failure via [`SimError::to_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The engine popped more same-instant events than the configured
    /// budget without sim-time advancing: a zero-delay event cycle.
    Livelock {
        /// Sim-time (ns) at which the cycle spun.
        time_ns: u64,
        /// Events processed at that instant when the guard tripped.
        events_at_instant: u64,
        /// The configured budget (events per instant).
        budget: u64,
        /// Queued events plus unstarted flow arrivals at trip time.
        pending: u64,
        /// The next step's `(time_ns, tag)` key, when anything is pending.
        oldest_key: Option<(u64, u64)>,
    },
    /// No shard advanced the global minimum next-event time across the
    /// configured number of full barrier-window exchanges.
    BarrierStall {
        /// Consecutive windows with a frozen global minimum.
        rounds: u64,
        /// The configured round budget.
        budget: u64,
        /// Per-shard clocks, pending counts, and oldest event keys.
        shards: Vec<ShardDiag>,
    },
    /// A bounded-memory component exceeded its admission ceiling.
    MemBudgetExceeded {
        /// The typed breach report.
        breach: MemBreach,
        /// Sim-time (ns) of the breaching admission.
        time_ns: u64,
    },
    /// A shard worker thread, sweep point or figure binary panicked; the
    /// panic payload is captured as a typed error instead of a traceback.
    WorkerPanic {
        /// The stringified panic payload, prefixed with the point id and
        /// seed when a sweep point panicked.
        msg: String,
    },
}

impl SimError {
    /// Stable machine-readable kind tag (the JSONL `"type"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Livelock { .. } => "Livelock",
            SimError::BarrierStall { .. } => "BarrierStall",
            SimError::MemBudgetExceeded { .. } => "MemBudgetExceeded",
            SimError::WorkerPanic { .. } => "WorkerPanic",
        }
    }

    /// Serialize to exactly one JSONL line (no trailing newline).
    ///
    /// Hand-rolled — the workspace deliberately carries no serde — with
    /// the `"type"` discriminant first so log scrapers can dispatch on a
    /// prefix match.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"type\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            SimError::Livelock {
                time_ns,
                events_at_instant,
                budget,
                pending,
                oldest_key,
            } => {
                push_u64(&mut s, "time_ns", *time_ns);
                push_u64(&mut s, "events_at_instant", *events_at_instant);
                push_u64(&mut s, "budget", *budget);
                push_u64(&mut s, "pending", *pending);
                push_key(&mut s, "oldest_key", *oldest_key);
            }
            SimError::BarrierStall {
                rounds,
                budget,
                shards,
            } => {
                push_u64(&mut s, "rounds", *rounds);
                push_u64(&mut s, "budget", *budget);
                s.push_str(",\"shards\":[");
                for (i, d) in shards.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"shard\":");
                    s.push_str(&d.shard.to_string());
                    push_u64(&mut s, "clock_ns", d.clock_ns);
                    push_u64(&mut s, "pending", d.pending);
                    push_key(&mut s, "oldest_key", d.oldest_key);
                    s.push('}');
                }
                s.push(']');
            }
            SimError::MemBudgetExceeded { breach, time_ns } => {
                push_str(&mut s, "component", breach.component.name());
                push_u64(&mut s, "live", breach.live);
                push_u64(&mut s, "ceiling", breach.ceiling);
                match breach.node {
                    Some(n) => push_u64(&mut s, "node", u64::from(n)),
                    None => s.push_str(",\"node\":null"),
                }
                push_u64(&mut s, "time_ns", *time_ns);
            }
            SimError::WorkerPanic { msg } => push_str(&mut s, "msg", msg),
        }
        s.push('}');
        s
    }
}

/// Append `,"key":N` to a JSON object under construction.
fn push_u64(s: &mut String, key: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

/// Append `,"key":"escaped"` to a JSON object under construction.
fn push_str(s: &mut String, key: &str, v: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let d = (code >> shift) & 0xF;
                    s.push(char::from_digit(d, 16).unwrap_or('0'));
                }
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Append `,"key":[t,tag]` or `,"key":null`.
fn push_key(s: &mut String, key: &str, v: Option<(u64, u64)>) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    match v {
        Some((t, tag)) => {
            s.push('[');
            s.push_str(&t.to_string());
            s.push(',');
            s.push_str(&tag.to_string());
            s.push(']');
        }
        None => s.push_str("null"),
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Livelock {
                time_ns,
                events_at_instant,
                budget,
                ..
            } => write!(
                f,
                "livelock: {events_at_instant} events at t={time_ns}ns \
                 without time advancing (budget {budget})"
            ),
            SimError::BarrierStall {
                rounds,
                budget,
                shards,
            } => write!(
                f,
                "barrier stall: global min frozen for {rounds} window \
                 rounds (budget {budget}, {} shards)",
                shards.len()
            ),
            SimError::MemBudgetExceeded { breach, time_ns } => write!(
                f,
                "memory budget exceeded: {} held {} live entries \
                 (ceiling {}) at t={time_ns}ns",
                breach.component.name(),
                breach.live,
                breach.ceiling
            ),
            SimError::WorkerPanic { msg } => write!(f, "worker panic: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The livelock watchdog: counts events processed without sim-time
/// advancing and trips past a configured per-instant budget.
///
/// Purely event-count based — no wall clock (clippy's `disallowed_methods`) — and observation
/// only: it never perturbs scheduling, so armed-but-untriggered runs are
/// byte-identical to unguarded ones.
#[derive(Debug, Clone, Copy)]
pub struct ProgressGuard {
    budget: u64,
    last_ns: u64,
    at_instant: u64,
}

impl ProgressGuard {
    /// A guard that trips after `budget` events at one sim-time instant.
    pub fn new(budget: u64) -> Self {
        ProgressGuard {
            budget,
            last_ns: u64::MAX,
            at_instant: 0,
        }
    }

    /// Record one processed event at sim-time `now_ns`. Returns `true`
    /// when the per-instant budget is exceeded (the caller should stop
    /// and report [`SimError::Livelock`]).
    #[inline]
    pub fn on_event(&mut self, now_ns: u64) -> bool {
        if now_ns == self.last_ns {
            self.at_instant += 1;
            self.at_instant > self.budget
        } else {
            self.last_ns = now_ns;
            self.at_instant = 1;
            false
        }
    }

    /// Events observed at the current instant (for diagnostics).
    pub fn events_at_instant(&self) -> u64 {
        self.at_instant
    }

    /// The configured per-instant budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

/// Default livelock budget: events the engine may process at a single
/// sim-time instant before the run is declared livelocked. Generously
/// above anything a real topology produces (a full fat-tree k=16 window
/// batch stays orders of magnitude below this) while still bounding a
/// zero-delay cycle to well under a second of wall time.
pub const DEFAULT_LIVELOCK_BUDGET: u64 = 1_000_000;

/// Default barrier-stall budget in window rounds. The conservative
/// window protocol guarantees the global minimum next-event time
/// strictly increases every healthy round (see CONCURRENCY.md), so any
/// repeat is already pathological; a handful of rounds of slack keeps
/// the diagnostic cheap to compute without false positives.
pub const DEFAULT_STALL_ROUNDS: u64 = 8;

/// Default admission ceiling for live events (queue + timers) per
/// engine instance, and for pooled-ring overflow entries per switch.
/// Sized so a healthy full-scale run never approaches it while a
/// runaway still fails fast long before the OOM killer.
pub const DEFAULT_MEM_CEILING: u64 = 50_000_000;

/// Supervision configuration threaded into the engine and the shard
/// barrier. `Default` sets no budget; [`Supervision::armed`] arms every
/// watchdog at its default budget. The run loops are the same either way:
/// latched trips (including transport budgets) and worker panics always
/// surface, and an unset budget is a guard that is never consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Supervision {
    /// Livelock budget: max events at one sim-time instant
    /// (`None` = guard off).
    pub livelock_budget: Option<u64>,
    /// Barrier-stall budget: window rounds with a frozen global minimum
    /// (`None` = guard off).
    pub stall_rounds: Option<u64>,
    /// Event-queue admission ceiling in live events (`None` = unbounded).
    /// It counts queued events and armed timers only: the flows a network
    /// has scheduled but not started wait in its arrival list, outside the
    /// queue, so however many there are, nothing trips before the first
    /// event the run itself pushes.
    pub event_ceiling: Option<u64>,
    /// Pooled-ring overflow ceiling in live spilled packets per switch
    /// (`None` = unbounded).
    pub ring_overflow_ceiling: Option<u64>,
    /// Drill: freeze every shard's window processing so the barrier-stall
    /// detector trips. Sharded runs only. With `stall_rounds` unset the
    /// drill arms the detector at [`DEFAULT_STALL_ROUNDS`] itself, since a
    /// frozen window would otherwise spin forever.
    pub inject_stall: bool,
}

impl Supervision {
    /// Every watchdog armed at its default budget; drills off.
    pub fn armed() -> Self {
        Supervision {
            livelock_budget: Some(DEFAULT_LIVELOCK_BUDGET),
            stall_rounds: Some(DEFAULT_STALL_ROUNDS),
            event_ceiling: Some(DEFAULT_MEM_CEILING),
            ring_overflow_ceiling: Some(DEFAULT_MEM_CEILING),
            inject_stall: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_guard_trips_only_past_budget_at_one_instant() {
        let mut g = ProgressGuard::new(3);
        assert!(!g.on_event(100));
        assert!(!g.on_event(100));
        assert!(!g.on_event(100));
        assert!(g.on_event(100)); // 4th event at t=100 exceeds budget 3
                                  // Advancing time resets the counter.
        let mut g = ProgressGuard::new(3);
        for t in [100, 100, 100, 200, 200, 200] {
            assert!(!g.on_event(t));
        }
        assert!(g.on_event(200));
    }

    #[test]
    fn jsonl_is_one_line_with_type_first() {
        let errs = [
            SimError::Livelock {
                time_ns: 42,
                events_at_instant: 11,
                budget: 10,
                pending: 3,
                oldest_key: Some((42, 7)),
            },
            SimError::BarrierStall {
                rounds: 9,
                budget: 8,
                shards: vec![
                    ShardDiag {
                        shard: 0,
                        clock_ns: 100,
                        pending: 2,
                        oldest_key: Some((100, 1)),
                    },
                    ShardDiag {
                        shard: 1,
                        clock_ns: u64::MAX,
                        pending: 0,
                        oldest_key: None,
                    },
                ],
            },
            SimError::MemBudgetExceeded {
                breach: MemBreach {
                    component: MemComponent::RingOverflow,
                    live: 9,
                    ceiling: 8,
                    node: Some(4),
                },
                time_ns: 77,
            },
            SimError::WorkerPanic {
                msg: "line\nbreak \"quoted\"".into(),
            },
        ];
        for e in &errs {
            let line = e.to_jsonl();
            assert!(!line.contains('\n'), "not one line: {line}");
            assert!(
                line.starts_with(&format!("{{\"type\":\"{}\"", e.kind())),
                "type not first: {line}"
            );
            assert!(line.ends_with('}'), "not an object: {line}");
        }
        // Spot-check escaping survives round-trip visually.
        let p = errs[3].to_jsonl();
        assert!(p.contains("line\\nbreak \\\"quoted\\\""), "{p}");
        // Null node serializes as null, Some as a number.
        assert!(errs[2].to_jsonl().contains("\"node\":4"));
    }

    #[test]
    fn display_is_human_readable() {
        let e = SimError::BarrierStall {
            rounds: 9,
            budget: 8,
            shards: vec![],
        };
        let s = format!("{e}");
        assert!(s.contains("barrier stall"), "{s}");
        assert!(s.contains('9'), "{s}");
    }
}
