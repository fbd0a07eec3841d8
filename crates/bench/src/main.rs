//! # ecnsharp-bench
//!
//! The paired microbench gates behind `cargo xtask bench`: one binary
//! that owns both sides of every pair. [`PAIRED_GATES`] holds, per gate,
//! the control and the subject as plain functions plus a budget, so a
//! gate without a measurement or a measurement without a gate cannot be
//! written down.
//!
//! Each pair is sampled **interleaved, one sample at a time, in ABBA
//! order** and gated on the **median of the per-pair ratios**
//! `subject ÷ control`, printed beside the sign count. A co-tenant burst
//! on a shared box lands on a few adjacent samples, so it moves a few
//! ratios and not their median; drift that spans the run hits both
//! sides of a pair alike and ABBA cancels its first-order term.
//!
//! The telemetry pair compares two *builds*, so its control is this same
//! binary built `--no-default-features`, whose path is the one argument:
//!
//! ```text
//! ecnsharp-bench <path to the --no-default-features build>   # run the gates
//! ecnsharp-bench sample <gate>                                # one launch's samples, ns per line
//! ```
//!
//! The first form alternates short `sample` launches of itself and of the
//! other build, again in ABBA order, so code-placement luck is re-drawn
//! per launch instead of being frozen into one process per side.
//! PERFORMANCE.md "Microbenches" has the run-by-run record behind every
//! budget; whole simulations are timed by `benchmark/`.

use ecnsharp_aqm::{DctcpRed, DropTail};
use ecnsharp_net::topology::{dumbbell, Dumbbell};
use ecnsharp_net::{
    CellSlab, EgressPort, FlowCmd, FlowId, NodeId, NoopSubscriber, Packet, PortConfig, Supervision,
};
use ecnsharp_sim::{Duration, EventQueue, Rate, Rng, SimTime};
use ecnsharp_transport::{TcpConfig, TcpStack};
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Wall nanoseconds of one call of `f`.
#[expect(
    clippy::disallowed_methods,
    reason = "a host tool that measures wall-clock execution by definition"
)]
fn time<T>(f: impl FnOnce() -> T) -> u64 {
    let t0 = std::time::Instant::now();
    black_box(f());
    t0.elapsed().as_nanos() as u64
}

/// One timed sample of one side of a pair: set-up untimed, then the wall
/// nanoseconds of the measured body.
type Sample = fn() -> u64;

/// A same-run pair gate: the median of `pairs` ratios `subject ÷ control`
/// may be at most `budget`.
struct PairedGate {
    /// Name printed in the report (and accepted by `sample`).
    name: &'static str,
    /// What the ratio compares, subject first.
    what: &'static str,
    /// `None`: the subject itself, as compiled into the
    /// `--no-default-features` build of this binary.
    control: Option<Sample>,
    subject: Sample,
    pairs: usize,
    budget: f64,
}

/// Every gate `cargo xtask bench` holds.
const PAIRED_GATES: [PairedGate; 4] = [
    // Both sides run the one supervision loop; arming adds one branch
    // and a counter per popped event plus the memory-breach poll per
    // dispatch: about 1 % of this transfer (centre 1.010, Q1-Q3
    // 1.007-1.013 over 26 runs; DESIGN.md "Run supervision"). The
    // budget was set when two loops made it 1-3 % and is kept.
    PairedGate {
        name: "supervision_cost",
        what: "10 MB DCTCP transfer, guards armed / off",
        control: Some(transfer_guards_off),
        subject: transfer_guards_armed,
        pairs: 150,
        budget: 1.05,
    },
    // Calendar lanes hold 16-byte keys and follow occupancy: 50x the
    // bucket density costs the refill sort's log factor over keys
    // (1.16-1.33x over seven runs, median 1.29) and nothing that scales
    // with the lane ring. Sorting the 88-byte events themselves read
    // 1.60-1.86x, so 1.5 fails a return to by-value sorting.
    PairedGate {
        name: "event_queue",
        what: "1 M calendar pops at ~400 / ~8 events per bucket",
        control: Some(|| calendar_steady_state(160)),
        subject: || calendar_steady_state(8_000),
        pairs: 12,
        budget: 1.5,
    },
    // Every FIFO port queues in one packet-cell slab, and a drained cell
    // is the next enqueue's: one packet in flight per port costs the same
    // over 384 ports as over 16 (1.58-4.04x with pre-sized per-port
    // windows walked cyclically).
    PairedGate {
        name: "cache_pressure",
        what: "200 k packets over 384 / 16 ports on one slab",
        control: Some(|| port_cells_sparse(16)),
        subject: || port_cells_sparse(384),
        pairs: 40,
        budget: 1.25,
    },
    // The zero-cost claim of OBSERVABILITY.md §6, measured as stated:
    // with only the no-op subscriber attached, the port fast path costs
    // what it costs with telemetry compiled out.
    PairedGate {
        name: "telemetry_noop",
        what: "40 k-packet port churn, telemetry compiled in / out",
        control: None,
        subject: port_churn_40k_noop,
        pairs: 160,
        budget: 1.03,
    },
];

// ── the statistic ────────────────────────────────────────────────────────

/// One side of a pair as the sampler sees it: a sample, or why there is
/// none (a launch of the other build failed).
type Sampler<'a> = &'a mut dyn FnMut() -> Result<u64, String>;

/// Take `pairs` `(control, subject)` sample pairs in ABBA order: even
/// pairs run the control first, odd pairs the subject, so a linear drift
/// over the run biases neighbouring ratios in opposite directions and
/// their median stays put.
fn abba(pairs: usize, control: Sampler, subject: Sampler) -> Result<Vec<(u64, u64)>, String> {
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let c = control()?;
                Ok((c, subject()?))
            } else {
                let s = subject()?;
                Ok((control()?, s))
            }
        })
        .collect()
}

/// What a gate's `(control, subject)` pairs say: the median of the
/// per-pair ratios `subject ÷ control` (mean of the middle two for even
/// counts), and in how many pairs the subject was slower / faster (ties
/// count for neither). `None` without pairs: no samples is a failure,
/// never a pass.
fn verdict(pairs: &[(u64, u64)]) -> Option<(f64, usize, usize)> {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|&(c, s)| s as f64 / c.max(1) as f64)
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = match ratios.len() {
        0 => return None,
        n if n % 2 == 1 => ratios[mid],
        _ => (ratios[mid - 1] + ratios[mid]) / 2.0,
    };
    let slower = pairs.iter().filter(|(c, s)| s > c).count();
    let faster = pairs.iter().filter(|(c, s)| s < c).count();
    Some((median, slower, faster))
}

// ── the two-binary path ──────────────────────────────────────────────────

/// The line a `sample` launch prints first: which build it is.
fn build_line(telemetry: bool) -> String {
    format!("telemetry {telemetry}")
}

/// `sample <gate>`: print this build's [`build_line`], then, after one
/// untimed warm-up, 8 samples of the gate's subject, one per line.
fn sample_mode(gate: &str) -> ExitCode {
    let Some(g) = PAIRED_GATES.iter().find(|g| g.name == gate) else {
        eprintln!("ecnsharp-bench: no gate named `{gate}`");
        return ExitCode::FAILURE;
    };
    println!("{}", build_line(cfg!(feature = "telemetry")));
    (g.subject)();
    for _ in 0..8 {
        println!("{}", (g.subject)());
    }
    ExitCode::SUCCESS
}

/// Reduce one launch's output to its fastest sample. Within a launch
/// interference only ever adds time, so the minimum is that process's
/// cost; what differs *between* launches is what the pairs average over.
/// Fails unless the launch succeeded, named the expected build, and
/// printed at least one sample and nothing else.
fn parse_launch(succeeded: bool, stdout: &str, telemetry: bool) -> Result<u64, String> {
    if !succeeded {
        return Err("exited non-zero".into());
    }
    let mut lines = stdout.lines();
    let want = build_line(telemetry);
    if lines.next() != Some(&want) {
        return Err(format!("is not the `{want}` build"));
    }
    let samples: Result<Vec<u64>, String> = lines
        .map(|l| {
            l.parse()
                .map_err(|_| format!("printed `{l}`, not a sample"))
        })
        .collect();
    samples?
        .into_iter()
        .min()
        .ok_or_else(|| "printed no samples".into())
}

/// Launch `bin sample <gate>` and reduce it with [`parse_launch`]; every
/// error names the binary.
fn launch(bin: &Path, gate: &str, telemetry: bool) -> Result<u64, String> {
    let out = Command::new(bin)
        .args(["sample", gate])
        .output()
        .map_err(|e| format!("could not launch {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_launch(out.status.success(), &stdout, telemetry)
        .map_err(|e| format!("{} {e}", bin.display()))
}

// ── running the gates ────────────────────────────────────────────────────

/// Sample one gate and print its line; `false` when it is over budget or
/// could not be measured. `this` and `compiled_out` are the two builds of
/// this binary.
fn run_gate(g: &PairedGate, this: &Path, compiled_out: &Path) -> bool {
    let (name, budget) = (g.name, g.budget);
    let pairs = match g.control {
        Some(control) => {
            control();
            (g.subject)();
            abba(g.pairs, &mut || Ok(control()), &mut || Ok((g.subject)()))
        }
        None => abba(
            g.pairs,
            &mut || launch(compiled_out, name, false),
            &mut || launch(this, name, true),
        ),
    };
    match pairs.and_then(|p| verdict(&p).ok_or_else(|| "took no samples".into())) {
        Err(e) => {
            eprintln!("  {name}: NOT MEASURED — {e}");
            false
        }
        Ok((ratio, slower, faster)) => {
            let line = format!(
                "{ratio:.3}x, budget {budget:.2}x ({}; median of {} paired ratios, \
                 subject slower in {slower}, faster in {faster})",
                g.what, g.pairs
            );
            if ratio > budget {
                eprintln!("  {name}: OVER BUDGET {line}");
            } else {
                println!("  {name}: ok {line}");
            }
            ratio <= budget
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["sample", gate] => sample_mode(gate),
        [compiled_out] => {
            let this = std::env::current_exe().expect("the OS names the running binary");
            // Every gate runs even after a miss: the report is the point.
            let failed = PAIRED_GATES
                .iter()
                .filter(|g| !run_gate(g, &this, Path::new(compiled_out)))
                .count();
            if failed == 0 {
                println!("bench: {} pairs within budget", PAIRED_GATES.len());
                ExitCode::SUCCESS
            } else {
                eprintln!("bench: FAILED ({failed} of {})", PAIRED_GATES.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: ecnsharp-bench <--no-default-features build of this binary>\n       \
                 ecnsharp-bench sample <gate>\n(`cargo xtask bench` builds both and runs the first form)"
            );
            ExitCode::FAILURE
        }
    }
}

// ── the measured bodies ──────────────────────────────────────────────────

/// A 40/10 Gbps DCTCP dumbbell with a 10 MB transfer scheduled.
fn transfer_rig() -> Dumbbell {
    let mut d = dumbbell(
        1,
        Rate::from_gbps(40),
        Rate::from_gbps(10),
        Duration::from_micros(5),
        TcpStack::boxed(TcpConfig::dctcp()),
        TcpStack::boxed(TcpConfig::dctcp()),
        || PortConfig::fifo(4_000_000, Box::new(DropTail::new())),
        PortConfig::fifo(1_000_000, Box::new(DctcpRed::with_threshold(65_000))),
    );
    d.net.schedule_flow(
        d.net.now(),
        FlowCmd {
            flow: FlowId(1),
            src: d.a,
            dst: d.b,
            size: 10_000_000,
            class: 0,
            extra_delay: Duration::ZERO,
        },
    );
    d
}

/// The transfer with no budget set, through the infallible entry point.
fn transfer_guards_off() -> u64 {
    let mut d = transfer_rig();
    time(|| {
        d.net.run_until_idle();
        d.net.steps()
    })
}

/// The same transfer with every watchdog and memory ceiling armed and
/// none tripping, through the fallible entry point. Both sides run the
/// same loop, so the pair reads only what the armed guards add to it.
fn transfer_guards_armed() -> u64 {
    let mut d = transfer_rig();
    d.net.set_supervision(Supervision::armed());
    time(|| {
        d.net
            .try_run_until_idle()
            .expect("armed-untriggered guards must not trip");
        d.net.steps()
    })
}

/// Closed loop over the calendar: `pending` fig9-sized events in flight,
/// every pop schedules one successor a uniform 1-40 us ahead (so lanes
/// fill in no particular key order, as content-derived tags fill every
/// fabric lane), 1 M pops. Events per 1 us bucket: `pending / 20`.
fn calendar_steady_state(pending: u64) -> u64 {
    let mut q: EventQueue<[u64; 9]> = EventQueue::new();
    let mut rng = Rng::seed_from_u64(0xCA1E);
    for i in 0..pending {
        q.schedule(SimTime::from_nanos(rng.range_u64(0, 40_000)), [i; 9]);
    }
    time(|| {
        let mut sum = 0u64;
        for _ in 0..1_000_000 {
            let Some((t, e)) = q.pop() else { break };
            sum = sum.wrapping_add(e[0]);
            q.schedule(t + Duration::from_nanos(rng.range_u64(1_000, 40_000)), e);
        }
        sum
    })
}

fn churn_port() -> EgressPort {
    ecnsharp_net::port::bench_port(PortConfig::fifo(
        1_000_000,
        Box::new(DctcpRed::with_threshold(65_000)),
    ))
}

/// 200 k packets through `count` ports sharing one cell slab,
/// round-robin, each transmitted before the next arrives: one packet in
/// flight per port, the regime ECN# keeps a lightly loaded fabric in.
/// Each drained cell is the next enqueue's, so 384 ports touch one line,
/// not 384 buffer-sized windows.
fn port_cells_sparse(count: usize) -> u64 {
    let mut cells = CellSlab::new();
    let mut ports: Vec<EgressPort> = (0..count).map(|_| churn_port()).collect();
    time(|| {
        let (src, dst) = (NodeId(0), NodeId(1));
        let mut sub = NoopSubscriber;
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        for i in 0..200_000u64 {
            let port = &mut ports[i as usize % count];
            let pkt = Packet::data(FlowId(i % 512), src, dst, i * 1_460, 1_460);
            port.bench_enqueue(now, pkt, &mut cells, &mut sub);
            if let Some((_, tx)) = port.bench_next_tx(now, || 0.5, &mut cells, &mut sub) {
                now += tx;
                sent += 1;
            }
        }
        sent
    })
}

/// The port's enqueue path. Outlined, with [`next_tx`], so both builds
/// time the same call structure: left to the inliner, the compiled-out
/// build folds the whole port path into the loop and the compiled-in
/// build (larger bodies before `S::ENABLED` folds) does not, and the
/// pair reads 1.25-1.30x — the inliner's verdict on this harness, not
/// the cost of an emission site.
#[inline(never)]
fn enqueue(port: &mut EgressPort, now: SimTime, pkt: Packet, cells: &mut CellSlab) {
    port.bench_enqueue(now, pkt, cells, &mut NoopSubscriber);
}

/// The port's dequeue path (see [`enqueue`]).
#[inline(never)]
fn next_tx(
    port: &mut EgressPort,
    now: SimTime,
    cells: &mut CellSlab,
) -> Option<(Packet, Duration)> {
    port.bench_next_tx(now, || 0.5, cells, &mut NoopSubscriber)
}

/// One egress port through 40 k enqueue/drain cycles with only the no-op
/// subscriber attached — the telemetry hot path in isolation, long and
/// allocation-free in the timed region to keep a 3 % budget above noise.
fn port_churn_40k_noop() -> u64 {
    let mut port = churn_port();
    let mut cells = CellSlab::new();
    time(|| {
        let (src, dst) = (NodeId(0), NodeId(1));
        let mut now = SimTime::ZERO;
        let mut popped = 0u64;
        for i in 0..black_box(40_000u64) {
            let pkt = Packet::data(FlowId(1), src, dst, i * 1_500, 1_500);
            enqueue(&mut port, now, pkt, &mut cells);
            // Drain in small batches so both the enqueue and dequeue
            // emission sites run with a non-trivial standing queue.
            if i % 8 == 7 {
                while let Some((_, tx)) = next_tx(&mut port, now, &mut cells) {
                    now += tx;
                    popped += 1;
                }
            }
            now += Duration::from_nanos(100);
        }
        while let Some((_, tx)) = next_tx(&mut port, now, &mut cells) {
            now += tx;
            popped += 1;
        }
        popped
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` pairs at ratio `r` (control 1 ms).
    fn level(n: usize, r: f64) -> Vec<(u64, u64)> {
        vec![(1_000_000, (1e6 * r) as u64); n]
    }

    /// `(ratio to 3 decimals, slower, faster)`: exact comparisons without
    /// comparing floats.
    fn read(pairs: &[(u64, u64)]) -> (String, usize, usize) {
        let (ratio, slower, faster) = verdict(pairs).expect("pairs were given");
        (format!("{ratio:.3}"), slower, faster)
    }

    fn passes(pairs: &[(u64, u64)], budget: f64) -> bool {
        verdict(pairs).is_some_and(|(ratio, ..)| ratio <= budget)
    }

    #[test]
    fn the_verdict_is_the_median_ratio_and_the_sign_count() {
        // A co-tenant burst: one subject sample 10x slow, then one
        // control sample (which a ratio of means, or of minima over few
        // samples, would read as the subject getting faster).
        let (mut burst_on_subject, mut burst_on_control) = (level(20, 1.0), level(20, 1.0));
        burst_on_subject[7].1 *= 10;
        burst_on_control[7].0 *= 10;
        type Case = (&'static str, Vec<(u64, u64)>, (&'static str, usize, usize));
        let cases: [Case; 6] = [
            ("all ties", level(7, 1.0), ("1.000", 0, 0)),
            (
                "odd n",
                vec![(100, 90), (100, 100), (100, 130)],
                ("1.000", 1, 1),
            ),
            // Even n: the mean of the middle two ratios, 1.00 and 1.10.
            (
                "even n",
                vec![(100, 90), (100, 100), (100, 110), (100, 130)],
                ("1.050", 2, 1),
            ),
            ("outlier subject sample", burst_on_subject, ("1.000", 1, 0)),
            ("outlier control sample", burst_on_control, ("1.000", 0, 1)),
            ("uniform +5 %", level(20, 1.05), ("1.050", 20, 0)),
        ];
        for (case, pairs, (ratio, slower, faster)) in cases {
            assert_eq!(read(&pairs), (ratio.to_string(), slower, faster), "{case}");
        }
    }

    #[test]
    fn budgets_pass_and_fail_where_they_should() {
        assert!(passes(&level(20, 1.02), 1.03));
        assert!(!passes(&level(20, 1.05), 1.03));
        // +5 % over budget fails whatever the budget is.
        assert!(!passes(&level(20, 1.25 * 1.05), 1.25));
        let mut burst = level(20, 1.0);
        burst[7].1 *= 10;
        assert!(passes(&burst, 1.03));
        // No pairs is a failure, not a pass.
        assert!(verdict(&[]).is_none());
        assert!(!passes(&[], 1.03));
    }

    #[test]
    fn abba_order_cancels_a_linear_drift() {
        // Both sides cost `t + k * i` at the `i`-th sample taken, whichever
        // side takes it: a box slowing down 1 % per sample.
        let drifting = |order: fn(usize, Sampler, Sampler) -> Vec<(u64, u64)>| {
            let i = std::cell::Cell::new(0u64);
            let mut tick = || {
                i.set(i.get() + 1);
                Ok(1_000_000 + 10_000 * i.get())
            };
            let mut tock = tick;
            verdict(&order(20, &mut tick, &mut tock)).unwrap().0
        };
        let abba_ratio = drifting(|n, c, s| abba(n, c, s).unwrap());
        assert!((abba_ratio - 1.0).abs() < 1e-4, "{abba_ratio}");
        // The same drift sampled control-first every time reads as a
        // slower subject.
        let abab_ratio = drifting(|n, c, s| (0..n).map(|_| (c().unwrap(), s().unwrap())).collect());
        assert!(abab_ratio > 1.005, "{abab_ratio}");
    }

    #[test]
    fn abba_stops_at_the_first_failed_sample() {
        let mut taken = 0;
        let got = abba(10, &mut || Err("control broke".into()), &mut || {
            taken += 1;
            Ok(1)
        });
        assert_eq!(got, Err("control broke".to_string()));
        assert_eq!(taken, 0);
    }

    #[test]
    fn a_launch_reduces_to_its_fastest_sample_or_an_error() {
        let parse = |ok, out| parse_launch(ok, out, false);
        assert_eq!(parse(true, "telemetry false\n1200\n1100\n1900\n"), Ok(1100));
        let err = |ok, out| parse(ok, out).unwrap_err();
        assert!(err(false, "telemetry false\n1200\n").contains("exited non-zero"));
        for not_the_build in ["", "running 0 tests\n", "telemetry true\n1200\n"] {
            assert!(err(true, not_the_build).contains("not the `telemetry false` build"));
        }
        assert!(err(true, "telemetry false\n").contains("no samples"));
        assert!(err(true, "telemetry false\n1200\n12e3\n").contains("`12e3`, not a sample"));
    }

    /// End to end through a real process: the test harness binary stands
    /// in for a control that prints garbage, a missing path for one that
    /// cannot start; both fail the gate and name the binary.
    #[test]
    fn the_two_binary_gate_fails_by_name_on_a_control_it_cannot_read() {
        let harness = std::env::current_exe().unwrap();
        let e = launch(&harness, "telemetry_noop", false).unwrap_err();
        assert!(e.contains(&harness.display().to_string()), "{e}");
        let missing = Path::new("/nonexistent/ecnsharp-bench");
        let e = launch(missing, "telemetry_noop", false).unwrap_err();
        assert!(
            e.contains("could not launch /nonexistent/ecnsharp-bench"),
            "{e}"
        );
        let gate = PAIRED_GATES
            .iter()
            .find(|g| g.control.is_none())
            .expect("the telemetry pair is in the table");
        assert!(!run_gate(gate, &harness, missing));
    }

    #[test]
    fn gate_names_are_unique_and_budgets_are_as_documented() {
        let mut names: Vec<_> = PAIRED_GATES.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PAIRED_GATES.len());
        let budgets: Vec<f64> = PAIRED_GATES.iter().map(|g| g.budget).collect();
        assert_eq!(format!("{budgets:?}"), "[1.05, 1.5, 1.25, 1.03]");
    }
}
