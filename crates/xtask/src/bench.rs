//! `cargo xtask bench` — the paired microbench gates.
//!
//! A performance number in this repository is compared against exactly one
//! of two things: its same-run control in `PAIRED_GATES`, or the parent
//! commit through `benchmark/` (`BENCHMARK.json`). This module is the
//! first half. It runs the `ecnsharp-bench` targets with
//! `ECNSHARP_BENCH_JSON` pointed at scratch files under `target/`, then
//! holds each pair to its budget on the ratio of its two rows, measured
//! seconds apart in the one run. Nothing is compared against a committed
//! number: absolute medians on a shared box drift 1.5–2× between the day
//! a baseline is taken and the day it is read (PERFORMANCE.md), the pair
//! ratios do not.
//!
//! The table is closed in both directions: a gate whose rows are absent
//! from the run fails, and so does a row no gate names — renaming or
//! adding a bench cannot silently drop or dodge a gate.

use std::path::Path;
use std::process::Command;

/// One row of shim output: a bench and its timing statistics.
#[derive(Debug, PartialEq)]
struct BenchEntry {
    /// Benchmark group (e.g. `event_queue`).
    group: String,
    /// Benchmark id within the group (e.g. `sparse_bucket_8`); rows from
    /// the compiled-out build carry the [`NO_DEFAULT`] tag.
    bench: String,
    /// Median wall nanoseconds per iteration.
    median_ns: u64,
    /// Minimum wall nanoseconds per iteration.
    min_ns: u64,
}

// ── minimal JSON-line field extraction (registry-free, format is ours) ──

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Parse one shim-emitted bench line.
fn parse_bench_line(line: &str) -> Option<BenchEntry> {
    Some(BenchEntry {
        group: json_str_field(line, "group")?,
        bench: json_str_field(line, "bench")?,
        median_ns: json_u64_field(line, "median_ns")?,
        min_ns: json_u64_field(line, "min_ns")?,
    })
}

/// The cargo flag of the compiled-out build, and (bracketed, appended to
/// the bench name) the tag of every row measured in it — so one bench run
/// from both builds yields two distinct `(group, bench)` rows.
const NO_DEFAULT: &str = "--no-default-features";

/// Which per-bench statistic a pair is compared on (PERFORMANCE.md "One
/// harness" has the 26-run record behind the choice).
#[derive(Debug, Clone, Copy)]
enum Stat {
    /// Per-sample minimum. Both rows come from one process, seconds
    /// apart, and co-tenant interference is strictly additive, so the
    /// minimum is the stable statistic where a median can swing 30%.
    Min,
    /// Median. The rows come from two processes, and a process's single
    /// fastest sample is hostage to where its pages and that instant of
    /// co-tenant load fell: the ratio of two such minima has the heavier
    /// tail.
    Median,
}

/// A same-run pair gate: `subject` may cost at most `budget` × `control`.
struct PairedGate {
    /// Benchmark group both benches report under.
    group: &'static str,
    /// The in-run control.
    control: &'static str,
    /// The bench held against it.
    subject: &'static str,
    /// The statistic compared.
    stat: Stat,
    /// Largest allowed `subject / control` ratio.
    budget: f64,
}

/// Every gate `cargo xtask bench` holds, and thereby every row
/// `ecnsharp-bench` may emit.
const PAIRED_GATES: [PairedGate; 4] = [
    // Armed-but-untriggered watchdogs are one branch and a counter per
    // popped event; like the no-op subscriber, they carry a
    // zero-cost-when-quiet claim (DESIGN.md "Run supervision") and are
    // held to measurement noise.
    PairedGate {
        group: "supervision_cost",
        control: "dctcp_10mb_guards_off",
        subject: "dctcp_10mb_guards_armed",
        stat: Stat::Min,
        budget: 1.03,
    },
    // Working-set gates (PERFORMANCE.md "Footprint follows backlog"):
    // equal work, wider footprint. With lane buffers recycled the dense
    // calendar costs 1.05-1.10x the sparse one per event (1.46x when every
    // lane kept its own buffer); with rings rewinding on drain 384 ports
    // cost 1.05x what 16 do per packet (1.77x when each walked its whole
    // window).
    PairedGate {
        group: "event_queue",
        control: "sparse_bucket_8",
        subject: "dense_bucket_200",
        stat: Stat::Min,
        budget: 1.25,
    },
    PairedGate {
        group: "cache_pressure",
        control: "port_ring_sparse_16",
        subject: "port_ring_sparse_384",
        stat: Stat::Min,
        budget: 1.25,
    },
    // The zero-cost claim of OBSERVABILITY.md §6, measured as stated:
    // with only the no-op subscriber attached, the port fast path costs
    // what it costs with telemetry compiled out.
    PairedGate {
        group: "telemetry_noop",
        control: "port_churn_40k_noop[--no-default-features]",
        subject: "port_churn_40k_noop",
        stat: Stat::Median,
        budget: 1.03,
    },
];

/// The bench invocations of one run, `(target, compiled out)`, in order:
/// the two builds of `engine` are adjacent so the telemetry pair's rows
/// are measured back to back.
const RUNS: [(&str, bool); 4] = [
    ("cache_pressure", false),
    ("supervision_cost", false),
    ("engine", false),
    ("engine", true),
];

/// Run the paired benches and gate every pair. Returns false when a
/// bench fails to build or run, a `PAIRED_GATES` pair is absent from the
/// run or over its budget, or the run holds a row no pair names.
pub fn run(root: &Path) -> bool {
    let scratch = |compiled_out: bool| {
        root.join("target").join(if compiled_out {
            "bench_raw_no_default_features.jsonl"
        } else {
            "bench_raw.jsonl"
        })
    };
    let _ = std::fs::create_dir_all(root.join("target"));
    for compiled_out in [false, true] {
        let _ = std::fs::remove_file(scratch(compiled_out));
    }
    // Compile everything before timing anything, so no build runs
    // between (or heats the box under) two halves of a pair.
    for no_run in [true, false] {
        for (target, compiled_out) in RUNS {
            let mut cmd =
                Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()));
            cmd.args(["bench", "-p", "ecnsharp-bench", "--bench", target])
                .env("ECNSHARP_BENCH_JSON", scratch(compiled_out))
                .current_dir(root);
            if compiled_out {
                cmd.arg(NO_DEFAULT);
            }
            if no_run {
                cmd.arg("--no-run");
            } else {
                println!("bench: running {cmd:?} ...");
            }
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("bench: {cmd:?} failed ({s})");
                    return false;
                }
                Err(e) => {
                    eprintln!("bench: could not launch cargo: {e}");
                    return false;
                }
            }
        }
    }
    let mut entries = Vec::new();
    for compiled_out in [false, true] {
        let path = scratch(compiled_out);
        let raw = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench: no shim output at {}: {e}", path.display());
                return false;
            }
        };
        entries.extend(raw.lines().filter_map(parse_bench_line).map(|mut e| {
            if compiled_out {
                e.bench = format!("{}[{NO_DEFAULT}]", e.bench);
            }
            e
        }));
    }
    println!();
    check_pairs(&entries)
}

/// The gating half of [`run`], split out for unit testing: `true` iff
/// every [`PAIRED_GATES`] pair is present in `entries` and within its
/// budget, and `entries` holds no row outside the table.
fn check_pairs(entries: &[BenchEntry]) -> bool {
    let mut ok = true;
    for gate in &PAIRED_GATES {
        let PairedGate {
            group,
            control,
            subject,
            stat,
            budget,
        } = *gate;
        let find = |name: &str| entries.iter().find(|e| e.group == group && e.bench == name);
        let (Some(c), Some(s)) = (find(control), find(subject)) else {
            for name in [control, subject] {
                if find(name).is_none() {
                    eprintln!(
                        "  {group}/{name}: MISSING — a PAIRED_GATES row the run did not produce"
                    );
                }
            }
            ok = false;
            continue;
        };
        let (what, control_ns, subject_ns) = match stat {
            Stat::Min => ("min", c.min_ns, s.min_ns),
            Stat::Median => ("median", c.median_ns, s.median_ns),
        };
        let ratio = subject_ns as f64 / control_ns as f64;
        if ratio > budget {
            eprintln!(
                "  {group}/{subject}: OVER BUDGET {ratio:.3}x {control}, budget {budget:.2}x (same-run {what} {control_ns} ns -> {subject_ns} ns)"
            );
            ok = false;
        } else {
            println!(
                "  {group}/{subject}: ok ({ratio:.3}x {control}, budget {budget:.2}x, same-run {what} {control_ns} ns -> {subject_ns} ns)"
            );
        }
    }
    for e in entries {
        let gated = PAIRED_GATES
            .iter()
            .any(|g| g.group == e.group && (g.control == e.bench || g.subject == e.bench));
        if !gated {
            eprintln!(
                "  {}/{}: UNGATED ROW — no PAIRED_GATES pair names it; pair it or time it in benchmark/",
                e.group, e.bench
            );
            ok = false;
        }
    }
    if ok {
        println!("bench: {} pairs within budget", PAIRED_GATES.len());
    } else {
        eprintln!("bench: FAILED");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(group: &str, bench: &str, min_ns: u64, median_ns: u64) -> BenchEntry {
        BenchEntry {
            group: group.into(),
            bench: bench.into(),
            median_ns,
            min_ns,
        }
    }

    /// A run holding every gate's two rows at ratio 1.0.
    fn level_run() -> Vec<BenchEntry> {
        PAIRED_GATES
            .iter()
            .flat_map(|g| [g.control, g.subject].map(|b| row(g.group, b, 1_000_000, 1_000_000)))
            .collect()
    }

    /// `level_run` with one row's (min, median) replaced.
    fn run_with(group: &str, bench: &str, min_ns: u64, median_ns: u64) -> Vec<BenchEntry> {
        let mut run = level_run();
        let e = run
            .iter_mut()
            .find(|e| e.group == group && e.bench == bench)
            .expect("row is in the table");
        (e.min_ns, e.median_ns) = (min_ns, median_ns);
        run
    }

    #[test]
    fn parses_shim_line_and_ignores_the_rest() {
        let line = r#"{"group":"event_queue","bench":"sparse_bucket_8","median_ns":27100000,"min_ns":26900000}"#;
        assert_eq!(
            parse_bench_line(line),
            Some(row(
                "event_queue",
                "sparse_bucket_8",
                26_900_000,
                27_100_000
            ))
        );
        assert_eq!(parse_bench_line("== event_queue =="), None);
        assert_eq!(
            parse_bench_line(r#"{"group":"g","bench":"b","median_ns":1}"#),
            None
        );
    }

    #[test]
    fn a_level_run_passes_and_the_budgets_are_unchanged() {
        assert!(check_pairs(&level_run()));
        let budgets: Vec<f64> = PAIRED_GATES.iter().map(|g| g.budget).collect();
        assert_eq!(format!("{budgets:?}"), "[1.03, 1.25, 1.25, 1.03]");
    }

    #[test]
    fn supervision_pair_gates_on_same_run_minima() {
        // Median blown out by a co-tenant burst; the min tells the truth.
        assert!(check_pairs(&run_with(
            "supervision_cost",
            "dctcp_10mb_guards_armed",
            1_020_000,
            1_400_000
        )));
        // A >3% min-to-min gap fails even with an innocuous median.
        assert!(!check_pairs(&run_with(
            "supervision_cost",
            "dctcp_10mb_guards_armed",
            1_050_000,
            1_000_000
        )));
    }

    #[test]
    fn working_set_pairs_gate_on_the_ratio() {
        assert!(check_pairs(&run_with(
            "event_queue",
            "dense_bucket_200",
            1_070_000,
            1_070_000
        )));
        // Per-lane buffers again (1.46x) or rings walking their windows
        // (1.77x) trip their pair.
        assert!(!check_pairs(&run_with(
            "event_queue",
            "dense_bucket_200",
            1_460_000,
            1_460_000
        )));
        assert!(!check_pairs(&run_with(
            "cache_pressure",
            "port_ring_sparse_384",
            1_770_000,
            1_770_000
        )));
    }

    #[test]
    fn telemetry_pair_gates_on_medians_across_the_two_builds() {
        // The compiled-in binary's luckiest sample is 10% off the
        // compiled-out one's; the medians agree.
        assert!(check_pairs(&run_with(
            "telemetry_noop",
            "port_churn_40k_noop",
            1_100_000,
            1_020_000
        )));
        // The table's literal and the tag `run` appends must agree.
        assert_eq!(
            PAIRED_GATES[3].control,
            format!("port_churn_40k_noop[{NO_DEFAULT}]")
        );
        // +5% on the median would pass a 25% budget but must fail here.
        assert!(!check_pairs(&run_with(
            "telemetry_noop",
            "port_churn_40k_noop",
            1_000_000,
            1_050_000
        )));
    }

    #[test]
    fn a_run_missing_one_whole_pair_fails() {
        let mut run = level_run();
        run.retain(|e| e.group != "cache_pressure");
        assert!(!check_pairs(&run));
        // Half a pair (the compiled-out build never ran) fails too.
        let mut run = level_run();
        run.retain(|e| !e.bench.ends_with("[--no-default-features]"));
        assert!(!check_pairs(&run));
    }

    #[test]
    fn a_run_carrying_a_row_no_gate_names_fails() {
        let mut run = level_run();
        run.push(row("event_queue", "push_pop_10k", 700_000, 700_000));
        assert!(!check_pairs(&run));
    }
}
