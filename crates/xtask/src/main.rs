//! `cargo xtask` — workspace automation entry point.
//!
//! Subcommands:
//!
//! - `lint` — run the determinism + shard-safety lint pass (R1-R11) over
//!   the workspace, including the `WAIVERS.budget` exact-count check;
//!   non-zero exit on any finding. `lint --json` prints the
//!   machine-readable violation + waiver inventory to stdout instead.
//! - `selftest` — prove each rule fires on its seeded fixture violation.
//! - `ci` — fmt-check → clippy → lint (+ JSON artifact) → selftest →
//!   release build → `benchmark/` package tests (release) → tests
//!   (default features, then `strict-invariants`)
//!   → race harness (release) → sharded-determinism gate (the
//!   serial-vs-sharded byte-equivalence suite under `strict-invariants`;
//!   see CONCURRENCY.md) → `--no-default-features` build and tests
//!   → quick-scale chaos smoke run under
//!   `strict-invariants` → chaos fault drills (injected worker panic,
//!   barrier stall and livelock must each fail loudly with a structured
//!   JSONL error line and partial CSVs) → rustdoc gate
//!   (`cargo doc --no-deps` with `-Dwarnings`, then `cargo test --doc`).
//! - `bench` — build `ecnsharp-bench` in its default and its
//!   `--no-default-features` build and run the former against the latter:
//!   four same-run pairs, each gated on the median of its interleaved
//!   per-pair ratios (see PERFORMANCE.md). A timing gate on a shared box,
//!   so opt-in and not part of `ci`; whole-simulation timing is
//!   `benchmark/`'s job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::{Command, ExitCode};
// xtask is host-side tooling: timing CI steps with the wall clock is the
// whole point here. R1 only scopes to sim-facing crates so no lint
// waiver is needed (R11 would flag one as stale); clippy still needs
// the attribute.
#[allow(clippy::disallowed_methods)]
mod timing {
    /// Wall-clock seconds spent in `f`.
    pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = std::time::Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.get(1).map(String::as_str) == Some("--json") => exit_for(lint_json()),
        Some("lint") => exit_for(lint()),
        Some("selftest") => exit_for(selftest()),
        Some("ci") => ci(),
        Some("bench") => exit_for(xtask::bench::run(&xtask::workspace_root())),
        Some("help") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown xtask subcommand `{other}`\n");
            print_help();
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "cargo xtask <command>\n\n\
         commands:\n  \
         lint        determinism + shard-safety lint (rules R1-R11) incl. the\n              \
         WAIVERS.budget check; `lint --json` prints the machine-\n              \
         readable violation + waiver inventory\n  \
         selftest    verify each lint rule fires on its seeded fixture\n  \
         ci          fmt-check -> clippy -> lint -> selftest -> build -> tests ->\n              \
         race harness -> sharded determinism -> chaos smoke -> chaos drills -> rustdoc gate\n  \
         bench       run the four paired microbench gates; fail when a pair's\n              \
         median same-run ratio misses its budget"
    );
}

fn exit_for(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn lint() -> bool {
    let root = xtask::workspace_root();
    let (result, secs) = timing::timed(|| xtask::analyze_workspace(&root));
    match result {
        Ok(report) if report.violations.is_empty() => {
            if let Err(e) = xtask::check_waiver_budget(&root, &report) {
                eprintln!("lint: {e}");
                return false;
            }
            println!(
                "lint: workspace clean (rules R1-R11, {} waiver(s) within budget, {secs:.2}s)",
                report.waivers.len()
            );
            true
        }
        Ok(report) => {
            for v in &report.violations {
                eprintln!("{v}");
            }
            eprintln!("\nlint: {} violation(s)", report.violations.len());
            false
        }
        Err(e) => {
            eprintln!("lint: walk failed: {e}");
            false
        }
    }
}

/// `lint --json`: print the machine-readable violation + waiver
/// inventory to stdout; exit non-zero on violations or budget drift
/// (the JSON is emitted either way, for CI artifact upload).
fn lint_json() -> bool {
    let root = xtask::workspace_root();
    match xtask::analyze_workspace(&root) {
        Ok(report) => {
            print!("{}", report.to_json());
            let budget_ok = match xtask::check_waiver_budget(&root, &report) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("lint: {e}");
                    false
                }
            };
            report.violations.is_empty() && budget_ok
        }
        Err(e) => {
            eprintln!("lint: walk failed: {e}");
            false
        }
    }
}

fn selftest() -> bool {
    match xtask::selftest::run(&xtask::workspace_root()) {
        Ok(()) => {
            println!(
                "selftest: every rule R1-R11 fires on its seeded violation; waivers \
                 suppress; stale waivers are rejected"
            );
            true
        }
        Err(e) => {
            eprintln!("selftest FAILED: {e}");
            false
        }
    }
}

/// One external CI step; `required` distinguishes hard failures from
/// steps skipped because the host lacks the component.
fn run_step(name: &str, mut cmd: Command, required: bool) -> Result<(), ()> {
    print!("ci: {name} ... ");
    let (status, secs) = timing::timed(|| cmd.status());
    match status {
        Ok(s) if s.success() => {
            println!("ok ({secs:.1}s)");
            Ok(())
        }
        Ok(s) => {
            println!("FAILED ({s})");
            Err(())
        }
        Err(e) if !required => {
            println!("skipped (unavailable: {e})");
            Ok(())
        }
        Err(e) => {
            println!("FAILED to launch: {e}");
            Err(())
        }
    }
}

fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
}

/// Run the quick chaos sweep with a fault-injection drill armed and
/// assert the supervised failure contract: nonzero exit, a structured
/// JSONL error line on stderr containing `expect_err`, and partial CSVs
/// on disk (the surviving points still produce output).
fn chaos_drill(name: &str, envs: &[(&str, &str)], expect_err: &str) -> Result<(), ()> {
    print!("ci: {name} ... ");
    let tmp = std::env::temp_dir().join("ecnsharp-ci-chaos-drill");
    let _ = std::fs::remove_dir_all(&tmp);
    let mut c = cargo();
    c.args([
        "run",
        "--release",
        "-p",
        "ecnsharp-experiments",
        "--bin",
        "chaos",
    ]);
    c.env("ECNSHARP_SCALE", "quick");
    c.env("ECNSHARP_RESULTS", &tmp);
    for (k, v) in envs {
        c.env(k, v);
    }
    let (out, secs) = timing::timed(|| c.output());
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            println!("FAILED to launch: {e}");
            return Err(());
        }
    };
    if out.status.success() {
        println!("FAILED (drill run exited 0; the injected fault never surfaced)");
        return Err(());
    }
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !stderr.contains(expect_err) {
        println!("FAILED (stderr carries no {expect_err} JSONL line)");
        eprint!("{stderr}");
        return Err(());
    }
    for csv in ["chaos_fct.csv", "chaos_marks.csv", "chaos_aborts.csv"] {
        let path = tmp.join(csv);
        match std::fs::metadata(&path) {
            Ok(m) if m.len() > 0 => {}
            _ => {
                println!("FAILED (partial CSV {} missing or empty)", path.display());
                return Err(());
            }
        }
    }
    println!("ok ({secs:.1}s)");
    Ok(())
}

/// One named CI step, deferred so earlier failures short-circuit later work.
type CiStep<'a> = (&'a str, Box<dyn FnOnce() -> Result<(), ()>>);

fn ci() -> ExitCode {
    let root = xtask::workspace_root();
    let steps: Vec<CiStep> = vec![
        (
            "fmt --check",
            Box::new(|| {
                let mut c = cargo();
                c.args(["fmt", "--all", "--", "--check"]);
                // rustfmt is optional on minimal hosts; missing component
                // surfaces as a launch error handled by required=false at
                // the Command level, but cargo itself exists, so probe the
                // component first.
                let probe = cargo().args(["fmt", "--version"]).output();
                if !matches!(probe, Ok(ref o) if o.status.success()) {
                    println!("ci: fmt --check ... skipped (rustfmt not installed)");
                    return Ok(());
                }
                run_step("fmt --check", c, true)
            }),
        ),
        (
            "clippy",
            Box::new(|| {
                let probe = cargo().args(["clippy", "--version"]).output();
                if !matches!(probe, Ok(ref o) if o.status.success()) {
                    println!("ci: clippy ... skipped (clippy not installed)");
                    return Ok(());
                }
                let mut c = cargo();
                c.args(["clippy", "--workspace", "--all-targets"]);
                run_step("clippy (workspace deny-list)", c, true)
            }),
        ),
        (
            "xtask lint",
            Box::new(|| if lint() { Ok(()) } else { Err(()) }),
        ),
        (
            "lint json artifact",
            Box::new(|| {
                // Machine-readable inventory for CI artifact upload; the
                // pass/fail gate already ran in the previous step, so
                // this only fails if the report cannot be produced.
                let root = xtask::workspace_root();
                let report = match xtask::analyze_workspace(&root) {
                    Ok(r) => r,
                    Err(e) => {
                        println!("ci: lint json artifact ... FAILED ({e})");
                        return Err(());
                    }
                };
                let out = root.join("target/lint-report.json");
                if let Some(dir) = out.parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                match std::fs::write(&out, report.to_json()) {
                    Ok(()) => {
                        println!("ci: lint json artifact ... ok ({})", out.display());
                        Ok(())
                    }
                    Err(e) => {
                        println!("ci: lint json artifact ... FAILED ({e})");
                        Err(())
                    }
                }
            }),
        ),
        (
            "xtask selftest",
            Box::new(|| if selftest() { Ok(()) } else { Err(()) }),
        ),
        (
            "build --release",
            Box::new(|| {
                let mut c = cargo();
                c.args(["build", "--release", "--workspace"]);
                run_step("build --release", c, true)
            }),
        ),
        (
            "benchmark package",
            Box::new(|| {
                // `benchmark/` is a workspace of its own that the steps
                // above never build, yet it calls this workspace's public
                // API: its contract, parity and `--quick` tests are what
                // notices an API removal.
                let mut c = cargo();
                c.args([
                    "test",
                    "--release",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                ]);
                run_step("test benchmark/ (release)", c, true)
            }),
        ),
        (
            "test",
            Box::new(|| {
                let mut c = cargo();
                c.args(["test", "--workspace", "-q"]);
                run_step("test (default features)", c, true)
            }),
        ),
        (
            "test strict-invariants",
            Box::new(|| {
                let mut c = cargo();
                c.args([
                    "test",
                    "--workspace",
                    "--features",
                    "strict-invariants",
                    "-q",
                ]);
                run_step("test (strict-invariants)", c, true)
            }),
        ),
        (
            "race harness",
            Box::new(|| {
                // Shuffled-schedule determinism drill in release mode:
                // try_parallel_map + telemetry merges under randomized
                // worker interleavings must stay byte-identical
                // (ROADMAP item 1 pre-flight; see
                // crates/experiments/tests/race_harness.rs).
                let mut c = cargo();
                c.args([
                    "test",
                    "--release",
                    "-p",
                    "ecnsharp-experiments",
                    "--test",
                    "race_harness",
                    "-q",
                ]);
                run_step("race harness (release, shuffled schedules)", c, true)
            }),
        ),
        (
            "sharded determinism",
            Box::new(|| {
                // Conservative-PDES replay gate (CONCURRENCY.md): for the
                // same seed, sharded runs must be byte-identical to the
                // serial event loop — figure CSVs, chaos ledgers,
                // MarkStats — with invariant checks armed.
                let mut c = cargo();
                c.args([
                    "test",
                    "--release",
                    "-p",
                    "ecnsharp-experiments",
                    "--features",
                    "strict-invariants",
                    "--test",
                    "shard_equivalence",
                    "-q",
                ]);
                run_step("sharded determinism (strict-invariants, release)", c, true)
            }),
        ),
        (
            "build --no-default-features",
            Box::new(|| {
                // Telemetry compiled out entirely: the emission sites must
                // vanish cleanly, not just no-op (OBSERVABILITY.md).
                // The compiled-out `ecnsharp-bench` is the control of
                // `xtask bench`'s telemetry pair.
                let mut c = cargo();
                c.args([
                    "build",
                    "--workspace",
                    "--all-targets",
                    "--no-default-features",
                ]);
                run_step("build (--no-default-features, all targets)", c, true)
            }),
        ),
        (
            "test --no-default-features",
            Box::new(|| {
                let mut c = cargo();
                c.args(["test", "--workspace", "--no-default-features", "-q"]);
                run_step("test (--no-default-features)", c, true)
            }),
        ),
        (
            "chaos smoke",
            Box::new(|| {
                // Crash-proof-runner drill: the quick chaos sweep under
                // strict-invariants, results to a temp dir so CI never
                // pollutes the tracked results/.
                let tmp = std::env::temp_dir().join("ecnsharp-ci-chaos");
                let mut c = cargo();
                c.args([
                    "run",
                    "--release",
                    "-p",
                    "ecnsharp-experiments",
                    "--features",
                    "strict-invariants",
                    "--bin",
                    "chaos",
                ]);
                c.env("ECNSHARP_SCALE", "quick");
                c.env("ECNSHARP_RESULTS", &tmp);
                run_step("chaos smoke (quick, strict-invariants)", c, true)
            }),
        ),
        (
            "chaos panic drill",
            Box::new(|| {
                // Crash-proof-runner drill: injecting a worker panic into
                // the first sweep point must fail the run loudly (nonzero
                // exit + a structured WorkerPanic JSONL line) while every
                // other point completes and partial CSVs land on disk.
                chaos_drill(
                    "chaos panic drill (ECNSHARP_INJECT_PANIC=worker)",
                    &[("ECNSHARP_INJECT_PANIC", "worker")],
                    "\"type\":\"WorkerPanic\"",
                )
            }),
        ),
        (
            "chaos stall drill",
            Box::new(|| {
                // Barrier-stall drill: freezing every shard's window
                // processing on the first point must trip the stall
                // detector into a structured BarrierStall diagnostic
                // instead of hanging the barrier — again with partial
                // CSVs and a nonzero exit.
                chaos_drill(
                    "chaos stall drill (ECNSHARP_INJECT_STALL=window, 2 shards)",
                    &[
                        ("ECNSHARP_INJECT_STALL", "window"),
                        ("ECNSHARP_SHARDS", "2"),
                    ],
                    "\"type\":\"BarrierStall\"",
                )
            }),
        ),
        (
            "chaos livelock drill",
            Box::new(|| {
                // Livelock drill: a zero-delay event cycle on the first
                // point must trip the serial run loop's progress guard
                // into a structured Livelock error instead of spinning.
                chaos_drill(
                    "chaos livelock drill (ECNSHARP_INJECT_LIVELOCK=engine)",
                    &[("ECNSHARP_INJECT_LIVELOCK", "engine")],
                    "\"type\":\"Livelock\"",
                )
            }),
        ),
        (
            "doc",
            Box::new(|| {
                let mut c = cargo();
                c.args(["doc", "--workspace", "--no-deps"]);
                c.env("RUSTDOCFLAGS", "-Dwarnings");
                run_step("doc --no-deps (-Dwarnings)", c, true)
            }),
        ),
        (
            "test --doc",
            Box::new(|| {
                let mut c = cargo();
                c.args(["test", "--workspace", "--doc", "-q"]);
                run_step("test --doc", c, true)
            }),
        ),
    ];

    std::env::set_current_dir(&root).ok();
    for (name, step) in steps {
        if step().is_err() {
            eprintln!("\nci: step `{name}` failed");
            return ExitCode::FAILURE;
        }
    }
    println!("\nci: all steps green");
    ExitCode::SUCCESS
}
