//! `cargo xtask` — workspace automation entry point.
//!
//! Subcommands:
//!
//! - `lint` — run the lint rules no compiler lint expresses (R6, R7, R9,
//!   R10, R11) over the workspace, including the `WAIVERS.budget`
//!   exact-count check; non-zero exit on any finding.
//! - `selftest` — prove each rule fires on its seeded fixture violation.
//! - `ci` — fmt-check → clippy, default features then
//!   `--no-default-features` (required: clippy is the only enforcer of the
//!   wall-clock, entropy, hash-order, float-equality and hot-path panic
//!   rules) → lint → selftest → release build → `benchmark/` package
//!   tests (release) → tests (default features, then `strict-invariants`)
//!   → race harness (release) → sharded-determinism gate (the
//!   serial-vs-sharded byte-equivalence suite under `strict-invariants`;
//!   see CONCURRENCY.md) → `--no-default-features` build and tests
//!   → quick-scale chaos smoke run under
//!   `strict-invariants` → chaos fault drills (injected worker panic,
//!   barrier stall and livelock must each fail loudly with a structured
//!   JSONL error line naming point 0 and its seed, and partial CSVs) →
//!   rustdoc gate (`cargo doc --no-deps` with `-Dwarnings`; the doctests
//!   already ran in each of the three test steps).
//! - `bench` — build `ecnsharp-bench` in its default and its
//!   `--no-default-features` build and run the former against the latter:
//!   four same-run pairs, each gated on the median of its interleaved
//!   per-pair ratios (see PERFORMANCE.md). A timing gate on a shared box,
//!   so opt-in and not part of `ci`; whole-simulation timing is
//!   `benchmark/`'s job.
//! - `loc` — print non-test lines per crate and the total, the size
//!   ROADMAP tracks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::{Command, ExitCode};
#[expect(
    clippy::disallowed_methods,
    reason = "host-side tooling: timing CI steps with the wall clock is the point"
)]
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
        Some("lint") => exit_for(lint()),
        Some("selftest") => exit_for(selftest()),
        Some("ci") => ci(),
        Some("bench") => exit_for(xtask::bench::run(&xtask::workspace_root())),
        Some("loc") => exit_for(loc()),
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
         lint        the rules clippy cannot express (R6 R7 R9 R10 R11) incl. the\n              \
         WAIVERS.budget check\n  \
         selftest    verify each lint rule fires on its seeded fixture\n  \
         ci          fmt-check -> clippy (both feature sets) -> lint -> selftest ->\n              \
         build -> tests -> race harness -> sharded determinism ->\n              \
         chaos smoke -> chaos drills -> rustdoc gate\n  \
         bench       run the four paired microbench gates; fail when a pair's\n              \
         median same-run ratio misses its budget\n  \
         loc         non-test lines per crate and in total (tracked crates/**/*.rs\n              \
         outside tests/ directories, less #[cfg(test)] regions)"
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
                "lint: workspace clean (rules R6 R7 R9 R10 R11, {} waiver(s) within budget, \
                 {secs:.2}s)",
                report.waivers.values().sum::<usize>()
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

/// Print the non-test line count per crate and the total: every tracked
/// `crates/**/*.rs` outside a `tests/` directory, less the lines
/// [`xtask::scan::scan_lines`] puts in a test region.
fn loc() -> bool {
    let root = xtask::workspace_root();
    let git = Command::new("git")
        .args(["ls-files", "crates/*.rs"])
        .current_dir(&root)
        .output();
    let Some(out) = git.ok().filter(|out| out.status.success()) else {
        eprintln!("loc: `git ls-files` failed");
        return false;
    };
    let mut per_crate = std::collections::BTreeMap::new();
    let files = String::from_utf8_lossy(&out.stdout);
    for rel in files.lines().filter(|rel| !rel.contains("/tests/")) {
        let Ok(source) = std::fs::read_to_string(root.join(rel)) else {
            eprintln!("loc: cannot read {rel}");
            return false;
        };
        let lines = xtask::scan::scan_lines(&source);
        let krate = rel.split('/').nth(1).unwrap_or(rel);
        *per_crate.entry(krate).or_insert(0) += lines.iter().filter(|l| !l.in_test).count();
    }
    for (krate, n) in &per_crate {
        println!("{krate:<12} {n:>6}");
    }
    println!("{:<12} {:>6}", "total", per_crate.values().sum::<usize>());
    true
}

fn selftest() -> bool {
    match xtask::selftest::run(&xtask::workspace_root()) {
        Ok(()) => {
            println!(
                "selftest: every rule (R6 R7 R9 R10 R11) fires on its seeded violation; \
                 waivers suppress; stale and unchecked waivers are rejected"
            );
            true
        }
        Err(e) => {
            eprintln!("selftest FAILED: {e}");
            false
        }
    }
}

/// One external CI step: it must launch and exit 0.
fn run_step(name: &str, mut cmd: Command) -> Result<(), ()> {
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
        Err(e) => {
            println!("FAILED to launch: {e}");
            Err(())
        }
    }
}

fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
}

/// Run the quick chaos sweep on `shards` shards with `ECNSHARP_DRILL` set
/// to `drill` and assert the supervised failure contract: nonzero exit, a
/// structured JSONL failure line on stderr naming the first point (every
/// drill arms point 0) and its seed and carrying error type
/// `expect_type`, and partial CSVs on disk (the surviving points still
/// produce output).
fn chaos_drill(drill: &str, shards: &str, expect_type: &str) -> Result<(), ()> {
    print!("ci: chaos {drill} drill (ECNSHARP_DRILL={drill}, ECNSHARP_SHARDS={shards}) ... ");
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
    c.env("ECNSHARP_DRILL", drill);
    c.env("ECNSHARP_SHARDS", shards);
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
    let expect_err = format!("\"type\":\"{expect_type}\"");
    let wants = [expect_err.as_str(), "\"point\":\"chaos-0-", "\"seed\":"];
    if !stderr.lines().any(|l| wants.iter().all(|w| l.contains(w))) {
        println!("FAILED (stderr carries no point-0 {expect_type} JSONL line with its seed)");
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
                // rustfmt is optional on minimal hosts: cargo itself
                // exists, so probe the component first.
                let probe = cargo().args(["fmt", "--version"]).output();
                if !matches!(probe, Ok(ref o) if o.status.success()) {
                    println!("ci: fmt --check ... skipped (rustfmt not installed)");
                    return Ok(());
                }
                run_step("fmt --check", c)
            }),
        ),
        // Clippy is required: it is the only enforcer of the wall-clock,
        // entropy, hash-order, float-equality and hot-path panic rules,
        // and rustc checks an `#[expect]` of a clippy lint only under
        // clippy — in both builds, as some sit on telemetry-gated code.
        (
            "clippy",
            Box::new(|| {
                let mut c = cargo();
                c.args(["clippy", "--workspace", "--all-targets"]);
                run_step("clippy (default features)", c)
            }),
        ),
        (
            "clippy --no-default-features",
            Box::new(|| {
                let mut c = cargo();
                c.args([
                    "clippy",
                    "--workspace",
                    "--all-targets",
                    "--no-default-features",
                ]);
                run_step("clippy (--no-default-features)", c)
            }),
        ),
        (
            "xtask lint",
            Box::new(|| if lint() { Ok(()) } else { Err(()) }),
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
                run_step("build --release", c)
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
                run_step("test benchmark/ (release)", c)
            }),
        ),
        (
            "test",
            Box::new(|| {
                let mut c = cargo();
                c.args(["test", "--workspace", "-q"]);
                run_step("test (default features)", c)
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
                run_step("test (strict-invariants)", c)
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
                run_step("race harness (release, shuffled schedules)", c)
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
                run_step("sharded determinism (strict-invariants, release)", c)
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
                run_step("build (--no-default-features, all targets)", c)
            }),
        ),
        (
            "test --no-default-features",
            Box::new(|| {
                let mut c = cargo();
                c.args(["test", "--workspace", "--no-default-features", "-q"]);
                run_step("test (--no-default-features)", c)
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
                run_step("chaos smoke (quick, strict-invariants)", c)
            }),
        ),
        (
            "chaos panic drill",
            // Crash-proof-runner drill: a worker panic on the first sweep
            // point must fail the run loudly while every other point
            // completes and partial CSVs land on disk.
            Box::new(|| chaos_drill("panic", "1", "WorkerPanic")),
        ),
        (
            "chaos stall drill",
            // Freezing every shard's window processing on the first point
            // must trip the stall detector instead of hanging the barrier.
            Box::new(|| chaos_drill("stall", "2", "BarrierStall")),
        ),
        (
            "chaos livelock drill",
            // A zero-delay event cycle on the first point must trip the
            // serial run loop's progress guard instead of spinning.
            Box::new(|| chaos_drill("livelock", "1", "Livelock")),
        ),
        (
            "doc",
            Box::new(|| {
                let mut c = cargo();
                c.args(["doc", "--workspace", "--no-deps"]);
                c.env("RUSTDOCFLAGS", "-Dwarnings");
                run_step("doc --no-deps (-Dwarnings)", c)
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
