//! `cargo xtask bench` — build both builds of `ecnsharp-bench`, run one.
//!
//! A performance number in this repository is compared against exactly one
//! of two things: its same-run control in `ecnsharp-bench`'s
//! `PAIRED_GATES`, or the parent commit through `benchmark/`
//! (`BENCHMARK.json`). The gates, their sampling and their statistic all
//! live in that binary (`crates/bench/src/main.rs`); this module only
//! builds it twice — the telemetry pair's control is the same binary
//! built `--no-default-features` — and forwards the exit code.

use std::path::Path;
use std::process::Command;

/// Run `cmd` to completion; `false` (after saying why) unless it exits 0.
fn succeeds(cmd: &mut Command) -> bool {
    match cmd.status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("bench: {cmd:?} failed ({s})");
            false
        }
        Err(e) => {
            eprintln!("bench: could not launch {cmd:?}: {e}");
            false
        }
    }
}

/// Build both builds, run the default one against the other; `true` iff
/// every pair is within its budget.
pub fn run(root: &Path) -> bool {
    let build = |extra: &[&str]| {
        succeeds(
            crate::cargo()
                .args(["build", "--release", "-p", "ecnsharp-bench"])
                .args(extra)
                .current_dir(root),
        )
    };
    // Both builds land on the same path, so the compiled-out one is built
    // first and set aside (the binary checks which build it was handed).
    // Everything is compiled before anything is timed.
    let bin = root.join("target/release/ecnsharp-bench");
    let compiled_out = root.join("target/release/ecnsharp-bench-no-default-features");
    if !build(&["--no-default-features"]) {
        return false;
    }
    if let Err(e) = std::fs::copy(&bin, &compiled_out) {
        eprintln!("bench: could not set {} aside: {e}", bin.display());
        return false;
    }
    build(&[]) && succeeds(Command::new(&bin).arg(&compiled_out))
}
