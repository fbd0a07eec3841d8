//! Runs the whole benchmark in `--quick` mode — every workload, both
//! passes, all checks on — so the harness cannot rot unnoticed.

use std::process::Command;

#[test]
fn quick_mode_passes_every_check() {
    let out = Command::new(env!("CARGO_BIN_EXE_ecnsharp-benchmark"))
        .arg("--quick")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--quick exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("benchmark: all checks passed"), "{stdout}");
    for workload in [
        "star_websearch",
        "leafspine_websearch",
        "incast_lossy",
        "fattree_shard2",
    ] {
        assert!(
            stdout.contains(&format!("{workload} end-to-end")),
            "{stdout}"
        );
        assert!(stdout.contains(&format!("{workload} traced")), "{stdout}");
        assert!(!stdout.contains("CHECK FAILED"), "{stdout}");
    }
}

#[test]
fn a_bad_argument_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_ecnsharp-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
