//! Lint self-test: proves every rule fires on a seeded violation, that
//! waivers suppress as documented, that stale waivers are rejected, and
//! that a seeded violation drives the whole `lint` entry point to a
//! non-zero exit.
//!
//! The seeded violations live as real files under `crates/xtask/fixtures/`
//! (excluded from the workspace walk) so they are reviewable and cannot
//! drift out of sync with the engine.

use crate::rules::{analyze_file, check_lib_headers, denied_lints, known_slugs, Rule};
use crate::{analyze_workspace, classify, FileClass};
use std::fs;
use std::path::Path;

/// One fixture expectation: linting `fixture` as if it lived at
/// `pretend_path` must produce at least `min` `expect` violations.
struct Case {
    fixture: &'static str,
    pretend_path: &'static str,
    expect: Rule,
    min: usize,
}

const CASES: [Case; 5] = [
    Case {
        fixture: "r6_missing_headers.rs",
        pretend_path: "crates/sim/src/lib.rs",
        expect: Rule::LintHeaders,
        min: 2,
    },
    Case {
        fixture: "r7_shared_state.rs",
        pretend_path: "crates/sched/src/seeded.rs",
        expect: Rule::SharedState,
        min: 4,
    },
    Case {
        fixture: "r9_float_comparator.rs",
        pretend_path: "crates/aqm/src/seeded.rs",
        expect: Rule::FloatComparator,
        min: 1,
    },
    Case {
        fixture: "r10_env_read.rs",
        pretend_path: "crates/experiments/src/seeded.rs",
        expect: Rule::EnvOutsideEnvModule,
        min: 1,
    },
    Case {
        fixture: "r11_stale_waiver.rs",
        pretend_path: "crates/net/src/seeded.rs",
        expect: Rule::UncheckedWaiver,
        min: 4,
    },
];

/// Run the full self-test. `Err` carries a human-readable report of the
/// first failed expectation.
pub fn run(workspace_root: &Path) -> Result<(), String> {
    let fixtures = workspace_root.join("crates/xtask/fixtures");
    let read = |name: &str| {
        fs::read_to_string(fixtures.join(name))
            .map_err(|e| format!("fixture {name} unreadable: {e}"))
    };
    let manifest = fs::read_to_string(workspace_root.join("Cargo.toml"))
        .map_err(|e| format!("Cargo.toml unreadable: {e}"))?;
    let denied = denied_lints(&manifest, std::iter::empty());

    for case in &CASES {
        let src = read(case.fixture)?;
        let violations = if case.expect == Rule::LintHeaders {
            check_lib_headers(case.pretend_path, &src)
        } else {
            let class = classify(case.pretend_path)
                .ok_or_else(|| format!("{}: pretend path not classifiable", case.fixture))?;
            analyze_file(case.pretend_path, &src, &class, &denied).violations
        };
        let hits = violations.iter().filter(|v| v.rule == case.expect).count();
        if hits < case.min {
            return Err(format!(
                "fixture {} (as {}) triggered {} {hits} time(s), expected >= {} — got: {:?}",
                case.fixture,
                case.pretend_path,
                case.expect,
                case.min,
                violations.iter().map(|v| v.rule).collect::<Vec<_>>()
            ));
        }
    }

    // Waivers must suppress every waivable rule — and every waiver in
    // the fixture must come back live (no stale residue), its `#[expect]`
    // included.
    let waived = read("clean_waivers.rs")?;
    let class = FileClass {
        sim_facing: true,
        test_file: false,
    };
    let report = analyze_file("crates/core/src/seeded.rs", &waived, &class, &denied);
    if !report.violations.is_empty() {
        return Err(format!(
            "waivered fixture must be clean, got:\n{}",
            report
                .violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        ));
    }
    let waivable = known_slugs();
    for key in waivable.iter().copied().chain(["clippy::float_cmp"]) {
        if !report.waivers.iter().any(|w| w == key) {
            return Err(format!(
                "clean_waivers.rs must exercise every waiver form; `{key}` missing or unused"
            ));
        }
    }

    // Stale-waiver rejection: the same fixture with its violations
    // deleted must flip every comment waiver into an R11 finding.
    let stale_only: String = waived
        .lines()
        .filter(|l| l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let stale_report = analyze_file("crates/core/src/seeded.rs", &stale_only, &class, &denied);
    let stale_count = stale_report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::UncheckedWaiver)
        .count();
    if stale_count < waivable.len() {
        return Err(format!(
            "deleting the violations must leave every waiver stale (R11): \
             expected >= {}, got {stale_count}",
            waivable.len()
        ));
    }

    // End-to-end: a seeded violation in a scratch workspace tree drives
    // the same walk `cargo xtask lint` uses to a non-empty finding set
    // (i.e. a non-zero process exit).
    let scratch =
        std::env::temp_dir().join(format!("ecnsharp-lint-selftest-{}", std::process::id()));
    let sim_src = scratch.join("crates/sim/src");
    fs::create_dir_all(&sim_src).map_err(|e| format!("scratch dir: {e}"))?;
    let result = (|| -> Result<(), String> {
        fs::write(scratch.join("Cargo.toml"), manifest.as_str())
            .map_err(|e| format!("scratch write: {e}"))?;
        fs::write(
            sim_src.join("lib.rs"),
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\
             //! Seeded violation.\nuse std::sync::atomic::AtomicU64;\n\
             /// Seeded violation #2.\npub static EVENTS: AtomicU64 = AtomicU64::new(0);\n",
        )
        .map_err(|e| format!("scratch write: {e}"))?;
        let violations = analyze_workspace(&scratch)
            .map_err(|e| format!("scratch walk: {e}"))?
            .violations;
        if !violations.iter().any(|v| v.rule == Rule::SharedState) {
            return Err(format!(
                "end-to-end walk over the scratch tree missed the seeded R7 violation: {violations:?}"
            ));
        }
        Ok(())
    })();
    let _ = fs::remove_dir_all(&scratch);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ALL_RULES;
    use crate::workspace_root;

    #[test]
    fn every_rule_has_a_fixture() {
        let covered: Vec<Rule> = CASES.iter().map(|c| c.expect).collect();
        for rule in ALL_RULES {
            assert!(covered.contains(&rule), "no fixture for {rule}");
        }
    }

    #[test]
    fn selftest_runs_green() {
        run(&workspace_root()).unwrap();
    }
}
