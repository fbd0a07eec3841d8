//! Lint self-test: proves every rule R1-R11 actually fires on a seeded
//! violation, that waivers suppress as documented, that stale waivers
//! are rejected, and that a seeded violation drives the whole `lint`
//! entry point to a non-zero exit.
//!
//! The seeded violations live as real files under `crates/xtask/fixtures/`
//! (excluded from the workspace walk) so they are reviewable and cannot
//! drift out of sync with the engine.

use crate::rules::{analyze_file, check_file, check_lib_headers, Rule};
use crate::{classify, lint_workspace, FileClass};
use std::fs;
use std::path::Path;

/// One fixture expectation: linting `fixture` as if it lived at
/// `pretend_path` must produce at least one `expect` violation.
struct Case {
    fixture: &'static str,
    pretend_path: &'static str,
    expect: Rule,
}

const CASES: [Case; 11] = [
    Case {
        fixture: "r1_wall_clock.rs",
        pretend_path: "crates/sim/src/seeded.rs",
        expect: Rule::WallClock,
    },
    Case {
        fixture: "r2_thread_rng.rs",
        pretend_path: "crates/workload/src/seeded.rs",
        expect: Rule::NondeterministicRng,
    },
    Case {
        fixture: "r3_hash_map.rs",
        pretend_path: "crates/net/src/seeded.rs",
        expect: Rule::HashCollections,
    },
    Case {
        fixture: "r4_unwrap.rs",
        pretend_path: "crates/core/src/seeded.rs",
        expect: Rule::HotPathPanic,
    },
    Case {
        fixture: "r5_float_eq.rs",
        pretend_path: "crates/stats/src/seeded.rs",
        expect: Rule::FloatCmp,
    },
    Case {
        fixture: "r6_missing_headers.rs",
        pretend_path: "crates/sim/src/lib.rs",
        expect: Rule::LintHeaders,
    },
    Case {
        fixture: "r7_shared_state.rs",
        pretend_path: "crates/sched/src/seeded.rs",
        expect: Rule::SharedState,
    },
    Case {
        fixture: "r8_rc_refcell.rs",
        pretend_path: "crates/transport/src/seeded.rs",
        expect: Rule::NonSendType,
    },
    Case {
        fixture: "r9_unordered.rs",
        pretend_path: "crates/aqm/src/seeded.rs",
        expect: Rule::UnorderedIteration,
    },
    Case {
        fixture: "r10_env_read.rs",
        pretend_path: "crates/experiments/src/seeded.rs",
        expect: Rule::EnvOutsideEnvModule,
    },
    Case {
        fixture: "r11_stale_waiver.rs",
        pretend_path: "crates/net/src/seeded.rs",
        expect: Rule::StaleWaiver,
    },
];

/// Run the full self-test. `Err` carries a human-readable report of the
/// first failed expectation.
pub fn run(workspace_root: &Path) -> Result<(), String> {
    let fixtures = workspace_root.join("crates/xtask/fixtures");

    for case in &CASES {
        let src = fs::read_to_string(fixtures.join(case.fixture))
            .map_err(|e| format!("fixture {} unreadable: {e}", case.fixture))?;
        let violations = if case.expect == Rule::LintHeaders {
            check_lib_headers(case.pretend_path, &src)
        } else {
            let class = classify(case.pretend_path)
                .ok_or_else(|| format!("{}: pretend path not classifiable", case.fixture))?;
            check_file(case.pretend_path, &src, &class)
        };
        if !violations.iter().any(|v| v.rule == case.expect) {
            return Err(format!(
                "fixture {} (as {}) did not trigger {} — got: {:?}",
                case.fixture,
                case.pretend_path,
                case.expect,
                violations.iter().map(|v| v.rule).collect::<Vec<_>>()
            ));
        }
    }

    // Waivers must suppress every waivable rule — and every waiver in
    // the fixture must come back marked used (no stale residue).
    let waived = fs::read_to_string(fixtures.join("clean_waivers.rs"))
        .map_err(|e| format!("fixture clean_waivers.rs unreadable: {e}"))?;
    let class = FileClass {
        sim_facing: true,
        hot_path: true,
        test_file: false,
        harness: true,
        boundary: true,
    };
    let report = analyze_file("crates/core/src/seeded.rs", &waived, &class);
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
    let waivable: Vec<&str> = crate::rules::known_slugs();
    for slug in &waivable {
        if !report.waivers.iter().any(|w| w.slug == *slug && w.used) {
            return Err(format!(
                "clean_waivers.rs must exercise every waivable slug; `{slug}` missing or unused"
            ));
        }
    }

    // Stale-waiver rejection: the same fixture with its violations
    // deleted must flip every waiver into an R11 finding.
    let stale_only: String = waived
        .lines()
        .filter(|l| l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let stale_report = analyze_file("crates/core/src/seeded.rs", &stale_only, &class);
    let stale_count = stale_report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::StaleWaiver)
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
    // Keyed by thread as well as process: two tests of one test binary
    // run this concurrently, and one's cleanup must not empty the tree
    // under the other's walk.
    let scratch = std::env::temp_dir().join(format!(
        "ecnsharp-lint-selftest-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let sim_src = scratch.join("crates/sim/src");
    fs::create_dir_all(&sim_src).map_err(|e| format!("scratch dir: {e}"))?;
    let result = (|| -> Result<(), String> {
        fs::write(
            sim_src.join("lib.rs"),
            "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\
             //! Seeded violation.\npub fn t() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n\
             /// Seeded violation #2.\npub fn u() -> std::time::SystemTime { std::time::SystemTime::now() }\n",
        )
        .map_err(|e| format!("scratch write: {e}"))?;
        let violations = lint_workspace(&scratch).map_err(|e| format!("scratch walk: {e}"))?;
        if violations
            .iter()
            .filter(|v| v.rule == Rule::WallClock)
            .count()
            < 2
        {
            return Err(format!(
                "end-to-end walk over the scratch tree missed the seeded R1 violations: {violations:?}"
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
