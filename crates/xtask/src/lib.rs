//! # xtask
//!
//! Workspace automation for the ECN♯ reproduction. The simulator's
//! determinism + shard-safety contract has one enforcer per rule:
//!
//! | rule | enforced by |
//! |------|-------------|
//! | no wall clock (`Instant::now`, `SystemTime::now`/`elapsed`) | clippy `disallowed_methods` (`clippy.toml`) |
//! | no OS entropy (`RandomState`) | clippy `disallowed_types` |
//! | no default-hasher `HashMap`/`HashSet` | clippy `disallowed_types` |
//! | no `.unwrap()`/`.expect()`/`panic!`/`unreachable!` on hot paths | clippy `unwrap_used`/`expect_used`/`panic`/`unreachable`, `#![deny]` in aqm/core/sched/telemetry and six net/sim files |
//! | no float `==`/`!=` | clippy `float_cmp` |
//! | no `unsafe` | rustc `unsafe_code = "forbid"` |
//! | every public item documented | rustc `missing_docs = "warn"` |
//! | every suppression is an `#[expect]` with a reason | clippy `allow_attributes` (outer `#[allow]`) + `allow_attributes_without_reason`, rustc `unfulfilled_lint_expectations` |
//! | shard-boundary types stay `Send` | the `assert_send` proofs in each crate root |
//! | R6: every member `Cargo.toml` inherits `[workspace.lints]` | `cargo xtask lint` |
//! | R7: no `static mut` / interior-mutability `static`s | `cargo xtask lint` (sim-facing + harness, non-test) |
//! | R9: no `partial_cmp().unwrap()` comparators | `cargo xtask lint` (sim-facing + harness, non-test) |
//! | R10: `std::env::var` only in the crate's `env.rs` | `cargo xtask lint` (sim-facing + harness, non-test) |
//! | R11: no inner `#![allow]`; waivers of deny-level lints match `WAIVERS.budget` | `cargo xtask lint` |
//!
//! The first three groups live in the root `Cargo.toml`'s
//! `[workspace.lints]`, which R6 keeps every crate inheriting. The
//! `cargo xtask lint` rules cannot be waived. A deny-level compiler lint is waived with
//! `#[expect(<lint>, reason = "..")]`; rustc fails the build once one
//! suppresses nothing. `WAIVERS.budget` at the workspace root holds their
//! count per lint, and the lint fails when the counts drift from it, so
//! waiver growth is always a reviewed diff. `cargo xtask ci` chains fmt →
//! clippy (both feature sets) → lint → build → tests.

pub mod bench;
pub mod rules;
pub mod scan;

pub use rules::{Rule, Violation};

use rules::{analyze_file, check_manifest, denied_lints};

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// How the linter treats one file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Crate shapes simulation results: a sim-facing crate or the sweep
    /// harness (R7/R9/R10 apply).
    pub sim_facing: bool,
    /// Whole file is test/example code (R7/R9/R10 relaxed).
    pub test_file: bool,
}

/// Host-side tooling crates, which shape no simulation result. Every
/// other crate, a new one included, is sim-facing.
pub const HOST_CRATES: [&str; 3] = ["xtask", "bench", "proptest"];

/// Classify a workspace-relative source path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let sim_facing = !HOST_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/")));
    let test_file = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/");
    FileClass {
        sim_facing,
        test_file,
    }
}

/// Everything one workspace lint pass learned.
#[derive(Debug, Clone)]
pub struct WorkspaceReport {
    /// Violations in walk order.
    pub violations: Vec<Violation>,
    /// Live waivers per deny-level lint, zero counts included.
    pub waivers: BTreeMap<String, usize>,
}

/// Walk the workspace and lint every Rust source file and member
/// manifest, returning the full report.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    Ok(analyze_sources(&read_sources(root)?))
}

/// Every Rust source file and `Cargo.toml` the walk reaches, as
/// `(workspace-relative path, text)` in path order.
fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();
    files
        .into_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(&rel))?;
            Ok((rel, source))
        })
        .collect()
}

/// Lint `(workspace-relative path, text)` pairs: the rules on each `.rs`
/// file, R6 on each member manifest, the deny-level lints read from the
/// root one.
pub fn analyze_sources(sources: &[(String, String)]) -> WorkspaceReport {
    let manifest = sources
        .iter()
        .find(|(rel, _)| rel == "Cargo.toml")
        .map_or("", |(_, text)| text.as_str());
    let rust = sources.iter().filter(|(rel, _)| rel.ends_with(".rs"));
    let denied = denied_lints(manifest, rust.map(|(_, text)| text.as_str()));
    let mut report = WorkspaceReport {
        violations: Vec::new(),
        waivers: denied.iter().map(|lint| (lint.clone(), 0)).collect(),
    };
    for (rel, text) in sources {
        if rel.ends_with(".rs") {
            let file = analyze_file(rel, text, &classify(rel), &denied);
            report.violations.extend(file.violations);
            for lint in file.waivers {
                *report.waivers.entry(lint).or_insert(0) += 1;
            }
        } else if is_member_manifest(rel) {
            report.violations.extend(check_manifest(rel, text));
        }
    }
    report
}

/// Name of the waiver budget file at the workspace root.
pub const WAIVER_BUDGET_FILE: &str = "WAIVERS.budget";

/// Compare the report's live waiver counts against the committed
/// `WAIVERS.budget`. Any drift — growth *or* shrinkage — is an error, so
/// the budget file is always an exact inventory and changing it is a
/// reviewed part of the same diff.
pub fn check_waiver_budget(root: &Path, report: &WorkspaceReport) -> Result<(), String> {
    let path = root.join(WAIVER_BUDGET_FILE);
    let text = fs::read_to_string(&path)
        .map_err(|e| format!("{WAIVER_BUDGET_FILE} unreadable at workspace root: {e}"))?;
    let mut budget: BTreeMap<String, usize> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(key), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "{WAIVER_BUDGET_FILE}:{}: expected `<lint> <count>`, got `{line}`",
                idx + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|e| format!("{WAIVER_BUDGET_FILE}:{}: bad count `{count}`: {e}", idx + 1))?;
        if !report.waivers.contains_key(key) {
            return Err(format!(
                "{WAIVER_BUDGET_FILE}:{}: `{key}` is not a deny-level lint",
                idx + 1
            ));
        }
        if budget.insert(key.to_string(), count).is_some() {
            return Err(format!(
                "{WAIVER_BUDGET_FILE}:{}: duplicate key `{key}`",
                idx + 1
            ));
        }
    }

    let drift: Vec<String> = report
        .waivers
        .iter()
        .filter_map(|(key, &counted)| {
            let budgeted = budget.get(key).copied().unwrap_or(0);
            (budgeted != counted)
                .then(|| format!("  {key}: budget {budgeted}, workspace has {counted}"))
        })
        .collect();
    if drift.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "waiver counts drifted from {WAIVER_BUDGET_FILE} (update it in the same diff):\n{}",
            drift.join("\n")
        ))
    }
}

/// Directories never descended into. `benchmark/` is a workspace of its
/// own with its own lint table, so the root's deny-level lints do not
/// describe it.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", "results", "benchmark"];

/// Is this `Cargo.toml` a workspace member's (`members = ["crates/*"]`)
/// or the root's, the manifests R6 checks?
fn is_member_manifest(rel: &str) -> bool {
    rel == "Cargo.toml" || (rel.starts_with("crates/") && rel.matches('/').count() == 2)
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_files(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// The workspace root, derived from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// A `cargo` command: the one running this tool (`$CARGO`), else the one
/// on `PATH`.
pub fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let c = classify("crates/core/src/marker.rs");
        assert!(c.sim_facing && !c.test_file);
        let c = classify("crates/experiments/src/bin/all.rs");
        assert!(c.sim_facing && !c.test_file, "the harness shapes results");
        let c = classify("crates/experiments/tests/race_harness.rs");
        assert!(c.sim_facing && c.test_file);
        let c = classify("crates/net/tests/topology_prop.rs");
        assert!(c.sim_facing && c.test_file);
        for host in [
            "xtask/src/main.rs",
            "bench/src/main.rs",
            "proptest/src/lib.rs",
        ] {
            assert!(!classify(&format!("crates/{host}")).sim_facing, "{host}");
        }
        let c = classify("crates/newcrate/src/a.rs");
        assert!(
            c.sim_facing && !c.test_file,
            "an unlisted crate fails closed"
        );
    }

    #[test]
    fn workspace_is_lint_clean() {
        let violations = analyze_workspace(&workspace_root())
            .expect("walk workspace")
            .violations;
        assert!(
            violations.is_empty(),
            "workspace must be lint-clean:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn workspace_waiver_budget_is_exact() {
        let root = workspace_root();
        let report = analyze_workspace(&root).expect("walk workspace");
        check_waiver_budget(&root, &report).expect("waiver budget");
    }

    /// The workspace's own sources and manifests, with `planted` files
    /// added or, at an existing path, swapped in.
    fn workspace_with(planted: &[(&str, &str)]) -> WorkspaceReport {
        let mut sources = read_sources(&workspace_root()).unwrap();
        sources.retain(|(rel, _)| !planted.iter().any(|(path, _)| path == rel));
        sources.extend(
            planted
                .iter()
                .map(|&(path, text)| (path.to_string(), text.to_string())),
        );
        analyze_sources(&sources)
    }

    #[test]
    fn planted_violations_fail_the_lint() {
        let stats = "crates/stats/Cargo.toml";
        let manifest = fs::read_to_string(workspace_root().join(stats)).unwrap();
        let unlinted = manifest.replace("[lints]\nworkspace = true\n", "");
        assert_ne!(unlinted, manifest, "{stats} inherits the workspace lints");
        let report = workspace_with(&[
            (
                "crates/stats/src/planted.rs",
                "static EVENTS: AtomicU64 = AtomicU64::new(0);\n",
            ),
            (
                "crates/stats/src/allowed.rs",
                "#![allow(clippy::disallowed_methods, reason = \"planted\")]\n",
            ),
            (stats, &unlinted),
            // Not a member: R6 leaves it alone.
            ("crates/stats/tests/fixture/Cargo.toml", &unlinted),
        ]);
        let found: Vec<_> = report
            .violations
            .iter()
            .map(|v| (v.rule, v.path.as_str(), v.line))
            .collect();
        assert_eq!(
            found,
            [
                (Rule::SharedState, "crates/stats/src/planted.rs", 1),
                (Rule::InnerAllow, "crates/stats/src/allowed.rs", 1),
                (Rule::WorkspaceLints, stats, 1),
            ]
        );
    }

    #[test]
    fn planted_expect_drifts_the_budget_by_exactly_one() {
        let report = workspace_with(&[(
            "crates/stats/src/planted.rs",
            "#[expect(clippy::float_cmp, reason = \"planted\")]\nfn f(a: f64) -> bool { a == 1.5 }\n",
        )]);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let err = check_waiver_budget(&workspace_root(), &report).unwrap_err();
        let drift: Vec<&str> = err.lines().skip(1).collect();
        assert_eq!(drift.len(), 1, "{err}");
        let budgeted = report.waivers["clippy::float_cmp"] - 1;
        assert_eq!(
            drift[0],
            format!(
                "  clippy::float_cmp: budget {budgeted}, workspace has {}",
                budgeted + 1
            )
        );
    }

    #[test]
    fn budget_rejects_drift_and_garbage() {
        let report = WorkspaceReport {
            violations: Vec::new(),
            waivers: BTreeMap::from([("clippy::float_cmp".to_string(), 0)]),
        };
        let scratch = std::env::temp_dir().join(format!(
            "ecnsharp-budget-test-{}-{}",
            std::process::id(),
            line!()
        ));
        fs::create_dir_all(&scratch).unwrap();
        // Missing file.
        assert!(check_waiver_budget(&scratch, &report).is_err());
        // Exact (all zeros / comments only).
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "# none\n").unwrap();
        assert!(check_waiver_budget(&scratch, &report).is_ok());
        // Budget says 2, workspace has 0 — shrinkage is drift too.
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "clippy::float_cmp 2\n").unwrap();
        let err = check_waiver_budget(&scratch, &report).unwrap_err();
        assert!(err.contains("budget 2, workspace has 0"), "{err}");
        // A key that is not a deny-level lint.
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "clippy::todo 1\n").unwrap();
        assert!(check_waiver_budget(&scratch, &report).is_err());
        // Malformed line.
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "clippy::float_cmp two\n").unwrap();
        assert!(check_waiver_budget(&scratch, &report).is_err());
        let _ = fs::remove_dir_all(&scratch);
    }
}
