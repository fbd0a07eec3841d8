//! # xtask
//!
//! Workspace automation for the ECN♯ reproduction. Each determinism and
//! shard-safety rule has one enforcer, and README.md "Static analysis &
//! invariants" is the one table of them. The compiler takes every rule a
//! lint can express (the root `[workspace.lints]`, `clippy.toml`, the
//! hot-path `#![deny]`s, the `assert_send` proofs); `cargo xtask lint`
//! holds the rest: R6, R7, R9, R10 and R11 in [`rules`], and R12 in
//! [`docs`]. None of those can be waived. A deny-level compiler lint is
//! waived with `#[expect(<lint>, reason = "..")]`, which rustc rejects
//! once it suppresses nothing, and `WAIVERS.budget` at the workspace root
//! holds their exact count per lint, so waiver growth is always a
//! reviewed diff.

pub mod bench;
pub mod docs;
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

/// A `cargo xtask` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subcommand {
    /// `lint`
    Lint,
    /// `ci`
    Ci,
    /// `bench`
    Bench,
    /// `loc`
    Loc,
    /// `help`
    Help,
}

/// Every subcommand by name: what `main` dispatches on, and what R12
/// resolves `cargo xtask <word>` against.
pub const SUBCOMMANDS: [(&str, Subcommand); 5] = [
    ("lint", Subcommand::Lint),
    ("ci", Subcommand::Ci),
    ("bench", Subcommand::Bench),
    ("loc", Subcommand::Loc),
    ("help", Subcommand::Help),
];

/// Walk the workspace and lint every Rust source file and member
/// manifest, then check the root docs against the tracked tree (R12),
/// returning the full report.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut report = analyze_sources(&read_sources(root)?);
    let paths = tracked_files(root)?;
    let rust = paths
        .iter()
        .filter(|p| p.ends_with(".rs"))
        .map(|p| fs::read_to_string(root.join(p)))
        .collect::<io::Result<Vec<_>>>()?;
    let tree = docs::Tree::new(&paths, rust.iter().map(String::as_str));
    for doc in docs::CHECKED_DOCS {
        let text = fs::read_to_string(root.join(doc))?;
        report.violations.extend(docs::check_doc(doc, &text, &tree));
    }
    Ok(report)
}

/// Every file on disk that git tracks or would track (untracked, not
/// ignored), workspace-relative and in path order.
pub fn tracked_files(root: &Path) -> io::Result<Vec<String>> {
    let out = Command::new("git")
        .args(["ls-files", "--cached", "--others", "--exclude-standard"])
        .current_dir(root)
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other("`git ls-files` failed"));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|rel| root.join(rel).is_file())
        .map(String::from)
        .collect())
}

/// Every Rust source file and `Cargo.toml` of the workspace, as
/// `(workspace-relative path, text)` in path order. `benchmark/` is a
/// workspace of its own with its own lint table, so the root's deny-level
/// lints do not describe it.
fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let linted = |rel: &String| {
        (rel.ends_with(".rs") || rel.rsplit('/').next() == Some("Cargo.toml"))
            && !rel.starts_with("benchmark/")
    };
    tracked_files(root)?
        .into_iter()
        .filter(linted)
        .map(|rel| fs::read_to_string(root.join(&rel)).map(|text| (rel, text)))
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

/// Is this `Cargo.toml` a workspace member's (`members = ["crates/*"]`)
/// or the root's, the manifests R6 checks?
fn is_member_manifest(rel: &str) -> bool {
    rel == "Cargo.toml" || (rel.starts_with("crates/") && rel.matches('/').count() == 2)
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
