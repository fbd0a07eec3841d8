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
//! | shard-boundary types stay `Send` | the `assert_send` proofs in each crate root |
//! | R6: `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` in every crate root | `cargo xtask lint` |
//! | R7 `shared-state`: no `static mut` / interior-mutability `static`s | `cargo xtask lint` (sim-facing + harness, non-test) |
//! | R9 `float-comparator`: no `partial_cmp().unwrap()` comparators | `cargo xtask lint` (sim-facing + harness, non-test) |
//! | R10 `env-read`: `std::env::var` only in the crate's `env.rs` | `cargo xtask lint` (sim-facing + harness, non-test) |
//! | R11: every waiver is checked | `cargo xtask lint` + rustc |
//!
//! Two waiver forms, each checked (R11). R7/R9/R10 findings are waived
//! with `// lint: allow(<slug>) <reason>` on the line or the line above,
//! and the lint fails when one suppresses nothing. A deny-level compiler
//! lint is waived with `#[expect(<lint>, reason = "..")]`; rustc fails
//! the build once one suppresses nothing
//! (`unfulfilled_lint_expectations = "deny"`), and the lint fails on a
//! plain `#[allow]` of one. `WAIVERS.budget` at the workspace root holds
//! the count of both, keyed by slug or lint name; the lint fails when
//! the counts drift from it, so waiver growth is always a reviewed diff.
//! `cargo xtask selftest` proves each rule fires on a seeded violation
//! fixture (see `fixtures/`), and `cargo xtask ci` chains fmt → clippy
//! (both feature sets) → lint → selftest → build → tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod rules;
pub mod scan;
pub mod selftest;

pub use rules::{Rule, Violation};

use rules::{analyze_file, check_lib_headers, denied_lints};

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How the linter treats one file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Crate shapes simulation results: a sim-facing crate or the sweep
    /// harness (R7/R9/R10 apply).
    pub sim_facing: bool,
    /// Whole file is test/example code (R7/R9/R10 relaxed).
    pub test_file: bool,
}

/// Crates whose code shapes simulation results, the sweep harness
/// (`experiments`) included: hidden global state or scattered knob reads
/// here silently break reproducibility.
pub const SIM_FACING_CRATES: [&str; 11] = [
    "sim",
    "net",
    "transport",
    "aqm",
    "core",
    "sched",
    "workload",
    "stats",
    "tofino",
    "telemetry",
    "experiments",
];

/// Classify a workspace-relative path (forward slashes). Returns `None`
/// for files the linter skips entirely (the fixtures, generated output).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") || rel.starts_with("crates/xtask/fixtures/") {
        return None;
    }
    let sim_facing = SIM_FACING_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/")));
    let test_file = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/");
    Some(FileClass {
        sim_facing,
        test_file,
    })
}

/// Everything one workspace lint pass learned.
#[derive(Debug, Clone)]
pub struct WorkspaceReport {
    /// Violations that survived waiver resolution, walk order.
    pub violations: Vec<Violation>,
    /// Live waivers per budget key: every waivable rule slug and every
    /// deny-level lint, zero counts included.
    pub waivers: BTreeMap<String, usize>,
}

/// Walk the workspace and lint every Rust source file, returning the
/// full report.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    Ok(analyze_sources(&manifest, &read_sources(root)?))
}

/// Every Rust source file the walk reaches, as `(workspace-relative
/// path, source)` in path order.
fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    files
        .into_iter()
        .map(|rel| {
            let source = fs::read_to_string(root.join(&rel))?;
            Ok((rel, source))
        })
        .collect()
}

/// Lint `(workspace-relative path, source)` pairs (rules + the R6
/// crate-root header check) against the workspace `manifest`.
pub fn analyze_sources(manifest: &str, sources: &[(String, String)]) -> WorkspaceReport {
    let denied = denied_lints(manifest, sources.iter().map(|(_, s)| s.as_str()));
    let mut report = WorkspaceReport {
        violations: Vec::new(),
        waivers: rules::known_slugs()
            .into_iter()
            .map(String::from)
            .chain(denied.iter().cloned())
            .map(|key| (key, 0))
            .collect(),
    };
    for (rel, source) in sources {
        let Some(class) = classify(rel) else { continue };
        let file = analyze_file(rel, source, &class, &denied);
        report.violations.extend(file.violations);
        for key in file.waivers {
            *report.waivers.entry(key).or_insert(0) += 1;
        }
        if rel.ends_with("/src/lib.rs") || rel == "src/lib.rs" {
            report.violations.extend(check_lib_headers(rel, source));
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
                "{WAIVER_BUDGET_FILE}:{}: expected `<slug or lint> <count>`, got `{line}`",
                idx + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|e| format!("{WAIVER_BUDGET_FILE}:{}: bad count `{count}`: {e}", idx + 1))?;
        if !report.waivers.contains_key(key) {
            return Err(format!(
                "{WAIVER_BUDGET_FILE}:{}: `{key}` is neither a waivable rule slug nor a \
                 deny-level lint",
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
const SKIP_DIRS: [&str; 6] = [
    "target",
    ".git",
    ".github",
    "results",
    "fixtures",
    "benchmark",
];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let c = classify("crates/core/src/marker.rs").unwrap();
        assert!(c.sim_facing && !c.test_file);
        let c = classify("crates/experiments/src/bin/all.rs").unwrap();
        assert!(c.sim_facing && !c.test_file, "the harness shapes results");
        let c = classify("crates/experiments/tests/race_harness.rs").unwrap();
        assert!(c.sim_facing && c.test_file);
        let c = classify("crates/net/tests/topology_prop.rs").unwrap();
        assert!(c.sim_facing && c.test_file);
        let c = classify("crates/xtask/src/main.rs").unwrap();
        assert!(!c.sim_facing);
        assert!(classify("crates/xtask/fixtures/r7_shared_state.rs").is_none());
        assert!(classify("README.md").is_none());
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

    /// The workspace's own sources and manifest, plus one planted file.
    fn workspace_with(planted: &str) -> WorkspaceReport {
        let root = workspace_root();
        let mut sources = read_sources(&root).unwrap();
        sources.push(("crates/stats/src/planted.rs".into(), planted.into()));
        let manifest = fs::read_to_string(root.join("Cargo.toml")).unwrap();
        analyze_sources(&manifest, &sources)
    }

    #[test]
    fn planted_allow_of_a_denied_lint_fails_the_lint() {
        let report =
            workspace_with("#[allow(clippy::float_cmp)]\nfn f(a: f64) -> bool { a == 1.5 }\n");
        let found: Vec<_> = report
            .violations
            .iter()
            .map(|v| (v.rule, v.path.as_str(), v.line))
            .collect();
        assert_eq!(
            found,
            [(Rule::UncheckedWaiver, "crates/stats/src/planted.rs", 1)]
        );
    }

    #[test]
    fn planted_expect_drifts_the_budget_by_exactly_one() {
        let report = workspace_with(
            "#[expect(clippy::float_cmp, reason = \"planted\")]\nfn f(a: f64) -> bool { a == 1.5 }\n",
        );
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
        // A key that is neither a slug nor a deny-level lint.
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "clippy::todo 1\n").unwrap();
        assert!(check_waiver_budget(&scratch, &report).is_err());
        // Malformed line.
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "clippy::float_cmp two\n").unwrap();
        assert!(check_waiver_budget(&scratch, &report).is_err());
        let _ = fs::remove_dir_all(&scratch);
    }
}
