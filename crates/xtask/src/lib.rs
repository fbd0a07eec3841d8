//! # xtask
//!
//! Workspace automation for the ECN♯ reproduction. The interesting part
//! is a custom source-level static-analysis pass (`cargo xtask lint`)
//! enforcing the simulator's determinism + shard-safety contract:
//!
//! | rule | scope | enforces |
//! |------|-------|----------|
//! | R1 `wall-clock` | sim-facing crates | no `std::time::Instant`/`SystemTime` |
//! | R2 (unwaivable) | whole workspace | no `thread_rng`/`rand::random`/`OsRng` |
//! | R3 `hash-collections` | sim-facing, non-test | no default-hasher `HashMap`/`HashSet` |
//! | R4 `hot-path-panic` | AQM/marker/port/queue hot paths | no `.unwrap()`/`.expect()`/`panic!` family |
//! | R5 `float-cmp` | whole workspace | no `==`/`!=` on float expressions |
//! | R6 (unwaivable) | every crate root | `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` |
//! | R7 `shared-state` | sim-facing + harness | no `static mut` / interior-mutability `static`s |
//! | R8 `non-send-type` | boundary crates | no `Rc`/`RefCell`/`Cell` in public types |
//! | R9 `unordered-iteration` | sim-facing + harness | no hash-collection iteration into results; no `partial_cmp().unwrap()` comparators |
//! | R10 `env-read` | sim-facing + harness | `std::env::var` only in the crate's `env.rs` |
//! | R11 (unwaivable) | whole workspace | every waiver suppresses a live finding |
//!
//! Waive a finding with `// lint: allow(<slug>) <reason>` on the line or
//! the line above; R11 fails the lint when a waiver goes stale. The
//! waiver inventory is budgeted in `WAIVERS.budget` at the workspace
//! root — the lint fails when the per-slug counts drift from the file,
//! so waiver growth is always an explicit, reviewed diff.
//! `cargo xtask selftest` proves each rule fires on a seeded violation
//! fixture (see `fixtures/`), `cargo xtask lint --json` emits the
//! machine-readable violation + waiver inventory, and `cargo xtask ci`
//! chains fmt → clippy → lint → selftest → build → tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod rules;
pub mod scan;
pub mod selftest;

pub use rules::{analyze_file, check_file, check_lib_headers, FileReport, Rule, Violation, Waiver};

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// How the linter treats one file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Crate participates in simulation results (R1/R3 apply).
    pub sim_facing: bool,
    /// File is on the per-packet hot path (R4 applies).
    pub hot_path: bool,
    /// Whole file is test/example code (R3/R4 relaxed).
    pub test_file: bool,
    /// Sweep-harness code (`crates/experiments`): R7/R9/R10 apply even
    /// though results-shaping happens host-side.
    pub harness: bool,
    /// Shard-boundary crate whose public types a sharded `Network` moves
    /// across threads (R8 applies).
    pub boundary: bool,
}

/// Crates whose code feeds simulation results: wall-clock and iteration-
/// order nondeterminism here silently breaks reproducibility.
pub const SIM_FACING_CRATES: [&str; 10] = [
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
];

/// Crates whose public types sit on the future shard boundary: the
/// sharded engine (ROADMAP item 1) moves these across worker threads, so
/// they must stay `Send` (R8 + the per-crate static assertions).
pub const BOUNDARY_CRATES: [&str; 6] = ["core", "sim", "net", "aqm", "sched", "transport"];

/// Files on the per-packet hot path, where a panic aborts a whole figure
/// run: every AQM decision site, the marker state machine, the scheduler
/// dequeue loop, the egress port and its pooled ring arena, the event
/// queue itself, the telemetry subscribers (invoked per event when
/// attached), and the run-supervision guards (`ProgressGuard::on_event`
/// runs per popped event on supervised runs; a panicking watchdog would
/// defeat its own purpose).
pub const HOT_PATH_PREFIXES: [&str; 10] = [
    "crates/aqm/src/",
    "crates/core/src/",
    "crates/sched/src/",
    "crates/telemetry/src/",
    "crates/net/src/port.rs",
    "crates/net/src/arena.rs",
    "crates/net/src/fault.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/wheel.rs",
    "crates/sim/src/supervise.rs",
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
    let boundary = BOUNDARY_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/")));
    let harness = rel.starts_with("crates/experiments/");
    let hot_path = HOT_PATH_PREFIXES.iter().any(|p| rel.starts_with(p));
    let test_file = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/");
    Some(FileClass {
        sim_facing,
        hot_path,
        test_file,
        harness,
        boundary,
    })
}

/// Everything one workspace lint pass learned: surviving violations plus
/// the full waiver inventory (used waivers included, for the report).
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    /// Violations that survived waiver resolution, walk order.
    pub violations: Vec<Violation>,
    /// Every waiver declared anywhere in the workspace.
    pub waivers: Vec<Waiver>,
}

impl WorkspaceReport {
    /// Per-slug counts of *used* waivers, for the budget check.
    pub fn waiver_counts(&self) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for w in self.waivers.iter().filter(|w| w.used) {
            *counts.entry(w.slug.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Render the machine-readable report (`cargo xtask lint --json`):
    /// violations, waiver inventory, and per-slug counts. Hand-rolled
    /// JSON — the workspace takes no serialization dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"excerpt\": {}}}",
                json_str(v.rule.id()),
                json_str(&v.path),
                v.line,
                json_str(&v.message),
                json_str(&v.excerpt)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"line\": {}, \"slug\": {}, \"reason\": {}, \"used\": {}}}",
                json_str(&w.path),
                w.line,
                json_str(&w.slug),
                json_str(&w.reason),
                w.used
            ));
        }
        if !self.waivers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"waiver_counts\": {");
        let counts = self.waiver_counts();
        for (i, (slug, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(slug), n));
        }
        if !counts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "}},\n  \"violation_count\": {},\n  \"waiver_count\": {}\n}}\n",
            self.violations.len(),
            self.waivers.len()
        ));
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Walk the workspace and lint every Rust source file (rules + the R6
/// crate-root header check), returning the full report.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = WorkspaceReport::default();
    for rel in &files {
        let Some(class) = classify(rel) else { continue };
        let source = fs::read_to_string(root.join(rel))?;
        let file_report = analyze_file(rel, &source, &class);
        report.violations.extend(file_report.violations);
        report.waivers.extend(file_report.waivers);
        if rel.ends_with("/src/lib.rs") || rel == "src/lib.rs" {
            report.violations.extend(check_lib_headers(rel, &source));
        }
    }
    Ok(report)
}

/// Walk the workspace and lint every Rust source file, returning only
/// the surviving violations.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    analyze_workspace(root).map(|r| r.violations)
}

/// Name of the waiver budget file at the workspace root.
pub const WAIVER_BUDGET_FILE: &str = "WAIVERS.budget";

/// Compare the report's per-slug used-waiver counts against the
/// committed `WAIVERS.budget`. Any drift — growth *or* shrinkage — is an
/// error, so the budget file is always an exact inventory and changing
/// it is a reviewed part of the same diff.
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
        let (Some(slug), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "{WAIVER_BUDGET_FILE}:{}: expected `<slug> <count>`, got `{line}`",
                idx + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|e| format!("{WAIVER_BUDGET_FILE}:{}: bad count `{count}`: {e}", idx + 1))?;
        if Rule::for_slug(slug).is_none() {
            return Err(format!(
                "{WAIVER_BUDGET_FILE}:{}: unknown slug `{slug}`",
                idx + 1
            ));
        }
        if budget.insert(slug.to_string(), count).is_some() {
            return Err(format!(
                "{WAIVER_BUDGET_FILE}:{}: duplicate slug `{slug}`",
                idx + 1
            ));
        }
    }

    let actual = report.waiver_counts();
    let mut drift = Vec::new();
    for slug in rules::known_slugs() {
        let budgeted = budget.get(slug).copied().unwrap_or(0);
        let counted = actual.get(slug).copied().unwrap_or(0);
        if budgeted != counted {
            drift.push(format!(
                "  {slug}: budget {budgeted}, workspace has {counted}"
            ));
        }
    }
    if drift.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "waiver counts drifted from {WAIVER_BUDGET_FILE} (update it in the same diff):\n{}",
            drift.join("\n")
        ))
    }
}

/// Directories never descended into.
const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", "results", "fixtures"];

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
        assert!(c.sim_facing && c.hot_path && !c.test_file && c.boundary && !c.harness);
        let c = classify("crates/net/src/network.rs").unwrap();
        assert!(c.sim_facing && !c.hot_path && c.boundary);
        let c = classify("crates/net/src/port.rs").unwrap();
        assert!(c.hot_path);
        let c = classify("crates/net/src/fault.rs").unwrap();
        assert!(c.sim_facing && c.hot_path && !c.test_file);
        let c = classify("crates/sim/src/wheel.rs").unwrap();
        assert!(c.sim_facing && c.hot_path && !c.test_file && c.boundary);
        let c = classify("crates/sim/src/supervise.rs").unwrap();
        assert!(c.sim_facing && c.hot_path && !c.test_file && c.boundary);
        let c = classify("crates/telemetry/src/hist.rs").unwrap();
        assert!(c.sim_facing && c.hot_path && !c.test_file && !c.boundary);
        let c = classify("crates/workload/src/synth.rs").unwrap();
        assert!(
            c.sim_facing && !c.boundary,
            "workload is not a boundary crate"
        );
        let c = classify("crates/experiments/src/bin/all.rs").unwrap();
        assert!(!c.sim_facing && !c.hot_path && c.harness && !c.boundary);
        let c = classify("crates/experiments/tests/race_harness.rs").unwrap();
        assert!(c.harness && c.test_file);
        let c = classify("crates/net/tests/topology_prop.rs").unwrap();
        assert!(c.sim_facing && c.test_file);
        let c = classify("crates/xtask/src/main.rs").unwrap();
        assert!(!c.sim_facing && !c.harness && !c.boundary);
        assert!(classify("crates/xtask/fixtures/r1_wall_clock.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn workspace_is_lint_clean() {
        let violations = lint_workspace(&workspace_root()).expect("walk workspace");
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

    #[test]
    fn json_report_round_trips_basic_structure() {
        let report = WorkspaceReport {
            violations: vec![Violation {
                rule: Rule::WallClock,
                path: "crates/sim/src/a.rs".into(),
                line: 3,
                message: "uses \"Instant\"".into(),
                excerpt: "let t = Instant::now();".into(),
            }],
            waivers: vec![Waiver {
                path: "crates/stats/src/hist.rs".into(),
                line: 162,
                slug: "float-cmp".into(),
                reason: "bucket boundary".into(),
                used: true,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"rule\": \"R1\""));
        assert!(json.contains("\\\"Instant\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"slug\": \"float-cmp\""));
        assert!(json.contains("\"float-cmp\": 1"));
        assert!(json.contains("\"violation_count\": 1"));
        let empty = WorkspaceReport::default().to_json();
        assert!(empty.contains("\"violations\": []"));
        assert!(empty.contains("\"waiver_counts\": {}"));
    }

    #[test]
    fn budget_rejects_drift_and_garbage() {
        let report = WorkspaceReport::default();
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
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "float-cmp 2\n").unwrap();
        let err = check_waiver_budget(&scratch, &report).unwrap_err();
        assert!(err.contains("budget 2, workspace has 0"), "{err}");
        // Unknown slug.
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "no-such-slug 1\n").unwrap();
        assert!(check_waiver_budget(&scratch, &report).is_err());
        // Malformed line.
        fs::write(scratch.join(WAIVER_BUDGET_FILE), "float-cmp two\n").unwrap();
        assert!(check_waiver_budget(&scratch, &report).is_err());
        let _ = fs::remove_dir_all(&scratch);
    }

    #[test]
    fn selftest_passes() {
        selftest::run(&workspace_root()).expect("selftest");
    }
}
