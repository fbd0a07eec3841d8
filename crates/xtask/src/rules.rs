//! The lint rules no compiler lint expresses, and the per-file checking
//! engine.
//!
//! Wall clock, OS entropy, hash collections, float `==`, hot-path panics,
//! unsafe code, missing docs, outer `#[allow]`s, unreasoned or unchecked
//! suppressions and non-`Send` shard-boundary types are the compiler's job
//! (`[workspace.lints]`, `#![deny]` in the hot crates, the `assert_send`
//! proofs). What is left: R6 every member manifest inherits that table,
//! R7 shared mutable statics, R9 `partial_cmp` comparators, R10 env reads
//! outside `env.rs`, and R11 inner `#![allow]`s, which clippy's
//! `allow_attributes` does not check. None of them can be waived. The
//! engine also counts each `#[expect]` of a deny-level lint, the waivers
//! `WAIVERS.budget` holds (R11).

use crate::scan::{find_keyword, find_word, has_word, scan_lines, ScannedLine};
use crate::FileClass;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R6: every member `Cargo.toml` inherits `[workspace.lints]` with
    /// `[lints] workspace = true`; without it a crate silently loses the
    /// whole deny-list.
    WorkspaceLints,
    /// R7: no mutable `static`s and no `static` items with interior
    /// mutability (`Mutex`/`RwLock`/`Atomic*`/`OnceLock`/…) in sim-facing
    /// or harness code — hidden cross-shard coupling.
    SharedState,
    /// R9: no `partial_cmp(..).unwrap()` float sort comparators.
    FloatComparator,
    /// R10: every `std::env::var` read lives in the crate's blessed
    /// `env.rs` module (the strict-knob policy, enforced).
    EnvOutsideEnvModule,
    /// R11: no inner `#![allow(..)]`. Clippy's `allow_attributes` rejects
    /// only the outer form, so an inner one would switch a lint off for a
    /// whole module with no budget entry and no staleness check.
    InnerAllow,
}

impl Rule {
    /// Short rule id used in reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WorkspaceLints => "R6",
            Rule::SharedState => "R7",
            Rule::FloatComparator => "R9",
            Rule::EnvOutsideEnvModule => "R10",
            Rule::InnerAllow => "R11",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One reported lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}\n    | {}",
            self.rule, self.path, self.line, self.message, self.excerpt
        )
    }
}

/// What the engine learned about one file.
#[derive(Debug, Clone)]
pub struct FileReport {
    /// R7/R9/R10 findings in line order, then R11's.
    pub violations: Vec<Violation>,
    /// The lint of each `#[expect]` of a deny-level lint: the file's
    /// budgeted waivers.
    pub waivers: Vec<String>,
}

/// Check one file's source against every applicable rule. `denied` is
/// the set of deny-level lints (see [`denied_lints`]) whose suppression
/// is a waiver.
pub fn analyze_file(
    path: &str,
    source: &str,
    class: &FileClass,
    denied: &BTreeSet<String>,
) -> FileReport {
    let lines = scan_lines(source);
    let raw: Vec<&str> = source.lines().collect();
    let finding = |rule: Rule, idx: usize, message: &str| Violation {
        rule,
        path: path.to_string(),
        line: idx + 1,
        message: message.to_string(),
        excerpt: raw.get(idx).map_or(String::new(), |s| s.trim().to_string()),
    };

    // R7/R9/R10 all scope to production code of the crates that shape
    // results.
    let mut violations: Vec<Violation> = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        if !class.sim_facing || class.test_file || l.in_test {
            continue;
        }
        let code = l.code.as_str();

        // ── R7: shared mutable state ──────────────────────────────────
        if let Some(pos) = find_keyword(code, "static") {
            // Only item declarations: `static X:` / `pub static X` /
            // `static mut` — not `impl Trait + 'static` (excluded by the
            // keyword scan) or `extern` blocks (none here).
            let decl = static_decl_snippet(&lines, idx, pos);
            if let Some(problem) = shared_state_problem(&decl) {
                violations.push(finding(
                    Rule::SharedState,
                    idx,
                    &format!(
                        "{problem}; process-global mutable state couples \
                         shards — pass state explicitly"
                    ),
                ));
            }
        }

        // ── R9: float sort comparators ────────────────────────────────
        if code.contains(".partial_cmp(")
            && (code.contains(".unwrap()") || code.contains(".expect(") || code.contains("sort_by"))
        {
            violations.push(finding(
                Rule::FloatComparator,
                idx,
                "`partial_cmp(..).unwrap()` comparators panic on NaN and \
                 under-order floats; use `f64::total_cmp` for a \
                 deterministic total order",
            ));
        }

        // ── R10: env reads outside the blessed env module ─────────────
        // `env::var` also prefixes `env::vars` and `env::var_os`.
        if !is_env_module(path) && code.contains("env::var") {
            violations.push(finding(
                Rule::EnvOutsideEnvModule,
                idx,
                "`std::env::var` outside the crate's blessed `env.rs` module; \
                 all knob reads live in one strict module (exit-2 on bad \
                 values) so configuration cannot scatter",
            ));
        }
    }

    // ── R11: no inner allows; the budgeted waivers ────────────────────
    let attrs = lint_attrs(&lines);
    for attr in &attrs {
        if attr.inner && attr.level == "allow" {
            violations.push(finding(
                Rule::InnerAllow,
                attr.idx,
                "`#![allow]` switches a lint off for the whole module, out of \
                 clippy's `allow_attributes` check; use \
                 `#![expect(<lint>, reason = \"..\")]`",
            ));
        }
    }
    let waivers = attrs
        .into_iter()
        .filter(|attr| attr.level == "expect")
        .flat_map(|attr| attr.lints)
        .filter(|lint| denied.contains(lint))
        .collect();

    FileReport {
        violations,
        waivers,
    }
}

/// R6: a member manifest that does not set `lints.workspace = true`,
/// reported on its first line. Accepts the three TOML spellings: the
/// `[lints]` table, and the dotted or inline key before the first table.
pub fn check_manifest(path: &str, manifest: &str) -> Option<Violation> {
    let mut table = Some("");
    for line in manifest.lines() {
        let line: String = line
            .split('#')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        if line.starts_with('[') {
            table = (line == "[lints]").then_some("lints.");
        } else if table.is_some_and(|t| format!("{t}{line}") == "lints.workspace=true")
            || (table == Some("") && line == "lints={workspace=true}")
        {
            return None;
        }
    }
    Some(Violation {
        rule: Rule::WorkspaceLints,
        path: path.to_string(),
        line: 1,
        message: "member manifest does not inherit the workspace deny-list; add \
                  `[lints]` with `workspace = true`"
            .to_string(),
        excerpt: manifest.lines().next().unwrap_or("").trim().to_string(),
    })
}

/// The deny-level lints, whose every suppression is a budgeted waiver:
/// each lint set to `"deny"` in the manifest's `[workspace.lints.rust]`
/// and `[workspace.lints.clippy]` tables, plus each lint a source raises
/// with `#[deny(..)]`/`#![deny(..)]` (the hot-path panic lints).
pub fn denied_lints<'a>(
    manifest: &str,
    sources: impl IntoIterator<Item = &'a str>,
) -> BTreeSet<String> {
    let mut denied = BTreeSet::new();
    let mut prefix = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            prefix = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
        } else if let (Some(prefix), Some((name, level))) = (prefix, line.split_once('=')) {
            if level.contains("\"deny\"") {
                denied.insert(format!("{prefix}{}", name.trim()));
            }
        }
    }
    for source in sources {
        for attr in lint_attrs(&scan_lines(source)) {
            if attr.level == "deny" {
                denied.extend(attr.lints);
            }
        }
    }
    denied
}

/// One `#[allow|expect|deny(..)]` attribute, outer or inner.
struct LintAttr {
    /// 0-based line of the `#`.
    idx: usize,
    /// `#![..]` rather than `#[..]`.
    inner: bool,
    /// `"allow"`, `"expect"` or `"deny"`.
    level: &'static str,
    /// The lint paths it names (`clippy::float_cmp`, `unsafe_code`).
    lints: Vec<String>,
}

/// Every lint-level attribute in a lexed file. Reads the code view, so
/// string contents are blank; the argument list may run onto later lines,
/// as rustfmt lays out a long `#[expect(..)]` one item per line.
fn lint_attrs(lines: &[ScannedLine]) -> Vec<LintAttr> {
    let squashed: Vec<String> = lines
        .iter()
        .map(|l| l.code.split_whitespace().collect())
        .collect();
    let mut out = Vec::new();
    for (idx, line) in squashed.iter().enumerate() {
        for (pos, _) in line.match_indices('#') {
            let head = &line[pos + 1..];
            let inner = head.starts_with('!');
            let Some(head) = head.strip_prefix('!').unwrap_or(head).strip_prefix('[') else {
                continue;
            };
            let Some(level) = ["allow", "expect", "deny"]
                .into_iter()
                .find(|level| head.starts_with(&format!("{level}(")))
            else {
                continue;
            };
            let mut args = String::new();
            let mut depth = 0u32;
            let rest = std::iter::once(&head[level.len() + 1..])
                .chain(squashed[idx + 1..].iter().map(String::as_str));
            'args: for text in rest {
                for c in text.chars() {
                    match c {
                        ')' if depth == 0 => break 'args,
                        ')' => depth -= 1,
                        '(' => depth += 1,
                        _ => {}
                    }
                    args.push(c);
                }
            }
            out.push(LintAttr {
                idx,
                inner,
                level,
                lints: args
                    .split(',')
                    .filter(|item| !item.is_empty() && !item.starts_with("reason="))
                    .map(String::from)
                    .collect(),
            });
        }
    }
    out
}

/// Is this file a crate's blessed environment-knob module (R10)?
fn is_env_module(path: &str) -> bool {
    path.ends_with("/env.rs") || path == "env.rs"
}

/// Join the code text of a `static` declaration from the keyword through
/// its initializer `=` (or terminating `;`), capped at a few lines — the
/// type portion is what R7 inspects.
fn static_decl_snippet(lines: &[ScannedLine], idx: usize, pos: usize) -> String {
    let mut snippet = String::new();
    for (k, l) in lines.iter().enumerate().skip(idx).take(8) {
        let code = if k == idx { &l.code[pos..] } else { &l.code };
        snippet.push_str(code);
        snippet.push(' ');
        if code.contains('=') || code.contains(';') {
            break;
        }
    }
    snippet
}

/// Why a `static` declaration is shared mutable state, if it is.
fn shared_state_problem(decl: &str) -> Option<&'static str> {
    if find_word(decl, "mut").is_some() {
        return Some("`static mut` is shared mutable state");
    }
    for ty in [
        "Mutex",
        "RwLock",
        "OnceLock",
        "OnceCell",
        "LazyLock",
        "RefCell",
        "Cell",
        "UnsafeCell",
        "lazy_static",
    ] {
        if has_word(decl, ty) {
            return Some("`static` with interior mutability is shared mutable state");
        }
    }
    // Atomic* family by prefix: AtomicU64, AtomicUsize, AtomicBool, …
    let b = decl.as_bytes();
    let mut from = 0;
    while let Some(p) = decl[from..].find("Atomic") {
        let start = from + p;
        if start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
            return Some("`static` atomic is shared mutable state");
        }
        from = start + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_class() -> FileClass {
        FileClass {
            sim_facing: true,
            test_file: false,
        }
    }

    fn host_class() -> FileClass {
        FileClass {
            sim_facing: false,
            test_file: false,
        }
    }

    fn denied() -> BTreeSet<String> {
        BTreeSet::from(["clippy::float_cmp".to_string()])
    }

    fn check_file(path: &str, source: &str, class: &FileClass) -> Vec<Violation> {
        analyze_file(path, source, class, &denied()).violations
    }

    fn rules_of(v: &[Violation]) -> Vec<Rule> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn mid_file_test_modules_no_longer_shadow_later_production_code() {
        // The old engine treated everything below the first `#[cfg(test)]`
        // as test code; the region tracker scopes it to the module body.
        let src = "#[cfg(test)]\nmod tests { }\nstatic N: AtomicU64 = AtomicU64::new(0);";
        let v = check_file("x.rs", src, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::SharedState]);
    }

    #[test]
    fn r6_requires_the_workspace_lints_table() {
        for good in [
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n",
            "[ lints ] # inherit\nworkspace = true  # the deny-list\n",
            "lints.workspace = true\n[package]\nname = \"x\"\n",
            "lints = { workspace = true }\n[package]\nname = \"x\"\n",
        ] {
            assert!(
                check_manifest("crates/x/Cargo.toml", good).is_none(),
                "{good}"
            );
        }
        for bad in [
            "[package]\nname = \"x\"\n",
            "[package]\nname = \"x\"\n[lints]\nworkspace = false\n",
            "[package]\nworkspace = true\n[lints.clippy]\nfloat_cmp = \"deny\"\n",
            "[package]\nlints.workspace = true\n",
            "[lints]\n# workspace = true\n",
        ] {
            let v = check_manifest("crates/x/Cargo.toml", bad).expect(bad);
            assert_eq!((v.rule, v.line), (Rule::WorkspaceLints, 1), "{bad}");
        }
    }

    #[test]
    fn r7_fires_on_interior_mutability_statics() {
        for src in [
            "static COUNT: AtomicU64 = AtomicU64::new(0);",
            "pub static CACHE: Mutex<Vec<u64>> = Mutex::new(Vec::new());",
            "static mut RAW: u64 = 0;",
            "static ONCE: OnceLock<Config> = OnceLock::new();",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert_eq!(rules_of(&v), vec![Rule::SharedState], "src: {src}");
        }
    }

    #[test]
    fn r7_ignores_immutable_statics_and_lifetimes() {
        for src in [
            "static NAMES: [&str; 2] = [\"a\", \"b\"];",
            "pub const K: u64 = 65;",
            "fn f(s: &'static str) -> &'static Mutex<u8> { todo!() }",
            "let m: Mutex<u64> = Mutex::new(0);",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert!(v.is_empty(), "src: {src} -> {v:?}");
        }
    }

    #[test]
    fn r7_spans_multiline_declarations() {
        let src = "static BIG:\n    RwLock<Vec<u64>> = RwLock::new(Vec::new());";
        let v = check_file("x.rs", src, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::SharedState]);
    }

    #[test]
    fn r9_fires_on_float_comparators() {
        for src in [
            "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());",
            "xs.sort_by(|a, b| a.partial_cmp(b).expect(\"NaN\"));",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert_eq!(rules_of(&v), vec![Rule::FloatComparator], "src: {src}");
        }
    }

    #[test]
    fn r9_ignores_total_cmp_and_partial_cmp_impls() {
        for src in [
            "xs.sort_by(f64::total_cmp);",
            "let o = a.partial_cmp(b);",
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }",
        ] {
            let v = check_file("x.rs", src, &sim_class());
            assert!(v.is_empty(), "src: {src} -> {v:?}");
        }
    }

    #[test]
    fn r10_fires_outside_env_module_only() {
        let src = "let v = std::env::var(\"ECNSHARP_SCALE\");";
        let v = check_file("crates/experiments/src/runner.rs", src, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::EnvOutsideEnvModule]);
        let ok = check_file("crates/experiments/src/env.rs", src, &sim_class());
        assert!(ok.is_empty(), "env.rs is the blessed module");
        let host = check_file("crates/xtask/src/main.rs", src, &host_class());
        assert!(host.is_empty(), "host tooling is out of scope");
        let quoted = "let s = \"std::env::var\";";
        let v = check_file("crates/experiments/src/runner.rs", quoted, &sim_class());
        assert!(v.is_empty(), "a string literal reads nothing");
    }

    #[test]
    fn r11_rejects_inner_allows_and_counts_expects() {
        // Clippy's `allow_attributes` sees only the outer form, so the
        // inner one is R11's, whatever it names and wherever it sits.
        for src in [
            "#![allow(clippy::disallowed_methods, reason = \"..\")]",
            "#![allow(clippy::too_many_arguments)]",
            "#[cfg(test)]\nmod tests {\n    #![allow(\n        clippy::float_cmp,\n    )]\n}",
        ] {
            let v = check_file("crates/xtask/src/x.rs", src, &host_class());
            assert_eq!(rules_of(&v), vec![Rule::InnerAllow], "src: {src}");
            let line = src.lines().position(|l| l.contains("#![")).map(|i| i + 1);
            assert_eq!(Some(v[0].line), line, "src: {src}");
        }
        let outer = "#[allow(clippy::float_cmp)]\nfn f() {}";
        assert!(
            check_file("x.rs", outer, &host_class()).is_empty(),
            "clippy's"
        );

        let inner = "#![expect(clippy::float_cmp, reason = \"exact\")]";
        let report = analyze_file("x.rs", inner, &host_class(), &denied());
        assert_eq!(report.waivers, vec!["clippy::float_cmp".to_string()]);

        // rustfmt's layout of a long expect: one item per line.
        let expect =
            "#[expect(\n    clippy::float_cmp,\n    reason = \"exact, (sic)\"\n)]\nfn f() {}";
        let report = analyze_file("x.rs", expect, &host_class(), &denied());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.waivers, vec!["clippy::float_cmp".to_string()]);
    }

    #[test]
    fn r11_ignores_lints_that_are_not_denied_and_attrs_in_strings() {
        for src in [
            "#[expect(clippy::too_many_arguments, reason = \"..\")]\nfn f() {}",
            "let s = \"#![allow(clippy::float_cmp)]\";",
            "// #[expect(clippy::float_cmp)]",
        ] {
            let report = analyze_file("x.rs", src, &host_class(), &denied());
            assert!(report.violations.is_empty(), "src: {src}");
            assert!(report.waivers.is_empty(), "src: {src}");
        }
    }

    #[test]
    fn denied_lints_come_from_the_manifest_and_deny_attributes() {
        let manifest = "[workspace.lints.rust]\nunsafe_code = \"deny\"\n\
                        [workspace.lints.clippy]\nfloat_cmp = \"deny\"\ntodo = \"warn\"\n\
                        [lints]\nworkspace = true\n";
        let src = "#![deny(clippy::unwrap_used, clippy::panic)]\n#[allow(dead_code)]\nfn f() {}";
        let expected = [
            "clippy::float_cmp",
            "clippy::panic",
            "clippy::unwrap_used",
            "unsafe_code",
        ];
        assert_eq!(
            denied_lints(manifest, [src]),
            expected.map(String::from).into()
        );
    }
}
