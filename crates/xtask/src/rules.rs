//! The lint rules no compiler lint expresses, and the per-file checking
//! engine.
//!
//! Wall clock, OS entropy, hash collections, float `==`, hot-path panics
//! and non-`Send` shard-boundary types are the compiler's job (clippy's
//! deny-list, `#![deny]` in the hot crates, the `assert_send` proofs).
//! What is left: R6 crate-root headers, R7 shared mutable statics, R9
//! `partial_cmp` comparators, R10 env reads outside `env.rs`, and R11,
//! which keeps every waiver checked by something:
//!
//! - a comment `// lint: allow(<slug>) <reason>` on the violating line
//!   or the line directly above it must suppress a live finding;
//! - a deny-level compiler lint is suppressed only by
//!   `#[expect(<lint>, reason = "..")]`, which rustc rejects once it
//!   suppresses nothing (`unfulfilled_lint_expectations = "deny"`). A
//!   plain `#[allow]` of one is a finding, because nothing would notice
//!   it go stale.

use crate::scan::{find_keyword, find_word, has_word, scan_lines, waiver_slugs, ScannedLine};
use crate::FileClass;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R6: every crate's `lib.rs` forbids unsafe code and warns on
    /// missing docs.
    LintHeaders,
    /// R7: no mutable `static`s and no `static` items with interior
    /// mutability (`Mutex`/`RwLock`/`Atomic*`/`OnceLock`/…) in sim-facing
    /// or harness code — hidden cross-shard coupling.
    SharedState,
    /// R9: no `partial_cmp(..).unwrap()` float sort comparators.
    FloatComparator,
    /// R10: every `std::env::var` read lives in the crate's blessed
    /// `env.rs` module (the strict-knob policy, enforced).
    EnvOutsideEnvModule,
    /// R11: every waiver is checked — a comment waiver suppresses a live
    /// finding, and a deny-level lint is waived only by `#[expect]` with
    /// a reason.
    UncheckedWaiver,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 5] = [
    Rule::LintHeaders,
    Rule::SharedState,
    Rule::FloatComparator,
    Rule::EnvOutsideEnvModule,
    Rule::UncheckedWaiver,
];

impl Rule {
    /// Short rule id used in reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::LintHeaders => "R6",
            Rule::SharedState => "R7",
            Rule::FloatComparator => "R9",
            Rule::EnvOutsideEnvModule => "R10",
            Rule::UncheckedWaiver => "R11",
        }
    }

    /// Waiver slug accepted in `lint: allow(<slug>)` comments; `None`
    /// when the rule cannot be waived.
    pub fn waiver_slug(self) -> Option<&'static str> {
        match self {
            Rule::SharedState => Some("shared-state"),
            Rule::FloatComparator => Some("float-comparator"),
            Rule::EnvOutsideEnvModule => Some("env-read"),
            Rule::LintHeaders | Rule::UncheckedWaiver => None,
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
    /// Violations that survived waiver resolution (R11 findings included).
    pub violations: Vec<Violation>,
    /// The budget key of every live waiver: the slug of each comment
    /// waiver that suppressed a finding, and the lint of each
    /// `#[expect]` of a deny-level lint.
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
    let finding = |rule: Rule, idx: usize, message: String| Violation {
        rule,
        path: path.to_string(),
        line: idx + 1,
        message,
        excerpt: raw.get(idx).map_or(String::new(), |s| s.trim().to_string()),
    };

    // Comment waivers as (line index, slug, used).
    let mut waivers: Vec<(usize, String, bool)> = lines
        .iter()
        .enumerate()
        .flat_map(|(idx, l)| {
            waiver_slugs(&l.comment)
                .into_iter()
                .map(move |slug| (idx, slug, false))
        })
        .collect();

    // Candidate violations before waiver resolution. R7/R9/R10 all scope
    // to production code of the crates that shape results.
    let mut candidates: Vec<Violation> = Vec::new();
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
                candidates.push(finding(
                    Rule::SharedState,
                    idx,
                    format!(
                        "{problem}; process-global mutable state couples \
                         shards — pass state explicitly, or waive with \
                         `// lint: allow(shared-state) <reason>`"
                    ),
                ));
            }
        }

        // ── R9: float sort comparators ────────────────────────────────
        if code.contains(".partial_cmp(")
            && (code.contains(".unwrap()") || code.contains(".expect(") || code.contains("sort_by"))
        {
            candidates.push(finding(
                Rule::FloatComparator,
                idx,
                "`partial_cmp(..).unwrap()` comparators panic on NaN and \
                 under-order floats; use `f64::total_cmp` for a \
                 deterministic total order"
                    .to_string(),
            ));
        }

        // ── R10: env reads outside the blessed env module ─────────────
        // `env::var` also prefixes `env::vars` and `env::var_os`.
        if !is_env_module(path) && code.contains("env::var") {
            candidates.push(finding(
                Rule::EnvOutsideEnvModule,
                idx,
                "`std::env::var` outside the crate's blessed `env.rs` module; \
                 all knob reads live in one strict module (exit-2 on bad \
                 values) so configuration cannot scatter"
                    .to_string(),
            ));
        }
    }

    // ── waiver resolution ─────────────────────────────────────────────
    // A waiver on line L suppresses matching violations on L and L+1;
    // every matching waiver is marked used (duplicated adjacent waivers
    // both count as intentional).
    let mut violations: Vec<Violation> = Vec::new();
    for v in candidates {
        let mut suppressed = false;
        for (idx, slug, used) in &mut waivers {
            if v.rule.waiver_slug() == Some(slug.as_str())
                && (v.line == *idx + 1 || v.line == *idx + 2)
            {
                *used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            violations.push(v);
        }
    }

    // ── R11: stale / unknown comment waivers ──────────────────────────
    let mut live: Vec<String> = Vec::new();
    for (idx, slug, used) in waivers {
        let message = if !known_slugs().contains(&slug.as_str()) {
            format!(
                "unknown waiver slug `{slug}`; valid slugs: {}",
                known_slugs().join(", ")
            )
        } else if !used {
            format!(
                "stale waiver `lint: allow({slug})` suppresses nothing here; \
                 delete it (waivers must map 1:1 to live findings)"
            )
        } else {
            live.push(slug);
            continue;
        };
        violations.push(finding(Rule::UncheckedWaiver, idx, message));
    }

    // ── R11: suppressions of deny-level lints ─────────────────────────
    for attr in lint_attrs(&lines) {
        for lint in attr.lints.iter().filter(|l| denied.contains(*l)) {
            let message = match attr.level {
                "allow" => format!(
                    "`#[allow({lint})]` of a deny-level lint: nothing notices \
                     when it goes stale; write `#[expect({lint}, reason = \"..\")]`"
                ),
                "expect" if !attr.reason => {
                    format!("`#[expect({lint})]` needs a `reason = \"..\"`")
                }
                "expect" => {
                    live.push(lint.clone());
                    continue;
                }
                _ => continue,
            };
            violations.push(finding(Rule::UncheckedWaiver, attr.idx, message));
        }
    }
    violations.sort_by_key(|v| (v.line, v.rule));

    FileReport {
        violations,
        waivers: live,
    }
}

/// Every waivable slug, in rule order.
pub fn known_slugs() -> Vec<&'static str> {
    ALL_RULES
        .into_iter()
        .filter_map(Rule::waiver_slug)
        .collect()
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
    /// `"allow"`, `"expect"` or `"deny"`.
    level: &'static str,
    /// The lint paths it names (`clippy::float_cmp`, `unsafe_code`).
    lints: Vec<String>,
    /// Whether it carries a `reason = ".."`.
    reason: bool,
}

/// Every lint-level attribute in a lexed file. Reads the code view, so
/// string contents are blank and a `reason = ".."` shows up as its bare
/// key; the argument list may run onto later lines, as rustfmt lays out
/// a long `#[expect(..)]` one item per line.
fn lint_attrs(lines: &[ScannedLine]) -> Vec<LintAttr> {
    let squashed: Vec<String> = lines
        .iter()
        .map(|l| l.code.split_whitespace().collect())
        .collect();
    let mut out = Vec::new();
    for (idx, line) in squashed.iter().enumerate() {
        for (pos, _) in line.match_indices('#') {
            let head = &line[pos + 1..];
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
            let (reasons, lints): (Vec<&str>, Vec<&str>) = args
                .split(',')
                .filter(|item| !item.is_empty())
                .partition(|item| item.starts_with("reason="));
            out.push(LintAttr {
                idx,
                level,
                lints: lints.into_iter().map(String::from).collect(),
                reason: !reasons.is_empty(),
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

/// R6: check a crate's `lib.rs` for the mandatory inner attributes.
pub fn check_lib_headers(path: &str, source: &str) -> Vec<Violation> {
    let lines = scan_lines(source);
    let mut missing = Vec::new();
    for attr in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
        let present = lines
            .iter()
            .any(|l| l.code.replace(' ', "").contains(&attr.replace(' ', "")));
        if !present {
            missing.push(attr);
        }
    }
    missing
        .into_iter()
        .map(|attr| Violation {
            rule: Rule::LintHeaders,
            path: path.to_string(),
            line: 1,
            message: format!("crate root is missing the mandatory `{attr}` attribute"),
            excerpt: source.lines().next().unwrap_or("").trim().to_string(),
        })
        .collect()
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
    fn r6_header_check() {
        let good = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}";
        assert!(check_lib_headers("lib.rs", good).is_empty());
        let bad = "pub fn f() {}";
        let v = check_lib_headers("lib.rs", bad);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::LintHeaders));
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
    fn r7_spans_multiline_declarations_and_is_waivable() {
        let src = "static BIG:\n    RwLock<Vec<u64>> = RwLock::new(Vec::new());";
        let v = check_file("x.rs", src, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::SharedState]);
        let waived = "// lint: allow(shared-state) host-side accumulator, order-insensitive\n\
             static COUNT: AtomicU64 = AtomicU64::new(0);";
        assert!(check_file("x.rs", waived, &sim_class()).is_empty());
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
    }

    #[test]
    fn r11_flags_stale_and_unknown_waivers() {
        let stale = "// lint: allow(shared-state) nothing here is static\nlet x = 1;";
        let v = check_file("x.rs", stale, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::UncheckedWaiver]);
        assert!(v[0].message.contains("stale"), "{}", v[0].message);
        let unknown = "let x = 1; // lint: allow(no-such-rule) oops";
        let v = check_file("x.rs", unknown, &sim_class());
        assert_eq!(rules_of(&v), vec![Rule::UncheckedWaiver]);
        assert!(v[0].message.contains("unknown"), "{}", v[0].message);
    }

    #[test]
    fn r11_counts_used_comment_waivers() {
        let src = "static N: AtomicU64 = AtomicU64::new(0); // lint: allow(shared-state) counter";
        let report = analyze_file("x.rs", src, &sim_class(), &denied());
        assert!(report.violations.is_empty());
        assert_eq!(report.waivers, vec!["shared-state".to_string()]);
    }

    #[test]
    fn r11_waiver_for_inapplicable_rule_is_stale() {
        // R7 does not apply outside the crates that shape results, so a
        // shared-state waiver there suppresses nothing and must go.
        let src = "// lint: allow(shared-state) host-side counter\nstatic N: AtomicU64 = AtomicU64::new(0);";
        let v = check_file("x.rs", src, &host_class());
        assert_eq!(rules_of(&v), vec![Rule::UncheckedWaiver]);
    }

    #[test]
    fn r11_rejects_allow_of_a_denied_lint_and_counts_expects() {
        let allow = "#[allow(clippy::float_cmp)]\nfn f() {}";
        let v = check_file("x.rs", allow, &host_class());
        assert_eq!(rules_of(&v), vec![Rule::UncheckedWaiver]);
        assert!(v[0].message.contains("#[expect("), "{}", v[0].message);

        let bare = "#![expect(clippy::float_cmp)]";
        let v = check_file("x.rs", bare, &host_class());
        assert_eq!(rules_of(&v), vec![Rule::UncheckedWaiver]);
        assert!(v[0].message.contains("reason"), "{}", v[0].message);

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
            "#[allow(clippy::too_many_arguments)]\nfn f() {}",
            "let s = \"#[allow(clippy::float_cmp)]\";",
            "// #[allow(clippy::float_cmp)]",
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

    #[test]
    fn every_waivable_rule_has_a_distinct_slug() {
        let slugs = known_slugs();
        let mut dedup = slugs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(slugs.len(), dedup.len());
    }
}
