//! R12: a checked root doc names only what the tree has. README.md's R12
//! row says which names must resolve; CHANGES.md (history) and
//! ROADMAP.md (plans) are exempt. The string literals of `#[cfg(test)]`
//! code resolve nothing, since tests plant the names they expect to fail.

use crate::scan::scan_lines;
use crate::{Rule, Violation, SUBCOMMANDS};
use std::collections::BTreeSet;

/// The root docs R12 checks.
pub const CHECKED_DOCS: [&str; 6] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "PERFORMANCE.md",
    "CONCURRENCY.md",
    "OBSERVABILITY.md",
];

/// Endings that make a backticked token a path.
const PATH_EXTS: [&str; 7] = [".rs", ".toml", ".json", ".jsonl", ".csv", ".md", ".yml"];

/// Prefixes that make a backticked token a metric key.
const METRIC_PREFIXES: &str = "sim. net. transport. simstat. trace. model. host. telemetry.";

/// What the tree has: its tracked paths, the identifiers in the code of
/// its tracked `.rs` files, and their string literals outside tests.
#[derive(Debug, Default)]
pub struct Tree {
    paths: BTreeSet<String>,
    words: BTreeSet<String>,
    literals: BTreeSet<String>,
}

impl Tree {
    /// Index the tracked `paths` and `rust`, the text of each tracked `.rs`.
    pub fn new<'a>(paths: &[String], rust: impl IntoIterator<Item = &'a str>) -> Tree {
        let mut tree = Tree {
            paths: paths.iter().cloned().collect(),
            ..Tree::default()
        };
        for line in rust.into_iter().flat_map(scan_lines) {
            let words = line.code.split(|c: char| !is_ident(c));
            tree.words
                .extend(words.filter(|w| !w.is_empty()).map(String::from));
            if !line.in_test {
                tree.literals.extend(line.literals);
            }
        }
        tree
    }

    fn has_literal(&self, s: &str) -> bool {
        self.literals.iter().any(|l| l.contains(s))
    }

    /// `p` is tracked, ends a tracked path or holds one, or a literal
    /// names its file (a generated output).
    fn has_path(&self, p: &str) -> bool {
        let (dir, tail) = (format!("{}/", p.trim_end_matches('/')), format!("/{p}"));
        let file = p.rsplit('/').find(|s| !s.is_empty()).unwrap_or(p);
        self.paths
            .iter()
            .any(|t| t == p || t.ends_with(&tail) || t.starts_with(&dir))
            || self.has_literal(file)
    }

    /// Each segment of `A::b` is an identifier, or a path if it ends in
    /// `.rs`; in `ecnsharp-<crate>::<module>` the module's file exists.
    fn has_rust_path(&self, run: &str) -> bool {
        let segs: Vec<&str> = run.split("::").filter(|s| !s.is_empty()).collect();
        let Some(&head) = segs.first() else {
            return true;
        };
        let mut rest = &segs[..];
        if let Some(krate) = head.strip_prefix("ecnsharp").and_then(|k| k.get(1..)) {
            let module = segs.get(1).filter(|m| m.starts_with(char::is_lowercase));
            let file = |m| format!("crates/{krate}/src/{m}.rs");
            if module.is_some_and(|m| !self.paths.contains(&file(m))) {
                return false;
            }
            rest = &segs[1 + usize::from(module.is_some())..];
        }
        ["std", "core", "alloc"].contains(&head)
            || rest.iter().all(|seg| match seg.ends_with(".rs") {
                true => self.has_path(seg),
                false => self.words.contains(seg.split('.').next().unwrap_or(seg)),
            })
    }

    /// The names in one backticked span that do not resolve.
    fn unresolved(&self, span: &str) -> Vec<String> {
        let span = span.trim();
        let plain = !span.contains(char::is_whitespace) && !span.contains("::");
        let unless = |ok: bool| {
            if ok {
                Vec::new()
            } else {
                vec![span.to_string()]
            }
        };
        let top = span.split_once('/').map(|(dir, _)| format!("{dir}/"));
        let under_top = top.is_some_and(|d| self.paths.iter().any(|p| p.starts_with(&d)));
        if plain && (under_top || PATH_EXTS.iter().any(|e| span.ends_with(e))) {
            // A glob or a placeholder names no one file.
            return unless(span.contains(['*', '<', '{', '…']) || self.has_path(span));
        }
        if plain && METRIC_PREFIXES.split(' ').any(|p| span.starts_with(p)) {
            let key: String = span.split('[').next().unwrap_or(span).replace('*', "");
            return unless(self.has_literal(&key));
        }
        if is_camel(span) {
            return unless(self.words.contains(span));
        }
        span.split(|c: char| !(is_ident(c) || matches!(c, ':' | '.' | '-')))
            .filter(|run| run.contains("::") && !self.has_rust_path(run))
            .map(String::from)
            .collect()
    }
}

/// R12's findings in one doc, in line order; none unless `path` is one of
/// [`CHECKED_DOCS`]. Knobs and `cargo xtask` words count anywhere in the
/// text, the other names only in backticks outside fenced blocks.
pub fn check_doc(path: &str, text: &str, tree: &Tree) -> Vec<Violation> {
    if !CHECKED_DOCS.contains(&path) {
        return Vec::new();
    }
    let (mut fenced, mut out) = (false, Vec::new());
    for (idx, line) in text.lines().enumerate() {
        let knobs = runs_after(line, "ECNSHARP_", is_ident)
            .map(|knob| format!("ECNSHARP_{}", knob.trim_end_matches('_')))
            .filter(|knob| knob.len() > "ECNSHARP_".len() && !tree.has_literal(knob));
        let words = runs_after(line, "cargo xtask ", |c| c.is_ascii_lowercase() || c == '-')
            .filter(|word| !word.is_empty() && !SUBCOMMANDS.iter().any(|(s, _)| s == word))
            .map(|word| format!("cargo xtask {word}"));
        let mut names: Vec<String> = knobs.chain(words).collect();
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            let parts: Vec<&str> = line.split('`').collect();
            let spans = parts.iter().take(parts.len().saturating_sub(1)).skip(1);
            names.extend(spans.step_by(2).flat_map(|span| tree.unresolved(span)));
        }
        out.extend(names.into_iter().map(|name| Violation {
            rule: Rule::DocNames,
            path: path.to_string(),
            line: idx + 1,
            message: format!(
                "`{name}` names nothing the tree has; write it without backticks, \
                 fully qualified, or as what replaced it"
            ),
            excerpt: line.trim().to_string(),
        }));
    }
    out
}

/// The maximal run of `keep` characters after each `marker` in `line`.
fn runs_after<'a>(
    line: &'a str,
    marker: &'a str,
    keep: impl Fn(char) -> bool + 'a,
) -> impl Iterator<Item = &'a str> + 'a {
    line.match_indices(marker).map(move |(pos, _)| {
        let rest = &line[pos + marker.len()..];
        &rest[..rest.find(|c: char| !keep(c)).unwrap_or(rest.len())]
    })
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// A CamelCase identifier of two or more humps (`EventQueue`, not `Lane`
/// or `MSS`).
fn is_camel(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase())
        && s.chars().all(is_ident)
        && s.as_bytes()
            .windows(2)
            .any(|w| w[0].is_ascii_lowercase() && w[1].is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree of three tracked files whose Rust source defines an
    /// `EventQueue` and writes a CSV and a pooled-port metric key; its
    /// test module's literal names deleted things, as R12's own tests do.
    fn tree() -> Tree {
        let paths = [
            "crates/sim/src/queue.rs",
            "README.md",
            "benchmark/src/pass.rs",
        ];
        let rust = "pub struct EventQueue; impl EventQueue { fn schedule(&self) {} }\n\
                    fn f() { write(\"chaos_fct.csv\"); env(\"ECNSHARP_SCALE\"); }\n\
                    const K: &str = \"net.port.probe_ns_per_pkt_pooled\";\n\
                    #[cfg(test)]\n\
                    mod tests { const PLANTED: &str = \"legacy.rs sim.legacy_pops ECNSHARP_TIMER_BACKEND\"; }";
        Tree::new(&paths.map(String::from), [rust])
    }

    fn flagged(line: &str) -> Vec<String> {
        check_doc("README.md", line, &tree())
            .into_iter()
            .map(|v| v.message.split('`').nth(1).unwrap_or_default().to_string())
            .collect()
    }

    #[test]
    fn r12_flags_one_name_of_each_class() {
        for (line, name) in [
            ("see `crates/sim/src/legacy.rs`", "crates/sim/src/legacy.rs"),
            (
                "set ECNSHARP_TIMER_BACKEND=legacy",
                "ECNSHARP_TIMER_BACKEND",
            ),
            (
                "run `cargo xtask bench-diff --check`",
                "cargo xtask bench-diff",
            ),
            ("read `sim.legacy_pops`", "sim.legacy_pops"),
            (
                "call `EventQueue::schedule_far`",
                "EventQueue::schedule_far",
            ),
            ("each lane's `LaneMeta`", "LaneMeta"),
            ("`ecnsharp-sim::host` delays", "ecnsharp-sim::host"),
        ] {
            assert_eq!(flagged(line), [name], "{line}");
        }
        let v = check_doc("README.md", "ok\n`LaneMeta`", &tree());
        assert_eq!((v[0].rule, v[0].line), (Rule::DocNames, 2));
    }

    #[test]
    fn r12_passes_what_the_tree_has() {
        for line in [
            "`std::alloc::GlobalAlloc`, `core::mem::take`",
            "writes `chaos_fct.csv` and `results/chaos_fct.csv`",
            "`net.port.probe_ns_per_pkt[_pooled]`, `net.*`",
            "`queue.rs::EventQueue`, `ecnsharp-sim::queue`, `crates/sim/`",
            "`EventQueue::schedule` under ECNSHARP_SCALE; `ECNSHARP_*`",
            "`cargo xtask lint`, `cargo xtask`, cargo xtask loc",
            "`epoch_end`, `Lane`, `MSS`, `crates/*/Cargo.toml`",
            "```\nEventQueue::schedule_far `LaneMeta`\n```",
        ] {
            assert_eq!(flagged(line), Vec::<String>::new(), "{line}");
        }
    }

    #[test]
    fn r12_skips_history_and_plans() {
        for doc in ["CHANGES.md", "ROADMAP.md"] {
            assert!(check_doc(doc, "`LaneMeta` ECNSHARP_GONE", &tree()).is_empty());
        }
    }
}
