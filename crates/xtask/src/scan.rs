//! Line-level preprocessing for the lint pass: a lightweight Rust lexer
//! that reduces each line to its *code text* (string/char literals and
//! comments blanked out), plus a region tracker that follows brace depth
//! and `#[cfg(test)]`/`mod tests` regions so rules can scope themselves to
//! production code.
//!
//! The lexer is deliberately approximate — it understands line comments,
//! nested block comments, string/raw-string/char literals and skips
//! lifetimes — which is exactly enough for word-boundary token matching
//! to be reliable on this workspace's sources.

/// One source line after lexing.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// The line with comments and literal contents replaced by spaces.
    pub code: String,
    /// Line belongs to a `#[cfg(test)]` item or a `mod tests { .. }`
    /// body (including the attribute/declaration lines themselves).
    pub in_test: bool,
}

/// Lexer state carried across lines.
#[derive(Debug, Clone, Copy, Default)]
struct LexState {
    /// Depth of nested `/* */` comments (rust block comments nest).
    block_comment_depth: u32,
    /// Inside a raw string: number of `#` in its delimiter, if any.
    raw_string_hashes: Option<u32>,
    /// Inside an ordinary `"…"` string that continues past a line break
    /// (multi-line literals and `\`-continuations).
    in_string: bool,
}

/// Region-tracking state carried across lines (operates on lexed code
/// text, so braces in strings/comments are invisible to it).
#[derive(Debug, Clone, Default)]
struct RegionState {
    /// Current brace depth.
    depth: u32,
    /// Body depths of the open test regions (a `#[cfg(test)]` item body
    /// or `mod tests { .. }`): a region is live while `depth >= body_depth`.
    stack: Vec<u32>,
    /// A `#[cfg(test)]` attribute (or `mod tests` header) was seen and
    /// its item's opening brace is still pending; value is the depth the
    /// attribute appeared at.
    pending_test: Option<u32>,
}

impl RegionState {
    fn test_active(&self) -> bool {
        self.pending_test.is_some() || !self.stack.is_empty()
    }

    /// Advance over one line of lexed code text.
    fn advance(&mut self, code: &str) {
        // Header detection first: the brace that opens the region may sit
        // on the same line, and `{` consumes the pending marker.
        if has_cfg_test_attr(code) || is_mod_tests_header(code) {
            self.pending_test = Some(self.depth);
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if self.pending_test == Some(self.depth) {
                        self.pending_test = None;
                        self.stack.push(self.depth + 1);
                    }
                    self.depth += 1;
                }
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    while matches!(self.stack.last(), Some(&d) if d > self.depth) {
                        self.stack.pop();
                    }
                }
                // A braceless item (e.g. `#[cfg(test)] use x;` or
                // `mod tests;`) consumes its pending marker.
                ';' if self.pending_test == Some(self.depth) => self.pending_test = None,
                _ => {}
            }
        }
    }
}

/// Does the code text carry a `#[cfg(test)]` attribute (whitespace
/// tolerated inside the brackets)?
fn has_cfg_test_attr(code: &str) -> bool {
    let squashed: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    squashed.contains("#[cfg(test)]")
}

/// Is this line a `mod tests` header (`mod tests {` / `pub mod tests`)?
fn is_mod_tests_header(code: &str) -> bool {
    let Some(pos) = find_word(code, "mod") else {
        return false;
    };
    let rest = code[pos + "mod".len()..].trim_start();
    rest.starts_with("tests") && {
        let after = &rest["tests".len()..];
        after.is_empty() || !after.starts_with(|c: char| c.is_alphanumeric() || c == '_')
    }
}

/// Lex a whole file into per-line code views with region info.
pub fn scan_lines(source: &str) -> Vec<ScannedLine> {
    let mut state = LexState::default();
    let mut regions = RegionState::default();
    source
        .lines()
        .map(|line| {
            let mut scanned = scan_line(line, &mut state);
            let test_before = regions.test_active();
            regions.advance(&scanned.code);
            // A header whose pending marker is consumed on its own line
            // (`#[cfg(test)] use x;`) still counts for the line it
            // appears on.
            scanned.in_test = test_before
                || regions.test_active()
                || has_cfg_test_attr(&scanned.code)
                || is_mod_tests_header(&scanned.code);
            scanned
        })
        .collect()
}

fn scan_line(line: &str, state: &mut LexState) -> ScannedLine {
    let bytes: Vec<char> = line.chars().collect();
    let mut code = String::with_capacity(line.len());
    let mut i = 0usize;

    while i < bytes.len() {
        // ── continue multi-line constructs ──────────────────────────────
        if state.block_comment_depth > 0 {
            if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                state.block_comment_depth -= 1;
                code.push_str("  ");
                i += 2;
            } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                state.block_comment_depth += 1;
                code.push_str("  ");
                i += 2;
            } else {
                code.push(' ');
                i += 1;
            }
            continue;
        }
        if let Some(hashes) = state.raw_string_hashes {
            // Look for `"###...` with the right number of hashes.
            if bytes[i] == '"' {
                let mut ok = true;
                for k in 0..hashes as usize {
                    if bytes.get(i + 1 + k) != Some(&'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    state.raw_string_hashes = None;
                    for _ in 0..=hashes as usize {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    continue;
                }
            }
            code.push(' ');
            i += 1;
            continue;
        }
        if state.in_string {
            if bytes[i] == '\\' {
                // Escape: blank the backslash and (when present) the
                // escaped character; a trailing `\` continues the string
                // onto the next line.
                code.push(' ');
                i += 1;
                if i < bytes.len() {
                    code.push(' ');
                    i += 1;
                }
            } else if bytes[i] == '"' {
                state.in_string = false;
                code.push(' ');
                i += 1;
            } else {
                code.push(' ');
                i += 1;
            }
            continue;
        }

        let c = bytes[i];
        match c {
            '/' if bytes.get(i + 1) == Some(&'/') => {
                // Line comment (incl. doc comments) — rest of line.
                while i < bytes.len() {
                    code.push(' ');
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                state.block_comment_depth += 1;
                code.push_str("  ");
                i += 2;
            }
            '"' => {
                // Ordinary string literal: the shared `in_string` state
                // handles the contents, including continuation across
                // line breaks (multi-line literals).
                state.in_string = true;
                code.push(' ');
                i += 1;
            }
            'r' if bytes.get(i + 1) == Some(&'"')
                || (bytes.get(i + 1) == Some(&'#') && !is_ident_char_before(&bytes, i)) =>
            {
                // Raw string r"..." or r#"..."# (only when `r` starts a token).
                if is_ident_char_before(&bytes, i) {
                    code.push(c);
                    i += 1;
                    continue;
                }
                let mut hashes = 0u32;
                let mut j = i + 1;
                while bytes.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&'"') {
                    state.raw_string_hashes = Some(hashes);
                    for _ in i..=j {
                        code.push(' ');
                    }
                    i = j + 1;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime. `'\x'`, `'a'` are literals;
                // `'static` is a lifetime.
                if bytes.get(i + 1) == Some(&'\\') {
                    // Escaped char literal: skip to closing quote.
                    code.push(' ');
                    i += 1;
                    while i < bytes.len() && bytes[i] != '\'' {
                        code.push(' ');
                        i += 1;
                    }
                    if i < bytes.len() {
                        code.push(' ');
                        i += 1;
                    }
                } else if bytes.get(i + 2) == Some(&'\'') {
                    code.push_str("   ");
                    i += 3;
                } else {
                    code.push(c); // lifetime tick; harmless in code text
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }

    ScannedLine {
        code,
        in_test: false,
    }
}

fn is_ident_char_before(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_')
}

/// Does `code` contain `word` as a standalone identifier (not a substring
/// of a longer identifier)?
pub fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

/// Find the byte offset of `word` as a standalone identifier in `code`.
pub fn find_word(code: &str, word: &str) -> Option<usize> {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_byte(b[start - 1]);
        let after_ok = end >= b.len() || !is_ident_byte(b[end]);
        if before_ok && after_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

/// [`find_word`] excluding matches directly preceded by a lifetime tick:
/// `'static` is a lifetime, `static X: …` is an item.
pub fn find_keyword(code: &str, word: &str) -> Option<usize> {
    let b = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || (!is_ident_byte(b[start - 1]) && b[start - 1] != b'\'');
        let after_ok = end >= b.len() || !is_ident_byte(b[end]);
        if before_ok && after_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_line_comments() {
        let s = scan_lines("let x = 1; // HashMap here");
        assert!(!s[0].code.contains("HashMap"));
        assert!(s[0].code.contains("let x = 1;"));
    }

    #[test]
    fn blanks_string_contents() {
        let s = scan_lines(r#"println!("Instant::now inside a string");"#);
        assert!(!s[0].code.contains("Instant"));
        assert!(s[0].code.contains("println!"));
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let src = "a /* outer /* inner */ still comment */ b\nc /* open\nclose */ d";
        let s = scan_lines(src);
        assert!(s[0].code.contains('a') && s[0].code.contains('b'));
        assert!(!s[0].code.contains("still"));
        assert!(s[1].code.contains('c') && !s[1].code.contains("open"));
        assert!(!s[2].code.contains("close") && s[2].code.contains('d'));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let s = scan_lines("let c = 'x'; fn f<'a>(v: &'a str) {}");
        assert!(!s[0].code.contains('x') || s[0].code.contains("fn f"));
        assert!(s[0].code.contains("&'a str") || s[0].code.contains("'a"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let s = scan_lines(r##"let q = r#"thread_rng in raw"#; let y = 2;"##);
        assert!(!s[0].code.contains("thread_rng"));
        assert!(s[0].code.contains("let y = 2"));
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("use std::time::Instant;", "Instant"));
        assert!(!has_word("MarkReason::Instantaneous", "Instant"));
        assert!(!has_word("should_panic", "panic"));
    }

    #[test]
    fn keyword_excludes_lifetimes() {
        assert!(find_keyword("static X: u32 = 0;", "static").is_some());
        assert!(find_keyword("fn f(v: &'static str) {}", "static").is_none());
        assert!(find_keyword("pub static mut Y: u32 = 0;", "static").is_some());
    }

    #[test]
    fn multiline_strings_do_not_leak_into_later_lines() {
        let src = "let s = \"first \\\n // static N: AtomicU64\";\nlet t = 1;";
        let s = scan_lines(src);
        assert!(!s[1].code.contains("static"), "string content is not code");
        assert!(s[2].code.contains("let t = 1"));
    }

    #[test]
    fn braces_in_strings_and_comments_do_not_count() {
        let src = "#[cfg(test)]\nmod tests {\n    let a = \"}}}\"; // }}}\n}\nfn prod() {}";
        let s = scan_lines(src);
        assert!(
            s[2].in_test && s[3].in_test,
            "the literal braces close nothing"
        );
        assert!(!s[4].in_test);
    }

    #[test]
    fn cfg_test_region_covers_module_body_only() {
        let src = "pub fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() {}\n\
                   }\n\
                   pub fn also_prod() {}";
        let s = scan_lines(src);
        assert!(!s[0].in_test, "production fn before the module");
        assert!(s[1].in_test, "the attribute line itself");
        assert!(s[2].in_test, "module header");
        assert!(s[3].in_test, "module body");
        assert!(s[4].in_test, "closing brace");
        assert!(!s[5].in_test, "production fn after the module");
    }

    #[test]
    fn mod_tests_without_attribute_is_a_test_region() {
        let s = scan_lines("mod tests {\n    fn t() {}\n}\nfn prod() {}");
        assert!(s[0].in_test && s[1].in_test && s[2].in_test);
        assert!(!s[3].in_test);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let s = scan_lines("#[cfg(test)]\nuse std::collections::HashMap;\nfn prod() {}");
        assert!(s[0].in_test && s[1].in_test);
        assert!(!s[2].in_test, "pending marker consumed by the `;`");
    }

    #[test]
    fn cfg_test_fn_region() {
        let src = "#[cfg(test)]\nfn helper() {\n    work();\n}\nfn prod() {}";
        let s = scan_lines(src);
        assert!(s[0].in_test && s[1].in_test && s[2].in_test && s[3].in_test);
        assert!(!s[4].in_test);
    }

    #[test]
    fn mod_tests_lookalikes_stay_production() {
        for src in [
            "mod tests_helpers {}",
            "let mod_tests = 1;",
            "fn run_mod(tests: u32) {}",
        ] {
            let s = scan_lines(src);
            assert!(!s[0].in_test, "src: {src}");
        }
    }

    use proptest::prelude::*;

    /// Fragment vocabulary for the lexer properties: line comments, block
    /// comments (nested, multi-line, stray closers), ordinary / raw /
    /// multi-line strings (including an unterminated one), char literals,
    /// lifetimes, braces, and region headers — the constructs the lexer
    /// has to keep straight across arbitrary interleavings.
    const FRAGMENTS: [&str; 16] = [
        "let a = 1; // trailing comment with HashMap",
        "let s = \"string with // fake comment and }\";",
        "/* one-line block */ let b = 2;",
        "/* open block with { brace",
        "nested /* inner */ still outer",
        "close */ let c = 3;",
        "let r = r#\"raw \"quote\" inside\"#;",
        "let q = r\"plain raw\";",
        "let ch = '{'; let lt: &'static str = \"x\";",
        "fn f() {",
        "}",
        "#[cfg(test)]",
        "mod tests {",
        "pub struct S {",
        "let multi = \"starts here \\",
        "let unterminated = \"no close",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Shape invariant: whatever state the lexer is dragged through,
        /// every line's code view has exactly as many chars as the source
        /// line (blanking substitutes, never deletes), the line count is
        /// preserved, and lexing is a pure function of the source.
        #[test]
        fn lexing_preserves_line_shape(
            picks in collection::vec(0usize..FRAGMENTS.len(), 1..40),
        ) {
            let src: String = picks
                .iter()
                .map(|&i| FRAGMENTS[i])
                .collect::<Vec<_>>()
                .join("\n");
            let scanned = scan_lines(&src);
            prop_assert_eq!(scanned.len(), src.lines().count());
            for (line, s) in src.lines().zip(&scanned) {
                prop_assert_eq!(
                    s.code.chars().count(),
                    line.chars().count(),
                    "line {:?} lexed to {:?}",
                    line,
                    s.code
                );
            }
            let again = scan_lines(&src);
            for (a, b) in scanned.iter().zip(&again) {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }

        /// Concealment invariant: a marker that only ever appears inside
        /// comments or string literals (all fragments self-terminated)
        /// never surfaces in any line's code view, no matter how the
        /// fragments interleave.
        #[test]
        fn literal_and_comment_content_never_reaches_code(
            picks in collection::vec(0usize..6usize, 1..30),
        ) {
            const HIDDEN: [&str; 6] = [
                "// ZZMARKER in a line comment",
                "let s = \"ZZMARKER in a string\";",
                "/* ZZMARKER in a block */",
                "let r = r#\"ZZMARKER in a raw string\"#;",
                "/* spans\nZZMARKER mid-comment\nlines */",
                "let m = \"continues \\\nZZMARKER after break\";",
            ];
            let src: String = picks
                .iter()
                .map(|&i| HIDDEN[i])
                .collect::<Vec<_>>()
                .join("\n");
            for s in scan_lines(&src) {
                prop_assert!(
                    !s.code.contains("ZZMARKER"),
                    "leaked into code view: {:?}",
                    s.code
                );
            }
        }
    }
}
