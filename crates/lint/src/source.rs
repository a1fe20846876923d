//! Line-oriented lexical model of one Rust source file.
//!
//! `vsim-lint` deliberately avoids a full parser: rules only need to
//! tell *code* apart from comments and literal contents, to track brace
//! depth well enough to scope a waiver to one function, and to know
//! which lines sit inside a `#[cfg(test)]`-gated item. This module is
//! that model. Each line is split into a `code` view (string/char
//! literal contents blanked to spaces, comments removed — so searching
//! for a token never trips over prose or fixture strings) and a
//! `comment` view (the prose, where lint directives live).

/// One analyzed source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with comments stripped and literal contents blanked.
    pub code: String,
    /// Comment text on the line, without the `//` / `/* */` markers.
    pub comment: String,
    /// Brace depth at the start of the line.
    pub depth_start: u32,
    /// Brace depth at the end of the line.
    pub depth_end: u32,
    /// Whether the line is inside a `#[cfg(test)]`-gated item.
    pub in_cfg_test: bool,
}

/// An inline suppression: `// lint-allow: <rule-id> <reason>`.
///
/// On a line with code, it waives that line only. On a standalone
/// comment line directly above an `fn`, it waives the whole function
/// body; above any other line, just that line.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub reason: String,
    /// 1-based inclusive line range the waiver covers.
    pub first_line: usize,
    pub last_line: usize,
}

/// A directive the engine could not parse (reported as `waiver-syntax`).
#[derive(Debug, Clone)]
pub struct DirectiveError {
    pub line: usize,
    pub message: String,
}

/// A lexically analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    pub lines: Vec<Line>,
    /// All `code` views joined with `\n` (for multi-line token scans).
    pub code: String,
    /// Byte offset in `code` where each line starts.
    line_offsets: Vec<usize>,
    /// `lint-scope:` tags declared anywhere in the file.
    pub scopes: Vec<String>,
    pub waivers: Vec<Waiver>,
    pub directive_errors: Vec<DirectiveError>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Length of the char literal starting at `i` (which holds `'`), or
/// `None` if this is a lifetime tick.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char: skip the escape body up to the closing tick.
            let mut j = i + 2;
            if chars.get(j) == Some(&'u') {
                while j < chars.len() && chars[j] != '}' && chars[j] != '\n' {
                    j += 1;
                }
            }
            j += 1;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            if chars.get(j) == Some(&'\'') {
                Some(j - i + 1)
            } else {
                None
            }
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') && chars[i + 1] != '\'' => Some(3),
        _ => None,
    }
}

/// If a raw string literal (`r"`, `r#"`, `br##"`, …) starts at `i`,
/// returns `(hash_count, chars_consumed_through_opening_quote)`.
fn raw_string_start(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// Split `text` into analyzed lines: comments separated from code,
/// literal contents blanked, brace depth tracked over code only.
pub fn analyze(text: &str) -> Vec<Line> {
    let chars: Vec<char> = text.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut depth: u32 = 0;
    let mut depth_start: u32 = 0;
    let mut mode = Mode::Code;
    let mut i = 0;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                depth_start,
                depth_end: depth,
                in_cfg_test: false,
            });
            depth_start = depth;
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    mode = Mode::LineComment;
                    i += 2;
                    while matches!(chars.get(i), Some('/') | Some('!')) {
                        i += 1;
                    }
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                    continue;
                }
                if (c == 'r' || c == 'b') && (i == 0 || !is_ident(chars[i - 1])) {
                    if let Some((hashes, consumed)) = raw_string_start(&chars, i) {
                        for _ in 0..consumed.saturating_sub(1) {
                            code.push(' ');
                        }
                        code.push('"');
                        mode = Mode::RawStr(hashes);
                        i += consumed;
                        continue;
                    }
                    if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        code.push(' ');
                        code.push('"');
                        mode = Mode::Str;
                        i += 2;
                        continue;
                    }
                }
                if c == '\'' {
                    if let Some(len) = char_literal_len(&chars, i) {
                        code.push('\'');
                        for _ in 0..len.saturating_sub(2) {
                            code.push(' ');
                        }
                        code.push('\'');
                        i += len;
                        continue;
                    }
                    code.push('\'');
                    i += 1;
                    continue;
                }
                if c == '{' {
                    depth += 1;
                } else if c == '}' {
                    depth = depth.saturating_sub(1);
                }
                code.push(c);
                i += 1;
            }
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::BlockComment(d) => {
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::BlockComment(d + 1);
                    i += 2;
                    continue;
                }
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    mode = if d == 1 { Mode::Code } else { Mode::BlockComment(d - 1) };
                    i += 2;
                    continue;
                }
                comment.push(c);
                i += 1;
            }
            Mode::Str => {
                if c == '\\' {
                    // Keep escaped quotes/backslashes from terminating the
                    // literal; a trailing `\` before a newline is left for
                    // the newline handler above.
                    code.push(' ');
                    if chars.get(i + 1).is_some_and(|&n| n != '\n') {
                        code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                if c == '"' {
                    code.push('"');
                    mode = Mode::Code;
                    i += 1;
                    continue;
                }
                code.push(' ');
                i += 1;
            }
            Mode::RawStr(h) => {
                if c == '"' && (0..h as usize).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                    code.push('"');
                    for _ in 0..h {
                        code.push(' ');
                    }
                    mode = Mode::Code;
                    i += 1 + h as usize;
                    continue;
                }
                code.push(' ');
                i += 1;
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line { code, comment, depth_start, depth_end: depth, in_cfg_test: false });
    }
    lines
}

/// Mark every line belonging to a `#[cfg(test)]`-gated item.
fn mark_cfg_test(lines: &mut [Line]) {
    let n = lines.len();
    let mut i = 0;
    while i < n {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // The attribute gates the next item: skip attributes, comments
        // and blank lines to find it.
        let mut j = i + 1;
        while j < n {
            let t = lines[j].code.trim();
            if t.is_empty() || t.starts_with("#[") {
                j += 1;
            } else {
                break;
            }
        }
        if j >= n {
            break;
        }
        let base = lines[j].depth_start;
        // Item with a block: mark through the matching close brace.
        // Blockless item (e.g. a gated `use`): mark the one line.
        let mut end = j;
        if lines[j].depth_end > base {
            while end < n && lines[end].depth_end > base {
                end += 1;
            }
            end = end.min(n - 1);
        }
        for line in lines.iter_mut().take(end + 1).skip(i) {
            line.in_cfg_test = true;
        }
        i = end + 1;
    }
}

/// Parse a `lint-allow:` / `lint-scope:` directive payload into
/// whitespace-separated words. A directive must be the entire comment
/// (so prose that merely *mentions* the syntax never parses as one).
pub(crate) fn directive_words(comment: &str, marker: &str) -> Option<Vec<String>> {
    let rest = comment.trim_start().strip_prefix(marker)?;
    Some(rest.split_whitespace().map(str::to_owned).collect())
}

impl SourceFile {
    pub fn new(rel: &str, text: &str) -> SourceFile {
        let mut lines = analyze(text);
        mark_cfg_test(&mut lines);

        let mut code = String::new();
        let mut line_offsets = Vec::with_capacity(lines.len());
        for line in &lines {
            line_offsets.push(code.len());
            code.push_str(&line.code);
            code.push('\n');
        }

        let mut file = SourceFile {
            rel: rel.to_owned(),
            lines,
            code,
            line_offsets,
            scopes: Vec::new(),
            waivers: Vec::new(),
            directive_errors: Vec::new(),
        };
        file.collect_directives();
        file
    }

    fn collect_directives(&mut self) {
        for i in 0..self.lines.len() {
            let lineno = i + 1;
            let comment = self.lines[i].comment.clone();
            if let Some(words) = directive_words(&comment, "lint-scope:") {
                match words.first() {
                    Some(tag) => self.scopes.push(tag.clone()),
                    None => self.directive_errors.push(DirectiveError {
                        line: lineno,
                        message: "lint-scope directive without a scope name".to_owned(),
                    }),
                }
            }
            let Some(words) = directive_words(&comment, "lint-allow:") else { continue };
            let Some(rule) = words.first().cloned() else {
                self.directive_errors.push(DirectiveError {
                    line: lineno,
                    message: "lint-allow directive without a rule id".to_owned(),
                });
                continue;
            };
            let reason = words[1..].join(" ");
            if reason.is_empty() {
                self.directive_errors.push(DirectiveError {
                    line: lineno,
                    message: format!("lint-allow for `{rule}` needs a reason after the rule id"),
                });
                continue;
            }
            let (first, last) = self.waiver_range(i);
            self.waivers.push(Waiver { rule, reason, first_line: first + 1, last_line: last + 1 });
        }
    }

    /// 0-based inclusive line range covered by a waiver written on line
    /// `i`: the line itself when it carries code; otherwise the next
    /// item — the whole body when that item is a function.
    fn waiver_range(&self, i: usize) -> (usize, usize) {
        if !self.lines[i].code.trim().is_empty() {
            return (i, i);
        }
        let n = self.lines.len();
        let mut j = i + 1;
        while j < n {
            let t = self.lines[j].code.trim();
            if t.is_empty() || t.starts_with("#[") {
                j += 1;
            } else {
                break;
            }
        }
        if j >= n {
            return (i, i);
        }
        // Scan the item signature up to its opening brace (or `;`).
        let base = self.lines[j].depth_start;
        let mut sig = String::new();
        let mut k = j;
        let mut opens_block = false;
        while k < n && k < j + 25 {
            sig.push_str(&self.lines[k].code);
            sig.push(' ');
            if self.lines[k].depth_end > base {
                opens_block = true;
                break;
            }
            if self.lines[k].code.contains(';') {
                break;
            }
            k += 1;
        }
        if opens_block && find_word(&sig, "fn").next().is_some() {
            let mut end = k;
            while end < n && self.lines[end].depth_end > base {
                end += 1;
            }
            return (i, end.min(n - 1));
        }
        (i, j)
    }

    /// Byte offset in `self.code` where 0-based `line` starts.
    pub fn line_start(&self, line: usize) -> usize {
        self.line_offsets.get(line).copied().unwrap_or(self.code.len())
    }

    /// 1-based line number containing byte offset `at` of `self.code`.
    pub fn line_of(&self, at: usize) -> usize {
        match self.line_offsets.binary_search(&at) {
            Ok(idx) => idx + 1,
            Err(idx) => idx, // idx is the insertion point: line idx-1, 1-based idx
        }
    }

    /// Whether a waiver for `rule` covers 1-based `line`.
    pub fn is_waived(&self, rule: &str, line: usize) -> bool {
        self.waivers.iter().any(|w| w.rule == rule && w.first_line <= line && line <= w.last_line)
    }
}

/// Iterator over the byte offsets of whole-word occurrences of `word`
/// in `hay` (neither neighbor is an identifier character).
pub fn find_word<'a>(hay: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let bytes = hay.as_bytes();
    let mut from = 0;
    std::iter::from_fn(move || {
        while from <= hay.len() {
            let rel = hay[from..].find(word)?;
            let at = from + rel;
            from = at + word.len().max(1);
            let before_ok = at == 0 || {
                let c = bytes[at - 1] as char;
                !(c.is_ascii_alphanumeric() || c == '_')
            };
            let end = at + word.len();
            let after_ok = end >= hay.len() || {
                let c = bytes[end] as char;
                !(c.is_ascii_alphanumeric() || c == '_')
            };
            if before_ok && after_ok {
                return Some(at);
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_separated_from_code() {
        let f = SourceFile::new(
            "x.rs",
            "let a = \"vec![in a string]\"; // vec![in a comment]\nlet b = 2;\n",
        );
        assert!(!f.lines[0].code.contains("vec!["));
        assert!(f.lines[0].comment.contains("vec![in a comment]"));
        assert!(f.lines[0].code.contains("let a ="));
        assert_eq!(f.lines[1].code.trim(), "let b = 2;");
    }

    #[test]
    fn raw_strings_and_escapes_are_blanked() {
        let f = SourceFile::new(
            "x.rs",
            "let a = r#\"unsafe { \"quoted\" }\"#;\nlet b = \"esc \\\" brace {\";\nlet c = 1;\n",
        );
        assert!(!f.code.contains("unsafe"));
        assert!(!f.lines[1].code.contains('{'));
        assert_eq!(f.lines[0].depth_start, 0);
        assert_eq!(f.lines[2].depth_end, 0, "literal braces must not affect depth");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let f = SourceFile::new(
            "x.rs",
            "fn f<'a>(x: &'a str) -> char { '}' }\nlet esc = '\\n';\nlet q = '\\'';\n",
        );
        // The '}' literal must not close the fn's brace...
        assert_eq!(f.lines[0].depth_end, 0, "fn opens and closes on one line");
        // ...and escapes survive without desyncing the lexer.
        assert!(f.lines[1].code.contains("let esc"));
        assert!(f.lines[2].code.contains("let q"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = SourceFile::new("x.rs", "a /* one /* two */ still */ b\n/* open\nclose */ c\n");
        assert!(f.lines[0].code.contains('a') && f.lines[0].code.contains('b'));
        assert!(!f.lines[0].code.contains("still"));
        assert!(f.lines[1].code.trim().is_empty());
        assert!(f.lines[2].code.contains('c'));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::new("x.rs", src);
        assert!(!f.lines[0].in_cfg_test);
        assert!(f.lines[1].in_cfg_test && f.lines[2].in_cfg_test);
        assert!(f.lines[3].in_cfg_test && f.lines[4].in_cfg_test);
        assert!(!f.lines[5].in_cfg_test);
    }

    #[test]
    fn waiver_on_code_line_covers_that_line_only() {
        let src = "let a = 1; // lint-allow: float-ordering keys are finite by construction\nlet b = 2;\n";
        let f = SourceFile::new("x.rs", src);
        assert_eq!(f.waivers.len(), 1);
        assert!(f.is_waived("float-ordering", 1));
        assert!(!f.is_waived("float-ordering", 2));
        assert!(!f.is_waived("no-alloc-kernel", 1), "waivers are per-rule");
    }

    #[test]
    fn standalone_waiver_covers_the_following_function_body() {
        let src = "\
// lint-allow: no-alloc-kernel constructor, not on the per-distance path
pub fn setup(n: usize) -> Vec<f64> {
    let v = vec![0.0; n];
    v
}
fn hot() {}
";
        let f = SourceFile::new("x.rs", src);
        assert_eq!(f.waivers.len(), 1);
        let w = &f.waivers[0];
        assert_eq!((w.first_line, w.last_line), (1, 5));
        assert!(f.is_waived("no-alloc-kernel", 3));
        assert!(!f.is_waived("no-alloc-kernel", 6));
    }

    #[test]
    fn malformed_waivers_are_reported() {
        let f = SourceFile::new("x.rs", "// lint-allow: float-ordering\n// lint-allow:\n");
        assert_eq!(f.waivers.len(), 0);
        assert_eq!(f.directive_errors.len(), 2);
        assert!(f.directive_errors[0].message.contains("reason"));
        assert!(f.directive_errors[1].message.contains("rule id"));
    }

    #[test]
    fn scope_tags_are_collected() {
        let f = SourceFile::new("x.rs", "// lint-scope: no_alloc\nfn f() {}\n");
        assert_eq!(f.scopes, vec!["no_alloc".to_owned()]);
    }

    #[test]
    fn find_word_respects_identifier_boundaries() {
        let hits: Vec<usize> = find_word("unsafe unsafe_code fn_unsafe unsafe", "unsafe").collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], 0);
    }
}
