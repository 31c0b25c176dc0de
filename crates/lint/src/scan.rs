//! A lightweight Rust source scanner.
//!
//! The lint rules only need to know three things about a file: which bytes
//! are *code* (as opposed to comment, string, or char-literal content),
//! which lines sit inside test-only regions (`#[cfg(test)]` modules and
//! `#[test]` functions), and which `// bao-lint: allow(...)` pragmas are
//! present. This module computes all three in one pass, without a full
//! parser: comments and literal *contents* are blanked out with spaces
//! (preserving line structure and column positions), pragmas are harvested
//! from comment text, and test regions are found by brace matching after a
//! test attribute.

/// A source file reduced to lint-relevant structure.
#[derive(Debug)]
pub struct MaskedSource {
    /// Source lines with comment and literal contents replaced by spaces.
    /// Delimiters (`"`, `//`, ...) are blanked too; only code survives.
    pub lines: Vec<String>,
    /// `(line, rule)` pairs from `bao-lint: allow(rule, ...)` pragmas
    /// (1-based line of the pragma comment itself).
    pub allows: Vec<(usize, String)>,
    /// `true` for every (1-based) line inside a test-only region.
    test_lines: Vec<bool>,
    /// `true` for every (1-based) line inside a `for` loop body.
    loop_lines: Vec<bool>,
}

impl MaskedSource {
    /// Is 1-based `line` inside a `#[cfg(test)]` module or `#[test]` fn?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Is 1-based `line` inside the braces of a `for` loop?
    pub fn is_loop_line(&self, line: usize) -> bool {
        self.loop_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Is a diagnostic for `rule` at 1-based `line` suppressed by a
    /// pragma? Pragmas apply to their own line and to the line below
    /// (so both trailing and preceding-line annotations work).
    pub fn is_allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    Char,
}

/// Scan `src` into a [`MaskedSource`].
pub fn mask(src: &str) -> MaskedSource {
    let chars: Vec<char> = src.chars().collect();
    let mut masked: Vec<char> = Vec::with_capacity(chars.len());
    // Comment text of the comment currently being scanned, for pragmas.
    let mut comment_buf = String::new();
    let mut comment_start_line = 1usize;
    let mut allows: Vec<(usize, String)> = Vec::new();

    let mut state = State::Code;
    let mut line = 1usize;
    let mut i = 0usize;

    macro_rules! finish_comment {
        () => {{
            harvest_pragmas(&comment_buf, comment_start_line, &mut allows);
            comment_buf.clear();
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    comment_start_line = line;
                    masked.push(' ');
                    masked.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    comment_start_line = line;
                    masked.push(' ');
                    masked.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str { raw_hashes: None };
                    masked.push(' ');
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    // r"...", r#"..."#, br"...", b"..." — skip the prefix
                    // and count hashes.
                    let mut j = i;
                    let mut saw_r = false;
                    while chars.get(j) == Some(&'b') || chars.get(j) == Some(&'r') {
                        saw_r |= chars[j] == 'r';
                        masked.push(' ');
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        masked.push(' ');
                        hashes += 1;
                        j += 1;
                    }
                    // chars[j] is the opening quote. Raw strings (`r`
                    // prefix) take no escapes; plain `b"..."` does.
                    masked.push(' ');
                    i = j + 1;
                    state = State::Str { raw_hashes: if saw_r { Some(hashes) } else { None } };
                    continue;
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some(n) if n != '\'' && (n.is_alphanumeric() || n == '_') => {
                            chars.get(i + 2) == Some(&'\'')
                        }
                        Some(_) => true,
                        None => false,
                    };
                    if is_char_lit {
                        state = State::Char;
                        masked.push(' ');
                    } else {
                        masked.push(c); // lifetime tick: keep as code
                    }
                }
                _ => masked.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    finish_comment!();
                    state = State::Code;
                    masked.push('\n');
                } else {
                    comment_buf.push(c);
                    masked.push(' ');
                }
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    comment_buf.push_str("/*");
                    masked.push(' ');
                    masked.push(' ');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    if depth == 1 {
                        finish_comment!();
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                        comment_buf.push_str("*/");
                    }
                    masked.push(' ');
                    masked.push(' ');
                    i += 2;
                    continue;
                }
                if c == '\n' {
                    comment_buf.push('\n');
                    masked.push('\n');
                } else {
                    comment_buf.push(c);
                    masked.push(' ');
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        masked.push(' ');
                        if next.is_some() && next != Some('\n') {
                            masked.push(' ');
                            i += 2;
                            continue;
                        }
                    } else if c == '"' {
                        state = State::Code;
                        masked.push(' ');
                    } else if c == '\n' {
                        masked.push('\n');
                    } else {
                        masked.push(' ');
                    }
                }
                Some(h) => {
                    if c == '"' && closes_raw_string(&chars, i, h) {
                        masked.extend(std::iter::repeat_n(' ', h as usize + 1));
                        i += 1 + h as usize;
                        state = State::Code;
                        continue;
                    }
                    masked.push(if c == '\n' { '\n' } else { ' ' });
                }
            },
            State::Char => {
                if c == '\\' && next.is_some() {
                    masked.push(' ');
                    masked.push(' ');
                    i += 2;
                    continue;
                }
                masked.push(if c == '\n' { '\n' } else { ' ' });
                if c == '\'' || c == '\n' {
                    state = State::Code;
                }
            }
        }
        if c == '\n' {
            line += 1;
        }
        i += 1;
    }
    if matches!(state, State::LineComment | State::BlockComment(_)) {
        harvest_pragmas(&comment_buf, comment_start_line, &mut allows);
    }

    let masked_str: String = masked.into_iter().collect();
    let lines: Vec<String> = masked_str.split('\n').map(|l| l.to_string()).collect();
    let test_lines = find_test_lines(&lines);
    let loop_lines = find_for_regions(&lines);
    MaskedSource { lines, allows, test_lines, loop_lines }
}

fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Accept r"..."/r#"..."#/br"..."/b"..."/rb is not valid Rust; keep to
    // the real prefixes. Must not swallow plain identifiers ending in r/b.
    if i > 0 {
        let p = chars[i - 1];
        if p.is_alphanumeric() || p == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    } else if j == i {
        return false; // bare 'r' required unless b"..."
    }
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"') && (chars.get(i) == Some(&'b') || chars.get(i) == Some(&'r'))
}

fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Extract `bao-lint: allow(rule, ...)` pragmas from one comment's text.
/// `start_line` is the comment's first line; pragmas on later lines of a
/// block comment get their true line.
fn harvest_pragmas(text: &str, start_line: usize, allows: &mut Vec<(usize, String)>) {
    for (off, comment_line) in text.split('\n').enumerate() {
        let mut rest = comment_line;
        while let Some(pos) = rest.find("bao-lint:") {
            rest = &rest[pos + "bao-lint:".len()..];
            let Some(arg) = rest.trim_start().strip_prefix("allow(") else { continue };
            if let Some(end) = arg.find(')') {
                let rules = arg[..end].split(',').map(str::trim).filter(|r| !r.is_empty());
                allows.extend(rules.map(|r| (start_line + off, r.to_string())));
            }
        }
    }
}

/// Mark every line inside a `#[cfg(test)]` or `#[test]` item's braces.
fn find_test_lines(masked_lines: &[String]) -> Vec<bool> {
    let mut test = vec![false; masked_lines.len()];
    let mut depth: i64 = 0;
    // Depth at which each active test region started; regions can nest.
    let mut region_starts: Vec<i64> = Vec::new();
    let mut pending_attr = false;

    for (li, line) in masked_lines.iter().enumerate() {
        // A line closing a region (its `}`) is still part of it.
        let active_at_start = !region_starts.is_empty();
        let compact: String = line.split_whitespace().collect();
        if compact.contains("#[cfg(test)]") || compact.contains("#[test]") {
            pending_attr = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_attr {
                        region_starts.push(depth);
                        pending_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_starts.last().is_some_and(|s| depth <= *s) {
                        region_starts.pop();
                    }
                }
                // An attribute followed by a brace-less item
                // (e.g. `#[cfg(test)] use ...;`) opens no region.
                ';' if pending_attr && region_starts.is_empty() => pending_attr = false,
                _ => {}
            }
        }
        if active_at_start || !region_starts.is_empty() || pending_attr {
            test[li] = true;
        }
    }
    test
}

/// Is the word `w` present at `chars[i..]` with identifier boundaries?
fn word_at(chars: &[char], i: usize, w: &str) -> bool {
    let wl = w.chars().count();
    if i + wl > chars.len() || !chars[i..i + wl].iter().copied().eq(w.chars()) {
        return false;
    }
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let before_ok = i == 0 || !ident(chars[i - 1]);
    let after_ok = !chars.get(i + wl).copied().is_some_and(ident);
    before_ok && after_ok
}

/// Mark every line inside a `for` loop's braces. The `for ... {` header
/// line counts as inside once its `{` opens. `impl Trait for Type` and
/// higher-ranked `for<'a>` bounds are not loops and open no region.
fn find_for_regions(masked_lines: &[String]) -> Vec<bool> {
    let mut in_loop = vec![false; masked_lines.len()];
    let mut depth: i64 = 0;
    // Depth at which each active loop body started; loops nest.
    let mut region_starts: Vec<i64> = Vec::new();
    let mut pending = false;

    for (li, line) in masked_lines.iter().enumerate() {
        let active_at_start = !region_starts.is_empty();
        // A single-line loop opens and closes within the line; remember
        // the open so the line still counts as loop body.
        let mut opened_here = false;
        let chars: Vec<char> = line.chars().collect();
        let impl_line = (0..chars.len()).any(|i| word_at(&chars, i, "impl"));
        let mut i = 0;
        while i < chars.len() {
            match chars[i] {
                '{' => {
                    if pending {
                        region_starts.push(depth);
                        pending = false;
                        opened_here = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region_starts.last().is_some_and(|s| depth <= *s) {
                        region_starts.pop();
                    }
                }
                'f' if !impl_line && word_at(&chars, i, "for") => {
                    if chars.get(i + 3) != Some(&'<') {
                        pending = true;
                    }
                    i += 3;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        if active_at_start || opened_here || !region_starts.is_empty() {
            in_loop[li] = true;
        }
    }
    in_loop
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let src = "let x = \"unwrap()\"; // HashMap here\nlet y = 1;\n";
        let m = mask(src);
        assert!(!m.lines[0].contains("unwrap"));
        assert!(!m.lines[0].contains("HashMap"));
        assert!(m.lines[0].contains("let x ="));
        assert_eq!(m.lines[1], "let y = 1;");
    }

    #[test]
    fn masks_raw_and_escaped_strings() {
        let src = "let a = r#\"x \"quoted\" unsafe\"#;\nlet b = \"esc \\\" unsafe\";\nunsafe {}\n";
        let m = mask(src);
        assert!(!m.lines[0].contains("unsafe"));
        assert!(!m.lines[1].contains("unsafe"));
        assert!(m.lines[2].contains("unsafe"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nlet q = '\"'; let u = \"unsafe\";\n";
        let m = mask(src);
        // lifetime survives as code, char content blanked
        assert!(m.lines[0].contains("<'a>"));
        assert!(!m.lines[0].contains("'x'"));
        // the char-literal quote must not open a string
        assert!(!m.lines[1].contains("unsafe"));
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still comment unsafe */ let ok = 1;\n";
        let m = mask(src);
        assert!(!m.lines[0].contains("unsafe"));
        assert!(m.lines[0].contains("let ok = 1;"));
    }

    #[test]
    fn pragmas_are_harvested_with_lines() {
        let src = "let a = 1; // bao-lint: allow(no-float-eq)\n\
                   // bao-lint: allow(no-unseeded-rng, no-per-node-alloc)\n\
                   let s = RandomState::new();\n";
        let m = mask(src);
        assert!(m.is_allowed("no-float-eq", 1));
        assert!(m.is_allowed("no-unseeded-rng", 3)); // pragma on line 2 covers line 3
        assert!(m.is_allowed("no-per-node-alloc", 2));
        assert!(!m.is_allowed("no-unseeded-rng", 1));
        assert!(!m.is_allowed("no-unseeded-rng", 4));
    }

    #[test]
    fn test_regions_are_marked() {
        let src = "fn prod() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn prod2() {}\n";
        let m = mask(src);
        assert!(!m.is_test_line(1));
        assert!(m.is_test_line(3));
        assert!(m.is_test_line(4));
        assert!(m.is_test_line(5));
        assert!(!m.is_test_line(6));
    }

    #[test]
    fn loop_regions_are_marked() {
        let src = "fn f() {\n\
                   let a = vec![0; 4];\n\
                   for i in 0..4 {\n\
                       let b = vec![0; i];\n\
                   }\n\
                   let c = 1;\n\
                   }\n";
        let m = mask(src);
        assert!(!m.is_loop_line(2));
        assert!(m.is_loop_line(3)); // header line: its `{` opened
        assert!(m.is_loop_line(4));
        assert!(m.is_loop_line(5)); // closing `}` still part of the loop
        assert!(!m.is_loop_line(6));
    }

    #[test]
    fn single_line_loop_is_a_loop_line() {
        let src = "fn f() { for i in 0..3 { g(i); } }\nlet after = 1;\n";
        let m = mask(src);
        assert!(m.is_loop_line(1));
        assert!(!m.is_loop_line(2));
    }

    #[test]
    fn impl_for_and_hrtb_open_no_loop_region() {
        let src = "impl Iterator for Foo {\n\
                   fn next(&mut self) { let v = 1; }\n\
                   }\n\
                   fn g<F: for<'a> Fn(&'a u8)>(f: F) {\n\
                   let w = 2;\n\
                   }\n";
        let m = mask(src);
        for l in 1..=6 {
            assert!(!m.is_loop_line(l), "line {l} wrongly in a loop");
        }
    }

    #[test]
    fn braceless_cfg_test_item_opens_no_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() { x.unwrap(); }\n";
        let m = mask(src);
        assert!(!m.is_test_line(3));
    }
}
