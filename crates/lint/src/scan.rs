//! Token/line-level Rust scanner: the dependency-free front end of
//! `ruche-lint`.
//!
//! Full parsing is neither available (no external crates) nor necessary —
//! every rule the linter enforces is decidable from three per-line facts:
//!
//! * `code`: the line with comments removed and the *contents* of string
//!   and char literals blanked out (so a pattern inside a string can never
//!   trigger a rule, and a `//` inside a string never eats the line);
//! * `comment`: the comment text of the line (doc comments included),
//!   where `lint:allow(...)` markers live;
//! * `in_test`: whether the line sits inside a `#[cfg(test)]` item, which
//!   most rules skip (test code may freely use wall clocks and `unwrap`).
//!
//! The scanner is deliberately conservative: nested block comments, raw
//! strings (`r"…"`, `r#"…"#`), byte strings, and multi-line literals are
//! handled; exotic token streams inside macros are treated as plain text,
//! which at worst makes the linter *stricter* than a full parser (a rule
//! match inside a macro body still counts — fine for this codebase).

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with comments stripped and literal contents blanked.
    pub code: String,
    /// Concatenated comment text of this line (line, block, and doc).
    pub comment: String,
    /// Inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// Lexer mode carried across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Inside `/* … */`; Rust block comments nest, so track the depth.
    Block(u32),
    /// Inside a normal `"…"` string (may span lines via `\` continuation).
    Str,
    /// Inside a raw string with this many `#`s.
    RawStr(u32),
}

/// Scans full file contents into per-line records.
pub fn scan(contents: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    for raw in contents.lines() {
        let (code, comment, next) = scan_line(raw, mode);
        mode = next;
        lines.push(Line {
            code,
            comment,
            in_test: false,
        });
    }
    mark_cfg_test(&mut lines);
    lines
}

/// Scans one line starting in `mode`; returns (code, comment, end mode).
fn scan_line(raw: &str, mut mode: Mode) -> (String, String, Mode) {
    let b: Vec<char> = raw.chars().collect();
    let n = b.len();
    let mut code = String::new();
    let mut comment = String::new();
    let mut i = 0;
    while i < n {
        match mode {
            Mode::Block(depth) => {
                if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    i += 2;
                } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else {
                    comment.push(b[i]);
                    i += 1;
                }
            }
            Mode::Str => {
                if b[i] == '\\' {
                    i += 2; // skip the escaped char (possibly the quote)
                } else if b[i] == '"' {
                    code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if b[i] == '"' && closes_raw(&b, i + 1, hashes) {
                    code.push('"');
                    i += 1 + hashes as usize;
                    mode = Mode::Code;
                } else {
                    i += 1;
                }
            }
            Mode::Code => {
                let c = b[i];
                if c == '/' && i + 1 < n && b[i + 1] == '/' {
                    // Line comment (doc or not): the rest is comment text.
                    comment.push_str(&raw[char_offset(raw, i)..]);
                    i = n;
                } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
                    mode = Mode::Block(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
                    let (hashes, skip) = raw_string_open(&b, i);
                    code.push('"');
                    mode = Mode::RawStr(hashes);
                    i += skip;
                } else if c == 'b' && i + 1 < n && b[i + 1] == '"' {
                    code.push('"');
                    mode = Mode::Str;
                    i += 2;
                } else if c == '\'' && is_char_literal(&b, i) {
                    // Blank the char literal (vs. a lifetime, kept as-is).
                    code.push('\'');
                    i += 1;
                    while i < n && b[i] != '\'' {
                        if b[i] == '\\' {
                            i += 1;
                        }
                        i += 1;
                    }
                    if i < n {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
        }
    }
    // Plain strings do not actually continue across lines without an
    // escape; treat an unterminated `"` at EOL as continuing (covers the
    // `\` continuation case; over-approximation is harmless for linting).
    (code, comment, mode)
}

/// Byte offset of char index `i` in `s`.
fn char_offset(s: &str, i: usize) -> usize {
    s.char_indices().nth(i).map(|(o, _)| o).unwrap_or(s.len())
}

/// Is `b[i]` the start of `r"`, `r#"`, `br"`, `rb"`, … ?
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    // Must not be part of a longer identifier (e.g. `for` ends in `r`).
    if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

/// Number of `#`s and total chars of the raw-string opener at `i`.
fn raw_string_open(b: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // the `"`
    (hashes, j - i)
}

/// Does position `i` (just past a `"`) close a raw string with `hashes` #s?
fn closes_raw(b: &[char], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| b.get(i + k) == Some(&'#'))
}

/// Is the `'` at `b[i]` a char literal (vs. a lifetime)? Char literals
/// always have a closing `'` within a few chars: `'x'`, `'\n'`, `'\u{…}'`.
fn is_char_literal(b: &[char], i: usize) -> bool {
    // A lifetime follows `<`, `&`, `,`, `:` etc. and is never closed by a
    // nearby quote. Look ahead for the closing quote.
    let mut j = i + 1;
    if j < b.len() && b[j] == '\\' {
        // Escaped: scan to the next quote (bounded — `\u{10FFFF}` worst case).
        let limit = (i + 12).min(b.len());
        j += 1;
        while j < limit {
            if b[j] == '\'' {
                return true;
            }
            j += 1;
        }
        return false;
    }
    j + 1 < b.len() && b[j] != '\'' && b[j + 1] == '\''
}

/// Marks lines inside `#[cfg(test)]` items. Brace-counted on the stripped
/// code, so braces in strings or comments cannot desynchronize it.
fn mark_cfg_test(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("cfg(test)") && lines[i].code.trim_start().starts_with("#[") {
            // Find the item's opening brace (or a `;` for `mod tests;`).
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            'outer: while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && depth == 0 => break 'outer, // out-of-line module
                        _ => {}
                    }
                }
                lines[j].in_test = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped_from_code() {
        let lines = scan("let x = \"unwrap() inside\"; // .unwrap() trailing\n");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.contains(".unwrap() trailing"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let src = "a /* one /* two */ still */ b\n/* open\nstill comment .unwrap()\n*/ code\n";
        let lines = scan(src);
        assert_eq!(lines[0].code.replace(' ', ""), "ab");
        assert!(lines[2].code.is_empty());
        assert!(lines[2].comment.contains("unwrap"));
        assert_eq!(lines[3].code.trim(), "code");
    }

    #[test]
    fn raw_strings_do_not_leak_tokens() {
        let lines = scan("let p = r#\"no .unwrap() \" here\"#; foo();\n");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("foo()"));
    }

    #[test]
    fn char_literals_blank_but_lifetimes_survive() {
        let lines = scan("fn f<'a>(x: &'a str) { let q = '\"'; let z = 'y'; }\n");
        assert!(lines[0].code.contains("<'a>"));
        assert!(lines[0].code.contains("&'a str"));
        // The quote char must not open a string that eats the rest.
        assert!(lines[0].code.contains("let z ="));
    }

    #[test]
    fn cfg_test_items_are_marked_to_their_closing_brace() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lines = scan(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test && lines[2].in_test && lines[3].in_test && lines[4].in_test);
        assert!(!lines[5].in_test);
    }

    #[test]
    fn out_of_line_test_module_marks_nothing_after_the_semicolon() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let lines = scan(src);
        assert!(!lines[2].in_test);
    }
}
