//! A lightweight Rust source scanner.
//!
//! `yoda-tidy` must not depend on `syn` (the build is hermetic: no
//! registry crates), so rules match against *lexed lines*: the source with
//! comments, string literals, and char literals blanked out. That is
//! enough to make substring rules reliable — a forbidden pattern inside a
//! doc comment or a string literal never fires — without a full parser.
//!
//! The lexer also tracks `#[cfg(test)]` module regions so rules can skip
//! test-only code, and brace depth so those regions end precisely.

/// One line of a lexed source file.
#[derive(Debug)]
pub struct LexedLine {
    /// 1-based line number.
    pub number: usize,
    /// The line with comments/strings/chars replaced by spaces.
    pub code: String,
    /// The original line, for reporting and allowlist matching.
    pub raw: String,
    /// Whether the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// Lexes a whole file into per-line code views.
pub fn lex(source: &str) -> Vec<LexedLine> {
    let mut out = Vec::new();
    let mut state = State::Code;
    // Brace depth at which each active #[cfg(test)] item opened; test code
    // ends when depth returns to the recorded value.
    let mut depth: i64 = 0;
    let mut test_until: Option<i64> = None;
    // A #[cfg(test)] attribute seen, waiting for its item's opening brace.
    let mut pending_test_attr = false;

    for (idx, raw) in source.lines().enumerate() {
        let code = strip_line(raw, &mut state);
        let in_test = test_until.is_some();

        if code.contains("#[cfg(test)]") {
            pending_test_attr = true;
        }
        for ch in code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending_test_attr {
                        // The test item's body opens here.
                        if test_until.is_none() {
                            test_until = Some(depth - 1);
                        }
                        pending_test_attr = false;
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some(limit) = test_until {
                        if depth <= limit {
                            test_until = None;
                        }
                    }
                }
                _ => {}
            }
        }

        out.push(LexedLine {
            number: idx + 1,
            code,
            raw: raw.to_string(),
            in_test: in_test || test_until.is_some(),
        });
    }
    out
}

/// Lexer state carried across lines (block comments and raw strings can
/// span lines; ordinary string literals in Rust can too, via `\` or simply
/// an embedded newline).
enum State {
    Code,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Strips comments/strings from one line, updating cross-line state.
/// Stripped spans become spaces so columns are preserved.
fn strip_line(raw: &str, state: &mut State) -> String {
    let b: Vec<char> = raw.chars().collect();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0usize;
    while i < b.len() {
        match state {
            State::BlockComment(depth) => {
                if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    let d = *depth;
                    if d <= 1 {
                        *state = State::Code;
                    } else {
                        *state = State::BlockComment(d - 1);
                    }
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    *state = State::BlockComment(*depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if b[i] == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '"' {
                    *state = State::Code;
                    out.push('"');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b[i] == '"' {
                    let n = *hashes as usize;
                    let closes = (0..n).all(|k| b.get(i + 1 + k) == Some(&'#'));
                    if closes {
                        *state = State::Code;
                        out.push('"');
                        for _ in 0..n {
                            out.push(' ');
                        }
                        i += 1 + n;
                        continue;
                    }
                }
                out.push(' ');
                i += 1;
            }
            State::Code => {
                let c = b[i];
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    // Line (or doc) comment: rest of line is gone.
                    break;
                }
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    *state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    *state = State::Str;
                    out.push('"');
                    i += 1;
                    continue;
                }
                if c == 'r' && matches!(b.get(i + 1), Some('"') | Some('#')) {
                    // Possible raw string r"..." / r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        *state = State::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal or lifetime. Treat 'x' / '\n' as char
                    // literals; anything else (e.g. 'a in generics) as a
                    // lifetime, which we keep.
                    if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\\') {
                        out.push_str("   ");
                        i += 3;
                        continue;
                    }
                    if b.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: find closing quote.
                        let mut j = i + 2;
                        while j < b.len() && b[j] != '\'' {
                            j += 1;
                        }
                        for _ in i..=j.min(b.len() - 1) {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                }
                out.push(c);
                i += 1;
            }
        }
    }
    // A string literal cannot actually end at a line break unless it is a
    // multi-line string; `State::Str`/`RawStr` persists into the next line
    // which is exactly what we want.
    if matches!(state, State::Str) && !raw.trim_end().ends_with('\\') && !raw.contains('"') {
        // Defensive: never happens for well-formed input we feed ourselves.
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_and_strings() {
        let lines = lex("let x = \"HashMap\"; // HashMap here\nlet y = HashMap::new();\n");
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[1].code.contains("HashMap"));
    }

    #[test]
    fn strips_block_comments_across_lines() {
        let lines = lex("a /* start\n HashMap \n end */ b\n");
        assert!(lines[0].code.starts_with('a'));
        assert!(!lines[1].code.contains("HashMap"));
        assert!(lines[2].code.contains('b'));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let lines = lex("let p = r#\"unwrap() inside\"#; call();\n");
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("call()"));
    }

    #[test]
    fn cfg_test_region_tracked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let lines = lex(src);
        assert!(!lines[0].in_test);
        assert!(lines[3].in_test, "inside test mod");
        assert!(!lines[5].in_test, "after test mod");
    }

    #[test]
    fn line_comment_marker_inside_string_is_not_a_comment() {
        let lines = lex("let url = \"http://example.test\"; x.unwrap();\n");
        assert!(!lines[0].code.contains("http"));
        assert!(lines[0].code.contains(".unwrap()"), "code after the string survives");
    }

    #[test]
    fn nested_block_comments_strip_to_the_outer_close() {
        let lines = lex("a /* one /* two */ HashMap */ b.unwrap()\n");
        assert!(!lines[0].code.contains("HashMap"), "inner close must not end the comment");
        assert!(lines[0].code.contains("b.unwrap()"));
    }

    #[test]
    fn nested_block_comments_across_lines() {
        let lines = lex("/* outer /* inner\n unwrap() */\n still comment */ done\n");
        assert!(!lines[1].code.contains("unwrap"));
        assert!(!lines[2].code.contains("still"));
        assert!(lines[2].code.contains("done"));
    }

    #[test]
    fn raw_string_with_hashes_spans_lines() {
        let src = "let q = r##\"one \"# not the end\nunwrap() two\"##; tail();\n";
        let lines = lex(src);
        assert!(!lines[0].code.contains("one"));
        assert!(!lines[1].code.contains("unwrap"), "\"# must not close an r## string");
        assert!(lines[1].code.contains("tail()"));
    }

    #[test]
    fn raw_string_containing_comment_markers() {
        let lines = lex("let p = r\"// not a comment /*\"; y.expect(\"m\")\n");
        assert!(!lines[0].code.contains("not a comment"));
        assert!(lines[0].code.contains(".expect("), "code after the raw string survives");
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let lines = lex("let q = '\"'; let h = HashMap::new();\n");
        assert!(lines[0].code.contains("HashMap"));
    }

    #[test]
    fn doc_comments_stripped() {
        let lines = lex("/// uses Instant::now() for x\nfn f() {}\n");
        assert!(!lines[0].code.contains("Instant"));
    }

    #[test]
    fn generic_type_mentions_in_comments_and_strings_blanked() {
        // Rules pattern-match type names on the code view; prose about
        // an old design must not trip them.
        let src = "// replaced Rc<RefCell<T>> with ids\nlet m = \"uses Rc<str> inside\";\nlet real: Rc<str> = x;\n";
        let lines = lex(src);
        assert!(!lines[0].code.contains("Rc<"), "comment blanked");
        assert!(!lines[1].code.contains("Rc<"), "string blanked");
        assert!(lines[2].code.contains("Rc<str>"), "real code survives");
    }

    #[test]
    fn lifetime_angle_brackets_survive_char_literal_logic() {
        // `Rc<'a, T>`-style lifetimes put a `'` right after `<`; the
        // char-literal scanner must not eat the rest of the line.
        let lines = lex("struct S<'a> { r: Weak<'a ()>, c: Cell<u8> }\n");
        assert!(lines[0].code.contains("Weak<"));
        assert!(lines[0].code.contains("Cell<u8>"));
    }
}
