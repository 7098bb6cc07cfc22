//! A lightweight item parser on top of the lexer.
//!
//! Extracts `fn` items (with their enclosing `impl`/`trait` context and
//! body line span) and the call sites inside each body, from the lexed
//! code view of a file. This is deliberately *not* a full Rust parser —
//! it operates on the token stream the lexer leaves behind (comments and
//! strings already blanked) and uses brace matching to find item extents.
//! That is enough to assemble a conservative call graph: we only need to
//! know which named functions a body *might* call, never exact types.
//!
//! Known simplifications (all conservative for taint analysis):
//!
//! * Closures are not items; calls inside a closure are attributed to the
//!   enclosing named function. For taint purposes that is exactly right —
//!   the closure runs on the enclosing function's path or later, and
//!   over-attribution only adds edges.
//! * Generic arguments are skipped textually; a `<` in an impl header is
//!   treated as angle-bracket nesting, not comparison (impl headers never
//!   contain comparisons).
//! * Macros other than the panic family are opaque: `foo!(...)` produces
//!   no call edges.

use crate::lexer::LexedLine;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` — a bare path call.
    Plain,
    /// `self.foo(..)` — method call on `self`; resolves against the
    /// enclosing impl's type first.
    SelfMethod,
    /// `recv.foo(..)` — method call on anything that is not `self`;
    /// resolves to every known method with that name (dynamic-dispatch
    /// safe: this is what makes `node.on_packet(..)` fan out to every
    /// `Node` impl).
    Method,
    /// `Qual::foo(..)` or `Qual::foo` used as a value; the qualifier is
    /// the last path segment before the `::`.
    Qualified(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// Resolution hint.
    pub kind: CallKind,
    /// 1-based source line of the call.
    pub line: usize,
}

/// One `fn` item found in a file.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Type name of the enclosing `impl` block, if any (`impl Foo` or
    /// `impl Trait for Foo` both record `Foo`).
    pub self_ty: Option<String>,
    /// Trait name when inside `impl Trait for Type` or a `trait` block.
    pub trait_name: Option<String>,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Whether the item sits inside `#[cfg(test)]` code.
    pub is_test: bool,
    /// Line of the `fn` keyword.
    pub start_line: usize,
    /// Line of the body's closing brace (== `start_line` for bodyless
    /// trait-method declarations).
    pub end_line: usize,
    /// Call sites inside the body.
    pub calls: Vec<Call>,
}

// ---------------------------------------------------------------------------
// Token scanning
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Debug)]
struct SpannedTok {
    tok: Tok,
    line: usize,
    in_test: bool,
}

/// Scans the lexed code view into identifier/punct tokens. Numeric
/// literals are dropped entirely (they never participate in call syntax).
fn scan(lines: &[LexedLine]) -> Vec<SpannedTok> {
    let mut toks = Vec::new();
    for l in lines {
        let chars: Vec<char> = l.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                toks.push(SpannedTok {
                    tok: Tok::Ident(word),
                    line: l.number,
                    in_test: l.in_test,
                });
            } else if c.is_ascii_digit() {
                // Skip numeric literals (including float dots and type
                // suffixes) so `1.0` does not fake a method-call dot. A
                // `.` is only part of the literal when a digit follows:
                // `self.0.send(..)` keeps its method-call dot.
                i += 1;
                while i < chars.len() {
                    let d = chars[i];
                    let in_literal = d.is_alphanumeric()
                        || d == '_'
                        || (d == '.' && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit()));
                    if !in_literal {
                        break;
                    }
                    i += 1;
                }
            } else {
                toks.push(SpannedTok {
                    tok: Tok::Punct(c),
                    line: l.number,
                    in_test: l.in_test,
                });
                i += 1;
            }
        }
    }
    toks
}

fn is_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "else" | "while" | "for" | "loop" | "match" | "return" | "fn" | "let" | "mut"
            | "ref" | "move" | "in" | "as" | "where" | "impl" | "trait" | "struct" | "enum"
            | "union" | "use" | "pub" | "mod" | "const" | "static" | "dyn" | "break"
            | "continue" | "type" | "crate" | "super" | "unsafe" | "async" | "await" | "box"
            | "extern"
    )
}

// ---------------------------------------------------------------------------
// Item parsing
// ---------------------------------------------------------------------------

/// Context a brace-delimited block contributes to the items inside it.
#[derive(Debug, Clone)]
enum Frame {
    /// `impl Type { .. }` / `impl Trait for Type { .. }`.
    Impl {
        self_ty: Option<String>,
        trait_name: Option<String>,
    },
    /// `trait Name { .. }`.
    TraitDecl { name: String },
    /// A function body; index into the output `fns` vec.
    Fn(usize),
    /// Any other brace pair (struct, match arm, block expression, ...).
    Other,
}

/// Parses every `fn` item (and its call sites) out of one lexed file.
pub fn parse_fns(lines: &[LexedLine]) -> Vec<FnItem> {
    let toks = scan(lines);
    let mut fns: Vec<FnItem> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    // Set when an `impl`/`trait`/`fn` header has been consumed and the
    // next `{` opens its body.
    let mut pending: Option<Frame> = None;

    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Ident(w) if w == "impl" && pending.is_none() => {
                let (frame, next) = parse_impl_header(&toks, i);
                pending = Some(frame);
                i = next;
            }
            Tok::Ident(w) if w == "trait" && pending.is_none() => {
                // `trait Name ... {` — but only when followed by an ident
                // (skips `impl Trait for ...` which is handled above and
                // `dyn Trait`, where `trait` is not a leading keyword).
                if let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.tok) {
                    pending = Some(Frame::TraitDecl { name: name.clone() });
                }
                i += 1;
            }
            Tok::Ident(w) if w == "fn" => {
                let (item, body_opens, next) = parse_fn_header(&toks, i, &stack);
                fns.push(item);
                if body_opens {
                    pending = Some(Frame::Fn(fns.len() - 1));
                } else {
                    // Bodyless declaration (trait method signature).
                    let idx = fns.len() - 1;
                    fns[idx].end_line = fns[idx].start_line;
                }
                i = next;
            }
            Tok::Punct('{') => {
                stack.push(pending.take().unwrap_or(Frame::Other));
                i += 1;
            }
            Tok::Punct('}') => {
                if let Some(Frame::Fn(idx)) = stack.pop() {
                    fns[idx].end_line = toks[i].line;
                }
                i += 1;
            }
            _ => {
                if let Some(call) = detect_call(&toks, i) {
                    if let Some(fidx) = innermost_fn(&stack) {
                        fns[fidx].calls.push(call);
                    }
                }
                i += 1;
            }
        }
    }
    // Unclosed fn bodies (truncated input): close at the last seen line.
    let last_line = lines.last().map_or(1, |l| l.number);
    for f in &mut fns {
        if f.end_line == 0 {
            f.end_line = last_line;
        }
    }
    fns
}

/// Innermost enclosing function body on the frame stack, if any.
fn innermost_fn(stack: &[Frame]) -> Option<usize> {
    stack.iter().rev().find_map(|f| match f {
        Frame::Fn(idx) => Some(*idx),
        _ => None,
    })
}

/// Parses `impl<..> Type {` / `impl<..> Trait for Type {` starting at the
/// `impl` token; returns the frame and the index of the `{` token (the
/// caller leaves `{` to the main loop).
fn parse_impl_header(toks: &[SpannedTok], start: usize) -> (Frame, usize) {
    let mut angle = 0i32;
    // Identifier path segments seen at angle depth 0, split on `for`.
    let mut before_for: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut seen_for = false;
    let mut j = start + 1;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('{') if angle == 0 => break,
            Tok::Punct(';') if angle == 0 => break,
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(w) if angle == 0 => {
                if w == "for" {
                    seen_for = true;
                } else if w == "where" {
                    // Bounds follow; the names are already collected.
                } else if seen_for {
                    after_for.push(w.clone());
                } else {
                    before_for.push(w.clone());
                }
            }
            _ => {}
        }
        j += 1;
    }
    let frame = if seen_for {
        Frame::Impl {
            trait_name: before_for.last().cloned(),
            self_ty: after_for.last().cloned(),
        }
    } else {
        Frame::Impl {
            trait_name: None,
            self_ty: before_for.last().cloned(),
        }
    };
    (frame, j)
}

/// Parses a `fn` header starting at the `fn` token. Returns the item,
/// whether a body follows (`{` vs `;`), and the index to resume from (the
/// `{`/`;` token itself, left for the main loop).
fn parse_fn_header(toks: &[SpannedTok], start: usize, stack: &[Frame]) -> (FnItem, bool, usize) {
    let (self_ty, trait_name) = stack
        .iter()
        .rev()
        .find_map(|f| match f {
            Frame::Impl {
                self_ty,
                trait_name,
            } => Some((self_ty.clone(), trait_name.clone())),
            Frame::TraitDecl { name } => Some((None, Some(name.clone()))),
            _ => None,
        })
        .unwrap_or((None, None));

    let name = match toks.get(start + 1).map(|t| &t.tok) {
        Some(Tok::Ident(n)) => n.clone(),
        // `fn` inside a type position (`fn(..) -> ..` pointer); no item.
        _ => String::new(),
    };
    let mut item = FnItem {
        name,
        self_ty,
        trait_name,
        has_self: false,
        is_test: toks[start].in_test,
        start_line: toks[start].line,
        end_line: 0,
        calls: Vec::new(),
    };

    // Scan the signature: find the parameter list, look for `self` at
    // paren depth 1, and stop at the body `{` or a terminating `;`.
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut seen_params = false;
    let mut j = start + 1;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('(') => {
                paren += 1;
            }
            Tok::Punct(')') => {
                paren -= 1;
                if paren == 0 {
                    seen_params = true;
                }
            }
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Ident(w) if w == "self" && paren == 1 && !seen_params => {
                item.has_self = true;
            }
            Tok::Punct('{') if paren == 0 && angle <= 0 => {
                return (item, true, j);
            }
            Tok::Punct(';') if paren == 0 => {
                return (item, false, j + 1);
            }
            _ => {}
        }
        j += 1;
    }
    (item, false, j)
}

/// Detects a call site (or a qualified function value) at token `i`.
fn detect_call(toks: &[SpannedTok], i: usize) -> Option<Call> {
    let name = match &toks[i].tok {
        Tok::Ident(w) if !is_keyword(w) && w != "self" && w != "Self" => w.clone(),
        _ => return None,
    };
    let next = toks.get(i + 1).map(|t| &t.tok);
    // Macro invocation: opaque, not a call edge.
    if next == Some(&Tok::Punct('!')) {
        return None;
    }
    let qualified = i >= 2
        && toks[i - 1].tok == Tok::Punct(':')
        && toks[i - 2].tok == Tok::Punct(':');
    let is_call = next == Some(&Tok::Punct('('));

    if qualified {
        // The segment before `::` (skip a closing `>` from turbofish-free
        // generic paths like `Foo<T>::bar` — take the ident before `<`).
        let mut k = i.checked_sub(3)?;
        let mut angle = 0i32;
        let qual = loop {
            match &toks[k].tok {
                Tok::Punct('>') => angle += 1,
                Tok::Punct('<') => angle -= 1,
                Tok::Ident(w) if angle == 0 => break w.clone(),
                _ => {}
            }
            k = k.checked_sub(1)?;
        };
        // A qualified name used as a value (`map(Self::decode)`) still
        // contributes an edge; `use` paths never appear inside fn bodies
        // at the places this is invoked from, and stray type paths simply
        // fail to resolve.
        return Some(Call {
            name,
            kind: CallKind::Qualified(qual),
            line: toks[i].line,
        });
    }
    if !is_call {
        return None;
    }
    if i >= 1 && toks[i - 1].tok == Tok::Punct('.') {
        let recv_is_self =
            i >= 2 && matches!(&toks[i - 2].tok, Tok::Ident(w) if w == "self");
        return Some(Call {
            name,
            kind: if recv_is_self {
                CallKind::SelfMethod
            } else {
                CallKind::Method
            },
            line: toks[i].line,
        });
    }
    Some(Call {
        name,
        kind: CallKind::Plain,
        line: toks[i].line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_fns(&lex(src))
    }

    #[test]
    fn free_fn_with_calls() {
        let fns = parse("fn a() {\n    helper(1);\n    other::qualified();\n}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[0].start_line, 1);
        assert_eq!(fns[0].end_line, 4);
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["helper", "qualified"]);
        assert_eq!(fns[0].calls[1].kind, CallKind::Qualified("other".into()));
    }

    #[test]
    fn impl_context_recorded() {
        let src = "impl Foo {\n    fn m(&self) { self.n(); }\n}\nimpl Bar for Foo {\n    fn p(&mut self, x: u32) { x.q(); }\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].self_ty.as_deref(), Some("Foo"));
        assert_eq!(fns[0].trait_name, None);
        assert!(fns[0].has_self);
        assert_eq!(fns[0].calls[0].kind, CallKind::SelfMethod);
        assert_eq!(fns[1].self_ty.as_deref(), Some("Foo"));
        assert_eq!(fns[1].trait_name.as_deref(), Some("Bar"));
        assert_eq!(fns[1].calls[0].kind, CallKind::Method);
    }

    #[test]
    fn generic_impl_header() {
        let src = "impl<'a, T: Clone> Picker for Weighted<'a, T> {\n    fn pick(&mut self) {}\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].trait_name.as_deref(), Some("Picker"));
        assert_eq!(fns[0].self_ty.as_deref(), Some("Weighted"));
    }

    #[test]
    fn trait_decl_methods() {
        let src = "pub trait Node {\n    fn on_start(&mut self) {}\n    fn on_packet(&mut self, p: u32);\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].trait_name.as_deref(), Some("Node"));
        assert_eq!(fns[1].name, "on_packet");
        assert_eq!(fns[1].end_line, fns[1].start_line, "bodyless decl");
    }

    #[test]
    fn closure_calls_attributed_to_enclosing_fn() {
        let src = "fn outer(&mut self) {\n    self.with(|n, c| n.inner(c));\n}\n";
        let fns = parse(src);
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"inner"), "{names:?}");
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let fns = parse("fn a() {\n    vec![1];\n    format!(\"x\");\n    if x(1) {}\n    match y() {}\n}\n");
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }

    #[test]
    fn test_fns_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let fns = parse(src);
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test);
    }

    #[test]
    fn nested_fn_gets_inner_calls() {
        let src = "fn outer() {\n    fn inner() { deep(); }\n    shallow();\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(inner.calls[0].name, "deep");
        assert_eq!(outer.calls[0].name, "shallow");
    }

    #[test]
    fn where_clause_and_return_type_skipped() {
        let src = "fn sched<F>(&mut self, f: F) -> Option<u32>\nwhere\n    F: FnOnce(&mut E) + 'static,\n{\n    body();\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "sched");
        assert!(fns[0].has_self);
        assert_eq!(fns[0].calls[0].name, "body");
    }

    #[test]
    fn float_literals_do_not_fake_method_calls() {
        let fns = parse("fn a() { let x = 1.0f64.max(2.0); real(); }\n");
        // `max` may or may not be seen, but `real` must be Plain and the
        // float must not eat it.
        assert!(fns[0].calls.iter().any(|c| c.name == "real"));
    }

    #[test]
    fn qualified_value_yields_edge() {
        let fns = parse("fn a() { xs.iter().map(Packet::wire_len); }\n");
        assert!(fns[0]
            .calls
            .iter()
            .any(|c| c.name == "wire_len" && c.kind == CallKind::Qualified("Packet".into())));
    }
}
