//! `yoda-tidy`: the in-tree static-analysis pass.
//!
//! Modeled on rustc's `tidy` tool, grown into a call-graph-aware
//! analyzer: a zero-dependency scanner that walks the whole workspace,
//! parses every `fn` item, assembles a conservative call graph, and
//! propagates a hot taint along it. It runs two ways — `cargo run -p
//! yoda-tidy` for humans/CI (`--json` for machines), and as a `#[test]`
//! (see `tests/gate.rs`) so `cargo test -q` fails on any new violation.
//!
//! The determinism rules (no hash order, wall clock, environment or host
//! I/O in simulation code) are not here: the root `clippy.toml` holds
//! them and clippy enforces them with resolved paths. Tidy only checks
//! that the file keeps them (`clippy-config`).
//!
//! # Hot taint
//!
//! It seeds at every packet/timer handler (any non-test function named
//! `on_packet`, `on_timer`, or `on_tick`, plus the engine dispatch loop
//! `Engine::step`) and flows through every function transitively
//! callable from one. Hot functions must not `unwrap`/`expect`/`panic!`
//! or index slices: a malformed or unlucky packet must be dropped, never
//! crash the data plane (PAPER.md §5–6). Every violation reports its
//! *taint path* (root → … → offending function) so the fix target is
//! obvious. The call graph is name-based and deliberately
//! over-approximate; see `callgraph` for the heuristics and DESIGN.md
//! "Static analysis" for the soundness caveats.
//!
//! # Rule families
//!
//! * **panic-hotpath / panic-hotpath-index** — the hot-taint rules.
//! * **seq-hygiene** — sequence-number arithmetic must go through
//!   `SeqNum`'s wrapping helpers.
//! * **workspace-hygiene** — every crate denies warnings, library code
//!   has no debug prints, TODOs carry an issue tag, every manifest
//!   dependency is an in-tree `path` dependency (hermetic build), and the
//!   clippy configuration keeps its determinism bans and its place.
//!
//! # Allowlist
//!
//! Justified exceptions live in `tidy.allow` at the repository root, one
//! per line: `rule | path | needle | justification`. An entry silences
//! violations of `rule` in `path` whose source line contains `needle`.
//! Entries must carry a justification and must match something — a stale
//! entry is itself an error, so the allowlist can only shrink unless a
//! human deliberately grows it.

#![deny(warnings)]

pub mod callgraph;
pub mod lexer;
pub mod parser;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use lexer::{lex, LexedLine};
use parser::parse_fns;

/// Function names that root the hot closure: the per-packet and
/// per-timer handlers the engine dispatches into. (`on_tick` is listed
/// for forward compatibility; the instance probe tick currently runs
/// from `on_timer`.)
const HOT_ROOT_NAMES: &[&str] = &["on_packet", "on_timer", "on_tick"];

/// The measurement harness (it measures the host, not the simulation):
/// it may print, and its `Node` impls are excluded from the call graph
/// and the taint.
const HARNESS_PREFIX: &str = "crates/bench/";

/// Files exempt from `panic-hotpath-index`: the engine's open-addressing
/// address table and hierarchical timer wheel keep power-of-two arrays
/// and mask every slot index to the array bound (`slots[idx & mask]`,
/// `head[slot & 63]`), so their index expressions cannot panic. The
/// lexical check cannot see the mask, hence the file-level carve-out.
/// Every other hot-taint rule (unwrap/expect/panic!) still applies to
/// these files in full.
const MASKED_INDEX_FILES: &[&str] = &[
    "crates/netsim/src/addrmap.rs",
    "crates/netsim/src/wheel.rs",
];

/// What the root `clippy.toml` must ban: the determinism invariants
/// (DESIGN.md "Determinism invariants") as resolved paths.
const CLIPPY_BANNED: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::time::Instant",
    "std::time::SystemTime",
    "std::fs::File",
    "std::env::var",
    "std::env::var_os",
    "std::env::vars",
    "std::env::args",
    "std::fs::read",
    "std::fs::read_to_string",
    "std::fs::write",
    "std::io::stdin",
];

/// Where a `clippy.toml` may sit. Clippy reads the nearest one, so any
/// other would lift the root's bans for its subtree; the two host tools
/// carry an empty one on purpose.
const CLIPPY_CONFIGS: &[&str] = &[
    "clippy.toml",
    "crates/bench/clippy.toml",
    "crates/tidy/clippy.toml",
];

/// Hot-taint evidence attached to a call-graph-derived violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taint {
    /// Labels from the taint root to the offending function.
    pub path: Vec<String>,
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier, e.g. `panic-hotpath`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed source line.
    pub content: String,
    /// Why the line is subject to the rule, when derived from the call
    /// graph rather than the file's location.
    pub taint: Option<Taint>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.content
        )?;
        if let Some(t) = &self.taint {
            write!(f, "\n      hot path: {}", t.path.join(" -> "))?;
        }
        Ok(())
    }
}

/// Sizes of the analysis, for the JSON report and sanity checks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Rust files scanned.
    pub files: usize,
    /// Non-test functions in the call graph.
    pub functions: usize,
    /// Functions in the hot closure.
    pub hot_functions: usize,
}

/// Outcome of a tidy run: surviving violations plus allowlist problems.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by `tidy.allow`.
    pub violations: Vec<Violation>,
    /// Problems with the allowlist itself (stale entries, missing
    /// justifications, unparsable lines).
    pub allowlist_errors: Vec<String>,
    /// Analysis sizes.
    pub stats: Stats,
}

impl Report {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.allowlist_errors.is_empty()
    }
}

/// Locates the workspace root by walking up from the tidy crate's
/// manifest dir to the first directory holding a `Cargo.lock`.
pub fn workspace_root() -> Result<PathBuf, String> {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in start.ancestors() {
        if dir.join("Cargo.lock").is_file() {
            return Ok(dir.to_path_buf());
        }
    }
    Err(format!(
        "no Cargo.lock in any directory above {}",
        start.display()
    ))
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Report {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in rust_files(root) {
        let rel = rel_path(root, &path);
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        sources.push((rel, text));
    }

    let (mut violations, stats) = analyze(&sources);

    for path in toml_files(root, "Cargo.toml") {
        let rel = rel_path(root, &path);
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        check_hermetic_manifest(&rel, &source, &mut violations);
    }
    let clippy_configs: Vec<(String, String)> = toml_files(root, "clippy.toml")
        .iter()
        .map(|p| (rel_path(root, p), fs::read_to_string(p).unwrap_or_default()))
        .collect();
    check_clippy_configs(&clippy_configs, &mut violations);

    // Deterministic output order regardless of filesystem enumeration; a
    // line matching one rule several ways is still one violation.
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    violations.dedup();

    let (allowed, allowlist_errors) = load_allowlist(root);
    let mut used = vec![false; allowed.len()];
    let surviving: Vec<Violation> = violations
        .into_iter()
        .filter(|v| {
            let mut hit = false;
            for (i, e) in allowed.iter().enumerate() {
                if e.rule == v.rule && e.path == v.path && v.content.contains(&e.needle) {
                    used[i] = true;
                    hit = true;
                }
            }
            !hit
        })
        .collect();

    let mut errors = allowlist_errors;
    for (i, e) in allowed.iter().enumerate() {
        if !used[i] {
            errors.push(format!(
                "tidy.allow:{}: stale entry (no current violation matches): {} | {} | {}",
                e.line_no, e.rule, e.path, e.needle
            ));
        }
    }

    Report {
        violations: surviving,
        allowlist_errors: errors,
        stats,
    }
}

/// Runs the source-level analysis (everything except the manifest and
/// clippy-config rules and the allowlist) over in-memory
/// `(repo-relative-path, source)` pairs. Public so tests can drive the
/// analyzer over fixture mini-workspaces without touching the disk.
pub fn analyze(sources: &[(String, String)]) -> (Vec<Violation>, Stats) {
    let mut violations = Vec::new();

    let lexed: Vec<(String, Vec<LexedLine>)> = sources
        .iter()
        .map(|(rel, text)| (rel.clone(), lex(text)))
        .collect();

    // Lexical (per-file) rules.
    for (rel, lines) in &lexed {
        check_seq_hygiene(rel, lines, &mut violations);
        check_debug_prints(rel, lines, &mut violations);
        check_todo_tags(rel, lines, &mut violations);
        check_deny_warnings(rel, lines, &mut violations);
    }

    // Call-graph rules. Only library code enters the graph: harness,
    // integration tests, benches, and examples cannot sit on a
    // simulated packet path.
    let parsed: Vec<(String, Vec<parser::FnItem>)> = lexed
        .iter()
        .filter(|(rel, _)| in_call_graph(rel))
        .map(|(rel, lines)| (rel.clone(), parse_fns(lines)))
        .collect();
    let graph = CallGraph::build(&parsed);
    let by_rel: BTreeMap<&str, &[LexedLine]> = lexed
        .iter()
        .map(|(rel, lines)| (rel.as_str(), lines.as_slice()))
        .collect();

    let hot = graph.reach(&hot_roots(&graph));

    // hot-taint: no panics or indexing anywhere in the hot closure.
    for &idx in hot.keys() {
        let f = &graph.fns[idx];
        let Some(lines) = by_rel.get(f.file.as_str()) else {
            continue;
        };
        let taint = Taint {
            path: graph.path_to(&hot, idx),
        };
        for l in lines
            .iter()
            .filter(|l| f.start_line <= l.number && l.number <= f.end_line)
        {
            if l.in_test || graph.fn_at(&f.file, l.number) != Some(idx) {
                continue;
            }
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
                ".unwrap_err()",
            ] {
                if l.code.contains(pat) {
                    push_taint(&mut violations, "panic-hotpath", &f.file, l, &taint);
                }
            }
            if has_index_expr(&l.code) && !MASKED_INDEX_FILES.contains(&f.file.as_str()) {
                push_taint(&mut violations, "panic-hotpath-index", &f.file, l, &taint);
            }
        }
    }

    let stats = Stats {
        files: sources.len(),
        functions: graph.fns.len(),
        hot_functions: hot.len(),
    };
    (violations, stats)
}

/// Whether a file's functions participate in the call graph.
fn in_call_graph(rel: &str) -> bool {
    let lib_code =
        rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"));
    lib_code && !rel.starts_with(HARNESS_PREFIX)
}

/// Seed set for the hot closure: every handler impl plus the engine
/// dispatch loop `Engine::step` (the engine is per-packet code too).
fn hot_roots(graph: &CallGraph) -> Vec<usize> {
    let mut roots = Vec::new();
    for name in HOT_ROOT_NAMES {
        roots.extend(graph.find(name));
    }
    roots.extend(
        graph
            .find("step")
            .into_iter()
            .filter(|&i| graph.fns[i].self_ty.as_deref() == Some("Engine")),
    );
    roots
}

// ---------------------------------------------------------------------------
// Lexical rules
// ---------------------------------------------------------------------------

/// Detects `expr[...]` indexing: a `[` immediately preceded by an
/// identifier character or a closing bracket. Attributes (`#[...]`),
/// array types (`[u8; 4]`), and slice patterns are not matched.
fn has_index_expr(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            return true;
        }
    }
    false
}

/// seq-hygiene: sequence-space arithmetic must use the wrapping helpers.
fn check_seq_hygiene(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    // Library code only: test files deliberately poke raw boundary values
    // to pin the wrapping helpers down.
    if !(rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))) {
        return;
    }
    let seq_files = rel == "crates/tcp/src/seq.rs" || rel == "crates/core/src/isn.rs";
    let uses_seqnum = seq_files || lines.iter().any(|l| l.code.contains("SeqNum"));
    if !uses_seqnum {
        return;
    }
    for l in lines {
        if l.code.contains("wrapping_") {
            continue;
        }
        let arith = has_raw_arith(&l.code);
        // `.raw()` back into arithmetic bypasses SeqNum's wrapping ops.
        if l.code.contains(".raw()") && arith {
            push(out, "seq-hygiene", rel, l);
        }
        // Casting into sequence space outside the helpers. Length casts
        // (`payload.len() as u32`) are exempt: adding a length to a
        // `SeqNum` goes through its wrapping `Add` impl by construction.
        if l.code.contains("as u32") && mentions_seq(&l.code) && !l.code.contains(".len()") {
            push(out, "seq-hygiene", rel, l);
        }
    }
}

/// True when the line contains a `+`/`-` that looks like arithmetic
/// (ignores `->`, `+=`-style is still arithmetic and matches).
fn has_raw_arith(code: &str) -> bool {
    let cleaned = code.replace("->", "  ");
    cleaned.contains('+') || cleaned.contains('-')
}

/// True when the line plausibly talks about sequence numbers.
fn mentions_seq(code: &str) -> bool {
    let lower = code.to_lowercase();
    lower.contains("seq") || lower.contains("isn")
}

/// no-debug-print: library code must not print; use the trace sink.
fn check_debug_prints(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    let is_lib_code = rel.starts_with("crates/") && rel.contains("/src/")
        || rel.starts_with("src/");
    let exempt = rel.starts_with(HARNESS_PREFIX)
        || rel.starts_with("crates/tidy/")
        || rel.contains("/bin/")
        || rel.ends_with("/main.rs");
    if !is_lib_code || exempt {
        return;
    }
    for l in lines {
        if l.in_test {
            continue;
        }
        for pat in ["println!", "eprintln!", "print!(", "eprint!(", "dbg!("] {
            if l.code.contains(pat) {
                push(out, "no-debug-print", rel, l);
            }
        }
    }
}

/// todo-tags: TODO/FIXME/XXX/HACK must reference an issue, e.g.
/// `TODO(#42): ...`. Scans raw lines because TODOs live in comments.
/// The tidy crate itself is exempt — it must spell the tags to find them.
fn check_todo_tags(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    if rel.starts_with("crates/tidy/") {
        return;
    }
    for l in lines {
        for tag in ["TODO", "FIXME", "XXX", "HACK"] {
            if let Some(pos) = l.raw.find(tag) {
                // Require a word boundary before the tag (avoid e.g. a hex
                // constant or an identifier containing the letters).
                let boundary_ok = l
                    .raw[..pos]
                    .chars()
                    .next_back()
                    .map(|c| !c.is_alphanumeric() && c != '_')
                    .unwrap_or(true);
                let tagged = l.raw[pos + tag.len()..].starts_with("(#");
                if boundary_ok && !tagged {
                    push(out, "todo-needs-issue", rel, l);
                }
            }
        }
    }
}

/// deny-warnings: every crate root opts into `#![deny(warnings)]`.
fn check_deny_warnings(rel: &str, lines: &[LexedLine], out: &mut Vec<Violation>) {
    let is_crate_root = rel == "src/lib.rs"
        || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    if !lines.iter().any(|l| l.code.contains("#![deny(warnings)]")) {
        out.push(Violation {
            rule: "deny-warnings-missing",
            path: rel.to_string(),
            line: 1,
            content: "crate root lacks #![deny(warnings)]".to_string(),
            taint: None,
        });
    }
}

/// hermetic-manifest: all dependencies are in-tree path dependencies.
fn check_hermetic_manifest(rel: &str, source: &str, out: &mut Vec<Violation>) {
    let mut in_dep_section = false;
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_dep_section = line.contains("dependencies");
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let registryish = line.contains("version =")
            || line.contains("git =")
            || (line.contains("= \"") && !line.contains("path"));
        if registryish {
            out.push(Violation {
                rule: "hermetic-manifest",
                path: rel.to_string(),
                line: idx + 1,
                content: line.to_string(),
                taint: None,
            });
        }
    }
}

/// clippy-config: the root `clippy.toml` bans every [`CLIPPY_BANNED`]
/// path, and no `clippy.toml` outside [`CLIPPY_CONFIGS`] lifts the bans
/// for its subtree. `configs` holds every `(rel, source)` in the tree.
fn check_clippy_configs(configs: &[(String, String)], out: &mut Vec<Violation>) {
    let mut flag = |path: &str, content: String| {
        out.push(Violation {
            rule: "clippy-config",
            path: path.to_string(),
            line: 1,
            content,
            taint: None,
        })
    };
    let root = configs.iter().find(|(rel, _)| rel == "clippy.toml");
    let root = root.map_or("", |(_, source)| source.as_str());
    let entries: Vec<&str> = root
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect();
    for banned in CLIPPY_BANNED {
        let quoted = format!("\"{banned}\"");
        if !entries.iter().any(|l| l.contains(&quoted)) {
            flag("clippy.toml", format!("no longer bans `{banned}`"));
        }
    }
    for (rel, _) in configs {
        if !CLIPPY_CONFIGS.contains(&rel.as_str()) {
            flag(rel, "lifts the root clippy.toml's bans".to_string());
        }
    }
}

fn push(out: &mut Vec<Violation>, rule: &'static str, rel: &str, l: &LexedLine) {
    out.push(Violation {
        rule,
        path: rel.to_string(),
        line: l.number,
        content: l.raw.trim().to_string(),
        taint: None,
    });
}

fn push_taint(
    out: &mut Vec<Violation>,
    rule: &'static str,
    rel: &str,
    l: &LexedLine,
    taint: &Taint,
) {
    out.push(Violation {
        rule,
        path: rel.to_string(),
        line: l.number,
        content: l.raw.trim().to_string(),
        taint: Some(taint.clone()),
    });
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

/// Serializes a report as JSON (hand-rolled: the build is hermetic, no
/// serde). One violation object per line so shell tooling can count with
/// `grep -c '"rule"'`.
pub fn to_json(report: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"summary\": {{\"violations\": {}, \"allowlist_errors\": {}, \"files\": {}, \"functions\": {}, \"hot_functions\": {}}},\n",
        report.violations.len(),
        report.allowlist_errors.len(),
        report.stats.files,
        report.stats.functions,
        report.stats.hot_functions,
    ));
    s.push_str("  \"violations\": [\n");
    for (i, v) in report.violations.iter().enumerate() {
        let taint = match &v.taint {
            Some(t) => {
                let path: Vec<String> = t.path.iter().map(|p| json_str(p)).collect();
                format!(", \"taint\": {{\"path\": [{}]}}", path.join(", "))
            }
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"content\": {}{}}}{}\n",
            json_str(v.rule),
            json_str(&v.path),
            v.line,
            json_str(&v.content),
            taint,
            if i + 1 < report.violations.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"allowlist_errors\": [\n");
    for (i, e) in report.allowlist_errors.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            json_str(e),
            if i + 1 < report.allowlist_errors.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

struct AllowEntry {
    line_no: usize,
    rule: String,
    path: String,
    needle: String,
}

fn load_allowlist(root: &Path) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    let Ok(text) = fs::read_to_string(root.join("tidy.allow")) else {
        return (entries, errors);
    };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.splitn(4, '|').map(str::trim).collect();
        if parts.len() != 4 {
            errors.push(format!(
                "tidy.allow:{}: expected `rule | path | needle | justification`",
                idx + 1
            ));
            continue;
        }
        if parts[3].is_empty() {
            errors.push(format!(
                "tidy.allow:{}: entry has no justification",
                idx + 1
            ));
            continue;
        }
        entries.push(AllowEntry {
            line_no: idx + 1,
            rule: parts[0].to_string(),
            path: parts[1].to_string(),
            needle: parts[2].to_string(),
        });
    }
    (entries, errors)
}

// ---------------------------------------------------------------------------
// File walking
// ---------------------------------------------------------------------------

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under the workspace, sorted, skipping build output and
/// VCS internals.
fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(root, &mut files, "rs");
    files.sort();
    files
}

/// Every file called `name` under the workspace, sorted.
fn toml_files(root: &Path, name: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(root, &mut files, "toml");
    files.retain(|p| p.file_name().is_some_and(|n| n == name));
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>, ext: &str) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | ".claude" | "results") {
                continue;
            }
            walk(&path, out, ext);
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the full analyzer over an in-memory fixture workspace.
    fn analyze_fixture(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        let (mut v, _) = analyze(&sources);
        v.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        v
    }

    #[test]
    fn indexing_detected_but_attrs_are_not() {
        assert!(has_index_expr("let x = buf[0];"));
        assert!(has_index_expr("self.meta[node.0].zone"));
        assert!(!has_index_expr("#[derive(Debug)]"));
        assert!(!has_index_expr("let x: [u8; 4] = y;"));
        assert!(!has_index_expr("fn f(xs: &[u8]) {}"));
    }

    #[test]
    fn seq_hygiene_catches_raw_math() {
        let src = "let s = x.raw() + 1;\nlet ok = a.wrapping_add(b.raw());\n";
        let mut v = Vec::new();
        check_seq_hygiene("crates/tcp/src/seq.rs", &lex(src), &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn seq_hygiene_catches_cast_into_seq_space() {
        let src = "let isn = SeqNum::new(h as u32);\n";
        let mut v = Vec::new();
        check_seq_hygiene("crates/core/src/isn.rs", &lex(src), &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn todo_requires_issue_tag() {
        let src = "// TODO: later\n// TODO(#12): tracked\n";
        let mut v = Vec::new();
        check_todo_tags("src/lib.rs", &lex(src), &mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn manifest_rule_rejects_registry_deps() {
        let toml = "[dependencies]\nfoo = \"1\"\nbar = { path = \"../bar\" }\nbaz = { version = \"2\" }\n\n[package]\nversion = \"0.1.0\"\n";
        let mut v = Vec::new();
        check_hermetic_manifest("Cargo.toml", toml, &mut v);
        let lines: Vec<usize> = v.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![2, 4], "{v:?}");
    }

    #[test]
    fn debug_prints_flagged_in_lib_code_only() {
        let src = "fn f() { println!(\"x\"); }\n";
        let mut v = Vec::new();
        check_debug_prints("crates/http/src/server.rs", &lex(src), &mut v);
        assert_eq!(v.len(), 1);
        let mut v = Vec::new();
        check_debug_prints("crates/bench/src/report.rs", &lex(src), &mut v);
        assert!(v.is_empty());
        let mut v = Vec::new();
        check_debug_prints("examples/quickstart.rs", &lex(src), &mut v);
        assert!(v.is_empty());
    }

    // -- call-graph taint analysis over fixture mini-workspaces --------

    #[test]
    fn unwrap_reached_from_on_packet_is_flagged_with_path() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "impl Node for X {\n    fn on_packet(&mut self) { helper(); }\n}\nfn helper() { deep(); }\nfn deep() { y.unwrap(); }\n",
        )]);
        let hit: Vec<&Violation> = v.iter().filter(|v| v.rule == "panic-hotpath").collect();
        assert_eq!(hit.len(), 1, "{v:?}");
        assert_eq!(hit[0].line, 5);
        let taint = hit[0].taint.as_ref().expect("taint path attached");
        assert_eq!(
            taint.path,
            vec![
                "crates/x/src/lib.rs::X::on_packet",
                "crates/x/src/lib.rs::helper",
                "crates/x/src/lib.rs::deep",
            ]
        );
    }

    #[test]
    fn unreached_unwrap_is_not_flagged() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "impl Node for X {\n    fn on_packet(&mut self) {}\n}\nfn cold_path() { y.unwrap(); }\n",
        )]);
        assert!(
            v.iter().all(|v| v.rule != "panic-hotpath"),
            "un-tainted fn keeps its unwrap: {v:?}"
        );
    }

    #[test]
    fn taint_crosses_crates_and_trait_impl_edges() {
        let v = analyze_fixture(&[
            (
                "crates/a/src/lib.rs",
                "impl Node for A {\n    fn on_packet(&mut self) { self.route(); }\n    fn route(&mut self) { yoda_b::shared_helper(); }\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn shared_helper() { table[idx].touch(); }\n",
            ),
        ]);
        let hit: Vec<&Violation> = v
            .iter()
            .filter(|v| v.rule == "panic-hotpath-index")
            .collect();
        assert_eq!(hit.len(), 1, "{v:?}");
        assert_eq!(hit[0].path, "crates/b/src/lib.rs");
        let path = &hit[0].taint.as_ref().expect("taint").path;
        assert_eq!(path.len(), 3, "root -> route -> helper: {path:?}");
    }

    #[test]
    fn masked_index_files_skip_the_index_rule_only() {
        // Hot-reachable indexing inside a carve-out file is tolerated
        // (every index there is masked to a power-of-two bound) ...
        let wheel = "impl Engine {\n    pub fn step(&mut self) { self.advance(); }\n    fn advance(&mut self) { let h = self.l0_head[idx & 255]; let _ = h; }\n}\n";
        let v = analyze_fixture(&[("crates/netsim/src/wheel.rs", wheel)]);
        assert!(
            v.iter().all(|v| v.rule != "panic-hotpath-index"),
            "masked-index file is exempt from the index rule: {v:?}"
        );

        // ... but the identical code anywhere else is still flagged ...
        let v = analyze_fixture(&[("crates/netsim/src/other.rs", wheel)]);
        assert!(
            v.iter().any(|v| v.rule == "panic-hotpath-index"),
            "non-exempt file keeps the index rule: {v:?}"
        );

        // ... and the carve-out does not weaken the panic rules in the
        // exempt file itself.
        let v = analyze_fixture(&[(
            "crates/netsim/src/wheel.rs",
            "impl Engine {\n    pub fn step(&mut self) { self.slab[0].take().unwrap(); }\n}\n",
        )]);
        assert!(
            v.iter().any(|v| v.rule == "panic-hotpath"),
            "unwrap in exempt file still flagged: {v:?}"
        );
    }

    #[test]
    fn dispatch_loop_is_a_hot_root() {
        let v = analyze_fixture(&[(
            "crates/netsim/src/engine.rs",
            "impl Engine {\n    pub fn step(&mut self) -> bool { self.queue.pop().expect(\"event\"); true }\n}\n",
        )]);
        assert!(
            v.iter().any(|v| v.rule == "panic-hotpath" && v.line == 2),
            "{v:?}"
        );
    }

    #[test]
    fn harness_node_impls_are_exempt() {
        let v = analyze_fixture(&[(
            "crates/bench/src/bin/fig.rs",
            "impl Node for Probe {\n    fn on_packet(&mut self) { x.unwrap(); }\n}\n",
        )]);
        assert!(v.iter().all(|v| v.rule != "panic-hotpath"), "{v:?}");
    }

    #[test]
    fn test_code_inside_hot_file_is_skipped() {
        let v = analyze_fixture(&[(
            "crates/x/src/lib.rs",
            "impl Node for X {\n    fn on_packet(&mut self) { self.go(); }\n    fn go(&mut self) {}\n}\n#[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); }\n}\n",
        )]);
        assert!(v.iter().all(|v| v.rule != "panic-hotpath"), "{v:?}");
    }

    #[test]
    fn json_output_shape() {
        let report = Report {
            violations: vec![Violation {
                rule: "panic-hotpath",
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                content: "y.unwrap() // \"quoted\"".into(),
                taint: Some(Taint {
                    path: vec!["a::b".into(), "c::d".into()],
                }),
            }],
            allowlist_errors: vec!["stale".into()],
            stats: Stats {
                files: 1,
                functions: 2,
                hot_functions: 1,
            },
        };
        let j = to_json(&report);
        assert!(j.contains("\"violations\": 1"), "{j}");
        assert!(j.contains("\\\"quoted\\\""), "escaped quotes: {j}");
        assert!(
            j.contains("\"taint\": {\"path\": [\"a::b\", \"c::d\"]}"),
            "{j}"
        );
        assert!(j.contains("\"allowlist_errors\": ["), "{j}");
        // Countable shape for scripts/check.sh.
        assert_eq!(j.matches("\"rule\":").count(), 1, "{j}");
    }

    #[test]
    fn clippy_config_keeps_its_bans_and_its_place() {
        let check = |configs: &[(&str, &str)]| {
            let configs: Vec<(String, String)> = configs
                .iter()
                .map(|(r, s)| (r.to_string(), s.to_string()))
                .collect();
            let mut v = Vec::new();
            check_clippy_configs(&configs, &mut v);
            v
        };
        let root = include_str!("../../../clippy.toml");
        let v = check(&[("clippy.toml", root), ("crates/tidy/clippy.toml", "")]);
        assert!(v.is_empty(), "{v:?}");
        // Dropping `std::fs::read` is caught though `read_to_string` stays.
        let dropped = root.replace("\"std::fs::read\"", "\"std::fs::copy\"");
        let v = check(&[("clippy.toml", &dropped)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].content, "no longer bans `std::fs::read`");
        let v = check(&[("clippy.toml", root), ("crates/core/clippy.toml", "")]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].path, "crates/core/clippy.toml");
    }
}
