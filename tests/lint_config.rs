//! The compiler holds the repository's rules (DESIGN.md "Lints"); this
//! test keeps their configuration from drifting: clippy.toml's bans and
//! placement, the workspace lints on every product package, no macro
//! (clippy's panic lints skip macro bodies), no registry, and the inline
//! ratchet on the per-packet vocabulary.

use std::path::Path;

/// Paths the root clippy.toml must ban (DESIGN.md "Determinism invariants").
const BANNED: &str = "std::collections::HashMap std::collections::HashSet std::time::Instant \
    std::time::SystemTime std::fs::File std::env::var std::env::var_os std::env::vars \
    std::env::args std::fs::read std::fs::read_to_string std::fs::write std::io::stdin";
/// Lints the workspace denies: `warnings`, the API lints (a crate exports
/// only what its root re-exports, and names every type it exposes), then
/// the panic and print lints.
const DENIED: &str = "warnings unreachable_pub unnameable_types unwrap_used expect_used panic \
    unreachable todo unimplemented indexing_slicing print_stdout print_stderr dbg_macro";
/// The rustc lints the bench harness's own table denies (DESIGN.md "Lints").
const BENCH_DENIED: &str = "warnings unreachable_pub unnameable_types";

#[expect(
    clippy::disallowed_methods,
    reason = "reads the repository's own configuration, not simulation input"
)]
fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The trimmed, non-comment lines of `toml`'s table `header`.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    let lines = toml.lines().map(str::trim).skip_while(|l| *l != header);
    let body = lines.skip(1).take_while(|l| !l.starts_with('['));
    body.filter(|l| !l.starts_with('#')).collect()
}

/// Every file under `rel` whose name ends with `suffix`, sorted, skipping
/// build output and dot-dirs.
fn find(rel: &str, suffix: &str) -> Vec<String> {
    let (dir, mut out) = (Path::new(env!("CARGO_MANIFEST_DIR")).join(rel), Vec::new());
    for entry in dir.read_dir().expect("readable directory").flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        let child = format!("{rel}/{file}").trim_start_matches('/').to_string();
        if entry.path().is_dir() && file != "target" && !file.starts_with('.') {
            out.extend(find(&child, suffix));
        } else if file.ends_with(suffix) {
            out.push(child);
        }
    }
    out.sort();
    out
}

#[test]
fn lint_configuration_holds() {
    let clippy = read("clippy.toml");
    let code: Vec<&str> = clippy.lines().filter(|l| !l.starts_with('#')).collect();
    for banned in BANNED.split_whitespace() {
        let quoted = format!("\"{banned}\"");
        let named = code.iter().any(|l| l.contains(&quoted));
        assert!(named, "clippy.toml lost {banned}");
    }
    for key in "unwrap expect panic indexing-slicing print dbg".split_whitespace() {
        let line = format!("allow-{key}-in-tests = true");
        assert!(code.contains(&line.as_str()), "clippy.toml lacks `{line}`");
    }
    let allowed = ["clippy.toml", "crates/bench/clippy.toml"];
    assert_eq!(find("", "clippy.toml"), allowed, "stray clippy.toml");
    let root = read("Cargo.toml");
    let mut lints = table(&root, "[workspace.lints.rust]");
    lints.extend(table(&root, "[workspace.lints.clippy]"));
    for lint in DENIED.split_whitespace() {
        let line = format!("{lint} = \"deny\"");
        let denied = lints.contains(&line.as_str());
        assert!(denied, "[workspace.lints] lacks `{line}`");
    }
    // Tests keep `dev`'s debug assertions and overflow checks, however
    // optimised (`tests_keep_debug_assertions_and_overflow_checks`).
    for header in ["[profile.dev]", "[profile.test]"] {
        for line in table(&root, header) {
            let off = line.starts_with("debug-assertions") || line.starts_with("overflow-checks");
            assert!(!off, "{header} sets `{line}`");
        }
    }
    let bench = read("crates/bench/Cargo.toml");
    for lint in BENCH_DENIED.split_whitespace() {
        let line = format!("{lint} = \"deny\"");
        let denied = table(&bench, "[lints.rust]").contains(&line.as_str());
        assert!(
            denied,
            "crates/bench/Cargo.toml [lints.rust] lacks `{line}`"
        );
    }
    for m in find("crates", "Cargo.toml") {
        if !m.starts_with("crates/bench/") {
            assert_eq!(table(&read(&m), "[lints]"), ["workspace = true"], "{m}");
        }
    }
    for src in find("crates", ".rs") {
        let code = read(&src);
        let mut lines = code.lines().filter(|l| !l.trim_start().starts_with("//"));
        let defines_macro = lines.any(|l| l.contains("macro_rules!"));
        assert!(
            src.starts_with("crates/bench/") || !defines_macro,
            "{src} defines a macro, whose body clippy's panic lints skip"
        );
    }
    for lock in ["Cargo.lock", "crates/bench/src/bin/bench_e2e/Cargo.lock"] {
        let registry = read(lock).lines().any(|l| l.starts_with("source ="));
        assert!(!registry, "{lock} names a registry source");
    }
}

/// The lint that holds the per-packet vocabulary inlined across crates
/// (DESIGN.md "Cross-crate inlining").
const INLINE_LINT: &str = "clippy::missing_inline_in_public_items";
/// Modules under a module-wide deny of [`INLINE_LINT`].
const INLINED_MODULES: [&str; 7] = [
    "crates/netsim/src/bytes.rs",
    "crates/netsim/src/packet.rs",
    "crates/netsim/src/addr.rs",
    "crates/netsim/src/time.rs",
    "crates/netsim/src/hash.rs",
    "crates/tcp/src/seq.rs",
    "crates/tcp/src/segment.rs",
];
/// Items under an item-level deny of [`INLINE_LINT`], by file and the
/// start of the line that opens them.
const INLINED_ITEMS: [(&str, &str); 4] = [
    ("crates/netsim/src/engine.rs", "impl Ctx<'_> {"),
    ("crates/l4lb/src/lib.rs", "pub fn canonical_flow("),
    ("crates/l4lb/src/lib.rs", "pub fn rendezvous_pick("),
    ("crates/l4lb/src/lib.rs", "impl Steering {"),
];
/// Private helpers those items call, which the lint does not see.
const INLINED_HELPERS: [(&str, &str); 1] = [("crates/l4lb/src/lib.rs", "fn endpoint_word(")];

/// Whether the attribute and comment lines right above `lines[at]`
/// include one that starts with `attr`.
fn has_attr(lines: &[&str], at: usize, attr: &str) -> bool {
    let above = lines[..at].iter().rev().map(|l| l.trim_start());
    let mut attrs = above.take_while(|l| l.starts_with("#[") || l.starts_with("//"));
    attrs.any(|l| l.starts_with(attr))
}

/// Asserts that every function opened in `lines[range]` is `#[inline]`.
fn assert_inlined(file: &str, lines: &[&str], range: std::ops::Range<usize>) {
    for at in range {
        let l = lines[at].trim_start();
        let l = l.strip_prefix("pub(crate) ").unwrap_or(l);
        let l = l.strip_prefix("pub ").unwrap_or(l);
        let l = l.strip_prefix("const ").unwrap_or(l);
        if l.starts_with("fn ") {
            let line = at + 1;
            assert!(
                has_attr(lines, at, "#[inline]"),
                "{file}:{line} is not #[inline]"
            );
        }
    }
}

/// The line index at which `lines` opens `item`.
fn opening(file: &str, lines: &[&str], item: &str) -> usize {
    let at = lines.iter().position(|l| l.starts_with(item));
    at.unwrap_or_else(|| panic!("{file} lost `{item}`"))
}

/// The per-packet vocabulary keeps its ratchet: each listed module and
/// item still denies [`INLINE_LINT`], so `cargo clippy -D warnings` fails
/// on a public function that loses its `#[inline]`, and every function in
/// them, private helpers included, is `#[inline]` outside the tests.
#[test]
fn per_packet_vocabulary_stays_inlined() {
    let module_deny = format!("#![deny({INLINE_LINT})]");
    for file in INLINED_MODULES {
        let code = read(file);
        let lines: Vec<&str> = code.lines().collect();
        assert!(
            lines.contains(&module_deny.as_str()),
            "{file} lacks `{module_deny}`"
        );
        let tests = lines.iter().position(|l| l.starts_with("#[cfg(test)]"));
        assert_inlined(file, &lines, 0..tests.unwrap_or(lines.len()));
    }
    let item_deny = format!("#[deny({INLINE_LINT})]");
    for (file, item) in INLINED_ITEMS {
        let code = read(file);
        let lines: Vec<&str> = code.lines().collect();
        let at = opening(file, &lines, item);
        assert!(
            has_attr(&lines, at, &item_deny),
            "{file}: `{item}` lacks `{item_deny}`"
        );
        let end = if item.starts_with("impl") {
            at + lines[at..]
                .iter()
                .position(|l| *l == "}")
                .expect("a closed impl")
        } else {
            at + 1
        };
        assert_inlined(file, &lines, at..end);
    }
    for (file, helper) in INLINED_HELPERS {
        let code = read(file);
        let lines: Vec<&str> = code.lines().collect();
        let at = opening(file, &lines, helper);
        assert_inlined(file, &lines, at..at + 1);
    }
}

/// The root manifest optimises the test profile, which inherits the dev
/// profile's debug assertions and overflow checks; a later profile edit
/// must not drop either silently (`lint_configuration_holds` also rejects
/// a manifest that turns either off). `cargo test --release` builds tests
/// with the release profile, which has neither, so there this is skipped.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "release-profile test build")]
fn tests_keep_debug_assertions_and_overflow_checks() {
    let debug = std::hint::black_box(cfg!(debug_assertions));
    assert!(debug, "tests built without debug assertions");
    let max = std::hint::black_box(u32::MAX);
    let wrapped = std::panic::catch_unwind(|| max + 1).is_ok();
    assert!(!wrapped, "a u32 overflow wrapped: overflow checks are off");
}
