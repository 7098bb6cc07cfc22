//! The compiler holds the repository's rules (DESIGN.md "Lints"); this
//! test keeps their configuration from drifting: clippy.toml's bans and
//! placement, the workspace lints on every product package, no macro
//! (clippy's panic lints skip macro bodies), no registry.

use std::path::Path;

/// Paths the root clippy.toml must ban (DESIGN.md "Determinism invariants").
const BANNED: &str = "std::collections::HashMap std::collections::HashSet std::time::Instant \
    std::time::SystemTime std::fs::File std::env::var std::env::var_os std::env::vars \
    std::env::args std::fs::read std::fs::read_to_string std::fs::write std::io::stdin";
/// Lints the workspace denies: `warnings`, then the panic and print lints.
const DENIED: &str = "warnings unwrap_used expect_used panic unreachable todo unimplemented \
    indexing_slicing print_stdout print_stderr dbg_macro";

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
