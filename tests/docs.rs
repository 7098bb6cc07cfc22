//! The two long documents keep one copy of every number and stay small.
//!
//! * Both documents quote measured numbers and pinned digests only as
//!   excerpts of the committed `results/` files: a marker line
//!   `<!-- results/NAME.txt -->` followed by a fenced block, which must be
//!   a run of consecutive lines of that file (trailing blanks aside).
//!   Every table and figure section of EXPERIMENTS.md carries at least one.
//! * A section reference, the name of one of the two documents followed
//!   by a quoted heading, anywhere in the code, scripts, CI, the verify
//!   notes or the documents themselves, must name a heading or a bold
//!   label that exists in that document.
//! * Each document stays at or under the line count pinned below.
//! * Every `yoda-<name>` that README.md or either document names is a
//!   package under `crates/` (the root package is plain `yoda`).

use std::path::Path;

/// The documents whose headings are cited and whose length is pinned,
/// by stem, with their line ceilings: the counts they were cut to. Lower
/// a ceiling when a document shrinks; never raise one.
const DOCS: [(&str, usize); 2] = [("DESIGN", 895), ("EXPERIMENTS", 598)];
/// Where section references are looked for: directories, then files.
const REF_DIRS: [&str; 5] = ["crates", "tests", "scripts", ".github", ".claude"];
const REF_FILES: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
/// Text files among those.
const TEXT: [&str; 6] = [".rs", ".md", ".sh", ".yml", ".toml", ".c"];
/// Sections of EXPERIMENTS.md that must quote their results file.
const FIGURE_SECTIONS: [&str; 4] = ["Table ", "Figure", "§", "Ablations"];

#[expect(
    clippy::disallowed_methods,
    reason = "reads the repository's own documents and results, not simulation input"
)]
fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every text file under `rel`, sorted, skipping build output.
fn find(rel: &str) -> Vec<String> {
    let (dir, mut out) = (Path::new(env!("CARGO_MANIFEST_DIR")).join(rel), Vec::new());
    let Ok(entries) = dir.read_dir() else {
        return out;
    };
    for entry in entries.flatten() {
        let file = entry.file_name().to_string_lossy().into_owned();
        let child = format!("{rel}/{file}");
        if entry.path().is_dir() && file != "target" {
            out.extend(find(&child));
        } else if TEXT.iter().any(|ext| file.ends_with(ext)) {
            out.push(child);
        }
    }
    out.sort();
    out
}

/// The excerpts of `doc`: (line of the marker, results file, quoted lines).
fn excerpts(doc: &str) -> Vec<(usize, String, Vec<String>)> {
    let text = read(doc);
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        let Some(file) = line
            .trim()
            .strip_prefix("<!-- ")
            .and_then(|l| l.strip_suffix(" -->"))
            .filter(|f| f.starts_with("results/"))
        else {
            continue;
        };
        let fence = lines.get(at + 1).copied().unwrap_or_default();
        assert!(
            fence.starts_with("```"),
            "{doc}:{}: the marker for {file} is not followed by a fenced block",
            at + 1
        );
        let block: Vec<String> = lines[at + 2..]
            .iter()
            .take_while(|l| l.trim() != "```")
            .map(|l| l.trim_end().to_string())
            .collect();
        out.push((at + 1, file.to_string(), block));
    }
    out
}

#[test]
fn every_quote_is_a_run_of_its_results_file() {
    for (stem, _) in DOCS {
        let doc = format!("{stem}.md");
        for (line, file, block) in excerpts(&doc) {
            assert!(!block.is_empty(), "{doc}:{line}: empty quote of {file}");
            let source: Vec<String> = read(&file)
                .lines()
                .map(|l| l.trim_end().to_string())
                .collect();
            let found = source.windows(block.len()).any(|w| w == block.as_slice());
            assert!(
                found,
                "{doc}:{line}: the quote is not a run of lines of {file}; \
                 copy it again from the file (first quoted line: {:?})",
                block[0]
            );
        }
    }
}

#[test]
fn every_figure_section_quotes_its_results() {
    let text = read("EXPERIMENTS.md");
    let quoted: Vec<usize> = excerpts("EXPERIMENTS.md").iter().map(|e| e.0).collect();
    let headings: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter_map(|(i, l)| l.strip_prefix("## ").map(|h| (i + 1, h)))
        .collect();
    let mut checked = 0;
    for (k, &(start, heading)) in headings.iter().enumerate() {
        if !FIGURE_SECTIONS.iter().any(|p| heading.starts_with(p)) {
            continue;
        }
        let end = headings.get(k + 1).map_or(usize::MAX, |h| h.0);
        let has = quoted.iter().any(|&q| q > start && q < end);
        assert!(
            has,
            "EXPERIMENTS.md:{start}: \"{heading}\" quotes no results file"
        );
        checked += 1;
    }
    assert!(checked >= 12, "only {checked} figure sections found");
}

/// The headings and bold labels of a document, as written.
fn labels(doc: &str) -> Vec<String> {
    let text = read(doc);
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            out.push(line.trim_start_matches('#').trim().to_string());
        }
        let mut rest = line;
        while let Some(open) = rest.find("**") {
            let after = &rest[open + 2..];
            let Some(close) = after.find("**") else {
                break;
            };
            out.push(after[..close].trim_end_matches(['.', ':']).to_string());
            rest = &after[close + 2..];
        }
    }
    out
}

/// Whether `cited` names `label`: the whole label, or the label up to a
/// space or punctuation (a parenthesised path, a dash, a verdict).
fn names(label: &str, cited: &str) -> bool {
    label
        .strip_prefix(cited)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with([' ', ',', '.', ':', '(']))
}

/// Drops the comment markers a reference can wrap across.
fn unwrap_comment(text: &str) -> String {
    let parts = text.lines().map(|l| {
        let l = l.trim();
        let l = l
            .strip_prefix("//!")
            .or_else(|| l.strip_prefix("///"))
            .or_else(|| l.strip_prefix("//"))
            .or_else(|| l.strip_prefix('#'))
            .unwrap_or(l);
        l.trim().to_string()
    });
    parts
        .filter(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every section reference to `stem`.md in `file`: (line, cited text).
fn references(file: &str, text: &str, stem: &str) -> Vec<(usize, String)> {
    let name = format!("{stem}.md");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(&name) {
        let start = from + at;
        from = start + name.len();
        let rest = &text[from..];
        let gap = rest
            .find(|c: char| !(c.is_whitespace() || c == '/' || c == '!' || c == '#'))
            .unwrap_or(rest.len());
        // A cited section is separated from the name by a space; a name
        // closed by its own quote is a string, not a reference.
        if gap == 0 || !rest[gap..].starts_with('"') || !unwrap_comment(&rest[..gap]).is_empty() {
            continue;
        }
        let quoted = &rest[gap + 1..];
        let line = text[..start].matches('\n').count() + 1;
        let close = quoted.find('"');
        let cited = close.map(|c| unwrap_comment(&quoted[..c]));
        let cited = cited.filter(|c| !c.is_empty() && c.len() <= 80);
        let cited = cited.unwrap_or_else(|| panic!("{file}:{line}: an unclosed reference"));
        out.push((line, cited));
    }
    out
}

#[test]
fn every_section_reference_resolves() {
    let mut files: Vec<String> = REF_DIRS.iter().flat_map(|d| find(d)).collect();
    files.extend(REF_FILES.iter().map(|f| f.to_string()));
    let mut seen = std::collections::BTreeSet::new();
    for (stem, _) in DOCS {
        let known = labels(&format!("{stem}.md"));
        for file in &files {
            for (line, cited) in references(file, &read(file), stem) {
                let found = known.iter().any(|l| names(l, &cited));
                assert!(found, "{file}:{line}: {stem}.md has no section \"{cited}\"");
                seen.insert((stem, cited));
            }
        }
    }
    assert!(
        seen.len() >= 15,
        "only {} distinct references found",
        seen.len()
    );
}

#[test]
fn the_docs_stay_under_their_line_ceilings() {
    for (stem, ceiling) in DOCS {
        let lines = read(&format!("{stem}.md")).lines().count();
        assert!(
            lines <= ceiling,
            "{stem}.md has {lines} lines, over its ceiling of {ceiling}: \
             say it in fewer, or move history to CHANGES.md"
        );
    }
}

#[test]
fn every_named_crate_is_a_package() {
    let packages: Vec<String> = find("crates")
        .iter()
        .filter(|f| f.matches('/').count() == 2 && f.ends_with("/Cargo.toml"))
        .filter_map(|f| {
            let text = read(f);
            let name = text.lines().find_map(|l| l.strip_prefix("name = \""))?;
            Some(name.trim_end_matches('"').to_string())
        })
        .collect();
    assert!(packages.len() >= 9, "only {packages:?} under crates/");
    for doc in REF_FILES {
        let text = read(doc);
        for (at, _) in text.match_indices("yoda-") {
            let rest = &text[at + 5..];
            let len = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(rest.len());
            // A node name (`yoda-10.0.0.4`) starts with a digit.
            if rest.starts_with(|c: char| c.is_ascii_lowercase()) {
                let name = format!("yoda-{}", &rest[..len]);
                assert!(
                    packages.contains(&name),
                    "{doc} names `{name}`, which is no package under crates/ ({packages:?})"
                );
            }
        }
    }
}
