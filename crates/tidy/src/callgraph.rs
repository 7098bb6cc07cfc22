//! A conservative workspace call graph over parsed `fn` items.
//!
//! Resolution is name-based with receiver-type heuristics — deliberately
//! *over*-approximate so taint propagation is sound for the properties we
//! care about (a function that might run on a packet path is treated as
//! if it does):
//!
//! * `self.foo()` resolves against the enclosing impl's type first, then
//!   falls back to every known method named `foo` (covers trait default
//!   methods and impls split across files).
//! * `recv.foo()` resolves to **every** method named `foo` in the
//!   workspace. This is what gives us trait-impl (dynamic dispatch)
//!   edges for free: the engine's `node.on_packet(..)` fans out to every
//!   `Node::on_packet` impl, `picker.pick(..)` to every `Picker` impl.
//! * `Type::foo(..)` resolves by `(type, name)`. An uppercase qualifier
//!   with no match is assumed external (std) and contributes no edge; a
//!   lowercase qualifier is a module path and falls back to name-only.
//! * `foo(..)` prefers same-file, then same-crate, then workspace-wide
//!   candidates.
//!
//! Functions inside `#[cfg(test)]` regions and test/bench/example files
//! are excluded from the graph entirely: they cannot sit on a production
//! path, and keeping them out stops test helpers from aliasing
//! production names.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parser::{Call, CallKind, FnItem};

/// One function in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate key, e.g. `crates/tcp` (or `src` for the root crate).
    pub crate_key: String,
    /// Function name.
    pub name: String,
    /// Enclosing impl type, if any.
    pub self_ty: Option<String>,
    /// Whether the function takes `self`.
    pub has_self: bool,
    /// Body span (1-based, inclusive).
    pub start_line: usize,
    /// End of body.
    pub end_line: usize,
}

impl FnNode {
    /// `file::name` label used in taint paths.
    pub fn label(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{}::{}::{}", self.file, t, self.name),
            None => format!("{}::{}", self.file, self.name),
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All non-test functions, in deterministic (file, line) order.
    pub fns: Vec<FnNode>,
    /// Adjacency: `edges[i]` = indices of functions `i` may call.
    pub edges: Vec<Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_ty_name: BTreeMap<(String, String), Vec<usize>>,
}

/// Extracts the crate key from a repo-relative path:
/// `crates/tcp/src/seq.rs` → `crates/tcp`, `src/lib.rs` → `src`.
pub fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some(c) => format!("crates/{c}"),
            None => "crates".to_string(),
        },
        Some(first) => first.to_string(),
        None => String::new(),
    }
}

impl CallGraph {
    /// Builds the graph from parsed files: `(rel_path, fns)` pairs.
    /// Test functions are dropped; their calls never become edges.
    pub fn build(files: &[(String, Vec<FnItem>)]) -> CallGraph {
        let mut g = CallGraph::default();
        // Calls are kept aside, aligned with g.fns, until the name
        // indices are complete.
        let mut calls_of: Vec<Vec<Call>> = Vec::new();

        for (rel, fns) in files {
            for f in fns {
                if f.is_test || f.name.is_empty() {
                    continue;
                }
                let idx = g.fns.len();
                g.fns.push(FnNode {
                    file: rel.clone(),
                    crate_key: crate_key(rel),
                    name: f.name.clone(),
                    self_ty: f.self_ty.clone(),
                    has_self: f.has_self,
                    start_line: f.start_line,
                    end_line: f.end_line,
                });
                calls_of.push(f.calls.clone());
                g.by_name.entry(f.name.clone()).or_default().push(idx);
                if let Some(t) = &f.self_ty {
                    g.by_ty_name
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(idx);
                }
            }
        }

        g.edges = vec![Vec::new(); g.fns.len()];
        for (i, calls) in calls_of.iter().enumerate() {
            let mut targets = BTreeSet::new();
            for call in calls {
                for t in g.resolve(i, call) {
                    if t != i {
                        targets.insert(t);
                    }
                }
            }
            g.edges[i] = targets.into_iter().collect();
        }
        g
    }

    /// Candidate callees for one call site in function `caller`.
    fn resolve(&self, caller: usize, call: &Call) -> Vec<usize> {
        let name = call.name.as_str();
        match &call.kind {
            CallKind::SelfMethod => {
                if let Some(ty) = &self.fns[caller].self_ty {
                    if let Some(c) = self.by_ty_name.get(&(ty.clone(), name.to_string())) {
                        return c.clone();
                    }
                }
                // Trait default method or impl in another block: any
                // method with this name.
                self.methods_named(name)
            }
            CallKind::Method => self.methods_named(name),
            CallKind::Qualified(q) => {
                let ty = if q == "Self" {
                    self.fns[caller].self_ty.clone().unwrap_or_default()
                } else {
                    q.clone()
                };
                if let Some(c) = self.by_ty_name.get(&(ty.clone(), name.to_string())) {
                    return c.clone();
                }
                let module_path = q
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_');
                if module_path {
                    self.by_name.get(name).cloned().unwrap_or_default()
                } else {
                    // Unknown type qualifier: external (std) — no edge.
                    Vec::new()
                }
            }
            CallKind::Plain => {
                let all = match self.by_name.get(name) {
                    Some(c) => c,
                    None => return Vec::new(),
                };
                let same_file: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&t| self.fns[t].file == self.fns[caller].file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let same_crate: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&t| self.fns[t].crate_key == self.fns[caller].crate_key)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                all.clone()
            }
        }
    }

    fn methods_named(&self, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|c| {
                c.iter()
                    .copied()
                    .filter(|&t| self.fns[t].has_self)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Functions matching a `(file contains, self_ty, name)` query; used
    /// to seed taint roots.
    pub fn find(&self, name: &str) -> Vec<usize> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// BFS closure from `roots`. Returns, for every reached function, its
    /// BFS parent (roots map to themselves); unreached functions are
    /// absent. Deterministic: queue order follows the sorted `fns` order.
    pub fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            parent.insert(r, r);
            queue.push_back(r);
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        parent
    }

    /// Reconstructs the taint path `root → … → target` as labels.
    pub fn path_to(&self, parent: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = target;
        let mut guard = 0;
        while let Some(&p) = parent.get(&cur) {
            chain.push(self.fns[cur].label());
            if p == cur {
                break;
            }
            cur = p;
            guard += 1;
            if guard > self.fns.len() {
                break;
            }
        }
        chain.reverse();
        chain
    }

    /// The function whose body spans `line` in `file`, if any (innermost
    /// match wins for nested fns).
    pub fn fn_at(&self, file: &str, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file == file && f.start_line <= line && line <= f.end_line {
                let tighter = best.is_none_or(|b| {
                    (f.end_line - f.start_line) < (self.fns[b].end_line - self.fns[b].start_line)
                });
                if tighter {
                    best = Some(i);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_fns;

    /// Builds a graph from `(path, source)` fixture files — a
    /// mini-workspace held entirely in strings.
    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, Vec<FnItem>)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse_fns(&lex(src))))
            .collect();
        CallGraph::build(&parsed)
    }

    fn idx(g: &CallGraph, file: &str, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.file == file && f.name == name)
            .unwrap_or_else(|| panic!("no fn {name} in {file}"))
    }

    #[test]
    fn plain_call_prefers_same_file_then_crate() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let c = idx(&g, "crates/a/src/lib.rs", "caller");
        let local = idx(&g, "crates/a/src/lib.rs", "helper");
        assert_eq!(g.edges[c], vec![local], "same-file helper wins");
    }

    #[test]
    fn cross_crate_plain_call_resolves_workspace_wide() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn caller() { faraway(); }\n"),
            ("crates/b/src/lib.rs", "fn faraway() {}\n"),
        ]);
        let c = idx(&g, "crates/a/src/lib.rs", "caller");
        let f = idx(&g, "crates/b/src/lib.rs", "faraway");
        assert_eq!(g.edges[c], vec![f]);
    }

    #[test]
    fn trait_impl_edges_fan_out_to_every_impl() {
        let g = graph(&[
            (
                "crates/engine/src/lib.rs",
                "struct E;\nimpl E {\n    fn step(&mut self) { node.on_packet(); }\n}\n",
            ),
            (
                "crates/x/src/lib.rs",
                "impl Node for X {\n    fn on_packet(&mut self) { self.helper(); }\n    fn helper(&mut self) {}\n}\n",
            ),
            (
                "crates/y/src/lib.rs",
                "impl Node for Y {\n    fn on_packet(&mut self) {}\n}\n",
            ),
        ]);
        let step = idx(&g, "crates/engine/src/lib.rs", "step");
        let x = idx(&g, "crates/x/src/lib.rs", "on_packet");
        let y = idx(&g, "crates/y/src/lib.rs", "on_packet");
        assert_eq!(g.edges[step], vec![x, y], "dynamic dispatch fans out");
    }

    #[test]
    fn self_method_resolves_to_own_impl_not_other_types() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "impl A {\n    fn go(&self) { self.m(); }\n    fn m(&self) {}\n}\nimpl B {\n    fn m(&self) {}\n}\n",
        )]);
        let go = idx(&g, "crates/a/src/lib.rs", "go");
        let am = g
            .fns
            .iter()
            .position(|f| f.name == "m" && f.self_ty.as_deref() == Some("A"))
            .unwrap();
        assert_eq!(g.edges[go], vec![am]);
    }

    #[test]
    fn qualified_call_by_type_and_std_type_ignored() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "impl Codec {\n    fn decode() {}\n}\nfn caller() { Codec::decode(); Box::new(1); }\n",
        )]);
        let c = idx(&g, "crates/a/src/lib.rs", "caller");
        let d = idx(&g, "crates/a/src/lib.rs", "decode");
        assert_eq!(g.edges[c], vec![d], "Box::new contributes no edge");
    }

    #[test]
    fn taint_propagates_transitively_and_untainted_fn_stays_clean() {
        let g = graph(&[
            (
                "crates/x/src/lib.rs",
                "impl Node for X {\n    fn on_packet(&mut self) { step_one(); }\n}\nfn step_one() { step_two(); }\nfn step_two() {}\nfn unreached() {}\n",
            ),
        ]);
        let roots = g.find("on_packet");
        let reach = g.reach(&roots);
        let two = idx(&g, "crates/x/src/lib.rs", "step_two");
        let un = idx(&g, "crates/x/src/lib.rs", "unreached");
        assert!(reach.contains_key(&two), "transitive reach");
        assert!(!reach.contains_key(&un), "unreached fn not tainted");
        let path = g.path_to(&reach, two);
        assert_eq!(
            path,
            vec![
                "crates/x/src/lib.rs::X::on_packet",
                "crates/x/src/lib.rs::step_one",
                "crates/x/src/lib.rs::step_two",
            ]
        );
    }

    #[test]
    fn test_fns_never_enter_the_graph() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn prod() { shared(); }\nfn shared() {}\n#[cfg(test)]\nmod tests {\n    fn shared() {}\n    fn t() { prod(); }\n}\n",
        )]);
        assert_eq!(g.fns.len(), 2, "test fns dropped: {:?}", g.fns);
    }

    #[test]
    fn fn_at_maps_lines_to_innermost_fn() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn outer() {\n    fn inner() {\n        let x = 1;\n    }\n    other();\n}\n",
        )]);
        let inner = idx(&g, "crates/a/src/lib.rs", "inner");
        let outer = idx(&g, "crates/a/src/lib.rs", "outer");
        assert_eq!(g.fn_at("crates/a/src/lib.rs", 3), Some(inner));
        assert_eq!(g.fn_at("crates/a/src/lib.rs", 5), Some(outer));
        assert_eq!(g.fn_at("crates/a/src/lib.rs", 99), None);
    }

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key("crates/tcp/src/seq.rs"), "crates/tcp");
        assert_eq!(crate_key("src/lib.rs"), "src");
        assert_eq!(crate_key("tests/system.rs"), "tests");
    }
}
