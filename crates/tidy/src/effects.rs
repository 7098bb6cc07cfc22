//! Interprocedural effect-signature analysis.
//!
//! Every function in the call graph gets a *signature*: a bitmask over a
//! small effect lattice describing what the function (or anything it can
//! call) may do to engine-global or host-global state. Signatures are
//! seeded lexically from function bodies and propagated to a fixpoint
//! along the call graph, so `a → b → c` gives `a` the union of all three.
//!
//! # The lattice
//!
//! | bit | effect | examples |
//! |-----|--------|----------|
//! | 1   | `rng-draw` | touching an RNG *stream* (construct, reseed, or the engine-global stream) |
//! | 2   | `clock-read` | host wall clock (`Instant`, `SystemTime`) — never the sim clock |
//! | 4   | `seq-alloc` | engine-global id/sequence allocation (timer ids, provenance ids) |
//! | 8   | `digest-fold` | folding into the engine's replay digest |
//! | 16  | `engine-global-mut` | mutating `Engine`/`EngineCore` state directly |
//! | 32  | `unordered-iter` | `HashMap`/`HashSet` (iteration order leaks) |
//! | 64  | `io-env` | host I/O or environment access |
//!
//! Each effect is seeded at two grades. **Signature-grade** seeds are
//! informative: drawing from a *passed-in* `&mut Rng` (`.gen_range(..)`)
//! is sanctioned everywhere, but callers deserve to know it happens, so
//! it enters the signature without ever being a violation.
//! **Strict-grade** seeds are the constructs a packet/timer handler must
//! not reach: touching the engine-global RNG stream, constructing or
//! reseeding a generator, allocating engine-global ids, folding digests,
//! mutating the engine, reading the host clock or environment.
//!
//! # Enforcement
//!
//! Handlers (`on_packet`/`on_timer`/`on_tick`) may only cause
//! engine-global effects through the sanctioned [`Ctx`] API — `send`,
//! `set_timer`, `node_rng`, and friends — the one doorway through which
//! global `seq`/timer-id allocation, link-model RNG draws and digest
//! folds happen in canonical event order. Any *other* route from a
//! handler to a strict effect (say, drawing from the engine-global RNG,
//! which makes one node's values depend on every other node's draws) is
//! a violation. Concretely: BFS from every handler over the call graph
//! with two classes of edge removed —
//!
//! * **sanctioned cut** — edges into the `Ctx`-API surface
//!   (`SANCTIONED_NAMES` × `SANCTIONED_TYPES`). These are the blessed
//!   doorways; what lies behind them is the engine itself.
//! * **visibility cut** — cross-crate edges into functions that are
//!   neither `pub fn` nor trait impls. The name-based resolver
//!   over-approximates (`vec.push(..)` fans out to every method named
//!   `push`), and a private method in another crate cannot actually be
//!   the callee.
//!
//! A strict seed inside any function still reachable is reported as an
//! `effect-<name>` violation carrying the `root → … → fn` taint path.
//!
//! Violations report the *seed line*; signatures are dumped with
//! `yoda-tidy --effects` and committed as `results/tidy_effects.json`
//! so CI can diff per-function effect signatures across changes.

use std::collections::{BTreeMap, VecDeque};

use crate::callgraph::{CallGraph, FnNode};
use crate::lexer::LexedLine;
use crate::{Taint, Violation, HASH_TABLE_FILES, HOT_ROOT_NAMES, SIM_CRATES};

/// Effect bits. `u8` holds the whole lattice.
pub const RNG_DRAW: u8 = 1;
/// Host wall-clock read.
pub const CLOCK_READ: u8 = 1 << 1;
/// Engine-global id/sequence allocation.
pub const SEQ_ALLOC: u8 = 1 << 2;
/// Replay-digest fold.
pub const DIGEST_FOLD: u8 = 1 << 3;
/// Direct `Engine`/`EngineCore` mutation.
pub const ENGINE_GLOBAL_MUT: u8 = 1 << 4;
/// Hash-order iteration.
pub const UNORDERED_ITER: u8 = 1 << 5;
/// Host I/O or environment.
pub const IO_ENV: u8 = 1 << 6;

/// All bits, lowest first — iteration order for reports.
pub const ALL_BITS: [u8; 7] = [
    RNG_DRAW,
    CLOCK_READ,
    SEQ_ALLOC,
    DIGEST_FOLD,
    ENGINE_GLOBAL_MUT,
    UNORDERED_ITER,
    IO_ENV,
];

/// Human name of one effect bit.
pub fn bit_name(bit: u8) -> &'static str {
    match bit {
        RNG_DRAW => "rng-draw",
        CLOCK_READ => "clock-read",
        SEQ_ALLOC => "seq-alloc",
        DIGEST_FOLD => "digest-fold",
        ENGINE_GLOBAL_MUT => "engine-global-mut",
        UNORDERED_ITER => "unordered-iter",
        IO_ENV => "io-env",
        _ => "unknown",
    }
}

/// Violation rule id for a strict effect reached from a handler.
fn rule_for(bit: u8) -> &'static str {
    match bit {
        RNG_DRAW => "effect-rng-draw",
        CLOCK_READ => "effect-clock-read",
        SEQ_ALLOC => "effect-seq-alloc",
        DIGEST_FOLD => "effect-digest-fold",
        ENGINE_GLOBAL_MUT => "effect-engine-global-mut",
        UNORDERED_ITER => "effect-unordered-iter",
        IO_ENV => "effect-io-env",
        _ => "effect-unknown",
    }
}

/// The sanctioned `Ctx`-API surface: the only doorways through which a
/// handler may cause engine-global effects. `rng` is deliberately
/// absent — the engine-global stream is *not* available to handlers
/// (per-node streams via `node_rng` are).
const SANCTIONED_NAMES: &[&str] = &[
    "send",
    "send_after",
    "set_timer",
    "cancel_timer",
    "trace_note",
    "trace_enabled",
    "now",
    "node_id",
    "node_name",
    "resolve",
    "node_rng",
];

/// Types owning the sanctioned surface. `Engine`/`EngineCore` are
/// included so the name-based fan-out of a `ctx.now()` call (which also
/// matches `Engine::now`) and the `Ctx` methods' own delegation targets
/// (`core.send_from(..)`) are cut at the same boundary.
const SANCTIONED_TYPES: &[&str] = &["Ctx", "EngineCore", "Engine"];

/// One strict-grade seed site inside a function body.
#[derive(Debug, Clone)]
struct SeedHit {
    line: usize,
    content: String,
    bit: u8,
}

/// Per-function effect signature, after propagation.
#[derive(Debug, Clone)]
pub struct EffectSignature {
    /// `file::Type::name` label (same format as taint paths).
    pub label: String,
    /// Defining file.
    pub file: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Full propagated signature (signature- and strict-grade seeds of
    /// this function and everything it can call past the cuts).
    pub sig: u8,
    /// Strict-grade subset of `sig`.
    pub strict: u8,
    /// Whether a handler reaches this function over cut edges.
    pub handler_reachable: bool,
}

/// Result of the effects pass, for the `--effects` JSON dump.
#[derive(Debug, Default)]
pub struct EffectsReport {
    /// Functions with a non-empty signature, in label order.
    pub signatures: Vec<EffectSignature>,
    /// Total functions analyzed.
    pub functions: usize,
    /// Count of `effect-*` violations found.
    pub violations: usize,
}

/// Runs the effects pass over an already-built call graph. Returns the
/// `effect-*` violations (strict seeds reachable from handlers, with
/// taint paths) and the full signature report.
pub fn analyze_effects(
    graph: &CallGraph,
    by_rel: &BTreeMap<&str, &[LexedLine]>,
) -> (Vec<Violation>, EffectsReport) {
    let n = graph.fns.len();
    let mut sig = vec![0u8; n];
    let mut strict = vec![0u8; n];
    let mut hits: Vec<Vec<SeedHit>> = vec![Vec::new(); n];

    // --- Seed (lexical, per line, innermost-fn attribution) ----------
    for (rel, lines) in by_rel {
        if rel.starts_with("crates/tidy/") {
            continue;
        }
        for l in lines.iter() {
            if l.in_test {
                continue;
            }
            let (s_bits, v_bits) = line_seeds(rel, &l.code);
            if s_bits == 0 && v_bits == 0 {
                continue;
            }
            let Some(i) = graph.fn_at(rel, l.number) else {
                continue;
            };
            sig[i] |= s_bits | v_bits;
            strict[i] |= v_bits;
            for &bit in &ALL_BITS {
                if v_bits & bit != 0 {
                    hits[i].push(SeedHit {
                        line: l.number,
                        content: l.raw.trim().to_string(),
                        bit,
                    });
                }
            }
        }
    }

    // Function-level seed: every method on `Engine`/`EngineCore` is
    // engine-global state access by definition, whatever its body
    // spells. (The sanctioned surface is cut below, not unseeded.)
    for (i, f) in graph.fns.iter().enumerate() {
        if f.file.starts_with("crates/tidy/") {
            continue;
        }
        if f.has_self && matches!(f.self_ty.as_deref(), Some("Engine") | Some("EngineCore")) {
            sig[i] |= ENGINE_GLOBAL_MUT;
            strict[i] |= ENGINE_GLOBAL_MUT;
            let content = decl_line(by_rel, f)
                .map(|l| l.raw.trim().to_string())
                .unwrap_or_else(|| format!("fn {}", f.name));
            hits[i].push(SeedHit {
                line: f.start_line,
                content,
                bit: ENGINE_GLOBAL_MUT,
            });
        }
    }

    // --- Cut edges ----------------------------------------------------
    let mut cut: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, targets) in graph.edges.iter().enumerate() {
        for &v in targets {
            let fu = &graph.fns[u];
            let fv = &graph.fns[v];
            if sanctioned(fv) {
                continue;
            }
            if fu.crate_key != fv.crate_key && !visible_target(by_rel, fv) {
                continue;
            }
            // A method call on a *field* (`self.hist.push(..)`) fans out
            // by name to every method named `push`, including private
            // inherent methods of unrelated types in the same crate
            // (`EngineCore::push`). A private inherent method can only
            // really be called from its own type's impl blocks (or
            // same-crate code that *names* the type — which the
            // resolver handles as a Qualified call with exact (type,
            // name) match before falling back to fan-out), so fan-out
            // edges into a private inherent method of a different self
            // type are noise.
            let private_inherent = fv.has_self
                && fv.trait_name.is_none()
                && !visible_target(by_rel, fv)
                && fu.self_ty != fv.self_ty;
            if private_inherent {
                continue;
            }
            cut[u].push(v);
        }
    }

    // --- Handler reachability (BFS with parents, over cut edges) -----
    let mut roots: Vec<usize> = Vec::new();
    for name in HOT_ROOT_NAMES {
        roots.extend(graph.find(name));
    }
    roots.sort_unstable();
    roots.dedup();
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &r in &roots {
        parent.insert(r, r);
        queue.push_back(r);
    }
    while let Some(u) = queue.pop_front() {
        for &v in &cut[u] {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                e.insert(u);
                queue.push_back(v);
            }
        }
    }

    // --- Violations: strict seeds inside reachable functions ---------
    let mut violations = Vec::new();
    for &i in parent.keys() {
        if strict[i] == 0 {
            continue;
        }
        let taint = Taint {
            kind: "effect",
            path: graph.path_to(&parent, i),
        };
        for hit in &hits[i] {
            violations.push(Violation {
                rule: rule_for(hit.bit),
                path: graph.fns[i].file.clone(),
                line: hit.line,
                content: hit.content.clone(),
                taint: Some(taint.clone()),
            });
        }
    }

    // --- Signature fixpoint over cut edges ----------------------------
    // Sweeps until stable: masks only grow and the lattice height is 7
    // bits, so this terminates fast even with call-graph cycles.
    loop {
        let mut changed = false;
        for u in 0..n {
            let mut s = sig[u];
            let mut t = strict[u];
            for &v in &cut[u] {
                s |= sig[v];
                t |= strict[v];
            }
            if s != sig[u] || t != strict[u] {
                sig[u] = s;
                strict[u] = t;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut signatures: Vec<EffectSignature> = (0..n)
        .filter(|&i| sig[i] != 0)
        .map(|i| EffectSignature {
            label: graph.fns[i].label(),
            file: graph.fns[i].file.clone(),
            line: graph.fns[i].start_line,
            sig: sig[i],
            strict: strict[i],
            handler_reachable: parent.contains_key(&i),
        })
        .collect();
    signatures.sort_by(|a, b| a.label.cmp(&b.label).then(a.line.cmp(&b.line)));

    let report = EffectsReport {
        signatures,
        functions: n,
        violations: violations.len(),
    };
    (violations, report)
}

/// The sanctioned cut: true for the blessed `Ctx`-API doorways.
fn sanctioned(f: &FnNode) -> bool {
    SANCTIONED_NAMES.contains(&f.name.as_str())
        && f.self_ty
            .as_deref()
            .is_some_and(|t| SANCTIONED_TYPES.contains(&t))
}

/// The visibility cut: a cross-crate edge can only be real if the
/// target is `pub fn` (note: `pub(crate) fn` is not) or a trait impl
/// (trait methods dispatch across crates regardless of visibility).
fn visible_target(by_rel: &BTreeMap<&str, &[LexedLine]>, f: &FnNode) -> bool {
    if f.trait_name.is_some() {
        return true;
    }
    match decl_line(by_rel, f) {
        Some(l) => l.code.contains("pub fn "),
        // No line info (shouldn't happen): keep the edge, conservative.
        None => true,
    }
}

fn decl_line<'a>(by_rel: &BTreeMap<&str, &'a [LexedLine]>, f: &FnNode) -> Option<&'a LexedLine> {
    by_rel
        .get(f.file.as_str())?
        .iter()
        .find(|l| l.number == f.start_line)
}

/// Lexical seeds for one blanked source line: `(signature-grade bits,
/// strict-grade bits)`. Strict bits are also signature bits; callers
/// union them.
fn line_seeds(rel: &str, code: &str) -> (u8, u8) {
    let mut sig = 0u8;
    let mut strict = 0u8;
    let in_netsim = rel.starts_with("crates/netsim/src/");
    let in_sim = SIM_CRATES.iter().any(|p| rel.starts_with(p));

    // rng-draw. Strict: touching a *stream* — the engine-global stream
    // (`.rng()`, `self.rng`, `core.rng`) or constructing/reseeding a
    // generator (`Rng::`, `seed_from_u64(` — the latter also catches
    // constructions behind type aliases). `.node_rng()` never matches
    // `.rng()` (the preceding character is `_`). Signature-grade:
    // drawing from an `&mut Rng` someone handed in.
    const RNG_STRICT: &[&str] = &[".rng()", "self.rng", "core.rng", "Rng::", "seed_from_u64("];
    const RNG_SIG: &[&str] = &[
        ".gen_range(",
        ".next_u32(",
        ".next_u64(",
        ".gen_bool(",
        ".gen_f64(",
    ];
    if RNG_STRICT.iter().any(|p| code.contains(p)) {
        strict |= RNG_DRAW;
    }
    if RNG_SIG.iter().any(|p| code.contains(p)) {
        sig |= RNG_DRAW;
    }

    // clock-read: host wall clock only — the sim clock (`ctx.now()`)
    // is sanctioned and deliberately unmatched.
    if ["Instant::", "SystemTime", "UNIX_EPOCH"]
        .iter()
        .any(|p| code.contains(p))
    {
        strict |= CLOCK_READ;
    }

    // seq-alloc: engine-global id allocation lives in netsim; `self.seq`
    // elsewhere (TCP sockets) is per-connection state, not an effect.
    if in_netsim
        && ["next_timer_id", "self.seq", "core.seq"]
            .iter()
            .any(|p| code.contains(p))
    {
        strict |= SEQ_ALLOC;
    }

    // digest-fold: the replay digest is engine state; folds anywhere in
    // netsim are strict.
    if in_netsim && ["fnv_fold(", ".digest"].iter().any(|p| code.contains(p)) {
        strict |= DIGEST_FOLD;
    }

    // engine-global-mut: a line handling `&mut Engine`/`&mut EngineCore`
    // (closures capturing the engine included). Fn-level seeds for
    // Engine/EngineCore methods are added by the caller.
    if code.contains("&mut Engine") {
        strict |= ENGINE_GLOBAL_MUT;
    }

    // unordered-iter: violation-grade inside simulation crates (order
    // leaks into event scheduling), informative elsewhere. `FlowTable`'s
    // own file is exempt: its API exposes no order to leak.
    if (code.contains("HashMap") || code.contains("HashSet")) && !HASH_TABLE_FILES.contains(&rel) {
        if in_sim {
            strict |= UNORDERED_ITER;
        } else {
            sig |= UNORDERED_ITER;
        }
    }

    // io-env: host I/O and environment.
    if ["std::io", "std::fs", "std::env", "env::var(", "env::args("]
        .iter()
        .any(|p| code.contains(p))
    {
        strict |= IO_ENV;
    }

    (sig, strict)
}

/// Serializes an [`EffectsReport`] as JSON. One signature object per
/// line so shell tooling can count with `grep -c '"fn"'`.
pub fn to_json(report: &EffectsReport) -> String {
    let names = |mask: u8| -> String {
        ALL_BITS
            .iter()
            .filter(|&&b| mask & b != 0)
            .map(|&b| format!("\"{}\"", bit_name(b)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let reachable = report
        .signatures
        .iter()
        .filter(|s| s.handler_reachable)
        .count();
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"summary\": {{\"functions\": {}, \"effectful\": {}, \"handler_reachable\": {}, \"violations\": {}}},\n",
        report.functions,
        report.signatures.len(),
        reachable,
        report.violations,
    ));
    s.push_str("  \"signatures\": [\n");
    for (i, e) in report.signatures.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"fn\": {}, \"file\": {}, \"line\": {}, \"effects\": [{}], \"strict\": [{}], \"handler_reachable\": {}}}{}\n",
            crate::json_str(&e.label),
            crate::json_str(&e.file),
            e.line,
            names(e.sig),
            names(e.strict),
            e.handler_reachable,
            if i + 1 < report.signatures.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, analyze_full};

    /// Runs the full analyzer over `(path, source)` fixtures and keeps
    /// only the effect-pass violations (the lexical rules fire on the
    /// same fixtures by design — defense in depth — and are not under
    /// test here).
    fn effect_violations(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        let (violations, _) = analyze(&sources);
        violations
            .into_iter()
            .filter(|v| v.rule.starts_with("effect-"))
            .collect()
    }

    #[test]
    fn handler_reaching_rng_reseed_is_flagged_with_path() {
        let vs = effect_violations(&[(
            "crates/core/src/x.rs",
            "impl Node for X {\n\
             \x20   fn on_packet(&mut self) { self.reseed(); }\n\
             }\n\
             impl X {\n\
             \x20   fn reseed(&mut self) { self.r = Rng::seed_from_u64(self.k); }\n\
             }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "effect-rng-draw");
        assert_eq!(vs[0].line, 5, "violation anchors at the seed line");
        let taint = vs[0].taint.as_ref().expect("taint path attached");
        assert_eq!(taint.kind, "effect");
        assert_eq!(
            taint.path,
            vec![
                "crates/core/src/x.rs::X::on_packet",
                "crates/core/src/x.rs::X::reseed",
            ]
        );
    }

    #[test]
    fn sanctioned_ctx_api_is_not_a_route_to_effects() {
        // Ctx::send allocates engine-global ids — the whole point of the
        // sanctioned surface is that handlers may go through it.
        let vs = effect_violations(&[
            (
                "crates/netsim/src/engine.rs",
                "impl Ctx {\n\
                 \x20   pub fn send(&mut self) { self.core.seq = self.core.seq + 1; }\n\
                 }\n",
            ),
            (
                "crates/core/src/x.rs",
                "impl Node for X {\n\
                 \x20   fn on_packet(&mut self, ctx: &mut Ctx) { ctx.send(); }\n\
                 }\n",
            ),
        ]);
        assert_eq!(vs, vec![], "sanctioned doorway must be cut");
    }

    #[test]
    fn cross_crate_fanout_into_private_fn_is_cut() {
        // `self.log.push(..)` is Vec::push, but the name-based resolver
        // also fans out to netsim's private `EngineCore::push` — the
        // visibility cut must drop that edge.
        let vs = effect_violations(&[
            (
                "crates/netsim/src/engine.rs",
                "impl EngineCore {\n\
                 \x20   fn push(&mut self) { self.seq = self.seq + 1; }\n\
                 }\n",
            ),
            (
                "crates/core/src/x.rs",
                "impl Node for X {\n\
                 \x20   fn on_packet(&mut self) { self.log.push(1); }\n\
                 }\n",
            ),
        ]);
        assert_eq!(vs, vec![], "private cross-type target must be cut");
    }

    #[test]
    fn trait_object_dispatch_reaches_wall_clock_impl() {
        // Satellite regression: `self.clock.wall()` on a `&dyn Clock`
        // field must fan out to the impl and flag its `Instant::now()`.
        let vs = effect_violations(&[
            (
                "crates/core/src/clock.rs",
                "pub trait Clock {\n\
                 \x20   fn wall(&self) -> u64;\n\
                 }\n\
                 impl Clock for HostClock {\n\
                 \x20   fn wall(&self) -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n\
                 }\n",
            ),
            (
                "crates/core/src/x.rs",
                "impl Node for X {\n\
                 \x20   fn on_packet(&mut self) { self.clock.wall(); }\n\
                 }\n",
            ),
        ]);
        let clock: Vec<&Violation> = vs
            .iter()
            .filter(|v| v.rule == "effect-clock-read")
            .collect();
        assert_eq!(clock.len(), 1, "{vs:?}");
        assert_eq!(clock[0].path, "crates/core/src/clock.rs");
        assert_eq!(clock[0].line, 5);
        let path = &clock[0].taint.as_ref().expect("taint").path;
        assert_eq!(path.first().map(String::as_str), Some("crates/core/src/x.rs::X::on_packet"));
    }

    #[test]
    fn closure_capturing_engine_in_handler_is_flagged() {
        // Satellite regression: a closure taking `&mut Engine` inside a
        // handler-reachable function is direct engine mutation, even
        // though no named engine method is called.
        let vs = effect_violations(&[(
            "crates/core/src/x.rs",
            "impl Node for X {\n\
             \x20   fn on_timer(&mut self) { self.defer(); }\n\
             }\n\
             impl X {\n\
             \x20   fn defer(&mut self) {\n\
             \x20       let f = |eng: &mut Engine| eng.kick();\n\
             \x20       self.q.push_back(f);\n\
             \x20   }\n\
             }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "effect-engine-global-mut");
        assert_eq!(vs[0].line, 6);
    }

    #[test]
    fn rng_construction_behind_type_alias_is_flagged() {
        // Satellite regression: `type FastRng = Rng` hides the type from
        // name resolution, but `seed_from_u64(` is seeded lexically, so
        // the aliased construction is still caught in the handler.
        let vs = effect_violations(&[(
            "crates/http/src/x.rs",
            "type FastRng = Rng;\n\
             impl Node for X {\n\
             \x20   fn on_packet(&mut self) {\n\
             \x20       let mut r = FastRng::seed_from_u64(3);\n\
             \x20       r.next_u64();\n\
             \x20   }\n\
             }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "effect-rng-draw");
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn effect_in_match_guard_is_flagged() {
        // Satellite regression: a draw from the node's *struct field*
        // RNG inside a match guard — guard lines sit inside the fn body
        // span, so innermost-fn attribution must pick them up.
        let vs = effect_violations(&[(
            "crates/http/src/x.rs",
            "impl Node for X {\n\
             \x20   fn on_packet(&mut self) {\n\
             \x20       match self.state {\n\
             \x20           s if self.rng.next_u64() > s => self.advance(),\n\
             \x20           _ => {}\n\
             \x20       }\n\
             \x20   }\n\
             }\n",
        )]);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, "effect-rng-draw");
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn unreachable_strict_effects_are_signature_only() {
        // A scenario driver may reseed and mutate the engine freely —
        // it is not reachable from any handler.
        let vs = effect_violations(&[(
            "crates/core/src/driver.rs",
            "pub fn drive(eng: &mut Engine) {\n\
             \x20   let mut r = Rng::seed_from_u64(7);\n\
             \x20   r.next_u64();\n\
             }\n",
        )]);
        assert_eq!(vs, vec![], "unreachable code carries no violations");
    }

    #[test]
    fn signatures_propagate_to_callers_and_dump_as_json() {
        let sources = vec![
            (
                "crates/http/src/x.rs".to_string(),
                "impl Node for X {\n\
                 \x20   fn on_packet(&mut self, ctx: &mut Ctx) { jitter(ctx); }\n\
                 }\n\
                 pub fn jitter(ctx: &mut Ctx) -> u64 {\n\
                 \x20   ctx.node_rng().gen_range(0..9)\n\
                 }\n"
                    .to_string(),
            ),
        ];
        let (_, _, report) = analyze_full(&sources);
        let sig_of = |name: &str| {
            report
                .signatures
                .iter()
                .find(|s| s.label.ends_with(name))
                .unwrap_or_else(|| panic!("no signature for {name}"))
        };
        let jitter = sig_of("::jitter");
        assert_eq!(jitter.sig, RNG_DRAW);
        assert_eq!(jitter.strict, 0, "drawing from node_rng is sanctioned");
        assert!(jitter.handler_reachable);
        let handler = sig_of("::X::on_packet");
        assert_eq!(handler.sig, RNG_DRAW, "signature propagates to the caller");

        let json = to_json(&report);
        assert!(json.contains("\"violations\": 0"), "{json}");
        assert!(
            json.contains("\"effects\": [\"rng-draw\"]"),
            "mask renders as names: {json}"
        );
        // One signature object per line: grep-countable in CI.
        assert_eq!(
            json.lines().filter(|l| l.contains("\"fn\":")).count(),
            report.signatures.len()
        );
    }

    #[test]
    fn bit_names_cover_the_lattice() {
        for bit in ALL_BITS {
            assert_ne!(bit_name(bit), "unknown");
            assert!(rule_for(bit).starts_with("effect-"));
        }
    }
}
