//! The L7 rules engine (paper §4.4 *Server selection*, §5.1 *Interface*).
//!
//! Yoda reuses HAProxy's classification algorithm — "a single table with
//! all the rules chained, \[scanning\] all the rules linearly to select the
//! backend server for every incoming new connection" — extended with a
//! **priority** field: rules are kept in decreasing priority order and the
//! first live match wins. Priority is what makes primary-backup policies
//! one-liner cheap (Table 3, rules 2–3): the high-priority rule names the
//! primary servers; when they are all dead the scan falls through to the
//! lower-priority backup rule with the same match.
//!
//! Supported policies (Table 3): **weighted-split**, **primary-backup**
//! (via priorities), **sticky-sessions** (cookie table), and
//! **least-loaded** (the paper's "weights set to −1" convention). Beyond
//! the paper, **prequal** selects via its rule's probe pool (`pool`)
//! (hot-cold lexicographic order over probed RIF and latency).
//!
//! Rules parse from / print to a one-line DSL so the controller can ship
//! them to instances in control packets:
//!
//! ```text
//! name=r-jpg2 priority=3 match url=*.jpg action=split 10.1.0.2:80=0.5 10.1.0.3:80=0.5
//! name=r-css1 priority=2 match url=*.css action=leastload 10.1.0.3:80 10.1.0.4:80
//! name=r-ck   priority=0 match cookie=session action=sticky session 10.1.0.2:80 10.1.0.3:80
//! name=r-pq   priority=1 match * action=prequal 10.1.0.2:80 10.1.0.3:80
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use yoda_http::HttpRequest;
use yoda_netsim::Rng;
use yoda_netsim::{Endpoint, SimTime};

use crate::pool::{ProbePool, Signal};

/// Glob matching with `*` (any run) and `?` (any one char).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while let Some(&tc) = t.get(ti) {
        let pc = p.get(pi).copied();
        if pc == Some('?') || pc == Some(tc) {
            pi += 1;
            ti += 1;
        } else if pc == Some('*') {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while p.get(pi) == Some(&'*') {
        pi += 1;
    }
    pi == p.len()
}

/// What a rule matches on (all present parts must match).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Matcher {
    /// Glob over the request path.
    pub(crate) url: Option<String>,
    /// Glob over the `Host` header.
    pub(crate) host: Option<String>,
    /// Cookie presence/name (`cookie=session` matches requests carrying a
    /// `session` cookie; `*` matches any cookie header).
    pub(crate) cookie: Option<String>,
    /// Header name/value-glob pair.
    pub(crate) header: Option<(String, String)>,
}

impl Matcher {
    /// True when this matcher accepts the request.
    pub(crate) fn matches(&self, req: &HttpRequest) -> bool {
        if let Some(glob) = &self.url {
            if !glob_match(glob, req.path()) {
                return false;
            }
        }
        if let Some(glob) = &self.host {
            match req.host() {
                Some(h) if glob_match(glob, h) => {}
                _ => return false,
            }
        }
        if let Some(name) = &self.cookie {
            let has = if name == "*" {
                req.header("Cookie").is_some()
            } else {
                req.cookie(name).is_some()
            };
            if !has {
                return false;
            }
        }
        if let Some((name, glob)) = &self.header {
            match req.header(name) {
                Some(v) if glob_match(glob, v) => {}
                _ => return false,
            }
        }
        true
    }
}

/// What to do with a matched request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Weighted split across backends.
    Split(Vec<(Endpoint, f64)>),
    /// Forward to the least-loaded live backend (the paper's "weights set
    /// to (−1)" policy).
    LeastLoaded(Vec<Endpoint>),
    /// Sticky sessions keyed by a cookie: the same cookie value always
    /// maps to the same backend (Table 3 rule 4's cookie table).
    Sticky {
        /// Cookie name carrying the session id.
        cookie: String,
        /// Backend pool.
        backends: Vec<Endpoint>,
    },
    /// Mirror the request to every backend and serve whichever responds
    /// first (§5.2 "Sending the same request to multiple servers").
    Mirror(Vec<Endpoint>),
    /// Probe-driven adaptive selection (Prequal-style, `pool`):
    /// hot-cold lexicographic order over the rule's probe pool, falling
    /// back to a uniform-random live backend while the pool is empty.
    Prequal(Vec<Endpoint>),
}

impl Action {
    /// The backends this action can select.
    pub(crate) fn backends(&self) -> Vec<Endpoint> {
        match self {
            Action::Split(ws) => ws.iter().map(|(b, _)| *b).collect(),
            Action::LeastLoaded(bs) => bs.clone(),
            Action::Sticky { backends, .. } => backends.clone(),
            Action::Mirror(bs) => bs.clone(),
            Action::Prequal(bs) => bs.clone(),
        }
    }
}

/// The result of rule matching: one primary backend, plus the extra
/// backends a mirror action races against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Selection {
    /// The backend the connection phase targets first.
    pub(crate) primary: Endpoint,
    /// Additional mirror targets (empty for ordinary actions).
    pub(crate) mirrors: Vec<Endpoint>,
}

/// One L7 rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Operator-facing name.
    pub(crate) name: String,
    /// Higher priorities are consulted first.
    pub(crate) priority: u32,
    /// Match condition.
    pub(crate) matcher: Matcher,
    /// Action on match.
    pub(crate) action: Action,
}

impl Rule {
    /// Parses the one-line DSL; `None` on malformed input.
    pub fn parse(line: &str) -> Option<Rule> {
        let mut name = None;
        let mut priority = 0u32;
        let mut matcher = Matcher::default();
        let mut action: Option<Action> = None;
        let mut tokens = line.split_whitespace().peekable();
        while let Some(tok) = tokens.next() {
            if let Some(v) = tok.strip_prefix("name=") {
                name = Some(v.to_string());
            } else if let Some(v) = tok.strip_prefix("priority=") {
                priority = v.parse().ok()?;
            } else if tok == "match" {
                // Match clauses until the `action=` token.
                while let Some(&next) = tokens.peek() {
                    if next.starts_with("action=") {
                        break;
                    }
                    let clause = tokens.next()?;
                    if clause == "*" {
                        continue;
                    } else if let Some(v) = clause.strip_prefix("url=") {
                        matcher.url = Some(v.to_string());
                    } else if let Some(v) = clause.strip_prefix("host=") {
                        matcher.host = Some(v.to_string());
                    } else if let Some(v) = clause.strip_prefix("cookie=") {
                        matcher.cookie = Some(v.to_string());
                    } else if let Some(v) = clause.strip_prefix("header=") {
                        let (n, g) = v.split_once(':')?;
                        matcher.header = Some((n.to_string(), g.to_string()));
                    } else {
                        return None;
                    }
                }
            } else if let Some(kind) = tok.strip_prefix("action=") {
                match kind {
                    "split" => {
                        let mut ws = Vec::new();
                        for t in tokens.by_ref() {
                            let (ep, w) = t.split_once('=')?;
                            ws.push((ep.parse().ok()?, w.parse().ok()?));
                        }
                        action = Some(Action::Split(ws));
                    }
                    "leastload" => {
                        let mut bs = Vec::new();
                        for t in tokens.by_ref() {
                            bs.push(t.parse().ok()?);
                        }
                        action = Some(Action::LeastLoaded(bs));
                    }
                    "sticky" => {
                        let cookie = tokens.next()?.to_string();
                        let mut bs = Vec::new();
                        for t in tokens.by_ref() {
                            bs.push(t.parse().ok()?);
                        }
                        action = Some(Action::Sticky {
                            cookie,
                            backends: bs,
                        });
                    }
                    "mirror" => {
                        let mut bs = Vec::new();
                        for t in tokens.by_ref() {
                            bs.push(t.parse().ok()?);
                        }
                        action = Some(Action::Mirror(bs));
                    }
                    "prequal" => {
                        let mut bs = Vec::new();
                        for t in tokens.by_ref() {
                            bs.push(t.parse().ok()?);
                        }
                        action = Some(Action::Prequal(bs));
                    }
                    _ => return None,
                }
            } else {
                return None;
            }
        }
        Some(Rule {
            name: name?,
            priority,
            matcher,
            action: action?,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name={} priority={} match", self.name, self.priority)?;
        let mut any = false;
        if let Some(u) = &self.matcher.url {
            write!(f, " url={u}")?;
            any = true;
        }
        if let Some(h) = &self.matcher.host {
            write!(f, " host={h}")?;
            any = true;
        }
        if let Some(c) = &self.matcher.cookie {
            write!(f, " cookie={c}")?;
            any = true;
        }
        if let Some((n, g)) = &self.matcher.header {
            write!(f, " header={n}:{g}")?;
            any = true;
        }
        if !any {
            write!(f, " *")?;
        }
        match &self.action {
            Action::Split(ws) => {
                write!(f, " action=split")?;
                for (ep, w) in ws {
                    write!(f, " {ep}={w}")?;
                }
            }
            Action::LeastLoaded(bs) => {
                write!(f, " action=leastload")?;
                for b in bs {
                    write!(f, " {b}")?;
                }
            }
            Action::Sticky { cookie, backends } => {
                write!(f, " action=sticky {cookie}")?;
                for b in backends {
                    write!(f, " {b}")?;
                }
            }
            Action::Mirror(bs) => {
                write!(f, " action=mirror")?;
                for b in bs {
                    write!(f, " {b}")?;
                }
            }
            Action::Prequal(bs) => {
                write!(f, " action=prequal")?;
                for b in bs {
                    write!(f, " {b}")?;
                }
            }
        }
        Ok(())
    }
}

/// Backend health/load context consulted during selection.
#[derive(Debug, Default)]
pub struct SelectCtx {
    /// Backends currently considered down.
    pub dead: BTreeSet<Endpoint>,
    /// Open-connection counts per backend (least-loaded policy).
    pub loads: BTreeMap<Endpoint, i64>,
    /// Current simulated time (probe-pool staleness eviction).
    pub(crate) now: SimTime,
}

/// A per-VIP rule table.
///
/// Keeps rules sorted by decreasing priority (insertion order breaking
/// ties). Selection is a deliberate **linear scan** — the cost the paper
/// measures in Figure 6 and bounds via the `R_y` rule capacity.
#[derive(Debug, Clone, Default)]
pub struct RuleTable {
    rules: Vec<Rule>,
    /// Sticky cookie table: cookie value → backend.
    sticky: BTreeMap<String, Endpoint>,
    /// Per-prequal-rule probe pools, keyed by rule name (lazily created).
    pools: BTreeMap<String, ProbePool>,
}

impl RuleTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        RuleTable::default()
    }

    /// Builds a table from rules (any order).
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        let mut t = RuleTable::new();
        for r in rules {
            t.insert(r);
        }
        t
    }

    /// Parses a newline-separated rule list.
    pub fn parse(text: &str) -> Option<RuleTable> {
        let mut rules = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            rules.push(Rule::parse(line)?);
        }
        Some(RuleTable::from_rules(rules))
    }

    /// Serializes to the newline-separated DSL.
    pub fn to_text(&self) -> String {
        self.rules
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Inserts a rule in priority position.
    pub(crate) fn insert(&mut self, rule: Rule) {
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Selects a backend for `req`: linear scan in priority order; a
    /// matching rule whose backends are all dead is skipped (this is what
    /// makes primary-backup work). Returns `None` when nothing matches.
    pub fn select(
        &mut self,
        req: &HttpRequest,
        ctx: &SelectCtx,
        rng: &mut Rng,
    ) -> Option<Endpoint> {
        self.select_full(req, ctx, rng).map(|s| s.primary)
    }

    /// Full selection including mirror targets (§5.2).
    pub(crate) fn select_full(
        &mut self,
        req: &HttpRequest,
        ctx: &SelectCtx,
        rng: &mut Rng,
    ) -> Option<Selection> {
        let RuleTable {
            rules,
            sticky,
            pools,
        } = self;
        for rule in rules.iter().filter(|r| r.matcher.matches(req)) {
            if let Action::Mirror(bs) = &rule.action {
                let mut live = bs.iter().filter(|b| !ctx.dead.contains(b)).copied();
                if let Some(primary) = live.next() {
                    return Some(Selection {
                        primary,
                        mirrors: live.collect(),
                    });
                }
                continue; // all mirror targets dead: fall through
            }
            if let Some(primary) = apply(rule, sticky, pools, req, ctx, rng) {
                return Some(Selection {
                    primary,
                    mirrors: Vec::new(),
                });
            }
        }
        None
    }

    /// Union of backends reachable through prequal rules (the probe
    /// candidate set).
    pub(crate) fn prequal_backends(&self) -> BTreeSet<Endpoint> {
        self.rules
            .iter()
            .filter(|r| matches!(r.action, Action::Prequal(_)))
            .flat_map(|r| r.action.backends())
            .collect()
    }

    /// Feeds one probe answer to every prequal rule pool that includes
    /// `backend`.
    pub(crate) fn on_probe(&mut self, backend: Endpoint, sig: Signal) {
        for r in &self.rules {
            if let Action::Prequal(bs) = &r.action {
                if bs.contains(&backend) {
                    self.pools
                        .entry(r.name.clone())
                        .or_default()
                        .admit(backend, sig);
                }
            }
        }
    }

    /// Drops `backend` from every probe pool (death or quarantine).
    pub(crate) fn purge_backend(&mut self, backend: Endpoint) {
        for pool in self.pools.values_mut() {
            pool.purge(backend);
        }
    }
}

/// Picks a backend for one matched rule, each policy in place. The
/// random draws are the policies' own, in their order: one `gen_f64` for
/// a split with live weight, one `gen_range` for a prequal pick the pool
/// cannot make.
fn apply(
    rule: &Rule,
    sticky: &mut BTreeMap<String, Endpoint>,
    pools: &mut BTreeMap<String, ProbePool>,
    req: &HttpRequest,
    ctx: &SelectCtx,
    rng: &mut Rng,
) -> Option<Endpoint> {
    let alive = |b: &&Endpoint| !ctx.dead.contains(*b);
    match &rule.action {
        // All-negative weights = least-loaded convention (§5.1).
        Action::Split(ws) if !ws.is_empty() && ws.iter().all(|(_, w)| *w < 0.0) => {
            least_loaded(ws.iter().map(|(b, _)| b), ctx)
        }
        Action::Split(ws) => {
            let live = || ws.iter().filter(|(b, w)| *w > 0.0 && alive(&b));
            let total: f64 = live().map(|(_, w)| w).sum();
            if total <= 0.0 {
                return None;
            }
            let mut roll = rng.gen_f64() * total;
            for (b, w) in live() {
                roll -= w;
                if roll <= 0.0 {
                    return Some(*b);
                }
            }
            live().next_back().map(|(b, _)| *b)
        }
        Action::LeastLoaded(bs) => least_loaded(bs.iter(), ctx),
        // Mirror is handled by select_full; a direct call takes the first
        // live target.
        Action::Mirror(bs) => bs.iter().find(alive).copied(),
        Action::Sticky { cookie, backends } => {
            let value = req.cookie(cookie)?;
            if let Some(&b) = sticky.get(value) {
                if !ctx.dead.contains(&b) {
                    return Some(b);
                }
            }
            // A fresh session lands by a keyed hash over the live set.
            let live = backends.iter().filter(alive).count();
            let key_hash = yoda_netsim::hash_bytes(0xC00C1E, value.as_bytes());
            let pick = *backends
                .iter()
                .filter(alive)
                .nth(key_hash as usize % live.max(1))?;
            sticky.insert(value.to_string(), pick);
            Some(pick)
        }
        // Prequal-style hot-cold selection over the rule's probe pool;
        // while the pool holds no live entry (cold start, or a tier that
        // never probes) a uniform-random live pick, never a refusal.
        Action::Prequal(bs) => {
            let live: Vec<Endpoint> = bs.iter().filter(alive).copied().collect();
            if !pools.contains_key(&rule.name) {
                pools.insert(rule.name.clone(), ProbePool::default());
            }
            let pool = pools.get_mut(&rule.name)?;
            pool.evict_stale(ctx.now);
            if let Some(b) = pool.pick_hot_cold(&live) {
                return Some(b);
            }
            if live.is_empty() {
                return None;
            }
            live.get(rng.gen_range(0..live.len() as u64) as usize)
                .copied()
        }
    }
}

/// The live backend with the fewest open connections (first on ties).
fn least_loaded<'a>(
    backends: impl Iterator<Item = &'a Endpoint>,
    ctx: &SelectCtx,
) -> Option<Endpoint> {
    backends
        .filter(|b| !ctx.dead.contains(b))
        .min_by_key(|b| ctx.loads.get(b).map_or(0, |l| (*l).max(0) as u32))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Addr;

    fn ep(d: u8) -> Endpoint {
        Endpoint::new(Addr::new(10, 1, 0, d), 80)
    }

    fn req(path: &str) -> HttpRequest {
        HttpRequest::get(path).with_header("Host", "mysite.test")
    }

    #[test]
    fn glob_basics() {
        assert!(glob_match("*.jpg", "/img/a.jpg"));
        assert!(!glob_match("*.jpg", "/img/a.css"));
        assert!(glob_match("/s?/x", "/s1/x"));
        assert!(!glob_match("/s?/x", "/s11/x"));
        assert!(glob_match("*", ""));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b*c", "aXXbYY"));
        assert!(glob_match("**", "anything"));
    }

    #[test]
    fn dsl_roundtrip() {
        let lines = [
            "name=r-jpg2 priority=3 match url=*.jpg action=split 10.1.0.2:80=0.5 10.1.0.3:80=0.5",
            "name=r-ll priority=1 match * action=leastload 10.1.0.2:80 10.1.0.3:80",
            "name=r-ck priority=0 match cookie=session action=sticky session 10.1.0.2:80",
            "name=r-hdr priority=2 match host=mysite.test header=Accept-Language:en-GB* action=split 10.1.0.4:80=1",
            "name=r-pq priority=1 match * action=prequal 10.1.0.2:80 10.1.0.3:80",
        ];
        for line in lines {
            let rule = Rule::parse(line).unwrap_or_else(|| panic!("parse {line}"));
            let reparsed = Rule::parse(&rule.to_string()).unwrap();
            assert_eq!(rule, reparsed, "{line}");
        }
        assert!(Rule::parse("garbage").is_none());
        assert!(Rule::parse("name=x priority=1 match url=* action=bogus").is_none());
    }

    #[test]
    fn weighted_split_ratio() {
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=r priority=1 match url=*.jpg action=split 10.1.0.2:80=1 10.1.0.3:80=3",
        )
        .unwrap()]);
        let ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        let mut counts = BTreeMap::new();
        for _ in 0..4000 {
            let pick = table.select(&req("/a.jpg"), &ctx, &mut rng).unwrap();
            *counts.entry(pick).or_insert(0) += 1;
        }
        let share3 = counts[&ep(3)] as f64 / 4000.0;
        assert!((share3 - 0.75).abs() < 0.05, "share {share3}");
        // Non-matching request selects nothing.
        assert!(table.select(&req("/a.css"), &ctx, &mut rng).is_none());
    }

    #[test]
    fn split_skips_dead_and_nonpositive_weights() {
        // Not all weights are negative, so this is a split, not the
        // least-loaded convention: the one positive weight is dead.
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=r priority=1 match * action=split 10.1.0.2:80=1 10.1.0.3:80=0 10.1.0.4:80=-1",
        )
        .unwrap()]);
        let mut ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(table.select(&req("/x"), &ctx, &mut rng), Some(ep(2)));
        ctx.dead.insert(ep(2));
        assert_eq!(table.select(&req("/x"), &ctx, &mut rng), None);
    }

    #[test]
    fn priority_order_wins() {
        let mut table = RuleTable::parse(
            "name=low priority=1 match url=*.css action=split 10.1.0.9:80=1\n\
             name=high priority=5 match url=*.css action=split 10.1.0.2:80=1",
        )
        .unwrap();
        let ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(table.select(&req("/a.css"), &ctx, &mut rng), Some(ep(2)));
    }

    #[test]
    fn primary_backup_fallthrough() {
        // Table 3 rules 2–3: primary at priority 3, backup at priority 2.
        let mut table = RuleTable::parse(
            "name=primary priority=3 match url=*.css action=split 10.1.0.1:80=1\n\
             name=backup priority=2 match url=*.css action=split 10.1.0.3:80=0.5 10.1.0.4:80=0.5",
        )
        .unwrap();
        let mut ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(table.select(&req("/a.css"), &ctx, &mut rng), Some(ep(1)));
        // Primary dies: scan falls through to the backup rule.
        ctx.dead.insert(ep(1));
        let pick = table.select(&req("/a.css"), &ctx, &mut rng).unwrap();
        assert!(pick == ep(3) || pick == ep(4));
    }

    #[test]
    fn least_loaded_picks_min() {
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=ll priority=1 match * action=leastload 10.1.0.2:80 10.1.0.3:80 10.1.0.4:80",
        )
        .unwrap()]);
        let mut ctx = SelectCtx::default();
        ctx.loads.insert(ep(2), 10);
        ctx.loads.insert(ep(3), 2);
        ctx.loads.insert(ep(4), 5);
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(table.select(&req("/x"), &ctx, &mut rng), Some(ep(3)));
        ctx.dead.insert(ep(3));
        assert_eq!(table.select(&req("/x"), &ctx, &mut rng), Some(ep(4)));
    }

    #[test]
    fn negative_weights_mean_least_loaded() {
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=r priority=1 match * action=split 10.1.0.2:80=-1 10.1.0.3:80=-1",
        )
        .unwrap()]);
        let mut ctx = SelectCtx::default();
        ctx.loads.insert(ep(2), 9);
        ctx.loads.insert(ep(3), 1);
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(table.select(&req("/x"), &ctx, &mut rng), Some(ep(3)));
    }

    #[test]
    fn sticky_sessions_stick() {
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=ck priority=1 match cookie=session action=sticky session 10.1.0.2:80 10.1.0.3:80 10.1.0.4:80",
        )
        .unwrap()]);
        let ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        let r1 = HttpRequest::get("/a").with_header("Cookie", "session=alice");
        let first = table.select(&r1, &ctx, &mut rng).unwrap();
        for _ in 0..10 {
            assert_eq!(table.select(&r1, &ctx, &mut rng), Some(first));
        }
        // A different session may land elsewhere, and a cookie-less
        // request does not match.
        let r3 = HttpRequest::get("/a");
        assert_eq!(table.select(&r3, &ctx, &mut rng), None);
    }

    #[test]
    fn sticky_remaps_on_death() {
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=ck priority=1 match cookie=session action=sticky session 10.1.0.2:80 10.1.0.3:80",
        )
        .unwrap()]);
        let mut ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        let r = HttpRequest::get("/a").with_header("Cookie", "session=bob");
        let first = table.select(&r, &ctx, &mut rng).unwrap();
        ctx.dead.insert(first);
        let second = table.select(&r, &ctx, &mut rng).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn insert_keeps_priority_order() {
        let mut table = RuleTable::new();
        table.insert(Rule::parse("name=a priority=1 match * action=split 10.1.0.2:80=1").unwrap());
        table.insert(Rule::parse("name=b priority=9 match * action=split 10.1.0.3:80=1").unwrap());
        table.insert(Rule::parse("name=c priority=5 match * action=split 10.1.0.4:80=1").unwrap());
        let prios: Vec<u32> = table.rules.iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![9, 5, 1]);
    }

    #[test]
    fn prequal_dsl_roundtrip() {
        let line = "name=pq priority=2 match url=*.jpg action=prequal 10.1.0.2:80 10.1.0.3:80";
        let rule = Rule::parse(line).expect("parses");
        assert!(matches!(&rule.action, Action::Prequal(bs) if bs.len() == 2));
        assert_eq!(rule.to_string(), line);
        let reparsed = Rule::parse(&rule.to_string()).expect("reparses");
        assert_eq!(rule, reparsed);
    }

    #[test]
    fn prequal_uses_pool_and_falls_back_to_random() {
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=pq priority=1 match * action=prequal 10.1.0.2:80 10.1.0.3:80 10.1.0.4:80",
        )
        .unwrap()]);
        assert_eq!(table.prequal_backends().len(), 3);
        let ctx = SelectCtx::default();
        let mut rng = Rng::seed_from_u64(1);
        // Empty pool: degrade to uniform random over live backends.
        let mut seen = BTreeSet::new();
        for _ in 0..50 {
            seen.insert(table.select(&req("/x"), &ctx, &mut rng).unwrap());
        }
        assert!(seen.len() > 1, "random fallback spreads load");
        // Feed probes: ep(3) is idle and fast, the rest are hot. The pool
        // must route to it (repeatedly, re-admitting as reuse evicts).
        for _ in 0..4 {
            table.on_probe(
                ep(2),
                Signal {
                    rif: 50,
                    latency_est: SimTime::from_millis(40),
                    last_probe: ctx.now,
                },
            );
            table.on_probe(
                ep(3),
                Signal {
                    rif: 0,
                    latency_est: SimTime::from_millis(1),
                    last_probe: ctx.now,
                },
            );
            table.on_probe(
                ep(4),
                Signal {
                    rif: 48,
                    latency_est: SimTime::from_millis(35),
                    last_probe: ctx.now,
                },
            );
            assert_eq!(table.select(&req("/x"), &ctx, &mut rng), Some(ep(3)));
        }
        assert!(table.pools.contains_key("pq"));
    }

    #[test]
    fn prequal_purge_backend_empties_pool() {
        let mut table = RuleTable::from_rules(vec![Rule::parse(
            "name=pq priority=1 match * action=prequal 10.1.0.2:80 10.1.0.3:80",
        )
        .unwrap()]);
        let sig = Signal {
            rif: 0,
            latency_est: SimTime::from_millis(1),
            last_probe: SimTime::ZERO,
        };
        table.on_probe(ep(2), sig);
        table.on_probe(ep(3), sig);
        assert_eq!(table.pools.get("pq").map(|p| p.len()), Some(2));
        table.purge_backend(ep(2));
        assert_eq!(table.pools.get("pq").map(|p| p.len()), Some(1));
        // A dead backend with a pooled entry is never selected.
        let mut ctx = SelectCtx::default();
        ctx.dead.insert(ep(3));
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(table.select(&req("/x"), &ctx, &mut rng), Some(ep(2)));
    }

    #[test]
    fn table_text_roundtrip() {
        let table = RuleTable::parse(
            "# comment line\n\
             name=a priority=3 match url=*.jpg action=split 10.1.0.2:80=1\n\
             \n\
             name=b priority=1 match * action=leastload 10.1.0.3:80",
        )
        .unwrap();
        let text = table.to_text();
        let reparsed = RuleTable::parse(&text).unwrap();
        assert_eq!(table.rules, reparsed.rules);
    }
}
