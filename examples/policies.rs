//! Policy showcase: the paper's Table 3 rule patterns in the rule DSL.
//!
//! Demonstrates weighted-split, primary-backup (via priorities),
//! sticky-sessions (cookie table), and least-loaded selection — all
//! evaluated by the same linear-scan engine a Yoda instance runs.
//!
//! Run with:
//! ```text
//! cargo run --release --example policies
//! ```

use std::collections::BTreeMap;

use yoda::core::{RuleTable, SelectCtx};
use yoda::http::HttpRequest;
use yoda::netsim::{Addr, Endpoint};
use yoda_netsim::Rng;

fn main() {
    // The paper's Table 3, expressed in this crate's DSL. D1..D4 are
    // backend pools.
    let text = "\
name=r-jpg2   priority=3 match url=*.jpg   action=split 10.1.0.2:80=0.5 10.1.0.3:80=0.5
name=r-css1   priority=3 match url=*.css   action=split 10.1.0.1:80=1
name=r-css2   priority=2 match url=*.css   action=split 10.1.0.3:80=0.5 10.1.0.4:80=0.5
name=r-cookie priority=0 match cookie=session action=sticky session 10.1.0.1:80 10.1.0.2:80 10.1.0.3:80
name=r-rest   priority=0 match *           action=leastload 10.1.0.1:80 10.1.0.2:80 10.1.0.3:80 10.1.0.4:80";
    let mut table = RuleTable::parse(text).expect("valid DSL");
    println!("installed {} rules:\n{}\n", table.len(), table.to_text());

    let mut ctx = SelectCtx::default();
    let mut rng = Rng::seed_from_u64(3);

    // 1. Weighted split: *.jpg goes 50/50 to D2/D3.
    let mut counts: BTreeMap<Endpoint, u32> = BTreeMap::new();
    for _ in 0..1000 {
        let pick = table
            .select(&HttpRequest::get("/img/cat.jpg"), &ctx, &mut rng)
            .expect("matches");
        *counts.entry(pick).or_default() += 1;
    }
    println!("weighted-split for *.jpg over 1000 requests: {counts:?}");

    // 2. Primary-backup: *.css prefers D1; when D1 dies the scan falls
    //    through to the lower-priority backup rule.
    let css = HttpRequest::get("/styles/site.css");
    let primary = table.select(&css, &ctx, &mut rng).expect("matches");
    println!("\nprimary-backup: css -> {primary} (primary)");
    ctx.dead.insert(Endpoint::new(Addr::new(10, 1, 0, 1), 80));
    let backup = table.select(&css, &ctx, &mut rng).expect("matches");
    println!("after D1 fails:  css -> {backup} (backup pool)");
    ctx.dead.clear();

    // 3. Sticky sessions: the same cookie always lands on the same server.
    let alice = HttpRequest::get("/inbox").with_header("Cookie", "session=alice");
    let first = table.select(&alice, &ctx, &mut rng).expect("matches");
    let again = table.select(&alice, &ctx, &mut rng).expect("matches");
    println!("\nsticky: session=alice -> {first}, then {again} (same)");
    assert_eq!(first, again);

    // 4. Least-loaded: everything else goes to the emptiest backend.
    ctx.loads
        .insert(Endpoint::new(Addr::new(10, 1, 0, 1), 80), 12);
    ctx.loads
        .insert(Endpoint::new(Addr::new(10, 1, 0, 2), 80), 3);
    ctx.loads
        .insert(Endpoint::new(Addr::new(10, 1, 0, 3), 80), 9);
    ctx.loads
        .insert(Endpoint::new(Addr::new(10, 1, 0, 4), 80), 5);
    let pick = table
        .select(&HttpRequest::get("/api/data"), &ctx, &mut rng)
        .expect("matches");
    println!("\nleast-loaded: /api/data -> {pick} (load 3)");
}
