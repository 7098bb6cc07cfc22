//! The `golden` case: an engine with no protocol stack, whose event
//! sequence pins the engine itself.

use yoda_netsim::{
    Addr, Bytes, Ctx, Endpoint, Engine, Node, Packet, SimTime, TimerToken, Topology, Zone,
    PROTO_PING,
};

use super::{Case, Outcome};

/// Ring nodes in the fixture.
const RING: u32 = 8;

/// A node that exercises every event class the engine has: packets
/// (forwarded around a ring with RNG-chosen hops), timers (periodic
/// re-arm, same-tick collisions, and a cancelled one), and — driven from
/// [`run`] — control closures, node failure, and generation-bumping
/// restore.
struct Mixer {
    index: u32,
    hops_left: u32,
    fires: u32,
}

fn addr(index: u32) -> Addr {
    Addr::new(10, 9, 0, (index + 1) as u8)
}

impl Mixer {
    fn fresh(index: u32) -> Box<Mixer> {
        Box::new(Mixer {
            index,
            hops_left: 40,
            fires: 0,
        })
    }

    /// A ping to the node `offset` places on around the ring.
    fn ping(&self, offset: u32) -> Packet {
        let me = Endpoint::new(addr(self.index), 0);
        let peer = Endpoint::new(addr((self.index + offset) % RING), 0);
        Packet::new(me, peer, PROTO_PING, Bytes::new())
    }
}

impl Node for Mixer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.ping(1));
        // Two timers landing on the same microsecond tick, plus one
        // cancelled before it can fire.
        ctx.set_timer(SimTime::from_millis(3), TimerToken::new(1));
        ctx.set_timer(SimTime::from_millis(3), TimerToken::new(2));
        let id = ctx.set_timer(SimTime::from_millis(4), TimerToken::new(3));
        if self.index.is_multiple_of(2) {
            ctx.cancel_timer(id);
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: Packet) {
        if self.hops_left == 0 {
            return;
        }
        self.hops_left -= 1;
        let offset = 1 + (ctx.node_rng().gen_range(0..3) as u32);
        ctx.send(self.ping(offset));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        self.fires += 1;
        if token.kind == 1 && self.fires < 8 {
            ctx.set_timer(SimTime::from_millis(2), TimerToken::new(1));
            ctx.send(self.ping(2));
        }
    }
}

/// The ring run for 200 ms, with control events interleaved with its
/// traffic: a crash mid-run, a generation-bumping restore (stale timers
/// must be suppressed), and a scripted extra packet.
pub(super) fn run() -> Outcome {
    let mut eng = Engine::with_topology(99, Topology::uniform(SimTime::from_micros(700)));
    let ids: Vec<_> = (0..RING)
        .map(|i| eng.add_node(format!("mixer-{i}"), addr(i), Zone::Dc, Mixer::fresh(i)))
        .collect();
    if let Some(&victim) = ids.get(2) {
        eng.schedule(SimTime::from_millis(9), move |eng| eng.fail_node(victim));
        eng.schedule(SimTime::from_millis(14), move |eng| {
            eng.restore_node(victim, Mixer::fresh(2));
        });
        eng.schedule(SimTime::from_millis(21), move |eng| {
            eng.with_node_ctx::<Mixer>(victim, |node, ctx| ctx.send(node.ping(1)));
        });
    }
    eng.run_for(SimTime::from_millis(200));
    Outcome::at_end(Case::Golden, &eng)
}
