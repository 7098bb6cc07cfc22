//! The edge router: VIP anycast + ECMP to the mux pool.
//!
//! The [`EdgeRouter`] owns every VIP address (datacenter border router
//! announcing the VIP prefix). Each arriving VIP packet is ECMP-hashed on
//! its canonical connection key to one live mux, so **both directions of a
//! connection traverse the same mux** — which is where the mux's learned
//! flow table (and SNAT reverse mappings) live.
//!
//! Mux failure resilience (paper §9: "L4 LB has built-in resilience to
//! instance failures"): the controller updates the router's live mux set;
//! flows whose mux died re-hash to a survivor, whose flow table is cold —
//! the affected connections then re-steer by rendezvous hash, and Yoda
//! instances recover any that land somewhere new from TCPStore.

use yoda_netsim::{Addr, Ctx, Node, Packet, TimerToken, PROTO_CTRL};

use crate::ctrl::CtrlMsg;
use crate::Steering;

/// The datacenter edge router node.
pub struct EdgeRouter {
    addr: Addr,
    muxes: Steering,
    /// Packets relayed to muxes.
    pub relayed: u64,
    /// Packets dropped because no mux is configured.
    pub dropped: u64,
}

impl EdgeRouter {
    /// Creates a router bound to `addr` relaying to `muxes`.
    ///
    /// Callers must also register every VIP address on the router's node
    /// via [`Engine::add_addr`](yoda_netsim::Engine::add_addr).
    pub fn new(addr: Addr, muxes: Vec<Addr>) -> Self {
        EdgeRouter {
            addr,
            muxes: Steering::new(muxes),
            relayed: 0,
            dropped: 0,
        }
    }

    /// Replaces the live mux set (scenario scripting; the controller
    /// normally sends [`CtrlMsg::SetMuxes`]).
    pub fn set_muxes(&mut self, muxes: Vec<Addr>) {
        self.muxes.set(muxes);
    }

    /// The live mux set.
    pub fn muxes(&self) -> &[Addr] {
        self.muxes.candidates()
    }
}

impl Node for EdgeRouter {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.protocol == PROTO_CTRL {
            if let Some(CtrlMsg::SetMuxes { muxes }) = CtrlMsg::decode(&pkt.payload) {
                self.muxes.set(muxes);
            }
            return;
        }
        // ECMP on the canonical connection key: both directions pick the
        // same mux.
        match self.muxes.pick(pkt.src, pkt.dst) {
            Some(mux) => {
                self.relayed += 1;
                let outer = pkt.encapsulate(self.addr, mux);
                ctx.send(outer);
            }
            None => self.dropped += 1,
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: TimerToken) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous_pick;
    use bytes::Bytes;
    use yoda_netsim::{Endpoint, Engine, SimTime, Topology, Zone, PROTO_IPIP, PROTO_TCP};

    struct Sink {
        received: Vec<Packet>,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            self.received.push(pkt);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    /// Sends one packet on each of `count` flows, `waves` times 1 ms
    /// apart.
    struct Blast {
        vip: Addr,
        count: u16,
        waves: u64,
    }
    impl Node for Blast {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.on_timer(ctx, TimerToken::new(0));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _p: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: TimerToken) {
            for i in 0..self.count {
                let pkt = Packet::new(
                    Endpoint::new(Addr::new(172, 16, 0, 1), 1000 + i),
                    Endpoint::new(self.vip, 80),
                    PROTO_TCP,
                    Bytes::new(),
                );
                ctx.send(pkt);
            }
            self.waves -= 1;
            if self.waves > 0 {
                ctx.set_timer(SimTime::from_millis(1), t);
            }
        }
    }

    #[test]
    fn router_spreads_flows_across_muxes() {
        let mut eng = Engine::with_topology(2, Topology::uniform(SimTime::from_micros(100)));
        let vip = Addr::new(100, 0, 0, 1);
        let router_addr = Addr::new(10, 0, 3, 1);
        let mux_addrs: Vec<Addr> = (1..=3).map(|i| Addr::new(10, 0, 2, i)).collect();
        let router = eng.add_node(
            "router",
            router_addr,
            Zone::Dc,
            Box::new(EdgeRouter::new(router_addr, mux_addrs.clone())),
        );
        eng.add_addr(router, vip);
        let sink_ids: Vec<_> = mux_addrs
            .iter()
            .map(|&m| eng.add_node(format!("mux-{m}"), m, Zone::Dc, Box::new(Sink { received: vec![] })))
            .collect();
        eng.add_node(
            "blast",
            Addr::new(172, 16, 0, 1),
            Zone::Dc,
            Box::new(Blast { vip, count: 300, waves: 1 }),
        );
        eng.run_for(SimTime::from_millis(10));
        let counts: Vec<usize> = sink_ids
            .iter()
            .map(|&s| eng.node_ref::<Sink>(s).received.len())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 300);
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 50, "mux {i} got {c}");
        }
        // Relayed packets are encapsulated.
        let sample = &eng.node_ref::<Sink>(sink_ids[0]).received[0];
        assert_eq!(sample.protocol, PROTO_IPIP);
        assert_eq!(eng.node_ref::<EdgeRouter>(router).relayed, 300);
    }

    #[test]
    fn set_muxes_mid_stream_resteers_exactly_the_removed_muxs_flows() {
        // Four waves of the same 2,000 flows; between the second and the
        // third the controller's SetMuxes drops one mux. Waves one and
        // two warm the router's pick memo, so this fails if replacing the
        // list does not clear it: the removed mux would keep receiving.
        let mut eng = Engine::with_topology(2, Topology::uniform(SimTime::from_micros(100)));
        let vip = Addr::new(100, 0, 0, 1);
        let router_addr = Addr::new(10, 0, 3, 1);
        let all: Vec<Addr> = (1..=10).map(|i| Addr::new(10, 0, 2, i)).collect();
        let removed = all[4];
        let kept: Vec<Addr> = all.iter().copied().filter(|&m| m != removed).collect();
        let router = eng.add_node(
            "router",
            router_addr,
            Zone::Dc,
            Box::new(EdgeRouter::new(router_addr, all.clone())),
        );
        eng.add_addr(router, vip);
        let sinks: Vec<_> = all
            .iter()
            .map(|&m| eng.add_node(format!("mux-{m}"), m, Zone::Dc, Box::new(Sink { received: vec![] })))
            .collect();
        eng.add_node(
            "blast",
            Addr::new(172, 16, 0, 1),
            Zone::Dc,
            Box::new(Blast { vip, count: 2_000, waves: 4 }),
        );
        let ctrl = CtrlMsg::SetMuxes { muxes: kept.clone() }
            .into_packet(Endpoint::new(Addr::new(10, 0, 0, 1), crate::CTRL_PORT), router_addr);
        eng.schedule(SimTime::from_micros(1_500), move |eng| {
            eng.with_node_ctx::<EdgeRouter>(router, |r, ctx| r.on_packet(ctx, ctrl));
        });
        eng.run_for(SimTime::from_millis(10));

        // What each mux must have seen, flow by flow, from the pure
        // function: two packets under the old list, two under the new.
        let mut want = vec![0usize; all.len()];
        let (mut moved, mut stayed) = (0, 0);
        for i in 0..2_000u16 {
            let (a, b) = (Endpoint::new(Addr::new(172, 16, 0, 1), 1000 + i), Endpoint::new(vip, 80));
            let before = rendezvous_pick(a, b, &all).unwrap();
            let after = rendezvous_pick(a, b, &kept).unwrap();
            assert_eq!(before == removed, before != after, "only the removed mux's flows move");
            if before == removed { moved += 1 } else { stayed += 1 }
            want[all.iter().position(|&m| m == before).unwrap()] += 2;
            want[all.iter().position(|&m| m == after).unwrap()] += 2;
        }
        assert!(moved > 100 && stayed > 1_500, "{moved} moved, {stayed} stayed");
        let got: Vec<usize> = sinks.iter().map(|&s| eng.node_ref::<Sink>(s).received.len()).collect();
        assert_eq!(got, want);
        assert_eq!(got[4], 2 * moved, "nothing reaches the removed mux after SetMuxes");
    }

    #[test]
    fn both_directions_same_mux() {
        let muxes: Vec<Addr> = (1..=4).map(|i| Addr::new(10, 0, 2, i)).collect();
        let client = Endpoint::new(Addr::new(172, 16, 0, 1), 5555);
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        assert_eq!(
            rendezvous_pick(client, vip, &muxes),
            rendezvous_pick(vip, client, &muxes)
        );
    }

    #[test]
    fn no_muxes_drops() {
        let mut eng = Engine::with_topology(2, Topology::uniform(SimTime::from_micros(100)));
        let vip = Addr::new(100, 0, 0, 1);
        let router_addr = Addr::new(10, 0, 3, 1);
        let router = eng.add_node(
            "router",
            router_addr,
            Zone::Dc,
            Box::new(EdgeRouter::new(router_addr, vec![])),
        );
        eng.add_addr(router, vip);
        eng.add_node(
            "blast",
            Addr::new(172, 16, 0, 1),
            Zone::Dc,
            Box::new(Blast { vip, count: 5, waves: 1 }),
        );
        eng.run_for(SimTime::from_millis(10));
        assert_eq!(eng.node_ref::<EdgeRouter>(router).dropped, 5);
    }

    #[test]
    fn set_muxes_replaces_pool() {
        let mut r = EdgeRouter::new(Addr::new(10, 0, 3, 1), vec![Addr::new(10, 0, 2, 1)]);
        r.set_muxes(vec![Addr::new(10, 0, 2, 9)]);
        assert_eq!(r.muxes(), &[Addr::new(10, 0, 2, 9)]);
    }
}
