//! The controller's monitor against scripted members (paper §6): each
//! member is a [`Ponger`] that answers pings as told — dropping some,
//! answering late, or going silent — and keeps the backend verdicts the
//! controller sends it. Covers the miss threshold, the derate by
//! latency, administrative removal, a backend on a port other than 80,
//! the down set a recovered instance is re-told, and who hears a verdict.

use yoda::core::InstanceCtrl;
use yoda::core::{Controller, ControllerConfig};
use yoda::netsim::{
    Addr, Bytes, Ctx, Endpoint, Engine, Node, NodeId, Packet, SimTime, Topology, Zone, PROTO_PING,
};

const CTRL: Addr = Addr::new(10, 0, 4, 1);
const INST: Addr = Addr::new(10, 0, 0, 1);

/// Answers pings, dropping the first `drop_first` and delaying each
/// answer by `delay` (`fast_after`: answers promptly from that ping
/// count on). Silent forever when `dead` is set. Keeps the backend
/// up/down verdicts the controller sends it.
struct Ponger {
    seen: u32,
    drop_first: u32,
    dead: bool,
    delay: SimTime,
    fast_after: Option<u32>,
    /// Answers with the freshness byte set: holds no config.
    fresh: bool,
    verdicts: Vec<InstanceCtrl>,
}

impl Node for Ponger {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.protocol != PROTO_PING {
            if let Some(m @ (InstanceCtrl::BackendDown { .. } | InstanceCtrl::BackendUp { .. })) =
                pkt.message().and_then(InstanceCtrl::decode)
            {
                self.verdicts.push(m);
            }
            return;
        }
        self.seen += 1;
        if self.dead || self.seen <= self.drop_first {
            return;
        }
        let delay = match self.fast_after {
            Some(n) if self.seen > n => SimTime::ZERO,
            _ => self.delay,
        };
        let body = Bytes::copy_from_slice(&[u8::from(self.fresh)]);
        let reply = Packet::new(pkt.dst, pkt.src, PROTO_PING, body);
        ctx.send_after(delay, reply);
    }
}

fn ponger(drop_first: u32, dead: bool, delay: SimTime, fast_after: Option<u32>) -> Box<Ponger> {
    Box::new(Ponger {
        seen: 0,
        drop_first,
        dead,
        delay,
        fast_after,
        fresh: false,
        verdicts: Vec::new(),
    })
}

fn healthy() -> Box<Ponger> {
    ponger(0, false, SimTime::ZERO, None)
}

fn engine() -> Engine {
    Engine::with_topology(3, Topology::uniform(SimTime::from_micros(250)))
}

/// Adds `c`, with one instance at [`INST`] answered by `inst`, and
/// returns the controller and instance node ids.
fn with_instance(eng: &mut Engine, mut c: Controller, inst: Box<Ponger>) -> (NodeId, NodeId) {
    c.register_instance(INST);
    let cid = eng.add_node("ctrl", CTRL, Zone::Dc, Box::new(c));
    (cid, eng.add_node("inst", INST, Zone::Dc, inst))
}

fn controller() -> Controller {
    Controller::new(ControllerConfig::default(), CTRL)
}

#[test]
fn single_missed_ping_does_not_kill() {
    // Regression: the monitor used to declare death after ONE missed
    // 600 ms ping, so a single gray packet drop killed a healthy
    // instance.
    let mut eng = engine();
    let (cid, _) = with_instance(
        &mut eng,
        controller(),
        ponger(1, false, SimTime::ZERO, None),
    );
    eng.run_for(SimTime::from_secs(6));
    let c = eng.node_ref::<Controller>(cid);
    assert_eq!(
        c.failure_times.len(),
        0,
        "one lost pong killed a healthy instance"
    );
    assert_eq!(c.derates, 0);
}

#[test]
fn sustained_silence_kills_after_miss_threshold() {
    let mut eng = engine();
    let (cid, _) = with_instance(&mut eng, controller(), ponger(0, true, SimTime::ZERO, None));
    eng.run_for(SimTime::from_secs(6));
    let c = eng.node_ref::<Controller>(cid);
    assert_eq!(c.failure_times.len(), 1);
    // Death takes miss_threshold consecutive cycles, not one: first
    // ping at 600 ms, third miss counted at 2400 ms.
    let (t, _) = c.failure_times[0];
    assert!(
        t > SimTime::from_millis(1800) && t <= SimTime::from_millis(3000),
        "detected at {t}"
    );
    // The miss-based suspicion level fired on the way down.
    assert_eq!(c.derates, 1);
}

#[test]
fn slow_instance_is_derated_then_readmitted() {
    let mut eng = engine();
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    // Pongs arrive, but 30 ms late (browning node) for the first 4
    // pings; prompt afterwards.
    let slow = ponger(0, false, SimTime::from_millis(30), Some(4));
    let (cid, _) = with_instance(&mut eng, controller(), slow);
    eng.with_node_ctx::<Controller>(cid, |c, ctx| {
        c.add_vip(ctx, vip, "default pool=a", vec![INST]);
    });
    eng.run_for(SimTime::from_secs(2));
    {
        let c = eng.node_ref::<Controller>(cid);
        assert!(c.derates >= 1, "slow pongs should derate");
        assert!(c.is_derated(INST));
        assert!(
            c.vip_instances(vip).is_empty(),
            "derated instance still mapped"
        );
        assert_eq!(c.failure_times.len(), 0, "slowness is not death");
    }
    eng.run_for(SimTime::from_secs(10));
    let c = eng.node_ref::<Controller>(cid);
    assert!(
        c.underates >= 1,
        "healthy-again instance should be re-admitted"
    );
    assert!(!c.is_derated(INST));
    assert_eq!(c.vip_instances(vip), vec![INST]);
    assert_eq!(c.failure_times.len(), 0);
}

#[test]
fn removed_backend_is_down_for_good() {
    // §5.2 administrative removal: every instance hears BackendDown,
    // the backend is never pinged again, and a pong from it — it is
    // healthy, the operator just took it out — does not re-admit it.
    let mut eng = engine();
    let backend = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let mut c = controller();
    c.register_backend(backend);
    let (cid, iid) = with_instance(&mut eng, c, healthy());
    let bid = eng.add_node("backend", backend.addr, Zone::Dc, healthy());
    // Pings leave at 600 ms and 1200 ms; the removal lands while the
    // second one is on the wire, so its pong reaches a controller that
    // already holds the backend as removed.
    eng.schedule(SimTime::from_micros(1_200_100), move |eng| {
        eng.with_node_ctx::<Controller>(cid, |c, ctx| c.remove_backend(ctx, backend));
    });
    eng.run_for(SimTime::from_secs(6));
    assert_eq!(
        eng.node_ref::<Ponger>(iid).verdicts,
        vec![InstanceCtrl::BackendDown { backend }],
        "one BackendDown, and no BackendUp after the late pong"
    );
    assert_eq!(eng.node_ref::<Ponger>(bid).seen, 2, "pinged after removal");
    let c = eng.node_ref::<Controller>(cid);
    assert_eq!((c.failure_times.len(), c.recoveries_detected), (0, 0));
}

/// A controller with one healthy instance and one backend on port 8080
/// — not the port the backends of the testbeds listen on — answered by
/// `backend`. Returns the engine, the controller and instance node ids,
/// and the backend.
fn backend_8080_rig(backend: Box<Ponger>) -> (Engine, NodeId, NodeId, Endpoint) {
    let mut eng = engine();
    let bep = Endpoint::new(Addr::new(10, 1, 0, 1), 8080);
    let mut c = controller();
    c.register_backend(bep);
    let (cid, iid) = with_instance(&mut eng, c, healthy());
    eng.add_node("backend", bep.addr, Zone::Dc, backend);
    (eng, cid, iid, bep)
}

#[test]
fn backend_on_any_port_is_declared_down() {
    let (mut eng, cid, iid, backend) = backend_8080_rig(ponger(0, true, SimTime::ZERO, None));
    eng.run_for(SimTime::from_secs(6));
    assert_eq!(eng.node_ref::<Controller>(cid).failure_times.len(), 1);
    assert_eq!(
        eng.node_ref::<Ponger>(iid).verdicts,
        vec![InstanceCtrl::BackendDown { backend }]
    );
}

#[test]
fn backend_on_any_port_is_declared_up_again() {
    // Pings 1–4 (0.6–2.4 s) go unanswered: the third miss, counted at
    // 2.4 s, is the death verdict; the pong to ping 5 is the return.
    let (mut eng, cid, iid, backend) = backend_8080_rig(ponger(4, false, SimTime::ZERO, None));
    eng.run_for(SimTime::from_secs(6));
    assert_eq!(eng.node_ref::<Controller>(cid).recoveries_detected, 1);
    assert_eq!(
        eng.node_ref::<Ponger>(iid).verdicts,
        vec![
            InstanceCtrl::BackendDown { backend },
            InstanceCtrl::BackendUp { backend }
        ]
    );
}

#[test]
fn readmitted_instance_hears_of_a_backend_still_down() {
    // The backend dies for good (declared at 2.4 s while the instance
    // serves); the instance goes silent from 2.5 s to 4.5 s, is
    // declared dead at 4.8 s and answers that same ping. It may have
    // restarted with an empty dead-backend set, so it hears the verdict
    // again.
    let (mut eng, cid, iid, backend) = backend_8080_rig(ponger(0, true, SimTime::ZERO, None));
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    eng.with_node_ctx::<Controller>(cid, |c, ctx| {
        c.add_vip(ctx, vip, "default pool=a", vec![INST]);
    });
    eng.schedule(SimTime::from_millis(2500), move |eng| {
        eng.node_mut::<Ponger>(iid).dead = true
    });
    eng.schedule(SimTime::from_millis(4500), move |eng| {
        eng.node_mut::<Ponger>(iid).dead = false
    });
    eng.run_for(SimTime::from_secs(6));
    let c = eng.node_ref::<Controller>(cid);
    assert_eq!((c.failure_times.len(), c.recoveries_detected), (2, 1));
    assert_eq!(c.vip_instances(vip), vec![INST]);
    let down = InstanceCtrl::BackendDown { backend };
    assert_eq!(
        eng.node_ref::<Ponger>(iid).verdicts,
        vec![down.clone(), down]
    );
}

#[test]
fn a_derated_instance_and_a_spare_hear_both_verdicts() {
    // The instance answers every ping 30 ms late, so it is derated from
    // its first pong on and never re-admitted. It is alive and carries
    // flows, so it must cut those to a dead backend (§5.2) and must
    // learn when the backend is back, or it keeps it dead for good. The
    // spare must hold the same dead set when the autoscaler activates it.
    let (mut eng, cid, iid, backend) = backend_8080_rig(ponger(4, false, SimTime::ZERO, None));
    let spare = Addr::new(10, 0, 0, 2);
    let sid = eng.add_node("spare", spare, Zone::Dc, healthy());
    eng.node_mut::<Ponger>(iid).delay = SimTime::from_millis(30);
    eng.node_mut::<Controller>(cid).register_spare(spare);
    eng.run_for(SimTime::from_secs(6));
    let c = eng.node_ref::<Controller>(cid);
    assert!(c.is_derated(INST));
    assert_eq!((c.failure_times.len(), c.recoveries_detected), (1, 1));
    let both = vec![
        InstanceCtrl::BackendDown { backend },
        InstanceCtrl::BackendUp { backend },
    ];
    assert_eq!(eng.node_ref::<Ponger>(iid).verdicts, both, "derated");
    assert_eq!(eng.node_ref::<Ponger>(sid).verdicts, both, "spare");
}

#[test]
fn a_mux_back_from_two_misses_is_reprovisioned_on_its_first_fresh_pong() {
    // The mux misses the pings at 0.6 s and 1.2 s (two misses, short of
    // death) and answers the one at 1.8 s holding no VIP maps: it
    // restarted cold. Only an instance is derated, so that first pong
    // is a recovery and the maps go out at once, not a cycle later.
    let mut eng = engine();
    let (mux, router) = (Addr::new(10, 0, 2, 1), Addr::new(10, 0, 3, 1));
    let mut c = controller();
    c.set_l4(router, vec![mux]);
    c.monitor_muxes();
    let (cid, _) = with_instance(&mut eng, c, healthy());
    let mid = eng.add_node("mux", mux, Zone::Dc, ponger(2, false, SimTime::ZERO, None));
    eng.node_mut::<Ponger>(mid).fresh = true;
    let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
    eng.with_node_ctx::<Controller>(cid, |c, ctx| {
        c.add_vip(ctx, vip, "default pool=a", vec![INST]);
    });
    eng.run_for(SimTime::from_millis(2_000));
    let c = eng.node_ref::<Controller>(cid);
    assert!(!c.is_derated(mux));
    assert_eq!((c.failure_times.len(), c.recoveries_detected), (0, 1));
}
