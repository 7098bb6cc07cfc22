//! The controller's decisions (§6, Figure 8), apart from the node that
//! carries them out. [`Fleet`] holds what the controller believes — each
//! member's role and [`Health`], the VIPs, the registered muxes and the
//! map version counter — and [`Fleet::handle`] turns one [`Event`] into
//! the messages and notes it causes, in send order. It never sees a
//! `Ctx`, a clock or a packet, so a test can drive it alone.

use std::collections::BTreeMap;

use yoda_l4lb::CtrlMsg;
use yoda_netsim::{Addr, Endpoint, Note, SimTime};

use crate::ctrl::InstanceCtrl::{self, BackendDown, BackendUp};

/// Extra delay between successive per-mux map updates (non-atomic
/// update model).
const MUX_STAGGER: SimTime = SimTime::from_millis(50);

/// What the monitor believes of a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Health {
    /// Answering promptly.
    Up,
    /// Suspected (slow or missing pongs), for an instance only: it leaves
    /// the new-flow maps but keeps carrying its flows and hearing backend
    /// verdicts.
    Derated,
    /// Declared dead. Still pinged, so it can recover.
    Failed,
    /// Taken out by the operator: never pinged or re-admitted again, even
    /// if it still answers.
    Removed,
}

impl Health {
    /// Not believed failed (or removed).
    pub fn alive(self) -> bool {
        matches!(self, Health::Up | Health::Derated)
    }
}

/// Where an instance stands in the VIP rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Rotation {
    /// In every assigned VIP's map.
    In,
    /// Pulled out (failed or derated) until re-admitted.
    Out,
    /// Registered idle; only the autoscaler puts it in.
    Spare,
}

/// What a monitored endpoint is, which decides how the controller reacts
/// to its failure and recovery (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Role {
    /// A Yoda instance.
    Instance(Rotation),
    /// A backend server: its death and return are told to the instances.
    Backend,
    /// A TCPStore server: the replicated client library copes on its own.
    Store,
    /// An L4 mux: its death and return reshape the ECMP set.
    Mux,
}

#[derive(Debug, Clone)]
struct Member {
    ep: Endpoint,
    role: Role,
    health: Health,
    /// For an instance believed failed: the backends whose `BackendUp`
    /// it missed. It may come back holding its old dead set (a healed
    /// partition), so it hears them when it recovers.
    missed_ups: Vec<Endpoint>,
}

#[derive(Debug, Clone)]
pub(super) struct Vip {
    pub(super) rules_text: String,
    /// The intended assignment. The map the muxes get is this list
    /// filtered to the instances in rotation.
    assigned: Vec<Addr>,
    ssl_cert_len: Option<u32>,
}

/// One input to [`Fleet::handle`]: a monitor verdict on member `i` (in
/// registration order) or an operator call.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Member `i` missed enough pings to be declared dead.
    Failed(usize),
    /// Member `i` answered after a death verdict, or answered fresh (it
    /// restarted holding no config) while believed provisioned.
    Recovered(usize),
    /// Member `i` answers slowly or missed pings, short of a death
    /// verdict.
    Derated(usize),
    /// Derated member `i` answers promptly again.
    Readmitted(usize),
    /// Add (or replace) a VIP: its rule text, its assignment and, for SSL
    /// termination, the certificate length.
    AddVip(Endpoint, String, Vec<Addr>, Option<u32>),
    /// Remove a VIP.
    RemoveVip(Endpoint),
    /// Replace a VIP's rule text.
    UpdatePolicy(Endpoint, String),
    /// Take a backend out for good.
    RemoveBackend(Endpoint),
    /// Activate up to this many spares.
    ActivateSpares(usize),
}

/// A message for a mux or the router, or for an instance.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// To a mux or the router.
    L4(CtrlMsg),
    /// To an instance.
    Instance(InstanceCtrl),
}

/// One output of [`Fleet::handle`].
#[derive(Debug, Clone, PartialEq)]
pub enum Out {
    /// Send a message to an address, a delay from now.
    Send(SimTime, Addr, Msg),
    /// A decision worth a trace note (and a counter).
    Note(Note),
}

/// The controller's beliefs and its one decision function.
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    pub(super) router: Option<Addr>,
    /// Every registered mux in registration order, failed ones included,
    /// so a recovered mux rejoins at its original position.
    pub(super) muxes: Vec<Addr>,
    /// Every monitored endpoint in registration order.
    members: Vec<Member>,
    pub(super) vips: BTreeMap<Endpoint, Vip>,
    /// The last map version sent.
    version: u64,
}

impl Fleet {
    pub(super) fn register(&mut self, ep: Endpoint, role: Role) {
        self.members.push(Member {
            ep,
            role,
            health: Health::Up,
            missed_ups: Vec::new(),
        });
    }

    /// Every member's endpoint, health and whether it is an instance (the
    /// only role that is derated), in registration order.
    pub fn members(&self) -> impl Iterator<Item = (Endpoint, Health, bool)> + '_ {
        let row = |m: &Member| (m.ep, m.health, matches!(m.role, Role::Instance(_)));
        self.members.iter().map(row)
    }

    /// Whether member `i` answering fresh means it lost config the
    /// controller believes it holds: an instance in some VIP's map, or a
    /// mux while any VIP exists.
    pub(super) fn provisioned(&self, i: usize) -> bool {
        let mapped = |m: &Member| !self.vips_of(Some(m.ep.addr)).is_empty();
        self.members.get(i).is_some_and(|m| match m.role {
            Role::Mux => !self.vips.is_empty(),
            role => role == Role::Instance(Rotation::In) && mapped(m),
        })
    }

    /// Instances in rotation, in registration order.
    pub fn active_instances(&self) -> Vec<Addr> {
        let active = |m: &Member| (m.role == Role::Instance(Rotation::In)).then_some(m.ep.addr);
        self.members.iter().filter_map(active).collect()
    }

    /// `vip`'s map: its assigned instances that are in rotation.
    pub(super) fn vip_instances(&self, vip: Endpoint) -> Vec<Addr> {
        let (active, state) = (self.active_instances(), self.vips.get(&vip));
        let assigned = state.into_iter().flat_map(|s| s.assigned.iter().copied());
        assigned.filter(|a| active.contains(a)).collect()
    }

    /// The VIPs assigned to `addr`, or every VIP.
    fn vips_of(&self, addr: Option<Addr>) -> Vec<Endpoint> {
        let of =
            |(v, s): (&Endpoint, &Vip)| addr.is_none_or(|a| s.assigned.contains(&a)).then_some(*v);
        self.vips.iter().filter_map(of).collect()
    }

    /// The live ECMP set: every registered mux not believed failed.
    fn live_muxes(&self) -> Vec<Addr> {
        let dead = |m: &Member| (m.role == Role::Mux && !m.health.alive()).then_some(m.ep.addr);
        let dead: Vec<Addr> = self.members.iter().filter_map(dead).collect();
        let mut live = self.muxes.clone();
        live.retain(|a| !dead.contains(a));
        live
    }

    /// Applies one event; returns what it sends and notes, in order.
    pub fn handle(&mut self, ev: Event) -> Vec<Out> {
        let mut out = Vec::new();
        match ev {
            Event::Failed(i) | Event::Recovered(i) | Event::Derated(i) | Event::Readmitted(i) => {
                self.judge(&mut out, &ev, i);
            }
            Event::AddVip(vip, rules_text, assigned, ssl_cert_len) => {
                let state = Vip {
                    rules_text,
                    assigned: assigned.clone(),
                    ssl_cert_len,
                };
                self.vips.insert(vip, state);
                for inst in assigned {
                    self.install(&mut out, vip, inst);
                }
                self.remap(&mut out, vip);
            }
            Event::RemoveVip(vip) => {
                let instances = self.vip_instances(vip);
                if self.vips.remove(&vip).is_some() {
                    let (addr, version) = (vip.addr, self.bump());
                    self.stagger(&mut out, CtrlMsg::RemoveVip { vip: addr, version });
                    for inst in instances {
                        send(&mut out, inst, InstanceCtrl::RemoveVip { vip });
                    }
                }
            }
            Event::UpdatePolicy(vip, rules_text) => {
                if let Some(state) = self.vips.get_mut(&vip) {
                    state.rules_text = rules_text;
                    for inst in self.vip_instances(vip) {
                        self.install(&mut out, vip, inst);
                    }
                }
            }
            Event::RemoveBackend(backend) => {
                self.verdict(&mut out, BackendDown { backend });
                if let Some(m) = self.members.iter_mut().find(|m| m.ep == backend) {
                    m.health = Health::Removed;
                }
            }
            Event::ActivateSpares(n) => self.activate_spares(&mut out, n),
        }
        out
    }

    /// A monitor verdict on member `i`: its new health, then what its
    /// role calls for (Figure 8).
    fn judge(&mut self, out: &mut Vec<Out>, ev: &Event, i: usize) {
        let Some(m) = self.members.get_mut(i) else {
            return;
        };
        let (ep, role, addr) = (m.ep, m.role, m.ep.addr);
        // A fresh answer (a recovery while not believed failed) changes
        // no health, and only an instance can be derated.
        m.health = match ev {
            Event::Failed(_) => Health::Failed,
            Event::Derated(_) if !matches!(role, Role::Instance(_)) => m.health,
            Event::Derated(_) => Health::Derated,
            Event::Recovered(_) if m.health != Health::Failed => m.health,
            _ => Health::Up,
        };
        match ev {
            Event::Failed(_) => out.push(Out::Note(Note::FailureDetected { member: ep })),
            Event::Recovered(_) => out.push(Out::Note(Note::RecoveryDetected { member: ep })),
            _ => {}
        }
        match (ev, role) {
            // A mux died: shrink the ECMP set at the router and every
            // instance's SNAT egress list. Flows pinned to the dead mux
            // re-hash; any that land on another instance recover via
            // TCPStore.
            (Event::Failed(_), Role::Mux) => self.announce_muxes(out, SimTime::ZERO),
            // A mux came back cold: every VIP map (version-bumped,
            // staggered as usual) before the router widens ECMP onto it,
            // or it would blackhole re-hashed flows.
            (Event::Recovered(_), Role::Mux) => {
                for vip in self.vips_of(None) {
                    self.remap(out, vip);
                }
                let settle = MUX_STAGGER * self.live_muxes().len() as u64;
                self.announce_muxes(out, settle);
            }
            // An instance in rotation died or looks slow: out of every
            // VIP map, so the muxes steer its new flows to the survivors
            // (§4.2); its existing flows stay pinned by the mux tables.
            (Event::Failed(_), Role::Instance(Rotation::In)) => self.pull(out, addr),
            (Event::Derated(_), Role::Instance(Rotation::In)) => {
                out.push(Out::Note(Note::Derated { instance: addr }));
                self.pull(out, addr);
            }
            // An instance back may have restarted empty. One no VIP takes
            // back (a spare, or one never assigned) still hears every
            // backend down: the autoscaler may put it in later.
            (Event::Recovered(_), Role::Instance(r)) => {
                let readmitted = r != Rotation::Spare && self.readmit(out, addr, true);
                if !readmitted {
                    self.tell_dead(out, addr);
                }
            }
            // A derate lifted: the instance stayed alive and heard every
            // backend verdict, so it gets no dead set.
            (Event::Readmitted(_), Role::Instance(Rotation::Out)) => {
                let readmitted = self.readmit(out, addr, false);
                if readmitted {
                    out.push(Out::Note(Note::Readmitted { instance: addr }));
                }
            }
            // A backend died or came back: the instances cut its flows
            // (§5.2), or may balance onto it again.
            (Event::Failed(_), Role::Backend) => self.verdict(out, BackendDown { backend: ep }),
            (Event::Recovered(_), Role::Backend) => self.verdict(out, BackendUp { backend: ep }),
            // A store needs nothing: the replicated client library falls
            // back to the surviving replicas and reaches it again (§6).
            _ => {}
        }
    }

    fn bump(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    /// Sets the rotation of the instance at `addr`.
    fn rotate(&mut self, addr: Addr, to: Rotation) {
        let instance = |m: &&mut Member| m.ep.addr == addr && matches!(m.role, Role::Instance(_));
        if let Some(m) = self.members.iter_mut().find(instance) {
            m.role = Role::Instance(to);
        }
    }

    /// Sends `vip`'s rules to `inst`.
    fn install(&self, out: &mut Vec<Out>, vip: Endpoint, inst: Addr) {
        if let Some(state) = self.vips.get(&vip) {
            let msg = InstanceCtrl::InstallVip {
                vip,
                rules_text: state.rules_text.clone(),
                ssl_cert_len: state.ssl_cert_len,
            };
            send(out, inst, msg);
        }
    }

    /// Bumps the version and sends `vip`'s map to every live mux.
    fn remap(&mut self, out: &mut Vec<Out>, vip: Endpoint) {
        let (vip, instances, version) = (vip.addr, self.vip_instances(vip), self.bump());
        let msg = CtrlMsg::SetVipMap {
            vip,
            instances,
            version,
        };
        self.stagger(out, msg);
    }

    /// Sends `msg` to every live mux, each a stagger later than the
    /// previous one (the non-atomic update §4.5's transient constraint
    /// exists for).
    fn stagger(&self, out: &mut Vec<Out>, msg: CtrlMsg) {
        for (i, mux) in self.live_muxes().into_iter().enumerate() {
            out.push(Out::Send(MUX_STAGGER * i as u64, mux, Msg::L4(msg.clone())));
        }
    }

    /// Sends the live mux set, `delay` from now, to the router and to
    /// every registered instance (spares and failed ones included: SNAT
    /// egress lists).
    fn announce_muxes(&self, out: &mut Vec<Out>, delay: SimTime) {
        let muxes = self.live_muxes();
        let to_l4 = |muxes: Vec<Addr>| Msg::L4(CtrlMsg::SetMuxes { muxes });
        let to_instance = |muxes: Vec<Addr>| Msg::Instance(InstanceCtrl::SetMuxes { muxes });
        if let Some(router) = self.router {
            out.push(Out::Send(delay, router, to_l4(muxes.clone())));
        }
        for m in &self.members {
            if let Role::Instance(_) = m.role {
                out.push(Out::Send(delay, m.ep.addr, to_instance(muxes.clone())));
            }
        }
    }

    /// Sends a backend verdict to every instance not believed failed: a
    /// derated instance still carries flows, and a spare must know the
    /// dead set before the autoscaler puts it in rotation. An instance
    /// believed failed keeps a `BackendUp` it misses for its recovery.
    fn verdict(&mut self, out: &mut Vec<Out>, msg: InstanceCtrl) {
        for m in &mut self.members {
            if !matches!(m.role, Role::Instance(_)) {
                continue;
            }
            match msg {
                _ if m.health.alive() => send(out, m.ep.addr, msg.clone()),
                BackendUp { backend } if !m.missed_ups.contains(&backend) => {
                    m.missed_ups.push(backend);
                }
                _ => {}
            }
        }
    }

    /// Sends a recovered `inst` what it may lack: a `BackendUp` for each
    /// backend that came back while it was believed failed and is still
    /// up (it may have kept its dead set), then a `BackendDown` for every
    /// backend believed dead (it may have restarted empty).
    fn tell_dead(&mut self, out: &mut Vec<Out>, inst: Addr) {
        let instance = |m: &&mut Member| m.ep.addr == inst && matches!(m.role, Role::Instance(_));
        let missed = match self.members.iter_mut().find(instance) {
            Some(m) => std::mem::take(&mut m.missed_ups),
            None => Vec::new(),
        };
        for backend in missed {
            let up = |m: &Member| m.ep == backend && m.role == Role::Backend && m.health.alive();
            if self.members.iter().any(up) {
                send(out, inst, BackendUp { backend });
            }
        }
        for m in &self.members {
            if m.role == Role::Backend && m.health == Health::Failed {
                send(out, inst, BackendDown { backend: m.ep });
            }
        }
    }

    /// Pulls an instance out of every VIP map.
    fn pull(&mut self, out: &mut Vec<Out>, addr: Addr) {
        self.rotate(addr, Rotation::Out);
        for vip in self.vips_of(Some(addr)) {
            self.remap(out, vip);
        }
    }

    /// Puts an instance back in rotation: the current mux set, then (if
    /// it may have restarted, so lost its dead set) every backend still
    /// down, then the rules and maps of each VIP assigned to it. Returns
    /// false, sending nothing, for an instance no VIP assigns.
    fn readmit(&mut self, out: &mut Vec<Out>, addr: Addr, restarted: bool) -> bool {
        let vips = self.vips_of(Some(addr));
        if vips.is_empty() {
            return false;
        }
        self.rotate(addr, Rotation::In);
        let muxes = self.live_muxes();
        send(out, addr, InstanceCtrl::SetMuxes { muxes });
        if restarted {
            self.tell_dead(out, addr);
        }
        for vip in vips {
            self.install(out, vip, addr);
            self.remap(out, vip);
        }
        true
    }

    /// Activates up to `n` spares, most recently registered first: every
    /// VIP's rules, then the spare added to its maps.
    fn activate_spares(&mut self, out: &mut Vec<Out>, n: usize) {
        for _ in 0..n {
            let spare = |m: &&mut Member| m.role == Role::Instance(Rotation::Spare);
            let Some(m) = self.members.iter_mut().rev().find(spare) else {
                break;
            };
            m.role = Role::Instance(Rotation::In);
            let instance = m.ep.addr;
            for vip in self.vips_of(None) {
                self.install(out, vip, instance);
                let unassigned = |s: &&mut Vip| !s.assigned.contains(&instance);
                if let Some(state) = self.vips.get_mut(&vip).filter(unassigned) {
                    state.assigned.push(instance);
                }
                self.remap(out, vip);
            }
            out.push(Out::Note(Note::SpareActivated { instance }));
        }
    }
}

/// Queues `msg` for the instance at `to`, to leave now.
fn send(out: &mut Vec<Out>, to: Addr, msg: InstanceCtrl) {
    out.push(Out::Send(SimTime::ZERO, to, Msg::Instance(msg)));
}
