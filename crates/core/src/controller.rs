//! The Yoda controller (paper §6, Figure 8).
//!
//! Four components, as in the paper:
//!
//! * **User interface** — converts operator policies (rule DSL) into rule
//!   installs on the instances serving each VIP.
//! * **Assignment engine** — computes VIP→instance assignment. The
//!   testbed experiments pass explicit assignments to
//!   [`Controller::add_vip`]; the controller computes none itself.
//! * **Assignment updater** — pushes VIP→instance mappings to the L4
//!   muxes. Updates are sent per mux with a stagger, reproducing the
//!   non-atomicity that §4.5's transient constraint exists for.
//! * **Monitor** — "gathers health information by pinging the YODA
//!   instances, Memcached servers, and backend servers every 600ms, and
//!   hence detects failure with at most 600ms delay." Every monitored
//!   endpoint is one [`Member`] carrying its [`Role`]; failure and
//!   recovery dispatch on that role.
//!
//! The controller also implements the Figure 13 autoscaler: when the mean
//! instance CPU crosses a threshold it activates spare instances, installs
//! the VIP rules on them, and adds them to the mux mappings — without
//! breaking existing flows (they stay pinned by mux flow tables, and any
//! that move recover via TCPStore).

use std::collections::BTreeMap;

use bytes::Bytes;
use yoda_l4lb::CtrlMsg;
use yoda_netsim::{
    Addr, Ctx, Endpoint, Node, Note, Packet, SimTime, TimerToken, PROTO_CTRL, PROTO_PING,
};

use crate::ctrl::{InstanceCtrl, CTRL_PORT};

const PING_KIND: u32 = 0xC7_01;
const STATS_KIND: u32 = 0xC7_02;

/// Health-ping period (paper: 600 ms).
const PING_INTERVAL: SimTime = SimTime::from_millis(600);
/// Consecutive missed pings before an endpoint is declared dead.
/// The paper declares death after a single 600 ms miss; one gray
/// packet drop then kills a healthy node, so this demands 3.
const MISS_THRESHOLD: u32 = 3;
/// Consecutive missed pings before an *instance* is derated —
/// removed from new-flow VIP maps while monitoring continues. Below
/// `MISS_THRESHOLD`, so it acts as an early suspicion level.
const DERATE_MISSES: u32 = 2;
/// Pong-RTT EWMA above which an instance is derated (suspicion by
/// slowness, not just silence: a browning node answers pings late).
const SUSPECT_LATENCY: SimTime = SimTime::from_millis(10);
/// Stats-poll period.
const STATS_INTERVAL: SimTime = SimTime::from_secs(1);
/// Extra delay between successive per-mux map updates (non-atomic
/// update model).
const MUX_STAGGER: SimTime = SimTime::from_millis(50);
/// Autoscaler (Figure 13): the mean instance CPU above which it adds
/// instances.
const HIGH_CPU: f64 = 0.70;
/// Autoscaler: the mean CPU it sizes the grown fleet for.
const TARGET_CPU: f64 = 0.55;

/// Controller settings. Only whether the autoscaler runs has a second
/// value in use (fig13); its thresholds and the monitor's periods are
/// constants above.
#[derive(Debug, Clone, Default)]
pub struct ControllerConfig {
    /// Run the autoscaler.
    pub autoscale: bool,
}

/// What a monitored endpoint is, which decides how the controller reacts
/// to its failure and recovery (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A Yoda instance. `serving`: in the VIP rotation (not failed,
    /// derated or idle). `spare`: registered idle and not yet activated
    /// by the autoscaler.
    Instance { serving: bool, spare: bool },
    /// A backend server: its death and return are told to the instances.
    Backend,
    /// A TCPStore server: the replicated client library copes on its own.
    Store,
    /// An L4 mux: its death and return reshape the ECMP set.
    Mux,
}

/// One monitored endpoint, in registration order.
#[derive(Debug, Clone)]
struct Member {
    ep: Endpoint,
    role: Role,
    awaiting: bool,
    failed: bool,
    /// Administratively removed: never pinged again and never considered
    /// recovered, even if the endpoint still answers (it may be alive —
    /// removal is an operator decision, not a health verdict).
    removed: bool,
    /// Consecutive ping cycles with no pong (reset by any pong).
    misses: u32,
    /// When the most recent ping was sent (for pong RTT).
    ping_sent: SimTime,
    /// Pong-RTT EWMA; `ZERO` until the first sample.
    ewma: SimTime,
    /// Suspected (derated): pulled from new-flow VIP maps but still
    /// monitored — an early, reversible level below `failed`.
    derated: bool,
}

impl Member {
    fn new(ep: Endpoint, role: Role) -> Self {
        Member {
            ep,
            role,
            awaiting: false,
            failed: false,
            removed: false,
            misses: 0,
            ping_sent: SimTime::ZERO,
            ewma: SimTime::ZERO,
            derated: false,
        }
    }

    fn is_serving(&self) -> bool {
        matches!(self.role, Role::Instance { serving: true, .. })
    }
}

#[derive(Debug, Clone)]
struct VipState {
    rules_text: String,
    /// Instances currently serving the VIP (failed ones removed).
    instances: Vec<Addr>,
    /// The intended assignment, failures included — the set a recovered
    /// instance is re-admitted against.
    assigned: Vec<Addr>,
    version: u64,
    ssl_cert_len: Option<u32>,
}

/// One CPU/utilisation sample from the stats poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// When the sample was taken.
    pub time: SimTime,
    /// Mean CPU across active instances (0..1).
    pub mean_cpu: f64,
    /// Number of active instances at that time.
    pub active_instances: usize,
    /// Total requests/sec across instances since the previous poll.
    pub request_rate: f64,
}

/// The controller node.
pub struct Controller {
    addr: Addr,
    cfg: ControllerConfig,
    /// Every registered mux in registration order, failed ones included;
    /// the live ECMP set is this list minus the mux members marked
    /// failed, so a recovered mux rejoins at its original (deterministic)
    /// position.
    all_muxes: Vec<Addr>,
    router: Option<Addr>,
    /// Every monitored endpoint in registration order (pings and
    /// broadcasts walk it in this order).
    members: Vec<Member>,
    vips: BTreeMap<Endpoint, VipState>,
    next_version: u64,
    next_stats_seq: u64,
    cpu_replies: BTreeMap<u64, Vec<(Addr, f64, u64)>>,
    last_stats_at: SimTime,
    /// Failures detected by the monitor.
    pub failures_detected: u64,
    /// Recoveries detected by the monitor (a previously failed endpoint
    /// answering pings again).
    pub recoveries_detected: u64,
    /// Instances derated on suspicion (slow or missing pongs) before any
    /// death verdict.
    pub derates: u64,
    /// Derated instances re-admitted after looking healthy again.
    pub underates: u64,
    /// Instances activated by the autoscaler.
    pub instances_added: u64,
    /// CPU/request-rate samples over time (Figure 13's series).
    pub cpu_history: Vec<CpuSample>,
    /// Time each failure was detected, for recovery-latency accounting.
    pub failure_times: Vec<(SimTime, Endpoint)>,
}

impl Controller {
    /// Creates a controller bound to `addr`.
    pub fn new(cfg: ControllerConfig, addr: Addr) -> Self {
        Controller {
            addr,
            cfg,
            all_muxes: Vec::new(),
            router: None,
            members: Vec::new(),
            vips: BTreeMap::new(),
            next_version: 1,
            next_stats_seq: 1,
            cpu_replies: BTreeMap::new(),
            last_stats_at: SimTime::ZERO,
            failures_detected: 0,
            recoveries_detected: 0,
            derates: 0,
            underates: 0,
            instances_added: 0,
            cpu_history: Vec::new(),
            failure_times: Vec::new(),
        }
    }

    fn me(&self) -> Endpoint {
        Endpoint::new(self.addr, CTRL_PORT)
    }

    /// Registers the L4 layer.
    pub fn set_l4(&mut self, router: Addr, muxes: Vec<Addr>) {
        self.router = Some(router);
        self.all_muxes = muxes;
    }

    /// Registers an active Yoda instance (monitored and serving).
    pub fn register_instance(&mut self, addr: Addr) {
        let role = Role::Instance {
            serving: true,
            spare: false,
        };
        self.members.push(Member::new(Endpoint::new(addr, 0), role));
    }

    /// Registers a spare instance (monitored, idle until the autoscaler
    /// activates it).
    pub fn register_spare(&mut self, addr: Addr) {
        let role = Role::Instance {
            serving: false,
            spare: true,
        };
        self.members.push(Member::new(Endpoint::new(addr, 0), role));
    }

    /// Registers a backend server for health monitoring.
    pub fn register_backend(&mut self, ep: Endpoint) {
        self.members.push(Member::new(ep, Role::Backend));
    }

    /// Registers a TCPStore server for health monitoring.
    pub fn register_store(&mut self, addr: Addr) {
        self.members
            .push(Member::new(Endpoint::new(addr, 0), Role::Store));
    }

    /// Enables health monitoring of the L4 muxes themselves (the L4 LB
    /// has its own resilience in the paper; monitoring here propagates
    /// the shrunken mux set to the router and to the instances' SNAT
    /// egress lists).
    pub fn monitor_muxes(&mut self) {
        for &m in &self.all_muxes {
            self.members
                .push(Member::new(Endpoint::new(m, 0), Role::Mux));
        }
    }

    /// Whether a VIP is registered.
    pub fn has_vip(&self, vip: Endpoint) -> bool {
        self.vips.contains_key(&vip)
    }

    /// Whether `addr` is currently suspected (derated) by the monitor.
    pub fn is_derated(&self, addr: Addr) -> bool {
        self.members.iter().any(|m| m.ep.addr == addr && m.derated)
    }

    /// Currently-active instances.
    pub fn active_instances(&self) -> Vec<Addr> {
        self.members
            .iter()
            .filter(|m| m.is_serving())
            .map(|m| m.ep.addr)
            .collect()
    }

    /// The live ECMP set: every registered mux not declared dead.
    fn live_muxes(&self) -> Vec<Addr> {
        let mut live = self.all_muxes.clone();
        for m in self
            .members
            .iter()
            .filter(|m| m.role == Role::Mux && m.failed)
        {
            live.retain(|&a| a != m.ep.addr);
        }
        live
    }

    /// Marks the instance at `addr` as in or out of the serving rotation.
    fn set_serving(&mut self, addr: Addr, on: bool) {
        for m in self.members.iter_mut().filter(|m| m.ep.addr == addr) {
            if let Role::Instance { serving, .. } = &mut m.role {
                *serving = on;
            }
        }
    }

    /// Adds (or replaces) a VIP: installs rules on `instances` and maps
    /// the VIP on every mux (§5.2 "VIP addition").
    pub fn add_vip(
        &mut self,
        ctx: &mut Ctx<'_>,
        vip: Endpoint,
        rules_text: &str,
        instances: Vec<Addr>,
    ) {
        self.add_vip_ssl(ctx, vip, rules_text, instances, None);
    }

    /// [`Controller::add_vip`] with SSL termination: instances will serve
    /// a certificate of `ssl_cert_len` bytes to clients of this VIP
    /// (§5.2 "SSL support").
    pub fn add_vip_ssl(
        &mut self,
        ctx: &mut Ctx<'_>,
        vip: Endpoint,
        rules_text: &str,
        instances: Vec<Addr>,
        ssl_cert_len: Option<u32>,
    ) {
        let state = VipState {
            rules_text: rules_text.to_string(),
            instances: instances.clone(),
            assigned: instances.clone(),
            version: 0,
            ssl_cert_len,
        };
        self.vips.insert(vip, state);
        for inst in instances {
            self.install(ctx, vip, inst);
        }
        self.remap(ctx, vip);
    }

    /// The rule text currently installed for each VIP — the controller's
    /// side of the convergence fingerprint chaos invariants compare
    /// against live instances.
    pub fn vip_rules_text(&self) -> BTreeMap<Endpoint, String> {
        self.vips
            .iter()
            .map(|(vip, s)| (*vip, s.rules_text.clone()))
            .collect()
    }

    /// Instances currently serving `vip` (failed ones excluded).
    pub fn vip_instances(&self, vip: Endpoint) -> Vec<Addr> {
        self.vips
            .get(&vip)
            .map(|s| s.instances.clone())
            .unwrap_or_default()
    }

    /// Removes a VIP: reverse order of addition (§5.2).
    pub fn remove_vip(&mut self, ctx: &mut Ctx<'_>, vip: Endpoint) {
        let Some(state) = self.vips.remove(&vip) else {
            return;
        };
        let version = self.next_version;
        self.next_version += 1;
        for (i, mux) in self.live_muxes().into_iter().enumerate() {
            let msg = CtrlMsg::RemoveVip {
                vip: vip.addr,
                version,
            };
            let pkt = msg.into_packet(self.me(), mux);
            ctx.send_after(MUX_STAGGER * i as u64, pkt);
        }
        for inst in state.instances {
            ctx.send(InstanceCtrl::RemoveVip { vip }.into_packet(self.me(), inst));
        }
    }

    /// Updates a VIP's policy (rules) without touching placement; new
    /// rules apply to new connections only (§5.2).
    pub fn update_policy(&mut self, ctx: &mut Ctx<'_>, vip: Endpoint, rules_text: &str) {
        let Some(state) = self.vips.get_mut(&vip) else {
            return;
        };
        state.rules_text = rules_text.to_string();
        for inst in state.instances.clone() {
            self.install(ctx, vip, inst);
        }
    }

    /// Marks a backend as administratively removed (treated as failure,
    /// §5.2 "Backend server failure").
    pub fn remove_backend(&mut self, ctx: &mut Ctx<'_>, backend: Endpoint) {
        self.tell_serving(ctx, &InstanceCtrl::BackendDown { backend });
        if let Some(m) = self.members.iter_mut().find(|m| m.ep == backend) {
            m.failed = true;
            m.removed = true;
        }
    }

    /// Sends `vip`'s rules to `inst`.
    fn install(&self, ctx: &mut Ctx<'_>, vip: Endpoint, inst: Addr) {
        if let Some(state) = self.vips.get(&vip) {
            let msg = InstanceCtrl::InstallVip {
                vip,
                rules_text: state.rules_text.clone(),
                ssl_cert_len: state.ssl_cert_len,
            };
            ctx.send(msg.into_packet(self.me(), inst));
        }
    }

    /// Bumps `vip`'s version and sends its instance list to every live
    /// mux. Non-atomic: each mux hears the update a stagger later than
    /// the previous one.
    fn remap(&mut self, ctx: &mut Ctx<'_>, vip: Endpoint) {
        let me = self.me();
        let muxes = self.live_muxes();
        let Some(state) = self.vips.get_mut(&vip) else {
            return;
        };
        state.version = self.next_version;
        self.next_version += 1;
        for (i, mux) in muxes.into_iter().enumerate() {
            let msg = CtrlMsg::SetVipMap {
                vip: vip.addr,
                instances: state.instances.clone(),
                version: state.version,
            };
            ctx.send_after(MUX_STAGGER * i as u64, msg.into_packet(me, mux));
        }
    }

    /// Sends the live mux set, `delay` from now, to the router and to
    /// every registered instance (spares included: SNAT egress lists).
    fn announce_muxes(&self, ctx: &mut Ctx<'_>, delay: SimTime) {
        let muxes = self.live_muxes();
        let me = self.me();
        if let Some(router) = self.router {
            let msg = CtrlMsg::SetMuxes {
                muxes: muxes.clone(),
            };
            ctx.send_after(delay, msg.into_packet(me, router));
        }
        for m in &self.members {
            if let Role::Instance { .. } = m.role {
                let msg = InstanceCtrl::SetMuxes {
                    muxes: muxes.clone(),
                };
                ctx.send_after(delay, msg.into_packet(me, m.ep.addr));
            }
        }
    }

    /// Sends `msg` to every serving instance.
    fn tell_serving(&self, ctx: &mut Ctx<'_>, msg: &InstanceCtrl) {
        for m in self.members.iter().filter(|m| m.is_serving()) {
            ctx.send(msg.clone().into_packet(self.me(), m.ep.addr));
        }
    }

    /// Declares member `i` dead and reacts by its role.
    fn on_failure(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let Some(m) = self.members.get_mut(i) else {
            return;
        };
        m.failed = true;
        let (ep, role) = (m.ep, m.role);
        self.failures_detected += 1;
        self.failure_times.push((ctx.now(), ep));
        ctx.trace(Note::FailureDetected { member: ep });
        match role {
            // A mux died: shrink the ECMP set at the router and update
            // every instance's SNAT egress list. Flows pinned to the dead
            // mux re-hash; any that land on a different instance recover
            // via TCPStore.
            Role::Mux => self.announce_muxes(ctx, SimTime::ZERO),
            // A Yoda instance died: remove it from every VIP mapping so
            // the muxes re-steer its flows to the survivors (§4.2).
            Role::Instance { serving: true, .. } => self.remove_instance_from_maps(ctx, ep.addr),
            Role::Instance { serving: false, .. } => {}
            // A backend died: instances must terminate its flows.
            Role::Backend => self.tell_serving(ctx, &InstanceCtrl::BackendDown { backend: ep }),
            // Store-server failure needs no action: the replicated client
            // library falls back to surviving replicas (§6).
            Role::Store => {}
        }
    }

    /// Handles member `i` answering pings again after a death verdict (or
    /// answering fresh while believed provisioned): re-admits the
    /// component to the serving rotation. The mirror image of
    /// [`Controller::on_failure`].
    fn on_recovery(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let Some(&Member { ep, role, .. }) = self.members.get(i) else {
            return;
        };
        self.recoveries_detected += 1;
        ctx.trace(Note::RecoveryDetected { member: ep });
        match role {
            Role::Mux => {
                // A mux rejoined ECMP at its original position. It
                // restarted cold, so push every VIP map (version-bumped,
                // staggered as usual) before the router update widens
                // ECMP onto it — otherwise it would blackhole re-hashed
                // flows.
                let vips: Vec<Endpoint> = self.vips.keys().copied().collect();
                for vip in vips {
                    self.remap(ctx, vip);
                }
                let settle = MUX_STAGGER * self.live_muxes().len() as u64;
                self.announce_muxes(ctx, settle);
            }
            Role::Instance { .. } => {
                self.readmit_instance(ctx, ep.addr);
            }
            // A backend came back: lift the death sentence on every
            // active instance so its flows can be balanced onto it again
            // (probe pools re-admit it after fresh probe rounds).
            Role::Backend => self.tell_serving(ctx, &InstanceCtrl::BackendUp { backend: ep }),
            // Store-server recovery needs no action: the client library's
            // hash ring still includes it and will reach it again.
            Role::Store => {}
        }
    }

    /// Pulls an instance out of every VIP map (death or suspicion): the
    /// muxes re-steer its *new* flows to the survivors (§4.2); existing
    /// flows stay pinned by mux flow tables.
    fn remove_instance_from_maps(&mut self, ctx: &mut Ctx<'_>, addr: Addr) {
        self.set_serving(addr, false);
        let vips: Vec<Endpoint> = self.vips.keys().copied().collect();
        for vip in vips {
            let Some(state) = self.vips.get_mut(&vip) else {
                continue;
            };
            if state.instances.contains(&addr) {
                state.instances.retain(|&i| i != addr);
                self.remap(ctx, vip);
            }
        }
    }

    /// Re-admits an instance to the serving rotation (recovery after a
    /// death verdict, or a lifted derate). Returns whether the instance
    /// was actually re-admitted (spares that never served stay idle).
    fn readmit_instance(&mut self, ctx: &mut Ctx<'_>, addr: Addr) -> bool {
        // Spares that never served stay idle; anything that appears in a
        // VIP's intended assignment is re-installed and re-mapped. The
        // instance may have restarted with empty state: give it the
        // current mux set, then its rules, then add it back to the mux
        // maps.
        if !self.vips.values().any(|s| s.assigned.contains(&addr)) {
            return false;
        }
        self.set_serving(addr, true);
        let me = self.me();
        let muxes = self.live_muxes();
        ctx.send(InstanceCtrl::SetMuxes { muxes }.into_packet(me, addr));
        // The instance restarted with an empty dead-backend set; any
        // backend that is still down must be re-declared dead or the
        // fresh rule tables would split traffic onto it.
        for m in &self.members {
            if m.role == Role::Backend && m.failed && !m.removed {
                let msg = InstanceCtrl::BackendDown { backend: m.ep };
                ctx.send(msg.into_packet(me, addr));
            }
        }
        let vips: Vec<Endpoint> = self.vips.keys().copied().collect();
        for vip in vips {
            let Some(state) = self.vips.get_mut(&vip) else {
                continue;
            };
            if !state.assigned.contains(&addr) {
                continue;
            }
            // Rebuilt from `assigned` order so the post-recovery list is
            // deterministic and position-stable.
            let serving = state
                .assigned
                .iter()
                .copied()
                .filter(|a| *a == addr || state.instances.contains(a))
                .collect();
            state.instances = serving;
            self.install(ctx, vip, addr);
            self.remap(ctx, vip);
        }
        true
    }

    /// Suspicion: derates member `i` if it is a serving instance — pulled
    /// from new-flow maps (reversibly) while pings continue, so a
    /// browning node stops receiving new flows *before* the miss
    /// threshold would declare it dead; flows it already carries keep
    /// forwarding. With `derated == false`, lifts a derate once the
    /// instance answers promptly again.
    fn set_derated(&mut self, ctx: &mut Ctx<'_>, i: usize, derated: bool) {
        let Some(&Member { ep, role, .. }) = self.members.get(i) else {
            return;
        };
        let Role::Instance { serving, .. } = role else {
            return; // Not an instance: nothing to derate.
        };
        if serving != derated {
            return; // Already out of (derate) or in (lift) the rotation.
        }
        let addr = ep.addr;
        if derated {
            self.derates += 1;
            ctx.trace(Note::Derated { instance: addr });
            self.remove_instance_from_maps(ctx, addr);
        } else if self.readmit_instance(ctx, addr) {
            self.underates += 1;
            ctx.trace(Note::Readmitted { instance: addr });
        }
    }

    /// Activates `n` spare instances, most recently registered first:
    /// install every VIP's rules, then add them to the mux mappings.
    pub fn activate_spares(&mut self, ctx: &mut Ctx<'_>, n: usize) -> usize {
        let mut activated = 0;
        while activated < n {
            let Some(m) = self
                .members
                .iter_mut()
                .rev()
                .find(|m| matches!(m.role, Role::Instance { spare: true, .. }))
            else {
                break;
            };
            m.role = Role::Instance {
                serving: true,
                spare: false,
            };
            let spare = m.ep.addr;
            self.instances_added += 1;
            activated += 1;
            let vips: Vec<Endpoint> = self.vips.keys().copied().collect();
            for vip in vips {
                self.install(ctx, vip, spare);
                let Some(state) = self.vips.get_mut(&vip) else {
                    continue;
                };
                state.instances.push(spare);
                if !state.assigned.contains(&spare) {
                    state.assigned.push(spare);
                }
                self.remap(ctx, vip);
            }
            ctx.trace(Note::SpareActivated { instance: spare });
        }
        activated
    }

    fn ping_cycle(&mut self, ctx: &mut Ctx<'_>) {
        // First: account a miss for anything that did not answer the
        // previous ping. A single miss used to mean death — one gray
        // packet drop killed a healthy node. Now `MISS_THRESHOLD`
        // consecutive misses mean death, with `DERATE_MISSES` as the
        // earlier, reversible suspicion level for instances.
        let mut newly_failed = Vec::new();
        let mut newly_suspect = Vec::new();
        for (i, m) in self.members.iter_mut().enumerate() {
            if m.awaiting && !m.failed {
                m.misses += 1;
                if m.misses >= MISS_THRESHOLD {
                    newly_failed.push(i);
                } else if m.misses >= DERATE_MISSES && !m.derated {
                    m.derated = true;
                    newly_suspect.push(i);
                }
            }
        }
        // `on_failure` marks each death as it handles it, so the live mux
        // set a reaction sends sees the muxes handled before it dead and
        // the rest still alive.
        for i in newly_failed {
            self.on_failure(ctx, i);
        }
        for i in newly_suspect {
            self.set_derated(ctx, i, true);
        }
        // Then: ping everyone still managed — including endpoints already
        // declared failed. A failed endpoint that answers again (restarted
        // process, healed partition) is re-admitted by `on_recovery`;
        // without this the controller would strand healed components
        // outside the rotation forever. Administratively removed
        // endpoints are the exception: operator decisions stick.
        let me = Endpoint::new(self.addr, 0);
        let now = ctx.now();
        for m in &mut self.members {
            if m.removed {
                continue;
            }
            if !m.failed {
                m.awaiting = true;
            }
            m.ping_sent = now;
            ctx.send(Packet::new(me, m.ep, PROTO_PING, Bytes::new()));
        }
        ctx.set_timer(PING_INTERVAL, TimerToken::new(PING_KIND));
    }

    fn stats_cycle(&mut self, ctx: &mut Ctx<'_>) {
        // Aggregate the previous round's replies first.
        let prev_seq = self.next_stats_seq.wrapping_sub(1);
        if let Some(replies) = self.cpu_replies.remove(&prev_seq) {
            if !replies.is_empty() {
                let mean = replies.iter().map(|(_, c, _)| c).sum::<f64>() / replies.len() as f64;
                let reqs: u64 = replies.iter().map(|(_, _, r)| r).sum();
                let dt = ctx.now().saturating_sub(self.last_stats_at).as_secs_f64();
                let sample = CpuSample {
                    time: ctx.now(),
                    mean_cpu: mean,
                    active_instances: replies.len(),
                    request_rate: if dt > 0.0 { reqs as f64 / dt } else { 0.0 },
                };
                self.cpu_history.push(sample);
                if self.cfg.autoscale && mean > HIGH_CPU {
                    // Size so mean CPU falls to ~target.
                    let active = replies.len() as f64;
                    let want = (active * mean / TARGET_CPU).ceil() as usize;
                    self.activate_spares(ctx, want.saturating_sub(replies.len()));
                }
            }
        }
        self.last_stats_at = ctx.now();
        let seq = self.next_stats_seq;
        self.next_stats_seq += 1;
        self.cpu_replies.insert(seq, Vec::new());
        self.tell_serving(ctx, &InstanceCtrl::StatsRequest { seq });
        ctx.set_timer(STATS_INTERVAL, TimerToken::new(STATS_KIND));
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(PING_INTERVAL, TimerToken::new(PING_KIND));
        ctx.set_timer(STATS_INTERVAL, TimerToken::new(STATS_KIND));
        self.last_stats_at = ctx.now();
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match pkt.protocol {
            PROTO_PING => {
                // A pong: clear the awaiting flag and the miss streak; a
                // pong from an endpoint previously declared dead means it
                // recovered. The pong RTT feeds a per-endpoint EWMA — a
                // node that answers, but slowly, is suspected (derated)
                // without ever missing a ping.
                let now = ctx.now();
                let mut recovered = Vec::new();
                let mut slow = Vec::new();
                let mut healed = Vec::new();
                for (i, m) in self.members.iter_mut().enumerate() {
                    if m.ep.addr == pkt.src.addr && (m.ep.port == 0 || m.ep.port == pkt.src.port) {
                        m.awaiting = false;
                        m.misses = 0;
                        let rtt = now.saturating_sub(m.ping_sent);
                        m.ewma = if m.ewma == SimTime::ZERO {
                            rtt
                        } else {
                            SimTime::from_micros((m.ewma.as_micros() * 4 + rtt.as_micros()) / 5)
                        };
                        if m.failed && !m.removed {
                            m.failed = false;
                            m.derated = false;
                            recovered.push(i);
                        } else if !m.derated && m.ewma > SUSPECT_LATENCY {
                            m.derated = true;
                            slow.push(i);
                        } else if m.derated && m.ewma <= SUSPECT_LATENCY {
                            m.derated = false;
                            healed.push(i);
                        } else if pkt.message().and_then(|m| m.first()) == Some(&1) {
                            // Freshness byte: the component answers pings
                            // but holds no config — it restarted inside
                            // the miss threshold, a crash the ping stream
                            // alone can no longer see. If the controller
                            // believes it is provisioned, re-push state
                            // through the normal recovery path.
                            let addr = m.ep.addr;
                            let believed_serving =
                                self.vips.values().any(|s| s.instances.contains(&addr))
                                    || (m.role == Role::Mux && !self.vips.is_empty());
                            if believed_serving {
                                recovered.push(i);
                            }
                        }
                    }
                }
                for i in recovered {
                    self.on_recovery(ctx, i);
                }
                for i in slow {
                    self.set_derated(ctx, i, true);
                }
                for i in healed {
                    self.set_derated(ctx, i, false);
                }
            }
            PROTO_CTRL => {
                if let Some(InstanceCtrl::StatsReply {
                    seq,
                    cpu_milli,
                    flows: _,
                    per_vip_requests,
                }) = pkt.message().and_then(InstanceCtrl::decode)
                {
                    if let Some(bucket) = self.cpu_replies.get_mut(&seq) {
                        let reqs: u64 = per_vip_requests.iter().map(|(_, r)| r).sum();
                        bucket.push((pkt.src.addr, cpu_milli as f64 / 1000.0, reqs));
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: TimerToken) {
        match token.kind {
            PING_KIND => self.ping_cycle(ctx),
            STATS_KIND => self.stats_cycle(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_bookkeeping() {
        let mut c = Controller::new(ControllerConfig::default(), Addr::new(10, 0, 4, 1));
        c.register_instance(Addr::new(10, 0, 0, 1));
        c.register_instance(Addr::new(10, 0, 0, 2));
        c.register_spare(Addr::new(10, 0, 0, 3));
        c.register_backend(Endpoint::new(Addr::new(10, 1, 0, 1), 80));
        c.register_store(Addr::new(10, 0, 1, 1));
        assert_eq!(c.active_instances().len(), 2);
        assert_eq!(c.members.len(), 5);
        let spares = c
            .members
            .iter()
            .filter(|m| matches!(m.role, Role::Instance { spare: true, .. }));
        assert_eq!(spares.count(), 1);
    }

    #[test]
    fn monitor_constants_match_paper_600ms() {
        assert_eq!(PING_INTERVAL, SimTime::from_millis(600));
        // Gray-failure hardening: death needs more than one missed ping,
        // and the derate level sits strictly below the death level.
        assert_eq!(MISS_THRESHOLD, 3);
        const { assert!(DERATE_MISSES < MISS_THRESHOLD) };
    }

    use yoda_netsim::{Engine, NodeId, Topology, Zone};

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
        verdicts: Vec<InstanceCtrl>,
    }

    impl Node for Ponger {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.protocol != PROTO_PING {
                if let Some(
                    m @ (InstanceCtrl::BackendDown { .. } | InstanceCtrl::BackendUp { .. }),
                ) = pkt.message().and_then(InstanceCtrl::decode)
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
            let reply = Packet::new(pkt.dst, pkt.src, PROTO_PING, pkt.body);
            ctx.send_after(delay, reply);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: TimerToken) {}
    }

    fn ponger(drop_first: u32, dead: bool, delay: SimTime, fast_after: Option<u32>) -> Ponger {
        Ponger {
            seen: 0,
            drop_first,
            dead,
            delay,
            fast_after,
            verdicts: Vec::new(),
        }
    }

    #[test]
    fn single_missed_ping_does_not_kill() {
        // Regression: the monitor used to declare death after ONE missed
        // 600 ms ping, so a single gray packet drop killed a healthy
        // instance.
        let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_micros(250)));
        let caddr = Addr::new(10, 0, 4, 1);
        let iaddr = Addr::new(10, 0, 0, 1);
        let mut c = Controller::new(ControllerConfig::default(), caddr);
        c.register_instance(iaddr);
        let cid = eng.add_node("ctrl", caddr, Zone::Dc, Box::new(c));
        eng.add_node(
            "inst",
            iaddr,
            Zone::Dc,
            Box::new(ponger(1, false, SimTime::ZERO, None)),
        );
        eng.run_for(SimTime::from_secs(6));
        let c = eng.node_ref::<Controller>(cid);
        assert_eq!(
            c.failures_detected, 0,
            "one lost pong killed a healthy instance"
        );
        assert_eq!(c.derates, 0);
    }

    #[test]
    fn sustained_silence_kills_after_miss_threshold() {
        let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_micros(250)));
        let caddr = Addr::new(10, 0, 4, 1);
        let iaddr = Addr::new(10, 0, 0, 1);
        let mut c = Controller::new(ControllerConfig::default(), caddr);
        c.register_instance(iaddr);
        let cid = eng.add_node("ctrl", caddr, Zone::Dc, Box::new(c));
        eng.add_node(
            "inst",
            iaddr,
            Zone::Dc,
            Box::new(ponger(0, true, SimTime::ZERO, None)),
        );
        eng.run_for(SimTime::from_secs(6));
        let c = eng.node_ref::<Controller>(cid);
        assert_eq!(c.failures_detected, 1);
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
        let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_micros(250)));
        let caddr = Addr::new(10, 0, 4, 1);
        let iaddr = Addr::new(10, 0, 0, 1);
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let mut c = Controller::new(ControllerConfig::default(), caddr);
        c.register_instance(iaddr);
        let cid = eng.add_node("ctrl", caddr, Zone::Dc, Box::new(c));
        // Pongs arrive, but 30 ms late (browning node) for the first 4
        // pings; prompt afterwards.
        eng.add_node(
            "inst",
            iaddr,
            Zone::Dc,
            Box::new(ponger(0, false, SimTime::from_millis(30), Some(4))),
        );
        eng.with_node_ctx::<Controller>(cid, |c, ctx| {
            c.add_vip(ctx, vip, "default pool=a", vec![iaddr]);
        });
        eng.run_for(SimTime::from_secs(2));
        {
            let c = eng.node_ref::<Controller>(cid);
            assert!(c.derates >= 1, "slow pongs should derate");
            assert!(c.is_derated(iaddr));
            assert!(
                c.vip_instances(vip).is_empty(),
                "derated instance still mapped"
            );
            assert_eq!(c.failures_detected, 0, "slowness is not death");
        }
        eng.run_for(SimTime::from_secs(10));
        let c = eng.node_ref::<Controller>(cid);
        assert!(
            c.underates >= 1,
            "healthy-again instance should be re-admitted"
        );
        assert!(!c.is_derated(iaddr));
        assert_eq!(c.vip_instances(vip), vec![iaddr]);
        assert_eq!(c.failures_detected, 0);
    }

    #[test]
    fn removed_backend_is_down_for_good() {
        // §5.2 administrative removal: every instance hears BackendDown,
        // the backend is never pinged again, and a pong from it — it is
        // healthy, the operator just took it out — does not re-admit it.
        let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_micros(250)));
        let caddr = Addr::new(10, 0, 4, 1);
        let iaddr = Addr::new(10, 0, 0, 1);
        let backend = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
        let mut c = Controller::new(ControllerConfig::default(), caddr);
        c.register_instance(iaddr);
        c.register_backend(backend);
        let cid = eng.add_node("ctrl", caddr, Zone::Dc, Box::new(c));
        let healthy = || Box::new(ponger(0, false, SimTime::ZERO, None));
        let iid = eng.add_node("inst", iaddr, Zone::Dc, healthy());
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
        assert_eq!((c.failures_detected, c.recoveries_detected), (0, 0));
    }

    /// A controller with one instance and one backend on port 8080 — not
    /// the port the backends of the testbeds listen on — each answered by
    /// a [`Ponger`]. Returns the engine, the controller and instance node
    /// ids, and the backend.
    fn backend_8080_rig(backend: Ponger) -> (Engine, NodeId, NodeId, Endpoint) {
        let mut eng = Engine::with_topology(3, Topology::uniform(SimTime::from_micros(250)));
        let caddr = Addr::new(10, 0, 4, 1);
        let iaddr = Addr::new(10, 0, 0, 1);
        let bep = Endpoint::new(Addr::new(10, 1, 0, 1), 8080);
        let mut c = Controller::new(ControllerConfig::default(), caddr);
        c.register_instance(iaddr);
        c.register_backend(bep);
        let cid = eng.add_node("ctrl", caddr, Zone::Dc, Box::new(c));
        let iid = eng.add_node(
            "inst",
            iaddr,
            Zone::Dc,
            Box::new(ponger(0, false, SimTime::ZERO, None)),
        );
        eng.add_node("backend", bep.addr, Zone::Dc, Box::new(backend));
        (eng, cid, iid, bep)
    }

    #[test]
    fn backend_on_any_port_is_declared_down() {
        let (mut eng, cid, iid, backend) = backend_8080_rig(ponger(0, true, SimTime::ZERO, None));
        eng.run_for(SimTime::from_secs(6));
        assert_eq!(eng.node_ref::<Controller>(cid).failures_detected, 1);
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
        // declared dead at 4.8 s and answers that same ping. It restarts
        // with an empty dead-backend set, so it must hear the verdict again.
        let (mut eng, cid, iid, backend) = backend_8080_rig(ponger(0, true, SimTime::ZERO, None));
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let iaddr = Addr::new(10, 0, 0, 1);
        eng.with_node_ctx::<Controller>(cid, |c, ctx| {
            c.add_vip(ctx, vip, "default pool=a", vec![iaddr]);
        });
        eng.schedule(SimTime::from_millis(2500), move |eng| {
            eng.node_mut::<Ponger>(iid).dead = true
        });
        eng.schedule(SimTime::from_millis(4500), move |eng| {
            eng.node_mut::<Ponger>(iid).dead = false
        });
        eng.run_for(SimTime::from_secs(6));
        let c = eng.node_ref::<Controller>(cid);
        assert_eq!((c.failures_detected, c.recoveries_detected), (2, 1));
        assert_eq!(c.vip_instances(vip), vec![iaddr]);
        let down = InstanceCtrl::BackendDown { backend };
        assert_eq!(
            eng.node_ref::<Ponger>(iid).verdicts,
            vec![down.clone(), down]
        );
    }
}
