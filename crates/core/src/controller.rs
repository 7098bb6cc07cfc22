//! The Yoda controller (paper §6, Figure 8).
//!
//! Four components, as in the paper:
//!
//! * **User interface** — converts operator policies (rule DSL) into rule
//!   installs on the instances serving each VIP.
//! * **Assignment engine** — computes VIP→instance assignment (delegated
//!   to `yoda-assign`; the testbed experiments use explicit assignments).
//! * **Assignment updater** — pushes VIP→instance mappings to the L4
//!   muxes. Updates are sent per mux with a stagger, reproducing the
//!   non-atomicity that §4.5's transient constraint exists for.
//! * **Monitor** — "gathers health information by pinging the YODA
//!   instances, Memcached servers, and backend servers every 600ms, and
//!   hence detects failure with at most 600ms delay."
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
    Addr, Ctx, Endpoint, Node, Packet, SimTime, TimerToken, PROTO_CTRL, PROTO_PING,
};

use crate::ctrl::{InstanceCtrl, CTRL_PORT};

const PING_KIND: u32 = 0xC7_01;
const STATS_KIND: u32 = 0xC7_02;

/// Autoscaling policy (Figure 13).
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Add instances when mean CPU exceeds this.
    pub high_cpu: f64,
    /// Size the fleet so mean CPU lands near this.
    pub target_cpu: f64,
}

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

/// Controller tunables. Only the autoscaler has a second value in use
/// (fig13); the monitor's periods and thresholds are constants above.
#[derive(Debug, Clone, Default)]
pub struct ControllerConfig {
    /// Autoscaler; `None` disables it.
    pub autoscale: Option<AutoscaleConfig>,
}

#[derive(Debug, Clone)]
struct Monitored {
    ep: Endpoint,
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

impl Monitored {
    fn new(ep: Endpoint) -> Self {
        Monitored {
            ep,
            awaiting: false,
            failed: false,
            removed: false,
            misses: 0,
            ping_sent: SimTime::ZERO,
            ewma: SimTime::ZERO,
            derated: false,
        }
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
    muxes: Vec<Addr>,
    /// Every registered mux in registration order, failed ones included;
    /// `muxes` is always this list filtered by liveness, so a recovered
    /// mux rejoins ECMP at its original (deterministic) position.
    all_muxes: Vec<Addr>,
    router: Option<Addr>,
    instances: Vec<Addr>,
    active: BTreeMap<Addr, bool>,
    spares: Vec<Addr>,
    monitored: Vec<Monitored>,
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
            muxes: Vec::new(),
            all_muxes: Vec::new(),
            router: None,
            instances: Vec::new(),
            active: BTreeMap::new(),
            spares: Vec::new(),
            monitored: Vec::new(),
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
        self.all_muxes = muxes.clone();
        self.muxes = muxes;
    }

    /// Registers an active Yoda instance (monitored and serving).
    pub fn register_instance(&mut self, addr: Addr) {
        self.instances.push(addr);
        self.active.insert(addr, true);
        self.monitored.push(Monitored::new(Endpoint::new(addr, 0)));
    }

    /// Registers a spare instance (monitored, idle until the autoscaler
    /// activates it).
    pub fn register_spare(&mut self, addr: Addr) {
        self.instances.push(addr);
        self.active.insert(addr, false);
        self.spares.push(addr);
        self.monitored.push(Monitored::new(Endpoint::new(addr, 0)));
    }

    /// Registers a backend server for health monitoring.
    pub fn register_backend(&mut self, ep: Endpoint) {
        self.monitored.push(Monitored::new(ep));
    }

    /// Registers a TCPStore server for health monitoring.
    pub fn register_store(&mut self, addr: Addr) {
        self.monitored.push(Monitored::new(Endpoint::new(addr, 0)));
    }

    /// Enables health monitoring of the L4 muxes themselves (the L4 LB
    /// has its own resilience in the paper; monitoring here propagates
    /// the shrunken mux set to the router and to the instances' SNAT
    /// egress lists).
    pub fn monitor_muxes(&mut self) {
        for &m in &self.all_muxes.clone() {
            self.monitored.push(Monitored::new(Endpoint::new(m, 0)));
        }
    }

    /// Whether a VIP is registered.
    pub fn has_vip(&self, vip: Endpoint) -> bool {
        self.vips.contains_key(&vip)
    }

    /// Whether `addr` is currently suspected (derated) by the monitor.
    pub fn is_derated(&self, addr: Addr) -> bool {
        self.monitored.iter().any(|m| m.ep.addr == addr && m.derated)
    }

    /// Currently-active instances.
    pub fn active_instances(&self) -> Vec<Addr> {
        self.instances
            .iter()
            .copied()
            .filter(|a| self.active.get(a).copied().unwrap_or(false))
            .collect()
    }

    /// Adds (or replaces) a VIP: installs rules on `instances` and maps
    /// the VIP on every mux (§5.2 "VIP addition").
    pub fn add_vip(&mut self, ctx: &mut Ctx<'_>, vip: Endpoint, rules_text: &str, instances: Vec<Addr>) {
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
        let version = self.next_version;
        self.next_version += 1;
        for &inst in &instances {
            let msg = InstanceCtrl::InstallVip {
                vip,
                rules_text: rules_text.to_string(),
                ssl_cert_len,
            };
            ctx.send(msg.into_packet(self.me(), inst));
        }
        self.push_vip_map(ctx, vip.addr, instances.clone(), version);
        self.vips.insert(
            vip,
            VipState {
                rules_text: rules_text.to_string(),
                instances: instances.clone(),
                assigned: instances,
                version,
                ssl_cert_len,
            },
        );
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
        for (i, &mux) in self.muxes.iter().enumerate() {
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
        let me = self.me();
        let Some(state) = self.vips.get_mut(&vip) else {
            return;
        };
        state.rules_text = rules_text.to_string();
        for &inst in &state.instances {
            let msg = InstanceCtrl::InstallVip {
                vip,
                rules_text: rules_text.to_string(),
                ssl_cert_len: state.ssl_cert_len,
            };
            ctx.send(msg.into_packet(me, inst));
        }
    }

    /// Marks a backend as administratively removed (treated as failure,
    /// §5.2 "Backend server failure").
    pub fn remove_backend(&mut self, ctx: &mut Ctx<'_>, backend: Endpoint) {
        self.broadcast_backend_down(ctx, backend);
        if let Some(m) = self.monitored.iter_mut().find(|m| m.ep == backend) {
            m.failed = true;
            m.removed = true;
        }
    }

    fn push_vip_map(&self, ctx: &mut Ctx<'_>, vip: Addr, instances: Vec<Addr>, version: u64) {
        // Non-atomic: each mux hears the update a stagger later than the
        // previous one.
        for (i, &mux) in self.muxes.iter().enumerate() {
            let msg = CtrlMsg::SetVipMap {
                vip,
                instances: instances.clone(),
                version,
            };
            let pkt = msg.into_packet(self.me(), mux);
            ctx.send_after(MUX_STAGGER * i as u64, pkt);
        }
    }

    fn broadcast_backend_down(&self, ctx: &mut Ctx<'_>, backend: Endpoint) {
        for &inst in &self.instances {
            if self.active.get(&inst).copied().unwrap_or(false) {
                let msg = InstanceCtrl::BackendDown { backend };
                ctx.send(msg.into_packet(self.me(), inst));
            }
        }
    }

    /// Handles a detected failure of any monitored endpoint.
    fn on_failure(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        self.failures_detected += 1;
        self.failure_times.push((ctx.now(), ep));
        ctx.trace_note(format!("controller detected failure of {ep}"));
        let addr = ep.addr;
        if self.muxes.contains(&addr) {
            // A mux died: shrink the ECMP set at the router and update
            // every instance's SNAT egress list. Flows pinned to the dead
            // mux re-hash; any that land on a different instance recover
            // via TCPStore.
            self.muxes.retain(|&m| m != addr);
            let me = self.me();
            if let Some(router) = self.router {
                let msg = CtrlMsg::SetMuxes {
                    muxes: self.muxes.clone(),
                };
                ctx.send(msg.into_packet(me, router));
            }
            for &inst in &self.instances {
                let msg = InstanceCtrl::SetMuxes {
                    muxes: self.muxes.clone(),
                };
                ctx.send(msg.into_packet(me, inst));
            }
            return;
        }
        if self.active.get(&addr).copied().unwrap_or(false) {
            // A Yoda instance died: remove it from every VIP mapping so
            // the muxes re-steer its flows to the survivors (§4.2).
            self.remove_instance_from_maps(ctx, addr);
        } else if ep.port == 80 {
            // A backend died: instances must terminate its flows.
            self.broadcast_backend_down(ctx, ep);
        }
        // Store-server failure needs no action: the replicated client
        // library falls back to surviving replicas (§6).
    }

    /// Handles a previously failed endpoint answering pings again:
    /// re-admits the component to the serving rotation. The mirror image
    /// of [`Controller::on_failure`].
    fn on_recovery(&mut self, ctx: &mut Ctx<'_>, ep: Endpoint) {
        self.recoveries_detected += 1;
        ctx.trace_note(format!("controller detected recovery of {ep}"));
        let addr = ep.addr;
        let me = self.me();
        if self.all_muxes.contains(&addr) {
            // A mux rejoined ECMP at its original position. It restarted
            // cold, so push every VIP map (version-bumped, staggered as
            // usual) before the router update widens ECMP onto it —
            // otherwise it would blackhole re-hashed flows.
            self.muxes = self
                .all_muxes
                .iter()
                .copied()
                .filter(|m| *m == addr || self.muxes.contains(m))
                .collect();
            let vips: Vec<Endpoint> = self.vips.keys().copied().collect();
            for vip in vips {
                let Some(state) = self.vips.get_mut(&vip) else {
                    continue;
                };
                state.version = self.next_version;
                self.next_version += 1;
                let instances = state.instances.clone();
                let version = state.version;
                self.push_vip_map(ctx, vip.addr, instances, version);
            }
            let settle = MUX_STAGGER * self.muxes.len() as u64;
            if let Some(router) = self.router {
                let msg = CtrlMsg::SetMuxes {
                    muxes: self.muxes.clone(),
                };
                ctx.send_after(settle, msg.into_packet(me, router));
            }
            for &inst in &self.instances {
                let msg = InstanceCtrl::SetMuxes {
                    muxes: self.muxes.clone(),
                };
                ctx.send_after(settle, msg.into_packet(me, inst));
            }
            return;
        }
        if self.active.contains_key(&addr) {
            self.readmit_instance(ctx, addr);
            return;
        }
        if ep.port == 80 {
            // A backend came back: lift the death sentence on every
            // active instance so its flows can be balanced onto it again
            // (probe pools re-admit it after fresh probe rounds).
            for &inst in &self.instances {
                if self.active.get(&inst).copied().unwrap_or(false) {
                    let msg = InstanceCtrl::BackendUp { backend: ep };
                    ctx.send(msg.into_packet(me, inst));
                }
            }
        }
        // Store-server recovery needs no action: the client library's
        // hash ring still includes it and will reach it again.
    }

    /// Pulls an instance out of every VIP map (death or suspicion): the
    /// muxes re-steer its *new* flows to the survivors (§4.2); existing
    /// flows stay pinned by mux flow tables.
    fn remove_instance_from_maps(&mut self, ctx: &mut Ctx<'_>, addr: Addr) {
        self.active.insert(addr, false);
        let me = self.me();
        let muxes = self.muxes.clone();
        for (&vip, state) in self.vips.iter_mut() {
            if !state.instances.contains(&addr) {
                continue;
            }
            state.instances.retain(|&i| i != addr);
            state.version = self.next_version;
            self.next_version += 1;
            for (i, &mux) in muxes.iter().enumerate() {
                let msg = CtrlMsg::SetVipMap {
                    vip: vip.addr,
                    instances: state.instances.clone(),
                    version: state.version,
                };
                let pkt = msg.into_packet(me, mux);
                ctx.send_after(MUX_STAGGER * i as u64, pkt);
            }
        }
    }

    /// Re-admits an instance to the serving rotation (recovery after a
    /// death verdict, or a lifted derate). Returns whether the instance
    /// was actually re-admitted (spares that never served stay idle).
    fn readmit_instance(&mut self, ctx: &mut Ctx<'_>, addr: Addr) -> bool {
        // A Yoda instance rejoined. Spares that never served stay
        // idle; anything that appears in a VIP's intended assignment
        // is re-installed and re-mapped. The instance may have
        // restarted with empty state: give it the current mux set,
        // then its rules, then add it back to the mux maps.
        let me = self.me();
        {
            let was_serving = self.vips.values().any(|s| s.assigned.contains(&addr));
            if !was_serving {
                return false;
            }
            self.active.insert(addr, true);
            let msg = InstanceCtrl::SetMuxes {
                muxes: self.muxes.clone(),
            };
            ctx.send(msg.into_packet(me, addr));
            // The instance restarted with an empty dead-backend set; any
            // backend that is still down must be re-declared dead or the
            // fresh rule tables would split traffic onto it.
            let dead: Vec<Endpoint> = self
                .monitored
                .iter()
                .filter(|m| m.failed && !m.removed && m.ep.port == 80)
                .map(|m| m.ep)
                .collect();
            for backend in dead {
                ctx.send(InstanceCtrl::BackendDown { backend }.into_packet(me, addr));
            }
            let vips: Vec<Endpoint> = self.vips.keys().copied().collect();
            for vip in vips {
                let serving: Vec<Addr> = match self.vips.get(&vip) {
                    Some(s) if s.assigned.contains(&addr) => s
                        .assigned
                        .iter()
                        .copied()
                        .filter(|a| {
                            *a == addr || s.instances.contains(a)
                        })
                        .collect(),
                    _ => continue,
                };
                let Some(state) = self.vips.get_mut(&vip) else {
                    continue;
                };
                let msg = InstanceCtrl::InstallVip {
                    vip,
                    rules_text: state.rules_text.clone(),
                    ssl_cert_len: state.ssl_cert_len,
                };
                ctx.send(msg.into_packet(me, addr));
                // Rebuilt from `assigned` order so the post-recovery list
                // is deterministic and position-stable.
                state.instances = serving;
                state.version = self.next_version;
                self.next_version += 1;
                let instances = state.instances.clone();
                let version = state.version;
                self.push_vip_map(ctx, vip.addr, instances, version);
            }
        }
        true
    }

    /// Suspicion level 1: derates an instance — pulled from new-flow
    /// maps (reversibly) while pings continue. A browning node stops
    /// receiving new flows *before* the miss threshold would declare it
    /// dead; flows it already carries keep forwarding.
    fn derate_instance(&mut self, ctx: &mut Ctx<'_>, addr: Addr) {
        if !self.active.get(&addr).copied().unwrap_or(false) {
            return; // Not a serving instance: nothing to derate.
        }
        self.derates += 1;
        ctx.trace_note(format!("controller derated suspect instance {addr}"));
        self.remove_instance_from_maps(ctx, addr);
    }

    /// Lifts a derate once the instance answers promptly again.
    fn underate_instance(&mut self, ctx: &mut Ctx<'_>, addr: Addr) {
        if self.active.get(&addr).copied().unwrap_or(true) {
            return; // Not an instance, or already serving.
        }
        if self.readmit_instance(ctx, addr) {
            self.underates += 1;
            ctx.trace_note(format!("controller re-admitted instance {addr}"));
        }
    }

    /// Activates `n` spare instances: install every VIP's rules, then add
    /// them to the mux mappings.
    pub fn activate_spares(&mut self, ctx: &mut Ctx<'_>, n: usize) -> usize {
        let me = self.me();
        let mut activated = 0;
        for _ in 0..n {
            let Some(spare) = self.spares.pop() else {
                break;
            };
            self.active.insert(spare, true);
            self.instances_added += 1;
            activated += 1;
            let vips: Vec<Endpoint> = self.vips.keys().copied().collect();
            for vip in vips {
                let Some(state) = self.vips.get_mut(&vip) else {
                    continue;
                };
                let msg = InstanceCtrl::InstallVip {
                    vip,
                    rules_text: state.rules_text.clone(),
                    ssl_cert_len: state.ssl_cert_len,
                };
                ctx.send(msg.into_packet(me, spare));
                state.instances.push(spare);
                if !state.assigned.contains(&spare) {
                    state.assigned.push(spare);
                }
                state.version = self.next_version;
                self.next_version += 1;
                let instances = state.instances.clone();
                let version = state.version;
                self.push_vip_map(ctx, vip.addr, instances, version);
            }
            ctx.trace_note(format!("autoscaler activated instance {spare}"));
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
        for m in &mut self.monitored {
            if m.awaiting && !m.failed {
                m.misses += 1;
                if m.misses >= MISS_THRESHOLD {
                    m.failed = true;
                    newly_failed.push(m.ep);
                } else if m.misses >= DERATE_MISSES && !m.derated {
                    m.derated = true;
                    newly_suspect.push(m.ep);
                }
            }
        }
        for ep in newly_failed {
            self.on_failure(ctx, ep);
        }
        for ep in newly_suspect {
            self.derate_instance(ctx, ep.addr);
        }
        // Then: ping everyone still managed — including endpoints already
        // declared failed. A failed endpoint that answers again (restarted
        // process, healed partition) is re-admitted by `on_recovery`;
        // without this the controller would strand healed components
        // outside the rotation forever. Administratively removed
        // endpoints are the exception: operator decisions stick.
        let me = Endpoint::new(self.addr, 0);
        let now = ctx.now();
        for m in &mut self.monitored {
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
                let mean =
                    replies.iter().map(|(_, c, _)| c).sum::<f64>() / replies.len() as f64;
                let reqs: u64 = replies.iter().map(|(_, _, r)| r).sum();
                let dt = ctx.now().saturating_sub(self.last_stats_at).as_secs_f64();
                let sample = CpuSample {
                    time: ctx.now(),
                    mean_cpu: mean,
                    active_instances: replies.len(),
                    request_rate: if dt > 0.0 { reqs as f64 / dt } else { 0.0 },
                };
                self.cpu_history.push(sample);
                if let Some(auto) = self.cfg.autoscale {
                    if mean > auto.high_cpu && !self.spares.is_empty() {
                        // Size so mean CPU falls to ~target.
                        let active = replies.len() as f64;
                        let want = (active * mean / auto.target_cpu).ceil() as usize;
                        let add = want.saturating_sub(replies.len());
                        if add > 0 {
                            self.activate_spares(ctx, add);
                        }
                    }
                }
            }
        }
        self.last_stats_at = ctx.now();
        let seq = self.next_stats_seq;
        self.next_stats_seq += 1;
        self.cpu_replies.insert(seq, Vec::new());
        let me = self.me();
        for &inst in &self.instances {
            if self.active.get(&inst).copied().unwrap_or(false) {
                ctx.send(InstanceCtrl::StatsRequest { seq }.into_packet(me, inst));
            }
        }
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
                for m in &mut self.monitored {
                    if m.ep.addr == pkt.src.addr && (m.ep.port == 0 || m.ep.port == pkt.src.port)
                    {
                        m.awaiting = false;
                        m.misses = 0;
                        let rtt = now.saturating_sub(m.ping_sent);
                        m.ewma = if m.ewma == SimTime::ZERO {
                            rtt
                        } else {
                            SimTime::from_micros(
                                (m.ewma.as_micros() * 4 + rtt.as_micros()) / 5,
                            )
                        };
                        if m.failed && !m.removed {
                            m.failed = false;
                            m.derated = false;
                            recovered.push(m.ep);
                        } else if !m.derated && m.ewma > SUSPECT_LATENCY {
                            m.derated = true;
                            slow.push(m.ep);
                        } else if m.derated && m.ewma <= SUSPECT_LATENCY {
                            m.derated = false;
                            healed.push(m.ep);
                        } else if pkt.payload.first() == Some(&1) {
                            // Freshness byte: the component answers pings
                            // but holds no config — it restarted inside
                            // the miss threshold, a crash the ping stream
                            // alone can no longer see. If the controller
                            // believes it is provisioned, re-push state
                            // through the normal recovery path.
                            let addr = m.ep.addr;
                            let believed_serving = self
                                .vips
                                .values()
                                .any(|s| s.instances.contains(&addr))
                                || (self.muxes.contains(&addr) && !self.vips.is_empty());
                            if believed_serving {
                                recovered.push(m.ep);
                            }
                        }
                    }
                }
                for ep in recovered {
                    self.on_recovery(ctx, ep);
                }
                for ep in slow {
                    self.derate_instance(ctx, ep.addr);
                }
                for ep in healed {
                    self.underate_instance(ctx, ep.addr);
                }
            }
            PROTO_CTRL => {
                if let Some(InstanceCtrl::StatsReply {
                    seq,
                    cpu_milli,
                    flows: _,
                    per_vip_requests,
                }) = InstanceCtrl::decode(&pkt.payload)
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
        assert_eq!(c.monitored.len(), 5);
        assert_eq!(c.spares.len(), 1);
    }

    #[test]
    fn monitor_constants_match_paper_600ms() {
        assert_eq!(PING_INTERVAL, SimTime::from_millis(600));
        // Gray-failure hardening: death needs more than one missed ping,
        // and the derate level sits strictly below the death level.
        assert_eq!(MISS_THRESHOLD, 3);
        const { assert!(DERATE_MISSES < MISS_THRESHOLD) };
    }

    use yoda_netsim::{Engine, Topology, Zone};

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
                ) = InstanceCtrl::decode(&pkt.payload)
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
            let reply = Packet::new(pkt.dst, pkt.src, PROTO_PING, pkt.payload.clone());
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
        assert_eq!(c.failures_detected, 0, "one lost pong killed a healthy instance");
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
            assert!(c.vip_instances(vip).is_empty(), "derated instance still mapped");
            assert_eq!(c.failures_detected, 0, "slowness is not death");
        }
        eng.run_for(SimTime::from_secs(10));
        let c = eng.node_ref::<Controller>(cid);
        assert!(c.underates >= 1, "healthy-again instance should be re-admitted");
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
}
