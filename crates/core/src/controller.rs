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
//!   hence detects failure with at most 600ms delay."
//!
//! The decisions live in [`Fleet`] (`controller/fleet.rs`): one
//! `handle(Event) -> Vec<Out>` over each member's role and [`Health`],
//! with no `Ctx`. [`Controller`] is the node around it: it pings, turns
//! pongs and silences into verdicts, polls stats, and sends every
//! [`Out`] in order through one loop.
//!
//! The controller also implements the Figure 13 autoscaler: when the mean
//! instance CPU crosses a threshold it activates spare instances, installs
//! the VIP rules on them, and adds them to the mux mappings — without
//! breaking existing flows (they stay pinned by mux flow tables, and any
//! that move recover via TCPStore).

use std::collections::BTreeMap;

use yoda_netsim::{
    Addr, Bytes, Ctx, Endpoint, Node, Note, Packet, SimTime, TimerToken, PROTO_CTRL, PROTO_PING,
};

use crate::ctrl::{InstanceCtrl, CTRL_PORT};

mod fleet;

use fleet::{Role, Rotation};

pub use fleet::{Event, Fleet, Health, Msg, Out};

const PING_KIND: u32 = 0xC7_01;
const STATS_KIND: u32 = 0xC7_02;

/// Health-ping period (paper: 600 ms).
const PING_INTERVAL: SimTime = SimTime::from_millis(600);
/// Consecutive missed pings before an endpoint is declared dead.
/// The paper declares death after a single 600 ms miss; one gray
/// packet drop then kills a healthy node, so this demands 3.
const MISS_THRESHOLD: u32 = 3;
/// Consecutive missed pings before an instance is derated — it leaves
/// the new-flow VIP maps while monitoring continues. Below
/// `MISS_THRESHOLD`, so it acts as an early suspicion level.
const DERATE_MISSES: u32 = 2;
/// Pong-RTT EWMA above which an instance is derated (suspicion by
/// slowness, not just silence: a browning node answers pings late).
const SUSPECT_LATENCY: SimTime = SimTime::from_millis(10);
/// Stats-poll period.
const STATS_INTERVAL: SimTime = SimTime::from_secs(1);
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

/// The ping bookkeeping of one member (same index as in the [`Fleet`]).
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    awaiting: bool,
    /// Consecutive ping cycles with no pong (reset by any pong).
    misses: u32,
    /// When the most recent ping was sent (for pong RTT).
    ping_sent: SimTime,
    /// Pong-RTT EWMA; `ZERO` until the first sample.
    ewma: SimTime,
}

/// One CPU/utilisation sample from the stats poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// When the sample was taken.
    pub time: SimTime,
    /// Mean CPU across active instances (0..1).
    pub mean_cpu: f64,
}

/// The controller node.
#[derive(Default)]
pub struct Controller {
    addr: Addr,
    cfg: ControllerConfig,
    fleet: Fleet,
    probes: Vec<Probe>,
    /// The last stats request's sequence number.
    stats_seq: u64,
    /// CPU utilisation (0..1) each instance reported, by stats round.
    cpu_replies: BTreeMap<u64, Vec<f64>>,
    /// Recoveries detected by the monitor (a previously failed endpoint
    /// answering pings again).
    pub recoveries_detected: u64,
    /// Instances derated on suspicion (slow or missing pongs) before any
    /// death verdict.
    pub derates: u64,
    /// Derated instances re-admitted after looking healthy again.
    pub underates: u64,
    /// Instances activated by the autoscaler.
    pub(crate) instances_added: u64,
    /// CPU/request-rate samples over time (Figure 13's series).
    pub cpu_history: Vec<CpuSample>,
    /// When each failure was detected, and of what.
    pub failure_times: Vec<(SimTime, Endpoint)>,
}

impl Controller {
    /// Creates a controller bound to `addr`.
    pub fn new(cfg: ControllerConfig, addr: Addr) -> Self {
        let c = Controller::default();
        Controller { addr, cfg, ..c }
    }

    /// Registers the L4 layer.
    pub fn set_l4(&mut self, router: Addr, muxes: Vec<Addr>) {
        (self.fleet.router, self.fleet.muxes) = (Some(router), muxes);
    }

    /// Registers an active Yoda instance (monitored and serving).
    pub fn register_instance(&mut self, addr: Addr) {
        self.fleet
            .register(Endpoint::new(addr, 0), Role::Instance(Rotation::In));
    }

    /// Registers a spare instance (monitored, idle until the autoscaler
    /// activates it).
    pub fn register_spare(&mut self, addr: Addr) {
        self.fleet
            .register(Endpoint::new(addr, 0), Role::Instance(Rotation::Spare));
    }

    /// Registers a backend server for health monitoring.
    pub fn register_backend(&mut self, ep: Endpoint) {
        self.fleet.register(ep, Role::Backend);
    }

    /// Registers a TCPStore server for health monitoring.
    pub fn register_store(&mut self, addr: Addr) {
        self.fleet.register(Endpoint::new(addr, 0), Role::Store);
    }

    /// Enables health monitoring of the L4 muxes themselves (the L4 LB
    /// has its own resilience in the paper; monitoring here propagates
    /// the shrunken mux set to the router and to the instances' SNAT
    /// egress lists).
    pub fn monitor_muxes(&mut self) {
        for m in self.fleet.muxes.clone() {
            self.fleet.register(Endpoint::new(m, 0), Role::Mux);
        }
    }

    /// What the controller believes and decides with.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Whether a VIP is registered.
    pub(crate) fn has_vip(&self, vip: Endpoint) -> bool {
        self.fleet.vips.contains_key(&vip)
    }

    /// Whether `addr` is currently suspected (derated) by the monitor.
    pub fn is_derated(&self, addr: Addr) -> bool {
        let mut members = self.fleet.members();
        members.any(|(ep, h, _)| ep.addr == addr && h == Health::Derated)
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
    pub(crate) fn add_vip_ssl(
        &mut self,
        ctx: &mut Ctx<'_>,
        vip: Endpoint,
        rules_text: &str,
        instances: Vec<Addr>,
        ssl_cert_len: Option<u32>,
    ) {
        let rules_text = rules_text.to_string();
        self.apply(ctx, Event::AddVip(vip, rules_text, instances, ssl_cert_len));
    }

    /// The rule text currently installed for each VIP — the controller's
    /// side of the convergence fingerprint chaos invariants compare
    /// against live instances.
    pub fn vip_rules_text(&self) -> BTreeMap<Endpoint, String> {
        let vips = self.fleet.vips.iter();
        vips.map(|(vip, s)| (*vip, s.rules_text.clone())).collect()
    }

    /// Instances currently serving `vip`: its assignment minus those out
    /// of rotation.
    pub fn vip_instances(&self, vip: Endpoint) -> Vec<Addr> {
        self.fleet.vip_instances(vip)
    }

    /// Removes a VIP: reverse order of addition (§5.2).
    pub fn remove_vip(&mut self, ctx: &mut Ctx<'_>, vip: Endpoint) {
        self.apply(ctx, Event::RemoveVip(vip));
    }

    /// Updates a VIP's policy (rules) without touching placement; new
    /// rules apply to new connections only (§5.2).
    pub(crate) fn update_policy(&mut self, ctx: &mut Ctx<'_>, vip: Endpoint, rules_text: &str) {
        self.apply(ctx, Event::UpdatePolicy(vip, rules_text.to_string()));
    }

    /// Marks a backend as administratively removed (treated as failure,
    /// §5.2 "Backend server failure").
    pub fn remove_backend(&mut self, ctx: &mut Ctx<'_>, backend: Endpoint) {
        self.apply(ctx, Event::RemoveBackend(backend));
    }

    /// Activates `n` spare instances, most recently registered first:
    /// install every VIP's rules, then add them to the mux mappings.
    /// Returns how many were activated.
    pub(crate) fn activate_spares(&mut self, ctx: &mut Ctx<'_>, n: usize) -> usize {
        let before = self.instances_added;
        self.apply(ctx, Event::ActivateSpares(n));
        (self.instances_added - before) as usize
    }

    /// Hands `ev` to the fleet, then sends and notes what it decided, in
    /// order. The notes also keep the counters.
    fn apply(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let me = Endpoint::new(self.addr, CTRL_PORT);
        for out in self.fleet.handle(ev) {
            match out {
                Out::Send(d, to, Msg::L4(m)) => ctx.send_after(d, m.into_packet(me, to)),
                Out::Send(d, to, Msg::Instance(m)) => ctx.send_after(d, m.into_packet(me, to)),
                Out::Note(note) => self.note(ctx, note),
            }
        }
    }

    /// Counts a decision and traces it.
    fn note(&mut self, ctx: &mut Ctx<'_>, note: Note) {
        match note {
            Note::FailureDetected { member } => self.failure_times.push((ctx.now(), member)),
            Note::RecoveryDetected { .. } => self.recoveries_detected += 1,
            Note::Derated { .. } => self.derates += 1,
            Note::Readmitted { .. } => self.underates += 1,
            Note::SpareActivated { .. } => self.instances_added += 1,
            _ => {}
        }
        ctx.trace(note);
    }

    fn ping_cycle(&mut self, ctx: &mut Ctx<'_>) {
        self.probes
            .resize(self.fleet.members().count(), Probe::default());
        // First: account a miss for anything that did not answer the
        // previous ping. `MISS_THRESHOLD` consecutive misses mean death,
        // with `DERATE_MISSES` as the earlier, reversible suspicion level.
        // All deaths are handled before any derate, each death marked as
        // it is handled, so the live mux set a reaction sends sees the
        // muxes handled before it dead and the rest still alive.
        let (mut failed, mut suspect) = (Vec::new(), Vec::new());
        let members = self.probes.iter_mut().zip(self.fleet.members());
        for (i, (p, (_, health, instance))) in members.enumerate() {
            if p.awaiting && health.alive() {
                p.misses += 1;
                if p.misses >= MISS_THRESHOLD {
                    failed.push(Event::Failed(i));
                } else if p.misses >= DERATE_MISSES && instance && health == Health::Up {
                    suspect.push(Event::Derated(i));
                }
            }
        }
        for ev in failed.into_iter().chain(suspect) {
            self.apply(ctx, ev);
        }
        // Then: ping everyone still managed — including endpoints already
        // declared failed, so a restarted process or a healed partition
        // is re-admitted when it answers. Removed endpoints are the
        // exception: operator decisions stick.
        let me = Endpoint::new(self.addr, 0);
        let now = ctx.now();
        for (p, (ep, health, _)) in self.probes.iter_mut().zip(self.fleet.members()) {
            if health == Health::Removed {
                continue;
            }
            p.awaiting = health.alive();
            p.ping_sent = now;
            ctx.send(Packet::new(me, ep, PROTO_PING, Bytes::new()));
        }
        ctx.set_timer(PING_INTERVAL, TimerToken::new(PING_KIND));
    }

    /// A pong clears the miss streak and feeds the RTT EWMA; it is a
    /// recovery from a member believed dead, a derate when the EWMA is
    /// slow (a browning node answers, but late), a readmission when a
    /// derated one is prompt again, and a recovery when its freshness
    /// byte says it restarted holding no config while believed
    /// provisioned (a crash inside the miss threshold, which the ping
    /// stream alone cannot see).
    fn on_pong(&mut self, ctx: &mut Ctx<'_>, src: Endpoint, fresh: bool) {
        let mut verdicts = Vec::new();
        let members = self.probes.iter_mut().zip(self.fleet.members());
        for (i, (p, (ep, health, instance))) in members.enumerate() {
            if ep.addr != src.addr || (ep.port != 0 && ep.port != src.port) {
                continue;
            }
            (p.awaiting, p.misses) = (false, 0);
            let rtt = ctx.now().saturating_sub(p.ping_sent);
            // The first sample seeds the average.
            let old = if p.ewma == SimTime::ZERO { rtt } else { p.ewma };
            p.ewma = SimTime::from_micros((old.as_micros() * 4 + rtt.as_micros()) / 5);
            let slow = p.ewma > SUSPECT_LATENCY;
            verdicts.push(match health {
                Health::Failed => Event::Recovered(i),
                Health::Up if slow && instance => Event::Derated(i),
                Health::Derated if !slow => Event::Readmitted(i),
                _ if fresh && self.fleet.provisioned(i) => Event::Recovered(i),
                _ => continue,
            });
        }
        for ev in verdicts {
            self.apply(ctx, ev);
        }
    }

    fn stats_cycle(&mut self, ctx: &mut Ctx<'_>) {
        // Aggregate the previous round's replies first.
        let replies = self.cpu_replies.remove(&self.stats_seq).unwrap_or_default();
        if !replies.is_empty() {
            let mean = replies.iter().sum::<f64>() / replies.len() as f64;
            let sample = CpuSample {
                time: ctx.now(),
                mean_cpu: mean,
            };
            self.cpu_history.push(sample);
            if self.cfg.autoscale && mean > HIGH_CPU {
                // Size so mean CPU falls to ~target.
                let active = replies.len() as f64;
                let want = (active * mean / TARGET_CPU).ceil() as usize;
                self.activate_spares(ctx, want.saturating_sub(replies.len()));
            }
        }
        self.stats_seq += 1;
        let seq = self.stats_seq;
        self.cpu_replies.insert(seq, Vec::new());
        let me = Endpoint::new(self.addr, CTRL_PORT);
        for inst in self.fleet.active_instances() {
            ctx.send(InstanceCtrl::StatsRequest { seq }.into_packet(me, inst));
        }
        ctx.set_timer(STATS_INTERVAL, TimerToken::new(STATS_KIND));
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(PING_INTERVAL, TimerToken::new(PING_KIND));
        ctx.set_timer(STATS_INTERVAL, TimerToken::new(STATS_KIND));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match pkt.protocol {
            PROTO_PING => {
                let fresh = pkt.message().and_then(|m| m.first()) == Some(&1);
                self.on_pong(ctx, pkt.src, fresh);
            }
            PROTO_CTRL => {
                if let Some(InstanceCtrl::StatsReply { seq, cpu_milli }) =
                    pkt.message().and_then(InstanceCtrl::decode)
                {
                    if let Some(bucket) = self.cpu_replies.get_mut(&seq) {
                        bucket.push(cpu_milli as f64 / 1000.0);
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
        let active = vec![Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2)];
        assert_eq!(c.fleet.active_instances(), active, "the spare is idle");
        assert_eq!(c.fleet.members().count(), 5);
    }

    #[test]
    fn monitor_constants_match_paper_600ms() {
        assert_eq!(PING_INTERVAL, SimTime::from_millis(600));
        // Gray-failure hardening: death needs more than one missed ping,
        // and the derate level sits strictly below the death level.
        assert_eq!(MISS_THRESHOLD, 3);
        const { assert!(DERATE_MISSES < MISS_THRESHOLD) };
    }
}
