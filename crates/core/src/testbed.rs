//! Full-system testbed assembly (paper §7 *Setup*).
//!
//! Builds the simulated equivalent of the paper's 60-VM Azure deployment:
//! an edge router owning the VIPs, a pool of L4 muxes, Yoda instances
//! (active + spares), TCPStore servers, backend origin servers split
//! across several emulated online services (VIPs), and the controller —
//! then lets scenarios attach clients and script failures.

use std::sync::Arc;

use yoda_http::{
    BrowserClient, BrowserConfig, OriginServer, RateClient, RateClientConfig, ServerConfig,
    SiteCatalog, SiteConfig,
};
use yoda_l4lb::{EdgeRouter, Mux};
use yoda_netsim::{Addr, Endpoint, Engine, Node, NodeId, SimTime, Topology, Zone};
use yoda_tcpstore::{StoreServer, StoreServerConfig};

use crate::controller::{Controller, ControllerConfig};
use crate::instance::{YodaConfig, YodaInstance};
use crate::proxy::ProxyInstance;

/// Testbed shape. Defaults mirror the paper's 60-VM deployment: 10 Yoda
/// instances, 10 Memcached servers, 30 backends over 4 online services,
/// and 10 L4 muxes.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// RNG seed for the engine and catalog.
    pub seed: u64,
    /// Active Yoda instances.
    pub num_instances: usize,
    /// Spare (idle) instances available to the autoscaler.
    pub num_spares: usize,
    /// TCPStore servers.
    pub num_stores: usize,
    /// Backend servers, partitioned round-robin across the services.
    pub num_backends: usize,
    /// L4 muxes.
    pub num_muxes: usize,
    /// Online services (each gets one VIP and one site).
    pub num_services: usize,
    /// Pages per site in the catalog.
    pub pages_per_site: usize,
    /// Yoda instance tuning.
    pub yoda: YodaConfig,
    /// Controller tuning.
    pub controller: ControllerConfig,
    /// Store server tuning.
    pub store: StoreServerConfig,
    /// Backend settings: none (see [`ServerConfig`]).
    pub backend: ServerConfig,
    /// Network topology.
    pub topology: Topology,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 42,
            num_instances: 10,
            num_spares: 0,
            num_stores: 10,
            num_backends: 30,
            num_muxes: 10,
            num_services: 4,
            pages_per_site: 60,
            yoda: YodaConfig::default(),
            controller: ControllerConfig::default(),
            store: StoreServerConfig::default(),
            backend: ServerConfig,
            topology: Topology::azure_testbed(),
        }
    }
}

/// Builds the L7 instance at an address, given the store and mux
/// addresses (a tier with no use for them ignores them).
pub(crate) type MakeInstance = dyn Fn(Addr, &[Addr], &[Addr]) -> Box<dyn Node> + Send + Sync;

/// What fills the testbed's L7 slot: everything else — router, muxes,
/// stores, backends, controller, clients — is the same for every tier.
#[derive(Clone)]
pub struct Tier {
    /// Instance node-name prefix (`yoda`, `haproxy`).
    pub prefix: &'static str,
    /// Instance constructor, kept by the testbed to restore instances.
    pub make: Arc<MakeInstance>,
}

impl Tier {
    /// The HAProxy-style baseline's tier: its instances keep all flow
    /// state locally, so the store and mux addresses go unused.
    pub fn proxy() -> Tier {
        Tier {
            prefix: "haproxy",
            make: Arc::new(|addr, _stores, _muxes| Box::new(ProxyInstance::new(addr))),
        }
    }
}

/// `n` host addresses `a.b.c.1 ..= a.b.c.n`.
///
/// # Panics
///
/// Panics when `n > 254`: the host octet would wrap and the testbed would
/// silently be smaller than its config says.
fn addrs(n: usize, a: u8, b: u8, c: u8) -> Vec<Addr> {
    assert!(
        n <= 254,
        "{n} nodes do not fit the /24 {a}.{b}.{c}.0 (at most 254)"
    );
    (1..=n as u8).map(|i| Addr::new(a, b, c, i)).collect()
}

/// A built testbed: the engine plus handles to every component.
pub struct Testbed {
    /// The simulation engine.
    pub engine: Engine,
    /// Controller node.
    pub controller: NodeId,
    /// Edge router node.
    pub router: NodeId,
    /// Mux nodes.
    pub muxes: Vec<NodeId>,
    /// Mux addresses.
    pub mux_addrs: Vec<Addr>,
    /// Active Yoda instance nodes.
    pub instances: Vec<NodeId>,
    /// Active instance addresses.
    pub instance_addrs: Vec<Addr>,
    /// Spare instance nodes.
    pub spares: Vec<NodeId>,
    /// Store server nodes.
    pub stores: Vec<NodeId>,
    /// Store addresses.
    pub store_addrs: Vec<Addr>,
    /// Backend nodes.
    pub backends: Vec<NodeId>,
    /// Backend endpoints, grouped per service.
    pub service_backends: Vec<Vec<Endpoint>>,
    /// One VIP per service.
    pub vips: Vec<Endpoint>,
    /// The shared website catalog (site *i* belongs to service *i*).
    pub catalog: Arc<SiteCatalog>,
    /// The L7 tier built (for instance restoration).
    tier: Tier,
    /// Store server configuration used (for store restoration).
    pub(crate) store_cfg: StoreServerConfig,
    next_client_host: u8,
}

impl Testbed {
    /// Assembles the paper's deployment: Yoda instances in the L7 slot,
    /// and a controller that also health-checks the muxes. Only this
    /// deployment monitors them: mux pings draw from the engine-global
    /// link-jitter stream, so turning them on for another tier moves that
    /// tier's committed figures.
    pub fn build(cfg: TestbedConfig) -> Testbed {
        let yoda = cfg.yoda.clone();
        let tier = Tier {
            prefix: "yoda",
            make: Arc::new(move |addr, stores, muxes| {
                Box::new(YodaInstance::new(
                    yoda.clone(),
                    addr,
                    stores,
                    muxes.to_vec(),
                ))
            }),
        };
        let mut tb = Testbed::build_with(cfg, tier);
        tb.engine
            .node_mut::<Controller>(tb.controller)
            .monitor_muxes();
        tb
    }

    /// Assembles the baseline deployment (§7 *Setup*): the same router,
    /// muxes, backends, controller and clients as [`Testbed::build`],
    /// with HAProxy-style instances in the L7 slot ([`Tier::proxy`]), no
    /// store servers and no spares (`cfg.yoda` and `cfg.store` go
    /// unread).
    pub fn build_proxy(cfg: TestbedConfig) -> Testbed {
        let cfg = TestbedConfig {
            num_stores: 0,
            num_spares: 0,
            ..cfg
        };
        Testbed::build_with(cfg, Tier::proxy())
    }

    /// Assembles the testbed around `tier` and installs the default
    /// policy: each VIP splits traffic equally across its service's
    /// backends, on every active instance (the paper's testbed assigns
    /// all four services to all ten instances). `cfg.yoda` is read only
    /// by the tier [`Testbed::build`] passes.
    pub fn build_with(cfg: TestbedConfig, tier: Tier) -> Testbed {
        let mut engine = Engine::with_topology(cfg.seed, cfg.topology.clone());

        let router_addr = Addr::new(10, 0, 3, 1);
        let controller_addr = Addr::new(10, 0, 4, 1);
        let mux_addrs = addrs(cfg.num_muxes, 10, 0, 2);
        let instance_addrs = addrs(cfg.num_instances, 10, 0, 0);
        let spare_addrs = addrs(cfg.num_spares, 10, 0, 5);
        let store_addrs = addrs(cfg.num_stores, 10, 0, 1);
        let backend_addrs = addrs(cfg.num_backends, 10, 1, 0);
        let vips: Vec<Endpoint> = addrs(cfg.num_services, 100, 0, 0)
            .into_iter()
            .map(|a| Endpoint::new(a, 80))
            .collect();

        // Catalog: one site per service.
        let site_cfgs: Vec<SiteConfig> = (0..cfg.num_services)
            .map(|s| SiteConfig {
                pages: cfg.pages_per_site,
                embedded_per_page: (4, 12),
                host: format!("service{s}.test"),
            })
            .collect();
        let catalog = Arc::new(SiteCatalog::generate(cfg.seed, &site_cfgs));

        // Router (owns all VIPs).
        let router = engine.add_node(
            "router",
            router_addr,
            Zone::Dc,
            Box::new(EdgeRouter::new(router_addr, mux_addrs.clone())),
        );
        for vip in &vips {
            engine.add_addr(router, vip.addr);
        }

        // Muxes.
        let muxes: Vec<NodeId> = mux_addrs
            .iter()
            .map(|&m| engine.add_node(format!("mux-{m}"), m, Zone::Dc, Box::new(Mux::new(m))))
            .collect();

        // Store servers.
        let stores: Vec<NodeId> = store_addrs
            .iter()
            .map(|&s| {
                engine.add_node(
                    format!("store-{s}"),
                    s,
                    Zone::Dc,
                    Box::new(StoreServer::new(cfg.store, s)),
                )
            })
            .collect();

        // L7 instances (active + spare) — spares are full instances
        // with no VIPs installed yet.
        let prefix = tier.prefix;
        let mk_instance = |addr: Addr| (tier.make)(addr, &store_addrs, &mux_addrs);
        let instances: Vec<NodeId> = instance_addrs
            .iter()
            .map(|&a| engine.add_node(format!("{prefix}-{a}"), a, Zone::Dc, mk_instance(a)))
            .collect();
        let spares: Vec<NodeId> = spare_addrs
            .iter()
            .map(|&a| engine.add_node(format!("{prefix}-spare-{a}"), a, Zone::Dc, mk_instance(a)))
            .collect();

        // Backends, split round-robin across services.
        let mut service_backends: Vec<Vec<Endpoint>> = vec![Vec::new(); cfg.num_services];
        let backends: Vec<NodeId> = backend_addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let ep = Endpoint::new(a, 80);
                if let Some(sb) = service_backends.get_mut(i % cfg.num_services) {
                    sb.push(ep);
                }
                engine.add_node(
                    format!("backend-{a}"),
                    a,
                    Zone::Dc,
                    Box::new(OriginServer::new(cfg.backend.clone(), ep, catalog.clone())),
                )
            })
            .collect();

        // Controller.
        let mut controller_node = Controller::new(cfg.controller.clone(), controller_addr);
        controller_node.set_l4(router_addr, mux_addrs.clone());
        for &a in &instance_addrs {
            controller_node.register_instance(a);
        }
        for &a in &spare_addrs {
            controller_node.register_spare(a);
        }
        for sb in &service_backends {
            for &ep in sb {
                controller_node.register_backend(ep);
            }
        }
        for &s in &store_addrs {
            controller_node.register_store(s);
        }
        let controller = engine.add_node(
            "controller",
            controller_addr,
            Zone::Dc,
            Box::new(controller_node),
        );

        let mut tb = Testbed {
            engine,
            controller,
            router,
            muxes,
            mux_addrs,
            instances,
            instance_addrs,
            spares,
            stores,
            store_addrs,
            backends,
            service_backends,
            vips,
            catalog,
            tier,
            store_cfg: cfg.store,
            next_client_host: 1,
        };
        // Install the default equal-split policy for every service via
        // the controller at t=0 (runs as a scheduled control action).
        for (s, vip) in tb.vips.clone().into_iter().enumerate() {
            let rules = tb.equal_split_rules(s);
            tb.set_policy(vip, &rules);
        }
        tb
    }

    /// The default rule text for service `s`: equal-weight split across
    /// its backends.
    pub fn equal_split_rules(&self, service: usize) -> String {
        let backends: Vec<String> = nth(&self.service_backends, service)
            .iter()
            .map(|b| format!("{b}=1"))
            .collect();
        format!(
            "name=default-{service} priority=1 match * action=split {}",
            backends.join(" ")
        )
    }

    /// Applies a policy for `vip` through the controller: adds the VIP on
    /// every active instance the first time, updates rules afterwards.
    pub fn set_policy(&mut self, vip: Endpoint, rules_text: &str) {
        self.set_policy_at(vip, rules_text, self.engine.now());
    }

    /// Schedules a policy application at a future simulated time (the
    /// operator actions of the Figure 14 experiment).
    pub fn set_policy_at(&mut self, vip: Endpoint, rules_text: &str, at: SimTime) {
        let controller = self.controller;
        let rules = rules_text.to_string();
        let instances = self.instance_addrs.clone();
        self.engine.schedule(at, move |eng| {
            eng.with_node_ctx::<Controller>(controller, move |c, ctx| {
                if c.has_vip(vip) {
                    c.update_policy(ctx, vip, &rules);
                } else {
                    c.add_vip(ctx, vip, &rules, instances);
                }
            });
        });
    }

    /// Schedules an SSL-terminated policy: the VIP's instances will serve
    /// a certificate of `cert_len` bytes to every new connection (§5.2).
    pub fn set_ssl_policy_at(
        &mut self,
        vip: Endpoint,
        rules_text: &str,
        cert_len: u32,
        at: SimTime,
    ) {
        let controller = self.controller;
        let rules = rules_text.to_string();
        let instances = self.instance_addrs.clone();
        self.engine.schedule(at, move |eng| {
            eng.with_node_ctx::<Controller>(controller, move |c, ctx| {
                c.add_vip_ssl(ctx, vip, &rules, instances, Some(cert_len));
            });
        });
    }

    /// Attaches a closed-loop browser for service `service`.
    pub fn add_browser(&mut self, service: usize, cfg: BrowserConfig) -> NodeId {
        let addr = self.next_client_addr();
        let cfg = BrowserConfig {
            site: service,
            target: *nth(&self.vips, service),
            host: format!("service{service}.test"),
            ..cfg
        };
        self.engine.add_node(
            format!("browser-{addr}"),
            addr,
            Zone::External,
            Box::new(BrowserClient::new(cfg, addr, self.catalog.clone())),
        )
    }

    /// Attaches an open-loop rate client for service `service`.
    pub fn add_rate_client(&mut self, service: usize, cfg: RateClientConfig) -> NodeId {
        let addr = self.next_client_addr();
        let cfg = RateClientConfig {
            site: service,
            target: *nth(&self.vips, service),
            host: format!("service{service}.test"),
            ..cfg
        };
        self.engine.add_node(
            format!("rate-{addr}"),
            addr,
            Zone::External,
            Box::new(RateClient::new(cfg, addr, self.catalog.clone())),
        )
    }

    fn next_client_addr(&mut self) -> Addr {
        let host = self.next_client_host;
        self.next_client_host = self.next_client_host.wrapping_add(1);
        Addr::new(172, 16, 1, host)
    }

    /// Fails L7 instance `i` at simulated time `at`.
    pub fn fail_instance_at(&mut self, i: usize, at: SimTime) {
        let id = *nth(&self.instances, i);
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }

    /// Fails backend `i` at simulated time `at`.
    pub fn fail_backend_at(&mut self, i: usize, at: SimTime) {
        let id = *nth(&self.backends, i);
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }

    /// Restarts node `id` at `at` **with fresh state**, built as its role
    /// builds it: an instance with an empty flow table and no VIPs (the
    /// controller re-detects it via pings and reinstalls its rules and
    /// mux mappings), a store server with an empty table (keys it held
    /// survive on their other replica while fewer than the replication
    /// factor of stores are down at once), a mux with a cold flow table
    /// (re-added to the router's ECMP set once the controller has pushed
    /// it the current VIP maps), or a backend (the controller broadcasts
    /// `BackendUp` once it sees pongs again). Any other node is left
    /// alone.
    pub fn restore_at(&mut self, id: NodeId, at: SimTime) {
        let find = |list: &[NodeId]| list.iter().position(|&n| n == id);
        let fresh: Box<dyn FnOnce() -> Box<dyn Node> + Send> =
            if let Some(i) = find(&self.instances) {
                let addr = *nth(&self.instance_addrs, i);
                let make = self.tier.make.clone();
                let store_addrs = self.store_addrs.clone();
                let mux_addrs = self.mux_addrs.clone();
                Box::new(move || make(addr, &store_addrs, &mux_addrs))
            } else if let Some(i) = find(&self.stores) {
                let (cfg, addr) = (self.store_cfg, *nth(&self.store_addrs, i));
                Box::new(move || Box::new(StoreServer::new(cfg, addr)))
            } else if let Some(i) = find(&self.muxes) {
                let addr = *nth(&self.mux_addrs, i);
                Box::new(move || Box::new(Mux::new(addr)))
            } else if let Some(i) = find(&self.backends) {
                let services = self.service_backends.len();
                let group = nth(&self.service_backends, i % services);
                let ep = *nth(group, i / services);
                let catalog = self.catalog.clone();
                Box::new(move || Box::new(OriginServer::new(ServerConfig, ep, catalog)))
            } else {
                return;
            };
        self.engine
            .schedule(at, move |eng| eng.restore_node(id, fresh()));
    }

    /// Scales store server `i`'s per-op CPU service time by `factor` at
    /// `at` (gray failure: the store stays alive and answers pings, just
    /// slowly). Pass `1.0` to heal.
    pub fn slowdown_store_at(&mut self, i: usize, factor: f64, at: SimTime) {
        let id = *nth(&self.stores, i);
        self.engine.schedule(at, move |eng| {
            if let Some(s) = eng.try_node_mut::<StoreServer>(id) {
                s.set_speed_factor(factor);
            }
        });
    }

    /// Scales backend `i`'s service time by `factor` at `at`. Pass `1.0`
    /// to heal.
    pub fn slowdown_backend_at(&mut self, i: usize, factor: f64, at: SimTime) {
        let id = *nth(&self.backends, i);
        self.engine.schedule(at, move |eng| {
            if let Some(s) = eng.try_node_mut::<OriginServer>(id) {
                s.set_speed_factor(factor);
            }
        });
    }
}

/// Entry `i` of one of the testbed's role lists (instances, muxes,
/// stores, backends, services' VIPs and backends).
#[track_caller]
#[expect(
    clippy::indexing_slicing,
    reason = "scenario scripts name nodes by their index in the lists their own TestbedConfig sized; out of range is a script bug, and no handler calls this"
)]
fn nth<T>(list: &[T], i: usize) -> &T {
    &list[i]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_default_testbed() {
        let tb = Testbed::build(TestbedConfig::default());
        assert_eq!(tb.instances.len(), 10);
        assert_eq!(tb.stores.len(), 10);
        assert_eq!(tb.backends.len(), 30);
        assert_eq!(tb.muxes.len(), 10);
        assert_eq!(tb.vips.len(), 4);
        // 30 backends over 4 services: 8/8/7/7.
        let sizes: Vec<usize> = tb.service_backends.iter().map(|s| s.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 30);
    }

    #[test]
    fn a_subnet_holds_254_hosts() {
        assert!(addrs(0, 10, 1, 0).is_empty());
        let full = addrs(254, 10, 1, 0);
        assert_eq!(full.len(), 254);
        assert_eq!(full[0], Addr::new(10, 1, 0, 1));
        assert_eq!(full[253], Addr::new(10, 1, 0, 254));
    }

    #[test]
    #[should_panic(expected = "300 nodes do not fit")]
    fn an_oversized_tier_is_refused_not_truncated() {
        // `300 as u8` is 44: truncation would build 44 backends.
        Testbed::build(TestbedConfig {
            num_backends: 300,
            ..TestbedConfig::default()
        });
    }

    #[test]
    fn proxy_serves_pages() {
        let mut tb = Testbed::build_proxy(TestbedConfig {
            num_instances: 3,
            num_backends: 6,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 10,
            ..TestbedConfig::default()
        });
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 3,
                max_pages: Some(2),
                ..BrowserConfig::default()
            },
        );
        tb.engine.run_for(SimTime::from_secs(60));
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        assert_eq!(b.pages_completed, 6);
        assert_eq!(b.broken_flows, 0);
        let total: u64 = tb
            .instances
            .iter()
            .map(|&i| tb.engine.node_ref::<ProxyInstance>(i).requests)
            .sum();
        assert_eq!(total, b.completed);
    }

    #[test]
    fn proxy_failure_breaks_flows() {
        // The paper's Problem 1: kill a proxy mid-run; its flows hang and
        // (with no browser retry) time out.
        let mut tb = Testbed::build_proxy(TestbedConfig {
            num_instances: 2,
            num_backends: 4,
            num_muxes: 2,
            num_services: 1,
            pages_per_site: 10,
            ..TestbedConfig::default()
        });
        let browser = tb.add_browser(
            0,
            BrowserConfig {
                processes: 6,
                max_pages: Some(4),
                http_timeout: SimTime::from_secs(10),
                retries: 0,
                ..BrowserConfig::default()
            },
        );
        tb.fail_instance_at(0, SimTime::from_secs(3));
        tb.engine.run_for(SimTime::from_secs(240));
        let b = tb.engine.node_ref::<BrowserClient>(browser);
        assert!(
            b.timeouts > 0,
            "flows through the dead proxy must hit the HTTP timeout"
        );
        assert!(b.broken_flows > 0, "noretry leaves flows broken");
    }
}
