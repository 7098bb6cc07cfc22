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
    /// Backend tuning.
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
            backend: ServerConfig::default(),
            topology: Topology::azure_testbed(),
        }
    }
}

/// Builds the L7 instance at an address, given the store and mux
/// addresses (a tier with no use for them ignores them).
pub type MakeInstance = dyn Fn(Addr, &[Addr], &[Addr]) -> Box<dyn Node> + Send + Sync;

/// What fills the testbed's L7 slot: everything else — router, muxes,
/// stores, backends, controller, clients — is the same for every tier.
#[derive(Clone)]
pub struct Tier {
    /// Instance node-name prefix (`yoda`, `haproxy`).
    pub prefix: &'static str,
    /// Instance constructor, kept by the testbed to restore instances.
    pub make: Arc<MakeInstance>,
}

/// `n` host addresses `a.b.c.1 ..= a.b.c.n`.
///
/// # Panics
///
/// Panics when `n > 254`: the host octet would wrap and the testbed would
/// silently be smaller than its config says.
fn addrs(n: usize, a: u8, b: u8, c: u8) -> Vec<Addr> {
    assert!(n <= 254, "{n} nodes do not fit the /24 {a}.{b}.{c}.0 (at most 254)");
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
    /// Spare addresses.
    pub spare_addrs: Vec<Addr>,
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
    pub store_cfg: StoreServerConfig,
    /// Backend configuration used (for backend restoration).
    pub backend_cfg: ServerConfig,
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
                Box::new(YodaInstance::new(yoda.clone(), addr, stores, muxes.to_vec()))
            }),
        };
        let mut tb = Testbed::build_with(cfg, tier);
        tb.engine
            .node_mut::<Controller>(tb.controller)
            .monitor_muxes();
        tb
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
                service_backends[i % cfg.num_services].push(ep);
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
        let controller = engine.add_node("controller", controller_addr, Zone::Dc, Box::new(controller_node));

        let mut tb = Testbed {
            engine,
            controller,
            router,
            muxes,
            mux_addrs,
            instances,
            instance_addrs,
            spares,
            spare_addrs,
            stores,
            store_addrs,
            backends,
            service_backends,
            vips,
            catalog,
            tier,
            store_cfg: cfg.store,
            backend_cfg: cfg.backend,
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
        let backends: Vec<String> = self.service_backends[service]
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
            target: self.vips[service],
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
            target: self.vips[service],
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
        let id = self.instances[i];
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }

    /// Fails backend `i` at simulated time `at`.
    pub fn fail_backend_at(&mut self, i: usize, at: SimTime) {
        let id = self.backends[i];
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }

    /// Fails store server `i` at simulated time `at`.
    pub fn fail_store_at(&mut self, i: usize, at: SimTime) {
        let id = self.stores[i];
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }

    /// Fails mux `i` at simulated time `at`.
    pub fn fail_mux_at(&mut self, i: usize, at: SimTime) {
        let id = self.muxes[i];
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }

    /// Fails the controller at simulated time `at` (data plane keeps
    /// forwarding; health monitoring and policy pushes stop).
    pub fn fail_controller_at(&mut self, at: SimTime) {
        let id = self.controller;
        self.engine.schedule(at, move |eng| eng.fail_node(id));
    }

    /// Restarts L7 instance `i` at `at` **with fresh state** (empty flow
    /// table, no VIPs). The controller re-detects it via pings and
    /// reinstalls its rules and mux mappings.
    pub fn restore_instance_at(&mut self, i: usize, at: SimTime) {
        let id = self.instances[i];
        let addr = self.instance_addrs[i];
        let make = self.tier.make.clone();
        let store_addrs = self.store_addrs.clone();
        let mux_addrs = self.mux_addrs.clone();
        self.engine.schedule(at, move |eng| {
            eng.restore_node(id, make(addr, &store_addrs, &mux_addrs));
        });
    }

    /// Restarts store server `i` at `at` with an empty table. Keys it held
    /// survive on their other replica as long as fewer than the
    /// replication factor of stores are down at once.
    pub fn restore_store_at(&mut self, i: usize, at: SimTime) {
        let id = self.stores[i];
        let addr = self.store_addrs[i];
        let cfg = self.store_cfg;
        self.engine.schedule(at, move |eng| {
            eng.restore_node(id, Box::new(StoreServer::new(cfg, addr)));
        });
    }

    /// Restarts mux `i` at `at` with a cold flow table. The controller
    /// re-detects it and pushes the current VIP maps before re-adding it
    /// to the router's ECMP set.
    pub fn restore_mux_at(&mut self, i: usize, at: SimTime) {
        let id = self.muxes[i];
        let addr = self.mux_addrs[i];
        self.engine.schedule(at, move |eng| {
            eng.restore_node(id, Box::new(Mux::new(addr)));
        });
    }

    /// Restarts backend `i` at `at`. The controller broadcasts
    /// `BackendUp` once it sees pongs again.
    pub fn restore_backend_at(&mut self, i: usize, at: SimTime) {
        let id = self.backends[i];
        let service = i % self.service_backends.len();
        let ep = self.service_backends[service][i / self.service_backends.len()];
        let cfg = self.backend_cfg.clone();
        let catalog = self.catalog.clone();
        self.engine.schedule(at, move |eng| {
            eng.restore_node(id, Box::new(OriginServer::new(cfg, ep, catalog)));
        });
    }

    /// Partitions a node (both directions) at `at` without killing it:
    /// timers keep firing but no packets get in or out.
    pub fn partition_at(&mut self, id: NodeId, at: SimTime) {
        self.engine.schedule(at, move |eng| eng.partition_node(id));
    }

    /// Asymmetric partition: cut only ingress and/or egress.
    pub fn partition_dirs_at(&mut self, id: NodeId, cut_in: bool, cut_out: bool, at: SimTime) {
        self.engine
            .schedule(at, move |eng| eng.partition_node_dirs(id, cut_in, cut_out));
    }

    /// Heals a node's partition at `at`.
    pub fn heal_at(&mut self, id: NodeId, at: SimTime) {
        self.engine.schedule(at, move |eng| eng.heal_node(id));
    }

    /// Scales store server `i`'s per-op CPU service time by `factor` at
    /// `at` (gray failure: the store stays alive and answers pings, just
    /// slowly). Pass `1.0` to heal.
    pub fn slowdown_store_at(&mut self, i: usize, factor: f64, at: SimTime) {
        let id = self.stores[i];
        self.engine.schedule(at, move |eng| {
            if let Some(s) = eng.try_node_mut::<StoreServer>(id) {
                s.set_speed_factor(factor);
            }
        });
    }

    /// Scales backend `i`'s service time by `factor` at `at`. Pass `1.0`
    /// to heal.
    pub fn slowdown_backend_at(&mut self, i: usize, factor: f64, at: SimTime) {
        let id = self.backends[i];
        self.engine.schedule(at, move |eng| {
            if let Some(s) = eng.try_node_mut::<OriginServer>(id) {
                s.set_speed_factor(factor);
            }
        });
    }

    /// Degrades every link touching `id` at `at`: `loss` per-packet drop
    /// probability plus up to `jitter` of added seeded delay per packet,
    /// both directions. Pass `(0.0, SimTime::ZERO)` to heal.
    pub fn degrade_links_at(&mut self, id: NodeId, loss: f64, jitter: SimTime, at: SimTime) {
        self.engine
            .schedule(at, move |eng| eng.degrade_node_links(id, loss, jitter));
    }
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
}
