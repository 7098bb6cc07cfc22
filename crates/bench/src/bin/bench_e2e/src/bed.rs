//! The testbed a workload runs on, plain or traced.
//!
//! A plain bed is `Testbed::build`, the product's own assembly. A traced
//! bed needs every node wrapped in [`Timed`], and `Testbed`'s fields
//! cannot be constructed outside `yoda-core`, so [`Bed::traced`] mirrors
//! `Testbed::build` node for node. That copy is deliberate debt: every
//! traced run's event digest is checked against the plain run's, which
//! fails as soon as the copy drifts, and the copy goes when the engine
//! can tag node kinds itself.

use std::sync::Arc;

use yoda_core::{Controller, Testbed, TestbedConfig, YodaInstance};
use yoda_http::{OriginServer, SiteCatalog, SiteConfig};
use yoda_l4lb::{EdgeRouter, Mux};
use yoda_netsim::{Addr, Endpoint, Engine, Node, NodeId, Zone};
use yoda_tcpstore::StoreServer;

use crate::timed::{Kind, SpanLog, Timed};

pub struct Bed {
    pub engine: Engine,
    pub controller: NodeId,
    pub router: NodeId,
    pub muxes: Vec<NodeId>,
    pub instances: Vec<NodeId>,
    pub stores: Vec<NodeId>,
    pub backends: Vec<NodeId>,
    pub vips: Vec<Endpoint>,
    pub catalog: Arc<SiteCatalog>,
    /// Clients the workload attached, in attachment order.
    pub clients: Vec<NodeId>,
    log: Option<Arc<SpanLog>>,
}

impl Bed {
    pub fn plain(cfg: TestbedConfig) -> Bed {
        let Testbed {
            engine,
            controller,
            router,
            muxes,
            instances,
            stores,
            backends,
            vips,
            catalog,
            ..
        } = Testbed::build(cfg);
        Bed {
            engine,
            controller,
            router,
            muxes,
            instances,
            stores,
            backends,
            vips,
            catalog,
            clients: Vec::new(),
            log: None,
        }
    }

    /// `Testbed::build` with every node wrapped in [`Timed`]: same
    /// addresses, names and order of `add_node` calls, hence the same
    /// node ids, per-node RNG streams and event digest.
    pub fn traced(cfg: TestbedConfig, log: Arc<SpanLog>) -> Bed {
        assert_eq!(
            cfg.num_spares, 0,
            "the traced bed mirrors a testbed without spares"
        );
        let mut engine = Engine::with_topology(cfg.seed, cfg.topology.clone());
        let router_addr = Addr::new(10, 0, 3, 1);
        let controller_addr = Addr::new(10, 0, 4, 1);
        let addrs = |n: usize, a, b, c| -> Vec<Addr> {
            (1..=n as u8).map(|i| Addr::new(a, b, c, i)).collect()
        };
        let mux_addrs = addrs(cfg.num_muxes, 10, 0, 2);
        let instance_addrs = addrs(cfg.num_instances, 10, 0, 0);
        let store_addrs = addrs(cfg.num_stores, 10, 0, 1);
        let backend_addrs = addrs(cfg.num_backends, 10, 1, 0);
        let vips: Vec<Endpoint> = addrs(cfg.num_services, 100, 0, 0)
            .into_iter()
            .map(|a| Endpoint::new(a, 80))
            .collect();

        let site_cfgs: Vec<SiteConfig> = (0..cfg.num_services)
            .map(|s| SiteConfig {
                pages: cfg.pages_per_site,
                embedded_per_page: (4, 12),
                host: format!("service{s}.test"),
            })
            .collect();
        let catalog = Arc::new(SiteCatalog::generate(cfg.seed, &site_cfgs));

        let router = engine.add_node(
            "router",
            router_addr,
            Zone::Dc,
            Box::new(Timed::new(
                EdgeRouter::new(router_addr, mux_addrs.clone()),
                Kind::Router,
                log.clone(),
            )),
        );
        for vip in &vips {
            engine.add_addr(router, vip.addr);
        }
        let muxes = mux_addrs
            .iter()
            .map(|&m| {
                let node = Timed::new(Mux::new(m), Kind::Mux, log.clone());
                engine.add_node(format!("mux-{m}"), m, Zone::Dc, Box::new(node))
            })
            .collect();
        let stores = store_addrs
            .iter()
            .map(|&s| {
                let node = Timed::new(
                    StoreServer::new(cfg.store, s),
                    Kind::StoreServer,
                    log.clone(),
                );
                engine.add_node(format!("store-{s}"), s, Zone::Dc, Box::new(node))
            })
            .collect();
        let instances = instance_addrs
            .iter()
            .map(|&a| {
                let node = YodaInstance::new(cfg.yoda.clone(), a, &store_addrs, mux_addrs.clone());
                let node = Timed::new(node, Kind::Instance, log.clone());
                engine.add_node(format!("yoda-{a}"), a, Zone::Dc, Box::new(node))
            })
            .collect();
        let mut service_backends: Vec<Vec<Endpoint>> = vec![Vec::new(); cfg.num_services];
        let backends = backend_addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let ep = Endpoint::new(a, 80);
                service_backends[i % cfg.num_services].push(ep);
                let node = OriginServer::new(cfg.backend.clone(), ep, catalog.clone());
                let node = Timed::new(node, Kind::HttpServer, log.clone());
                engine.add_node(format!("backend-{a}"), a, Zone::Dc, Box::new(node))
            })
            .collect();

        let mut ctl = Controller::new(cfg.controller.clone(), controller_addr);
        ctl.set_l4(router_addr, mux_addrs.clone());
        for &a in &instance_addrs {
            ctl.register_instance(a);
        }
        for &ep in service_backends.iter().flatten() {
            ctl.register_backend(ep);
        }
        for &s in &store_addrs {
            ctl.register_store(s);
        }
        ctl.monitor_muxes();
        let controller = engine.add_node(
            "controller",
            controller_addr,
            Zone::Dc,
            Box::new(Timed::new(ctl, Kind::Controller, log.clone())),
        );

        // The default equal-split policy, one scheduled control action
        // per VIP as `Testbed::set_policy` does.
        for (service, (&vip, backends)) in vips.iter().zip(&service_backends).enumerate() {
            let split: Vec<String> = backends.iter().map(|b| format!("{b}=1")).collect();
            let rules = format!(
                "name=default-{service} priority=1 match * action=split {}",
                split.join(" ")
            );
            let instances = instance_addrs.clone();
            engine.schedule(engine.now(), move |eng| {
                eng.with_node_ctx::<Timed<Controller>>(controller, move |c, ctx| {
                    c.inner.add_vip(ctx, vip, &rules, instances);
                });
            });
        }

        Bed {
            engine,
            controller,
            router,
            muxes,
            instances,
            stores,
            backends,
            vips,
            catalog,
            clients: Vec::new(),
            log: Some(log),
        }
    }

    /// Attaches a client node (wrapped when the bed is traced) at the
    /// next address of `Testbed`'s client subnet.
    pub fn add_client<N: Node>(&mut self, prefix: &str, zone: Zone, make: impl FnOnce(Addr) -> N) {
        let addr = Addr::new(172, 16, 1, self.clients.len() as u8 + 1);
        let node = make(addr);
        let boxed: Box<dyn Node> = match &self.log {
            Some(log) => Box::new(Timed::new(node, Kind::HttpClient, log.clone())),
            None => Box::new(node),
        };
        let id = self
            .engine
            .add_node(format!("{prefix}-{addr}"), addr, zone, boxed);
        self.clients.push(id);
    }

    /// The node behind `id` as its product type, through the wrapper when
    /// the bed is traced.
    pub fn node<N: Node>(&self, id: NodeId) -> &N {
        match &self.log {
            Some(_) => &self.engine.node_ref::<Timed<N>>(id).inner,
            None => self.engine.node_ref::<N>(id),
        }
    }

    /// Like [`Bed::node`], for clients, whose type depends on the workload.
    pub fn try_node<N: Node>(&self, id: NodeId) -> Option<&N> {
        match &self.log {
            Some(_) => self.engine.try_node_ref::<Timed<N>>(id).map(|t| &t.inner),
            None => self.engine.try_node_ref::<N>(id),
        }
    }
}
