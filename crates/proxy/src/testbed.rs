//! The proxy baseline as a tier of the one testbed (§7 *Setup*): the same
//! router, muxes, backends, controller and clients as the Yoda
//! deployment, with HAProxy-style instances in the L7 slot and no
//! TCPStore.

use std::sync::Arc;

use yoda_core::testbed::{Testbed, TestbedConfig, Tier};

use crate::instance::{ProxyConfig, ProxyInstance};

/// The proxy tier: instances keep all flow state locally, so the store
/// and mux addresses go unused.
pub fn tier(proxy: ProxyConfig) -> Tier {
    Tier {
        prefix: "haproxy",
        make: Arc::new(move |addr, _stores, _muxes| {
            Box::new(ProxyInstance::new(proxy.clone(), addr))
        }),
    }
}

/// The baseline deployment: `cfg`'s shape with no store servers and no
/// spares (`cfg.yoda` and `cfg.store` go unread).
pub fn testbed(cfg: TestbedConfig, proxy: ProxyConfig) -> Testbed {
    let cfg = TestbedConfig {
        num_stores: 0,
        num_spares: 0,
        ..cfg
    };
    Testbed::build_with(cfg, tier(proxy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_http::{BrowserClient, BrowserConfig};
    use yoda_netsim::SimTime;

    #[test]
    fn proxy_serves_pages() {
        let mut tb = testbed(
            TestbedConfig {
                num_instances: 3,
                num_backends: 6,
                num_muxes: 2,
                num_services: 1,
                pages_per_site: 10,
                ..TestbedConfig::default()
            },
            ProxyConfig::default(),
        );
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
        let mut tb = testbed(
            TestbedConfig {
                num_instances: 2,
                num_backends: 4,
                num_muxes: 2,
                num_services: 1,
                pages_per_site: 10,
                ..TestbedConfig::default()
            },
            ProxyConfig::default(),
        );
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
