//! Transfers that cross the 2³² sequence wrap: Yoda's tunneling-phase
//! translation and the TCP state machine must both be wrap-clean.

use yoda::core::testbed::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::{Addr, Endpoint, SimTime};
use yoda::tcp::{SeqNum, TcpConfig, TcpSocket};

#[test]
fn socket_transfer_across_seq_wrap() {
    // ISN a few KB below the wrap point; a 100 KB transfer crosses it.
    let cfg = TcpConfig::default();
    let c_ep = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    let s_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let iss = SeqNum::new(u32::MAX - 4000);
    let t = SimTime::ZERO;
    let (mut client, syn) = TcpSocket::connect(cfg, c_ep, s_ep, iss, t);
    let (mut server, synack) =
        TcpSocket::accept(cfg, s_ep, c_ep, &syn, SeqNum::new(u32::MAX - 9), t).unwrap();
    let mut to_server = client.on_segment(&synack, t);
    let data: Vec<u8> = (0..100_000).map(|i| (i % 249) as u8).collect();
    to_server.extend(client.send(bytes::Bytes::from(data.clone()), t));
    loop {
        let mut to_client = Vec::new();
        for s in &to_server {
            to_client.extend(server.on_segment(s, t));
        }
        if to_client.is_empty() {
            break;
        }
        to_server.clear();
        for s in &to_client {
            to_server.extend(client.on_segment(s, t));
        }
        if to_server.is_empty() {
            break;
        }
    }
    assert_eq!(&server.take_data()[..], &data[..]);
}

#[test]
fn yoda_tunnel_across_client_isn_wrap() {
    // Force every client connection's ISN to sit just below the wrap by
    // pinning the browser's TCP stack RNG via the engine seed sweep: we
    // can't choose client ISNs directly through the public browser API,
    // so instead exercise the translation explicitly at the seq level...
    // and then sanity-check a whole-system run for good measure.
    let y = SeqNum::new(5);
    let s = SeqNum::new(u32::MAX - 2);
    let delta = y.offset_from(s);
    // A server byte at the wrap maps into client space and back.
    for raw in [u32::MAX - 2, u32::MAX, 0, 1, 1000] {
        let x = SeqNum::new(raw);
        assert_eq!(x.translate(delta).translate(s.offset_from(y)), x);
    }
    let mut tb = Testbed::build(TestbedConfig {
        seed: 0xF00D,
        num_instances: 2,
        num_stores: 2,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    tb.engine.run_for(SimTime::from_secs(1));
    let b = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(2),
            ..BrowserConfig::default()
        },
    );
    tb.engine.run_for(SimTime::from_secs(90));
    let bn = tb.engine.node_ref::<BrowserClient>(b);
    assert_eq!(bn.broken_flows, 0);
    assert_eq!(bn.pages_completed, 8);
}
