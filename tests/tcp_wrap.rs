//! Transfers that cross the 2³² sequence wrap: Yoda's tunneling-phase
//! translation and the TCP state machine must both be wrap-clean.

use yoda::core::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::{Addr, Endpoint, SimTime};
use yoda::tcp::{SeqNum, TcpSocket};

#[test]
fn socket_transfer_across_seq_wrap() {
    // ISN a few KB below the wrap point; a 100 KB transfer crosses it.
    let c_ep = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    let s_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let iss = SeqNum::new(u32::MAX - 4000);
    let t = SimTime::ZERO;
    let (mut client, syn) = TcpSocket::connect(c_ep, s_ep, iss, t);
    let (mut server, synack) =
        TcpSocket::accept(s_ep, c_ep, &syn, SeqNum::new(u32::MAX - 9), t).unwrap();
    let mut to_server = Vec::new();
    client.on_segment(&synack, t, &mut to_server);
    let data: Vec<u8> = (0..100_000).map(|i| (i % 249) as u8).collect();
    client.send(yoda::netsim::Bytes::from(data.clone()), t, &mut to_server);
    loop {
        let mut to_client = Vec::new();
        for s in &to_server {
            server.on_segment(s, t, &mut to_client);
        }
        if to_client.is_empty() {
            break;
        }
        to_server.clear();
        for s in &to_client {
            client.on_segment(s, t, &mut to_server);
        }
        if to_server.is_empty() {
            break;
        }
    }
    let mut got = Vec::new();
    server.take_data(&mut got);
    assert_eq!(got.concat(), data);
}

#[test]
fn out_of_order_segments_reassemble_across_seq_wrap() {
    // Three full segments from 2,000 bytes below the wrap: the second
    // straddles it and the third lies past it. Delivered 3, 2, 1, both
    // later ones wait in the reassembly queue, and the first must release
    // them in sequence order, not in numeric order of their raw numbers.
    let c_ep = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
    let s_ep = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
    let t = SimTime::ZERO;
    let (mut client, syn) = TcpSocket::connect(c_ep, s_ep, SeqNum::new(u32::MAX - 2000), t);
    let (mut server, synack) = TcpSocket::accept(s_ep, c_ep, &syn, SeqNum::new(7), t).unwrap();
    let (mut acks, mut replies) = (Vec::new(), Vec::new());
    client.on_segment(&synack, t, &mut acks);
    for ack in &acks {
        server.on_segment(ack, t, &mut replies);
    }
    let data: Vec<u8> = (0..3 * yoda::tcp::MSS).map(|i| (i % 251) as u8).collect();
    let mut segs = Vec::new();
    client.send(yoda::netsim::Bytes::from(data.clone()), t, &mut segs);
    assert_eq!(segs.len(), 3);
    for s in segs.iter().rev() {
        server.on_segment(s, t, &mut replies);
    }
    let mut got = Vec::new();
    server.take_data(&mut got);
    let got = got.concat();
    assert_eq!(
        got.len(),
        data.len(),
        "the first segment releases the other two"
    );
    assert_eq!(&got[..], &data[..]);
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
