//! Recovery is explained by the trace (paper §4.3): when a serving
//! instance dies mid-transfer, the survivors rebuild its flows from
//! TCPStore, and each rebuild is one typed `Note::Recovered` naming the
//! flow. On a two-instance bed with instance 0 killed, for the survivor:
//!
//! * its `Recovered` events equal its `recoveries` counter;
//! * no (instance, flow) pair is recovered twice;
//! * every recovered flow was carried by the killed instance before the
//!   kill: it sent that flow's client packets (`vip -> client`). What is
//!   delivered to an instance comes IP-in-IP from a mux, so its
//!   addressing names the mux, not the flow;
//! * every lookup it started ended, in a `Recovered`, `RecoveryMiss` or
//!   `StaleRecovery` note, and the last one started more than the store
//!   client's `OP_TIMEOUT` before the run's end: each of a lookup's reads
//!   completes by that deadline, so no lookup is left for a sweep by age.
//!
//! The bed also forces the one race that reaches the stale-recovery
//! path: the flow's other leg reaches the survivor while the first
//! leg's lookup is in flight. Both lookups hit; the second finds the
//! flow live, so its record is ignored (a recovery emitted there would
//! break the first two invariants) and its parked segment, which now
//! resolves to the live flow, is fed to it: none is dropped. The same
//! bed and seed without a kill looks nothing up and recovers nothing.
//!
//! Per instance, one flow may be recovered once, not once per flow
//! overall: where a flow's two legs are steered to two survivors, each
//! rebuilds it on its own.

use yoda::core::YodaInstance;
use yoda::core::{Testbed, TestbedConfig};
use yoda::http::{BrowserClient, BrowserConfig};
use yoda::netsim::{Endpoint, Fate, Node, NodeId, Note, SimTime, TraceEvent, What, PROTO_TCP};
use yoda::tcp::{Flags, Segment, SeqNum};
use yoda::tcpstore::OP_TIMEOUT;

const KILL: SimTime = SimTime::from_millis(1_300);
const END: SimTime = SimTime::from_secs(20);

/// One browser on a two-instance bed, traced; instance 0 dies at
/// [`KILL`] when `kill` is set.
fn bed(kill: bool) -> (Testbed, NodeId) {
    let mut tb = Testbed::build(TestbedConfig {
        seed: 5,
        num_instances: 2,
        num_stores: 3,
        num_backends: 4,
        num_muxes: 2,
        num_services: 1,
        pages_per_site: 10,
        ..TestbedConfig::default()
    });
    tb.engine.enable_trace(1 << 18);
    tb.engine.run_for(SimTime::from_secs(1));
    let browser = tb.add_browser(
        0,
        BrowserConfig {
            processes: 4,
            max_pages: Some(3),
            http_timeout: SimTime::from_secs(30),
            ..BrowserConfig::default()
        },
    );
    if kill {
        tb.fail_instance_at(0, KILL);
    }
    (tb, browser)
}

/// The notes `pick` keeps, with the node that wrote each.
fn notes(tb: &Testbed, pick: fn(&Note) -> bool) -> Vec<(NodeId, Note)> {
    tb.engine
        .trace()
        .events()
        .filter_map(|ev| match ev.what {
            What::Note(note) if pick(&note) => Some((ev.node, note)),
            _ => None,
        })
        .collect()
}

/// Runs until the survivor starts its first recovery lookup, then hands
/// it a segment of the flow's other leg, as if both legs' retransmits
/// arrived within one store round trip.
fn race_the_other_leg(tb: &mut Testbed, survivor: NodeId) {
    tb.engine.run_until(KILL);
    let mut seen = tb.engine.trace().events().count();
    let first = loop {
        assert!(tb.engine.step() && tb.engine.now() < END, "no lookup");
        let trace = tb.engine.trace();
        let lookup = trace.events().skip(seen).find_map(|ev| match ev.what {
            What::Note(Note::RecoveryLookup { src, dst }) if ev.node == survivor => {
                Some((src, dst))
            }
            _ => None,
        });
        seen = trace.events().count();
        if let Some(first) = lookup {
            break first;
        }
    };
    // Each leg's far end names itself in the first packet it sent: the
    // client `client -> vip`, the backend `backend -> vss`.
    let sent_to = |to: Endpoint, port: u16| {
        let by = |ev: &TraceEvent| match ev.what {
            What::Packet {
                src,
                dst,
                fate: Fate::Sent,
                ..
            } if dst == to && src.port == port => Some(src),
            _ => None,
        };
        tb.engine
            .trace()
            .events()
            .find_map(by)
            .expect("the leg sent")
    };
    let vip = tb.vips[0];
    let other = if first.1 == vip {
        let vss = Endpoint::new(vip.addr, first.0.port);
        (sent_to(vss, tb.service_backends[0][0].port), vss)
    } else {
        (sent_to(vip, first.1.port), vip)
    };
    let seg = Segment {
        src_port: other.0.port,
        dst_port: other.1.port,
        seq: SeqNum::new(1),
        ack: SeqNum::new(1),
        flags: Flags::ACK,
        window: 1 << 16,
        payload: yoda::netsim::Bytes::new(),
    };
    let pkt = seg
        .into_packet(other.0, other.1)
        .encapsulate(tb.mux_addrs[0], tb.instance_addrs[1])
        .expect("room for the tunnel header");
    tb.engine
        .with_node_ctx::<YodaInstance>(survivor, |inst, ctx| inst.on_packet(ctx, pkt));
}

#[test]
fn each_recovery_is_one_traced_event_of_a_flow_the_killed_instance_carried() {
    let (mut tb, browser) = bed(true);
    let (killed, survivor) = (tb.instances[0], tb.instances[1]);
    race_the_other_leg(&mut tb, survivor);
    tb.engine.run_until(END);
    let b = tb.engine.node_ref::<BrowserClient>(browser);
    assert_eq!(b.broken_flows, 0, "no flow breaks");
    assert!(b.completed > 0);
    let trace = tb.engine.trace();
    assert!(trace.events().count() < 1 << 18, "the ring kept the run");

    let recovered: Vec<(NodeId, (Endpoint, Endpoint))> =
        notes(&tb, |n| matches!(n, Note::Recovered { .. }))
            .into_iter()
            .filter_map(|(node, note)| match note {
                Note::Recovered { client, vip, .. } => Some((node, (client, vip))),
                _ => None,
            })
            .collect();
    assert!(!recovered.is_empty(), "the kill orphaned flows");
    let counter = tb.engine.node_ref::<YodaInstance>(survivor).recoveries;
    assert!(recovered.iter().all(|&(node, _)| node == survivor));
    assert_eq!(recovered.len() as u64, counter, "one event per recovery");

    let mut pairs = recovered.clone();
    pairs.sort();
    pairs.dedup();
    assert_eq!(pairs.len(), recovered.len(), "a flow recovered twice");

    let carried = |(client, vip): (Endpoint, Endpoint)| {
        trace.events().any(|ev| {
            let sent = What::Packet {
                src: vip,
                dst: client,
                protocol: PROTO_TCP,
                fate: Fate::Sent,
            };
            ev.node == killed && ev.time < KILL && ev.what == sent
        })
    };
    for &(_, flow) in &recovered {
        assert!(carried(flow), "{flow:?} was not the killed instance's");
    }
    for &survivor in tb.instances.iter().filter(|&&i| i != killed) {
        let count = |pick: fn(&Note) -> bool| {
            let mine = notes(&tb, pick).into_iter();
            mine.filter(|(node, _)| *node == survivor).count()
        };
        let looked_up = count(|n| matches!(n, Note::RecoveryLookup { .. }));
        let ended = count(|n| {
            matches!(
                n,
                Note::Recovered { .. } | Note::RecoveryMiss { .. } | Note::StaleRecovery { .. }
            )
        });
        assert_eq!(looked_up, ended, "every lookup ends");
        let last = trace
            .events()
            .filter(|ev| ev.node == survivor)
            .filter(|ev| matches!(ev.what, What::Note(Note::RecoveryLookup { .. })))
            .map(|ev| ev.time)
            .max();
        assert!(last.is_some_and(|t| t + OP_TIMEOUT < END), "{last:?}");
    }
    let stale = notes(&tb, |n| matches!(n, Note::StaleRecovery { .. }));
    assert!(!stale.is_empty(), "the race reached the stale path");
    for (_, note) in stale {
        // The raced segment resolves to the flow the first lookup
        // rebuilt, so it is fed to it, not dropped.
        assert!(
            matches!(note, Note::StaleRecovery { dropped: 0, .. }),
            "{note}"
        );
    }
}

#[test]
fn without_a_kill_nothing_is_looked_up_or_recovered() {
    let (mut tb, browser) = bed(false);
    tb.engine.run_until(END);
    assert!(tb.engine.node_ref::<BrowserClient>(browser).completed > 0);
    let recovery = |n: &Note| matches!(n, Note::Recovered { .. } | Note::RecoveryLookup { .. });
    assert_eq!(notes(&tb, recovery), []);
}
