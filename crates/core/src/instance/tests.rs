//! Tests the split makes possible: the flow machine's whole
//! (phase × input) table without an engine, and the shell's exit routes
//! and open-connection accounting with one instance, one store and
//! hand-injected packets. End-to-end behaviour (real clients, muxes,
//! backends) stays in `crates/core/tests/e2e.rs` and the workspace tests.

// The whole file is test-only (`#[cfg(test)] mod tests;` in the parent);
// the marker here says so to tools that read files one at a time.
#[cfg(test)]
use yoda_netsim::{Engine, NodeId, Topology, Zone};
use yoda_tcp::Flags;
use yoda_tcpstore::{StoreServer, StoreServerConfig};

use super::durability::{Waiter, WriteOp};
use super::flow::{Io, Resume};
use super::*;

const C_ISN: u32 = 1_000;
const S_ISN: u32 = 5_000;
const REQ: &[u8] = b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n";

fn t_client() -> Endpoint {
    Endpoint::new(Addr::new(172, 16, 0, 9), 40_001)
}
fn t_vip() -> Endpoint {
    Endpoint::new(Addr::new(100, 0, 0, 1), 80)
}
fn t_vss() -> Endpoint {
    Endpoint::new(t_vip().addr, t_client().port)
}
fn t_backend(n: u8) -> Endpoint {
    Endpoint::new(Addr::new(10, 1, 0, n), 80)
}
fn t_key() -> FlowKey {
    (t_client(), t_vip())
}

fn t_seg(flags: Flags, seq: u32, ack: u32, payload: &[u8]) -> Segment {
    Segment {
        src_port: 0,
        dst_port: 0,
        seq: SeqNum::new(seq),
        ack: SeqNum::new(ack),
        flags,
        window: 65_535,
        payload: Bytes::copy_from_slice(payload),
    }
}
fn t_synack(isn: u32) -> Segment {
    t_seg(Flags::SYN_ACK, isn, C_ISN + 1, b"")
}

// ----------------------------------------------------------------------
// The flow machine alone
// ----------------------------------------------------------------------

fn t_env() -> Env {
    Env {
        now: SimTime::from_secs(1),
        degraded: false,
        optimistic_synack: false,
        http11_inspect: true,
        splice: false,
    }
}

fn who(ep: Endpoint) -> String {
    let names = [
        (t_client(), "client"),
        (t_vip(), "vip"),
        (t_vss(), "vss"),
        (t_backend(1), "b1"),
        (t_backend(2), "b2"),
    ];
    match names.iter().find(|(e, _)| *e == ep) {
        Some((_, name)) => name.to_string(),
        None => format!("{ep}"),
    }
}

/// One action as a short string: enough to tell *what* was decided.
fn brief(a: &Action) -> String {
    match a {
        Action::Send {
            seg,
            src,
            dst,
            tunneled,
            ..
        } => {
            let f = seg.flags;
            let kind = match (tunneled, f.syn, f.ack, f.rst) {
                (true, ..) => "fwd",
                (_, true, true, _) => "SA",
                (_, true, ..) => "S",
                (_, _, _, true) => "R",
                _ => "A",
            };
            let len = match seg.payload.len() {
                0 => String::new(),
                n => format!(" len={n}"),
            };
            format!("{kind} {}>{}{len}", who(*src), who(*dst))
        }
        Action::Write(op, waiter) => {
            let (verb, key) = match op {
                WriteOp::Set(k, _) => ("set", k),
                WriteOp::Delete(k) => ("del", k),
            };
            let table = key.split(|&c| c == b':').next().unwrap_or_default();
            let wait = if waiter.is_some() { " +wait" } else { "" };
            format!("{verb} {}{wait}", String::from_utf8_lossy(table))
        }
        Action::Splice(MuxCtrl::SpliceInstall {
            from,
            to,
            acks_only,
            ..
        }) => {
            let acks = if *acks_only { " acks" } else { "" };
            format!("splice+ {}>{}{acks}", who(*from), who(*to))
        }
        Action::Splice(MuxCtrl::SpliceRemove { from, to }) => {
            format!("splice- {}>{}", who(*from), who(*to))
        }
        Action::Splice(other) => format!("{other:?}"),
        Action::Map(b) => format!("map {}", who(*b)),
        Action::Unmap(b) => format!("unmap {}", who(*b)),
        Action::Note(_) => "note".to_string(),
        Action::Count(c) => format!("count {c:?}"),
        Action::ConnLatency(_) => "connlat".to_string(),
    }
}

type Pick = Option<(Endpoint, Vec<Endpoint>)>;

enum In {
    Client(Segment),
    Server(Endpoint, Segment),
    Stored(Waiter),
    /// A selection nobody asked for (the flow is not waiting on one).
    Picked(Pick),
}

/// Feeds one input; a `Select` is answered with `pick`, as the shell would.
fn feed(flow: &mut Flow, env: Env, input: In, pick: Pick) -> (String, Vec<String>) {
    let mut out = Vec::new();
    let delay = SimTime::from_micros(366);
    let mut io = Io {
        env,
        delay,
        out: &mut out,
    };
    let mut name = String::new();
    let mut step = match input {
        In::Client(s) => flow.on_client(s, &mut io),
        In::Server(from, s) => flow.on_server(from, s, &mut io),
        In::Picked(p) => flow.on_selected(p, Resume::Connect, &mut io),
        In::Stored(w) => {
            name = format!("stored:{}", flow.on_stored(w, &mut io));
            Step::Done
        }
    };
    if let Step::Select(_, resume) = step {
        name = "select>".to_string();
        step = flow.on_selected(pick, resume, &mut io);
    }
    let outcome = match step {
        Step::Done if name.starts_with("stored") => String::new(),
        Step::Done => "done".to_string(),
        Step::Exit(why) => format!("exit:{why:?}"),
        Step::Reopen(_) => "reopen".to_string(),
        Step::Select(..) => "select".to_string(),
    };
    (name + &outcome, out.iter().map(brief).collect())
}

fn quiet(flow: &mut Flow, env: Env, input: In, pick: Pick) {
    feed(flow, env, input, pick);
}

fn pick(n: u8, mirrors: &[u8]) -> Pick {
    Some((
        t_backend(n),
        mirrors.iter().map(|&m| t_backend(m)).collect(),
    ))
}

// Flows parked in each phase.
fn storing_syn(env: Env) -> Flow {
    let mut out = Vec::new();
    let delay = SimTime::ZERO;
    Flow::open(
        t_key(),
        None,
        SeqNum::new(C_ISN),
        &mut Io {
            env,
            delay,
            out: &mut out,
        },
    )
}
fn await_header(env: Env) -> Flow {
    let mut f = storing_syn(env);
    quiet(&mut f, env, In::Stored(Waiter::SynStored(t_key())), None);
    f
}
fn connecting(env: Env, mirrors: &[u8]) -> Flow {
    let mut f = await_header(env);
    let req = t_seg(Flags::ACK, C_ISN + 1, 0, REQ);
    quiet(&mut f, env, In::Client(req), pick(1, mirrors));
    f
}
fn storing_flow(env: Env, mirrors: &[u8]) -> Flow {
    let mut f = connecting(env, mirrors);
    quiet(&mut f, env, In::Server(t_backend(1), t_synack(S_ISN)), None);
    f
}
fn tunneling(env: Env, mirrors: &[u8]) -> Flow {
    let mut f = storing_flow(env, mirrors);
    for _ in 0..2 {
        quiet(&mut f, env, In::Stored(Waiter::FlowStored(t_key())), None);
    }
    f
}
fn next_request(path: char) -> Segment {
    let head = format!("GET /{path} HTTP/1.1\r\nHost: x\r\n\r\n");
    t_seg(Flags::ACK, C_ISN + 1 + REQ.len() as u32, 0, head.as_bytes())
}
fn switching(env: Env) -> Flow {
    let mut f = tunneling(env, &[]);
    quiet(&mut f, env, In::Client(next_request('b')), pick(2, &[]));
    f
}
fn switched(env: Env) -> Flow {
    let mut f = switching(env);
    quiet(&mut f, env, In::Server(t_backend(2), t_synack(9_000)), None);
    f
}
fn drained(env: Env) -> Flow {
    let mut f = tunneling(env, &[]);
    quiet(
        &mut f,
        env,
        In::Client(t_seg(Flags::FIN_ACK, C_ISN + 29, 0, b"")),
        None,
    );
    let fin = t_seg(Flags::FIN_ACK, S_ISN + 1, 0, b"");
    quiet(&mut f, env, In::Server(t_backend(1), fin), None);
    f
}

struct Case {
    name: &'static str,
    flow: Flow,
    env: Env,
    input: In,
    pick: Pick,
    /// Expected: phase afterwards, step, actions.
    want: (&'static str, &'static str, &'static [&'static str]),
}

#[test]
fn every_phase_times_every_input() {
    let env = t_env();
    let degraded = Env {
        degraded: true,
        ..env
    };
    let splice = Env {
        splice: true,
        ..env
    };
    let syn = || t_seg(Flags::SYN, C_ISN, 0, b"");
    let ack = || t_seg(Flags::ACK, C_ISN + 1, 0, b"");
    let data = |seq| t_seg(Flags::ACK, seq, 0, b"hello");
    let request = || t_seg(Flags::ACK, C_ISN + 1, 0, REQ);
    let syn_stored = || In::Stored(Waiter::SynStored(t_key()));
    let flow_stored = || In::Stored(Waiter::FlowStored(t_key()));
    let from = |n, seg| In::Server(t_backend(n), seg);
    let case = |name, flow, env, input, pick, want| Case {
        name,
        flow,
        env,
        input,
        pick,
        want,
    };
    const SWITCH: &[&str] = &[
        "count BackendSwitch",
        "count Request",
        "unmap b1",
        "R vss>b1",
        "map b2",
        "S vss>b2",
    ];
    const RACE_WON: &[&str] = &[
        "count BackendSwitch",
        "unmap b1",
        "R vss>b1",
        "set flow",
        "set rflow",
        "del rflow",
        "fwd vip>client len=5",
    ];
    const SPLICED: &[&str] = &[
        "A vss>b1 len=28",
        "count SpliceInstall",
        "splice+ b1>vss",
        "splice+ client>vip acks",
    ];
    const SPLICED_BOTH: &[&str] = &[
        "A vss>b1 len=28",
        "count SpliceInstall",
        "splice+ b1>vss",
        "splice+ client>vip",
    ];
    const RESPLICED: &[&str] = &[
        "fwd vss>b1",
        "count SpliceInstall",
        "splice+ b1>vss",
        "splice+ client>vip acks",
    ];
    const SPLICED_SWITCH: &[&str] = &[
        "count BackendSwitch",
        "count Request",
        "splice- client>vip",
        "splice- b1>vss",
        "unmap b1",
        "R vss>b1",
        "map b2",
        "S vss>b2",
    ];
    const SPLICED_SWITCHED: &[&str] = &[
        "set flow",
        "set rflow",
        "del rflow",
        "A vss>b2 len=28",
        "count SpliceInstall",
        "splice+ b2>vss",
        "splice+ client>vip acks",
    ];
    let no_inspect = Env {
        http11_inspect: false,
        ..splice
    };
    // Past the re-install throttle of the install `tunneling(splice)` sent.
    let splice_later = Env {
        now: splice.now + SimTime::from_secs(1),
        ..splice
    };
    let one_ack_left = |env| {
        let mut f = storing_flow(env, &[]);
        quiet(&mut f, env, In::Stored(Waiter::FlowStored(t_key())), None);
        f
    };
    let mut racer_isn_kept = storing_flow(env, &[2]);
    quiet(&mut racer_isn_kept, env, from(2, t_synack(7_000)), None);
    quiet(&mut racer_isn_kept, env, flow_stored(), None);
    let mut raced = tunneling(env, &[2]);
    quiet(&mut raced, env, from(2, t_synack(7_000)), None);

    #[rustfmt::skip]
    let table = vec![
        // --- StoringSyn: storage-a in flight, nothing leaves before it lands.
        case("dup SYN during storage-a: ignored", storing_syn(env), env, In::Client(syn()), None, ("StoringSyn", "done", &[])),
        case("data during storage-a: ignored", storing_syn(env), env, In::Client(request()), None, ("StoringSyn", "done", &[])),
        case("server packet during storage-a: ignored", storing_syn(env), env, from(1, t_synack(S_ISN)), None, ("StoringSyn", "done", &[])),
        case("storage-a lands: SYN-ACK", storing_syn(env), env, syn_stored(), None, ("AwaitHeader", "stored:false", &["SA vip>client"])),
        case("stray storage-b ack in StoringSyn: ignored", storing_syn(env), env, flow_stored(), None, ("StoringSyn", "stored:false", &[])),
        case("unasked selection in StoringSyn: ignored", storing_syn(env), env, In::Picked(pick(1, &[])), None, ("StoringSyn", "done", &[])),
        // --- AwaitHeader.
        case("SYN retransmit: SYN-ACK again", await_header(env), env, In::Client(syn()), None, ("AwaitHeader", "done", &["SA vip>client"])),
        case("partial header: ACK it", await_header(env), env, In::Client(t_seg(Flags::ACK, C_ISN + 1, 0, b"GET /a HT")), None, ("AwaitHeader", "done", &["A vip>client"])),
        case("bare ACK: nothing", await_header(env), env, In::Client(ack()), None, ("AwaitHeader", "done", &[])),
        case("header complete, one backend", await_header(env), env, In::Client(request()), pick(1, &[]), ("Connecting", "select>done", &["count Request", "note", "map b1", "S vss>b1"])),
        case("header complete, mirror rule", await_header(env), env, In::Client(request()), pick(1, &[2]), ("Connecting", "select>done", &["count Request", "note", "map b1", "S vss>b1", "map b2", "S vss>b2"])),
        case("header complete, no route", await_header(env), env, In::Client(request()), None, ("AwaitHeader", "select>exit:NoRoute", &[])),
        case("server packet in AwaitHeader: ignored", await_header(env), env, from(1, t_synack(S_ISN)), None, ("AwaitHeader", "done", &[])),
        case("stray store ack in AwaitHeader: ignored", await_header(env), env, syn_stored(), None, ("AwaitHeader", "stored:false", &[])),
        // --- Connecting.
        case("header retransmit: re-kick the SYN", connecting(env, &[]), env, In::Client(request()), None, ("Connecting", "done", &["S vss>b1"])),
        case("non-SYN-ACK from the backend: ignored", connecting(env, &[]), env, from(1, data(S_ISN + 1)), None, ("Connecting", "done", &[])),
        case("SYN-ACK for another handshake: ignored", connecting(env, &[]), env, from(1, t_seg(Flags::SYN_ACK, S_ISN, 77, b"")), None, ("Connecting", "done", &[])),
        case("SYN-ACK: storage-b, ACK withheld", connecting(env, &[]), env, from(1, t_synack(S_ISN)), None, ("StoringFlow", "done", &["connlat", "note", "set flow +wait", "set rflow +wait"])),
        case("SYN-ACK while degraded: tunnel at once", connecting(degraded, &[]), degraded, from(1, t_synack(S_ISN)), None, ("Tunneling", "done", &["connlat", "note", "set flow", "set rflow", "A vss>b1 len=28"])),
        case("stray store ack in Connecting: ignored", connecting(env, &[]), env, flow_stored(), None, ("Connecting", "stored:false", &[])),
        case("unasked selection in Connecting: ignored", connecting(env, &[]), env, In::Picked(pick(2, &[])), None, ("Connecting", "done", &[])),
        // --- StoringFlow.
        case("client data during storage-b: ignored", storing_flow(env, &[]), env, In::Client(request()), None, ("StoringFlow", "done", &[])),
        case("dup SYN-ACK during storage-b: ignored", storing_flow(env, &[]), env, from(1, t_synack(S_ISN)), None, ("StoringFlow", "done", &[])),
        case("racer SYN-ACK during storage-b: remembered", storing_flow(env, &[2]), env, from(2, t_synack(7_000)), None, ("StoringFlow", "done", &[])),
        case("first storage-b ack: keep waiting", storing_flow(env, &[]), env, flow_stored(), None, ("StoringFlow", "stored:false", &[])),
        case("second storage-b ack: ACK + request, racer fed", racer_isn_kept, env, flow_stored(), None, ("Tunneling", "stored:true", &["A vss>b1 len=28", "A vss>b2 len=28"])),
        case("stray storage-a ack in StoringFlow: ignored", storing_flow(env, &[]), env, syn_stored(), None, ("StoringFlow", "stored:false", &[])),
        // --- Tunneling.
        case("client ACK: translated", tunneling(env, &[]), env, In::Client(ack()), None, ("Tunneling", "done", &["fwd vss>b1"])),
        case("server data: translated", tunneling(env, &[]), env, from(1, data(S_ISN + 1)), None, ("Tunneling", "done", &["fwd vip>client len=5"])),
        case("SYN on a live tunnel: dropped", tunneling(env, &[]), env, In::Client(syn()), None, ("Tunneling", "done", &[])),
        case("SYN on a drained tunnel: port reuse", drained(env), env, In::Client(syn()), None, ("Tunneling", "reopen", &[])),
        case("second FIN: records deleted before it is forwarded", {
            let mut f = tunneling(env, &[]);
            quiet(&mut f, env, In::Client(t_seg(Flags::FIN_ACK, C_ISN + 29, 0, b"")), None);
            f
        }, env, from(1, t_seg(Flags::FIN_ACK, S_ISN + 1, 0, b"")), None, ("Tunneling", "done", &["del syn", "del flow", "del rflow", "fwd vip>client"])),
        case("next request, same backend: keep tunneling", tunneling(env, &[]), env, In::Client(next_request('b')), pick(1, &[]), ("Tunneling", "select>done", &["fwd vss>b1 len=28"])),
        case("next request, no route: keep tunneling", tunneling(env, &[]), env, In::Client(next_request('b')), None, ("Tunneling", "select>done", &["fwd vss>b1 len=28"])),
        case("next request, other backend: switch, data held", tunneling(env, &[]), env, In::Client(next_request('b')), pick(2, &[]), ("Tunneling", "select>done", SWITCH)),
        case("client data mid-switch: held", switching(env), env, In::Client(data(C_ISN + 57)), None, ("Tunneling", "done", &[])),
        case("client ACK mid-switch: dropped (the old backend was reset)", switching(env), env, In::Client(ack()), None, ("Tunneling", "done", &[])),
        case("new backend's SYN-ACK: switch completes", switching(env), env, from(2, t_synack(9_000)), None, ("Tunneling", "done", &["set flow", "set rflow", "del rflow", "A vss>b2 len=28"])),
        case("stale packet from the pre-switch backend: counted drop", switched(env), env, from(1, data(S_ISN + 1)), None, ("Tunneling", "done", &["count DroppedUnknown"])),
        case("racer SYN-ACK on the tunnel: gets the request", tunneling(env, &[2]), env, from(2, t_synack(7_000)), None, ("Tunneling", "done", &["A vss>b2 len=28"])),
        case("stored backend answers first: racer cut loose", tunneling(env, &[2]), env, from(1, data(S_ISN + 1)), None, ("Tunneling", "done", &["unmap b2", "R vss>b2", "fwd vip>client len=5"])),
        case("racer answers first: it becomes the backend", raced, env, from(2, data(7_001)), None, ("Tunneling", "done", RACE_WON)),
        case("stray store ack on a tunnel: ignored", tunneling(env, &[]), env, flow_stored(), None, ("Tunneling", "stored:false", &[])),
        case("unasked selection on a tunnel: ignored", tunneling(env, &[]), env, In::Picked(pick(2, &[])), None, ("Tunneling", "done", &[])),
        case("splice on: both legs, the inspected client leg acks-only", one_ack_left(splice), splice, flow_stored(), None, ("Tunneling", "stored:true", SPLICED)),
        case("splice on, inspection off: both legs in full", one_ack_left(no_inspect), no_inspect, flow_stored(), None, ("Tunneling", "stored:true", SPLICED_BOTH)),
        case("request bytes on the acks-only leg: no re-install", tunneling(splice, &[]), splice_later, In::Client(next_request('b')), pick(1, &[]), ("Tunneling", "select>done", &["fwd vss>b1 len=28"])),
        case("pure ACK on a spliced flow: the mux lost it, re-install", tunneling(splice, &[]), splice_later, In::Client(ack()), None, ("Tunneling", "done", RESPLICED)),
        case("switch on a spliced flow: both legs revoked", tunneling(splice, &[]), splice, In::Client(next_request('b')), pick(2, &[]), ("Tunneling", "select>done", SPLICED_SWITCH)),
        case("switch completes on a spliced flow: both legs re-installed", switching(splice), splice, from(2, t_synack(9_000)), None, ("Tunneling", "done", SPLICED_SWITCHED)),
    ];
    let mut failures = Vec::new();
    for mut c in table {
        let (step, acts) = feed(&mut c.flow, c.env, c.input, c.pick);
        let got = (c.flow.phase_name(), step.as_str(), acts);
        let want = (
            c.want.0,
            c.want.1,
            c.want.2.iter().map(|s| s.to_string()).collect(),
        );
        if got != want {
            failures.push(format!("{}:\n   got {got:?}\n  want {want:?}", c.name));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// The inputs that are not packets: backend death, gc ticks, and what
/// each phase holds while it waits.
#[test]
fn per_phase_backend_load_and_expiry() {
    let env = t_env();
    let splice = Env {
        splice: true,
        ..env
    };
    let reset = |mut flow: Flow| {
        let mut out = Vec::new();
        let delay = SimTime::ZERO;
        flow.reset(&mut Io {
            env,
            delay,
            out: &mut out,
        });
        out.iter().map(brief).collect::<Vec<_>>()
    };
    let teardown = ["R vip>client", "del syn", "del flow", "del rflow"];
    // Before a backend is picked there is none to die, and nothing held.
    for flow in [storing_syn(env), await_header(env)] {
        assert_eq!((flow.backend(), flow.load_backend()), (None, None));
        assert!(reset(flow).is_empty());
    }
    // From the pick on: the flow names its backend, holds its count, and
    // a reset tells the client and deletes the records.
    for flow in [
        connecting(env, &[]),
        storing_flow(env, &[]),
        tunneling(env, &[]),
    ] {
        let b1 = Some(t_backend(1));
        assert_eq!((flow.backend(), flow.load_backend()), (b1, b1));
        assert_eq!(reset(flow), teardown, "reset");
    }
    // A spliced tunnel also revokes its mux entries, first.
    let mut spliced = vec!["splice- client>vip", "splice- b1>vss"];
    spliced.extend(teardown);
    assert_eq!(reset(tunneling(splice, &[])), spliced);
    // A switch moves the count with the tunnel; both FINs release it.
    assert_eq!(switched(env).load_backend(), Some(t_backend(2)));
    assert_eq!(drained(env).backend(), Some(t_backend(1)));
    assert_eq!(drained(env).load_backend(), None);
    // gc: connection-phase entries expire after a minute, live tunnels
    // never, drained ones once the linger is over.
    let at = |secs| env.now + SimTime::from_secs(secs);
    for flow in [
        storing_syn(env),
        await_header(env),
        connecting(env, &[]),
        storing_flow(env, &[]),
    ] {
        assert_eq!(flow.expired(at(59)), None);
        assert_eq!(flow.expired(at(61)), Some(Exit::Stuck));
    }
    assert_eq!(tunneling(env, &[]).expired(at(3_600)), None);
    assert_eq!(drained(env).expired(at(1)), None);
    assert_eq!(drained(env).expired(at(2)), Some(Exit::Drained));
}

// ----------------------------------------------------------------------
// The shell: one instance, one store, hand-injected packets
// ----------------------------------------------------------------------

struct Rig {
    eng: Engine,
    inst: NodeId,
    store: NodeId,
}

const ONE_BACKEND: &str = "name=r priority=1 match * action=split 10.1.0.1:80=1";

impl Rig {
    fn new(rules: &str) -> Rig {
        let mut eng = Engine::with_topology(7, Topology::uniform(SimTime::from_micros(250)));
        let (inst_addr, store_addr) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1));
        let mut inst = YodaInstance::new(YodaConfig::default(), inst_addr, &[store_addr], vec![]);
        inst.install_vip(t_vip(), RuleTable::parse(rules).expect("rules parse"));
        let store = StoreServer::new(StoreServerConfig::default(), store_addr);
        let store = eng.add_node("store", store_addr, Zone::Dc, Box::new(store));
        let inst = eng.add_node("inst", inst_addr, Zone::Dc, Box::new(inst));
        Rig { eng, inst, store }
    }

    fn run_ms(&mut self, ms: u64) {
        self.eng.run_for(SimTime::from_millis(ms));
    }

    fn deliver(&mut self, pkt: Packet) {
        self.eng
            .with_node_ctx::<YodaInstance>(self.inst, |i, ctx| i.on_packet(ctx, pkt));
    }

    /// A segment as a mux would hand it over: IP-in-IP to the instance.
    fn inject(&mut self, src: Endpoint, dst: Endpoint, mut seg: Segment) {
        (seg.src_port, seg.dst_port) = (src.port, dst.port);
        let inner = seg.into_packet(src, dst);
        self.deliver(inner.encapsulate(Addr::new(10, 0, 2, 1), Addr::new(10, 0, 0, 1)));
    }

    fn client_sends(&mut self, seg: Segment) {
        self.inject(t_client(), t_vip(), seg);
        self.run_ms(5);
    }

    fn backend_sends(&mut self, n: u8, seg: Segment) {
        self.inject(t_backend(n), t_vss(), seg);
        self.run_ms(5);
    }

    fn ctrl(&mut self, msg: InstanceCtrl) {
        let me = Endpoint::new(Addr::new(10, 0, 4, 1), CTRL_PORT);
        self.deliver(msg.into_packet(me, Addr::new(10, 0, 0, 1)));
    }

    /// SYN, storage-a, SYN-ACK: the flow now waits for its header.
    fn open(&mut self) {
        self.client_sends(t_seg(Flags::SYN, C_ISN, 0, b""));
    }

    /// Header in, backend picked, SYN out: the flow is `Connecting`.
    fn request(&mut self) {
        self.client_sends(t_seg(Flags::ACK, C_ISN + 1, 0, REQ));
    }

    /// All the way to a tunnel on backend 1.
    fn tunnel(&mut self) {
        self.open();
        self.request();
        self.backend_sends(1, t_synack(S_ISN));
    }

    fn close_both_ways(&mut self, backend: u8, server_seq: u32) {
        self.client_sends(t_seg(Flags::FIN_ACK, C_ISN + 1 + REQ.len() as u32, 0, b""));
        self.backend_sends(backend, t_seg(Flags::FIN_ACK, server_seq, 0, b""));
    }

    fn inst(&self) -> &YodaInstance {
        self.eng.node_ref::<YodaInstance>(self.inst)
    }

    fn load(&self, n: u8) -> i64 {
        let loads = &self.inst().select_ctx.loads;
        loads.get(&t_backend(n)).copied().unwrap_or(0)
    }

    #[track_caller]
    fn assert_released(&self, live: usize) {
        assert_eq!(self.inst().live_flows(), live, "live flows");
        let held: Vec<_> = self
            .inst()
            .select_ctx
            .loads
            .iter()
            .filter(|(_, l)| **l != 0)
            .collect();
        assert!(
            held.is_empty(),
            "open-connection counts left behind: {held:?}"
        );
    }
}

/// The open-connection counts `LeastLoaded` reads. Fails on the
/// pre-split instance: a reset flow kept its count forever, and a race
/// won by a mirror left the primary's count behind (and later took the
/// winner's below zero).
#[test]
fn open_connection_counts_do_not_leak() {
    // Backend down → up: the backend comes back with nothing held.
    let mut r = Rig::new(ONE_BACKEND);
    r.tunnel();
    assert_eq!((r.inst().live_flows(), r.load(1)), (1, 1));
    r.ctrl(InstanceCtrl::BackendDown {
        backend: t_backend(1),
    });
    r.ctrl(InstanceCtrl::BackendUp {
        backend: t_backend(1),
    });
    assert_eq!((r.inst().live_flows(), r.load(1)), (0, 0));

    // A race won by the mirror: the count follows the tunnel.
    let mut r = Rig::new("name=m priority=1 match * action=mirror 10.1.0.1:80 10.1.0.2:80");
    r.tunnel();
    assert_eq!((r.load(1), r.load(2)), (1, 0));
    r.backend_sends(2, t_synack(7_000));
    r.backend_sends(2, t_seg(Flags::ACK, 7_001, 0, b"HTTP/1.1 200 OK\r\n\r\n"));
    assert_eq!(
        (r.load(1), r.load(2)),
        (0, 1),
        "count did not move to the winner"
    );
    r.close_both_ways(2, 7_020);
    assert_eq!((r.load(1), r.load(2)), (0, 0));
}

/// Every way a flow leaves the table goes through `retire`, and leaves
/// no flow and no open-connection count behind.
#[test]
fn every_exit_route_releases_the_flow() {
    // No rule matched.
    let mut r = Rig::new("name=css priority=1 match url=*.css action=split 10.1.0.1:80=1");
    r.open();
    r.request();
    r.assert_released(0);
    assert_eq!(r.inst().dropped_unknown, 1);

    // VIP gone between SYN and header.
    let mut r = Rig::new(ONE_BACKEND);
    r.open();
    r.eng.node_mut::<YodaInstance>(r.inst).remove_vip(t_vip());
    r.request();
    r.assert_released(0);

    // storage-a timeout: the store is dead from the start.
    let mut r = Rig::new(ONE_BACKEND);
    r.eng.fail_node(r.store);
    r.open();
    assert_eq!(r.inst().live_flows(), 1);
    r.run_ms(200);
    r.assert_released(0);

    // storage-b timeout: the store dies after the SYN-ACK.
    let mut r = Rig::new(ONE_BACKEND);
    r.open();
    r.eng.fail_node(r.store);
    r.request();
    r.backend_sends(1, t_synack(S_ISN));
    assert_eq!((r.inst().live_flows(), r.load(1)), (1, 1));
    r.run_ms(200);
    r.assert_released(0);

    // Backend down, in each phase that has a backend.
    for phase in 0..3 {
        let mut r = Rig::new(ONE_BACKEND);
        r.open();
        r.request();
        if phase >= 1 {
            r.inject(t_backend(1), t_vss(), t_synack(S_ISN));
        }
        if phase == 2 {
            r.run_ms(5);
        }
        assert_eq!((r.inst().live_flows(), r.load(1)), (1, 1));
        r.ctrl(InstanceCtrl::BackendDown {
            backend: t_backend(1),
        });
        r.assert_released(0);
        assert!(r.inst().rflows.is_empty());
    }

    // gc of a drained tunnel.
    let mut r = Rig::new(ONE_BACKEND);
    r.tunnel();
    r.close_both_ways(1, S_ISN + 1);
    r.assert_released(1);
    r.run_ms(8_000);
    r.assert_released(0);
    assert!(r.inst().rflows.is_empty());

    // gc of a stuck connection-phase entry: the backend never answers.
    let mut r = Rig::new(ONE_BACKEND);
    r.open();
    r.request();
    assert_eq!((r.inst().live_flows(), r.load(1)), (1, 1));
    r.run_ms(66_000);
    r.assert_released(0);

    // SYN port reuse on a drained tunnel: the old flow goes, a new one
    // (storage-a in flight) takes the key.
    let mut r = Rig::new(ONE_BACKEND);
    r.tunnel();
    r.close_both_ways(1, S_ISN + 1);
    r.inject(t_client(), t_vip(), t_seg(Flags::SYN, 90_000, 0, b""));
    r.assert_released(1);
    assert!(r.inst().rflows.is_empty());
}

/// What the instance put on the wire since the trace was enabled: every
/// packet it handed to the engine, in order (the reset segments have no
/// route in this rig and are traced as drops, still in send order).
fn wire_of(r: &Rig) -> Vec<(Endpoint, Endpoint, yoda_netsim::Protocol)> {
    let names = r.eng.names();
    r.eng
        .trace()
        .events()
        .into_iter()
        .filter(|ev| names.resolve(ev.node) == "inst")
        .filter_map(|ev| Some((ev.src?, ev.dst?, ev.protocol?)))
        .collect()
}

/// gc and `BackendDown` walk the whole flow table and retire what they
/// find; a retirement can send RSTs and store deletes. Two instances
/// holding the same flows, learned in opposite orders (so their tables
/// are laid out differently), must put the same packets on the wire in
/// the same order. Fails when `FlowTable::sorted_keys` stops sorting.
#[test]
fn table_walks_do_not_leak_insertion_order() {
    const FLOWS: u16 = 300;
    let client = |i: u16| Endpoint::new(t_client().addr, 40_000 + i);
    let vss = |i: u16| Endpoint::new(t_vip().addr, 40_000 + i);
    let run = |order: &mut dyn Iterator<Item = u16>| {
        let order: Vec<u16> = order.collect();
        let mut r = Rig::new(ONE_BACKEND);
        // Each step for every flow, then time for the store to work
        // through that step's writes.
        let mut each = |step: &dyn Fn(&mut Rig, u16)| {
            order.iter().for_each(|&i| step(&mut r, i));
            r.run_ms(20);
        };
        each(&|r, i| r.inject(client(i), t_vip(), t_seg(Flags::SYN, C_ISN, 0, b"")));
        each(&|r, i| r.inject(client(i), t_vip(), t_seg(Flags::ACK, C_ISN + 1, 0, REQ)));
        each(&|r, i| r.inject(t_backend(1), vss(i), t_synack(S_ISN)));
        // Every third tunnel closes both ways and starts draining.
        each(&|r, i| {
            if i % 3 == 0 {
                let fin = C_ISN + 1 + REQ.len() as u32;
                r.inject(client(i), t_vip(), t_seg(Flags::FIN_ACK, fin, 0, b""));
                r.inject(
                    t_backend(1),
                    vss(i),
                    t_seg(Flags::FIN_ACK, S_ISN + 1, 0, b""),
                );
            }
        });
        assert_eq!(r.inst().live_flows(), FLOWS as usize);
        // gc, past the drain deadline of the closed third ...
        r.eng.enable_trace(1 << 16);
        r.run_ms(8_000);
        let after_gc = (r.inst().live_flows(), r.inst().rflows.len(), r.load(1));
        assert_eq!(after_gc, (200, 200, 200));
        // ... then the backend fails under the rest.
        r.ctrl(InstanceCtrl::BackendDown {
            backend: t_backend(1),
        });
        r.run_ms(5);
        r.assert_released(0);
        wire_of(&r)
    };
    let wire = run(&mut (0..FLOWS));
    let resets = wire
        .iter()
        .filter(|(_, dst, _)| dst.addr == t_client().addr);
    assert_eq!(resets.count(), 200, "one RST per live client");
    assert_eq!(run(&mut (0..FLOWS).rev()), wire);
}

#[test]
fn config_defaults_match_calibration() {
    // A small-object (10 KB) request crosses the instance as ~20
    // forwarded packets (handshake, request, 7 data segments, the
    // client's acks, teardown) plus one connection setup: per-request
    // CPU ≈ 20·16 µs + 300 µs = 620 µs, so 8 cores saturate at
    // ≈12.9K req/s — the paper's §7.1 saturation point (12K req/s),
    // with 5K req/s landing at ≈40% and 10K at ≈80% (Figure 13's
    // operating points).
    let cfg = YodaConfig::default();
    let per_req = cfg.per_pkt_cpu.as_secs_f64() * 20.0 + cfg.per_conn_cpu.as_secs_f64();
    let saturation = cfg.cores as f64 / per_req;
    assert!(
        saturation > 11_000.0 && saturation < 14_500.0,
        "{saturation}"
    );
}
