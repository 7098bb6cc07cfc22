//! Packets: the unit of exchange between nodes.
//!
//! A [`Packet`] models an IP datagram: source and destination endpoints, a
//! protocol number, and opaque bytes. Higher layers (`yoda-tcp`,
//! `yoda-tcpstore`, ...) define their own wire formats and carry them in the
//! packet, which keeps the crates decoupled exactly the way real network
//! layers are.
//!
//! The bytes come in two parts, `payload` then `body`, and the wire carries
//! them back to back. Headers go in `payload`; `body` is data a sender
//! hands over as a view of its own buffer (a TCP segment's data, a slice
//! of the sender's queued chunk), which no hop reads or rewrites. Most
//! protocols leave `body` empty.
//!
//! IP-in-IP encapsulation — used by the Ananta-style L4 load balancer to
//! steer VIP traffic to a specific L7 instance — is modelled faithfully: the
//! inner packet is serialized into an outer packet with protocol
//! [`PROTO_IPIP`], its header and payload in the outer payload, its body
//! as the outer body.

use bytes::Bytes;

use crate::addr::{Addr, Endpoint};

/// Protocol number carried in the packet header (IANA-flavoured).
pub type Protocol = u8;

/// ICMP-style ping, used by the controller's health monitor.
pub const PROTO_PING: Protocol = 1;
/// TCP segments (see `yoda-tcp`).
pub const PROTO_TCP: Protocol = 6;
/// IP-in-IP encapsulation (L4 LB → L7 instance steering).
pub const PROTO_IPIP: Protocol = 4;
/// Datagram RPC, used by TCPStore and controller↔instance messages.
pub const PROTO_RPC: Protocol = 17;
/// Control-plane messages (mux map updates, rule installs).
pub const PROTO_CTRL: Protocol = 42;
/// Load-balancer probes (RIF + latency sampling, `yoda-balance`) —
/// IANA's "use for experimentation" number.
pub const PROTO_PROBE: Protocol = 253;

/// Fixed per-packet header overhead, in bytes, charged by the link model
/// (IP 20 + simulated L2 framing 18).
pub const HEADER_OVERHEAD: usize = 38;

/// Size of the inner-packet header [`Packet::encapsulate`] writes in front
/// of the payload: src (6) + dst (6) + protocol (1) + payload length (4).
/// TCP senders reserve this much room in front of every segment they
/// encode, so the forwarding tier can encapsulate without copying.
pub const IPIP_HEADER_LEN: usize = 17;

/// An IP-style datagram.
///
/// # Examples
///
/// ```
/// use yoda_netsim::{Addr, Endpoint, Packet, PROTO_TCP};
/// use bytes::Bytes;
///
/// let src = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
/// let dst = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
/// let mut pkt = Packet::new(src, dst, PROTO_TCP, Bytes::from_static(b"hi"));
/// assert_eq!(pkt.wire_len(), 2 + 38);
/// pkt.body = Bytes::from_static(b"there");
/// assert_eq!(pkt.wire_len(), 2 + 5 + 38);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source endpoint (address + transport port, folded together for
    /// convenience; port is 0 for portless protocols like ping).
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Protocol number selecting the payload's wire format.
    pub protocol: Protocol,
    /// Opaque payload bytes: the protocol's headers (and, for protocols
    /// that leave `body` empty, everything else).
    pub payload: Bytes,
    /// Bytes that follow `payload` on the wire, carried as the sender's
    /// view and never rewritten on the way.
    pub body: Bytes,
}

impl Packet {
    /// Creates a packet with an empty body.
    pub fn new(src: Endpoint, dst: Endpoint, protocol: Protocol, payload: Bytes) -> Self {
        Packet {
            src,
            dst,
            protocol,
            payload,
            body: Bytes::new(),
        }
    }

    /// Total bytes this packet occupies on the wire (payload, body and
    /// headers).
    pub fn wire_len(&self) -> usize {
        self.payload.len() + self.body.len() + HEADER_OVERHEAD
    }

    /// Wraps this packet in an IP-in-IP outer packet addressed to
    /// `outer_dst` (the chosen mux or L7 instance), from `outer_src`. The
    /// inner header declares the inner payload and body together; the body
    /// passes through as it is.
    ///
    /// Consumes the packet: when its payload buffer is uniquely owned and
    /// has [`IPIP_HEADER_LEN`] bytes of room in front (every TCP sender
    /// reserves it, every decapsulation frees it again) the inner header is
    /// written there and nothing is allocated or copied. A shared or
    /// room-less buffer — a link-duplicated packet, one a recovery lookup
    /// still buffers, a hand-built test packet — copies the payload once
    /// instead (a TCP segment's 21 header bytes); the bytes on the wire are
    /// the same either way.
    pub fn encapsulate(self, outer_src: Addr, outer_dst: Addr) -> Packet {
        let inner_len = self.payload.len() + self.body.len();
        let mut h = [0u8; IPIP_HEADER_LEN];
        bytes::put_be(&mut h, 0, &self.src.to_bytes());
        bytes::put_be(&mut h, 6, &self.dst.to_bytes());
        bytes::put_be(&mut h, 12, &[self.protocol]);
        bytes::put_be(&mut h, 13, &(inner_len as u32).to_be_bytes());
        let mut payload = self.payload;
        if !payload.try_prepend(&h) {
            payload = Bytes::with_headroom(0, [&h[..], &payload]);
        }
        Packet {
            src: Endpoint::new(outer_src, 0),
            dst: Endpoint::new(outer_dst, 0),
            protocol: PROTO_IPIP,
            payload,
            body: self.body,
        }
    }

    /// Unwraps an IP-in-IP packet: the [`IPIP_HEADER_LEN`]-byte header
    /// [`Packet::encapsulate`] wrote, then exactly the length it declares
    /// of payload and body. The inner payload is the outer one with the
    /// header popped off the front — the same allocation, so the next
    /// `encapsulate` can write over the header it just read — and the
    /// inner body is the outer body.
    ///
    /// Returns `None` if this packet is not [`PROTO_IPIP`] or its bytes
    /// are malformed, truncated or longer than the header says.
    pub fn decapsulate(self) -> Option<Packet> {
        if self.protocol != PROTO_IPIP {
            return None;
        }
        let mut b = self.payload;
        let src = Endpoint::from_bytes(&bytes::array_at::<6>(&b, 0)?);
        let dst = Endpoint::from_bytes(&bytes::array_at::<6>(&b, 6)?);
        let protocol = *b.get(12)?;
        let len = u32::from_be_bytes(bytes::array_at::<4>(&b, 13)?) as usize;
        if b.len() + self.body.len() != IPIP_HEADER_LEN + len {
            return None;
        }
        b.advance(IPIP_HEADER_LEN);
        Some(Packet {
            src,
            dst,
            protocol,
            payload: b,
            body: self.body,
        })
    }

    /// The flow key of this packet: the (src, dst) endpoint pair.
    pub fn flow(&self) -> (Endpoint, Endpoint) {
        (self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A header block and a body, the shape a TCP sender emits.
    fn sample() -> Packet {
        sample_with(b"head", b"GET / HTTP/1.0\r\n\r\n")
    }

    fn sample_with(payload: &[u8], body: &[u8]) -> Packet {
        let mut p = Packet::new(
            Endpoint::new(Addr::new(172, 16, 0, 9), 51515),
            Endpoint::new(Addr::new(100, 0, 0, 2), 80),
            PROTO_TCP,
            Bytes::copy_from_slice(payload),
        );
        p.body = Bytes::copy_from_slice(body);
        p
    }

    const MUX: Addr = Addr::new(10, 0, 0, 100);
    const INST: Addr = Addr::new(10, 0, 0, 5);

    #[test]
    fn decap_rejects_truncated() {
        let enc = sample().encapsulate(MUX, INST);
        let whole = enc.payload.len() + enc.body.len();
        for cut in [0, 5, 12, 16, enc.payload.len(), whole - 1] {
            let mut short = enc.clone();
            short.payload = enc.payload.slice(..cut.min(enc.payload.len()));
            short.body = enc.body.slice(..cut.saturating_sub(enc.payload.len()));
            assert!(short.decapsulate().is_none(), "cut={cut}");
        }
    }

    #[test]
    fn decap_rejects_trailing() {
        // An in-place re-encapsulation must be byte-identical to a fresh
        // one, so the framing is exact: header + declared length, no tail,
        // whichever part the tail rides in.
        let enc = sample().encapsulate(MUX, INST);
        assert_eq!(enc.clone().decapsulate(), Some(sample()));
        let mut long = enc.clone();
        long.payload = Bytes::from([&enc.payload[..], &[0]].concat());
        assert!(long.decapsulate().is_none());
        let mut long = enc.clone();
        long.body = Bytes::from([&enc.body[..], &[0]].concat());
        assert!(long.decapsulate().is_none());
    }

    #[test]
    fn encap_decap_roundtrip() {
        let inner = sample();
        let outer = inner.clone().encapsulate(MUX, INST);
        assert_eq!(outer.protocol, PROTO_IPIP);
        assert_eq!(outer.dst.addr, INST);
        assert_eq!(outer.payload.len(), IPIP_HEADER_LEN + inner.payload.len());
        assert_eq!(outer.body, inner.body);
        assert_eq!(outer.wire_len(), IPIP_HEADER_LEN + inner.wire_len());
        // The declared length counts payload and body.
        let declared = u32::from_be_bytes(bytes::array_at::<4>(&outer.payload, 13).unwrap());
        assert_eq!(declared as usize, inner.payload.len() + inner.body.len());
        assert_eq!(outer.decapsulate().expect("inner"), inner);
    }

    #[test]
    fn encapsulate_in_place_when_unique_with_room() {
        // A sender-shaped header block: one header of room in front.
        let head = b"segment header";
        let with_room = || {
            let mut p = sample();
            p.payload = Bytes::with_headroom(IPIP_HEADER_LEN, [&head[..]]);
            p
        };
        let reference = sample_with(head, &sample().body).encapsulate(MUX, INST);
        // Unique + room: written in place, the header block never moves,
        // and the body is the sender's, untouched, at every hop.
        let p = with_room();
        let (at, body) = (p.payload.as_ptr(), p.body.as_ptr());
        let outer = p.encapsulate(MUX, INST);
        assert_eq!(outer, reference);
        assert_eq!(outer.body.as_ptr(), body);
        let inner = outer.decapsulate().expect("inner");
        assert_eq!(inner.payload.as_ptr(), at, "decap is a view, not a copy");
        // ... and the header it popped is the room for the next hop.
        let again = inner.encapsulate(INST, MUX).decapsulate().expect("inner");
        assert_eq!((again.payload.as_ptr(), again.body.as_ptr()), (at, body));
        // A live clone shares the header block: the copy branch runs, the
        // clone is untouched, the bytes out are the same, and the body is
        // still not copied.
        let p = with_room();
        let (keep, body) = (p.payload.clone(), p.body.as_ptr());
        let outer = p.encapsulate(MUX, INST);
        assert_eq!(outer, reference);
        assert_ne!(outer.payload[IPIP_HEADER_LEN..].as_ptr(), keep.as_ptr());
        assert_eq!(keep, head);
        assert_eq!(outer.body.as_ptr(), body);
    }

    #[test]
    fn footprint_is_pinned() {
        // Two 8-byte endpoints, the protocol byte and two 24-byte `Bytes`
        // (header block and body view): every packet in flight and every
        // wheel entry carries this much, so a change here should be a
        // deliberate one.
        assert_eq!(std::mem::size_of::<Packet>(), 72);
    }

    #[test]
    fn decap_requires_ipip() {
        assert!(sample().decapsulate().is_none());
    }

    #[test]
    fn wire_len_includes_overhead() {
        let p = sample();
        assert_eq!(
            p.wire_len(),
            p.payload.len() + p.body.len() + HEADER_OVERHEAD
        );
    }

    #[test]
    fn nested_encapsulation() {
        // Double-encap must round-trip too (not used by Yoda, but the codec
        // should be closed under composition).
        let inner = sample();
        let mid = inner
            .clone()
            .encapsulate(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2));
        let outer = mid.encapsulate(Addr::new(3, 3, 3, 3), Addr::new(4, 4, 4, 4));
        assert_eq!(outer.decapsulate().unwrap().decapsulate().unwrap(), inner);
    }
}
