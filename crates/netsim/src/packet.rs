//! Packets: the unit of exchange between nodes.
//!
//! A [`Packet`] models an IP datagram: source and destination endpoints, a
//! protocol number, and an opaque payload. Higher layers (`yoda-tcp`,
//! `yoda-tcpstore`, ...) define their own wire formats and carry them in the
//! payload, which keeps the crates decoupled exactly the way real network
//! layers are.
//!
//! IP-in-IP encapsulation — used by the Ananta-style L4 load balancer to
//! steer VIP traffic to a specific L7 instance — is modelled faithfully: the
//! inner packet is serialized into the payload of an outer packet with
//! protocol [`PROTO_IPIP`].

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
/// let pkt = Packet::new(src, dst, PROTO_TCP, Bytes::from_static(b"hi"));
/// assert_eq!(pkt.wire_len(), 2 + 38);
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
    /// Opaque payload bytes.
    pub payload: Bytes,
}

impl Packet {
    /// Creates a packet.
    pub fn new(src: Endpoint, dst: Endpoint, protocol: Protocol, payload: Bytes) -> Self {
        Packet {
            src,
            dst,
            protocol,
            payload,
        }
    }

    /// Total bytes this packet occupies on the wire (payload + headers).
    pub fn wire_len(&self) -> usize {
        self.payload.len() + HEADER_OVERHEAD
    }

    /// Deserializes the inner packet of an IP-in-IP payload: the
    /// [`IPIP_HEADER_LEN`]-byte header [`Packet::encapsulate`] wrote,
    /// followed by exactly the payload length it declares.
    ///
    /// Returns `None` when the buffer is malformed, truncated or longer
    /// than its header says. The payload is `b` with the header popped off
    /// the front — the same allocation, so the next `encapsulate` can
    /// write over the header it just read.
    pub fn decode(mut b: Bytes) -> Option<Packet> {
        let src = Endpoint::from_bytes(&bytes::array_at::<6>(&b, 0)?);
        let dst = Endpoint::from_bytes(&bytes::array_at::<6>(&b, 6)?);
        let protocol = *b.get(12)?;
        let len = u32::from_be_bytes(bytes::array_at::<4>(&b, 13)?) as usize;
        if b.len() != IPIP_HEADER_LEN + len {
            return None;
        }
        b.advance(IPIP_HEADER_LEN);
        Some(Packet {
            src,
            dst,
            protocol,
            payload: b,
        })
    }

    /// Wraps this packet in an IP-in-IP outer packet addressed to
    /// `outer_dst` (the chosen mux or L7 instance), from `outer_src`.
    ///
    /// Consumes the packet: when its buffer is uniquely owned and has
    /// [`IPIP_HEADER_LEN`] bytes of room in front of the payload (every
    /// TCP sender reserves it, every decapsulation frees it again) the
    /// inner header is written there and nothing is allocated or copied.
    /// A shared or room-less buffer — a link-duplicated packet, one a
    /// recovery lookup still buffers, a hand-built test packet — takes one
    /// copy instead; the bytes on the wire are the same either way.
    pub fn encapsulate(self, outer_src: Addr, outer_dst: Addr) -> Packet {
        let mut h = [0u8; IPIP_HEADER_LEN];
        bytes::put_be(&mut h, 0, &self.src.to_bytes());
        bytes::put_be(&mut h, 6, &self.dst.to_bytes());
        bytes::put_be(&mut h, 12, &[self.protocol]);
        bytes::put_be(&mut h, 13, &(self.payload.len() as u32).to_be_bytes());
        let mut payload = self.payload;
        if !payload.try_prepend(&h) {
            payload = Bytes::with_headroom(0, [&h[..], &payload]);
        }
        Packet {
            src: Endpoint::new(outer_src, 0),
            dst: Endpoint::new(outer_dst, 0),
            protocol: PROTO_IPIP,
            payload,
        }
    }

    /// Unwraps an IP-in-IP packet, returning the inner packet (a view
    /// into the same buffer, advanced past the inner header).
    ///
    /// Returns `None` if this packet is not [`PROTO_IPIP`] or the inner
    /// bytes are malformed.
    pub fn decapsulate(self) -> Option<Packet> {
        if self.protocol != PROTO_IPIP {
            return None;
        }
        Packet::decode(self.payload)
    }

    /// The flow key of this packet: the (src, dst) endpoint pair.
    pub fn flow(&self) -> (Endpoint, Endpoint) {
        (self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        sample_with(b"GET / HTTP/1.0\r\n\r\n")
    }

    fn sample_with(payload: &[u8]) -> Packet {
        Packet::new(
            Endpoint::new(Addr::new(172, 16, 0, 9), 51515),
            Endpoint::new(Addr::new(100, 0, 0, 2), 80),
            PROTO_TCP,
            Bytes::copy_from_slice(payload),
        )
    }

    const MUX: Addr = Addr::new(10, 0, 0, 100);
    const INST: Addr = Addr::new(10, 0, 0, 5);

    #[test]
    fn decode_rejects_truncated() {
        let enc = sample().encapsulate(MUX, INST).payload;
        for cut in [0, 5, 12, 16, enc.len() - 1] {
            assert!(Packet::decode(enc.slice(0..cut)).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_trailing() {
        // An in-place re-encapsulation must be byte-identical to a fresh
        // one, so the framing is exact: header + declared length, no tail.
        let enc = sample().encapsulate(MUX, INST).payload;
        assert_eq!(Packet::decode(enc.clone()), Some(sample()));
        let mut extended = enc.to_vec();
        extended.push(0);
        assert!(Packet::decode(Bytes::from(extended)).is_none());
    }

    #[test]
    fn encap_decap_roundtrip() {
        let inner = sample();
        let outer = inner.clone().encapsulate(MUX, INST);
        assert_eq!(outer.protocol, PROTO_IPIP);
        assert_eq!(outer.dst.addr, INST);
        assert_eq!(outer.payload.len(), IPIP_HEADER_LEN + inner.payload.len());
        assert_eq!(outer.decapsulate().expect("inner"), inner);
    }

    #[test]
    fn encapsulate_in_place_when_unique_with_room() {
        // A sender-shaped buffer: one header of room in front of the view.
        let body = b"segment bytes";
        let with_room = || {
            let mut p = sample();
            p.payload = Bytes::with_headroom(IPIP_HEADER_LEN, [&body[..]]);
            p
        };
        let reference = sample_with(body).encapsulate(MUX, INST);
        // Unique + room: written in place, the body never moves.
        let p = with_room();
        let at = p.payload.as_ptr();
        let outer = p.encapsulate(MUX, INST);
        assert_eq!(outer, reference);
        let inner = outer.decapsulate().expect("inner");
        assert_eq!(inner.payload.as_ptr(), at, "decap is a view, not a copy");
        // ... and the header it popped is the room for the next hop.
        let again = inner.encapsulate(INST, MUX).decapsulate().expect("inner");
        assert_eq!(again.payload.as_ptr(), at);
        // A live clone shares the buffer: the copy branch runs, the clone
        // is untouched, the bytes out are the same.
        let p = with_room();
        let keep = p.payload.clone();
        let outer = p.encapsulate(MUX, INST);
        assert_eq!(outer, reference);
        assert_ne!(outer.payload[IPIP_HEADER_LEN..].as_ptr(), keep.as_ptr());
        assert_eq!(keep, body);
    }

    #[test]
    fn footprint_is_pinned() {
        // Two 8-byte endpoints, the protocol byte and the 24-byte `Bytes`:
        // every packet in flight and every wheel entry carries this much,
        // so a change here should be a deliberate one.
        assert_eq!(std::mem::size_of::<Packet>(), 48);
    }

    #[test]
    fn decap_requires_ipip() {
        assert!(sample().decapsulate().is_none());
    }

    #[test]
    fn wire_len_includes_overhead() {
        let p = sample();
        assert_eq!(p.wire_len(), p.payload.len() + HEADER_OVERHEAD);
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
        assert_eq!(
            outer.decapsulate().unwrap().decapsulate().unwrap(),
            inner
        );
    }
}
