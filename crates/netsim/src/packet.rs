//! Packets: the unit of exchange between nodes.
//!
//! A [`Packet`] models an IP datagram: source and destination endpoints, a
//! protocol number, and opaque bytes. Higher layers (`yoda-tcp`,
//! `yoda-tcpstore`, ...) define their own wire formats and carry them in the
//! packet, which keeps the crates decoupled exactly the way real network
//! layers are.
//!
//! The bytes come in two parts, `head` then `body`, and the wire carries
//! them back to back. `head` holds the headers a hop rewrites — a TCP
//! segment's header, and on a tunnel the IP-in-IP header in front of it —
//! by value, in a fixed [`HEAD_CAP`]-byte [`Head`] inside the packet: a hop
//! reads and patches the head of the packet it owns, and nothing is
//! allocated or shared. `body` is everything else, as the sender's view: a
//! TCP segment's data (a slice of the sender's queued chunk, which no hop
//! reads or rewrites) or a whole message (control, store RPC, probe,
//! ping), whose head is empty.
//!
//! IP-in-IP encapsulation — used by the Ananta-style L4 load balancer to
//! steer VIP traffic to a specific L7 instance — is modelled faithfully: the
//! inner packet's header is written into the room in front of its head,
//! and its body passes through as the outer body.

// Per-packet vocabulary, inlined across crates (DESIGN.md "Cross-crate inlining").
#![deny(clippy::missing_inline_in_public_items)]

use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::addr::{Addr, Endpoint};
use crate::bytes::{array_at, put_be, Bytes};

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
/// Load-balancer probes (RIF + latency sampling, Prequal-style) —
/// IANA's "use for experimentation" number.
pub const PROTO_PROBE: Protocol = 253;

/// Size of the inner-packet header [`Packet::encapsulate`] writes in front
/// of the head: src (6) + dst (6) + protocol (1) + head and body length
/// (4).
pub const IPIP_HEADER_LEN: usize = 17;

/// Bytes a [`Head`] holds at most: one IP-in-IP header in front of one
/// TCP header (17 + 21).
pub const HEAD_CAP: usize = 38;

/// A packet's rewritable headers, inline: up to [`HEAD_CAP`] bytes,
/// right-aligned so that the free room sits in front of them, where
/// [`Head::push`] writes an outer header and [`Head::advance`] frees it
/// again. It is `Copy`, so a cloned packet owns its own head and patching
/// one never changes another. It reads as the slice of bytes it holds;
/// the room is not part of it.
#[derive(Clone, Copy)]
pub struct Head {
    buf: [u8; HEAD_CAP],
    /// The head is `buf[start..]`, the room `buf[..start]`.
    start: u8,
}

impl Head {
    /// An empty head: all room.
    #[inline]
    pub const fn new() -> Head {
        Head {
            buf: [0; HEAD_CAP],
            start: HEAD_CAP as u8,
        }
    }

    /// A head holding exactly `bytes`, with the rest of [`HEAD_CAP`] as
    /// room; an array longer than [`HEAD_CAP`] does not compile.
    #[inline]
    pub fn from_array<const N: usize>(bytes: [u8; N]) -> Head {
        const { assert!(N <= HEAD_CAP, "a head holds at most HEAD_CAP bytes") };
        let mut head = Head::new();
        let _fits = head.push(&bytes);
        head
    }

    /// Free bytes in front of the head.
    #[inline]
    pub fn room(&self) -> usize {
        self.start as usize
    }

    /// Writes `bytes` into the room just in front of the head, which grows
    /// over them. `false`, and the head untouched, when the room is
    /// shorter than `bytes`.
    #[must_use]
    #[inline]
    pub fn push(&mut self, bytes: &[u8]) -> bool {
        let Some(start) = self.room().checked_sub(bytes.len()) else {
            return false;
        };
        put_be(&mut self.buf, start, bytes);
        self.start = start as u8;
        true
    }

    /// Drops the first `n` bytes (all of them, if there are fewer), which
    /// become room again.
    #[inline]
    pub fn advance(&mut self, n: usize) {
        self.start = self.room().saturating_add(n).min(HEAD_CAP) as u8;
    }
}

impl Default for Head {
    #[inline]
    fn default() -> Head {
        Head::new()
    }
}

impl Deref for Head {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.buf.get(self.room()..).unwrap_or_default()
    }
}

impl DerefMut for Head {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        let start = self.room();
        self.buf.get_mut(start..).unwrap_or_default()
    }
}

impl PartialEq for Head {
    #[inline]
    fn eq(&self, other: &Head) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Head {}

impl fmt::Debug for Head {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Head({:?})", &self[..])
    }
}

/// An IP-style datagram.
///
/// # Examples
///
/// ```
/// use yoda_netsim::{Addr, Bytes, Endpoint, Head, Packet, PROTO_RPC};
///
/// let src = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
/// let dst = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
/// let mut pkt = Packet::new(src, dst, PROTO_RPC, Bytes::from_static(b"hi"));
/// assert_eq!(pkt.message().map(|m| &m[..]), Some(&b"hi"[..]));
/// pkt.head = Head::from_array(*b"hdr");
/// assert_eq!(pkt.message(), None, "a message rides in the body alone");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source endpoint (address + transport port, folded together for
    /// convenience; port is 0 for portless protocols like ping).
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Protocol number selecting the wire format of `head` and `body`.
    pub protocol: Protocol,
    /// The headers a hop rewrites, by value: a TCP segment's header, with
    /// an IP-in-IP header in front on a tunnel. Empty for a message.
    pub head: Head,
    /// The bytes after `head` on the wire, as the sender's view: a TCP
    /// segment's data, or a whole message. Never rewritten on the way.
    pub body: Bytes,
}

impl Packet {
    /// Creates a message packet: an empty head, and `body`.
    #[inline]
    pub fn new(src: Endpoint, dst: Endpoint, protocol: Protocol, body: Bytes) -> Self {
        Packet {
            src,
            dst,
            protocol,
            head: Head::new(),
            body,
        }
    }

    /// The message a packet of a message protocol carries: its body, when
    /// the head is empty (the one shape [`Packet::new`] builds). `None`
    /// for any other shape, so a message decoder never sees a split
    /// message.
    #[inline]
    pub fn message(&self) -> Option<&Bytes> {
        self.head.is_empty().then_some(&self.body)
    }

    /// Wraps this packet in an IP-in-IP outer packet addressed to
    /// `outer_dst` (the chosen mux or L7 instance), from `outer_src`: the
    /// inner header — src, dst, protocol, and the length of head and body
    /// — is written into the room in front of the head, and the body
    /// passes through as it is. Nothing is allocated.
    ///
    /// `None` when the head has less than [`IPIP_HEADER_LEN`] bytes of
    /// room: a TCP segment encapsulated once already, which no forwarding
    /// path nests again. A message, whose head is empty, nests twice.
    #[inline]
    pub fn encapsulate(mut self, outer_src: Addr, outer_dst: Addr) -> Option<Packet> {
        let inner_len = self.head.len() + self.body.len();
        let mut h = [0u8; IPIP_HEADER_LEN];
        put_be(&mut h, 0, &self.src.to_bytes());
        put_be(&mut h, 6, &self.dst.to_bytes());
        put_be(&mut h, 12, &[self.protocol]);
        put_be(&mut h, 13, &(inner_len as u32).to_be_bytes());
        if !self.head.push(&h) {
            return None;
        }
        self.src = Endpoint::new(outer_src, 0);
        self.dst = Endpoint::new(outer_dst, 0);
        self.protocol = PROTO_IPIP;
        Some(self)
    }

    /// Unwraps an IP-in-IP packet: the [`IPIP_HEADER_LEN`]-byte header
    /// [`Packet::encapsulate`] wrote at the front of the head, then exactly
    /// the length it declares of head and body. The inner head is the
    /// outer one with that header dropped — it becomes room for the next
    /// `encapsulate` — and the inner body is the outer body.
    ///
    /// Returns `None` if this packet is not [`PROTO_IPIP`], its head does
    /// not hold the whole header, or its bytes are shorter or longer than
    /// the header says.
    #[inline]
    pub fn decapsulate(mut self) -> Option<Packet> {
        if self.protocol != PROTO_IPIP {
            return None;
        }
        let h = &self.head;
        let src = Endpoint::from_bytes(&array_at::<6>(h, 0)?);
        let dst = Endpoint::from_bytes(&array_at::<6>(h, 6)?);
        let protocol = *h.get(12)?;
        let len = u32::from_be_bytes(array_at::<4>(h, 13)?) as usize;
        if h.len() + self.body.len() != IPIP_HEADER_LEN + len {
            return None;
        }
        self.head.advance(IPIP_HEADER_LEN);
        (self.src, self.dst, self.protocol) = (src, dst, protocol);
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(bytes: &[u8]) -> Head {
        let mut h = Head::new();
        assert!(h.push(bytes), "{} bytes fit", bytes.len());
        h
    }

    /// A header in the head and a body, the shape a TCP sender emits.
    fn sample() -> Packet {
        sample_with(b"head", b"GET / HTTP/1.0\r\n\r\n")
    }

    fn sample_with(h: &[u8], body: &[u8]) -> Packet {
        let mut p = Packet::new(
            Endpoint::new(Addr::new(172, 16, 0, 9), 51515),
            Endpoint::new(Addr::new(100, 0, 0, 2), 80),
            PROTO_TCP,
            Bytes::copy_from_slice(body),
        );
        p.head = head(h);
        p
    }

    const MUX: Addr = Addr::new(10, 0, 0, 100);
    const INST: Addr = Addr::new(10, 0, 0, 5);

    #[test]
    fn head_pushes_in_front_and_advances_back() {
        let mut h = Head::from_array(*b"tcp");
        assert_eq!((&h[..], h.room()), (&b"tcp"[..], HEAD_CAP - 3));
        assert!(h.push(b"ip"));
        assert_eq!(&h[..], b"iptcp");
        // More than the room: refused, untouched.
        assert!(!h.push(&[0; HEAD_CAP]));
        assert_eq!(&h[..], b"iptcp");
        h.advance(2);
        assert_eq!(&h[..], b"tcp");
        // The room is not part of the head: equal bytes are equal heads.
        assert_eq!(h, Head::from_array(*b"tcp"));
        h[0] = b'T';
        assert_eq!(&h[..], b"Tcp");
        h.advance(usize::MAX);
        assert!(h.is_empty());
        assert_eq!(h.room(), HEAD_CAP);
        assert_eq!(h, Head::default());
        assert!(h.push(&[7; HEAD_CAP]));
        assert_eq!((h.len(), h.room()), (HEAD_CAP, 0));
        assert!(!h.push(b"x"));
    }

    #[test]
    fn decap_rejects_truncated() {
        let enc = sample().encapsulate(MUX, INST).expect("room");
        let whole = enc.head.len() + enc.body.len();
        for cut in [0, 5, 12, 16, enc.head.len(), whole - 1] {
            let mut short = enc.clone();
            short.head = head(&enc.head[..cut.min(enc.head.len())]);
            short.body = enc.body.slice(..cut.saturating_sub(enc.head.len()));
            assert!(short.decapsulate().is_none(), "cut={cut}");
        }
    }

    #[test]
    fn decap_rejects_trailing_and_a_header_in_the_body() {
        // The framing is exact: header + declared length, no tail,
        // whichever part the tail rides in.
        let enc = sample().encapsulate(MUX, INST).expect("room");
        assert_eq!(enc.clone().decapsulate(), Some(sample()));
        let mut long = enc.clone();
        long.head = head(&[&enc.head[..], &[0]].concat());
        assert!(long.decapsulate().is_none());
        let mut long = enc.clone();
        long.body = Bytes::from([&enc.body[..], &[0]].concat());
        assert!(long.decapsulate().is_none());
        // The IP-in-IP header is a rewritable header: it rides in the head.
        let mut moved = enc.clone();
        (moved.head, moved.body) = (
            Head::new(),
            Bytes::from([&enc.head[..], &enc.body].concat()),
        );
        assert!(moved.decapsulate().is_none());
    }

    #[test]
    fn encap_decap_roundtrip() {
        let inner = sample();
        let outer = inner.clone().encapsulate(MUX, INST).expect("room");
        assert_eq!(outer.protocol, PROTO_IPIP);
        assert_eq!(outer.dst.addr, INST);
        assert_eq!(outer.head.len(), IPIP_HEADER_LEN + inner.head.len());
        assert_eq!(&outer.head[IPIP_HEADER_LEN..], &inner.head[..]);
        // The declared length counts head and body.
        let declared = u32::from_be_bytes(array_at::<4>(&outer.head, 13).unwrap());
        assert_eq!(declared as usize, inner.head.len() + inner.body.len());
        assert_eq!(outer.decapsulate().expect("inner"), inner);
    }

    #[test]
    fn the_body_passes_through_and_a_clone_owns_its_head() {
        // The body is the sender's view at every hop; the head is copied
        // with the packet, so rewriting one copy leaves the other as it
        // was.
        let p = sample();
        let body = p.body.as_ptr();
        let outer = p.clone().encapsulate(MUX, INST).expect("room");
        assert_eq!(outer.body.as_ptr(), body);
        let mut inner = outer.decapsulate().expect("inner");
        assert_eq!(inner.body.as_ptr(), body);
        let keep = inner.clone();
        inner.head[0] = b'H';
        assert_eq!(&inner.head[..], b"Head");
        assert_eq!(keep, p);
        let again = inner.encapsulate(INST, MUX).expect("room again");
        assert_eq!(again.body.as_ptr(), body);
    }

    #[test]
    fn a_segment_header_nests_once() {
        // 21 header bytes leave room for one IP-in-IP header, not two: the
        // second encapsulation is refused, never truncated.
        let seg = sample_with(&[9; 21], b"data");
        let once = seg.encapsulate(MUX, INST).expect("one level");
        assert_eq!((once.head.len(), once.head.room()), (HEAD_CAP, 0));
        assert_eq!(once.encapsulate(INST, MUX), None);
    }

    #[test]
    fn footprint_is_pinned() {
        // Two 8-byte endpoints, the protocol byte, the 39-byte inline head
        // and the 24-byte body view: every packet in flight and every
        // wheel entry carries this much, so a change here should be a
        // deliberate one.
        assert_eq!(std::mem::size_of::<Head>(), HEAD_CAP + 1);
        assert_eq!(std::mem::size_of::<Packet>(), 80);
    }

    #[test]
    fn decap_requires_ipip() {
        assert!(sample().decapsulate().is_none());
    }

    #[test]
    fn a_message_rides_in_the_body_and_nests_twice() {
        // A message's head is empty, so a message nests twice (not used
        // by Yoda, but the codec is closed under it).
        let ends = sample();
        let msg = Packet::new(ends.src, ends.dst, PROTO_RPC, Bytes::from_static(b"msg"));
        assert_eq!(msg.message().map(|m| &m[..]), Some(&b"msg"[..]));
        let mid = msg
            .clone()
            .encapsulate(Addr::new(1, 1, 1, 1), Addr::new(2, 2, 2, 2))
            .expect("room");
        assert_eq!(mid.message(), None, "an IP-in-IP packet is no message");
        let outer = mid
            .encapsulate(Addr::new(3, 3, 3, 3), Addr::new(4, 4, 4, 4))
            .expect("room for two");
        assert_eq!(outer.decapsulate().unwrap().decapsulate().unwrap(), msg);
    }
}
