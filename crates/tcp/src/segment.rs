//! TCP segments and their wire format.
//!
//! Segments ride in [`Packet`]s with protocol `PROTO_TCP`, in one shape:
//! the packet's `head` is exactly the simplified fixed 21-byte header (no
//! options), held by value in the packet, and its `body` is the segment's
//! data — a view of the sender's buffer, never copied on the way. Keeping
//! an explicit byte encoding (rather than passing structs around) is what
//! lets Yoda's flow-state records store and replay *actual packet
//! headers*, as the paper's TCPStore does. This module is the only one that knows the
//! header layout: the instance's tunnel and the mux's splice fast path
//! both rewrite segments through [`Translation`].

// Per-packet vocabulary, inlined across crates (DESIGN.md "Cross-crate inlining").
#![deny(clippy::missing_inline_in_public_items)]

use yoda_netsim::{add_be32, put_be, Bytes, Endpoint, Head, Packet, PROTO_TCP};

use crate::seq::SeqNum;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Flags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgement field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push function.
    pub psh: bool,
}

impl Flags {
    /// SYN only.
    pub const SYN: Flags = Flags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: Flags = Flags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// ACK only.
    pub const ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
        psh: false,
    };
    /// FIN+ACK.
    pub const FIN_ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
        psh: false,
    };
    /// RST only.
    pub const RST: Flags = Flags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
        psh: false,
    };

    #[inline]
    fn to_byte(self) -> u8 {
        (self.syn as u8)
            | ((self.ack as u8) << 1)
            | ((self.fin as u8) << 2)
            | ((self.rst as u8) << 3)
            | ((self.psh as u8) << 4)
    }

    #[inline]
    fn from_byte(b: u8) -> Flags {
        Flags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
            psh: b & 16 != 0,
        }
    }
}

impl std::fmt::Display for Flags {
    #[inline]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if self.psh {
            parts.push("PSH");
        }
        if self.ack {
            parts.push("ACK");
        }
        write!(f, "{}", if parts.is_empty() { "." } else { "" })?;
        write!(f, "{}", parts.join("+"))
    }
}

/// A TCP segment (header + payload).
///
/// # Examples
///
/// ```
/// use yoda_tcp::{Segment, Flags, SeqNum};
/// use yoda_netsim::{Addr, Bytes, Endpoint};
///
/// let seg = Segment {
///     src_port: 40000,
///     dst_port: 80,
///     seq: SeqNum::new(1000),
///     ack: SeqNum::new(0),
///     flags: Flags::SYN,
///     window: 65535,
///     payload: Bytes::new(),
/// };
/// let src = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
/// let dst = Endpoint::new(Addr::new(10, 1, 0, 1), 80);
/// let pkt = seg.clone().into_packet(src, dst);
/// assert_eq!(Segment::from_packet(pkt), Some(seg));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: SeqNum,
    /// Acknowledgement number (next expected byte), valid when `flags.ack`.
    pub ack: SeqNum,
    /// Control flags.
    pub flags: Flags,
    /// Advertised receive window (32-bit: our wire format has no window
    /// scaling option, so the field is wide enough natively).
    pub window: u32,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Size of the encoded segment header.
pub const SEGMENT_HEADER_LEN: usize = 21;

impl Segment {
    /// Sequence-space length: payload bytes plus one for SYN and FIN.
    #[inline]
    pub(crate) fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// The sequence number just past this segment.
    #[inline]
    pub fn seq_end(&self) -> SeqNum {
        self.seq + self.seq_len()
    }

    /// The header's wire form.
    #[inline]
    fn header(&self) -> [u8; SEGMENT_HEADER_LEN] {
        let mut h = [0u8; SEGMENT_HEADER_LEN];
        put_be(&mut h, 0, &self.src_port.to_be_bytes());
        put_be(&mut h, 2, &self.dst_port.to_be_bytes());
        put_be(&mut h, 4, &self.seq.to_be_bytes());
        put_be(&mut h, 8, &self.ack.to_be_bytes());
        put_be(&mut h, 12, &[self.flags.to_byte()]);
        put_be(&mut h, 13, &self.window.to_be_bytes());
        put_be(&mut h, 17, &(self.payload.len() as u32).to_be_bytes());
        h
    }

    /// Wraps this segment in a network packet from `src` to `dst`: the
    /// header is written into the packet's head, with room in front for
    /// one IP-in-IP header, and the data rides as the packet's body, the
    /// same view the segment held (a slice of the sender's chunk).
    /// Nothing is allocated and no data byte is copied.
    ///
    /// The endpoint ports override the segment's ports (they must agree;
    /// debug builds assert it).
    #[inline]
    pub fn into_packet(self, src: Endpoint, dst: Endpoint) -> Packet {
        debug_assert_eq!(self.src_port, src.port, "src port mismatch");
        debug_assert_eq!(self.dst_port, dst.port, "dst port mismatch");
        Packet {
            src,
            dst,
            protocol: PROTO_TCP,
            head: Head::from_array(self.header()),
            body: self.payload,
        }
    }

    /// Extracts the segment of a TCP packet, consuming it: the segment's
    /// data is the packet's body. `None` for other protocols and for
    /// packets [`Segment::peek`] rejects.
    #[inline]
    pub fn from_packet(pkt: Packet) -> Option<Segment> {
        let (flags, _) = Segment::peek(&pkt)?;
        let h = &pkt.head;
        Some(Segment {
            src_port: u16::from_be_bytes(yoda_netsim::array_at::<2>(h, 0)?),
            dst_port: u16::from_be_bytes(yoda_netsim::array_at::<2>(h, 2)?),
            seq: SeqNum::new(u32::from_be_bytes(yoda_netsim::array_at::<4>(h, 4)?)),
            ack: SeqNum::new(u32::from_be_bytes(yoda_netsim::array_at::<4>(h, 8)?)),
            flags,
            window: u32::from_be_bytes(yoda_netsim::array_at::<4>(h, 13)?),
            payload: pkt.body,
        })
    }

    /// Reads the flags and the data length of a TCP packet without
    /// decoding the segment (the mux classifies packets this way). `None`
    /// for other protocols and for any packet not in the one wire shape:
    /// a head of exactly the header, and a body of exactly the length it
    /// declares.
    #[inline]
    pub fn peek(pkt: &Packet) -> Option<(Flags, usize)> {
        let h = &pkt.head;
        let len = u32::from_be_bytes(yoda_netsim::array_at::<4>(h, 17)?) as usize;
        let framed =
            pkt.protocol == PROTO_TCP && h.len() == SEGMENT_HEADER_LEN && pkt.body.len() == len;
        framed.then_some((Flags::from_byte(*h.get(12)?), len))
    }
}

/// One direction of a tunneled connection (paper Figure 4): segments
/// leave from `src` to `dst`, with `seq_add` added to the sequence number
/// and `ack_add` to the acknowledgement number (when ACK is set), both
/// modulo 2³². The instance applies it to decoded segments, the mux to
/// packets on the wire; both get it from the same [`Translation`] value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Rewritten source endpoint.
    pub src: Endpoint,
    /// Rewritten destination endpoint.
    pub dst: Endpoint,
    /// Added to the sequence number.
    pub seq_add: u32,
    /// Added to the acknowledgement number, when the ACK flag is set.
    pub ack_add: u32,
}

impl Translation {
    /// Translates a decoded segment (the instance's tunnel); the caller
    /// sends it from `self.src` to `self.dst`.
    #[inline]
    pub fn apply(&self, seg: &mut Segment) {
        seg.src_port = self.src.port;
        seg.dst_port = self.dst.port;
        seg.seq += self.seq_add;
        if seg.flags.ack {
            seg.ack += self.ack_add;
        }
    }

    /// Translates a TCP packet by patching the header in its head, and
    /// readdresses it (the mux's splice fast path). The head is the
    /// packet's own, so nothing is copied or allocated, and the body is
    /// never touched. Returns `false`, leaving the packet untouched, unless
    /// it is TCP holding exactly one segment.
    #[inline]
    pub fn apply_in_place(&self, pkt: &mut Packet) -> bool {
        let Some((flags, _)) = Segment::peek(pkt) else {
            return false;
        };
        let h = &mut pkt.head[..];
        put_be(h, 0, &self.src.port.to_be_bytes());
        put_be(h, 2, &self.dst.port.to_be_bytes());
        add_be32(h, 4, self.seq_add);
        if flags.ack {
            add_be32(h, 8, self.ack_add);
        }
        pkt.src = self.src;
        pkt.dst = self.dst;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Addr;

    fn seg(flags: Flags, payload: &'static [u8]) -> Segment {
        Segment {
            src_port: 1234,
            dst_port: 80,
            seq: SeqNum::new(7),
            ack: SeqNum::new(9),
            flags,
            window: 4096,
            payload: Bytes::from_static(payload),
        }
    }

    const SRC: Endpoint = Endpoint::new(Addr::new(1, 1, 1, 1), 1234);
    const DST: Endpoint = Endpoint::new(Addr::new(2, 2, 2, 2), 80);

    #[test]
    fn flags_roundtrip_all_combinations() {
        for bits in 0..32u8 {
            let f = Flags::from_byte(bits);
            assert_eq!(f.to_byte(), bits);
        }
    }

    #[test]
    fn packet_roundtrip() {
        for s in [seg(Flags::SYN_ACK, b""), seg(Flags::ACK, b"data")] {
            let pkt = s.clone().into_packet(SRC, DST);
            assert_eq!(pkt.head.len(), SEGMENT_HEADER_LEN, "the header alone");
            assert_eq!(pkt.head.room(), yoda_netsim::IPIP_HEADER_LEN);
            assert_eq!(pkt.body, s.payload);
            assert_eq!(Segment::from_packet(pkt).unwrap(), s);
        }
    }

    #[test]
    fn from_packet_rejects_every_other_shape() {
        let good = seg(Flags::ACK, b"abc").into_packet(SRC, DST);
        let with = |head: &[u8], body: &[u8]| {
            let mut p = good.clone();
            p.head = Head::new();
            assert!(p.head.push(head));
            p.body = Bytes::copy_from_slice(body);
            p
        };
        let (h, b) = (&good.head[..], &good.body[..]);
        let whole = [h, b].concat();
        for bad in [
            with(&h[..10], b),
            with(h, &b[..2]),
            with(h, b"abcd"),
            // Data after the header, in the head: the contiguous shape.
            with(&whole, b""),
            with(&whole[..22], &whole[22..]),
            // The header in the body: the message shape.
            with(b"", &whole),
        ] {
            assert!(Segment::peek(&bad).is_none(), "{bad:?}");
            assert!(Segment::from_packet(bad).is_none());
        }
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        assert_eq!(seg(Flags::SYN, b"").seq_len(), 1);
        assert_eq!(seg(Flags::FIN_ACK, b"xy").seq_len(), 3);
        assert_eq!(seg(Flags::ACK, b"xyz").seq_len(), 3);
        assert_eq!(seg(Flags::ACK, b"ab").seq_end(), SeqNum::new(9));
    }

    #[test]
    fn data_rides_as_the_senders_view() {
        // The segment's data is the sender's chunk at every step: into the
        // packet, through an encapsulation and back, out of the packet,
        // translated and into the next packet.
        let chunk = Bytes::from_static(b"..payload..");
        let at = chunk.slice(2..9);
        let mut s = seg(Flags::ACK, b"");
        s.payload = at.clone();
        let pkt = s.into_packet(SRC, DST);
        assert_eq!(pkt.body.as_ptr(), at.as_ptr());
        let outer = pkt.encapsulate(SRC.addr, DST.addr).unwrap();
        assert_eq!(outer.body.as_ptr(), at.as_ptr());
        let mut back = Segment::from_packet(outer.decapsulate().unwrap()).unwrap();
        assert_eq!(back.payload.as_ptr(), at.as_ptr(), "decode is a view");
        back.seq += 1000;
        let pkt = back.into_packet(SRC, DST);
        assert_eq!(pkt.body.as_ptr(), at.as_ptr());
        let back = Segment::from_packet(pkt).unwrap();
        assert_eq!(back.seq, SeqNum::new(1007));
        assert_eq!(&back.payload[..], b"payload");
    }

    #[test]
    fn apply_in_place_rewrites_one_clone_alone() {
        let t = Translation {
            src: Endpoint::new(Addr::new(3, 3, 3, 3), 80),
            dst: Endpoint::new(Addr::new(4, 4, 4, 4), 4321),
            seq_add: 10,
            ack_add: 20,
        };
        let mut pkt = seg(Flags::ACK, b"body").into_packet(SRC, DST);
        let body = pkt.body.as_ptr();
        assert!(t.apply_in_place(&mut pkt));
        let keep = pkt.clone();
        assert!(t.apply_in_place(&mut pkt));
        assert_eq!(pkt.body.as_ptr(), body, "the body is never touched");
        let s = Segment::from_packet(pkt).unwrap();
        assert_eq!((s.seq, s.ack), (SeqNum::new(27), SeqNum::new(49)));
        assert_eq!(Segment::from_packet(keep).unwrap().seq, SeqNum::new(17));
    }

    #[test]
    fn from_packet_rejects_non_tcp() {
        let src = Endpoint::new(Addr::new(1, 1, 1, 1), 0);
        let pkt = Packet::new(src, src, yoda_netsim::PROTO_PING, Bytes::new());
        assert!(Segment::from_packet(pkt).is_none());
    }

    #[test]
    fn peek_matches_decode() {
        let pkt = seg(Flags::FIN_ACK, b"tail").into_packet(SRC, DST);
        assert_eq!(Segment::peek(&pkt), Some((Flags::FIN_ACK, 4)));
        let short = Packet::new(SRC, DST, PROTO_TCP, Bytes::from_static(b"x"));
        assert!(Segment::peek(&short).is_none());
        let mut long = pkt.clone();
        long.body = Bytes::from_static(b"tails");
        assert!(Segment::peek(&long).is_none());
        let mut ping = pkt;
        ping.protocol = yoda_netsim::PROTO_PING;
        assert!(Segment::peek(&ping).is_none());
    }
}
