//! TCP segments and their wire format.
//!
//! Segments ride inside [`Packet`] payloads with
//! protocol `PROTO_TCP`. The wire format is a
//! simplified fixed 21-byte header (no options) followed by the payload;
//! keeping an explicit byte encoding (rather than passing structs around)
//! is what lets Yoda's flow-state records store and replay *actual packet
//! headers*, as the paper's TCPStore does.

use bytes::{put_be, Bytes};
use yoda_netsim::{Endpoint, Packet, IPIP_HEADER_LEN, PROTO_TCP};

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

    fn to_byte(self) -> u8 {
        (self.syn as u8)
            | ((self.ack as u8) << 1)
            | ((self.fin as u8) << 2)
            | ((self.rst as u8) << 3)
            | ((self.psh as u8) << 4)
    }

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
/// use bytes::Bytes;
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
/// let decoded = Segment::decode(seg.clone().encode()).unwrap();
/// assert_eq!(decoded, seg);
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
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + self.flags.syn as u32 + self.flags.fin as u32
    }

    /// The sequence number just past this segment.
    pub fn seq_end(&self) -> SeqNum {
        self.seq + self.seq_len()
    }

    /// Encodes the segment to bytes, consuming it.
    ///
    /// A segment decoded from a packet this node owns — the tunneling
    /// instance's case — still has its old header (and the IP-in-IP header
    /// in front of that) sitting before the payload in a buffer nobody
    /// else references: the new header is written over the old one and
    /// the payload never moves. Any other payload (a slice of a send
    /// queue, a crafted segment, a shared buffer) is copied once into a
    /// fresh buffer with [`IPIP_HEADER_LEN`] bytes of room in front, so
    /// every hop downstream can encapsulate in place.
    pub fn encode(self) -> Bytes {
        let mut h = [0u8; SEGMENT_HEADER_LEN];
        put_be(&mut h, 0, &self.src_port.to_be_bytes());
        put_be(&mut h, 2, &self.dst_port.to_be_bytes());
        put_be(&mut h, 4, &self.seq.raw().to_be_bytes());
        put_be(&mut h, 8, &self.ack.raw().to_be_bytes());
        put_be(&mut h, 12, &[self.flags.to_byte()]);
        put_be(&mut h, 13, &self.window.to_be_bytes());
        put_be(&mut h, 17, &(self.payload.len() as u32).to_be_bytes());
        let mut buf = self.payload;
        if !buf.try_prepend(&h) {
            buf = Bytes::with_headroom(IPIP_HEADER_LEN, &[&h, &buf]);
        }
        buf
    }

    /// Decodes a segment; `None` on truncation or length mismatch. The
    /// payload is `b` with the header popped off the front (same
    /// allocation, no reference-count traffic).
    pub fn decode(mut b: Bytes) -> Option<Segment> {
        let len = u32::from_be_bytes(bytes::array_at::<4>(&b, 17)?) as usize;
        if b.len() != SEGMENT_HEADER_LEN + len {
            return None;
        }
        let (src_port, dst_port) = (
            u16::from_be_bytes(bytes::array_at::<2>(&b, 0)?),
            u16::from_be_bytes(bytes::array_at::<2>(&b, 2)?),
        );
        let seq = SeqNum::new(u32::from_be_bytes(bytes::array_at::<4>(&b, 4)?));
        let ack = SeqNum::new(u32::from_be_bytes(bytes::array_at::<4>(&b, 8)?));
        let flags = Flags::from_byte(*b.get(12)?);
        let window = u32::from_be_bytes(bytes::array_at::<4>(&b, 13)?);
        b.advance(SEGMENT_HEADER_LEN);
        Some(Segment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            payload: b,
        })
    }

    /// Wraps this segment in a network packet from `src` to `dst`.
    ///
    /// The endpoint ports override the segment's ports (they must agree;
    /// debug builds assert it).
    pub fn into_packet(self, src: Endpoint, dst: Endpoint) -> Packet {
        debug_assert_eq!(self.src_port, src.port, "src port mismatch");
        debug_assert_eq!(self.dst_port, dst.port, "dst port mismatch");
        Packet::new(src, dst, PROTO_TCP, self.encode())
    }

    /// Extracts the segment of a TCP packet, consuming it (the segment's
    /// payload is the packet's buffer, now owned by the segment alone);
    /// `None` for other protocols or malformed payloads.
    pub fn from_packet(pkt: Packet) -> Option<Segment> {
        if pkt.protocol != PROTO_TCP {
            return None;
        }
        Segment::decode(pkt.payload)
    }

    /// Reads just the flag byte of a TCP packet without decoding the whole
    /// segment (the mux fast path classifies FIN/RST this way); `None` for
    /// other protocols or payloads too short to hold a header.
    pub fn peek_flags(pkt: &Packet) -> Option<Flags> {
        if pkt.protocol != PROTO_TCP || pkt.payload.len() < SEGMENT_HEADER_LEN {
            return None;
        }
        Some(Flags::from_byte(*pkt.payload.get(12)?))
    }

    /// Short human-readable summary for traces, tcpdump-style.
    pub fn summary(&self) -> String {
        format!(
            "{} seq={} ack={} len={}",
            self.flags,
            self.seq,
            self.ack,
            self.payload.len()
        )
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

    #[test]
    fn flags_roundtrip_all_combinations() {
        for bits in 0..32u8 {
            let f = Flags::from_byte(bits);
            assert_eq!(f.to_byte(), bits);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = seg(Flags::SYN_ACK, b"hello");
        assert_eq!(Segment::decode(s.clone().encode()).unwrap(), s);
    }

    #[test]
    fn decode_rejects_bad_lengths() {
        let enc = seg(Flags::ACK, b"abc").encode();
        assert!(Segment::decode(enc.slice(0..10)).is_none());
        assert!(Segment::decode(enc.slice(0..enc.len() - 1)).is_none());
        let mut extended = enc.to_vec();
        extended.push(0);
        assert!(Segment::decode(Bytes::from(extended)).is_none());
    }

    #[test]
    fn seq_len_counts_syn_fin() {
        assert_eq!(seg(Flags::SYN, b"").seq_len(), 1);
        assert_eq!(seg(Flags::FIN_ACK, b"xy").seq_len(), 3);
        assert_eq!(seg(Flags::ACK, b"xyz").seq_len(), 3);
        assert_eq!(seg(Flags::ACK, b"ab").seq_end(), SeqNum::new(9));
    }

    #[test]
    fn packet_roundtrip() {
        let s = seg(Flags::ACK, b"data");
        let src = Endpoint::new(Addr::new(1, 1, 1, 1), 1234);
        let dst = Endpoint::new(Addr::new(2, 2, 2, 2), 80);
        let pkt = s.clone().into_packet(src, dst);
        assert_eq!(Segment::from_packet(pkt).unwrap(), s);
    }

    #[test]
    fn rewrite_lands_on_the_old_header() {
        // Encode (the sender's one copy), decode, translate, re-encode:
        // the payload stays where the sender put it, and the buffer keeps
        // one IP-in-IP header of room in front for the next encapsulation.
        let src = Endpoint::new(Addr::new(1, 1, 1, 1), 1234);
        let dst = Endpoint::new(Addr::new(2, 2, 2, 2), 80);
        let pkt = seg(Flags::ACK, b"payload").into_packet(src, dst);
        let at = pkt.payload[SEGMENT_HEADER_LEN..].as_ptr();
        let mut s = Segment::from_packet(pkt).unwrap();
        assert_eq!(s.payload.as_ptr(), at, "decode is a view");
        s.seq += 1000;
        let out = s.clone();
        drop(s);
        let pkt = out.clone().into_packet(src, dst);
        // `out` is still alive: shared, so that one was a copy ...
        assert_ne!(pkt.payload[SEGMENT_HEADER_LEN..].as_ptr(), at);
        drop(pkt);
        // ... and once it is the only handle the rewrite is in place.
        let pkt = out.into_packet(src, dst);
        assert_eq!(pkt.payload[SEGMENT_HEADER_LEN..].as_ptr(), at);
        let outer = pkt.encapsulate(src.addr, dst.addr);
        assert_eq!(
            outer.payload[IPIP_HEADER_LEN + SEGMENT_HEADER_LEN..].as_ptr(),
            at,
            "sender reserved the encapsulation room"
        );
        let back = Segment::from_packet(outer.decapsulate().unwrap()).unwrap();
        assert_eq!(back.seq, SeqNum::new(1007));
        assert_eq!(&back.payload[..], b"payload");
    }

    #[test]
    fn from_packet_rejects_non_tcp() {
        let src = Endpoint::new(Addr::new(1, 1, 1, 1), 0);
        let pkt = Packet::new(src, src, yoda_netsim::PROTO_PING, Bytes::new());
        assert!(Segment::from_packet(pkt).is_none());
    }

    #[test]
    fn peek_flags_matches_decode() {
        let src = Endpoint::new(Addr::new(1, 1, 1, 1), 1234);
        let dst = Endpoint::new(Addr::new(2, 2, 2, 2), 80);
        let pkt = seg(Flags::FIN_ACK, b"tail").into_packet(src, dst);
        assert_eq!(Segment::peek_flags(&pkt).unwrap(), Flags::FIN_ACK);
        let short = Packet::new(src, dst, PROTO_TCP, Bytes::from_static(b"x"));
        assert!(Segment::peek_flags(&short).is_none());
        let ping = Packet::new(src, dst, yoda_netsim::PROTO_PING, Bytes::new());
        assert!(Segment::peek_flags(&ping).is_none());
    }

    #[test]
    fn summary_mentions_flags() {
        let text = seg(Flags::SYN_ACK, b"").summary();
        assert!(text.contains("SYN+ACK"), "{text}");
    }
}
