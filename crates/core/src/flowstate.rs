//! Flow-state records stored in TCPStore (paper §4.1–4.3, Figure 3).
//!
//! Two record types, matching the two storage events in Figure 3:
//!
//! * **storage-a** ([`SynRecord`]) — written when the client SYN arrives,
//!   *before* the SYN-ACK goes out: "It stores the TCP header from the
//!   client before responding with the SYN-ACK, so that other YODA
//!   instances can retrieve the TCP fields and the sequence numbers on
//!   failure of this YODA instance."
//! * **storage-b** ([`FlowRecord`]) — written when the backend's SYN-ACK
//!   arrives, *before* ACKing it: client/server ISNs (`C` and `S`) and
//!   the selected backend — everything a different instance needs to
//!   rebuild the sequence-translation state of Figure 4.
//!
//! Records are byte-encoded (TCPStore stores opaque values) and addressed
//! by flow keys; a reverse key indexed by the server-side flow lets an
//! instance that receives a *server* packet for an unknown flow find the
//! same record.
//!
//! Every key and record has a fixed layout and is written as one
//! exact-size block (`Bytes::concat`).

use yoda_netsim::{Bytes, Endpoint};
use yoda_tcp::SeqNum;

/// storage-a: the client SYN header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynRecord {
    /// Client endpoint.
    pub client: Endpoint,
    /// VIP endpoint the client connected to.
    pub vip: Endpoint,
    /// The client's ISN (`C` in the paper).
    pub client_isn: SeqNum,
}

impl SynRecord {
    /// TCPStore key for this record's flow.
    pub(crate) fn key(client: Endpoint, vip: Endpoint) -> Bytes {
        Bytes::concat([&b"syn:"[..], &client.to_bytes(), &vip.to_bytes()])
    }

    /// Serializes the record.
    pub fn encode(&self) -> Bytes {
        Bytes::concat([
            &self.client.to_bytes()[..],
            &self.vip.to_bytes(),
            &self.client_isn.to_be_bytes(),
        ])
    }

    /// Parses a record; `None` on malformed bytes.
    pub fn decode(b: &Bytes) -> Option<SynRecord> {
        if b.len() != 16 {
            return None;
        }
        let client = Endpoint::from_bytes(&yoda_netsim::array_at::<6>(b, 0)?);
        let vip = Endpoint::from_bytes(&yoda_netsim::array_at::<6>(b, 6)?);
        let client_isn = SeqNum::new(u32::from_be_bytes(yoda_netsim::array_at::<4>(b, 12)?));
        Some(SynRecord {
            client,
            vip,
            client_isn,
        })
    }
}

/// storage-b: the full flow state for the tunneling phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowRecord {
    /// Client endpoint.
    pub client: Endpoint,
    /// VIP endpoint (client-facing).
    pub vip: Endpoint,
    /// The backend server selected by rule matching.
    pub backend: Endpoint,
    /// Client ISN `C`.
    pub client_isn: SeqNum,
    /// Server ISN `S` (from the backend's SYN-ACK).
    pub server_isn: SeqNum,
}

impl FlowRecord {
    /// Primary key: indexed by the client-side flow.
    pub fn key(client: Endpoint, vip: Endpoint) -> Bytes {
        Bytes::concat([&b"flow:"[..], &client.to_bytes(), &vip.to_bytes()])
    }

    /// Reverse key: indexed by the server-side flow
    /// (backend → (VIP, client-port)), so server packets can find the
    /// record too.
    pub(crate) fn rkey(backend: Endpoint, vip_client_side: Endpoint) -> Bytes {
        let (backend, vip) = (backend.to_bytes(), vip_client_side.to_bytes());
        Bytes::concat([&b"rflow:"[..], &backend, &vip])
    }

    /// Serializes the record.
    pub fn encode(&self) -> Bytes {
        Bytes::concat([
            &self.client.to_bytes()[..],
            &self.vip.to_bytes(),
            &self.backend.to_bytes(),
            &self.client_isn.to_be_bytes(),
            &self.server_isn.to_be_bytes(),
        ])
    }

    /// Parses a record; `None` on malformed bytes.
    pub fn decode(b: &Bytes) -> Option<FlowRecord> {
        if b.len() != 26 {
            return None;
        }
        let client = Endpoint::from_bytes(&yoda_netsim::array_at::<6>(b, 0)?);
        let vip = Endpoint::from_bytes(&yoda_netsim::array_at::<6>(b, 6)?);
        let backend = Endpoint::from_bytes(&yoda_netsim::array_at::<6>(b, 12)?);
        let client_isn = SeqNum::new(u32::from_be_bytes(yoda_netsim::array_at::<4>(b, 18)?));
        let server_isn = SeqNum::new(u32::from_be_bytes(yoda_netsim::array_at::<4>(b, 22)?));
        Some(FlowRecord {
            client,
            vip,
            backend,
            client_isn,
            server_isn,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Addr;

    fn sample_flow() -> FlowRecord {
        FlowRecord {
            client: Endpoint::new(Addr::new(172, 16, 0, 1), 40000),
            vip: Endpoint::new(Addr::new(100, 0, 0, 1), 80),
            backend: Endpoint::new(Addr::new(10, 1, 0, 3), 80),
            client_isn: SeqNum::new(0xDEADBEEF),
            server_isn: SeqNum::new(0x12345678),
        }
    }

    #[test]
    fn syn_record_roundtrip() {
        let r = SynRecord {
            client: Endpoint::new(Addr::new(172, 16, 0, 1), 40000),
            vip: Endpoint::new(Addr::new(100, 0, 0, 1), 80),
            client_isn: SeqNum::new(777),
        };
        assert_eq!(SynRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn flow_record_roundtrip() {
        let r = sample_flow();
        assert_eq!(FlowRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn keys_are_distinct_per_flow_and_type() {
        let c1 = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
        let c2 = Endpoint::new(Addr::new(172, 16, 0, 1), 40001);
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        assert_ne!(SynRecord::key(c1, vip), SynRecord::key(c2, vip));
        assert_ne!(SynRecord::key(c1, vip), FlowRecord::key(c1, vip));
        let backend = Endpoint::new(Addr::new(10, 1, 0, 3), 80);
        let vss = Endpoint::new(vip.addr, c1.port);
        assert_ne!(FlowRecord::key(c1, vip), FlowRecord::rkey(backend, vss));
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let enc = sample_flow().encode();
        assert!(FlowRecord::decode(&enc.slice(..25)).is_none());
        assert!(SynRecord::decode(&enc).is_none());
    }
}
