//! The store wire protocol: `set(key, value)`, `get(key)`, `delete(key)`.
//!
//! Requests and responses ride in `PROTO_RPC`
//! packets. The paper's TCPStore uses long-lived TCP connections between
//! Memcached clients and servers; the simulation models those pre-warmed
//! connections as datagram exchanges with the same one-round-trip cost
//! (no per-op handshake, exactly like a pooled connection).

use bytes::{BufMut, Bytes, BytesMut};
use yoda_netsim::{Endpoint, Packet, PROTO_RPC};

/// Operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Read a key.
    Get,
    /// Write a key.
    Set,
    /// Remove a key.
    Delete,
}

impl StoreOp {
    fn to_byte(self) -> u8 {
        match self {
            StoreOp::Get => 1,
            StoreOp::Set => 2,
            StoreOp::Delete => 3,
        }
    }

    fn from_byte(b: u8) -> Option<StoreOp> {
        match b {
            1 => Some(StoreOp::Get),
            2 => Some(StoreOp::Set),
            3 => Some(StoreOp::Delete),
            _ => None,
        }
    }
}

/// Response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreStatus {
    /// Operation succeeded (for `get`: key found).
    Ok,
    /// Key not present.
    Miss,
}

/// A client→server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreRequest {
    /// Correlation id chosen by the client.
    pub req_id: u64,
    /// Operation.
    pub op: StoreOp,
    /// Key bytes.
    pub key: Bytes,
    /// Value bytes (empty unless `op == Set`).
    pub value: Bytes,
}

impl StoreRequest {
    /// Serializes the request.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(15 + self.key.len() + self.value.len());
        buf.put_u8(self.op.to_byte());
        buf.put_u64(self.req_id);
        buf.put_u16(self.key.len() as u16);
        buf.put_u32(self.value.len() as u32);
        buf.put_slice(&self.key);
        buf.put_slice(&self.value);
        buf.freeze()
    }

    /// Parses a request; `None` on malformed input.
    pub fn decode(b: &Bytes) -> Option<StoreRequest> {
        let op = StoreOp::from_byte(*b.first()?)?;
        let req_id = u64::from_be_bytes(bytes::array_at::<8>(b, 1)?);
        let key_len = u16::from_be_bytes(bytes::array_at::<2>(b, 9)?) as usize;
        let val_len = u32::from_be_bytes(bytes::array_at::<4>(b, 11)?) as usize;
        if b.len() != 15 + key_len + val_len {
            return None;
        }
        Some(StoreRequest {
            req_id,
            op,
            key: b.slice(15..15 + key_len),
            value: b.slice(15 + key_len..),
        })
    }

    /// Wraps the request in a packet.
    pub fn into_packet(self, src: Endpoint, dst: Endpoint) -> Packet {
        Packet::new(src, dst, PROTO_RPC, self.encode())
    }
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreResponse {
    /// Correlation id echoed from the request.
    pub req_id: u64,
    /// Operation this responds to.
    pub op: StoreOp,
    /// Outcome.
    pub status: StoreStatus,
    /// Value (for successful `get`s).
    pub value: Bytes,
}

impl StoreResponse {
    /// Serializes the response.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(14 + self.value.len());
        buf.put_u8(self.op.to_byte() | 0x80);
        buf.put_u64(self.req_id);
        buf.put_u8(match self.status {
            StoreStatus::Ok => 0,
            StoreStatus::Miss => 1,
        });
        buf.put_u32(self.value.len() as u32);
        buf.put_slice(&self.value);
        buf.freeze()
    }

    /// Parses a response; `None` on malformed input or a request byte.
    pub fn decode(b: &Bytes) -> Option<StoreResponse> {
        let tag = *b.first()?;
        if tag & 0x80 == 0 {
            return None;
        }
        let op = StoreOp::from_byte(tag & 0x7F)?;
        let req_id = u64::from_be_bytes(bytes::array_at::<8>(b, 1)?);
        let status = match *b.get(9)? {
            0 => StoreStatus::Ok,
            1 => StoreStatus::Miss,
            _ => return None,
        };
        let val_len = u32::from_be_bytes(bytes::array_at::<4>(b, 10)?) as usize;
        if b.len() != 14 + val_len {
            return None;
        }
        Some(StoreResponse {
            req_id,
            op,
            status,
            value: b.slice(14..),
        })
    }

    /// Wraps the response in a packet.
    pub fn into_packet(self, src: Endpoint, dst: Endpoint) -> Packet {
        Packet::new(src, dst, PROTO_RPC, self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = StoreRequest {
            req_id: 77,
            op: StoreOp::Set,
            key: Bytes::from_static(b"flow:1.2.3.4:5"),
            value: Bytes::from_static(b"state-bytes"),
        };
        assert_eq!(StoreRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn response_roundtrip() {
        let resp = StoreResponse {
            req_id: 99,
            op: StoreOp::Get,
            status: StoreStatus::Ok,
            value: Bytes::from_static(b"v"),
        };
        assert_eq!(StoreResponse::decode(&resp.encode()).unwrap(), resp);
        let miss = StoreResponse {
            req_id: 1,
            op: StoreOp::Get,
            status: StoreStatus::Miss,
            value: Bytes::new(),
        };
        assert_eq!(StoreResponse::decode(&miss.encode()).unwrap(), miss);
    }

    #[test]
    fn decode_distinguishes_direction() {
        let req = StoreRequest {
            req_id: 5,
            op: StoreOp::Get,
            key: Bytes::from_static(b"k"),
            value: Bytes::new(),
        };
        assert!(StoreResponse::decode(&req.encode()).is_none());
        let resp = StoreResponse {
            req_id: 5,
            op: StoreOp::Get,
            status: StoreStatus::Ok,
            value: Bytes::new(),
        };
        assert!(StoreRequest::decode(&resp.encode()).is_none());
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = StoreRequest {
            req_id: 2,
            op: StoreOp::Delete,
            key: Bytes::from_static(b"key"),
            value: Bytes::new(),
        }
        .encode();
        for cut in [0, 5, 14, enc.len() - 1] {
            assert!(StoreRequest::decode(&enc.slice(..cut)).is_none());
        }
    }

    #[test]
    fn bad_op_byte_rejected() {
        let mut raw = StoreRequest {
            req_id: 2,
            op: StoreOp::Get,
            key: Bytes::from_static(b"k"),
            value: Bytes::new(),
        }
        .encode()
        .to_vec();
        raw[0] = 9;
        assert!(StoreRequest::decode(&Bytes::from(raw)).is_none());
    }
}
