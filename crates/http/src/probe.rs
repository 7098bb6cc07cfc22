//! Probe wire format: what an instance's prober sends and what
//! [`OriginServer`](crate::OriginServer) answers.
//!
//! Probes ride their own protocol number (`PROTO_PROBE` in
//! `yoda-netsim`) as single datagrams — no TCP handshake, so a probe
//! round trip costs two packets and cannot perturb the very queues it
//! measures. The payload is line-oriented text, like the control-plane
//! messages, so packet traces stay human-readable:
//!
//! ```text
//! probe? 42
//! probe! 42 rif=3 lat_us=1200
//! ```

use yoda_netsim::{Bytes, SimTime};

/// Source port probes are sent from (identifies probe traffic in
/// traces; probes are otherwise portless like pings).
pub const PROBE_PORT: u16 = 7946;

/// A probe request: just a tag echoed back by the reply, letting the
/// prober match responses to outstanding probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeRequest {
    /// Correlation tag.
    pub tag: u64,
}

impl ProbeRequest {
    /// Serializes to the wire form.
    pub fn encode(&self) -> Bytes {
        Bytes::from(format!("probe? {}", self.tag))
    }

    /// Parses a wire-form request; `None` on malformed input.
    pub fn decode(payload: &[u8]) -> Option<ProbeRequest> {
        let s = std::str::from_utf8(payload).ok()?;
        let rest = s.strip_prefix("probe? ")?;
        Some(ProbeRequest {
            tag: rest.trim().parse().ok()?,
        })
    }
}

/// A probe reply: the echoed tag plus the backend's current
/// requests-in-flight count and service-latency estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeReply {
    /// Correlation tag from the request.
    pub tag: u64,
    /// Requests in flight at the backend (admitted, not yet replied).
    pub rif: u32,
    /// The backend's service-latency EWMA.
    pub latency: SimTime,
}

impl ProbeReply {
    /// Serializes to the wire form.
    pub fn encode(&self) -> Bytes {
        Bytes::from(format!(
            "probe! {} rif={} lat_us={}",
            self.tag,
            self.rif,
            self.latency.as_micros()
        ))
    }

    /// Parses a wire-form reply; `None` on malformed input.
    pub fn decode(payload: &[u8]) -> Option<ProbeReply> {
        let s = std::str::from_utf8(payload).ok()?;
        let rest = s.strip_prefix("probe! ")?;
        let mut parts = rest.split_whitespace();
        let tag: u64 = parts.next()?.parse().ok()?;
        let rif: u32 = parts.next()?.strip_prefix("rif=")?.parse().ok()?;
        let lat_us: u64 = parts.next()?.strip_prefix("lat_us=")?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(ProbeReply {
            tag,
            rif,
            latency: SimTime::from_micros(lat_us),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = ProbeRequest { tag: 981234 };
        assert_eq!(ProbeRequest::decode(&r.encode()), Some(r));
    }

    #[test]
    fn reply_roundtrip() {
        let r = ProbeReply {
            tag: 7,
            rif: 15,
            latency: SimTime::from_micros(1234),
        };
        assert_eq!(ProbeReply::decode(&r.encode()), Some(r));
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [
            &b""[..],
            b"probe?",
            b"probe? x",
            b"probe! 7",
            b"probe! 7 rif=1",
            b"probe! 7 rif=1 lat_us=2 extra",
            b"probe! 7 lat_us=2 rif=1",
            b"\xff\xfe",
        ] {
            assert!(ProbeRequest::decode(bad).is_none() || ProbeReply::decode(bad).is_none());
            if bad.starts_with(b"probe!") {
                assert!(ProbeReply::decode(bad).is_none(), "{bad:?}");
            }
            if bad != b"probe? x" && bad.starts_with(b"probe?") {
                assert!(ProbeRequest::decode(bad).is_none(), "{bad:?}");
            }
        }
        assert!(ProbeRequest::decode(b"probe? x").is_none());
    }
}
