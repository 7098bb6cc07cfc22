//! Network addresses.
//!
//! The simulator uses IPv4-like 32-bit addresses. Conventional allocations
//! used by the scenario harnesses:
//!
//! * `10.0.x.y`   — datacenter infrastructure (muxes, LB instances, stores)
//! * `10.1.x.y`   — backend servers
//! * `100.x.y.z`  — virtual IPs (VIPs)
//! * `172.16.x.y` — external clients

use core::fmt;
use core::hash::{Hash, Hasher};

/// A 32-bit IPv4-style address.
///
/// # Examples
///
/// ```
/// use yoda_netsim::Addr;
///
/// let a = Addr::new(10, 0, 0, 7);
/// assert_eq!(format!("{a}"), "10.0.0.7");
/// assert_eq!(Addr::from_u32(a.as_u32()), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(u32);

impl Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Builds an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Builds an address from its raw `u32` form.
    pub const fn from_u32(v: u32) -> Self {
        Addr(v)
    }

    /// Returns the raw `u32` form.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the four octets.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Returns true for addresses in the VIP range (`100.0.0.0/8`).
    pub const fn is_vip(self) -> bool {
        (self.0 >> 24) == 100
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// A transport endpoint: address plus port.
///
/// # Examples
///
/// ```
/// use yoda_netsim::{Addr, Endpoint};
///
/// let ep = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
/// assert_eq!(format!("{ep}"), "100.0.0.1:80");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Endpoint {
    /// The network address.
    pub addr: Addr,
    /// The transport port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub const fn new(addr: Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }

    /// Encodes the endpoint to 6 bytes (network byte order).
    pub fn to_bytes(self) -> [u8; 6] {
        let [a0, a1, a2, a3] = self.addr.as_u32().to_be_bytes();
        let [p0, p1] = self.port.to_be_bytes();
        [a0, a1, a2, a3, p0, p1]
    }

    /// Decodes an endpoint from 6 bytes produced by [`Endpoint::to_bytes`].
    pub fn from_bytes(b: &[u8; 6]) -> Self {
        let [a0, a1, a2, a3, p0, p1] = *b;
        let addr = Addr::from_u32(u32::from_be_bytes([a0, a1, a2, a3]));
        let port = u16::from_be_bytes([p0, p1]);
        Endpoint { addr, port }
    }
}

/// One 48-bit word per endpoint, so a 4-tuple key costs a
/// [`FlowTable`](crate::FlowTable) two hash steps, not four.
impl Hash for Endpoint {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(((self.addr.as_u32() as u64) << 16) | self.port as u64);
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip() {
        let a = Addr::new(172, 16, 5, 9);
        assert_eq!(a.octets(), [172, 16, 5, 9]);
        assert_eq!(Addr::from_u32(a.as_u32()), a);
    }

    #[test]
    fn vip_range() {
        assert!(Addr::new(100, 0, 0, 1).is_vip());
        assert!(!Addr::new(10, 0, 0, 1).is_vip());
        assert!(!Addr::UNSPECIFIED.is_vip());
    }

    #[test]
    fn endpoint_bytes_roundtrip() {
        let ep = Endpoint::new(Addr::new(1, 2, 3, 4), 61234);
        assert_eq!(Endpoint::from_bytes(&ep.to_bytes()), ep);
    }

    #[test]
    fn ordering_is_total() {
        let a = Endpoint::new(Addr::new(1, 0, 0, 1), 80);
        let b = Endpoint::new(Addr::new(1, 0, 0, 1), 81);
        let c = Endpoint::new(Addr::new(1, 0, 0, 2), 1);
        assert!(a < b && b < c);
    }
}
