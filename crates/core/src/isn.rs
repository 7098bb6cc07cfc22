//! Deterministic SYN-ACK initial sequence numbers.
//!
//! "For a given connection with the client, all YODA instances generate
//! the same SYN-ACK — the sequence number used for the SYN-ACK is
//! generated by hashing the source IP-port tuple. This avoids the need to
//! store SYN-ACK state in TCPStore." (paper §4.1)
//!
//! Any instance — including one that takes over after a failure — can
//! regenerate the exact ISN the (possibly dead) first instance used, which
//! is what makes the SYN-ACK stateless.

use yoda_netsim::hash_bytes;
use yoda_netsim::Endpoint;
use yoda_tcp::SeqNum;

/// Seed distinguishing ISN hashing from other uses of the shared hash.
const ISN_SEED: u64 = 0x15A_D00D;

/// Derives the SYN-ACK ISN for a client connection to a VIP.
///
/// # Examples
///
/// ```
/// use yoda_core::syn_ack_isn;
/// use yoda_netsim::{Addr, Endpoint};
///
/// let client = Endpoint::new(Addr::new(172, 16, 0, 1), 40000);
/// let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
/// // Every instance computes the same ISN for the same connection.
/// assert_eq!(syn_ack_isn(client, vip), syn_ack_isn(client, vip));
/// ```
pub fn syn_ack_isn(client: Endpoint, vip: Endpoint) -> SeqNum {
    let mut buf = [0u8; 12];
    let halves = client.to_bytes().into_iter().chain(vip.to_bytes());
    for (dst, src) in buf.iter_mut().zip(halves) {
        *dst = src;
    }
    SeqNum::new(hash_bytes(ISN_SEED, &buf) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yoda_netsim::Addr;

    fn ep(a: u8, port: u16) -> Endpoint {
        Endpoint::new(Addr::new(172, 16, 0, a), port)
    }

    #[test]
    fn stable_per_connection() {
        let vip = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        assert_eq!(syn_ack_isn(ep(1, 4000), vip), syn_ack_isn(ep(1, 4000), vip));
    }

    #[test]
    fn differs_across_clients_ports_and_vips() {
        let vip1 = Endpoint::new(Addr::new(100, 0, 0, 1), 80);
        let vip2 = Endpoint::new(Addr::new(100, 0, 0, 2), 80);
        let base = syn_ack_isn(ep(1, 4000), vip1);
        assert_ne!(base, syn_ack_isn(ep(2, 4000), vip1), "client addr");
        assert_ne!(base, syn_ack_isn(ep(1, 4001), vip1), "client port");
        assert_ne!(base, syn_ack_isn(ep(1, 4000), vip2), "vip");
    }
}
