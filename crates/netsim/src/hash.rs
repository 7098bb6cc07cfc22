//! Stable, seedable hashing.
//!
//! One hash implementation shared by every component that needs
//! *deterministic, run-independent* digests: the TCPStore consistent ring
//! (K hash functions = K seeds), the L4 mux's flow hashing, and Yoda's
//! deterministic SYN-ACK ISN (`hash(client ip, port)`, paper §4.1).
//! `std`'s `DefaultHasher` is avoided because its output may change across
//! Rust releases.

// Per-packet vocabulary, inlined across crates (DESIGN.md "Cross-crate inlining").
#![deny(clippy::missing_inline_in_public_items)]

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The seeded FNV-1a starting state.
#[inline]
fn start(seed: u64) -> u64 {
    0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Final avalanche (splitmix64 tail) to decorrelate nearby keys.
#[inline]
fn finish(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// FNV-1a 64-bit with a seed mixed in and a splitmix64 finalizer.
///
/// # Examples
///
/// ```
/// use yoda_netsim::hash_bytes;
///
/// let a = hash_bytes(0, b"flow");
/// let b = hash_bytes(1, b"flow");
/// assert_ne!(a, b, "seeds give independent hash functions");
/// assert_eq!(a, hash_bytes(0, b"flow"), "stable across calls");
/// ```
#[inline]
pub fn hash_bytes(seed: u64, data: &[u8]) -> u64 {
    let mut h = start(seed);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    finish(h)
}

/// Hashes two u64 operands (convenience over [`hash_bytes`]).
#[inline]
pub fn hash_pair(seed: u64, a: u64, b: u64) -> u64 {
    let mut buf = [0u8; 16];
    let words = a.to_be_bytes().into_iter().chain(b.to_be_bytes());
    for (dst, src) in buf.iter_mut().zip(words) {
        *dst = src;
    }
    hash_bytes(seed, &buf)
}

/// Bit for bit `hash_pair(seed, word as u64, 0)`, in 6 dependent
/// multiplies instead of 16: an FNV-1a step over a zero byte is a bare
/// multiply by the prime, so the 4 zero bytes before `word` and the 8
/// after it fold into the constants P⁴ and P⁸. This is the per-candidate
/// weight of the L4 rendezvous pick, computed for every candidate on
/// every steered packet.
#[inline]
pub fn hash_u32(seed: u64, word: u32) -> u64 {
    const P4: u64 = FNV_PRIME.wrapping_pow(4);
    const P8: u64 = FNV_PRIME.wrapping_pow(8);
    let mut h = start(seed).wrapping_mul(P4);
    for b in word.to_be_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    finish(h.wrapping_mul(P8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_bytes(7, b"abc"), hash_bytes(7, b"abc"));
        assert_eq!(hash_pair(1, 2, 3), hash_pair(1, 2, 3));
    }

    #[test]
    fn avalanche_on_small_changes() {
        let a = hash_bytes(0, b"key-1");
        let b = hash_bytes(0, b"key-2");
        // Hamming distance of the outputs should be substantial.
        let distance = (a ^ b).count_ones();
        assert!(distance > 16, "distance {distance}");
    }

    #[test]
    fn hash_u32_is_hash_pair_with_the_zero_bytes_folded() {
        use crate::{Addr, Rng};
        let mut rng = Rng::seed_from_u64(0x4a5);
        let mut words = vec![0, 1, u32::MAX, 0x8000_0000, 0x00ff_00ff];
        words.extend((1..=10).map(|i| Addr::new(10, 0, 2, i).as_u32()));
        words.extend((0..200).map(|_| rng.next_u64() as u32));
        let mut seeds = vec![0, 1, 0xECA7, u64::MAX];
        seeds.extend((0..200).map(|_| rng.next_u64()));
        for &seed in &seeds {
            for &w in &words {
                assert_eq!(
                    hash_u32(seed, w),
                    hash_pair(seed, w as u64, 0),
                    "{seed:#x} {w:#x}"
                );
            }
        }
    }

    #[test]
    fn seed_changes_everything() {
        assert_ne!(hash_pair(0, 1, 2), hash_pair(1, 1, 2));
    }
}
