//! A deterministic multiplicative hasher for small integer keys.
//!
//! The per-packet maps on the hot path (route tables, retransmission
//! buffers) key on `u32`/`u64` ids. `std`'s default SipHash
//! showed up at ~8% of event-loop CPU in profiles, and its per-process
//! random seed buys nothing here: none of these maps is ever iterated, so
//! bucket order cannot leak into simulation results.
//!
//! [`FastHasher`] is a fixed-seed Fibonacci-style mixer: one `wrapping_mul`
//! by an odd 64-bit constant plus an xor-fold so both the low bucket bits
//! and the high control bits of hashbrown get avalanche. It is NOT
//! collision-resistant against adversarial keys — use it only for maps
//! whose keys the simulation itself allocates (agent ids, sequence
//! numbers), never for external input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the usual Fibonacci hashing multiplier (odd, high entropy).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fixed-seed hasher for simulation-allocated integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Multiply pushes entropy toward the high bits; fold it back down
        // so hashbrown's low-bit bucket index sees it too.
        let h = self.0.wrapping_mul(K);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Derive-generated Hash impls for integer newtypes call the typed
        // writers below; this byte path only runs for compound keys.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(K);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K).rotate_left(26);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]; zero-sized, fixed seed.
pub type BuildFastHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by simulation-allocated integers.
pub type FastMap<K, V> = HashMap<K, V, BuildFastHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_spread_across_buckets() {
        // Sequential u32 ids must not collide in the low bits hashbrown
        // uses for bucket selection.
        let mut low_bits = std::collections::HashSet::new();
        for id in 0u32..4096 {
            let mut h = FastHasher::default();
            h.write_u32(id);
            low_bits.insert(h.finish() & 0xFFF);
        }
        // Perfect spread would be 4096; anything above ~2500 means no
        // pathological clustering for dense id ranges.
        assert!(low_bits.len() > 2500, "low-bit spread {}", low_bits.len());
    }

    #[test]
    fn hashing_is_deterministic_across_instances() {
        let h = |n: u64| {
            let mut h = FastHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, &str> = FastMap::default();
        m.insert(7, "seven");
        m.insert(1 << 40, "big");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.get(&(1 << 40)), Some(&"big"));
        assert_eq!(m.remove(&7), Some("seven"));
        assert!(!m.contains_key(&7));
    }
}
