//! A tiny deterministic multiply-fold hasher for the per-hop route
//! lookup.
//!
//! `route_and_transmit` does one `HashMap<Ipv4Addr, NodeId>` probe per
//! forwarded packet, which makes the hash function itself hot-path
//! cost. `SipHash` (std's default) burns ~1 round per byte plus
//! finalization to defend against HashDoS — pointless here, since
//! route keys come from the experiment topology, not an adversary.
//! This is the `FxHash` fold (rustc's internal table hasher): one
//! wrapping multiply per written word. It is also *deterministic
//! across processes* (no per-process seed), which keeps any incidental
//! iteration-order dependence reproducible run-to-run — `RandomState`
//! would not.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

use crate::node::NodeId;

/// The odd multiplier from Firefox/rustc's FxHash (64-bit).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiply-fold hasher. Not HashDoS-resistant;
/// only for maps keyed by trusted, fixed-at-build-time values.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Ipv4Addr hashes as one 4-byte write (plus a length prefix
        // via `write_usize`); fold whole 8-byte words where possible.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The multiply leaves its best-mixed bits at the top, and std's
    /// tables pick a bucket by the low ones, so the top bits are rotated
    /// down (as `bytecache_core`'s flow hasher does). An address hashes
    /// as one `u32` whose low byte is its first octet: unrotated, the
    /// thousands of `40.x.y.2` clients of a crowd would share a few home
    /// buckets.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Deterministic `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Per-node routing table: destination address → next hop.
pub(crate) type RouteMap = HashMap<Ipv4Addr, NodeId, FxBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_map_round_trips_and_is_deterministic() {
        let mut m = RouteMap::default();
        for i in 0..1000u32 {
            m.insert(Ipv4Addr::from(i), NodeId(i as usize));
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&Ipv4Addr::from(i)), Some(&NodeId(i as usize)));
        }
        let h1 = {
            let mut h = FxHasher::default();
            h.write_u64(0xdead_beef);
            h.finish()
        };
        let h2 = {
            let mut h = FxHasher::default();
            h.write_u64(0xdead_beef);
            h.finish()
        };
        assert_eq!(h1, h2);
    }

    /// The crowd's client addresses (`40.x.y.2`, `x.y` counting flows
    /// in base 250, for 6 250 flows) reach most of the home buckets a
    /// table of their size picks by the low 13 bits; unrotated they
    /// reach 25.
    #[test]
    fn crowd_addresses_spread_over_the_low_bits() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let homes: HashSet<u64> = (0..6_250u32)
            .map(|f| Ipv4Addr::new(40, (f / 250) as u8, (f % 250) as u8, 2))
            .map(|addr| FxBuild::default().hash_one(addr) & 0x1fff)
            .collect();
        // Uniform hashing fills 8192 × (1 − e^(−6250/8192)) ≈ 4 370.
        assert!(homes.len() > 4_000, "{} home buckets", homes.len());
    }
}
