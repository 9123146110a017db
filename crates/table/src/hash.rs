//! Stable, seedable 64-bit hashing.
//!
//! Sketches must be reproducible across processes and platforms, so we avoid
//! `std`'s hashers (whose output is explicitly unspecified across releases)
//! and use FNV-1a with a splitmix64 finalizer. Quality is sufficient for
//! MinHash/SimHash estimation and the finalizer removes FNV's weak low bits.

/// splitmix64 mixing step; also usable as a tiny PRNG for seed derivation.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over bytes, finalized with splitmix64.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = ByteHasher::new();
    for &b in bytes {
        h.write_u8(b);
    }
    h.finish()
}

/// The state of [`hash_bytes`] fed one byte at a time, for callers that
/// transform bytes on the fly (the word sketch lowercases as it hashes):
/// writing a string's bytes and calling `finish` equals [`hash_str`].
#[derive(Debug, Clone, Copy)]
pub struct ByteHasher(u64);

impl ByteHasher {
    #[inline]
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    pub fn finish(self) -> u64 {
        splitmix64(self.0)
    }
}

impl Default for ByteHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable hash of a string.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

/// Stable hash of a string under a seed (for independent hash families).
#[inline]
pub fn hash_str_seeded(s: &str, seed: u64) -> u64 {
    splitmix64(hash_str(s) ^ splitmix64(seed))
}

/// A tiny deterministic generator for deriving parameter streams
/// (MinHash permutation coefficients, LSH seeds, ...).
#[derive(Debug, Clone)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        Self { state: splitmix64(seed ^ 0x51ed_2701_89ab_cdef) }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Next odd u64 (useful as a multiplicative hash coefficient).
    pub fn next_odd(&mut self) -> u64 {
        self.next_u64() | 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        assert_eq!(hash_str("austria vienna"), hash_str("austria vienna"));
        assert_ne!(hash_str("a"), hash_str("b"));
        assert_ne!(hash_str_seeded("a", 1), hash_str_seeded("a", 2));
    }

    #[test]
    fn avalanche_spread() {
        // Hashes of near-identical strings should differ in many bits.
        let a = hash_str("value_000");
        let b = hash_str("value_001");
        assert!((a ^ b).count_ones() >= 16);
    }

    #[test]
    fn seed_stream_distinct() {
        let mut s = SeedStream::new(7);
        let vals: HashSet<u64> = (0..1000).map(|_| s.next_u64()).collect();
        assert_eq!(vals.len(), 1000);
        let mut s2 = SeedStream::new(7);
        let first = s2.next_u64();
        let mut s3 = SeedStream::new(7);
        assert_eq!(first, s3.next_u64(), "same seed, same stream");
    }

    #[test]
    fn low_bits_usable() {
        // Bucketing by low bits should be roughly uniform.
        let mut buckets = [0usize; 16];
        for i in 0..16000 {
            buckets[(hash_str(&format!("k{i}")) & 15) as usize] += 1;
        }
        for &c in &buckets {
            assert!((700..1300).contains(&c), "bucket skew: {buckets:?}");
        }
    }
}
