//! FNV-1a, 64-bit. Exact implementation.
//!
//! Not part of Table 4 (too slow for bulk payloads) but used internally as
//! the `BuildHasher` for the detection algorithms' small-key maps, where
//! the perf-book guidance prefers a cheap non-SipHash hasher.

use std::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher implementing `std::hash::Hasher`, for use in
/// `HashMap`s on hot detection paths.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        // Mix whole words in two multiply steps: cheaper than eight
        // byte-steps and adequate for table bucketing.
        let mut h = self.0;
        h ^= i;
        h = h.wrapping_mul(FNV_PRIME);
        h ^= i >> 32;
        h = h.wrapping_mul(FNV_PRIME);
        self.0 = h;
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.write_u64(i as u32 as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for FNV-keyed standard collections.
pub(crate) type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// A `HashMap` keyed with FNV (drop-in for detection's grouping maps).
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` keyed with FNV.
pub type FnvHashSet<T> = std::collections::HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        // Standard FNV-1a 64 test vectors, through the byte path.
        let fnv = |bytes: &[u8]| {
            let mut h = FnvHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv(b""), 0xcbf29ce484222325);
        assert_eq!(fnv(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_matches_oneshot_for_bytes() {
        // Feeding the bytes in pieces gives the one-shot digest.
        let mut oneshot = FnvHasher::default();
        oneshot.write(b"foobar");
        let mut pieces = FnvHasher::default();
        pieces.write(b"foo");
        pieces.write(b"");
        pieces.write(b"bar");
        assert_eq!(pieces.finish(), oneshot.finish());
        assert_eq!(pieces.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn map_works() {
        let mut m: FnvHashMap<u64, u32> = FnvHashMap::default();
        for i in 0..100 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m[&21], 42);
    }
}
