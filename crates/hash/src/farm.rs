//! FarmHash-inspired hashes.
//!
//! FarmHash is CityHash's successor; its 64-bit bulk path processes wider
//! chunks with fewer data dependencies, which is why it benchmarks ahead of
//! CityHash in Table 4. We model that by an 8-lane 64-byte bulk loop over
//! the City finishing mixes.

use crate::city::{hash128_to_64, K0, K1, K2};
use crate::primitives::{fmix32, fmix64, read32, read64, read_tail64};

/// FarmHash64-inspired hash.
pub(crate) fn farm64(data: &[u8]) -> u64 {
    let len = data.len();
    if len <= 64 {
        // Short inputs: reuse the City short paths but with a Farm-marked
        // seed so the two families disagree.
        return fmix64(crate::city::city64(data) ^ K0.rotate_left(23));
    }

    // 64-byte blocks into 4 independent accumulator pairs → fewer serial
    // dependencies than City's rolling state.
    let mut a = [K0, K1, K2, K0 ^ K1];
    let mut b = [!K0, !K1, !K2, K1 ^ K2];
    let mut i = 0usize;
    while i + 64 <= len {
        for lane in 0..4 {
            let x = read64(data, i + lane * 16);
            let y = read64(data, i + lane * 16 + 8);
            a[lane] = a[lane].wrapping_add(x).rotate_right(29).wrapping_mul(K1);
            b[lane] = (b[lane] ^ y).wrapping_mul(K2).rotate_right(31);
        }
        i += 64;
    }
    if i < len {
        // Overlapping final block.
        let base = len - 64;
        for lane in 0..4 {
            let x = read64(data, base + lane * 16);
            let y = read64(data, base + lane * 16 + 8);
            a[lane] ^= x.wrapping_mul(K0);
            b[lane] = b[lane].wrapping_add(y.rotate_left(13));
        }
    }
    let lo = hash128_to_64(
        hash128_to_64(a[0], b[0]),
        hash128_to_64(a[1], b[1]).wrapping_add(len as u64),
    );
    let hi = hash128_to_64(hash128_to_64(a[2], b[2]), hash128_to_64(a[3], b[3]));
    hash128_to_64(lo, hi)
}

/// FarmHash32-inspired hash.
pub(crate) fn farm32(data: &[u8]) -> u32 {
    let len = data.len();
    if len <= 24 {
        return fmix32(crate::city::city32(data) ^ 0x9747_b28c);
    }
    let mut h = (len as u32).wrapping_mul(0xcc9e_2d51);
    let mut g = h.rotate_left(9);
    let mut i = 0usize;
    while i + 16 <= len {
        h = (h ^ read32(data, i).wrapping_mul(0xcc9e_2d51))
            .rotate_right(17)
            .wrapping_mul(0x1b87_3593);
        g = (g.wrapping_add(read32(data, i + 4)))
            .rotate_right(19)
            .wrapping_mul(5)
            .wrapping_add(0xe654_6b64);
        h ^= read32(data, i + 8);
        g = g.wrapping_add(read32(data, i + 12).rotate_left(7));
        i += 16;
    }
    let tail_base = len - 4;
    h ^= read32(data, tail_base).wrapping_mul(0x85eb_ca6b);
    fmix32(h.wrapping_add(fmix32(g)))
}

/// FarmHash128-inspired hash.
pub(crate) fn farm128(data: &[u8]) -> u128 {
    let lo = farm64(data);
    let hi = if data.len() >= 16 {
        let a = read64(data, 0);
        let b = read64(data, data.len() - 8);
        hash128_to_64(a ^ lo, b.wrapping_add(K1))
    } else {
        fmix64(lo ^ read_tail64(data) ^ K2)
    };
    ((hi as u128) << 64) | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_paths() {
        for n in [0usize, 8, 24, 25, 64, 65, 128, 1000] {
            let v: Vec<u8> = (0..n).map(|i| (i * 7 % 256) as u8).collect();
            assert_eq!(farm64(&v), farm64(&v));
            assert_eq!(farm32(&v), farm32(&v));
            assert_eq!(farm128(&v), farm128(&v));
        }
    }

    #[test]
    fn farm_differs_from_city() {
        let v = vec![0x5Au8; 333];
        assert_ne!(farm64(&v), crate::city::city64(&v));
        assert_ne!(farm32(&v), crate::city::city32(&v));
    }

    #[test]
    fn interior_sensitivity_long() {
        let mut v = vec![0u8; 4096];
        let h = farm64(&v);
        v[2048] = 1;
        assert_ne!(h, farm64(&v));
    }

    #[test]
    fn length_sensitivity() {
        let mut hs: Vec<u64> = (65..300usize).map(|n| farm64(&vec![1u8; n])).collect();
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 300 - 65);
    }
}
