//! xxHash64 — exact implementation of the reference algorithm.

use crate::primitives::{read32, read64};

const P1: u64 = 11_400_714_785_074_694_791;
const P2: u64 = 14_029_467_366_897_019_727;
const P3: u64 = 1_609_587_929_392_839_161;
const P4: u64 = 9_650_029_242_287_828_579;
const P5: u64 = 2_870_177_450_012_600_261;

#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(P1).wrapping_add(P4)
}

/// Hash `data` with seed `seed`.
pub(crate) fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut i = 0usize;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        while i + 32 <= len {
            v1 = round(v1, read64(data, i));
            v2 = round(v2, read64(data, i + 8));
            v3 = round(v3, read64(data, i + 16));
            v4 = round(v4, read64(data, i + 24));
            i += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(P5);
    }

    h = h.wrapping_add(len as u64);

    while i + 8 <= len {
        h = (h ^ round(0, read64(data, i)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        i += 8;
    }
    if i + 4 <= len {
        h = (h ^ (read32(data, i) as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        i += 4;
    }
    while i < len {
        h = (h ^ (data[i] as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
        i += 1;
    }

    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46DB3751D8E999);
        assert_eq!(xxh64(b"abc", 0), 0x44BC2CF5AD770999);
    }

    #[test]
    fn seed_changes_digest() {
        assert_ne!(xxh64(b"payload", 0), xxh64(b"payload", 0xdeadbeef));
    }

    #[test]
    fn length_sensitivity() {
        let inputs: Vec<Vec<u8>> = (0..128usize).map(|n| vec![0x5A; n]).collect();
        let mut hashes: Vec<u64> = inputs.iter().map(|v| xxh64(v, 0)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 128);
    }

    #[test]
    fn single_bit_difference_avalanche_smoke() {
        let a = vec![0u8; 256];
        let mut b = a.clone();
        b[200] ^= 1;
        let (ha, hb) = (xxh64(&a, 0), xxh64(&b, 0));
        let flipped = (ha ^ hb).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "expected roughly half the bits to flip, got {flipped}"
        );
    }
}
