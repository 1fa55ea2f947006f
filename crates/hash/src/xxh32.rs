//! xxHash32 — exact implementation of the reference algorithm.

use crate::primitives::read32;

const P1: u32 = 2_654_435_761;
const P2: u32 = 2_246_822_519;
const P3: u32 = 3_266_489_917;
const P4: u32 = 668_265_263;
const P5: u32 = 374_761_393;

#[inline(always)]
fn round(acc: u32, input: u32) -> u32 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(13)
        .wrapping_mul(P1)
}

/// Hash `data` with seed `seed`.
pub(crate) fn xxh32(data: &[u8], seed: u32) -> u32 {
    let len = data.len();
    let mut h: u32;
    let mut i = 0usize;

    if len >= 16 {
        let mut v1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut v2 = seed.wrapping_add(P2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(P1);
        while i + 16 <= len {
            v1 = round(v1, read32(data, i));
            v2 = round(v2, read32(data, i + 4));
            v3 = round(v3, read32(data, i + 8));
            v4 = round(v4, read32(data, i + 12));
            i += 16;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
    } else {
        h = seed.wrapping_add(P5);
    }

    h = h.wrapping_add(len as u32);

    while i + 4 <= len {
        h = h
            .wrapping_add(read32(data, i).wrapping_mul(P3))
            .rotate_left(17)
            .wrapping_mul(P4);
        i += 4;
    }
    while i < len {
        h = h
            .wrapping_add((data[i] as u32).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
        i += 1;
    }

    h ^= h >> 15;
    h = h.wrapping_mul(P2);
    h ^= h >> 13;
    h = h.wrapping_mul(P3);
    h ^= h >> 16;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        // From the xxHash reference test suite.
        assert_eq!(xxh32(b"", 0), 0x02CC5D05);
        assert_eq!(xxh32(b"abc", 0), 0x32D153FF);
    }

    #[test]
    fn seed_changes_digest() {
        assert_ne!(xxh32(b"hello world", 0), xxh32(b"hello world", 1));
    }

    #[test]
    fn covers_all_length_classes() {
        // < 4, 4..16, >= 16, and multi-stripe lengths must all be distinct
        // for distinct inputs (smoke test of path selection).
        let inputs: Vec<Vec<u8>> = (0..64usize).map(|n| vec![0xA5; n]).collect();
        let mut hashes: Vec<u32> = inputs.iter().map(|v| xxh32(v, 0)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 64, "length must influence the digest");
    }
}
