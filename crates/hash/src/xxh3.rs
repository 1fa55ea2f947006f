//! XXH3-inspired hashes (64- and 128-bit).
//!
//! The reference XXH3 uses a 192-byte secret and SIMD stripe accumulation.
//! This portable variant preserves the structural character — distinct fast
//! paths for 0–16, 17–128 and long inputs, 64-byte stripes accumulated into
//! eight 64-bit lanes with multiply-fold mixing — without the secret
//! machinery; digests do **not** match the reference.

use crate::primitives::{fmix64, mum, read64, read_tail64};

const SECRET: [u64; 12] = [
    0xbe4b_a423_396c_feb8,
    0x1cad_21f7_2c81_017c,
    0xdb97_9083_e96d_d4de,
    0x1f67_b3b7_a4a4_4072,
    0x78e5_c0cc_4ee6_79cb,
    0x2172_ffcc_7dd0_5a82,
    0x8e24_47b7_58d4_f4f8,
    0xb8fe_6c39_23a4_4bbe,
    0x7c01_812c_f721_ad1c,
    0xded4_6de9_8390_97db,
    0x3f34_9ce3_3f76_4638,
    0x9c31_53f8_2552_2ae4,
];

#[inline(always)]
fn mix16(data: &[u8], offset: usize, s0: u64, s1: u64) -> u64 {
    mum(read64(data, offset) ^ s0, read64(data, offset + 8) ^ s1)
}

fn short_hash(data: &[u8]) -> u64 {
    let len = data.len();
    if len == 0 {
        return fmix64(SECRET[0]);
    }
    if len <= 8 {
        let v = read_tail64(data);
        return fmix64(v ^ SECRET[1] ^ (len as u64).wrapping_mul(SECRET[2]));
    }
    // 9..=16
    let lo = read64(data, 0);
    let hi = read64(data, len - 8);
    fmix64(mum(lo ^ SECRET[3], hi ^ SECRET[4]) ^ (len as u64))
}

fn mid_hash(data: &[u8]) -> u64 {
    // 17..=128 bytes: paired 16-byte mixes from both ends inward.
    let len = data.len();
    let mut acc = (len as u64).wrapping_mul(0x9E37_79B1_85EB_CA87);
    let mut i = 0usize;
    let mut j = len;
    let mut s = 0usize;
    while i + 16 <= j {
        acc = acc.wrapping_add(mix16(data, i, SECRET[s % 12], SECRET[(s + 1) % 12]));
        if j >= i + 32 {
            acc = acc.wrapping_add(mix16(
                data,
                j - 16,
                SECRET[(s + 2) % 12],
                SECRET[(s + 3) % 12],
            ));
        }
        i += 16;
        j -= 16;
        s += 4;
    }
    if i < data.len() && data.len() >= 16 {
        acc = acc.wrapping_add(mix16(data, data.len() - 16, SECRET[9], SECRET[10]));
    }
    fmix64(acc)
}

fn long_hash(data: &[u8]) -> [u64; 2] {
    // 64-byte stripes into 8 accumulators (the XXH3 shape): one
    // 32×32→64 multiply per 8 input bytes, exactly the reference
    // algorithm's work-per-byte (its speed defines the family).
    let len = data.len();
    let mut acc = [
        SECRET[0], SECRET[1], SECRET[2], SECRET[3], SECRET[4], SECRET[5], SECRET[6], SECRET[7],
    ];
    let mut chunks = data.chunks_exact(64);
    for stripe in &mut chunks {
        for lane in 0..8 {
            let v = read64(stripe, lane * 8);
            let k = v ^ SECRET[lane + 1];
            acc[lane ^ 1] = acc[lane ^ 1].wrapping_add(v);
            acc[lane] = acc[lane].wrapping_add((k as u32 as u64).wrapping_mul(k >> 32));
        }
    }
    let i = len - chunks.remainder().len();
    // Final partial stripe, re-read from the end (reference behaviour).
    if i < len && len >= 64 {
        let base = len - 64;
        for lane in 0..8 {
            let v = read64(data, base + lane * 8);
            acc[lane] ^= v.wrapping_mul(SECRET[(lane + 5) % 12]);
        }
    } else if i < len {
        // (unreachable for long inputs; kept for safety)
        acc[0] ^= read_tail64(&data[i..len.min(i + 8)]);
    }

    let mut lo = (len as u64).wrapping_mul(0x9E37_79B1_85EB_CA87);
    let mut hi = !(len as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    for lane in 0..4 {
        lo = lo.wrapping_add(mum(
            acc[2 * lane] ^ SECRET[lane],
            acc[2 * lane + 1] ^ SECRET[lane + 4],
        ));
        hi = hi.wrapping_add(mum(
            acc[2 * lane].rotate_left(17) ^ SECRET[lane + 8 - 4],
            acc[2 * lane + 1].rotate_left(43) ^ SECRET[(lane + 7) % 12],
        ));
    }
    [fmix64(lo), fmix64(hi)]
}

/// XXH3-64-inspired hash.
pub(crate) fn xxh3_64(data: &[u8]) -> u64 {
    match data.len() {
        0..=16 => short_hash(data),
        17..=128 => mid_hash(data),
        _ => long_hash(data)[0],
    }
}

/// XXH3-128-inspired hash.
pub(crate) fn xxh3_128(data: &[u8]) -> u128 {
    match data.len() {
        0..=16 => {
            let lo = short_hash(data);
            let hi = fmix64(lo ^ SECRET[6]);
            ((hi as u128) << 64) | lo as u128
        }
        17..=128 => {
            let lo = mid_hash(data);
            let hi = fmix64(lo.rotate_left(31) ^ SECRET[7] ^ data.len() as u64);
            ((hi as u128) << 64) | lo as u128
        }
        _ => {
            let [lo, hi] = long_hash(data);
            ((hi as u128) << 64) | lo as u128
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_class_boundaries_are_covered() {
        for n in [0usize, 1, 8, 9, 16, 17, 64, 128, 129, 256, 1024] {
            let v = vec![7u8; n];
            let h = xxh3_64(&v);
            assert_eq!(h, xxh3_64(&v), "deterministic at len {n}");
        }
    }

    #[test]
    fn distinct_lengths_distinct_hashes() {
        let mut hs: Vec<u64> = (0..300usize).map(|n| xxh3_64(&vec![3u8; n])).collect();
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 300);
    }

    #[test]
    fn bit_flip_changes_long_input_hash() {
        let mut v = vec![0u8; 4096];
        let base = xxh3_64(&v);
        v[4000] ^= 0x80;
        assert_ne!(base, xxh3_64(&v));
        v[4000] ^= 0x80;
        v[10] ^= 1;
        assert_ne!(base, xxh3_64(&v));
    }

    #[test]
    fn xxh3_128_halves_are_independent_ish() {
        let v = vec![9u8; 512];
        let h = xxh3_128(&v);
        assert_ne!(h as u64, (h >> 64) as u64);
    }
}
