//! t1ha-inspired hashes ("Fast Positive Hash").
//!
//! The t1ha family spans scalar 32-bit builds (`t1ha0_32le`), scalar 64-bit
//! (`t1ha1_le`), 128-bit-state (`t1ha2_atonce`) and SIMD builds
//! (`t1ha0_noavx/avx/avx2`). The SIMD builds differ mainly in how many
//! independent streams they fold per step; we model them with a
//! const-generic lane count — `t1ha0_lanes::<2>` (no-AVX), `::<4>` (AVX),
//! `::<8>` (AVX2, the paper's default algorithm). The per-lane work is a
//! single folded 64×64→128 multiply per 8 input bytes; with independent
//! lanes the multiplies pipeline, which is the scalar analogue of the
//! SIMD builds' width advantage.

use crate::primitives::{fmix64, mum, read32, read64, read_tail64};

const PRIME0: u64 = 0xEC99_BF0D_8372_CAAB;
const PRIME1: u64 = 0x8241_0DC2_9F5D_9A4D;
const PRIME2: u64 = 0x9C06_FAF4_D023_E3AB;
const PRIME3: u64 = 0xC060_724A_8424_F345;
const PRIME4: u64 = 0xCB5A_F53A_E3AA_AC31;

/// t1ha0 with `LANES` parallel 64-bit streams (models SIMD width).
///
/// `LANES = 2` ≈ no-AVX build, `4` ≈ AVX, `8` ≈ AVX2.
pub(crate) fn t1ha0_lanes<const LANES: usize>(data: &[u8]) -> u64 {
    let len = data.len();
    let block = LANES * 8;
    let mut lanes = [0u64; LANES];
    let mut keys = [0u64; LANES];
    for (i, (l, k)) in lanes.iter_mut().zip(keys.iter_mut()).enumerate() {
        *l = PRIME0.wrapping_add(i as u64).wrapping_mul(PRIME1);
        *k = PRIME2.wrapping_add((i as u64) << 1);
    }

    let mut chunks = data.chunks_exact(block);
    for chunk in &mut chunks {
        for lane in 0..LANES {
            let v = read64(chunk, lane * 8);
            lanes[lane] = mum(lanes[lane] ^ v, keys[lane]);
        }
    }
    let rem = chunks.remainder();
    let mut i = 0usize;
    while i + 8 <= rem.len() {
        lanes[0] = mum(lanes[0] ^ read64(rem, i), PRIME3);
        i += 8;
    }
    if i < rem.len() {
        lanes[0] ^= read_tail64(&rem[i..]).wrapping_mul(PRIME4);
    }

    let mut acc = (len as u64).wrapping_mul(PRIME0);
    for (lane, &value) in lanes.iter().enumerate() {
        acc = mum(acc ^ value, PRIME1.wrapping_add((lane as u64) << 1));
    }
    fmix64(acc)
}

/// t1ha0_32le-inspired: 32-bit operations only in the bulk loop, which is
/// why it lands mid-pack on a 64-bit machine (Table 4 shows ~8 GB/s).
pub(crate) fn t1ha0_32le(data: &[u8]) -> u64 {
    let len = data.len();
    let mut a: u32 = 0x92D7_8269;
    let mut b: u32 = 0xCA9B_4735;
    let mut c: u32 = 0xA468_7A76;
    let mut d: u32 = 0xE7B3_1089;

    let mut i = 0usize;
    while i + 16 <= len {
        let w0 = read32(data, i);
        let w1 = read32(data, i + 4);
        let w2 = read32(data, i + 8);
        let w3 = read32(data, i + 12);
        // 32×32→64 multiplies, folded: the character of the 32le build.
        let m0 = (a ^ w0) as u64 * 0x85EB_CA6B_u64;
        let m1 = (b ^ w1) as u64 * 0xC2B2_AE35_u64;
        a = (m0 as u32) ^ ((m0 >> 32) as u32) ^ c.rotate_left(13);
        b = (m1 as u32) ^ ((m1 >> 32) as u32) ^ d.rotate_left(7);
        c = c
            .wrapping_add(w2)
            .rotate_right(17)
            .wrapping_mul(0xCC9E_2D51);
        d = (d ^ w3).rotate_right(11).wrapping_mul(0x1B87_3593);
        i += 16;
    }
    while i + 4 <= len {
        a = (a ^ read32(data, i))
            .wrapping_mul(0x85EB_CA6B)
            .rotate_left(15);
        i += 4;
    }
    while i < len {
        b = (b ^ data[i] as u32).wrapping_mul(0xCC9E_2D51);
        i += 1;
    }
    let lo = ((a as u64) << 32) | b as u64;
    let hi = ((c as u64) << 32) | d as u64;
    fmix64(lo ^ hi.rotate_left(32) ^ (len as u64).wrapping_mul(PRIME0))
}

/// t1ha1_le-inspired: scalar 64-bit, 32-byte rounds over 4 words with a
/// serial carry chain.
pub(crate) fn t1ha1_le(data: &[u8]) -> u64 {
    let len = data.len();
    let mut a = PRIME0;
    let mut b = (len as u64).wrapping_mul(PRIME1);

    let mut chunks = data.chunks_exact(32);
    for c in &mut chunks {
        let w0 = read64(c, 0);
        let w1 = read64(c, 8);
        let w2 = read64(c, 16);
        let w3 = read64(c, 24);
        let d = w0.wrapping_add(w2).rotate_right(17) ^ w1;
        let e = w1.wrapping_sub(w3).rotate_right(31) ^ w0;
        a = mum(a ^ e, PRIME2).wrapping_add(w3);
        b = mum(b ^ d, PRIME3).wrapping_add(w2);
    }
    let rem = chunks.remainder();
    let mut i = 0usize;
    while i + 8 <= rem.len() {
        a = mum(a ^ read64(rem, i), PRIME4);
        i += 8;
    }
    if i < rem.len() {
        b ^= read_tail64(&rem[i..]).wrapping_mul(PRIME1);
    }
    fmix64(mum(a, PRIME0) ^ mum(b, PRIME1) ^ (len as u64))
}

/// t1ha2_atonce-inspired: 128-bit internal state (two interleaved
/// accumulator pairs), slightly heavier finale.
pub(crate) fn t1ha2_atonce(data: &[u8]) -> u64 {
    let len = data.len();
    let mut a = PRIME0;
    let mut b = PRIME1;
    let mut c = (len as u64).wrapping_mul(PRIME2);
    let mut d = (len as u64) ^ PRIME3;

    let mut chunks = data.chunks_exact(32);
    for ch in &mut chunks {
        let w0 = read64(ch, 0);
        let w1 = read64(ch, 8);
        let w2 = read64(ch, 16);
        let w3 = read64(ch, 24);
        let d13 = w1.wrapping_add(c.wrapping_add(w3).rotate_right(17));
        let d02 = w0.wrapping_add(d.wrapping_add(w2).rotate_right(17));
        c ^= a.wrapping_add(w1.rotate_right(41));
        d ^= b.wrapping_add(w0.rotate_right(23));
        a = mum(d02, PRIME4) ^ w2;
        b = mum(d13, PRIME0) ^ w3;
    }
    let rem = chunks.remainder();
    let mut i = 0usize;
    while i + 8 <= rem.len() {
        a = mum(a ^ read64(rem, i), PRIME2);
        b = b.rotate_left(19).wrapping_add(a);
        i += 8;
    }
    if i < rem.len() {
        c ^= read_tail64(&rem[i..]).wrapping_mul(PRIME3);
    }
    fmix64(mum(a ^ c, PRIME1).wrapping_add(mum(b ^ d, PRIME2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_counts_give_distinct_functions() {
        let v = vec![0x17u8; 4096];
        let h2 = t1ha0_lanes::<2>(&v);
        let h4 = t1ha0_lanes::<4>(&v);
        let h8 = t1ha0_lanes::<8>(&v);
        assert_ne!(h2, h4);
        assert_ne!(h4, h8);
        assert_ne!(h2, h8);
    }

    #[test]
    fn all_variants_deterministic() {
        let v: Vec<u8> = (0..777).map(|i| (i * 13 % 256) as u8).collect();
        assert_eq!(t1ha0_lanes::<8>(&v), t1ha0_lanes::<8>(&v));
        assert_eq!(t1ha0_32le(&v), t1ha0_32le(&v));
        assert_eq!(t1ha1_le(&v), t1ha1_le(&v));
        assert_eq!(t1ha2_atonce(&v), t1ha2_atonce(&v));
    }

    #[test]
    fn length_sensitivity_all_variants() {
        for f in [
            t1ha0_lanes::<8> as fn(&[u8]) -> u64,
            t1ha0_32le,
            t1ha1_le,
            t1ha2_atonce,
        ] {
            let mut hs: Vec<u64> = (0..200usize).map(|n| f(&vec![9u8; n])).collect();
            hs.sort_unstable();
            hs.dedup();
            assert_eq!(hs.len(), 200);
        }
    }

    #[test]
    fn tail_bytes_matter_for_default() {
        let mut v = vec![0u8; 100]; // 100 = 12*8 + 4 → exercises the tail
        let h = t1ha0_lanes::<8>(&v);
        v[99] = 1;
        assert_ne!(h, t1ha0_lanes::<8>(&v));
    }

    #[test]
    fn every_block_position_matters() {
        let base = vec![0u8; 256];
        let h0 = t1ha0_lanes::<8>(&base);
        for pos in [0usize, 63, 64, 127, 128, 255] {
            let mut v = base.clone();
            v[pos] = 1;
            assert_ne!(h0, t1ha0_lanes::<8>(&v), "byte {pos} ignored");
        }
    }
}
