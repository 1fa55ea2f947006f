//! CityHash-inspired hashes.
//!
//! Follows the structure of Google's CityHash (per-length fast paths below
//! 64 bytes; a rolling 56-byte state for long inputs; the `HashLen16`
//! 128→64 finishing mix) using the published magic constants, but does not
//! claim digest compatibility with the C++ reference.

use crate::primitives::{fmix32, read32, read64, read_tail64};

pub(crate) const K0: u64 = 0xc3a5_c85c_97cb_3127;
pub(crate) const K1: u64 = 0xb492_b66f_be98_f273;
pub(crate) const K2: u64 = 0x9ae1_6a3b_2f90_404f;
const C1_32: u32 = 0xcc9e_2d51;
const C2_32: u32 = 0x1b87_3593;

/// CityHash's `Hash128to64` mix.
#[inline(always)]
pub(crate) fn hash128_to_64(lo: u64, hi: u64) -> u64 {
    const MUL: u64 = 0x9ddf_ea08_eb38_2d69;
    let mut a = (lo ^ hi).wrapping_mul(MUL);
    a ^= a >> 47;
    let mut b = (hi ^ a).wrapping_mul(MUL);
    b ^= b >> 47;
    b.wrapping_mul(MUL)
}

#[inline(always)]
fn hash_len16_mul(u: u64, v: u64, mul: u64) -> u64 {
    let mut a = (u ^ v).wrapping_mul(mul);
    a ^= a >> 47;
    let mut b = (v ^ a).wrapping_mul(mul);
    b ^= b >> 47;
    b.wrapping_mul(mul)
}

#[inline(always)]
fn shift_mix(v: u64) -> u64 {
    v ^ (v >> 47)
}

fn hash_len_0_to_16(data: &[u8]) -> u64 {
    let len = data.len();
    if len >= 8 {
        let mul = K2.wrapping_add((len as u64) * 2);
        let a = read64(data, 0).wrapping_add(K2);
        let b = read64(data, len - 8);
        let c = b.rotate_right(37).wrapping_mul(mul).wrapping_add(a);
        let d = a.rotate_right(25).wrapping_add(b).wrapping_mul(mul);
        return hash_len16_mul(c, d, mul);
    }
    if len >= 4 {
        let mul = K2.wrapping_add((len as u64) * 2);
        let a = read32(data, 0) as u64;
        return hash_len16_mul(
            (len as u64).wrapping_add(a << 3),
            read32(data, len - 4) as u64,
            mul,
        );
    }
    if len > 0 {
        let a = data[0] as u64;
        let b = data[len >> 1] as u64;
        let c = data[len - 1] as u64;
        let y = a.wrapping_add(b << 8);
        let z = (len as u64).wrapping_add(c << 2);
        return shift_mix(y.wrapping_mul(K2) ^ z.wrapping_mul(K0)).wrapping_mul(K2);
    }
    K2
}

fn hash_len_17_to_32(data: &[u8]) -> u64 {
    let len = data.len();
    let mul = K2.wrapping_add((len as u64) * 2);
    let a = read64(data, 0).wrapping_mul(K1);
    let b = read64(data, 8);
    let c = read64(data, len - 8).wrapping_mul(mul);
    let d = read64(data, len - 16).wrapping_mul(K2);
    hash_len16_mul(
        a.wrapping_add(b)
            .rotate_right(43)
            .wrapping_add(c.rotate_right(30))
            .wrapping_add(d),
        a.wrapping_add(b.wrapping_add(K2).rotate_right(18))
            .wrapping_add(c),
        mul,
    )
}

fn hash_len_33_to_64(data: &[u8]) -> u64 {
    let len = data.len();
    let mul = K2.wrapping_add((len as u64) * 2);
    let a = read64(data, 0).wrapping_mul(K2);
    let b = read64(data, 8);
    let c = read64(data, len - 24);
    let d = read64(data, len - 32);
    let e = read64(data, 16).wrapping_mul(K2);
    let f = read64(data, 24).wrapping_mul(9);
    let g = read64(data, len - 8);
    let h = read64(data, len - 16).wrapping_mul(mul);

    let u = a
        .wrapping_add(g)
        .rotate_right(43)
        .wrapping_add(b.rotate_right(30).wrapping_add(c))
        .wrapping_mul(9);
    let v = (a.wrapping_add(g) ^ d).wrapping_add(f).wrapping_add(1);
    let w = ((u.wrapping_add(v)).wrapping_mul(mul))
        .swap_bytes()
        .wrapping_add(h);
    let x = e.wrapping_add(f).rotate_right(42).wrapping_add(c);
    let y = ((v.wrapping_add(w)).wrapping_mul(mul))
        .swap_bytes()
        .wrapping_add(g)
        .wrapping_mul(mul);
    let z = e.wrapping_add(f).wrapping_add(c);
    let a2 = (x.wrapping_add(z))
        .wrapping_mul(mul)
        .wrapping_add(y)
        .wrapping_add(K2);
    shift_mix(a2.wrapping_mul(K2).wrapping_add(z))
        .wrapping_mul(K2)
        .wrapping_add(x)
}

#[inline(always)]
fn weak_hash_len32_with_seeds(
    w: u64,
    x: u64,
    y: u64,
    z: u64,
    mut a: u64,
    mut b: u64,
) -> (u64, u64) {
    a = a.wrapping_add(w);
    b = b.wrapping_add(a).wrapping_add(z).rotate_right(21);
    let c = a;
    a = a.wrapping_add(x).wrapping_add(y);
    b = b.wrapping_add(a.rotate_right(44));
    (a.wrapping_add(z), b.wrapping_add(c))
}

/// CityHash64-inspired hash.
pub(crate) fn city64(data: &[u8]) -> u64 {
    let len = data.len();
    if len <= 16 {
        return hash_len_0_to_16(data);
    }
    if len <= 32 {
        return hash_len_17_to_32(data);
    }
    if len <= 64 {
        return hash_len_33_to_64(data);
    }

    // Long input: 64-byte chunks with a 56-byte rolling state.
    let mut x = read64(data, len - 40);
    let mut y = read64(data, len - 16).wrapping_add(read64(data, len - 56));
    let mut z = hash128_to_64(
        read64(data, len - 48).wrapping_add(len as u64),
        read64(data, len - 24),
    );
    let mut v = weak_hash_len32_with_seeds(
        read64(data, len - 64),
        read64(data, len - 56),
        read64(data, len - 48),
        read64(data, len - 40),
        len as u64,
        z,
    );
    let mut w = weak_hash_len32_with_seeds(
        read64(data, len - 32),
        read64(data, len - 24),
        read64(data, len - 16),
        read64(data, len - 8),
        y.wrapping_add(K1),
        x,
    );
    x = x.wrapping_mul(K1).wrapping_add(read64(data, 0));

    let mut i = 0usize;
    let rounds = (len - 1) / 64;
    for _ in 0..rounds {
        x = x
            .wrapping_add(y)
            .wrapping_add(v.0)
            .wrapping_add(read64(data, i + 8))
            .rotate_right(37)
            .wrapping_mul(K1);
        y = y
            .wrapping_add(v.1)
            .wrapping_add(read64(data, i + 48))
            .rotate_right(42)
            .wrapping_mul(K1);
        x ^= w.1;
        y = y.wrapping_add(v.0).wrapping_add(read64(data, i + 40));
        z = z.wrapping_add(w.0).rotate_right(33).wrapping_mul(K1);
        v = weak_hash_len32_with_seeds(
            read64(data, i),
            read64(data, i + 8),
            read64(data, i + 16),
            read64(data, i + 24),
            v.1.wrapping_mul(K1),
            x.wrapping_add(w.0),
        );
        w = weak_hash_len32_with_seeds(
            read64(data, i + 32),
            read64(data, i + 40),
            read64(data, i + 48),
            read64(data, i + 56),
            z.wrapping_add(w.1),
            y.wrapping_add(read64(data, i + 16)),
        );
        std::mem::swap(&mut z, &mut x);
        i += 64;
    }

    hash128_to_64(
        hash128_to_64(v.0, w.0)
            .wrapping_add(shift_mix(y).wrapping_mul(K1))
            .wrapping_add(z),
        hash128_to_64(v.1, w.1).wrapping_add(x),
    )
}

/// CityHash32-inspired hash (32-bit arithmetic, Murmur-style rounds).
pub(crate) fn city32(data: &[u8]) -> u32 {
    let len = data.len();
    if len <= 4 {
        let mut b: u32 = 0;
        let mut c: u32 = 9;
        for &byte in data {
            b = b.wrapping_mul(C1_32).wrapping_add(byte as i8 as u32);
            c ^= b;
        }
        return fmix32(
            fmix32(b)
                .wrapping_add(fmix32(len as u32))
                .wrapping_mul(C2_32)
                ^ c,
        );
    }
    if len <= 12 {
        let a = read32(data, 0);
        let b = read32(data, (len >> 1) & !3);
        let c = read32(data, len - 4);
        let h = fmix32(
            a.wrapping_mul(C1_32)
                .wrapping_add(b.rotate_right(17).wrapping_mul(C2_32))
                ^ c.wrapping_add(len as u32),
        );
        return fmix32(h.wrapping_mul(C1_32) ^ b);
    }
    // Bulk: 20-byte rounds over five u32 lanes.
    let mut h = (len as u32).wrapping_mul(C1_32);
    let mut g = C2_32.wrapping_mul(len as u32);
    let mut f = g;
    let mut i = 0usize;
    while i + 20 <= len {
        let a = read32(data, i);
        let b = read32(data, i + 4);
        let c = read32(data, i + 8);
        let d = read32(data, i + 12);
        let e = read32(data, i + 16);
        h = h
            .wrapping_add(a.wrapping_mul(C1_32))
            .rotate_right(19)
            .wrapping_mul(5)
            .wrapping_add(0xe654_6b64);
        g = g.wrapping_add(b).rotate_right(18).wrapping_mul(5) ^ c.wrapping_mul(C2_32);
        f = f
            .wrapping_add(d.rotate_right(13))
            .wrapping_mul(C1_32)
            .wrapping_add(e);
        i += 20;
    }
    // Tail via final 20 bytes (overlapping read).
    let t = &data[len - 20.min(len)..];
    if t.len() >= 20 {
        h ^= read32(t, 0).wrapping_mul(C1_32);
        g ^= read32(t, 8).wrapping_mul(C2_32);
        f ^= read32(t, 16);
    }
    fmix32(
        fmix32(h)
            .wrapping_add(fmix32(g).rotate_right(11))
            .wrapping_mul(C1_32)
            ^ fmix32(f),
    )
}

/// CityHash128-inspired: produce two 64-bit words.
pub(crate) fn city128(data: &[u8]) -> u128 {
    let len = data.len();
    let lo = city64(data);
    // Second word: rehash with seeds derived from the first and the two
    // halves, as CityHash128WithSeed does.
    let half = len / 2;
    let hi = hash128_to_64(
        city64(&data[..half]).wrapping_add(K0),
        lo ^ city64(&data[half..]).wrapping_add(K1),
    );
    ((hi as u128) << 64) | lo as u128
}

/// CityHashCrc128-inspired: the CRC-accelerated flavour. We model the CRC
/// lane with a polynomial-free 32-bit folding step (no `unsafe`, no ISA
/// intrinsics) which keeps its distinct throughput character.
pub(crate) fn city_crc128(data: &[u8]) -> u128 {
    let len = data.len();
    let mut crc_lane: u64 = K0;
    let mut i = 0usize;
    while i + 8 <= len {
        // crc32c-style folding stand-in: multiply-xor with rotation.
        crc_lane = (crc_lane ^ read64(data, i))
            .wrapping_mul(0x1_0000_0000_0139)
            .rotate_right(17);
        i += 8;
    }
    if i < len {
        crc_lane ^= read_tail64(&data[i..]);
    }
    let base = city64(data);
    let hi = hash128_to_64(crc_lane, base ^ K2);
    ((hi as u128) << 64) | base as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_length_paths_deterministic() {
        for n in [0usize, 3, 4, 8, 12, 16, 17, 32, 33, 64, 65, 200, 1000] {
            let v: Vec<u8> = (0..n).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(city64(&v), city64(&v));
            assert_eq!(city32(&v), city32(&v));
            assert_eq!(city128(&v), city128(&v));
            assert_eq!(city_crc128(&v), city_crc128(&v));
        }
    }

    #[test]
    fn distinct_lengths_distinct_digests() {
        let mut hs: Vec<u64> = (0..256usize).map(|n| city64(&vec![0xAB; n])).collect();
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 256);
    }

    #[test]
    fn long_input_interior_bits_matter() {
        let mut v = vec![0u8; 777];
        let h = city64(&v);
        v[333] ^= 4;
        assert_ne!(h, city64(&v));
    }

    #[test]
    fn hash128_to_64_known_mixing() {
        assert_ne!(hash128_to_64(1, 2), hash128_to_64(2, 1));
        assert_ne!(hash128_to_64(0, 1), 0);
    }

    #[test]
    fn variants_disagree_with_each_other() {
        let v = vec![0x42u8; 512];
        let c64 = city64(&v);
        let c128 = city128(&v);
        let crc = city_crc128(&v);
        assert_ne!(c128, crc);
        assert_ne!((c128 >> 64) as u64, c64);
    }
}
