//! rapidhash/wyhash-style folded-multiply hash.
//!
//! rapidhash is "the official successor to wyhash" (§B.1); both are built
//! around the 64×64→128 multiply-and-fold ("mum") primitive with a small
//! constant schedule. This implementation follows the wyhash-final-4 /
//! rapidhash structure (16-byte fast path, 48-byte unrolled bulk loop)
//! without claiming digest compatibility.

use crate::primitives::{mum, read32, read64, read_tail64};

const S0: u64 = 0x2d35_8dcc_aa6c_78a5;
const S1: u64 = 0x8bb8_4b93_962e_acc9;
const S2: u64 = 0x4b33_a62e_d433_d4a3;
const S3: u64 = 0x4d5a_2da5_1de1_aa47;

/// rapidhash-style hash of `data`.
pub(crate) fn rapidhash(data: &[u8]) -> u64 {
    let len = data.len();
    let mut seed = S0 ^ (len as u64).wrapping_mul(S1);

    if len <= 16 {
        if len >= 8 {
            let lo = read64(data, 0);
            let hi = read64(data, len - 8);
            seed = mum(lo ^ S1, hi ^ seed);
        } else if len >= 4 {
            // First and last 4 bytes (overlapping), as wyhash's wyr4 pair.
            let lo = read32(data, 0) as u64;
            let hi = read32(data, len - 4) as u64;
            seed = mum((lo << 32 | hi) ^ S1, seed ^ S2);
        } else if len > 0 {
            // Gather first, middle, last bytes the way wyhash's wyr3 does
            // (for len ≤ 3 these three positions cover every byte).
            let a = data[0] as u64;
            let b = data[len >> 1] as u64;
            let c = data[len - 1] as u64;
            seed = mum((a << 16) | (b << 8) | c, seed ^ S2);
        }
        return mum(seed ^ S3, (len as u64) ^ S1);
    }

    let mut i = 0usize;
    if len >= 48 {
        let mut s1 = seed;
        let mut s2 = seed;
        while i + 48 <= len {
            seed = mum(read64(data, i) ^ S1, read64(data, i + 8) ^ seed);
            s1 = mum(read64(data, i + 16) ^ S2, read64(data, i + 24) ^ s1);
            s2 = mum(read64(data, i + 32) ^ S3, read64(data, i + 40) ^ s2);
            i += 48;
        }
        seed ^= s1 ^ s2;
    }
    while i + 16 <= len {
        seed = mum(read64(data, i) ^ S1, read64(data, i + 8) ^ seed);
        i += 16;
    }
    // Tail: read the final 16 bytes (overlapping reads, as wyhash does).
    if len >= 16 {
        let a = read64(data, len - 16);
        let b = read64(data, len - 8);
        seed = mum(a ^ S2, b ^ seed);
    } else {
        seed = mum(read_tail64(&data[i..]) ^ S2, seed);
    }
    mum(seed ^ S0, (len as u64) ^ S3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let d = b"rapid brown fox";
        assert_eq!(rapidhash(d), rapidhash(d));
    }

    #[test]
    fn path_coverage_lengths() {
        let mut hs: Vec<u64> = (0..200usize).map(|n| rapidhash(&vec![1u8; n])).collect();
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 200);
    }

    #[test]
    fn small_keys_sensitive_to_every_byte() {
        for len in 1..=16usize {
            let base = vec![0u8; len];
            let h0 = rapidhash(&base);
            for pos in 0..len {
                let mut v = base.clone();
                v[pos] = 1;
                assert_ne!(h0, rapidhash(&v), "len {len} byte {pos} ignored");
            }
        }
    }

    #[test]
    fn bulk_loop_sensitive_to_middle_bytes() {
        let mut v = vec![0u8; 1000];
        let h0 = rapidhash(&v);
        v[500] = 1;
        assert_ne!(h0, rapidhash(&v));
    }
}
