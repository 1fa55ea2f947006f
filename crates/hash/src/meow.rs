//! MeowHash-inspired wide-block hash.
//!
//! The real MeowHash leans on hardware AES rounds over 128-byte blocks to
//! reach extreme throughput on long strings. This portable stand-in keeps
//! the *shape* — eight independent 64-bit lanes consuming 128-byte blocks
//! with a cheap per-lane mix and a heavier cross-lane finale — so that in
//! Table 4 it behaves like the family it models: mediocre on tiny keys,
//! top-tier on long streams.

use crate::primitives::{fmix64, mum, read64, read_tail64};

const LANE_KEYS: [u64; 8] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
    0xCA5A_8263_9512_1157,
    0x7B1C_E583_BD4A_767D,
    0x85EB_CA77_C2B2_AE63,
    0xC2B2_AE3D_27D4_EB4F,
];

/// MeowHash-inspired 64-bit hash.
pub(crate) fn meow64(data: &[u8]) -> u64 {
    let len = data.len();
    let mut lanes = LANE_KEYS;

    let mut i = 0usize;
    // 128-byte blocks: 2 reads per lane per block, fully independent lanes
    // (the ILP that models AES-pipe throughput).
    while i + 128 <= len {
        for (lane, l) in lanes.iter_mut().enumerate() {
            let x = read64(data, i + lane * 8);
            let y = read64(data, i + 64 + lane * 8);
            // One multiply + xor-rotate per 16 bytes of input.
            *l = (*l ^ x).wrapping_mul(LANE_KEYS[(lane + 1) & 7]) ^ y.rotate_left(29);
        }
        i += 128;
    }
    // 8-byte granules for the remainder.
    let mut lane = 0usize;
    while i + 8 <= len {
        lanes[lane & 7] = (lanes[lane & 7] ^ read64(data, i)).wrapping_mul(LANE_KEYS[lane & 7]);
        lane += 1;
        i += 8;
    }
    if i < len {
        lanes[lane & 7] ^= read_tail64(&data[i..]).wrapping_mul(0x0100_0000_01b3);
    }

    // Cross-lane finale.
    let mut acc = (len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for pair in 0..4 {
        acc = acc.wrapping_add(mum(lanes[2 * pair], lanes[2 * pair + 1].rotate_left(17)));
    }
    fmix64(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let v: Vec<u8> = (0..999).map(|i| (i % 255) as u8).collect();
        assert_eq!(meow64(&v), meow64(&v));
    }

    #[test]
    fn block_and_tail_paths() {
        for n in [0usize, 7, 8, 64, 127, 128, 129, 256, 1000] {
            let v = vec![3u8; n];
            let _ = meow64(&v);
        }
        let mut hs: Vec<u64> = (0..300usize).map(|n| meow64(&vec![3u8; n])).collect();
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 300);
    }

    #[test]
    fn every_block_position_matters() {
        let base = vec![0u8; 512];
        let h0 = meow64(&base);
        for pos in [0usize, 63, 64, 127, 128, 255, 256, 511] {
            let mut v = base.clone();
            v[pos] = 1;
            assert_ne!(h0, meow64(&v), "byte {pos} ignored");
        }
    }
}
