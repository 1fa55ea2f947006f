//! Shared little-endian load and mixing primitives for the hash family.

/// Load a little-endian `u32` from `data` at `offset`.
#[inline(always)]
pub(crate) fn read32(data: &[u8], offset: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&data[offset..offset + 4]);
    u32::from_le_bytes(buf)
}

/// Load a little-endian `u64` from `data` at `offset`.
#[inline(always)]
pub(crate) fn read64(data: &[u8], offset: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&data[offset..offset + 8]);
    u64::from_le_bytes(buf)
}

/// Load up to 8 trailing bytes as a little-endian integer (zero padded).
#[inline(always)]
pub(crate) fn read_tail64(data: &[u8]) -> u64 {
    debug_assert!(data.len() <= 8);
    let mut buf = [0u8; 8];
    buf[..data.len()].copy_from_slice(data);
    u64::from_le_bytes(buf)
}

/// 64×64→128 multiply folded by XOR of halves (the wyhash "mum" mixer).
#[inline(always)]
pub(crate) fn mum(a: u64, b: u64) -> u64 {
    let r = (a as u128).wrapping_mul(b as u128);
    (r as u64) ^ ((r >> 64) as u64)
}

/// The MurmurHash3/SplitMix64-style finalizer: full 64-bit avalanche.
#[inline(always)]
pub(crate) fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// MurmurHash3's 32-bit finalizer.
#[inline(always)]
pub(crate) fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

/// Fold a 128-bit digest to 64 bits with an avalanching mix, so 128-bit
/// functions can be stored in the tool's 64-bit hash slot.
#[inline(always)]
pub(crate) fn fold128(h: u128) -> u64 {
    let lo = h as u64;
    let hi = (h >> 64) as u64;
    fmix64(lo ^ hi.rotate_left(29).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_tail_pads_with_zeros() {
        assert_eq!(read_tail64(&[1]), 1);
        assert_eq!(read_tail64(&[0, 1]), 0x100);
        assert_eq!(read_tail64(&[]), 0);
        assert_eq!(read_tail64(&[0xff; 8]), u64::MAX);
    }

    #[test]
    fn fmix64_is_bijective_on_samples() {
        // A bijection never maps two inputs to one output; sample a few.
        let mut outs: Vec<u64> = (0..10_000u64).map(fmix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn mum_mixes_both_halves() {
        assert_ne!(mum(1, 0x9E3779B97F4A7C15), mum(2, 0x9E3779B97F4A7C15));
        assert_eq!(mum(0, 0), 0);
    }

    #[test]
    fn fold128_differs_from_halves() {
        let h = 0xdead_beef_0000_0001_u128 << 32;
        let f = fold128(h);
        assert_ne!(f, h as u64);
        assert_ne!(f, (h >> 64) as u64);
    }

    #[test]
    fn read_primitives() {
        let d = [1u8, 0, 0, 0, 2, 0, 0, 0];
        assert_eq!(read32(&d, 0), 1);
        assert_eq!(read32(&d, 4), 2);
        assert_eq!(read64(&d, 0), 0x2_0000_0001);
    }
}
