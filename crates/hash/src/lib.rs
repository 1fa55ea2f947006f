//! # odp-hash — content hashing for duplicate-transfer detection
//!
//! The paper (§5.1, Appendix B) detects duplicate and round-trip data
//! transfers by hashing the payload of every transfer with a fast
//! non-cryptographic hash and comparing 64-bit digests. Appendix B
//! evaluates 19 hash functions from 6 families (CityHash, FarmHash,
//! MeowHash, rapidhash/wyhash, t1ha, xxHash) and selects `t1ha0_avx2` as
//! the default.
//!
//! This crate provides from-scratch Rust implementations spanning the same
//! design space. Where the reference algorithm is small and fully
//! specified we implement it exactly and assert published test vectors
//! (FNV-1a, xxHash32, xxHash64, Murmur3). For the larger or ISA-specific
//! families (XXH3, CityHash, FarmHash, t1ha, MeowHash) we implement
//! *-inspired* portable variants that preserve each family's structural
//! character — lane counts, block sizes, small-key fast paths — so that the
//! relative-throughput experiments (Table 4, Figure 5) exercise the same
//! trade-offs.
//!
//! ```
//! use odp_hash::HashAlgoId;
//!
//! let h = HashAlgoId::default().hash(b"some transferred bytes");
//! assert_eq!(h, HashAlgoId::default().hash(b"some transferred bytes"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod city;
pub(crate) mod farm;
pub mod fnv;
pub(crate) mod meow;
pub mod murmur;
pub mod quality;
pub(crate) mod t1ha;
pub mod throughput;
pub(crate) mod wy;
pub(crate) mod xxh3;
pub(crate) mod xxh32;
pub(crate) mod xxh64;

mod primitives;

use serde::Serialize;
use std::fmt;

/// Identifier of one evaluated hash function (the 19 columns of Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
#[allow(non_camel_case_types)]
pub enum HashAlgoId {
    /// CityHash32-inspired (32-bit arithmetic).
    CityHash32,
    /// CityHash64-inspired.
    CityHash64,
    /// CityHash128-inspired, folded to 64 bits for storage.
    CityHash128,
    /// CityHashCrc128-inspired (CRC-accelerated flavour), folded.
    CityHashCrc128,
    /// FarmHash32-inspired.
    FarmHash32,
    /// FarmHash64-inspired.
    FarmHash64,
    /// FarmHash128-inspired, folded.
    FarmHash128,
    /// MeowHash-inspired wide-block hash (8×64-bit lanes, no AES).
    MeowHash,
    /// rapidhash (wyhash successor) style folded-multiply hash.
    Rapidhash,
    /// t1ha0 with 4 parallel 64-bit lanes (models the AVX build).
    T1ha0_avx,
    /// t1ha0 with 8 parallel 64-bit lanes (models the AVX2 build).
    /// **The paper's default.**
    T1ha0_avx2,
    /// t1ha0 scalar (2 lanes; models the no-AVX build).
    T1ha0_noavx,
    /// t1ha0 32-bit-ops variant.
    T1ha0_32le,
    /// t1ha1 little-endian 64-bit variant.
    T1ha1_le,
    /// t1ha2 "at once" 128-bit-state variant.
    T1ha2_atonce,
    /// xxHash32 (exact implementation).
    XXH32,
    /// xxHash64 (exact implementation).
    XXH64,
    /// XXH3-64-inspired.
    XXH3_64bits,
    /// XXH3-128-inspired, folded to 64 bits for storage.
    XXH3_128bits,
}

impl HashAlgoId {
    /// All 19 evaluated functions, in Table 4 column order.
    pub const ALL: [HashAlgoId; 19] = [
        HashAlgoId::CityHash32,
        HashAlgoId::CityHash64,
        HashAlgoId::CityHash128,
        HashAlgoId::CityHashCrc128,
        HashAlgoId::FarmHash32,
        HashAlgoId::FarmHash64,
        HashAlgoId::FarmHash128,
        HashAlgoId::MeowHash,
        HashAlgoId::Rapidhash,
        HashAlgoId::T1ha0_avx,
        HashAlgoId::T1ha0_avx2,
        HashAlgoId::T1ha0_noavx,
        HashAlgoId::T1ha0_32le,
        HashAlgoId::T1ha1_le,
        HashAlgoId::T1ha2_atonce,
        HashAlgoId::XXH32,
        HashAlgoId::XXH64,
        HashAlgoId::XXH3_64bits,
        HashAlgoId::XXH3_128bits,
    ];

    /// The top performer of each family, as plotted in Figure 5.
    pub const FIGURE5: [HashAlgoId; 6] = [
        HashAlgoId::CityHash64,
        HashAlgoId::FarmHash64,
        HashAlgoId::MeowHash,
        HashAlgoId::Rapidhash,
        HashAlgoId::T1ha0_avx2,
        HashAlgoId::XXH3_64bits,
    ];

    /// Table 4 column label.
    pub fn name(self) -> &'static str {
        match self {
            HashAlgoId::CityHash32 => "CityHash32",
            HashAlgoId::CityHash64 => "CityHash64",
            HashAlgoId::CityHash128 => "CityHash128",
            HashAlgoId::CityHashCrc128 => "CityHashCrc128",
            HashAlgoId::FarmHash32 => "FarmHash32",
            HashAlgoId::FarmHash64 => "FarmHash64",
            HashAlgoId::FarmHash128 => "FarmHash128",
            HashAlgoId::MeowHash => "MeowHash",
            HashAlgoId::Rapidhash => "rapidhash",
            HashAlgoId::T1ha0_avx => "t1ha0_avx",
            HashAlgoId::T1ha0_avx2 => "t1ha0_avx2",
            HashAlgoId::T1ha0_noavx => "t1ha0_noavx",
            HashAlgoId::T1ha0_32le => "t1ha0_32le",
            HashAlgoId::T1ha1_le => "t1ha1_le",
            HashAlgoId::T1ha2_atonce => "t1ha2_atonce",
            HashAlgoId::XXH32 => "XXH32",
            HashAlgoId::XXH64 => "XXH64",
            HashAlgoId::XXH3_64bits => "XXH3_64bits",
            HashAlgoId::XXH3_128bits => "XXH3_128bits",
        }
    }

    /// The hash family this function belongs to (§B.1: "6 hash function
    /// families").
    pub fn family(self) -> HashFamily {
        match self {
            HashAlgoId::CityHash32
            | HashAlgoId::CityHash64
            | HashAlgoId::CityHash128
            | HashAlgoId::CityHashCrc128 => HashFamily::City,
            HashAlgoId::FarmHash32 | HashAlgoId::FarmHash64 | HashAlgoId::FarmHash128 => {
                HashFamily::Farm
            }
            HashAlgoId::MeowHash => HashFamily::Meow,
            HashAlgoId::Rapidhash => HashFamily::Wy,
            HashAlgoId::T1ha0_avx
            | HashAlgoId::T1ha0_avx2
            | HashAlgoId::T1ha0_noavx
            | HashAlgoId::T1ha0_32le
            | HashAlgoId::T1ha1_le
            | HashAlgoId::T1ha2_atonce => HashFamily::T1ha,
            HashAlgoId::XXH32
            | HashAlgoId::XXH64
            | HashAlgoId::XXH3_64bits
            | HashAlgoId::XXH3_128bits => HashFamily::Xx,
        }
    }

    /// Hash `data` to a 64-bit digest.
    ///
    /// 128-bit functions fold their two words with a finalizing mix so the
    /// stored digest is still 64 bits (the tool stores one `u64` per
    /// transfer, §7.4).
    #[inline]
    pub fn hash(self, data: &[u8]) -> u64 {
        match self {
            HashAlgoId::CityHash32 => city::city32(data) as u64,
            HashAlgoId::CityHash64 => city::city64(data),
            HashAlgoId::CityHash128 => primitives::fold128(city::city128(data)),
            HashAlgoId::CityHashCrc128 => primitives::fold128(city::city_crc128(data)),
            HashAlgoId::FarmHash32 => farm::farm32(data) as u64,
            HashAlgoId::FarmHash64 => farm::farm64(data),
            HashAlgoId::FarmHash128 => primitives::fold128(farm::farm128(data)),
            HashAlgoId::MeowHash => meow::meow64(data),
            HashAlgoId::Rapidhash => wy::rapidhash(data),
            HashAlgoId::T1ha0_avx => t1ha::t1ha0_lanes::<4>(data),
            HashAlgoId::T1ha0_avx2 => t1ha::t1ha0_lanes::<8>(data),
            HashAlgoId::T1ha0_noavx => t1ha::t1ha0_lanes::<2>(data),
            HashAlgoId::T1ha0_32le => t1ha::t1ha0_32le(data),
            HashAlgoId::T1ha1_le => t1ha::t1ha1_le(data),
            HashAlgoId::T1ha2_atonce => t1ha::t1ha2_atonce(data),
            HashAlgoId::XXH32 => xxh32::xxh32(data, 0) as u64,
            HashAlgoId::XXH64 => xxh64::xxh64(data, 0),
            HashAlgoId::XXH3_64bits => xxh3::xxh3_64(data),
            HashAlgoId::XXH3_128bits => primitives::fold128(xxh3::xxh3_128(data)),
        }
    }

    /// Parse a Table 4 column label.
    pub fn from_name(name: &str) -> Option<HashAlgoId> {
        HashAlgoId::ALL
            .iter()
            .copied()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Number of meaningful digest bits. 32-bit functions are widened to
    /// `u64` for storage but only populate the low 32 bits; quality
    /// measurements must account for that.
    pub(crate) fn digest_bits(self) -> u32 {
        match self {
            HashAlgoId::CityHash32 | HashAlgoId::FarmHash32 | HashAlgoId::XXH32 => 32,
            _ => 64,
        }
    }
}

impl Default for HashAlgoId {
    /// `t1ha0_avx2`, "the default hash function for OMPDataPerf since it
    /// consistently performed well across all problem sizes" (§B.1).
    fn default() -> Self {
        HashAlgoId::T1ha0_avx2
    }
}

impl fmt::Display for HashAlgoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One of the six evaluated hash families (§B.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum HashFamily {
    /// Google CityHash.
    City,
    /// Google FarmHash (CityHash successor).
    Farm,
    /// MeowHash (wide-block, AES-accelerated upstream).
    Meow,
    /// wyhash / rapidhash.
    Wy,
    /// t1ha ("Fast Positive Hash").
    T1ha,
    /// xxHash.
    Xx,
}

impl HashFamily {
    /// Family display name.
    pub fn name(self) -> &'static str {
        match self {
            HashFamily::City => "CityHash",
            HashFamily::Farm => "FarmHash",
            HashFamily::Meow => "MeowHash",
            HashFamily::Wy => "wyhash/rapidhash",
            HashFamily::T1ha => "t1ha",
            HashFamily::Xx => "xxHash",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_functions_as_in_table4() {
        assert_eq!(HashAlgoId::ALL.len(), 19);
        let mut names: Vec<_> = HashAlgoId::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19, "names must be unique");
    }

    #[test]
    fn six_families() {
        let mut fams: Vec<_> = HashAlgoId::ALL.iter().map(|a| a.family()).collect();
        fams.sort_by_key(|f| f.name());
        fams.dedup();
        assert_eq!(fams.len(), 6);
    }

    #[test]
    fn default_is_t1ha0_avx2() {
        assert_eq!(HashAlgoId::default(), HashAlgoId::T1ha0_avx2);
    }

    #[test]
    fn all_functions_are_deterministic_and_mostly_distinct() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for algo in HashAlgoId::ALL {
            assert_eq!(algo.hash(data), algo.hash(data), "{algo} not deterministic");
        }
        // Different algorithms should essentially never agree on a digest.
        let mut digests: Vec<u64> = HashAlgoId::ALL.iter().map(|a| a.hash(data)).collect();
        digests.sort_unstable();
        digests.dedup();
        assert!(
            digests.len() >= 18,
            "suspicious digest collisions across algos"
        );
    }

    #[test]
    fn from_name_round_trips() {
        for algo in HashAlgoId::ALL {
            assert_eq!(HashAlgoId::from_name(algo.name()), Some(algo));
        }
        assert_eq!(HashAlgoId::from_name("nonesuch"), None);
        assert_eq!(HashAlgoId::from_name("xxh64"), Some(HashAlgoId::XXH64));
    }

    #[test]
    fn empty_input_is_handled_by_all() {
        for algo in HashAlgoId::ALL {
            let _ = algo.hash(b"");
        }
    }

    #[test]
    fn figure5_representatives_one_per_family() {
        let mut fams: Vec<_> = HashAlgoId::FIGURE5.iter().map(|a| a.family()).collect();
        fams.sort_by_key(|f| f.name());
        fams.dedup();
        assert_eq!(fams.len(), 6);
    }
}
