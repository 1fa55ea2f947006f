//! Host and device memory addresses.
//!
//! The simulator assigns stable virtual addresses to host variables and
//! device allocations; detection keys on raw addresses exactly the way the
//! paper's tool keys on the pointers reported by OMPT (e.g. Algorithm 3's
//! `(host_addr, tgt_device_num, bytes)` key).

use serde::Serialize;
use std::fmt;

/// A host virtual address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct HostAddr(pub u64);

/// A device virtual address.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct DevAddr(pub u64);

impl HostAddr {
    /// Null host address (used for ops with no host-side operand).
    pub const NULL: HostAddr = HostAddr(0);

    /// Offset this address by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> HostAddr {
        HostAddr(self.0 + bytes)
    }
}

impl DevAddr {
    /// Null device address.
    pub const NULL: DevAddr = DevAddr(0);

    /// Offset this address by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> DevAddr {
        DevAddr(self.0 + bytes)
    }
}

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl fmt::Display for DevAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

/// A contiguous byte range in some address space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct MemRange {
    /// Base address (raw, space determined by context).
    pub base: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl MemRange {
    /// Construct a range.
    #[inline]
    pub const fn new(base: u64, bytes: u64) -> Self {
        MemRange { base, bytes }
    }

    /// One-past-the-end address.
    #[inline]
    pub const fn end(self) -> u64 {
        self.base + self.bytes
    }

    /// Is the range empty?
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.bytes == 0
    }

    /// Does this range fully contain `other`?
    #[inline]
    pub fn contains_range(self, other: MemRange) -> bool {
        other.base >= self.base && other.end() <= self.end()
    }

    /// Does this range contain the single address `addr`?
    #[inline]
    pub fn contains(self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Do the two ranges share at least one byte?
    #[inline]
    pub fn overlaps(self, other: MemRange) -> bool {
        !self.is_empty() && !other.is_empty() && self.base < other.end() && other.base < self.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_geometry() {
        let r = MemRange::new(100, 50);
        assert_eq!(r.end(), 150);
        assert!(r.contains(100));
        assert!(r.contains(149));
        assert!(!r.contains(150));
        assert!(!r.contains(99));
    }

    #[test]
    fn containment() {
        let outer = MemRange::new(0, 100);
        assert!(outer.contains_range(MemRange::new(0, 100)));
        assert!(outer.contains_range(MemRange::new(10, 20)));
        assert!(!outer.contains_range(MemRange::new(90, 20)));
    }

    #[test]
    fn empty_ranges_never_overlap() {
        let e = MemRange::new(10, 0);
        assert!(!e.overlaps(MemRange::new(0, 100)));
        assert!(!MemRange::new(0, 100).overlaps(e));
    }

    #[test]
    fn address_display_is_hex() {
        assert_eq!(HostAddr(0xdead).to_string(), "0x00000000dead");
    }

    proptest! {
        #[test]
        fn overlap_is_symmetric(a in 0u64..1000, al in 0u64..100, b in 0u64..1000, bl in 0u64..100) {
            let ra = MemRange::new(a, al);
            let rb = MemRange::new(b, bl);
            prop_assert_eq!(ra.overlaps(rb), rb.overlaps(ra));
        }

        #[test]
        fn containment_implies_overlap(a in 0u64..1000, al in 1u64..100, off in 0u64..50, len in 1u64..50) {
            let outer = MemRange::new(a, al);
            let inner = MemRange::new(a + off.min(al - 1), len.min(al - off.min(al - 1)));
            if outer.contains_range(inner) && !inner.is_empty() {
                prop_assert!(outer.overlaps(inner));
            }
        }
    }
}
