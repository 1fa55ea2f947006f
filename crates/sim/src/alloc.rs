//! First-fit device memory allocator with address reuse.
//!
//! Address recycling matters to the reproduction: Algorithm 3 keys
//! repeated allocations on `(host_addr, device, bytes)` precisely because
//! device (and host) allocators hand the same addresses back out, which
//! would otherwise cause false positives "in scenarios where the same
//! memory address is used to map different variables" (§5.3). A bump
//! allocator would never reuse addresses and would silently weaken the
//! tests that pin that behaviour.

use std::collections::BTreeMap;

/// Allocation alignment (256 B, cudaMalloc-like).
const ALIGN: u64 = 256;

#[inline]
fn align_up(v: u64) -> u64 {
    (v + ALIGN - 1) & !(ALIGN - 1)
}

/// A first-fit free-list allocator over a contiguous address space.
#[derive(Debug)]
pub(crate) struct FreeListAllocator {
    /// Free blocks: start → len. Coalesced on free.
    free: BTreeMap<u64, u64>,
    /// Live blocks: start → len.
    live: BTreeMap<u64, u64>,
    /// High-water mark of bytes in use.
    peak_in_use: u64,
    in_use: u64,
}

impl FreeListAllocator {
    /// An allocator managing `[base, base+capacity)`.
    pub(crate) fn new(base: u64, capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        free.insert(base, capacity);
        FreeListAllocator {
            free,
            live: BTreeMap::new(),
            peak_in_use: 0,
            in_use: 0,
        }
    }

    /// Allocate `bytes` (rounded up to alignment). Returns the address,
    /// or `None` if the space is exhausted (device OOM).
    pub(crate) fn alloc(&mut self, bytes: u64) -> Option<u64> {
        let need = align_up(bytes.max(1));
        // First fit: lowest-addressed block that is large enough. This is
        // what makes a free-then-alloc of the same size reuse the same
        // address, as real device allocators commonly do.
        let found = self
            .free
            .iter()
            .find(|(_, &len)| len >= need)
            .map(|(&start, &len)| (start, len));
        let (start, len) = found?;
        self.free.remove(&start);
        if len > need {
            self.free.insert(start + need, len - need);
        }
        self.live.insert(start, need);
        self.in_use += need;
        self.peak_in_use = self.peak_in_use.max(self.in_use);
        Some(start)
    }

    /// Free the block at `addr`. Returns the block's size, or `None` if
    /// `addr` is not a live allocation (double free / bad pointer).
    pub(crate) fn free(&mut self, addr: u64) -> Option<u64> {
        let len = self.live.remove(&addr)?;
        self.in_use -= len;
        // Coalesce with successor.
        let mut start = addr;
        let mut size = len;
        if let Some(&next_len) = self.free.get(&(addr + len)) {
            self.free.remove(&(addr + len));
            size += next_len;
        }
        // Coalesce with predecessor.
        if let Some((&prev_start, &prev_len)) = self.free.range(..addr).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                size += prev_len;
            }
        }
        self.free.insert(start, size);
        Some(len)
    }

    /// Peak bytes ever allocated simultaneously.
    #[cfg(test)]
    pub(crate) fn peak_in_use(&self) -> u64 {
        self.peak_in_use
    }

    /// Number of live allocations.
    #[cfg(test)]
    fn live_blocks(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_free_realloc_reuses_address() {
        // The property Algorithm 3 leans on: same-size realloc after free
        // lands on the same device address.
        let mut a = FreeListAllocator::new(0x1000, 1 << 20);
        let p1 = a.alloc(4096).unwrap();
        a.free(p1).unwrap();
        let p2 = a.alloc(4096).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn distinct_live_blocks_do_not_overlap() {
        let mut a = FreeListAllocator::new(0, 1 << 16);
        let p1 = a.alloc(100).unwrap();
        let p2 = a.alloc(100).unwrap();
        assert!(p2 >= p1 + 256, "alignment-separated");
    }

    #[test]
    fn oom_returns_none() {
        let mut a = FreeListAllocator::new(0, 1024);
        assert!(a.alloc(2048).is_none());
        let p = a.alloc(512).unwrap();
        assert!(a.alloc(1024).is_none());
        a.free(p).unwrap();
        assert!(a.alloc(1024).is_some());
    }

    #[test]
    fn double_free_detected() {
        let mut a = FreeListAllocator::new(0, 4096);
        let p = a.alloc(128).unwrap();
        assert!(a.free(p).is_some());
        assert!(a.free(p).is_none());
        assert!(a.free(0xdead).is_none());
    }

    #[test]
    fn coalescing_allows_full_reuse() {
        let mut a = FreeListAllocator::new(0, 4096);
        let p1 = a.alloc(1024).unwrap();
        let p2 = a.alloc(1024).unwrap();
        let p3 = a.alloc(1024).unwrap();
        a.free(p2).unwrap();
        a.free(p1).unwrap();
        a.free(p3).unwrap();
        // After freeing everything, one block spanning the space remains.
        let big = a.alloc(4096).unwrap();
        assert_eq!(big, 0);
    }

    #[test]
    fn peak_tracking() {
        let mut a = FreeListAllocator::new(0, 1 << 20);
        let p1 = a.alloc(1000).unwrap(); // rounds to 1024
        let p2 = a.alloc(1000).unwrap();
        a.free(p1).unwrap();
        a.free(p2).unwrap();
        assert_eq!(a.in_use, 0);
        assert_eq!(a.peak_in_use(), 2048);
    }

    proptest! {
        #[test]
        fn random_alloc_free_invariants(ops in proptest::collection::vec(0u8..3, 1..200)) {
            let mut a = FreeListAllocator::new(0x4000, 1 << 22);
            let mut live: Vec<u64> = Vec::new();
            for op in ops {
                match op {
                    0 | 1 => {
                        if let Some(p) = a.alloc(512) {
                            prop_assert!(!live.contains(&p), "allocator handed out a live address");
                            live.push(p);
                        }
                    }
                    _ => {
                        if let Some(p) = live.pop() {
                            prop_assert!(a.free(p).is_some());
                        }
                    }
                }
            }
            prop_assert_eq!(a.live_blocks(), live.len());
            prop_assert_eq!(a.in_use, live.len() as u64 * 512);
        }
    }
}
