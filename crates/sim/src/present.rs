//! The per-device *present table* (libomptarget's device data
//! environment).
//!
//! Maps a host variable's address range to its device allocation and a
//! reference count. `target data` / `target enter data` increment the
//! count; region exit / `target exit data` decrement it; the allocation
//! is released (and `from`-type data copied back) only when the count
//! reaches zero. This is the mechanism whose misuse produces every
//! inefficiency pattern in §4.

use crate::memory::HostCopy;
use std::collections::HashMap;

/// One present-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PresentEntry {
    /// Device address of the allocation.
    pub dev_addr: u64,
    /// Size in bytes.
    pub bytes: u64,
    /// Reference count.
    pub refcount: u32,
    /// The host copy this one last equalled (a transfer either way);
    /// `None` when fresh or a kernel may have written it since.
    pub(crate) synced: Option<HostCopy>,
}

/// The present table for one device, keyed by host base address.
#[derive(Debug, Default)]
pub struct PresentTable {
    entries: HashMap<u64, PresentEntry>,
}

impl PresentTable {
    /// Empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Look up the entry for `host_addr`.
    pub(crate) fn lookup(&self, host_addr: u64) -> Option<&PresentEntry> {
        self.entries.get(&host_addr)
    }

    /// Is `host_addr` present?
    pub fn contains(&self, host_addr: u64) -> bool {
        self.entries.contains_key(&host_addr)
    }

    /// Insert a fresh mapping with refcount 1.
    pub(crate) fn insert(&mut self, host_addr: u64, dev_addr: u64, bytes: u64) {
        let prev = self.entries.insert(
            host_addr,
            PresentEntry {
                dev_addr,
                bytes,
                refcount: 1,
                synced: None,
            },
        );
        debug_assert!(prev.is_none(), "mapping inserted over a live entry");
    }

    /// Record which host copy the mapping at `host_addr` now equals.
    pub(crate) fn set_synced(&mut self, host_addr: u64, synced: Option<HostCopy>) {
        if let Some(e) = self.entries.get_mut(&host_addr) {
            e.synced = synced;
        }
    }

    /// Increment the reference count; returns the new count.
    pub(crate) fn retain(&mut self, host_addr: u64) -> Option<u32> {
        self.entries.get_mut(&host_addr).map(|e| {
            e.refcount += 1;
            e.refcount
        })
    }

    /// Decrement the reference count. Returns the entry if the count hit
    /// zero (the caller must then copy back / free); `None` otherwise.
    pub(crate) fn release(&mut self, host_addr: u64) -> Option<PresentEntry> {
        let e = self.entries.get_mut(&host_addr)?;
        e.refcount = e.refcount.saturating_sub(1);
        if e.refcount == 0 {
            self.entries.remove(&host_addr)
        } else {
            None
        }
    }

    /// Force the reference count to zero (`map(delete: ...)`), removing
    /// and returning the entry.
    pub(crate) fn force_remove(&mut self, host_addr: u64) -> Option<PresentEntry> {
        self.entries.remove(&host_addr)
    }

    /// Number of live mappings.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_regions_refcount() {
        // target data { target { ... } }: the inner region must not free
        // or re-transfer — that is exactly how Listing 1's fix works.
        let mut t = PresentTable::new();
        t.insert(0x1000, 0xd000, 4096);
        assert_eq!(t.retain(0x1000), Some(2));
        assert!(t.release(0x1000).is_none(), "inner exit keeps data");
        let e = t.release(0x1000).expect("outer exit frees");
        assert_eq!(e.dev_addr, 0xd000);
        assert!(t.is_empty());
    }

    #[test]
    fn absent_lookup() {
        let t = PresentTable::new();
        assert!(!t.contains(0x42));
        assert!(t.lookup(0x42).is_none());
    }

    #[test]
    fn retain_absent_returns_none() {
        let mut t = PresentTable::new();
        assert_eq!(t.retain(0x1), None);
        assert!(t.release(0x1).is_none());
    }

    #[test]
    fn force_remove_ignores_refcount() {
        let mut t = PresentTable::new();
        t.insert(0x1000, 0xd000, 64);
        t.retain(0x1000);
        t.retain(0x1000);
        let e = t.force_remove(0x1000).unwrap();
        assert_eq!(e.refcount, 3);
        assert!(t.is_empty());
    }
}
