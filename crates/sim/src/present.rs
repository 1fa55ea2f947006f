//! The per-device *present table* (libomptarget's device data
//! environment).
//!
//! Maps a host variable's address range to its device allocation and a
//! reference count. The table only stores: what a map clause does to an
//! entry's count — and when data is copied or freed — is the transition
//! `odp_model::MapType::enter` / `exit`, which the runtime steps and
//! writes back with [`PresentTable::set_refcount`]. This is the mechanism
//! whose misuse produces every inefficiency pattern in §4.

use crate::memory::HostCopy;
use std::collections::HashMap;

/// One present-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PresentEntry {
    /// Device address of the allocation.
    pub dev_addr: u64,
    /// Reference count.
    pub refcount: u32,
    /// The host copy this one last equalled (a transfer either way);
    /// `None` when fresh or a kernel may have written it since.
    pub(crate) synced: Option<HostCopy>,
}

/// The present table for one device, keyed by host base address.
#[derive(Debug, Default)]
pub(crate) struct PresentTable {
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

    /// Insert a fresh mapping with refcount 1.
    pub(crate) fn insert(&mut self, host_addr: u64, dev_addr: u64) {
        let prev = self.entries.insert(
            host_addr,
            PresentEntry {
                dev_addr,
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

    /// Set the reference count of the mapping at `host_addr`; `None`
    /// removes the mapping.
    pub(crate) fn set_refcount(&mut self, host_addr: u64, refcount: Option<u32>) {
        match refcount {
            Some(n) => {
                if let Some(e) = self.entries.get_mut(&host_addr) {
                    e.refcount = n;
                }
            }
            None => {
                self.entries.remove(&host_addr);
            }
        }
    }

    /// Number of live mappings.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::{MapStep, MapType};

    /// One region-entry clause as the runtime steps it: the shared
    /// transition on the entry's count, written back to the table.
    fn enter(t: &mut PresentTable, host_addr: u64, mt: MapType) -> MapStep {
        let step = mt.enter(t.lookup(host_addr).map(|e| e.refcount), false);
        if step.alloc {
            t.insert(host_addr, host_addr + 0xc000);
        }
        t.set_refcount(host_addr, step.refcount);
        step
    }

    /// One region-exit clause as the runtime steps it.
    fn exit(t: &mut PresentTable, host_addr: u64, mt: MapType) -> MapStep {
        let step = mt.exit(t.lookup(host_addr).map(|e| e.refcount), false);
        t.set_refcount(host_addr, step.refcount);
        step
    }

    #[test]
    fn nested_regions_refcount() {
        // target data { target { ... } }: the inner region must not free
        // or re-transfer — that is exactly how Listing 1's fix works.
        let mut t = PresentTable::new();
        let outer = enter(&mut t, 0x1000, MapType::ToFrom);
        assert!(outer.alloc && outer.to);
        let inner = enter(&mut t, 0x1000, MapType::ToFrom);
        assert!(!inner.alloc && !inner.to, "inner entry reuses the data");
        assert_eq!(t.lookup(0x1000).map(|e| e.refcount), Some(2));
        let inner = exit(&mut t, 0x1000, MapType::ToFrom);
        assert!(!inner.from && !inner.free, "inner exit keeps data");
        assert_eq!(
            t.lookup(0x1000).map(|e| (e.dev_addr, e.refcount)),
            Some((0xd000, 1))
        );
        let outer = exit(&mut t, 0x1000, MapType::ToFrom);
        assert!(outer.from && outer.free, "outer exit copies back and frees");
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn retain_absent_returns_none() {
        let mut t = PresentTable::new();
        let step = enter(&mut t, 0x1, MapType::Release);
        assert!(step.absent && !step.alloc);
        assert_eq!(step.refcount, None);
        assert!(t.lookup(0x1).is_none());
        let step = exit(&mut t, 0x1, MapType::ToFrom);
        assert!(step.absent && !step.from && !step.free);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn force_remove_ignores_refcount() {
        let mut t = PresentTable::new();
        for _ in 0..3 {
            enter(&mut t, 0x1000, MapType::To);
        }
        assert_eq!(t.lookup(0x1000).map(|e| e.refcount), Some(3));
        let step = exit(&mut t, 0x1000, MapType::Delete);
        assert!(step.free);
        assert_eq!(step.refcount, None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn absent_lookup() {
        let t = PresentTable::new();
        assert!(t.lookup(0x42).is_none());
    }

    #[test]
    fn the_refcount_is_set_and_cleared() {
        let mut t = PresentTable::new();
        t.insert(0x1000, 0xd000);
        t.set_refcount(0x1000, Some(3));
        assert_eq!(
            t.lookup(0x1000).map(|e| (e.dev_addr, e.refcount)),
            Some((0xd000, 3))
        );
        t.set_refcount(0x1000, None);
        assert!(t.lookup(0x1000).is_none());
        assert_eq!(t.len(), 0);
    }
}
