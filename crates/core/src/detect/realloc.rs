//! Algorithm 3 — Identify Repeated Device Memory Allocations.
//!
//! Definition 4.3: "A repeated device memory allocation occurs when
//! memory on a target device is allocated, and subsequently deleted,
//! more than once to accommodate the mapping of the same variable."
//!
//! Allocations are grouped by `(host_addr, device, bytes)` — the
//! allocation size participates in the key "to mitigate false positives
//! in scenarios where the same memory address is used to map different
//! variables throughout a program's execution" (§5.3).

use crate::detect::pairing::{alloc_delete_pairs, AllocDeletePair};
use crate::detect::Confidence;
use odp_hash::fnv::FnvHashMap;
use odp_model::{DataOpEvent, DeviceId};
use serde::Serialize;

/// Repeated allocations of one variable on one device.
#[derive(Clone, Debug, Serialize)]
pub struct RepeatedAllocGroup {
    /// Host address of the mapped variable.
    pub host_addr: u64,
    /// The device allocated on.
    pub device: DeviceId,
    /// Allocation size (part of the key).
    pub bytes: u64,
    /// Alloc/delete pairs, chronological. `pairs[0]` is the first
    /// (necessary) allocation; the rest are repeats.
    pub pairs: Vec<AllocDeletePair>,
    /// Evidence trust level. Always [`Confidence::Confirmed`] on the
    /// post-mortem paths; degraded only by streaming stall recovery.
    pub confidence: Confidence,
}

impl RepeatedAllocGroup {
    /// Number of redundant allocation cycles.
    #[cfg(test)]
    pub(crate) fn repeat_count(&self) -> usize {
        self.pairs.len().saturating_sub(1)
    }
}

/// Algorithm 3. `data_op_events` must be chronological.
pub fn find_repeated_allocs(data_op_events: &[DataOpEvent]) -> Vec<RepeatedAllocGroup> {
    let allocs = alloc_delete_pairs(data_op_events);

    let mut repeated: FnvHashMap<(u64, DeviceId, u64), Vec<AllocDeletePair>> =
        FnvHashMap::default();
    let mut key_order: Vec<(u64, DeviceId, u64)> = Vec::new();
    for pair in allocs {
        let key = (
            pair.alloc.src_addr,
            pair.alloc.dest_device,
            pair.alloc.bytes,
        );
        let entry = repeated.entry(key).or_default();
        if entry.is_empty() {
            key_order.push(key);
        }
        entry.push(pair);
    }

    key_order
        .into_iter()
        .filter_map(|key| {
            let pairs = repeated.remove(&key)?;
            if pairs.len() < 2 {
                return None; // remove entries without at least two allocs
            }
            Some(RepeatedAllocGroup {
                host_addr: key.0,
                device: key.1,
                bytes: key.2,
                pairs,
                confidence: Confidence::Confirmed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::EventFactory;

    #[test]
    fn detects_per_kernel_realloc() {
        // Listings 1/2: alloc+delete around each of three target regions.
        let mut f = EventFactory::new();
        let mut ops = Vec::new();
        for i in 0..3u64 {
            ops.push(f.alloc(i * 100, 0, 0x1000, 0xd000, 4096));
            ops.push(f.delete(i * 100 + 50, 0, 0x1000, 0xd000, 4096));
        }
        let groups = find_repeated_allocs(&ops);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].repeat_count(), 2);
        assert_eq!(groups[0].bytes, 4096);
    }

    #[test]
    fn single_allocation_is_fine() {
        let mut f = EventFactory::new();
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),
            f.delete(100, 0, 0x1000, 0xd000, 64),
        ];
        assert!(find_repeated_allocs(&ops).is_empty());
    }

    #[test]
    fn size_in_key_prevents_false_positive_on_address_reuse() {
        // §5.3: the same *host* address hosting differently-sized
        // variables (realloc'd host buffer) must not be flagged.
        let mut f = EventFactory::new();
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),
            f.delete(10, 0, 0x1000, 0xd000, 64),
            f.alloc(20, 0, 0x1000, 0xd000, 128), // different variable now
            f.delete(30, 0, 0x1000, 0xd000, 128),
        ];
        assert!(find_repeated_allocs(&ops).is_empty());
    }

    #[test]
    fn devices_are_separate_sites() {
        let mut f = EventFactory::new();
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),
            f.delete(10, 0, 0x1000, 0xd000, 64),
            f.alloc(20, 1, 0x1000, 0xd000, 64),
            f.delete(30, 1, 0x1000, 0xd000, 64),
        ];
        assert!(
            find_repeated_allocs(&ops).is_empty(),
            "one alloc per device"
        );
    }

    #[test]
    fn repeat_with_open_final_allocation_counts() {
        // alloc,delete,alloc (never freed): still two allocations of the
        // same variable → one repeat.
        let mut f = EventFactory::new();
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),
            f.delete(10, 0, 0x1000, 0xd000, 64),
            f.alloc(20, 0, 0x1000, 0xd000, 64),
        ];
        let groups = find_repeated_allocs(&ops);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].repeat_count(), 1);
        assert!(groups[0].pairs[1].delete.is_none());
    }
}
