//! Algorithm 1 — Identify Duplicate Data Transfers.
//!
//! Definition 4.1: "A duplicate data transfer occurs when a device (or
//! host) receives data that it had previously received." Detection is
//! content-based: transfers are grouped by `(hash, dest_device)`; any
//! group with at least two events is a set of duplicates.

use crate::detect::Confidence;
use odp_hash::fnv::FnvHashMap;
use odp_model::{DataOpEvent, DeviceId, HashVal};
use serde::Serialize;

/// A group of transfers carrying identical content to the same device.
#[derive(Clone, Debug, Serialize)]
pub struct DuplicateTransferGroup {
    /// The shared content hash.
    pub hash: HashVal,
    /// The receiving device.
    pub dest_device: DeviceId,
    /// All transfer events in the group, chronological. `events[0]` is
    /// the first (necessary) transfer; the rest are duplicates.
    pub events: Vec<DataOpEvent>,
    /// Evidence trust level. Always [`Confidence::Confirmed`] on the
    /// post-mortem paths; degraded only by streaming stall recovery.
    pub confidence: Confidence,
}

impl DuplicateTransferGroup {
    /// Number of redundant transfers in this group.
    pub fn duplicate_count(&self) -> usize {
        self.events.len().saturating_sub(1)
    }

    /// Bytes wasted by the redundant transfers.
    #[cfg(test)]
    pub(crate) fn wasted_bytes(&self) -> u64 {
        self.events.iter().skip(1).map(|e| e.bytes).sum()
    }
}

/// Algorithm 1. `data_op_events` must be chronological.
pub fn find_duplicate_transfers(data_op_events: &[DataOpEvent]) -> Vec<DuplicateTransferGroup> {
    // received: ⟨hash, dest_device_num⟩ → array⟨event⟩
    let mut received: FnvHashMap<(HashVal, DeviceId), Vec<&DataOpEvent>> = FnvHashMap::default();
    // Insertion order of first occurrence, for deterministic output.
    let mut key_order: Vec<(HashVal, DeviceId)> = Vec::new();

    for event in data_op_events {
        let (Some(hash), true) = (event.hash, event.is_transfer()) else {
            continue;
        };
        let key = (hash, event.dest_device);
        let entry = received.entry(key).or_default();
        if entry.is_empty() {
            key_order.push(key);
        }
        entry.push(event);
    }

    let mut duplicate_transfers = Vec::new();
    for key in key_order {
        let events = &received[&key];
        if events.len() < 2 {
            continue;
        }
        duplicate_transfers.push(DuplicateTransferGroup {
            hash: key.0,
            dest_device: key.1,
            events: events.iter().map(|e| (*e).clone()).collect(),
            confidence: Confidence::Confirmed,
        });
    }
    duplicate_transfers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::EventFactory;

    #[test]
    fn detects_listing1_pattern() {
        // `a` transferred to the device before each of two target regions.
        let mut f = EventFactory::new();
        let ops = vec![
            f.h2d(0, 0, 0x1000, 0xAAAA, 4096),
            f.h2d(100, 0, 0x1000, 0xAAAA, 4096),
        ];
        let groups = find_duplicate_transfers(&ops);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].duplicate_count(), 1);
        assert_eq!(groups[0].wasted_bytes(), 4096);
        assert_eq!(groups[0].dest_device, odp_model::DeviceId::target(0));
    }

    #[test]
    fn different_content_is_not_duplicate() {
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 1, 64), f.h2d(10, 0, 0x1000, 2, 64)];
        assert!(find_duplicate_transfers(&ops).is_empty());
    }

    #[test]
    fn same_content_to_different_devices_is_not_duplicate() {
        // Each device receives the data once — broadcast is legitimate.
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 7, 64), f.h2d(10, 1, 0x1000, 7, 64)];
        assert!(find_duplicate_transfers(&ops).is_empty());
    }

    #[test]
    fn same_content_from_different_sources_counts() {
        // Definition 4.1 keys on the *receiver*: identical content
        // arriving twice is duplicate regardless of source variable.
        // (This is how minifmm's identical zero-initialized arrays show
        // up as DD during initialization, §7.5.)
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 9, 64), f.h2d(10, 0, 0x2000, 9, 64)];
        let groups = find_duplicate_transfers(&ops);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].duplicate_count(), 1);
    }

    #[test]
    fn host_can_be_the_receiving_device() {
        let mut f = EventFactory::new();
        let ops = vec![f.d2h(0, 0, 0x1000, 5, 64), f.d2h(10, 0, 0x1000, 5, 64)];
        let groups = find_duplicate_transfers(&ops);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].dest_device, odp_model::DeviceId::HOST);
    }

    #[test]
    fn non_transfer_events_are_ignored() {
        let mut f = EventFactory::new();
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),
            f.alloc(10, 0, 0x1000, 0xd000, 64),
            f.delete(20, 0, 0x1000, 0xd000, 64),
        ];
        assert!(find_duplicate_transfers(&ops).is_empty());
    }

    #[test]
    fn groups_are_chronological_and_deterministic() {
        let mut f = EventFactory::new();
        let ops = vec![
            f.h2d(0, 0, 0x1, 1, 8),
            f.h2d(5, 0, 0x2, 2, 8),
            f.h2d(10, 0, 0x1, 1, 8),
            f.h2d(15, 0, 0x2, 2, 8),
            f.h2d(20, 0, 0x1, 1, 8),
        ];
        let groups = find_duplicate_transfers(&ops);
        assert_eq!(groups.len(), 2);
        // First-seen key first.
        assert_eq!(groups[0].hash, odp_model::HashVal(1));
        assert_eq!(groups[0].events.len(), 3);
        assert_eq!(groups[1].hash, odp_model::HashVal(2));
        // Within a group, events stay chronological.
        assert!(groups[0]
            .events
            .windows(2)
            .all(|w| w[0].span.start <= w[1].span.start));
    }
}
