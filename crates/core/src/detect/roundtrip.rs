//! Algorithm 2 — Identify Round-Trip Data Transfers.
//!
//! Definition 4.2: "A round-trip data transfer occurs when a device (or
//! host) A sends data to another device B, and later device A receives
//! the same unmodified data back from device B."
//!
//! The implementation follows the paper's pseudocode: first build a map
//! from `(hash, dest_device)` to a FIFO queue of reception events; then
//! walk the transfers again — a transfer `tx` completes a round trip if
//! its *source* device has a pending reception of the same hash. The
//! reception queue entry for `tx` itself (keyed by its destination) is
//! dequeued so `tx` cannot later be counted as the completing leg of a
//! different round trip.

use crate::detect::Confidence;
use odp_hash::fnv::FnvHashMap;
use odp_model::{DataOpEvent, DeviceId, HashVal};
use serde::Serialize;
use std::collections::VecDeque;

/// One completed round trip: `tx` carried the data away from the
/// origin's counterpart; `rx` is the origin's reception of the identical
/// content.
#[derive(Clone, Debug, Serialize)]
pub struct RoundTrip {
    /// The outbound leg.
    pub tx: DataOpEvent,
    /// The reception at the outbound leg's source device.
    pub rx: DataOpEvent,
    /// Always `false` (nothing is spilled any more); kept because `benchmark/` reads it.
    pub spilled: bool,
}

/// The trips of one group, stored inline when there is exactly one.
///
/// On realistic traces most `(hash, src, dest)` groups complete a single
/// round trip, and a heap `Vec` per group makes the report boundary
/// malloc-bound at million-event scale (glibc charges ~120 ns per
/// alloc/free of a trip buffer, which for hundreds of thousands of
/// groups dwarfs the gather itself). Reads go through `Deref<[RoundTrip]>`
/// so call sites treat it as a slice; it serializes exactly like a
/// `Vec<RoundTrip>`.
#[derive(Clone, Debug)]
pub enum TripList {
    /// Exactly one trip, inline — no heap allocation.
    One([RoundTrip; 1]),
    /// Two or more trips (or zero, which no detector emits).
    Many(Vec<RoundTrip>),
}

impl std::ops::Deref for TripList {
    type Target = [RoundTrip];

    #[inline]
    fn deref(&self) -> &[RoundTrip] {
        match self {
            TripList::One(t) => t,
            TripList::Many(v) => v,
        }
    }
}

impl From<Vec<RoundTrip>> for TripList {
    #[inline]
    fn from(v: Vec<RoundTrip>) -> TripList {
        match <[RoundTrip; 1]>::try_from(v) {
            Ok(one) => TripList::One(one),
            Err(v) => TripList::Many(v),
        }
    }
}

impl<'a> IntoIterator for &'a TripList {
    type Item = &'a RoundTrip;
    type IntoIter = std::slice::Iter<'a, RoundTrip>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Serialize for TripList {
    fn write_json(&self, out: &mut serde::JsonOut) {
        // Identical to `Vec<RoundTrip>`: a plain sequence.
        (**self).write_json(out)
    }
}

/// Round trips grouped by `(hash, src_device, dest_device)` as in the
/// paper.
#[derive(Clone, Debug, Serialize)]
pub struct RoundTripGroup {
    /// Content hash.
    pub hash: HashVal,
    /// The device that sent and later re-received the data.
    pub src_device: DeviceId,
    /// The intermediate device.
    pub dest_device: DeviceId,
    /// Completed trips, chronological by outbound leg.
    pub trips: TripList,
    /// Evidence trust level. Always [`Confidence::Confirmed`] on the
    /// post-mortem paths; degraded only by streaming stall recovery.
    pub confidence: Confidence,
}

impl RoundTripGroup {
    /// Bytes carried by eliminable legs (both legs of each trip).
    pub fn wasted_bytes(&self) -> u64 {
        self.trips.iter().map(|t| t.tx.bytes + t.rx.bytes).sum()
    }
}

/// Algorithm 2. `data_op_events` must be chronological.
pub fn find_round_trips(data_op_events: &[DataOpEvent]) -> Vec<RoundTripGroup> {
    // received: ⟨hash, dest_device_num⟩ → queue⟨event⟩
    let mut received: FnvHashMap<(HashVal, DeviceId), VecDeque<&DataOpEvent>> =
        FnvHashMap::default();
    for event in data_op_events {
        let (Some(hash), true) = (event.hash, event.is_transfer()) else {
            continue;
        };
        received
            .entry((hash, event.dest_device))
            .or_default()
            .push_back(event);
    }

    // round_trips: ⟨hash, src, dest⟩ → array⟨(tx, rx)⟩
    let mut round_trips: FnvHashMap<(HashVal, DeviceId, DeviceId), Vec<RoundTrip>> =
        FnvHashMap::default();
    let mut key_order: Vec<(HashVal, DeviceId, DeviceId)> = Vec::new();

    for tx_event in data_op_events {
        let (Some(hash), true) = (tx_event.hash, tx_event.is_transfer()) else {
            continue;
        };
        let rx_key = (hash, tx_event.src_device);
        let Some(rx_event) = received.get(&rx_key).and_then(|q| q.front().copied()) else {
            // Not a round trip: the data is never sent back.
            continue;
        };
        let trip_key = (hash, tx_event.src_device, tx_event.dest_device);
        let entry = round_trips.entry(trip_key).or_default();
        if entry.is_empty() {
            key_order.push(trip_key);
        }
        entry.push(RoundTrip {
            tx: tx_event.clone(),
            rx: rx_event.clone(),
            spilled: false,
        });
        // Avoid counting this tx as the completing reception of another
        // transfer's round trip.
        let tx_key = (hash, tx_event.dest_device);
        if let Some(q) = received.get_mut(&tx_key) {
            q.pop_front();
        }
    }

    key_order
        .into_iter()
        .filter_map(|key| {
            let trips = round_trips.remove(&key)?;
            Some(RoundTripGroup {
                hash: key.0,
                src_device: key.1,
                dest_device: key.2,
                trips: trips.into(),
                confidence: Confidence::Confirmed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::EventFactory;
    use odp_model::DeviceId;

    #[test]
    fn detects_listing2_pattern() {
        // Loop iterations: D2H of result, then H2D of the same content.
        // Hashes: content after kernel i is h_i; D2H(h_i) then H2D(h_i).
        let mut f = EventFactory::new();
        let ops = vec![
            f.h2d(0, 0, 0x1000, 100, 64),  // initial send (content h=100)
            f.d2h(20, 0, 0x1000, 101, 64), // kernel mutated → h=101
            f.h2d(40, 0, 0x1000, 101, 64), // same content back → round trip
            f.d2h(60, 0, 0x1000, 102, 64),
            f.h2d(80, 0, 0x1000, 102, 64),
        ];
        let groups = find_round_trips(&ops);
        // Two round trips: dev0→host→dev0 of h=101 and h=102. The grouping
        // key is (hash, src, dest) so they are two groups of one trip.
        let total: usize = groups.iter().map(|g| g.trips.len()).sum();
        assert_eq!(total, 2, "{groups:#?}");
        for g in &groups {
            assert_eq!(g.src_device, DeviceId::target(0));
            assert_eq!(g.dest_device, DeviceId::HOST);
        }
    }

    #[test]
    fn modified_data_is_not_a_round_trip() {
        let mut f = EventFactory::new();
        let ops = vec![
            f.h2d(0, 0, 0x1000, 1, 64),
            f.d2h(20, 0, 0x1000, 2, 64), // device modified the data
        ];
        assert!(find_round_trips(&ops).is_empty());
    }

    #[test]
    fn unmodified_return_is_a_round_trip() {
        // H2D of h then D2H of h: host sent data, got identical data
        // back — the rsbench/xsbench missing-map-clause pattern (§7.5).
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 7, 256), f.d2h(50, 0, 0x1000, 7, 256)];
        let groups = find_round_trips(&ops);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].trips.len(), 1);
        assert_eq!(groups[0].src_device, DeviceId::HOST);
        assert_eq!(groups[0].dest_device, DeviceId::target(0));
        assert_eq!(groups[0].wasted_bytes(), 512);
    }

    #[test]
    fn single_transfer_is_not_a_round_trip() {
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 1, 64)];
        assert!(find_round_trips(&ops).is_empty());
    }

    #[test]
    fn dequeue_prevents_double_counting() {
        // Three identical transfers H2D,D2H,H2D: trip 1 = (H2D@0, D2H@1)?
        // Following the pseudocode: tx=H2D@0 checks receptions at host of
        // h → D2H@1 pending → trip; dequeues received[dev0] (H2D@0 ...
        // then H2D@2 remains). tx=D2H@1: receptions at dev0 → H2D@2 →
        // trip; dequeues received[host] (D2H@1). tx=H2D@2: receptions at
        // host → queue now empty → no trip. Total: 2 trips.
        let mut f = EventFactory::new();
        let ops = vec![
            f.h2d(0, 0, 0x1000, 7, 64),
            f.d2h(10, 0, 0x1000, 7, 64),
            f.h2d(20, 0, 0x1000, 7, 64),
        ];
        let groups = find_round_trips(&ops);
        let total: usize = groups.iter().map(|g| g.trips.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn cross_device_trips_keep_distinct_groups() {
        let mut f = EventFactory::new();
        let ops = vec![
            f.h2d(0, 0, 0x1000, 7, 64),
            f.d2h(10, 0, 0x1000, 7, 64),
            f.h2d(20, 1, 0x2000, 9, 64),
            f.d2h(30, 1, 0x2000, 9, 64),
        ];
        let groups = find_round_trips(&ops);
        assert_eq!(groups.len(), 2);
        assert_ne!(groups[0].dest_device, groups[1].dest_device);
    }
}
