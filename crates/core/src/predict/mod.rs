//! Optimization-potential estimation (§7.6).
//!
//! "Speedup predictions are calculated by subtracting, from the total
//! execution time, the transfer or allocation time that could be
//! eliminated through the removal of the identified excess or inefficient
//! data transfers and allocations."
//!
//! Which instances count is [`charges`]' statement; which events each
//! eliminates is `Evidence::eliminable`'s.
//!
//! Findings overlap (a round trip's re-send is often also a duplicate;
//! an unused allocation is often also a repeat), so elimination is
//! tracked in a global event-id bitmap: each event's duration is
//! subtracted exactly once no matter how many findings implicate it.

use crate::detect::{charges, FindingKind, Findings};
use odp_hash::fnv::FnvHashMap;
use odp_model::{DataOpEvent, EventId, SimDuration};
use serde::Serialize;

/// Per-category eliminable time (deduplicated in category order
/// DD → RT → RA → UA → UT; overlapping events are charged to the first
/// category that claims them).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct SavingsBreakdown {
    /// From duplicate transfers.
    pub duplicate_ns: u64,
    /// From round trips.
    pub round_trip_ns: u64,
    /// From repeated allocations.
    pub realloc_ns: u64,
    /// From unused allocations.
    pub unused_alloc_ns: u64,
    /// From unused transfers.
    pub unused_transfer_ns: u64,
}

impl SavingsBreakdown {
    /// Total nanoseconds saved.
    pub(crate) fn total_ns(&self) -> u64 {
        self.duplicate_ns
            + self.round_trip_ns
            + self.realloc_ns
            + self.unused_alloc_ns
            + self.unused_transfer_ns
    }
}

/// The tool's optimization-potential estimate.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Prediction {
    /// Measured total execution time.
    pub total_time: SimDuration,
    /// Predicted eliminable time.
    pub time_saved: SimDuration,
    /// Per-category breakdown.
    pub breakdown: SavingsBreakdown,
    /// Predicted execution time after fixing all findings.
    pub predicted_time: SimDuration,
    /// Predicted speedup (`total / predicted`).
    pub predicted_speedup: f64,
    /// Number of data-management operations eliminated.
    pub ops_eliminated: usize,
    /// Transfer bytes eliminated.
    pub bytes_eliminated: u64,
}

/// A set of event ids as a paged bitmap: one 4 KiB page of bits per
/// 32 768 consecutive ids, found by `id >> 15` through a small map.
/// Ids are `shard << 32 | seq`, dense within a shard, so a shard that
/// recorded `n` events needs at most `n / 32 768 + 1` pages. Any `u64`
/// is a valid id; a corrupt one costs one page, never an allocation
/// sized by its value.
#[derive(Default)]
struct IdBitmap {
    pages: FnvHashMap<u64, Box<[u64; 512]>>,
}

impl IdBitmap {
    /// Add `id`; false if it was already present.
    fn insert(&mut self, id: EventId) -> bool {
        let page = self
            .pages
            .entry(id.0 >> 15)
            .or_insert_with(|| Box::new([0; 512]));
        let bit = id.0 & 0x7FFF;
        let word = &mut page[(bit >> 6) as usize];
        let mask = 1 << (bit & 63);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

#[derive(Default)]
struct Accumulator {
    eliminated: IdBitmap,
    ns: u64,
    ops: usize,
    bytes: u64,
}

impl Accumulator {
    /// Claim an event; returns the nanoseconds newly saved (0 if already
    /// claimed by an earlier category).
    fn claim(&mut self, e: &DataOpEvent) -> u64 {
        if !self.eliminated.insert(e.id) {
            return 0;
        }
        self.ops += 1;
        if e.is_transfer() {
            self.bytes += e.bytes;
        }
        let d = e.duration().as_nanos();
        self.ns += d;
        d
    }
}

/// Compute the optimization-potential estimate for `findings` against a
/// program whose total runtime was `total_time`.
pub fn predict(findings: &Findings, total_time: SimDuration) -> Prediction {
    let mut acc = Accumulator::default();
    let mut breakdown = SavingsBreakdown::default();

    charges(findings).for_each(|c| {
        let saved = match c.evidence.kind() {
            FindingKind::DuplicateTransfer => &mut breakdown.duplicate_ns,
            FindingKind::RoundTrip => &mut breakdown.round_trip_ns,
            FindingKind::RepeatedAlloc => &mut breakdown.realloc_ns,
            FindingKind::UnusedAlloc => &mut breakdown.unused_alloc_ns,
            FindingKind::UnusedTransfer => &mut breakdown.unused_transfer_ns,
        };
        for e in c.evidence.eliminable() {
            *saved += acc.claim(e);
        }
    });

    let time_saved = SimDuration(breakdown.total_ns().min(total_time.as_nanos()));
    let predicted_time = total_time.saturating_sub(time_saved);
    let predicted_speedup = if predicted_time.as_nanos() == 0 {
        1.0
    } else {
        total_time.as_nanos() as f64 / predicted_time.as_nanos() as f64
    };

    Prediction {
        total_time,
        time_saved,
        breakdown,
        predicted_time,
        predicted_speedup,
        ops_eliminated: acc.ops,
        bytes_eliminated: acc.bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::{detect, EventFactory};
    use crate::detect::Findings;

    #[test]
    fn no_findings_no_savings() {
        let p = predict(&Findings::default(), SimDuration(1_000_000));
        assert_eq!(p.time_saved, SimDuration::ZERO);
        assert_eq!(p.predicted_time, SimDuration(1_000_000));
        assert!((p.predicted_speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_savings_skip_first_event() {
        let mut f = EventFactory::new();
        // Three identical transfers, each taking 10 ns → 20 ns saved.
        let ops = vec![
            f.h2d(0, 0, 0x1000, 7, 64),
            f.h2d(100, 0, 0x1000, 7, 64),
            f.h2d(200, 0, 0x1000, 7, 64),
        ];
        let findings = detect(&ops, &[], 1);
        let p = predict(&findings, SimDuration(1_000));
        // DD claims events 2 and 3; Algorithm 2 also sees trips here but
        // dedup ensures total ≤ all three events' durations.
        assert!(p.time_saved.as_nanos() >= 20);
        assert!(p.time_saved.as_nanos() <= 30);
        assert!(p.predicted_speedup > 1.0);
    }

    #[test]
    fn overlapping_findings_do_not_double_count() {
        let mut f = EventFactory::new();
        // A pattern that triggers DD and RT on the same events: four
        // identical transfers bouncing between host and device.
        let ops = vec![
            f.h2d(0, 0, 0x1000, 7, 64),
            f.d2h(20, 0, 0x1000, 7, 64),
            f.h2d(40, 0, 0x1000, 7, 64),
            f.d2h(60, 0, 0x1000, 7, 64),
        ];
        let findings = detect(&ops, &[], 1);
        let p = predict(&findings, SimDuration(10_000));
        // Each event lasts 10 ns; 4 events exist; savings can never
        // exceed the total duration of all events.
        assert!(
            p.time_saved.as_nanos() <= 40,
            "saved {}",
            p.time_saved.as_nanos()
        );
        assert!(p.ops_eliminated <= 4);
    }

    #[test]
    fn savings_clamped_to_total_time() {
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 7, 64), f.h2d(10, 0, 0x1000, 7, 64)];
        let findings = detect(&ops, &[], 1);
        // Absurdly short program: savings cannot exceed it.
        let p = predict(&findings, SimDuration(5));
        assert_eq!(p.time_saved, SimDuration(5));
        assert_eq!(p.predicted_time, SimDuration::ZERO);
        assert!(
            (p.predicted_speedup - 1.0).abs() < 1e-12,
            "degenerate case pins to 1.0"
        );
    }

    #[test]
    fn realloc_savings_count_alloc_and_delete() {
        let mut f = EventFactory::new();
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),   // 5 ns
            f.delete(10, 0, 0x1000, 0xd000, 64), // 2 ns
            f.alloc(20, 0, 0x1000, 0xd000, 64),
            f.delete(30, 0, 0x1000, 0xd000, 64),
        ];
        let kernels = vec![f.kernel(2, 8, 0), f.kernel(22, 28, 0)];
        let findings = detect(&ops, &kernels, 1);
        assert_eq!(findings.counts().ra, 1);
        let p = predict(&findings, SimDuration(1_000));
        assert_eq!(p.breakdown.realloc_ns, 7, "second alloc (5) + delete (2)");
    }

    #[test]
    fn ids_from_three_shards_are_charged_once_each() {
        use crate::detect::{
            AllocDeletePair, Confidence, DuplicateTransferGroup, RepeatedAllocGroup, RoundTrip,
            RoundTripGroup, TripList, UnusedAlloc, UnusedTransfer, UnusedTransferReason,
        };
        use odp_model::{CodePtr, DataOpKind, DeviceId, HashVal, SimTime, TimeSpan};

        // Ids are `shard << 32 | seq`; every shard counts from seq 0.
        let ev = |shard: u32, seq: u32, kind: DataOpKind, ns: u64, bytes: u64| DataOpEvent {
            id: EventId((shard as u64) << 32 | seq as u64),
            kind,
            src_device: DeviceId::HOST,
            dest_device: DeviceId::target(0),
            src_addr: 0x1000,
            dest_addr: 0xd000,
            bytes,
            hash: None,
            span: TimeSpan::new(SimTime(100), SimTime(100 + ns)),
            codeptr: CodePtr(0x100),
        };
        let tx = |shard, seq, ns, bytes| ev(shard, seq, DataOpKind::Transfer, ns, bytes);
        let alloc = |shard, seq, ns| ev(shard, seq, DataOpKind::Alloc, ns, 64);
        let delete = |shard, seq, ns| ev(shard, seq, DataOpKind::Delete, ns, 64);
        let trip = |a: DataOpEvent, b: DataOpEvent| RoundTrip {
            tx: a,
            rx: b,
            spilled: false,
        };
        let max = u32::MAX;

        let findings = Findings {
            // seq 0 on all three shards: the first member is necessary,
            // the other two are charged (20 + 40 ns, 200 + 400 B).
            duplicates: vec![DuplicateTransferGroup {
                hash: HashVal(7),
                dest_device: DeviceId::target(0),
                events: vec![tx(0, 0, 10, 100), tx(1, 0, 20, 200), tx(2, 0, 40, 400)],
                confidence: Confidence::Confirmed,
            }],
            // The first trip's outbound leg is shard 2's duplicate,
            // already claimed: only its reception counts (7 ns, 32 B).
            // The second trip counts both legs (3 + 5 ns, 8 + 16 B).
            round_trips: vec![RoundTripGroup {
                hash: HashVal(7),
                src_device: DeviceId::target(0),
                dest_device: DeviceId::HOST,
                trips: TripList::Many(vec![
                    trip(tx(2, 0, 40, 400), tx(2, 1, 7, 32)),
                    trip(tx(0, 1, 3, 8), tx(1, 1, 5, 16)),
                ]),
                confidence: Confidence::Confirmed,
            }],
            // The repeat's alloc and delete sit at the id space's edges
            // (5 + 2 ns; allocation cycles move no bytes).
            repeated_allocs: vec![RepeatedAllocGroup {
                host_addr: 0x1000,
                device: DeviceId::target(0),
                bytes: 64,
                pairs: vec![
                    AllocDeletePair {
                        alloc: alloc(0, 2, 5),
                        delete: Some(delete(0, 3, 2)),
                    },
                    AllocDeletePair {
                        alloc: alloc(max, 0, 5),
                        delete: Some(delete(0, max, 2)),
                    },
                ],
                confidence: Confidence::Confirmed,
            }],
            unused_allocs: vec![UnusedAlloc {
                pair: AllocDeletePair {
                    alloc: alloc(1, 2, 11),
                    delete: None,
                },
                confidence: Confidence::Confirmed,
            }],
            // The largest id there is.
            unused_transfers: vec![UnusedTransfer {
                event: tx(max, max, 13, 64),
                reason: UnusedTransferReason::AfterLastKernel,
                confidence: Confidence::Confirmed,
            }],
        };

        let p = predict(&findings, SimDuration(1_000));
        assert_eq!(p.breakdown.duplicate_ns, 60);
        assert_eq!(p.breakdown.round_trip_ns, 15);
        assert_eq!(p.breakdown.realloc_ns, 7);
        assert_eq!(p.breakdown.unused_alloc_ns, 11);
        assert_eq!(p.breakdown.unused_transfer_ns, 13);
        assert_eq!(p.time_saved, SimDuration(106));
        assert_eq!(p.predicted_time, SimDuration(894));
        assert_eq!(p.ops_eliminated, 9, "2 DD + 3 RT + 2 RA + 1 UA + 1 UT");
        assert_eq!(p.bytes_eliminated, 600 + 56 + 64);
    }
}
