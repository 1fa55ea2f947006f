//! Property-based tests on the detection algorithms: invariants that
//! must hold for *any* chronological event log.

use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};
use odp_trace::ColumnarView;
use ompdataperf::detect::{
    alloc_delete_pairs, find_duplicate_transfers, find_repeated_allocs, find_round_trips,
    find_unused_allocs, find_unused_transfers, EventView, Findings,
};
use proptest::prelude::*;

const NUM_DEVICES: u32 = 2;

/// The fused engine's findings over a row log.
fn detect(ops: &[DataOpEvent], kernels: &[TargetEvent]) -> Findings {
    let cols = ColumnarView::from_events(ops, kernels);
    Findings::detect_fused(&EventView::over(&cols, NUM_DEVICES))
}

/// Generate a plausible random event log: interleaved transfers,
/// alloc/delete pairs and kernels on up to two devices, chronological.
fn arb_log() -> impl Strategy<Value = (Vec<DataOpEvent>, Vec<TargetEvent>)> {
    proptest::collection::vec((0u8..6, 0u8..2, 0u64..4, 0u64..3), 0..120).prop_map(|ops| {
        let mut t = 0u64;
        let mut id = 0u64;
        let mut data_ops = Vec::new();
        let mut kernels = Vec::new();
        let mut live: Vec<(DeviceId, u64, u64, u64)> = Vec::new(); // (dev, haddr, daddr, bytes)
        for (kind, dev, var, hash) in ops {
            t += 7;
            id += 1;
            let device = DeviceId::target(dev as u32);
            let haddr = 0x1000 + var * 0x100;
            let daddr = 0xd000 + var * 0x100 + dev as u64 * 0x10000;
            let bytes = 64 + var * 8;
            let span = TimeSpan::new(SimTime(t), SimTime(t + 5));
            match kind {
                0 => data_ops.push(DataOpEvent {
                    id: EventId(id),
                    kind: DataOpKind::Transfer,
                    src_device: DeviceId::HOST,
                    dest_device: device,
                    src_addr: haddr,
                    dest_addr: daddr,
                    bytes,
                    hash: Some(HashVal(hash)),
                    span,
                    codeptr: CodePtr(0x10),
                }),
                1 => data_ops.push(DataOpEvent {
                    id: EventId(id),
                    kind: DataOpKind::Transfer,
                    src_device: device,
                    dest_device: DeviceId::HOST,
                    src_addr: daddr,
                    dest_addr: haddr,
                    bytes,
                    hash: Some(HashVal(hash)),
                    span,
                    codeptr: CodePtr(0x11),
                }),
                2 => {
                    data_ops.push(DataOpEvent {
                        id: EventId(id),
                        kind: DataOpKind::Alloc,
                        src_device: DeviceId::HOST,
                        dest_device: device,
                        src_addr: haddr,
                        dest_addr: daddr,
                        bytes,
                        hash: None,
                        span,
                        codeptr: CodePtr(0x12),
                    });
                    live.push((device, haddr, daddr, bytes));
                }
                3 => {
                    if let Some(pos) = live.iter().position(|l| l.0 == device) {
                        let (d, h, da, b) = live.remove(pos);
                        data_ops.push(DataOpEvent {
                            id: EventId(id),
                            kind: DataOpKind::Delete,
                            src_device: DeviceId::HOST,
                            dest_device: d,
                            src_addr: h,
                            dest_addr: da,
                            bytes: b,
                            hash: None,
                            span,
                            codeptr: CodePtr(0x13),
                        });
                    }
                }
                _ => kernels.push(TargetEvent {
                    id: EventId(id),
                    device,
                    kind: TargetKind::Kernel,
                    span: TimeSpan::new(SimTime(t), SimTime(t + 4)),
                    codeptr: CodePtr(0x14),
                }),
            }
        }
        (data_ops, kernels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn duplicate_groups_share_hash_and_destination((ops, _k) in arb_log()) {
        for g in find_duplicate_transfers(&ops) {
            prop_assert!(g.events.len() >= 2);
            for e in &g.events {
                prop_assert_eq!(e.hash, Some(g.hash));
                prop_assert_eq!(e.dest_device, g.dest_device);
                prop_assert!(e.is_transfer());
            }
        }
    }

    #[test]
    fn duplicate_count_equals_receptions_minus_groups((ops, _k) in arb_log()) {
        // Σ (len-1) over groups == (transfers in groups) - (#groups).
        let groups = find_duplicate_transfers(&ops);
        let total: usize = groups.iter().map(|g| g.events.len()).sum();
        let dups: usize = groups.iter().map(|g| g.duplicate_count()).sum();
        prop_assert_eq!(dups, total - groups.len());
    }

    #[test]
    fn round_trip_legs_are_real_events((ops, _k) in arb_log()) {
        let ids: std::collections::HashSet<_> = ops.iter().map(|e| e.id).collect();
        for g in find_round_trips(&ops) {
            for trip in &g.trips {
                prop_assert!(ids.contains(&trip.tx.id));
                prop_assert!(ids.contains(&trip.rx.id));
                prop_assert_eq!(trip.tx.hash, Some(g.hash));
                prop_assert_eq!(trip.rx.hash, Some(g.hash));
                // The rx is a reception at the tx's source device.
                prop_assert_eq!(trip.rx.dest_device, g.src_device);
                prop_assert_eq!(trip.tx.src_device, g.src_device);
                prop_assert_eq!(trip.tx.dest_device, g.dest_device);
            }
        }
    }

    #[test]
    fn alloc_pairs_are_ordered_and_disjoint((ops, _k) in arb_log()) {
        let pairs = alloc_delete_pairs(&ops);
        for p in &pairs {
            prop_assert!(p.alloc.is_alloc());
            if let Some(d) = &p.delete {
                prop_assert!(d.is_delete());
                prop_assert!(d.span.start >= p.alloc.span.start, "delete precedes alloc");
                prop_assert_eq!(d.dest_addr, p.alloc.dest_addr);
                prop_assert_eq!(d.dest_device, p.alloc.dest_device);
            }
        }
        // Each delete is consumed by at most one pair.
        let mut delete_ids: Vec<_> = pairs
            .iter()
            .filter_map(|p| p.delete.as_ref().map(|d| d.id))
            .collect();
        let n = delete_ids.len();
        delete_ids.sort_unstable();
        delete_ids.dedup();
        prop_assert_eq!(delete_ids.len(), n);
    }

    #[test]
    fn repeated_alloc_groups_have_consistent_keys((ops, _k) in arb_log()) {
        for g in find_repeated_allocs(&ops) {
            prop_assert!(g.pairs.len() >= 2);
            for p in &g.pairs {
                prop_assert_eq!(p.alloc.src_addr, g.host_addr);
                prop_assert_eq!(p.alloc.dest_device, g.device);
                prop_assert_eq!(p.alloc.bytes, g.bytes);
            }
        }
    }

    #[test]
    fn unused_allocs_never_overlap_a_kernel((ops, kernels) in arb_log()) {
        for ua in find_unused_allocs(&kernels, &ops, NUM_DEVICES) {
            let dev = ua.pair.alloc.dest_device;
            let start = ua.pair.alloc.span.start;
            let end = ua.pair.lifetime_end();
            for k in kernels.iter().filter(|k| k.device == dev) {
                let overlaps = !(k.span.end < start || k.span.start > end);
                prop_assert!(!overlaps, "unused alloc overlaps kernel {:?}", k.span);
            }
        }
    }

    #[test]
    fn unused_transfers_are_device_bound_transfers((ops, kernels) in arb_log()) {
        for ut in find_unused_transfers(&kernels, &ops, NUM_DEVICES) {
            prop_assert!(ut.event.is_transfer());
            prop_assert!(ut.event.dest_device.is_target());
        }
    }

    #[test]
    fn findings_counts_are_consistent((ops, kernels) in arb_log()) {
        let f = detect(&ops, &kernels);
        let c = f.counts();
        prop_assert_eq!(c.ua, f.unused_allocs.len());
        prop_assert_eq!(c.ut, f.unused_transfers.len());
        prop_assert!(c.total() >= c.dd + c.rt);
    }

    #[test]
    fn prediction_savings_bounded_by_event_durations((ops, kernels) in arb_log()) {
        let f = detect(&ops, &kernels);
        let total_event_ns: u64 = ops.iter().map(|e| e.duration().as_nanos()).sum();
        let p = ompdataperf::predict::predict(&f, odp_model::SimDuration(1 << 40));
        prop_assert!(
            p.time_saved.as_nanos() <= total_event_ns,
            "saved more than all events cost"
        );
    }

    #[test]
    fn detectors_are_deterministic((ops, kernels) in arb_log()) {
        let a = detect(&ops, &kernels);
        let b = detect(&ops, &kernels);
        prop_assert_eq!(a.counts(), b.counts());
        prop_assert_eq!(a.duplicates.len(), b.duplicates.len());
        prop_assert_eq!(a.round_trips.len(), b.round_trips.len());
    }
}
