//! Algorithm 5 — Identify Unused Data Transfers.
//!
//! Detects transfers "that would be overwritten before any kernel could
//! possibly access \[them\] or \[that occur\] after the last active kernel on
//! the device" (§5.4). A map of *candidates* relates source addresses to
//! the last transfer that wrote to the device from them; a new transfer
//! from the same address with no intervening kernel execution proves the
//! candidate was overwritten unused. Kernel executions clear the
//! candidate map, since the kernel may have consumed the data.

use crate::detect::Confidence;
use odp_hash::fnv::FnvHashMap;
use odp_model::{DataOpEvent, TargetEvent};
use serde::Serialize;

/// Why a transfer is provably unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum UnusedTransferReason {
    /// The transfer happened after the device's last kernel execution.
    AfterLastKernel,
    /// The transferred data was overwritten by a later transfer before
    /// any kernel ran.
    OverwrittenBeforeUse,
}

/// A provably unused transfer.
#[derive(Clone, Debug, Serialize)]
pub struct UnusedTransfer {
    /// The wasted transfer event.
    pub event: DataOpEvent,
    /// The proof category.
    pub reason: UnusedTransferReason,
    /// Evidence trust level. Always [`Confidence::Confirmed`] on the
    /// post-mortem paths; degraded only by streaming stall recovery.
    pub confidence: Confidence,
}

/// Algorithm 5. Event slices must be chronological; `kernel_events` are
/// kernel executions. Only transfers *to target devices* are analyzed
/// (the paper iterates target devices; host-bound transfers have no
/// kernels to consume them on the host side).
pub fn find_unused_transfers(
    kernel_events: &[TargetEvent],
    data_op_events: &[DataOpEvent],
    num_devices: u32,
) -> Vec<UnusedTransfer> {
    // Sort events by device.
    let mut device_tgt_events: Vec<Vec<&TargetEvent>> = vec![Vec::new(); num_devices as usize];
    for e in kernel_events {
        if let Some(ix) = e.device.target_index() {
            if ix < device_tgt_events.len() {
                device_tgt_events[ix].push(e);
            }
        }
    }
    let mut device_tx_events: Vec<Vec<&DataOpEvent>> = vec![Vec::new(); num_devices as usize];
    for e in data_op_events {
        if !e.is_transfer() {
            continue;
        }
        if let Some(ix) = e.dest_device.target_index() {
            if ix < device_tx_events.len() {
                device_tx_events[ix].push(e);
            }
        }
    }

    let mut unused_transfers = Vec::new();
    for dev_idx in 0..num_devices as usize {
        let tgt_events = &device_tgt_events[dev_idx];
        let tx_events = &device_tx_events[dev_idx];
        let mut tgt_idx = 0usize;
        // candidates: src host address → the last transfer writing from it.
        let mut candidates: FnvHashMap<u64, &DataOpEvent> = FnvHashMap::default();
        for tx in tx_events {
            // Advance past kernels that completed before this transfer —
            // each clears the candidate set (the kernel may have used
            // the data from the previous transfers).
            while tgt_idx < tgt_events.len() && tgt_events[tgt_idx].span.end < tx.span.start {
                tgt_idx += 1;
                candidates.clear();
            }
            if tgt_idx == tgt_events.len() {
                // Transfer occurs after the last active kernel.
                unused_transfers.push(UnusedTransfer {
                    event: (*tx).clone(),
                    reason: UnusedTransferReason::AfterLastKernel,
                    confidence: Confidence::Confirmed,
                });
            } else if tgt_events[tgt_idx].span.start > tx.span.start {
                // Transfer doesn't overlap with an active kernel.
                if let Some(cand) = candidates.get(&tx.src_addr) {
                    unused_transfers.push(UnusedTransfer {
                        event: (*cand).clone(),
                        reason: UnusedTransferReason::OverwrittenBeforeUse,
                        confidence: Confidence::Confirmed,
                    });
                }
                candidates.insert(tx.src_addr, tx);
            } else {
                // Transfer overlaps a running kernel (asynchronous
                // mapping): conservatively forget all candidates.
                candidates.clear();
            }
        }
    }
    unused_transfers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::EventFactory;

    #[test]
    fn transfer_consumed_by_kernel_is_used() {
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(20, 40, 0)];
        let ops = vec![f.h2d(0, 0, 0x1000, 1, 64)];
        assert!(find_unused_transfers(&kernels, &ops, 1).is_empty());
    }

    #[test]
    fn transfer_after_last_kernel_is_unused() {
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(0, 10, 0)];
        let ops = vec![f.h2d(20, 0, 0x1000, 1, 64)];
        let u = find_unused_transfers(&kernels, &ops, 1);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].reason, UnusedTransferReason::AfterLastKernel);
    }

    #[test]
    fn overwrite_before_kernel_is_unused() {
        // Two H2D from the same host address with no kernel in between:
        // the first is dead.
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(100, 120, 0)];
        let first = f.h2d(0, 0, 0x1000, 1, 64);
        let ops = vec![first.clone(), f.h2d(20, 0, 0x1000, 2, 64)];
        let u = find_unused_transfers(&kernels, &ops, 1);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].reason, UnusedTransferReason::OverwrittenBeforeUse);
        assert_eq!(
            u[0].event.id, first.id,
            "the *overwritten* transfer is flagged"
        );
    }

    #[test]
    fn kernel_between_transfers_clears_candidates() {
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(10, 20, 0), f.kernel(60, 70, 0)];
        let ops = vec![f.h2d(0, 0, 0x1000, 1, 64), f.h2d(40, 0, 0x1000, 2, 64)];
        assert!(
            find_unused_transfers(&kernels, &ops, 1).is_empty(),
            "first kernel may have consumed the first transfer"
        );
    }

    #[test]
    fn distinct_addresses_do_not_overwrite() {
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(100, 120, 0)];
        let ops = vec![f.h2d(0, 0, 0x1000, 1, 64), f.h2d(20, 0, 0x2000, 2, 64)];
        assert!(find_unused_transfers(&kernels, &ops, 1).is_empty());
    }

    #[test]
    fn no_kernels_flags_everything() {
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 1, 64), f.h2d(20, 0, 0x2000, 2, 64)];
        let u = find_unused_transfers(&[], &ops, 1);
        assert_eq!(u.len(), 2);
        assert!(u
            .iter()
            .all(|x| x.reason == UnusedTransferReason::AfterLastKernel));
    }

    #[test]
    fn d2h_transfers_are_not_candidates_for_device_side_waste() {
        // Transfers *to the host* are outside Algorithm 5's per-target-
        // device scan.
        let mut f = EventFactory::new();
        let ops = vec![f.d2h(0, 0, 0x1000, 1, 64), f.d2h(20, 0, 0x1000, 2, 64)];
        assert!(find_unused_transfers(&[], &ops, 1).is_empty());
    }

    #[test]
    fn overlapping_kernel_conservatively_clears() {
        // A transfer overlapping an active kernel (async pattern): the
        // detector must not flag the earlier candidate afterwards.
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(5, 50, 0)];
        let ops = vec![
            f.h2d(0, 0, 0x1000, 1, 64),  // before/overlapping kernel start
            f.h2d(10, 0, 0x1000, 2, 64), // overlaps the running kernel
            f.h2d(60, 0, 0x1000, 3, 64), // after last kernel → flagged
        ];
        let u = find_unused_transfers(&kernels, &ops, 1);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].reason, UnusedTransferReason::AfterLastKernel);
        assert_eq!(u[0].event.hash, Some(odp_model::HashVal(3)));
    }
}
