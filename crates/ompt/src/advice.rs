//! Mapping advice — the feedback half of the tool/runtime interface.
//!
//! Real OMPT is observation-only: the runtime tells the tool what
//! happened and the tool may at most print a report. This module is the
//! write-back extension the paper's §8 outlook (and Marzen et al.'s
//! static mapping generation, PAPERS.md) points at: a [`MapAdvisor`]
//! lets an attached analysis *steer* the runtime's data environment
//! while the program runs. The runtime consults the advisor once per
//! map-clause item at region entry and exit and applies the returned
//! [`MapAdvice`] as a concrete mapping rewrite:
//!
//! * **skip the enter copy** — `map(to:)` behaves as `map(alloc:)`
//!   (the §5 *unused transfer* fix);
//! * **skip the exit copy** — `map(from:)` behaves as `map(release:)`
//!   (the *round trip* fix when the host provably already holds the
//!   content);
//! * **persist** — keep the mapping resident at region exit instead of
//!   releasing it, so later regions reuse the present-table entry with
//!   no re-allocation and no re-send (the *duplicate transfer* /
//!   *repeated allocation* fix); an exit-side `from` copy degrades to a
//!   targeted update (the "inject an `update` instead of a round trip"
//!   rewrite);
//! * **elide** — drop the clause entirely (the *unused allocation*
//!   fix). The runtime overrides elision — and enter-copy skips — for
//!   variables a kernel actually references, so a mispredicting
//!   advisor can cost bandwidth but never correctness.
//!
//! Advice must be *monotone*: once an advisor returns a rewrite for a
//! `(device, host address)` site it must keep returning it (rules may
//! strengthen, never vanish), so the enter and exit halves of one
//! region can never disagree in an unsound direction. The runtime
//! accounts every applied rewrite — and every transfer, allocation, or
//! delete it made unnecessary — in a [`RemediationStats`], attributed
//! to the [`FindingKind`] that motivated it.

use odp_model::{FindingKind, SimDuration};

/// The rewrite(s) advised for one map-clause item. Each slot carries the
/// finding category that motivated it, for per-cause accounting. All
/// `None` means "execute the clause as written".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MapAdvice {
    /// Drop the clause entirely (never allocate or copy).
    pub elide: Option<FindingKind>,
    /// Keep the mapping resident at region exit (skip the release and
    /// the delete); later entries reuse the present-table entry, and
    /// skip its `to` copy only while the device and host copies agree.
    pub persist: Option<FindingKind>,
    /// Skip the enter-side host→device copy (`to` → `alloc`).
    pub skip_to: Option<FindingKind>,
    /// Skip the exit-side device→host copy (`from` → `release`), only
    /// while the device and host copies agree: no kernel on the device
    /// wrote the variable and the host did not write it since the last
    /// transfer between the two.
    pub skip_from: Option<FindingKind>,
}

impl MapAdvice {
    /// No rewrite: execute the clause as written.
    pub const KEEP: MapAdvice = MapAdvice {
        elide: None,
        persist: None,
        skip_to: None,
        skip_from: None,
    };

    /// Does this advice leave the clause untouched?
    pub fn is_keep(&self) -> bool {
        *self == MapAdvice::KEEP
    }
}

/// A mapping advisor the runtime consults at every map-clause item.
///
/// `device` is the target-device index the directive names and
/// `host_addr` the mapped host address; the same call serves the enter
/// and the exit side of a clause. One advisor may serve every runtime
/// thread of a run at once. Implementations must be monotone (see the
/// module docs) and cheap: the consult sits on the directive dispatch
/// path.
pub trait MapAdvisor: Send + Sync {
    /// Advise one map-clause item of `device` at `host_addr`.
    fn advise(&self, device: u32, host_addr: u64) -> MapAdvice;
}

/// Per-cause counters of what remediation changed and what it saved.
/// "Avoided" quantities are priced with the runtime's own timing model
/// at the moment the operation was skipped, so recovered time is
/// directly comparable to the run's transfer/alloc time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemedyCounter {
    /// Advisor actions applied (exit-side retains, elisions, downgrades).
    pub rewrites: u64,
    /// Transfers that did not happen because of a rewrite.
    pub transfers_avoided: u64,
    /// Bytes those transfers would have moved.
    pub transfer_bytes_avoided: u64,
    /// Time those transfers would have cost.
    pub transfer_time_avoided: SimDuration,
    /// Device allocations that did not happen.
    pub allocs_avoided: u64,
    /// Device deallocations that did not happen.
    pub deletes_avoided: u64,
    /// Alloc/free time avoided.
    pub mgmt_time_avoided: SimDuration,
    /// Exit-side `from` copies degraded to targeted updates (these
    /// still move bytes; counted separately, not as recovered).
    pub updates_injected: u64,
    /// Bytes moved by injected updates.
    pub update_bytes: u64,
}

impl RemedyCounter {
    /// Accumulate another counter into this one.
    pub(crate) fn merge(&mut self, o: &RemedyCounter) {
        self.rewrites += o.rewrites;
        self.transfers_avoided += o.transfers_avoided;
        self.transfer_bytes_avoided += o.transfer_bytes_avoided;
        self.transfer_time_avoided += o.transfer_time_avoided;
        self.allocs_avoided += o.allocs_avoided;
        self.deletes_avoided += o.deletes_avoided;
        self.mgmt_time_avoided += o.mgmt_time_avoided;
        self.updates_injected += o.updates_injected;
        self.update_bytes += o.update_bytes;
    }
}

/// What online remediation recovered, per finding kind and per device.
#[derive(Clone, Debug, Default)]
pub struct RemediationStats {
    /// Counters indexed by `[device][cause.index()]`.
    devices: Vec<[RemedyCounter; FindingKind::ALL.len()]>,
}

impl RemediationStats {
    /// Mutable counter for `(device, cause)`, growing the table.
    pub fn counter_mut(&mut self, device: u32, cause: FindingKind) -> &mut RemedyCounter {
        let ix = device as usize;
        if ix >= self.devices.len() {
            self.devices
                .resize(ix + 1, [RemedyCounter::default(); FindingKind::ALL.len()]);
        }
        &mut self.devices[ix][cause.index()]
    }

    /// Counter for `(device, cause)` (zero if never touched).
    pub fn counter(&self, device: u32, cause: FindingKind) -> RemedyCounter {
        self.devices
            .get(device as usize)
            .map(|row| row[cause.index()])
            .unwrap_or_default()
    }

    /// Number of devices with any recorded activity slot.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Aggregate over all devices for one cause.
    pub fn per_cause(&self, cause: FindingKind) -> RemedyCounter {
        let mut total = RemedyCounter::default();
        for row in &self.devices {
            total.merge(&row[cause.index()]);
        }
        total
    }

    /// Aggregate over all devices for one device across causes.
    pub fn per_device(&self, device: u32) -> RemedyCounter {
        let mut total = RemedyCounter::default();
        if let Some(row) = self.devices.get(device as usize) {
            for c in row {
                total.merge(c);
            }
        }
        total
    }

    /// Grand total across devices and causes.
    pub fn totals(&self) -> RemedyCounter {
        let mut total = RemedyCounter::default();
        for row in &self.devices {
            for c in row {
                total.merge(c);
            }
        }
        total
    }

    /// Did any rewrite fire at all?
    pub fn any_rewrites(&self) -> bool {
        self.totals().rewrites > 0
    }

    /// Accumulate another runtime's stats into this one (per-device,
    /// per-cause) — how a threaded run folds each thread's advisor
    /// accounting into one report.
    pub fn merge(&mut self, other: &RemediationStats) {
        for (device, row) in other.devices.iter().enumerate() {
            for (cause, counter) in FindingKind::ALL.iter().zip(row.iter()) {
                if *counter != RemedyCounter::default() {
                    self.counter_mut(device as u32, *cause).merge(counter);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_indices_are_dense_and_stable() {
        for (i, c) in FindingKind::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn keep_is_the_default() {
        assert!(MapAdvice::default().is_keep());
        assert!(MapAdvice::KEEP.is_keep());
        let advice = MapAdvice {
            persist: Some(FindingKind::DuplicateTransfer),
            ..MapAdvice::KEEP
        };
        assert!(!advice.is_keep());
    }

    #[test]
    fn stats_aggregate_per_cause_and_device() {
        let mut s = RemediationStats::default();
        s.counter_mut(0, FindingKind::DuplicateTransfer)
            .transfer_bytes_avoided += 100;
        s.counter_mut(2, FindingKind::DuplicateTransfer)
            .transfer_bytes_avoided += 50;
        s.counter_mut(2, FindingKind::RoundTrip).rewrites += 1;
        assert_eq!(s.device_count(), 3);
        assert_eq!(
            s.per_cause(FindingKind::DuplicateTransfer)
                .transfer_bytes_avoided,
            150
        );
        assert_eq!(s.per_device(2).transfer_bytes_avoided, 50);
        assert_eq!(s.totals().transfer_bytes_avoided, 150);
        assert!(s.any_rewrites());
        assert_eq!(
            s.counter(1, FindingKind::UnusedAlloc),
            RemedyCounter::default()
        );
    }

    #[test]
    fn empty_stats_have_no_rewrites() {
        let s = RemediationStats::default();
        assert!(!s.any_rewrites());
        assert_eq!(s.totals(), RemedyCounter::default());
    }
}
