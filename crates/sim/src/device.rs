//! Shared, internally-synchronized per-device state.
//!
//! A real `libomptarget` keeps **one** device data environment per
//! device, shared by every host thread: two threads mapping the same
//! host range contend on the same present-table entry, and a mapping
//! one thread left resident is reused — not re-allocated — by the
//! next thread that maps it. Until this module, the simulator's
//! threaded mode gave every OS thread its own private device state
//! (the rank-per-thread shape), which made cross-thread present-table
//! reuse invisible to both the detectors and the remediator.
//!
//! [`SharedDevices`] is the fix: the full per-device state — memory
//! space, present table, async-queue busy horizon, and the advisor's
//! phantom-reference marks — lives behind one mutex per device.
//! A [`crate::Runtime`] always talks to its devices through this
//! handle; [`crate::Runtime::new`] creates a private (uncontended)
//! set, and `crate::Runtime::with_shared_devices` attaches a runtime
//! to a set other runtimes share. Directive execution locks a device
//! once per map-clause item (and across a kernel's buffer gather /
//! execute / write-back), so refcount updates, phantom-reference
//! adoption, and allocator traffic are atomic with respect to every
//! other thread — the soundness guards of the single-threaded advisor
//! path hold unchanged under contention.
//!
//! One hazard is the *program's*, not the lock's, exactly as in
//! `libomptarget`: `map(delete:)` forces a mapping out regardless of
//! other threads' reference counts, so a thread deleting a range that
//! another thread's directive is concurrently using (e.g. between its
//! region entry and its kernel launch) is a data race in the simulated
//! program. The simulator panics on the dangling lookup with an
//! explicit message rather than computing on freed memory.
//!
//! Single-runtime behaviour is bit-for-bit identical to the previous
//! private-state implementation: the locks are uncontended and no
//! decision logic moved.

use crate::config::RuntimeConfig;
use crate::memory::{DeviceMemory, HostWrites};
use crate::present::PresentTable;
use odp_model::{FindingKind, SimTime};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// One device's complete mutable state. Only ever touched through a
/// [`SharedDevices`] lock.
pub(crate) struct DeviceState {
    /// Device memory space (allocator + real buffers).
    pub(crate) mem: DeviceMemory,
    /// The reference-counted present table (`libomptarget`'s device
    /// data environment).
    pub(crate) present: PresentTable,
    /// Device busy executing asynchronously launched kernels until this
    /// time (OpenMP 5.1 `nowait` support, paper §7.8). Shared: the
    /// device has one queue, whichever thread enqueues.
    pub(crate) busy_until: SimTime,
    /// Host addresses whose mappings are alive only because a
    /// remediation rewrite skipped their release, with the advising
    /// cause. Shared so a re-entry from *any* thread adopts the
    /// phantom reference exactly once.
    pub(crate) retained: HashMap<u64, FindingKind>,
}

impl DeviceState {
    fn new(index: u32, capacity: u64) -> DeviceState {
        DeviceState {
            mem: DeviceMemory::new(index, capacity),
            present: PresentTable::new(),
            busy_until: SimTime::ZERO,
            retained: HashMap::new(),
        }
    }
}

/// Handle to a set of devices whose state may be shared by several
/// [`crate::Runtime`] instances (one per OS thread). Cloning the handle
/// shares the devices; `SharedDevices::new` creates a fresh set.
#[derive(Clone)]
pub struct SharedDevices {
    devices: Arc<Vec<Mutex<DeviceState>>>,
    /// The latest host write per address, noted by every runtime that
    /// consults an advisor on this set.
    pub(crate) host_writes: Arc<HostWrites>,
}

impl SharedDevices {
    /// A fresh device set for `cfg` (`cfg.num_devices` devices of
    /// `cfg.device_memory_bytes` each).
    pub(crate) fn new(cfg: &RuntimeConfig) -> SharedDevices {
        SharedDevices {
            devices: Arc::new(
                (0..cfg.num_devices)
                    .map(|i| Mutex::new(DeviceState::new(i, cfg.device_memory_bytes)))
                    .collect(),
            ),
            host_writes: Arc::default(),
        }
    }

    /// Number of devices in the set.
    pub(crate) fn len(&self) -> usize {
        self.devices.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Lock one device's state. `parking_lot` mutex: no poisoning, so a
    /// panicking directive on one thread propagates as itself instead
    /// of masking the root cause behind sibling "poisoned" panics.
    pub(crate) fn lock(&self, device: u32) -> MutexGuard<'_, DeviceState> {
        self.devices[device as usize].lock()
    }

    /// Live present-table mappings on `device`.
    pub fn present_mappings(&self, device: u32) -> usize {
        self.lock(device).present.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sets_are_independent_clones_are_shared() {
        let cfg = RuntimeConfig::default().with_devices(2);
        let a = SharedDevices::new(&cfg);
        let b = SharedDevices::new(&cfg);
        let a2 = a.clone();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        a.lock(0).present.insert(0x1000, 0xd000, 64);
        assert_eq!(a.present_mappings(0), 1);
        assert_eq!(a2.present_mappings(0), 1, "clone shares state");
        assert_eq!(b.present_mappings(0), 0, "fresh set does not");
        assert_eq!(a.present_mappings(1), 0, "devices stay separate");
    }

    #[test]
    fn cross_thread_visibility() {
        let devices = SharedDevices::new(&RuntimeConfig::default());
        let d = devices.clone();
        std::thread::spawn(move || {
            d.lock(0).present.insert(0x2000, 0xd100, 128);
        })
        .join()
        .unwrap();
        assert!(devices.lock(0).present.contains(0x2000));
    }
}
