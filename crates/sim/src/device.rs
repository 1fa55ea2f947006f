//! Per-device state.
//!
//! `libomptarget` keeps one device data environment per device: a memory
//! space, a reference-counted present table and a queue. A
//! [`crate::Runtime`] owns one [`DeviceState`] per configured device and
//! is its only user, so the state needs no lock. The threads of a
//! threaded run each own a runtime, and so each drives its own data
//! environment (the rank-per-thread shape); what they share is the
//! advisor they consult and the fault plan's totals.

use crate::memory::DeviceMemory;
use crate::present::PresentTable;
use odp_model::{FindingKind, SimTime};
use std::collections::HashMap;

/// One device's complete mutable state.
pub(crate) struct DeviceState {
    /// Device memory space (allocator + real buffers).
    pub(crate) mem: DeviceMemory,
    /// The reference-counted present table (`libomptarget`'s device
    /// data environment).
    pub(crate) present: PresentTable,
    /// Device busy executing asynchronously launched kernels until this
    /// time (OpenMP 5.1 `nowait` support, paper §7.8).
    pub(crate) busy_until: SimTime,
    /// Host addresses whose mappings are alive only because a
    /// remediation rewrite skipped their release, with the advising
    /// cause: the next re-entry adopts the phantom reference once.
    pub(crate) retained: HashMap<u64, FindingKind>,
}

impl DeviceState {
    /// Device `index`, empty, with `capacity` bytes of memory.
    pub(crate) fn new(index: u32, capacity: u64) -> DeviceState {
        DeviceState {
            mem: DeviceMemory::new(index, capacity),
            present: PresentTable::new(),
            busy_until: SimTime::ZERO,
            retained: HashMap::new(),
        }
    }
}
