//! The OpenMP target event model consumed by the detection algorithms.
//!
//! Paper §5: detection executes after the program has completed, taking "a
//! log of all OpenMP target events. Each event log entry must contain the
//! start and end time of the event, the hash of the data transferred (if
//! applicable), and the information provided by the corresponding OMPT
//! callback, such as source and destination device numbers, code pointers,
//! number of bytes transferred, and type of operation."
//!
//! Two event families exist:
//!
//! * [`DataOpEvent`] — data-management operations (alloc, transfer, delete,
//!   associate, disassociate), matching `ompt_callback_target_data_op_emi`.
//! * [`TargetEvent`] — target constructs and kernel launches, matching
//!   `ompt_callback_target_emi` / `ompt_callback_target_submit_emi`.

use crate::device::DeviceId;
use crate::source::CodePtr;
use crate::time::{SimDuration, TimeSpan};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Monotonic identifier assigned to every logged event (order of record).
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct EventId(pub u64);

/// A content hash of transferred bytes.
///
/// Per §5.1, detection assumes the hash is collision-free; the collision
/// audit mode (§B.1) verifies this assumption by keeping payload copies.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct HashVal(pub u64);

impl fmt::Display for HashVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The type of a data-management operation, mirroring
/// `ompt_target_data_op_t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DataOpKind {
    /// Device memory allocation (`ompt_target_data_alloc`).
    Alloc,
    /// Data transfer between two devices (covers both
    /// `transfer_to_device` and `transfer_from_device`; direction is given
    /// by `src_device`/`dest_device`).
    Transfer,
    /// Device memory deallocation (`ompt_target_data_delete`).
    Delete,
    /// Pointer association (`omp_target_associate_ptr`).
    Associate,
    /// Pointer disassociation.
    Disassociate,
}

impl DataOpKind {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DataOpKind::Alloc => "alloc",
            DataOpKind::Transfer => "transfer",
            DataOpKind::Delete => "delete",
            DataOpKind::Associate => "associate",
            DataOpKind::Disassociate => "disassociate",
        }
    }
}

impl fmt::Display for DataOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A data-management operation event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataOpEvent {
    /// Log-order identifier.
    pub id: EventId,
    /// Operation type.
    pub kind: DataOpKind,
    /// Device the data comes from (for transfers) or the device owning the
    /// host-side correspondent (for alloc/delete this is the host).
    pub src_device: DeviceId,
    /// Device receiving the data / owning the allocation.
    pub dest_device: DeviceId,
    /// Source address. For alloc/delete events this is the *host* address
    /// of the mapped variable (Algorithm 3 keys on it).
    pub src_addr: u64,
    /// Destination address (device address for alloc/H2D).
    pub dest_addr: u64,
    /// Number of bytes moved or allocated.
    pub bytes: u64,
    /// Content hash of the transferred bytes (transfers only).
    pub hash: Option<HashVal>,
    /// Start/end simulated time of the operation.
    pub span: TimeSpan,
    /// Code pointer for source attribution.
    pub codeptr: CodePtr,
}

impl DataOpEvent {
    /// Is this a data transfer (the only kind carrying a hash)?
    #[inline]
    pub fn is_transfer(&self) -> bool {
        self.kind == DataOpKind::Transfer
    }

    /// Is this an allocation?
    #[inline]
    pub fn is_alloc(&self) -> bool {
        self.kind == DataOpKind::Alloc
    }

    /// Is this a deallocation?
    #[inline]
    pub fn is_delete(&self) -> bool {
        self.kind == DataOpKind::Delete
    }

    /// Duration of the operation.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.span.duration()
    }

    /// Transfer direction helper: host → device?
    #[inline]
    pub fn is_host_to_device(&self) -> bool {
        self.is_transfer() && self.src_device.is_host() && self.dest_device.is_target()
    }

    /// Transfer direction helper: device → host?
    #[inline]
    pub fn is_device_to_host(&self) -> bool {
        self.is_transfer() && self.src_device.is_target() && self.dest_device.is_host()
    }
}

/// The kind of a target event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum TargetKind {
    /// A `target` construct (the enclosing region; data movement and the
    /// kernel launch are separate events).
    Region,
    /// Kernel execution on the device (`ompt_callback_target_submit_emi`
    /// begin/end bracket). Algorithms 4 and 5 consume these.
    Kernel,
    /// `target data` region begin..end (structured).
    DataRegion,
    /// `target enter data`.
    EnterData,
    /// `target exit data`.
    ExitData,
    /// `target update`.
    Update,
}

impl TargetKind {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Region => "target",
            TargetKind::Kernel => "kernel",
            TargetKind::DataRegion => "target data",
            TargetKind::EnterData => "target enter data",
            TargetKind::ExitData => "target exit data",
            TargetKind::Update => "target update",
        }
    }
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A target construct / kernel execution event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct TargetEvent {
    /// Log-order identifier (shared sequence with data ops).
    pub id: EventId,
    /// Which device the construct targets.
    pub device: DeviceId,
    /// Construct kind.
    pub kind: TargetKind,
    /// Start/end simulated time.
    pub span: TimeSpan,
    /// Code pointer for source attribution.
    pub codeptr: CodePtr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn transfer(src: DeviceId, dest: DeviceId) -> DataOpEvent {
        DataOpEvent {
            id: EventId(1),
            kind: DataOpKind::Transfer,
            src_device: src,
            dest_device: dest,
            src_addr: 0x1000,
            dest_addr: 0x2000,
            bytes: 64,
            hash: Some(HashVal(42)),
            span: TimeSpan::new(SimTime(0), SimTime(10)),
            codeptr: CodePtr(0x400000),
        }
    }

    #[test]
    fn direction_helpers() {
        let h2d = transfer(DeviceId::HOST, DeviceId::target(0));
        assert!(h2d.is_host_to_device());
        assert!(!h2d.is_device_to_host());

        let d2h = transfer(DeviceId::target(0), DeviceId::HOST);
        assert!(d2h.is_device_to_host());
        assert!(!d2h.is_host_to_device());
    }

    #[test]
    fn kind_predicates() {
        let mut e = transfer(DeviceId::HOST, DeviceId::target(0));
        assert!(e.is_transfer() && !e.is_alloc() && !e.is_delete());
        e.kind = DataOpKind::Alloc;
        assert!(e.is_alloc());
        e.kind = DataOpKind::Delete;
        assert!(e.is_delete());
    }

    #[test]
    fn serde_round_trip() {
        let e = transfer(DeviceId::HOST, DeviceId::target(3));
        let json = serde_json::to_string(&e).unwrap();
        let back: DataOpEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn kernel_kind_displays_its_name() {
        assert_eq!(TargetKind::Kernel.to_string(), "kernel");
    }

    #[test]
    fn hash_display_is_hex16() {
        assert_eq!(HashVal(0xabc).to_string(), "0000000000000abc");
    }
}
