//! OMPT callback payload types.
//!
//! These mirror the EMI callback signatures of OpenMP 5.1 §4.5. The
//! runtime invokes each callback twice — at [`Endpoint::Begin`] and
//! [`Endpoint::End`] of the event — which is precisely the property that
//! lets a tool measure event durations without overhead compensation
//! (the non-EMI callbacks fire only at the start, §2.3).

use odp_model::{CodePtr, DeviceId, SimTime};
use serde::Serialize;

/// `ompt_scope_endpoint_t`: which edge of the event is being reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Endpoint {
    /// `ompt_scope_begin`.
    Begin,
    /// `ompt_scope_end`.
    End,
}

/// The callbacks a tool can register, including deprecated non-EMI forms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum CallbackKind {
    /// `ompt_callback_target_emi` — **required by OMPDataPerf**.
    TargetEmi,
    /// `ompt_callback_target_data_op_emi` — **required by OMPDataPerf**.
    TargetDataOpEmi,
    /// `ompt_callback_target_submit_emi`.
    TargetSubmitEmi,
    /// `ompt_callback_target_map_emi` (optional in every runtime surveyed
    /// except NVHPC, Table 6).
    TargetMapEmi,
    /// Deprecated non-EMI `ompt_callback_target`.
    Target,
    /// Deprecated non-EMI `ompt_callback_target_data_op`.
    TargetDataOp,
    /// Deprecated non-EMI `ompt_callback_target_submit`.
    TargetSubmit,
    /// Deprecated non-EMI `ompt_callback_target_map`.
    TargetMap,
}

/// `ompt_target_t`: which construct produced a target callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum TargetConstructKind {
    /// `omp target`.
    Target,
    /// `omp target data` (structured region).
    TargetData,
    /// `omp target enter data`.
    TargetEnterData,
    /// `omp target exit data`.
    TargetExitData,
    /// `omp target update`.
    TargetUpdate,
}

/// `ompt_target_data_op_t`: the operation type of a data-op callback.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum DataOpType {
    /// `ompt_target_data_alloc`.
    Alloc,
    /// `ompt_target_data_transfer_to_device`.
    TransferToDevice,
    /// `ompt_target_data_transfer_from_device`.
    TransferFromDevice,
    /// `ompt_target_data_delete`.
    Delete,
    /// `ompt_target_data_associate`.
    Associate,
    /// `ompt_target_data_disassociate`.
    Disassociate,
}

impl DataOpType {
    /// Is this a transfer (either direction)?
    pub fn is_transfer(self) -> bool {
        matches!(
            self,
            DataOpType::TransferToDevice | DataOpType::TransferFromDevice
        )
    }
}

/// Payload of `ompt_callback_target_emi`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct TargetCallback {
    /// Begin or end of the construct.
    pub endpoint: Endpoint,
    /// Which construct.
    pub construct: TargetConstructKind,
    /// Device the construct addresses.
    pub device: DeviceId,
    /// Runtime-assigned id correlating begin/end and nested data ops.
    pub target_id: u64,
    /// Return address of the runtime call (source attribution).
    pub codeptr_ra: CodePtr,
    /// Virtual time the callback fires.
    pub time: SimTime,
}

/// Payload of `ompt_callback_target_data_op_emi`.
///
/// `payload` is this crate's one extension over the C API: a native tool
/// dereferences `src_addr` to hash the bytes being transferred; a Rust
/// tool without `unsafe` needs the runtime to hand it the slice instead.
/// It is `None` at `Begin` endpoints and for non-transfer ops, matching
/// what a pointer-chasing tool could observe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataOpCallback<'a> {
    /// Begin or end of the operation.
    pub endpoint: Endpoint,
    /// Correlates with the enclosing target construct.
    pub target_id: u64,
    /// Runtime-assigned id correlating begin/end of this op.
    pub host_op_id: u64,
    /// Operation type.
    pub optype: DataOpType,
    /// Source device.
    pub src_device: DeviceId,
    /// Source address (host address for alloc/delete).
    pub src_addr: u64,
    /// Destination device.
    pub dest_device: DeviceId,
    /// Destination address.
    pub dest_addr: u64,
    /// Bytes moved/allocated.
    pub bytes: u64,
    /// Return address of the runtime call.
    pub codeptr_ra: CodePtr,
    /// Virtual time the callback fires.
    pub time: SimTime,
    /// The bytes being transferred (End endpoint of transfers only).
    pub payload: Option<&'a [u8]>,
}

/// A contiguous access range inside a kernel (instrumentation feed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct AccessRange {
    /// Host address of the variable backing the range.
    pub host_addr: u64,
    /// Device address of the mapped buffer.
    pub dev_addr: u64,
    /// Length in bytes.
    pub bytes: u64,
}

/// Kernel memory-access information.
///
/// **Not part of OMPT.** Tools like Arbalest obtain this through binary
/// instrumentation of the device code; the simulator offers it as an
/// optional side channel so such tools can be reproduced. OMPDataPerf
/// never consumes it — the paper's detectors are deliberately
/// access-blind (§5: "designed to avoid relying on information that would
/// necessitate costly instrumentation").
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct KernelAccessInfo {
    /// Device executing the kernel.
    pub device: DeviceId,
    /// Correlates with the target construct.
    pub target_id: u64,
    /// Ranges the kernel reads.
    pub reads: Vec<AccessRange>,
    /// Ranges the kernel writes with plain stores.
    pub writes: Vec<AccessRange>,
    /// Ranges the kernel writes through vector-masked/predicated stores.
    /// Binary instrumentation cannot prove these are write-only (the
    /// mask may leave lanes unwritten), which is the mechanism behind
    /// Arbalest-Vec's conservative UUM false positives (§7.7).
    pub masked_writes: Vec<AccessRange>,
    /// Kernel start time.
    pub time: SimTime,
}

/// A host-side access to a mapped variable (instrumentation feed; same
/// caveat as [`KernelAccessInfo`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct HostAccessInfo {
    /// Host address accessed.
    pub host_addr: u64,
    /// Length in bytes.
    pub bytes: u64,
    /// Was it a write?
    pub is_write: bool,
    /// Access time.
    pub time: SimTime,
}

/// Payload of `ompt_callback_target_submit_emi` (kernel launch).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct SubmitCallback {
    /// Begin or end of kernel execution.
    pub endpoint: Endpoint,
    /// Correlates with the enclosing target construct.
    pub target_id: u64,
    /// Device executing the kernel.
    pub device: DeviceId,
    /// Requested number of teams.
    pub requested_num_teams: u32,
    /// Return address of the runtime call.
    pub codeptr_ra: CodePtr,
    /// Virtual time the callback fires.
    pub time: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_predicate() {
        assert!(DataOpType::TransferToDevice.is_transfer());
        assert!(DataOpType::TransferFromDevice.is_transfer());
        assert!(!DataOpType::Alloc.is_transfer());
        assert!(!DataOpType::Delete.is_transfer());
    }
}
