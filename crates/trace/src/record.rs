//! Packed event records.
//!
//! §7.4: "OMPDataPerf allocates 72 B for every OpenMP data transfer event
//! \[and\] 24 B for every target launch event." These structs are laid out
//! to hit exactly those sizes, and the sizes are asserted at compile time
//! so the space-overhead experiment (Figure 3) cannot silently drift.

use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};

/// Size of a [`DataOpRecord`] in bytes.
pub(crate) const DATA_OP_RECORD_BYTES: usize = 72;
/// Size of a [`TargetRecord`] in bytes.
pub(crate) const TARGET_RECORD_BYTES: usize = 24;

/// Upper bound on a *plausible* target-device index. Device numbers come
/// from an untrusted trace: a corrupted callback can name device
/// `0x4000_0000`, and sizing per-device tables from such an id would
/// allocate billions of entries. Indices at or beyond this bound are
/// treated as out of range (quarantined from the per-device algorithms
/// and counted) by the device inference and the streaming engine alike.
///
/// Both packed records hold every device below the bound exactly, and
/// store any device at or beyond it as an id at or beyond it — never as
/// a real device.
pub const MAX_PLAUSIBLE_DEVICES: u32 = 1024;

const _: () = assert!(MAX_PLAUSIBLE_DEVICES <= i16::MAX as u32);
const _: () = assert!(MAX_PLAUSIBLE_DEVICES + 1 < 1 << TargetRecord::DEV_BITS);

/// Flag: the record's `hash` field is valid.
const FLAG_HAS_HASH: u8 = 1 << 0;

/// A 72-byte data-operation record (alloc / transfer / delete / ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataOpRecord {
    /// Event start, ns.
    pub start: u64,
    /// Event end, ns.
    pub end: u64,
    /// Source address (host address for alloc/delete).
    pub src_addr: u64,
    /// Destination address.
    pub dest_addr: u64,
    /// Bytes moved or allocated.
    pub bytes: u64,
    /// Content hash (valid iff `flags & FLAG_HAS_HASH`).
    pub hash: u64,
    /// Code pointer (raw; data-op records store it inline).
    pub codeptr: u64,
    /// Log sequence number.
    pub seq: u32,
    /// Source device number (-1 = host).
    pub src_dev: i16,
    /// Destination device number (-1 = host).
    pub dest_dev: i16,
    /// Operation kind, encoded.
    pub kind: u8,
    /// Validity flags.
    pub flags: u8,
    /// Explicit padding to reach the advertised 72-byte footprint.
    pub _pad: [u8; 6],
}

// The exact sizes are part of the reproduced claim (§7.4).
const _: () = assert!(std::mem::size_of::<DataOpRecord>() == DATA_OP_RECORD_BYTES);
const _: () = assert!(std::mem::size_of::<TargetRecord>() == TARGET_RECORD_BYTES);

const KIND_ALLOC: u8 = 0;
const KIND_TRANSFER: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_ASSOCIATE: u8 = 3;
const KIND_DISASSOCIATE: u8 = 4;

pub(crate) fn encode_data_op_kind(k: DataOpKind) -> u8 {
    match k {
        DataOpKind::Alloc => KIND_ALLOC,
        DataOpKind::Transfer => KIND_TRANSFER,
        DataOpKind::Delete => KIND_DELETE,
        DataOpKind::Associate => KIND_ASSOCIATE,
        DataOpKind::Disassociate => KIND_DISASSOCIATE,
    }
}

pub(crate) fn decode_data_op_kind(k: u8) -> DataOpKind {
    match k {
        KIND_ALLOC => DataOpKind::Alloc,
        KIND_TRANSFER => DataOpKind::Transfer,
        KIND_DELETE => DataOpKind::Delete,
        KIND_ASSOCIATE => DataOpKind::Associate,
        _ => DataOpKind::Disassociate,
    }
}

impl DataOpRecord {
    /// Build a record from event fields.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        seq: u32,
        kind: DataOpKind,
        src_dev: DeviceId,
        dest_dev: DeviceId,
        src_addr: u64,
        dest_addr: u64,
        bytes: u64,
        hash: Option<u64>,
        span: TimeSpan,
        codeptr: CodePtr,
    ) -> Self {
        DataOpRecord {
            start: span.start.as_nanos(),
            end: span.end.as_nanos(),
            src_addr,
            dest_addr,
            bytes,
            hash: hash.unwrap_or(0),
            codeptr: codeptr.0,
            seq,
            // Device ids come from untrusted callbacks and the record
            // narrows them to i16: saturate instead of wrapping, so a
            // corrupt id (e.g. 0x4000_0000) stays visibly out of range
            // after hydration rather than aliasing a real device.
            src_dev: src_dev.raw().clamp(i16::MIN as i32, i16::MAX as i32) as i16,
            dest_dev: dest_dev.raw().clamp(i16::MIN as i32, i16::MAX as i32) as i16,
            kind: encode_data_op_kind(kind),
            flags: if hash.is_some() { FLAG_HAS_HASH } else { 0 },
            _pad: [0; 6],
        }
    }

    /// Hydrate into the model event the detectors consume.
    pub fn to_event(&self) -> DataOpEvent {
        DataOpEvent {
            id: EventId(self.seq as u64),
            kind: decode_data_op_kind(self.kind),
            src_device: DeviceId(self.src_dev as i32),
            dest_device: DeviceId(self.dest_dev as i32),
            src_addr: self.src_addr,
            dest_addr: self.dest_addr,
            bytes: self.bytes,
            hash: if self.flags & FLAG_HAS_HASH != 0 {
                Some(HashVal(self.hash))
            } else {
                None
            },
            span: TimeSpan::new(SimTime(self.start), SimTime(self.end)),
            codeptr: CodePtr(self.codeptr),
        }
    }
}

const TKIND_REGION: u8 = 0;
const TKIND_KERNEL: u8 = 1;
const TKIND_DATA_REGION: u8 = 2;
const TKIND_ENTER_DATA: u8 = 3;
const TKIND_EXIT_DATA: u8 = 4;
const TKIND_UPDATE: u8 = 5;

pub(crate) fn encode_target_kind(k: TargetKind) -> u8 {
    match k {
        TargetKind::Region => TKIND_REGION,
        TargetKind::Kernel => TKIND_KERNEL,
        TargetKind::DataRegion => TKIND_DATA_REGION,
        TargetKind::EnterData => TKIND_ENTER_DATA,
        TargetKind::ExitData => TKIND_EXIT_DATA,
        TargetKind::Update => TKIND_UPDATE,
    }
}

pub(crate) fn decode_target_kind(k: u8) -> TargetKind {
    match k {
        TKIND_REGION => TargetKind::Region,
        TKIND_KERNEL => TargetKind::Kernel,
        TKIND_DATA_REGION => TargetKind::DataRegion,
        TKIND_ENTER_DATA => TargetKind::EnterData,
        TKIND_EXIT_DATA => TargetKind::ExitData,
        _ => TargetKind::Update,
    }
}

/// A 24-byte target-construct record.
///
/// To fit 24 bytes the code pointer is stored as an index into the log's
/// [`crate::intern::CodePtrTable`] (target constructs are few and repeat the same
/// code pointers, so interning is nearly free), and the sequence number is
/// packed with the device and kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetRecord {
    /// Event start, ns.
    pub start: u64,
    /// Event end, ns.
    pub end: u64,
    /// Interned code-pointer index.
    pub codeptr_ix: u32,
    /// Packed `[seq:18][dev:11][kind:3]` — see accessors.
    pub packed: u32,
}

impl TargetRecord {
    const KIND_BITS: u32 = 3;
    const DEV_BITS: u32 = 11;
    const SEQ_BITS: u32 = 32 - Self::KIND_BITS - Self::DEV_BITS;

    /// Maximum sequence number representable in the packed field.
    pub(crate) const MAX_SEQ: u32 = (1 << Self::SEQ_BITS) - 1;

    /// Build a record. `seq` wraps at [`Self::MAX_SEQ`] — hydration orders
    /// records by start time first, so the wrap only affects tie-breaking
    /// among simultaneous events, which cannot occur for target constructs
    /// on one device.
    pub(crate) fn new(
        seq: u32,
        device: DeviceId,
        kind: TargetKind,
        span: TimeSpan,
        codeptr_ix: u32,
    ) -> Self {
        // Bias so the host (-1) fits; an implausible device is stored as
        // the bound itself, which hydrates out of range.
        let dev = (device.raw().clamp(-1, MAX_PLAUSIBLE_DEVICES as i32) + 1) as u32;
        let packed = ((seq & Self::MAX_SEQ) << (Self::DEV_BITS + Self::KIND_BITS))
            | (dev << Self::KIND_BITS)
            | encode_target_kind(kind) as u32;
        TargetRecord {
            start: span.start.as_nanos(),
            end: span.end.as_nanos(),
            codeptr_ix,
            packed,
        }
    }

    /// Sequence number (wrapped to 18 bits; part of the event id).
    pub(crate) fn seq(&self) -> u32 {
        self.packed >> (Self::DEV_BITS + Self::KIND_BITS)
    }

    /// Device the construct targeted.
    pub(crate) fn device(&self) -> DeviceId {
        DeviceId(((self.packed >> Self::KIND_BITS) & ((1 << Self::DEV_BITS) - 1)) as i32 - 1)
    }

    /// Construct kind.
    pub(crate) fn kind(&self) -> TargetKind {
        decode_target_kind((self.packed & ((1 << Self::KIND_BITS) - 1)) as u8)
    }

    /// Hydrate into the model event, resolving the interned code pointer.
    pub fn to_event(&self, global_seq: u64, codeptr: CodePtr) -> TargetEvent {
        TargetEvent {
            id: EventId(global_seq),
            device: self.device(),
            kind: self.kind(),
            span: TimeSpan::new(SimTime(self.start), SimTime(self.end)),
            codeptr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sizes_match_paper() {
        assert_eq!(std::mem::size_of::<DataOpRecord>(), 72);
        assert_eq!(std::mem::size_of::<TargetRecord>(), 24);
    }

    #[test]
    fn data_op_round_trip() {
        let span = TimeSpan::new(SimTime(100), SimTime(250));
        let r = DataOpRecord::new(
            7,
            DataOpKind::Transfer,
            DeviceId::HOST,
            DeviceId::target(2),
            0x1000,
            0x2000,
            4096,
            Some(0xdeadbeef),
            span,
            CodePtr(0x400abc),
        );
        let e = r.to_event();
        assert_eq!(e.id, EventId(7));
        assert_eq!(e.kind, DataOpKind::Transfer);
        assert_eq!(e.src_device, DeviceId::HOST);
        assert_eq!(e.dest_device, DeviceId::target(2));
        assert_eq!(e.bytes, 4096);
        assert_eq!(e.hash, Some(HashVal(0xdeadbeef)));
        assert_eq!(e.span, span);
        assert_eq!(e.codeptr, CodePtr(0x400abc));
    }

    #[test]
    fn hash_absence_is_preserved() {
        let r = DataOpRecord::new(
            0,
            DataOpKind::Alloc,
            DeviceId::HOST,
            DeviceId::target(0),
            0x10,
            0x20,
            8,
            None,
            TimeSpan::at(SimTime(1)),
            CodePtr::NULL,
        );
        assert_eq!(r.to_event().hash, None);
    }

    #[test]
    fn all_data_op_kinds_round_trip() {
        for kind in [
            DataOpKind::Alloc,
            DataOpKind::Transfer,
            DataOpKind::Delete,
            DataOpKind::Associate,
            DataOpKind::Disassociate,
        ] {
            let r = DataOpRecord::new(
                1,
                kind,
                DeviceId::HOST,
                DeviceId::target(0),
                0,
                0,
                0,
                None,
                TimeSpan::at(SimTime(0)),
                CodePtr::NULL,
            );
            assert_eq!(r.to_event().kind, kind);
        }
    }

    #[test]
    fn target_record_packing_round_trips() {
        for kind in [
            TargetKind::Region,
            TargetKind::Kernel,
            TargetKind::DataRegion,
            TargetKind::EnterData,
            TargetKind::ExitData,
            TargetKind::Update,
        ] {
            for dev in [DeviceId::HOST, DeviceId::target(0), DeviceId::target(15)] {
                let r =
                    TargetRecord::new(12345, dev, kind, TimeSpan::new(SimTime(5), SimTime(9)), 3);
                assert_eq!(r.kind(), kind);
                assert_eq!(r.device(), dev);
                assert_eq!(r.seq(), 12345);
                assert_eq!(r.codeptr_ix, 3);
            }
        }
    }

    #[test]
    fn devices_round_trip_below_the_plausibility_bound() {
        let bound = MAX_PLAUSIBLE_DEVICES as i32;
        let both = |device: DeviceId| {
            let span = TimeSpan::at(SimTime(0));
            let op = DataOpRecord::new(
                0,
                DataOpKind::Alloc,
                DeviceId::HOST,
                device,
                0,
                0,
                0,
                None,
                span,
                CodePtr::NULL,
            );
            let target = TargetRecord::new(0, device, TargetKind::Kernel, span, 0);
            (op.to_event().dest_device, target.device())
        };
        for raw in [-1, 0, 1, bound - 2, bound - 1] {
            let device = DeviceId(raw);
            assert_eq!(both(device), (device, device), "device {raw}");
        }
        for raw in [bound, bound + 1, 4096, 0x4000_0000, i32::MAX] {
            let (op, target) = both(DeviceId(raw));
            assert!(op.0 >= bound, "data op on device {raw} hydrates as {op}");
            assert!(
                target.0 >= bound,
                "kernel on device {raw} hydrates as {target}"
            );
        }
    }

    #[test]
    fn target_seq_wraps_at_18_bits() {
        let r = TargetRecord::new(
            TargetRecord::MAX_SEQ + 5,
            DeviceId::target(0),
            TargetKind::Kernel,
            TimeSpan::at(SimTime(0)),
            0,
        );
        assert_eq!(r.seq(), 4);
    }
}
