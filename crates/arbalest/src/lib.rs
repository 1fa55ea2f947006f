//! # odp-arbalest — the correctness-checking baseline (§7.7)
//!
//! Arbalest / Arbalest-Vec detect data-mapping *correctness* anomalies in
//! heterogeneous OpenMP programs: use of uninitialized memory (UUM), use
//! of stale data (USD), use after free (UAF), and buffer overflow (BO).
//! The paper compares OMPDataPerf against Arbalest-Vec to argue that
//! correctness reports alone do not surface performance bugs — and that
//! Arbalest's conservative first-touch analysis produces false-positive
//! UUM reports on variables that are only ever *written* inside kernels
//! (Table 2/3: `b[0]`, `spikes[0]`, `walkers_vals[0]`, ...).
//!
//! This reproduction consumes the simulator's OMPT event stream plus the
//! kernel/host access instrumentation feed (modeling Arbalest's binary
//! instrumentation) and applies exactly that conservative rule:
//! *any* kernel access — read or write — to a device buffer that was
//! never initialized by a transfer or an earlier kernel is reported as
//! UUM. Write-only-first-touch variables therefore trigger the same
//! false positives the paper documents.
//!
//! Arbalest-Vec's measured cost is "an average slowdown of 3.5× over
//! native execution" (§8); [`ArbalestReport::NOMINAL_SLOWDOWN`] records
//! that figure for the comparison harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod state;

use odp_hash::fnv::FnvHashMap;
use odp_model::{DeviceId, SimTime};
use odp_ompt::{
    CallbackKind, DataOpCallback, DataOpType, Endpoint, HostAccessInfo, KernelAccessInfo,
    RuntimeCapabilities, Tool, ToolRegistration,
};
use parking_lot::Mutex;
use serde::Serialize;
use state::{HostState, MappingState};
use std::sync::Arc;

/// The anomaly classes Arbalest-Vec reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum AnomalyKind {
    /// Use of uninitialized memory.
    Uum,
    /// Use of stale data.
    Usd,
    /// Use after free.
    Uaf,
    /// Buffer overflow.
    Bo,
}

impl AnomalyKind {
    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            AnomalyKind::Uum => "UUM",
            AnomalyKind::Usd => "USD",
            AnomalyKind::Uaf => "UAF",
            AnomalyKind::Bo => "BO",
        }
    }
}

/// One reported anomaly (deduplicated per `(kind, host_addr)`).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Anomaly {
    /// Anomaly class.
    pub kind: AnomalyKind,
    /// Host address of the offending variable.
    pub host_addr: u64,
    /// Bytes involved.
    pub bytes: u64,
    /// First detection time.
    pub time: SimTime,
    /// Device involved (host for USD).
    pub device: DeviceId,
}

/// Arbalest-Vec's final report.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ArbalestReport {
    /// Unique anomalies, detection order.
    pub anomalies: Vec<Anomaly>,
}

impl ArbalestReport {
    /// "An average slowdown of 3.5× over native execution" (§8).
    pub const NOMINAL_SLOWDOWN: f64 = 3.5;

    /// Anomalies of a given kind.
    pub fn of_kind(&self, kind: AnomalyKind) -> Vec<&Anomaly> {
        self.anomalies.iter().filter(|a| a.kind == kind).collect()
    }

    /// Count per kind.
    pub fn count(&self, kind: AnomalyKind) -> usize {
        self.of_kind(kind).len()
    }

    /// "N/A" when nothing was detected (Table 2's notation).
    pub fn summary(&self) -> String {
        if self.anomalies.is_empty() {
            return "N/A".to_string();
        }
        let mut kinds: Vec<&'static str> = Vec::new();
        for k in [
            AnomalyKind::Uum,
            AnomalyKind::Usd,
            AnomalyKind::Uaf,
            AnomalyKind::Bo,
        ] {
            if self.count(k) > 0 && !kinds.contains(&k.abbrev()) {
                kinds.push(k.abbrev());
            }
        }
        kinds.join(", ")
    }
}

/// Collector state, **keyed by shard**. In the rank-per-thread threaded
/// model every runtime thread drives its own data environment, and two
/// threads' identical host addresses name *different* logical mappings.
/// Before shard keying, one thread's `Delete` silently marked every
/// thread's same-address mapping unmapped — a multi-threaded trace then
/// miscompared as spurious UAF/USD. Fork one tool per runtime thread
/// with [`ArbalestHandle::fork_tool`]; each fork tags its callbacks
/// with its shard id.
#[derive(Default)]
struct Inner {
    mappings: FnvHashMap<(u32, DeviceId, u64), MappingState>,
    hosts: FnvHashMap<(u32, u64), HostState>,
    seen: FnvHashMap<(AnomalyKind, u32, u64), ()>,
    report: ArbalestReport,
    /// Bytes of kernel accesses analyzed — the driver of Arbalest's
    /// instrumentation overhead.
    pub instrumented_bytes: u64,
    /// Shards forked so far (= next shard id).
    shards: u32,
}

impl Inner {
    fn emit(
        &mut self,
        kind: AnomalyKind,
        shard: u32,
        host_addr: u64,
        bytes: u64,
        time: SimTime,
        device: DeviceId,
    ) {
        if self.seen.insert((kind, shard, host_addr), ()).is_none() {
            self.report.anomalies.push(Anomaly {
                kind,
                host_addr,
                bytes,
                time,
                device,
            });
        }
    }
}

/// Handle for extracting the report after the run.
#[derive(Clone)]
pub struct ArbalestHandle {
    shared: Arc<Mutex<Inner>>,
}

impl ArbalestHandle {
    /// The report so far (clone).
    pub fn report(&self) -> ArbalestReport {
        self.shared.lock().report.clone()
    }

    /// Fork a tool for one more runtime thread. All forks share this
    /// handle's collector and report, but each keys its mapping/host
    /// state by its own shard id, so one thread's deletes and writes
    /// can never corrupt another thread's (same-address) analysis.
    pub fn fork_tool(&self) -> ArbalestVecTool {
        let mut inner = self.shared.lock();
        let shard = inner.shards;
        inner.shards += 1;
        ArbalestVecTool {
            shared: self.shared.clone(),
            shard,
        }
    }

    /// Shards forked so far.
    pub fn shard_count(&self) -> u32 {
        self.shared.lock().shards
    }
}

/// The Arbalest-Vec tool. Attach to a runtime like any OMPT tool; for a
/// multi-threaded (rank-per-thread) runtime, attach one
/// [`ArbalestHandle::fork_tool`] result per runtime thread.
pub struct ArbalestVecTool {
    shared: Arc<Mutex<Inner>>,
    /// This instance's shard id (keyed into all collector state).
    shard: u32,
}

impl ArbalestVecTool {
    /// Build the first tool (shard 0) and its handle.
    pub fn new() -> (ArbalestVecTool, ArbalestHandle) {
        let shared = Arc::new(Mutex::new(Inner {
            shards: 1,
            ..Inner::default()
        }));
        (
            ArbalestVecTool {
                shared: shared.clone(),
                shard: 0,
            },
            ArbalestHandle { shared },
        )
    }
}

impl Tool for ArbalestVecTool {
    fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
        ToolRegistration::negotiate(
            &[
                CallbackKind::TargetEmi,
                CallbackKind::TargetDataOpEmi,
                CallbackKind::TargetSubmitEmi,
            ],
            caps,
        )
    }

    fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
        if cb.endpoint != Endpoint::End {
            return;
        }
        let shard = self.shard;
        let mut inner = self.shared.lock();
        match cb.optype {
            DataOpType::Alloc => {
                inner.mappings.insert(
                    (shard, cb.dest_device, cb.src_addr),
                    MappingState::fresh(cb.bytes),
                );
            }
            DataOpType::Delete => {
                if let Some(m) = inner
                    .mappings
                    .get_mut(&(shard, cb.dest_device, cb.src_addr))
                {
                    m.mapped = false;
                }
            }
            DataOpType::TransferToDevice => {
                let key = (shard, cb.dest_device, cb.src_addr);
                match inner.mappings.get(&key).copied() {
                    Some(m) if m.mapped => {
                        if let Some(entry) = inner.mappings.get_mut(&key) {
                            entry.dev_init = true;
                        }
                    }
                    Some(_) => inner.emit(
                        AnomalyKind::Uaf,
                        shard,
                        cb.src_addr,
                        cb.bytes,
                        cb.time,
                        cb.dest_device,
                    ),
                    None => { /* runtime anomaly; out of scope */ }
                }
            }
            DataOpType::TransferFromDevice => {
                // D2H refreshes the host copy: dest_addr is the host addr.
                let host = inner.hosts.entry((shard, cb.dest_addr)).or_default();
                host.stale = false;
                host.initialized = true;
            }
            _ => {}
        }
    }

    fn on_kernel_access(&mut self, info: &KernelAccessInfo) {
        let shard = self.shard;
        let mut inner = self.shared.lock();
        // First pass: liveness/bounds checks on every accessed range,
        // plus the UUM rule. Plain stores are provably writes; reads and
        // vector-masked stores may consume existing bytes, so touching
        // an uninitialized device buffer through them is flagged — the
        // conservative behaviour that yields the paper's write-only
        // false positives (the mask *could* have left lanes unwritten).
        for (range, may_consume) in info
            .reads
            .iter()
            .map(|r| (r, true))
            .chain(info.masked_writes.iter().map(|r| (r, true)))
            .chain(info.writes.iter().map(|r| (r, false)))
        {
            inner.instrumented_bytes += range.bytes;
            let key = (shard, info.device, range.host_addr);
            match inner.mappings.get(&key).copied() {
                None => {
                    inner.emit(
                        AnomalyKind::Uaf,
                        shard,
                        range.host_addr,
                        range.bytes,
                        info.time,
                        info.device,
                    );
                }
                Some(m) if !m.mapped => {
                    inner.emit(
                        AnomalyKind::Uaf,
                        shard,
                        range.host_addr,
                        range.bytes,
                        info.time,
                        info.device,
                    );
                }
                Some(m) => {
                    if range.bytes > m.bytes {
                        inner.emit(
                            AnomalyKind::Bo,
                            shard,
                            range.host_addr,
                            range.bytes,
                            info.time,
                            info.device,
                        );
                    }
                    if may_consume && !m.dev_init {
                        inner.emit(
                            AnomalyKind::Uum,
                            shard,
                            range.host_addr,
                            range.bytes,
                            info.time,
                            info.device,
                        );
                    }
                }
            }
        }
        // Second pass: apply write effects (masked or not).
        for range in info.writes.iter().chain(info.masked_writes.iter()) {
            let key = (shard, info.device, range.host_addr);
            if let Some(m) = inner.mappings.get_mut(&key) {
                if m.mapped {
                    m.dev_init = true;
                }
            }
            let host = inner.hosts.entry((shard, range.host_addr)).or_default();
            host.stale = true; // device copy is now newer
        }
    }

    fn on_host_access(&mut self, info: &HostAccessInfo) {
        let shard = self.shard;
        let mut inner = self.shared.lock();
        if info.is_write {
            let host = inner.hosts.entry((shard, info.host_addr)).or_default();
            host.initialized = true;
            host.stale = false; // the host copy is authoritative again
        } else {
            let stale = inner
                .hosts
                .get(&(shard, info.host_addr))
                .map(|h| h.stale)
                .unwrap_or(false);
            if stale {
                inner.emit(
                    AnomalyKind::Usd,
                    shard,
                    info.host_addr,
                    info.bytes,
                    info.time,
                    DeviceId::HOST,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::{CodePtr, MapType};
    use odp_sim::{map, Kernel, KernelCost, Runtime};

    #[test]
    fn masked_write_only_alloc_var_is_false_positive_uum() {
        // The bspline/mandelbrot pattern: map(alloc:) + kernel writes it
        // through vector-masked stores. Correct code — but Arbalest's
        // conservative rule cannot prove write-only and reports UUM.
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let out = rt.host_alloc("b", 1024);
        rt.target(
            0,
            CodePtr(0x10),
            &[map(MapType::Alloc, out)],
            Kernel::new("mandelbrot", KernelCost::fixed(100)).masked_writes(&[out]),
        );
        rt.finish();
        let report = handle.report();
        assert_eq!(report.count(AnomalyKind::Uum), 1);
        assert_eq!(report.summary(), "UUM");
    }

    #[test]
    fn plain_write_only_alloc_var_is_clean() {
        // An unmasked store is provably a write: no false positive.
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let out = rt.host_alloc("dst", 1024);
        rt.target(
            0,
            CodePtr(0x10),
            &[map(MapType::Alloc, out)],
            Kernel::new("resize", KernelCost::fixed(100)).writes(&[out]),
        );
        rt.finish();
        assert_eq!(handle.report().summary(), "N/A");
    }

    #[test]
    fn transferred_data_is_not_uum() {
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let a = rt.host_alloc("a", 1024);
        rt.target(
            0,
            CodePtr(0x10),
            &[map(MapType::To, a)],
            Kernel::new("k", KernelCost::fixed(100)).reads(&[a]),
        );
        rt.finish();
        assert_eq!(handle.report().summary(), "N/A");
    }

    #[test]
    fn kernel_init_then_read_is_clean() {
        // alloc → kernel plainly writes → second kernel reads: the
        // device copy is initialized by the first kernel, so neither
        // access is flagged.
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let b = rt.host_alloc("b", 64);
        let region = rt.target_data_begin(0, CodePtr(1), &[map(MapType::Alloc, b)]);
        rt.target(
            0,
            CodePtr(2),
            &[map(MapType::To, b)],
            Kernel::new("init", KernelCost::fixed(10)).writes(&[b]),
        );
        rt.target(
            0,
            CodePtr(3),
            &[map(MapType::To, b)],
            Kernel::new("use", KernelCost::fixed(10)).reads(&[b]),
        );
        rt.target_data_end(region);
        rt.finish();
        let report = handle.report();
        assert_eq!(report.count(AnomalyKind::Uum), 0);
        assert_eq!(report.count(AnomalyKind::Uaf), 0);
    }

    #[test]
    fn read_of_uninitialized_device_buffer_is_true_uum() {
        // A genuine bug: alloc-only mapping read before any write.
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let b = rt.host_alloc("garbage", 64);
        rt.target(
            0,
            CodePtr(2),
            &[map(MapType::Alloc, b)],
            Kernel::new("consume", KernelCost::fixed(10)).reads(&[b]),
        );
        rt.finish();
        assert_eq!(handle.report().count(AnomalyKind::Uum), 1);
    }

    #[test]
    fn stale_host_read_is_usd() {
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let a = rt.host_alloc("a", 64);
        rt.host_store(a, 0, &[1u8; 64]);
        // Kernel writes `a` on the device inside a data region; the host
        // then reads `a` before any D2H — stale.
        let region = rt.target_data_begin(0, CodePtr(1), &[map(MapType::To, a)]);
        rt.target(
            0,
            CodePtr(2),
            &[map(MapType::To, a)],
            Kernel::new("update", KernelCost::fixed(10))
                .reads(&[a])
                .writes(&[a]),
        );
        rt.host_load(a); // USD: device copy is newer
        rt.target_data_end(region);
        rt.finish();
        let report = handle.report();
        assert_eq!(report.count(AnomalyKind::Usd), 1);
    }

    #[test]
    fn d2h_clears_staleness() {
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let a = rt.host_alloc("a", 64);
        rt.host_store(a, 0, &[1u8; 64]);
        rt.target(
            0,
            CodePtr(2),
            &[],
            Kernel::new("update", KernelCost::fixed(10))
                .reads(&[a])
                .writes(&[a]),
        );
        // Implicit tofrom copied the data back at region end.
        rt.host_load(a);
        rt.finish();
        assert_eq!(handle.report().count(AnomalyKind::Usd), 0);
    }

    #[test]
    fn anomalies_deduplicate_per_variable() {
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = ArbalestVecTool::new();
        rt.attach_tool(Box::new(tool));
        let b = rt.host_alloc("b", 64);
        for _ in 0..5 {
            rt.target(
                0,
                CodePtr(1),
                &[map(MapType::Alloc, b)],
                Kernel::new("w", KernelCost::fixed(10)).masked_writes(&[b]),
            );
        }
        rt.finish();
        assert_eq!(
            handle.report().count(AnomalyKind::Uum),
            1,
            "one per variable"
        );
    }

    #[test]
    fn nominal_slowdown_matches_paper() {
        assert!((ArbalestReport::NOMINAL_SLOWDOWN - 3.5).abs() < f64::EPSILON);
    }

    #[test]
    fn cross_shard_delete_does_not_poison_another_shards_mapping() {
        // The miscompare shard keying fixes: in the rank-per-thread
        // model two threads' data environments reuse the same host and
        // device addresses. Thread 0 finishing its region (Delete) must
        // not mark thread 1's same-address mapping unmapped — unkeyed
        // state reported thread 1's subsequent transfer + kernel read
        // as a spurious UAF.
        use odp_model::SimTime;
        use odp_ompt::{DataOpCallback, Endpoint};

        let (mut t0, handle) = ArbalestVecTool::new();
        let mut t1 = handle.fork_tool();
        assert_eq!(handle.shard_count(), 2);
        let op = |optype, bytes| DataOpCallback {
            endpoint: Endpoint::End,
            target_id: 1,
            host_op_id: 1,
            optype,
            src_device: DeviceId::HOST,
            src_addr: 0x1000,
            dest_device: DeviceId::target(0),
            dest_addr: 0xd000,
            bytes,
            codeptr_ra: odp_model::CodePtr(0x42),
            time: SimTime(0),
            payload: None,
        };
        // Both threads map the same (device, host address); thread 0
        // tears its mapping down while thread 1's is still live.
        t0.on_data_op(&op(DataOpType::Alloc, 64));
        t1.on_data_op(&op(DataOpType::Alloc, 64));
        t0.on_data_op(&op(DataOpType::Delete, 64));
        t1.on_data_op(&op(DataOpType::TransferToDevice, 64));
        t1.on_kernel_access(&KernelAccessInfo {
            device: DeviceId::target(0),
            target_id: 2,
            reads: vec![odp_ompt::AccessRange {
                host_addr: 0x1000,
                dev_addr: 0xd000,
                bytes: 64,
            }],
            writes: vec![],
            masked_writes: vec![],
            time: SimTime(10),
        });
        assert_eq!(
            handle.report().summary(),
            "N/A",
            "thread 1's mapping is alive; no UAF may be reported"
        );
    }

    #[test]
    fn threaded_run_scales_anomalies_per_shard() {
        // 4 OS threads each run the masked-write-only false-positive
        // pattern against their own runtime: one UUM per shard, same
        // summary as the single-threaded row.
        let (tool, handle) = ArbalestVecTool::new();
        let mut tools: Vec<Box<dyn odp_ompt::Tool>> = vec![Box::new(tool)];
        for _ in 1..4 {
            tools.push(Box::new(handle.fork_tool()));
        }
        odp_sim::run_on_threads(4, &odp_sim::RuntimeConfig::default(), tools, |_, rt| {
            let out = rt.host_alloc("b", 1024);
            rt.target(
                0,
                CodePtr(0x10),
                &[map(MapType::Alloc, out)],
                Kernel::new("mandelbrot", KernelCost::fixed(100)).masked_writes(&[out]),
            );
        });
        let report = handle.report();
        assert_eq!(report.summary(), "UUM", "same classes as one thread");
        assert_eq!(report.count(AnomalyKind::Uum), 4, "one per shard");
        assert_eq!(report.count(AnomalyKind::Uaf), 0, "no cross-shard poison");
    }
}
