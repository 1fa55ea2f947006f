//! The simulated OpenMP offload runtime.
//!
//! Directive execution follows `libomptarget`'s observable behaviour:
//!
//! * On region entry each map clause consults the device's present table.
//!   Absent data is allocated (alloc event) and, for `to`/`tofrom`,
//!   copied in (transfer event). Present data just gains a reference
//!   (plus a forced copy under the `always` modifier).
//! * On region exit the reference count drops; at zero, `from`/`tofrom`
//!   data is copied back (transfer event) and the allocation is released
//!   (delete event).
//! * `target` regions implicitly map referenced-but-unmapped variables
//!   `tofrom`, run the kernel (submit events; real compute on device
//!   buffers), then unwind their data environment.
//!
//! Every operation advances the virtual clock through the timing model
//! and is reported to the attached tool through OMPT EMI callbacks
//! (begin/end), or the deprecated begin-only non-EMI callbacks when the
//! configured capability profile predates OpenMP 5.1.
//!
//! Each of those decisions has one home:
//!
//! * **Construct envelope** — `open_directive` (may it run, the host
//!   dispatch cost, the construct's id) and `construct` (Begin, body,
//!   End) carry every directive; `target` and `target nowait` are one
//!   `target_construct(.., wait)`.
//! * **Map clauses** — `map_enter` / `map_exit` step the clause
//!   transition `odp_model::MapType::enter` / `exit` (which data
//!   operations, and the refcount after), the one statement of the map
//!   rules the static executor steps too. Around it they keep only the
//!   advisor's rewrite: elision, phantom-reference adoption, `skip_to`,
//!   `skip_from` under `in_sync`, persist and device OOM.
//! * **Data-op primitive** — `do_alloc` / `do_delete` / `do_transfer`
//!   keep only what differs (allocator call, byte copy, statistics);
//!   `data_op` charges the clock, takes the op id, derives operands and
//!   payload from the op type, draws the fault and reports the event.
//! * **Callback gate** — `ToolSlot::sees` answers "does the tool get this
//!   endpoint of this callback family" for the target, submit and
//!   data-op emitters alike.

use crate::config::RuntimeConfig;
use crate::device::DeviceState;
use crate::faults::{flip_payload_bit, DataOpFault, FaultSession, CORRUPT_DEVICE_OFFSET};
use crate::kernel::{DeviceView, Kernel};
use crate::memory::{HostMemory, VarId};
use crate::present::PresentEntry;
use odp_model::{CodePtr, DeviceId, FindingKind, MapModifier, MapType, SimDuration, SimTime};
use odp_ompt::{
    AccessRange, CallbackKind, DataOpCallback, DataOpType, Endpoint, HostAccessInfo,
    KernelAccessInfo, MapAdvice, MapAdvisor, RemediationStats, RuntimeCapabilities, SubmitCallback,
    TargetCallback, TargetConstructKind, Tool, ToolRegistration,
};
use std::sync::Arc;

/// One map clause item: `map(<modifier><type>: <var>)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Map {
    /// The mapped variable.
    pub var: VarId,
    /// Map type.
    pub map_type: MapType,
    /// Modifiers (`always`).
    pub modifier: MapModifier,
}

/// Non-fatal conditions the runtime records while executing directives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeWarning {
    /// `target update` on data not present on the device (unspecified
    /// behaviour per the spec; libomptarget ignores it).
    UpdateOfAbsentData {
        /// Variable name.
        var: String,
    },
    /// `map(release:)`/`map(from:)` exit of data never mapped.
    ReleaseOfAbsentData {
        /// Variable name.
        var: String,
    },
    /// `map(delete:)` of data never mapped.
    DeleteOfAbsentData {
        /// Variable name.
        var: String,
    },
    /// A device allocation failed (capacity exhausted, or an injected
    /// OOM fault). The mapping is skipped; kernels referencing the
    /// variable compute on scratch storage.
    DeviceOutOfMemory {
        /// Variable name.
        var: String,
        /// Bytes the allocation requested.
        bytes: u64,
    },
    /// A transfer failed and was retried (injected fault); the clock
    /// absorbed the failed attempts plus exponential backoff.
    TransferRetried {
        /// Variable name.
        var: String,
        /// Failed attempts before the successful one.
        attempts: u32,
    },
}

/// Handle to an open structured `target data` region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRegionHandle(usize);

/// The construct a map clause, data operation or kernel executes
/// under: what every callback it causes is attributed to.
#[derive(Clone, Copy)]
struct Directive {
    device: u32,
    target_id: u64,
    codeptr: CodePtr,
}

struct OpenRegion {
    at: Directive,
    maps: Vec<Map>,
}

struct ToolSlot {
    tool: Box<dyn Tool>,
    registration: ToolRegistration,
}

impl ToolSlot {
    /// The one callback gate: does the tool see `endpoint` of a callback
    /// family? Granted as `emi` it sees both; granted only as the
    /// deprecated `legacy` form, the event's start alone (§2.3).
    fn sees(&self, emi: CallbackKind, legacy: CallbackKind, endpoint: Endpoint) -> bool {
        self.registration.granted(emi)
            || (endpoint == Endpoint::Begin && self.registration.granted(legacy))
    }
}

/// Aggregate statistics of a finished run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeStats {
    /// Final virtual clock (total program time).
    pub total_time: SimDuration,
    /// Number of H2D + D2H transfers performed.
    pub transfers: usize,
    /// Bytes moved.
    pub bytes_transferred: u64,
    /// Device allocations performed.
    pub allocs: usize,
    /// Kernels launched.
    pub kernels: usize,
    /// Cumulative transfer time.
    pub transfer_time: SimDuration,
    /// Cumulative alloc/free time.
    pub alloc_time: SimDuration,
    /// Cumulative kernel time (including launch overhead).
    pub kernel_time: SimDuration,
}

/// The simulated runtime. See module docs.
pub struct Runtime {
    cfg: RuntimeConfig,
    caps: RuntimeCapabilities,
    clock: SimTime,
    host: HostMemory,
    /// Per-device state (memory, present table, phantom-reference
    /// marks), indexed by device number.
    devices: Vec<DeviceState>,
    tool: Option<ToolSlot>,
    /// Online mapping advisor (`--remediate`), possibly shared with
    /// other runtimes: consulted at every map-clause item; `None` leaves
    /// directive execution bit-exact.
    advisor: Option<Arc<dyn MapAdvisor>>,
    /// What the advisor's rewrites saved, per cause and device.
    remedy: RemediationStats,
    /// Per-runtime fault-injection state (no-op unless the config's
    /// plan is enabled).
    faults: FaultSession,
    warnings: Vec<RuntimeWarning>,
    open_regions: Vec<OpenRegion>,
    next_target_id: u64,
    next_host_op_id: u64,
    stats: RuntimeStats,
    finished: bool,
}

impl Runtime {
    /// Create a runtime from `cfg` with its own devices.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let devices = (0..cfg.num_devices)
            .map(|i| DeviceState::new(i, cfg.device_memory_bytes))
            .collect();
        let caps = if cfg.pre_emi_runtime {
            cfg.profile.capabilities_pre_emi()
        } else {
            cfg.profile.capabilities()
        };
        let faults = cfg.faults.session();
        Runtime {
            cfg,
            caps,
            clock: SimTime::ZERO,
            host: HostMemory::new(),
            devices,
            tool: None,
            advisor: None,
            remedy: RemediationStats::default(),
            faults,
            warnings: Vec::new(),
            open_regions: Vec::new(),
            next_target_id: 1,
            next_host_op_id: 1,
            stats: RuntimeStats::default(),
            finished: false,
        }
    }

    /// A runtime with the default configuration (1 LLVM-profile device).
    pub fn with_defaults() -> Self {
        Self::new(RuntimeConfig::default())
    }

    /// Attach a tool (the `ompt_start_tool` handshake). Only one tool may
    /// be attached, before any directive executes.
    pub fn attach_tool(&mut self, mut tool: Box<dyn Tool>) {
        assert!(self.tool.is_none(), "a tool is already attached");
        let registration = tool.initialize(&self.caps);
        self.tool = Some(ToolSlot { tool, registration });
    }

    /// Attach a mapping advisor (online remediation). The runtime
    /// consults it at every map-clause item and applies the advised
    /// rewrites; without an advisor, directive execution — and hence the
    /// tool-visible event stream — is untouched. Attach before any
    /// directive executes so enter/exit advice stays consistent. The
    /// runtimes of one threaded run attach clones of one advisor.
    pub(crate) fn attach_advisor(&mut self, advisor: Arc<dyn MapAdvisor>) {
        assert!(self.advisor.is_none(), "an advisor is already attached");
        self.advisor = Some(advisor);
        // Only rewrites ask whether a device copy still equals the host's.
        self.host.writes = Some(0);
    }

    /// What the advisor's rewrites recovered so far (empty without one).
    pub(crate) fn remediation_stats(&self) -> RemediationStats {
        self.remedy.clone()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Warnings accumulated so far.
    pub fn warnings(&self) -> &[RuntimeWarning] {
        &self.warnings
    }

    // ---------------------------------------------------------------
    // Host memory API
    // ---------------------------------------------------------------

    /// Allocate a zero-initialized host variable.
    pub fn host_alloc(&mut self, name: &str, bytes: usize) -> VarId {
        self.host.alloc(name, bytes)
    }

    /// Host address of a variable.
    pub fn host_addr(&self, var: VarId) -> u64 {
        self.host.addr(var)
    }

    /// Name of a variable.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.host.var(var).name
    }

    /// Find a host variable by name (first match).
    pub fn find_var(&self, name: &str) -> Option<VarId> {
        self.host.by_name(name)
    }

    /// Raw (silent) access to host bytes — for workload setup.
    pub fn host_bytes(&self, var: VarId) -> &[u8] {
        self.host.bytes(var)
    }

    /// Raw (silent) mutable access to host bytes — for workload setup.
    pub fn host_bytes_mut(&mut self, var: VarId) -> &mut [u8] {
        self.host.bytes_mut(var)
    }

    /// Fill a host variable with f64 values.
    pub fn host_fill_f64(&mut self, var: VarId, f: impl Fn(usize) -> f64) {
        let buf = self.host.bytes_mut(var);
        for (i, chunk) in buf.chunks_exact_mut(8).enumerate() {
            chunk.copy_from_slice(&f(i).to_le_bytes());
        }
    }

    /// Fill a host variable with f32 values.
    pub fn host_fill_f32(&mut self, var: VarId, f: impl Fn(usize) -> f32) {
        let buf = self.host.bytes_mut(var);
        for (i, chunk) in buf.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&f(i).to_le_bytes());
        }
    }

    /// Fill a host variable with u32 values.
    pub fn host_fill_u32(&mut self, var: VarId, f: impl Fn(usize) -> u32) {
        let buf = self.host.bytes_mut(var);
        for (i, chunk) in buf.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&f(i).to_le_bytes());
        }
    }

    /// Read a host variable as u32s.
    pub fn host_read_u32(&self, var: VarId) -> Vec<u32> {
        self.host
            .bytes(var)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(crate::kernel::le4(c)))
            .collect()
    }

    /// Read a host variable as f64s.
    pub fn host_read_f64(&self, var: VarId) -> Vec<f64> {
        self.host
            .bytes(var)
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(crate::kernel::le8(c)))
            .collect()
    }

    /// Instrumented host write: mutates bytes *and* notifies tools that
    /// model binary instrumentation (Arbalest). Advances no virtual time.
    pub fn host_store(&mut self, var: VarId, offset: usize, data: &[u8]) {
        let time = self.clock;
        let addr = self.host.addr(var);
        self.host.bytes_mut(var)[offset..offset + data.len()].copy_from_slice(data);
        if let Some(slot) = self.tool.as_mut() {
            slot.tool.on_host_access(&HostAccessInfo {
                host_addr: addr,
                bytes: data.len() as u64,
                is_write: true,
                time,
            });
        }
    }

    /// Instrumented host read marker (for use-of-stale-data analysis).
    pub fn host_load(&mut self, var: VarId) {
        let time = self.clock;
        let addr = self.host.addr(var);
        let bytes = self.host.size(var);
        if let Some(slot) = self.tool.as_mut() {
            slot.tool.on_host_access(&HostAccessInfo {
                host_addr: addr,
                bytes,
                is_write: false,
                time,
            });
        }
    }

    /// Model a host compute phase of `d` (advances the virtual clock).
    pub fn host_compute(&mut self, d: SimDuration) {
        self.clock += d;
    }

    // ---------------------------------------------------------------
    // Directives
    // ---------------------------------------------------------------

    /// Start a directive on `device`: check it may run, charge the host
    /// dispatch cost and take the construct's id.
    fn open_directive(&mut self, device: u32, codeptr: CodePtr) -> Directive {
        self.assert_running(device);
        self.dispatch_overhead();
        let target_id = self.next_target_id;
        self.next_target_id += 1;
        Directive {
            device,
            target_id,
            codeptr,
        }
    }

    /// Report `at` as a `kind` construct: Begin, `body`, End.
    fn construct(
        &mut self,
        kind: TargetConstructKind,
        at: Directive,
        body: impl FnOnce(&mut Self),
    ) {
        self.emit_target(kind, Endpoint::Begin, at);
        body(self);
        self.emit_target(kind, Endpoint::End, at);
    }

    /// `#pragma omp target data map(...)` — begin of the structured
    /// region. Must be closed with [`Runtime::target_data_end`].
    pub fn target_data_begin(
        &mut self,
        device: u32,
        codeptr: CodePtr,
        maps: &[Map],
    ) -> DataRegionHandle {
        let at = self.open_directive(device, codeptr);
        self.construct(TargetConstructKind::TargetData, at, |rt| {
            for &m in maps {
                rt.map_enter(at, m, false);
            }
        });
        self.open_regions.push(OpenRegion {
            at,
            maps: maps.to_vec(),
        });
        DataRegionHandle(self.open_regions.len() - 1)
    }

    /// End of a structured `target data` region. Regions must close in
    /// LIFO order (they are lexically nested in the source). Reported
    /// under the id the region was opened with.
    pub fn target_data_end(&mut self, handle: DataRegionHandle) {
        self.dispatch_overhead();
        assert_eq!(
            handle.0 + 1,
            self.open_regions.len(),
            "target data regions must close in LIFO order"
        );
        let Some(region) = self.open_regions.pop() else {
            unreachable!("length asserted above")
        };
        self.construct(TargetConstructKind::TargetData, region.at, |rt| {
            for &m in region.maps.iter().rev() {
                rt.map_exit(region.at, m);
            }
        });
    }

    /// `#pragma omp target enter data map(to|alloc: ...)`.
    pub fn target_enter_data(&mut self, device: u32, codeptr: CodePtr, maps: &[Map]) {
        let at = self.open_directive(device, codeptr);
        self.construct(TargetConstructKind::TargetEnterData, at, |rt| {
            for &m in maps {
                rt.map_enter(at, m, false);
            }
        });
    }

    /// `#pragma omp target exit data map(from|release|delete: ...)`.
    pub fn target_exit_data(&mut self, device: u32, codeptr: CodePtr, maps: &[Map]) {
        let at = self.open_directive(device, codeptr);
        self.construct(TargetConstructKind::TargetExitData, at, |rt| {
            for &m in maps {
                rt.map_exit(at, m);
            }
        });
    }

    /// `#pragma omp target update to(...)`.
    pub fn target_update_to(&mut self, device: u32, codeptr: CodePtr, vars: &[VarId]) {
        self.target_update(device, codeptr, vars, true);
    }

    /// `#pragma omp target update from(...)`.
    pub fn target_update_from(&mut self, device: u32, codeptr: CodePtr, vars: &[VarId]) {
        self.target_update(device, codeptr, vars, false);
    }

    fn target_update(&mut self, device: u32, codeptr: CodePtr, vars: &[VarId], h2d: bool) {
        let at = self.open_directive(device, codeptr);
        self.construct(TargetConstructKind::TargetUpdate, at, |rt| {
            for &var in vars {
                let present = &rt.devices[device as usize].present;
                match present.lookup(rt.host.addr(var)).map(|e| e.dev_addr) {
                    Some(dev_addr) => rt.do_transfer(at, var, dev_addr, h2d),
                    None => rt.warnings.push(RuntimeWarning::UpdateOfAbsentData {
                        var: rt.host.var(var).name.clone(),
                    }),
                }
            }
        });
    }

    /// `#pragma omp target map(...)` — map data, run the kernel, unwind.
    ///
    /// Variables the kernel references that are neither explicitly mapped
    /// nor already present are mapped implicitly `tofrom`, per the
    /// OpenMP default for aggregates (the behaviour Listing 2 exhibits).
    pub fn target(&mut self, device: u32, codeptr: CodePtr, maps: &[Map], kernel: Kernel<'_>) {
        self.target_construct(device, codeptr, maps, kernel, true);
    }

    /// `#pragma omp target nowait` — asynchronous offload (OpenMP 5.1;
    /// paper §7.8). The kernel is enqueued on the device and the host
    /// continues after the launch overhead; the kernel's submit events
    /// span its *actual* device execution window, so transfers issued
    /// meanwhile genuinely overlap it (exercising Algorithm 5's
    /// conservative overlap handling). Exit-side data motion
    /// synchronizes with the device, as the OpenMP data environment
    /// requires; combine with persistent `target data` regions and
    /// [`Runtime::taskwait`] for real overlap.
    pub fn target_nowait(
        &mut self,
        device: u32,
        codeptr: CodePtr,
        maps: &[Map],
        kernel: Kernel<'_>,
    ) {
        self.target_construct(device, codeptr, maps, kernel, false);
    }

    /// A `target` construct: enter the effective data environment
    /// (explicit maps, then implicit `tofrom` for referenced-but-unmapped
    /// variables), run the kernel — the host waits for it, or not — and
    /// unwind the environment in reverse.
    fn target_construct(
        &mut self,
        device: u32,
        codeptr: CodePtr,
        maps: &[Map],
        kernel: Kernel<'_>,
        wait: bool,
    ) {
        let at = self.open_directive(device, codeptr);
        self.construct(TargetConstructKind::Target, at, |rt| {
            let referenced = kernel.referenced_vars();
            let mut effective: Vec<Map> = maps.to_vec();
            for &var in &referenced {
                if !effective.iter().any(|m| m.var == var) {
                    effective.push(Map {
                        var,
                        map_type: MapType::ToFrom,
                        modifier: MapModifier::NONE,
                    });
                }
            }
            for &m in &effective {
                rt.map_enter(at, m, referenced.contains(&m.var));
            }
            rt.run_kernel(at, kernel, &referenced, wait);
            // The data-environment exit must wait for an asynchronous
            // kernel whenever it moves or frees data the kernel may
            // still be using.
            if !wait {
                let present = &rt.devices[device as usize].present;
                let must_sync = effective.iter().any(|m| {
                    let refcount = present
                        .lookup(rt.host.addr(m.var))
                        .map(|e| e.refcount)
                        .unwrap_or(0);
                    m.map_type.copies_from_device()
                        || m.map_type == MapType::Delete
                        || refcount <= 1
                });
                if must_sync {
                    rt.taskwait(device);
                }
            }
            for &m in effective.iter().rev() {
                rt.map_exit(at, m);
            }
        });
    }

    /// `#pragma omp taskwait` — block the host until `device`'s
    /// asynchronously launched kernels complete.
    pub fn taskwait(&mut self, device: u32) {
        self.assert_running(device);
        let busy = self.devices[device as usize].busy_until;
        if busy > self.clock {
            self.clock = busy;
        }
    }

    /// Execute `kernel` (whose variables are `referenced`) on the
    /// directive's device. It queues behind any asynchronously launched
    /// kernel and its submit events span the device-side execution
    /// window. With `wait` the host blocks until it completes
    /// (`target`); without, the host returns after the launch overhead
    /// and the device stays busy (`target nowait`).
    fn run_kernel(&mut self, at: Directive, kernel: Kernel<'_>, referenced: &[VarId], wait: bool) {
        let start = self.devices[at.device as usize].busy_until.max(self.clock);
        let launch = SimDuration(self.cfg.timing.kernel_launch_ns);
        let dur = launch + kernel.cost.duration();
        let end = start + dur;
        self.emit_submit(Endpoint::Begin, at, kernel.num_teams, start);

        // Gather device buffers for the kernel's variables: borrow each
        // by move (`DeviceMemory::lend`) so the body can hold simultaneous
        // &mut views; write-back restores the same allocations.
        let dev = &mut self.devices[at.device as usize];
        let mut taken: Vec<(VarId, u64, Vec<u8>)> = Vec::with_capacity(referenced.len());
        for &var in referenced {
            let haddr = self.host.addr(var);
            // A referenced var is mapped after map_enter — unless the
            // mapping was skipped by a device OOM. The kernel then
            // computes on zeroed scratch storage whose writes are
            // discarded, instead of tearing the run down.
            let buf_for = |dev: &mut DeviceState| {
                let entry = dev.present.lookup(haddr).copied()?;
                Some((entry.dev_addr, dev.mem.lend(entry.dev_addr)?))
            };
            match buf_for(dev) {
                Some((dev_addr, buf)) => taken.push((var, dev_addr, buf)),
                None => taken.push((var, u64::MAX, vec![0u8; self.host.size(var) as usize])),
            }
        }

        // Instrumentation feed for access-tracking tools. Every variable
        // the kernel reads or writes is in `taken`.
        let range = |&var: &VarId| AccessRange {
            host_addr: self.host.addr(var),
            dev_addr: taken.iter().find(|(v, _, _)| *v == var).map_or(0, |t| t.1),
            bytes: self.host.size(var),
        };
        let access_info = KernelAccessInfo {
            device: DeviceId::target(at.device),
            target_id: at.target_id,
            reads: kernel.reads.iter().map(range).collect(),
            writes: kernel.writes.iter().map(range).collect(),
            masked_writes: kernel.masked_writes.iter().map(range).collect(),
            time: start,
        };

        // Execute the body (real compute) or the default mutation now,
        // deterministically; logically it completes at `end`.
        let mut kernel = kernel;
        {
            let mut view = DeviceView {
                vars: taken.iter_mut().map(|(v, _, b)| (*v, b, false)).collect(),
            };
            match kernel.body.take() {
                Some(body) => body(&mut view),
                None => {
                    for &var in kernel.writes.iter().chain(kernel.masked_writes.iter()) {
                        let buf = view.bytes_mut(var);
                        default_mutation(buf, at.target_id);
                    }
                }
            }
            // What the kernel declared writing, or its body took
            // mutably, no longer equals the host's copy (tracked only
            // for advised runs).
            let tracked = self.advisor.is_some();
            for &(var, _, took) in view.vars.iter().filter(|_| tracked) {
                if took || kernel.writes.contains(&var) || kernel.masked_writes.contains(&var) {
                    dev.present.set_synced(self.host.addr(var), None);
                }
            }
        }

        // Return the buffers to the device.
        for (_, dev_addr, buf) in taken {
            dev.mem.restore(dev_addr, buf);
        }

        if wait {
            // The host resumes when the kernel ends.
            self.clock = end;
        } else {
            dev.busy_until = end;
            self.clock += launch;
        }
        self.stats.kernels += 1;
        self.stats.kernel_time += dur;
        if let Some(slot) = self.tool.as_mut() {
            slot.tool.on_kernel_access(&access_info);
        }
        self.emit_submit(Endpoint::End, at, kernel.num_teams, end);
    }

    // ---------------------------------------------------------------
    // Map-clause machinery: clause semantics (§2.2), then the rewrite
    // an attached advisor asked for
    // ---------------------------------------------------------------

    /// Consult the attached advisor for one map item, or keep as written.
    fn consult(&self, device: u32, haddr: u64) -> MapAdvice {
        match &self.advisor {
            Some(advisor) => advisor.advise(device, haddr),
            None => MapAdvice::KEEP,
        }
    }

    /// Account a transfer a rewrite made unnecessary.
    fn note_avoided_transfer(&mut self, device: u32, cause: FindingKind, bytes: u64, h2d: bool) {
        let dur = self.cfg.timing.transfer_duration(bytes, h2d);
        let c = self.remedy.counter_mut(device, cause);
        c.transfers_avoided += 1;
        c.transfer_bytes_avoided += bytes;
        c.transfer_time_avoided += dur;
    }

    /// Account an allocation a rewrite made unnecessary.
    fn note_avoided_alloc(&mut self, device: u32, cause: FindingKind, bytes: u64) {
        let dur = self.cfg.timing.alloc.alloc_duration(bytes);
        let c = self.remedy.counter_mut(device, cause);
        c.allocs_avoided += 1;
        c.mgmt_time_avoided += dur;
    }

    /// Account a deallocation a rewrite made unnecessary.
    fn note_avoided_delete(&mut self, device: u32, cause: FindingKind) {
        let dur = self.cfg.timing.alloc.free_duration();
        let c = self.remedy.counter_mut(device, cause);
        c.deletes_avoided += 1;
        c.mgmt_time_avoided += dur;
    }

    /// One map item on a region-entry path: the clause's transition
    /// (`MapType::enter`), then the advisor's rewrite of it. `force_map`
    /// pins the clause for a variable the launching kernel references:
    /// elision and enter-copy downgrades (`skip_to`) are overridden (a
    /// mispredicting advisor may waste bandwidth but never leave a kernel
    /// without its data).
    fn map_enter(&mut self, at: Directive, m: Map, force_map: bool) {
        let device = at.device;
        let haddr = self.host.addr(m.var);
        let bytes = self.host.size(m.var);
        let advice = self.consult(device, haddr);
        let d = device as usize;
        let present = self.devices[d].present.lookup(haddr).copied();
        // A mapping alive only because remediation skipped its release
        // holds one *phantom* reference (the skip left the refcount at 1
        // with no real holder). A re-entry adopts it, standing for the
        // fresh mapping the baseline would make here.
        let phantom = present
            .filter(|e| e.refcount == 1)
            .and_then(|_| self.devices[d].retained.get(&haddr).copied());
        let refcount = present.map(|e| e.refcount).filter(|_| phantom.is_none());
        let mut step = m.map_type.enter(refcount, m.modifier.always);

        // Elide: drop the clause. Only meaningful while the data is
        // absent; present data is simply reused (persist semantics).
        if let Some(cause) = advice.elide.filter(|_| !force_map && present.is_none()) {
            if step.alloc {
                self.note_avoided_alloc(device, cause, bytes);
                if step.to {
                    self.note_avoided_transfer(device, cause, bytes, true);
                }
                self.remedy.counter_mut(device, cause).rewrites += 1;
            }
            return;
        }
        if step.absent {
            // release/delete of absent data on an *enter* path is a
            // programming error; record and move on.
            self.warnings.push(RuntimeWarning::ReleaseOfAbsentData {
                var: self.host.var(m.var).name.clone(),
            });
            return;
        }

        let dev_addr = match present {
            Some(entry) => {
                // Adoption consumes the mark and keeps the phantom
                // reference, counting the re-allocation the baseline
                // would have made as recovered. It skips the `to` copy
                // only while the resident copy equals the host's; under
                // `always` the copy happens (or is booked by skip_to)
                // regardless of residency.
                if let Some(cause) = phantom {
                    self.devices[d].retained.remove(&haddr);
                    self.note_avoided_alloc(device, cause, bytes);
                    if step.to && !m.modifier.always && self.in_sync(&entry, m.var) {
                        self.note_avoided_transfer(device, cause, bytes, true);
                        step.to = false;
                    }
                }
                self.devices[d].present.set_refcount(haddr, step.refcount);
                entry.dev_addr
            }
            None => {
                let Some(dev_addr) = self.do_alloc(at, m.var) else {
                    // Device OOM: the mapping is skipped; the kernel
                    // path substitutes scratch storage.
                    return;
                };
                self.devices[d].present.insert(haddr, dev_addr);
                dev_addr
            }
        };

        if step.to {
            match advice.skip_to {
                // to → alloc: the data lands uninitialized (or stays as
                // it was), which Algorithm 5 proved no kernel will
                // notice. Like elision, never applied to a variable the
                // launching kernel references.
                Some(cause) if !force_map => {
                    self.note_avoided_transfer(device, cause, bytes, true);
                    self.remedy.counter_mut(device, cause).rewrites += 1;
                    // To the program the copy happened (no kernel reads
                    // the variable first; one that writes it clears this).
                    self.devices[d]
                        .present
                        .set_synced(haddr, self.host.copy(m.var));
                }
                _ => self.do_transfer(at, m.var, dev_addr, true),
            }
        }
    }

    /// Does the device copy `entry` provably equal the host's copy of
    /// `var` (no kernel or host write since the last transfer between
    /// the two)? Tracked only while an advisor, the one reader, is on.
    fn in_sync(&self, entry: &PresentEntry, var: VarId) -> bool {
        entry.synced.is_some() && entry.synced == self.host.copy(var)
    }

    /// One map item on a region-exit path: the clause's transition
    /// (`MapType::exit`), then the advisor's rewrite of it.
    fn map_exit(&mut self, at: Directive, m: Map) {
        let device = at.device;
        let haddr = self.host.addr(m.var);
        let bytes = self.host.size(m.var);
        let advice = self.consult(device, haddr);
        let d = device as usize;
        let entry = self.devices[d].present.lookup(haddr).copied();
        let refcount = entry.map(|e| e.refcount);
        let step = m.map_type.exit(refcount, m.modifier.always);
        let Some(entry) = entry.filter(|_| !step.absent) else {
            // Elided at enter: exit silently too.
            if advice.elide.is_none() {
                let var = self.host.var(m.var).name.clone();
                self.warnings.push(if m.map_type == MapType::Delete {
                    RuntimeWarning::DeleteOfAbsentData { var }
                } else {
                    RuntimeWarning::ReleaseOfAbsentData { var }
                });
            }
            return;
        };
        // Persist: an exit that would free the mapping keeps it resident
        // under a phantom reference instead; re-entries adopt it.
        let keep = advice.persist.or(advice.elide).filter(|_| step.free);

        if step.from {
            // The last-reference copy of a kept mapping survives as the
            // persist rewrite's targeted update (host visibility
            // preserved, no delete/re-send round trip) and is booked
            // under that rewrite, not as one of its own.
            let update_of = keep.filter(|_| !m.modifier.always);
            // from → release only while the copy-back is provably
            // redundant: the host already holds the device's bytes.
            match advice.skip_from.filter(|_| self.in_sync(&entry, m.var)) {
                Some(cause) => {
                    self.note_avoided_transfer(device, cause, bytes, false);
                    if update_of.is_none() {
                        self.remedy.counter_mut(device, cause).rewrites += 1;
                    }
                }
                None => {
                    self.do_transfer(at, m.var, entry.dev_addr, false);
                    if let Some(cause) = update_of {
                        let c = self.remedy.counter_mut(device, cause);
                        c.updates_injected += 1;
                        c.update_bytes += bytes;
                    }
                }
            }
        }

        if let Some(cause) = keep {
            self.devices[d].retained.insert(haddr, cause);
            self.note_avoided_delete(device, cause);
            self.remedy.counter_mut(device, cause).rewrites += 1;
            return;
        }
        self.devices[d].present.set_refcount(haddr, step.refcount);
        if step.free {
            self.do_delete(at, m.var, entry.dev_addr);
        }
    }

    // ---------------------------------------------------------------
    // Primitive data operations (each = one OMPT data-op event): only
    // what differs per operation; `data_op` does the rest
    // ---------------------------------------------------------------

    /// Allocate device memory for `var`. Returns `None` — with a
    /// [`RuntimeWarning::DeviceOutOfMemory`] recorded and no event
    /// emitted — when capacity is exhausted or an injected OOM fault
    /// fires; the caller skips the mapping and the run degrades
    /// gracefully instead of panicking.
    fn do_alloc(&mut self, at: Directive, var: VarId) -> Option<u64> {
        let bytes = self.host.size(var);
        let dev_addr = if self.faults.alloc_fails() {
            None
        } else {
            self.devices[at.device as usize].mem.alloc(bytes)
        };
        let Some(dev_addr) = dev_addr else {
            self.warnings.push(RuntimeWarning::DeviceOutOfMemory {
                var: self.host.var(var).name.clone(),
                bytes,
            });
            return None;
        };
        let dur = self.cfg.timing.alloc.alloc_duration(bytes);
        self.stats.allocs += 1;
        self.stats.alloc_time += dur;
        self.data_op(at, DataOpType::Alloc, var, dev_addr, dur);
        Some(dev_addr)
    }

    fn do_delete(&mut self, at: Directive, var: VarId, dev_addr: u64) {
        let freed = self.devices[at.device as usize].mem.free(dev_addr);
        debug_assert!(freed, "delete of unallocated device memory");
        let dur = self.cfg.timing.alloc.free_duration();
        self.stats.alloc_time += dur;
        self.data_op(at, DataOpType::Delete, var, dev_addr, dur);
    }

    /// Copy `var` host → device (`h2d`) or device → host.
    fn do_transfer(&mut self, at: Directive, var: VarId, dev_addr: u64, h2d: bool) {
        let bytes = self.host.size(var);
        // Real byte movement through a staging copy (part of the
        // simulator's per-transfer cost, which the ledger's `slowdown`
        // divides by). A mapping is allocated at its variable's size, and
        // each host address belongs to one variable.
        let dev = &mut self.devices[at.device as usize];
        if let Some(buf) = dev.mem.bytes_mut(dev_addr) {
            if h2d {
                let staged = self.host.bytes(var).to_vec();
                buf.copy_from_slice(&staged);
            } else {
                let staged = buf.to_vec();
                self.host.bytes_mut(var).copy_from_slice(&staged);
            }
            if let Some(copy) = self.host.copy(var) {
                dev.present.set_synced(self.host.addr(var), Some(copy));
            }
        }
        self.absorb_transfer_retries(var, bytes, h2d);
        let dur = self.cfg.timing.transfer_duration(bytes, h2d);
        self.stats.transfers += 1;
        self.stats.bytes_transferred += bytes;
        self.stats.transfer_time += dur;
        let optype = if h2d {
            DataOpType::TransferToDevice
        } else {
            DataOpType::TransferFromDevice
        };
        self.data_op(at, optype, var, dev_addr, dur);
    }

    /// Consult the fault plan for injected transfer failures: each
    /// failed attempt costs a full flight plus exponential backoff
    /// before the retry, absorbed into the clock ahead of the
    /// successful attempt (whose event span stays clean).
    fn absorb_transfer_retries(&mut self, var: VarId, bytes: u64, h2d: bool) {
        let failures = self.faults.transfer_failures();
        if failures == 0 {
            return;
        }
        let flight = self.cfg.timing.transfer_duration(bytes, h2d);
        let latency = if h2d {
            self.cfg.timing.h2d.latency_ns
        } else {
            self.cfg.timing.d2h.latency_ns
        };
        let mut penalty = SimDuration(0);
        for attempt in 0..failures {
            penalty += flight + SimDuration(latency << attempt);
        }
        self.clock += penalty;
        self.stats.transfer_time += penalty;
        self.warnings.push(RuntimeWarning::TransferRetried {
            var: self.host.var(var).name.clone(),
            attempts: failures,
        });
    }

    // ---------------------------------------------------------------
    // OMPT dispatch (one gate: `ToolSlot::sees`)
    // ---------------------------------------------------------------

    /// One data operation on `var`'s device copy at `dev_addr`, taking
    /// `dur`: advance the clock, take the op id and report the event —
    /// EMI Begin/End, or the begin-only callback — with whatever fault
    /// the plan draws for it.
    fn data_op(
        &mut self,
        at: Directive,
        optype: DataOpType,
        var: VarId,
        dev_addr: u64,
        dur: SimDuration,
    ) {
        let (t0, t1) = (self.clock, self.clock + dur);
        self.clock = t1;
        let host_op_id = self.next_host_op_id;
        self.next_host_op_id += 1;
        let Some(slot) = self.tool.as_mut() else {
            return;
        };
        let sees = |e| slot.sees(CallbackKind::TargetDataOpEmi, CallbackKind::TargetDataOp, e);
        if !sees(Endpoint::Begin) {
            return;
        }
        let emi = sees(Endpoint::End);
        let fault = self.faults.on_data_op(optype.is_transfer());
        let device = if fault == DataOpFault::CorruptDevice {
            at.device + CORRUPT_DEVICE_OFFSET
        } else {
            at.device
        };
        // OMPT operand conventions: the host side is the source of
        // every operation but a copy back.
        let host_end = (DeviceId::HOST, self.host.addr(var));
        let dev_end = (DeviceId::target(device), dev_addr);
        let ((src_device, src_addr), (dest_device, dest_addr)) =
            if optype == DataOpType::TransferFromDevice {
                (dev_end, host_end)
            } else {
                (host_end, dev_end)
            };
        // Only transfers carry content: `var`'s host bytes, in both
        // directions (a D2H has just made the host copy equal the
        // device's). Payload faults act on an owned copy so host memory
        // itself stays intact.
        let bytes = self.host.size(var);
        let content = self.host.bytes(var);
        let faulted: Option<Vec<u8>> = match fault {
            DataOpFault::TruncatePayload => Some(content[..content.len() / 2].to_vec()),
            DataOpFault::CorruptPayload => {
                let mut p = content.to_vec();
                flip_payload_bit(&mut p, host_op_id);
                Some(p)
            }
            _ => None,
        };
        let payload = optype
            .is_transfer()
            .then(|| faulted.as_deref().unwrap_or(content));
        let mk = |endpoint, time, payload| DataOpCallback {
            endpoint,
            target_id: at.target_id,
            host_op_id,
            optype,
            src_device,
            src_addr,
            dest_device,
            dest_addr,
            bytes,
            codeptr_ra: at.codeptr,
            time,
            payload,
        };
        if emi {
            if fault != DataOpFault::DropBegin {
                slot.tool.on_data_op(&mk(Endpoint::Begin, t0, None));
            }
            if fault != DataOpFault::DropEnd {
                slot.tool.on_data_op(&mk(Endpoint::End, t1, payload));
                if fault == DataOpFault::DuplicateEnd {
                    slot.tool.on_data_op(&mk(Endpoint::End, t1, payload));
                }
            }
        } else if fault != DataOpFault::DropBegin {
            // Begin-only, and the payload is observable at start for a
            // pointer-chasing tool, so hand it over here.
            slot.tool.on_data_op(&mk(Endpoint::Begin, t0, payload));
        }
    }

    fn emit_target(&mut self, construct: TargetConstructKind, endpoint: Endpoint, at: Directive) {
        let time = self.clock;
        let Some(slot) = self.tool.as_mut() else {
            return;
        };
        if slot.sees(CallbackKind::TargetEmi, CallbackKind::Target, endpoint) {
            slot.tool.on_target(&TargetCallback {
                endpoint,
                construct,
                device: DeviceId::target(at.device),
                target_id: at.target_id,
                codeptr_ra: at.codeptr,
                time,
            });
        }
    }

    fn emit_submit(&mut self, endpoint: Endpoint, at: Directive, num_teams: u32, time: SimTime) {
        let Some(slot) = self.tool.as_mut() else {
            return;
        };
        if slot.sees(
            CallbackKind::TargetSubmitEmi,
            CallbackKind::TargetSubmit,
            endpoint,
        ) {
            slot.tool.on_submit(&SubmitCallback {
                endpoint,
                target_id: at.target_id,
                device: DeviceId::target(at.device),
                requested_num_teams: num_teams,
                codeptr_ra: at.codeptr,
                time,
            });
        }
    }

    // ---------------------------------------------------------------
    // Lifecycle
    // ---------------------------------------------------------------

    /// Finish the run: finalize the tool and return run statistics.
    pub fn finish(&mut self) -> RuntimeStats {
        assert!(!self.finished, "finish() called twice");
        assert!(
            self.open_regions.is_empty(),
            "target data region left open at program end"
        );
        self.finished = true;
        self.stats.total_time = SimDuration(self.clock.as_nanos());
        if let Some(slot) = self.tool.as_mut() {
            slot.tool.finalize(self.clock.as_nanos());
        }
        self.stats
    }

    /// Statistics so far (valid any time; total_time set at finish).
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Peak device memory in use on `device`.
    #[cfg(test)]
    fn device_peak_bytes(&self, device: u32) -> u64 {
        self.devices[device as usize].mem.peak_in_use()
    }

    /// Live present-table mappings on `device`.
    #[cfg(test)]
    pub(crate) fn present_mappings(&self, device: u32) -> usize {
        self.devices[device as usize].present.len()
    }

    /// Advance the clock by the host-side directive dispatch overhead.
    fn dispatch_overhead(&mut self) {
        self.clock += SimDuration(self.cfg.timing.host_dispatch_ns);
    }

    fn assert_running(&self, device: u32) {
        assert!(!self.finished, "directive after finish()");
        assert!(
            (device as usize) < self.devices.len(),
            "device {device} out of range ({} devices)",
            self.devices.len()
        );
    }
}

/// Deterministic default mutation for written buffers when a kernel has
/// no real body: stamps a salt-derived value into the head and bumps a
/// sparse stride, so distinct launches always produce distinct content
/// (the stamp mix is bijective in the salt) while staying cheap.
fn default_mutation(buf: &mut [u8], salt: u64) {
    if buf.is_empty() {
        return;
    }
    // SplitMix64 finalizer: bijective, so different target ids can never
    // stamp identical bytes into buffers of ≥ 8 bytes.
    let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let stamp = z ^ (z >> 31);

    let k = buf.len().min(8);
    buf[..k].copy_from_slice(&stamp.to_le_bytes()[..k]);
    let step = (buf.len() / 64).max(1);
    let mut i = k;
    while i < buf.len() {
        buf[i] = buf[i].wrapping_add((stamp as u8) | 1);
        i += step;
    }
    let last = buf.len() - 1;
    buf[last] = buf[last].wrapping_add((stamp >> 8) as u8 | 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelCost;
    use crate::{map, map_always};
    use std::sync::Mutex;

    /// A recording tool capturing every callback for assertions.
    #[derive(Default)]
    struct Recorder {
        events: Arc<Mutex<Vec<String>>>,
        hashes_seen: Arc<Mutex<Vec<u64>>>,
    }

    impl Tool for Recorder {
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

        fn on_target(&mut self, cb: &TargetCallback) {
            self.events
                .lock()
                .unwrap()
                .push(format!("target {:?} {:?}", cb.construct, cb.endpoint));
        }

        fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
            if cb.endpoint == Endpoint::End {
                self.events
                    .lock()
                    .unwrap()
                    .push(format!("dataop {:?} {} bytes", cb.optype, cb.bytes));
                if let Some(p) = cb.payload {
                    self.hashes_seen.lock().unwrap().push(odp_hash_stub(p));
                }
            }
        }

        fn on_submit(&mut self, cb: &SubmitCallback) {
            self.events
                .lock()
                .unwrap()
                .push(format!("submit {:?}", cb.endpoint));
        }
    }

    /// Cheap stand-in hash for tests (the real tool uses odp-hash).
    fn odp_hash_stub(data: &[u8]) -> u64 {
        data.iter().fold(0xcbf29ce484222325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    }

    #[allow(clippy::type_complexity)]
    fn recorder_runtime() -> (Runtime, Arc<Mutex<Vec<String>>>, Arc<Mutex<Vec<u64>>>) {
        let mut rt = Runtime::with_defaults();
        let events = Arc::new(Mutex::new(Vec::new()));
        let hashes = Arc::new(Mutex::new(Vec::new()));
        rt.attach_tool(Box::new(Recorder {
            events: events.clone(),
            hashes_seen: hashes.clone(),
        }));
        (rt, events, hashes)
    }

    /// FNV-1a fold of everything a tool can observe, one word at a time.
    struct Digest(u64);

    impl Digest {
        fn new() -> Self {
            Digest(0xcbf2_9ce4_8422_2325)
        }
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn text(&mut self, s: &str) {
            self.word(s.len() as u64);
            self.word(odp_hash_stub(s.as_bytes()));
        }
        fn access(&mut self, ranges: &[AccessRange]) {
            self.word(ranges.len() as u64);
            for r in ranges {
                self.word(r.host_addr);
                self.word(r.dev_addr);
                self.word(r.bytes);
            }
        }
    }

    /// Folds every field of every callback, in arrival order.
    struct Transcript(Arc<Mutex<Digest>>);

    impl Tool for Transcript {
        fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
            // EMI and the deprecated forms: a pre-EMI runtime grants only
            // the latter, which is the begin-only stream.
            ToolRegistration::negotiate(
                &[
                    CallbackKind::TargetEmi,
                    CallbackKind::TargetDataOpEmi,
                    CallbackKind::TargetSubmitEmi,
                    CallbackKind::Target,
                    CallbackKind::TargetDataOp,
                    CallbackKind::TargetSubmit,
                ],
                caps,
            )
        }

        fn on_target(&mut self, cb: &TargetCallback) {
            let mut d = self.0.lock().unwrap();
            d.word(1);
            d.word(cb.endpoint as u64);
            d.word(cb.construct as u64);
            d.word(cb.device.raw() as u64);
            d.word(cb.target_id);
            d.word(cb.codeptr_ra.0);
            d.word(cb.time.as_nanos());
        }

        fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
            let mut d = self.0.lock().unwrap();
            d.word(2);
            d.word(cb.endpoint as u64);
            d.word(cb.target_id);
            d.word(cb.host_op_id);
            d.word(cb.optype as u64);
            d.word(cb.src_device.raw() as u64);
            d.word(cb.src_addr);
            d.word(cb.dest_device.raw() as u64);
            d.word(cb.dest_addr);
            d.word(cb.bytes);
            d.word(cb.codeptr_ra.0);
            d.word(cb.time.as_nanos());
            match cb.payload {
                Some(p) => {
                    d.word(1 + p.len() as u64);
                    d.word(odp_hash_stub(p));
                }
                None => d.word(0),
            }
        }

        fn on_submit(&mut self, cb: &SubmitCallback) {
            let mut d = self.0.lock().unwrap();
            d.word(3);
            d.word(cb.endpoint as u64);
            d.word(cb.target_id);
            d.word(cb.device.raw() as u64);
            d.word(cb.requested_num_teams as u64);
            d.word(cb.codeptr_ra.0);
            d.word(cb.time.as_nanos());
        }

        fn on_kernel_access(&mut self, info: &KernelAccessInfo) {
            let mut d = self.0.lock().unwrap();
            d.word(4);
            d.word(info.device.raw() as u64);
            d.word(info.target_id);
            d.access(&info.reads);
            d.access(&info.writes);
            d.access(&info.masked_writes);
            d.word(info.time.as_nanos());
        }

        fn on_host_access(&mut self, info: &HostAccessInfo) {
            let mut d = self.0.lock().unwrap();
            d.word(5);
            d.word(info.host_addr);
            d.word(info.bytes);
            d.word(info.is_write as u64);
            d.word(info.time.as_nanos());
        }

        fn finalize(&mut self, total_time_ns: u64) {
            let mut d = self.0.lock().unwrap();
            d.word(6);
            d.word(total_time_ns);
        }
    }

    /// Every directive the runtime implements, on two devices, with
    /// enough rounds that each seeded fault class fires.
    fn every_directive(rt: &mut Runtime) {
        let a = rt.host_alloc("a", 256);
        let b = rt.host_alloc("b", 96);
        let c = rt.host_alloc("c", 64);
        let d = rt.host_alloc("d", 40);
        let ghost = rt.host_alloc("ghost", 32);
        rt.host_fill_u32(a, |i| i as u32);
        rt.host_fill_u32(b, |i| 7 * i as u32 + 1);
        for round in 0..8u64 {
            let dev = (round % 2) as u32;
            let other = 1 - dev;
            let at = |n: u64| CodePtr(0x100 * (round % 3 + 1) + n);
            // Nested structured regions; the inner one re-maps `a`.
            let outer = rt.target_data_begin(
                dev,
                at(1),
                &[map(MapType::ToFrom, a), map(MapType::Alloc, c)],
            );
            let inner =
                rt.target_data_begin(dev, at(2), &[map(MapType::To, a), map(MapType::To, b)]);
            // `always to` of present data; `c` is present, so not implicit.
            rt.target(
                dev,
                at(3),
                &[map_always(MapType::To, a)],
                Kernel::new("k", KernelCost::fixed(700))
                    .reads(&[a, b])
                    .writes(&[c])
                    .teams(4),
            );
            rt.target_update_from(dev, at(4), &[c, ghost]);
            rt.host_load(c);
            rt.host_store(a, 8, &round.to_le_bytes());
            rt.target_update_to(dev, at(5), &[a]);
            rt.target_data_end(inner);
            // Unstructured mapping; a `release` on an enter path warns.
            rt.target_enter_data(
                dev,
                at(6),
                &[map(MapType::To, b), map(MapType::Release, ghost)],
            );
            // Implicit `tofrom` of `d`, masked writes.
            rt.target(
                dev,
                at(7),
                &[map(MapType::To, b)],
                Kernel::new("implicit", KernelCost::fixed(300))
                    .reads(&[b, d])
                    .masked_writes(&[d]),
            );
            // Asynchronous kernel over resident data: the update and the
            // host phase overlap it until the taskwait.
            rt.target_nowait(
                dev,
                at(8),
                &[map(MapType::To, b), map(MapType::Alloc, c)],
                Kernel::new("async", KernelCost::fixed(50_000))
                    .reads(&[b])
                    .writes(&[c]),
            );
            rt.target_update_from(dev, at(9), &[a]);
            rt.host_compute(SimDuration(1_000));
            rt.taskwait(dev);
            // Asynchronous kernel whose implicit copy-back forces a sync.
            rt.target_nowait(
                dev,
                at(10),
                &[],
                Kernel::new("sync", KernelCost::fixed(9_000))
                    .reads(&[d])
                    .writes(&[d]),
            );
            // `always from` while references remain; absent release/delete.
            rt.target_exit_data(
                dev,
                at(11),
                &[
                    map_always(MapType::From, a),
                    map(MapType::Release, ghost),
                    map(MapType::Delete, ghost),
                ],
            );
            rt.target_exit_data(dev, at(12), &[map(MapType::Delete, b)]);
            // The other device maps the same host data independently.
            rt.target(
                other,
                at(13),
                &[map(MapType::To, a), map(MapType::From, c)],
                Kernel::new("other", KernelCost::fixed(200))
                    .reads(&[a])
                    .writes(&[c]),
            );
            rt.target_data_end(outer);
        }
    }

    fn transcript_digest(pre_emi: bool, faults: crate::faults::FaultPlan) -> u64 {
        // Clones of a plan share its totals.
        let totals = faults.clone();
        let mut cfg = RuntimeConfig::default().with_devices(2).with_faults(faults);
        if pre_emi {
            cfg = cfg.pre_emi();
        }
        let mut rt = Runtime::new(cfg);
        let digest = Arc::new(Mutex::new(Digest::new()));
        rt.attach_tool(Box::new(Transcript(digest.clone())));
        every_directive(&mut rt);
        let stats = rt.finish();
        let mut d = digest.lock().unwrap();
        d.word(rt.warnings().len() as u64);
        for w in rt.warnings() {
            d.text(&format!("{w:?}"));
        }
        d.word(stats.total_time.as_nanos());
        d.word(stats.transfers as u64);
        d.word(stats.bytes_transferred);
        d.word(stats.allocs as u64);
        d.word(stats.kernels as u64);
        d.word(stats.transfer_time.as_nanos());
        d.word(stats.alloc_time.as_nanos());
        d.word(stats.kernel_time.as_nanos());
        for dev in 0..2 {
            d.word(rt.device_peak_bytes(dev));
            d.word(rt.present_mappings(dev) as u64);
        }
        d.text(&totals.counts().summary());
        d.0
    }

    /// The exact callback stream — every field, the payload content, the
    /// warnings and the statistics — under EMI and begin-only dispatch,
    /// clean and under each fault profile. The constants were produced by
    /// the runtime as of PR 18; a refactor of the directive layer must
    /// reproduce them unmodified.
    #[test]
    fn callback_transcript_is_pinned() {
        use crate::faults::{FaultPlan, FaultProfile};
        const SEED: u64 = 5;
        const EXPECTED: [(FaultProfile, u64, u64); 5] = [
            (
                FaultProfile::None,
                0xad50_4cc3_5573_0ff3,
                0x7fd2_c3e8_5100_22bb,
            ),
            (
                FaultProfile::Lossy,
                0x5206_c6fb_512d_ea39,
                0x642c_350b_8252_9c57,
            ),
            (
                FaultProfile::Hostile,
                0x780e_498f_c70b_108c,
                0xeccc_dd7e_f439_0aa9,
            ),
            (
                FaultProfile::Stalled,
                0x2d85_3739_d8e3_a20b,
                0x65c7_236d_368e_138d,
            ),
            (
                FaultProfile::Oom,
                0x7133_41ce_5377_c4df,
                0x5f62_d294_5114_80bf,
            ),
        ];
        let got: Vec<(FaultProfile, u64, u64)> = EXPECTED
            .iter()
            .map(|&(profile, _, _)| {
                let plan = || FaultPlan::from_profile(profile, SEED);
                (
                    profile,
                    transcript_digest(false, plan()),
                    transcript_digest(true, plan()),
                )
            })
            .collect();
        assert_eq!(
            got, EXPECTED,
            "(profile, EMI digest, pre-EMI digest); got:\n{got:#x?}"
        );
    }

    #[test]
    fn listing1_duplicate_transfer_shape() {
        // Two back-to-back target regions mapping the same `to:` array:
        // alloc+H2D+delete twice, with identical payload → same hash.
        let (mut rt, events, hashes) = recorder_runtime();
        let a = rt.host_alloc("a", 1024);
        rt.host_fill_u32(a, |i| i as u32);
        for _ in 0..2 {
            rt.target(
                0,
                CodePtr(0x100),
                &[map(MapType::To, a)],
                Kernel::new("sum", KernelCost::fixed(1_000)).reads(&[a]),
            );
        }
        rt.finish();
        let ev = events.lock().unwrap();
        let h2d = ev.iter().filter(|e| e.contains("TransferToDevice")).count();
        let allocs = ev.iter().filter(|e| e.contains("Alloc")).count();
        let deletes = ev.iter().filter(|e| e.contains("Delete")).count();
        assert_eq!(h2d, 2, "duplicate transfer: {ev:?}");
        assert_eq!(allocs, 2, "repeated allocation");
        assert_eq!(deletes, 2);
        let hs = hashes.lock().unwrap();
        assert_eq!(hs.len(), 2);
        assert_eq!(hs[0], hs[1], "identical payloads hash identically");
    }

    #[test]
    fn target_data_region_suppresses_remapping() {
        // Listing 1's fix: wrap both regions in `target data map(to: a)`.
        let (mut rt, events, _) = recorder_runtime();
        let a = rt.host_alloc("a", 1024);
        let region = rt.target_data_begin(0, CodePtr(0x90), &[map(MapType::To, a)]);
        for _ in 0..2 {
            rt.target(
                0,
                CodePtr(0x100),
                &[map(MapType::To, a)],
                Kernel::new("sum", KernelCost::fixed(1_000)).reads(&[a]),
            );
        }
        rt.target_data_end(region);
        rt.finish();
        let ev = events.lock().unwrap();
        let h2d = ev.iter().filter(|e| e.contains("TransferToDevice")).count();
        let allocs = ev.iter().filter(|e| e.contains("Alloc")).count();
        assert_eq!(h2d, 1, "single transfer inside the data region: {ev:?}");
        assert_eq!(allocs, 1);
    }

    #[test]
    fn implicit_tofrom_round_trip() {
        // Listing 2: no explicit map → implicit tofrom each iteration.
        let (mut rt, events, hashes) = recorder_runtime();
        let a = rt.host_alloc("a", 4096);
        for _ in 0..3 {
            rt.target(
                0,
                CodePtr(0x200),
                &[],
                Kernel::new("incr", KernelCost::fixed(500))
                    .reads(&[a])
                    .writes(&[a]),
            );
        }
        rt.finish();
        let ev = events.lock().unwrap();
        let h2d = ev.iter().filter(|e| e.contains("TransferToDevice")).count();
        let d2h = ev
            .iter()
            .filter(|e| e.contains("TransferFromDevice"))
            .count();
        assert_eq!(h2d, 3);
        assert_eq!(d2h, 3);
        // Round-trip: D2H of iteration i has the same content as H2D of
        // iteration i+1 (kernel mutates on device, host copies it back).
        let hs = hashes.lock().unwrap();
        // order: h2d0, d2h0, h2d1, d2h1, h2d2, d2h2
        assert_eq!(hs[1], hs[2], "round trip between iterations");
        assert_eq!(hs[3], hs[4]);
        // And the kernel really mutates: h2d0 != d2h0.
        assert_ne!(hs[0], hs[1]);
    }

    #[test]
    fn kernel_body_runs_real_compute() {
        let mut rt = Runtime::with_defaults();
        let x = rt.host_alloc("x", 8 * 8);
        rt.host_fill_f64(x, |i| i as f64);
        let mut body = |view: &mut DeviceView<'_>| {
            let mut vals = view.read_f64(VarId(0));
            for v in vals.iter_mut() {
                *v *= 2.0;
            }
            view.write_f64(VarId(0), &vals);
        };
        rt.target(
            0,
            CodePtr(1),
            &[map(MapType::ToFrom, x)],
            Kernel::new("dbl", KernelCost::fixed(100))
                .reads(&[x])
                .writes(&[x])
                .body(&mut body),
        );
        rt.finish();
        let vals = rt.host_read_f64(x);
        assert_eq!(vals, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn a_launch_writes_into_the_device_buffer_it_was_lent() {
        let mut rt = Runtime::with_defaults();
        let x = rt.host_alloc("x", 4096);
        rt.target_enter_data(0, CodePtr(1), &[map(MapType::Alloc, x)]);
        let slot = |rt: &mut Runtime| {
            let haddr = rt.host.addr(x);
            let dev = &mut rt.devices[0];
            let entry = dev.present.lookup(haddr).copied().unwrap();
            let buf = dev.mem.bytes_mut(entry.dev_addr).unwrap();
            (buf.as_ptr(), buf.len(), buf[..4].to_vec())
        };
        let (ptr, len, _) = slot(&mut rt);
        let mut body = |view: &mut DeviceView<'_>| view.bytes_mut(x)[..4].copy_from_slice(b"odp!");
        rt.target(
            0,
            CodePtr(2),
            &[],
            Kernel::new("w", KernelCost::fixed(10))
                .writes(&[x])
                .body(&mut body),
        );
        assert_eq!(slot(&mut rt), (ptr, len, b"odp!".to_vec()));
        rt.target_exit_data(0, CodePtr(3), &[map(MapType::Delete, x)]);
        rt.finish();
    }

    #[test]
    fn enter_exit_data_persistence() {
        let (mut rt, events, _) = recorder_runtime();
        let a = rt.host_alloc("a", 64);
        rt.target_enter_data(0, CodePtr(1), &[map(MapType::To, a)]);
        for _ in 0..4 {
            rt.target(
                0,
                CodePtr(2),
                &[map(MapType::To, a)],
                Kernel::new("k", KernelCost::fixed(10)).reads(&[a]),
            );
        }
        rt.target_exit_data(0, CodePtr(3), &[map(MapType::Delete, a)]);
        rt.finish();
        let ev = events.lock().unwrap();
        assert_eq!(
            ev.iter().filter(|e| e.contains("TransferToDevice")).count(),
            1
        );
        assert_eq!(ev.iter().filter(|e| e.contains("Alloc")).count(), 1);
        assert_eq!(ev.iter().filter(|e| e.contains("Delete")).count(), 1);
        assert_eq!(rt.present_mappings(0), 0);
    }

    #[test]
    fn always_modifier_forces_copy() {
        let (mut rt, events, _) = recorder_runtime();
        let a = rt.host_alloc("a", 64);
        let region = rt.target_data_begin(0, CodePtr(1), &[map(MapType::To, a)]);
        rt.target(
            0,
            CodePtr(2),
            &[map_always(MapType::To, a)],
            Kernel::new("k", KernelCost::fixed(10)).reads(&[a]),
        );
        rt.target_data_end(region);
        rt.finish();
        let ev = events.lock().unwrap();
        assert_eq!(
            ev.iter().filter(|e| e.contains("TransferToDevice")).count(),
            2,
            "region entry + forced copy"
        );
    }

    #[test]
    fn update_of_absent_data_warns() {
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("ghost", 64);
        rt.target_update_to(0, CodePtr(1), &[a]);
        assert_eq!(rt.warnings().len(), 1);
        assert!(matches!(
            rt.warnings()[0],
            RuntimeWarning::UpdateOfAbsentData { .. }
        ));
    }

    #[test]
    fn virtual_clock_advances_through_model() {
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("a", 1 << 20);
        assert_eq!(rt.now(), SimTime::ZERO);
        rt.target(
            0,
            CodePtr(1),
            &[map(MapType::ToFrom, a)],
            Kernel::new("k", KernelCost::fixed(1_000))
                .reads(&[a])
                .writes(&[a]),
        );
        let stats = rt.finish();
        // alloc + h2d + kernel + d2h + delete all contribute.
        assert!(stats.total_time.as_nanos() > 0);
        assert_eq!(stats.transfers, 2);
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.kernels, 1);
        assert!(stats.transfer_time > SimDuration::ZERO);
        assert!(stats.kernel_time.as_nanos() >= 1_000);
    }

    #[test]
    fn lifo_region_discipline_enforced() {
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("a", 8);
        let b = rt.host_alloc("b", 8);
        let r1 = rt.target_data_begin(0, CodePtr(1), &[map(MapType::To, a)]);
        let r2 = rt.target_data_begin(0, CodePtr(2), &[map(MapType::To, b)]);
        rt.target_data_end(r2);
        rt.target_data_end(r1);
        rt.finish();
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn non_lifo_region_close_panics() {
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("a", 8);
        let b = rt.host_alloc("b", 8);
        let r1 = rt.target_data_begin(0, CodePtr(1), &[map(MapType::To, a)]);
        let _r2 = rt.target_data_begin(0, CodePtr(2), &[map(MapType::To, b)]);
        rt.target_data_end(r1);
    }

    #[test]
    fn multi_device_independent_present_tables() {
        let (mut rt, events, _) = {
            let mut rt = Runtime::new(RuntimeConfig::default().with_devices(2));
            let events = Arc::new(Mutex::new(Vec::new()));
            let hashes = Arc::new(Mutex::new(Vec::new()));
            rt.attach_tool(Box::new(Recorder {
                events: events.clone(),
                hashes_seen: hashes.clone(),
            }));
            (rt, events, hashes)
        };
        let a = rt.host_alloc("a", 256);
        rt.target(
            0,
            CodePtr(1),
            &[map(MapType::To, a)],
            Kernel::new("k0", KernelCost::fixed(10)).reads(&[a]),
        );
        rt.target(
            1,
            CodePtr(2),
            &[map(MapType::To, a)],
            Kernel::new("k1", KernelCost::fixed(10)).reads(&[a]),
        );
        rt.finish();
        let ev = events.lock().unwrap();
        // Each device maps independently: 2 allocs, 2 H2D.
        assert_eq!(ev.iter().filter(|e| e.contains("Alloc")).count(), 2);
        assert_eq!(
            ev.iter().filter(|e| e.contains("TransferToDevice")).count(),
            2
        );
    }

    #[test]
    fn pre_emi_runtime_delivers_begin_only() {
        #[derive(Default)]
        struct CountEndpoints {
            begins: Arc<Mutex<usize>>,
            ends: Arc<Mutex<usize>>,
        }
        impl Tool for CountEndpoints {
            fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
                // Ask for EMI; fall back to legacy when denied.
                let emi = ToolRegistration::negotiate(&[CallbackKind::TargetDataOpEmi], caps);
                if emi.fully_granted() {
                    emi
                } else {
                    ToolRegistration::negotiate(&[CallbackKind::TargetDataOp], caps)
                }
            }
            fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
                match cb.endpoint {
                    Endpoint::Begin => *self.begins.lock().unwrap() += 1,
                    Endpoint::End => *self.ends.lock().unwrap() += 1,
                }
            }
        }
        let begins = Arc::new(Mutex::new(0));
        let ends = Arc::new(Mutex::new(0));
        let mut rt = Runtime::new(RuntimeConfig::default().pre_emi());
        rt.attach_tool(Box::new(CountEndpoints {
            begins: begins.clone(),
            ends: ends.clone(),
        }));
        let a = rt.host_alloc("a", 64);
        rt.target(
            0,
            CodePtr(1),
            &[map(MapType::To, a)],
            Kernel::new("k", KernelCost::fixed(10)).reads(&[a]),
        );
        rt.finish();
        assert!(*begins.lock().unwrap() > 0);
        assert_eq!(*ends.lock().unwrap(), 0, "non-EMI = begin only");
    }

    #[test]
    fn nowait_kernel_overlaps_host_clock() {
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("a", 256);
        let region = rt.target_data_begin(0, CodePtr(1), &[map(MapType::To, a)]);
        let t0 = rt.now();
        rt.target_nowait(
            0,
            CodePtr(2),
            &[map(MapType::To, a)],
            Kernel::new("slow", KernelCost::fixed(1_000_000))
                .reads(&[a])
                .writes(&[a]),
        );
        let t1 = rt.now();
        assert!(
            (t1 - t0).as_nanos() < 1_000_000,
            "host must not wait for the async kernel"
        );
        rt.taskwait(0);
        assert!((rt.now() - t0).as_nanos() >= 1_000_000);
        rt.target_data_end(region);
        rt.finish();
    }

    #[test]
    fn nowait_exit_syncs_when_data_is_copied_back() {
        // An implicit tofrom on a nowait target must wait for the kernel
        // before the copy-back, per OpenMP data-environment semantics.
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("a", 256);
        let t0 = rt.now();
        rt.target_nowait(
            0,
            CodePtr(2),
            &[],
            Kernel::new("slow", KernelCost::fixed(2_000_000))
                .reads(&[a])
                .writes(&[a]),
        );
        assert!(
            (rt.now() - t0).as_nanos() >= 2_000_000,
            "copy-back forces synchronization"
        );
        rt.finish();
    }

    #[test]
    fn taskwait_is_idempotent() {
        let mut rt = Runtime::with_defaults();
        rt.taskwait(0);
        let t = rt.now();
        rt.taskwait(0);
        assert_eq!(rt.now(), t);
        rt.finish();
    }

    /// Table-driven advisor for hook tests: one advice per host address.
    struct TableAdvisor {
        rules: Vec<(u64, MapAdvice)>,
    }

    impl MapAdvisor for TableAdvisor {
        fn advise(&self, _device: u32, host_addr: u64) -> MapAdvice {
            self.rules
                .iter()
                .find(|(a, _)| *a == host_addr)
                .map(|(_, adv)| *adv)
                .unwrap_or(MapAdvice::KEEP)
        }
    }

    fn advise(rt: &Runtime, var: VarId, advice: MapAdvice) -> Arc<TableAdvisor> {
        Arc::new(TableAdvisor {
            rules: vec![(rt.host_addr(var), advice)],
        })
    }

    #[test]
    fn persist_advice_keeps_the_mapping_resident() {
        // The Listing 1 anti-pattern remediated: with persist advice the
        // second region reuses the present entry — one alloc, one H2D.
        let (mut rt, events, _) = recorder_runtime();
        let a = rt.host_alloc("a", 1024);
        rt.host_fill_u32(a, |i| i as u32);
        rt.attach_advisor(advise(
            &rt,
            a,
            MapAdvice {
                persist: Some(FindingKind::DuplicateTransfer),
                ..MapAdvice::KEEP
            },
        ));
        for _ in 0..3 {
            rt.target(
                0,
                CodePtr(0x100),
                &[map(MapType::To, a)],
                Kernel::new("sum", KernelCost::fixed(1_000)).reads(&[a]),
            );
        }
        rt.finish();
        let ev = events.lock().unwrap();
        let h2d = ev.iter().filter(|e| e.contains("TransferToDevice")).count();
        let allocs = ev.iter().filter(|e| e.contains("Alloc")).count();
        let deletes = ev.iter().filter(|e| e.contains("Delete")).count();
        assert_eq!(h2d, 1, "re-sends dropped: {ev:?}");
        assert_eq!(allocs, 1, "re-allocations dropped");
        assert_eq!(deletes, 0, "releases skipped");
        let rec = rt
            .remediation_stats()
            .counter(0, FindingKind::DuplicateTransfer);
        assert_eq!(rec.transfers_avoided, 2);
        assert_eq!(rec.transfer_bytes_avoided, 2 * 1024);
        assert!(rec.transfer_time_avoided > SimDuration::ZERO);
        assert_eq!(rec.allocs_avoided, 2);
        assert!(rec.rewrites >= 1);
    }

    #[test]
    fn a_release_entering_over_a_phantom_reference_warns_as_the_baseline_does() {
        // Under persist advice the first region's exit leaves a phantom
        // reference where the baseline freed the data. A `release` on an
        // enter path steps the transition as the baseline would, over
        // absent data: it warns, and the phantom reference stays for the
        // next real re-entry to adopt.
        let run = |persist: bool| {
            let (mut rt, events, _) = recorder_runtime();
            let a = rt.host_alloc("a", 256);
            if persist {
                let advice = MapAdvice {
                    persist: Some(FindingKind::RepeatedAlloc),
                    ..MapAdvice::KEEP
                };
                rt.attach_advisor(advise(&rt, a, advice));
            }
            let kernel = || Kernel::new("k", KernelCost::fixed(10)).reads(&[a]);
            rt.target(0, CodePtr(1), &[map(MapType::To, a)], kernel());
            rt.target_enter_data(0, CodePtr(2), &[map(MapType::Release, a)]);
            rt.target(0, CodePtr(3), &[map(MapType::To, a)], kernel());
            rt.finish();
            let ev = events.lock().unwrap();
            let allocs = ev.iter().filter(|e| e.contains("Alloc")).count();
            let stats = rt.remediation_stats();
            let avoided = stats.counter(0, FindingKind::RepeatedAlloc);
            (rt.warnings().to_vec(), allocs, avoided.allocs_avoided)
        };
        let (baseline_warnings, baseline_allocs, _) = run(false);
        let (warnings, allocs, avoided) = run(true);
        assert_eq!(baseline_warnings.len(), 1);
        assert_eq!(warnings, baseline_warnings);
        assert_eq!((baseline_allocs, allocs, avoided), (2, 1, 1));
    }

    #[test]
    fn persist_advice_degrades_tofrom_exit_to_targeted_update() {
        // tofrom + persist: the exit copy-back survives as a targeted
        // update (host visibility preserved), the delete/re-send do not.
        let (mut rt, events, _) = recorder_runtime();
        let a = rt.host_alloc("a", 512);
        rt.attach_advisor(advise(
            &rt,
            a,
            MapAdvice {
                persist: Some(FindingKind::RoundTrip),
                ..MapAdvice::KEEP
            },
        ));
        for _ in 0..2 {
            rt.target(
                0,
                CodePtr(0x200),
                &[],
                Kernel::new("incr", KernelCost::fixed(100))
                    .reads(&[a])
                    .writes(&[a]),
            );
        }
        rt.finish();
        let ev = events.lock().unwrap();
        let h2d = ev.iter().filter(|e| e.contains("TransferToDevice")).count();
        let d2h = ev
            .iter()
            .filter(|e| e.contains("TransferFromDevice"))
            .count();
        assert_eq!(h2d, 1, "implicit tofrom re-send dropped: {ev:?}");
        assert_eq!(d2h, 2, "copy-back survives as an update each exit");
        let rec = rt.remediation_stats().counter(0, FindingKind::RoundTrip);
        assert_eq!(rec.updates_injected, 2);
        assert_eq!(rec.transfers_avoided, 1);
    }

    #[test]
    fn skip_advice_downgrades_copies() {
        // skip_to: to → alloc; skip_from: from → release.
        let (mut rt, events, _) = recorder_runtime();
        let a = rt.host_alloc("a", 256);
        rt.attach_advisor(advise(
            &rt,
            a,
            MapAdvice {
                skip_to: Some(FindingKind::UnusedTransfer),
                skip_from: Some(FindingKind::RoundTrip),
                ..MapAdvice::KEEP
            },
        ));
        let region = rt.target_data_begin(0, CodePtr(1), &[map(MapType::ToFrom, a)]);
        rt.target_data_end(region);
        rt.finish();
        let ev = events.lock().unwrap();
        assert!(
            !ev.iter().any(|e| e.contains("Transfer")),
            "both copies downgraded: {ev:?}"
        );
        assert_eq!(ev.iter().filter(|e| e.contains("Alloc")).count(), 1);
        assert_eq!(ev.iter().filter(|e| e.contains("Delete")).count(), 1);
        let stats = rt.remediation_stats();
        assert_eq!(
            stats
                .counter(0, FindingKind::UnusedTransfer)
                .transfers_avoided,
            1
        );
        assert_eq!(
            stats.counter(0, FindingKind::RoundTrip).transfers_avoided,
            1
        );
    }

    #[test]
    fn elide_advice_drops_the_clause_but_never_starves_a_kernel() {
        let (mut rt, events, _) = recorder_runtime();
        let unused = rt.host_alloc("unused", 128);
        let needed = rt.host_alloc("needed", 128);
        let advisor = Arc::new(TableAdvisor {
            rules: vec![
                (
                    rt.host_addr(unused),
                    MapAdvice {
                        elide: Some(FindingKind::UnusedAlloc),
                        ..MapAdvice::KEEP
                    },
                ),
                (
                    rt.host_addr(needed),
                    MapAdvice {
                        elide: Some(FindingKind::UnusedAlloc),
                        ..MapAdvice::KEEP
                    },
                ),
            ],
        });
        rt.attach_advisor(advisor);
        // `unused` is only mapped by the data region → elided. `needed`
        // is referenced by the kernel → the elision is overridden.
        let region = rt.target_data_begin(0, CodePtr(1), &[map(MapType::To, unused)]);
        rt.target(
            0,
            CodePtr(2),
            &[map(MapType::To, needed)],
            Kernel::new("k", KernelCost::fixed(10)).reads(&[needed]),
        );
        rt.target_data_end(region);
        rt.finish();
        let ev = events.lock().unwrap();
        assert_eq!(
            ev.iter().filter(|e| e.contains("Alloc")).count(),
            1,
            "only the kernel-referenced var is mapped: {ev:?}"
        );
        assert!(rt.warnings().is_empty(), "elided exit must stay silent");
        let rec = rt.remediation_stats().counter(0, FindingKind::UnusedAlloc);
        assert_eq!(rec.allocs_avoided, 1);
        assert_eq!(rec.transfers_avoided, 1);
    }

    #[test]
    fn skip_to_advice_never_starves_a_kernel() {
        // A skip_to rule learned from one wasted transfer must not drop
        // the copy a *kernel-referenced* map of the same variable needs.
        let (mut rt, events, _) = recorder_runtime();
        let x = rt.host_alloc("x", 64);
        rt.host_fill_u32(x, |i| i as u32 + 1);
        rt.attach_advisor(advise(
            &rt,
            x,
            MapAdvice {
                skip_to: Some(FindingKind::UnusedTransfer),
                ..MapAdvice::KEEP
            },
        ));
        let mut body = |view: &mut DeviceView<'_>| {
            let vals = view.read_u32(VarId(0));
            assert_eq!(vals[0], 1, "the kernel must see the host data");
        };
        rt.target(
            0,
            CodePtr(1),
            &[map(MapType::To, x)],
            Kernel::new("k", KernelCost::fixed(10))
                .reads(&[x])
                .body(&mut body),
        );
        rt.finish();
        let ev = events.lock().unwrap();
        assert_eq!(
            ev.iter().filter(|e| e.contains("TransferToDevice")).count(),
            1,
            "the copy survives for a kernel-referenced var: {ev:?}"
        );
    }

    #[test]
    fn no_advisor_means_no_remediation_stats() {
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("a", 64);
        rt.target(
            0,
            CodePtr(1),
            &[map(MapType::To, a)],
            Kernel::new("k", KernelCost::fixed(10)).reads(&[a]),
        );
        rt.finish();
        assert!(!rt.remediation_stats().any_rewrites());
    }

    #[test]
    fn device_address_reuse_after_full_unmap() {
        // The allocator behaviour Algorithm 3 keys on.
        let mut rt = Runtime::with_defaults();
        let a = rt.host_alloc("a", 4096);
        let mut addrs = Vec::new();
        struct Grab {
            addrs: Arc<Mutex<Vec<u64>>>,
        }
        impl Tool for Grab {
            fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
                ToolRegistration::negotiate(&[CallbackKind::TargetDataOpEmi], caps)
            }
            fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
                if cb.optype == DataOpType::Alloc && cb.endpoint == Endpoint::End {
                    self.addrs.lock().unwrap().push(cb.dest_addr);
                }
            }
        }
        let grabbed = Arc::new(Mutex::new(Vec::new()));
        rt.attach_tool(Box::new(Grab {
            addrs: grabbed.clone(),
        }));
        for _ in 0..3 {
            rt.target(
                0,
                CodePtr(1),
                &[map(MapType::To, a)],
                Kernel::new("k", KernelCost::fixed(10)).reads(&[a]),
            );
        }
        rt.finish();
        addrs.extend(grabbed.lock().unwrap().iter().copied());
        assert_eq!(addrs.len(), 3);
        assert_eq!(addrs[0], addrs[1], "repeat alloc reuses the device address");
        assert_eq!(addrs[1], addrs[2]);
    }
}
