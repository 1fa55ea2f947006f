//! Tool registration and dispatch, modeled on `ompt_start_tool`.
//!
//! A tool implements [`Tool`]; when attached to a runtime it receives
//! `initialize` with the runtime's [`RuntimeCapabilities`] and returns the
//! set of callbacks it wants. The runtime answers each request with a
//! `SetCallbackResult` — mirroring `ompt_set_callback`'s return codes —
//! and thereafter only delivers events for callbacks that registered
//! successfully. This is exactly the negotiation that produces the
//! degraded-mode warning in the paper's §A.6 sample output.

use crate::callback::{
    CallbackKind, DataOpCallback, HostAccessInfo, KernelAccessInfo, SubmitCallback, TargetCallback,
};
use crate::capability::RuntimeCapabilities;

/// Result of requesting one callback, per `ompt_set_result_t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SetCallbackResult {
    /// `ompt_set_always`: the callback will be dispatched on every event.
    Always,
    /// `ompt_set_never`: the runtime will never dispatch this callback.
    Never,
}

impl SetCallbackResult {
    /// Did registration succeed?
    pub(crate) fn is_registered(self) -> bool {
        matches!(self, SetCallbackResult::Always)
    }
}

/// What a tool asked for and what it was granted.
#[derive(Clone, Debug, Default)]
pub struct ToolRegistration {
    /// Callbacks the tool requested, in request order.
    pub requested: Vec<CallbackKind>,
    /// Per-callback grant results (same order as `requested`).
    results: Vec<SetCallbackResult>,
}

impl ToolRegistration {
    /// Request a set of callbacks against the runtime's capabilities.
    pub fn negotiate(requested: &[CallbackKind], caps: &RuntimeCapabilities) -> Self {
        let results = requested
            .iter()
            .map(|&k| {
                if caps.supports(k) {
                    SetCallbackResult::Always
                } else {
                    SetCallbackResult::Never
                }
            })
            .collect();
        ToolRegistration {
            requested: requested.to_vec(),
            results,
        }
    }

    /// Was `kind` granted?
    pub fn granted(&self, kind: CallbackKind) -> bool {
        self.requested
            .iter()
            .zip(&self.results)
            .any(|(&k, r)| k == kind && r.is_registered())
    }

    /// Were all requested callbacks granted?
    pub fn fully_granted(&self) -> bool {
        self.results.iter().all(|r| r.is_registered())
    }
}

/// An OMPT tool. The runtime calls `initialize` once at startup (the
/// `ompt_start_tool` handshake), dispatches events while the program runs,
/// and calls `finalize` at shutdown.
///
/// Tools are `Send`: a multi-threaded runtime hands each of its threads
/// a tool instance (usually shards of one shared collector — see
/// `ompdataperf::tool::ToolHandle::fork_tool`), and those instances move
/// into the runtime threads.
pub trait Tool: Send {
    /// Handshake: inspect the runtime's capabilities and request
    /// callbacks. Returning an empty request detaches the tool (the
    /// `ompt_start_tool` NULL return).
    fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration;

    /// A target construct began or ended.
    fn on_target(&mut self, cb: &TargetCallback) {
        let _ = cb;
    }

    /// A data operation began or ended.
    fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
        let _ = cb;
    }

    /// A kernel launch began or ended.
    fn on_submit(&mut self, cb: &SubmitCallback) {
        let _ = cb;
    }

    /// Instrumentation feed (NOT OMPT): per-kernel access ranges, as a
    /// binary-instrumentation tool like Arbalest would observe them.
    /// OMPDataPerf leaves this at its no-op default.
    fn on_kernel_access(&mut self, info: &KernelAccessInfo) {
        let _ = info;
    }

    /// Instrumentation feed (NOT OMPT): host accesses to mapped data.
    fn on_host_access(&mut self, info: &HostAccessInfo) {
        let _ = info;
    }

    /// The monitored program finished; `total_time_ns` is its final
    /// virtual clock.
    fn finalize(&mut self, total_time_ns: u64) {
        let _ = total_time_ns;
    }
}

/// A tool that observes nothing — used to measure baseline (tool-off)
/// runs through the identical dispatch path.
#[derive(Debug, Default)]
pub struct NullTool;

impl Tool for NullTool {
    fn initialize(&mut self, _caps: &RuntimeCapabilities) -> ToolRegistration {
        ToolRegistration::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capability::CompilerProfile;

    #[test]
    fn negotiation_against_full_runtime() {
        let caps = CompilerProfile::LlvmClang.capabilities();
        let reg = ToolRegistration::negotiate(
            &[
                CallbackKind::TargetEmi,
                CallbackKind::TargetDataOpEmi,
                CallbackKind::TargetSubmitEmi,
            ],
            &caps,
        );
        assert!(reg.fully_granted());
        assert!(reg.granted(CallbackKind::TargetEmi));
    }

    #[test]
    fn negotiation_against_gcc_denies_everything() {
        let caps = CompilerProfile::GnuGcc.capabilities();
        let reg = ToolRegistration::negotiate(
            &[CallbackKind::TargetEmi, CallbackKind::TargetDataOpEmi],
            &caps,
        );
        assert!(!reg.fully_granted());
        assert!(!reg.granted(CallbackKind::TargetEmi));
        assert!(!reg.granted(CallbackKind::TargetDataOpEmi));
    }

    #[test]
    fn map_emi_is_only_granted_by_nvhpc() {
        for profile in CompilerProfile::ALL {
            let caps = profile.capabilities();
            let reg = ToolRegistration::negotiate(&[CallbackKind::TargetMapEmi], &caps);
            let expect = profile == CompilerProfile::NvidiaHpc;
            assert_eq!(reg.fully_granted(), expect, "{profile:?}");
        }
    }

    #[test]
    fn null_tool_requests_nothing() {
        let mut t = NullTool;
        let reg = t.initialize(&CompilerProfile::LlvmClang.capabilities());
        assert!(reg.requested.is_empty());
        assert!(reg.fully_granted(), "vacuously");
    }
}
