//! `TimedTool`: measure a tool's callbacks from outside.
//!
//! A decorator over any `odp_ompt::Tool` that forwards every method
//! unchanged and sums the elapsed nanoseconds of the OMPT callbacks per
//! method. The wrapped tool sees exactly the calls it would see
//! unwrapped — the harness tests pin that the collected trace is
//! byte-identical — so the only effect is the two clock reads per
//! callback, which the traced run reports as `trace.overhead_ratio`.
//! Used in the traced run only; end-to-end numbers never see it.

use odp_ompt::{
    DataOpCallback, HostAccessInfo, KernelAccessInfo, RuntimeCapabilities, SubmitCallback,
    TargetCallback, Tool, ToolRegistration,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one `TimedTool` measured over its run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ToolTimes {
    /// `initialize` entered (the thread's runtime attached the tool).
    pub attached: Option<Instant>,
    /// `finalize` returned (the thread's runtime finished).
    pub finalized: Option<Instant>,
    /// Elapsed ns in `on_target`, `on_data_op`, `on_submit`.
    pub callback_ns: [u64; 3],
    /// Calls of `on_target`, `on_data_op`, `on_submit`.
    pub callbacks: [u64; 3],
    /// Elapsed ns in `finalize`.
    pub finalize_ns: u64,
}

impl ToolTimes {
    pub fn total_callback_ns(&self) -> u64 {
        self.callback_ns.iter().sum()
    }

    pub fn total_callbacks(&self) -> u64 {
        self.callbacks.iter().sum()
    }
}

/// Where a `TimedTool` publishes its times when `finalize` returns.
pub type SharedTimes = Arc<Mutex<ToolTimes>>;

/// See the module docs.
pub struct TimedTool<T: Tool> {
    inner: T,
    times: ToolTimes,
    shared: SharedTimes,
}

impl<T: Tool> TimedTool<T> {
    pub fn new(inner: T) -> (TimedTool<T>, SharedTimes) {
        let shared = SharedTimes::default();
        let tool = TimedTool {
            inner,
            times: ToolTimes::default(),
            shared: shared.clone(),
        };
        (tool, shared)
    }

    #[inline]
    fn timed(&mut self, method: usize, f: impl FnOnce(&mut T)) {
        let start = Instant::now();
        f(&mut self.inner);
        self.times.callback_ns[method] += start.elapsed().as_nanos() as u64;
        self.times.callbacks[method] += 1;
    }
}

impl<T: Tool> Tool for TimedTool<T> {
    fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
        self.times.attached = Some(Instant::now());
        self.inner.initialize(caps)
    }

    fn on_target(&mut self, cb: &TargetCallback) {
        self.timed(0, |t| t.on_target(cb));
    }

    fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
        self.timed(1, |t| t.on_data_op(cb));
    }

    fn on_submit(&mut self, cb: &SubmitCallback) {
        self.timed(2, |t| t.on_submit(cb));
    }

    // The two instrumentation feeds are not OMPT callbacks and the tool
    // under test leaves them at their no-op defaults: forwarded, not
    // timed.
    fn on_kernel_access(&mut self, info: &KernelAccessInfo) {
        self.inner.on_kernel_access(info);
    }

    fn on_host_access(&mut self, info: &HostAccessInfo) {
        self.inner.on_host_access(info);
    }

    fn finalize(&mut self, total_time_ns: u64) {
        let start = Instant::now();
        self.inner.finalize(total_time_ns);
        let end = Instant::now();
        self.times.finalize_ns = (end - start).as_nanos() as u64;
        self.times.finalized = Some(end);
        *self
            .shared
            .lock()
            .expect("no TimedTool panics while publishing") = self.times;
    }
}

#[cfg(test)]
mod tests {
    use crate::storm::StormProgram;
    use crate::storm_live::shards;
    use odp_trace::TraceArtifact;

    #[test]
    fn a_trace_collected_through_timed_tool_is_byte_identical() {
        let program = StormProgram::generate(3, 3_000, 0);
        let collect = |timed: bool| {
            let (tools, handle, times) = shards(false, timed);
            program.run(tools);
            let trace = handle.take_trace();
            let bytes = TraceArtifact::from_log(&trace, "storm", handle.trace_health()).to_bytes();
            (bytes, times)
        };
        let (plain, _) = collect(false);
        let (timed, times) = collect(true);
        assert_eq!(plain, timed);

        // And the decorator saw every callback of both threads.
        assert_eq!(times.len(), 2);
        for t in &times {
            let t = *t.lock().unwrap();
            assert!(t.total_callbacks() > 0 && t.total_callback_ns() > 0);
            assert!(t.attached.unwrap() <= t.finalized.unwrap());
        }
    }
}
