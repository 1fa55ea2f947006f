//! What the live workloads (suite, storm ×2) share: the post-exit
//! pipeline of the `ompdataperf` front end, composed for the untraced
//! op and decomposed into one span per public call for the traced op,
//! and the conversion of `TimedTool` totals into spans.

use crate::check::events_in_findings;
use crate::span::Tracer;
use crate::timed_tool::ToolTimes;
use odp_trace::TraceLog;
use ompdataperf::analysis::{analyze_named, analyze_with_findings};
use ompdataperf::attrib::DebugInfo;
use ompdataperf::detect::{EventView, StreamBufferStats, StreamingEngine};
use ompdataperf::{Findings, Report, ToolHandle};
use std::time::Instant;

/// Console lines of the report header, composed as the CLI does: the
/// tool's own lines, the streaming engine's spill warning, then the
/// trace-health warning a dirty trace earns (the engine has left the
/// handle by then, so its health is merged in by hand).
fn console(handle: &ToolHandle, trace: &TraceLog, engine: Option<&StreamingEngine>) -> Vec<String> {
    let mut console = handle.console_lines();
    let mut health = handle.trace_health();
    if let Some(engine) = engine {
        console.extend(engine.spill_warning());
        health.merge(&engine.health());
    }
    health.duplicate_ids += trace.duplicate_id_count();
    console.extend(health.warning());
    console
}

/// Post-mortem path: `take_trace` → `analyze_named` (hydrate, index,
/// fused sweep, predict, sections).
pub fn postmortem(handle: &ToolHandle, dbg: &DebugInfo, program: &str) -> (TraceLog, Report) {
    let trace = handle.take_trace();
    let report = analyze_named(&trace, Some(dbg), program, console(handle, &trace, None));
    (trace, report)
}

/// `--stream` path: `take_trace` → `take_stream_engine` (final drain) →
/// `EventView::from_log` → `finalize` → `analyze_with_findings`.
pub fn streamed(handle: &ToolHandle, dbg: &DebugInfo, program: &str) -> (TraceLog, Report) {
    let trace = handle.take_trace();
    let mut engine = handle
        .take_stream_engine()
        .expect("the tool was built with stream: true");
    let view = EventView::from_log(&trace);
    let findings = engine.finalize(&view);
    drop(view);
    let console = console(handle, &trace, Some(&engine));
    let report = analyze_with_findings(&trace, Some(dbg), program, console, findings);
    (trace, report)
}

/// [`postmortem`], one span per public call. Produces the same report.
pub fn traced_postmortem(
    tr: &mut Tracer,
    handle: &ToolHandle,
    dbg: &DebugInfo,
    program: &str,
) -> (TraceLog, Report) {
    let trace = tr.span("trace.take", |_| handle.take_trace());
    tr.span("trace.hydrate", |_| {
        trace.columnar();
    });
    let view = tr.span("detect.index", |_| EventView::from_log(&trace));
    let findings = tr.span("detect.fused", |_| Findings::detect_fused(&view));
    drop(view);
    let report = tr.span("analysis.report", |_| {
        let console = console(handle, &trace, None);
        analyze_with_findings(&trace, Some(dbg), program, console, findings)
    });
    (trace, report)
}

/// [`streamed`], one span per public call. Produces the same report,
/// plus the engine's buffer high-water marks.
pub fn traced_streamed(
    tr: &mut Tracer,
    handle: &ToolHandle,
    dbg: &DebugInfo,
    program: &str,
) -> (TraceLog, Report, StreamBufferStats) {
    let trace = tr.span("trace.take", |_| handle.take_trace());
    let mut engine = tr
        .span("detect.stream_drain", |_| handle.take_stream_engine())
        .expect("the tool was built with stream: true");
    tr.span("trace.hydrate", |_| {
        trace.columnar();
    });
    let view = tr.span("detect.index", |_| EventView::from_log(&trace));
    let findings = tr.span("detect.stream_finalize", |_| engine.finalize(&view));
    drop(view);
    let report = tr.span("analysis.report", |_| {
        let console = console(handle, &trace, Some(&engine));
        analyze_with_findings(&trace, Some(dbg), program, console, findings)
    });
    let buffers = engine.buffer_stats();
    // Tearing the state machines down is part of what the user waits
    // for ([`streamed`] drops the engine before it returns, too).
    tr.span("detect.stream_finalize", |_| drop(engine));
    (trace, report, buffers)
}

/// Turn what the `TimedTool`s of one tooled run measured into spans
/// below the innermost open span: per thread one `sim.tooled` span
/// (tool attached → finalize returned) holding the aggregates
/// `tool.callback` (with `hash.busy` below it) and `tool.finalize`.
/// `hash_ns` is the collector-wide hash meter; it is split over the
/// threads in proportion to their callback time.
pub fn record_tool_threads(tr: &mut Tracer, times: &[ToolTimes], hash_ns: u64) {
    let all_callbacks: u64 = times.iter().map(ToolTimes::total_callback_ns).sum();
    for t in times {
        let (Some(attached), Some(finalized)) = (t.attached, t.finalized) else {
            continue;
        };
        let thread = tr.record("sim.tooled", tr.ns(attached), tr.ns(finalized));
        let callback_ns = t.total_callback_ns();
        let callbacks =
            tr.record_aggregate(thread, "tool.callback", callback_ns, t.total_callbacks());
        if all_callbacks > 0 {
            let share = (hash_ns as u128 * callback_ns as u128 / all_callbacks as u128) as u64;
            tr.record_aggregate(callbacks, "hash.busy", share.min(callback_ns), 1);
        }
        tr.record_aggregate(thread, "tool.finalize", t.finalize_ns, 1);
    }
}

/// Counts of one traced op, read from public accessors after each
/// tooled run (the suite adds up its programs; a storm has one run).
#[derive(Clone, Copy, Debug, Default)]
pub struct LiveCounts {
    regions: f64,
    callbacks: f64,
    hash_bytes: f64,
    report_bytes: f64,
    record_bytes: f64,
    events: f64,
    in_findings: f64,
}

impl LiveCounts {
    pub fn add_run(
        &mut self,
        trace: &TraceLog,
        report: &Report,
        handle: &ToolHandle,
        times: &[ToolTimes],
        report_bytes: usize,
    ) {
        // Directives the simulator dispatched: every target-construct
        // record that is not a kernel launch.
        self.regions += (trace.target_count() - report.stats.kernels) as f64;
        self.callbacks += times.iter().map(ToolTimes::total_callbacks).sum::<u64>() as f64;
        self.hash_bytes += handle.hash_meter().bytes as f64;
        self.report_bytes += report_bytes as f64;
        self.record_bytes += report.space.record_bytes as f64;
        self.events += (trace.data_op_count() + trace.target_count()) as f64;
        self.in_findings += events_in_findings(&report.findings) as f64;
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.regions", self.regions),
            ("tool.callbacks", self.callbacks),
            ("hash.bytes", self.hash_bytes),
            ("report.bytes", self.report_bytes),
            ("trace.bytes_per_event", self.record_bytes / self.events),
            ("events", self.events),
            ("findings.event_share", self.in_findings / self.events),
        ]
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64()
}
