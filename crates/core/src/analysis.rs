//! End-to-end analysis: trace → findings → prediction → report, and
//! [`finish_run`] — the one statement of what happens between "the
//! program exited" and "here is the report".

use crate::attrib::DebugInfo;
use crate::detect::{EventView, Findings, StreamBufferStats, StreamFinding};
use crate::predict::predict;
use crate::report::{build_sections, Report};
use crate::tool::ToolHandle;
use odp_model::TraceHealth;
use odp_trace::{ColumnarView, TraceLog};

/// Infer the number of target devices from the event stream (the tool
/// decodes traces offline and cannot ask the runtime), streaming over
/// the dense device columns.
///
/// Implausibly large device indices — a corrupted callback naming
/// device `0x4000_0000` — are ignored here (capped by
/// [`odp_trace::MAX_PLAUSIBLE_DEVICES`]) rather than trusted, so
/// the per-device tables sized from this count stay bounded and the
/// corrupt events land in [`crate::detect::OutOfRangeEvents`].
pub fn infer_num_devices_columnar(cols: &ColumnarView) -> u32 {
    let cap = odp_trace::MAX_PLAUSIBLE_DEVICES as i64;
    let mut max_ix: i64 = -1;
    for d in cols.ops.src_devices.iter().chain(&cols.ops.dest_devices) {
        if let Some(ix) = d.target_index() {
            if (ix as i64) < cap {
                max_ix = max_ix.max(ix as i64);
            }
        }
    }
    for d in &cols.kernels.devices {
        if let Some(ix) = d.target_index() {
            if (ix as i64) < cap {
                max_ix = max_ix.max(ix as i64);
            }
        }
    }
    (max_ix + 1).max(1) as u32
}

/// Run the full §5 analysis over a collected trace.
///
/// `dbg` enables source attribution (the `-g` path); without it, report
/// rows carry raw code pointers, exactly like the native tool on a binary
/// without debug info.
pub fn analyze(log: &TraceLog, dbg: Option<&DebugInfo>) -> Report {
    analyze_named(log, dbg, "unnamed program", Vec::new())
}

/// [`analyze`] with a program name and tool console lines for the report
/// header.
pub fn analyze_named(
    log: &TraceLog,
    dbg: Option<&DebugInfo>,
    program: &str,
    console: Vec<String>,
) -> Report {
    // Borrow the log's memoized hydration (sorted once), build the
    // shared view, and run all five detectors in one fused sweep.
    // Events are only materialized where they land in findings.
    let view = EventView::from_log(log);
    analyze_view(log, &view, dbg, program, console)
}

/// Run the fused analysis over a caller-built view — the entry point
/// for explicit device counts. Events the view excluded from the
/// per-device algorithms (device `>= num_devices`) surface as a console
/// warning instead of silently skewing Algorithms 4/5.
pub(crate) fn analyze_view(
    log: &TraceLog,
    view: &EventView<'_>,
    dbg: Option<&DebugInfo>,
    program: &str,
    mut console: Vec<String>,
) -> Report {
    if let Some(warning) = view.out_of_range().warning(view.num_devices) {
        console.push(warning);
    }
    let findings = Findings::detect_fused(view);
    analyze_with_findings(log, dbg, program, console, findings)
}

/// Build a report from findings that were already produced — the
/// streaming path: `StreamingEngine::finalize` already ran the fused
/// sweep over the trace (and tagged the result if the stream was
/// degraded), so detection must not run a second time.
pub fn analyze_with_findings(
    log: &TraceLog,
    dbg: Option<&DebugInfo>,
    program: &str,
    console: Vec<String>,
    findings: Findings,
) -> Report {
    let counts = findings.counts();
    let prediction = predict(&findings, log.total_time());
    let sections = build_sections(&findings, dbg, log.total_time());

    Report {
        program: program.to_string(),
        counts,
        findings,
        prediction,
        stats: log.stats(),
        space: log.space_stats(),
        console,
        sections,
    }
}

/// Everything the end of a run produces.
pub struct FinishedRun {
    /// The merged trace.
    pub trace: TraceLog,
    /// The §A.6 report; its console carries every warning of the run.
    pub report: Report,
    /// What the collector, the streaming engine and the shard merge
    /// quarantined instead of trusting.
    pub health: TraceHealth,
    /// The online engine's side of the run (`ToolConfig::stream` only).
    pub live: Option<LiveStream>,
}

/// Where the live findings stream stood when the program exited.
pub struct LiveStream {
    /// Findings emitted over the whole run, including those a live
    /// consumer (poller, remediation pump) already drained.
    pub emitted: usize,
    /// The findings no consumer had drained yet.
    pub undrained: Vec<StreamFinding>,
    /// Window sizes before the end-of-trace settle (where the round
    /// trips are emitted).
    pub stats: StreamBufferStats,
}

/// The end-of-run protocol, post-mortem and streamed alike: extract the
/// merged trace, take the streaming engine out (final drain), hydrate
/// the view, produce the findings — `StreamingEngine::finalize` when
/// the run streamed, the fused sweep otherwise — and build the report.
/// The console gets the tool's own lines, then the trace-health
/// (collector + engine + merge-time duplicate ids) and
/// out-of-range-device warnings, whichever mode produced the findings.
///
/// Call once, after every runtime thread has finished.
pub fn finish_run(handle: &ToolHandle, dbg: Option<&DebugInfo>, program: &str) -> FinishedRun {
    let trace = handle.take_trace();
    let mut engine = handle.take_stream_engine();
    let live = engine.as_mut().map(|engine| LiveStream {
        emitted: engine.live_counts().total(),
        undrained: engine.take_findings(),
        stats: engine.buffer_stats(),
    });
    // After the final drain, which may itself warn (stall recovery).
    let mut console = handle.console_lines();

    let view = EventView::from_log(&trace);
    let out_of_range = view.out_of_range().warning(view.num_devices);
    // The engine has left the handle, so this is the shard side only;
    // the engine's counters are final once it has settled.
    let mut health = handle.trace_health();
    let findings = match engine.as_mut() {
        Some(engine) => {
            let findings = engine.finalize(&view);
            health.merge(&engine.health());
            findings
        }
        None => Findings::detect_fused(&view),
    };
    health.duplicate_ids = health
        .duplicate_ids
        .saturating_add(trace.duplicate_id_count());
    console.extend(health.warning());
    console.extend(out_of_range);

    let report = analyze_with_findings(&trace, dbg, program, console, findings);
    FinishedRun {
        trace,
        report,
        health,
        live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::{CodePtr, DataOpKind, DeviceId, SimTime, TargetKind, TimeSpan};

    fn sample_trace() -> TraceLog {
        let mut log = TraceLog::new();
        let span = |a: u64, b: u64| TimeSpan::new(SimTime(a), SimTime(b));
        // Duplicate H2D pair around two kernels.
        for i in 0..2u64 {
            let t = i * 1000;
            log.record_data_op(
                DataOpKind::Alloc,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000,
                0xd000,
                4096,
                None,
                span(t, t + 50),
                CodePtr(0x400100),
            );
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000,
                0xd000,
                4096,
                Some(0xAB),
                span(t + 50, t + 150),
                CodePtr(0x400100),
            );
            log.record_target(
                TargetKind::Kernel,
                DeviceId::target(0),
                span(t + 150, t + 500),
                CodePtr(0x400200),
            );
            log.record_data_op(
                DataOpKind::Delete,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000,
                0xd000,
                4096,
                None,
                span(t + 500, t + 520),
                CodePtr(0x400100),
            );
        }
        log
    }

    #[test]
    fn full_pipeline_detects_and_reports() {
        let log = sample_trace();
        let report = analyze(&log, None);
        assert_eq!(report.counts.dd, 1);
        assert_eq!(report.counts.ra, 1);
        assert!(report.prediction.time_saved.as_nanos() > 0);
        assert!(report.prediction.predicted_speedup > 1.0);
        let text = report.render();
        assert!(text.contains("Duplicate Target Data Transfer"));
        assert!(text.contains("predicted speedup"));
    }

    #[test]
    fn attribution_appears_in_rows() {
        let log = sample_trace();
        let mut dbg = DebugInfo::new();
        dbg.register(CodePtr(0x400100), "listing1.c", 2, "main");
        let report = analyze(&log, Some(&dbg));
        let dd = &report.sections[0];
        assert!(!dd.rows.is_empty());
        assert!(dd.rows[0].source.contains("listing1.c:2"));
        // Without debug info the same row is a raw pointer.
        let report2 = analyze(&log, None);
        assert!(report2.sections[0].rows[0].source.starts_with("0x"));
    }

    #[test]
    fn device_inference() {
        assert_eq!(infer_num_devices_columnar(sample_trace().columnar()), 1);
        assert_eq!(
            infer_num_devices_columnar(&ColumnarView::default()),
            1,
            "empty trace still has a device"
        );
    }

    #[test]
    fn undersized_device_count_warns_instead_of_silently_skewing() {
        let mut log = TraceLog::new();
        let span = |a: u64, b: u64| TimeSpan::new(SimTime(a), SimTime(b));
        // Allocation + kernel on device 3, analyzed as a 1-device trace.
        log.record_data_op(
            DataOpKind::Alloc,
            DeviceId::HOST,
            DeviceId::target(3),
            0x1000,
            0xd000,
            64,
            None,
            span(0, 10),
            CodePtr(0x1),
        );
        log.record_target(
            TargetKind::Kernel,
            DeviceId::target(3),
            span(20, 40),
            CodePtr(0x2),
        );
        let view = EventView::over(log.columnar(), 1);
        let report = super::analyze_view(&log, &view, None, "undersized", Vec::new());
        assert!(
            report
                .console
                .iter()
                .any(|l| l.starts_with("warning:") && l.contains("Algorithms 4/5")),
            "{:?}",
            report.console
        );
        // A correctly sized view stays silent.
        let full = EventView::from_log(&log);
        let clean = super::analyze_view(&log, &full, None, "sized", Vec::new());
        assert!(clean.console.is_empty(), "{:?}", clean.console);
    }

    #[test]
    fn json_export_round_trips() {
        let report = analyze(&sample_trace(), None);
        let json = report.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["counts"]["dd"], 1);
    }
}
