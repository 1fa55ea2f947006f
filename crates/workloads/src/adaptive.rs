//! Adaptive-remediation drivers: run a workload with the detect→rewrite
//! loop closed.
//!
//! Three entry points, shared by the CLI's `--remediate`, the
//! integration tests, and `examples/adaptive_remediation.rs`:
//!
//! * [`run_baseline`] — the plain instrumented run (post-mortem
//!   analysis), the comparison point;
//! * [`run_adaptive`] — one live run: the streaming engine's findings
//!   feed a [`RemediationPolicy`] through a [`LiveRemediator`], so
//!   later iterations of the workload execute rewritten mappings;
//! * [`run_seeded`] — a re-run against a policy seeded from previous
//!   findings ([`RemediationPolicy::from_findings`]): the detectors
//!   then report zero issues of the remediated kinds.
//!
//! Every driver returns a [`RemediatedRun`] carrying the full analysis
//! report, the remediation accounting, and the raw runtime stats, so
//! callers can assert `bytes_transferred` strictly shrank and
//! `recovered_time() > 0`.

use crate::{ProblemSize, Variant, Workload};
use odp_ompt::{MapAdvisor, Tool};
use odp_sim::{Runtime, RuntimeConfig, RuntimeStats};
use ompdataperf::detect::EventView;
use ompdataperf::remedy::{
    LiveRemediator, RemediationPolicy, RemediationReport, SharedPolicyCell, SharedRemediator,
};
use ompdataperf::report::Report;
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig, ToolHandle};

/// The outcome of one (possibly remediated) instrumented run.
pub struct RemediatedRun {
    /// The full §A.6 analysis report (detection ran as usual).
    pub report: Report,
    /// Recovered-vs-baseline remediation accounting.
    pub remediation: RemediationReport,
    /// Raw runtime statistics (transfer bytes/time, total time).
    pub stats: RuntimeStats,
}

/// Plain instrumented run: no advisor, post-mortem analysis. The
/// detection output is byte-identical to the pre-remediation tool.
pub fn run_baseline(w: &dyn Workload, size: ProblemSize, variant: Variant) -> RemediatedRun {
    run_with(w, size, variant, Mode::Baseline)
}

/// One adaptive run: stream findings into a fresh policy *during* the
/// run and apply its rewrites to every subsequent region.
pub fn run_adaptive(w: &dyn Workload, size: ProblemSize, variant: Variant) -> RemediatedRun {
    run_with(w, size, variant, Mode::Adaptive)
}

/// Re-run with a pre-seeded policy (typically
/// [`RemediationPolicy::from_findings`] over a baseline run's report).
pub fn run_seeded(
    w: &dyn Workload,
    size: ProblemSize,
    variant: Variant,
    policy: RemediationPolicy,
) -> RemediatedRun {
    run_with(w, size, variant, Mode::Seeded(policy))
}

enum Mode {
    Baseline,
    Adaptive,
    Seeded(RemediationPolicy),
}

fn run_with(w: &dyn Workload, size: ProblemSize, variant: Variant, mode: Mode) -> RemediatedRun {
    let stream = matches!(mode, Mode::Adaptive);
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        stream,
        ..Default::default()
    });
    let mut rt = Runtime::new(RuntimeConfig::default());
    rt.attach_tool(Box::new(tool));

    let live_policy = match mode {
        Mode::Baseline => None,
        Mode::Adaptive => {
            let (remediator, policy) = LiveRemediator::new(handle.clone());
            rt.attach_advisor(Box::new(remediator));
            Some(policy)
        }
        Mode::Seeded(policy) => {
            let (remediator, shared) = SharedRemediator::seeded(policy);
            rt.attach_advisor(Box::new(remediator.fork_advisor()));
            Some(shared)
        }
    };

    let dbg = w.run(&mut rt, size, variant);
    let stats = rt.finish();
    let remedy_stats = rt.remediation_stats();

    let trace = handle.take_trace();
    let report = if let Some(mut engine) = handle.take_stream_engine() {
        // Adaptive mode streamed: finalize completes the live stream and
        // returns the fused sweep's findings over the trace.
        let view = EventView::from_log(&trace);
        let findings = engine.finalize(&view);
        ompdataperf::analysis::analyze_with_findings(
            &trace,
            Some(&dbg),
            w.name(),
            handle.console_lines(),
            findings,
        )
    } else {
        ompdataperf::analysis::analyze_named(&trace, Some(&dbg), w.name(), handle.console_lines())
    };

    let remediation = match &live_policy {
        Some(policy) => RemediationReport::new(
            &policy.lock(),
            &remedy_stats,
            stats.bytes_transferred,
            stats.transfer_time,
        ),
        None => RemediationReport::new(
            &RemediationPolicy::new(),
            &remedy_stats,
            stats.bytes_transferred,
            stats.transfer_time,
        ),
    };

    RemediatedRun {
        report,
        remediation,
        stats,
    }
}

// ---------------------------------------------------------------------
// Threaded drivers: the same three modes over a SHARED device data
// environment (odp_sim::run_on_threads_shared) with one policy behind
// per-thread advisor handles (remedy::SharedRemediator).
// ---------------------------------------------------------------------

/// Threaded baseline: `threads` OS threads drive the workload against
/// one shared device set, no advisor — the comparison point for the
/// threaded adaptive/seeded runs.
pub fn run_baseline_threaded(
    w: &dyn Workload,
    threads: u32,
    size: ProblemSize,
    variant: Variant,
) -> RemediatedRun {
    run_with_threads(w, threads, size, variant, Mode::Baseline)
}

/// Threaded adaptive run: every thread's advisor handle shares one
/// live-fed policy, so a pattern one thread diagnoses rewrites every
/// thread's subsequent regions.
pub fn run_adaptive_threaded(
    w: &dyn Workload,
    threads: u32,
    size: ProblemSize,
    variant: Variant,
) -> RemediatedRun {
    run_with_threads(w, threads, size, variant, Mode::Adaptive)
}

/// Threaded re-run with a pre-seeded policy shared by all threads.
pub fn run_seeded_threaded(
    w: &dyn Workload,
    threads: u32,
    size: ProblemSize,
    variant: Variant,
    policy: RemediationPolicy,
) -> RemediatedRun {
    run_with_threads(w, threads, size, variant, Mode::Seeded(policy))
}

/// Build the advisor set (and the policy cell for reporting) for a
/// threaded run. Shared with the CLI's `--remediate --threads` path.
pub fn threaded_advisors(
    handle: &ToolHandle,
    threads: u32,
    mode_adaptive: bool,
    seeded: Option<RemediationPolicy>,
) -> (Vec<Option<Box<dyn MapAdvisor>>>, Option<SharedPolicyCell>) {
    let remediator = if mode_adaptive {
        Some(SharedRemediator::new(handle.clone()))
    } else {
        seeded.map(SharedRemediator::seeded)
    };
    match remediator {
        None => (Vec::new(), None),
        Some((remediator, policy)) => (
            (0..threads)
                .map(|_| Some(Box::new(remediator.fork_advisor()) as Box<dyn MapAdvisor>))
                .collect(),
            Some(policy),
        ),
    }
}

fn run_with_threads(
    w: &dyn Workload,
    threads: u32,
    size: ProblemSize,
    variant: Variant,
    mode: Mode,
) -> RemediatedRun {
    let stream = matches!(mode, Mode::Adaptive);
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        stream,
        ..Default::default()
    });
    let mut tools: Vec<Box<dyn Tool>> = vec![Box::new(tool)];
    for _ in 1..threads {
        tools.push(Box::new(handle.fork_tool()));
    }
    let (advisors, live_policy) = match mode {
        Mode::Baseline => (Vec::new(), None),
        Mode::Adaptive => threaded_advisors(&handle, threads, true, None),
        Mode::Seeded(policy) => threaded_advisors(&handle, threads, false, Some(policy)),
    };

    let run = crate::threaded::run_threaded_shared(
        w,
        threads,
        size,
        variant,
        &RuntimeConfig::default(),
        tools,
        advisors,
    );

    let trace = handle.take_trace();
    let report = if let Some(mut engine) = handle.take_stream_engine() {
        let view = EventView::from_log(&trace);
        let findings = engine.finalize(&view);
        ompdataperf::analysis::analyze_with_findings(
            &trace,
            Some(&run.dbg),
            w.name(),
            handle.console_lines(),
            findings,
        )
    } else {
        ompdataperf::analysis::analyze_named(
            &trace,
            Some(&run.dbg),
            w.name(),
            handle.console_lines(),
        )
    };

    let remediation = match &live_policy {
        Some(policy) => RemediationReport::new(
            &policy.lock(),
            &run.remediation,
            run.stats.bytes_transferred,
            run.stats.transfer_time,
        ),
        None => RemediationReport::new(
            &RemediationPolicy::new(),
            &run.remediation,
            run.stats.bytes_transferred,
            run.stats.transfer_time,
        ),
    };

    RemediatedRun {
        report,
        remediation,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_babelstream_recovers_transfer_time_in_one_run() {
        let w = crate::babelstream::BabelStream;
        let baseline = run_baseline(&w, ProblemSize::Small, Variant::Original);
        let adaptive = run_adaptive(&w, ProblemSize::Small, Variant::Original);
        assert!(
            adaptive.remediation.recovered_time().as_nanos() > 0,
            "live findings must rewrite later iterations"
        );
        assert!(
            adaptive.stats.bytes_transferred < baseline.stats.bytes_transferred,
            "adaptive run must move strictly fewer bytes ({} vs {})",
            adaptive.stats.bytes_transferred,
            baseline.stats.bytes_transferred
        );
        // Detection stayed live: the adaptive run still reports the
        // issues it saw before the rewrites kicked in.
        assert!(adaptive.report.counts.total() > 0);
        assert!(adaptive.report.counts.dd < baseline.report.counts.dd);
    }

    #[test]
    fn baseline_runs_apply_no_rewrites() {
        let w = crate::babelstream::BabelStream;
        let baseline = run_baseline(&w, ProblemSize::Small, Variant::Original);
        assert!(baseline.remediation.rows.is_empty());
        assert_eq!(baseline.remediation.recovered_transfer_bytes, 0);
    }
}
