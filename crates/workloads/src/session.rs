//! The run driver: one workload, under the tool, finished into a report.
//!
//! [`run`] is the only non-test code that forks tool shards, builds
//! runtimes and attaches the advisor — `odp run`, `odp trace save`
//! ([`crate::capture`]), `odp static crosscheck|plan` (an IR program is a
//! [`Workload`], `odp_static::lower::IrWorkload`), the `odp paper`
//! experiments, the examples and the integration tests all describe what
//! they want in a [`RunSpec`] and read the result off a [`RunOutcome`].
//! What happens after the program exits is
//! `ompdataperf::analysis::finish_run`, the one end-of-run protocol, so
//! every caller gets the same report for the same run.
//!
//! A run is laid out on threads in one call to
//! `odp_sim::run_on_threads_advised`: every thread drives its own
//! runtime and devices (the rank-per-thread shape), whether or not the
//! run remediates. Under [`Remedy::Adaptive`] or [`Remedy::Seeded`] one
//! `Remediator` is the advisor every thread consults. A one-thread run
//! is the same call with one thread.

use crate::adaptive::Remedy;
use crate::{ProblemSize, Variant, Workload};
use odp_model::TraceHealth;
use odp_ompt::{MapAdvisor, RemediationStats, Tool};
use odp_sim::{
    merged_stats, run_on_threads_advised, Runtime, RuntimeConfig, RuntimeStats, RuntimeWarning,
};
use odp_trace::TraceLog;
use ompdataperf::analysis::{finish_run, FinishedRun, LiveStream};
use ompdataperf::attrib::DebugInfo;
use ompdataperf::remedy::RemediationReport;
use ompdataperf::report::Report;
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig, ToolHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything that decides how a workload runs under the tool.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Problem size (`--size`).
    pub size: ProblemSize,
    /// Program variant (`--variant`).
    pub variant: Variant,
    /// Host threads driving the offload pattern (`--threads`); above 1
    /// only for workloads with [`Workload::supports_threads`].
    pub threads: u32,
    /// The tool's configuration. [`Remedy::Adaptive`] turns
    /// `ToolConfig::stream` on — the policy learns from live findings.
    pub tool: ToolConfig,
    /// The simulated runtime's configuration (capability profile,
    /// fault plan).
    pub runtime: RuntimeConfig,
    /// Whether, and from what, mappings are rewritten during the run.
    pub remedy: Remedy,
}

impl Default for RunSpec {
    /// Small, original, one thread, default tool and runtime, no
    /// remediation.
    fn default() -> RunSpec {
        RunSpec {
            size: ProblemSize::Small,
            variant: Variant::Original,
            threads: 1,
            tool: ToolConfig::default(),
            runtime: RuntimeConfig::default(),
            remedy: Remedy::Off,
        }
    }
}

/// What one instrumented run produced.
pub struct RunOutcome {
    /// The full §A.6 analysis report.
    pub report: Report,
    /// The merged trace the report was built from.
    pub trace: TraceLog,
    /// The run's merged health (collector, streaming engine, shard
    /// merge).
    pub health: TraceHealth,
    /// The live findings stream's end state (streaming runs only).
    pub live: Option<LiveStream>,
    /// Recovered-vs-baseline accounting; `None` under [`Remedy::Off`].
    pub remediation: Option<RemediationReport>,
    /// Runtime statistics, merged across threads.
    pub stats: RuntimeStats,
    /// What the runtime complained about while executing directives
    /// (`libomptarget`'s stderr), each thread's in order, thread 0 first.
    pub warnings: Vec<RuntimeWarning>,
    /// Debug info the workload registered.
    pub debug_info: DebugInfo,
    /// The tool handle (hash meter, collision audit).
    pub handle: ToolHandle,
    /// Wall-clock time of the monitored program (tool attached),
    /// excluding set-up and analysis.
    pub wall: Duration,
}

/// Run `w` under the tool as `spec` says and finish it into a report.
///
/// # Panics
/// When `spec.threads > 1` and the workload has no threaded variant.
pub fn run(w: &dyn Workload, spec: &RunSpec) -> RunOutcome {
    run_observed(w, spec, |_| || ())
}

/// [`run`] with a live observer: `observe` gets the tool handle before
/// the program starts (register findings taps, spawn a poller) and
/// returns the closure that stops it, called when the program has
/// exited and before the end-of-run analysis.
pub fn run_observed<S: FnOnce()>(
    w: &dyn Workload,
    spec: &RunSpec,
    observe: impl FnOnce(&ToolHandle) -> S,
) -> RunOutcome {
    let mut cfg = spec.tool;
    cfg.stream |= matches!(spec.remedy, Remedy::Adaptive);
    let (tool, handle) = OmpDataPerfTool::new(cfg);
    let tools = shards(tool, spec.threads, || handle.fork_tool());
    let remediator = spec.remedy.remediator(&handle);
    let stop = observe(&handle);

    let start = Instant::now();
    let driven = drive(
        w,
        spec.size,
        spec.variant,
        &spec.runtime,
        tools,
        remediator.clone().map(|r| r as Arc<dyn MapAdvisor>),
    );
    let wall = start.elapsed();
    stop();

    let FinishedRun {
        trace,
        report,
        health,
        live,
    } = finish_run(&handle, Some(&driven.debug_info), w.name());
    let remediation = remediator.map(|remediator| {
        RemediationReport::new(
            &remediator.policy(),
            &driven.remediation,
            driven.stats.bytes_transferred,
            driven.stats.transfer_time,
        )
    });
    RunOutcome {
        report,
        trace,
        health,
        live,
        remediation,
        stats: driven.stats,
        warnings: driven.warnings,
        debug_info: driven.debug_info,
        handle,
        wall,
    }
}

/// Run `w` under any other sharded OMPT tool (the Arbalest-Vec
/// comparison baseline of §7.7): `first` on thread 0 and one `fork()`
/// per further thread, each thread on a private default runtime.
/// Results stay in the tool's own handle; returns the run statistics.
///
/// # Panics
/// When `threads > 1` and the workload has no threaded variant.
pub fn run_under<T: Tool + 'static>(
    w: &dyn Workload,
    size: ProblemSize,
    variant: Variant,
    threads: u32,
    first: T,
    fork: impl Fn() -> T,
) -> RuntimeStats {
    let tools = shards(first, threads, fork);
    drive(w, size, variant, &RuntimeConfig::default(), tools, None).stats
}

/// One tool per runtime thread: `first`, then `threads - 1` forks.
fn shards<T: Tool + 'static>(first: T, threads: u32, fork: impl Fn() -> T) -> Vec<Box<dyn Tool>> {
    let mut tools: Vec<Box<dyn Tool>> = vec![Box::new(first)];
    tools.extend((1..threads).map(|_| Box::new(fork()) as Box<dyn Tool>));
    tools
}

struct Driven {
    debug_info: DebugInfo,
    stats: RuntimeStats,
    warnings: Vec<RuntimeWarning>,
    remediation: RemediationStats,
}

/// Execute the program on `tools.len()` threads, each on its own
/// runtime, every thread consulting `advisor`.
fn drive(
    w: &dyn Workload,
    size: ProblemSize,
    variant: Variant,
    cfg: &RuntimeConfig,
    tools: Vec<Box<dyn Tool>>,
    advisor: Option<Arc<dyn MapAdvisor>>,
) -> Driven {
    let threads = tools.len() as u32;
    assert!(
        threads == 1 || w.supports_threads(),
        "{} does not support --threads",
        w.name()
    );
    let body = |_, rt: &mut Runtime| {
        let debug_info = w.run(rt, size, variant);
        (debug_info, rt.warnings().to_vec())
    };
    let (results, remediation) = run_on_threads_advised(threads, cfg, tools, advisor, body);
    let stats: Vec<RuntimeStats> = results.iter().map(|(_, stats)| *stats).collect();
    let mut outputs = results.into_iter().map(|(output, _)| output);
    // The debug info is identical on every thread; keep the first.
    let (debug_info, mut warnings) = outputs
        .next()
        .unwrap_or_else(|| panic!("no worker threads ran"));
    warnings.extend(outputs.flat_map(|(_, warnings)| warnings));
    Driven {
        debug_info,
        stats: merged_stats(&stats),
        warnings,
        remediation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_sim::{FaultPlan, FaultProfile};

    fn warnings(report: &Report) -> Vec<&String> {
        let mut lines: Vec<&String> = report
            .console
            .iter()
            .filter(|l| l.starts_with("warning:"))
            .collect();
        lines.sort();
        lines
    }

    /// A streamed report used to lose the out-of-range-device warning
    /// the post-mortem report of the same trace carries.
    #[test]
    fn a_streamed_report_carries_the_postmortem_reports_warnings() {
        let w = crate::by_name("bfs").unwrap();
        let under_faults = |stream| {
            let mut spec = RunSpec::default();
            spec.tool.stream = stream;
            spec.runtime.faults = FaultPlan::from_profile(FaultProfile::Hostile, 42);
            run(&*w, &spec).report
        };
        let (post, streamed) = (under_faults(false), under_faults(true));
        assert_eq!(warnings(&streamed), warnings(&post));
        assert!(
            warnings(&post)
                .iter()
                .any(|l| l.contains("Algorithms 4/5 exclude them")),
            "{:?}",
            post.console
        );
        assert!(warnings(&post).iter().any(|l| l.contains("degraded trace")));
    }

    #[test]
    fn tool_run_smoke() {
        let w = crate::by_name("hotspot").unwrap();
        let tooled = run(&*w, &RunSpec::default());
        assert_eq!(tooled.report.counts.dd, 2);
        assert!(tooled.stats.total_time.as_nanos() > 0);
        assert!(!tooled.debug_info.is_empty());
        let mut untooled = Runtime::new(RuntimeConfig::default());
        w.run(&mut untooled, ProblemSize::Small, Variant::Original);
        assert_eq!(
            untooled.finish().total_time,
            tooled.stats.total_time,
            "tool must not change virtual time"
        );
    }

    #[test]
    fn a_streaming_config_is_finalized_not_ignored() {
        let w = crate::by_name("bfs").unwrap();
        let with_stream = |stream| {
            let mut spec = RunSpec::default();
            spec.tool.stream = stream;
            run(&*w, &spec)
        };
        let (post, streamed) = (with_stream(false), with_stream(true));
        assert!(post.live.is_none());
        let live = streamed.live.expect("the engine ran and was settled");
        assert!(live.emitted > 0);
        assert!(!streamed.handle.streaming(), "the engine left the handle");
        assert_eq!(streamed.report.to_json(), post.report.to_json());
    }

    #[test]
    fn a_run_under_another_tool_reports_through_that_tools_handle() {
        let w = crate::by_name("bfs").unwrap();
        let (tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        let stats = run_under(&*w, ProblemSize::Small, Variant::Original, 2, tool, || {
            handle.fork_tool()
        });
        assert_eq!(handle.shard_count(), 2);
        assert!(stats.kernels > 0);
        assert!(handle.take_trace().data_op_count() > 0);
    }

    #[test]
    fn the_spec_alone_decides_the_shape_of_a_threaded_run() {
        let w = crate::by_name("babelstream").unwrap();
        let on = |threads, remedy| {
            run(
                &*w,
                &RunSpec {
                    threads,
                    remedy,
                    ..RunSpec::default()
                },
            )
        };
        // Private devices: every thread allocates and sends for itself.
        let one = on(1, Remedy::Off);
        let private = on(4, Remedy::Off);
        assert_eq!(private.stats.allocs, 4 * one.stats.allocs);
        assert!(private.remediation.is_none() && private.live.is_none());
        // Adaptive: streaming is implied, the threads share one policy,
        // and each still works on its own devices.
        let adaptive = on(4, Remedy::Adaptive);
        assert!(adaptive.live.is_some(), "Adaptive turns streaming on");
        let remediation = adaptive.remediation.unwrap();
        assert!(remediation.consults > 0);
        assert_eq!(
            remediation.actual_transfer_bytes + remediation.recovered_transfer_bytes,
            private.stats.bytes_transferred,
            "the baseline is the unremediated run of the same shape"
        );
    }
}
