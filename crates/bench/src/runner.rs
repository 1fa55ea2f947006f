//! Workload execution helpers shared by the experiment binaries.

use odp_arbalest::{ArbalestReport, ArbalestVecTool};
use odp_model::SimDuration;
use odp_sim::{Runtime, RuntimeConfig};
use odp_workloads::session::{self, RunOutcome, RunSpec};
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::tool::ToolConfig;
use std::time::{Duration, Instant};

/// Run `w` with OMPDataPerf attached and analyze the trace — through
/// the run driver, so a streaming `cfg` is finalized like `odp run
/// --stream` does. `RunOutcome::wall` times the monitored program.
pub fn run_with_tool(
    w: &dyn Workload,
    size: ProblemSize,
    variant: Variant,
    cfg: ToolConfig,
) -> RunOutcome {
    let spec = RunSpec {
        size,
        variant,
        tool: cfg,
        ..RunSpec::default()
    };
    session::run(w, &spec)
}

/// Run `w` without any tool; returns (simulated time, wall-clock).
pub fn run_without_tool(
    w: &dyn Workload,
    size: ProblemSize,
    variant: Variant,
) -> (SimDuration, Duration) {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let start = Instant::now();
    w.run(&mut rt, size, variant);
    let stats = rt.finish();
    (stats.total_time, start.elapsed())
}

/// Run `w` under the Arbalest-Vec baseline.
pub fn run_with_arbalest(w: &dyn Workload, size: ProblemSize, variant: Variant) -> ArbalestReport {
    let (tool, handle) = ArbalestVecTool::new();
    session::run_under(w, size, variant, 1, tool, || handle.fork_tool());
    handle.report()
}

/// Median wall-clock of `reps` runs of `f` (first run discarded as
/// warm-up when `reps > 1`).
pub fn measure_wall(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    assert!(reps >= 1);
    if reps > 1 {
        let _ = f(); // warm-up
    }
    let mut samples: Vec<Duration> = (0..reps).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Geometric mean of a slice of ratios.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn measure_wall_returns_median() {
        let mut calls = 0;
        let d = measure_wall(3, || {
            calls += 1;
            Duration::from_millis(calls)
        });
        // warm-up + 3 samples → samples are 2,3,4 ms → median 3.
        assert_eq!(d, Duration::from_millis(3));
    }

    #[test]
    fn tool_run_smoke() {
        let w = odp_workloads::by_name("hotspot").unwrap();
        let run = run_with_tool(
            w.as_ref(),
            ProblemSize::Small,
            Variant::Original,
            ToolConfig::default(),
        );
        assert_eq!(run.report.counts.dd, 2);
        assert!(run.stats.total_time.as_nanos() > 0);
        assert!(!run.debug_info.is_empty());
        let (sim, _wall) = run_without_tool(w.as_ref(), ProblemSize::Small, Variant::Original);
        assert_eq!(
            sim, run.stats.total_time,
            "tool must not change virtual time"
        );
    }

    #[test]
    fn a_streaming_config_is_finalized_not_ignored() {
        let w = odp_workloads::by_name("bfs").unwrap();
        let run = |stream| {
            let cfg = ToolConfig {
                stream,
                ..ToolConfig::default()
            };
            run_with_tool(w.as_ref(), ProblemSize::Small, Variant::Original, cfg)
        };
        let (post, streamed) = (run(false), run(true));
        assert!(post.live.is_none());
        let live = streamed.live.expect("the engine ran and was settled");
        assert!(live.emitted > 0);
        assert!(!streamed.handle.streaming(), "the engine left the handle");
        assert_eq!(streamed.report.to_json(), post.report.to_json());
    }
}
