//! End-to-end multi-threaded collection: real workloads driven from N
//! OS threads, each with its own simulated runtime and tool shard. The
//! merged trace must be identical across runs (scheduling
//! independence), detection over it must be deterministic, and
//! streaming finalize must stay byte-identical to post-mortem
//! detection under genuinely concurrent callback emission.

// The live ≡ projection assertion shared with the core differential suites.
#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::assert_live_matches;
use odp_ompt::Tool;
use odp_sim::{run_on_threads, RuntimeConfig};
use odp_workloads::threaded::threaded_workloads;
use odp_workloads::{ProblemSize, Variant};
use ompdataperf::detect::{EventView, Findings};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};

fn threaded_run(
    name: &str,
    threads: u32,
    cfg: ToolConfig,
) -> (
    ompdataperf::tool::ToolHandle,
    ompdataperf::attrib::DebugInfo,
) {
    let w = odp_workloads::by_name(name).unwrap();
    let (tool, handle) = OmpDataPerfTool::new(cfg);
    let mut tools: Vec<Box<dyn Tool>> = vec![Box::new(tool)];
    for _ in 1..threads {
        tools.push(Box::new(handle.fork_tool()));
    }
    // Drives the primitives on purpose (the tests below finalize the
    // engine by hand); everything else goes through `session::run`.
    let mut results = run_on_threads(threads, &RuntimeConfig::default(), tools, |_, rt| {
        w.run(rt, ProblemSize::Small, Variant::Original)
    });
    let (dbg, stats) = results.swap_remove(0);
    assert!(stats.kernels > 0);
    (handle, dbg)
}

#[test]
fn every_threaded_workload_merges_deterministically() {
    for w in threaded_workloads() {
        let (h1, _) = threaded_run(w.name(), 4, ToolConfig::default());
        let (h2, _) = threaded_run(w.name(), 4, ToolConfig::default());
        let t1 = h1.take_trace();
        let t2 = h2.take_trace();
        assert!(t1.is_merged());
        assert_eq!(
            t1.to_json(),
            t2.to_json(),
            "{}: merged trace depends on scheduling",
            w.name()
        );
    }
}

#[test]
fn threaded_detection_scales_the_single_thread_counts() {
    // N identical host threads each run the same offload pattern: every
    // per-thread inefficiency appears N times, so the counts are at least
    // N× the single-thread ones. The excess over N× is aliasing, not a
    // cross-thread finding (ROADMAP, "Threaded runs are right"): every
    // thread's private device set numbers itself device 0, and every
    // thread's private host memory starts at the same base, so different
    // threads' variables share host addresses and device ids in the
    // merged trace. The bound stays `>=` until that aliasing is gone.
    let (h1, _) = threaded_run("bfs", 1, ToolConfig::default());
    let (h4, _) = threaded_run("bfs", 4, ToolConfig::default());
    let t1 = h1.take_trace();
    let t4 = h4.take_trace();
    assert_eq!(t4.data_op_count(), 4 * t1.data_op_count());
    let f1 = Findings::detect_fused(&EventView::from_log(&t1));
    let f4 = Findings::detect_fused(&EventView::from_log(&t4));
    assert!(f1.counts().total() > 0, "bfs has known issues");
    assert!(
        f4.counts().total() >= 4 * f1.counts().total(),
        "4 threads: {:?} vs 1 thread: {:?}",
        f4.counts(),
        f1.counts()
    );
}

#[test]
fn threaded_streaming_finalize_matches_postmortem() {
    for name in ["babelstream", "bfs", "xsbench"] {
        for threads in [2u32, 4] {
            let (handle, _) = threaded_run(
                name,
                threads,
                ToolConfig {
                    stream: true,
                    ..Default::default()
                },
            );
            let trace = handle.take_trace();
            let mut engine = handle.take_stream_engine().expect("streaming on");
            let view = EventView::from_log(&trace);
            let report = engine.finalize(&view);
            assert_eq!(engine.live_counts(), report.counts());
            assert_live_matches(
                engine.take_findings(),
                &report,
                &format!("{name} with {threads} threads"),
            );
        }
    }
}

#[test]
fn threaded_report_pipeline_runs_end_to_end() {
    let (handle, dbg) = threaded_run("xsbench", 3, ToolConfig::default());
    let trace = handle.take_trace();
    let report = ompdataperf::analysis::analyze_named(
        &trace,
        Some(&dbg),
        "xsbench x3",
        handle.console_lines(),
    );
    assert!(report.counts.total() > 0);
    assert_eq!(report.space.data_op_records, trace.data_op_count());
    let text = report.render();
    assert!(text.contains("=== Summary ==="));
}
