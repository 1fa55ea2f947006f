//! End-to-end streaming mode: real workloads through the simulated
//! runtime with the online engine attached. The engine's finalize
//! output must be byte-identical to the post-mortem detection over the
//! recorded trace, for every workload, including degraded (pre-EMI)
//! runtimes where events arrive begin-only.

// The live ≡ projection assertion shared with the core differential suites.
#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::assert_live_matches;
use odp_sim::{Runtime, RuntimeConfig};
use odp_workloads::{ProblemSize, Variant};
use ompdataperf::detect::EventView;
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};

fn streamed_run(
    name: &str,
    variant: Variant,
    pre_emi: bool,
) -> (odp_trace::TraceLog, ompdataperf::detect::StreamingEngine) {
    let w = odp_workloads::by_name(name).unwrap();
    let cfg = if pre_emi {
        RuntimeConfig::default().pre_emi()
    } else {
        RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        stream: true,
        ..Default::default()
    });
    rt.attach_tool(Box::new(tool));
    w.run(&mut rt, ProblemSize::Small, variant);
    rt.finish();
    let trace = handle.take_trace();
    let engine = handle.take_stream_engine().expect("streaming was enabled");
    (trace, engine)
}

#[test]
fn streaming_matches_postmortem_on_every_workload() {
    // The synthetic variants' injected duplicate groups are the densest
    // Algorithm 1 input among the shipped programs.
    for w in odp_workloads::all() {
        for variant in [Variant::Original, Variant::Synthetic] {
            if !w.supports(variant) {
                continue;
            }
            let (trace, mut engine) = streamed_run(w.name(), variant, false);
            let view = EventView::from_log(&trace);
            let report = engine.finalize(&view);
            let label = format!("{} ({variant:?})", w.name());
            assert_eq!(
                engine.live_counts(),
                report.counts(),
                "live counts diverged on {label}"
            );
            assert_live_matches(engine.take_findings(), &report, &label);
        }
    }
}

#[test]
fn streaming_emits_findings_for_known_antipatterns() {
    // bfs's per-iteration remapping is the paper's flagship anti-pattern:
    // the engine must surface findings live, not only at finalize.
    let (_trace, mut engine) = streamed_run("bfs", Variant::Original, false);
    let live = engine.take_findings();
    assert!(
        !live.is_empty(),
        "bfs has known issues; streaming should emit them during the run"
    );
    let lines: Vec<String> = live
        .iter()
        .map(ompdataperf::report::render_stream_finding)
        .collect();
    assert!(lines.iter().all(|l| l.starts_with("stream: ")));
}

#[test]
fn streaming_works_on_degraded_runtimes() {
    // Pre-EMI: begin-only callbacks, zero-duration spans, watermark
    // always current — the reorder buffer passes straight through.
    let (trace, mut engine) = streamed_run("hotspot", Variant::Original, true);
    assert_eq!(engine.buffer_stats().buffered_now, 0);
    let view = EventView::from_log(&trace);
    let report = engine.finalize(&view);
    assert_live_matches(engine.take_findings(), &report, "pre-EMI hotspot");
}

#[test]
fn streaming_reorder_buffer_stays_small() {
    // The reorder buffer is bounded by open-op concurrency, which in the
    // simulated runtime is small regardless of how many events a
    // workload emits.
    for name in ["bfs", "xsbench", "minife"] {
        let (trace, engine) = streamed_run(name, Variant::Original, false);
        let stats = engine.buffer_stats();
        assert!(
            stats.buffered_peak <= 64,
            "{name}: reorder peak {} for {} events",
            stats.buffered_peak,
            trace.data_op_count() + trace.target_count()
        );
    }
}
