//! End-to-end pipeline test: workload → simulated runtime → OMPT tool →
//! trace → detection → prediction → report.

use odp_sim::Runtime;
use odp_workloads::session::{run, RunOutcome, RunSpec};
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::Report;

fn run_outcome(w: &dyn Workload, size: ProblemSize, variant: Variant) -> RunOutcome {
    run(
        w,
        &RunSpec {
            size,
            variant,
            ..RunSpec::default()
        },
    )
}

fn run_workload(w: &dyn Workload, size: ProblemSize, variant: Variant) -> Report {
    run_outcome(w, size, variant).report
}

#[test]
fn bfs_end_to_end_produces_full_report() {
    let w = odp_workloads::by_name("bfs").unwrap();
    let report = run_workload(w.as_ref(), ProblemSize::Small, Variant::Original);

    // Issues found (exact counts pinned by table1_issue_counts.rs).
    assert!(report.counts.dd > 0);
    assert!(report.counts.rt > 0);
    assert!(report.counts.ra > 0);

    // Prediction exists and is sane.
    assert!(report.prediction.predicted_speedup > 1.0);
    assert!(report.prediction.time_saved.as_nanos() > 0);
    assert!(report.prediction.predicted_time < report.prediction.total_time);

    // Source attribution resolved the bfs call sites.
    let rendered = report.render();
    assert!(
        rendered.contains("bfs.cpp"),
        "expected bfs.cpp attribution in:\n{rendered}"
    );
    assert!(rendered.contains("info: OpenMP OMPT interface version 5.1"));
    assert!(rendered.contains("=== Summary ==="));
}

#[test]
fn clean_program_reports_no_issues() {
    let w = odp_workloads::by_name("lud").unwrap();
    let report = run_workload(w.as_ref(), ProblemSize::Small, Variant::Original);
    assert!(report.counts.is_clean(), "{:?}", report.counts);
    assert!((report.prediction.predicted_speedup - 1.0).abs() < 1e-9);
    let rendered = report.render();
    assert!(rendered.contains("no issues detected"));
}

#[test]
fn space_overhead_matches_record_arithmetic() {
    // §7.4: 72 B per data op, 24 B per target record.
    let w = odp_workloads::by_name("hotspot").unwrap();
    let report = run_workload(w.as_ref(), ProblemSize::Small, Variant::Original);
    let expected = report.space.data_op_records * 72 + report.space.target_records * 24;
    assert_eq!(report.space.record_bytes, expected);
    assert!(report.space.peak_alloc_bytes >= expected);
}

#[test]
fn json_report_is_machine_readable() {
    let w = odp_workloads::by_name("xsbench").unwrap();
    let report = run_workload(w.as_ref(), ProblemSize::Small, Variant::Original);
    let v: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
    assert_eq!(v["counts"]["rt"], 1, "xsbench's single round trip");
    assert_eq!(v["program"], "xsbench");
}

#[test]
fn fixing_reduces_both_issues_and_runtime() {
    let w = odp_workloads::by_name("bfs").unwrap();

    let before = run_outcome(w.as_ref(), ProblemSize::Small, Variant::Original);
    let after = run_outcome(w.as_ref(), ProblemSize::Small, Variant::Fixed);

    assert!(after.report.counts.total() < before.report.counts.total());
    assert!(
        after.stats.total_time < before.stats.total_time,
        "fixed bfs must be faster: {} vs {}",
        after.stats.total_time,
        before.stats.total_time
    );
}

#[test]
fn tool_off_and_tool_on_runs_have_identical_virtual_time() {
    // The tool must not perturb the monitored program's virtual clock
    // (its overhead is wall-clock only) — prerequisite for Figure 2.
    let w = odp_workloads::by_name("hotspot").unwrap();

    let mut bare = Runtime::with_defaults();
    w.run(&mut bare, ProblemSize::Small, Variant::Original);
    let t_bare = bare.finish().total_time;

    let t_tooled = run_outcome(w.as_ref(), ProblemSize::Small, Variant::Original)
        .stats
        .total_time;

    assert_eq!(t_bare, t_tooled);
}
