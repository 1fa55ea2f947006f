//! Golden cross-check fixtures for the three declarative workloads.
//!
//! The checked-in JSON under `tests/fixtures/` pins, byte for byte,
//! both halves of the static pipeline at small size:
//!
//! - `crosscheck_<workload>.json` — the joined static-vs-dynamic rows
//!   and summary tallies. Counts only, no ratios, so the rendering is
//!   byte-stable across platforms.
//! - `plan_<workload>.json` — the emitted patch plan (edits plus
//!   unremediable notes).
//!
//! A mismatch means the analyzer's predictions, the lowered dynamic
//! findings, or the rewrite rules drifted. After an intentional change,
//! regenerate with:
//!
//! ```text
//! ODP_STATIC_BLESS=1 cargo test -p odp-static --test crosscheck_golden
//! ```
//!
//! The suite also re-asserts the acceptance bar directly from the live
//! values (not the fixtures): babelstream reports 100% precision for
//! `Certain` predictions, and its validated patch plan drops every
//! dynamic finding to zero.

use odp_static::ir::MappingProgram;
use odp_static::{by_name, crosscheck, emit_plan, validate_plan};
use odp_workloads::ProblemSize;
use std::path::PathBuf;

fn small(name: &str) -> MappingProgram {
    let workload = by_name(name).expect("known workload");
    workload.program(ProblemSize::Small).clone()
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `actual` against the checked-in fixture, or rewrite the
/// fixture when `ODP_STATIC_BLESS=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("ODP_STATIC_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name}: {e}\nregenerate with ODP_STATIC_BLESS=1")
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the checked-in fixture; if intentional, \
         regenerate with ODP_STATIC_BLESS=1"
    );
}

fn check_workload(name: &str) {
    let p = small(name);
    let (check, report, _run) = crosscheck(&p);
    assert_golden(&format!("crosscheck_{name}.json"), &check.to_json());
    let plan = emit_plan(&p, &report);
    assert_golden(&format!("plan_{name}.json"), &plan.to_json());
}

#[test]
fn babelstream_crosscheck_and_plan_are_pinned() {
    check_workload("babelstream");
}

#[test]
fn bfs_crosscheck_and_plan_are_pinned() {
    check_workload("bfs");
}

#[test]
fn xsbench_crosscheck_and_plan_are_pinned() {
    check_workload("xsbench");
}

/// The acceptance bar, asserted from live values rather than fixtures.
#[test]
fn babelstream_certain_precision_total_and_plan_zeroes_findings() {
    let p = small("babelstream");
    let (check, report, run) = crosscheck(&p);
    assert!(check.summary.certain_rows > 0);
    assert!(
        check.summary.certain_precision_is_total(),
        "{}",
        check.render(&p)
    );
    assert!(
        run.report.counts.total() > 0,
        "the unfixed workload must misbehave"
    );

    let plan = emit_plan(&p, &report);
    let (outcome, _rewritten) = validate_plan(&p, &plan).expect("plan applies");
    assert_eq!(outcome.before_total, run.report.counts.total() as u64);
    assert!(
        outcome.zero_after(),
        "applied plan must remove every remediable finding: {outcome:?}\n{}",
        plan.render()
    );
}

#[test]
fn xsbench_plan_zeroes_findings() {
    let p = small("xsbench");
    let (_check, report, _run) = crosscheck(&p);
    let plan = emit_plan(&p, &report);
    let (outcome, _) = validate_plan(&p, &plan).expect("plan applies");
    assert!(outcome.zero_after(), "{outcome:?}");
}

#[test]
fn bfs_plan_is_non_increasing() {
    let p = small("bfs");
    let (_check, report, _run) = crosscheck(&p);
    let plan = emit_plan(&p, &report);
    assert!(!plan.unremediable.is_empty(), "{}", plan.render());
    let (outcome, _) = validate_plan(&p, &plan).expect("plan applies");
    assert!(outcome.non_increasing(), "{outcome:?}");
}
