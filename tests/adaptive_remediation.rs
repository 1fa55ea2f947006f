//! Adaptive remediation correctness, end to end.
//!
//! Property (seeded re-run): for every targeted workload, a re-run
//! whose advisor was seeded from the baseline findings must (a) report
//! **zero** findings of the remediated kinds beyond the transfers the
//! host needs, (b) move strictly fewer bytes than the baseline whenever
//! it dropped a transfer, and (c) account recovered time greater than
//! zero.
//!
//! Property (no-op): an *empty* policy must change nothing — findings
//! byte-identical to the baseline, identical transfer totals.
//!
//! Property (adaptive): a single live run — findings streamed into the
//! policy mid-run — must already recover transfer time on iterative
//! workloads, while detection keeps reporting the pre-rewrite issues.

use odp_workloads::adaptive::Remedy;
use odp_workloads::session::{run, RunOutcome, RunSpec};
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::remedy::RemediationPolicy;

/// One single-thread run through the run driver.
fn run_as(w: &dyn Workload, size: ProblemSize, variant: Variant, remedy: Remedy) -> RunOutcome {
    run(
        w,
        &RunSpec {
            size,
            variant,
            remedy,
            ..RunSpec::default()
        },
    )
}

/// The per-workload expectation for a seeded re-run: the duplicates
/// and round trips remediation must keep. Identical content flowing
/// through *different* variables (bfs's mask/visited initial images) is
/// one no rewrite of a single clause can unify. And a copy is dropped
/// only while the device and host copies provably agree: bfs's stop
/// flag is written by the host before every level and by the kernel
/// after, so each of its transfers carries a value the other side
/// needs — bfs keeps every duplicate and round trip it has and
/// recovers only allocation work.
struct Expect {
    name: &'static str,
    size: ProblemSize,
    kept_dd: usize,
    kept_rt: usize,
}

const GRID: &[Expect] = &[
    Expect {
        name: "babelstream",
        size: ProblemSize::Small,
        kept_dd: 0,
        kept_rt: 0,
    },
    Expect {
        name: "babelstream",
        size: ProblemSize::Medium,
        kept_dd: 0,
        kept_rt: 0,
    },
    Expect {
        name: "bfs",
        size: ProblemSize::Small,
        kept_dd: 10,
        kept_rt: 6,
    },
    Expect {
        name: "bfs",
        size: ProblemSize::Medium,
        kept_dd: 18,
        kept_rt: 10,
    },
    Expect {
        name: "xsbench",
        size: ProblemSize::Small,
        kept_dd: 0,
        kept_rt: 0,
    },
];

#[test]
fn seeded_rerun_eliminates_the_remediated_kinds() {
    for e in GRID {
        let w = odp_workloads::by_name(e.name).unwrap();
        let baseline = run_as(&*w, e.size, Variant::Original, Remedy::Off);
        assert!(
            baseline.report.counts.total() > 0,
            "{} must have findings to remediate",
            e.name
        );

        let policy = RemediationPolicy::from_findings(&baseline.report.findings);
        let rerun = run_as(&*w, e.size, Variant::Original, Remedy::Seeded(policy));

        let c = rerun.report.counts;
        assert_eq!(
            c.dd, e.kept_dd,
            "{} ({:?}): duplicate transfers must drop to the ones the host needs, got {c:?}",
            e.name, e.size
        );
        assert_eq!(
            c.rt, e.kept_rt,
            "{} ({:?}): round trips must drop to the ones the host needs, got {c:?}",
            e.name, e.size
        );
        assert_eq!(
            c.ra, 0,
            "{} ({:?}): repeated allocations remain: {c:?}",
            e.name, e.size
        );
        let base = baseline.report.counts;
        if (c.dd, c.rt) == (base.dd, base.rt) {
            assert_eq!(
                rerun.stats.bytes_transferred, baseline.stats.bytes_transferred,
                "{} ({:?}): a re-run that keeps every transfer moves the same bytes",
                e.name, e.size
            );
        } else {
            assert!(
                rerun.stats.bytes_transferred < baseline.stats.bytes_transferred,
                "{} ({:?}): remediated run must move strictly fewer bytes ({} vs {})",
                e.name,
                e.size,
                rerun.stats.bytes_transferred,
                baseline.stats.bytes_transferred
            );
        }
        let remediation = rerun.remediation.unwrap();
        assert!(
            remediation.recovered_time().as_nanos() > 0,
            "{} ({:?}): recovered time must be measurable",
            e.name,
            e.size
        );
        // The accounting is consistent: actual + recovered = what the
        // report calls the baseline.
        assert_eq!(
            remediation.actual_transfer_bytes,
            rerun.stats.bytes_transferred
        );
    }
}

#[test]
fn empty_policy_is_a_no_op() {
    for name in ["babelstream", "bfs", "xsbench"] {
        let w = odp_workloads::by_name(name).unwrap();
        let baseline = run_as(&*w, ProblemSize::Small, Variant::Original, Remedy::Off);
        let noop = run_as(
            &*w,
            ProblemSize::Small,
            Variant::Original,
            Remedy::Seeded(RemediationPolicy::new()),
        );
        assert_eq!(
            serde_json::to_string(&noop.report.findings).unwrap(),
            serde_json::to_string(&baseline.report.findings).unwrap(),
            "{name}: an empty policy must leave detection byte-identical"
        );
        assert_eq!(
            noop.stats.bytes_transferred,
            baseline.stats.bytes_transferred
        );
        assert_eq!(noop.stats.transfers, baseline.stats.transfers);
        let remediation = noop.remediation.unwrap();
        assert!(remediation.rows.is_empty(), "{name}: no rewrites");
        assert_eq!(remediation.recovered_transfer_bytes, 0);
    }
}

#[test]
fn adaptive_single_run_recovers_on_iterative_workloads() {
    // babelstream and bfs iterate their inefficient pattern, so the
    // findings from iteration n rewrite iteration n+1 within ONE run.
    // bfs's only rewrite is keeping its stop flag's mapping resident:
    // every transfer of the flag carries a value the host or the kernel
    // needs, so it recovers allocation work and moves the same bytes.
    for (name, saves_bytes) in [("babelstream", true), ("bfs", false)] {
        let w = odp_workloads::by_name(name).unwrap();
        let baseline = run_as(&*w, ProblemSize::Small, Variant::Original, Remedy::Off);
        let adaptive = run_as(&*w, ProblemSize::Small, Variant::Original, Remedy::Adaptive);
        assert!(
            adaptive.remediation.unwrap().recovered_time().as_nanos() > 0,
            "{name}: one adaptive run must recover transfer time"
        );
        if saves_bytes {
            assert!(
                adaptive.stats.bytes_transferred < baseline.stats.bytes_transferred,
                "{name}: adaptive run must move strictly fewer bytes"
            );
        } else {
            assert_eq!(
                adaptive.stats.bytes_transferred, baseline.stats.bytes_transferred,
                "{name}: adaptive run must move the same bytes"
            );
        }
        assert!(
            adaptive.report.counts.total() > 0,
            "{name}: the pre-rewrite iterations are still reported"
        );
        assert!(
            adaptive.report.counts.total() < baseline.report.counts.total(),
            "{name}: later iterations must stop producing findings"
        );
    }
}

#[test]
fn seeded_rerun_beats_adaptive_which_beats_baseline() {
    // The ordering the design promises on an iterative workload:
    // baseline ≥ adaptive (learns after iteration 1) ≥ seeded (knows
    // everything from the start).
    let w = odp_workloads::by_name("babelstream").unwrap();
    let baseline = run_as(&*w, ProblemSize::Small, Variant::Original, Remedy::Off);
    let adaptive = run_as(&*w, ProblemSize::Small, Variant::Original, Remedy::Adaptive);
    let seeded = run_as(
        &*w,
        ProblemSize::Small,
        Variant::Original,
        Remedy::Seeded(RemediationPolicy::from_findings(&baseline.report.findings)),
    );
    assert!(adaptive.stats.bytes_transferred < baseline.stats.bytes_transferred);
    assert!(seeded.stats.bytes_transferred <= adaptive.stats.bytes_transferred);
    assert!(seeded.stats.transfer_time < baseline.stats.transfer_time);
}

#[test]
fn remediation_survives_the_fixed_variant_cleanly() {
    // The paper's hand-fixed bfs has (almost) nothing left to remediate:
    // a policy seeded from its own findings must not regress it.
    let w = odp_workloads::by_name("bfs").unwrap();
    let fixed = run_as(&*w, ProblemSize::Small, Variant::Fixed, Remedy::Off);
    let policy = RemediationPolicy::from_findings(&fixed.report.findings);
    let rerun = run_as(
        &*w,
        ProblemSize::Small,
        Variant::Fixed,
        Remedy::Seeded(policy),
    );
    assert!(
        rerun.stats.bytes_transferred <= fixed.stats.bytes_transferred,
        "remediation must never add traffic"
    );
    assert!(
        rerun.report.counts.total() <= fixed.report.counts.total(),
        "remediation must never add findings"
    );
}
