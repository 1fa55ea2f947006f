//! Remediation against a host-visible oracle, and the fix produced
//! three ways.
//!
//! A remediated run may move fewer bytes; it may not change what the
//! program computes. [`interpret`] takes any runtime, so one wrapper
//! workload runs each registered IR program through `session::run`
//! unremediated, [`Remedy::Adaptive`] and [`Remedy::Seeded`] from the
//! unremediated report, and keeps **every host variable's final bytes**.
//! Where they differ from the unremediated run's the remediator lost a
//! result the host was entitled to: [`KNOWN_UNSOUND`] lists those cases
//! and must match exactly — a fix shrinks the table, a regression fails
//! it. (ROADMAP: the `skip_from` item under aim 3.)
//!
//! The same runs set the three producers of "the fix" side by side —
//! `odp static plan` ([`Variant::Fixed`]), the seeded re-run, and the
//! program as written.

use odp_sim::Runtime;
use odp_static::{interpret, registry, IrWorkload};
use odp_workloads::adaptive::Remedy;
use odp_workloads::session::{run, RunOutcome, RunSpec};
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::attrib::DebugInfo;
use ompdataperf::fleet::site_findings;
use ompdataperf::remedy::RemediationPolicy;
use std::sync::Mutex;

/// `program` as written, remembering what the host holds at the end.
struct HostVisible<'a> {
    program: &'a IrWorkload,
    host: Mutex<Vec<(String, Vec<u8>)>>,
}

impl Workload for HostVisible<'_> {
    fn name(&self) -> &'static str {
        self.program.name()
    }
    fn domain(&self) -> &'static str {
        self.program.domain()
    }
    fn paper_input(&self, size: ProblemSize) -> &'static str {
        self.program.paper_input(size)
    }
    fn run(&self, rt: &mut Runtime, size: ProblemSize, _: Variant) -> DebugInfo {
        let vars = interpret(self.program.program(size), rt);
        let held = |&v| (rt.var_name(v).to_string(), rt.host_bytes(v).to_vec());
        *self.host.lock().unwrap() = vars.iter().map(held).collect();
        DebugInfo::new()
    }
}

/// One run of `program` under `remedy`: the outcome and the host's
/// final `(variable, bytes)`.
fn host_after(program: &IrWorkload, remedy: Remedy) -> (RunOutcome, Vec<(String, Vec<u8>)>) {
    let w = HostVisible {
        program,
        host: Mutex::new(Vec::new()),
    };
    let spec = RunSpec {
        remedy,
        ..RunSpec::default()
    };
    let outcome = run(&w, &spec);
    (outcome, w.host.into_inner().unwrap())
}

/// `(program, remedy, variable)`: host bytes a remediated run gets
/// wrong today. `on_duplicate`'s host-bound arm sets `skip_from` ("the
/// host provably has the bytes") and `map_exit` honours it
/// unconditionally — also for the *first* copy-back of a seeded re-run,
/// and after a kernel has written the variable again.
const KNOWN_UNSOUND: &[(&str, &str, &str)] = &[
    ("ir-bfs", "adaptive", "mask"),
    ("ir-bfs", "seeded", "mask"),
    ("mem1", "seeded", "z"),
    ("mem2", "seeded", "z"),
    ("mem4", "seeded", "z"),
];

#[test]
fn a_remediated_run_leaves_the_host_what_the_program_computed() {
    let mut unsound = Vec::new();
    for program in registry() {
        let (baseline, expected) = host_after(&program, Remedy::Off);
        assert!(!expected.is_empty(), "{}", program.name());
        let seeded = Remedy::Seeded(RemediationPolicy::from_findings(&baseline.report.findings));
        for (mode, remedy) in [("adaptive", Remedy::Adaptive), ("seeded", seeded)] {
            let (remediated, host) = host_after(&program, remedy);
            assert!(
                remediated.stats.bytes_transferred <= baseline.stats.bytes_transferred,
                "{} {mode} moved more bytes than the unremediated run",
                program.name()
            );
            for ((var, got), (_, want)) in host.iter().zip(&expected) {
                if got != want {
                    unsound.push((program.name(), mode, var.clone()));
                }
            }
        }
    }
    let unsound: Vec<(&str, &str, &str)> = unsound
        .iter()
        .map(|(program, mode, var)| (*program, *mode, var.as_str()))
        .collect();
    assert_eq!(unsound, KNOWN_UNSOUND);
}

/// `(findings, bytes moved)` of `name` as written, after `odp static
/// plan`, and re-run seeded from the as-written report.
fn three_ways(name: &str) -> [(u64, u64); 3] {
    let program = odp_static::by_name(name).expect("registered");
    let run_as = |variant, remedy| {
        let spec = RunSpec {
            variant,
            remedy,
            ..RunSpec::default()
        };
        run(&program, &spec)
    };
    let tally = |outcome: &RunOutcome| {
        let sites = site_findings(&outcome.report.findings);
        let findings = sites.iter().map(|s| s.count).sum();
        (findings, outcome.stats.bytes_transferred)
    };
    let original = run_as(Variant::Original, Remedy::Off);
    let policy = RemediationPolicy::from_findings(&original.report.findings);
    [
        tally(&original),
        tally(&run_as(Variant::Fixed, Remedy::Off)),
        tally(&run_as(Variant::Original, Remedy::Seeded(policy))),
    ]
}

#[test]
fn the_three_producers_of_the_fix_side_by_side() {
    // Where the plan is total and the seeded re-run is sound, both reach
    // the same (empty) finding set; on ir-babelstream the seeded re-run
    // moves 24 bytes more than the planned program.
    assert_eq!(
        three_ways("ir-babelstream"),
        [(21, 3104), (0, 776), (0, 800)]
    );
    assert_eq!(three_ways("ir-xsbench"), [(2, 2560), (0, 1792), (0, 1792)]);
    // bfs's plan is a no-op (`unremediable`), and its seeded re-run is
    // in KNOWN_UNSOUND: the numbers are pinned, not endorsed.
    assert_eq!(three_ways("ir-bfs"), [(70, 1368), (70, 1368), (1, 420)]);
    // The plan turns Mem1 into Mem5; the seeded re-run undercuts the
    // 1 536-byte minimum by never fetching `z` (KNOWN_UNSOUND).
    assert_eq!(three_ways("mem1"), [(18, 6144), (0, 1536), (0, 1024)]);
    // The plan gap (ROADMAP): dropping `always` under an enclosing
    // `enter data` is Mem2 → Mem5, and no rule proposes it.
    for name in ["mem2", "mem4"] {
        let [original, planned, _] = three_ways(name);
        assert_eq!((original, planned), ((9, 6144), (9, 6144)), "{name}");
    }
}
