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

/// One remediated run's digest: `checksum64` over the trace JSON, the
/// remediation report JSON and the bytes moved (little-endian).
fn remediation_digest(w: &dyn Workload, remedy: Remedy) -> u64 {
    let outcome = run(
        w,
        &RunSpec {
            remedy,
            ..RunSpec::default()
        },
    );
    let report = outcome.remediation.expect("a remediated run reports");
    let mut bytes = outcome.trace.to_json().into_bytes();
    bytes.extend_from_slice(report.to_json().as_bytes());
    bytes.extend_from_slice(&outcome.stats.bytes_transferred.to_le_bytes());
    odp_trace::persist::checksum64(&bytes)
}

/// What remediation does to every program, one thread, Small: the
/// trace, the remediation report and the bytes moved, adaptive and
/// seeded from the program's own unremediated report. A refactor of
/// the advisor path must reproduce these unmodified; a change to a
/// rewrite rule re-derives them and says so.
#[test]
fn remediation_transcript_is_pinned() {
    const EXPECTED: [(&str, u64, u64); 24] = [
        ("babelstream", 0xfb26_4e3b_1828_70c0, 0xffa7_ac0c_0079_a6eb),
        ("bfs", 0xc5a5_5251_a28d_3b69, 0xa980_2640_36c3_b404),
        ("hotspot", 0xca83_458c_1c45_0446, 0xca83_458c_1c45_0446),
        ("lud", 0xddae_0fe6_41a3_b54f, 0xddae_0fe6_41a3_b54f),
        ("minife", 0x1205_4c04_e453_28e3, 0x3a03_4164_f79f_6ff4),
        ("minifmm", 0xe4d2_e30b_2bca_b4cb, 0xe4d2_e30b_2bca_b4cb),
        ("nw", 0x93ba_fd75_7b60_b6fc, 0x93ba_fd75_7b60_b6fc),
        ("rsbench", 0xfd83_b7d6_33c1_6d4f, 0x0205_024a_d29a_3246),
        ("tealeaf", 0xa935_e51c_25c5_113f, 0x642a_e1b9_520f_aea8),
        ("xsbench", 0x6500_5330_829b_e26e, 0xd63f_3b7d_5161_53fb),
        ("resize-omp", 0xf1c9_9cea_6d1e_f3c7, 0x5bd6_50e4_1fa8_5403),
        (
            "mandelbrot-omp",
            0x1eb5_ac7b_0dec_8f4a,
            0x67cf_6a37_5927_5bf2,
        ),
        ("accuracy-omp", 0xf869_85bc_143d_1020, 0x1d14_64b0_3556_e4bf),
        ("lif-omp", 0x34a2_446d_4669_ba87, 0x34a2_446d_4669_ba87),
        (
            "bspline-vgh-omp",
            0xddeb_11e5_c0d8_6beb,
            0xe3ab_b343_8134_d653,
        ),
        (
            "ir-babelstream",
            0x7a4e_ddbd_9c1a_a272,
            0x765c_1dd0_f4ce_52cd,
        ),
        ("ir-bfs", 0x6e77_7c07_68b5_3004, 0x188a_0553_7057_6c10),
        ("ir-xsbench", 0x8222_0071_dce7_2cd0, 0xdefa_26e5_3ec6_46f3),
        ("mem1", 0x72b2_a27b_bcc8_7004, 0x508f_7c44_a159_92cd),
        ("mem2", 0x9b6d_8e2a_8a27_735a, 0x35e9_e7ac_3a85_898a),
        ("mem3", 0x4e0c_39e2_05e3_f41a, 0x4e0c_39e2_05e3_f41a),
        ("mem4", 0x9b6d_8e2a_8a27_735a, 0x35e9_e7ac_3a85_898a),
        ("mem5", 0xcccb_693c_0738_3038, 0xcccb_693c_0738_3038),
        ("mem6", 0x13bd_6cf9_778d_5186, 0x13bd_6cf9_778d_5186),
    ];
    let mut programs = odp_workloads::all();
    programs.extend(
        registry()
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn Workload>),
    );
    let got: Vec<(&str, u64, u64)> = programs
        .iter()
        .map(|w| {
            let baseline = run(&**w, &RunSpec::default());
            let policy = RemediationPolicy::from_findings(&baseline.report.findings);
            (
                w.name(),
                remediation_digest(&**w, Remedy::Adaptive),
                remediation_digest(&**w, Remedy::Seeded(policy)),
            )
        })
        .collect();
    assert_eq!(
        got, EXPECTED,
        "(program, adaptive digest, seeded digest); got:\n{got:#x?}"
    );
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
