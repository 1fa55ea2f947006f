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
//! and must match exactly, so a regression fails it.
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
/// wrong. None: the runtime drops a copy-back (`skip_from`), or the
/// re-send a resident mapping's re-entry stands for, only while the
/// device and host copies provably agree — no kernel on the device
/// wrote the variable and the host did not write it since the last
/// transfer between the two.
const KNOWN_UNSOUND: &[(&str, &str, &str)] = &[];

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
        ("bfs", 0xa54d_809f_0923_9b5d, 0x4d7e_4087_04f6_9f09),
        ("hotspot", 0xca83_458c_1c45_0446, 0xca83_458c_1c45_0446),
        ("lud", 0xddae_0fe6_41a3_b54f, 0xddae_0fe6_41a3_b54f),
        ("minife", 0xfd63_fd10_ee9d_db0d, 0x6188_666a_2be5_0f7b),
        ("minifmm", 0xe4d2_e30b_2bca_b4cb, 0xe4d2_e30b_2bca_b4cb),
        ("nw", 0x93ba_fd75_7b60_b6fc, 0x93ba_fd75_7b60_b6fc),
        ("rsbench", 0xfd83_b7d6_33c1_6d4f, 0x0205_024a_d29a_3246),
        ("tealeaf", 0x7f7b_b9e2_56e6_8ca9, 0xc376_74d5_43ff_377d),
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
            0x6f20_7bbd_bdd0_7287,
            0x060f_78e1_08ae_21d3,
        ),
        ("ir-bfs", 0x1f6a_a786_aa70_6e3a, 0xf5c1_28e5_81cb_05db),
        ("ir-xsbench", 0x8222_0071_dce7_2cd0, 0xdefa_26e5_3ec6_46f3),
        ("mem1", 0x3392_b0ea_ce6e_5865, 0x75c3_37d0_e8dc_94ac),
        ("mem2", 0xc522_4d2e_dfd2_3216, 0xc522_4d2e_dfd2_3216),
        ("mem3", 0x4e0c_39e2_05e3_f41a, 0x4e0c_39e2_05e3_f41a),
        ("mem4", 0xc522_4d2e_dfd2_3216, 0xc522_4d2e_dfd2_3216),
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
    // ir-xsbench: the plan and the seeded re-run reach the same (empty)
    // finding set and the same bytes.
    assert_eq!(three_ways("ir-xsbench"), [(2, 2560), (0, 1792), (0, 1792)]);
    // ir-babelstream's kernels write a, b and c every iteration, so a
    // resident copy never equals the host's again: the seeded re-run
    // keeps the mappings (no re-allocation) but re-sends every array.
    // The plan hoists the region and moves a quarter of the bytes.
    assert_eq!(
        three_ways("ir-babelstream"),
        [(21, 3104), (0, 776), (9, 3104)]
    );
    // bfs's plan is a no-op (`unremediable`); the seeded re-run keeps
    // every copy a kernel or the host changed in between.
    assert_eq!(three_ways("ir-bfs"), [(70, 1368), (70, 1368), (13, 632)]);
    // The plan turns Mem1 into Mem5, the 1 536-byte minimum; the seeded
    // re-run fetches `z` after every kernel that wrote it.
    assert_eq!(three_ways("mem1"), [(18, 6144), (0, 1536), (3, 3072)]);
    // The plan gap (ROADMAP): dropping `always` under an enclosing
    // `enter data` is Mem2 → Mem5, and no rule proposes it. Every copy
    // the seeded re-run could drop carries a kernel's result, so it
    // moves what the program as written moves.
    for name in ["mem2", "mem4"] {
        assert_eq!(three_ways(name), [(9, 6144); 3], "{name}");
    }
}
