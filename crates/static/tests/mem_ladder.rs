//! Known answers: the AMD memory-pragma ladder (SNIPPETS.md snippet 3).
//!
//! Everything else in the repository checks the tool against itself —
//! live ≡ fused ≡ separate, static ≡ dynamic. `mem1`…`mem6` are the
//! first programs whose findings are derived by hand, from the README's
//! prose, *before* anything runs: [`expected`] is that derivation, one
//! table, and every way the repository can put a program under the tool
//! is held to it — post-mortem, streamed, on two threads, through an
//! `.odpt` round trip, under fault injection, and statically.
//!
//! With `n` elements (`B = 8n` bytes an array), `I` launches of the
//! kernel, `T` the kernel's `target` line:
//!
//! | rung | mapping on `T` | findings at `T` | bytes moved |
//! |---|---|---|---|
//! | mem1 | `map(to: x, y) map(from: z)`, nothing around it | every launch after the first re-sends x and y (DD→dev0 `2(I−1)`), re-fetches the same z (DD→host `I−1`) and re-allocates all three (RA `3(I−1)`) | `3·I·B` |
//! | mem2, mem4 | `map(always to/from)` under `enter data map(alloc:)` | the copies stay (DD as mem1), the allocations are gone (no RA); `delete` vs `release` changes nothing | `3·I·B` |
//! | mem3, mem6 | none; `target update` outside the loop | none | `3·B` |
//! | mem5 | `map(to/from)` under `enter data map(to:)`/`exit data map(from:)` | none — the data is present | `3·B` |

use odp_sim::{FaultPlan, FaultProfile};
use odp_static::programs::mem_sites::DAXPY;
use odp_static::{analyze, by_name, Certainty, IrWorkload};
use odp_trace::persist::load_trace;
use odp_workloads::capture::capture_artifact;
use odp_workloads::session::{run, RunOutcome, RunSpec};
use odp_workloads::{ProblemSize, Variant};
use ompdataperf::analysis::infer_num_devices_columnar;
use ompdataperf::detect::{EventView, Findings};
use ompdataperf::fleet::{site_findings, FindingKind, SiteFinding};

const LADDER: [&str; 6] = ["mem1", "mem2", "mem3", "mem4", "mem5", "mem6"];

/// What the README says must happen: the findings, ascending by
/// `(codeptr, device, kind)`, and the bytes the run moves.
fn expected(name: &str, n: u64, iters: u64) -> (Vec<SiteFinding>, u64) {
    let b = 8 * n;
    let again = iters - 1;
    let at_t = |device, kind, count| SiteFinding {
        codeptr: DAXPY,
        device,
        kind,
        count,
        bytes: count * b,
    };
    let copies = [
        at_t(-1, FindingKind::DuplicateTransfer, again),
        at_t(0, FindingKind::DuplicateTransfer, 2 * again),
    ];
    match name {
        "mem1" => {
            let allocs = at_t(0, FindingKind::RepeatedAlloc, 3 * again);
            ([&copies[..], &[allocs]].concat(), 3 * iters * b)
        }
        "mem2" | "mem4" => (copies.to_vec(), 3 * iters * b),
        "mem3" | "mem5" | "mem6" => (vec![], 3 * b),
        other => panic!("{other} is not a rung of the ladder"),
    }
}

/// `(n, I)` of the registry's presets.
fn shape(size: ProblemSize) -> (u64, u64) {
    match size {
        ProblemSize::Small => (64, 4),
        ProblemSize::Medium => (1024, 10),
        ProblemSize::Large => (16384, 50),
    }
}

fn small(name: &str) -> (Vec<SiteFinding>, u64) {
    let (n, iters) = shape(ProblemSize::Small);
    expected(name, n, iters)
}

fn rung(name: &str) -> IrWorkload {
    by_name(name).expect("a rung of the ladder")
}

fn sites(outcome: &RunOutcome) -> Vec<SiteFinding> {
    site_findings(&outcome.report.findings)
}

#[test]
fn post_mortem_findings_and_bytes_are_the_hand_derived_ones_at_every_size() {
    for name in LADDER {
        for size in ProblemSize::ALL {
            let (n, iters) = shape(size);
            let (findings, moved) = expected(name, n, iters);
            let spec = RunSpec {
                size,
                ..RunSpec::default()
            };
            let outcome = run(&rung(name), &spec);
            assert_eq!(sites(&outcome), findings, "{name} {size:?}");
            assert_eq!(outcome.stats.bytes_transferred, moved, "{name} {size:?}");
            assert!(
                outcome.warnings.is_empty(),
                "{name}: {:?}",
                outcome.warnings
            );
            assert!(outcome.health.is_clean(), "{name}: {:?}", outcome.health);
        }
    }
}

#[test]
fn delete_and_release_do_not_differ() {
    let [mem2, mem4] = ["mem2", "mem4"].map(|name| run(&rung(name), &RunSpec::default()));
    assert!(!sites(&mem2).is_empty());
    assert_eq!(sites(&mem2), sites(&mem4));
    assert_eq!(mem2.stats.bytes_transferred, mem4.stats.bytes_transferred);
}

#[test]
fn a_streamed_run_prints_the_post_mortem_document() {
    for name in LADDER {
        let report = |stream| {
            let mut spec = RunSpec::default();
            spec.tool.stream = stream;
            run(&rung(name), &spec).report
        };
        let (post, streamed) = (report(false), report(true));
        assert_eq!(site_findings(&post.findings), small(name).0, "{name}");
        assert_eq!(streamed.to_json(), post.to_json(), "{name}");
    }
}

/// Private devices: each thread repeats the program, so every site
/// fires at least twice as often — more where one thread's payload
/// collides with the other's (`tests/threaded_collection.rs` documents
/// why those count) — and the merge does not depend on the schedule.
#[test]
fn two_threads_find_each_site_at_least_twice_as_often_deterministically() {
    for name in LADDER {
        let on_two = || {
            let spec = RunSpec {
                threads: 2,
                ..RunSpec::default()
            };
            run(&rung(name), &spec)
        };
        let (a, b) = (on_two(), on_two());
        assert_eq!(a.trace.to_json(), b.trace.to_json(), "{name}");
        let threaded = sites(&a);
        for want in small(name).0 {
            let key = (want.codeptr, want.device, want.kind);
            let got = threaded
                .iter()
                .find(|s| (s.codeptr, s.device, s.kind) == key)
                .unwrap_or_else(|| panic!("{name}: {key:?} missing on two threads"));
            assert!(got.count >= 2 * want.count, "{name}: {got:?} vs {want:?}");
        }
        assert_eq!(a.stats.bytes_transferred, 2 * small(name).1, "{name}");
    }
}

#[test]
fn an_odpt_round_trip_keeps_the_findings() {
    for name in LADDER {
        let w = rung(name);
        let artifact = capture_artifact(&w, ProblemSize::Small, Variant::Original, false);
        let loaded = load_trace(&artifact.to_bytes()).expect("a fresh capture verifies");
        assert_eq!(loaded.meta.program, name);
        let cols = loaded.columnar();
        let view = EventView::over(&cols, infer_num_devices_columnar(&cols));
        let detected = site_findings(&Findings::detect_fused(&view));
        assert_eq!(detected, small(name).0, "{name}");
    }
}

/// Faults lose events; they must never invent a finding, and what they
/// lose is counted.
#[test]
fn under_faults_findings_only_shrink_and_the_loss_is_counted() {
    let mut lowered = 0;
    for profile in [FaultProfile::Lossy, FaultProfile::Hostile] {
        for name in LADDER {
            let mut spec = RunSpec::default();
            spec.runtime.faults = FaultPlan::from_profile(profile, 42);
            let outcome = run(&rung(name), &spec);
            let (table, _) = small(name);
            let mut lost = false;
            for got in sites(&outcome) {
                let key = (got.codeptr, got.device, got.kind);
                let want = table
                    .iter()
                    .find(|s| (s.codeptr, s.device, s.kind) == key)
                    .unwrap_or_else(|| panic!("{name} {profile:?}: faults added {got:?}"));
                assert!(got.count <= want.count, "{name} {profile:?}: {got:?}");
                lost |= got.count < want.count;
            }
            lost |= sites(&outcome).len() < table.len();
            if lost {
                lowered += 1;
                assert!(
                    !outcome.health.is_clean(),
                    "{name} {profile:?}: findings lost from a trace reported clean"
                );
            }
        }
    }
    assert!(lowered > 0, "seed 42 no longer perturbs any rung");
}

/// No loop of the ladder depends on data, so the analyzer's rows *are*
/// the dynamic sites, every instance certain.
#[test]
fn the_static_analysis_predicts_exactly_the_table() {
    for name in LADDER {
        let report = analyze(rung(name).program(ProblemSize::Small));
        let predicted: Vec<SiteFinding> = report
            .rows
            .iter()
            .map(|r| {
                assert_eq!(r.certainty, Certainty::Certain, "{name}: {r:?}");
                assert_eq!(r.certain_count, r.count, "{name}: {r:?}");
                SiteFinding {
                    codeptr: r.codeptr,
                    device: r.device,
                    kind: r.kind,
                    count: r.count,
                    bytes: r.bytes,
                }
            })
            .collect();
        assert_eq!(predicted, small(name).0, "{name}");
        assert_eq!(report.warnings, 0, "{name}");
    }
}

/// `plan` turns Mem1 into Mem5: the split moves every allocation and
/// copy to the loop boundary.
#[test]
fn fixed_mem1_is_mem5() {
    let fixed = RunSpec {
        variant: Variant::Fixed,
        ..RunSpec::default()
    };
    let mem1_fixed = run(&rung("mem1"), &fixed);
    let mem5 = run(&rung("mem5"), &RunSpec::default());
    assert_eq!(sites(&mem1_fixed), sites(&mem5));
    assert_eq!(sites(&mem1_fixed), vec![]);
    assert_eq!(
        mem1_fixed.stats.bytes_transferred,
        mem5.stats.bytes_transferred
    );
}
