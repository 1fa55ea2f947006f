//! Differential fault-injection suite: the detection pipeline must
//! survive lossy, hostile, and stalled trace streams without panicking,
//! and its degradation must be *accounted*, not silent.
//!
//! Every case runs one synthetic OpenMP program twice through the
//! simulated runtime — once clean, once under a seeded
//! [`odp_sim::FaultPlan`] — and checks three oracles:
//!
//! 1. **No panic**, under any fault profile or adversarial rate mix.
//! 2. **Reconciliation**: what the plan injected equals what the
//!    pipeline reports as lost + quarantined. Dropped `End` edges (and
//!    stall drops) are the only events missing from the trace; orphaned
//!    `End`s and truncated payloads are quarantined into
//!    [`odp_model::TraceHealth`] with nothing double- or un-counted.
//! 3. **Agreement on the survivors**: the fused sweep and the five
//!    standalone reference passes produce identical JSON over the
//!    faulty trace, and the streaming engine's live findings are
//!    exactly that report's projection — graceful degradation must not
//!    fork the detection paths.

mod common;

use odp_model::{CodePtr, MapType, TraceHealth};
use odp_sim::{
    map, FaultConfig, FaultCounts, FaultPlan, FaultProfile, Kernel, KernelCost, Runtime,
    RuntimeConfig,
};
use ompdataperf::detect::{EventView, Findings, StreamFinding};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use proptest::prelude::*;

/// One step of a synthetic host program. Variable indices are taken
/// modulo the program's variable count, so any generated index is valid.
#[derive(Clone, Debug)]
enum Step {
    /// `#pragma omp target map(...)`: map one variable, run a kernel.
    Region {
        var: usize,
        /// `map(to:)` instead of the `tofrom` default.
        to_only: bool,
        /// The kernel writes the variable (else it only reads).
        mutate: bool,
    },
    /// An unstructured `enter data` / optional `update` / `exit data`
    /// lifetime for one variable.
    Mapped {
        var: usize,
        update_to: bool,
        update_from: bool,
    },
}

#[derive(Clone, Debug)]
struct Program {
    /// Host variable sizes in bytes (each >= 2 so a truncated payload is
    /// always strictly shorter than the claimed length).
    var_sizes: Vec<usize>,
    steps: Vec<Step>,
}

impl Program {
    /// A fixed program exercising every step kind and both classic
    /// anti-patterns (re-sent unchanged data, per-step remapping).
    fn reference() -> Program {
        let mut steps = Vec::new();
        for round in 0..6 {
            steps.push(Step::Region {
                var: 0,
                to_only: true,
                mutate: false,
            });
            steps.push(Step::Region {
                var: 1,
                to_only: false,
                mutate: round % 2 == 0,
            });
            steps.push(Step::Mapped {
                var: 2,
                update_to: round % 3 == 0,
                update_from: round % 2 == 1,
            });
        }
        Program {
            var_sizes: vec![48, 32, 24],
            steps,
        }
    }
}

/// Everything one monitored run produced.
struct RunOutcome {
    trace: odp_trace::TraceLog,
    health: TraceHealth,
    counts: FaultCounts,
    /// Every live finding the streaming engine emitted over the run.
    live: Vec<StreamFinding>,
    degraded: bool,
}

/// Run `program` under `plan` with the full collection pipeline
/// attached (sharded collector + streaming engine), mirroring the CLI's
/// wiring. Must never panic, whatever the plan injects.
fn run_program(program: &Program, plan: FaultPlan) -> RunOutcome {
    let cfg = RuntimeConfig {
        faults: plan.clone(),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        stream: true,
        quiet: true,
        ..Default::default()
    });
    rt.attach_tool(Box::new(tool));

    let vars: Vec<_> = program
        .var_sizes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| rt.host_alloc(&format!("v{i}"), bytes))
        .collect();

    for (i, step) in program.steps.iter().enumerate() {
        let cp = CodePtr(0x1000 + 0x10 * i as u64);
        match *step {
            Step::Region {
                var,
                to_only,
                mutate,
            } => {
                let v = vars[var % vars.len()];
                let map_type = if to_only {
                    MapType::To
                } else {
                    MapType::ToFrom
                };
                let kernel = if mutate {
                    Kernel::new("k", KernelCost::fixed(50))
                        .reads(&[v])
                        .writes(&[v])
                } else {
                    Kernel::new("k", KernelCost::fixed(50)).reads(&[v])
                };
                rt.target(0, cp, &[map(map_type, v)], kernel);
            }
            Step::Mapped {
                var,
                update_to,
                update_from,
            } => {
                let v = vars[var % vars.len()];
                rt.target_enter_data(0, cp, &[map(MapType::To, v)]);
                if update_to {
                    rt.target_update_to(0, cp, &[v]);
                }
                if update_from {
                    rt.target_update_from(0, cp, &[v]);
                }
                rt.target_exit_data(0, cp, &[map(MapType::From, v)]);
            }
        }
    }
    rt.finish();

    let trace = handle.take_trace();
    let mut engine = handle.take_stream_engine().expect("streaming was enabled");
    let _report = engine.finalize(&EventView::from_log(&trace));
    let live = engine.take_findings();
    // CLI health order: shard-side counters (the engine left the handle
    // above), then the engine's own, then merge-time duplicate ids.
    let mut health = handle.trace_health();
    health.merge(&engine.health());
    health.duplicate_ids += trace.duplicate_id_count();

    RunOutcome {
        trace,
        health,
        counts: plan.counts(),
        live,
        degraded: engine.is_degraded(),
    }
}

/// The shared oracle: run `program` clean and faulty, then check
/// reconciliation and three-way agreement on the faulty trace.
fn check_differential(program: &Program, plan: FaultPlan) {
    let clean = run_program(program, FaultPlan::none());
    let faulty = run_program(program, plan);
    let counts = faulty.counts;

    // Oracle 2a — the clean run itself must be pristine.
    assert!(
        clean.health.is_clean(),
        "clean run was dirty: {:?}",
        clean.health
    );
    assert_eq!(clean.counts, FaultCounts::default());

    // Oracle 2b — injected == lost + quarantined, class by class.
    //
    // Faults touch only the *callback layer*: the op schedule is
    // identical between the runs except under OOM, where a failed
    // allocation legitimately skips the whole mapping (and everything
    // downstream of it), so record-count arithmetic only holds without
    // OOM failures.
    if counts.oom_failures == 0 {
        // A dropped Begin also loses its record: the surviving End has
        // no open span to close, so the collector quarantines it as an
        // orphan instead of recording a half-made event.
        assert_eq!(
            faulty.trace.data_op_count() as u64 + counts.events_lost() + counts.dropped_begin,
            clean.trace.data_op_count() as u64,
            "every missing record must be a dropped Begin, dropped End, \
             or stalled End edge (counts: {counts:?})"
        );
        assert_eq!(
            faulty.trace.target_count(),
            clean.trace.target_count(),
            "target/kernel callbacks are never faulted"
        );
    }
    assert_eq!(
        faulty.health.orphaned,
        counts.orphans_injected(),
        "every dropped Begin and duplicated End must surface as exactly \
         one quarantined orphan (counts: {counts:?})"
    );
    assert_eq!(
        faulty.health.truncated, counts.truncated,
        "every truncated payload must be quarantined from hashing"
    );
    // This harness sets no stall timeout and runs one shard: nothing may
    // be force-released, arrive late, or go missing at finalize, and
    // event ids stay unique.
    assert_eq!(faulty.health.forced_releases, 0);
    assert_eq!(faulty.health.late, 0);
    assert_eq!(faulty.health.missing_at_finalize, 0);
    assert_eq!(faulty.health.duplicate_ids, 0);
    assert!(
        !faulty.degraded,
        "without forced releases the stream must not be degraded"
    );

    // Oracle 3 — live stream ≡ fused == separate on the surviving events.
    let view = EventView::from_log(&faulty.trace);
    let fused = Findings::detect_fused(&view);
    let separate = Findings::detect_separate(
        faulty.trace.data_op_events_sorted(),
        faulty.trace.kernel_events_sorted(),
        view.num_devices,
    );
    let fused_json = serde_json::to_string_pretty(&fused).expect("serialize");
    let separate_json = serde_json::to_string_pretty(&separate).expect("serialize");
    common::assert_live_matches(faulty.live, &fused, "faulty trace");
    assert_eq!(
        fused_json, separate_json,
        "fused sweep diverged from the reference passes on a faulty trace"
    );
}

// ---------------------------------------------------------------------
// Pinned-seed profile coverage
// ---------------------------------------------------------------------

#[test]
fn named_profiles_reconcile_across_seeds() {
    let program = Program::reference();
    for profile in [
        FaultProfile::Lossy,
        FaultProfile::Hostile,
        FaultProfile::Stalled,
        FaultProfile::Oom,
    ] {
        for seed in [0, 1, 7, 42, 0xDEAD_BEEF] {
            check_differential(&program, FaultPlan::from_profile(profile, seed));
        }
    }
}

#[test]
fn lossy_profile_actually_injects_on_the_reference_program() {
    // Guard against the whole suite passing vacuously: the reference
    // program is long enough that the lossy rates must fire.
    let outcome = run_program(
        &Program::reference(),
        FaultPlan::from_profile(FaultProfile::Lossy, 42),
    );
    assert!(outcome.counts.total() > 0, "lossy plan injected nothing");
    assert!(
        !outcome.health.is_clean(),
        "lossy faults must surface in TraceHealth, got {:?}",
        outcome.health
    );
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let program = Program::reference();
    let a = run_program(&program, FaultPlan::from_profile(FaultProfile::Hostile, 9));
    let b = run_program(&program, FaultPlan::from_profile(FaultProfile::Hostile, 9));
    assert_eq!(a.counts, b.counts, "same seed must inject the same faults");
    assert_eq!(
        a.trace.to_json(),
        b.trace.to_json(),
        "same seed must produce a byte-identical trace"
    );
    let c = run_program(&program, FaultPlan::from_profile(FaultProfile::Hostile, 10));
    assert_ne!(
        a.trace.to_json(),
        c.trace.to_json(),
        "a different seed should perturb the trace"
    );
}

#[test]
fn corrupt_device_flood_stays_bounded() {
    // Every single data op stamped with device base + 0x4000_0000: the
    // analyzer must quarantine them as out-of-range — not size
    // per-device tables from a corrupt id (billions of entries).
    let cfg = FaultConfig {
        corrupt_device: u16::MAX,
        ..FaultConfig::default()
    };
    let outcome = run_program(&Program::reference(), FaultPlan::new(3, cfg));
    assert!(outcome.counts.corrupted_device > 0);
    let view = EventView::from_log(&outcome.trace);
    assert!(
        view.num_devices <= odp_trace::MAX_PLAUSIBLE_DEVICES,
        "inferred device count must ignore implausible ids, got {}",
        view.num_devices
    );
    assert!(
        view.out_of_range().total() > 0,
        "corrupt-device events must be counted out of range"
    );
    // A fresh plan (fault totals are shared per plan instance): the full
    // differential oracle must hold under the flood too.
    check_differential(&Program::reference(), FaultPlan::new(3, cfg));
}

// ---------------------------------------------------------------------
// Adversarial generation
// ---------------------------------------------------------------------

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..2, 0usize..4, 0u8..2, 0u8..2).prop_map(|(kind, var, flag_a, flag_b)| {
        if kind == 0 {
            Step::Region {
                var,
                to_only: flag_a == 1,
                mutate: flag_b == 1,
            }
        } else {
            Step::Mapped {
                var,
                update_to: flag_a == 1,
                update_from: flag_b == 1,
            }
        }
    })
}

fn arb_program() -> impl Strategy<Value = Program> {
    (
        collection::vec(2usize..64, 1..4),
        collection::vec(arb_step(), 1..14),
    )
        .prop_map(|(var_sizes, steps)| Program { var_sizes, steps })
}

fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    (
        (0u16..6000, 0u16..6000, 0u16..6000, 0u16..6000, 0u16..6000),
        (0u16..3000, 0u16..4000),
        (0u8..2, 1u64..40),
        (0u8..4, 1u64..8),
    )
        .prop_map(|(rates, devices, stall, oom)| {
            let (drop_begin, drop_end, duplicate_end, truncate_payload, corrupt_payload) = rates;
            let (corrupt_device, transfer_fail) = devices;
            FaultConfig {
                drop_begin,
                drop_end,
                duplicate_end,
                truncate_payload,
                corrupt_payload,
                corrupt_device,
                transfer_fail,
                stall_after_ops: (stall.0 == 1).then_some(stall.1),
                stall_shard: 0,
                // OOM in a quarter of the cases: it relaxes the strict
                // record-count oracle, so keep most cases on the full one.
                oom_from_alloc: (oom.0 == 0).then_some(oom.1),
            }
        })
}

proptest! {
    // Each case runs two full monitored programs; keep the count modest
    // so the suite stays CI-sized. The vendored proptest stand-in seeds
    // its RNG from the test name, so every run draws the same cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adversarial_streams_never_panic_and_always_reconcile(
        program in arb_program(),
        cfg in arb_fault_config(),
        seed in 0u64..u64::MAX,
    ) {
        check_differential(&program, FaultPlan::new(seed, cfg));
    }
}
