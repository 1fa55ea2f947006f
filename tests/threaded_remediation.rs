//! Threaded adaptive remediation over a **shared** device data
//! environment, end to end.
//!
//! The threads of a shared-device run contend on one present table per
//! device, so which thread allocates a mapping (and which merely
//! retains it) depends on OS scheduling. The assertions here are
//! therefore of two kinds:
//!
//! * **Scheduling-independent properties** of free-running runs: a
//!   policy seeded from a threaded baseline eliminates repeated
//!   allocations in a threaded re-run; adaptive runs recover work;
//!   streaming finalize stays byte-identical to post-mortem detection
//!   over the same merged trace. A rewrite drops a copy only while the
//!   device and host copies provably agree, and the threads of a run
//!   share one host address space, so which duplicates and round trips
//!   a re-run keeps depends on how the threads' host writes interleave
//!   with the transfers — those counts are not asserted.
//! * **Forced interleavings**: turn-taking runs (the
//!   `sharded_stress.rs` style) pin down that a fixed directive
//!   interleaving produces an identical merged trace every time, that
//!   cross-thread present-table reuse is real (one allocation, one
//!   transfer, N threads), and that one thread's advisor rewrite is
//!   adopted by another thread's re-entry.

// The live ≡ projection assertion shared with the core differential suites.
#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use common::assert_live_matches;
use odp_ompt::{MapAdvisor, Tool};
use odp_sim::{run_on_threads_shared, RuntimeConfig, RuntimeStats};
use odp_workloads::adaptive::Remedy;
use odp_workloads::session::{run, RunOutcome, RunSpec};
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::detect::EventView;
use ompdataperf::remedy::{RemediationPolicy, Remediator};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use std::sync::{Arc, Condvar, Mutex};

/// One shared-device run of `w` on `threads` threads (Small, original).
/// An empty seeded policy rewrites nothing, so `Seeded(new())` is the
/// unremediated shared-device baseline.
fn shared_run(w: &dyn Workload, threads: u32, remedy: Remedy) -> RunOutcome {
    run(
        w,
        &RunSpec {
            threads,
            remedy,
            ..RunSpec::default()
        },
    )
}

/// The one advisor every thread of a shared-device run attaches.
fn advisor(remediator: Remediator) -> Arc<dyn MapAdvisor> {
    Arc::new(remediator)
}

/// Did this run still report findings of the kinds remediation removes
/// under every schedule? That is repeated allocations: keeping a
/// mapping resident never needs the copies to agree. Duplicates and
/// round trips go only where no host or kernel write came between.
fn remediated_kinds_remain(c: &ompdataperf::detect::IssueCounts) -> bool {
    c.ra > 0
}

#[test]
fn seeded_threaded_reruns_converge_to_zero_remediated_kinds() {
    // Under free-running shared-device threading the OS schedule decides
    // which sites a run exercises (a mapping another thread still holds
    // is never deleted, so its re-allocation pattern may stay hidden).
    // The scheduling-independent property is CONVERGENCE: absorbing each
    // run's findings into the policy monotonically accumulates site
    // rules, and within a few rounds a seeded re-run reports zero
    // repeated allocations — and recovers work. Its bytes are not
    // compared: which re-sends a re-run still needs depends on how the
    // threads' host writes fell between the transfers.
    for name in ["babelstream", "bfs", "xsbench"] {
        for threads in [2u32, 4, 8] {
            let w = odp_workloads::by_name(name).unwrap();
            let baseline = shared_run(&*w, threads, Remedy::Seeded(RemediationPolicy::new()));

            let mut policy = RemediationPolicy::from_findings(&baseline.report.findings);
            let mut had_remediated_kinds = remediated_kinds_remain(&baseline.report.counts);
            let mut converged = None;
            for _round in 0..5 {
                let rerun = shared_run(&*w, threads, Remedy::Seeded(policy.clone()));
                assert_eq!(
                    rerun.remediation.as_ref().unwrap().actual_transfer_bytes,
                    rerun.stats.bytes_transferred
                );
                if remediated_kinds_remain(&rerun.report.counts) {
                    // A schedule exposed sites the policy had no rules
                    // for yet: absorb and go again.
                    had_remediated_kinds = true;
                    policy.absorb(&rerun.report.findings);
                } else {
                    converged = Some(rerun);
                    break;
                }
            }
            let rerun = converged.unwrap_or_else(|| {
                panic!("{name} x{threads}: no convergence within 5 seeding rounds")
            });
            let c = rerun.report.counts;
            assert_eq!(
                c.ra, 0,
                "{name} x{threads}: repeated allocations remain: {c:?}"
            );
            // Work recovered when any run showed the remediated kinds (an
            // all-quiet schedule has nothing to recover).
            if had_remediated_kinds {
                assert!(
                    rerun.remediation.unwrap().recovered_time().as_nanos() > 0,
                    "{name} x{threads}: recovered time must be measurable"
                );
            }
        }
    }
}

#[test]
fn adaptive_threaded_run_recovers_live() {
    // One live threaded run on bfs (its iterated pattern produces
    // findings under every schedule): thread A's diagnosis rewrites
    // thread B's next region through the shared policy, so the run
    // must recover work relative to its own unremediated execution
    // (actual + recovered = what it would have done). Every transfer of
    // bfs's stop flag carries a value the host or the kernel needs, so
    // what it recovers is allocation work.
    for threads in [2u32, 4] {
        let w = odp_workloads::by_name("bfs").unwrap();
        let adaptive = shared_run(&*w, threads, Remedy::Adaptive);
        let remediation = adaptive.remediation.unwrap();
        assert!(
            remediation.recovered_time().as_nanos() > 0,
            "x{threads}: live findings must rewrite later iterations"
        );
        assert!(
            remediation.recovered_mgmt_time.as_nanos() > 0,
            "x{threads}: recovered allocation work must be accounted"
        );
        assert!(
            adaptive.report.counts.total() > 0,
            "x{threads}: pre-rewrite iterations are still reported"
        );
    }
}

#[test]
fn shared_device_streaming_finalize_matches_postmortem() {
    // Acceptance: with no advisor attached, shared-present-table runs
    // keep the live findings exactly the projection of the fused report
    // over the same merged trace — whatever interleaving the OS chose.
    for name in ["babelstream", "bfs", "xsbench"] {
        for threads in [2u32, 4] {
            let w = odp_workloads::by_name(name).unwrap();
            let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
                stream: true,
                ..Default::default()
            });
            let mut tools: Vec<Box<dyn Tool>> = vec![Box::new(tool)];
            for _ in 1..threads {
                tools.push(Box::new(handle.fork_tool()));
            }
            // The primitives, on purpose: the engine is finalized by
            // hand below to compare its live stream with its report.
            let run =
                run_on_threads_shared(threads, &RuntimeConfig::default(), tools, None, |_, rt| {
                    w.run(rt, ProblemSize::Small, Variant::Original)
                });
            assert!(run.results.iter().all(|(_, stats)| stats.kernels > 0));
            let trace = handle.take_trace();
            let mut engine = handle.take_stream_engine().expect("streaming on");
            let view = EventView::from_log(&trace);
            let report = engine.finalize(&view);
            assert_eq!(engine.live_counts(), report.counts());
            assert_live_matches(
                engine.take_findings(),
                &report,
                &format!("{name} x{threads} (shared devices)"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Forced interleavings (turn-taking, sharded_stress.rs style)
// ---------------------------------------------------------------------

/// Strict global turn order across threads: thread `i` runs step `s`
/// only at global turn `s * threads + i`.
struct Turns {
    state: Mutex<u64>,
    cv: Condvar,
}

impl Turns {
    fn new() -> Arc<Turns> {
        Arc::new(Turns {
            state: Mutex::new(0),
            cv: Condvar::new(),
        })
    }

    fn wait_for(&self, turn: u64) {
        let mut t = self.state.lock().unwrap();
        while *t != turn {
            t = self.cv.wait(t).unwrap();
        }
    }

    fn advance(&self) {
        *self.state.lock().unwrap() += 1;
        self.cv.notify_all();
    }
}

/// One barrier-forced shared-device run: `threads` threads take strict
/// turns opening a data region over the *same host address*, launching
/// a kernel, and closing it. Returns the merged trace JSON and the
/// merged stats.
fn forced_interleaving_run(threads: u32) -> (String, RuntimeStats) {
    use odp_model::{CodePtr, MapType};
    use odp_sim::{map, Kernel, KernelCost};

    let (tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
    let mut tools: Vec<Box<dyn Tool>> = vec![Box::new(tool)];
    for _ in 1..threads {
        tools.push(Box::new(handle.fork_tool()));
    }
    let turns = Turns::new();
    let outcome =
        run_on_threads_shared(threads, &RuntimeConfig::default(), tools, None, |i, rt| {
            let a = rt.host_alloc("a", 512);
            rt.host_fill_u32(a, |x| x as u32);
            // Step 0: every thread (in turn order) opens a region over
            // the same host address — thread 0 allocates + transfers,
            // everyone else retains the same present-table entry.
            turns.wait_for(i as u64);
            let region = rt.target_data_begin(0, CodePtr(0x10), &[map(MapType::To, a)]);
            turns.advance();
            // Step 1: one kernel each, in turn order.
            turns.wait_for(threads as u64 + i as u64);
            rt.target(
                0,
                CodePtr(0x20),
                &[map(MapType::To, a)],
                Kernel::new("k", KernelCost::fixed(100)).reads(&[a]),
            );
            turns.advance();
            // Step 2: close in turn order; only the last release frees.
            turns.wait_for(2 * threads as u64 + i as u64);
            rt.target_data_end(region);
            turns.advance();
        });
    assert_eq!(outcome.devices.present_mappings(0), 0, "all released");
    let stats: Vec<RuntimeStats> = outcome.results.iter().map(|(_, s)| *s).collect();
    (handle.take_trace().to_json(), odp_sim::merged_stats(&stats))
}

#[test]
fn forced_interleavings_are_deterministic_and_share_the_present_table() {
    let (t1, s1) = forced_interleaving_run(4);
    let (t2, s2) = forced_interleaving_run(4);
    assert_eq!(
        t1, t2,
        "a fixed directive interleaving must merge identically across runs"
    );
    // Cross-thread reuse is real: one allocation and one H2D serve all
    // four threads' regions (rank-per-thread mode would do 4 of each).
    assert_eq!(s1.allocs, 1, "one shared allocation: {s1:?}");
    assert_eq!(s1.transfers, 1, "one shared transfer: {s1:?}");
    assert_eq!(s1.kernels, 4);
    assert_eq!(s2.allocs, 1);
}

/// The iterated duplicate/realloc pattern under a strict turn order:
/// each thread, in turn, opens a region over the same host address,
/// launches a kernel, and closes it — every close frees the mapping, so
/// every next turn re-allocates and re-sends identical content.
/// Returns `(bytes_transferred, recovered_bytes)`.
fn forced_pattern_run(adaptive: bool) -> (u64, u64) {
    use odp_model::{CodePtr, MapType};
    use odp_sim::{map, Kernel, KernelCost};

    const THREADS: u32 = 2;
    const STEPS: u64 = 8;
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        stream: adaptive,
        ..Default::default()
    });
    let mut tools: Vec<Box<dyn Tool>> = vec![Box::new(tool)];
    for _ in 1..THREADS {
        tools.push(Box::new(handle.fork_tool()));
    }
    let shared = adaptive.then(|| advisor(Remediator::adaptive(&handle)));
    let turns = Turns::new();
    let outcome = run_on_threads_shared(
        THREADS,
        &RuntimeConfig::default(),
        tools,
        shared,
        |i, rt| {
            let a = rt.host_alloc("a", 4096);
            rt.host_fill_u32(a, |x| x as u32);
            for step in 0..STEPS {
                turns.wait_for(step * THREADS as u64 + i as u64);
                let region = rt.target_data_begin(0, CodePtr(0x10), &[map(MapType::To, a)]);
                rt.target(
                    0,
                    CodePtr(0x20),
                    &[map(MapType::To, a)],
                    Kernel::new("k", KernelCost::fixed(50)).reads(&[a]),
                );
                rt.target_data_end(region);
                turns.advance();
            }
        },
    );
    let stats: Vec<RuntimeStats> = outcome.results.iter().map(|(_, s)| *s).collect();
    let merged = odp_sim::merged_stats(&stats);
    (
        merged.bytes_transferred,
        outcome.remediation.totals().transfer_bytes_avoided,
    )
}

#[test]
fn forced_adaptive_run_moves_strictly_fewer_bytes_than_its_baseline() {
    // Same forced schedule for both runs, so the byte counts are
    // directly comparable — and deterministic across repeats.
    let (baseline_bytes, zero) = forced_pattern_run(false);
    let (adaptive_bytes, recovered) = forced_pattern_run(true);
    assert_eq!(zero, 0, "no advisor, nothing recovered");
    assert!(
        adaptive_bytes < baseline_bytes,
        "adaptive bytes must be strictly below baseline ({adaptive_bytes} vs {baseline_bytes})"
    );
    assert!(recovered > 0, "the saved re-sends are accounted");
    assert_eq!(
        adaptive_bytes + recovered,
        baseline_bytes,
        "actual + recovered must reconstruct the unremediated traffic"
    );
    let (again, recovered_again) = forced_pattern_run(true);
    assert_eq!(again, adaptive_bytes, "forced schedule ⇒ deterministic");
    assert_eq!(recovered_again, recovered);
}

#[test]
fn cross_thread_phantom_reference_adoption_is_sound() {
    // A seeded persist rule makes thread 0's region exit keep the
    // mapping resident (phantom reference). Thread 1 then re-enters the
    // same site: it must adopt the phantom exactly once, and the
    // avoided re-allocation/re-send must be accounted.
    use odp_model::{CodePtr, MapType};
    use odp_sim::{map, Kernel, KernelCost};

    // Learn the site address from a probe runtime (host layouts are
    // identical across runtimes by construction).
    let probe_addr = {
        let mut rt = odp_sim::Runtime::with_defaults();
        let a = rt.host_alloc("a", 256);
        rt.host_addr(a)
    };
    let mut policy = RemediationPolicy::new();
    policy.observe(&ompdataperf::detect::StreamFinding::RepeatedAlloc {
        host_addr: probe_addr,
        device: odp_model::DeviceId::target(0),
        bytes: 256,
        codeptr: CodePtr(0x10),
        alloc: 1,
        occurrence: 2,
        confidence: ompdataperf::Confidence::Confirmed,
    });

    let (tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
    let tools: Vec<Box<dyn Tool>> = vec![Box::new(tool), Box::new(handle.fork_tool())];
    let shared = Some(advisor(Remediator::seeded(policy)));
    let turns = Turns::new();
    let outcome = run_on_threads_shared(2, &RuntimeConfig::default(), tools, shared, |i, rt| {
        let a = rt.host_alloc("a", 256);
        // Thread 0 maps and fully exits first (persist rule leaves
        // the phantom); thread 1 then re-enters the same site.
        turns.wait_for(2 * i as u64); // t0 at turn 0, t1 at turn 2
        rt.target(
            0,
            CodePtr(0x20),
            &[map(MapType::To, a)],
            Kernel::new("k", KernelCost::fixed(50)).reads(&[a]),
        );
        turns.advance();
        turns.wait_for(2 * i as u64 + 1); // t0 at 1, t1 at 3
        turns.advance();
        rt.stats()
    });
    let totals = outcome.remediation.totals();
    assert!(
        totals.rewrites >= 1,
        "thread 0's exit must apply the persist rewrite: {totals:?}"
    );
    assert!(
        totals.allocs_avoided >= 1,
        "thread 1's re-entry must adopt the phantom (no re-allocation): {totals:?}"
    );
    assert!(
        totals.transfers_avoided >= 1,
        "the adopted mapping's re-send must count as recovered: {totals:?}"
    );
    // The phantom is adopted exactly once and released at thread 1's
    // region exit... which persists it again: exactly one live mapping.
    assert_eq!(outcome.devices.present_mappings(0), 1);
    // The merged stats agree: one real alloc + one real transfer total.
    let stats: Vec<RuntimeStats> = outcome.results.iter().map(|(_, s)| *s).collect();
    let merged = odp_sim::merged_stats(&stats);
    assert_eq!(merged.allocs, 1, "{merged:?}");
    assert_eq!(merged.transfers, 1, "{merged:?}");
}
