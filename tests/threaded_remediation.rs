//! Threaded remediation, end to end.
//!
//! Every thread of a threaded run drives its own data environment, with
//! or without an advisor, and all threads consult one advisor. A run
//! with `--threads N` is therefore N copies of the one-thread program
//! under one policy, and the seeded assertions here are exact: a policy
//! seeded from the one-thread run makes an N-thread re-run move exactly
//! N times the one-thread re-run's bytes. Adaptive runs learn from the
//! live stream, whose timing decides which region a finding reaches
//! first, so only scheduling-independent facts are asserted of them,
//! except under a forced turn order.

use odp_ompt::{MapAdvisor, Tool};
use odp_sim::{run_on_threads_advised, RuntimeConfig, RuntimeStats};
use odp_workloads::adaptive::Remedy;
use odp_workloads::session::{run, RunOutcome, RunSpec};
use odp_workloads::Workload;
use ompdataperf::remedy::{RemediationPolicy, Remediator};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use std::sync::{Arc, Condvar, Mutex};

/// One run of `w` on `threads` threads (Small, original).
fn threaded_run(w: &dyn Workload, threads: u32, remedy: Remedy) -> RunOutcome {
    run(
        w,
        &RunSpec {
            threads,
            remedy,
            ..RunSpec::default()
        },
    )
}

#[test]
fn seeded_threaded_reruns_move_n_times_the_one_thread_bytes() {
    for name in ["babelstream", "bfs", "xsbench"] {
        let w = odp_workloads::by_name(name).unwrap();
        let baseline = threaded_run(&*w, 1, Remedy::Off);
        let policy = RemediationPolicy::from_findings(&baseline.report.findings);
        let one = threaded_run(&*w, 1, Remedy::Seeded(policy.clone()));
        assert_eq!(one.report.counts.ra, 0, "{name}: {:?}", one.report.counts);
        for threads in [2u32, 4, 8] {
            let n = u64::from(threads);
            let rerun = threaded_run(&*w, threads, Remedy::Seeded(policy.clone()));
            let remediation = rerun.remediation.as_ref().unwrap();
            assert_eq!(
                rerun.stats.bytes_transferred,
                n * one.stats.bytes_transferred,
                "{name} x{threads}: every thread runs the one-thread re-run"
            );
            assert_eq!(
                remediation.actual_transfer_bytes,
                rerun.stats.bytes_transferred
            );
            assert_eq!(
                remediation.actual_transfer_bytes + remediation.recovered_transfer_bytes,
                n * baseline.stats.bytes_transferred,
                "{name} x{threads}: the baseline is N unremediated threads"
            );
            // Every thread allocates each of its arrays once. The
            // threads' arrays share host addresses (each runtime's host
            // heap starts at one base), so Algorithm 3 groups thread k's
            // allocation with thread 0's: every repeat it reports is one
            // of those, and none is a thread's own.
            assert_eq!(rerun.stats.allocs, threads as usize * one.stats.allocs);
            let c = rerun.report.counts;
            assert_eq!(
                c.ra,
                (threads as usize - 1) * one.stats.allocs,
                "{name} x{threads}: a thread re-allocated its own array: {c:?}"
            );
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
        let adaptive = threaded_run(&*w, threads, Remedy::Adaptive);
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

/// The iterated duplicate/realloc pattern under a strict turn order:
/// each thread, in turn, opens a region over its own array, launches a
/// kernel, and closes it — every close frees the mapping, so every next
/// turn re-allocates and re-sends identical content. The threads' arrays
/// share a host address, so what one thread's findings teach the policy
/// rewrites the other thread's next turn.
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
    let advisor = adaptive.then(|| Arc::new(Remediator::adaptive(&handle)) as Arc<dyn MapAdvisor>);
    let turns = Turns::new();
    let (results, remediation) = run_on_threads_advised(
        THREADS,
        &RuntimeConfig::default(),
        tools,
        advisor,
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
    let stats: Vec<RuntimeStats> = results.iter().map(|(_, s)| *s).collect();
    let merged = odp_sim::merged_stats(&stats);
    (
        merged.bytes_transferred,
        remediation.totals().transfer_bytes_avoided,
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
