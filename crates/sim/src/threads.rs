//! Multi-threaded driving of the simulated runtime.
//!
//! A real OpenMP program's host threads each issue target directives,
//! so an OMPT tool observes callbacks arriving concurrently from every
//! runtime thread. This module reproduces that concurrency with *real
//! OS threads*: [`run_on_threads`] gives each thread its own [`Runtime`]
//! instance — its own virtual clock, host memory and devices (the
//! rank-per-thread offload shape, as when each host thread drives its
//! own data environment) — and attaches one caller-supplied tool per
//! thread. A sharded tool (e.g. `ompdataperf::tool::ToolHandle::fork_tool`)
//! turns those per-thread callback streams back into one deterministic
//! trace. [`run_on_threads_advised`], what a profiled run calls, is the
//! same run with one `MapAdvisor` every thread consults, so a rewrite
//! learned from one thread's findings applies to every thread's next
//! region. An advisor changes what the threads' directives do, never
//! how the run is laid out.
//!
//! Each thread's virtual timeline is deterministic, and sharded trace
//! merging orders events by `(timestamp, shard, per-shard order)`, so
//! the *merged* observation is byte-identical across runs no matter how
//! the OS interleaves the threads — the property the concurrency stress
//! suite pins down.

use crate::config::RuntimeConfig;
use crate::runtime::{Runtime, RuntimeStats};
use odp_ompt::{MapAdvisor, RemediationStats, Tool};
use std::sync::Arc;

/// Run `body` on `threads` OS threads, thread `i` against its own
/// `Runtime::new(cfg.clone())` with `tools[i]` attached. Joins all
/// threads and returns each thread's `(body output, run statistics)` in
/// thread-index order.
///
/// # Panics
/// Propagates a panic from any runtime thread, and panics when
/// `tools.len() != threads`.
pub fn run_on_threads<R, F>(
    threads: u32,
    cfg: &RuntimeConfig,
    tools: Vec<Box<dyn Tool>>,
    body: F,
) -> Vec<(R, RuntimeStats)>
where
    R: Send,
    F: Fn(u32, &mut Runtime) -> R + Sync,
{
    run_on_threads_advised(threads, cfg, tools, None, body).0
}

/// [`run_on_threads`] with `advisor`, when given, attached to every
/// thread's runtime — how a profiled run lays itself out. Returns the
/// per-thread results and the advisor rewrites merged across threads.
///
/// # Panics
/// As [`run_on_threads`].
pub fn run_on_threads_advised<R, F>(
    threads: u32,
    cfg: &RuntimeConfig,
    tools: Vec<Box<dyn Tool>>,
    advisor: Option<Arc<dyn MapAdvisor>>,
    body: F,
) -> (Vec<(R, RuntimeStats)>, RemediationStats)
where
    R: Send,
    F: Fn(u32, &mut Runtime) -> R + Sync,
{
    assert_eq!(tools.len(), threads as usize, "one tool per runtime thread");
    let per_thread = std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = tools
            .into_iter()
            .enumerate()
            .map(|(i, tool)| {
                let mut cfg = cfg.clone();
                // Each shard draws an independent, reproducible fault
                // stream; totals stay shared across the shards.
                cfg.faults = cfg.faults.for_shard(i as u32);
                let advisor = advisor.clone();
                scope.spawn(move || {
                    let mut rt = Runtime::new(cfg);
                    rt.attach_tool(tool);
                    if let Some(advisor) = advisor {
                        rt.attach_advisor(advisor);
                    }
                    let out = body(i as u32, &mut rt);
                    let stats = rt.finish();
                    (out, stats, rt.remediation_stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect::<Vec<_>>()
    });
    let mut remediation = RemediationStats::default();
    let results = per_thread
        .into_iter()
        .map(|(out, stats, remedy)| {
            remediation.merge(&remedy);
            (out, stats)
        })
        .collect();
    (results, remediation)
}

/// Aggregate per-thread run statistics: counters and cumulative times
/// sum; total time is the slowest thread (the threads run in parallel).
pub fn merged_stats(per_thread: &[RuntimeStats]) -> RuntimeStats {
    let mut out = RuntimeStats::default();
    for s in per_thread {
        out.total_time = out.total_time.max(s.total_time);
        out.transfers += s.transfers;
        out.bytes_transferred += s.bytes_transferred;
        out.allocs += s.allocs;
        out.kernels += s.kernels;
        out.transfer_time += s.transfer_time;
        out.alloc_time += s.alloc_time;
        out.kernel_time += s.kernel_time;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelCost};
    use crate::map;
    use odp_model::{CodePtr, MapType};
    use odp_ompt::{
        CallbackKind, DataOpCallback, Endpoint, MapAdvice, RuntimeCapabilities, ToolRegistration,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts end-of-transfer callbacks; shared across all threads.
    struct Counter {
        transfers: Arc<AtomicUsize>,
    }

    impl Tool for Counter {
        fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
            ToolRegistration::negotiate(&[CallbackKind::TargetDataOpEmi], caps)
        }
        fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
            if cb.endpoint == Endpoint::End && cb.payload.is_some() {
                self.transfers.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Counts consults and advises nothing; shared by every thread.
    #[derive(Default)]
    struct Consults(AtomicUsize);

    impl MapAdvisor for Consults {
        fn advise(&self, _device: u32, _host_addr: u64) -> MapAdvice {
            self.0.fetch_add(1, Ordering::Relaxed);
            MapAdvice::KEEP
        }
    }

    fn offload_once(rt: &mut Runtime) {
        let a = rt.host_alloc("a", 256);
        rt.target(
            0,
            CodePtr(0x10),
            &[map(MapType::ToFrom, a)],
            Kernel::new("k", KernelCost::fixed(100))
                .reads(&[a])
                .writes(&[a]),
        );
    }

    #[test]
    fn each_thread_drives_its_own_runtime() {
        let transfers = Arc::new(AtomicUsize::new(0));
        let tools: Vec<Box<dyn Tool>> = (0..4)
            .map(|_| {
                Box::new(Counter {
                    transfers: transfers.clone(),
                }) as Box<dyn Tool>
            })
            .collect();
        let results = run_on_threads(4, &RuntimeConfig::default(), tools, |i, rt| {
            offload_once(rt);
            i
        });
        assert_eq!(results.len(), 4);
        let outs: Vec<u32> = results.iter().map(|(o, _)| *o).collect();
        assert_eq!(outs, vec![0, 1, 2, 3], "results in thread-index order");
        // Each thread: one H2D + one D2H.
        assert_eq!(transfers.load(Ordering::Relaxed), 8);
        let merged = merged_stats(&results.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        assert_eq!(merged.transfers, 8);
        assert_eq!(merged.kernels, 4);
        assert!(merged.total_time.as_nanos() > 0);
        // Threads ran the same deterministic program: identical clocks.
        let times: Vec<u64> = results
            .iter()
            .map(|(_, s)| s.total_time.as_nanos())
            .collect();
        assert!(times.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "one tool per runtime thread")]
    fn tool_count_must_match_thread_count() {
        let _ = run_on_threads(2, &RuntimeConfig::default(), Vec::new(), |_, _| ());
    }

    #[test]
    fn an_advised_run_gives_every_thread_its_own_copy() {
        use crate::map;
        use odp_model::MapType;

        // Every thread opens a data region over its own array at the
        // same host address: each allocates and sends its own copy. One
        // advisor serves all four threads.
        let threads = 4u32;
        let transfers = Arc::new(AtomicUsize::new(0));
        let tools: Vec<Box<dyn Tool>> = (0..threads)
            .map(|_| {
                Box::new(Counter {
                    transfers: transfers.clone(),
                }) as Box<dyn Tool>
            })
            .collect();
        let consults = Arc::new(Consults::default());
        let (results, remediation) = run_on_threads_advised(
            threads,
            &RuntimeConfig::default(),
            tools,
            Some(consults.clone()),
            |_, rt| {
                let a = rt.host_alloc("a", 256);
                let region = rt.target_data_begin(0, CodePtr(0x10), &[map(MapType::To, a)]);
                rt.target_data_end(region);
                rt.present_mappings(0)
            },
        );
        assert!(
            results.iter().all(|(left, _)| *left == 0),
            "each run frees its own"
        );
        let merged = merged_stats(&results.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        assert_eq!(merged.allocs, 4, "one allocation per thread: {merged:?}");
        assert_eq!(merged.transfers, 4, "one H2D per thread: {merged:?}");
        assert_eq!(transfers.load(Ordering::Relaxed), 4);
        // One clause per thread, consulted at entry and at exit.
        assert_eq!(
            consults.0.load(Ordering::Relaxed),
            2 * threads as usize,
            "every thread consults the one advisor"
        );
        assert!(!remediation.any_rewrites(), "KEEP rewrites nothing");
    }
}
