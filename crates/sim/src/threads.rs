//! Multi-threaded driving of the simulated runtime.
//!
//! A real OpenMP program's host threads each issue target directives,
//! so an OMPT tool observes callbacks arriving concurrently from every
//! runtime thread. This module reproduces that concurrency with *real
//! OS threads*, in two shapes:
//!
//! * [`run_on_threads`] gives each thread its own [`Runtime`] instance
//!   — its own virtual clock, host memory, and device state (the
//!   rank-per-thread offload shape, as when each host thread drives
//!   its own data environment) — and attaches one caller-supplied tool
//!   per thread. A sharded tool (e.g.
//!   `ompdataperf::tool::ToolHandle::fork_tool`) turns those
//!   per-thread callback streams back into one deterministic trace.
//! * [`run_on_threads_shared`] attaches every thread's runtime to one
//!   [`SharedDevices`] set — `libomptarget`'s true shape: all threads
//!   contend on the same per-device present tables, cross-thread
//!   mapping reuse is real, and every thread may consult one shared
//!   `MapAdvisor` (remediation under concurrency).
//!
//! [`run_on_threads_advised`], what a profiled run calls, takes the
//! second shape exactly when an advisor attaches; all three share one
//! launcher.
//!
//! Each thread's virtual timeline is deterministic, and sharded trace
//! merging orders events by `(timestamp, shard, per-shard order)`, so
//! the *merged* observation is byte-identical across runs no matter how
//! the OS interleaves the threads — the property the concurrency stress
//! suite pins down.

use crate::config::RuntimeConfig;
use crate::device::SharedDevices;
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
    launch(threads, cfg, tools, None, None, body).0
}

/// Outcome of a shared-device threaded run.
pub struct SharedThreadOutcome<R> {
    /// Per-thread `(body output, run statistics)`, thread-index order.
    pub results: Vec<(R, RuntimeStats)>,
    /// Per-thread advisor rewrites merged across all runtimes.
    pub remediation: RemediationStats,
    /// The device set the threads shared (for post-run inspection).
    pub devices: SharedDevices,
}

/// Run `body` on `threads` OS threads that all operate on **one shared
/// device set** — the true `libomptarget` shape, where every host
/// thread's directives contend on the same per-device present tables.
/// Thread `i` gets its own `Runtime` (private virtual clock and host
/// memory) attached to the shared devices, with `tools[i]` and, when
/// provided, a clone of `advisor` attached.
///
/// Unlike [`run_on_threads`], the *interleaving* of present-table
/// operations is real: which thread allocates a mapping first (and who
/// merely retains it) depends on OS scheduling, exactly as in a real
/// runtime. Deterministic assertions over such runs must force the
/// interleaving (barriers), or assert scheduling-independent facts
/// (e.g. a seeded remediation policy eliminates its finding kinds).
///
/// # Panics
/// Propagates a panic from any runtime thread; panics when
/// `tools.len() != threads`.
pub fn run_on_threads_shared<R, F>(
    threads: u32,
    cfg: &RuntimeConfig,
    tools: Vec<Box<dyn Tool>>,
    advisor: Option<Arc<dyn MapAdvisor>>,
    body: F,
) -> SharedThreadOutcome<R>
where
    R: Send,
    F: Fn(u32, &mut Runtime) -> R + Sync,
{
    let devices = SharedDevices::new(cfg);
    let (results, remediation) = launch(threads, cfg, tools, Some(&devices), advisor, body);
    SharedThreadOutcome {
        results,
        remediation,
        devices,
    }
}

/// [`run_on_threads_shared`] with an `advisor`, [`run_on_threads`]
/// without one — how a profiled run lays itself out. Returns the
/// per-thread results and the merged advisor rewrites.
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
    let devices = advisor.as_ref().map(|_| SharedDevices::new(cfg));
    launch(threads, cfg, tools, devices.as_ref(), advisor, body)
}

/// The one launcher: thread `i` runs `body` on a runtime over `devices`
/// (its own set when `None`) with `tools[i]` and `advisor` attached;
/// results come back in thread-index order, rewrites merged.
fn launch<R, F>(
    threads: u32,
    cfg: &RuntimeConfig,
    tools: Vec<Box<dyn Tool>>,
    devices: Option<&SharedDevices>,
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
                let devices = devices.cloned();
                let advisor = advisor.clone();
                scope.spawn(move || {
                    let mut rt = match devices {
                        Some(devices) => Runtime::with_shared_devices(cfg, devices),
                        None => Runtime::new(cfg),
                    };
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
    fn shared_devices_are_reused_across_threads() {
        use crate::map;
        use odp_model::MapType;
        use std::sync::Barrier;

        // All threads open a data region over the same host address and
        // hold it across a barrier: whatever the interleaving, exactly
        // one thread allocates + transfers (map_enter is atomic on the
        // shared present table) and the rest retain the entry. One
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
        let barrier = Barrier::new(threads as usize);
        let consults = Arc::new(Consults::default());
        let outcome = run_on_threads_shared(
            threads,
            &RuntimeConfig::default(),
            tools,
            Some(consults.clone()),
            |_, rt| {
                let a = rt.host_alloc("a", 256);
                let region = rt.target_data_begin(0, CodePtr(0x10), &[map(MapType::To, a)]);
                barrier.wait(); // every region is open before any closes
                rt.target_data_end(region);
            },
        );
        let stats: Vec<RuntimeStats> = outcome.results.iter().map(|(_, s)| *s).collect();
        let merged = merged_stats(&stats);
        assert_eq!(merged.allocs, 1, "one shared allocation: {merged:?}");
        assert_eq!(merged.transfers, 1, "one shared H2D: {merged:?}");
        assert_eq!(transfers.load(Ordering::Relaxed), 1);
        assert_eq!(
            outcome.devices.present_mappings(0),
            0,
            "the last release frees the shared mapping"
        );
        // One clause per thread, consulted at entry and at exit.
        assert_eq!(
            consults.0.load(Ordering::Relaxed),
            2 * threads as usize,
            "every thread consults the one advisor"
        );
        assert!(!outcome.remediation.any_rewrites(), "KEEP rewrites nothing");
    }
}
