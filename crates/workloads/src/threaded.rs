//! The workloads with a multi-threaded variant.
//!
//! `RunSpec::threads > 1` ([`crate::session`]) drives one workload's
//! offload pattern from N real OS threads at once: every thread owns a
//! simulated `Runtime` (its own virtual clock and data environment,
//! whether or not the run remediates) and an attached tool shard, so
//! the collector observes genuinely concurrent OMPT callbacks. Because
//! each thread's virtual timeline is deterministic and sharded traces
//! merge by `(timestamp, shard, per-shard order)`, the merged
//! observation of a run without a live advisor is identical across runs
//! regardless of OS scheduling — while the callback *interleaving*
//! (what the sharded fast path and the watermark merge must survive) is
//! real.

use crate::Workload;

/// The workloads with threaded variants.
pub fn threaded_workloads() -> Vec<Box<dyn Workload>> {
    crate::all()
        .into_iter()
        .filter(|w| w.supports_threads())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run, RunSpec};

    #[test]
    fn the_three_threaded_workloads_are_marked() {
        let names: Vec<&str> = threaded_workloads().iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["babelstream", "bfs", "xsbench"]);
    }

    fn on_threads(name: &str, threads: u32) -> crate::session::RunOutcome {
        let w = crate::by_name(name).unwrap();
        run(
            &*w,
            &RunSpec {
                threads,
                ..RunSpec::default()
            },
        )
    }

    #[test]
    fn threaded_run_produces_a_deterministic_merged_trace() {
        let a = on_threads("babelstream", 3);
        assert!(a.stats.kernels > 0);
        let b = on_threads("babelstream", 3);
        assert_eq!(
            a.trace.to_json(),
            b.trace.to_json(),
            "merged trace must not depend on OS scheduling"
        );
    }

    #[test]
    #[should_panic(expected = "does not support --threads")]
    fn unthreaded_workloads_are_rejected() {
        let _ = on_threads("hotspot", 2);
    }
}
