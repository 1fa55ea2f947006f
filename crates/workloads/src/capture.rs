//! Capture a workload run as a persistable trace artifact.
//!
//! The bridge between the run driver and the persistence layer: run one
//! instrumented workload (optionally with live remediation, exactly
//! like `odp run --remediate`) and snapshot the trace, with the run's
//! merged health, into an [`odp_trace::TraceArtifact`] ready for
//! `TraceArtifact::to_bytes` / fleet ingest. Shared by `odp trace save`
//! and the golden-corpus fixtures, so both produce identical corpora
//! for identical workloads.

use crate::adaptive::Remedy;
use crate::session::{run, RunSpec};
use crate::{ProblemSize, Variant, Workload};
use odp_trace::TraceArtifact;

/// Run `w` once under the tool and snapshot the trace as a persistable
/// artifact carrying the run's merged health (collector quarantines,
/// streaming-engine degradation when remediating, merge-time duplicate
/// ids) and the workload's name as the program.
///
/// With `remediate` the streaming engine feeds a live policy during the
/// run — the captured trace is the *remediated* execution, which is
/// what makes baseline-vs-remediated corpus diffs meaningful.
pub fn capture_artifact(
    w: &dyn Workload,
    size: ProblemSize,
    variant: Variant,
    remediate: bool,
) -> TraceArtifact {
    let remedy = if remediate {
        Remedy::Adaptive
    } else {
        Remedy::Off
    };
    let outcome = run(
        w,
        &RunSpec {
            size,
            variant,
            remedy,
            ..RunSpec::default()
        },
    );
    TraceArtifact::from_log(&outcome.trace, w.name(), outcome.health)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::babelstream::BabelStream;
    use odp_trace::persist::load_trace;

    #[test]
    fn captured_artifact_round_trips() {
        let w = BabelStream;
        let artifact = capture_artifact(&w, ProblemSize::Small, Variant::Original, false);
        assert!(artifact.data_op_count() > 0);
        assert_eq!(artifact.meta.program, w.name());
        let loaded = load_trace(&artifact.to_bytes()).unwrap();
        assert_eq!(loaded, artifact);
    }

    #[test]
    fn capture_is_deterministic() {
        let a = capture_artifact(&BabelStream, ProblemSize::Small, Variant::Original, true);
        let b = capture_artifact(&BabelStream, ProblemSize::Small, Variant::Original, true);
        assert_eq!(a.to_bytes(), b.to_bytes(), "simulated time is bit-stable");
    }
}
