//! Remediation modes: whether a run closes the detect→rewrite loop, and
//! where its policy comes from.
//!
//! A run driven by [`crate::session::run`] is one of
//!
//! * [`Remedy::Off`] — the plain instrumented run, the comparison
//!   point: no advisor, detection output byte-identical to the
//!   pre-remediation tool;
//! * [`Remedy::Adaptive`] — one live run: the streaming engine's
//!   findings feed a fresh [`RemediationPolicy`], so later iterations
//!   of the workload execute rewritten mappings;
//! * [`Remedy::Seeded`] — a re-run against a policy seeded from
//!   previous findings ([`RemediationPolicy::from_findings`]): the
//!   detectors then report zero issues of the remediated kinds.
//!
//! The run's `RunOutcome` carries the analysis report, the remediation
//! accounting and the raw runtime stats, so callers can assert
//! `bytes_transferred` strictly shrank and `recovered_time() > 0`.

use ompdataperf::remedy::{RemediationPolicy, Remediator};
use ompdataperf::tool::ToolHandle;
use std::sync::Arc;

/// Whether, and from what, a run rewrites its mappings.
#[derive(Clone, Debug, Default)]
pub enum Remedy {
    /// No advisor.
    #[default]
    Off,
    /// Learn from the run's own live findings (`--remediate`).
    Adaptive,
    /// Apply a policy fixed up front; nothing is learned mid-run.
    Seeded(RemediationPolicy),
}

impl Remedy {
    /// The advisor every runtime thread of a run in this mode attaches.
    pub(crate) fn remediator(&self, handle: &ToolHandle) -> Option<Arc<Remediator>> {
        match self {
            Remedy::Off => None,
            Remedy::Adaptive => Some(Arc::new(Remediator::adaptive(handle))),
            Remedy::Seeded(policy) => Some(Arc::new(Remediator::seeded(policy.clone()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run, RunSpec};

    #[test]
    fn adaptive_babelstream_recovers_transfer_time_in_one_run() {
        let w = crate::babelstream::BabelStream;
        let baseline = run(&w, &RunSpec::default());
        let adaptive = run(
            &w,
            &RunSpec {
                remedy: Remedy::Adaptive,
                ..RunSpec::default()
            },
        );
        let remediation = adaptive.remediation.unwrap();
        assert!(
            remediation.recovered_time().as_nanos() > 0,
            "live findings must rewrite later iterations"
        );
        assert!(
            adaptive.stats.bytes_transferred < baseline.stats.bytes_transferred,
            "adaptive run must move strictly fewer bytes ({} vs {})",
            adaptive.stats.bytes_transferred,
            baseline.stats.bytes_transferred
        );
        // Detection stayed live: the adaptive run still reports the
        // issues it saw before the rewrites kicked in.
        assert!(adaptive.report.counts.total() > 0);
        assert!(adaptive.report.counts.dd < baseline.report.counts.dd);
    }

    #[test]
    fn baseline_runs_apply_no_rewrites() {
        let baseline = run(&crate::babelstream::BabelStream, &RunSpec::default());
        assert!(baseline.remediation.is_none());
        assert!(baseline.live.is_none(), "a baseline run does not stream");
    }
}
