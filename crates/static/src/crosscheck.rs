//! Static-vs-dynamic cross-check: score the analyzer's predictions
//! against what the tool reports when the program runs
//! ([`run_under_tool`], read as `fleet::site_findings`).
//!
//! Both sides key findings by `(codeptr, device, kind)`, so the join is
//! exact. The headline metric is *certain precision*: a
//! [`Certainty::Certain`] row is refuted if the dynamic engine finds
//! nothing at its key, or fewer instances than the analyzer proved must
//! occur — the soundness contract the property suite and the golden
//! fixtures pin at 100%.
//!
//! The JSON rendering carries counts only (no ratios), so fixtures are
//! byte-stable; percentages appear only in the text rendering.

use crate::analysis::{analyze, Certainty, StaticReport};
use crate::ir::MappingProgram;
use crate::lower::run_under_tool;
use odp_workloads::session::RunOutcome;
use ompdataperf::fleet::{site_findings, FindingKind, SiteFinding};
use serde::Serialize;
use std::collections::BTreeMap;

/// How one `(codeptr, device, kind)` key fared in the join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RowStatus {
    /// `Certain` prediction with a dynamic finding covering its certain
    /// instance count.
    ConfirmedCertain,
    /// `Certain` prediction the dynamic engine refutes (absent key or
    /// fewer instances than proven) — a soundness bug.
    RefutedCertain,
    /// `MayDependOnData` prediction matched by a dynamic finding.
    MatchedMay,
    /// `MayDependOnData` prediction with no dynamic counterpart on this
    /// input (not an error: the input may not exercise the pattern).
    UnmatchedMay,
    /// Dynamic finding the analyzer did not predict (a recall miss).
    DynamicOnly,
}

/// One joined row of the cross-check.
#[derive(Clone, Debug, Serialize)]
pub struct CrossRow {
    /// Source site.
    pub codeptr: u64,
    /// Raw device number (-1 = host).
    pub device: i32,
    /// Inefficiency class.
    pub kind: FindingKind,
    /// Join verdict.
    pub status: RowStatus,
    /// Statically predicted instances (0 for `DynamicOnly`).
    pub static_count: u64,
    /// Instances proven to occur in every execution.
    pub certain_count: u64,
    /// Dynamically observed instances (0 for unmatched predictions).
    pub dynamic_count: u64,
}

/// Aggregate tallies of a cross-check.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct CrossSummary {
    /// `Certain` rows predicted.
    pub certain_rows: u64,
    /// `Certain` rows the dynamic engine confirms.
    pub certain_confirmed: u64,
    /// `Certain` rows the dynamic engine refutes.
    pub certain_refuted: u64,
    /// `MayDependOnData` rows predicted.
    pub may_rows: u64,
    /// `MayDependOnData` rows with a dynamic counterpart.
    pub may_matched: u64,
    /// Dynamic findings with no static prediction.
    pub dynamic_only: u64,
}

impl CrossSummary {
    /// Is every `Certain` prediction dynamically confirmed?
    pub fn certain_precision_is_total(&self) -> bool {
        self.certain_refuted == 0
    }
}

/// A full cross-check: the static report, the dynamic run, the join.
#[derive(Clone, Debug, Serialize)]
pub struct CrossCheck {
    /// Program name.
    pub program: String,
    /// Joined rows, ascending by `(codeptr, device, kind)`.
    pub rows: Vec<CrossRow>,
    /// Aggregate tallies.
    pub summary: CrossSummary,
}

/// Analyze `p`, run it under the tool and join the results. Also
/// returns both sides for callers that render them.
pub fn crosscheck(p: &MappingProgram) -> (CrossCheck, StaticReport, RunOutcome) {
    let report = analyze(p);
    let run = run_under_tool(p);
    let check = join(p, &report, &site_findings(&run.report.findings));
    (check, report, run)
}

/// Join a static report against a dynamic run's site findings.
pub fn join(p: &MappingProgram, report: &StaticReport, sites: &[SiteFinding]) -> CrossCheck {
    // (codeptr, device, kind) → (static count, certain count, dynamic count, certain?).
    type JoinAgg = BTreeMap<(u64, i32, FindingKind), (u64, u64, u64, bool)>;
    let mut keys: JoinAgg = BTreeMap::new();
    for r in &report.rows {
        let e = keys
            .entry((r.codeptr, r.device, r.kind))
            .or_insert((0, 0, 0, false));
        e.0 = r.count;
        e.1 = r.certain_count;
        e.3 = r.certainty == Certainty::Certain;
    }
    for s in sites {
        let e = keys
            .entry((s.codeptr, s.device, s.kind))
            .or_insert((0, 0, 0, false));
        e.2 = s.count;
    }
    let mut summary = CrossSummary::default();
    let rows = keys
        .into_iter()
        .map(|((codeptr, device, kind), (sc, cc, dc, certain))| {
            let status = if sc == 0 {
                summary.dynamic_only += 1;
                RowStatus::DynamicOnly
            } else if certain {
                summary.certain_rows += 1;
                if dc >= cc {
                    summary.certain_confirmed += 1;
                    RowStatus::ConfirmedCertain
                } else {
                    summary.certain_refuted += 1;
                    RowStatus::RefutedCertain
                }
            } else {
                summary.may_rows += 1;
                if dc > 0 {
                    summary.may_matched += 1;
                    RowStatus::MatchedMay
                } else {
                    RowStatus::UnmatchedMay
                }
            };
            CrossRow {
                codeptr,
                device,
                kind,
                status,
                static_count: sc,
                certain_count: cc,
                dynamic_count: dc,
            }
        })
        .collect();
    CrossCheck {
        program: p.name.clone(),
        rows,
        summary,
    }
}

impl CrossCheck {
    /// Deterministic pretty-JSON rendering (counts only, byte-stable).
    pub fn to_json(&self) -> String {
        // Plain serializable counts; cannot fail.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("crosscheck serialization cannot fail")
    }

    /// Human-readable rendering with site labels and percentages.
    pub fn render(&self, p: &MappingProgram) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cross-check: {}", self.program);
        for r in &self.rows {
            let status = match r.status {
                RowStatus::ConfirmedCertain => "certain+confirmed",
                RowStatus::RefutedCertain => "CERTAIN-REFUTED ",
                RowStatus::MatchedMay => "may+matched     ",
                RowStatus::UnmatchedMay => "may (unmatched) ",
                RowStatus::DynamicOnly => "dynamic-only    ",
            };
            let _ = writeln!(
                out,
                "  [{status}] {} dev{:>2} @ {:<28} static {} (certain {}) dynamic {}",
                r.kind.code(),
                r.device,
                p.site_label(r.codeptr),
                r.static_count,
                r.certain_count,
                r.dynamic_count,
            );
        }
        let s = &self.summary;
        let pct = |num: u64, den: u64| {
            if den == 0 {
                100.0
            } else {
                100.0 * num as f64 / den as f64
            }
        };
        let _ = writeln!(
            out,
            "  certain precision: {}/{} confirmed ({:.1}%)",
            s.certain_confirmed,
            s.certain_rows,
            pct(s.certain_confirmed, s.certain_rows),
        );
        let _ = writeln!(
            out,
            "  may coverage: {}/{} matched dynamically ({:.1}%)",
            s.may_matched,
            s.may_rows,
            pct(s.may_matched, s.may_rows),
        );
        let _ = writeln!(
            out,
            "  dynamic-only rows (recall misses): {}",
            s.dynamic_only
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{by_name, registry};
    use odp_workloads::{ProblemSize, Workload};

    fn small(name: &str) -> MappingProgram {
        by_name(name)
            .expect("known")
            .program(ProblemSize::Small)
            .clone()
    }

    #[test]
    fn babelstream_certain_precision_is_total() {
        let p = small("babelstream");
        let (check, report, _run) = crosscheck(&p);
        assert!(check.summary.certain_rows > 0, "{report:?}");
        assert!(
            check.summary.certain_precision_is_total(),
            "{}",
            check.render(&p)
        );
        // BabelStream's skeleton is fully static: no May rows at all,
        // and nothing the analyzer missed.
        assert_eq!(check.summary.may_rows, 0, "{}", check.render(&p));
        assert_eq!(check.summary.dynamic_only, 0, "{}", check.render(&p));
    }

    #[test]
    fn every_program_has_total_certain_precision_at_small() {
        for w in registry() {
            let p = w.program(ProblemSize::Small);
            let (check, _, _) = crosscheck(p);
            assert!(
                check.summary.certain_precision_is_total(),
                "{}:\n{}",
                w.name(),
                check.render(p)
            );
        }
    }

    #[test]
    fn bfs_has_certain_cross_var_duplicate_and_may_rows() {
        let p = small("bfs");
        let (check, report, _) = crosscheck(&p);
        let init_dd = report
            .rows
            .iter()
            .find(|r| {
                r.codeptr == crate::programs::bfs_sites::INIT
                    && r.kind == FindingKind::DuplicateTransfer
            })
            .expect("cross-var DD at init");
        assert_eq!(init_dd.certainty, Certainty::Certain);
        assert!(check.summary.may_rows > 0);
    }

    #[test]
    fn xsbench_round_trip_is_certain_and_confirmed() {
        let p = small("xsbench");
        let (check, report, run) = crosscheck(&p);
        let rt = report
            .rows
            .iter()
            .find(|r| r.kind == FindingKind::RoundTrip)
            .expect("RT row");
        assert_eq!(rt.certainty, Certainty::Certain);
        assert_eq!(rt.codeptr, crate::programs::xsbench_sites::LOOKUP);
        assert_eq!(run.report.counts.rt as u64, rt.count);
        assert!(
            check.summary.certain_precision_is_total(),
            "{}",
            check.render(&p)
        );
    }
}
