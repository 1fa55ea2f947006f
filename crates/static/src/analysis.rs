//! The static analysis: the dynamic engine's §5 detectors run over the
//! abstract trace, and a certainty fold over what they find.
//!
//! Detection itself is not re-implemented here. `crate::exec` emits
//! the engine's own event model — content *tokens* interned as payload
//! hashes, stream position as timestamps — so
//! [`Findings::detect_fused`] groups, pairs and sweeps the abstract
//! stream exactly as it would a recorded one, and
//! [`ompdataperf::detect::charges`] says which instances count and what
//! each is charged to, exactly as it does for a dynamic run. What stays
//! static-only is the question no trace can answer: does this instance
//! occur in *every* execution? Each charged instance gets a certainty
//! bit from the taint-tracked `crate::exec::OpFacts` of the events
//! behind it; a whole row is [`Certainty::Certain`] only when at least
//! one of its instances provably always occurs.

use crate::exec::{abstract_run, AbsTrace, Tok};
use crate::ir::MappingProgram;
use odp_model::DataOpEvent;
use odp_trace::ColumnarView;
use ompdataperf::detect::{
    charges, AllocDeletePair, EventView, Evidence, FindingKind, Findings, UnusedTransferReason,
};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// How sure the analyzer is that a predicted finding occurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Certainty {
    /// Occurs in every execution of the program: safe to rewrite on.
    Certain,
    /// Predicted from the symbolic unrolling of data-dependent control
    /// flow; the count (or the finding itself) may vary with input.
    MayDependOnData,
}

/// One predicted finding row, keyed like the dynamic engine's
/// `SiteFinding`: `(codeptr, device, kind)`.
#[derive(Clone, Debug, Serialize)]
pub struct StaticPrediction {
    /// Source site (directive code pointer).
    pub codeptr: u64,
    /// Raw device number the waste lands on (-1 = host).
    pub device: i32,
    /// Inefficiency class.
    pub kind: FindingKind,
    /// Row certainty: `Certain` iff at least one instance is certain.
    pub certainty: Certainty,
    /// Predicted instances at this site (for `MayDependOnData` rows this
    /// reflects the symbolic unrolling, not any concrete input).
    pub count: u64,
    /// Instances that provably occur in every execution.
    pub certain_count: u64,
    /// Predicted wasted bytes across all instances.
    pub bytes: u64,
    /// Variables involved, by name, sorted.
    pub vars: Vec<String>,
}

/// The static analyzer's output for one program.
#[derive(Clone, Debug, Serialize)]
pub struct StaticReport {
    /// Program name.
    pub program: String,
    /// Predictions ascending by `(codeptr, device, kind)`.
    pub rows: Vec<StaticPrediction>,
    /// Mirrored runtime warnings the symbolic execution hit
    /// (release/delete/update of absent data).
    pub warnings: u32,
}

impl StaticReport {
    /// Rows tagged [`Certainty::Certain`].
    pub(crate) fn certain_rows(&self) -> impl Iterator<Item = &StaticPrediction> {
        self.rows
            .iter()
            .filter(|r| r.certainty == Certainty::Certain)
    }

    /// Deterministic pretty-JSON rendering (counts only, byte-stable).
    pub fn to_json(&self) -> String {
        // Plain serializable counts; cannot fail.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

/// Run the full static analysis: symbolic execution, the dynamic
/// engine's five detectors over the abstract trace, and the certainty
/// fold, aggregated into `(codeptr, device, kind)` rows.
pub fn analyze(p: &MappingProgram) -> StaticReport {
    let trace = abstract_run(p);
    let cols = ColumnarView::from_events(&trace.ops, &trace.kernels);
    let findings = Findings::detect_fused(&EventView::over(&cols, p.num_devices));
    let fold = CertaintyFold {
        trace: &trace,
        stable: stable_tokens(&trace),
    };

    // (codeptr, device, kind) → (count, certain_count, bytes, var names).
    type RowAgg = BTreeMap<(u64, i32, FindingKind), (u64, u64, u64, BTreeSet<String>)>;
    let mut rows: RowAgg = BTreeMap::new();
    for c in charges(&findings) {
        let certain = fold.judge(&c.evidence);
        let e = rows
            .entry((c.codeptr, c.device, c.evidence.kind()))
            .or_insert((0, 0, 0, BTreeSet::new()));
        e.0 += 1;
        if certain {
            e.1 += 1;
        }
        e.2 += c.bytes;
        if let Some(var) = trace
            .facts_of(c.evidence.charged().id)
            .and_then(|f| p.vars.get(f.var))
        {
            e.3.insert(var.name.clone());
        }
    }
    StaticReport {
        program: p.name.clone(),
        rows: rows
            .into_iter()
            .map(
                |((codeptr, device, kind), (count, certain_count, bytes, vars))| StaticPrediction {
                    codeptr,
                    device,
                    kind,
                    certainty: if certain_count > 0 {
                        Certainty::Certain
                    } else {
                        Certainty::MayDependOnData
                    },
                    count,
                    certain_count,
                    bytes,
                    vars: vars.into_iter().collect(),
                },
            )
            .collect(),
        warnings: trace.warnings,
    }
}

/// Tokens carried only by certain transfers. A round trip may be tagged
/// `Certain` only for such tokens: if any `May` transfer shares the
/// token, the dynamic FIFO pairing could resolve differently across
/// inputs.
fn stable_tokens(trace: &AbsTrace) -> BTreeMap<Tok, bool> {
    let mut stable: BTreeMap<Tok, bool> = BTreeMap::new();
    for f in &trace.facts {
        if let Some(tok) = f.tok {
            *stable.entry(tok).or_insert(true) &= f.certain;
        }
    }
    stable
}

/// The static-only half of the analysis: given the events behind one
/// finding instance the engine detected on the abstract trace, does the
/// instance provably occur in every execution? An event id that does
/// not resolve to an abstract op proves nothing.
struct CertaintyFold<'t> {
    trace: &'t AbsTrace,
    stable: BTreeMap<Tok, bool>,
}

impl CertaintyFold<'_> {
    fn certain(&self, e: &DataOpEvent) -> bool {
        self.trace.facts_of(e.id).is_some_and(|f| f.certain)
    }

    fn pair_certain(&self, p: &AllocDeletePair) -> bool {
        self.certain(&p.alloc) && p.delete.as_ref().is_none_or(|d| self.certain(d))
    }

    /// The certainty bit of one instance.
    fn judge(&self, evidence: &Evidence<'_>) -> bool {
        match *evidence {
            // A certain duplicate (or repeat) needs a certain *earlier*
            // member: the necessary first one must exist in every run.
            Evidence::Duplicate { earlier, event, .. } => {
                self.certain(event) && earlier.iter().any(|e| self.certain(e))
            }
            Evidence::RepeatedAlloc { earlier, pair } => {
                self.pair_certain(pair) && earlier.iter().any(|p| self.pair_certain(p))
            }
            Evidence::RoundTrip(_, trip) => {
                let stable = self
                    .trace
                    .facts_of(trip.tx.id)
                    .and_then(|f| f.tok)
                    .is_some_and(|tok| self.stable.get(&tok) == Some(&true));
                self.certain(&trip.tx) && self.certain(&trip.rx) && stable
            }
            Evidence::UnusedAlloc(pair) => self.pair_certain(pair),
            Evidence::UnusedTransfer(ut) => {
                let proof_certain = match ut.reason {
                    UnusedTransferReason::AfterLastKernel => true,
                    UnusedTransferReason::OverwrittenBeforeUse => {
                        self.overwriter_certain(&ut.event)
                    }
                };
                self.certain(&ut.event) && proof_certain
            }
        }
    }

    /// What overwrote `e` unused is the next H2D of the same variable
    /// (host address) to the same device; the proof holds in every run
    /// only if that transfer does.
    fn overwriter_certain(&self, e: &DataOpEvent) -> bool {
        let Some(at) = self.trace.op_index(e.id) else {
            return false;
        };
        let mut later = self.trace.ops.iter().zip(&self.trace.facts).skip(at + 1);
        later
            .find(|(o, _)| {
                o.is_host_to_device() && o.dest_device == e.dest_device && o.src_addr == e.src_addr
            })
            .is_some_and(|(_, f)| f.certain)
    }
}

/// Render a report as aligned text with site labels.
pub fn render_report(p: &MappingProgram, report: &StaticReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "static analysis: {}", report.program);
    if report.rows.is_empty() {
        let _ = writeln!(out, "  no predicted findings");
        return out;
    }
    for r in &report.rows {
        let tag = match r.certainty {
            Certainty::Certain => "certain",
            Certainty::MayDependOnData => "may    ",
        };
        let _ = writeln!(
            out,
            "  [{}] {} dev{:>2} @ {:<24} count {} (certain {}) bytes {}  vars: {}",
            tag,
            r.kind.code(),
            r.device,
            p.site_label(r.codeptr),
            r.count,
            r.certain_count,
            r.bytes,
            r.vars.join(", "),
        );
    }
    if report.warnings > 0 {
        let _ = writeln!(out, "  warnings: {}", report.warnings);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Init, KernelSpec, KernelWrite, MapClause, Step, TripCount, VarDecl, VarRef};

    fn two_var_prog(steps: Vec<Step>) -> MappingProgram {
        MappingProgram {
            name: "t".into(),
            num_devices: 1,
            vars: vec![
                VarDecl {
                    name: "a".into(),
                    bytes: 32,
                    init: Init::f64(1.5),
                },
                VarDecl {
                    name: "b".into(),
                    bytes: 32,
                    init: Init::f64(2.5),
                },
            ],
            steps,
            site_labels: std::collections::BTreeMap::new(),
        }
    }

    fn kernel_reading(v: VarRef) -> KernelSpec {
        KernelSpec {
            name: "k".into(),
            reads: vec![v],
            writes: vec![],
        }
    }

    #[test]
    fn static_loop_realloc_is_certain_dd_and_ra() {
        // for (3x) { target map(tofrom: a) read(a) } — re-sends identical
        // content and re-allocates each iteration.
        let p = two_var_prog(vec![Step::Loop {
            trip: TripCount::Static(3),
            body: vec![Step::Target {
                site: 0x10,
                device: 0,
                maps: vec![MapClause::tofrom(VarRef(0))],
                kernel: kernel_reading(VarRef(0)),
            }],
        }]);
        let r = analyze(&p);
        let dd = r
            .rows
            .iter()
            .find(|x| x.kind == FindingKind::DuplicateTransfer && x.device == 0)
            .expect("DD row");
        assert_eq!(dd.certainty, Certainty::Certain);
        assert_eq!(dd.count, 2);
        assert_eq!(dd.certain_count, 2);
        let ra = r
            .rows
            .iter()
            .find(|x| x.kind == FindingKind::RepeatedAlloc)
            .expect("RA row");
        assert_eq!(ra.count, 2);
        assert_eq!(ra.certainty, Certainty::Certain);
        // The unmodified data also round-trips: D2H returns what H2D sent.
        assert!(r.rows.iter().any(|x| x.kind == FindingKind::RoundTrip));
    }

    #[test]
    fn kernel_modified_data_does_not_round_trip() {
        let p = two_var_prog(vec![Step::Target {
            site: 0x10,
            device: 0,
            maps: vec![MapClause::tofrom(VarRef(0))],
            kernel: KernelSpec {
                name: "k".into(),
                reads: vec![VarRef(0)],
                writes: vec![KernelWrite::unique(VarRef(0))],
            },
        }]);
        let r = analyze(&p);
        assert!(!r.rows.iter().any(|x| x.kind == FindingKind::RoundTrip));
    }

    #[test]
    fn alloc_without_kernel_is_unused() {
        let p = two_var_prog(vec![Step::DataRegion {
            site: 0x10,
            device: 0,
            maps: vec![MapClause::alloc(VarRef(0))],
            body: vec![],
        }]);
        let r = analyze(&p);
        let ua = r
            .rows
            .iter()
            .find(|x| x.kind == FindingKind::UnusedAlloc)
            .expect("UA row");
        assert_eq!(ua.certainty, Certainty::Certain);
        assert_eq!(ua.count, 1);
    }

    #[test]
    fn update_after_last_kernel_is_unused_transfer() {
        let p = two_var_prog(vec![Step::DataRegion {
            site: 0x10,
            device: 0,
            maps: vec![MapClause::to(VarRef(0))],
            body: vec![
                Step::Target {
                    site: 0x20,
                    device: 0,
                    maps: vec![],
                    kernel: kernel_reading(VarRef(0)),
                },
                Step::HostWrite {
                    var: VarRef(0),
                    content: crate::ir::WriteContent::Byte(3),
                },
                Step::UpdateTo {
                    site: 0x30,
                    device: 0,
                    vars: vec![VarRef(0)],
                },
            ],
        }]);
        let r = analyze(&p);
        let ut = r
            .rows
            .iter()
            .find(|x| x.kind == FindingKind::UnusedTransfer)
            .expect("UT row");
        assert_eq!(ut.codeptr, 0x30);
        assert_eq!(ut.certainty, Certainty::Certain);
    }

    #[test]
    fn overwritten_transfer_is_certain_only_if_its_overwriter_is() {
        // target data map(to: a) { <update to(a)>; target read(a) } — the
        // region's H2D is overwritten by the update before any kernel.
        let region = |overwrite: Step| {
            two_var_prog(vec![Step::DataRegion {
                site: 0x10,
                device: 0,
                maps: vec![MapClause::to(VarRef(0))],
                body: vec![
                    overwrite,
                    Step::Target {
                        site: 0x30,
                        device: 0,
                        maps: vec![],
                        kernel: kernel_reading(VarRef(0)),
                    },
                ],
            }])
        };
        let update = Step::UpdateTo {
            site: 0x20,
            device: 0,
            vars: vec![VarRef(0)],
        };
        let ut_at_region = |p: &MappingProgram| {
            analyze(p)
                .rows
                .into_iter()
                .find(|x| x.kind == FindingKind::UnusedTransfer && x.codeptr == 0x10)
                .expect("UT row at the region")
        };
        let always = ut_at_region(&region(update.clone()));
        assert_eq!((always.count, always.certain_count), (1, 1));
        // The same update under a data-dependent loop: the region's H2D
        // is certain, what overwrites it is not.
        let sometimes = ut_at_region(&region(Step::Loop {
            trip: TripCount::DataDependent { executed: 2 },
            body: vec![update],
        }));
        assert_eq!((sometimes.count, sometimes.certain_count), (1, 0));
        assert_eq!(sometimes.certainty, Certainty::MayDependOnData);
    }

    #[test]
    fn data_dependent_loop_rows_are_may() {
        // bfs-shaped: transfers inside a data-dependent loop produce
        // findings, but none may claim certainty.
        let p = two_var_prog(vec![Step::Loop {
            trip: TripCount::DataDependent { executed: 2 },
            body: vec![Step::Target {
                site: 0x10,
                device: 0,
                maps: vec![MapClause::tofrom(VarRef(0))],
                kernel: kernel_reading(VarRef(0)),
            }],
        }]);
        let r = analyze(&p);
        assert!(!r.rows.is_empty());
        assert!(r.certain_rows().next().is_none(), "{:?}", r.rows);
    }
}
