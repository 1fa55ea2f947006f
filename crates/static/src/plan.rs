//! Patch-plan emitter: turn `Certain` static predictions into
//! machine-readable directive rewrites, apply them to the IR, and
//! validate the rewrite by re-running the dynamic engine.
//!
//! Every edit is conservative: it fires only when the analyzer proved
//! the finding occurs in every execution *and* the IR shows the rewrite
//! cannot change what the host observes (host images of the affected
//! variables are loop-invariant, kernels never write the downgraded
//! variable, …). `Certain` rows no rule covers are reported as
//! unremediable rather than guessed at — bfs's cross-variable duplicate
//! (two different variables whose first deliveries carry identical
//! bytes) is the canonical case.
//!
//! The edit shapes mirror the source-level remediations of §7.5 and
//! SNIPPETS.md's Mem5 split:
//!
//! - [`RewriteAction::HoistRegionOutOfLoop`] — a `target data` region
//!   re-opened every iteration becomes `enter data` before the loop +
//!   `exit data` after it.
//! - [`RewriteAction::SplitMapToEnterExit`] — a per-iteration
//!   `map(from: x)` on a `target` becomes `enter data map(alloc: x)` +
//!   deferred `exit data map(from: x)`.
//! - [`RewriteAction::DowngradeToFromToTo`] — `map(tofrom: x)` on data
//!   kernels never modify becomes `map(to: x)` (kills the round trip).
//! - [`RewriteAction::DowngradeToToAlloc`] — `map(to: x)` on data
//!   kernels never read becomes `map(alloc: x)` (kills the unused
//!   transfer).
//! - [`RewriteAction::DropClause`] — a mapping no kernel can use is
//!   removed outright.

use crate::analysis::{Certainty, StaticPrediction, StaticReport};
use crate::ir::{render_map, walk, MapClause, MappingProgram, Step, VarRef};
use crate::lower::run_under_tool;
use odp_model::MapType;
use ompdataperf::fleet::FindingKind;
use serde::Serialize;
use std::collections::BTreeSet;

/// The rewrite shapes the emitter can propose.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RewriteAction {
    /// Replace a per-iteration `target data` region with `enter data`
    /// before the enclosing loop and `exit data` after it.
    HoistRegionOutOfLoop,
    /// Replace a per-iteration map clause on a `target` with
    /// `enter data map(alloc:)` before the loop, `map(alloc:)` on the
    /// target, and a deferred `exit data` after the loop.
    SplitMapToEnterExit,
    /// `map(tofrom: x)` → `map(to: x)`.
    DowngradeToFromToTo,
    /// `map(to: x)` → `map(alloc: x)` (or `tofrom` → `from`).
    DowngradeToToAlloc,
    /// Remove the clause.
    DropClause,
}

/// One machine-readable directive rewrite.
#[derive(Clone, Debug, Serialize)]
pub struct PatchEdit {
    /// The rewrite shape.
    pub action: RewriteAction,
    /// Site of the directive being rewritten.
    pub site: u64,
    /// Its human-readable label.
    pub site_label: String,
    /// Variables the edit touches, by name.
    pub vars: Vec<String>,
    /// The clause list (or clause) as it reads today.
    pub directive_before: String,
    /// What it becomes.
    pub directive_after: String,
    /// Why the edit is sound, citing the evidence.
    pub reason: String,
}

/// A full plan: ordered edits plus the `Certain` rows no rule covers.
#[derive(Clone, Debug, Serialize)]
pub struct PatchPlan {
    /// Program name.
    pub program: String,
    /// Edits in application order.
    pub edits: Vec<PatchEdit>,
    /// `Certain` findings with no safe rewrite, explained.
    pub unremediable: Vec<String>,
}

impl PatchPlan {
    /// Deterministic pretty-JSON rendering.
    pub fn to_json(&self) -> String {
        // Plain serializable data; cannot fail.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("plan serialization cannot fail")
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "patch plan: {}", self.program);
        if self.edits.is_empty() {
            let _ = writeln!(out, "  no edits proposed");
        }
        for (i, e) in self.edits.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {}. [{:?}] at {} ({})",
                i + 1,
                e.action,
                e.site_label,
                e.vars.join(", ")
            );
            let _ = writeln!(out, "     before: {}", e.directive_before);
            let _ = writeln!(out, "     after:  {}", e.directive_after);
            let _ = writeln!(out, "     why:    {}", e.reason);
        }
        for u in &self.unremediable {
            let _ = writeln!(out, "  unremediable: {u}");
        }
        out
    }
}

// ---------------------------------------------------------------------
// IR queries the rules need
// ---------------------------------------------------------------------

/// Variables whose *host* image can change inside `steps` (host writes
/// and device→host updates; `from`/`tofrom` exits write the host too).
///
/// `enclosed` holds variables mapped by enclosing `target data` regions:
/// those are present with a live reference, so a nested directive's
/// non-`always` `from`/`tofrom` exit (explicit or implicit) only drops a
/// refcount and copies nothing back.
fn host_mutated_vars(steps: &[Step], enclosed: &BTreeSet<usize>, out: &mut BTreeSet<usize>) {
    for s in steps {
        match s {
            Step::HostWrite { var, .. } => {
                out.insert(var.0);
            }
            Step::UpdateFrom { vars, .. } => {
                out.extend(vars.iter().map(|v| v.0));
            }
            Step::DataRegion { maps, body, .. } => {
                out.extend(
                    maps.iter()
                        .filter(|m| {
                            m.map_type.copies_from_device()
                                && (m.always || !enclosed.contains(&m.var.0))
                        })
                        .map(|m| m.var.0),
                );
                let mut inner = enclosed.clone();
                inner.extend(maps.iter().map(|m| m.var.0));
                host_mutated_vars(body, &inner, out);
            }
            Step::ExitData { maps, .. } => {
                // An exit data can drop the last reference regardless of
                // enclosing regions; stay conservative.
                out.extend(
                    maps.iter()
                        .filter(|m| m.map_type.copies_from_device())
                        .map(|m| m.var.0),
                );
            }
            Step::Target { maps, kernel, .. } => {
                // Implicit tofrom exits write the host for referenced-
                // but-unmapped variables; explicit from/tofrom too —
                // unless an enclosing region keeps the data present.
                out.extend(
                    maps.iter()
                        .filter(|m| {
                            m.map_type.copies_from_device()
                                && (m.always || !enclosed.contains(&m.var.0))
                        })
                        .map(|m| m.var.0),
                );
                for v in kernel.referenced() {
                    if !maps.iter().any(|m| m.var == v) && !enclosed.contains(&v.0) {
                        out.insert(v.0);
                    }
                }
            }
            Step::Loop { body, .. } => host_mutated_vars(body, enclosed, out),
            Step::EnterData { .. } | Step::UpdateTo { .. } => {}
        }
    }
}

/// Variables any kernel in `steps` writes.
fn kernel_written_vars(steps: &[Step], out: &mut BTreeSet<usize>) {
    for s in walk(steps) {
        if let Step::Target { kernel, .. } = s {
            out.extend(kernel.writes.iter().map(|w| w.var.0));
        }
    }
}

/// Variables any kernel in `steps` reads.
fn kernel_read_vars(steps: &[Step], out: &mut BTreeSet<usize>) {
    for s in walk(steps) {
        if let Step::Target { kernel, .. } = s {
            out.extend(kernel.reads.iter().map(|v| v.0));
        }
    }
}

/// Does any directive in `steps` other than site `except` map or update
/// variable `v`?
fn mapped_elsewhere(steps: &[Step], v: usize, except: u64) -> bool {
    walk(steps)
        .filter(|s| s.site() != Some(except))
        .any(|s| match s {
            Step::DataRegion { maps, .. }
            | Step::EnterData { maps, .. }
            | Step::ExitData { maps, .. } => maps.iter().any(|m| m.var.0 == v),
            Step::UpdateTo { vars, .. } | Step::UpdateFrom { vars, .. } => {
                vars.iter().any(|x| x.0 == v)
            }
            Step::Target { maps, kernel, .. } => {
                maps.iter().any(|m| m.var.0 == v) || kernel.referenced().iter().any(|x| x.0 == v)
            }
            Step::HostWrite { .. } | Step::Loop { .. } => false,
        })
}

fn certain_at(report: &StaticReport, site: u64, kind: FindingKind) -> Option<&StaticPrediction> {
    report
        .rows
        .iter()
        .find(|r| r.codeptr == site && r.kind == kind && r.certainty == Certainty::Certain)
}

// ---------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------

/// Emit a patch plan from `Certain` predictions over `p`.
pub fn emit_plan(p: &MappingProgram, report: &StaticReport) -> PatchPlan {
    let mut edits: Vec<PatchEdit> = Vec::new();
    let mut covered: BTreeSet<u64> = BTreeSet::new();

    emit_loop_rules(
        p,
        &p.steps,
        &BTreeSet::new(),
        report,
        &mut edits,
        &mut covered,
    );
    emit_clause_rules(p, &p.steps, report, &mut edits, &mut covered);

    edits.sort_by_key(|a| (a.site, a.vars.clone()));
    let unremediable = report
        .certain_rows()
        .filter(|r| !covered.contains(&r.codeptr))
        .map(|r| {
            format!(
                "{} at {} dev{} ({}): no safe rewrite — e.g. byte-identical first deliveries \
                 of distinct variables, or a pattern outside the rule set",
                r.kind.code(),
                p.site_label(r.codeptr),
                r.device,
                r.vars.join(", "),
            )
        })
        .collect();
    PatchPlan {
        program: p.name.clone(),
        edits,
        unremediable,
    }
}

/// Rules that need an enclosing loop: hoist and split.
fn emit_loop_rules(
    p: &MappingProgram,
    steps: &[Step],
    enclosed: &BTreeSet<usize>,
    report: &StaticReport,
    edits: &mut Vec<PatchEdit>,
    covered: &mut BTreeSet<u64>,
) {
    for s in steps {
        match s {
            Step::Loop { body, .. } => {
                let mut loop_host_mut = BTreeSet::new();
                host_mutated_vars(body, enclosed, &mut loop_host_mut);
                for inner in body.iter() {
                    if let Step::DataRegion { site, maps, .. } = inner {
                        try_hoist(p, *site, maps, &loop_host_mut, report, edits, covered);
                    }
                }
                // Split applies to targets anywhere under the loop.
                try_splits(p, body, enclosed, body, report, edits, covered);
                // Nested loops inside this one still get their own shot.
                emit_loop_rules(p, body, enclosed, report, edits, covered);
            }
            Step::DataRegion { maps, body, .. } => {
                let mut inner = enclosed.clone();
                inner.extend(maps.iter().map(|m| m.var.0));
                emit_loop_rules(p, body, &inner, report, edits, covered);
            }
            _ => {}
        }
    }
}

fn try_hoist(
    p: &MappingProgram,
    site: u64,
    maps: &[MapClause],
    loop_host_mut: &BTreeSet<usize>,
    report: &StaticReport,
    edits: &mut Vec<PatchEdit>,
    covered: &mut BTreeSet<u64>,
) {
    let dd = certain_at(report, site, FindingKind::DuplicateTransfer);
    let ra = certain_at(report, site, FindingKind::RepeatedAlloc);
    if dd.is_none() && ra.is_none() {
        return;
    }
    // Only enter-only clause lists hoist cleanly (no `from` side to
    // defer), and the host images must be loop-invariant so later
    // iterations would have re-sent the same bytes anyway.
    let enter_only = maps
        .iter()
        .all(|m| matches!(m.map_type, MapType::To | MapType::Alloc) && !m.always);
    let host_stable = maps.iter().all(|m| !loop_host_mut.contains(&m.var.0));
    if !enter_only || !host_stable {
        return;
    }
    let before = crate::ir::render_maps(p, maps);
    let release: Vec<String> = maps
        .iter()
        .map(|m| format!("map(release: {})", p.var_name(m.var)))
        .collect();
    let mut evidence = Vec::new();
    if let Some(r) = dd {
        evidence.push(format!("{} certain duplicate transfers", r.certain_count));
    }
    if let Some(r) = ra {
        evidence.push(format!("{} certain repeated allocations", r.certain_count));
    }
    edits.push(PatchEdit {
        action: RewriteAction::HoistRegionOutOfLoop,
        site,
        site_label: p.site_label(site),
        vars: maps.iter().map(|m| p.var_name(m.var).to_string()).collect(),
        directive_before: format!("per-iteration target data {before}"),
        directive_after: format!(
            "enter data {before} before the loop; {} after it",
            release.join(" ")
        ),
        reason: format!(
            "{}; host images are loop-invariant, so every re-mapping re-sent identical bytes \
             (device copies persist across iterations after the rewrite)",
            evidence.join(", ")
        ),
    });
    covered.insert(site);
}

fn try_splits(
    p: &MappingProgram,
    loop_body: &[Step],
    enclosed: &BTreeSet<usize>,
    steps: &[Step],
    report: &StaticReport,
    edits: &mut Vec<PatchEdit>,
    covered: &mut BTreeSet<u64>,
) {
    let mut loop_host_mut = BTreeSet::new();
    host_mutated_vars(loop_body, enclosed, &mut loop_host_mut);
    for s in steps {
        match s {
            Step::Target { site, maps, .. } => {
                let Some(ra) = certain_at(report, *site, FindingKind::RepeatedAlloc) else {
                    continue;
                };
                for m in maps {
                    let vname = p.var_name(m.var);
                    if !ra.vars.iter().any(|x| x == vname) {
                        continue;
                    }
                    // Sound when nothing else maps the variable and no
                    // host code inside the loop needs the per-iteration
                    // copy-back.
                    if mapped_elsewhere(&p.steps, m.var.0, *site)
                        || loop_host_mut.contains(&m.var.0) && m.map_type.copies_to_device()
                    {
                        continue;
                    }
                    let enter = if m.map_type.copies_to_device() {
                        "to"
                    } else {
                        "alloc"
                    };
                    let exit = if m.map_type.copies_from_device() {
                        "from"
                    } else {
                        "release"
                    };
                    edits.push(PatchEdit {
                        action: RewriteAction::SplitMapToEnterExit,
                        site: *site,
                        site_label: p.site_label(*site),
                        vars: vec![vname.to_string()],
                        directive_before: format!("per-iteration {}", render_map(p, m)),
                        directive_after: format!(
                            "enter data map({enter}: {vname}) before the loop; \
                             map(alloc: {vname}) on the target; \
                             exit data map({exit}: {vname}) after the loop"
                        ),
                        reason: format!(
                            "{} certain repeated allocations of {vname}; no other directive \
                             maps it, so allocation and copy-back defer to the loop boundary \
                             (Mem5 split)",
                            ra.certain_count
                        ),
                    });
                    covered.insert(*site);
                }
            }
            Step::DataRegion { body, .. } => {
                try_splits(p, loop_body, enclosed, body, report, edits, covered)
            }
            // Nested loops are handled by their own emit_loop_rules pass.
            _ => {}
        }
    }
}

/// Clause-local rules: round-trip and unused-transfer downgrades, dead
/// clause removal.
fn emit_clause_rules(
    p: &MappingProgram,
    steps: &[Step],
    report: &StaticReport,
    edits: &mut Vec<PatchEdit>,
    covered: &mut BTreeSet<u64>,
) {
    let mut written = BTreeSet::new();
    kernel_written_vars(&p.steps, &mut written);
    let mut read = BTreeSet::new();
    kernel_read_vars(&p.steps, &mut read);
    for s in steps {
        let (site, maps, body): (u64, &[MapClause], &[Step]) = match s {
            Step::Target { site, maps, .. } => (*site, maps, &[]),
            Step::DataRegion {
                site, maps, body, ..
            } => (*site, maps, body),
            Step::Loop { body, .. } => {
                emit_clause_rules(p, body, report, edits, covered);
                continue;
            }
            _ => continue,
        };
        for m in maps {
            let vname = p.var_name(m.var).to_string();
            // RT: tofrom on data no kernel modifies → to.
            if m.map_type == MapType::ToFrom && !written.contains(&m.var.0) {
                if let Some(rt) = certain_at(report, site, FindingKind::RoundTrip) {
                    if rt.vars.contains(&vname) {
                        edits.push(PatchEdit {
                            action: RewriteAction::DowngradeToFromToTo,
                            site,
                            site_label: p.site_label(site),
                            vars: vec![vname.clone()],
                            directive_before: render_map(p, m),
                            directive_after: format!("map(to: {vname})"),
                            reason: format!(
                                "{} certain round trips: no kernel ever writes {vname}, so \
                                 the copy-back returns the bytes the host already holds",
                                rt.certain_count
                            ),
                        });
                        covered.insert(site);
                        continue;
                    }
                }
            }
            // UT: to/tofrom on data no kernel reads → alloc/from.
            if m.map_type.copies_to_device() && !read.contains(&m.var.0) {
                if let Some(ut) = certain_at(report, site, FindingKind::UnusedTransfer) {
                    if ut.vars.contains(&vname) {
                        let after = if m.map_type == MapType::ToFrom {
                            format!("map(from: {vname})")
                        } else {
                            format!("map(alloc: {vname})")
                        };
                        edits.push(PatchEdit {
                            action: RewriteAction::DowngradeToToAlloc,
                            site,
                            site_label: p.site_label(site),
                            vars: vec![vname.clone()],
                            directive_before: render_map(p, m),
                            directive_after: after,
                            reason: format!(
                                "{} certain unused transfers: no kernel ever reads {vname}",
                                ut.certain_count
                            ),
                        });
                        covered.insert(site);
                        continue;
                    }
                }
            }
            // UA: a mapping no kernel references at all → drop it.
            if !read.contains(&m.var.0) && !written.contains(&m.var.0) {
                if let Some(ua) = certain_at(report, site, FindingKind::UnusedAlloc) {
                    if ua.vars.contains(&vname) {
                        edits.push(PatchEdit {
                            action: RewriteAction::DropClause,
                            site,
                            site_label: p.site_label(site),
                            vars: vec![vname.clone()],
                            directive_before: render_map(p, m),
                            directive_after: "(clause removed)".into(),
                            reason: format!(
                                "{} certain unused allocations: no kernel references {vname}",
                                ua.certain_count
                            ),
                        });
                        covered.insert(site);
                    }
                }
            }
        }
        emit_clause_rules(p, body, report, edits, covered);
    }
}

// ---------------------------------------------------------------------
// Application
// ---------------------------------------------------------------------

/// Apply `plan` to `p`, producing the rewritten program. The result is
/// re-validated structurally; fails if an edit no longer matches the
/// IR (stale plan).
pub(crate) fn apply_plan(p: &MappingProgram, plan: &PatchPlan) -> Result<MappingProgram, String> {
    let mut out = p.clone();
    let mut next_site = max_site(&out.steps).wrapping_add(1);
    for e in &plan.edits {
        apply_edit(&mut out, e, &mut next_site)?;
    }
    out.validate()?;
    Ok(out)
}

fn max_site(steps: &[Step]) -> u64 {
    walk(steps).filter_map(Step::site).max().unwrap_or(0)
}

fn var_by_name(p: &MappingProgram, name: &str) -> Result<VarRef, String> {
    p.vars
        .iter()
        .position(|v| v.name == name)
        .map(VarRef)
        .ok_or_else(|| format!("plan names unknown variable '{name}'"))
}

fn apply_edit(p: &mut MappingProgram, e: &PatchEdit, next_site: &mut u64) -> Result<(), String> {
    match e.action {
        RewriteAction::HoistRegionOutOfLoop => hoist(p, e, next_site),
        RewriteAction::SplitMapToEnterExit => split(p, e, next_site),
        RewriteAction::DowngradeToFromToTo => retype(p, e, |t| match t {
            MapType::ToFrom => Some(MapType::To),
            _ => None,
        }),
        RewriteAction::DowngradeToToAlloc => retype(p, e, |t| match t {
            MapType::To => Some(MapType::Alloc),
            MapType::ToFrom => Some(MapType::From),
            _ => None,
        }),
        RewriteAction::DropClause => {
            let var = var_by_name(p, e.vars.first().map(String::as_str).unwrap_or_default())?;
            let mut dropped = false;
            edit_maps_at(&mut p.steps, e.site, &mut |maps| {
                let before = maps.len();
                maps.retain(|m| m.var != var);
                dropped = maps.len() != before;
            });
            if dropped {
                Ok(())
            } else {
                Err(format!("no clause for {:?} at site {:#x}", e.vars, e.site))
            }
        }
    }
}

fn retype(
    p: &mut MappingProgram,
    e: &PatchEdit,
    f: impl Fn(MapType) -> Option<MapType>,
) -> Result<(), String> {
    let var = var_by_name(p, e.vars.first().map(String::as_str).unwrap_or_default())?;
    let mut changed = false;
    edit_maps_at(&mut p.steps, e.site, &mut |maps| {
        for m in maps.iter_mut() {
            if m.var == var {
                if let Some(t) = f(m.map_type) {
                    m.map_type = t;
                    changed = true;
                }
            }
        }
    });
    if changed {
        Ok(())
    } else {
        Err(format!(
            "no retypeable clause for {:?} at site {:#x}",
            e.vars, e.site
        ))
    }
}

/// Run `f` on the clause list of the directive at `site`, wherever it
/// sits in the tree.
fn edit_maps_at(steps: &mut [Step], site: u64, f: &mut impl FnMut(&mut Vec<MapClause>)) {
    for s in steps {
        match s {
            Step::DataRegion {
                site: st,
                maps,
                body,
                ..
            } => {
                if *st == site {
                    f(maps);
                }
                edit_maps_at(body, site, f);
            }
            Step::EnterData { site: st, maps, .. }
            | Step::ExitData { site: st, maps, .. }
            | Step::Target { site: st, maps, .. }
                if *st == site =>
            {
                f(maps);
            }
            Step::Loop { body, .. } => edit_maps_at(body, site, f),
            _ => {}
        }
    }
}

/// Does the subtree contain a directive at `site`?
fn contains_site(steps: &[Step], site: u64) -> bool {
    walk(steps).any(|s| s.site() == Some(site))
}

fn hoist(p: &mut MappingProgram, e: &PatchEdit, next_site: &mut u64) -> Result<(), String> {
    let label = p.site_label(e.site);
    let (steps, done) = hoist_in(std::mem::take(&mut p.steps), e.site, next_site, &label, p);
    p.steps = steps;
    if done {
        Ok(())
    } else {
        Err(format!(
            "no loop-nested region at site {:#x} to hoist",
            e.site
        ))
    }
}

fn hoist_in(
    steps: Vec<Step>,
    site: u64,
    next_site: &mut u64,
    label: &str,
    p: &mut MappingProgram,
) -> (Vec<Step>, bool) {
    let mut out = Vec::with_capacity(steps.len());
    let mut done = false;
    for s in steps {
        if done {
            out.push(s);
            continue;
        }
        match s {
            Step::Loop { trip, body } if contains_site(&body, site) => {
                // The region must sit directly in this loop's body.
                let direct = body
                    .iter()
                    .any(|x| matches!(x, Step::DataRegion { site: st, .. } if *st == site));
                if !direct {
                    let (nb, d) = hoist_in(body, site, next_site, label, p);
                    done = d;
                    out.push(Step::Loop { trip, body: nb });
                    continue;
                }
                let mut region_maps = Vec::new();
                let mut region_device = 0;
                let new_body: Vec<Step> = body
                    .into_iter()
                    .flat_map(|x| match x {
                        Step::DataRegion {
                            site: st,
                            device,
                            maps,
                            body: inner,
                        } if st == site => {
                            region_maps = maps;
                            region_device = device;
                            inner
                        }
                        other => vec![other],
                    })
                    .collect();
                let enter_site = *next_site;
                let exit_site = *next_site + 1;
                *next_site += 2;
                p.site_labels
                    .insert(enter_site, format!("hoisted_enter({label})"));
                p.site_labels
                    .insert(exit_site, format!("hoisted_exit({label})"));
                out.push(Step::EnterData {
                    site: enter_site,
                    device: region_device,
                    maps: region_maps.clone(),
                });
                out.push(Step::Loop {
                    trip,
                    body: new_body,
                });
                out.push(Step::ExitData {
                    site: exit_site,
                    device: region_device,
                    maps: region_maps
                        .iter()
                        .map(|m| MapClause::release(m.var))
                        .collect(),
                });
                done = true;
            }
            Step::Loop { trip, body } => out.push(Step::Loop { trip, body }),
            Step::DataRegion {
                site: st,
                device,
                maps,
                body,
            } => {
                let (nb, d) = hoist_in(body, site, next_site, label, p);
                done = d;
                out.push(Step::DataRegion {
                    site: st,
                    device,
                    maps,
                    body: nb,
                });
            }
            other => out.push(other),
        }
    }
    (out, done)
}

fn split(p: &mut MappingProgram, e: &PatchEdit, next_site: &mut u64) -> Result<(), String> {
    let var = var_by_name(p, e.vars.first().map(String::as_str).unwrap_or_default())?;
    // Find the clause's map type, then retype it to alloc on the target.
    let mut entry_type = None;
    edit_maps_at(&mut p.steps, e.site, &mut |maps| {
        for m in maps.iter_mut() {
            if m.var == var {
                entry_type = Some(m.map_type);
                m.map_type = MapType::Alloc;
            }
        }
    });
    let Some(orig) = entry_type else {
        return Err(format!("no clause for {:?} at site {:#x}", e.vars, e.site));
    };
    let enter_type = if orig.copies_to_device() {
        MapType::To
    } else {
        MapType::Alloc
    };
    let exit_type = if orig.copies_from_device() {
        MapType::From
    } else {
        MapType::Release
    };
    let label = p.site_label(e.site);
    let enter_site = *next_site;
    let exit_site = *next_site + 1;
    *next_site += 2;
    p.site_labels
        .insert(enter_site, format!("split_enter({label})"));
    p.site_labels
        .insert(exit_site, format!("split_exit({label})"));
    let device = device_of_site(&p.steps, e.site).unwrap_or(0);
    let (steps, done) = wrap_outermost_loop(
        std::mem::take(&mut p.steps),
        e.site,
        Step::EnterData {
            site: enter_site,
            device,
            maps: vec![MapClause {
                var,
                map_type: enter_type,
                always: false,
            }],
        },
        Step::ExitData {
            site: exit_site,
            device,
            maps: vec![MapClause {
                var,
                map_type: exit_type,
                always: false,
            }],
        },
    );
    p.steps = steps;
    if done {
        Ok(())
    } else {
        Err(format!(
            "site {:#x} is not inside a loop; cannot split",
            e.site
        ))
    }
}

fn device_of_site(steps: &[Step], site: u64) -> Option<u32> {
    walk(steps)
        .find(|s| s.site() == Some(site))
        .and_then(Step::device)
}

/// Insert `before`/`after` around the outermost loop containing `site`.
fn wrap_outermost_loop(
    steps: Vec<Step>,
    site: u64,
    before: Step,
    after: Step,
) -> (Vec<Step>, bool) {
    let mut out = Vec::with_capacity(steps.len());
    let mut done = false;
    for s in steps {
        if done {
            out.push(s);
            continue;
        }
        match s {
            Step::Loop { trip, body } if contains_site(&body, site) => {
                out.push(before.clone());
                out.push(Step::Loop { trip, body });
                out.push(after.clone());
                done = true;
            }
            Step::DataRegion {
                site: st,
                device,
                maps,
                body,
            } => {
                let (nb, d) = wrap_outermost_loop(body, site, before.clone(), after.clone());
                done = d;
                out.push(Step::DataRegion {
                    site: st,
                    device,
                    maps,
                    body: nb,
                });
            }
            other => out.push(other),
        }
    }
    (out, done)
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// The before/after dynamic totals of an applied plan.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PlanOutcome {
    /// Dynamic finding instances before the rewrite.
    pub before_total: u64,
    /// After it.
    pub after_total: u64,
}

impl PlanOutcome {
    /// Did the rewrite eliminate every finding?
    pub fn zero_after(&self) -> bool {
        self.after_total == 0
    }

    /// Did it at least not regress?
    pub fn non_increasing(&self) -> bool {
        self.after_total <= self.before_total
    }
}

/// Apply `plan` to `p`, run both versions under the tool, and compare
/// the dynamic totals. Returns the outcome and the rewritten program.
pub fn validate_plan(
    p: &MappingProgram,
    plan: &PatchPlan,
) -> Result<(PlanOutcome, MappingProgram), String> {
    let rewritten = apply_plan(p, plan)?;
    let total = |p: &MappingProgram| run_under_tool(p).report.counts.total() as u64;
    Ok((
        PlanOutcome {
            before_total: total(p),
            after_total: total(&rewritten),
        },
        rewritten,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::ir::{Init, KernelSpec, MappingProgram, Step, TripCount, VarDecl};
    use crate::programs::{babelstream, bfs, xsbench};
    use std::collections::BTreeMap;

    #[test]
    fn babelstream_plan_drops_findings_to_zero() {
        let p = babelstream(4, 32);
        let report = analyze(&p);
        let plan = emit_plan(&p, &report);
        assert!(
            plan.edits
                .iter()
                .any(|e| e.action == RewriteAction::HoistRegionOutOfLoop),
            "{}",
            plan.render()
        );
        assert!(
            plan.edits
                .iter()
                .any(|e| e.action == RewriteAction::SplitMapToEnterExit),
            "{}",
            plan.render()
        );
        let (outcome, rewritten) = validate_plan(&p, &plan).expect("plan applies");
        assert!(outcome.before_total > 0);
        assert!(outcome.zero_after(), "{outcome:?}\n{}", plan.render());
        // The rewritten program is also statically clean.
        let after = analyze(&rewritten);
        assert!(after.rows.is_empty(), "{after:?}");
    }

    #[test]
    fn xsbench_plan_downgrades_tofrom_and_zeroes() {
        let p = xsbench(64);
        let report = analyze(&p);
        let plan = emit_plan(&p, &report);
        let downgrades: Vec<_> = plan
            .edits
            .iter()
            .filter(|e| e.action == RewriteAction::DowngradeToFromToTo)
            .collect();
        assert_eq!(downgrades.len(), 2, "{}", plan.render());
        let (outcome, _) = validate_plan(&p, &plan).expect("plan applies");
        assert!(outcome.zero_after(), "{outcome:?}");
    }

    #[test]
    fn bfs_certain_cross_var_duplicate_is_unremediable_and_plan_non_increasing() {
        let p = bfs(16, 3);
        let report = analyze(&p);
        let plan = emit_plan(&p, &report);
        assert!(!plan.unremediable.is_empty(), "{}", plan.render());
        let (outcome, _) = validate_plan(&p, &plan).expect("plan applies");
        assert!(outcome.non_increasing(), "{outcome:?}");
    }

    #[test]
    fn dead_alloc_clause_is_dropped() {
        let p = MappingProgram {
            name: "dead".into(),
            num_devices: 1,
            vars: vec![
                VarDecl {
                    name: "x".into(),
                    bytes: 16,
                    init: Init::Byte(1),
                },
                VarDecl {
                    name: "y".into(),
                    bytes: 16,
                    init: Init::Byte(2),
                },
            ],
            steps: vec![
                Step::DataRegion {
                    site: 1,
                    device: 0,
                    maps: vec![MapClause::alloc(VarRef(1))],
                    body: vec![],
                },
                Step::Target {
                    site: 2,
                    device: 0,
                    maps: vec![],
                    kernel: KernelSpec {
                        name: "k".into(),
                        reads: vec![VarRef(0)],
                        writes: vec![crate::ir::KernelWrite::unique(VarRef(0))],
                    },
                },
            ],
            site_labels: BTreeMap::new(),
        };
        let report = analyze(&p);
        let plan = emit_plan(&p, &report);
        assert!(
            plan.edits
                .iter()
                .any(|e| e.action == RewriteAction::DropClause),
            "{}",
            plan.render()
        );
        let (outcome, _) = validate_plan(&p, &plan).expect("plan applies");
        assert_eq!(outcome.before_total, 1, "{outcome:?}");
        assert!(outcome.zero_after(), "{outcome:?}");
    }

    #[test]
    fn stale_plan_fails_to_apply() {
        let p = xsbench(64);
        let report = analyze(&p);
        let plan = emit_plan(&p, &report);
        let other = bfs(16, 3);
        assert!(apply_plan(&other, &plan).is_err());
    }

    #[test]
    fn unused_loop_trip_is_static_shape() {
        // Loop-free program: no loop rules fire, plan may be empty but
        // must not error.
        let p = MappingProgram {
            name: "flat".into(),
            num_devices: 1,
            vars: vec![VarDecl {
                name: "x".into(),
                bytes: 16,
                init: Init::Byte(1),
            }],
            steps: vec![Step::Loop {
                trip: TripCount::Static(1),
                body: vec![Step::Target {
                    site: 7,
                    device: 0,
                    maps: vec![],
                    kernel: KernelSpec {
                        name: "k".into(),
                        reads: vec![VarRef(0)],
                        writes: vec![],
                    },
                }],
            }],
            site_labels: BTreeMap::new(),
        };
        let report = analyze(&p);
        let plan = emit_plan(&p, &report);
        let (outcome, _) = validate_plan(&p, &plan).expect("plan applies");
        assert!(outcome.non_increasing());
    }
}
