//! `odp static` — the static analysis front end.
//!
//! `analyze` predicts the five inefficiency classes from the
//! declarative mapping IR without running the program; `crosscheck`
//! also runs the program under the tool (through `session::run`, like
//! `odp run`) and scores the predictions against the report's findings
//! (fails if any `Certain` prediction is refuted); `plan` emits
//! machine-readable directive rewrites from the `Certain` predictions
//! and validates them by applying and re-running (fails if the
//! rewritten program regresses). The workloads are
//! `odp_static::registry()`, the IR programs `odp run` also takes.

use crate::{fail, CmdResult, Out, Scale, Stop};
use odp_workloads::Workload;

fn usage(have: &str) -> String {
    format!(
        "\
Usage:
    odp static analyze <workload> [--size s|m|l] [--json]
    odp static crosscheck <workload> [--size s|m|l] [--json]
    odp static plan <workload> [--size s|m|l] [--json]

    workloads: {have}
                (the IR programs of `odp run`; an ir- prefix is optional)
    analyze     print Certain / MayDependOnData predictions per site
    crosscheck  score predictions against a run under the tool; exits 1
                if any Certain prediction is dynamically refuted
    plan        emit directive rewrites from Certain predictions and
                validate by re-running; exits 1 on apply failure or if
                the rewritten program has more findings than before (a
                plan that leaves unremediable findings in place exits 0)"
    )
}

/// `odp static analyze|crosscheck|plan <workload> [--size s|m|l] [--json]`.
pub(crate) fn execute(args: &[String], out: Out<'_>) -> CmdResult {
    let (verb, rest) = match args.split_first() {
        Some((verb, rest)) => (verb.as_str(), rest),
        None => ("", args),
    };
    let have: Vec<&str> = odp_static::registry().iter().map(|w| w.name()).collect();
    let have = have.join(", ");
    match verb {
        "-h" | "--help" => return Err(Stop::Exit(usage(&have))),
        "analyze" | "crosscheck" | "plan" => {}
        _ => {
            let usage = usage(&have);
            return fail(format!("static needs analyze|crosscheck|plan\n\n{usage}"));
        }
    }
    let mut workload: Option<&str> = None;
    let mut scale = Scale::default();
    let mut json = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => scale.set("--size", it.next())?,
            "--json" => json = true,
            name if workload.is_none() && !name.starts_with('-') => workload = Some(name),
            other => return fail(format!("unknown static option {other}")),
        }
    }
    let Some(name) = workload else {
        return fail(format!("static {verb} needs a workload: {have}"));
    };
    let Some(workload) = odp_static::by_name(name) else {
        return fail(format!("unknown workload '{name}' (have: {have})"));
    };
    let program = workload.program(scale.size);

    match verb {
        "analyze" => {
            let report = odp_static::analyze(program);
            if json {
                writeln!(out, "{}", report.to_json())?;
            } else {
                let text = odp_static::analysis::render_report(program, &report);
                write!(out, "{text}")?;
            }
        }
        "crosscheck" => {
            let (check, _report, run) = odp_static::crosscheck(program);
            if json {
                writeln!(out, "{}", check.to_json())?;
            } else {
                write!(out, "{}", check.render(program))?;
                for w in &run.warnings {
                    writeln!(out, "  runtime warning: {w:?}")?;
                }
            }
            if !check.summary.certain_precision_is_total() {
                return Err(Stop::Fail(format!(
                    "refuted: {} Certain prediction(s) not dynamically confirmed",
                    check.summary.certain_refuted
                )));
            }
        }
        _ => {
            let report = odp_static::analyze(program);
            let plan = odp_static::emit_plan(program, &report);
            let outcome = match odp_static::validate_plan(program, &plan) {
                Ok((outcome, _rewritten)) => outcome,
                Err(e) => return fail(format!("plan failed to apply: {e}")),
            };
            if json {
                writeln!(out, "{}", plan.to_json())?;
            } else {
                write!(out, "{}", plan.render())?;
            }
            writeln!(
                out,
                "validated: {} dynamic finding(s) before, {} after",
                outcome.before_total, outcome.after_total
            )?;
            if !outcome.non_increasing() {
                return Err(Stop::Fail("rewrite regressed the program".to_string()));
            }
        }
    }
    Ok(())
}
