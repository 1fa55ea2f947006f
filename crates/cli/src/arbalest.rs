//! `odp arbalest` — the Arbalest-Vec correctness checker, the §7.7
//! comparison baseline, runnable on the same workloads.
//!
//! ```sh
//! odp arbalest bspline-vgh-omp --size m
//! odp arbalest bfs --threads 4          # one collector shard per thread
//! ```

use crate::{check_threads, fail, number, workload, CmdResult, Out, Scale, Stop};
use odp_arbalest::{AnomalyKind, ArbalestReport, ArbalestVecTool};
use odp_model::SimDuration;
use odp_sim::RuntimeStats;
use odp_workloads::{session, Workload};

const USAGE: &str = "\
Usage: odp arbalest [options] <program>
Options:
  -h, --help        Show this help message
  -q, --quiet       Suppress the false-positive note
  --size s|m|l      Problem size (default: s)
  --variant NAME    original|fixed|synthetic (default: original)
  --threads N       Drive the workload from N OS threads (one collector shard each)";

/// Run `w` under the Arbalest-Vec collector, one shard per thread. The
/// collector keys its state per forked shard: one thread's deletes
/// never poison another thread's same-address mappings.
pub(crate) fn check(
    w: &dyn Workload,
    scale: Scale,
    threads: u32,
) -> (ArbalestReport, RuntimeStats) {
    let (tool, handle) = ArbalestVecTool::new();
    let stats = session::run_under(w, scale.size, scale.variant, threads, tool, || {
        handle.fork_tool()
    });
    (handle.report(), stats)
}

/// `odp arbalest <program> [options]`.
pub(crate) fn execute(args: &[String], out: Out<'_>) -> CmdResult {
    let mut program: Option<&str> = None;
    let mut scale = Scale::default();
    let mut threads = 1u32;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(Stop::Exit(USAGE.to_string())),
            "-q" | "--quiet" => quiet = true,
            flag @ ("--size" | "--variant") => scale.set(flag, it.next())?,
            "--threads" => threads = number(&mut it, 1, "--threads needs a value >= 1")?,
            other if other.starts_with('-') => {
                return fail(format!("unknown option {other}\n\n{USAGE}"))
            }
            // Further positional args would be the program's own.
            name => program = program.or(Some(name)),
        }
    }
    let Some(program) = program else {
        return fail(format!("no program given\n\n{USAGE}"));
    };
    let workload = workload(program)?;
    check_threads(&*workload, threads)?;

    let (report, stats) = check(&*workload, scale, threads);
    writeln!(out, "=== Arbalest-Vec Data Mapping Correctness Report ===")?;
    writeln!(out, "program        : {}", workload.name())?;
    writeln!(out, "anomaly classes: {}", report.summary())?;
    for kind in [
        AnomalyKind::Uum,
        AnomalyKind::Usd,
        AnomalyKind::Uaf,
        AnomalyKind::Bo,
    ] {
        for a in report.of_kind(kind) {
            writeln!(
                out,
                "  {}: variable at host address 0x{:012x} ({} bytes) on {}, first at {}",
                kind.abbrev(),
                a.host_addr,
                a.bytes,
                a.device,
                SimDuration(a.time.as_nanos())
            )?;
        }
    }
    writeln!(
        out,
        "native runtime {}, instrumented estimate ~{} (x{} slowdown, §8)",
        stats.total_time,
        SimDuration((stats.total_time.as_nanos() as f64 * ArbalestReport::NOMINAL_SLOWDOWN) as u64),
        ArbalestReport::NOMINAL_SLOWDOWN
    )?;
    if !quiet && report.count(AnomalyKind::Uum) > 0 {
        writeln!(
            out,
            "note: UUM reports on write-only kernel outputs are known false \
             positives of the conservative masked-store analysis (§7.7)."
        )?;
    }
    Ok(())
}
