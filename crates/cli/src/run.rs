//! `odp run` — the profiler (§A.5.3): run a workload under the tool and
//! print the §A.6 report.
//!
//! ```sh
//! odp run hotspot --size s
//! odp run bfs --size m --variant fixed
//! odp run tealeaf --pre-emi                                # §A.6 warning
//! odp run bfs --threads 4 --stream --stream-interval 20    # sharded + live report
//! ```

use crate::{
    check_threads, fail, names, number, programs, value, version, workload, CmdResult, Out, Scale,
    Stop,
};
use odp_hash::HashAlgoId;
use odp_sim::{FaultPlan, FaultProfile};
use odp_workloads::adaptive::Remedy;
use odp_workloads::session::{self, RunSpec};
use ompdataperf::report::SnapshotStreamSink;
use ompdataperf::tool::{FindingsTap, OmpDataPerfTool};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Parsed `odp run` arguments: the run itself, and how to print it.
#[derive(Clone, Debug)]
pub(crate) struct RunArgs {
    /// Workload name.
    pub program: String,
    /// What the run driver is asked to do — every flag that shapes the
    /// run lands here (`-q`/`-v` in `tool.quiet`/`tool.verbose`,
    /// `--remediate` as `Remedy::Adaptive`, the fault flags as
    /// `runtime.faults`, …).
    pub spec: RunSpec,
    /// `--json`.
    pub json: bool,
    /// `--trace-out <path>`: also write the event log as Chrome Trace
    /// Format JSON for chrome://tracing / Perfetto.
    pub trace_out: Option<String>,
    /// `--stream-interval <ms>`: print live findings and an incremental
    /// §A.6 snapshot line every that-many milliseconds from a consumer
    /// thread while the program runs.
    pub stream_interval_ms: Option<u64>,
}

/// The §A.5.3 usage text, extended with the simulator's knobs.
pub(crate) fn usage() -> String {
    format!(
        "Usage: odp run [options] [program] [program arguments]\n\
         Options:\n\
         \x20 -h, --help            Show this help message\n\
         \x20 -q, --quiet           Suppress warnings\n\
         \x20 -v, --verbose         Enable verbose output\n\
         \x20 --version             Print the version of odp\n\
         \x20 --size s|m|l          Problem size (default: s)\n\
         \x20 --variant NAME        original|fixed|synthetic (default: original)\n\
         \x20 --json                Emit the report as JSON\n\
         \x20 --hash NAME           Content hash (default: t1ha0_avx2)\n\
         \x20 --audit-collisions    Keep payload copies, verify hashes (§B.1)\n\
         \x20 --pre-emi             Simulate a pre-5.1 OMPT runtime (§A.6)\n\
         \x20 --profile NAME        Compiler capability profile (Table 6)\n\
         \x20 --trace-out PATH      Write a chrome://tracing JSON timeline\n\
         \x20 --stream              Run the detectors online during execution\n\
         \x20 --stream-interval MS  Print live findings + snapshot every MS ms (implies --stream)\n\
         \x20 --threads N           Drive the workload from N OS threads (sharded collection)\n\
         \x20 --remediate           Rewrite inefficient mappings mid-run from live findings (implies --stream;\n\
         \x20                       with --threads: one advisor every thread consults)\n\
         \x20 --fault-profile NAME  Inject seeded runtime faults: {}\n\
         \x20 --fault-seed N        With --fault-profile: deterministic fault seed (default: 42)\n\
         \x20 --stall-timeout MS    With streaming on: force-release the reorder buffer after MS ms\n\
         \x20                       without watermark progress (degrades findings)\n\
         Programs:\n\x20 {}",
        FaultProfile::NAMES,
        names(&programs())
    )
}

/// Parse `odp run`'s arguments (everything after `run`).
pub(crate) fn parse(args: &[String]) -> Result<RunArgs, Stop> {
    let mut out = RunArgs {
        program: String::new(),
        spec: RunSpec::default(),
        json: false,
        trace_out: None,
        stream_interval_ms: None,
    };
    let spec = &mut out.spec;
    let mut scale = Scale::default();
    let (mut fault_profile, mut fault_seed) = (None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(Stop::Exit(usage())),
            "--version" => return Err(Stop::Exit(version())),
            "-q" | "--quiet" => spec.tool.quiet = true,
            "-v" | "--verbose" => spec.tool.verbose = true,
            "--json" => out.json = true,
            "--audit-collisions" => spec.tool.collision_audit = true,
            "--pre-emi" => spec.runtime.pre_emi_runtime = true,
            "--stream" => spec.tool.stream = true,
            // Implies --stream: the policy learns from live findings.
            "--remediate" => (spec.remedy, spec.tool.stream) = (Remedy::Adaptive, true),
            flag @ ("--size" | "--variant") => scale.set(flag, it.next())?,
            "--hash" => {
                let name = value(&mut it, "--hash needs a value")?;
                let Some(algo) = HashAlgoId::from_name(name) else {
                    let all: Vec<&str> = HashAlgoId::ALL.iter().map(|a| a.name()).collect();
                    return fail(format!(
                        "unknown hash '{name}'; available: {}",
                        all.join(", ")
                    ));
                };
                spec.tool.hash_algo = algo;
            }
            "--profile" => {
                let name = value(&mut it, "--profile needs a value")?;
                let Some(profile) = resolve_profile(name) else {
                    return fail(format!("unknown compiler profile '{name}'"));
                };
                spec.runtime.profile = profile;
            }
            "--trace-out" => {
                out.trace_out = Some(value(&mut it, "--trace-out needs a path")?.clone())
            }
            "--stream-interval" => {
                let needs = "--stream-interval needs a positive ms value";
                out.stream_interval_ms = Some(number(&mut it, 1, needs)?);
                spec.tool.stream = true;
            }
            "--threads" => spec.threads = number(&mut it, 1, "--threads needs a value >= 1")?,
            "--fault-profile" => {
                let name = value(&mut it, "--fault-profile needs a name")?;
                let Some(profile) = FaultProfile::parse(name) else {
                    return fail(format!(
                        "unknown fault profile '{name}'; available: {}",
                        FaultProfile::NAMES
                    ));
                };
                fault_profile = Some(profile);
            }
            "--fault-seed" => {
                fault_seed = Some(number(&mut it, 0, "--fault-seed needs an integer value")?)
            }
            "--stall-timeout" => {
                let ms = number(&mut it, 0, "--stall-timeout needs a ms value")?;
                spec.tool.stall_timeout = Some(Duration::from_millis(ms));
            }
            other if other.starts_with('-') => {
                return fail(format!("unknown option {other}\n\n{}", usage()))
            }
            other => {
                if out.program.is_empty() {
                    out.program = other.to_string();
                }
                // Remaining positional args are the program's own; the
                // simulated workloads take their inputs from --size.
            }
        }
    }
    if out.program.is_empty() {
        return fail(format!("no program given\n\n{}", usage()));
    }
    // A knob configures something another flag must have turned on.
    let t = &spec.tool;
    let streaming = (t.stream, "--stream, --stream-interval or --remediate");
    let faults = (fault_profile.is_some(), "--fault-profile");
    for (flag, given, (met, needs)) in [
        ("--stall-timeout", t.stall_timeout.is_some(), streaming),
        ("--fault-seed", fault_seed.is_some(), faults),
    ] {
        if given && !met {
            return fail(format!("{flag} needs {needs}"));
        }
    }
    (spec.size, spec.variant) = (scale.size, scale.variant);
    // Cloned into every runtime; clones share the injected-fault
    // totals, so the summary after the run sees every shard.
    spec.runtime.faults = FaultPlan::from_profile(
        fault_profile.unwrap_or(FaultProfile::None),
        fault_seed.unwrap_or(42),
    );
    Ok(out)
}

/// Resolve a Table 6 profile name.
pub(crate) fn resolve_profile(name: &str) -> Option<odp_ompt::CompilerProfile> {
    use odp_ompt::CompilerProfile as P;
    Some(match name.to_ascii_lowercase().as_str() {
        "llvm" | "clang" => P::LlvmClang,
        "aocc" => P::AmdAocc,
        "aomp" => P::AmdAomp,
        "rocm" => P::AmdRocm,
        "acfl" | "arm" => P::ArmAcfl,
        "gcc" | "gnu" => P::GnuGcc,
        "cce" | "cray" => P::HpeCce,
        "icx" | "intel" => P::IntelIcx,
        "nvhpc" | "nvidia" => P::NvidiaHpc,
        _ => return None,
    })
}

/// The `--stream-interval` consumer: drains its own tee tap while the
/// program runs and interleaves incremental §A.6 snapshot lines, so it
/// composes with `--remediate` (the policy's pump and this poller each
/// see the full findings stream). Ends after the drain that follows
/// `done`, or when the output closes.
fn poll(tap: FindingsTap, every: Duration, done: &AtomicBool, out: Out<'_>) -> io::Result<()> {
    let mut sink = SnapshotStreamSink::default();
    loop {
        let last = done.load(Ordering::Acquire);
        let findings = tap.take();
        if !findings.is_empty() {
            for f in &findings {
                sink.on_finding(f);
            }
            sink.snapshot();
            for line in sink.lines.drain(..) {
                writeln!(out, "{line}")?;
            }
        }
        if last {
            return Ok(());
        }
        std::thread::sleep(every);
    }
}

/// `odp run <program> [options]`.
pub(crate) fn execute(args: &[String], out: Out<'_>) -> CmdResult {
    let RunArgs {
        program,
        spec,
        json,
        trace_out,
        stream_interval_ms,
    } = parse(args)?;
    let (quiet, verbose) = (spec.tool.quiet, spec.tool.verbose);
    let workload = workload(&program)?;
    if !workload.supports(spec.variant) {
        return fail(format!(
            "{} has no '{:?}' variant in the paper's evaluation",
            workload.name(),
            spec.variant
        ));
    }
    if spec.threads as usize > OmpDataPerfTool::MAX_SHARDS {
        return fail(format!(
            "--threads {} exceeds the collector's shard capacity ({})",
            spec.threads,
            OmpDataPerfTool::MAX_SHARDS
        ));
    }
    check_threads(&*workload, spec.threads)?;

    // The live consumer is suppressed under --json, where stdout must
    // stay machine-readable. It owns the output while the program runs;
    // this thread writes again once it has been joined.
    let interval = stream_interval_ms.filter(|_| !json && !quiet);
    let done = &AtomicBool::new(false);
    let run = std::thread::scope(|scope| {
        session::run_observed(&*workload, &spec, |handle| {
            let poller = interval.map(|ms| {
                let (tap, out) = (handle.tap_stream_findings(), &mut *out);
                scope.spawn(move || poll(tap, Duration::from_millis(ms), done, out))
            });
            move || {
                done.store(true, Ordering::Release);
                if let Some(poller) = poller {
                    let _ = poller.join();
                }
            }
        })
    });

    if let Some(path) = &trace_out {
        let json = odp_trace::chrome::to_chrome_trace(&run.trace);
        if let Err(e) = std::fs::write(path, json) {
            return fail(format!("cannot write trace to {path}: {e}"));
        }
        if !quiet {
            writeln!(out, "info: wrote chrome://tracing timeline to {path}")?;
        }
    }
    // The simulated runtime is synchronous, so the findings the online
    // engine emitted and no live consumer drained are printed here.
    // Only in the human-readable mode: with --json they would corrupt
    // the document (they are in the report JSON anyway).
    if let Some(live) = run.live.as_ref().filter(|_| !quiet && !json) {
        let mut sink = SnapshotStreamSink::default();
        for finding in &live.undrained {
            sink.on_finding(finding);
        }
        const MAX_LIVE_LINES: usize = 40;
        for line in sink.lines.iter().take(MAX_LIVE_LINES) {
            writeln!(out, "{line}")?;
        }
        if sink.lines.len() > MAX_LIVE_LINES {
            writeln!(
                out,
                "stream: ... {} further findings elided",
                sink.lines.len() - MAX_LIVE_LINES
            )?;
        }
        writeln!(
            out,
            "info: streaming detection emitted {} finding(s) live \
             (reorder peak {})",
            live.emitted, live.stats.buffered_peak,
        )?;
    }

    // The remediation summary rides along with the report: recovered
    // bytes/time per finding kind, §A.6 console style or JSON.
    if json {
        match &run.remediation {
            Some(r) => writeln!(
                out,
                "{{\"report\":{},\"remediation\":{}}}",
                run.report.to_json(),
                r.to_json()
            )?,
            None => writeln!(out, "{}", run.report.to_json())?,
        }
        return Ok(());
    }
    writeln!(out, "{}", run.report.render())?;
    if let Some(r) = &run.remediation {
        write!(out, "{}", r.render())?;
    }
    let faults = &spec.runtime.faults;
    if faults.is_enabled() && !quiet {
        writeln!(out, "info: injected faults — {}", faults.counts().summary())?;
    }
    if verbose {
        writeln!(
            out,
            "simulated time  : {} | wall-clock (host) : {:?}",
            run.stats.total_time, run.wall
        )?;
        // Bytes are exact; the time under them is measured for
        // payloads of 4 KiB and more and sampled (1 in 16) below.
        writeln!(
            out,
            "hash rate       : {:.1} GB/s ({})",
            run.handle.hash_rate_gb_per_s(),
            spec.tool.hash_algo
        )?;
        if spec.tool.collision_audit {
            writeln!(out, "hash collisions : {}", run.handle.collision_count())?;
        }
    }
    Ok(())
}
