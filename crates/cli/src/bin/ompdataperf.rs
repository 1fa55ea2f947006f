//! The `ompdataperf` profiler binary (§A.5.3).
//!
//! ```sh
//! cargo run -p odp-cli --bin ompdataperf -- hotspot --size s
//! cargo run -p odp-cli --bin ompdataperf -- bfs --size m --variant fixed
//! cargo run -p odp-cli --bin ompdataperf -- tealeaf --pre-emi   # §A.6 warning
//! cargo run -p odp-cli --bin ompdataperf -- bfs --threads 4 --stream \
//!     --stream-interval 20                                # sharded + live report
//! ```

use odp_cli::{parse, resolve_profile, Parsed};
use odp_hash::HashAlgoId;
use odp_ompt::Tool;
use odp_sim::{Runtime, RuntimeConfig};
use ompdataperf::detect::EventView;
use ompdataperf::remedy::{LiveRemediator, RemediationReport};
use ompdataperf::report::{ConsoleStreamSink, FindingsSink, SnapshotStreamSink};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse("ompdataperf", &args) {
        Parsed::Exit(msg) => {
            println!("{msg}");
            return ExitCode::SUCCESS;
        }
        Parsed::Error(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
        Parsed::Run(a) => a,
    };

    let Some(workload) = odp_workloads::by_name(&parsed.program) else {
        eprintln!(
            "error: unknown program '{}'; available: {}",
            parsed.program,
            odp_workloads::all()
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    };
    if !workload.supports(parsed.variant) {
        eprintln!(
            "error: {} has no '{:?}' variant in the paper's evaluation",
            workload.name(),
            parsed.variant
        );
        return ExitCode::FAILURE;
    }

    let hash_algo = match &parsed.hash {
        None => HashAlgoId::default(),
        Some(name) => match HashAlgoId::from_name(name) {
            Some(a) => a,
            None => {
                eprintln!(
                    "error: unknown hash '{name}'; available: {}",
                    HashAlgoId::ALL
                        .iter()
                        .map(|a| a.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
    };

    let mut cfg = RuntimeConfig::default();
    if parsed.pre_emi {
        cfg = cfg.pre_emi();
    }
    // Seeded fault injection (--fault-profile / --fault-seed): the plan
    // is cloned into the runtime config; clones share the injected-
    // fault totals, so the summary after the run sees every shard.
    let fault_plan = odp_sim::FaultPlan::from_profile(
        parsed.fault_profile.unwrap_or(odp_sim::FaultProfile::None),
        parsed.fault_seed.unwrap_or(42),
    );
    cfg.faults = fault_plan.clone();
    if let Some(p) = &parsed.profile {
        match resolve_profile(p) {
            Some(profile) => cfg = cfg.with_profile(profile),
            None => {
                eprintln!("error: unknown compiler profile '{p}'");
                return ExitCode::FAILURE;
            }
        }
    }

    if parsed.threads as usize > OmpDataPerfTool::MAX_SHARDS {
        eprintln!(
            "error: --threads {} exceeds the collector's shard capacity ({})",
            parsed.threads,
            OmpDataPerfTool::MAX_SHARDS
        );
        return ExitCode::FAILURE;
    }
    if parsed.threads > 1 && !workload.supports_threads() {
        eprintln!(
            "error: {} has no threaded variant; --threads supports: {}",
            workload.name(),
            odp_workloads::threaded::threaded_workloads()
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    }

    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        hash_algo,
        collision_audit: parsed.audit,
        quiet: parsed.quiet,
        verbose: parsed.verbose,
        stream: parsed.stream,
        stream_max_frontier: parsed.stream_cap,
        stall_timeout: parsed
            .stall_timeout_ms
            .map(std::time::Duration::from_millis),
        ring_capacity: None,
        publish_every: None,
    });

    // Live report consumer: drains findings while the program runs and
    // interleaves incremental §A.6 snapshot lines (suppressed under
    // --json, where stdout must stay machine-readable). Consumes its
    // own tee tap, so it composes with --remediate: the policy's pump
    // and this poller each see the full findings stream.
    let run_done = Arc::new(AtomicBool::new(false));
    let poller = parsed
        .stream_interval_ms
        .filter(|_| !parsed.json && !parsed.quiet)
        .map(|ms| {
            let tap = handle.tap_stream_findings();
            let run_done = run_done.clone();
            std::thread::spawn(move || {
                let mut sink = SnapshotStreamSink::new(0);
                loop {
                    let done = run_done.load(Ordering::Acquire);
                    let findings = tap.take();
                    if !findings.is_empty() {
                        for f in &findings {
                            sink.on_finding(f);
                        }
                        sink.snapshot();
                        for line in sink.lines.drain(..) {
                            println!("{line}");
                        }
                    }
                    if done {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            })
        });

    let wall = std::time::Instant::now();
    let mut remedy = None;
    let (dbg, stats) = if parsed.threads > 1 {
        let mut tools: Vec<Box<dyn Tool>> = vec![Box::new(tool)];
        for _ in 1..parsed.threads {
            tools.push(Box::new(handle.fork_tool()));
        }
        if parsed.remediate {
            // Threaded remediation: the threads share one device data
            // environment (true libomptarget semantics) and one live-fed
            // policy behind per-thread advisor handles.
            let (advisors, policy) =
                odp_workloads::adaptive::threaded_advisors(&handle, parsed.threads, true, None);
            let run = odp_workloads::threaded::run_threaded_shared(
                &*workload,
                parsed.threads,
                parsed.size,
                parsed.variant,
                &cfg,
                tools,
                advisors,
            );
            if let Some(policy) = policy {
                remedy = Some((policy, run.remediation));
            }
            (run.dbg, run.stats)
        } else {
            odp_workloads::threaded::run_threaded(
                &*workload,
                parsed.threads,
                parsed.size,
                parsed.variant,
                &cfg,
                tools,
            )
        }
    } else {
        let mut rt = Runtime::new(cfg);
        rt.attach_tool(Box::new(tool));
        // --remediate: the live findings stream steers an advisor that
        // rewrites inefficient mappings at every subsequent region.
        let policy = parsed.remediate.then(|| {
            let (remediator, policy) = LiveRemediator::new(handle.clone());
            rt.attach_advisor(Box::new(remediator));
            policy
        });
        let dbg = workload.run(&mut rt, parsed.size, parsed.variant);
        let stats = rt.finish();
        if let Some(policy) = policy {
            remedy = Some((policy, rt.remediation_stats()));
        }
        (dbg, stats)
    };
    let wall = wall.elapsed();
    run_done.store(true, Ordering::Release);
    if let Some(poller) = poller {
        let _ = poller.join();
    }

    let trace = handle.take_trace();
    if let Some(path) = &parsed.trace_out {
        let json = odp_trace::chrome::to_chrome_trace(&trace);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return ExitCode::FAILURE;
        }
        if !parsed.quiet {
            println!("info: wrote chrome://tracing timeline to {path}");
        }
    }
    // Streaming mode: the online engine emitted its live findings during
    // the run. The simulated runtime is synchronous, so this front end
    // prints the accumulated findings here; a concurrent consumer would
    // drain ToolHandle::take_stream_findings while the program executes.
    // Finalize completes the live stream and returns the fused sweep's
    // findings over the recorded trace; the report is built from those.
    let report = if let Some(mut engine) = handle.take_stream_engine() {
        // Everything the engine emitted over the whole run — including
        // findings a --stream-interval poller already drained and
        // printed (take_findings below only returns the residue).
        let live_total = engine.live_counts().total();
        let mut sink = ConsoleStreamSink::default();
        for finding in engine.take_findings() {
            sink.on_finding(&finding);
        }
        // Live lines go to stdout only in the human-readable mode; with
        // --json the stream output would corrupt the machine-readable
        // document (the findings are in the report JSON anyway).
        if !parsed.quiet && !parsed.json {
            const MAX_LIVE_LINES: usize = 40;
            for line in sink.lines.iter().take(MAX_LIVE_LINES) {
                println!("{line}");
            }
            if sink.lines.len() > MAX_LIVE_LINES {
                println!(
                    "stream: ... {} further findings elided",
                    sink.lines.len() - MAX_LIVE_LINES
                );
            }
            let stats = engine.buffer_stats();
            println!(
                "info: streaming detection emitted {} finding(s) live \
                 (reorder peak {}, lookahead peak {}, spilled {})",
                live_total, stats.buffered_peak, stats.frontier_peak, stats.frontier_spilled,
            );
        }
        let mut console = handle.console_lines();
        if let Some(warning) = engine.spill_warning() {
            console.push(warning);
        }
        let view = EventView::from_log(&trace);
        let findings = engine.finalize(&view);
        // Trace health: shard-side quarantine counters (the engine left
        // the handle above, so fold its counters in by hand) plus
        // merge-time duplicate ids. A dirty trace warns in the report.
        let mut health = handle.trace_health();
        health.merge(&engine.health());
        health.duplicate_ids += trace.duplicate_id_count();
        if let Some(warning) = health.warning() {
            console.push(warning);
        }
        ompdataperf::analysis::analyze_with_findings(
            &trace,
            Some(&dbg),
            workload.name(),
            console,
            findings,
        )
    } else {
        let mut console = handle.console_lines();
        let mut health = handle.trace_health();
        health.duplicate_ids += trace.duplicate_id_count();
        if let Some(warning) = health.warning() {
            console.push(warning);
        }
        ompdataperf::analysis::analyze_named(&trace, Some(&dbg), workload.name(), console)
    };

    // The remediation summary rides along with the report: recovered
    // bytes/time per finding kind, §A.6 console style or JSON.
    let remediation = remedy.map(|(policy, remedy_stats)| {
        RemediationReport::new(
            &policy.lock(),
            &remedy_stats,
            stats.bytes_transferred,
            stats.transfer_time,
        )
    });

    if parsed.json {
        match &remediation {
            Some(r) => println!(
                "{{\"report\":{},\"remediation\":{}}}",
                report.to_json(),
                r.to_json()
            ),
            None => println!("{}", report.to_json()),
        }
    } else {
        println!("{}", report.render());
        if let Some(r) = &remediation {
            print!("{}", r.render());
        }
        if fault_plan.is_enabled() && !parsed.quiet {
            println!("info: injected faults — {}", fault_plan.counts().summary());
        }
        if parsed.verbose {
            println!(
                "simulated time  : {} | wall-clock (host) : {:?}",
                stats.total_time, wall
            );
            println!(
                "hash rate       : {:.1} GB/s ({})",
                handle.hash_rate_gb_per_s(),
                hash_algo
            );
            if parsed.audit {
                println!("hash collisions : {}", handle.collision_count());
            }
        }
    }
    ExitCode::SUCCESS
}
