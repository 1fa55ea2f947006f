//! Shared argument handling for the command-line front ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use odp_workloads::{ProblemSize, Variant};

/// Parsed common arguments.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    /// Workload name.
    pub program: String,
    /// Problem size.
    pub size: ProblemSize,
    /// Program variant.
    pub variant: Variant,
    /// `-q`.
    pub quiet: bool,
    /// `-v`.
    pub verbose: bool,
    /// `--json`.
    pub json: bool,
    /// `--hash <name>`.
    pub hash: Option<String>,
    /// `--audit-collisions`.
    pub audit: bool,
    /// `--pre-emi` (simulate an OMPT 5.0-preview runtime).
    pub pre_emi: bool,
    /// `--profile <compiler>` (Table 6 capability profile).
    pub profile: Option<String>,
    /// `--trace-out <path>`: write the event log as Chrome Trace Format
    /// JSON for chrome://tracing / Perfetto.
    pub trace_out: Option<String>,
    /// `--stream`: run the detection engine online. Findings are
    /// computed as events arrive; live consumers pull them via
    /// `ToolHandle::take_stream_findings` (the synchronous CLI prints
    /// them once the run returns).
    pub stream: bool,
    /// `--stream-interval <ms>`: while streaming, print live findings
    /// and an incremental §A.6 snapshot line every that-many
    /// milliseconds from a consumer thread (implies `--stream`).
    pub stream_interval_ms: Option<u64>,
    /// `--stream-cap <n>`: hard cap for Algorithm 2's streaming
    /// lookahead window (spills trade exactness for bounded memory).
    pub stream_cap: Option<usize>,
    /// `--threads <n>`: drive the workload's offload pattern from N OS
    /// threads, each with its own runtime and tool shard (workloads
    /// that support it: babelstream, bfs, xsbench).
    pub threads: u32,
    /// `--remediate`: close the detect→fix loop — stream findings into
    /// a live remediation policy and rewrite inefficient mappings
    /// mid-run, then print the recovered-transfer summary (implies
    /// `--stream`). With `--threads N` the threads share one device
    /// data environment and one policy behind per-thread advisor
    /// handles; composes with `--stream-interval` (the live findings
    /// stream is teed to both consumers).
    pub remediate: bool,
    /// `--fault-profile NAME`: inject seeded faults into the simulated
    /// runtime's callback stream (drops, duplicates, truncation,
    /// corruption, transfer failures, OOM, a stalled shard). The
    /// pipeline must survive every profile without panicking.
    pub fault_profile: Option<odp_sim::FaultProfile>,
    /// `--fault-seed N`: the deterministic seed for the fault plan
    /// (default 42). Same seed + same profile = same faults.
    pub fault_seed: Option<u64>,
    /// `--stall-timeout MS`: with `--stream`, force-release the reorder
    /// buffer after the merged watermark has not advanced for this many
    /// milliseconds (findings decided afterwards are degraded evidence).
    pub stall_timeout_ms: Option<u64>,
}

/// Outcome of argument parsing.
pub enum Parsed {
    /// Run with these arguments.
    Run(Box<CommonArgs>),
    /// Print this text and exit successfully.
    Exit(String),
    /// Print this error and exit with failure.
    Error(String),
}

/// The §A.5.3 usage text, extended with the simulator's knobs.
pub fn usage(tool: &str) -> String {
    format!(
        "Usage: {tool} [options] [program] [program arguments]\n\
         Options:\n\
         \x20 -h, --help            Show this help message\n\
         \x20 -q, --quiet           Suppress warnings\n\
         \x20 -v, --verbose         Enable verbose output\n\
         \x20 --version             Print the version of {tool}\n\
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
         \x20 --stream-cap N        Cap the streaming round-trip lookahead window at N\n\
         \x20 --threads N           Drive the workload from N OS threads (sharded collection)\n\
         \x20 --remediate           Rewrite inefficient mappings mid-run from live findings (implies --stream;\n\
         \x20                       with --threads: shared device tables + per-thread advisors)\n\
         \x20 --fault-profile NAME  Inject seeded runtime faults: {}\n\
         \x20 --fault-seed N        Deterministic fault seed (default: 42)\n\
         \x20 --stall-timeout MS    With --stream: force-release the reorder buffer after MS ms\n\
         \x20                       without watermark progress (degrades findings)\n\
         Programs:\n\x20 {}",
        odp_sim::FaultProfile::NAMES,
        odp_workloads::all()
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// Parse command-line arguments (everything after `argv[0]`).
pub fn parse(tool: &str, args: &[String]) -> Parsed {
    let mut out = CommonArgs {
        program: String::new(),
        size: ProblemSize::Small,
        variant: Variant::Original,
        quiet: false,
        verbose: false,
        json: false,
        hash: None,
        audit: false,
        pre_emi: false,
        profile: None,
        trace_out: None,
        stream: false,
        stream_interval_ms: None,
        stream_cap: None,
        threads: 1,
        remediate: false,
        fault_profile: None,
        fault_seed: None,
        stall_timeout_ms: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Parsed::Exit(usage(tool)),
            "--version" => return Parsed::Exit(format!("{tool} {}", env!("CARGO_PKG_VERSION"))),
            "-q" | "--quiet" => out.quiet = true,
            "-v" | "--verbose" => out.verbose = true,
            "--json" => out.json = true,
            "--audit-collisions" => out.audit = true,
            "--pre-emi" => out.pre_emi = true,
            "--stream" => out.stream = true,
            "--remediate" => {
                out.remediate = true;
                out.stream = true;
            }
            "--size" => match it.next().map(|s| s.as_str()) {
                Some("s") | Some("small") => out.size = ProblemSize::Small,
                Some("m") | Some("medium") => out.size = ProblemSize::Medium,
                Some("l") | Some("large") => out.size = ProblemSize::Large,
                other => return Parsed::Error(format!("bad --size {other:?}")),
            },
            "--variant" => match it.next().map(|s| s.as_str()) {
                Some("original") => out.variant = Variant::Original,
                Some("fixed") | Some("fix") => out.variant = Variant::Fixed,
                Some("synthetic") | Some("syn") => out.variant = Variant::Synthetic,
                other => return Parsed::Error(format!("bad --variant {other:?}")),
            },
            "--hash" => match it.next() {
                Some(h) => out.hash = Some(h.clone()),
                None => return Parsed::Error("--hash needs a value".into()),
            },
            "--profile" => match it.next() {
                Some(p) => out.profile = Some(p.clone()),
                None => return Parsed::Error("--profile needs a value".into()),
            },
            "--trace-out" => match it.next() {
                Some(p) => out.trace_out = Some(p.clone()),
                None => return Parsed::Error("--trace-out needs a path".into()),
            },
            "--stream-interval" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => {
                    out.stream_interval_ms = Some(ms);
                    out.stream = true;
                }
                _ => return Parsed::Error("--stream-interval needs a positive ms value".into()),
            },
            "--stream-cap" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => out.stream_cap = Some(n),
                _ => return Parsed::Error("--stream-cap needs a positive value".into()),
            },
            "--threads" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) if n >= 1 => out.threads = n,
                _ => return Parsed::Error("--threads needs a value >= 1".into()),
            },
            "--fault-profile" => match it.next().map(|s| s.as_str()) {
                Some(name) => match odp_sim::FaultProfile::parse(name) {
                    Some(p) => out.fault_profile = Some(p),
                    None => {
                        return Parsed::Error(format!(
                            "unknown fault profile '{name}'; available: {}",
                            odp_sim::FaultProfile::NAMES
                        ))
                    }
                },
                None => return Parsed::Error("--fault-profile needs a name".into()),
            },
            "--fault-seed" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(seed) => out.fault_seed = Some(seed),
                None => return Parsed::Error("--fault-seed needs an integer value".into()),
            },
            "--stall-timeout" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => out.stall_timeout_ms = Some(ms),
                None => return Parsed::Error("--stall-timeout needs a ms value".into()),
            },
            other if other.starts_with('-') => {
                return Parsed::Error(format!("unknown option {other}\n\n{}", usage(tool)))
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
        return Parsed::Error(format!("no program given\n\n{}", usage(tool)));
    }
    // --remediate composes with --threads (shared-device semantics, one
    // policy behind per-thread advisors) and with --stream-interval
    // (the live findings stream is teed to every consumer).
    Parsed::Run(Box::new(out))
}

/// Resolve a Table 6 profile name.
pub fn resolve_profile(name: &str) -> Option<odp_ompt::CompilerProfile> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_version() {
        assert!(matches!(
            parse("ompdataperf", &argv("--help")),
            Parsed::Exit(_)
        ));
        match parse("ompdataperf", &argv("--version")) {
            Parsed::Exit(s) => assert!(s.starts_with("ompdataperf")),
            _ => panic!("expected version exit"),
        }
    }

    #[test]
    fn full_run_line() {
        match parse(
            "ompdataperf",
            &argv("--size m --variant fixed --json -q bfs"),
        ) {
            Parsed::Run(a) => {
                assert_eq!(a.program, "bfs");
                assert_eq!(a.size, ProblemSize::Medium);
                assert_eq!(a.variant, Variant::Fixed);
                assert!(a.json && a.quiet && !a.verbose);
                assert!(!a.stream, "streaming is opt-in");
            }
            _ => panic!("expected run"),
        }
    }

    #[test]
    fn stream_flag_is_parsed() {
        match parse("ompdataperf", &argv("--stream bfs")) {
            Parsed::Run(a) => assert!(a.stream),
            _ => panic!("expected run"),
        }
        let usage = usage("ompdataperf");
        assert!(usage.contains("--stream"));
        assert!(usage.contains("--threads"));
        assert!(usage.contains("--stream-interval"));
    }

    #[test]
    fn threads_and_stream_interval_are_parsed() {
        match parse(
            "ompdataperf",
            &argv("--threads 4 --stream-interval 50 --stream-cap 4096 bfs"),
        ) {
            Parsed::Run(a) => {
                assert_eq!(a.threads, 4);
                assert_eq!(a.stream_interval_ms, Some(50));
                assert_eq!(a.stream_cap, Some(4096));
                assert!(a.stream, "--stream-interval implies --stream");
            }
            _ => panic!("expected run"),
        }
        assert!(matches!(
            parse("ompdataperf", &argv("--threads 0 bfs")),
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse("ompdataperf", &argv("--stream-interval nope bfs")),
            Parsed::Error(_)
        ));
        match parse("ompdataperf", &argv("bfs")) {
            Parsed::Run(a) => assert_eq!(a.threads, 1),
            _ => panic!("expected run"),
        }
    }

    #[test]
    fn remediate_implies_stream_and_composes_with_threads_and_interval() {
        match parse("ompdataperf", &argv("--remediate babelstream")) {
            Parsed::Run(a) => {
                assert!(a.remediate);
                assert!(a.stream, "--remediate implies --stream");
            }
            _ => panic!("expected run"),
        }
        match parse("ompdataperf", &argv("--remediate --threads 4 babelstream")) {
            Parsed::Run(a) => {
                assert!(a.remediate && a.threads == 4, "threaded remediation runs");
            }
            _ => panic!("expected run: --remediate --threads is supported"),
        }
        match parse(
            "ompdataperf",
            &argv("--remediate --stream-interval 10 babelstream"),
        ) {
            Parsed::Run(a) => {
                assert!(
                    a.remediate && a.stream_interval_ms == Some(10),
                    "the findings tee lets the poller and the policy coexist"
                );
            }
            _ => panic!("expected run: --remediate --stream-interval is supported"),
        }
        assert!(usage("ompdataperf").contains("--remediate"));
    }

    #[test]
    fn fault_flags_are_parsed() {
        match parse(
            "ompdataperf",
            &argv("--fault-profile lossy --fault-seed 7 bfs"),
        ) {
            Parsed::Run(a) => {
                assert_eq!(a.fault_profile, Some(odp_sim::FaultProfile::Lossy));
                assert_eq!(a.fault_seed, Some(7));
            }
            _ => panic!("expected run"),
        }
        assert!(matches!(
            parse("ompdataperf", &argv("--fault-profile bogus bfs")),
            Parsed::Error(_)
        ));
        assert!(matches!(
            parse("ompdataperf", &argv("--fault-seed nope bfs")),
            Parsed::Error(_)
        ));
        let u = usage("ompdataperf");
        assert!(u.contains("--fault-profile"));
        assert!(u.contains("--fault-seed"));
        assert!(u.contains("lossy"));
    }

    #[test]
    fn stall_timeout_is_parsed() {
        match parse("ompdataperf", &argv("--stream --stall-timeout 250 bfs")) {
            Parsed::Run(a) => {
                assert_eq!(a.stall_timeout_ms, Some(250));
                assert!(a.stream);
            }
            _ => panic!("expected run"),
        }
        assert!(matches!(
            parse("ompdataperf", &argv("--stall-timeout nope bfs")),
            Parsed::Error(_)
        ));
        assert!(usage("ompdataperf").contains("--stall-timeout"));
    }

    #[test]
    fn missing_program_is_an_error() {
        assert!(matches!(
            parse("ompdataperf", &argv("-q")),
            Parsed::Error(_)
        ));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(matches!(
            parse("ompdataperf", &argv("--frobnicate bfs")),
            Parsed::Error(_)
        ));
    }

    #[test]
    fn profile_resolution() {
        assert!(resolve_profile("llvm").is_some());
        assert!(resolve_profile("GCC").is_some());
        assert!(resolve_profile("tcc").is_none());
    }
}
