//! `odp` — the one command-line front end.
//!
//! ```text
//! odp run <program> [§A.5.3 options]    profile a workload under the tool
//! odp arbalest <program> [options]      the §7.7 correctness baseline
//! odp trace save|load|diff ...          persistent trace corpus tooling
//! odp static analyze|crosscheck|plan    static map-clause analysis
//! odp paper <table1|…|fig5|all>         regenerate the paper's tables and figures
//! ```
//!
//! Every subcommand parses only its own flags ([`Scale`] is the shared
//! `--size` / `--variant` parser), writes its standard output to the
//! writer [`dispatch`] was given — so the commands run in-process under
//! test and a closed pipe ends them quietly — and reports failure as a
//! [`Stop`] instead of exiting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod arbalest;
pub mod paper;
pub(crate) mod run;
pub(crate) mod static_cmd;
pub(crate) mod trace;

use odp_workloads::{ProblemSize, Variant, Workload};
use std::io::{self, Write};
use std::process::ExitCode;

/// Where a command's standard output goes. `Send`, because
/// `odp run --stream-interval` prints from a poller thread while the
/// program runs.
pub type Out<'a> = &'a mut (dyn Write + Send);

/// Why a command stopped before finishing its work.
#[derive(Debug)]
pub enum Stop {
    /// Print this text to the output and succeed (`--help`, `--version`).
    Exit(String),
    /// Print this message to stderr and exit with failure.
    Fail(String),
    /// Writing the output failed (typically a closed pipe).
    Io(io::Error),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        Stop::Io(e)
    }
}

/// What every command returns.
pub(crate) type CmdResult = Result<(), Stop>;

/// `Stop::Fail("error: <msg>")`.
pub(crate) fn error(msg: impl std::fmt::Display) -> Stop {
    Stop::Fail(format!("error: {msg}"))
}

/// `Err(error(msg))`.
pub(crate) fn fail<T>(msg: impl std::fmt::Display) -> Result<T, Stop> {
    Err(error(msg))
}

/// The value after a flag, or `error: <needs>`.
pub(crate) fn value<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    needs: &str,
) -> Result<&'a String, Stop> {
    it.next().ok_or_else(|| error(needs))
}

/// The number `>= min` after a flag, or `error: <needs>`.
pub(crate) fn number<'a, T: std::str::FromStr + PartialOrd>(
    it: &mut impl Iterator<Item = &'a String>,
    min: T,
    needs: &str,
) -> Result<T, Stop> {
    match it.next().and_then(|v| v.parse::<T>().ok()) {
        Some(n) if n >= min => Ok(n),
        _ => fail(needs),
    }
}

const USAGE: &str = "\
odp — data-mapping profiler for (simulated) heterogeneous OpenMP programs

USAGE:
    odp run <program> [options]         profile a program; prints the §A.6 report
    odp arbalest <program> [options]    Arbalest-Vec correctness baseline (§7.7)
    odp trace save|load|diff ...        persistent trace corpus tooling
    odp static analyze|crosscheck|plan <workload> [options]
    odp paper <experiment> [options]    regenerate a table or figure of the paper (or all)
    odp --version

`odp <command> --help` lists that command's options.";

/// Run the command line `args` (everything after `argv[0]`), writing
/// standard output to `out`.
pub fn dispatch(args: &[String], out: Out<'_>) -> CmdResult {
    let routed = match args.split_first() {
        None => Err(Stop::Exit(USAGE.to_string())),
        Some((cmd, rest)) => match cmd.as_str() {
            "-h" | "--help" => Err(Stop::Exit(USAGE.to_string())),
            "--version" => Err(Stop::Exit(version())),
            "run" => run::execute(rest, out),
            "arbalest" => arbalest::execute(rest, out),
            "trace" => trace::execute(rest, out),
            "static" => static_cmd::execute(rest, out),
            "paper" => paper::execute(rest, out),
            other => Err(Stop::Fail(format!("unknown command '{other}'\n\n{USAGE}"))),
        },
    };
    match routed {
        Err(Stop::Exit(text)) => Ok(writeln!(out, "{text}")?),
        other => other,
    }
}

/// The process exit code for a finished command; failures are reported
/// on stderr, a closed output pipe is not.
pub fn exit_code(result: CmdResult) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Stop::Io(e)) => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
        // `dispatch` prints these itself; none escapes it.
        Err(Stop::Exit(_)) => ExitCode::SUCCESS,
        Err(Stop::Fail(text)) => {
            eprintln!("{text}");
            ExitCode::FAILURE
        }
    }
}

pub(crate) fn version() -> String {
    format!("odp {}", env!("CARGO_PKG_VERSION"))
}

/// The `--size` / `--variant` pair, parsed the same way by every
/// subcommand that takes either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Problem size (default Small).
    pub size: ProblemSize,
    /// Program variant (default Original).
    pub variant: Variant,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale {
            size: ProblemSize::Small,
            variant: Variant::Original,
        }
    }
}

impl Scale {
    /// Apply `flag` (`--size` or `--variant`) with its `value`.
    pub(crate) fn set(&mut self, flag: &str, value: Option<&String>) -> Result<(), Stop> {
        let value = value.map(|v| v.to_ascii_lowercase());
        match (flag, value.as_deref()) {
            ("--size", Some("s" | "small")) => self.size = ProblemSize::Small,
            ("--size", Some("m" | "medium")) => self.size = ProblemSize::Medium,
            ("--size", Some("l" | "large")) => self.size = ProblemSize::Large,
            ("--variant", Some("original")) => self.variant = Variant::Original,
            ("--variant", Some("fixed" | "fix")) => self.variant = Variant::Fixed,
            ("--variant", Some("synthetic" | "syn")) => self.variant = Variant::Synthetic,
            (flag, other) => return fail(format!("bad {flag} {other:?}")),
        }
        Ok(())
    }
}

/// Every program a command can name: the hand-written workloads, then
/// the IR registry (the names are disjoint).
pub(crate) fn programs() -> Vec<Box<dyn Workload>> {
    let ir = odp_static::registry().into_iter();
    let ir = ir.map(|w| Box::new(w) as Box<dyn Workload>);
    odp_workloads::all().into_iter().chain(ir).collect()
}

/// The program called `name`, or the error listing every program.
pub(crate) fn workload(name: &str) -> Result<Box<dyn Workload>, Stop> {
    let mut all = programs();
    match all.iter().position(|w| w.name().eq_ignore_ascii_case(name)) {
        Some(at) => Ok(all.swap_remove(at)),
        None => fail(format!(
            "unknown program '{name}'; available: {}",
            names(&all)
        )),
    }
}

/// `--threads N` must name a workload with a threaded variant.
pub(crate) fn check_threads(w: &dyn Workload, threads: u32) -> Result<(), Stop> {
    if threads > 1 && !w.supports_threads() {
        let mut threaded = programs();
        threaded.retain(|w| w.supports_threads());
        return fail(format!(
            "{} has no threaded variant; --threads supports: {}",
            w.name(),
            names(&threaded)
        ));
    }
    Ok(())
}

pub(crate) fn names(workloads: &[Box<dyn Workload>]) -> String {
    let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::run::{parse, resolve_profile, usage, RunArgs};
    use super::*;
    use odp_workloads::adaptive::Remedy;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    fn is_error<T>(parsed: Result<T, Stop>) -> bool {
        matches!(parsed, Err(Stop::Fail(_)))
    }

    #[test]
    fn help_and_version() {
        assert!(matches!(parse(&argv("--help")), Err(Stop::Exit(_))));
        match parse(&argv("--version")) {
            Err(Stop::Exit(s)) => assert!(s.starts_with("odp ")),
            _ => panic!("expected version exit"),
        }
    }

    #[test]
    fn full_run_line() {
        let a = parse(&argv("--size m --variant fixed --json -q bfs")).unwrap();
        assert_eq!(a.program, "bfs");
        assert_eq!(a.spec.size, ProblemSize::Medium);
        assert_eq!(a.spec.variant, Variant::Fixed);
        assert!(a.json && a.spec.tool.quiet && !a.spec.tool.verbose);
        assert!(!a.spec.tool.stream, "streaming is opt-in");
    }

    #[test]
    fn stream_flag_is_parsed() {
        assert!(parse(&argv("--stream bfs")).unwrap().spec.tool.stream);
        let usage = usage();
        assert!(usage.contains("--stream"));
        assert!(usage.contains("--threads"));
        assert!(usage.contains("--stream-interval"));
    }

    #[test]
    fn threads_and_stream_interval_are_parsed() {
        let a = parse(&argv(
            "--threads 4 --stream-interval 50 --stream-cap 4096 bfs",
        ))
        .unwrap();
        assert_eq!(a.spec.threads, 4);
        assert_eq!(a.stream_interval_ms, Some(50));
        assert_eq!(a.spec.tool.stream_max_frontier, Some(4096));
        assert!(a.spec.tool.stream, "--stream-interval implies --stream");
        assert!(is_error(parse(&argv("--threads 0 bfs"))));
        assert!(is_error(parse(&argv("--stream-interval nope bfs"))));
        assert!(is_error(parse(&argv("--stream-interval 0 bfs"))));
        assert_eq!(parse(&argv("bfs")).unwrap().spec.threads, 1);
    }

    #[test]
    fn remediate_implies_stream_and_composes_with_threads_and_interval() {
        let adaptive = |a: &RunArgs| matches!(a.spec.remedy, Remedy::Adaptive);
        let a = parse(&argv("--remediate babelstream")).unwrap();
        assert!(adaptive(&a));
        assert!(a.spec.tool.stream, "--remediate implies --stream");
        assert!(matches!(
            parse(&argv("bfs")).unwrap().spec.remedy,
            Remedy::Off
        ));
        let a = parse(&argv("--remediate --threads 4 babelstream")).unwrap();
        assert!(
            adaptive(&a) && a.spec.threads == 4,
            "threaded remediation runs"
        );
        let a = parse(&argv("--remediate --stream-interval 10 babelstream")).unwrap();
        assert!(
            adaptive(&a) && a.stream_interval_ms == Some(10),
            "the findings tee lets the poller and the policy coexist"
        );
        assert!(usage().contains("--remediate"));
    }

    #[test]
    fn fault_flags_are_parsed() {
        use odp_sim::{FaultPlan, FaultProfile};
        let plan = |line: &str| format!("{:?}", parse(&argv(line)).unwrap().spec.runtime.faults);
        let expect = |profile, seed| format!("{:?}", FaultPlan::from_profile(profile, seed));
        assert_eq!(
            plan("--fault-profile lossy --fault-seed 7 bfs"),
            expect(FaultProfile::Lossy, 7)
        );
        assert_eq!(
            plan("--fault-profile hostile bfs"),
            expect(FaultProfile::Hostile, 42),
            "the default seed is 42"
        );
        assert_eq!(plan("bfs"), expect(FaultProfile::None, 42));
        assert!(is_error(parse(&argv("--fault-profile bogus bfs"))));
        assert!(is_error(parse(&argv("--fault-seed nope bfs"))));
        let u = usage();
        assert!(u.contains("--fault-profile"));
        assert!(u.contains("--fault-seed"));
        assert!(u.contains("lossy"));
    }

    #[test]
    fn stall_timeout_is_parsed() {
        let a = parse(&argv("--stream --stall-timeout 250 bfs")).unwrap();
        assert_eq!(
            a.spec.tool.stall_timeout,
            Some(std::time::Duration::from_millis(250))
        );
        assert!(a.spec.tool.stream);
        assert!(is_error(parse(&argv("--stall-timeout nope bfs"))));
        assert!(usage().contains("--stall-timeout"));
    }

    #[test]
    fn streaming_knobs_need_a_flag_that_turns_streaming_on() {
        for knob in ["--stream-cap 64", "--stall-timeout 250"] {
            assert!(is_error(parse(&argv(&format!("{knob} bfs")))), "{knob}");
            for on in ["--stream", "--stream-interval 10", "--remediate"] {
                assert!(parse(&argv(&format!("{knob} {on} bfs"))).is_ok());
            }
        }
    }

    #[test]
    fn hash_and_profile_names_are_resolved_while_parsing() {
        let a = parse(&argv(
            "--hash XXH64 --profile gcc --pre-emi --audit-collisions bfs",
        ))
        .unwrap();
        assert_eq!(a.spec.tool.hash_algo.name(), "XXH64");
        assert_eq!(a.spec.runtime.profile, odp_ompt::CompilerProfile::GnuGcc);
        assert!(a.spec.runtime.pre_emi_runtime && a.spec.tool.collision_audit);
        assert!(is_error(parse(&argv("--hash nope bfs"))));
        assert!(is_error(parse(&argv("--profile tcc bfs"))));
        assert!(is_error(parse(&argv("bfs --hash"))));
    }

    #[test]
    fn missing_program_is_an_error() {
        assert!(is_error(parse(&argv("-q"))));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(is_error(parse(&argv("--frobnicate bfs"))));
    }

    #[test]
    fn size_and_variant_parse_the_same_everywhere() {
        let mut scale = Scale::default();
        scale.set("--size", Some(&"M".to_string())).unwrap();
        scale.set("--variant", Some(&"syn".to_string())).unwrap();
        assert_eq!(scale.size, ProblemSize::Medium);
        assert_eq!(scale.variant, Variant::Synthetic);
        assert!(is_error(scale.set("--size", Some(&"z".to_string()))));
        assert!(is_error(scale.set("--variant", None)));
    }

    #[test]
    fn profile_resolution() {
        assert!(resolve_profile("llvm").is_some());
        assert!(resolve_profile("GCC").is_some());
        assert!(resolve_profile("tcc").is_none());
    }
}
