//! The repository's benchmark: whole-run tool overhead on four
//! workloads with a per-layer breakdown. See `README.md`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload storm_postmortem [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload. The last line of standard output is
//! the result object `{"correct", "attempted", "failed", "metrics"}`;
//! the exit code is non-zero when any output failed verification.

mod aa;
mod check;
mod corpus;
mod harness;
mod live;
mod span;
mod spec;
mod stats;
mod storm;
mod storm_live;
mod suite;
mod timed_tool;

use check::DEFAULT_SEED;
use harness::{run_traced, run_untraced, Outcome, Workload};
use spec::Spec;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: odp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       odp-benchmark --list
       odp-benchmark --aa [--seconds S]";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    list: bool,
    aa: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        list: false,
        aa: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: u64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--traced" => args.traced = true,
            "--list" => args.list = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Run workload `W` in the asked mode; the traced run also writes its
/// spans to `out/<name>.trace.json` beside this package's manifest.
fn run<W: Workload>(spec: &Spec, name: &str, args: &Args, seconds: u64) -> Result<Outcome, String> {
    if !args.traced {
        return run_untraced::<W>(spec, args.seed, seconds);
    }
    let (outcome, tracer) = run_traced::<W>(spec, args.seed, seconds)?;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("{name}.trace.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tracer.to_json())) {
        Ok(()) => println!(
            "{} spans written to {}",
            tracer.spans().len(),
            file.display()
        ),
        Err(e) => eprintln!("warning: cannot write {}: {e}", file.display()),
    }
    Ok(outcome)
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let spec = Spec::load()?;
    if args.list {
        print!("{}", spec.list(DEFAULT_SEED));
        return Ok(ExitCode::SUCCESS);
    }
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    if args.aa {
        return aa::run(&spec, seconds);
    }
    let name = args.workload.as_deref().ok_or(USAGE)?;
    if !spec.workloads.iter().any(|(w, _)| w == name) {
        return Err(format!(
            "workload `{name}` is not declared in BENCHMARK.json (try --list)"
        ));
    }
    println!(
        "workload {name}   seed {}{}   seconds {seconds}   trace {}   threads available {}",
        args.seed,
        if name == "suite_postmortem" {
            " (ignored: the suite is deterministic)"
        } else {
            ""
        },
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let outcome = match name {
        "suite_postmortem" => run::<suite::Suite>(&spec, name, &args, seconds),
        "storm_postmortem" => run::<storm_live::StormPostmortem>(&spec, name, &args, seconds),
        "storm_stream" => run::<storm_live::StormStream>(&spec, name, &args, seconds),
        "corpus_gate" => run::<corpus::CorpusGate>(&spec, name, &args, seconds),
        other => Err(format!(
            "workload `{other}` is declared but not implemented"
        )),
    }?;
    print!("{}", outcome.lines);
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted, outcome.failed, outcome.metrics_json
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::from(2)
    })
}
