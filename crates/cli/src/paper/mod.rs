//! `odp paper` — regenerate the tables and figures of the paper's
//! evaluation (§7, appendix B), one experiment per name.
//!
//! ```sh
//! odp paper table1                 # issues detected per benchmark
//! odp paper fig2 --quick --json    # overhead sweep without Large, plus JSON
//! odp paper all --quick            # every experiment, in table order
//! ```
//!
//! [`EXPERIMENTS`] names every experiment exactly once; `all`, `--help`
//! and the tests iterate it, so an experiment cannot be forgotten. The
//! detection experiments go through `odp_workloads::session::run` like
//! `odp run`; the wall-clock ones (`timed_run`) time the bare program
//! with and without the tool attached.

mod figures;
mod render;
mod tables;

use crate::{error, fail, CmdResult, Out, Stop};
use odp_model::SimDuration;
use odp_sim::Runtime;
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::tool::OmpDataPerfTool;
use render::Table;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// The flags every experiment takes.
#[derive(Clone, Copy, Debug, Default)]
struct PaperArgs {
    /// Restrict sweeps to the Small and Medium sizes (`--quick`).
    quick: bool,
    /// Also print the data points as one JSON document (`--json`).
    json: bool,
}

impl PaperArgs {
    /// The problem sizes a sweep covers.
    fn sizes(&self) -> &'static [ProblemSize] {
        use ProblemSize::*;
        if self.quick {
            &[Small, Medium]
        } else {
            &[Small, Medium, Large]
        }
    }

    /// Print an experiment's data points, if `--json` asked for them.
    fn emit_json(&self, out: Out<'_>, document: serde_json::Value) -> CmdResult {
        if !self.json {
            return Ok(());
        }
        let text = serde_json::to_string_pretty(&document)
            .map_err(|e| error(format!("cannot serialize the experiment's JSON: {e}")))?;
        Ok(writeln!(out, "{text}")?)
    }
}

/// One table or figure of the paper.
pub struct Experiment {
    /// What `odp paper <name>` calls it.
    pub name: &'static str,
    /// Whether it has a `--json` form.
    pub json: bool,
    /// One line for `--help`.
    about: &'static str,
    run: fn(&PaperArgs, Out<'_>) -> CmdResult,
}

/// Every experiment, in the order `odp paper all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "issues detected per benchmark, with the synthetic and fixed rows",
        json: false,
        run: tables::table1,
    },
    Experiment {
        name: "table2",
        about: "OMPDataPerf vs Arbalest-Vec on the five HeCBench programs (§7.7)",
        json: false,
        run: tables::table2,
    },
    Experiment {
        name: "table3",
        about: "runtime before and after fixing the reported issues (§7.7)",
        json: false,
        run: tables::table3,
    },
    Experiment {
        name: "table4",
        about: "hash rate of all 19 hash functions over real transfer payloads",
        json: true,
        run: tables::table4,
    },
    Experiment {
        name: "table5",
        about: "programs and the paper's input strings per problem size",
        json: false,
        run: tables::table5,
    },
    Experiment {
        name: "table6",
        about: "OMPT target-feature support per compiler, verified by negotiation",
        json: false,
        run: tables::table6,
    },
    Experiment {
        name: "fig2",
        about: "runtime overhead of profiling, per benchmark and size",
        json: true,
        run: figures::fig2,
    },
    Experiment {
        name: "fig3",
        about: "peak tool space overhead, per benchmark and size",
        json: true,
        run: figures::fig3,
    },
    Experiment {
        name: "fig4",
        about: "predicted vs actual speedup, per program and size",
        json: true,
        run: figures::fig4,
    },
    Experiment {
        name: "fig5",
        about: "hash throughput vs data size against the transfer curve",
        json: true,
        run: figures::fig5,
    },
    Experiment {
        name: "ablate-hash",
        about: "time spent hashing inside the profiler, per hash function",
        json: false,
        run: figures::ablate_hash,
    },
];

fn usage() -> String {
    let mut text = String::from(
        "Usage: odp paper <experiment> [--quick] [--json]\n\
         Regenerates one table or figure of the paper's evaluation.\n\
         Experiments:\n",
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<12} {}\n", e.name, e.about));
    }
    let with_json: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.json)
        .map(|e| e.name)
        .collect();
    text.push_str(&format!(
        "  {:<12} every experiment above, in that order\n\
         Options:\n  \
         -h, --help   Show this help message\n  \
         --quick      Skip the Large problem sizes and the 2^25..2^28 hash buffers\n  \
         --json       Also print the data points as JSON ({})",
        "all",
        with_json.join(", ")
    ));
    text
}

/// `odp paper <experiment> [--quick] [--json]`.
pub(crate) fn execute(args: &[String], out: Out<'_>) -> CmdResult {
    let mut name: Option<&str> = None;
    let mut flags = PaperArgs::default();
    for arg in args {
        match arg.as_str() {
            "-h" | "--help" => return Err(Stop::Exit(usage())),
            "--quick" => flags.quick = true,
            "--json" => flags.json = true,
            other if other.starts_with('-') => {
                return fail(format!("unknown option {other}\n\n{}", usage()))
            }
            experiment if name.is_none() => name = Some(experiment),
            extra => return fail(format!("unexpected argument {extra}\n\n{}", usage())),
        }
    }
    let Some(name) = name else {
        return fail(format!("no experiment given\n\n{}", usage()));
    };
    if name == "all" {
        if flags.json {
            return fail("all has no --json form; ask one experiment for it");
        }
        for e in EXPERIMENTS {
            writeln!(out, "\n================ {} ================\n", e.name)?;
            (e.run)(&flags, out)?;
        }
        return Ok(writeln!(out, "\nall experiments completed")?);
    }
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        return fail(format!("unknown experiment '{name}'\n\n{}", usage()));
    };
    if flags.json && !experiment.json {
        return fail(format!("{name} has no --json form"));
    }
    (experiment.run)(&flags, out)
}

/// Simulated time of `w` with no tool attached.
fn run_without_tool(w: &dyn Workload, size: ProblemSize, variant: Variant) -> SimDuration {
    let mut rt = Runtime::with_defaults();
    w.run(&mut rt, size, variant);
    rt.finish().total_time
}

/// Wall clock of the original `w` on a fresh runtime, `tool` attached
/// if given — the program alone, no set-up and no analysis.
fn timed_run(w: &dyn Workload, size: ProblemSize, tool: Option<OmpDataPerfTool>) -> Duration {
    let mut rt = Runtime::with_defaults();
    if let Some(tool) = tool {
        rt.attach_tool(Box::new(tool));
    }
    let start = Instant::now();
    w.run(&mut rt, size, Variant::Original);
    rt.finish();
    start.elapsed()
}

/// Median wall-clock of `reps` runs of `f` (first run discarded as
/// warm-up when `reps > 1`).
fn measure_wall(reps: NonZeroUsize, mut f: impl FnMut() -> Duration) -> Duration {
    if reps.get() > 1 {
        let _ = f(); // warm-up
    }
    let mut samples: Vec<Duration> = (0..reps.get()).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Geometric mean of a slice of ratios.
fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn measure_wall_returns_median() {
        let mut calls = 0;
        let d = measure_wall(NonZeroUsize::MIN.saturating_add(2), || {
            calls += 1;
            Duration::from_millis(calls)
        });
        // warm-up + 3 samples → samples are 2,3,4 ms → median 3.
        assert_eq!(d, Duration::from_millis(3));
    }
}
