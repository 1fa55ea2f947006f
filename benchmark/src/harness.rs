//! The measurement loops shared by the four workloads.
//!
//! Closed loop, one op at a time, one process per workload. The
//! untraced run takes the end-to-end metrics with no spans and no
//! `TimedTool`; the traced run takes the per-layer metrics and, by
//! interleaving untraced ops, the cost of tracing itself.

use crate::span::Tracer;
use crate::spec::{Emitter, Spec};
use crate::stats::{geomean, median, Summary};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed ops of an untraced / a traced run, whatever `--seconds`.
const MIN_OPS: usize = 5;
/// The traced run fails below this share of op wall inside layer spans.
const MIN_COVERAGE: f64 = 0.90;
/// Spans that only structure the tree; every other span name `x` must
/// have a declared metric `x_s`.
const STRUCTURAL_SPANS: [&str; 2] = ["op", "program"];

/// One untraced op.
pub struct OpSample {
    /// Tool construction → last report byte rendered.
    pub wall_s: f64,
    /// `finish()` returns → report rendered.
    pub report_latency_s: f64,
    /// Paired tooled ÷ baseline ratios: one per program on the suite,
    /// one on the other workloads.
    pub ratios: Vec<f64>,
    /// Did every output verify?
    pub ok: bool,
}

/// One traced op: its spans are in the tracer; these are the counts
/// read from public accessors, and the verdict.
pub struct TracedSample {
    pub counts: Vec<(&'static str, f64)>,
    pub ok: bool,
}

/// A benchmark workload. `set_up` builds the inputs from the seed, runs
/// the oracle checks and one discarded warm-up pair.
pub trait Workload: Sized {
    fn set_up(seed: u64) -> Result<Self, String>;
    fn op(&mut self) -> OpSample;
    fn traced_op(&mut self, tracer: &mut Tracer) -> TracedSample;

    /// What each entry of [`OpSample::ratios`] is the ratio of.
    fn ratio_labels(&self) -> Vec<String>;

    /// A reference check too costly or too memory-hungry for the timed
    /// loop; runs once per process after the last op and after peak
    /// memory has been read, and counts as one more op.
    fn oracle(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// What a run hands back to `main` for the result line.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Human-readable metric lines.
    pub lines: String,
    /// The `metrics` JSON object.
    pub metrics_json: String,
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Metrics whose values are scheduling-independent: they must repeat
/// exactly from op to op (and, for one seed, from run to run).
pub const EXACT_COUNTS: [&str; 14] = [
    "sim.regions",
    "tool.callbacks",
    "hash.bytes",
    "report.bytes",
    "trace.bytes_per_event",
    "events",
    "findings.dd",
    "findings.rt",
    "findings.ra",
    "findings.ua",
    "findings.ut",
    "findings.event_share",
    "persist.bytes",
    "fleet.sites",
];

/// The untraced run: `SETUP_REPS` set-ups, then timed ops for
/// `seconds`, then every end-to-end metric.
pub fn run_untraced<W: Workload>(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // The previous state goes first, so peak memory is one state's.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::set_up(seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPS > 0");

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut samples: Vec<OpSample> = Vec::new();
    while samples.len() < MIN_OPS || Instant::now() < deadline {
        samples.push(workload.op());
    }

    let column = |f: fn(&OpSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let programs = samples[0].ratios.len();
    let per_program: Vec<f64> = (0..programs)
        .map(|p| median(&samples.iter().map(|s| s.ratios[p]).collect::<Vec<_>>()))
        .collect();

    let mut emit = Emitter::new(&spec.end_to_end);
    let setup = Summary::of(&setups);
    emit.set("setup_s", setup.median, setup.detail())?;
    for (name, values) in [
        ("wall_s", column(|s| s.wall_s)),
        ("report_latency_s", column(|s| s.report_latency_s)),
    ] {
        let summary = Summary::of(&values);
        emit.set(name, summary.median, summary.detail())?;
    }
    emit.set(
        "slowdown",
        geomean(&per_program),
        format!(
            "geomean over {programs} program(s) of the median of n={} paired ratios, min={:.4} max={:.4}",
            samples.len(),
            per_program.iter().copied().fold(f64::MAX, f64::min),
            per_program.iter().copied().fold(f64::MIN, f64::max),
        ),
    )?;
    emit.set("peak_rss_mb", peak_rss_mb()?, "VmHWM".to_string())?;
    let per_program_lines: String = workload
        .ratio_labels()
        .iter()
        .zip(&per_program)
        .map(|(label, ratio)| format!("  slowdown of {label:<24} {ratio:.4}\n"))
        .collect();

    let attempted = samples.len() + 1;
    let failed = samples.iter().filter(|s| !s.ok).count() + oracle_failures(&mut workload);
    let (mut lines, metrics_json) = emit.render(true)?;
    lines.push_str(&per_program_lines);
    lines.push_str(&format!(
        "{:<26} = {} ratio   [{failed} of {attempted} ops, the oracle check included]\n",
        "failed_share",
        failed as f64 / attempted as f64,
    ));
    Ok(Outcome {
        attempted,
        failed,
        lines,
        metrics_json,
    })
}

/// Run the once-per-process oracle; a failure is reported and counted.
fn oracle_failures<W: Workload>(workload: &mut W) -> usize {
    match workload.oracle() {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("verification failed: {message}");
            1
        }
    }
}

/// The traced run: one set-up, then traced and untraced ops in turn
/// for `seconds`, then every per-layer metric. Returns the outcome and
/// the recording for `out/<workload>.trace.json`.
pub fn run_traced<W: Workload>(
    spec: &Spec,
    seed: u64,
    seconds: u64,
) -> Result<(Outcome, Tracer), String> {
    let mut workload = W::set_up(seed)?;
    let mut tracer = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut traced: Vec<TracedSample> = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut failed = 0;
    while traced.len() < MIN_OPS || Instant::now() < deadline {
        tracer.next_op();
        traced.push(workload.traced_op(&mut tracer));
        let plain = workload.op();
        untraced_wall.push(plain.wall_s);
        failed += usize::from(!plain.ok);
    }
    failed += traced.iter().filter(|s| !s.ok).count() + oracle_failures(&mut workload);

    let mut emit = Emitter::new(&spec.per_layer);

    // Timings: per-op self time by span name, median over the ops.
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let per_op = tracer.self_by_op_and_name();
    for names in per_op.values() {
        for (&name, &ns) in names {
            by_name.entry(name).or_default().push(ns as f64 * 1e-9);
        }
    }
    for (name, values) in &by_name {
        if STRUCTURAL_SPANS.contains(name) {
            continue;
        }
        let summary = Summary::of(values);
        emit.set(&format!("{name}_s"), summary.median, summary.detail())?;
    }

    // Counts: median over the ops; the exact ones must not vary at all.
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for sample in &traced {
        for &(name, value) in &sample.counts {
            counts.entry(name).or_default().push(value);
        }
    }
    for (name, values) in &counts {
        let varies = values.iter().any(|v| v != &values[0]);
        if varies && EXACT_COUNTS.contains(name) {
            return Err(format!("count `{name}` varies between ops: {values:?}"));
        }
        let summary = Summary::of(values);
        emit.set(name, summary.median, format!("n={}", summary.n))?;
    }

    let coverage: Vec<f64> = tracer.coverage_by_op("op").into_values().collect();
    let worst = coverage.iter().copied().fold(f64::MAX, f64::min);
    emit.set(
        "trace.coverage",
        median(&coverage),
        format!("share of op wall inside layer spans; worst op {worst:.4}"),
    )?;
    let traced_wall: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op" && s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect();
    emit.set(
        "trace.overhead_ratio",
        median(&traced_wall) / median(&untraced_wall),
        format!(
            "traced wall {:.6} s / untraced wall {:.6} s",
            median(&traced_wall),
            median(&untraced_wall)
        ),
    )?;

    let (lines, metrics_json) = emit.render(false)?;
    if worst < MIN_COVERAGE {
        return Err(format!(
            "{lines}trace.coverage {worst:.4} is below {MIN_COVERAGE}: a layer call is not inside a span"
        ));
    }
    Ok((
        Outcome {
            attempted: 2 * traced.len() + 1,
            failed,
            lines,
            metrics_json,
        },
        tracer,
    ))
}
