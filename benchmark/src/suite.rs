//! `suite_postmortem`: the paper's Figure 2 shape on real programs.
//!
//! One op is a pass over all 15 programs (`odp_workloads::all()`,
//! Medium, original variant): per program an untooled sample, then a
//! tooled sample — default tool, run, `finish`, `take_trace`,
//! `analyze_named`, console report **and** JSON. Simulator, callback
//! and hashing of real payloads (66 MB babelstream, 17 MB xsbench,
//! 14 MB minife) do most of the work; detection does almost none.
//! Deterministic: the seed is ignored.

use crate::check::{count_metrics, findings_digest, sum_counts, SUITE_GOLDEN};
use crate::harness::{OpSample, TracedSample, Workload};
use crate::live::{postmortem, record_tool_threads, secs, traced_postmortem, LiveCounts};
use crate::span::Tracer;
use crate::timed_tool::TimedTool;
use odp_sim::Runtime;
use odp_workloads::{ProblemSize, Variant};
use ompdataperf::{IssueCounts, OmpDataPerfTool, ToolConfig};
use std::hint::black_box;
use std::time::Instant;

const SIZE: ProblemSize = ProblemSize::Medium;
const VARIANT: Variant = Variant::Original;

/// Runs per sample, `odp_workloads::all()` order: a program whose run
/// is shorter than 5 ms repeats a fixed count inside one sample, so its
/// paired ratio is not a ratio of two timer readings. Fixed, not
/// calibrated at run time: every run does identical work.
const REPEATS: [usize; 15] = [1, 24, 12, 32, 1, 96, 48, 8, 1, 1, 3, 8, 2, 16, 2];

struct Program {
    workload: Box<dyn odp_workloads::Workload>,
    repeats: usize,
    golden: IssueCounts,
    /// Findings digest of the warm-up op (composed path); every later
    /// op, traced or not, must reproduce it.
    digest: Option<u64>,
}

pub struct Suite {
    programs: Vec<Program>,
}

fn run_untooled(w: &dyn odp_workloads::Workload) {
    let mut rt = Runtime::with_defaults();
    w.run(&mut rt, SIZE, VARIANT);
    black_box(rt.finish());
}

/// Counts equal the golden table; findings equal the first op's.
fn verify(golden: IssueCounts, first: &mut Option<u64>, counts: IssueCounts, digest: u64) -> bool {
    counts == golden && *first.get_or_insert(digest) == digest
}

impl Workload for Suite {
    fn set_up(_seed: u64) -> Result<Suite, String> {
        let programs = odp_workloads::all()
            .into_iter()
            .zip(SUITE_GOLDEN)
            .zip(REPEATS)
            .map(|((workload, (name, golden)), repeats)| {
                if workload.name() != name {
                    return Err(format!(
                        "golden table names {name}, suite has {}",
                        workload.name()
                    ));
                }
                Ok(Program {
                    workload,
                    repeats,
                    golden,
                    digest: None,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if programs.len() != SUITE_GOLDEN.len() {
            return Err(format!("suite has {} programs, not 15", programs.len()));
        }
        let mut suite = Suite { programs };
        if !suite.op().ok {
            return Err("suite warm-up pass: finding counts differ from the golden table".into());
        }
        Ok(suite)
    }

    fn op(&mut self) -> OpSample {
        let mut sample = OpSample {
            wall_s: 0.0,
            report_latency_s: 0.0,
            ratios: Vec::with_capacity(self.programs.len()),
            ok: true,
        };
        for p in &mut self.programs {
            let w = p.workload.as_ref();
            let start = Instant::now();
            for _ in 0..p.repeats {
                run_untooled(w);
            }
            let untooled = start.elapsed().as_secs_f64();

            let mut program_phase = 0.0;
            for _ in 0..p.repeats {
                let t0 = Instant::now();
                let (tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
                let mut rt = Runtime::with_defaults();
                rt.attach_tool(Box::new(tool));
                let dbg = w.run(&mut rt, SIZE, VARIANT);
                rt.finish();
                let t1 = Instant::now();
                let (_trace, report) = postmortem(&handle, &dbg, w.name());
                black_box(report.render().len() + report.to_json().len());
                let t2 = Instant::now();
                program_phase += secs(t0, t1);
                sample.report_latency_s += secs(t1, t2);
                let digest = findings_digest(&report.findings);
                sample.ok &= verify(p.golden, &mut p.digest, report.counts, digest);
            }
            sample.wall_s += program_phase;
            sample.ratios.push(program_phase / untooled);
        }
        sample.wall_s += sample.report_latency_s;
        sample
    }

    fn ratio_labels(&self) -> Vec<String> {
        let label = |p: &Program| format!("{} (x{})", p.workload.name(), p.repeats);
        self.programs.iter().map(label).collect()
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> TracedSample {
        let mut ok = true;
        let mut counts = LiveCounts::default();
        for p in &self.programs {
            let w = p.workload.as_ref();
            for _ in 0..p.repeats {
                tr.span("sim.run", |_| run_untooled(w));
            }
        }
        // Verification waits until the op span has closed.
        let mut runs = Vec::new();
        tr.span("op", |tr| {
            for (ix, p) in self.programs.iter().enumerate() {
                let w = p.workload.as_ref();
                for _ in 0..p.repeats {
                    let (handle, times, mut rt) = tr.span("tool.new", |_| {
                        let (tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
                        let (tool, times) = TimedTool::new(tool);
                        let mut rt = Runtime::with_defaults();
                        rt.attach_tool(Box::new(tool));
                        (handle, times, rt)
                    });
                    let (dbg, times) = tr.span("program", |tr| {
                        let dbg = w.run(&mut rt, SIZE, VARIANT);
                        rt.finish();
                        let times = [*times.lock().expect("TimedTool published")];
                        record_tool_threads(tr, &times, handle.hash_meter().nanos);
                        (dbg, times)
                    });
                    let (trace, report) = traced_postmortem(tr, &handle, &dbg, w.name());
                    let text = tr.span("report.render", |_| report.render());
                    let json = tr.span("report.json", |_| report.to_json());
                    runs.push((ix, trace, report, handle, times, text.len() + json.len()));
                }
            }
        });
        for (ix, trace, report, handle, times, report_bytes) in &runs {
            counts.add_run(trace, report, handle, times, *report_bytes);
            let p = &mut self.programs[*ix];
            let digest = findings_digest(&report.findings);
            ok &= verify(p.golden, &mut p.digest, report.counts, digest);
        }
        // Finding counts of one pass: each program once, not per repeat.
        let pass = sum_counts(self.programs.iter().map(|p| &p.golden));
        let mut counts = counts.metrics();
        counts.extend(count_metrics(&pass));
        TracedSample { counts, ok }
    }
}
