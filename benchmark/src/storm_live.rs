//! `storm_postmortem` and `storm_stream`: the 1.2 M-event regime.
//!
//! Both run the **identical** seeded storm program
//! ([`crate::storm`]); only `ToolConfig::stream` differs. One op is an
//! untooled run, then a tooled run with the report pipeline of that
//! mode and the console report (no JSON: at this scale `to_json`
//! dwarfs every other layer; the suite keeps it).
//!
//! * post-mortem: hydration, index build, fused sweep and section
//!   building do most of the work; hashing almost none.
//! * stream: the same detectors the other way round — incremental
//!   behind ring, watermark and reorder — so a detector change that
//!   helps one driver and costs the other shows.

use crate::check::{
    count_metrics, findings_digest, DEFAULT_SEED, STORM_GOLDEN_COUNTS, STORM_GOLDEN_DIGEST,
    STORM_GOLDEN_EVENTS,
};
use crate::harness::{OpSample, TracedSample, Workload};
use crate::live::{
    postmortem, record_tool_threads, secs, streamed, traced_postmortem, traced_streamed, LiveCounts,
};
use crate::span::Tracer;
use crate::storm::{StormProgram, FULL_REGIONS, THREADS};
use crate::timed_tool::{SharedTimes, TimedTool, ToolTimes};
use odp_ompt::Tool;
use odp_trace::TraceLog;
use ompdataperf::detect::EventView;
use ompdataperf::{Findings, IssueCounts, OmpDataPerfTool, Report, ToolConfig, ToolHandle};
use std::hint::black_box;
use std::time::Instant;

const PROGRAM: &str = "storm";

/// One shard per storm thread, optionally behind `TimedTool`s.
pub fn shards(stream: bool, timed: bool) -> (Vec<Box<dyn Tool>>, ToolHandle, Vec<SharedTimes>) {
    let (first, handle) = OmpDataPerfTool::new(ToolConfig {
        stream,
        ..Default::default()
    });
    let mut shards = vec![first];
    shards.extend((1..THREADS).map(|_| handle.fork_tool()));
    let mut tools: Vec<Box<dyn Tool>> = Vec::new();
    let mut times = Vec::new();
    for shard in shards {
        if timed {
            let (tool, shared) = TimedTool::new(shard);
            tools.push(Box::new(tool));
            times.push(shared);
        } else {
            tools.push(Box::new(shard));
        }
    }
    (tools, handle, times)
}

fn published(times: &[SharedTimes]) -> Vec<ToolTimes> {
    times
        .iter()
        .map(|t| *t.lock().expect("TimedTool published"))
        .collect()
}

/// What every run of this seed's program must reproduce.
struct Reference {
    events: usize,
    counts: IssueCounts,
    digest: u64,
}

impl Reference {
    fn of(trace: &TraceLog, report: &Report) -> Reference {
        Reference {
            events: trace.data_op_count() + trace.target_count(),
            counts: report.counts,
            digest: findings_digest(&report.findings),
        }
    }

    fn matches(&self, trace: &TraceLog, report: &Report) -> bool {
        let got = Reference::of(trace, report);
        (got.events, got.counts, got.digest) == (self.events, self.counts, self.digest)
    }
}

/// The storm under the default tool (`STREAM = false`) or the
/// streaming tool (`STREAM = true`).
pub struct StormLive<const STREAM: bool> {
    program: StormProgram,
    /// Post-mortem findings of this seed's program. The stream ops are
    /// held to them too: that is the cross-mode check.
    reference: Reference,
}

pub type StormPostmortem = StormLive<false>;
pub type StormStream = StormLive<true>;

impl<const STREAM: bool> Workload for StormLive<STREAM> {
    fn set_up(seed: u64) -> Result<Self, String> {
        let program = StormProgram::generate(seed, FULL_REGIONS, 0);
        let (tools, handle, _) = shards(false, false);
        program.run(tools);
        let (trace, report) = postmortem(&handle, program.debug_info(), PROGRAM);
        let reference = Reference::of(&trace, &report);
        drop((trace, report));

        let c = reference.counts;
        if [c.dd, c.rt, c.ra, c.ua, c.ut].contains(&0) {
            return Err(format!(
                "storm seed {seed}: a finding kind is missing: {c:?}"
            ));
        }
        let golden = (
            STORM_GOLDEN_EVENTS,
            STORM_GOLDEN_COUNTS,
            STORM_GOLDEN_DIGEST,
        );
        if seed == DEFAULT_SEED && (reference.events, c, reference.digest) != golden {
            return Err(format!(
                "storm default seed: events {} counts {c:?} digest {:#x} differ from the pinned {golden:?}",
                reference.events, reference.digest
            ));
        }
        let mut workload = StormLive { program, reference };
        if !workload.op().ok {
            return Err(
                "storm warm-up pair: findings differ from the post-mortem reference".into(),
            );
        }
        Ok(workload)
    }

    fn op(&mut self) -> OpSample {
        let dbg = self.program.debug_info();
        let start = Instant::now();
        self.program.run_untooled();
        let untooled = start.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let (tools, handle, _) = shards(STREAM, false);
        self.program.run(tools);
        let t1 = Instant::now();
        let (trace, report) = if STREAM {
            streamed(&handle, dbg, PROGRAM)
        } else {
            postmortem(&handle, dbg, PROGRAM)
        };
        black_box(report.render().len());
        let t2 = Instant::now();

        OpSample {
            wall_s: secs(t0, t2),
            report_latency_s: secs(t1, t2),
            ratios: vec![secs(t0, t1) / untooled],
            ok: self.reference.matches(&trace, &report),
        }
    }

    fn ratio_labels(&self) -> Vec<String> {
        vec!["tooled run / untooled run".into()]
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> TracedSample {
        let dbg = self.program.debug_info();
        tr.span("sim.run", |_| self.program.run_untooled());

        // The same program under the post-mortem tool, for
        // `tool.stream_increment_s`; no spans, its trace is dropped.
        let postmortem_callback_ns: u64 = if STREAM {
            let (tools, handle, times) = shards(false, true);
            self.program.run(tools);
            drop(handle.take_trace());
            published(&times)
                .iter()
                .map(ToolTimes::total_callback_ns)
                .sum()
        } else {
            0
        };

        let (trace, report, handle, times, buffers, report_bytes) = tr.span("op", |tr| {
            let (tools, handle, times) = tr.span("tool.new", |_| shards(STREAM, true));
            let times = tr.span("program", |tr| {
                self.program.run(tools);
                let times = published(&times);
                record_tool_threads(tr, &times, handle.hash_meter().nanos);
                times
            });
            let (trace, report, buffers) = if STREAM {
                let (trace, report, buffers) = traced_streamed(tr, &handle, dbg, PROGRAM);
                (trace, report, Some(buffers))
            } else {
                let (trace, report) = traced_postmortem(tr, &handle, dbg, PROGRAM);
                (trace, report, None)
            };
            let text = tr.span("report.render", |_| report.render());
            (trace, report, handle, times, buffers, text.len())
        });

        let mut live = LiveCounts::default();
        live.add_run(&trace, &report, &handle, &times, report_bytes);
        let mut counts = live.metrics();
        counts.extend(count_metrics(&report.counts));
        if let Some(buffers) = buffers {
            let callback_ns: u64 = times.iter().map(ToolTimes::total_callback_ns).sum();
            counts.extend([
                (
                    "tool.stream_increment_s",
                    (callback_ns as f64 - postmortem_callback_ns as f64) * 1e-9,
                ),
                ("tool.ring_spilled", handle.spilled_events() as f64),
                ("stream.buffered_peak", buffers.buffered_peak as f64),
                ("stream.frontier_peak", buffers.frontier_peak as f64),
                ("stream.frontier_spilled", buffers.frontier_spilled as f64),
            ]);
        }
        TracedSample {
            counts,
            ok: self.reference.matches(&trace, &report),
        }
    }

    /// The reference passes over the storm trace: the check that needs
    /// no pinned value, so it also holds a non-default seed to account.
    fn oracle(&mut self) -> Result<(), String> {
        let (tools, handle, _) = shards(false, false);
        self.program.run(tools);
        let trace = handle.take_trace();
        let devices = EventView::from_log(&trace).num_devices;
        let separate = Findings::detect_separate(
            trace.data_op_events_sorted(),
            trace.kernel_events_sorted(),
            devices,
        );
        if findings_digest(&separate) == self.reference.digest {
            Ok(())
        } else {
            Err("storm oracle: Findings::detect_separate disagrees with the fused sweep".into())
        }
    }
}
