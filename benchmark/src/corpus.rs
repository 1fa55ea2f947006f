//! `corpus_gate`: the `odp trace save / load / diff` CI gate, in memory.
//!
//! No program, no callbacks, no simulator inside the op:
//! `odp_trace::persist` and `ompdataperf::fleet` do all the work, so
//! every collection-side optimisation must predict **no change** here,
//! and this is where a zero-copy `.odpt` load or a cheaper shard sort
//! key shows. `compact` runs the fused sweep per run — a second
//! consumer of that layer. Bytes stay in memory: no disk is measured.
//!
//! Set-up captures [`RUNS`] storm traces (seeds `seed..seed + RUNS`,
//! together as many events as one full storm) and builds the reference
//! corpus from [`RUNS`] shorter traces whose call sites are shifted, so
//! the diff has new, fixed and persisting sites.

use crate::check::{
    count_metrics, sum_counts, words_digest, CORPUS_GOLDEN_DIGEST, CORPUS_GOLDEN_SITES,
    DEFAULT_SEED,
};
use crate::harness::{OpSample, TracedSample, Workload};
use crate::live::secs;
use crate::span::Tracer;
use crate::storm::{StormProgram, FULL_REGIONS};
use crate::storm_live::shards;
use odp_trace::persist::load_trace;
use odp_trace::TraceArtifact;
use ompdataperf::analysis::infer_num_devices_columnar;
use ompdataperf::detect::EventView;
use ompdataperf::fleet::{diff_corpora, Corpus, CorpusDiff, FleetEntry, FleetIngest};
use ompdataperf::Findings;
use std::hint::black_box;
use std::time::Instant;

/// Traces per corpus.
const RUNS: u64 = 8;
const NEW_REGIONS: usize = FULL_REGIONS / RUNS as usize;
const REFERENCE_REGIONS: usize = NEW_REGIONS / 4;
/// The reference corpus' call sites sit this many sites further on.
const REFERENCE_SITE_SHIFT: u64 = 4;
const REFERENCE_SEED_OFFSET: u64 = 1_000;

/// Run one storm under the default tool and snapshot its trace the way
/// `odp trace save` does.
pub fn capture(seed: u64, regions_per_thread: usize, site_shift: u64) -> TraceArtifact {
    let program = StormProgram::generate(seed, regions_per_thread, site_shift);
    let (tools, handle, _) = shards(false, false);
    program.run(tools);
    let trace = handle.take_trace();
    let mut health = handle.trace_health();
    health.duplicate_ids += trace.duplicate_id_count();
    TraceArtifact::from_log(&trace, "storm", health)
}

fn run_id(i: usize) -> String {
    format!("run{i}")
}

/// Sizes of the diff's three site sets and a digest of their entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DiffShape {
    sites: (usize, usize, usize),
    digest: u64,
}

impl DiffShape {
    fn of(diff: &CorpusDiff) -> DiffShape {
        let entry = |e: &FleetEntry| {
            [
                e.codeptr,
                e.device as u64,
                e.kind as u64,
                e.runs,
                e.count,
                e.bytes,
            ]
        };
        let words = [&diff.new, &diff.fixed, &diff.persisting]
            .into_iter()
            .flat_map(|set| std::iter::once(set.len() as u64).chain(set.iter().flat_map(entry)));
        DiffShape {
            sites: (diff.new.len(), diff.fixed.len(), diff.persisting.len()),
            digest: words_digest(words),
        }
    }
}

pub struct CorpusGate {
    artifacts: Vec<TraceArtifact>,
    reference: Corpus,
    /// The warm-up op's diff; every later op must reproduce it.
    expected: Option<DiffShape>,
}

/// What one gate op produced, for verification outside the timed region.
struct GateOutput {
    loaded: Vec<TraceArtifact>,
    corpus: Corpus,
    diff: CorpusDiff,
    persist_bytes: usize,
}

impl CorpusGate {
    fn verify(&mut self, out: &GateOutput) -> bool {
        let shape = DiffShape::of(&out.diff);
        out.loaded == self.artifacts && *self.expected.get_or_insert(shape) == shape
    }
}

impl Workload for CorpusGate {
    fn set_up(seed: u64) -> Result<CorpusGate, String> {
        // Wrapping: any u64 is a valid seed.
        let nth = |base: u64, i: u64| seed.wrapping_add(base).wrapping_add(i);
        let artifacts = (0..RUNS)
            .map(|i| capture(nth(0, i), NEW_REGIONS, 0))
            .collect();
        let ingest = FleetIngest::new();
        for i in 0..RUNS {
            let run = capture(
                nth(REFERENCE_SEED_OFFSET, i),
                REFERENCE_REGIONS,
                REFERENCE_SITE_SHIFT,
            );
            ingest.submit(&run_id(i as usize), run.to_bytes());
        }
        let mut gate = CorpusGate {
            artifacts,
            reference: ingest.compact(),
            expected: None,
        };
        if !gate.op().ok {
            return Err("corpus warm-up op: a loaded artifact differs from its source".into());
        }
        let shape = gate.expected.expect("the warm-up op recorded its diff");
        if shape.sites.0 == 0 || shape.sites.1 == 0 || shape.sites.2 == 0 {
            return Err(format!(
                "corpus seed {seed}: an empty site set: {:?}",
                shape.sites
            ));
        }
        let golden = DiffShape {
            sites: CORPUS_GOLDEN_SITES,
            digest: CORPUS_GOLDEN_DIGEST,
        };
        if seed == DEFAULT_SEED && shape != golden {
            return Err(format!(
                "corpus default seed: diff {:?} digest {:#x} differs from the pinned {golden:?}",
                shape.sites, shape.digest
            ));
        }
        Ok(gate)
    }

    fn op(&mut self) -> OpSample {
        // Baseline of the paired ratio: the analysis the gate wraps,
        // straight over the in-memory artifacts.
        let start = Instant::now();
        for a in &self.artifacts {
            let cols = a.columnar();
            let view = EventView::over(&cols, infer_num_devices_columnar(&cols));
            black_box(Findings::detect_fused(&view).counts());
        }
        let direct = start.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let bytes: Vec<Vec<u8>> = self.artifacts.iter().map(TraceArtifact::to_bytes).collect();
        let persist_bytes = bytes.iter().map(Vec::len).sum();
        let loaded: Vec<TraceArtifact> = bytes
            .iter()
            .map(|b| load_trace(b).expect("a trace just saved loads"))
            .collect();
        for a in &loaded {
            black_box(a.columnar().ops.len());
        }
        let ingest = FleetIngest::new();
        for (i, b) in bytes.into_iter().enumerate() {
            ingest.submit(&run_id(i), b);
        }
        let t1 = Instant::now();
        let corpus = ingest.compact();
        let diff = diff_corpora(&self.reference, &corpus);
        black_box(diff.render().len() + diff.to_json().len() + corpus.to_json().len());
        let t2 = Instant::now();

        let out = GateOutput {
            loaded,
            corpus,
            diff,
            persist_bytes,
        };
        OpSample {
            wall_s: secs(t0, t2),
            report_latency_s: secs(t1, t2),
            ratios: vec![secs(t0, t2) / direct],
            ok: self.verify(&out),
        }
    }

    fn ratio_labels(&self) -> Vec<String> {
        vec!["gate / direct analysis".into()]
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> TracedSample {
        let (out, rendered) = tr.span("op", |tr| {
            let bytes: Vec<Vec<u8>> = tr.span("persist.save", |_| {
                self.artifacts.iter().map(TraceArtifact::to_bytes).collect()
            });
            let persist_bytes = bytes.iter().map(Vec::len).sum();
            let loaded: Vec<TraceArtifact> = tr.span("persist.load", |_| {
                bytes
                    .iter()
                    .map(|b| load_trace(b).expect("a trace just saved loads"))
                    .collect()
            });
            tr.span("trace.hydrate", |_| {
                for a in &loaded {
                    black_box(a.columnar().ops.len());
                }
            });
            let ingest = tr.span("fleet.submit", |_| {
                let ingest = FleetIngest::new();
                for (i, b) in bytes.into_iter().enumerate() {
                    ingest.submit(&run_id(i), b);
                }
                ingest
            });
            let corpus = tr.span("fleet.compact", |_| ingest.compact());
            let diff = tr.span("fleet.diff", |_| diff_corpora(&self.reference, &corpus));
            let rendered = tr.span("fleet.render", |_| {
                diff.render().len() + diff.to_json().len() + corpus.to_json().len()
            });
            let out = GateOutput {
                loaded,
                corpus,
                diff,
                persist_bytes,
            };
            (out, rendered)
        });

        let events: usize = self
            .artifacts
            .iter()
            .map(|a| a.data_op_count() + a.target_count())
            .sum();
        let record_bytes: usize = self
            .artifacts
            .iter()
            .map(|a| a.space_stats().record_bytes)
            .sum();
        let total = sum_counts(out.corpus.runs.iter().map(|r| &r.counts));
        let mut counts = vec![
            ("persist.bytes", out.persist_bytes as f64),
            ("fleet.sites", out.corpus.fleet.entries.len() as f64),
            ("report.bytes", rendered as f64),
            ("events", events as f64),
            ("trace.bytes_per_event", record_bytes as f64 / events as f64),
        ];
        counts.extend(count_metrics(&total));
        TracedSample {
            counts,
            ok: self.verify(&out),
        }
    }
}
