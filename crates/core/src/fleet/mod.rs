//! Fleet-scale trace aggregation: many-producer ingest, deterministic
//! compaction, cross-run rollup, and the corpus differ.
//!
//! The ROADMAP's north star is a fleet where millions of runs stream
//! findings into one aggregate view. This module is that backend's
//! in-process core, layered on the persistent trace format
//! ([`odp_trace::persist`]):
//!
//! ```text
//! producer threads ──► FleetIngest::submit(run_id, artifact bytes)
//!                            │   (serialized shard streams, any order)
//!                            ▼
//!                      FleetIngest::compact()
//!                        runs in parallel, one worker per core; per run:
//!                        lenient-decode every submission, sort the shard
//!                        blocks by content, merge their columns by
//!                        (start, id, block), run the fused engine
//!                            │                            ──► RunReport
//!                            ▼
//!                      Corpus { runs, fleet }
//!                        fleet rollup keyed by (codeptr, device, kind)
//!                            │
//!                            ▼
//!                      diff_corpora(base, new) ──► new/fixed/persisting
//!                        (the CI regression gate: `odp trace diff`)
//! ```
//!
//! Every stage is **scheduling-independent**: submissions may arrive in
//! any interleaving from any number of threads, and the compacted
//! corpus — including its JSON rendering — is identical, because event
//! ids embed their shard and the compactor orders everything by
//! content, never by arrival: shard blocks by [`ShardColumns`]' `Ord`
//! (shard id, then the op columns, then the target columns; blocks that
//! tie are identical, so their relative order cannot show), run reports
//! by run id, whichever worker produced them. The `fleet_ingest` stress
//! suite pins this under free-running and pinned harnesses.

use crate::analysis::infer_num_devices_columnar;
pub use crate::detect::{charges, Charge, Evidence, FindingKind};
use crate::detect::{EventView, Findings, IssueCounts};
use odp_model::TraceHealth;
use odp_trace::persist::{load_trace_lenient, ShardColumns, TraceArtifact};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One run's findings at one source site, keyed the way the fleet
/// rollup (and the static-mapping consumer downstream) wants them:
/// `(codeptr, device, kind)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteFinding {
    /// Source site (code pointer of the offending directive).
    pub codeptr: u64,
    /// Raw device number the waste landed on (-1 = host).
    pub device: i32,
    /// Inefficiency class.
    pub kind: FindingKind,
    /// Redundant instances at this site (duplicates, trips, repeats…).
    pub count: u64,
    /// Bytes wasted at this site.
    pub bytes: u64,
}

/// The per-run row of a corpus: identity, health, Table 1 counts, and
/// the site-keyed findings the rollup aggregates.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Producer-chosen run identifier (e.g. `babelstream-0`).
    pub run_id: String,
    /// Monitored program name from the trace metadata.
    pub program: String,
    /// Merged quarantine accounting across the run's submissions.
    pub health: TraceHealth,
    /// Table 1-style issue counts from the fused engine.
    pub counts: IssueCounts,
    /// Findings keyed by `(codeptr, device, kind)`, ascending.
    pub findings: Vec<SiteFinding>,
}

/// One `(codeptr, device, kind)` site aggregated across every run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetEntry {
    /// Source site.
    pub codeptr: u64,
    /// Raw device number.
    pub device: i32,
    /// Inefficiency class.
    pub kind: FindingKind,
    /// Number of runs exhibiting the finding at this site.
    pub runs: u64,
    /// Total redundant instances across those runs.
    pub count: u64,
    /// Total bytes wasted across those runs.
    pub bytes: u64,
}

/// The fleet rollup: every finding site across every run, ascending by
/// `(codeptr, device, kind)`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Aggregated entries.
    pub entries: Vec<FleetEntry>,
}

/// A compacted corpus: per-run reports plus the fleet rollup. The
/// durable, diffable artifact `odp trace save` writes and
/// `odp trace diff` gates on.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    /// Per-run reports, ascending by `run_id`.
    pub runs: Vec<RunReport>,
    /// Cross-run rollup keyed by `(codeptr, device, kind)`.
    pub fleet: FleetReport,
}

impl Corpus {
    /// Deterministic pretty-JSON rendering (insertion-ordered objects,
    /// content-ordered arrays — byte-stable across schedulers).
    pub fn to_json(&self) -> String {
        // Invariant, not event data: the corpus is plain serializable
        // types; serialization cannot fail.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("corpus serialization cannot fail")
    }

    /// Parse a corpus back from its JSON rendering.
    pub fn from_json(s: &str) -> Result<Corpus, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// Extract `(codeptr, device, kind)`-keyed site findings from a fused
/// detection result: [`charges`] counted and summed per site.
pub fn site_findings(findings: &Findings) -> Vec<SiteFinding> {
    let mut sites: BTreeMap<(u64, i32, FindingKind), (u64, u64)> = BTreeMap::new();
    for c in charges(findings) {
        let e = sites
            .entry((c.codeptr, c.device, c.evidence.kind()))
            .or_insert((0, 0));
        e.0 += 1;
        e.1 += c.bytes;
    }
    sites
        .into_iter()
        .map(|((codeptr, device, kind), (count, bytes))| SiteFinding {
            codeptr,
            device,
            kind,
            count,
            bytes,
        })
        .collect()
}

/// Many-producer ingest service: concurrent producers submit serialized
/// trace artifacts ([`TraceArtifact::to_bytes`] output) under a run id;
/// [`FleetIngest::compact`] batch-merges each run deterministically and
/// rolls the fleet report up.
///
/// One run's shards may arrive split across any number of submissions,
/// in any order, from any thread. The compactor never trusts arrival
/// order: shard columns are canonically re-ordered by content before
/// the k-way `(start, id)` merge, so the corpus is a pure function of
/// the submitted bytes.
#[derive(Default)]
pub struct FleetIngest {
    /// run id → serialized submissions (arrival-ordered; order is
    /// deliberately ignored by compaction).
    runs: Mutex<BTreeMap<String, Vec<Vec<u8>>>>,
}

impl FleetIngest {
    /// An empty ingest service.
    pub fn new() -> FleetIngest {
        FleetIngest::default()
    }

    /// Submit one serialized trace artifact for `run_id`. Cheap (one
    /// lock, one move); safe from any thread.
    pub fn submit(&self, run_id: &str, bytes: Vec<u8>) {
        self.runs
            .lock()
            .entry(run_id.to_string())
            .or_default()
            .push(bytes);
    }

    /// Compact every run and roll the fleet report up. Deterministic:
    /// independent of submission order, thread count, and interleaving.
    ///
    /// Runs are independent, so they compact in parallel: one worker
    /// per available core (never more than there are runs; the caller's
    /// thread is one of them) takes the next run index from a shared
    /// counter and files its report under that index. Which worker
    /// compacted which run is invisible in the result — reports come
    /// out in run-id order and each is a pure function of its run's
    /// submitted bytes. Every in-flight run holds its decoded blocks
    /// and merged columns, so peak memory grows with the worker count.
    pub fn compact(&self) -> Corpus {
        let guard = self.runs.lock();
        let runs: Vec<(&String, &Vec<Vec<u8>>)> = guard.iter().collect();
        let slots: Vec<OnceLock<RunReport>> = runs.iter().map(|_| OnceLock::new()).collect();
        // Relaxed: the counter only hands out indices; the scope's join
        // is what publishes the filled slots to this thread.
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((run_id, submissions)) = runs.get(i) else {
                break;
            };
            // Index `i` was handed out once, so the slot is empty.
            let _ = slots[i].set(compact_run(run_id, submissions));
        };
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(runs.len());
        std::thread::scope(|sc| {
            for _ in 1..workers {
                sc.spawn(work);
            }
            work();
        });
        // Invariant, not event data: every index below `runs.len()` was
        // claimed by exactly one worker, and the scope returned only
        // after all of them finished (re-raising a worker's panic).
        #[allow(clippy::expect_used)]
        let reports: Vec<RunReport> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every run index was compacted"))
            .collect();
        drop(guard);
        let fleet = rollup(&reports);
        Corpus {
            runs: reports,
            fleet,
        }
    }
}

/// Deterministically merge one run's submissions and run the fused
/// engine over the combined trace: decode, order, merge, detect — each
/// submitted byte is read once and no data-op column is copied before
/// the merge.
fn compact_run(run_id: &str, submissions: &[Vec<u8>]) -> RunReport {
    let mut health = TraceHealth::default();
    // The run's program name: the least non-empty one any submission
    // carries (content-ordered, like everything else here).
    let mut program = String::new();
    let mut shards: Vec<ShardColumns> = Vec::new();
    for bytes in submissions {
        let artifact = load_trace_lenient(bytes);
        // Footer-supplied counters; `merge` saturates.
        health.merge(&artifact.health);
        let name = artifact.meta.program;
        if !name.is_empty() && (program.is_empty() || name < program) {
            program = name;
        }
        shards.extend(artifact.shards);
    }

    // Arrival order carries no meaning; content order does. Sorting the
    // blocks by their columns makes the combined part order — and with
    // it the (start, id, part) merge — a pure function of the data.
    // Honest producers' blocks differ at the shard id; blocks that
    // compare equal are identical, so an unstable sort is enough.
    shards.sort_unstable();

    // Producers are not trusted to keep (shard, seq) ids unique across
    // submissions: count every id claimed by more than one shard block
    // (within a block, merge-time accounting already ran on save). Only
    // blocks whose id ranges chain together are compared id by id; an
    // honest run's blocks never do, so it pays one pass over its ids.
    health.duplicate_ids = health.duplicate_ids.saturating_add(shared_ids(&shards));

    let cols = TraceArtifact {
        shards,
        ..TraceArtifact::default()
    }
    .columnar();
    let view = EventView::over(&cols, infer_num_devices_columnar(&cols));
    let findings = Findings::detect_fused(&view);
    RunReport {
        run_id: run_id.to_string(),
        program,
        health,
        counts: findings.counts(),
        findings: site_findings(&findings),
    }
}

/// How many times an id is claimed again by another shard block: an id
/// in c blocks counts c - 1 times.
///
/// Two blocks can share an id only when their `[min, max]` id ranges
/// intersect, and an honest run's blocks never do (ids carry the shard
/// in their high half). So one pass takes each block's range, a sweep
/// over the ranges sorted by `min` chains intersecting ones into
/// groups, and only a group of two or more blocks pools its ids: each
/// block's ids deduplicated, the pool sorted, repeats counted. The
/// ranges come from the ids themselves, never from the declared shard,
/// so a hostile id is counted wherever it lands.
fn shared_ids(shards: &[ShardColumns]) -> u64 {
    fn ids(s: &ShardColumns) -> impl Iterator<Item = u64> + '_ {
        s.ops.ids.iter().chain(&s.targets.ids).map(|id| id.0)
    }
    let mut ranges: Vec<(u64, u64, usize)> = shards
        .iter()
        .enumerate()
        .filter_map(|(b, s)| {
            let (lo, hi) = ids(s).fold((u64::MAX, 0), |(lo, hi), id| (lo.min(id), hi.max(id)));
            (lo <= hi).then_some((lo, hi, b))
        })
        .collect();
    ranges.sort_unstable();
    let mut shared = 0;
    let mut pool: Vec<u64> = Vec::new();
    let mut block: Vec<u64> = Vec::new();
    let mut group = 0;
    while group < ranges.len() {
        // The group runs on while the next range starts at or below the
        // highest id any range in it reaches.
        let mut reach = ranges[group].1;
        let mut end = group + 1;
        while end < ranges.len() && ranges[end].0 <= reach {
            reach = reach.max(ranges[end].1);
            end += 1;
        }
        if end - group > 1 {
            pool.clear();
            for &(_, _, b) in &ranges[group..end] {
                block.clear();
                block.extend(ids(&shards[b]));
                block.sort_unstable();
                block.dedup();
                pool.extend_from_slice(&block);
            }
            pool.sort_unstable();
            shared += pool.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        }
        group = end;
    }
    shared
}

/// Aggregate per-run site findings into the fleet rollup.
pub fn rollup(runs: &[RunReport]) -> FleetReport {
    let mut entries: BTreeMap<(u64, i32, FindingKind), (u64, u64, u64)> = BTreeMap::new();
    for run in runs {
        for f in &run.findings {
            let e = entries
                .entry((f.codeptr, f.device, f.kind))
                .or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += f.count;
            e.2 += f.bytes;
        }
    }
    FleetReport {
        entries: entries
            .into_iter()
            .map(
                |((codeptr, device, kind), (runs, count, bytes))| FleetEntry {
                    codeptr,
                    device,
                    kind,
                    runs,
                    count,
                    bytes,
                },
            )
            .collect(),
    }
}

/// The differ's classification of two corpora's fleet rollups.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct CorpusDiff {
    /// Sites present in the new corpus but not the baseline — the
    /// regressions a CI gate fails on.
    pub new: Vec<FleetEntry>,
    /// Sites present in the baseline but gone from the new corpus.
    pub fixed: Vec<FleetEntry>,
    /// Sites present in both (entry values from the new corpus).
    pub persisting: Vec<FleetEntry>,
}

impl CorpusDiff {
    /// Does this diff fail a regression gate?
    pub fn is_regression(&self) -> bool {
        !self.new.is_empty()
    }

    /// Deterministic pretty-JSON rendering.
    pub fn to_json(&self) -> String {
        // Invariant, not event data — plain serializable types.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(self).expect("diff serialization cannot fail")
    }

    /// Human-readable summary, one line per site.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut section = |title: &str, entries: &[FleetEntry]| {
            out.push_str(&format!("{title}: {}\n", entries.len()));
            for e in entries {
                out.push_str(&format!(
                    "  {} codeptr 0x{:x} dev {} — {} finding(s), {} byte(s), {} run(s)\n",
                    e.kind.code(),
                    e.codeptr,
                    e.device,
                    e.count,
                    e.bytes,
                    e.runs,
                ));
            }
        };
        section("new", &self.new);
        section("fixed", &self.fixed);
        section("persisting", &self.persisting);
        out
    }
}

/// Compare two corpora's fleet rollups site by site, classifying every
/// `(codeptr, device, kind)` key as new, fixed, or persisting.
pub fn diff_corpora(base: &Corpus, new: &Corpus) -> CorpusDiff {
    let key = |e: &FleetEntry| (e.codeptr, e.device, e.kind);
    let base_keys: BTreeMap<_, &FleetEntry> =
        base.fleet.entries.iter().map(|e| (key(e), e)).collect();
    let new_keys: BTreeMap<_, &FleetEntry> =
        new.fleet.entries.iter().map(|e| (key(e), e)).collect();
    let mut diff = CorpusDiff::default();
    for (k, e) in &new_keys {
        if base_keys.contains_key(k) {
            diff.persisting.push(**e);
        } else {
            diff.new.push(**e);
        }
    }
    for (k, e) in &base_keys {
        if !new_keys.contains_key(k) {
            diff.fixed.push(**e);
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::{CodePtr, DataOpKind, DeviceId, SimTime, TargetKind, TimeSpan};
    use odp_trace::TraceLog;

    fn span(a: u64, b: u64) -> TimeSpan {
        TimeSpan::new(SimTime(a), SimTime(b))
    }

    /// A trace with one duplicate-transfer site: the same payload sent
    /// to device 0 twice from codeptr 0x100, plus a kernel so the
    /// transfers count as used.
    fn duplicate_trace() -> TraceLog {
        let mut log = TraceLog::new();
        for t in [0u64, 20] {
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000,
                0x8000,
                64,
                Some(0xfeed),
                span(t, t + 10),
                CodePtr(0x100),
            );
            log.record_target(
                TargetKind::Kernel,
                DeviceId::target(0),
                span(t + 11, t + 15),
                CodePtr(0x200),
            );
        }
        log
    }

    fn corpus_of(log: &TraceLog, run_id: &str) -> Corpus {
        let ingest = FleetIngest::new();
        let artifact = TraceArtifact::from_log(log, "test", TraceHealth::default());
        ingest.submit(run_id, artifact.to_bytes());
        ingest.compact()
    }

    #[test]
    fn compaction_reports_site_findings() {
        let corpus = corpus_of(&duplicate_trace(), "dup-0");
        assert_eq!(corpus.runs.len(), 1);
        let run = &corpus.runs[0];
        assert_eq!(run.run_id, "dup-0");
        assert_eq!(run.counts.dd, 1);
        let dd: Vec<_> = run
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::DuplicateTransfer)
            .collect();
        assert_eq!(dd.len(), 1);
        assert_eq!(dd[0].codeptr, 0x100);
        assert_eq!(dd[0].device, 0);
        assert_eq!(dd[0].count, 1);
        assert_eq!(dd[0].bytes, 64);
        assert_eq!(corpus.fleet.entries.len(), run.findings.len());
    }

    #[test]
    fn corpus_json_round_trips() {
        let corpus = corpus_of(&duplicate_trace(), "dup-0");
        let json = corpus.to_json();
        let parsed = Corpus::from_json(&json).unwrap();
        assert_eq!(parsed, corpus);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn diff_classifies_new_fixed_persisting() {
        let base = corpus_of(&duplicate_trace(), "run");
        let clean = corpus_of(&TraceLog::new(), "run");
        let d = diff_corpora(&base, &clean);
        assert!(!d.is_regression());
        assert!(d.new.is_empty());
        assert_eq!(d.fixed.len(), base.fleet.entries.len());
        assert!(d.persisting.is_empty());

        let d2 = diff_corpora(&clean, &base);
        assert!(d2.is_regression());
        assert_eq!(d2.new.len(), base.fleet.entries.len());

        let d3 = diff_corpora(&base, &base);
        assert!(!d3.is_regression());
        assert_eq!(d3.persisting.len(), base.fleet.entries.len());
        assert!(d3.render().contains("persisting"));
    }

    #[test]
    fn split_submissions_merge_like_one() {
        // One run's two shards submitted separately must compact to the
        // same corpus as one combined submission.
        let mut a = TraceLog::for_shard(0);
        let mut b = TraceLog::for_shard(1);
        for t in [0u64, 20] {
            a.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000,
                0x8000,
                64,
                Some(0xfeed),
                span(t, t + 10),
                CodePtr(0x100),
            );
        }
        b.record_target(
            TargetKind::Kernel,
            DeviceId::target(0),
            span(31, 35),
            CodePtr(0x200),
        );

        let combined = FleetIngest::new();
        let merged = TraceLog::merge_shards(vec![
            {
                let mut l = TraceLog::for_shard(0);
                for t in [0u64, 20] {
                    l.record_data_op(
                        DataOpKind::Transfer,
                        DeviceId::HOST,
                        DeviceId::target(0),
                        0x1000,
                        0x8000,
                        64,
                        Some(0xfeed),
                        span(t, t + 10),
                        CodePtr(0x100),
                    );
                }
                l
            },
            {
                let mut l = TraceLog::for_shard(1);
                l.record_target(
                    TargetKind::Kernel,
                    DeviceId::target(0),
                    span(31, 35),
                    CodePtr(0x200),
                );
                l
            },
        ]);
        combined.submit(
            "r",
            TraceArtifact::from_log(&merged, "p", TraceHealth::default()).to_bytes(),
        );

        let split = FleetIngest::new();
        // Reverse arrival order on purpose.
        split.submit(
            "r",
            TraceArtifact::from_log(&b, "p", TraceHealth::default()).to_bytes(),
        );
        split.submit(
            "r",
            TraceArtifact::from_log(&a, "p", TraceHealth::default()).to_bytes(),
        );

        assert_eq!(split.compact().to_json(), combined.compact().to_json());
    }

    #[test]
    fn colliding_submissions_are_counted_as_duplicates() {
        // Two producers both claim shard 0 with overlapping seqs.
        let log = duplicate_trace();
        let ingest = FleetIngest::new();
        let bytes = TraceArtifact::from_log(&log, "p", TraceHealth::default()).to_bytes();
        ingest.submit("r", bytes.clone());
        ingest.submit("r", bytes);
        let corpus = ingest.compact();
        let run = &corpus.runs[0];
        assert_eq!(
            run.health.duplicate_ids, 4,
            "every id claimed twice: 2 ops + 2 kernels"
        );
        assert!(run.health.warning().is_some());
    }

    /// The oracle `shared_ids` must equal: every block's deduplicated
    /// ids in one sorted pool, each repeat one extra claim.
    fn pooled_ids(shards: &[ShardColumns]) -> u64 {
        let mut pool: Vec<u64> = Vec::new();
        for s in shards {
            let mut block: Vec<u64> = s
                .ops
                .ids
                .iter()
                .chain(&s.targets.ids)
                .map(|id| id.0)
                .collect();
            block.sort_unstable();
            block.dedup();
            pool.extend(block);
        }
        pool.sort_unstable();
        pool.windows(2).filter(|w| w[0] == w[1]).count() as u64
    }

    /// A block declaring `shard` whose op and target columns hold these
    /// ids; only the id columns matter to the count.
    fn block(shard: u32, ops: &[u64], targets: &[u64]) -> ShardColumns {
        use odp_model::EventId;
        let mut b = ShardColumns {
            shard,
            ..ShardColumns::default()
        };
        b.ops.ids = ops.iter().map(|&id| EventId(id)).collect();
        b.targets.ids = targets.iter().map(|&id| EventId(id)).collect();
        b
    }

    /// Id `seq` of shard `shard`, as producers build them.
    fn id(shard: u64, seq: u64) -> u64 {
        shard << 32 | seq
    }

    #[test]
    fn the_range_count_equals_the_pooled_count() {
        let cases: Vec<(&str, Vec<ShardColumns>, u64)> = vec![
            (
                "disjoint ranges",
                (0..4)
                    .map(|s| block(s, &[id(s.into(), 0), id(s.into(), 7)], &[id(s.into(), 3)]))
                    .collect(),
                0,
            ),
            (
                "one range nested in another, no shared id",
                vec![block(0, &[0, 100], &[]), block(1, &[10, 20], &[30])],
                0,
            ),
            (
                // B nests in A and ends before C starts: only A's reach
                // puts C in the group.
                "a nested range, and a shared id past its end",
                vec![
                    block(0, &[0, 55, 100], &[]),
                    block(1, &[10, 20], &[]),
                    block(2, &[50, 55, 60], &[]),
                ],
                1,
            ),
            (
                "identical duplicate blocks",
                vec![block(0, &[1, 2, 3], &[4, 5]); 3],
                10,
            ),
            (
                "a chain: A meets B and B meets C, A does not meet C",
                vec![
                    block(0, &[0, 9, 10], &[]),
                    block(1, &[8, 9], &[19, 20]),
                    block(2, &[18, 19, 30], &[]),
                ],
                2,
            ),
            (
                "empty blocks",
                vec![
                    block(0, &[], &[]),
                    block(1, &[1, 2], &[]),
                    block(2, &[], &[]),
                    block(3, &[], &[2]),
                ],
                1,
            ),
            (
                "a block carrying another shard's high half",
                vec![
                    block(0, &[id(0, 0), id(0, 1), id(0, 2)], &[]),
                    block(1, &[id(1, 0), id(0, 1)], &[id(1, 1)]),
                    block(2, &[id(2, 0)], &[id(2, 1), id(0, 2)]),
                ],
                2,
            ),
            (
                "ops and targets of one block claim the same id",
                vec![block(0, &[4, 4, 5], &[5]), block(1, &[6], &[])],
                0,
            ),
        ];
        for (what, shards, expected) in &cases {
            assert_eq!(pooled_ids(shards), *expected, "oracle: {what}");
            assert_eq!(shared_ids(shards), *expected, "{what}");
        }

        // Generated sets: few shards, short seq ranges, some ids under
        // another shard's high half, some blocks empty or repeated.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..2_000 {
            let mut shards: Vec<ShardColumns> = Vec::new();
            for _ in 0..next(7) {
                if !shards.is_empty() && next(6) == 0 {
                    let again = shards[next(shards.len() as u64) as usize].clone();
                    shards.push(again);
                    continue;
                }
                let shard = next(4);
                // Up to `most - 1` ids, mostly under the block's shard.
                let mut ids = |most: u64| -> Vec<u64> {
                    let len = next(most);
                    (0..len)
                        .map(|_| {
                            let high = if next(8) == 0 { next(4) } else { shard };
                            let base = next(3) * 40;
                            id(high, base + next(24))
                        })
                        .collect()
                };
                let (ops, targets) = (ids(12), ids(5));
                shards.push(block(shard as u32, &ops, &targets));
            }
            shards.sort_unstable();
            assert_eq!(shared_ids(&shards), pooled_ids(&shards), "{shards:?}");
        }
    }

    #[test]
    fn corrupt_submission_degrades_health_not_process() {
        let ingest = FleetIngest::new();
        ingest.submit("r", b"definitely not a trace".to_vec());
        let corpus = ingest.compact();
        assert_eq!(corpus.runs[0].health.unreadable, 1);
        assert_eq!(corpus.runs[0].counts, IssueCounts::default());
    }
}
