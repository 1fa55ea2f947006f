//! Property suite for the columnar trace hydration: on seeded
//! shard-interleaved traces,
//! `TraceLog::columnar()` must equal an *independent* row-by-row
//! hydration field for field, and every detection path must be
//! byte-identical whether it sweeps the columnar view or the rows.
//!
//! The independent oracle is deliberately not `data_op_events()` (that
//! accessor is itself a gather from the columnar view): the shard
//! partitioner in `common/mod.rs` produces the merged chronological
//! rows by plain concat-and-stable-sort of the original row events,
//! sharing no code with the record hydration or the k-way merge under
//! test.

mod common;

use common::{assert_live_matches, random_trace, shard_partition, ShardedTrace};
use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, SimDuration, SimTime, TargetEvent, TargetKind,
    TimeSpan, TraceHealth,
};
use odp_trace::{
    load_trace, ColumnarView, DataOpColumns, TargetColumns, TraceArtifact, TraceLog, TraceStats,
};
use ompdataperf::detect::{EventView, Findings, StreamEvent, StreamingEngine};
use proptest::prelude::*;

/// Replay a sharded trace through per-shard `TraceLog`s exactly the way
/// the collector records it — per-shard completion order, shard-encoded
/// ids — and merge. Every record call must round-trip the shard event
/// it was driven by (same id, same fields), which pins the record
/// encoding independently of the columnar path.
fn build_merged_log(st: &ShardedTrace) -> TraceLog {
    let shards = st
        .shard_events
        .iter()
        .enumerate()
        .map(|(s, events)| {
            let mut log = TraceLog::for_shard(s as u32);
            for ev in events {
                match ev {
                    StreamEvent::Op(e) => {
                        let recorded = log.record_data_op(
                            e.kind,
                            e.src_device,
                            e.dest_device,
                            e.src_addr,
                            e.dest_addr,
                            e.bytes,
                            e.hash.map(|h| h.0),
                            e.span,
                            e.codeptr,
                        );
                        assert_eq!(&recorded, e, "data-op record hydration must round-trip");
                    }
                    StreamEvent::Kernel(k) => {
                        let recorded = log.record_target(k.kind, k.device, k.span, k.codeptr);
                        assert_eq!(&recorded, k, "target record hydration must round-trip");
                    }
                }
            }
            log
        })
        .collect();
    TraceLog::merge_shards(shards)
}

/// Every column of the log's memoized hydration against the oracle
/// rows, one assert per field so a failure names the column.
fn assert_columnar_matches_rows(log: &TraceLog, st: &ShardedTrace, ctx: &str) {
    let cols = log.columnar();
    let ops = DataOpColumns::from_events(&st.ops);
    assert_eq!(cols.ops.ids, ops.ids, "op ids ({ctx})");
    assert_eq!(cols.ops.kinds, ops.kinds, "op kinds ({ctx})");
    assert_eq!(
        cols.ops.src_devices, ops.src_devices,
        "op src_devices ({ctx})"
    );
    assert_eq!(
        cols.ops.dest_devices, ops.dest_devices,
        "op dest_devices ({ctx})"
    );
    assert_eq!(cols.ops.src_addrs, ops.src_addrs, "op src_addrs ({ctx})");
    assert_eq!(cols.ops.dest_addrs, ops.dest_addrs, "op dest_addrs ({ctx})");
    assert_eq!(cols.ops.bytes, ops.bytes, "op bytes ({ctx})");
    assert_eq!(cols.ops.hashes, ops.hashes, "op hashes ({ctx})");
    assert_eq!(cols.ops.starts, ops.starts, "op starts ({ctx})");
    assert_eq!(cols.ops.ends, ops.ends, "op ends ({ctx})");
    assert_eq!(cols.ops.codeptrs, ops.codeptrs, "op codeptrs ({ctx})");
    let kernels = TargetColumns::from_events(&st.kernels);
    assert_eq!(cols.kernels.ids, kernels.ids, "kernel ids ({ctx})");
    assert_eq!(
        cols.kernels.devices, kernels.devices,
        "kernel devices ({ctx})"
    );
    assert_eq!(cols.kernels.kinds, kernels.kinds, "kernel kinds ({ctx})");
    assert_eq!(cols.kernels.starts, kernels.starts, "kernel starts ({ctx})");
    assert_eq!(cols.kernels.ends, kernels.ends, "kernel ends ({ctx})");
    assert_eq!(
        cols.kernels.codeptrs, kernels.codeptrs,
        "kernel codeptrs ({ctx})"
    );
    // The facade's owned gather must reassemble the same rows.
    let view = EventView::from_log(log);
    for (i, expected) in st.ops.iter().enumerate() {
        assert_eq!(&cols.ops.event(i), expected, "gathered op {i} ({ctx})");
    }
    assert_eq!(view.ops().len(), st.ops.len(), "op count ({ctx})");
}

/// The statistics the oracle rows add up to, folded here rather than by
/// the trace crate: per-kind counts, bytes and durations, and the latest
/// span end as the total time (what the log records when nothing
/// finalizes it).
fn oracle_stats(st: &ShardedTrace) -> TraceStats {
    let mut s = TraceStats::default();
    for e in &st.ops {
        let d = e.span.duration();
        match e.kind {
            DataOpKind::Transfer => {
                s.transfers += 1;
                s.bytes_transferred += e.bytes;
                s.transfer_time += d;
                s.h2d_transfers += (e.src_device.is_host() && e.dest_device.is_target()) as usize;
                s.d2h_transfers += (e.src_device.is_target() && e.dest_device.is_host()) as usize;
            }
            DataOpKind::Alloc => {
                s.allocs += 1;
                s.bytes_allocated += e.bytes;
                s.alloc_time += d;
            }
            DataOpKind::Delete => {
                s.deletes += 1;
                s.alloc_time += d;
            }
            _ => {}
        }
    }
    for k in &st.kernels {
        s.kernels += 1;
        s.kernel_time += k.span.duration();
    }
    let ends = st.ops.iter().map(|e| e.span.end);
    let last = ends.chain(st.kernels.iter().map(|k| k.span.end)).max();
    s.total_time = SimDuration(last.map_or(0, |t| t.as_nanos()));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Columnar hydration ≡ independent row hydration, field for field,
    /// across random shard interleavings.
    #[test]
    fn columnar_equals_row_hydration(
        seed in 0u64..u64::MAX,
        len in 0usize..160,
        num_devices in 1u32..4,
        shards in 1usize..5,
    ) {
        let (ops, kernels) = random_trace(seed, len, num_devices);
        let st = shard_partition(&ops, &kernels, shards, seed ^ 0x5A5A);
        let log = build_merged_log(&st);
        assert_columnar_matches_rows(&log, &st, &format!("seed {seed} shards {shards}"));
    }

    /// `stats()` is the fold of the oracle rows, and the whole
    /// post-mortem read — the columnar view, the stats, both row
    /// gathers — costs one hydration pass.
    #[test]
    fn stats_fold_the_oracle_rows_within_one_hydration_pass(
        seed in 0u64..u64::MAX,
        len in 0usize..160,
        num_devices in 1u32..4,
        shards in 1usize..5,
    ) {
        let (ops, kernels) = random_trace(seed, len, num_devices);
        let st = shard_partition(&ops, &kernels, shards, seed ^ 0x3C3C);
        let log = build_merged_log(&st);
        let _ = log.columnar();
        prop_assert_eq!(log.sort_count(), 1, "columnar (seed {})", seed);
        let stats = log.stats();
        prop_assert_eq!(log.sort_count(), 1, "stats (seed {})", seed);
        let _ = log.data_op_events_sorted();
        let _ = log.kernel_events_sorted();
        prop_assert_eq!(log.sort_count(), 1, "row gathers (seed {})", seed);
        prop_assert_eq!(
            serde_json::to_string(&stats).unwrap(),
            serde_json::to_string(&oracle_stats(&st)).unwrap(),
            "stats (seed {})", seed
        );
    }

    /// The fused sweep over the merged log's columnar view must be
    /// byte-identical to the five standalone row-based reference passes
    /// over the independently-sorted rows.
    #[test]
    fn fused_over_columnar_equals_separate_over_rows(
        seed in 0u64..u64::MAX,
        len in 0usize..160,
        num_devices in 1u32..4,
        shards in 1usize..5,
    ) {
        let (ops, kernels) = random_trace(seed, len, num_devices);
        let st = shard_partition(&ops, &kernels, shards, seed ^ 0xC3C3);
        let log = build_merged_log(&st);
        let view = EventView::over(log.columnar(), num_devices);
        let fused = Findings::detect_fused(&view);
        let separate = Findings::detect_separate(&st.ops, &st.kernels, num_devices);
        prop_assert_eq!(
            serde_json::to_string_pretty(&fused).unwrap(),
            serde_json::to_string_pretty(&separate).unwrap(),
            "fused-over-columnar diverged from row reference (seed {})", seed
        );
    }

    /// Streaming ingest of the shard-interleaved batches, finalized
    /// against the columnar view, must be byte-identical to post-mortem
    /// row detection. Exercises batched `push` + `advance` plus the
    /// columnar finalize path end to end.
    #[test]
    fn streaming_batches_finalize_identically_over_columnar(
        seed in 0u64..u64::MAX,
        len in 0usize..160,
        num_devices in 1u32..4,
        shards in 1usize..5,
        batch in 1usize..24,
    ) {
        let (ops, kernels) = random_trace(seed, len, num_devices);
        let st = shard_partition(&ops, &kernels, shards, seed ^ 0x0F0F);
        let log = build_merged_log(&st);
        let mut engine = StreamingEngine::default();
        // Round-robin the shards' completion-order streams in `batch`-
        // sized chunks — the shape a drain of the shards' pending
        // queues hands the engine.
        // No watermark: everything buffers until finalize releases it;
        // the live findings must be the projection of the report over
        // the columnar view of the merged log.
        let mut cursors = vec![0usize; st.shard_events.len()];
        loop {
            let mut moved = false;
            for (s, cursor) in cursors.iter_mut().enumerate() {
                let events = &st.shard_events[s];
                if *cursor >= events.len() {
                    continue;
                }
                let upper = (*cursor + batch).min(events.len());
                events[*cursor..upper]
                    .iter()
                    .for_each(|ev| engine.push(ev.clone()));
                engine.advance(None);
                *cursor = upper;
                moved = true;
            }
            if !moved {
                break;
            }
        }
        let view = EventView::over(log.columnar(), num_devices);
        let report = engine.finalize(&view);
        assert_live_matches(
            engine.take_findings(),
            &report,
            &format!("streamed batches (seed {seed})"),
        );
    }
}

/// A fixed worst-case shape outside proptest so it always runs even if
/// case counts are tuned down: maximum shard count, colliding ids
/// impossible (shard-encoded), dense duplicate pool.
#[test]
fn columnar_equals_rows_on_dense_single_device_partition() {
    let (ops, kernels) = random_trace(0xFEED_F00D, 600, 1);
    let st = shard_partition(&ops, &kernels, 4, 0xBEEF);
    let log = build_merged_log(&st);
    assert_columnar_matches_rows(&log, &st, "dense single-device");
    let view = EventView::over(log.columnar(), 1);
    let fused = Findings::detect_fused(&view);
    assert!(fused.counts().dd > 0, "dense pool must produce duplicates");
}

/// One shard log of a hostile shard set, with the rows it recorded (in
/// append order, ids as the log assigned them) kept for the oracle.
struct RecordedShard {
    log: TraceLog,
    ops: Vec<DataOpEvent>,
    targets: Vec<TargetEvent>,
}

impl RecordedShard {
    fn new(shard: u32) -> Self {
        RecordedShard {
            log: TraceLog::for_shard(shard),
            ops: Vec::new(),
            targets: Vec::new(),
        }
    }

    fn op(&mut self, e: &DataOpEvent) {
        self.ops.push(self.log.record_data_op(
            e.kind,
            e.src_device,
            e.dest_device,
            e.src_addr,
            e.dest_addr,
            e.bytes,
            e.hash.map(|h| h.0),
            e.span,
            e.codeptr,
        ));
    }

    fn target(&mut self, kind: TargetKind, device: DeviceId, span: TimeSpan, codeptr: CodePtr) {
        self.targets
            .push(self.log.record_target(kind, device, span, codeptr));
    }
}

/// The shard sets only a hostile or `nowait` producer emits — on every
/// measured workload each part is appended in `(start, id)` order and
/// shard ids are unique, so nothing else exercises the normaliser's sort
/// or the merge's part tie-break. Per set: 1, 2 or 5 recording logs whose
/// appends are completion-ordered (starts go backwards), the same starts
/// in every log, the last log claiming the first one's shard id (so
/// whole `(start, id)` keys collide across parts), an empty shard in the
/// middle, and non-kernel constructs among the targets. The live log,
/// the artifact built from it and the artifact loaded back from bytes
/// must all hydrate to the naive oracle: rows concatenated in part
/// order, stably sorted by `(start, id)`.
#[test]
fn hostile_shard_sets_hydrate_identically_four_ways() {
    let span = |a: u64, b: u64| TimeSpan::new(SimTime(a), SimTime(b));
    for shards in [1usize, 2, 5] {
        for seed in 0..6u64 {
            let ctx = format!("{shards} shard(s), seed {seed}");
            let (ops, kernels) = random_trace(seed ^ 0xD1FF, 120, 2);
            let st = shard_partition(&ops, &kernels, shards, seed);
            let mut recorded: Vec<RecordedShard> = Vec::new();
            for (s, events) in st.shard_events.iter().enumerate() {
                // The last log claims shard 0 a second time.
                let claimed = if s + 1 == shards { 0 } else { s as u32 };
                let mut shard = RecordedShard::new(claimed);
                // Identical keys in every log: three ops at one start,
                // then a later start appended before an earlier one.
                let probe = |start: u64, end: u64| DataOpEvent {
                    src_addr: 0xA000 + s as u64,
                    span: span(start, end),
                    ..ops[0].clone()
                };
                for (start, end) in [(0, 1), (0, 2), (0, 3), (30, 40), (10, 45)] {
                    shard.op(&probe(start, end));
                }
                // A kernel completes before the region around it.
                let dev = DeviceId::target(0);
                shard.target(
                    TargetKind::Kernel,
                    dev,
                    span(20, 30),
                    CodePtr(0x10 + s as u64),
                );
                shard.target(
                    TargetKind::Region,
                    dev,
                    span(5, 100),
                    CodePtr(0x20 + s as u64),
                );
                for ev in events {
                    match ev {
                        StreamEvent::Op(e) => shard.op(e),
                        StreamEvent::Kernel(k) => shard.target(k.kind, k.device, k.span, k.codeptr),
                    }
                }
                recorded.push(shard);
            }
            recorded.insert(shards / 2, RecordedShard::new(9));

            let mut naive_ops: Vec<DataOpEvent> =
                recorded.iter().flat_map(|r| r.ops.clone()).collect();
            assert!(
                !naive_ops.is_sorted_by_key(|e| (e.span.start, e.id)),
                "appends must not already be chronological ({ctx})"
            );
            naive_ops.sort_by_key(|e| (e.span.start, e.id));
            let mut naive_targets: Vec<TargetEvent> =
                recorded.iter().flat_map(|r| r.targets.clone()).collect();
            naive_targets.sort_by_key(|e| (e.span.start, e.id));
            let naive_kernels: Vec<TargetEvent> = naive_targets
                .iter()
                .filter(|e| e.kind == TargetKind::Kernel)
                .cloned()
                .collect();
            assert!(naive_kernels.len() < naive_targets.len());
            let oracle = ColumnarView::from_events(&naive_ops, &naive_kernels);

            let live = TraceLog::merge_shards(recorded.into_iter().map(|r| r.log).collect());
            assert_eq!(live.duplicate_id_count() > 0, shards > 1, "{ctx}");
            let artifact = TraceArtifact::from_log(&live, "hostile", TraceHealth::default());
            assert_eq!(artifact.shards.len(), shards, "empty shard skipped ({ctx})");
            let loaded = load_trace(&artifact.to_bytes()).expect("own output loads");

            assert_eq!(live.columnar(), &oracle, "live log ({ctx})");
            assert_eq!(artifact.columnar(), oracle, "artifact from log ({ctx})");
            assert_eq!(loaded.columnar(), oracle, "artifact from bytes ({ctx})");
            assert_eq!(live.target_events_sorted(), naive_targets, "live ({ctx})");
            assert_eq!(artifact.target_events_sorted(), naive_targets, "{ctx}");
            assert_eq!(loaded.target_events_sorted(), naive_targets, "{ctx}");
            assert_eq!(
                live.data_op_events_sorted(),
                naive_ops,
                "row gather ({ctx})"
            );
        }
    }
}
