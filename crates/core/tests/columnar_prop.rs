//! Property suite for the columnar trace hydration (satellite of the
//! columnar/ring PR): on seeded shard-interleaved traces,
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
use odp_trace::{DataOpColumns, TargetColumns, TraceLog};
use ompdataperf::detect::{EventView, Findings, StreamConfig, StreamEvent, StreamingEngine};
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
    /// row detection. Exercises `ingest_batch` plus the columnar
    /// finalize path end to end.
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
        let mut engine = StreamingEngine::new(StreamConfig::default());
        // Round-robin the shards' completion-order streams in `batch`-
        // sized chunks — the shape the ring drain hands the engine.
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
                engine.ingest_batch(events[*cursor..upper].iter().cloned(), None);
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
