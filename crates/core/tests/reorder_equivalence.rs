//! Equivalence suite for the shard-run reorder pipeline that replaced
//! the streaming engine's `BinaryHeap`.
//!
//! Four layers of oracle, all seeded and deterministic:
//!
//! 1. **Buffer level**: [`RunMergeBuffer`] must release the exact same
//!    sequence a min-`BinaryHeap` would, under interleaved watermark
//!    gates, across shard counts, inversion rates, and sparse shard
//!    ids — and its `inversions()` counter must match an external
//!    model of the run-extension rule.
//! 2. **Engine level**: shard-interleaved delivery (random arrival
//!    interleavings of per-shard completion-ordered streams) must
//!    emit exactly the projection of the fused report as live findings.
//! 3. **Stats**: `StreamBufferStats` batch counters and high-water
//!    marks must match an external push/advance model, one event or
//!    many per batch.
//! 4. **Degradation knob**: `--stall-timeout` (`force_release_all`)
//!    quarantines must be accounted exactly — including over
//!    fault-profile traces produced by the simulated runtime — and the
//!    final report must be the exact post-mortem answer but for the
//!    confidence tag.

mod common;

use common::{assert_live_matches, finalize, random_trace, shard_partition, Rng};
use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TimeSpan,
};
use odp_sim::{map, FaultPlan, FaultProfile, Kernel, KernelCost, Runtime, RuntimeConfig};
use odp_trace::ColumnarView;
use ompdataperf::detect::reorder::{RunMergeBuffer, SortKey};
use ompdataperf::detect::{EventView, Findings, StreamEvent, StreamingEngine};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------
// Layer 1: RunMergeBuffer vs BinaryHeap, byte-for-byte release order.
// ---------------------------------------------------------------------

/// One synthetic arrival: `(shard, key)`. The value released is the
/// arrival's index, so release sequences can be compared exactly.
struct ArrivalPlan {
    shards: u64,
    /// Spread shard ids over a large prime stride to exercise the
    /// `lane_of_large` fallback table (ids beyond the direct map).
    sparse_ids: bool,
    inv_permille: u64,
    /// Events between watermark gates.
    cadence: u64,
    seed: u64,
}

const PLAN_EVENTS: u64 = 1_500;
const PLAN_LAG: u64 = 400;

fn build_plan_arrivals(plan: &ArrivalPlan) -> Vec<(u32, SortKey)> {
    let mut rng = Rng::new(plan.seed | 1);
    let mut frontier = vec![0u64; plan.shards as usize];
    let mut out = Vec::with_capacity(PLAN_EVENTS as usize);
    for i in 0..PLAN_EVENTS {
        let s = rng.below(plan.shards) as usize;
        frontier[s] += 1 + rng.below(16);
        let t = if rng.below(1_000) < plan.inv_permille {
            frontier[s].saturating_sub(PLAN_LAG / 2)
        } else {
            frontier[s]
        };
        let shard_id = if plan.sparse_ids {
            (s as u32) * 7_919 // beyond the direct-mapped table for s >= 1
        } else {
            s as u32
        };
        // Unique middle component => a strict total order on keys, so
        // both structures have exactly one legal release sequence.
        out.push((shard_id, (SimTime(t), i, (i % 3) as u8)));
    }
    out
}

/// External model of one run lane's extension rule: a lane accepts any
/// key >= the last key *pushed* to it, and forgets its tail only when
/// it fully drains (clear-on-drain).
#[derive(Default)]
struct LaneModel {
    tail: Option<SortKey>,
    live: usize,
}

fn assert_buffer_matches_heap(plan: &ArrivalPlan) {
    let arrivals = build_plan_arrivals(plan);
    let mut buf: RunMergeBuffer<u64> = RunMergeBuffer::default();
    let mut heap: BinaryHeap<Reverse<(SortKey, u64)>> = BinaryHeap::new();
    let mut released_buf: Vec<u64> = Vec::new();
    let mut released_heap: Vec<u64> = Vec::new();

    let mut lanes: std::collections::HashMap<u32, LaneModel> = std::collections::HashMap::new();
    // Arrival index -> shard, and whether the model routed it to the
    // lane (false = side pocket). Pocket releases don't touch lanes.
    let mut via_lane: Vec<(u32, bool)> = Vec::with_capacity(arrivals.len());
    let mut model_inversions = 0u64;
    let mut max_t = 0u64;

    for (n, &(shard, key)) in arrivals.iter().enumerate() {
        let lane = lanes.entry(shard).or_default();
        let accepted = lane.tail.is_none_or(|tail| key >= tail);
        if accepted {
            lane.tail = Some(key);
            lane.live += 1;
        } else {
            model_inversions += 1;
        }
        via_lane.push((shard, accepted));

        buf.push(shard, key, n as u64);
        heap.push(Reverse((key, n as u64)));
        max_t = max_t.max(key.0 .0);

        if (n as u64) % plan.cadence == plan.cadence - 1 {
            let wm = SimTime(max_t.saturating_sub(PLAN_LAG));
            drain(
                &mut buf,
                &mut heap,
                |k| k.0 <= wm,
                &mut released_buf,
                &mut released_heap,
                &mut lanes,
                &via_lane,
            );
        }
    }
    drain(
        &mut buf,
        &mut heap,
        |_| true,
        &mut released_buf,
        &mut released_heap,
        &mut lanes,
        &via_lane,
    );

    assert_eq!(released_buf, released_heap, "release sequences diverged");
    assert_eq!(released_buf.len(), arrivals.len(), "events lost in transit");
    assert_eq!(buf.len(), 0);
    assert!(heap.is_empty());
    assert_eq!(
        buf.inversions(),
        model_inversions,
        "inversion accounting diverged from the run-extension rule"
    );
    if plan.inv_permille == 0 {
        assert_eq!(buf.inversions(), 0, "sorted shards must never pocket");
        assert_eq!(buf.pocket_peak(), 0);
    }
}

/// Drain both structures through the same gate, verifying lockstep.
fn drain(
    buf: &mut RunMergeBuffer<u64>,
    heap: &mut BinaryHeap<Reverse<(SortKey, u64)>>,
    gate: impl Fn(SortKey) -> bool,
    released_buf: &mut Vec<u64>,
    released_heap: &mut Vec<u64>,
    lanes: &mut std::collections::HashMap<u32, LaneModel>,
    via_lane: &[(u32, bool)],
) {
    while let Some(v) = buf.pop_if(&gate) {
        let (shard, lane_routed) = via_lane[v as usize];
        if lane_routed {
            let lane = lanes.get_mut(&shard).expect("released from unknown lane");
            lane.live -= 1;
            if lane.live == 0 {
                lane.tail = None; // clear-on-drain forgets the tail
            }
        }
        released_buf.push(v);
    }
    while let Some(&Reverse((k, _))) = heap.peek() {
        if !gate(k) {
            break;
        }
        let Some(Reverse((_, v))) = heap.pop() else {
            break;
        };
        released_heap.push(v);
    }
    assert_eq!(buf.len(), heap.len(), "buffered counts diverged mid-gate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_merge_releases_exactly_what_the_heap_would(
        seed in 0u64..u64::MAX,
        shards in 1u64..9,
        sparse in 0u8..2,
        inv_sel in 0usize..4,
        cadence_sel in 0usize..4,
    ) {
        assert_buffer_matches_heap(&ArrivalPlan {
            shards,
            sparse_ids: sparse != 0,
            inv_permille: [0u64, 10, 100, 400][inv_sel],
            cadence: [1u64, 7, 64, 256][cadence_sel],
            seed,
        });
    }
}

// ---------------------------------------------------------------------
// Layer 2: shard-interleaved delivery vs post-mortem detection.
// ---------------------------------------------------------------------

fn ev_start(ev: &StreamEvent) -> SimTime {
    match ev {
        StreamEvent::Op(e) => e.span.start,
        StreamEvent::Kernel(k) => k.span.start,
    }
}

/// Deliver per-shard completion-ordered streams in a random arrival
/// interleaving, advancing the watermark the way a merged shard clock
/// would: one tick below the earliest start among undelivered events
/// (each will still emit at its own start, pinning the merge).
fn feed_shard_interleaved(
    engine: &mut StreamingEngine,
    shard_events: &[Vec<StreamEvent>],
    seed: u64,
) {
    // Per-shard suffix minima of start times over undelivered events.
    let mins: Vec<Vec<u64>> = shard_events
        .iter()
        .map(|events| {
            let mut m = vec![u64::MAX; events.len() + 1];
            for i in (0..events.len()).rev() {
                m[i] = m[i + 1].min(ev_start(&events[i]).0);
            }
            m
        })
        .collect();
    let mut next = vec![0usize; shard_events.len()];
    let mut remaining: usize = shard_events.iter().map(Vec::len).sum();
    let mut rng = Rng::new(seed | 1);
    while remaining > 0 {
        let mut s = rng.below(shard_events.len() as u64) as usize;
        while next[s] >= shard_events[s].len() {
            s = (s + 1) % shard_events.len();
        }
        engine.push(shard_events[s][next[s]].clone());
        next[s] += 1;
        remaining -= 1;
        let floor = (0..shard_events.len())
            .map(|t| mins[t][next[t]])
            .min()
            .unwrap_or(u64::MAX);
        engine.advance(Some(SimTime(floor.saturating_sub(1))));
    }
}

fn assert_interleaving_matches_postmortem(
    ops: &[DataOpEvent],
    kernels: &[TargetEvent],
    shard_events: &[Vec<StreamEvent>],
    num_devices: u32,
    feed_seed: u64,
    ctx: &str,
) {
    let mut engine = StreamingEngine::default();
    feed_shard_interleaved(&mut engine, shard_events, feed_seed);
    assert_eq!(
        engine.buffer_stats().buffered_now,
        0,
        "all shards delivered => the reorder buffer must have drained ({ctx})"
    );
    let report = finalize(&mut engine, ops, kernels, num_devices);
    assert_eq!(
        engine.live_counts(),
        report.counts(),
        "live counts diverge ({ctx})"
    );
    assert_live_matches(engine.take_findings(), &report, ctx);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shard_interleaved_streams_finalize_byte_identical(
        seed in 0u64..u64::MAX,
        feed_seed in 0u64..u64::MAX,
        n in 60usize..240,
        shards in 1usize..5,
        devices in 1u32..4,
    ) {
        let (ops, kernels) = random_trace(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1, n, devices);
        let sharded = shard_partition(&ops, &kernels, shards, seed ^ 0xABCD);
        assert_interleaving_matches_postmortem(
            &sharded.ops,
            &sharded.kernels,
            &sharded.shard_events,
            devices,
            feed_seed,
            &format!("seed {seed:#x}, {shards} shards"),
        );
    }
}

// ---------------------------------------------------------------------
// Layer 3: StreamBufferStats against an external push/release model.
// ---------------------------------------------------------------------

/// One deliverable event in completion order plus its reorder key.
fn completion_order(ops: &[DataOpEvent], kernels: &[TargetEvent]) -> Vec<(StreamEvent, SortKey)> {
    let mut arrivals: Vec<(StreamEvent, SortKey)> = ops
        .iter()
        .map(|e| (StreamEvent::Op(e.clone()), (e.span.start, e.id.0, 0)))
        .chain(
            kernels
                .iter()
                .map(|k| (StreamEvent::Kernel(k.clone()), (k.span.start, k.id.0, 1))),
        )
        .collect();
    arrivals.sort_by_key(|(ev, _)| match ev {
        StreamEvent::Op(e) => (e.span.end, e.id.0),
        StreamEvent::Kernel(k) => (k.span.end, k.id.0),
    });
    arrivals
}

/// Open-operation watermark after delivering arrival `i` (see
/// `feed_completion_order` in the streaming differential suite).
fn open_floor_watermarks(arrivals: &[(StreamEvent, SortKey)]) -> Vec<SimTime> {
    let mut suffix_min_start = vec![SimTime(u64::MAX); arrivals.len() + 1];
    for i in (0..arrivals.len()).rev() {
        suffix_min_start[i] = suffix_min_start[i + 1].min(ev_start(&arrivals[i].0));
    }
    (0..arrivals.len())
        .map(|i| {
            let now = match &arrivals[i].0 {
                StreamEvent::Op(e) => e.span.end,
                StreamEvent::Kernel(k) => k.span.end,
            };
            now.min(SimTime(suffix_min_start[i + 1].0.saturating_sub(1)))
        })
        .collect()
}

/// Count of delivered keys at or below the (monotone) watermark — the
/// model of "released so far": `advance` releases everything eligible,
/// every time.
fn model_released(delivered: &[SortKey], wm: SimTime) -> usize {
    delivered.iter().filter(|k| k.0 <= wm).count()
}

/// Deliver a random trace in completion order, `batch` arrivals per
/// batch, each closed by one `advance` to the watermark after its last
/// arrival, and hold the engine's counters to the one rule: a batch
/// counts as a drain of its events, and the peak is sampled after its
/// release.
fn assert_stats_match_model(seed: u64, n: usize, batch: usize) {
    let (ops, kernels) = random_trace(seed | 1, n, 2);
    let arrivals = completion_order(&ops, &kernels);
    let wms = open_floor_watermarks(&arrivals);

    let mut engine = StreamingEngine::default();
    let mut delivered: Vec<SortKey> = Vec::new();
    let mut wm_eff = SimTime(0);
    let mut model_peak = 0usize;
    for (b, chunk) in arrivals.chunks(batch).enumerate() {
        chunk.iter().for_each(|(ev, _)| engine.push(ev.clone()));
        delivered.extend(chunk.iter().map(|(_, k)| *k));
        // The batch's last watermark closes it; the engine never moves
        // its own back.
        let wm = wms[delivered.len() - 1];
        engine.advance(Some(wm));
        wm_eff = wm_eff.max(wm);
        let waiting = delivered.len() - model_released(&delivered, wm_eff);
        model_peak = model_peak.max(waiting);
        let stats = engine.buffer_stats();
        assert_eq!(
            (stats.drains, stats.drained_events, stats.buffered_now),
            (b as u64 + 1, delivered.len() as u64, waiting),
            "batch {b} of {batch} (seed {seed:#x})"
        );
    }
    assert_eq!(
        engine.buffer_stats().buffered_peak,
        model_peak,
        "buffered_peak must be the max over post-release counts (seed {seed:#x})"
    );

    let cols = ColumnarView::from_events(&ops, &kernels);
    let report = engine.finalize(&EventView::over(&cols, 2));
    assert_live_matches(engine.take_findings(), &report, "batched ingest");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn buffer_stats_match_external_model(
        seed in 0u64..u64::MAX,
        n in 60usize..200,
        batch_sel in 0usize..4,
    ) {
        assert_stats_match_model(seed, n, [1usize, 3, 16, 64][batch_sel]);
    }
}

// ---------------------------------------------------------------------
// Layer 4: --stall-timeout semantics.
// ---------------------------------------------------------------------

/// Minimal public-API event factory (the crate-internal test factory is
/// not visible to integration tests).
struct Factory {
    next_id: u64,
}

impl Factory {
    fn new() -> Factory {
        Factory { next_id: 0 }
    }

    fn id(&mut self) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        id
    }

    fn h2d(&mut self, t: u64, hash: u64) -> DataOpEvent {
        DataOpEvent {
            id: self.id(),
            kind: DataOpKind::Transfer,
            src_device: DeviceId::HOST,
            dest_device: DeviceId::target(0),
            src_addr: 0x1000,
            dest_addr: 0xd000,
            bytes: 64,
            hash: Some(HashVal(hash)),
            span: TimeSpan::new(SimTime(t), SimTime(t + 10)),
            codeptr: CodePtr(0x100),
        }
    }
}

/// `--stall-timeout` through the public API: force-release drains the
/// buffer, marks the engine degraded, and quarantines (never ingests)
/// anything at or below the forced floor — with exact accounting.
#[test]
fn stall_force_release_quarantines_late_events() {
    let ops: Vec<DataOpEvent> = {
        let mut f = Factory::new();
        (0..40u64).map(|i| f.h2d(100 + i * 10, 500 + i)).collect()
    };

    let mut engine = StreamingEngine::default();
    for op in &ops {
        engine.push(StreamEvent::Op(op.clone()));
    }
    // No watermark ever advanced: everything is still buffered.
    assert_eq!(engine.buffer_stats().buffered_now, ops.len());
    assert!(!engine.is_degraded());

    let released = engine.force_release_all();
    assert_eq!(released, ops.len());
    assert!(engine.is_degraded());
    assert_eq!(engine.health().forced_releases, ops.len() as u64);
    assert_eq!(engine.buffer_stats().buffered_now, 0);

    // At or below the forced floor (max released start was 490):
    // quarantined as late, never buffered.
    let mut f = Factory::new();
    let late = {
        let mut e = f.h2d(50, 999);
        e.id = EventId(10_000);
        e
    };
    engine.push(StreamEvent::Op(late));
    assert_eq!(engine.health().late, 1);
    assert_eq!(
        engine.buffer_stats().buffered_now,
        0,
        "late events never buffer"
    );

    // Above the floor: business as usual, just degraded.
    let fresh = {
        let mut e = f.h2d(9_000, 998);
        e.id = EventId(10_001);
        e
    };
    engine.push(StreamEvent::Op(fresh));
    assert_eq!(engine.health().late, 1);
    assert_eq!(engine.buffer_stats().buffered_now, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stall recovery on random traces: force-release mid-stream, then
    /// deliver the rest. Late quarantines must match the count of
    /// remaining arrivals keyed at or below the forced floor, and
    /// finalize must survive: degraded, never panicking, and — since
    /// the report comes from the recorded trace — the exact post-mortem
    /// answer but for the confidence tag.
    #[test]
    fn stall_recovery_accounting_on_random_traces(
        seed in 0u64..u64::MAX,
        n in 40usize..160,
    ) {
        let (ops, kernels) = random_trace(seed | 1, n, 2);
        let arrivals = completion_order(&ops, &kernels);
        let half = arrivals.len() / 2;

        let mut engine = StreamingEngine::default();
        for (ev, _) in &arrivals[..half] {
            engine.push(ev.clone());
        }
        let released = engine.force_release_all();
        prop_assert_eq!(released, half);
        prop_assert_eq!(engine.health().forced_releases, half as u64);

        // Forced floor = the largest released key.
        let floor = arrivals[..half].iter().map(|(_, k)| *k).max();
        let expect_late = arrivals[half..]
            .iter()
            .filter(|(_, k)| floor.is_some_and(|f| *k <= f))
            .count() as u64;
        for (ev, _) in &arrivals[half..] {
            engine.push(ev.clone());
        }
        prop_assert_eq!(
            engine.health().late, expect_late,
            "late quarantine accounting diverged (seed {:#x})", seed
        );
        prop_assert!(engine.is_degraded() || half == 0);

        let cols = ColumnarView::from_events(&ops, &kernels);
        let view = EventView::over(&cols, 2);
        let report = engine.finalize(&view);
        prop_assert_eq!(engine.health().missing_at_finalize, 0, "late events were offered");
        let degraded = half > 0;
        prop_assert!(report
            .stream_findings()
            .all(|f| f.confidence().is_degraded() == degraded));
        prop_assert_eq!(
            serde_json::to_string(&report).unwrap().replace("\"Degraded\"", "\"Confirmed\""),
            serde_json::to_string(&Findings::detect_fused(&view)).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Fault-profile traces: the reorder pipeline under lossy / hostile /
// stalled / OOM collection, against the post-mortem oracle.
// ---------------------------------------------------------------------

/// Record one small program under a fault profile and hand back the
/// surviving (hydrated) trace — the events both detection paths see.
fn faulty_trace(profile: FaultProfile, seed: u64) -> (Vec<DataOpEvent>, Vec<TargetEvent>) {
    let cfg = RuntimeConfig {
        faults: FaultPlan::from_profile(profile, seed),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(cfg);
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        quiet: true,
        ..Default::default()
    });
    rt.attach_tool(Box::new(tool));

    let a = rt.host_alloc("a", 64);
    let b = rt.host_alloc("b", 48);
    for round in 0..8u64 {
        let cp = CodePtr(0x2000 + round * 0x10);
        rt.target(
            0,
            cp,
            &[map(odp_model::MapType::To, a)],
            Kernel::new("k", KernelCost::fixed(40)).reads(&[a]),
        );
        rt.target_enter_data(0, cp, &[map(odp_model::MapType::To, b)]);
        if round % 2 == 0 {
            rt.target_update_from(0, cp, &[b]);
        }
        rt.target_exit_data(0, cp, &[map(odp_model::MapType::From, b)]);
    }
    rt.finish();

    let trace = handle.take_trace();
    (
        trace.data_op_events_sorted().to_vec(),
        trace.kernel_events_sorted().to_vec(),
    )
}

#[test]
fn fault_profile_traces_stay_byte_identical_through_the_reorder_pipeline() {
    for profile in [
        FaultProfile::Lossy,
        FaultProfile::Hostile,
        FaultProfile::Stalled,
        FaultProfile::Oom,
    ] {
        for seed in [7u64, 42] {
            let (ops, kernels) = faulty_trace(profile, seed);
            let sharded = shard_partition(&ops, &kernels, 3, seed ^ 0x5EED);
            assert_interleaving_matches_postmortem(
                &sharded.ops,
                &sharded.kernels,
                &sharded.shard_events,
                1,
                seed.wrapping_mul(31) | 1,
                &format!("{profile:?} seed {seed}"),
            );
        }
    }
}
