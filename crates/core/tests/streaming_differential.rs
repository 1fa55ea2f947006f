//! Differential tests for the streaming engine: the live findings it
//! emits over a whole run must be, as a multiset, exactly the
//! projection ([`Findings::stream_findings`]) of the fused report over
//! the same randomized trace — with events delivered the way a real run
//! delivers them: in *completion* order, gated by the open-operation
//! watermark, not in the chronological order the detectors consume.
//! (`finalize` itself returns the fused report, so comparing its output
//! with the fused sweep would be vacuous; the reference passes vouch
//! for the sweep in `fused_differential.rs`.)
//!
//! The trace generator is shared with the fused suite (`common/mod.rs`),
//! so both engines face identical event distributions.

mod common;

use common::{assert_live_matches, finalize, random_trace, shard_partition, Rng};
use odp_model::{DataOpEvent, DeviceId, SimTime, TargetEvent};
use odp_ompt::GlobalWatermark;
use odp_trace::{TraceLog, MAX_PLAUSIBLE_DEVICES};
use ompdataperf::detect::{EventView, StreamEvent, StreamFinding, StreamingEngine};
use std::collections::BTreeMap;

/// One deliverable event in arrival (completion) order.
enum Arrival {
    Op(DataOpEvent),
    Kernel(TargetEvent),
}

impl Arrival {
    fn start(&self) -> SimTime {
        match self {
            Arrival::Op(e) => e.span.start,
            Arrival::Kernel(k) => k.span.start,
        }
    }

    fn end_key(&self) -> (SimTime, u64) {
        match self {
            Arrival::Op(e) => (e.span.end, e.id.0),
            Arrival::Kernel(k) => (k.span.end, k.id.0),
        }
    }
}

/// Deliver the trace to the engine exactly as the tool would: events
/// arrive when they *complete*; after each arrival the watermark is the
/// earliest begin time among operations still open (here: events that
/// have begun but not yet arrived), clamped to the current time.
fn feed_completion_order(
    engine: &mut StreamingEngine,
    ops: &[DataOpEvent],
    kernels: &[TargetEvent],
) {
    let mut arrivals: Vec<Arrival> = ops.iter().cloned().map(Arrival::Op).collect();
    arrivals.extend(kernels.iter().cloned().map(Arrival::Kernel));
    arrivals.sort_by_key(Arrival::end_key);

    // suffix_min_start[i] = earliest start among arrivals i.. (the ops
    // still "open" once everything before i has been delivered).
    let mut suffix_min_start: Vec<SimTime> = vec![SimTime(u64::MAX); arrivals.len() + 1];
    for i in (0..arrivals.len()).rev() {
        suffix_min_start[i] = suffix_min_start[i + 1].min(arrivals[i].start());
    }

    for (i, arrival) in arrivals.into_iter().enumerate() {
        let now = arrival.end_key().0;
        engine.push(match arrival {
            Arrival::Op(e) => StreamEvent::Op(e),
            Arrival::Kernel(k) => StreamEvent::Kernel(k),
        });
        // Open ops pin the watermark one tick below their begin (they
        // will emit an event at that start; see GlobalWatermark::publish).
        let open_floor = SimTime(suffix_min_start[i + 1].0.saturating_sub(1));
        engine.advance(Some(now.min(open_floor)));
    }
}

fn assert_streaming_identical(
    ops: &[DataOpEvent],
    kernels: &[TargetEvent],
    num_devices: u32,
    ctx: &str,
) {
    let mut engine = StreamingEngine::default();
    feed_completion_order(&mut engine, ops, kernels);
    let report = finalize(&mut engine, ops, kernels, num_devices);
    assert_eq!(
        engine.live_counts(),
        report.counts(),
        "live counts must agree with the report's ({ctx})"
    );
    assert_eq!(
        engine.health(),
        odp_model::TraceHealth::default(),
        "clean run ({ctx})"
    );
    assert_live_matches(engine.take_findings(), &report, ctx);
}

#[test]
fn streaming_equals_postmortem_on_random_traces() {
    for seed in 1..=40u64 {
        let (ops, kernels) = random_trace(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 300, 2);
        assert_streaming_identical(&ops, &kernels, 2, &format!("seed {seed}"));
    }
}

#[test]
fn streaming_equals_postmortem_on_large_trace() {
    let (ops, kernels) = random_trace(0xDEAD_BEEF, 20_000, 3);
    assert_streaming_identical(&ops, &kernels, 3, "large trace");
}

#[test]
fn streaming_equals_postmortem_with_single_device_pool() {
    // One device + tiny hash pool: maximal duplicate / round-trip churn.
    for seed in [3u64, 17, 99] {
        let (ops, kernels) = random_trace(seed, 500, 1);
        assert_streaming_identical(&ops, &kernels, 1, &format!("dense seed {seed}"));
    }
}

#[test]
fn streaming_equals_postmortem_on_kernel_free_trace() {
    // No kernels at all: Algorithms 4/5 can decide nothing before
    // finalize — the entire per-device pending state reconciles there.
    let (ops, _) = random_trace(0x5EED, 400, 2);
    assert_streaming_identical(&ops, &[], 2, "kernel-free");
}

#[test]
fn streaming_equals_postmortem_on_empty_trace() {
    assert_streaming_identical(&[], &[], 1, "empty");
}

#[test]
fn streaming_equals_postmortem_with_out_of_range_devices() {
    // A corrupted callback can name any device. Two of a random trace's
    // four devices move to ids at and beyond the plausibility cap, and
    // the trace is recorded as the collector records it: the engine
    // must exclude exactly the events the inferred view excludes — and
    // count them, not drop them silently.
    let implausible = |d: DeviceId| match d.target_index() {
        Some(2) => DeviceId::target(MAX_PLAUSIBLE_DEVICES),
        Some(3) => DeviceId::target(MAX_PLAUSIBLE_DEVICES + 5),
        _ => d,
    };
    let (ops, kernels) = random_trace(0xABCD, 300, 4);
    let mut events: Vec<StreamEvent> = ops.into_iter().map(StreamEvent::Op).collect();
    events.extend(kernels.into_iter().map(StreamEvent::Kernel));
    events.sort_by_key(|ev| match ev {
        StreamEvent::Op(e) => e.id,
        StreamEvent::Kernel(k) => k.id,
    });
    let mut log = TraceLog::new();
    let (mut ops, mut kernels) = (Vec::new(), Vec::new());
    for ev in events {
        match ev {
            StreamEvent::Op(e) => ops.push(log.record_data_op(
                e.kind,
                implausible(e.src_device),
                implausible(e.dest_device),
                e.src_addr,
                e.dest_addr,
                e.bytes,
                e.hash.map(|h| h.0),
                e.span,
                e.codeptr,
            )),
            StreamEvent::Kernel(k) => {
                kernels.push(log.record_target(k.kind, implausible(k.device), k.span, k.codeptr))
            }
        }
    }

    let mut engine = StreamingEngine::default();
    feed_completion_order(&mut engine, &ops, &kernels);
    let view = EventView::from_log(&log);
    // Kernels on the moved devices hydrate out of range, like the data
    // ops on them: neither widens the view past the two real devices.
    assert_eq!(view.num_devices, 2);
    let report = engine.finalize(&view);
    assert_live_matches(engine.take_findings(), &report, "implausible devices");
    assert_eq!(
        engine.out_of_range(),
        view.out_of_range(),
        "streaming and post-mortem must count identical exclusions"
    );
    assert!(engine.out_of_range().total() > 0);
}

#[test]
fn streaming_in_chronological_delivery_matches_too() {
    // Degraded (begin-only) runtimes deliver events already in start
    // order with an always-current watermark: the reorder buffer should
    // pass everything straight through.
    for seed in [5u64, 23] {
        let (ops, kernels) = random_trace(seed, 400, 2);
        let mut engine = StreamingEngine::default();
        let mut merged: Vec<(SimTime, u64, bool, usize)> = Vec::new();
        for (i, e) in ops.iter().enumerate() {
            merged.push((e.span.start, e.id.0, false, i));
        }
        for (i, k) in kernels.iter().enumerate() {
            merged.push((k.span.start, k.id.0, true, i));
        }
        merged.sort_by_key(|&(start, id, _, _)| (start, id));
        for &(start, _, is_kernel, i) in &merged {
            engine.push(if is_kernel {
                StreamEvent::Kernel(kernels[i].clone())
            } else {
                StreamEvent::Op(ops[i].clone())
            });
            engine.advance(Some(start));
        }
        assert_eq!(
            engine.buffer_stats().buffered_now,
            0,
            "chronological delivery must not accumulate"
        );
        let report = finalize(&mut engine, &ops, &kernels, 2);
        assert_live_matches(
            engine.take_findings(),
            &report,
            &format!("chronological seed {seed}"),
        );
    }
}

/// One shard's open begin times (a multiset) and latest edge: the
/// bound a tool shard publishes, kept here independently of the tool.
#[derive(Clone, Default)]
struct ShardModel {
    open: BTreeMap<SimTime, u32>,
    now: SimTime,
}

impl ShardModel {
    fn open(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        *self.open.entry(t).or_insert(0) += 1;
    }

    fn close(&mut self, begin: SimTime, t: SimTime) {
        self.now = self.now.max(t);
        if let Some(n) = self.open.get_mut(&begin) {
            *n -= 1;
            if *n == 0 {
                self.open.remove(&begin);
            }
        }
    }

    fn publish(&self, global: &GlobalWatermark, slot: odp_ompt::ShardSlot) {
        global.publish(slot, self.open.keys().next().copied(), self.now);
    }
}

/// Deliver a sharded trace through per-shard [`ShardModel`]s and the
/// [`GlobalWatermark`] merge, interleaving the shards' callback edges
/// with a seeded rng — the single-threaded, perfectly reproducible twin
/// of the multi-threaded tool path (whose OS-scheduled interleavings
/// the stress suite covers). Each shard's edge stream stays monotonic,
/// as the per-thread OMPT clock guarantees; *across* shards anything
/// goes.
fn feed_sharded_interleaved(
    engine: &mut StreamingEngine,
    shard_events: &[Vec<StreamEvent>],
    interleave_seed: u64,
) {
    #[derive(Clone, Copy)]
    enum Edge {
        Begin(usize),
        End(usize),
    }
    // Per shard: callback edges in per-thread time order.
    let edges: Vec<Vec<(u64, u8, Edge)>> = shard_events
        .iter()
        .map(|events| {
            let mut v = Vec::with_capacity(events.len() * 2);
            for (ix, ev) in events.iter().enumerate() {
                let (start, end) = match ev {
                    StreamEvent::Op(e) => (e.span.start.0, e.span.end.0),
                    StreamEvent::Kernel(k) => (k.span.start.0, k.span.end.0),
                };
                v.push((start, 0, Edge::Begin(ix)));
                v.push((end, 1, Edge::End(ix)));
            }
            v.sort_by_key(|&(t, kind, edge)| {
                (
                    t,
                    kind,
                    match edge {
                        Edge::Begin(ix) | Edge::End(ix) => ix,
                    },
                )
            });
            v
        })
        .collect();

    let shards = shard_events.len();
    let global = GlobalWatermark::with_capacity(shards);
    let slots: Vec<_> = (0..shards).map(|_| global.register()).collect();
    let mut models = vec![ShardModel::default(); shards];
    let mut pending: Vec<Vec<StreamEvent>> = vec![Vec::new(); shards];
    let mut cursors = vec![0usize; shards];
    let mut rng = Rng::new(interleave_seed | 1);
    let mut remaining: usize = edges.iter().map(|e| e.len()).sum();

    while remaining > 0 {
        // Pick any shard that still has edges — the interleaving is the
        // randomized part.
        let mut s = rng.below(shards as u64) as usize;
        while cursors[s] >= edges[s].len() {
            s = (s + 1) % shards;
        }
        let (t, _, edge) = edges[s][cursors[s]];
        cursors[s] += 1;
        remaining -= 1;
        match edge {
            Edge::Begin(_) => {
                models[s].open(SimTime(t));
                models[s].publish(&global, slots[s]);
            }
            Edge::End(ix) => {
                let ev = shard_events[s][ix].clone();
                let start = match &ev {
                    StreamEvent::Op(e) => e.span.start,
                    StreamEvent::Kernel(k) => k.span.start,
                };
                models[s].close(start, SimTime(t));
                // The tool's contract: queue the event, then publish,
                // then drain at the merged watermark.
                pending[s].push(ev);
                models[s].publish(&global, slots[s]);
                let watermark = global.merged();
                for queue in pending.iter_mut() {
                    for ev in queue.drain(..) {
                        engine.push(ev);
                    }
                }
                engine.advance(watermark);
            }
        }
    }
    for slot in &slots {
        global.retire(*slot);
    }
}

#[test]
fn streaming_equals_postmortem_under_randomized_thread_interleavings() {
    for seed in [1u64, 7, 23, 77, 1234] {
        for shards in [2usize, 3, 5] {
            let (ops, kernels) = random_trace(seed.wrapping_mul(0x5DEECE66D) | 1, 400, 2);
            let st = shard_partition(&ops, &kernels, shards, seed);
            let mut engine = StreamingEngine::default();
            feed_sharded_interleaved(&mut engine, &st.shard_events, seed ^ 0xF00D);
            let report = finalize(&mut engine, &st.ops, &st.kernels, 2);
            assert_eq!(engine.live_counts(), report.counts());
            assert_live_matches(
                engine.take_findings(),
                &report,
                &format!("interleaved shards (seed {seed}, {shards} shards)"),
            );
        }
    }
}

#[test]
fn sharded_delivery_is_insensitive_to_the_interleaving_choice() {
    // Same sharded trace, many different interleavings: the live
    // stream must be the same multiset every time (the report's
    // projection).
    let (ops, kernels) = random_trace(0xC0FFEE, 300, 2);
    let st = shard_partition(&ops, &kernels, 4, 9);
    for interleave in [1u64, 2, 3, 99, 4096] {
        let mut engine = StreamingEngine::default();
        feed_sharded_interleaved(&mut engine, &st.shard_events, interleave);
        let report = finalize(&mut engine, &st.ops, &st.kernels, 2);
        assert_live_matches(
            engine.take_findings(),
            &report,
            &format!("interleaving {interleave}"),
        );
    }
}

#[test]
fn steady_state_memory_is_independent_of_trace_length() {
    // The acceptance criterion: the engine's windows and Algorithm 1's
    // table must not grow with trace length for steady-state workloads.
    // Build an iterative ping-pong — content leaves and returns each
    // iteration, kernels keep every cursor moving — at 1× and 10×
    // length and compare high-water marks and the table's bytes.
    fn run(iters: usize) -> (ompdataperf::detect::StreamBufferStats, usize, usize) {
        use odp_model::{CodePtr, DataOpKind, DeviceId, EventId, HashVal, TargetKind, TimeSpan};
        let mut ops = Vec::new();
        let mut kernels = Vec::new();
        let mut id = 0u64;
        #[allow(clippy::too_many_arguments)]
        fn next(
            id: &mut u64,
            v: &mut Vec<DataOpEvent>,
            kind: DataOpKind,
            src: DeviceId,
            dest: DeviceId,
            hash: Option<HashVal>,
            t0: u64,
            t1: u64,
        ) {
            v.push(DataOpEvent {
                id: EventId(*id),
                kind,
                src_device: src,
                dest_device: dest,
                src_addr: 0x1000,
                dest_addr: 0xd000,
                bytes: 64,
                hash,
                span: TimeSpan::new(SimTime(t0), SimTime(t1)),
                codeptr: CodePtr(0x1),
            });
            *id += 1;
        }
        for i in 0..iters as u64 {
            let t = i * 100;
            let host = DeviceId::HOST;
            let dev = DeviceId::target(0);
            next(
                &mut id,
                &mut ops,
                DataOpKind::Alloc,
                host,
                dev,
                None,
                t,
                t + 5,
            );
            next(
                &mut id,
                &mut ops,
                DataOpKind::Transfer,
                host,
                dev,
                Some(HashVal(7)),
                t + 10,
                t + 20,
            );
            kernels.push(TargetEvent {
                id: EventId(id),
                device: dev,
                kind: TargetKind::Kernel,
                span: TimeSpan::new(SimTime(t + 30), SimTime(t + 60)),
                codeptr: CodePtr(0x2),
            });
            id += 1;
            next(
                &mut id,
                &mut ops,
                DataOpKind::Transfer,
                dev,
                host,
                Some(HashVal(7)),
                t + 70,
                t + 80,
            );
            next(
                &mut id,
                &mut ops,
                DataOpKind::Delete,
                host,
                dev,
                None,
                t + 85,
                t + 90,
            );
        }
        let mut engine = StreamingEngine::default();
        feed_completion_order(&mut engine, &ops, &kernels);
        let stats = engine.buffer_stats();
        let (name, table) = engine.retained_bytes()[1];
        assert_eq!(name, "duplicates");
        let report = finalize(&mut engine, &ops, &kernels, 1);
        assert_live_matches(engine.take_findings(), &report, "ping-pong");
        (stats, table, ops.len() + kernels.len())
    }
    let (small, small_table, small_events) = run(100);
    let (large, large_table, large_events) = run(1_000);
    assert!(large_events >= 10 * small_events - 10);
    assert_eq!(
        small_table, large_table,
        "Algorithm 1's table grew with trace length"
    );
    assert_eq!(small.buffered_peak, large.buffered_peak);
    assert_eq!(small.device_pending_peak, large.device_pending_peak);
}

#[test]
fn round_trips_arrive_at_finalize_in_outbound_leg_order() {
    // Nothing decides a round trip before the trace is complete; then
    // finalize emits the report's trips in the order of their outbound
    // legs, `(tx.start, tx.id)` — exactly, not only as a multiset.
    let is_trip = |f: &StreamFinding| matches!(f, StreamFinding::RoundTrip { .. });
    for seed in [3u64, 17, 99] {
        let (ops, kernels) = random_trace(seed, 500, 1);
        let mut engine = StreamingEngine::default();
        feed_completion_order(&mut engine, &ops, &kernels);
        assert!(!engine.take_findings().iter().any(is_trip), "seed {seed}");
        assert_eq!(engine.live_counts().rt, 0);

        let report = finalize(&mut engine, &ops, &kernels, 1);
        let settled: Vec<StreamFinding> =
            engine.take_findings().into_iter().filter(is_trip).collect();
        let start_of: BTreeMap<u64, SimTime> = ops.iter().map(|e| (e.id.0, e.span.start)).collect();
        let mut expected: Vec<StreamFinding> = report.stream_findings().filter(is_trip).collect();
        expected.sort_by_key(|f| match *f {
            StreamFinding::RoundTrip { tx, .. } => (start_of[&tx], tx),
            _ => unreachable!("filtered to round trips"),
        });
        assert!(!settled.is_empty(), "seed {seed} has round trips");
        assert_eq!(settled, expected, "seed {seed}");
        assert_eq!(engine.live_counts().rt, settled.len());
    }
}
