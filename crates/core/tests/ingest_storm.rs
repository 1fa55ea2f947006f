//! Live-ingest storm suite.
//!
//! The sharded collector hands events from callback threads to the
//! streaming drain through one pending queue per shard, which a drain
//! swaps out whole. These storms force the shapes the unit tests
//! can't: drains racing the producers and the watermark publishers —
//! a live observer hammering the engine makes them frequent — shards
//! finalizing while others still produce, and virtual clocks far
//! apart, where the shard behind leaves its drains to the one ahead.
//! The oracle everywhere is the streaming invariant — the live findings
//! of the whole run are exactly the projection of the fused report over
//! the merged trace — plus "no event lost" trace counts.
//!
//! CI runs this suite twice: free-running, and with
//! `RUST_TEST_THREADS=1` so every test's *internal* threads still race
//! while the harness adds no extra noise.

mod common;

use common::assert_live_matches;
use odp_model::{CodePtr, DeviceId, SimTime};
use odp_ompt::{CompilerProfile, DataOpCallback, DataOpType, Endpoint, SubmitCallback, Tool};
use ompdataperf::detect::{EventView, StreamFinding};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig, ToolHandle};
use std::sync::{Arc, Barrier};

fn data_op<'a>(
    endpoint: Endpoint,
    host_op_id: u64,
    time: u64,
    payload: Option<&'a [u8]>,
) -> DataOpCallback<'a> {
    DataOpCallback {
        endpoint,
        target_id: 1,
        host_op_id,
        optype: DataOpType::TransferToDevice,
        src_device: DeviceId::HOST,
        src_addr: 0x1000 + (host_op_id % 5) * 0x100,
        dest_device: DeviceId::target(0),
        dest_addr: 0xd000,
        bytes: payload.map(|p| p.len() as u64).unwrap_or(64),
        codeptr_ra: CodePtr(0x42),
        time: SimTime(time),
        payload,
    }
}

fn submit(endpoint: Endpoint, target_id: u64, time: u64) -> SubmitCallback {
    SubmitCallback {
        endpoint,
        target_id,
        device: DeviceId::target(0),
        requested_num_teams: 1,
        codeptr_ra: CodePtr(0x77),
        time: SimTime(time),
    }
}

/// Deterministic per-thread storm, seeded by `(thread, seed)`: transfer
/// pairs with an overlapping op every 3rd iteration, a kernel every 8th,
/// payload content from a small pool so cross-thread duplicates exist.
/// Times start at `base` and only move forward — a shard's clock must
/// never run backwards past what it already published.
fn storm(tool: &mut OmpDataPerfTool, thread: u64, seed: u64, ops: u64, base: u64) {
    let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 64]).collect();
    let mut t = base + seed % 17;
    for i in 0..ops {
        let id = (seed << 24) + thread * 1_000_000 + i;
        tool.on_data_op(&data_op(Endpoint::Begin, id, t, None));
        if i % 3 == 0 {
            tool.on_data_op(&data_op(Endpoint::Begin, id + 500_000, t + 2, None));
            tool.on_data_op(&data_op(
                Endpoint::End,
                id + 500_000,
                t + 4,
                Some(&payloads[((i + seed + 1) % 5) as usize]),
            ));
        }
        tool.on_data_op(&data_op(
            Endpoint::End,
            id,
            t + 10,
            Some(&payloads[((i + seed) % 5) as usize]),
        ));
        if i % 8 == 0 {
            tool.on_submit(&submit(Endpoint::Begin, id, t + 12));
            tool.on_submit(&submit(Endpoint::End, id, t + 20));
        }
        t += 25 + (i % 4);
    }
}

fn run_storm(cfg: ToolConfig, threads: u64, seed: u64, ops: u64) -> ToolHandle {
    let (tool0, handle) = OmpDataPerfTool::new(cfg);
    let mut tools = vec![tool0];
    for _ in 1..threads {
        tools.push(handle.fork_tool());
    }
    let caps = CompilerProfile::LlvmClang.capabilities();
    std::thread::scope(|s| {
        let joins: Vec<_> = tools
            .into_iter()
            .enumerate()
            .map(|(i, mut tool)| {
                let caps = caps.clone();
                s.spawn(move || {
                    tool.initialize(&caps);
                    storm(&mut tool, i as u64, seed, ops, 0);
                    tool.finalize(1_000_000);
                })
            })
            .collect();
        for j in joins {
            j.join().expect("storm thread panicked");
        }
    });
    handle
}

/// `drained` is whatever a live observer already took off the stream;
/// the rest is still in the engine.
fn assert_oracle(handle: &ToolHandle, drained: Vec<StreamFinding>, label: &str) {
    let trace = handle.take_trace();
    let mut engine = handle.take_stream_engine().expect("streaming enabled");
    let view = EventView::from_log(&trace);
    let report = engine.finalize(&view);
    assert!(
        report.counts().dd > 0,
        "the storm is built to contain duplicates ({label})"
    );
    let mut live = drained;
    live.extend(engine.take_findings());
    assert_live_matches(live, &report, label);
}

/// A live observer hammers the findings stream, so drains race the
/// producers on almost every push. Everything drained live plus the
/// final counts must account for every finding exactly once.
#[test]
fn drains_racing_with_live_observer() {
    let cfg = ToolConfig {
        stream: true,
        ..Default::default()
    };
    let (tool0, handle) = OmpDataPerfTool::new(cfg);
    let mut tools = vec![tool0];
    for _ in 1..4 {
        tools.push(handle.fork_tool());
    }
    let caps = CompilerProfile::LlvmClang.capabilities();
    let tap = handle.tap_stream_findings();
    let drained = std::thread::scope(|s| {
        let joins: Vec<_> = tools
            .into_iter()
            .enumerate()
            .map(|(i, mut tool)| {
                let caps = caps.clone();
                s.spawn(move || {
                    tool.initialize(&caps);
                    storm(&mut tool, i as u64, 3, 400, 0);
                    tool.finalize(1_000_000);
                })
            })
            .collect();
        let mut live = Vec::new();
        while joins.iter().any(|j| !j.is_finished()) {
            live.extend(tap.take());
            std::thread::yield_now();
        }
        for j in joins {
            j.join().expect("storm thread panicked");
        }
        live.extend(tap.take());
        live
    });
    assert!(!drained.is_empty(), "findings must flow during the run");
    let counts = handle.stream_counts().expect("streaming on");
    assert_eq!(counts.total(), drained.len(), "no finding lost or doubled");
    assert_oracle(&handle, drained, "live observer");
}

/// Half the shards finalize (retiring their watermark slots) while the
/// other half keep producing into their queues. Late producers' events
/// must still merge and detect exactly.
#[test]
fn finalize_while_producing_keeps_the_oracle() {
    let cfg = ToolConfig {
        stream: true,
        ..Default::default()
    };
    const THREADS: usize = 4;
    let (tool0, handle) = OmpDataPerfTool::new(cfg);
    let mut tools = vec![tool0];
    for _ in 1..THREADS {
        tools.push(handle.fork_tool());
    }
    let caps = CompilerProfile::LlvmClang.capabilities();
    let fence = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|s| {
        for (i, mut tool) in tools.into_iter().enumerate() {
            let caps = caps.clone();
            let fence = fence.clone();
            s.spawn(move || {
                tool.initialize(&caps);
                storm(&mut tool, i as u64, 5, 200, 0);
                if i % 2 == 0 {
                    // Even shards finish early...
                    tool.finalize(1_000_000);
                    fence.wait();
                } else {
                    // ...odd shards keep producing after the early
                    // finalizers have retired their slots.
                    fence.wait();
                    storm(&mut tool, i as u64 + 100, 6, 200, 10_000);
                    tool.finalize(1_000_000);
                }
            });
        }
    });
    assert_oracle(&handle, Vec::new(), "finalize while producing");
}

/// Same seed, same config, two runs: the merged trace must be
/// byte-identical no matter how pushes and drains interleaved.
#[test]
fn live_ingest_is_scheduling_independent() {
    let cfg = ToolConfig {
        stream: true,
        ..Default::default()
    };
    let t1 = run_storm(cfg, 8, 11, 300).take_trace();
    let t2 = run_storm(cfg, 8, 11, 300).take_trace();
    assert_eq!(t1.data_op_count(), t2.data_op_count());
    assert_eq!(
        t1.to_json(),
        t2.to_json(),
        "merged trace must not depend on scheduling"
    );
}

/// Two strictly sequential shards, with an observer draining as fast
/// as it can so drains race every push: whatever the interleaving, the
/// lanes must see each shard in arrival order.
#[test]
fn racing_drains_feed_each_lane_in_arrival_order() {
    let cfg = ToolConfig {
        stream: true,
        ..Default::default()
    };
    let caps = CompilerProfile::LlvmClang.capabilities();
    let payload = vec![3u8; 64];
    for attempt in 0..20 {
        let (tool0, handle) = OmpDataPerfTool::new(cfg);
        let tools = vec![tool0, handle.fork_tool()];
        let producing = std::sync::atomic::AtomicUsize::new(tools.len());
        std::thread::scope(|s| {
            for (i, mut tool) in tools.into_iter().enumerate() {
                let (caps, payload, producing) = (caps.clone(), &payload, &producing);
                s.spawn(move || {
                    tool.initialize(&caps);
                    for op in 0..5_000u64 {
                        let (id, t) = (i as u64 * 1_000_000 + op, op * 20);
                        tool.on_data_op(&data_op(Endpoint::Begin, id, t, None));
                        tool.on_data_op(&data_op(Endpoint::End, id, t + 10, Some(payload)));
                    }
                    producing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    tool.finalize(1_000_000);
                });
            }
            while producing.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                handle.stream_counts();
            }
        });
        let stats = handle.stream_buffer_stats().expect("streaming enabled");
        assert_eq!(stats.reorder_inversions, 0, "attempt {attempt}: {stats:?}");
        assert_oracle(&handle, Vec::new(), "sequential racing drains");
    }
}

/// Two threads whose virtual clocks sit a second apart. The thread
/// behind holds the merged watermark back for the whole run and leaves
/// its drains to the thread ahead, which finishes first while the one
/// behind keeps producing and from then on drains for itself. Every
/// recorded event must reach the engine, none may wait in its lanes,
/// and the live findings must match the oracle.
#[test]
fn skewed_clocks_leave_nothing_queued() {
    let cfg = ToolConfig {
        stream: true,
        ..Default::default()
    };
    let (mut behind, handle) = OmpDataPerfTool::new(cfg);
    let mut ahead = handle.fork_tool();
    let caps = CompilerProfile::LlvmClang.capabilities();
    let retired = Barrier::new(2);
    std::thread::scope(|s| {
        let (caps, retired) = (&caps, &retired);
        s.spawn(move || {
            ahead.initialize(caps);
            storm(&mut ahead, 1, 9, 6_000, 1_000_000_000);
            ahead.finalize(2_000_000_000);
            retired.wait();
        });
        s.spawn(move || {
            behind.initialize(caps);
            storm(&mut behind, 0, 9, 4_000, 0);
            retired.wait();
            storm(&mut behind, 100, 9, 4_000, 200_000);
            behind.finalize(2_000_000_000);
        });
    });
    let trace = handle.take_trace();
    let recorded = (trace.data_op_count() + trace.target_count()) as u64;
    let mut engine = handle.take_stream_engine().expect("streaming enabled");
    let stats = engine.buffer_stats();
    assert_eq!(stats.drained_events, recorded, "{stats:?}");
    assert_eq!(stats.buffered_now, 0, "{stats:?}");
    let report = engine.finalize(&EventView::from_log(&trace));
    assert!(report.counts().dd > 0, "the storm repeats content");
    assert_live_matches(engine.take_findings(), &report, "skewed clocks");
}
