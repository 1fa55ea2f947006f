//! Concurrency stress suite for the sharded collector.
//!
//! Real OS threads hammer forked tool shards with callback storms; the
//! merged trace must be byte-identical across runs (scheduling
//! independence), and the live findings must stay exactly the
//! projection of the fused report no matter how the threads interleave. The
//! barrier-driven cases force the watermark-merge orderings that random
//! scheduling only hits occasionally; the engine's internal
//! release-order assertion (debug builds) turns any early release into
//! a panic.
//!
//! CI runs this suite twice: free-running, and with
//! `RUST_TEST_THREADS=1` so every test's *internal* threads still race
//! while the harness adds no extra noise.

mod common;

use common::assert_live_matches;
use odp_model::{CodePtr, DeviceId, SimTime};
use odp_ompt::{CompilerProfile, DataOpCallback, DataOpType, Endpoint, SubmitCallback, Tool};
use ompdataperf::detect::EventView;
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
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
        src_addr: 0x1000 + (host_op_id % 7) * 0x100,
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

/// Fire a deterministic per-thread callback storm: `ops` transfer
/// begin/end pairs (occasionally overlapping within the thread) with a
/// kernel every 8 ops. Payload content repeats in a small pool so the
/// detectors see cross-thread duplicates.
fn storm(tool: &mut OmpDataPerfTool, thread: u64, ops: u64) {
    let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 64]).collect();
    let mut t = 0u64;
    for i in 0..ops {
        let id = thread * 1_000_000 + i;
        tool.on_data_op(&data_op(Endpoint::Begin, id, t, None));
        if i % 3 == 0 {
            // An overlapping second op: begins before the first ends.
            tool.on_data_op(&data_op(Endpoint::Begin, id + 500_000, t + 2, None));
            tool.on_data_op(&data_op(
                Endpoint::End,
                id + 500_000,
                t + 4,
                Some(&payloads[((i + 1) % 5) as usize]),
            ));
        }
        tool.on_data_op(&data_op(
            Endpoint::End,
            id,
            t + 10,
            Some(&payloads[(i % 5) as usize]),
        ));
        if i % 8 == 0 {
            tool.on_submit(&submit(Endpoint::Begin, id, t + 12));
            tool.on_submit(&submit(Endpoint::End, id, t + 20));
        }
        // The per-thread callback clock must stay monotonic (the OMPT
        // contract the watermark leans on); the +0..3 jitter makes
        // timestamps collide with other threads' — never with our own.
        t += 25 + (i % 4);
    }
}

fn run_storm(threads: u64, ops: u64, stream: bool) -> (ompdataperf::tool::ToolHandle, Vec<()>) {
    let (tool0, handle) = OmpDataPerfTool::new(ToolConfig {
        stream,
        ..Default::default()
    });
    let mut tools = vec![tool0];
    for _ in 1..threads {
        tools.push(handle.fork_tool());
    }
    let caps = CompilerProfile::LlvmClang.capabilities();
    let outs = std::thread::scope(|s| {
        let joins: Vec<_> = tools
            .into_iter()
            .enumerate()
            .map(|(i, mut tool)| {
                let caps = caps.clone();
                s.spawn(move || {
                    tool.initialize(&caps);
                    storm(&mut tool, i as u64, ops);
                    tool.finalize(1_000_000);
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("storm thread panicked"))
            .collect()
    });
    (handle, outs)
}

#[test]
fn eight_thread_storm_merges_deterministically() {
    let (h1, _) = run_storm(8, 400, false);
    let (h2, _) = run_storm(8, 400, false);
    let t1 = h1.take_trace();
    let t2 = h2.take_trace();
    // 400 ops + ~134 overlapping extras per thread; exact count fixed.
    assert_eq!(t1.data_op_count(), t2.data_op_count());
    assert!(t1.data_op_count() >= 8 * 400);
    assert_eq!(
        t1.to_json(),
        t2.to_json(),
        "merged trace must be independent of OS scheduling"
    );
    // Aggregate hash meter saw every payload once.
    assert_eq!(h1.hash_meter().bytes, t1.data_op_count() as u64 * 64);
}

#[test]
fn streaming_storm_finalize_is_byte_identical_to_postmortem() {
    for threads in [2u64, 4, 8] {
        let (handle, _) = run_storm(threads, 300, true);
        let trace = handle.take_trace();
        let mut engine = handle.take_stream_engine().expect("streaming enabled");
        let view = EventView::from_log(&trace);
        let report = engine.finalize(&view);
        assert_eq!(engine.live_counts(), report.counts());
        assert!(
            report.counts().dd > 0,
            "the storm is built to contain cross-thread duplicates"
        );
        assert_live_matches(
            engine.take_findings(),
            &report,
            &format!("{threads}-thread storm"),
        );
    }
}

#[test]
fn live_findings_can_be_drained_while_threads_run() {
    let (tool0, handle) = OmpDataPerfTool::new(ToolConfig {
        stream: true,
        ..Default::default()
    });
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
                    storm(&mut tool, i as u64, 300);
                    tool.finalize(1_000_000);
                })
            })
            .collect();
        // Concurrent observer: drain findings while the storm rages.
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
    // Everything drained live is accounted in the final counts.
    let counts = handle.stream_counts().expect("streaming on");
    assert_eq!(counts.total(), drained.len());
    // Drained mid-run plus emitted at finalize = the report's projection.
    let trace = handle.take_trace();
    let mut engine = handle.take_stream_engine().expect("streaming on");
    let report = engine.finalize(&EventView::from_log(&trace));
    let mut live = drained;
    live.extend(engine.take_findings());
    assert_live_matches(live, &report, "drained while running");
}

#[test]
fn barrier_forced_interleaving_exercises_the_watermark_merge() {
    // Phase-locked worst case: every thread opens an op, all wait at a
    // barrier (so every shard's clock pins the merge), then threads
    // close in *reverse* shard order while others keep emitting events
    // with identical timestamps. Any premature release trips the
    // engine's internal order assertion (debug builds) and diverges
    // the live stream from the report's projection (all builds).
    const THREADS: usize = 4;
    let (tool0, handle) = OmpDataPerfTool::new(ToolConfig {
        stream: true,
        ..Default::default()
    });
    let mut tools = vec![tool0];
    for _ in 1..THREADS {
        tools.push(handle.fork_tool());
    }
    let caps = CompilerProfile::LlvmClang.capabilities();
    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|s| {
        for (i, mut tool) in tools.into_iter().enumerate() {
            let caps = caps.clone();
            let barrier = barrier.clone();
            s.spawn(move || {
                tool.initialize(&caps);
                let base = 1_000 * (i as u64 + 1);
                let payload = vec![7u8; 64];
                // Everyone opens a long op at the SAME begin time (100).
                tool.on_data_op(&data_op(Endpoint::Begin, base, 100, None));
                barrier.wait();
                // Short same-time ops complete while every shard's long
                // op is still open: all of them must sit in the buffer.
                for k in 0..50u64 {
                    tool.on_data_op(&data_op(Endpoint::Begin, base + 1 + k, 150, None));
                    tool.on_data_op(&data_op(Endpoint::End, base + 1 + k, 160, Some(&payload)));
                }
                barrier.wait();
                // Close the long ops in reverse shard order.
                for turn in (0..THREADS).rev() {
                    if turn == i {
                        tool.on_data_op(&data_op(
                            Endpoint::End,
                            base,
                            300 + i as u64,
                            Some(&payload),
                        ));
                    }
                    barrier.wait();
                }
                tool.finalize(10_000);
            });
        }
    });
    let trace = handle.take_trace();
    let mut engine = handle.take_stream_engine().unwrap();
    let view = EventView::from_log(&trace);
    let report = engine.finalize(&view);
    // 4 shards × 50 identical same-start transfers + 4 long ops of the
    // same content: one giant duplicate group.
    assert_eq!(report.counts().dd, THREADS * 50 + THREADS - 1);
    assert_live_matches(engine.take_findings(), &report, "forced interleaving");
}

#[test]
fn open_op_on_one_thread_gates_releases_from_all_threads() {
    let (mut t0, handle) = OmpDataPerfTool::new(ToolConfig {
        stream: true,
        ..Default::default()
    });
    let mut t1 = handle.fork_tool();
    let caps = CompilerProfile::LlvmClang.capabilities();
    t0.initialize(&caps);
    t1.initialize(&caps);
    let payload = vec![9u8; 64];
    // Thread 0 opens at t=50 and stalls.
    t0.on_data_op(&data_op(Endpoint::Begin, 1, 50, None));
    // Thread 1 completes ops far past that begin.
    for k in 0..20u64 {
        t1.on_data_op(&data_op(Endpoint::Begin, 100 + k, 200 + k, None));
        t1.on_data_op(&data_op(Endpoint::End, 100 + k, 210 + k, Some(&payload)));
    }
    let stats = handle.stream_buffer_stats().unwrap();
    assert_eq!(
        stats.buffered_now, 20,
        "thread 0's open op must gate every shard's releases"
    );
    // Thread 0 closes: everything may drain on the next advance.
    t0.on_data_op(&data_op(Endpoint::End, 1, 500, Some(&payload)));
    t1.on_data_op(&data_op(Endpoint::Begin, 999, 600, None));
    t1.on_data_op(&data_op(Endpoint::End, 999, 610, Some(&payload)));
    let stats = handle.stream_buffer_stats().unwrap();
    assert!(
        stats.buffered_now <= 2,
        "release after the gate lifted: {stats:?}"
    );
    t0.finalize(1_000);
    t1.finalize(1_000);
    let trace = handle.take_trace();
    let mut engine = handle.take_stream_engine().unwrap();
    let view = EventView::from_log(&trace);
    let report = engine.finalize(&view);
    assert_live_matches(engine.take_findings(), &report, "gated release");
}
