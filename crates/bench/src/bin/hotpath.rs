// The vendored `json!` stand-in expands field-by-field recursively; the
// bench document's field count needs more headroom than the default 128.
#![recursion_limit = "512"]

//! Hot-path throughput probe for the columnar/ring refactor: the fused
//! detector sweep (Melem/s over the columnar `EventView`), the
//! per-callback collection cost of the sharded tool (ns/event, ring
//! ingest on and off), and the streaming increment — the three numbers
//! the BENCH trajectory tracks against `BENCH_hotpath.json`.
//!
//! Unlike the criterion benches this is a plain binary with a stable
//! JSON schema, so CI's perf guard can diff a fresh run against the
//! checked-in baseline without parsing criterion output.
//!
//! ```sh
//! cargo run --release -p odp-bench --bin hotpath -- \
//!     [--quick] [--json PATH] [--guard BASELINE]
//! ```
//!
//! `--guard BASELINE` compares the fresh run against the checked-in
//! baseline and exits non-zero on a >20% regression in any gated
//! number: fused, persist_save, and persist_load Melem/s (throughput
//! floors) plus streaming, reorder, and callback ns/event (latency
//! ceilings) — the contract `scripts/perf_guard.sh` enforces in CI.

use odp_bench::{measure_wall, Table};
use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};
use odp_ompt::{CompilerProfile, DataOpCallback, DataOpType, Endpoint, Tool};
use ompdataperf::detect::{EventView, Findings, StreamingEngine};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// Same trace shape as the criterion detector bench: five events per
/// iteration (alloc + H2D + kernel + D2H + delete), every fourth H2D
/// re-sending identical content so the detectors have real work.
fn build_log(iters: usize) -> (Vec<DataOpEvent>, Vec<TargetEvent>) {
    let mut ops = Vec::with_capacity(iters * 4);
    let mut kernels = Vec::with_capacity(iters);
    let mut id = 0u64;
    let mut next = || {
        id += 1;
        EventId(id)
    };
    for i in 0..iters {
        let t = (i as u64) * 100;
        let hash = if i % 4 == 0 { 42 } else { 1000 + i as u64 };
        ops.push(DataOpEvent {
            id: next(),
            kind: DataOpKind::Alloc,
            src_device: DeviceId::HOST,
            dest_device: DeviceId::target(0),
            src_addr: 0x1000,
            dest_addr: 0xd000,
            bytes: 4096,
            hash: None,
            span: TimeSpan::new(SimTime(t), SimTime(t + 5)),
            codeptr: CodePtr(0x1),
        });
        ops.push(DataOpEvent {
            id: next(),
            kind: DataOpKind::Transfer,
            src_device: DeviceId::HOST,
            dest_device: DeviceId::target(0),
            src_addr: 0x1000,
            dest_addr: 0xd000,
            bytes: 4096,
            hash: Some(HashVal(hash)),
            span: TimeSpan::new(SimTime(t + 10), SimTime(t + 20)),
            codeptr: CodePtr(0x2),
        });
        kernels.push(TargetEvent {
            id: next(),
            device: DeviceId::target(0),
            kind: TargetKind::Kernel,
            span: TimeSpan::new(SimTime(t + 30), SimTime(t + 60)),
            codeptr: CodePtr(0x3),
        });
        ops.push(DataOpEvent {
            id: next(),
            kind: DataOpKind::Transfer,
            src_device: DeviceId::target(0),
            dest_device: DeviceId::HOST,
            src_addr: 0xd000,
            dest_addr: 0x1000,
            bytes: 4096,
            hash: Some(HashVal(5000 + i as u64)),
            span: TimeSpan::new(SimTime(t + 70), SimTime(t + 80)),
            codeptr: CodePtr(0x4),
        });
        ops.push(DataOpEvent {
            id: next(),
            kind: DataOpKind::Delete,
            src_device: DeviceId::HOST,
            dest_device: DeviceId::target(0),
            src_addr: 0x1000,
            dest_addr: 0xd000,
            bytes: 4096,
            hash: None,
            span: TimeSpan::new(SimTime(t + 90), SimTime(t + 95)),
            codeptr: CodePtr(0x5),
        });
    }
    (ops, kernels)
}

struct Sweep {
    events: usize,
    melem_per_s: f64,
    ns_per_event: f64,
}

fn sweep(events: usize, reps: usize, f: impl Fn() -> std::time::Duration) -> Sweep {
    let wall = measure_wall(reps, f);
    let ns = wall.as_secs_f64() * 1e9;
    Sweep {
        events,
        melem_per_s: events as f64 / wall.as_secs_f64() / 1e6,
        ns_per_event: ns / events as f64,
    }
}

/// Sharded callback storm: `threads` concurrent tools, each recording
/// `pairs` Begin/End transfer pairs. Returns ns per callback event
/// (criterion's convention: concurrent wall over total events).
fn callback_storm(threads: u64, pairs: u64, stream: bool) -> f64 {
    fn cb(endpoint: Endpoint, id: u64, time: u64) -> DataOpCallback<'static> {
        DataOpCallback {
            endpoint,
            target_id: 1,
            host_op_id: id,
            optype: DataOpType::TransferToDevice,
            src_device: DeviceId::HOST,
            src_addr: 0x1000,
            dest_device: DeviceId::target(0),
            dest_addr: 0xd000,
            bytes: 64,
            codeptr_ra: CodePtr(0x42),
            time: SimTime(time),
            payload: None,
        }
    }
    let wall = measure_wall(3, || {
        let (tool0, handle) = OmpDataPerfTool::new(ToolConfig {
            stream,
            ..Default::default()
        });
        let mut tools = vec![tool0];
        for _ in 1..threads {
            tools.push(handle.fork_tool());
        }
        let caps = CompilerProfile::LlvmClang.capabilities();
        let start = Instant::now();
        std::thread::scope(|s| {
            for mut tool in tools {
                let caps = caps.clone();
                s.spawn(move || {
                    tool.initialize(&caps);
                    for i in 0..pairs {
                        let t = i * 10;
                        tool.on_data_op(&cb(Endpoint::Begin, i, t));
                        tool.on_data_op(&cb(Endpoint::End, i, t + 5));
                    }
                    tool.finalize(pairs * 10);
                });
            }
        });
        let wall = start.elapsed();
        black_box(handle.take_trace().data_op_count());
        wall
    });
    wall.as_secs_f64() * 1e9 / (threads * pairs * 2) as f64
}

fn main() {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut guard_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json_path = args.next(),
            "--guard" => guard_path = args.next(),
            "--help" | "-h" => {
                println!(
                    "flags: --quick (skip the 1M sweep), --json PATH, --guard BASELINE (fail on >20% fused regression)"
                );
                return;
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut table = Table::new(&["Path", "Events", "Melem/s", "ns/event"]);
    let mut fused = Vec::new();
    let mut separate = Vec::new();
    let mut streaming = Vec::new();
    let mut reorder = Vec::new();

    let mut hydrate = Vec::new();
    let mut persist_save = Vec::new();
    let mut persist_load = Vec::new();

    for &events in sizes {
        let (ops, kernels) = build_log(events / 5);
        let total = ops.len() + kernels.len();
        let reps = if events >= 1_000_000 { 3 } else { 7 };

        // The tool's hot sweep: detection over the memoized columnar
        // hydration (`EventView::from_log` borrows it zero-copy), so
        // the fused number is indexing + the five fused state machines
        // over prebuilt columns — hydration is its own row below.
        let cols = odp_trace::ColumnarView::from_events(&ops, &kernels);
        let s = sweep(total, reps, || {
            let start = Instant::now();
            let view = EventView::over(black_box(&cols), 1);
            black_box(Findings::detect_fused(&view));
            start.elapsed()
        });
        table.row(vec![
            "fused".into(),
            format!("{events}"),
            format!("{:.3}", s.melem_per_s),
            format!("{:.1}", s.ns_per_event),
        ]);
        fused.push(s);

        let s = sweep(total, reps, || {
            let start = Instant::now();
            black_box(EventView::over(black_box(&cols), 1));
            start.elapsed()
        });
        table.row(vec![
            "index".into(),
            format!("{events}"),
            format!("{:.3}", s.melem_per_s),
            format!("{:.1}", s.ns_per_event),
        ]);

        let s = sweep(total, reps, || {
            let start = Instant::now();
            black_box(odp_trace::ColumnarView::from_events(
                black_box(&ops),
                black_box(&kernels),
            ));
            start.elapsed()
        });
        table.row(vec![
            "hydrate".into(),
            format!("{events}"),
            format!("{:.3}", s.melem_per_s),
            format!("{:.1}", s.ns_per_event),
        ]);
        hydrate.push(s);

        {
            // Persistence round-trip over the same columns: `to_bytes`
            // is column memcpy + FNV-1a checksums + the JSON footer;
            // the load verifies every checksum and rebuilds the
            // columns. Both are floors the perf guard holds so the
            // corpus pipeline keeps up with the detectors it feeds.
            let artifact = odp_trace::TraceArtifact {
                meta: odp_trace::TraceMeta {
                    program: "hotpath".into(),
                    total_time_ns: events as u64 * 100,
                    ..Default::default()
                },
                shards: vec![odp_trace::ShardColumns {
                    shard: 0,
                    ops: cols.ops.clone(),
                    targets: cols.kernels.clone(),
                }],
                ..Default::default()
            };
            let s = sweep(total, reps, || {
                let start = Instant::now();
                black_box(black_box(&artifact).to_bytes());
                start.elapsed()
            });
            table.row(vec![
                "persist_save".into(),
                format!("{events}"),
                format!("{:.3}", s.melem_per_s),
                format!("{:.1}", s.ns_per_event),
            ]);
            persist_save.push(s);

            let bytes = artifact.to_bytes();
            let s = sweep(total, reps, || {
                let start = Instant::now();
                black_box(odp_trace::load_trace_lenient(black_box(&bytes)));
                start.elapsed()
            });
            table.row(vec![
                "persist_load".into(),
                format!("{events}"),
                format!("{:.3}", s.melem_per_s),
                format!("{:.1}", s.ns_per_event),
            ]);
            persist_load.push(s);
        }

        let s = sweep(total, reps, || {
            let start = Instant::now();
            black_box(Findings::detect_separate(
                black_box(&ops),
                black_box(&kernels),
                1,
            ));
            start.elapsed()
        });
        table.row(vec![
            "separate".into(),
            format!("{events}"),
            format!("{:.3}", s.melem_per_s),
            format!("{:.1}", s.ns_per_event),
        ]);
        separate.push(s);

        {
            // Streaming increment: batched ingest in ring-drain-sized
            // chunks with a trailing watermark, then finalize (which
            // completes the live stream and runs the fused sweep) —
            // the shape `ToolShared::drain_locked` produces. The view
            // is built outside the timed closure: indexing has its own
            // row.
            use ompdataperf::detect::StreamEvent;
            let mut arrivals: Vec<StreamEvent> = ops.iter().cloned().map(StreamEvent::Op).collect();
            arrivals.extend(kernels.iter().cloned().map(StreamEvent::Kernel));
            arrivals.sort_by_key(|ev| match ev {
                StreamEvent::Op(e) => (e.span.end, e.id.0),
                StreamEvent::Kernel(k) => (k.span.end, k.id.0),
            });
            let view = EventView::new(&ops, &kernels, 1);
            let s = sweep(total, reps, || {
                let start = Instant::now();
                let mut engine = StreamingEngine::default();
                for chunk in arrivals.chunks(256) {
                    let watermark = match chunk.last() {
                        Some(StreamEvent::Op(e)) => e.span.end,
                        Some(StreamEvent::Kernel(k)) => k.span.end,
                        None => SimTime(0),
                    };
                    engine.ingest_batch(chunk.iter().cloned(), Some(watermark));
                }
                black_box(engine.finalize(&view));
                start.elapsed()
            });
            table.row(vec![
                "streaming".into(),
                format!("{events}"),
                format!("{:.3}", s.melem_per_s),
                format!("{:.1}", s.ns_per_event),
            ]);
            streaming.push(s);
        }

        {
            // Standalone reorder-pipeline increment: the shard-run
            // merge that replaced the streaming engine's BinaryHeap,
            // fed four in-order shard runs with a trailing watermark
            // drain every 256 events — detector state machines
            // excluded, so this row isolates the pipeline's per-event
            // push + merge + retire cost (the <50 ns streaming-
            // increment budget).
            use ompdataperf::detect::reorder::RunMergeBuffer;
            let shards = 4u64;
            let s = sweep(total, reps, || {
                let start = Instant::now();
                let mut buf: RunMergeBuffer<u64> = RunMergeBuffer::default();
                let mut drained = 0usize;
                for i in 0..total as u64 {
                    let t = SimTime(i * 10);
                    buf.push((i % shards) as u32, (t, i, 0), i);
                    if i % 256 == 255 {
                        let wm = SimTime((i * 10).saturating_sub(2_560));
                        while let Some(v) = buf.pop_if(|k| k.0 <= wm) {
                            drained += 1;
                            black_box(v);
                        }
                    }
                }
                while let Some(v) = buf.pop_if(|_| true) {
                    drained += 1;
                    black_box(v);
                }
                black_box(drained);
                start.elapsed()
            });
            table.row(vec![
                "reorder".into(),
                format!("{events}"),
                format!("{:.3}", s.melem_per_s),
                format!("{:.1}", s.ns_per_event),
            ]);
            reorder.push(s);
        }
    }

    let threads = 4u64;
    let pairs = if quick { 20_000 } else { 50_000 };
    let callback_ns = callback_storm(threads, pairs, false);
    let callback_stream_ns = callback_storm(threads, pairs, true);
    table.row(vec![
        "callback".into(),
        format!("{}x{}", threads, pairs * 2),
        String::new(),
        format!("{callback_ns:.1}"),
    ]);
    table.row(vec![
        "callback+ring".into(),
        format!("{}x{}", threads, pairs * 2),
        String::new(),
        format!("{callback_stream_ns:.1}"),
    ]);

    println!("hotpath — fused sweep, streaming increment, callback cost");
    println!("{}", table.render());

    if let Some(path) = json_path {
        let row = |s: &Sweep| {
            json!({
                "events": s.events,
                "melem_per_s": (s.melem_per_s * 1000.0).round() / 1000.0,
                "ns_per_event": (s.ns_per_event * 10.0).round() / 10.0,
            })
        };
        // `pr6_baseline` is the pre-refactor code (mutex pending queue,
        // row-based `EventView`) measured the same day, on the same
        // machine, interleaved run-for-run with this binary — the
        // denominators of the ISSUE's ≥2× fused target. Medians of
        // three interleaved rounds.
        let doc = json!({
            "schema": "hotpath-v1",
            "quick": quick,
            "fused": fused.iter().map(row).collect::<Vec<_>>(),
            "hydrate": hydrate.iter().map(row).collect::<Vec<_>>(),
            "persist_save": persist_save.iter().map(row).collect::<Vec<_>>(),
            "persist_load": persist_load.iter().map(row).collect::<Vec<_>>(),
            "separate": separate.iter().map(row).collect::<Vec<_>>(),
            "streaming": streaming.iter().map(row).collect::<Vec<_>>(),
            "reorder": reorder.iter().map(row).collect::<Vec<_>>(),
            "callback": {
                "threads": threads,
                "pairs_per_thread": pairs,
                "ns_per_event": (callback_ns * 10.0).round() / 10.0,
                "ring_ns_per_event": (callback_stream_ns * 10.0).round() / 10.0,
            },
            "pr6_baseline": {
                "fused_melem_per_s": { "10000": 22.2, "100000": 8.85, "1000000": 3.88 },
                "separate_melem_per_s": { "10000": 10.49, "100000": 4.18, "1000000": 2.03 },
                "callback_ns_per_event": 35.4,
            },
        });
        let rendered = serde_json::to_string_pretty(&doc)
            .unwrap_or_else(|e| panic!("serialize bench doc: {e}"));
        std::fs::write(&path, rendered + "\n")
            .unwrap_or_else(|e| panic!("write bench json {path}: {e}"));
        println!("wrote {path}");
    }

    if let Some(path) = guard_path {
        const TOLERANCE: f64 = 0.20;
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf guard: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let baseline: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perf guard: baseline {path} is not valid JSON: {e}");
                std::process::exit(2);
            }
        };

        let mut checked = 0usize;
        let mut failed = false;

        // Throughput gates (higher is better): fused Melem/s.
        // Latency gates (lower is better): streaming, reorder, and
        // callback ns/event. Both use the same ±20% band the script's
        // 3-strike retry was designed around.
        let mut gate = |name: &str,
                        events: Option<usize>,
                        measured: f64,
                        base: f64,
                        floor: bool| {
            checked += 1;
            let at = events.map(|e| format!(" @{e} events")).unwrap_or_default();
            let bound = if floor {
                base * (1.0 - TOLERANCE)
            } else {
                base * (1.0 + TOLERANCE)
            };
            let (unit, ok) = if floor {
                ("Melem/s", measured >= bound)
            } else {
                ("ns/event", measured <= bound)
            };
            if ok {
                println!(
                    "perf guard: {name}{at} ok: {measured:.3} {unit} vs bound {bound:.3} (baseline {base:.3})"
                );
            } else {
                eprintln!(
                    "perf guard: {name}{at} REGRESSED: {measured:.3} {unit} vs bound {bound:.3} (baseline {base:.3} ± {:.0}%)",
                    TOLERANCE * 100.0
                );
                failed = true;
            }
        };

        let by_events = |section: &str, events: usize, field: &str| -> Option<f64> {
            baseline[section].as_array()?.iter().find_map(|r| {
                (r["events"].as_u64() == Some(events as u64)).then(|| r[field].as_f64())?
            })
        };
        for s in &fused {
            if let Some(base) = by_events("fused", s.events, "melem_per_s") {
                gate("fused", Some(s.events), s.melem_per_s, base, true);
            }
        }
        for s in &persist_save {
            if let Some(base) = by_events("persist_save", s.events, "melem_per_s") {
                gate("persist_save", Some(s.events), s.melem_per_s, base, true);
            }
        }
        for s in &persist_load {
            if let Some(base) = by_events("persist_load", s.events, "melem_per_s") {
                gate("persist_load", Some(s.events), s.melem_per_s, base, true);
            }
        }
        for s in &streaming {
            if let Some(base) = by_events("streaming", s.events, "ns_per_event") {
                gate("streaming", Some(s.events), s.ns_per_event, base, false);
            }
        }
        for s in &reorder {
            if let Some(base) = by_events("reorder", s.events, "ns_per_event") {
                gate("reorder", Some(s.events), s.ns_per_event, base, false);
            }
        }
        if let Some(base) = baseline["callback"]["ns_per_event"].as_f64() {
            gate("callback", None, callback_ns, base, false);
        }
        if let Some(base) = baseline["callback"]["ring_ns_per_event"].as_f64() {
            gate("callback+ring", None, callback_stream_ns, base, false);
        }

        if checked == 0 {
            eprintln!("perf guard: baseline {path} has no rows matching the measured sizes");
            std::process::exit(2);
        }
        if failed {
            std::process::exit(1);
        }
    }
}
