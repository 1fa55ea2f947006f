//! Shared randomized-trace generation for the differential suites.
//!
//! Generation is fully deterministic (seeded xorshift64*, no wall clock
//! or OS entropy): a failing seed reproduces forever. Both the fused
//! engine's and the streaming engine's differential tests build their
//! traces here so the two suites stress identical event distributions.

#![allow(dead_code)] // shared across several test binaries; each uses a subset

use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};
use odp_trace::ColumnarView;
use ompdataperf::detect::{EventView, Findings, StreamEvent, StreamFinding, StreamingEngine};

/// Settle `engine` against the trace it was fed: the report of a
/// streamed run over these events.
pub fn finalize(
    engine: &mut StreamingEngine,
    ops: &[DataOpEvent],
    kernels: &[TargetEvent],
    num_devices: u32,
) -> Findings {
    let cols = ColumnarView::from_events(ops, kernels);
    engine.finalize(&EventView::over(&cols, num_devices))
}

/// The streaming invariant every differential suite holds the engine
/// to: the live findings emitted over a whole run are, as a multiset,
/// the projection of the fused report over the same trace — every field
/// of every finding, `confidence` included.
pub fn assert_live_matches(mut live: Vec<StreamFinding>, report: &Findings, ctx: &str) {
    let mut projected: Vec<StreamFinding> = report.stream_findings().collect();
    live.sort_unstable();
    projected.sort_unstable();
    assert_eq!(
        live, projected,
        "live stream ≠ projection of the report ({ctx})"
    );
}

/// xorshift64* with splittable seeding.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// How many distinct values [`random_trace_in`] draws the key fields
/// from: host and device addresses, and payload hashes.
#[derive(Clone, Copy, Debug)]
pub struct Pools {
    pub addrs: u64,
    pub hashes: u64,
}

impl Pools {
    /// Five addresses and six hashes: every key the detectors group by
    /// collides constantly.
    pub const NARROW: Pools = Pools {
        addrs: 5,
        hashes: 6,
    };

    /// Thousands of values per field, the regime of a large run: most
    /// allocation sites, reception keys and round-trip groups are
    /// singletons, and the detectors' key tables hold thousands of keys.
    pub const WIDE: Pools = Pools {
        addrs: 4096,
        hashes: 4096,
    };
}

/// Build a random chronological trace. Small pools of addresses, hashes,
/// and devices force every collision class the detectors key on:
/// duplicate receptions, round trips, address reuse with matching and
/// mismatching sizes, interleaved kernels, overlapping spans, and
/// identical start times (tie-broken by log order, which the sort
/// preserves via `EventId`).
pub fn random_trace(
    seed: u64,
    len: usize,
    num_devices: u32,
) -> (Vec<DataOpEvent>, Vec<TargetEvent>) {
    random_trace_in(seed, len, num_devices, Pools::NARROW)
}

/// [`random_trace`] with the key fields drawn from `pools`.
pub fn random_trace_in(
    seed: u64,
    len: usize,
    num_devices: u32,
    pools: Pools,
) -> (Vec<DataOpEvent>, Vec<TargetEvent>) {
    let mut rng = Rng::new(seed);
    let mut data_ops = Vec::new();
    let mut kernels = Vec::new();
    let mut t = 0u64;
    for id in 0..len as u64 {
        // Occasionally reuse the same start time to exercise tie-breaks;
        // occasionally jump to create kernel-free gaps.
        match rng.below(10) {
            0 => {}
            1..=7 => t += 1 + rng.below(12),
            _ => t += 40 + rng.below(60),
        }
        let dur = rng.below(25);
        let span = TimeSpan::new(SimTime(t), SimTime(t + dur));
        let dev = DeviceId::target(rng.below(num_devices as u64) as u32);
        let haddr = 0x1000 + rng.below(pools.addrs) * 0x100;
        let daddr = 0xd000 + rng.below(pools.addrs) * 0x100;
        let bytes = 64 << rng.below(3);
        let hash = HashVal(rng.below(pools.hashes));
        let codeptr = CodePtr(0x400_000 + rng.below(4) * 0x10);
        match rng.below(12) {
            0..=3 => data_ops.push(DataOpEvent {
                id: EventId(id),
                kind: DataOpKind::Transfer,
                src_device: DeviceId::HOST,
                dest_device: dev,
                src_addr: haddr,
                dest_addr: daddr,
                bytes,
                hash: Some(hash),
                span,
                codeptr,
            }),
            4..=6 => data_ops.push(DataOpEvent {
                id: EventId(id),
                kind: DataOpKind::Transfer,
                src_device: dev,
                dest_device: DeviceId::HOST,
                src_addr: daddr,
                dest_addr: haddr,
                bytes,
                hash: Some(hash),
                span,
                codeptr,
            }),
            7 => data_ops.push(DataOpEvent {
                id: EventId(id),
                // A hashless transfer (e.g. degraded-mode zero-length
                // payload): ignored by Algorithms 1/2, seen by 5.
                kind: DataOpKind::Transfer,
                src_device: DeviceId::HOST,
                dest_device: dev,
                src_addr: haddr,
                dest_addr: daddr,
                bytes,
                hash: None,
                span,
                codeptr,
            }),
            8 => data_ops.push(DataOpEvent {
                id: EventId(id),
                kind: DataOpKind::Alloc,
                src_device: DeviceId::HOST,
                dest_device: dev,
                src_addr: haddr,
                dest_addr: daddr,
                bytes,
                hash: None,
                span,
                codeptr,
            }),
            9 => data_ops.push(DataOpEvent {
                id: EventId(id),
                kind: DataOpKind::Delete,
                src_device: DeviceId::HOST,
                dest_device: dev,
                src_addr: haddr,
                dest_addr: daddr,
                bytes,
                hash: None,
                span,
                codeptr,
            }),
            10 => data_ops.push(DataOpEvent {
                id: EventId(id),
                kind: if rng.below(2) == 0 {
                    DataOpKind::Associate
                } else {
                    DataOpKind::Disassociate
                },
                src_device: DeviceId::HOST,
                dest_device: dev,
                src_addr: haddr,
                dest_addr: daddr,
                bytes,
                hash: None,
                span,
                codeptr,
            }),
            _ => kernels.push(TargetEvent {
                id: EventId(id),
                device: dev,
                kind: TargetKind::Kernel,
                span,
                codeptr,
            }),
        }
    }
    // The detectors' precondition: chronological by (start, log order).
    data_ops.sort_by_key(|e| (e.span.start, e.id));
    kernels.sort_by_key(|e| (e.span.start, e.id));
    (data_ops, kernels)
}

/// A trace split across runtime-thread shards, the way a sharded
/// multi-threaded collector observes it.
pub struct ShardedTrace {
    /// Merged data ops, chronological `(start, shard-encoded id)` —
    /// what the merged trace log hydrates.
    pub ops: Vec<DataOpEvent>,
    /// Merged kernels, same order contract.
    pub kernels: Vec<TargetEvent>,
    /// Per-shard event streams in per-shard *completion* order (the
    /// order the recording thread appends), ids re-encoded as
    /// `shard << 32 | per-shard seq` exactly like `TraceLog::for_shard`.
    pub shard_events: Vec<Vec<StreamEvent>>,
}

fn ev_span(ev: &StreamEvent) -> (u64, u64) {
    match ev {
        StreamEvent::Op(e) => (e.span.start.0, e.span.end.0),
        StreamEvent::Kernel(k) => (k.span.start.0, k.span.end.0),
    }
}

fn ev_id(ev: &StreamEvent) -> u64 {
    match ev {
        StreamEvent::Op(e) => e.id.0,
        StreamEvent::Kernel(k) => k.id.0,
    }
}

fn set_ev_id(ev: &mut StreamEvent, id: u64) {
    match ev {
        StreamEvent::Op(e) => e.id = EventId(id),
        StreamEvent::Kernel(k) => k.id = EventId(id),
    }
}

/// Randomly partition a chronological trace onto `shards` runtime
/// threads and re-encode event ids the way shard logs do. Deterministic
/// in `seed`.
pub fn shard_partition(
    ops: &[DataOpEvent],
    kernels: &[TargetEvent],
    shards: usize,
    seed: u64,
) -> ShardedTrace {
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut shard_events: Vec<Vec<StreamEvent>> = vec![Vec::new(); shards];
    for e in ops {
        shard_events[rng.below(shards as u64) as usize].push(StreamEvent::Op(e.clone()));
    }
    for k in kernels {
        shard_events[rng.below(shards as u64) as usize].push(StreamEvent::Kernel(k.clone()));
    }
    // Per shard: completion (record) order, then shard-encoded ids.
    for (s, events) in shard_events.iter_mut().enumerate() {
        events.sort_by_key(|ev| (ev_span(ev).1, ev_id(ev)));
        for (j, ev) in events.iter_mut().enumerate() {
            set_ev_id(ev, ((s as u64) << 32) | j as u64);
        }
    }
    // The merged hydration the post-mortem side consumes.
    let mut merged_ops = Vec::new();
    let mut merged_kernels = Vec::new();
    for events in &shard_events {
        for ev in events {
            match ev {
                StreamEvent::Op(e) => merged_ops.push(e.clone()),
                StreamEvent::Kernel(k) => merged_kernels.push(k.clone()),
            }
        }
    }
    merged_ops.sort_by_key(|e| (e.span.start, e.id));
    merged_kernels.sort_by_key(|e| (e.span.start, e.id));
    ShardedTrace {
        ops: merged_ops,
        kernels: merged_kernels,
        shard_events,
    }
}
