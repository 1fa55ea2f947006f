//! The five detection algorithms of §5.
//!
//! All detectors run post-mortem over the chronological event log and use
//! only OMPT-visible facts: operation kinds, device numbers, addresses,
//! sizes, start/end times, and content hashes. None of them needs memory
//! access tracking — that is the design point that keeps the tool's
//! overhead at 5 % where instrumenting profilers pay 3.5–20×.
//!
//! # Architecture: one producer of `Findings`, one oracle, one live engine
//!
//! Three pieces, split by *responsibility* rather than by execution
//! mode: the fused sweep is the only shipped code that turns a trace
//! into [`Findings`]; the reference passes are the oracle it is tested
//! against; the streaming engine emits live [`StreamFinding`]s during
//! the run and nothing else — at the end of a streamed run the report
//! still comes from the fused sweep over the recorded trace.
//!
//! * **Standalone reference passes** — `find_duplicate_transfers`,
//!   `find_round_trips`, `find_repeated_allocs`, `find_unused_allocs`,
//!   `find_unused_transfers` — direct transcriptions of the paper's
//!   pseudocode. Each walks the full event slice independently and
//!   builds its own side structures. They are the semantic ground truth
//!   (and what the §5.3 ablation hooks into), but running all five
//!   repeats work: Algorithms 1+2 both build the reception map, 3+4
//!   both pair allocs with deletes, 4+5 both partition by device.
//!
//! * **The fused engine** (`engine`) — the trace log memoizes one
//!   struct-of-arrays hydration (`odp_trace::ColumnarView`: dense
//!   id/kind/device/addr/bytes/hash/time/codeptr columns, k-way merged
//!   across shards); the engine wraps it in a shared
//!   [`engine::EventView`] — a zero-copy facade carrying the side
//!   tables built in one indexing pass — then advances all five
//!   algorithms as incremental state machines in **one** chronological
//!   detection sweep, each reading only the columns its state machine
//!   needs. Inside the engine findings are indices into the view's
//!   columns until the report boundary; only events that appear in findings are ever
//!   gathered back into rows. ARCHITECTURE.md's memory-layout section
//!   has the column map and the cache story.
//!
//! **The one-pass invariant:** the engine observes events in exactly
//! the order the standalone passes do (chronological, with per-key and
//! per-device side tables preserving that order as subsequences), so
//! [`Findings::detect_fused`] is byte-identical to
//! [`Findings::detect_separate`], group order included. The
//! differential suite in `crates/core/tests/fused_differential.rs`
//! enforces this on randomized traces, and `benchmark/` re-checks it
//! once per process on its 1.2 M-event storm. The sweep is
//! deliberately sequential: partitioning it across workers bought at
//! most ~5 % of the report latency on the 1.2 M-event storm benchmark,
//! inside that metric's run-to-run spread (ROADMAP has the numbers).
//!
//! # Streaming data flow (sharded, multi-threaded)
//!
//! [`stream::StreamingEngine`] advances its own online versions of
//! Algorithms 1, 3, 4 and 5 *while the program executes* — they keep
//! only what a live finding needs (a first reception and a count per
//! reception key, a count per allocation site, per-device pending
//! work), not what a report needs. Algorithm 2 pairs a transfer with a
//! reception anywhere later in the trace, so its live findings settle
//! at finalize from the fused report: a live frontier measured to
//! decide no round trip before exit on 23 of the 24 shipped programs
//! while it held a second copy of every hashed transfer. Collection
//! is sharded: every runtime thread owns a tool shard, and the
//! per-callback fast path performs **zero lock acquisitions** — it
//! appends to its own shard's trace log, hands the completed event to
//! the drain through its own fixed-capacity lock-free SPSC ring (one
//! release store per side; a bounded, counted spill absorbs overflow
//! when drains can't keep up), and on every clock edge publishes the
//! bound its open table gives (earliest open data-op or submit Begin,
//! else its latest edge) into its own slot of the shared
//! `GlobalWatermark`:
//!
//! ```text
//! thread 0 ─► shard 0: TraceLog(for_shard 0) ─► SPSC ring 0 ───┐
//! thread 1 ─► shard 1: TraceLog(for_shard 1) ─► SPSC ring 1 ───┤
//!    ⋮            ⋮    (ring full ⇒ bounded, counted spill)     │
//! thread N ─► shard N: TraceLog(for_shard N) ─► SPSC ring N ───┤
//!      │                                                       │
//!      └─ open table ─► GlobalWatermark                        │
//!         (every edge: queue the event, then publish — two     │
//!         release stores to the shard's own slot; merged       │
//!         watermark = min over shards of the earliest possible │
//!         future start, None while any shard may still emit    │
//!         at t=0)                                              │
//!                                                              ▼
//!          batch drain, due when the pusher's own ring is half
//!          full, or whenever an observer looks (engine lock;
//!          snapshot merged watermark, THEN push every ring + spill
//!          to the reorder lanes in arrival order and advance once —
//!          one lock, one snapshot and one release sweep per batch)
//!                              │
//!                              ▼
//!         StreamingEngine reorder buffer ── released at the merged
//!         watermark in (start, id) order; id = shard << 32 | seq,
//!         so cross-shard same-start ties break deterministically
//!              │
//!              ├─ Alg 1  (hash, dest) → (first, count): duplicates
//!              │         final on arrival
//!              ├─ Alg 2  no live state: trips settle at finalize
//!              ├─ Alg 3  pairing groups: repeats final at alloc time
//!              └─ Alg 4/5 per-device pending queues: decisions land on
//!                        the device's next kernel (or finalize)
//!              │
//!              ├──► live StreamFindings (seq + site info: host addr,
//!              │    codeptr — everything a rewrite needs mid-run)
//!              │        │
//!              │        ▼
//!              │    remedy::RemediationPolicy — finding kind →
//!              │    mapping rewrite, keyed (device, host addr)
//!              │        │ consulted by the runtime at every map-
//!              │        ▼ clause item (remedy::Remediator, a MapAdvisor)
//!              │    sim::Runtime rewrites the NEXT regions: persist /
//!              │    downgrade to alloc|release / elide — recovered
//!              │    bytes+time accounted per cause (RemediationStats)
//!              │
//!              └──► finalize(&EventView): runs the fused sweep over the
//!                   merged trace, completes the live stream (its round
//!                   trips in (tx.start, tx.id) order, then the pending
//!                   queues with the end-of-trace rules) and returns
//!                   the sweep's Findings
//!
//! post-run: TraceLog::merge_shards orders all shard streams by
//! (start, shard, per-shard seq) — hydration output is independent
//! of how the OS scheduled the recording threads.
//! ```
//!
//! The remediation loop (bottom branch) is opt-in (`--remediate`);
//! without an advisor the runtime's directive execution — and therefore
//! every byte of detection output — is identical to the
//! observation-only tool. The full pipeline narrative, including this
//! diagram and the paper-to-code crosswalk, lives in ARCHITECTURE.md.
//!
//! Detection state is index-based throughout; the engine clones no
//! event after the reorder buffer releases it. **The streaming
//! invariant** — what remediation actually consumes — is that the
//! multiset of live findings emitted over a run equals
//! [`Findings::stream_findings`] of the fused report over the same
//! trace (every field; `finalize` returning the fused report makes a
//! report-vs-report comparison vacuous). It is enforced by
//! `crates/core/tests/streaming_differential.rs` (randomized traces
//! delivered in completion order *and* partitioned across shards with
//! randomized interleavings),
//! `crates/core/tests/sharded_stress.rs` (real OS-thread callback
//! storms + barrier-forced watermark orderings), and
//! `tests/threaded_collection.rs` (workloads driven from N threads
//! end to end). What streaming costs the run is the ledger's
//! `storm_stream` workload against `storm_postmortem` (`benchmark/`:
//! `tool.callback_s`, `tool.stream_increment_s`,
//! `detect.stream_finalize_s`).
//!
//! # The reorder buffer: a shard-run merge
//!
//! Per-shard arrival order is already *nearly* sorted (a shard records
//! events in its own completion order), so the streaming engine's
//! reorder stage, [`reorder::RunMergeBuffer`], keeps one append-only
//! run per shard and compares across shards only on release:
//!
//! ```text
//!        push(shard, key = (start, id, family), event)
//!                           │
//!            key ≥ the shard lane's last pushed key?
//!          yes (≈ every event) │           no (genuine intra-shard
//!                ▼             │           inversion — late arrival)
//!      RunLane[shard]          └─────────────────┐
//!      append to keys[]/entries[] arenas         ▼
//!      (O(1); no comparisons against       side pocket (small
//!      other shards until release)         BinaryHeap, usually
//!                │                         empty; counted in
//!                │                         StreamBufferStats::
//!                │                         reorder_inversions /
//!                │                         reorder_pocket_peak)
//!                └──────────────┬────────────────┘
//!                               ▼
//!        LoserTree k-way merge over lane heads (+ pocket head,
//!        entered only while non-empty): each node caches its
//!        source's (key, shard), so a pop replays one leaf-to-root
//!        path — one head probe plus log k tuple compares; appends
//!        mark the tree dirty and it rebuilds once per release batch
//!                               ▼
//!        pop_if(key ≤ watermark): batch retirement in (start, id)
//!        order — fully drained lanes reset their arenas in place,
//!        long-lived backlogs compact amortized O(1) per event
//! ```
//!
//! `crates/core/tests/reorder_equivalence.rs` pins it: against a
//! `BinaryHeap` of the same keys the buffer must release the identical
//! sequence under interleaved watermark gates, for every shard count
//! and inversion rate, and its inversion accounting must match an
//! external model of the run-extension rule.

// Detection consumes untrusted event data: malformed input must be
// quarantined and counted, never unwrapped. Real invariants carry
// explicit allows at the call site.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod duplicate;
pub(crate) mod engine;
pub mod pairing;
pub(crate) mod realloc;
pub mod reorder;
pub(crate) mod roundtrip;
pub(crate) mod stream;
pub(crate) mod unused_alloc;
pub mod unused_transfer;

use odp_model::{DataOpEvent, TargetEvent};
use serde::{Deserialize, Serialize};

pub use duplicate::{find_duplicate_transfers, DuplicateTransferGroup};
pub use engine::{EventView, OutOfRangeEvents};
pub use odp_model::FindingKind;
pub use pairing::{alloc_delete_pairs, AllocDeletePair};
pub use realloc::{find_repeated_allocs, RepeatedAllocGroup};
pub use roundtrip::{find_round_trips, RoundTrip, RoundTripGroup, TripList};
pub use stream::{StreamBufferStats, StreamEvent, StreamFinding, StreamingEngine};
pub use unused_alloc::{find_unused_allocs, UnusedAlloc};
pub use unused_transfer::{find_unused_transfers, UnusedTransfer, UnusedTransferReason};

/// How much the evidence behind a finding can be trusted.
///
/// The streaming engine normally releases events only at the merged
/// watermark, so every finding rests on a settled chronological order.
/// Under degraded input — forced releases after a watermark stall,
/// quarantined (orphaned / truncated / duplicate-id) events — the order
/// is no longer guaranteed, and findings derived from it are tagged
/// [`Confidence::Degraded`]. Degraded findings are reported (with the
/// tag) but must never seed `remedy::RemediationPolicy` rules: a
/// rewrite driven by unsettled evidence could mis-map a correct
/// program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Confidence {
    /// Derived from watermark-settled, well-formed evidence.
    #[default]
    Confirmed,
    /// Derived at least in part from force-released or quarantined
    /// evidence; report-only, never actionable.
    Degraded,
}

impl Confidence {
    /// True for [`Confidence::Degraded`].
    pub fn is_degraded(self) -> bool {
        self == Confidence::Degraded
    }
}

/// Issue counts per category, using the paper's Table 1 conventions
/// (stated once, by [`charges`]):
///
/// * **DD** — duplicate transfer *events* (every event in a group beyond
///   the first; a group of `n` identical receptions contributes `n-1`);
/// * **RT** — completed round trips;
/// * **RA** — repeated allocation *pairs* beyond the first per site;
/// * **UA** — unused allocations;
/// * **UT** — unused transfers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssueCounts {
    /// Duplicate data transfers.
    pub dd: usize,
    /// Round-trip data transfers.
    pub rt: usize,
    /// Repeated device memory allocations.
    pub ra: usize,
    /// Unused device memory allocations.
    pub ua: usize,
    /// Unused data transfers.
    pub ut: usize,
}

impl IssueCounts {
    /// Total issues across all categories.
    pub fn total(&self) -> usize {
        self.dd + self.rt + self.ra + self.ua + self.ut
    }

    /// Are there no issues at all?
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }
}

/// The combined output of all five detectors.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Findings {
    /// Algorithm 1 output.
    pub duplicates: Vec<DuplicateTransferGroup>,
    /// Algorithm 2 output.
    pub round_trips: Vec<RoundTripGroup>,
    /// Algorithm 3 output.
    pub repeated_allocs: Vec<RepeatedAllocGroup>,
    /// Algorithm 4 output.
    pub unused_allocs: Vec<UnusedAlloc>,
    /// Algorithm 5 output.
    pub unused_transfers: Vec<UnusedTransfer>,
}

impl Findings {
    /// Run all five detectors through the fused single-pass engine
    /// over a prebuilt [`EventView`] (chronological columns — the trace
    /// log's hydration guarantees the order). Output is byte-identical
    /// to [`Findings::detect_separate`].
    pub fn detect_fused(view: &EventView<'_>) -> Findings {
        engine::detect(view)
    }

    /// Run the five standalone reference passes independently — the
    /// paper-pseudocode transcriptions the fused engine is verified
    /// against.
    pub fn detect_separate(
        data_op_events: &[DataOpEvent],
        kernel_events: &[TargetEvent],
        num_devices: u32,
    ) -> Findings {
        Findings {
            duplicates: find_duplicate_transfers(data_op_events),
            round_trips: find_round_trips(data_op_events),
            repeated_allocs: find_repeated_allocs(data_op_events),
            unused_allocs: find_unused_allocs(kernel_events, data_op_events, num_devices),
            unused_transfers: find_unused_transfers(kernel_events, data_op_events, num_devices),
        }
    }

    /// Table 1-style issue counts: [`charges`] counted per category.
    pub fn counts(&self) -> IssueCounts {
        let mut counts = IssueCounts::default();
        charges(self).for_each(|c| match c.evidence.kind() {
            FindingKind::DuplicateTransfer => counts.dd += 1,
            FindingKind::RoundTrip => counts.rt += 1,
            FindingKind::RepeatedAlloc => counts.ra += 1,
            FindingKind::UnusedAlloc => counts.ua += 1,
            FindingKind::UnusedTransfer => counts.ut += 1,
        });
        counts
    }
}

/// One redundant instance of a finding, with what it is charged to.
#[derive(Clone, Copy, Debug)]
pub struct Charge<'f> {
    /// Source site the instance is attributed to.
    pub codeptr: u64,
    /// Raw device number the waste lands on (-1 = host).
    pub device: i32,
    /// Eliminable bytes.
    pub bytes: u64,
    /// The events behind the instance.
    pub evidence: Evidence<'f>,
}

/// The events behind one [`Charge`], borrowed from the [`Findings`].
#[derive(Clone, Copy, Debug)]
pub enum Evidence<'f> {
    /// `event` re-delivers what the group's `earlier` members delivered.
    Duplicate {
        /// The group's members before `event`, chronological.
        earlier: &'f [DataOpEvent],
        /// The redundant transfer.
        event: &'f DataOpEvent,
    },
    /// A completed round trip.
    RoundTrip(&'f RoundTrip),
    /// `pair` re-allocates what the group's `earlier` pairs allocated.
    RepeatedAlloc {
        /// The group's pairs before `pair`, chronological.
        earlier: &'f [AllocDeletePair],
        /// The redundant allocation cycle.
        pair: &'f AllocDeletePair,
    },
    /// An allocation no kernel could have used.
    UnusedAlloc(&'f AllocDeletePair),
    /// A transfer no kernel could have used.
    UnusedTransfer(&'f UnusedTransfer),
}

impl<'f> Evidence<'f> {
    /// The inefficiency class this is evidence of.
    pub fn kind(&self) -> FindingKind {
        match self {
            Evidence::Duplicate { .. } => FindingKind::DuplicateTransfer,
            Evidence::RoundTrip(_) => FindingKind::RoundTrip,
            Evidence::RepeatedAlloc { .. } => FindingKind::RepeatedAlloc,
            Evidence::UnusedAlloc(_) => FindingKind::UnusedAlloc,
            Evidence::UnusedTransfer(_) => FindingKind::UnusedTransfer,
        }
    }

    /// The event the instance is charged at — the one a report row
    /// shows (site, time, bytes): the redundant transfer or allocation
    /// itself, a round trip's reception leg.
    pub fn charged(&self) -> &'f DataOpEvent {
        match *self {
            Evidence::Duplicate { event, .. } => event,
            Evidence::RoundTrip(trip) => &trip.rx,
            Evidence::RepeatedAlloc { pair, .. } | Evidence::UnusedAlloc(pair) => &pair.alloc,
            Evidence::UnusedTransfer(ut) => &ut.event,
        }
    }

    /// The events fixing the instance eliminates (§7.6): the transfer
    /// itself, both legs of a round trip (the copy-back *and* the
    /// re-send), the alloc and delete of an allocation cycle.
    pub(crate) fn eliminable(&self) -> impl Iterator<Item = &'f DataOpEvent> {
        let (first, second) = match *self {
            Evidence::Duplicate { event, .. } => (event, None),
            Evidence::RoundTrip(trip) => (&trip.tx, Some(&trip.rx)),
            Evidence::RepeatedAlloc { pair, .. } | Evidence::UnusedAlloc(pair) => {
                (&pair.alloc, pair.delete.as_ref())
            }
            Evidence::UnusedTransfer(ut) => (&ut.event, None),
        };
        std::iter::once(first).chain(second)
    }
}

/// Every redundant instance in `findings`, in category order DD → RT →
/// RA → UA → UT — the one statement of Table 1's conventions: which
/// instances count and what each is charged to. A group's first member
/// is necessary and not charged; a duplicate or repeat is charged at its
/// own site, a round trip at its reception leg's site for both legs'
/// bytes on the intermediate device, unused allocations and transfers at
/// their own site for their own bytes. Counts ([`Findings::counts`]),
/// the §7.6 estimate, the report's sections and the fleet's site
/// findings are all folds over this walk (`for_each` over the five-way
/// chain is measurably cheaper than stepping it with `next`).
pub fn charges(findings: &Findings) -> impl Iterator<Item = Charge<'_>> {
    let dd = findings.duplicates.iter().flat_map(|g| {
        (1..g.events.len()).map(move |i| Charge {
            codeptr: g.events[i].codeptr.0,
            device: g.dest_device.raw(),
            bytes: g.events[i].bytes,
            evidence: Evidence::Duplicate {
                earlier: &g.events[..i],
                event: &g.events[i],
            },
        })
    });
    let rt = findings.round_trips.iter().flat_map(|g| {
        g.trips.iter().map(move |t| Charge {
            codeptr: t.rx.codeptr.0,
            device: g.dest_device.raw(),
            bytes: t.tx.bytes + t.rx.bytes,
            evidence: Evidence::RoundTrip(t),
        })
    });
    let ra = findings.repeated_allocs.iter().flat_map(|g| {
        (1..g.pairs.len()).map(move |i| Charge {
            codeptr: g.pairs[i].alloc.codeptr.0,
            device: g.device.raw(),
            bytes: g.bytes,
            evidence: Evidence::RepeatedAlloc {
                earlier: &g.pairs[..i],
                pair: &g.pairs[i],
            },
        })
    });
    let ua = findings.unused_allocs.iter().map(|ua| Charge {
        codeptr: ua.pair.alloc.codeptr.0,
        device: ua.pair.alloc.dest_device.raw(),
        bytes: ua.pair.alloc.bytes,
        evidence: Evidence::UnusedAlloc(&ua.pair),
    });
    let ut = findings.unused_transfers.iter().map(|ut| Charge {
        codeptr: ut.event.codeptr.0,
        device: ut.event.dest_device.raw(),
        bytes: ut.event.bytes,
        evidence: Evidence::UnusedTransfer(ut),
    });
    dd.chain(rt).chain(ra).chain(ua).chain(ut)
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared builders for detector unit tests.

    use odp_model::{
        CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent,
        TargetKind, TimeSpan,
    };

    pub fn span(a: u64, b: u64) -> TimeSpan {
        TimeSpan::new(SimTime(a), SimTime(b))
    }

    /// Settle `engine` against the trace it was fed: the report of a
    /// streamed run over these events.
    pub fn finalize(
        engine: &mut super::StreamingEngine,
        ops: &[DataOpEvent],
        kernels: &[TargetEvent],
        num_devices: u32,
    ) -> super::Findings {
        let cols = odp_trace::ColumnarView::from_events(ops, kernels);
        engine.finalize(&super::EventView::over(&cols, num_devices))
    }

    /// The fused engine's findings over chronological row events.
    pub fn detect(
        ops: &[DataOpEvent],
        kernels: &[TargetEvent],
        num_devices: u32,
    ) -> super::Findings {
        let cols = odp_trace::ColumnarView::from_events(ops, kernels);
        super::Findings::detect_fused(&super::EventView::over(&cols, num_devices))
    }

    /// The streaming invariant: the live findings of a whole run are,
    /// as a multiset, the projection of the report over its trace.
    pub fn assert_live_matches(mut live: Vec<super::StreamFinding>, report: &super::Findings) {
        let mut projected: Vec<_> = report.stream_findings().collect();
        live.sort_unstable();
        projected.sort_unstable();
        assert_eq!(live, projected, "live stream ≠ projection of the report");
    }

    pub struct EventFactory {
        next_id: u64,
    }

    impl EventFactory {
        pub fn new() -> Self {
            EventFactory { next_id: 0 }
        }

        fn id(&mut self) -> EventId {
            let id = EventId(self.next_id);
            self.next_id += 1;
            id
        }

        pub fn h2d(&mut self, t: u64, dev: u32, src: u64, hash: u64, bytes: u64) -> DataOpEvent {
            DataOpEvent {
                id: self.id(),
                kind: DataOpKind::Transfer,
                src_device: DeviceId::HOST,
                dest_device: DeviceId::target(dev),
                src_addr: src,
                dest_addr: 0xd000 + src,
                bytes,
                hash: Some(HashVal(hash)),
                span: span(t, t + 10),
                codeptr: CodePtr(0x100),
            }
        }

        pub fn d2h(&mut self, t: u64, dev: u32, src: u64, hash: u64, bytes: u64) -> DataOpEvent {
            DataOpEvent {
                id: self.id(),
                kind: DataOpKind::Transfer,
                src_device: DeviceId::target(dev),
                dest_device: DeviceId::HOST,
                src_addr: 0xd000 + src,
                dest_addr: src,
                bytes,
                hash: Some(HashVal(hash)),
                span: span(t, t + 10),
                codeptr: CodePtr(0x110),
            }
        }

        pub fn alloc(
            &mut self,
            t: u64,
            dev: u32,
            haddr: u64,
            daddr: u64,
            bytes: u64,
        ) -> DataOpEvent {
            DataOpEvent {
                id: self.id(),
                kind: DataOpKind::Alloc,
                src_device: DeviceId::HOST,
                dest_device: DeviceId::target(dev),
                src_addr: haddr,
                dest_addr: daddr,
                bytes,
                hash: None,
                span: span(t, t + 5),
                codeptr: CodePtr(0x120),
            }
        }

        pub fn delete(
            &mut self,
            t: u64,
            dev: u32,
            haddr: u64,
            daddr: u64,
            bytes: u64,
        ) -> DataOpEvent {
            DataOpEvent {
                id: self.id(),
                kind: DataOpKind::Delete,
                src_device: DeviceId::HOST,
                dest_device: DeviceId::target(dev),
                src_addr: haddr,
                dest_addr: daddr,
                bytes,
                hash: None,
                span: span(t, t + 2),
                codeptr: CodePtr(0x130),
            }
        }

        pub fn kernel(&mut self, t0: u64, t1: u64, dev: u32) -> TargetEvent {
            TargetEvent {
                id: self.id(),
                device: DeviceId::target(dev),
                kind: TargetKind::Kernel,
                span: span(t0, t1),
                codeptr: CodePtr(0x140),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{detect, EventFactory};

    #[test]
    fn counts_follow_table1_conventions() {
        let mut f = EventFactory::new();
        // 3 identical receptions → DD = 2; one round trip → RT = 1.
        let ops = vec![
            f.h2d(0, 0, 0x1000, 7, 64),
            f.h2d(20, 0, 0x1000, 7, 64),
            f.h2d(40, 0, 0x1000, 7, 64),
        ];
        let findings = detect(&ops, &[], 1);
        let counts = findings.counts();
        assert_eq!(counts.dd, 2);
        assert!(counts.total() >= 2);
    }

    #[test]
    fn clean_trace_has_clean_counts() {
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(10, 50, 0)];
        let ops = vec![f.h2d(0, 0, 0x1000, 1, 64), f.d2h(60, 0, 0x1000, 2, 64)];
        let findings = detect(&ops, &kernels, 1);
        assert!(findings.counts().is_clean(), "{:?}", findings.counts());
    }
}
