//! Online/streaming detection: the five §5 algorithms advanced live,
//! one event at a time, from the tool's OMPT callbacks.
//!
//! The fused engine ([`crate::detect::engine`]) is a batch algorithm:
//! it needs the fully hydrated, indexed trace and runs after program
//! exit. [`StreamingEngine`] carries separately written *online*
//! versions of the same five algorithms, so findings can be emitted
//! while the program still executes — early enough to drive mapping
//! decisions. Live [`StreamFinding`]s are all it produces: the owned
//! report of a streamed run is still the fused sweep's, which
//! [`StreamingEngine::finalize`] returns after completing the live
//! stream. The two are held together by one invariant — the multiset of
//! live findings emitted over a run equals
//! [`Findings::stream_findings`] of that report — which the
//! differential suites enforce field for field.
//!
//! # The two ordering problems streaming has to solve
//!
//! **Arrival order is completion order, not start order.** OMPT end
//! callbacks fire when operations *finish*; overlapping (async) spans
//! therefore arrive out of chronological start order, while every
//! detector's precondition is `(start, log order)`. The engine keeps a
//! shard-run reorder pipeline ([`crate::detect::reorder`]): each
//! recording shard appends to an in-order run lane (arrival within a
//! shard is near-sorted), a k-way loser-tree merge releases the global
//! minimum, and genuine intra-shard inversions fall back to a small
//! side pocket. Events release only at or below the caller-supplied
//! *watermark* — the earliest begin time of any still-open operation
//! (see [`odp_ompt::GlobalWatermark`]). The buffer is bounded by the number
//! of concurrently open operations, not by trace length.
//!
//! **Algorithm 2 needs lookahead.** Post-mortem, the round-trip pass
//! consults reception queues built from the *full* trace: whether a
//! transfer completes a round trip can depend on a re-send that has not
//! happened yet. The streaming engine runs the exact reference sweep
//! behind a *confirmed frontier*: transfers whose outcome is already
//! determined by past events retire immediately; the first undecided
//! transfer stalls the frontier, and everything behind it waits in a
//! compact window (4 bytes per transfer — an index into the arena that
//! already holds the transfer as a reception — no event clones) that
//! either retires the moment the awaited re-send arrives or is
//! reconciled at finalize. Because nothing behind the frontier advances
//! while it is stalled, every queue head the sweep reads has exactly
//! the value the post-mortem pass would see — this is what makes the
//! live trips exactly the post-mortem ones instead of approximate. For
//! steady-state workloads (data ping-pongs or content re-sends keep
//! consuming the queues) the window stays O(1); [`StreamingEngine::buffer_stats`] exposes the
//! high-water marks so tests can pin that down.
//!
//! Algorithms 1 and 3 are naturally incremental (a duplicate or a
//! repeated allocation is final the moment the second occurrence
//! lands). Algorithms 4 and 5 carry per-device pending queues: an
//! allocation or transfer waits only until the next kernel on its
//! device (or finalize) proves the decision, mirroring the reference
//! cursor sweeps exactly.
//!
//! All detection state is index-based (`u32`/`u64` sequence numbers);
//! the engine never clones an event after the reorder buffer releases
//! it, and it keeps no history for a report: a reception queue retains
//! its first entry, a count and the entries Algorithm 2 has not
//! consumed — one arena of 48-byte nodes chained into per-queue FIFOs,
//! so an arriving transfer costs one map probe and one arena push; a
//! repeated-allocation site retains a count; decided
//! Algorithm 4/5 verdicts are emitted and forgotten. What still grows
//! with the trace is one small record per allocation (Algorithm 4 needs
//! the pairing until its delete and next kernel arrive) and one map
//! entry per distinct reception key / allocation site.

use crate::detect::engine::{self, EventView, OutOfRangeEvents};
use crate::detect::reorder::{RunMergeBuffer, SortKey};
use crate::detect::{Confidence, Findings, IssueCounts, UnusedTransferReason};
use odp_hash::fnv::FnvHashMap;
use odp_model::{
    CodePtr, DataOpEvent, DeviceId, HashVal, SimTime, TargetEvent, TargetKind, TraceHealth,
};
use std::collections::VecDeque;

/// A logged event's sequence number ([`odp_model::EventId`] value) — how
/// the streaming engine refers to events without holding them.
pub(crate) type Seq = u64;

/// One event in arrival (completion) order — what a sharded collector
/// buffers per thread before the merged watermark feeds the engine.
#[derive(Clone, Debug)]
pub enum StreamEvent {
    /// A data operation (alloc/transfer/delete/...).
    Op(DataOpEvent),
    /// A target construct; only kernels reach the detectors.
    Kernel(TargetEvent),
}

impl StreamEvent {
    /// The reorder buffer's release key, `(start, id, family)` — the
    /// same key the trace log's hydration sorts by (families tie
    /// arbitrarily; the detectors only compare spans across families).
    /// Computed once at ingest and carried beside the event in the
    /// reorder pipeline's lane arenas, so releases never re-derive it.
    fn key(&self) -> SortKey {
        match self {
            StreamEvent::Op(e) => (e.span.start, e.id.0, 0),
            StreamEvent::Kernel(k) => (k.span.start, k.id.0, 1),
        }
    }
}

/// A finding emitted while the program is still running. Events are
/// referenced by sequence number; resolve them against the trace after
/// the run. Each finding additionally carries the offending event's
/// *site* — host address and code pointer — which is everything a
/// remediation policy ([`crate::remedy`]) needs to key a mapping
/// rewrite without resolving sequence numbers mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamFinding {
    /// Algorithm 1: `event` re-delivered content first seen in `first`.
    DuplicateTransfer {
        /// Shared content hash.
        hash: HashVal,
        /// Sending device of the redundant transfer.
        src_device: DeviceId,
        /// Receiving device.
        dest_device: DeviceId,
        /// Host-side address of the transferred variable.
        host_addr: u64,
        /// The redundant transfer's call site.
        codeptr: CodePtr,
        /// The redundant transfer.
        event: Seq,
        /// The first delivery of this content.
        first: Seq,
        /// 1-based occurrence number (2 = first duplicate).
        occurrence: u32,
        /// Trust level of the evidence (degraded once the stream was
        /// force-released; degraded findings never seed remediation).
        confidence: Confidence,
    },
    /// Algorithm 2: `tx` carried content away and `rx` returned it.
    RoundTrip {
        /// Content hash.
        hash: HashVal,
        /// Device that sent and re-received the data.
        src_device: DeviceId,
        /// Intermediate device.
        dest_device: DeviceId,
        /// Host-side address of the bounced variable (of the `tx` leg).
        host_addr: u64,
        /// The outbound leg's call site.
        codeptr: CodePtr,
        /// Outbound leg.
        tx: Seq,
        /// Completing reception.
        rx: Seq,
        /// The trip was resolved by a lookahead-cap spill (the
        /// `max_frontier` of [`StreamingEngine::new`]) — the pairing was
        /// forced against the reception queues *as they stood*, not
        /// confirmed in frontier order, so it may
        /// not be a real round trip. Remediation must never seed a
        /// `skip_from` rule from a spilled trip (dropping a copy-back
        /// on unconfirmed evidence would be unsound).
        spilled: bool,
        /// Trust level of the evidence (degraded once the stream was
        /// force-released; degraded findings never seed remediation).
        confidence: Confidence,
    },
    /// Algorithm 3: `alloc` re-allocated an already-seen mapping.
    RepeatedAlloc {
        /// Host address of the mapped variable.
        host_addr: u64,
        /// Device allocated on.
        device: DeviceId,
        /// Allocation size.
        bytes: u64,
        /// The repeated allocation's call site.
        codeptr: CodePtr,
        /// The repeated allocation event.
        alloc: Seq,
        /// 1-based occurrence number (2 = first repeat).
        occurrence: u32,
        /// Trust level of the evidence (degraded once the stream was
        /// force-released; degraded findings never seed remediation).
        confidence: Confidence,
    },
    /// Algorithm 4: no kernel could have used this allocation.
    UnusedAlloc {
        /// Device allocated on.
        device: DeviceId,
        /// Host address of the mapped variable.
        host_addr: u64,
        /// The allocation's call site.
        codeptr: CodePtr,
        /// The allocation event.
        alloc: Seq,
        /// Its deletion, if freed.
        delete: Option<Seq>,
        /// Trust level of the evidence (degraded once the stream was
        /// force-released; degraded findings never seed remediation).
        confidence: Confidence,
    },
    /// Algorithm 5: a provably unused transfer.
    UnusedTransfer {
        /// Destination device.
        device: DeviceId,
        /// Host-side source address of the wasted transfer.
        host_addr: u64,
        /// The wasted transfer's call site.
        codeptr: CodePtr,
        /// The wasted transfer.
        event: Seq,
        /// Why it is provably unused.
        reason: UnusedTransferReason,
        /// Trust level of the evidence (degraded once the stream was
        /// force-released; degraded findings never seed remediation).
        confidence: Confidence,
    },
}

impl StreamFinding {
    /// The finding's evidence trust level.
    pub fn confidence(&self) -> Confidence {
        match *self {
            StreamFinding::DuplicateTransfer { confidence, .. }
            | StreamFinding::RoundTrip { confidence, .. }
            | StreamFinding::RepeatedAlloc { confidence, .. }
            | StreamFinding::UnusedAlloc { confidence, .. }
            | StreamFinding::UnusedTransfer { confidence, .. } => confidence,
        }
    }
}

impl Findings {
    /// The report projected onto the live-finding vocabulary: exactly
    /// the [`StreamFinding`]s a streaming engine emits over a run whose
    /// trace yields this report (as a multiset — live emission order
    /// interleaves the kinds). Algorithm 1 emits every reception after a
    /// group's first, Algorithm 3 every allocation after a site's first,
    /// the others one finding per trip / allocation / transfer. This is
    /// the invariant the differential suites hold the engine to, and how
    /// [`crate::remedy::RemediationPolicy`] seeds itself from a report.
    pub fn stream_findings(&self) -> impl Iterator<Item = StreamFinding> + '_ {
        let dd = self.duplicates.iter().flat_map(|g| {
            let first = g.events.first().map_or(0, |e| e.id.0);
            g.events.iter().enumerate().skip(1).map(move |(i, e)| {
                StreamFinding::DuplicateTransfer {
                    hash: g.hash,
                    src_device: e.src_device,
                    dest_device: e.dest_device,
                    host_addr: host_side_addr(e),
                    codeptr: e.codeptr,
                    event: e.id.0,
                    first,
                    occurrence: i as u32 + 1,
                    confidence: g.confidence,
                }
            })
        });
        let rt = self.round_trips.iter().flat_map(|g| {
            g.trips.iter().map(move |t| StreamFinding::RoundTrip {
                hash: g.hash,
                src_device: g.src_device,
                dest_device: g.dest_device,
                host_addr: host_side_addr(&t.tx),
                codeptr: t.tx.codeptr,
                tx: t.tx.id.0,
                rx: t.rx.id.0,
                spilled: t.spilled,
                confidence: g.confidence,
            })
        });
        let ra = self.repeated_allocs.iter().flat_map(|g| {
            g.pairs
                .iter()
                .enumerate()
                .skip(1)
                .map(move |(i, p)| StreamFinding::RepeatedAlloc {
                    host_addr: g.host_addr,
                    device: g.device,
                    bytes: g.bytes,
                    codeptr: p.alloc.codeptr,
                    alloc: p.alloc.id.0,
                    occurrence: i as u32 + 1,
                    confidence: g.confidence,
                })
        });
        let ua = self
            .unused_allocs
            .iter()
            .map(|ua| StreamFinding::UnusedAlloc {
                device: ua.pair.alloc.dest_device,
                host_addr: ua.pair.alloc.src_addr,
                codeptr: ua.pair.alloc.codeptr,
                alloc: ua.pair.alloc.id.0,
                delete: ua.pair.delete.as_ref().map(|d| d.id.0),
                confidence: ua.confidence,
            });
        let ut = self
            .unused_transfers
            .iter()
            .map(|ut| StreamFinding::UnusedTransfer {
                device: ut.event.dest_device,
                host_addr: ut.event.src_addr,
                codeptr: ut.event.codeptr,
                event: ut.event.id.0,
                reason: ut.reason,
                confidence: ut.confidence,
            });
        dd.chain(rt).chain(ra).chain(ua).chain(ut)
    }

    /// Tag every group of the report as degraded evidence.
    fn mark_degraded(&mut self) {
        let degraded = Confidence::Degraded;
        self.duplicates
            .iter_mut()
            .for_each(|g| g.confidence = degraded);
        self.round_trips
            .iter_mut()
            .for_each(|g| g.confidence = degraded);
        self.repeated_allocs
            .iter_mut()
            .for_each(|g| g.confidence = degraded);
        self.unused_allocs
            .iter_mut()
            .for_each(|g| g.confidence = degraded);
        self.unused_transfers
            .iter_mut()
            .for_each(|g| g.confidence = degraded);
    }
}

/// The host-side address of a transfer: the source of an H2D, the
/// destination of a D2H (device-to-device transfers key on the source)
/// — exactly the address the runtime presents at map clauses, which is
/// what [`crate::remedy`] keys its rules on.
fn host_side_addr(e: &DataOpEvent) -> u64 {
    if e.src_device.is_host() {
        e.src_addr
    } else if e.dest_device.is_host() {
        e.dest_addr
    } else {
        e.src_addr
    }
}

/// High-water marks of the engine's bounded windows. For steady-state
/// workloads each peak is independent of trace length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamBufferStats {
    /// Events currently in the reorder buffer.
    pub buffered_now: usize,
    /// Reorder-buffer high-water mark (bounded by open-op concurrency),
    /// sampled when [`StreamingEngine::advance`] has released a batch:
    /// what had to wait on the watermark, not the batch passing through.
    pub buffered_peak: usize,
    /// Transfers currently behind the Algorithm 2 frontier.
    pub frontier_now: usize,
    /// Frontier-window high-water mark.
    pub frontier_peak: usize,
    /// Per-device pending work (pairs + transfers + buffered kernels).
    pub device_pending_now: usize,
    /// Per-device pending high-water mark.
    pub device_pending_peak: usize,
    /// Undecided transfers force-retired by the lookahead cap (the
    /// `max_frontier` of [`StreamingEngine::new`]). Non-zero means the
    /// live stream may have missed late round trips or emitted
    /// unconfirmed ones (`spilled: true`), so remediation saw less than
    /// the final report, which stays exact.
    pub frontier_spilled: usize,
    /// Intra-shard arrival inversions the reorder pipeline routed to its
    /// side pocket (events that completed after a later-starting event
    /// of the same shard). High values mean the trace is not near-sorted
    /// and the run-lane fast path is not engaging.
    pub reorder_inversions: usize,
    /// Side-pocket high-water mark (bounded by genuine overlap, not
    /// trace length).
    pub reorder_pocket_peak: usize,
    /// Batches closed ([`StreamingEngine::advance`] calls; under the
    /// tool, sweeps of the shards' ingest rings).
    pub drains: u64,
    /// Events those batches carried. `drained_events / drains` is the
    /// mean batch: how many events share one engine lock, one watermark
    /// merge and one release sweep.
    pub drained_events: u64,
}

/// The shard an event id originated from: ids embed the recording
/// shard in their high 32 bits (see `TraceLog::merge_shards`), which is
/// what routes each event to its in-order run lane.
#[inline]
fn shard_of(seq: Seq) -> u32 {
    (seq >> 32) as u32
}

/// Null link in the reception arena.
const NIL: u32 = u32::MAX;

/// One `(hash, dest_device)` reception queue — the value of the
/// reception map, so an arriving transfer finds and updates it with one
/// probe. Only what the live findings need is retained: Algorithm 1
/// names the first reception and an occurrence number, Algorithm 2 pops
/// the receptions it has not consumed yet (a FIFO chained through
/// [`Reception::next`]) — the consumed prefix is freed as it is dequeued.
#[derive(Debug)]
struct Slot {
    /// The first reception ever enqueued.
    first: Seq,
    /// Receptions enqueued so far.
    count: u32,
    /// Oldest reception Algorithm 2 has not consumed ([`NIL`] = none).
    head: u32,
    /// Newest one (meaningful while `head != NIL`).
    tail: u32,
}

/// One hashed transfer in the engine's arena, in both of its roles: an
/// unconsumed *reception* in the `(hash, dest)` queue, and — while its
/// round-trip outcome is undetermined — the transfer a frontier entry
/// points at. It is freed when its queue dequeues it; queues and
/// frontier both retire in arrival order and a transfer dequeues at
/// most the reception it enqueued itself or an older one, so no live
/// frontier entry ever names a freed node.
#[derive(Clone, Copy, Debug)]
struct Reception {
    seq: Seq,
    hash: HashVal,
    /// Host-side address + call site, carried into the live finding.
    host_addr: u64,
    codeptr: CodePtr,
    src: DeviceId,
    dest: DeviceId,
    /// Next-younger reception of the same queue ([`NIL`] = newest).
    next: u32,
}

/// The frontier holds arena indices, nothing else.
type FrontierIx = u32;
const _: () = assert!(std::mem::size_of::<FrontierIx>() == 4);
const _: () = assert!(std::mem::size_of::<Reception>() == 48);

/// The streaming twin of an alloc/delete pairing.
#[derive(Debug)]
struct StreamPair {
    alloc_seq: Seq,
    alloc_start: SimTime,
    /// Host address + call site of the allocation (live-finding info).
    alloc_haddr: u64,
    alloc_codeptr: CodePtr,
    delete_seq: Option<Seq>,
    /// Valid iff `delete_seq.is_some()`.
    delete_end: SimTime,
}

/// A buffered kernel span (per-device queues for Algorithms 4/5).
#[derive(Clone, Copy, Debug)]
struct KSpan {
    start: SimTime,
    end: SimTime,
}

/// A transfer awaiting its device's next kernel (Algorithm 5).
#[derive(Clone, Copy, Debug)]
struct PendingTx {
    seq: Seq,
    start: SimTime,
    src_addr: u64,
    codeptr: CodePtr,
}

/// Per-target-device state machines for Algorithms 4 and 5.
#[derive(Debug, Default)]
struct DeviceMachine {
    /// Algorithm 4's kernel cursor: kernels not yet passed.
    kq4: VecDeque<KSpan>,
    /// Pairings awaiting a decision, allocation order.
    pending_pairs: VecDeque<u32>,
    /// Algorithm 5's kernel cursor.
    kq5: VecDeque<KSpan>,
    /// Transfers awaiting the device's next kernel.
    pending_tx: VecDeque<PendingTx>,
    /// Source address → last transfer writing from it (candidates),
    /// with its call site for the live finding.
    candidates: FnvHashMap<u64, (Seq, CodePtr)>,
}

impl DeviceMachine {
    fn pending_len(&self) -> usize {
        self.kq4.len() + self.kq5.len() + self.pending_pairs.len() + self.pending_tx.len()
    }
}

/// The online detection engine. Push events (in completion order),
/// close each batch by advancing to the watermark as open operations
/// retire, and drain the live findings; finalize against the hydrated
/// trace to complete the live stream and obtain the fused sweep's
/// report.
#[derive(Debug, Default)]
pub struct StreamingEngine {
    /// Algorithm 2 lookahead hard cap (`None` = unbounded/exact).
    max_frontier: Option<usize>,
    /// Reorder buffer: per-shard in-order run lanes merged by a
    /// loser tree, with a side pocket for genuine intra-shard
    /// inversions (see [`crate::detect::reorder`]).
    buffer: RunMergeBuffer<StreamEvent>,
    /// Everything at or below this start time has been released.
    watermark: SimTime,
    /// Last released key, for the monotonicity debug check.
    last_released: Option<(SimTime, Seq, u8)>,
    /// Events pushed since the last [`StreamingEngine::advance`].
    pushed: u64,

    /// Reception queues (Algorithms 1/2).
    slots: FnvHashMap<(HashVal, DeviceId), Slot>,
    /// Every unconsumed reception, chained per queue.
    receptions: Vec<Reception>,
    /// Dequeued nodes of `receptions`, reused before the arena grows.
    free_receptions: Vec<u32>,
    /// Algorithm 2's bounded lookahead window, oldest first.
    frontier: VecDeque<FrontierIx>,
    /// The reception queue the front of `frontier` waits on (`None` =
    /// empty frontier): only an arrival in *that* queue can unblock it,
    /// every other one skips the re-check.
    stalled_on: Option<(HashVal, DeviceId)>,

    /// Alloc/delete pairings in allocation order (Algorithms 3/4).
    pairs: Vec<StreamPair>,
    open_pairs: FnvHashMap<(DeviceId, u64), u32>,
    /// Allocations seen so far per ⟨host addr, device, size⟩ site
    /// (Algorithm 3's occurrence number).
    realloc_counts: FnvHashMap<(u64, DeviceId, u64), u32>,

    /// Per-target-device machines (Algorithms 4/5), index = device.
    machines: Vec<DeviceMachine>,

    /// Live findings not yet drained.
    emitted: Vec<StreamFinding>,
    counts: IssueCounts,
    out_of_range: OutOfRangeEvents,
    stats: StreamBufferStats,
    finalized: bool,
    /// Data operations offered to the engine (late-quarantined ones
    /// included); finalize reconciles it against the view's op count.
    ops_offered: u64,

    /// Set by the first forced release: every finding emitted (and
    /// the finalize report) from then on is [`Confidence::Degraded`].
    degraded: bool,
    /// Last key released by a forced release. Events arriving at or
    /// below it can no longer be ordered correctly and are quarantined
    /// as late (counted in [`TraceHealth::late`]).
    forced_floor: Option<(SimTime, Seq, u8)>,
    /// Stream-side degradation counters (late quarantines, forced
    /// releases, events missing at finalize).
    health: TraceHealth,
}

impl StreamingEngine {
    /// A new engine. `max_frontier` is a hard cap on Algorithm 2's
    /// lookahead window (`--stream-cap`). On adversarial traces — every
    /// transfer a unique hash that never returns — the confirmed
    /// frontier grows with trace length; with a cap, the oldest
    /// undecided transfers are *spilled*: resolved against the
    /// reception queues as they stand (almost always "no round trip")
    /// and retired, trading exactness of the *live* late-completing
    /// trips for a guaranteed memory ceiling. Spills are counted in
    /// [`StreamBufferStats::frontier_spilled`] and surfaced through
    /// [`StreamingEngine::spill_warning`]; while the count stays zero,
    /// the live stream is exactly the final report's projection. The
    /// final report itself is computed from the recorded trace and is
    /// exact with or without spills. `None` (as [`Default`]) never
    /// spills.
    pub fn new(max_frontier: Option<usize>) -> StreamingEngine {
        StreamingEngine {
            max_frontier,
            ..Default::default()
        }
    }

    /// Buffer an incoming event (any completion order) in its shard's
    /// run lane; nothing is released until [`StreamingEngine::advance`]
    /// closes the batch. Non-kernel target constructs are ignored (no
    /// detector consumes them).
    pub fn push(&mut self, ev: StreamEvent) {
        debug_assert!(!self.finalized, "ingest after finalize");
        self.pushed += 1;
        match &ev {
            StreamEvent::Op(_) => self.ops_offered += 1,
            StreamEvent::Kernel(k) if k.kind != TargetKind::Kernel => return,
            StreamEvent::Kernel(_) => {}
        }
        let key = ev.key();
        // After a forced release, events ordered at or below the forced
        // floor arrived too late to release in order: quarantine them
        // (counted, never ingested) instead of violating release
        // monotonicity.
        if self.forced_floor.is_some_and(|floor| key <= floor) {
            self.health.late += 1;
        } else {
            self.buffer.push(shard_of(key.1), key, ev);
        }
    }

    /// Close the batch pushed since the last call: count it, release
    /// every buffered event whose start is at or below `watermark` into
    /// the detection state machines in chronological `(start, id)`
    /// order, then sample what is left waiting. `None` means nothing is
    /// settled yet (some shard may still emit at time zero): nothing is
    /// released. The caller guarantees no future event can start at or
    /// below the watermark (see [`odp_ompt::GlobalWatermark`]).
    pub fn advance(&mut self, watermark: Option<SimTime>) {
        self.stats.drains += 1;
        self.stats.drained_events += std::mem::take(&mut self.pushed);
        if let Some(watermark) = watermark {
            self.watermark = self.watermark.max(watermark);
            self.release_through(self.watermark);
        }
        self.stats.buffered_peak = self.stats.buffered_peak.max(self.buffer.len());
    }

    /// The one release loop: everything buffered at or below `bound`
    /// goes to the detectors in merge order.
    fn release_through(&mut self, bound: SimTime) {
        while let Some(entry) = self.buffer.pop_if(|key| key.0 <= bound) {
            debug_assert!(
                self.last_released.is_none_or(|last| last <= entry.key()),
                "watermark violated: released {:?} after {:?} (watermark {:?})",
                entry.key(),
                self.last_released,
                self.watermark
            );
            self.last_released = Some(entry.key());
            match entry {
                StreamEvent::Op(e) => self.ingest_op(&e),
                StreamEvent::Kernel(k) => self.ingest_kernel(&k),
            }
        }
        self.note_peaks();
    }

    /// Issue counts of everything emitted so far. After a finalize
    /// that neither spilled nor degraded, this equals the returned
    /// report's [`Findings::counts`] (the live stream is then exactly
    /// [`Findings::stream_findings`] of it).
    pub fn live_counts(&self) -> IssueCounts {
        self.counts
    }

    /// Drain the findings emitted since the last call.
    pub fn take_findings(&mut self) -> Vec<StreamFinding> {
        std::mem::take(&mut self.emitted)
    }

    /// Release **everything** in the reorder buffer regardless of the
    /// watermark — the stall-recovery escape hatch. Call when a
    /// [`odp_ompt::StallDetector`] declares the merged watermark wedged
    /// (a shard stopped delivering End callbacks): the buffered events
    /// drain in `(start, id)` order so detection can proceed, but the
    /// watermark's no-future-event promise is gone — an event may yet
    /// arrive that belonged before something just released. The engine
    /// therefore marks itself degraded: every live finding from here on
    /// and the whole finalize report carry [`Confidence::Degraded`], and
    /// later events at or below the forced floor are quarantined as
    /// late. Returns the number of events released.
    pub fn force_release_all(&mut self) -> usize {
        let released = self.buffer.len();
        if released == 0 {
            return 0;
        }
        self.degraded = true;
        self.health.forced_releases += released as u64;
        // Merge order keeps this batch internally monotonic, and
        // everything <= the old watermark was already released.
        self.release_through(SimTime(u64::MAX));
        self.forced_floor = self.last_released;
        released
    }

    /// True once a forced release degraded the stream: findings are no
    /// longer backed by a settled event order.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Degradation counters accumulated by the engine itself: late
    /// quarantines, forced releases, and events missing at finalize.
    /// Collector-side counters (orphans, truncations, ...) live with
    /// the tool; merge both for the full picture.
    pub fn health(&self) -> TraceHealth {
        self.health
    }

    /// Events excluded from Algorithms 4/5 because they named an
    /// implausible device (at or beyond
    /// [`odp_trace::MAX_PLAUSIBLE_DEVICES`]) — the same events
    /// [`EventView::from_log`]'s inferred device count excludes.
    pub fn out_of_range(&self) -> OutOfRangeEvents {
        self.out_of_range
    }

    /// Current and peak sizes of the engine's bounded windows.
    pub fn buffer_stats(&self) -> StreamBufferStats {
        let mut s = self.stats;
        s.buffered_now = self.buffer.len();
        s.frontier_now = self.frontier.len();
        s.device_pending_now = self.machines.iter().map(|m| m.pending_len()).sum();
        s.reorder_inversions = self.buffer.inversions() as usize;
        s.reorder_pocket_peak = self.buffer.pocket_peak();
        s
    }

    /// A report warning when the lookahead cap forced spills, else
    /// `None`. It concerns the *live* stream only: round trips
    /// completing after a spill were emitted unconfirmed
    /// (`spilled: true`) or not at all, so remediation saw less than
    /// the final report — which finalize computes from the recorded
    /// trace and is exact regardless.
    pub fn spill_warning(&self) -> Option<String> {
        let spilled = self.stats.frontier_spilled;
        if spilled == 0 {
            return None;
        }
        let cap = self.max_frontier.unwrap_or(0);
        Some(format!(
            "warning: the Algorithm 2 lookahead window hit its hard cap ({cap}); \
             {spilled} undecided transfer(s) were retired early — live round-trip \
             findings after the spill were unconfirmed and never drove remediation \
             (the report below is computed from the recorded trace and is exact)"
        ))
    }

    /// Complete the live stream, then report: release the reorder
    /// buffer, resolve the Algorithm 2 frontier and drain the per-device
    /// pending queues with the end-of-trace rules (so
    /// [`StreamingEngine::take_findings`] and
    /// [`StreamingEngine::live_counts`] cover the whole run), and return
    /// the fused sweep's [`Findings`] over `view` — the engine itself
    /// produces live findings and nothing else. Call once, after the
    /// monitored program finished; `view` must hydrate the trace the
    /// engine observed.
    ///
    /// The report is always the exact post-mortem answer for the
    /// recorded trace, also after a lookahead-cap spill (it never sets
    /// [`crate::detect::RoundTrip::spilled`]). It is stamped
    /// [`Confidence::Degraded`] throughout iff the engine is
    /// degraded: a forced release happened, or the view holds a
    /// different number of data operations than were offered to the
    /// engine — the difference is counted in
    /// [`TraceHealth::missing_at_finalize`], and the live stream then no
    /// longer corresponds to the report.
    pub fn finalize(&mut self, view: &EventView<'_>) -> Findings {
        assert!(!self.finalized, "StreamingEngine::finalize called twice");
        self.finalized = true;

        let missing = self.ops_offered.abs_diff(view.op_count() as u64);
        if missing > 0 {
            self.health.missing_at_finalize += missing;
            self.degraded = true;
        }

        // Nothing is open anymore: release the whole reorder buffer.
        self.release_through(SimTime(u64::MAX));

        // Algorithm 2: the reception queues are final; every transfer
        // still behind the frontier resolves against them (re-sends that
        // never happened are now provably never happening).
        while let Some(tx) = self.frontier.pop_front() {
            self.try_complete_trip(tx);
        }

        // Algorithms 4/5: no kernel will ever arrive; drain the pending
        // queues with the end-of-trace rules.
        for dev in 0..self.machines.len() {
            self.alg4_advance(dev, true);
            while let Some(tx) = self.machines[dev].pending_tx.pop_front() {
                self.emit(StreamFinding::UnusedTransfer {
                    device: DeviceId::target(dev as u32),
                    host_addr: tx.src_addr,
                    codeptr: tx.codeptr,
                    event: tx.seq,
                    reason: UnusedTransferReason::AfterLastKernel,
                    confidence: self.confidence(),
                });
                self.counts.ut += 1;
            }
        }

        let mut findings = engine::detect(view);
        if self.degraded {
            findings.mark_degraded();
        }
        findings
    }

    // ---- event routing --------------------------------------------------

    fn ingest_op(&mut self, e: &DataOpEvent) {
        if e.is_transfer() {
            if let Some(hash) = e.hash {
                self.on_hashed_transfer(e, hash);
            }
            if let Some(ix) = e.dest_device.target_index() {
                if Self::in_range(ix) {
                    self.alg5_on_transfer(ix, e);
                } else {
                    self.out_of_range.transfers += 1;
                }
            }
        } else if e.is_alloc() {
            self.on_alloc(e);
        } else if e.is_delete() {
            self.on_delete(e);
        }
    }

    fn ingest_kernel(&mut self, k: &TargetEvent) {
        let Some(ix) = k.device.target_index() else {
            return;
        };
        if !Self::in_range(ix) {
            self.out_of_range.kernels += 1;
            return;
        }
        let span = KSpan {
            start: k.span.start,
            end: k.span.end,
        };
        let m = self.machine(ix);
        m.kq4.push_back(span);
        m.kq5.push_back(span);
        self.alg4_advance(ix, false);
        self.alg5_on_kernel(ix);
    }

    /// The device machines grow on demand, but bounded: a corrupted
    /// callback naming device 0x4000_0000 must be quarantined, not given
    /// a billion-entry machine table. The cap matches
    /// `infer_num_devices_columnar`, so finalize's view agrees on which
    /// events are out of range.
    fn in_range(ix: usize) -> bool {
        ix < odp_trace::MAX_PLAUSIBLE_DEVICES as usize
    }

    fn machine(&mut self, ix: usize) -> &mut DeviceMachine {
        if ix >= self.machines.len() {
            self.machines.resize_with(ix + 1, DeviceMachine::default);
        }
        &mut self.machines[ix]
    }

    // ---- Algorithms 1 + 2 ----------------------------------------------

    fn on_hashed_transfer(&mut self, e: &DataOpEvent, hash: HashVal) {
        let key = (hash, e.dest_device);
        let reception = Reception {
            seq: e.id.0,
            hash,
            host_addr: host_side_addr(e),
            codeptr: e.codeptr,
            src: e.src_device,
            dest: e.dest_device,
            next: NIL,
        };
        let ix = match self.free_receptions.pop() {
            Some(ix) => {
                self.receptions[ix as usize] = reception;
                ix
            }
            None => {
                self.receptions.push(reception);
                (self.receptions.len() - 1) as u32
            }
        };
        // Enqueue into the (hash, dest) reception queue — Algorithm 1's
        // group membership is final immediately.
        let slot = self.slots.entry(key).or_insert(Slot {
            first: e.id.0,
            count: 0,
            head: NIL,
            tail: NIL,
        });
        slot.count += 1;
        if slot.head == NIL {
            slot.head = ix;
        } else {
            self.receptions[slot.tail as usize].next = ix;
        }
        slot.tail = ix;
        let (first, occurrence) = (slot.first, slot.count);
        if occurrence >= 2 {
            self.emit(StreamFinding::DuplicateTransfer {
                hash,
                src_device: e.src_device,
                dest_device: e.dest_device,
                host_addr: reception.host_addr,
                codeptr: e.codeptr,
                event: e.id.0,
                first,
                occurrence,
                confidence: self.confidence(),
            });
            self.counts.dd += 1;
        }

        // Algorithm 2: this transfer joins the back of the frontier;
        // its reception can retire stalled transfers at the front only
        // if it landed in the queue the front is waiting on.
        self.frontier.push_back(ix);
        self.stats.frontier_peak = self.stats.frontier_peak.max(self.frontier.len());
        if self.stalled_on.is_none_or(|waiting| waiting == key) {
            self.alg2_advance_frontier();
        }
        // Hard cap: force-retire the oldest undecided transfers. Each
        // spilled transfer is resolved against the queues as they stand
        // — a re-send that has not happened yet is treated as never
        // happening, the trade the cap buys its memory ceiling with.
        let cap = self.max_frontier.unwrap_or(usize::MAX);
        if self.frontier.len() > cap {
            while let Some(tx) = self.frontier.pop_front() {
                self.stats.frontier_spilled += 1;
                self.try_complete_trip(tx);
                if self.frontier.len() <= cap {
                    break;
                }
            }
            // Spilling unblocked whatever stalled behind the front.
            self.alg2_advance_frontier();
        }
    }

    /// Retire frontier transfers while their outcome is determined by
    /// events already seen. The front transfer stalls when its source
    /// slot has no unconsumed reception *yet* — a future re-send could
    /// still complete the trip, so nothing behind it may advance (the
    /// pending dequeue could change every later queue read).
    fn alg2_advance_frontier(&mut self) {
        self.stalled_on = None;
        while let Some(&tx) = self.frontier.front() {
            if !self.try_complete_trip(tx) {
                let front = &self.receptions[tx as usize];
                self.stalled_on = Some((front.hash, front.src));
                return;
            }
            self.frontier.pop_front();
        }
    }

    /// The reference sweep body for one transfer: completes a round trip
    /// if its source device holds an unconsumed reception of the same
    /// content (else returns `false`: undecided while the trace runs,
    /// "the data never returns" at finalize), dequeuing the transfer's
    /// own reception queue so its entry can never complete a second trip.
    ///
    /// A spill-popped head is by definition undecided, so the spill
    /// itself never pairs — but it retires the head *without* consuming
    /// the reception its future re-send would have consumed, so every
    /// pairing completed after the first spill reads queue state the
    /// exact algorithm might not have produced. All such trips are
    /// therefore tagged `spilled` (unconfirmed) in the live finding;
    /// with no spills ever, nothing is tagged and the live trips are
    /// exactly the post-mortem sweep's.
    fn try_complete_trip(&mut self, tx: FrontierIx) -> bool {
        let tx = self.receptions[tx as usize];
        let rx = match self.slots.get(&(tx.hash, tx.src)) {
            Some(slot) if slot.head != NIL => self.receptions[slot.head as usize].seq,
            _ => return false,
        };
        // Consume the front of the transfer's own destination queue.
        if let Some(own) = self.slots.get_mut(&(tx.hash, tx.dest)) {
            if own.head != NIL {
                self.free_receptions.push(own.head);
                own.head = self.receptions[own.head as usize].next;
            }
        }
        self.emit(StreamFinding::RoundTrip {
            hash: tx.hash,
            src_device: tx.src,
            dest_device: tx.dest,
            host_addr: tx.host_addr,
            codeptr: tx.codeptr,
            tx: tx.seq,
            rx,
            spilled: self.stats.frontier_spilled > 0,
            confidence: self.confidence(),
        });
        self.counts.rt += 1;
        true
    }

    // ---- Algorithms 3 + 4 ----------------------------------------------

    fn on_alloc(&mut self, e: &DataOpEvent) {
        let pair_ix = self.pairs.len() as u32;
        // A new allocation at an address shadows any stale open entry
        // (same contract as `alloc_delete_pairs`).
        self.open_pairs
            .insert((e.dest_device, e.dest_addr), pair_ix);
        self.pairs.push(StreamPair {
            alloc_seq: e.id.0,
            alloc_start: e.span.start,
            alloc_haddr: e.src_addr,
            alloc_codeptr: e.codeptr,
            delete_seq: None,
            delete_end: SimTime(0),
        });

        // Algorithm 3: group membership is final at allocation time.
        let seen = self
            .realloc_counts
            .entry((e.src_addr, e.dest_device, e.bytes))
            .or_insert(0);
        *seen += 1;
        let occurrence = *seen;
        if occurrence >= 2 {
            self.emit(StreamFinding::RepeatedAlloc {
                host_addr: e.src_addr,
                device: e.dest_device,
                bytes: e.bytes,
                codeptr: e.codeptr,
                alloc: e.id.0,
                occurrence,
                confidence: self.confidence(),
            });
            self.counts.ra += 1;
        }

        // Algorithm 4: the pairing waits for a kernel able to prove use.
        if let Some(ix) = e.dest_device.target_index() {
            if Self::in_range(ix) {
                self.machine(ix).pending_pairs.push_back(pair_ix);
                self.alg4_advance(ix, false);
            } else {
                self.out_of_range.allocs += 1;
            }
        }
    }

    fn on_delete(&mut self, e: &DataOpEvent) {
        if let Some(pix) = self.open_pairs.remove(&(e.dest_device, e.dest_addr)) {
            let p = &mut self.pairs[pix as usize];
            p.delete_seq = Some(e.id.0);
            p.delete_end = e.span.end;
        }
        // A delete with no open alloc is a runtime anomaly; ignored.
    }

    /// Decide pending pairings in allocation order. The front pairing is
    /// undecidable only while no kernel with `end >= alloc.start` has
    /// arrived on its device; any kernel arriving later starts at or
    /// after the allocation (chronological release), so "no delete yet"
    /// already proves the allocation's lifetime reaches that kernel.
    /// With `at_end` (finalize) an exhausted kernel cursor is no longer
    /// a stall but the reference's "no kernel ever used it" verdict.
    fn alg4_advance(&mut self, dev: usize, at_end: bool) {
        loop {
            let Some(&pix) = self.machines[dev].pending_pairs.front() else {
                return;
            };
            let p = &self.pairs[pix as usize];
            let (alloc_start, deleted, delete_end) =
                (p.alloc_start, p.delete_seq.is_some(), p.delete_end);
            let m = &mut self.machines[dev];
            while m.kq4.front().is_some_and(|k| k.end < alloc_start) {
                m.kq4.pop_front();
            }
            let unused = match m.kq4.front() {
                Some(k) => deleted && k.start > delete_end,
                None if at_end => true,
                None => return, // wait for the device's next kernel
            };
            m.pending_pairs.pop_front();
            if unused {
                self.emit_unused_alloc(dev, pix);
            }
        }
    }

    fn emit_unused_alloc(&mut self, dev: usize, pix: u32) {
        let p = &self.pairs[pix as usize];
        let finding = StreamFinding::UnusedAlloc {
            device: DeviceId::target(dev as u32),
            host_addr: p.alloc_haddr,
            codeptr: p.alloc_codeptr,
            alloc: p.alloc_seq,
            delete: p.delete_seq,
            confidence: self.confidence(),
        };
        self.emit(finding);
        self.counts.ua += 1;
    }

    // ---- Algorithm 5 ---------------------------------------------------

    fn alg5_on_transfer(&mut self, dev: usize, e: &DataOpEvent) {
        let tx = PendingTx {
            seq: e.id.0,
            start: e.span.start,
            src_addr: e.src_addr,
            codeptr: e.codeptr,
        };
        self.machine(dev); // ensure the device table covers `dev`
        let conf = self.confidence();
        let m = &mut self.machines[dev];
        if !m.pending_tx.is_empty() {
            m.pending_tx.push_back(tx); // preserve order behind the stall
            return;
        }
        if let Some(stalled) =
            Self::alg5_process_tx(m, tx, dev, conf, &mut self.emitted, &mut self.counts)
        {
            m.pending_tx.push_back(stalled); // queue was empty: order holds
        }
    }

    /// The reference per-transfer step: advance the kernel cursor
    /// (clearing candidates per passed kernel), then classify against
    /// the next kernel — or return the transfer to stall until one
    /// arrives.
    fn alg5_process_tx(
        m: &mut DeviceMachine,
        tx: PendingTx,
        dev: usize,
        confidence: Confidence,
        emitted: &mut Vec<StreamFinding>,
        counts: &mut IssueCounts,
    ) -> Option<PendingTx> {
        while m.kq5.front().is_some_and(|k| k.end < tx.start) {
            m.kq5.pop_front();
            m.candidates.clear();
        }
        match m.kq5.front() {
            None => return Some(tx),
            Some(k) if k.start > tx.start => {
                if let Some(&(cand, cand_cp)) = m.candidates.get(&tx.src_addr) {
                    emitted.push(StreamFinding::UnusedTransfer {
                        device: DeviceId::target(dev as u32),
                        host_addr: tx.src_addr,
                        codeptr: cand_cp,
                        event: cand,
                        reason: UnusedTransferReason::OverwrittenBeforeUse,
                        confidence,
                    });
                    counts.ut += 1;
                }
                m.candidates.insert(tx.src_addr, (tx.seq, tx.codeptr));
            }
            Some(_) => {
                // Overlaps a running kernel (asynchronous mapping):
                // conservatively forget all candidates.
                m.candidates.clear();
            }
        }
        None
    }

    /// A kernel arrived: transfers that stalled on an empty cursor can
    /// now classify (the new kernel starts at or after each of them, so
    /// it is exactly the reference's `kernels[idx]`).
    fn alg5_on_kernel(&mut self, dev: usize) {
        let conf = self.confidence();
        let m = &mut self.machines[dev];
        while !m.kq5.is_empty() {
            let Some(tx) = m.pending_tx.pop_front() else {
                break;
            };
            if let Some(stalled) =
                Self::alg5_process_tx(m, tx, dev, conf, &mut self.emitted, &mut self.counts)
            {
                m.pending_tx.push_front(stalled); // re-stalled: keep order
                break;
            }
        }
    }

    // ---- bookkeeping --------------------------------------------------

    fn emit(&mut self, f: StreamFinding) {
        self.emitted.push(f);
    }

    /// Confidence of findings emitted right now.
    fn confidence(&self) -> Confidence {
        if self.degraded {
            Confidence::Degraded
        } else {
            Confidence::Confirmed
        }
    }

    fn note_peaks(&mut self) {
        let pending: usize = self.machines.iter().map(|m| m.pending_len()).sum();
        self.stats.device_pending_peak = self.stats.device_pending_peak.max(pending);
        self.stats.frontier_peak = self.stats.frontier_peak.max(self.frontier.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::{assert_live_matches, finalize, EventFactory};
    use odp_model::TimeSpan;
    use odp_trace::ColumnarView;

    /// Feed events in chronological order with a trailing watermark.
    fn feed_chronological(
        engine: &mut StreamingEngine,
        ops: &[DataOpEvent],
        kernels: &[TargetEvent],
    ) {
        let mut merged: Vec<StreamEvent> = ops.iter().cloned().map(StreamEvent::Op).collect();
        merged.extend(kernels.iter().cloned().map(StreamEvent::Kernel));
        merged.sort_by_key(|e| e.key());
        for entry in merged {
            let end = match &entry {
                StreamEvent::Op(e) => e.span.end,
                StreamEvent::Kernel(k) => k.span.end,
            };
            engine.push(entry);
            engine.advance(Some(end));
        }
    }

    #[test]
    fn streaming_matches_postmortem_on_mixed_trace() {
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(30, 60, 0), f.kernel(130, 160, 0)];
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),
            f.h2d(10, 0, 0x1000, 7, 64),
            f.h2d(20, 0, 0x1000, 7, 64), // duplicate
            f.d2h(70, 0, 0x1000, 7, 64), // round trip back to host
            f.delete(80, 0, 0x1000, 0xd000, 64),
            f.alloc(90, 0, 0x1000, 0xd000, 64), // repeated alloc
            f.h2d(100, 0, 0x1000, 9, 64),
            f.delete(170, 0, 0x1000, 0xd000, 64),
            f.h2d(180, 0, 0x2000, 11, 64), // after last kernel
        ];
        let mut engine = StreamingEngine::default();
        feed_chronological(&mut engine, &ops, &kernels);
        let mut live = engine.take_findings();
        assert!(!live.is_empty(), "findings must be emitted mid-stream");
        let report = finalize(&mut engine, &ops, &kernels, 1);
        live.extend(engine.take_findings());
        assert_eq!(engine.live_counts(), report.counts());
        assert_live_matches(live, &report);
    }

    #[test]
    fn out_of_order_completion_is_reordered_by_watermark() {
        // Op A spans 0..200 (completes last); op B spans 50..60 and a
        // kernel spans 70..80 — both complete while A is open. Arrival
        // order is B, kernel, A; chronological order is A, B, kernel.
        let mut f = EventFactory::new();
        let mut a = f.h2d(0, 0, 0x1000, 5, 64);
        a.span = TimeSpan::new(SimTime(0), SimTime(200));
        let mut b = f.h2d(50, 0, 0x1000, 5, 64); // duplicate of A's content
        b.span = TimeSpan::new(SimTime(50), SimTime(60));
        let kernel = f.kernel(70, 80, 0);

        let mut engine = StreamingEngine::default();
        // B completes at 60; A (begun at 0) is still open → watermark 0.
        engine.push(StreamEvent::Op(b.clone()));
        engine.advance(Some(SimTime(0)));
        assert_eq!(engine.buffer_stats().buffered_now, 1, "B must wait on A");
        engine.push(StreamEvent::Kernel(kernel.clone()));
        engine.advance(Some(SimTime(0)));
        // A completes: everything drains in (start, id) order.
        engine.push(StreamEvent::Op(a.clone()));
        engine.advance(Some(SimTime(200)));
        assert_eq!(engine.buffer_stats().buffered_now, 0);

        let ops = {
            let mut v = vec![a, b];
            v.sort_by_key(|e| (e.span.start, e.id));
            v
        };
        let kernels = vec![kernel];
        let report = finalize(&mut engine, &ops, &kernels, 1);
        assert_eq!(report.counts().dd, 1);
        assert_live_matches(engine.take_findings(), &report);
    }

    #[test]
    fn round_trip_retires_when_the_resend_arrives() {
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 7, 256), f.d2h(50, 0, 0x1000, 7, 256)];
        let mut engine = StreamingEngine::default();

        engine.push(StreamEvent::Op(ops[0].clone()));
        engine.advance(Some(SimTime(10)));
        assert!(
            engine.take_findings().is_empty(),
            "outbound leg alone is provisional"
        );
        assert_eq!(engine.buffer_stats().frontier_now, 1);

        engine.push(StreamEvent::Op(ops[1].clone()));
        engine.advance(Some(SimTime(60)));
        let live = engine.take_findings();
        assert!(
            live.iter()
                .any(|l| matches!(l, StreamFinding::RoundTrip { .. })),
            "trip must retire as soon as the reception lands: {live:?}"
        );

        let report = finalize(&mut engine, &ops, &[], 1);
        assert_eq!(report.counts().rt, 1);
        assert_eq!(engine.live_counts(), report.counts());
    }

    #[test]
    fn steady_state_windows_stay_bounded() {
        // Iterative ping-pong: the same content travels out and back each
        // iteration, kernels keep the Algorithm 4/5 cursors moving. Every
        // window's high-water mark must be independent of trace length,
        // and so must the reception history the slots retain (the
        // prefix Algorithm 2 consumed is dropped, not kept for a report).
        fn run(iters: u64) -> (StreamBufferStats, usize) {
            let mut engine = StreamingEngine::default();
            let mut f = EventFactory::new();
            for i in 0..iters {
                let t = i * 100;
                let mut ops = vec![
                    f.alloc(t, 0, 0x1000, 0xd000, 64),
                    f.h2d(t + 10, 0, 0x1000, 7, 64),
                    f.d2h(t + 70, 0, 0x1000, 7, 64),
                    f.delete(t + 80, 0, 0x1000, 0xd000, 64),
                ];
                let kernel = f.kernel(t + 30, t + 60, 0);
                for op in ops.drain(..2) {
                    engine.push(StreamEvent::Op(op));
                }
                engine.push(StreamEvent::Kernel(kernel));
                for op in ops {
                    engine.push(StreamEvent::Op(op));
                }
                engine.advance(Some(SimTime(t + 90)));
            }
            let retained = engine.receptions.len() - engine.free_receptions.len();
            (engine.buffer_stats(), retained)
        }
        let (small, small_retained) = run(50);
        let (large, large_retained) = run(500);
        assert_eq!(
            small_retained, large_retained,
            "per-slot history must not grow with trace length"
        );
        assert!(large_retained <= 2, "{large_retained}");
        assert_eq!(
            small.frontier_peak, large.frontier_peak,
            "Algorithm 2 window must not grow with trace length"
        );
        assert_eq!(small.buffered_peak, large.buffered_peak);
        assert_eq!(small.device_pending_peak, large.device_pending_peak);
        assert!(large.frontier_peak <= 4, "{large:?}");
        assert!(large.device_pending_peak <= 8, "{large:?}");
    }

    #[test]
    fn frontier_hard_cap_bounds_adversarial_traces() {
        // Adversarial input: every transfer carries a unique hash that
        // never returns, so every transfer is undecided forever and the
        // exact frontier grows linearly with the trace.
        fn run(cap: Option<usize>, n: u64) -> (StreamingEngine, Vec<DataOpEvent>) {
            let mut f = EventFactory::new();
            let ops: Vec<DataOpEvent> = (0..n)
                .map(|i| f.h2d(i * 20, 0, 0x1000, 1_000 + i, 64))
                .collect();
            let mut engine = StreamingEngine::new(cap);
            for op in &ops {
                engine.push(StreamEvent::Op(op.clone()));
                engine.advance(Some(op.span.end));
            }
            (engine, ops)
        }

        let (exact, _) = run(None, 500);
        assert!(
            exact.buffer_stats().frontier_peak >= 500,
            "uncapped frontier grows with the trace: {:?}",
            exact.buffer_stats()
        );
        assert_eq!(exact.spill_warning(), None);

        let (mut capped, ops) = run(Some(32), 500);
        let stats = capped.buffer_stats();
        assert!(
            stats.frontier_peak <= 33,
            "high-water mark must respect the cap: {stats:?}"
        );
        assert_eq!(stats.frontier_spilled, 500 - 32);
        assert!(capped
            .spill_warning()
            .is_some_and(|w| w.contains("hard cap") && w.contains("468")));

        // Never-returning transfers are not round trips either way, so
        // even the capped engine's live stream is the report's
        // projection here.
        let report = finalize(&mut capped, &ops, &[], 1);
        assert_live_matches(capped.take_findings(), &report);
    }

    #[test]
    fn spilled_transfers_give_up_late_round_trips_with_a_warning() {
        // The documented trade: a transfer spilled before its re-send
        // arrives loses its *live* round trip, and the warning says so.
        // The final report is computed from the trace and stays exact.
        let mut f = EventFactory::new();
        let mut ops = vec![f.h2d(0, 0, 0x1000, 7, 64)];
        for i in 0..50u64 {
            ops.push(f.h2d(10 + i * 10, 0, 0x2000, 100 + i, 64));
        }
        // The re-send that would complete hash 7's round trip, far past
        // the cap.
        ops.push(f.d2h(2_000, 0, 0x1000, 7, 64));

        let run = |cap: Option<usize>| {
            let mut engine = StreamingEngine::new(cap);
            for op in &ops {
                engine.push(StreamEvent::Op(op.clone()));
                engine.advance(Some(op.span.end));
            }
            let report = finalize(&mut engine, &ops, &[], 1);
            let mut live = engine.take_findings();
            live.sort_unstable();
            (engine, report, live)
        };
        let (exact, exact_report, exact_live) = run(None);
        let (capped, capped_report, capped_live) = run(Some(8));

        // Both engines hand back the same, exact report: the outbound
        // H2D paired with its late return, no trip tagged as spilled.
        assert_eq!(
            serde_json::to_string(&capped_report).unwrap(),
            serde_json::to_string(&exact_report).unwrap()
        );
        assert_eq!(exact_report.counts().rt, 1);
        assert!(exact_report.round_trips[0].src_device.is_host());
        assert!(!exact_report.round_trips[0].trips[0].spilled);
        assert_eq!(exact.live_counts(), exact_report.counts());
        assert_live_matches(exact_live.clone(), &exact_report);

        // The capped live stream lost that pairing; the return leg
        // completed a reverse-direction trip against the reception the
        // spill left unconsumed, emitted as unconfirmed — and the
        // divergence is announced.
        let is_trip = |f: &&StreamFinding| matches!(f, StreamFinding::RoundTrip { .. });
        let capped_trips: Vec<_> = capped_live.iter().filter(is_trip).collect();
        assert!(
            matches!(
                capped_trips.as_slice(),
                [StreamFinding::RoundTrip { src_device, spilled: true, .. }] if !src_device.is_host()
            ),
            "{capped_trips:?}"
        );
        assert!(exact_live
            .iter()
            .filter(is_trip)
            .all(|f| matches!(f, StreamFinding::RoundTrip { spilled: false, .. })));
        assert_ne!(capped_live, exact_live);
        assert!(capped
            .spill_warning()
            .is_some_and(|w| w.contains("live") && w.contains("remediation")));
        assert!(capped.buffer_stats().frontier_spilled > 0);
        assert_eq!(exact.spill_warning(), None);
    }

    #[test]
    fn implausible_devices_are_counted_out_of_range() {
        // A corrupted callback can name any device: a seeded mix of
        // devices 0/1 and ids at and beyond the plausibility cap. The
        // engine quarantines exactly what the inferred view excludes.
        let cap = odp_trace::MAX_PLAUSIBLE_DEVICES;
        let mut f = EventFactory::new();
        let (mut ops, mut kernels) = (Vec::new(), Vec::new());
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..200u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let dev = [0, 1, cap, cap + 7][(x % 4) as usize];
            let (t, addr) = (i * 20, 0x1000 + (x >> 8) % 3 * 0x100);
            match (x >> 4) % 4 {
                0 => ops.push(f.alloc(t, dev, addr, 0xd000 + addr, 64)),
                1 => kernels.push(f.kernel(t, t + 15, dev)),
                _ => ops.push(f.h2d(t, dev, addr, (x >> 16) % 5, 64)),
            }
        }
        let mut engine = StreamingEngine::default();
        feed_chronological(&mut engine, &ops, &kernels);
        let cols = ColumnarView::from_events(&ops, &kernels);
        let view = EventView::over(&cols, crate::analysis::infer_num_devices_columnar(&cols));
        assert_eq!(view.num_devices, 2, "implausible ids never widen the view");
        let report = engine.finalize(&view);
        assert_live_matches(engine.take_findings(), &report);
        assert_eq!(engine.out_of_range(), view.out_of_range());
        let out = engine.out_of_range();
        assert!(
            out.allocs > 0 && out.kernels > 0 && out.transfers > 0,
            "{out:?}"
        );
        assert!(view
            .out_of_range()
            .warning(view.num_devices)
            .is_some_and(|w| w.contains("Algorithms 4/5")));
    }

    #[test]
    fn a_view_that_disagrees_with_the_stream_is_counted_and_degrades() {
        // The live ≡ projection invariant is not vacuous: withhold one
        // arrival (or one recorded op) and it breaks — and the count
        // reconciliation at finalize notices, without panicking.
        let mut f = EventFactory::new();
        let ops = vec![
            f.h2d(0, 0, 0x1000, 7, 64),
            f.h2d(20, 0, 0x1000, 7, 64), // duplicate of ops[0]
            f.h2d(40, 0, 0x2000, 9, 64),
        ];
        let cases: [(&[DataOpEvent], &[DataOpEvent]); 2] = [
            (&[ops[0].clone(), ops[2].clone()], &ops), // arrival withheld
            (&ops, &ops[..2]),                         // record withheld
        ];
        for (streamed, recorded) in cases {
            let mut engine = StreamingEngine::default();
            feed_chronological(&mut engine, streamed, &[]);
            let cols = ColumnarView::from_events(recorded, &[]);
            let view = EventView::over(&cols, 1);
            let report = engine.finalize(&view);
            assert_eq!(engine.health().missing_at_finalize, 1);
            assert!(engine.is_degraded());
            assert_eq!(report.counts().dd, 1, "the report follows the view");
            assert!(report.duplicates[0].confidence.is_degraded());
            assert!(report
                .unused_transfers
                .iter()
                .all(|ut| ut.confidence.is_degraded()));
            let mut live = engine.take_findings();
            let mut projected: Vec<_> = report.stream_findings().collect();
            live.sort_unstable();
            projected.sort_unstable();
            assert_ne!(live, projected, "the mismatch must be observable");
        }
    }

    #[test]
    fn live_findings_reference_real_events() {
        let mut f = EventFactory::new();
        let ops = vec![f.h2d(0, 0, 0x1000, 7, 64), f.h2d(20, 0, 0x1000, 7, 64)];
        let mut engine = StreamingEngine::default();
        feed_chronological(&mut engine, &ops, &[]);
        let live = engine.take_findings();
        match live.as_slice() {
            [StreamFinding::DuplicateTransfer {
                event,
                first,
                occurrence,
                ..
            }] => {
                assert_eq!(*first, ops[0].id.0);
                assert_eq!(*event, ops[1].id.0);
                assert_eq!(*occurrence, 2);
            }
            other => panic!("expected one duplicate finding, got {other:?}"),
        }
    }
}
