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
//! # Arrival order is completion order, not start order
//!
//! OMPT end callbacks fire when operations *finish*; overlapping
//! (async) spans therefore arrive out of chronological start order,
//! while every detector's precondition is `(start, log order)`. The
//! engine keeps one sorted lane per recording shard
//! ([`crate::detect::reorder`]): arrival within a shard is near-sorted,
//! so an event almost always appends, and a genuine intra-shard
//! inversion is inserted in order. Release takes the least head over the
//! lanes. Events release only at or below the caller-supplied
//! *watermark* — the earliest begin time of any still-open operation
//! (see [`odp_ompt::GlobalWatermark`]). The buffer is bounded by the
//! number of concurrently open operations, not by trace length.
//!
//! # Round trips settle at finalize
//!
//! Algorithm 2 (Def. 4.2) pairs a transfer with a reception *anywhere
//! later* in the trace, which is why the upstream tool analyzes its log
//! once the program has completed. A live version has to hold every
//! transfer whose content has not come back yet, and a re-send that
//! never happens holds it to the end. The engine used to run the
//! reference sweep behind such a confirmed frontier. Measured, the
//! frontier stalled at the first transfer whose content never returns
//! and decided almost nothing before exit — no round trip on 23 of the
//! 24 shipped programs at size S, two on `ir-xsbench`, one of 35 169 on
//! the 1.2 M-event storm — while it kept a second copy of every hashed
//! transfer (on the storm a 24.0 MB arena, a 17.9 MB reception map and a
//! 2.0 MB frontier). So the engine keeps no Algorithm 2 state:
//! [`StreamingEngine::finalize`] runs the fused sweep anyway and emits
//! the live [`StreamFinding::RoundTrip`]s from that report's trips in
//! `(tx.start, tx.id)` order — the order the frontier retired them in,
//! with the same fields.
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
//! it, and it keeps no history for a report: Algorithm 1 keeps one
//! 24-byte `(hash, dest) → (first, count)` entry per distinct reception
//! key, found through the fused sweep's own key (`RxSlot`), mix and
//! open-addressed index (`OpenIndex`, which doubles as keys arrive), an
//! allocation site keeps a count, and decided Algorithm 4/5
//! verdicts are emitted and forgotten. A pairing lives only while its
//! allocation is open or Algorithm 4 has yet to decide it; then its slot
//! is reused. What grows with the trace is the duplicate table (one
//! entry per distinct content a device received) and one count per
//! allocation site; the pairings grow with the allocations alive at
//! once and those still waiting for their device's next kernel.
//! [`StreamingEngine::retained_bytes`] says how much each structure
//! holds.
//!
//! # Release in chunks
//!
//! A release takes up to [`RELEASE_CHUNK`] events off the lanes, then
//! probes Algorithm 1's table for every hashed transfer among them in
//! one tight loop, and only then runs the in-order machines over the
//! chunk. The probes do not wait on each other, so their cache misses
//! overlap instead of each one stalling behind a detector's bookkeeping
//! (the fused sweep's `group_by` does the same). Each duplicate finding
//! is still emitted at its event's place in the stream.

use crate::detect::engine::{self, rx_key_mix, EventView, OpenIndex, OutOfRangeEvents, RxSlot};
use crate::detect::reorder::{RunMergeBuffer, SortKey};
use crate::detect::{
    charges, Confidence, Evidence, FindingKind, Findings, IssueCounts, RoundTrip, RoundTripGroup,
    UnusedTransferReason,
};
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
    /// Computed once at ingest and carried beside the event in its
    /// shard's reorder lane, so releases never re-derive it.
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
    /// Emitted by [`StreamingEngine::finalize`], never before.
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

    /// The inefficiency class the finding belongs to.
    pub(crate) fn kind(&self) -> FindingKind {
        match self {
            StreamFinding::DuplicateTransfer { .. } => FindingKind::DuplicateTransfer,
            StreamFinding::RoundTrip { .. } => FindingKind::RoundTrip,
            StreamFinding::RepeatedAlloc { .. } => FindingKind::RepeatedAlloc,
            StreamFinding::UnusedAlloc { .. } => FindingKind::UnusedAlloc,
            StreamFinding::UnusedTransfer { .. } => FindingKind::UnusedTransfer,
        }
    }
}

impl Findings {
    /// The report projected onto the live-finding vocabulary: exactly
    /// the [`StreamFinding`]s a streaming engine emits over a run whose
    /// trace yields this report (as a multiset — live emission order
    /// interleaves the kinds, and round trips arrive only at finalize).
    /// One live finding per instance [`charges`] yields, in its order,
    /// so which instances a report and a live stream hold is stated
    /// once. This is the invariant the differential suites hold the
    /// engine to, and how [`crate::remedy::RemediationPolicy`] seeds
    /// itself from a report.
    pub fn stream_findings(&self) -> impl Iterator<Item = StreamFinding> + '_ {
        charges(self).map(|c| {
            let confidence = c.confidence;
            match c.evidence {
                Evidence::Duplicate {
                    hash,
                    earlier,
                    event,
                } => StreamFinding::DuplicateTransfer {
                    hash,
                    src_device: event.src_device,
                    dest_device: event.dest_device,
                    host_addr: host_side_addr(event),
                    codeptr: event.codeptr,
                    event: event.id.0,
                    first: earlier.first().map_or(0, |e| e.id.0),
                    occurrence: earlier.len() as u32 + 1,
                    confidence,
                },
                Evidence::RoundTrip(group, trip) => trip_finding(group, trip),
                Evidence::RepeatedAlloc { earlier, pair } => StreamFinding::RepeatedAlloc {
                    host_addr: pair.alloc.src_addr,
                    device: pair.alloc.dest_device,
                    bytes: pair.alloc.bytes,
                    codeptr: pair.alloc.codeptr,
                    alloc: pair.alloc.id.0,
                    occurrence: earlier.len() as u32 + 1,
                    confidence,
                },
                Evidence::UnusedAlloc(pair) => StreamFinding::UnusedAlloc {
                    device: pair.alloc.dest_device,
                    host_addr: pair.alloc.src_addr,
                    codeptr: pair.alloc.codeptr,
                    alloc: pair.alloc.id.0,
                    delete: pair.delete.as_ref().map(|d| d.id.0),
                    confidence,
                },
                Evidence::UnusedTransfer(ut) => StreamFinding::UnusedTransfer {
                    device: ut.event.dest_device,
                    host_addr: ut.event.src_addr,
                    codeptr: ut.event.codeptr,
                    event: ut.event.id.0,
                    reason: ut.reason,
                    confidence,
                },
            }
        })
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

/// The live finding of one round trip of `group`.
fn trip_finding(group: &RoundTripGroup, trip: &RoundTrip) -> StreamFinding {
    StreamFinding::RoundTrip {
        hash: group.hash,
        src_device: group.src_device,
        dest_device: group.dest_device,
        host_addr: host_side_addr(&trip.tx),
        codeptr: trip.tx.codeptr,
        tx: trip.tx.id.0,
        rx: trip.rx.id.0,
        confidence: group.confidence,
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
    /// Always 0 (there is no round-trip window); kept because `benchmark/` reads it.
    pub frontier_peak: usize,
    /// Per-device pending work (pairs + transfers + buffered kernels),
    /// high-water mark.
    pub device_pending_peak: usize,
    /// Always 0 (there is no round-trip window); kept because `benchmark/` reads it.
    pub frontier_spilled: usize,
    /// Intra-shard arrival inversions: events that completed after a
    /// later-starting event of the same shard, so their lane took them
    /// by an ordered insert instead of an append. High values mean the
    /// trace is not near-sorted.
    pub reorder_inversions: usize,
    /// Batches closed ([`StreamingEngine::advance`] calls; under the
    /// tool, sweeps of the shards' pending queues).
    pub drains: u64,
    /// Events those batches carried. `drained_events / drains` is the
    /// mean batch: how many events share one engine lock, one watermark
    /// merge and one release sweep.
    pub drained_events: u64,
}

/// The shard an event id originated from: ids embed the recording
/// shard in their high 32 bits (see `TraceLog::merge_shards`), which is
/// what routes each event to its sorted lane.
#[inline]
fn shard_of(seq: Seq) -> u32 {
    (seq >> 32) as u32
}

/// Heap bytes of a hash map: its bucket array plus one control byte per
/// bucket (buckets are the capacity over the std map's 7/8 load factor).
fn map_bytes<K, V>(map: &FnvHashMap<K, V>) -> usize {
    let buckets = match map.capacity() {
        0 => 0,
        c if c < 7 => c + 1,
        c => c / 7 * 8,
    };
    buckets * (std::mem::size_of::<(K, V)>() + 1)
}

/// Heap bytes of a buffer with room for `capacity` `T`s.
fn buf_bytes<T>(capacity: usize) -> usize {
    capacity * std::mem::size_of::<T>()
}

/// Most events one release step takes off the lanes before it probes
/// Algorithm 1's table for all of their hashed transfers at once.
const RELEASE_CHUNK: usize = 256;

/// Algorithm 1's key of a hashed transfer: content `hash` received by
/// device `dest`; `None` for any other operation.
fn reception_key(e: &DataOpEvent) -> Option<RxSlot> {
    e.hash.filter(|_| e.is_transfer()).map(|hash| RxSlot {
        hash,
        dest: e.dest_device,
    })
}

/// One reception key's first delivery and reception count. The key's
/// fields sit flat beside the counts (24 bytes, where a nested key
/// struct would pad the entry to 32).
#[derive(Clone, Copy, Debug)]
struct DupEntry {
    hash: HashVal,
    first: Seq,
    dest: DeviceId,
    count: u32,
}

const _: () = assert!(std::mem::size_of::<DupEntry>() == 24);

impl DupEntry {
    fn key(&self) -> RxSlot {
        RxSlot {
            hash: self.hash,
            dest: self.dest,
        }
    }
}

/// Algorithm 1's table, `(hash, dest) → (first, count)`: the entries in
/// first-reception order behind the fused sweep's [`OpenIndex`] of
/// entry indices, probed by the key's [`rx_key_mix`]. A new key that
/// fills the index past half grows it; the entries stay where they are.
#[derive(Debug, Default)]
struct DuplicateTable {
    index: OpenIndex,
    entries: Vec<DupEntry>,
}

impl DuplicateTable {
    /// Count one reception of `key` by event `seq`: its first reception
    /// and this reception's 1-based occurrence number.
    #[inline]
    fn record(&mut self, key: RxSlot, seq: Seq) -> (Seq, u32) {
        let entries = &mut self.entries;
        let slot = self.index.slot_mut(rx_key_mix(key.hash, key.dest), |ix| {
            entries[ix as usize].key() == key
        });
        if *slot != OpenIndex::EMPTY {
            let e = &mut entries[*slot as usize];
            e.count += 1;
            return (e.first, e.count);
        }
        *slot = entries.len() as u32;
        if entries.len() == entries.capacity() {
            // Grow by half, not double: the entries are most of the
            // table's bytes.
            entries.reserve_exact((entries.len() / 2).max(16));
        }
        entries.push(DupEntry {
            hash: key.hash,
            first: seq,
            dest: key.dest,
            count: 1,
        });
        if entries.len() * 2 > self.index.slots() {
            self.index
                .grow(entries.iter().map(|e| rx_key_mix(e.hash, e.dest)));
        }
        (seq, 1)
    }

    fn heap_bytes(&self) -> usize {
        buf_bytes::<u32>(self.index.slots()) + buf_bytes::<DupEntry>(self.entries.capacity())
    }
}

/// The streaming twin of an alloc/delete pairing. Its slot in
/// `StreamingEngine::pairs` is free again once it is neither `open` nor
/// `pending`: nothing can name it any more.
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
    /// An `open_pairs` entry names it: no delete or newer allocation at
    /// its device address has arrived.
    open: bool,
    /// Waiting in its device's Algorithm 4 queue.
    pending: bool,
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

    fn heap_bytes(&self) -> usize {
        buf_bytes::<KSpan>(self.kq4.capacity() + self.kq5.capacity())
            + buf_bytes::<u32>(self.pending_pairs.capacity())
            + buf_bytes::<PendingTx>(self.pending_tx.capacity())
            + map_bytes(&self.candidates)
    }
}

/// The online detection engine. Push events (in completion order),
/// close each batch by advancing to the watermark as open operations
/// retire, and drain the live findings; finalize against the hydrated
/// trace to complete the live stream and obtain the fused sweep's
/// report.
#[derive(Debug, Default)]
pub struct StreamingEngine {
    /// Reorder buffer: one sorted lane per shard, released by the
    /// least head (see [`crate::detect::reorder`]).
    buffer: RunMergeBuffer<StreamEvent>,
    /// Everything at or below this start time has been released.
    watermark: SimTime,
    /// Last released key, for the monotonicity debug check.
    last_released: Option<(SimTime, Seq, u8)>,
    /// Events pushed since the last [`StreamingEngine::advance`].
    pushed: u64,

    /// Algorithm 1: first reception and reception count per
    /// `(hash, dest_device)`.
    duplicates: DuplicateTable,
    /// The release step's reused buffers: one chunk's events, and the
    /// `(first, occurrence)` of each hashed transfer among them.
    chunk: Vec<StreamEvent>,
    receptions: Vec<(Seq, u32)>,

    /// Alloc/delete pairings that are open or undecided (Algorithms
    /// 3/4), and the slots free for reuse.
    pairs: Vec<StreamPair>,
    free_pairs: Vec<u32>,
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
    /// Buffer an incoming event (any completion order) in its shard's
    /// lane; nothing is released until [`StreamingEngine::advance`]
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
    /// goes to the detectors in merge order, one chunk at a time.
    fn release_through(&mut self, bound: SimTime) {
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut receptions = std::mem::take(&mut self.receptions);
        loop {
            while chunk.len() < RELEASE_CHUNK {
                let Some(entry) = self.buffer.pop_if(|key| key.0 <= bound) else {
                    break;
                };
                debug_assert!(
                    self.last_released.is_none_or(|last| last <= entry.key()),
                    "watermark violated: released {:?} after {:?} (watermark {:?})",
                    entry.key(),
                    self.last_released,
                    self.watermark
                );
                self.last_released = Some(entry.key());
                chunk.push(entry);
            }
            let more = chunk.len() == RELEASE_CHUNK;
            // Algorithm 1 over the whole chunk first (see the module
            // docs), in release order, so every count is what the
            // in-order pass would have seen.
            for entry in &chunk {
                if let StreamEvent::Op(e) = entry {
                    if let Some(key) = reception_key(e) {
                        receptions.push(self.duplicates.record(key, e.id.0));
                    }
                }
            }
            let mut received = receptions.drain(..);
            for entry in chunk.drain(..) {
                match entry {
                    StreamEvent::Op(e) => {
                        let reception = reception_key(&e).and_then(|_| received.next());
                        self.ingest_op(&e, reception);
                    }
                    StreamEvent::Kernel(k) => self.ingest_kernel(&k),
                }
            }
            if !more {
                break;
            }
        }
        self.chunk = chunk;
        self.receptions = receptions;
        self.note_peaks();
    }

    /// Issue counts of everything emitted so far. Before
    /// [`StreamingEngine::finalize`] `rt` is 0 (round trips settle
    /// there); after a finalize that did not degrade, this equals the
    /// returned report's [`Findings::counts`] (the live stream is then
    /// exactly [`Findings::stream_findings`] of it).
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
        s.reorder_inversions = self.buffer.inversions() as usize;
        s
    }

    /// Always `None` (nothing is spilled any more); kept because `benchmark/` calls it.
    pub fn spill_warning(&self) -> Option<String> {
        None
    }

    /// Heap bytes the engine holds right now, per structure: the
    /// reorder lanes with the release chunk, Algorithm 1's duplicate
    /// table, the alloc/delete pairings and allocation-site counts
    /// (Algorithms 3/4), the per-device machines (Algorithms 4/5) and the
    /// findings no consumer has drained. Capacities, not lengths: what
    /// the allocator holds.
    pub fn retained_bytes(&self) -> [(&'static str, usize); 5] {
        let lanes = self.buffer.heap_bytes()
            + buf_bytes::<StreamEvent>(self.chunk.capacity())
            + buf_bytes::<(Seq, u32)>(self.receptions.capacity());
        let pairings = buf_bytes::<StreamPair>(self.pairs.capacity())
            + buf_bytes::<u32>(self.free_pairs.capacity())
            + map_bytes(&self.open_pairs)
            + map_bytes(&self.realloc_counts);
        let devices = buf_bytes::<DeviceMachine>(self.machines.capacity())
            + self
                .machines
                .iter()
                .map(DeviceMachine::heap_bytes)
                .sum::<usize>();
        [
            ("lanes", lanes),
            ("duplicates", self.duplicates.heap_bytes()),
            ("pairings", pairings),
            ("devices", devices),
            (
                "findings",
                buf_bytes::<StreamFinding>(self.emitted.capacity()),
            ),
        ]
    }

    /// Complete the live stream, then report: release the reorder
    /// buffer, run the fused sweep over `view`, emit its round trips and
    /// drain the per-device pending queues with the end-of-trace rules
    /// (so [`StreamingEngine::take_findings`] and
    /// [`StreamingEngine::live_counts`] cover the whole run), and return
    /// the sweep's [`Findings`] — the engine itself produces live
    /// findings and nothing else. Call once, after the monitored program
    /// finished; `view` must hydrate the trace the engine observed.
    ///
    /// The report is always the exact post-mortem answer for the
    /// recorded trace. It is stamped [`Confidence::Degraded`] throughout
    /// iff the engine is degraded: a forced release happened, or the
    /// view holds a different number of data operations than were
    /// offered to the engine — the difference is counted in
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

        let mut findings = engine::detect(view);
        if self.degraded {
            findings.mark_degraded();
        }

        // Algorithm 2: the trace is complete, so the report's trips are
        // the live ones, emitted in the order of their outbound legs.
        let mut trips: Vec<_> = findings
            .round_trips
            .iter()
            .flat_map(|g| g.trips.iter().map(move |t| (g, t)))
            .collect();
        trips.sort_unstable_by_key(|(_, t)| (t.tx.span.start, t.tx.id));
        for (g, t) in trips {
            self.emit(trip_finding(g, t));
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
            }
        }
        findings
    }

    // ---- event routing --------------------------------------------------

    /// `reception` is Algorithm 1's `(first, occurrence)` for a hashed
    /// transfer, counted by the release step's probe loop.
    fn ingest_op(&mut self, e: &DataOpEvent, reception: Option<(Seq, u32)>) {
        if e.is_transfer() {
            if let (Some(hash), Some((first, occurrence))) = (e.hash, reception) {
                self.on_reception(e, hash, first, occurrence);
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

    // ---- Algorithm 1 ---------------------------------------------------

    /// Group membership is final on arrival: the second and every later
    /// reception of a `(hash, dest)` key is a duplicate of the first.
    fn on_reception(&mut self, e: &DataOpEvent, hash: HashVal, first: Seq, occurrence: u32) {
        if occurrence >= 2 {
            self.emit(StreamFinding::DuplicateTransfer {
                hash,
                src_device: e.src_device,
                dest_device: e.dest_device,
                host_addr: host_side_addr(e),
                codeptr: e.codeptr,
                event: e.id.0,
                first,
                occurrence,
                confidence: self.confidence(),
            });
        }
    }

    // ---- Algorithms 3 + 4 ----------------------------------------------

    fn on_alloc(&mut self, e: &DataOpEvent) {
        let pair = StreamPair {
            alloc_seq: e.id.0,
            alloc_start: e.span.start,
            alloc_haddr: e.src_addr,
            alloc_codeptr: e.codeptr,
            delete_seq: None,
            delete_end: SimTime(0),
            open: true,
            pending: false,
        };
        let pair_ix = match self.free_pairs.pop() {
            Some(pix) => {
                self.pairs[pix as usize] = pair;
                pix
            }
            None => {
                self.pairs.push(pair);
                (self.pairs.len() - 1) as u32
            }
        };
        // A new allocation at an address shadows any stale open entry
        // (same contract as `alloc_delete_pairs`).
        if let Some(shadowed) = self
            .open_pairs
            .insert((e.dest_device, e.dest_addr), pair_ix)
        {
            self.pairs[shadowed as usize].open = false;
            self.free_if_settled(shadowed);
        }

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
        }

        // Algorithm 4: the pairing waits for a kernel able to prove use.
        if let Some(ix) = e.dest_device.target_index() {
            if Self::in_range(ix) {
                self.pairs[pair_ix as usize].pending = true;
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
            p.open = false;
            self.free_if_settled(pix);
        }
        // A delete with no open alloc is a runtime anomaly; ignored.
    }

    /// Give a pairing's slot back once nothing names it: its delete (or
    /// a shadowing allocation) arrived and Algorithm 4 decided it.
    fn free_if_settled(&mut self, pix: u32) {
        let p = &self.pairs[pix as usize];
        if !p.open && !p.pending {
            self.free_pairs.push(pix);
        }
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
            self.pairs[pix as usize].pending = false;
            self.free_if_settled(pix);
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
        match Self::alg5_process_tx(m, tx, dev, conf) {
            Ok(unused) => unused.into_iter().for_each(|f| self.emit(f)),
            Err(stalled) => m.pending_tx.push_back(stalled), // queue was empty: order holds
        }
    }

    /// The reference per-transfer step: advance the kernel cursor
    /// (clearing candidates per passed kernel), then classify against
    /// the next kernel, yielding the earlier transfer it proves unused
    /// if any — or hand the transfer back to stall until a kernel
    /// arrives.
    fn alg5_process_tx(
        m: &mut DeviceMachine,
        tx: PendingTx,
        dev: usize,
        confidence: Confidence,
    ) -> Result<Option<StreamFinding>, PendingTx> {
        while m.kq5.front().is_some_and(|k| k.end < tx.start) {
            m.kq5.pop_front();
            m.candidates.clear();
        }
        match m.kq5.front() {
            None => Err(tx),
            Some(k) if k.start > tx.start => {
                let unused = m.candidates.insert(tx.src_addr, (tx.seq, tx.codeptr));
                Ok(unused.map(|(cand, cand_cp)| StreamFinding::UnusedTransfer {
                    device: DeviceId::target(dev as u32),
                    host_addr: tx.src_addr,
                    codeptr: cand_cp,
                    event: cand,
                    reason: UnusedTransferReason::OverwrittenBeforeUse,
                    confidence,
                }))
            }
            Some(_) => {
                // Overlaps a running kernel (asynchronous mapping):
                // conservatively forget all candidates.
                m.candidates.clear();
                Ok(None)
            }
        }
    }

    /// A kernel arrived: transfers that stalled on an empty cursor can
    /// now classify (the new kernel starts at or after each of them, so
    /// it is exactly the reference's `kernels[idx]`).
    fn alg5_on_kernel(&mut self, dev: usize) {
        let conf = self.confidence();
        while !self.machines[dev].kq5.is_empty() {
            let m = &mut self.machines[dev];
            let Some(tx) = m.pending_tx.pop_front() else {
                break;
            };
            match Self::alg5_process_tx(m, tx, dev, conf) {
                Ok(unused) => unused.into_iter().for_each(|f| self.emit(f)),
                Err(stalled) => {
                    m.pending_tx.push_front(stalled); // re-stalled: keep order
                    break;
                }
            }
        }
    }

    // ---- bookkeeping --------------------------------------------------

    /// The one emit path: count the finding, queue it for the taps.
    fn emit(&mut self, f: StreamFinding) {
        self.counts.add(f.kind());
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::{assert_live_matches, finalize, EventFactory};
    use odp_model::TimeSpan;
    use odp_trace::ColumnarView;
    use std::collections::BTreeMap;

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

    /// The retained bytes of one structure.
    fn retained(engine: &StreamingEngine, name: &str) -> usize {
        engine
            .retained_bytes()
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, bytes)| bytes)
    }

    #[test]
    fn steady_state_windows_stay_bounded() {
        // Iterative ping-pong: the same content travels out and back each
        // iteration, kernels keep the Algorithm 4/5 cursors moving. Every
        // window's high-water mark must be independent of trace length,
        // and so must Algorithm 1's table (one entry per reception key).
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
            (engine.buffer_stats(), retained(&engine, "duplicates"))
        }
        let (small, small_table) = run(50);
        let (large, large_table) = run(500);
        assert_eq!(
            small_table, large_table,
            "Algorithm 1's table must not grow with trace length"
        );
        assert_eq!(small.buffered_peak, large.buffered_peak);
        assert_eq!(small.device_pending_peak, large.device_pending_peak);
        assert!(large.device_pending_peak <= 8, "{large:?}");
    }

    #[test]
    fn never_returning_transfers_retain_one_table_entry_per_key() {
        // Adversarial for any lookahead: every transfer's content leaves
        // and never comes back (device-to-host, so Algorithms 4/5 hold
        // nothing either). A consumer drains after every batch. What
        // the engine retains grows with distinct (hash, dest) keys and
        // nothing else.
        fn run(transfers: u64, keys: u64) -> StreamingEngine {
            let mut f = EventFactory::new();
            let mut engine = StreamingEngine::default();
            for i in 0..transfers {
                let op = f.d2h(i * 20, 0, 0x1000, 1_000 + i % keys, 64);
                let end = op.span.end;
                engine.push(StreamEvent::Op(op));
                engine.advance(Some(end));
                engine.take_findings();
            }
            engine
        }
        let few = run(256, 256);
        let many = run(4_096, 4_096);
        let repeated = run(4_096, 256);
        for (name, bytes) in few.retained_bytes() {
            if name == "duplicates" {
                assert_eq!(retained(&repeated, name), bytes, "same keys, same table");
                assert!(retained(&many, name) >= 8 * bytes, "16x the keys");
            } else {
                assert_eq!(retained(&many, name), bytes, "{name} grew with the trace");
                assert_eq!(
                    retained(&repeated, name),
                    bytes,
                    "{name} grew with the trace"
                );
            }
        }
        assert_eq!(many.buffer_stats().frontier_peak, 0);
        assert_eq!(many.spill_warning(), None);
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
    fn duplicate_table_matches_an_oracle_through_colliding_growths() {
        // 2 000 receptions of up to 900 distinct keys: the index keeps
        // growing from its 16 slots, re-slotting every entry each time.
        let mut table = DuplicateTable::default();
        let mut oracle: BTreeMap<(u64, i32), (Seq, u32)> = BTreeMap::new();
        let mut growths = 0;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for seq in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = RxSlot {
                hash: HashVal(x % 300),
                dest: DeviceId::target((x >> 32) as u32 % 3),
            };
            let slots = table.index.slots();
            let got = table.record(key, seq);
            growths += usize::from(table.index.slots() != slots);
            let want = oracle.entry((key.hash.0, key.dest.0)).or_insert((seq, 0));
            want.1 += 1;
            assert_eq!(got, *want, "reception {seq} of {key:?}");
        }
        assert!(growths >= 3, "only {growths} growths");
        let held: BTreeMap<(u64, i32), (Seq, u32)> = table
            .entries
            .iter()
            .map(|e| ((e.hash.0, e.dest.0), (e.first, e.count)))
            .collect();
        assert_eq!(held, oracle);
    }

    #[test]
    fn one_advance_over_many_chunks_emits_what_per_event_advances_emit() {
        // A seeded mix of every operation on two devices, fed once with
        // an advance per event and once with a single advance that
        // releases it all, several chunks at a time.
        let mut f = EventFactory::new();
        let (mut ops, mut kernels) = (Vec::new(), Vec::new());
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..1_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (t, dev, addr) = (i * 20, (x % 2) as u32, 0x1000 + (x >> 8) % 4 * 0x100);
            match (x >> 4) % 6 {
                0 => ops.push(f.alloc(t, dev, addr, 0xd000 + addr, 64)),
                1 => ops.push(f.delete(t, dev, addr, 0xd000 + addr, 64)),
                2 => kernels.push(f.kernel(t, t + 15, dev)),
                3 => ops.push(f.d2h(t, dev, addr, (x >> 16) % 16, 64)),
                _ => ops.push(f.h2d(t, dev, addr, (x >> 16) % 16, 64)),
            }
        }
        let mut per_event = StreamingEngine::default();
        feed_chronological(&mut per_event, &ops, &kernels);
        let mut at_once = StreamingEngine::default();
        for op in &ops {
            at_once.push(StreamEvent::Op(op.clone()));
        }
        for k in &kernels {
            at_once.push(StreamEvent::Kernel(k.clone()));
        }
        assert!(at_once.buffer_stats().buffered_now > 3 * RELEASE_CHUNK);
        at_once.advance(Some(SimTime(20_000)));
        assert_eq!(at_once.buffer_stats().buffered_now, 0);

        let expected = per_event.take_findings();
        let c = per_event.live_counts();
        assert!(c.dd > 0 && c.ra > 0 && c.ua > 0 && c.ut > 0, "{c:?}");
        assert_eq!(at_once.take_findings(), expected);
        assert_eq!(at_once.live_counts(), c);
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
