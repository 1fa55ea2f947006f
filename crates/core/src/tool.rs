//! The OMPT client — what `libompdataperf.so` is to a native program.
//!
//! [`OmpDataPerfTool`] registers for the EMI target callbacks, hashes
//! every transfer payload with the configured algorithm (metering
//! itself — [`HashMeter`], the Table 4 "effective hash rate"), and
//! appends compact records to a [`TraceLog`]. A recording callback is
//! upstream's three operations: look the begin time up in the thread's
//! own small table of open operations, one hash, one append; it reads
//! the wall clock only where the meter samples. On pre-5.1 runtimes it falls back to the
//! deprecated begin-only callbacks with the §A.6 degradation warning; on
//! runtimes without target callbacks it reports itself unusable.
//!
//! # Sharded multi-threaded collection
//!
//! A real OpenMP runtime drives OMPT callbacks from *every* runtime
//! thread. The collector is therefore sharded: each runtime thread owns
//! one [`OmpDataPerfTool`] instance (fork more with
//! [`ToolHandle::fork_tool`]), and the per-callback fast path touches
//! **only that thread's shard** — its own [`TraceLog`] shard (event ids
//! embed the shard, so the post-run [`TraceLog::merge_shards`] is
//! deterministic regardless of OS scheduling), its own hash meter, its
//! own table of open operations, and, in streaming mode, its own queue
//! of live events: a `Vec` behind the shard's own mutex, the way
//! upstream's callback appends to a vector under one lock. The open
//! table pairs each End with its Begin and also yields the thread's
//! watermark bound: the earliest open data-op or submit Begin, or the
//! latest such edge when none is open. Cross-thread traffic on the fast
//! path is one push onto that queue, plus — on every clock edge — a pair
//! of release stores into the shard's own slot of the
//! [`GlobalWatermark`]. **Zero global lock acquisitions.**
//!
//! Streaming mode pays for detection per batch, not per callback. A
//! callback records, queues and publishes until its *own* queue holds
//! `DRAIN_BATCH` (512) events; only then does it `try_lock` the engine
//! (a failure means another thread is draining: it asks again next
//! event). One shard is let off: a shard whose published bound alone
//! holds the merged watermark back while another live shard is ahead
//! leaves the drain to that shard until its own queue holds
//! `DEFER_CAP` (8 192) events. Draining costs the drainer wall time;
//! paid by the shard behind in virtual time, it keeps that shard behind
//! and the shard ahead's events wait in the reorder lanes. Paid by the
//! shard ahead, the shard behind catches up and the lanes stay short.
//! Who drains changes nothing about what a drain may release: the
//! decision reads only the published slots, never the wall clock.
//!
//! One routine drains, whoever asks — a callback whose batch is due
//! (it only `try_lock`s: a busy engine means another thread drains on
//! its behalf), an observer (taps, finalize, counts, stats) and the
//! final drain that takes the engine out. It snapshots the merged
//! watermark, swaps every shard's queue for the one empty spare (O(1)
//! under that queue's lock, so buffers circulate), pushes what it took
//! into the [`StreamingEngine`]'s reorder lanes in arrival order outside
//! that lock, and advances the engine once; a tap then harvests the new
//! findings into every tap's buffer (the tee). Observers drain whenever
//! they look, so they, not the callbacks, bound the latency of live
//! findings; every shard publishes every edge, so a drain decides
//! everything its shards' clocks allow right now. Snapshot-*then*-drain
//! is what makes this sound: each shard queues an event *before*
//! publishing the clock edge that could unblock it, so any event at or
//! below a snapshotted watermark is already visible to the sweep.
//!
//! What only a drain touches — the engine, the queue list, the stall
//! detector, the tap list — sits behind the one engine lock, as
//! upstream's collector keeps its log behind one mutex. Lock order
//! (outermost first): engine → shard list → one shard → control; engine
//! → one pending queue, one tap buffer or control (a stall warning);
//! one shard → its pending queue (a push). The fast path takes its own
//! shard's (uncontended) lock and, under it, its own pending queue's;
//! drains take no shard lock. A tap reads its buffer under that
//! buffer's lock alone, so it collects what another drainer delivered
//! while the engine is busy. `control` guards cold data (console lines,
//! flags, the opt-in collision audit, which serializes by design).
//!
//! Construction returns the tool plus a [`ToolHandle`] sharing its
//! collector, so the harness can extract the merged trace after the
//! runtime finishes with the boxed tools.

use crate::collision::CollisionAudit;
use crate::detect::{IssueCounts, StreamBufferStats, StreamEvent, StreamFinding, StreamingEngine};
use crate::report::human_bytes;
use odp_hash::fnv::FnvHashMap;
use odp_hash::HashAlgoId;
use odp_model::{DataOpKind, SimDuration, SimTime, TargetKind, TimeSpan, TraceHealth};
use odp_ompt::{
    CallbackKind, DataOpCallback, DataOpType, Endpoint, GlobalWatermark, RuntimeCapabilities,
    ShardSlot, StallDetector, SubmitCallback, TargetCallback, TargetConstructKind, Tool,
    ToolRegistration,
};
use odp_trace::TraceLog;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Tool configuration (the CLI's flags, §A.5.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct ToolConfig {
    /// Content-hash algorithm (default: `t1ha0_avx2`, §B.1).
    pub hash_algo: HashAlgoId,
    /// Enable the §B.1 collision audit (stores payload copies; the
    /// audit store is shared, so audited callbacks serialize on it).
    pub collision_audit: bool,
    /// Suppress warnings (`-q`).
    pub quiet: bool,
    /// Verbose output (`-v`).
    pub verbose: bool,
    /// Run the streaming detection engine online (`--stream`): every
    /// callback additionally feeds the five §5 state machines, emitting
    /// findings while the program runs. Post-run, finalizing the engine
    /// completes the live stream and returns the post-mortem sweep's
    /// findings over the recorded trace.
    pub stream: bool,
    /// Wall-clock budget the streaming drain will wait on a
    /// non-advancing merged watermark while events are buffered before
    /// force-releasing the reorder buffer (`--stall-timeout`). A wedged
    /// or dead shard pins the watermark forever; the forced release
    /// keeps the pipeline live at the cost of tagging every finding
    /// decided afterwards [`crate::Confidence::Degraded`]. `None`
    /// (default) waits indefinitely.
    pub stall_timeout: Option<std::time::Duration>,
}

/// Wall-clock hashing meter (Table 4's "effective hash rate").
///
/// `bytes` is exact. `nanos` is measured around every payload of at
/// least 4 KiB and *estimated* below that: reading the clock twice
/// costs several times what hashing a few hundred bytes does, so a
/// shard times the first and then every 16th of its smaller payloads
/// and counts each reading 16 times. Which payloads are timed depends
/// on their sizes and order alone, never on the clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashMeter {
    /// Payload bytes hashed (exact).
    pub bytes: u64,
    /// Wall-clock nanoseconds spent hashing (estimated below 4 KiB per
    /// payload, see the type's doc).
    pub nanos: u64,
}

impl HashMeter {
    /// Effective rate in GB/s (decimal).
    pub(crate) fn gb_per_s(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            self.bytes as f64 / self.nanos as f64
        }
    }
}

/// Payloads at least this long are always timed: from here on the hash
/// costs more than the two clock reads around it.
const METER_EXACT_BYTES: usize = 4096;
/// One in this many shorter payloads is timed and stands for all of
/// them.
const METER_SAMPLE_EVERY: u32 = 16;

/// One shard's [`HashMeter`] and the state that decides which payloads
/// it times. [`ShardMeter::hash`] is the only place a callback reads
/// the wall clock (`scripts/determinism_lint.sh` holds it to that).
#[derive(Debug, Default)]
struct ShardMeter {
    total: HashMeter,
    /// Payloads below [`METER_EXACT_BYTES`] hashed so far.
    small_seen: u32,
    /// Clock pairs read (what the tests count instead of wall time).
    #[cfg(test)]
    timed: u64,
}

impl ShardMeter {
    /// Hash `payload` with `algo`, metering it.
    fn hash(&mut self, algo: HashAlgoId, payload: &[u8]) -> u64 {
        self.total.bytes += payload.len() as u64;
        let weight = if payload.len() >= METER_EXACT_BYTES {
            1
        } else {
            let nth = self.small_seen;
            self.small_seen = nth.wrapping_add(1);
            if !nth.is_multiple_of(METER_SAMPLE_EVERY) {
                return algo.hash(payload);
            }
            METER_SAMPLE_EVERY
        };
        let t = Instant::now();
        let h = algo.hash(payload);
        let dt = t.elapsed().as_nanos() as u64;
        self.total.nanos += dt.max(1) * weight as u64;
        #[cfg(test)]
        {
            self.timed += 1;
        }
        h
    }
}

/// Events a shard queues before its callback asks for a drain: one
/// engine lock, one watermark merge and one release sweep per batch.
/// A shard that holds the merged watermark back while another live
/// shard is ahead leaves its batch to that shard, up to [`DEFER_CAP`].
const DRAIN_BATCH: usize = 512;

/// Events a shard that holds the merged watermark back queues before it
/// drains anyway. Draining costs the drainer wall time, so the shard
/// behind in virtual time leaves the drains to a shard ahead of it and
/// catches up, and the events the watermark holds in the reorder lanes
/// shrink; the cap bounds its queue should the shard ahead stall.
const DEFER_CAP: usize = 16 * DRAIN_BATCH;

/// One shard's undrained live events, in arrival order: pushed under the
/// shard lock, swapped out whole by a drain that takes no shard lock.
type PendingQueue = Arc<Mutex<Vec<StreamEvent>>>;

/// One runtime thread's slice of the collector. Only the owning thread
/// touches it on the fast path; the handle's observers lock it briefly
/// to aggregate.
struct ShardState {
    /// This thread's trace shard (event ids embed the shard id).
    log: TraceLog,
    /// This thread's hash-rate meter.
    hash_meter: ShardMeter,
    /// Evidence this shard quarantined instead of recording (orphaned
    /// `End`s, truncated payload hashes).
    health: TraceHealth,
    /// This shard's queue of live events (streaming mode only).
    pending: Option<PendingQueue>,
}

/// Cold shared state: console lines, negotiation flags, the audit.
#[derive(Debug, Default)]
struct Control {
    /// Collision audit store (shared across shards by design: a
    /// collision between payloads hashed on different threads must
    /// still be caught).
    audit: CollisionAudit,
    /// `info:` console lines (§A.6).
    info: Vec<String>,
    /// `warning:` console lines.
    warnings: Vec<String>,
    /// Operating against a pre-EMI runtime (durations unavailable).
    degraded: bool,
    /// No target callbacks at all — nothing can be profiled.
    unusable: bool,
    /// First shard already performed the `initialize` handshake.
    initialized: bool,
    /// Shards created so far.
    spawned_shards: usize,
    /// Shards whose runtime called `finalize`.
    finalized_shards: usize,
}

/// One tee subscriber's buffer of not-yet-consumed findings.
type TapBuf = Arc<Mutex<Vec<StreamFinding>>>;

/// Everything the shards share.
struct ToolShared {
    cfg: ToolConfig,
    control: Mutex<Control>,
    /// All shards, fork order (= shard id order).
    shards: Mutex<Vec<Arc<Mutex<ShardState>>>>,
    /// The live path (`stream` mode only). Fast-path callbacks never
    /// block on it: they `try_lock` to drain, and only when their queue
    /// says a batch is due.
    engine: Mutex<Option<Live>>,
    /// Per-shard clock merge (lock-free).
    watermark: GlobalWatermark,
}

/// The live path: the streaming engine and everything only a drain
/// touches, all behind the engine lock.
struct Live {
    engine: StreamingEngine,
    /// Every shard's pending queue, fork order (registered at fork).
    queues: Vec<PendingQueue>,
    /// The empty buffer a drain swaps into the next queue it takes.
    spare: Vec<StreamEvent>,
    /// The watermark stall detector (`stall_timeout` only).
    stall: Option<StallDetector>,
    /// The live-findings tee: a harvest appends every new finding to
    /// **each** registered tap, so independent consumers (a snapshot
    /// poller, a remediation policy) compose instead of stealing from
    /// one drain-once stream.
    taps: Vec<TapBuf>,
}

impl Live {
    /// Move the engine's emitted findings into every tap.
    fn harvest(&mut self) {
        let new = self.engine.take_findings();
        if new.is_empty() {
            return;
        }
        for tap in &self.taps {
            tap.lock().extend(new.iter().copied());
        }
    }
}

impl ToolShared {
    /// The one drain: lock the engine — or, unless `block`, give up when
    /// another thread holds it (that thread drains on our behalf) —
    /// sweep every shard's pending queue into the engine, advance it to
    /// the merged watermark, and run `f` on the drained live path while
    /// the lock is still held. `None` when streaming is off or the lock
    /// was busy.
    fn with_drained<R>(&self, block: bool, f: impl FnOnce(&mut Live) -> R) -> Option<R> {
        let mut guard = if block {
            self.engine.lock()
        } else {
            self.engine.try_lock()?
        };
        let live = guard.as_mut()?;
        let Live {
            engine,
            queues,
            spare,
            stall,
            ..
        } = &mut *live;
        // Snapshot BEFORE sweeping: every event at or below this merged
        // watermark was queued before its shard published the edge that
        // enabled it (shards queue, then publish), so the sweep below
        // is guaranteed to see it. `None` = some shard may still emit
        // at time zero: buffer only.
        let watermark = self.watermark.merged();
        for queue in queues.iter() {
            // The queue's lock is held for the swap only.
            std::mem::swap(&mut *queue.lock(), spare);
            for event in spare.drain(..) {
                engine.push(event);
            }
        }
        engine.advance(watermark);
        // Stall recovery: a wedged shard (open Begin, thread never
        // progressing) pins the merged watermark and would buffer the
        // stream forever. Past the configured timeout the drain
        // force-releases the reorder buffer; the engine tags every
        // finding decided afterwards as degraded.
        if let Some(detector) = stall {
            if detector.check(watermark, engine.buffer_stats().buffered_now) {
                let released = engine.force_release_all();
                if released > 0 {
                    detector.force_released();
                    if !self.cfg.quiet {
                        self.control.lock().warnings.push(format!(
                            "warning: merged watermark stalled past the timeout; \
                             force-released {released} buffered event(s) — \
                             findings are now degraded evidence"
                        ));
                    }
                }
            }
        }
        Some(f(live))
    }
}

/// An independent subscription to the live findings stream. Register
/// with [`ToolHandle::tap_stream_findings`] **before** the run starts;
/// every finding the engine emits from then on is delivered to every
/// registered tap (the tee), so a live console poller and a remediation
/// policy can both consume the full stream concurrently.
#[derive(Clone)]
pub struct FindingsTap {
    shared: Arc<ToolShared>,
    buf: TapBuf,
}

impl FindingsTap {
    /// Drain the findings delivered to this tap since the last call.
    /// Sweeps every shard's pending events and harvests the engine
    /// first, so the caller sees everything decidable at the current
    /// merged watermark.
    pub fn take(&self) -> Vec<StreamFinding> {
        self.shared.with_drained(true, Live::harvest);
        std::mem::take(&mut *self.buf.lock())
    }

    /// Like [`FindingsTap::take`], but never waits on a contended
    /// engine lock (another thread drains on our behalf): returns
    /// whatever has already been delivered, read under this tap's own
    /// lock. The cheap per-consult pump of `remedy::Remediator`.
    pub(crate) fn try_take(&self) -> Vec<StreamFinding> {
        self.shared.with_drained(false, Live::harvest);
        std::mem::take(&mut *self.buf.lock())
    }
}

/// Shared handle for forking shards and extracting results.
#[derive(Clone)]
pub struct ToolHandle {
    shared: Arc<ToolShared>,
}

impl ToolHandle {
    /// Fork a tool for one more runtime thread (at most
    /// [`OmpDataPerfTool::MAX_SHARDS`] in total). All forks share this
    /// handle's collector: their trace shards merge deterministically in
    /// [`ToolHandle::take_trace`], their clocks merge in the global
    /// watermark, and their streamed events feed one engine. Fork every
    /// shard *before* the run starts: once the merged watermark has
    /// advanced, a late shard's early-time events could no longer be
    /// ordered ahead of already-released ones.
    pub fn fork_tool(&self) -> OmpDataPerfTool {
        OmpDataPerfTool::new_shard(self.shared.clone())
    }

    /// Number of shards forked so far.
    pub fn shard_count(&self) -> usize {
        self.shared.control.lock().spawned_shards
    }

    /// Take the merged trace out (leaves empty shard logs behind).
    /// Shard streams merge by `(start, shard, per-shard order)` — the
    /// output is independent of how the OS scheduled the recording
    /// threads.
    pub fn take_trace(&self) -> TraceLog {
        let shards = self.shared.shards.lock();
        let logs: Vec<TraceLog> = shards
            .iter()
            .map(|s| std::mem::take(&mut s.lock().log))
            .collect();
        TraceLog::merge_shards(logs)
    }

    /// Aggregate hash meter across all shards.
    pub fn hash_meter(&self) -> HashMeter {
        let shards = self.shared.shards.lock();
        let mut total = HashMeter::default();
        for s in shards.iter() {
            let meter = s.lock().hash_meter.total;
            total.bytes += meter.bytes;
            total.nanos += meter.nanos;
        }
        total
    }

    /// Effective hash rate in GB/s (aggregate) — the `-v` "hash rate"
    /// line. Exact bytes over [`HashMeter::nanos`], so on a run of
    /// payloads below 4 KiB it is an estimate from one timed payload in
    /// 16.
    pub fn hash_rate_gb_per_s(&self) -> f64 {
        self.hash_meter().gb_per_s()
    }

    /// Accumulated console lines (info then warnings).
    pub fn console_lines(&self) -> Vec<String> {
        let c = self.shared.control.lock();
        c.info.iter().chain(c.warnings.iter()).cloned().collect()
    }

    /// Is the tool in degraded (non-EMI) mode?
    pub fn degraded(&self) -> bool {
        self.shared.control.lock().degraded
    }

    /// Could the tool register any target callbacks at all?
    pub fn unusable(&self) -> bool {
        self.shared.control.lock().unusable
    }

    /// Number of hash collisions the audit observed.
    pub fn collision_count(&self) -> usize {
        self.shared.control.lock().audit.collisions().len()
    }

    /// Number of payloads the collision audit checked.
    pub fn audit_checks(&self) -> u64 {
        self.shared.control.lock().audit.checks()
    }

    /// Bytes of payload copies the collision audit retains.
    pub fn audit_retained_bytes(&self) -> usize {
        self.shared.control.lock().audit.retained_bytes()
    }

    /// Is the streaming engine attached?
    pub fn streaming(&self) -> bool {
        self.shared.engine.lock().is_some()
    }

    /// Register an independent live-findings subscription (the tee) —
    /// the way to read live findings. Every finding harvested after
    /// registration is delivered to every tap; register before the run
    /// starts so nothing is missed. [`FindingsTap::take`] is safe to
    /// call while the program runs and yields nothing when streaming is
    /// off.
    pub fn tap_stream_findings(&self) -> FindingsTap {
        let buf = TapBuf::default();
        if let Some(live) = self.shared.engine.lock().as_mut() {
            live.taps.push(buf.clone());
        }
        FindingsTap {
            shared: self.shared.clone(),
            buf,
        }
    }

    /// Issue counts of everything the streaming engine has emitted so
    /// far (`None` when streaming is off).
    pub fn stream_counts(&self) -> Option<IssueCounts> {
        self.shared
            .with_drained(true, |live| live.engine.live_counts())
    }

    /// Current streaming window sizes (`None` when streaming is off).
    /// Drains first — otherwise events sitting in the shards' pending
    /// queues would be invisible to the count.
    pub fn stream_buffer_stats(&self) -> Option<StreamBufferStats> {
        self.shared
            .with_drained(true, |live| live.engine.buffer_stats())
    }

    /// Events that overflowed a shard's queue: always 0, a queue grows
    /// until a drain takes it. Kept for readers of the old counter.
    pub fn spilled_events(&self) -> u64 {
        0
    }

    /// Aggregate trace health: what the collector and the streaming
    /// engine quarantined instead of trusting. Tool-side orphaned
    /// `End`s and truncated payloads come from the shards; late events,
    /// forced releases, and finalize misses come from the engine.
    /// Duplicate event ids are detected at merge time — fold
    /// [`TraceLog::duplicate_id_count`] of the extracted trace in
    /// separately.
    pub fn trace_health(&self) -> TraceHealth {
        let mut health = TraceHealth::default();
        // Lock order: engine → shard list → one shard.
        let guard = self.shared.engine.lock();
        if let Some(live) = guard.as_ref() {
            health.merge(&live.engine.health());
        }
        let shards = self.shared.shards.lock();
        for s in shards.iter() {
            health.merge(&s.lock().health);
        }
        health
    }

    /// Take the streaming engine out for finalization against the
    /// extracted trace (leaves streaming detached). Performs a final
    /// full drain first, so no shard-buffered event is lost.
    pub fn take_stream_engine(&self) -> Option<StreamingEngine> {
        self.shared.with_drained(true, |_| ())?;
        self.shared.engine.lock().take().map(|live| live.engine)
    }
}

/// The tool. Attach with `runtime.attach_tool(Box::new(tool))`; for a
/// multi-threaded runtime, attach one [`ToolHandle::fork_tool`] result
/// per runtime thread.
pub struct OmpDataPerfTool {
    cfg: ToolConfig,
    shared: Arc<ToolShared>,
    /// This instance's shard (only owner on the fast path).
    shard: Arc<Mutex<ShardState>>,
    /// This shard's watermark-publish slot.
    slot: ShardSlot,
    /// Cached copy of the collector's `degraded` flag, decided once at
    /// `initialize` — callbacks read this instead of taking a lock a
    /// second time per event.
    degraded: bool,
    /// Begin times of this thread's open data ops, kernel submits and
    /// target constructs.
    open: OpenTable,
    /// The latest data-op or submit edge this thread has seen: its
    /// watermark bound while nothing that pins it is open.
    last_edge: SimTime,
}

/// What a Begin/End pair is matched on: the id the runtime gave the
/// operation, within the kind of callback that delivers it (an
/// `enter data` and a `target` may share a `target_id`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
enum OpenKey {
    /// Filler for unused table slots; never searched for.
    #[default]
    Vacant,
    /// A data op, by `host_op_id`.
    DataOp(u64),
    /// A kernel submit, by `target_id`.
    Submit(u64),
    /// A target construct, by `target_id`.
    Construct(u64, TargetConstructKind),
}

impl OpenKey {
    /// Does this open operation hold the watermark at its begin time?
    /// Data ops and submits will emit a streamed event that starts
    /// there; constructs are recorded but never streamed.
    fn pins(self) -> bool {
        matches!(self, OpenKey::DataOp(_) | OpenKey::Submit(_))
    }
}

/// Begin times waiting for their End — upstream's one `thread_local`
/// slot, widened to the few operations a thread really has open at once
/// (a `target data` around a `target` around a data op; a
/// `target_nowait` still in flight).
///
/// The newest [`OpenTable::INLINE`] opens sit in an inline array that
/// both endpoints search from the newest entry, which is where a
/// well-nested End finds its Begin. The scan is bounded by the array:
/// when an open arrives and the array is full, the *oldest* entry moves
/// to `spilled`, a map that stays empty unless a runtime nests deeper
/// than `INLINE` or drops Ends — so leaked Begins cost later callbacks
/// one `is_empty` test, and an End that misses the array one lookup.
/// A key lives in at most one of the two, once: the table behaves as
/// the map `key → begin time` it replaces (a repeated Begin overwrites,
/// an unmatched End finds nothing).
///
/// The same table yields the thread's watermark bound,
/// [`OpenTable::earliest`], from the inline array and a cached minimum
/// of the spill — so leaked Begins do not lengthen that scan either.
#[derive(Debug, Default)]
struct OpenTable {
    /// Oldest first; only `recent[..len]` is meaningful.
    recent: [(OpenKey, SimTime); OpenTable::INLINE],
    len: usize,
    spilled: FnvHashMap<OpenKey, SimTime>,
    /// The earliest begin among `spilled`'s entries that
    /// [pin](OpenKey::pins) the watermark.
    spilled_earliest: Option<SimTime>,
}

impl OpenTable {
    /// Inline entries, and so the most any callback scans.
    const INLINE: usize = 8;

    /// Note that `key` opened at `time`.
    fn begin(&mut self, key: OpenKey, time: SimTime) {
        if let Some(at) = self.position(key) {
            self.recent[at].1 = time;
            return;
        }
        self.unspill(key);
        if self.len == Self::INLINE {
            let (oldest, began) = self.recent[0];
            self.spilled.insert(oldest, began);
            if oldest.pins() {
                self.spilled_earliest = Some(self.spilled_earliest.map_or(began, |t| t.min(began)));
            }
            self.recent.copy_within(1.., 0);
            self.len -= 1;
        }
        self.recent[self.len] = (key, time);
        self.len += 1;
    }

    /// Take the begin time of `key`, if it is open.
    fn end(&mut self, key: OpenKey) -> Option<SimTime> {
        match self.position(key) {
            Some(at) => {
                let began = self.recent[at].1;
                self.recent.copy_within(at + 1..self.len, at);
                self.len -= 1;
                Some(began)
            }
            None => self.unspill(key),
        }
    }

    /// Take `key` out of the spill map, if it is there. Only removing
    /// the spill's earliest pinning entry rescans it — leaked Begins are
    /// the oldest and never leave, so that is the rare case.
    fn unspill(&mut self, key: OpenKey) -> Option<SimTime> {
        if self.spilled.is_empty() {
            return None;
        }
        let began = self.spilled.remove(&key)?;
        if key.pins() && Some(began) == self.spilled_earliest {
            self.spilled_earliest = self
                .spilled
                .iter()
                .filter(|(k, _)| k.pins())
                .map(|(_, &t)| t)
                .min();
        }
        Some(began)
    }

    /// The earliest begin time among open data ops and submits: no
    /// event this thread streams later can start before it.
    fn earliest(&self) -> Option<SimTime> {
        self.recent[..self.len]
            .iter()
            .filter(|(k, _)| k.pins())
            .map(|&(_, t)| t)
            .chain(self.spilled_earliest)
            .min()
    }

    fn position(&self, key: OpenKey) -> Option<usize> {
        self.recent[..self.len].iter().rposition(|&(k, _)| k == key)
    }
}

impl OmpDataPerfTool {
    /// Maximum number of shards one collector supports (the global
    /// watermark's fixed slot capacity).
    pub const MAX_SHARDS: usize = GlobalWatermark::DEFAULT_SHARDS;

    /// Build the first shard and the extraction handle.
    pub fn new(cfg: ToolConfig) -> (OmpDataPerfTool, ToolHandle) {
        let shared = Arc::new(ToolShared {
            cfg,
            control: Mutex::new(Control {
                audit: CollisionAudit::new(cfg.collision_audit),
                ..Default::default()
            }),
            shards: Mutex::new(Vec::new()),
            engine: Mutex::new(cfg.stream.then(|| Live {
                engine: StreamingEngine::default(),
                queues: Vec::new(),
                spare: Vec::new(),
                stall: cfg.stall_timeout.map(StallDetector::new),
                taps: Vec::new(),
            })),
            watermark: GlobalWatermark::with_capacity(GlobalWatermark::DEFAULT_SHARDS),
        });
        let handle = ToolHandle {
            shared: shared.clone(),
        };
        (OmpDataPerfTool::new_shard(shared), handle)
    }

    fn new_shard(shared: Arc<ToolShared>) -> OmpDataPerfTool {
        let slot = shared.watermark.register();
        let cfg = shared.cfg;
        // Only streaming runs queue events; the live path sweeps them.
        let pending = shared.engine.lock().as_mut().map(|live| {
            let queue = PendingQueue::default();
            live.queues.push(queue.clone());
            queue
        });
        let shard = Arc::new(Mutex::new(ShardState {
            log: TraceLog::for_shard(slot.index() as u32),
            hash_meter: ShardMeter::default(),
            health: TraceHealth::default(),
            pending,
        }));
        shared.shards.lock().push(shard.clone());
        shared.control.lock().spawned_shards += 1;
        OmpDataPerfTool {
            cfg,
            shared,
            shard,
            slot,
            degraded: false,
            open: OpenTable::default(),
            last_edge: SimTime::ZERO,
        }
    }

    /// This instance's shard id.
    pub fn shard(&self) -> u32 {
        self.slot.index() as u32
    }

    /// The body every recording callback shares; the caller has already
    /// taken the op's Begin out of the open table and observed `end`.
    /// `record` appends to the shard's log under the shard lock and
    /// hands back the event (`start == None`: a begin-only runtime, the
    /// op is an instant); in streaming mode the event is then queued
    /// *before* the clock edge its span closes is published (the
    /// drain's snapshot-then-sweep soundness), and once the shard lock
    /// is released a drain runs if the queue holds [`DRAIN_BATCH`] —
    /// unless this shard holds the merged watermark back while a live
    /// shard is ahead ([`GlobalWatermark::holds_back`]): then that
    /// shard's next batch sweeps this queue too, and this one drains
    /// itself only at [`DEFER_CAP`].
    fn record(
        &self,
        start: Option<SimTime>,
        end: SimTime,
        record: impl FnOnce(&mut ShardState, TimeSpan) -> StreamEvent,
    ) {
        let queued = {
            let mut shard = self.shard.lock();
            let span = start.map_or(TimeSpan::at(end), |start| TimeSpan::new(start, end));
            let event = record(&mut shard, span);
            shard.pending.as_ref().map_or(0, |pending| {
                let mut pending = pending.lock();
                pending.push(event);
                pending.len()
            })
        };
        self.publish();
        if queued >= DEFER_CAP
            || (queued >= DRAIN_BATCH && !self.shared.watermark.holds_back(self.slot))
        {
            self.shared.with_drained(false, |_| ());
        }
    }

    /// A data-op or submit edge at `time`. The runtime's callback clock
    /// is monotonic, so no later Begin can precede it.
    fn observe(&mut self, time: SimTime) {
        self.last_edge = self.last_edge.max(time);
    }

    /// Publish this shard's watermark bound (streaming mode): the
    /// earliest open data-op or submit Begin, else the latest edge.
    /// Call after queueing whatever event the edge closed.
    fn publish(&self) {
        if self.cfg.stream {
            let bound = self.open.earliest();
            self.shared
                .watermark
                .publish(self.slot, bound, self.last_edge);
        }
    }

    /// A matched-later Begin: the open holds the shard's bound at its
    /// begin time until the matching End.
    fn open_edge(&mut self, key: OpenKey, time: SimTime) {
        self.open.begin(key, time);
        self.observe(time);
        self.publish();
    }

    /// An End whose Begin was dropped, or a duplicate End. No
    /// trustworthy span exists, so the event is quarantined instead of
    /// guessed — and the bound only *observes* its time.
    fn orphaned_end(&mut self, time: SimTime) {
        self.shard.lock().health.orphaned += 1;
        self.observe(time);
        self.publish();
    }

    /// Hash a payload against this shard's meter (and the shared audit
    /// when enabled — the documented serialization point of audit mode).
    fn hash_payload(&self, shard: &mut ShardState, payload: &[u8]) -> u64 {
        let h = shard.hash_meter.hash(self.cfg.hash_algo, payload);
        if self.cfg.collision_audit {
            self.shared.control.lock().audit.record(payload, h);
        }
        h
    }
}

fn data_op_kind(t: DataOpType) -> DataOpKind {
    match t {
        DataOpType::Alloc => DataOpKind::Alloc,
        DataOpType::TransferToDevice | DataOpType::TransferFromDevice => DataOpKind::Transfer,
        DataOpType::Delete => DataOpKind::Delete,
        DataOpType::Associate => DataOpKind::Associate,
        DataOpType::Disassociate => DataOpKind::Disassociate,
    }
}

fn target_kind(c: TargetConstructKind) -> TargetKind {
    match c {
        TargetConstructKind::Target => TargetKind::Region,
        TargetConstructKind::TargetData => TargetKind::DataRegion,
        TargetConstructKind::TargetEnterData => TargetKind::EnterData,
        TargetConstructKind::TargetExitData => TargetKind::ExitData,
        TargetConstructKind::TargetUpdate => TargetKind::Update,
    }
}

impl Tool for OmpDataPerfTool {
    fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
        let mut c = self.shared.control.lock();
        let first = !c.initialized;
        c.initialized = true;
        if first {
            c.info.push(format!(
                "info: OpenMP OMPT interface version {}",
                caps.ompt_version
            ));
            c.info
                .push(format!("info: OpenMP runtime {}", caps.runtime_name));
            if let Some(flag) = caps.requires_recompile_flag {
                c.info.push(format!(
                    "info: this runtime requires programs to be compiled with {flag} for OMPT tools to engage"
                ));
            }
        }

        let emi = ToolRegistration::negotiate(
            &[
                CallbackKind::TargetEmi,
                CallbackKind::TargetDataOpEmi,
                CallbackKind::TargetSubmitEmi,
            ],
            caps,
        );
        if emi.fully_granted() {
            return emi;
        }

        let legacy = ToolRegistration::negotiate(
            &[
                CallbackKind::Target,
                CallbackKind::TargetDataOp,
                CallbackKind::TargetSubmit,
            ],
            caps,
        );
        if legacy.granted(CallbackKind::TargetDataOp) {
            c.degraded = true;
            self.degraded = true;
            if first && !self.cfg.quiet {
                c.warnings.push(format!(
                    "warning: OMPDataPerf requires OMPT interface version 5.1 (or later), \
                     but found version {}. Some features may be degraded.",
                    caps.ompt_version
                ));
            }
            return legacy;
        }

        c.unusable = true;
        if first && !self.cfg.quiet {
            c.warnings.push(format!(
                "warning: the OpenMP runtime ({}) provides no OMPT target callbacks; \
                 OMPDataPerf cannot profile this program.",
                caps.runtime_name
            ));
        }
        ToolRegistration::default()
    }

    fn on_target(&mut self, cb: &TargetCallback) {
        let key = OpenKey::Construct(cb.target_id, cb.construct);
        let span = match cb.endpoint {
            // Degraded mode: begin-only → record an instantaneous marker
            // (pre-EMI runtimes never deliver End).
            Endpoint::Begin if self.degraded => TimeSpan::at(cb.time),
            Endpoint::Begin => {
                self.open.begin(key, cb.time);
                return;
            }
            Endpoint::End => match self.open.end(key) {
                Some(start) => TimeSpan::new(start, cb.time),
                // Orphaned region End (dropped or duplicated Begin):
                // quarantine rather than invent a zero-length span.
                None => return self.shard.lock().health.orphaned += 1,
            },
        };
        let kind = target_kind(cb.construct);
        let mut shard = self.shard.lock();
        shard
            .log
            .record_target(kind, cb.device, span, cb.codeptr_ra);
    }

    fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
        let start = match cb.endpoint {
            // Degraded (non-EMI) runtimes never send End: record now
            // with zero duration, hashing the payload that a pointer-
            // chasing tool reads at op start.
            Endpoint::Begin if self.degraded => None,
            Endpoint::Begin => return self.open_edge(OpenKey::DataOp(cb.host_op_id), cb.time),
            Endpoint::End => match self.open.end(OpenKey::DataOp(cb.host_op_id)) {
                Some(start) => Some(start),
                None => return self.orphaned_end(cb.time),
            },
        };
        self.observe(cb.time);
        let kind = data_op_kind(cb.optype);
        self.record(start, cb.time, |shard, span| {
            // A payload that disagrees with the claimed byte count
            // cannot be hashed truthfully: keep the op (its timing is
            // real) but quarantine the hash.
            let truncated = cb.payload.is_some_and(|p| p.len() as u64 != cb.bytes);
            let hash = if truncated {
                shard.health.truncated += 1;
                None
            } else {
                let begin_only_transfer = start.is_none() && kind == DataOpKind::Transfer;
                cb.payload
                    .map(|p| self.hash_payload(shard, p))
                    .or(begin_only_transfer.then_some(0))
            };
            StreamEvent::Op(shard.log.record_data_op(
                kind,
                cb.src_device,
                cb.dest_device,
                cb.src_addr,
                cb.dest_addr,
                cb.bytes,
                hash,
                span,
                cb.codeptr_ra,
            ))
        });
    }

    fn on_submit(&mut self, cb: &SubmitCallback) {
        let start = match cb.endpoint {
            Endpoint::Begin if self.degraded => None,
            Endpoint::Begin => return self.open_edge(OpenKey::Submit(cb.target_id), cb.time),
            Endpoint::End => match self.open.end(OpenKey::Submit(cb.target_id)) {
                Some(start) => Some(start),
                None => return self.orphaned_end(cb.time),
            },
        };
        self.observe(cb.time);
        self.record(start, cb.time, |shard, span| {
            StreamEvent::Kernel(shard.log.record_target(
                TargetKind::Kernel,
                cb.device,
                span,
                cb.codeptr_ra,
            ))
        });
    }

    fn finalize(&mut self, total_time_ns: u64) {
        self.shard
            .lock()
            .log
            .set_total_time(SimDuration(total_time_ns));
        // A finished thread must not pin the merged watermark.
        self.shared.watermark.retire(self.slot);
        let all_done = {
            let mut c = self.shared.control.lock();
            c.finalized_shards += 1;
            c.finalized_shards >= c.spawned_shards
        };
        if all_done {
            // Final full (blocking) sweep: nothing may be left in a shard
            // queue once the program is over.
            let stats = self.shared.with_drained(true, |live| {
                (live.engine.buffer_stats(), live.engine.retained_bytes())
            });
            if self.cfg.verbose {
                let handle = ToolHandle {
                    shared: self.shared.clone(),
                };
                let rate = handle.hash_rate_gb_per_s();
                let mut lines = vec![format!("info: effective hash rate {rate:.1} GB/s")];
                // What the live path cost: how many events shared each
                // engine lock, what the reorder lanes could not take in
                // order, and the heap the engine holds at exit, per
                // structure.
                if let Some((s, retained)) = stats {
                    let retained: Vec<String> = retained
                        .iter()
                        .map(|&(name, bytes)| format!("{name} {}", human_bytes(bytes as u64)))
                        .collect();
                    lines.push(format!(
                        "info: stream: {} drains, mean batch {:.1}, \
                         {} reorder inversions; retained {}",
                        s.drains,
                        s.drained_events as f64 / s.drains.max(1) as f64,
                        s.reorder_inversions,
                        retained.join(", "),
                    ));
                }
                self.shared.control.lock().info.extend(lines);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::DeviceId;
    use odp_ompt::CompilerProfile;

    fn data_op<'a>(
        endpoint: Endpoint,
        host_op_id: u64,
        optype: DataOpType,
        time: u64,
        payload: Option<&'a [u8]>,
    ) -> DataOpCallback<'a> {
        DataOpCallback {
            endpoint,
            target_id: 1,
            host_op_id,
            optype,
            src_device: DeviceId::HOST,
            src_addr: 0x1000,
            dest_device: DeviceId::target(0),
            dest_addr: 0xd000,
            bytes: payload.map(|p| p.len() as u64).unwrap_or(64),
            codeptr_ra: odp_model::CodePtr(0x42),
            time: SimTime(time),
            payload,
        }
    }

    #[test]
    fn emi_begin_end_produces_one_record_with_duration() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let payload = vec![7u8; 256];
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            5,
            DataOpType::TransferToDevice,
            100,
            None,
        ));
        tool.on_data_op(&data_op(
            Endpoint::End,
            5,
            DataOpType::TransferToDevice,
            150,
            Some(&payload),
        ));
        tool.finalize(1_000);
        let trace = handle.take_trace();
        let events = trace.data_op_events_sorted();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span.duration().as_nanos(), 50);
        assert!(events[0].hash.is_some());
        assert_eq!(
            events[0].hash.unwrap().0,
            HashAlgoId::default().hash(&payload)
        );
    }

    #[test]
    fn hash_meter_accumulates() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let payload = vec![1u8; 1024];
        for i in 0..10 {
            tool.on_data_op(&data_op(
                Endpoint::Begin,
                i,
                DataOpType::TransferToDevice,
                0,
                None,
            ));
            tool.on_data_op(&data_op(
                Endpoint::End,
                i,
                DataOpType::TransferToDevice,
                10,
                Some(&payload),
            ));
        }
        let m = handle.hash_meter();
        assert_eq!(m.bytes, 10 * 1024);
        assert!(m.nanos > 0);
        assert!(handle.hash_rate_gb_per_s() > 0.0);
    }

    /// Payload sizes on both sides of the 4 KiB line, small ones in the
    /// majority as on every measured workload.
    fn mixed_sizes() -> Vec<usize> {
        (0..200usize)
            .map(|i| match i % 10 {
                0 => METER_EXACT_BYTES,
                5 => METER_EXACT_BYTES * 3 + i,
                9 => METER_EXACT_BYTES - 1,
                _ => (i * 37) % 1024,
            })
            .collect()
    }

    /// Meter `sizes` one after another; the clock pairs read so far
    /// after each payload.
    fn timed_after_each(sizes: &[usize]) -> (ShardMeter, Vec<u64>) {
        let mut meter = ShardMeter::default();
        let timed = sizes
            .iter()
            .map(|&n| {
                let payload = vec![n as u8; n];
                let h = meter.hash(HashAlgoId::default(), &payload);
                assert_eq!(
                    h,
                    HashAlgoId::default().hash(&payload),
                    "metering changes no hash"
                );
                meter.timed
            })
            .collect();
        (meter, timed)
    }

    #[test]
    fn meter_counts_every_byte_and_times_every_large_payload() {
        let sizes = mixed_sizes();
        let (meter, timed) = timed_after_each(&sizes);
        assert_eq!(meter.total.bytes, sizes.iter().sum::<usize>() as u64);
        // A large payload always reads the clock; of the small ones the
        // 1st, 17th, 33rd, ... do.
        let mut small_seen = 0u32;
        let mut expected = 0u64;
        for (i, &n) in sizes.iter().enumerate() {
            if n >= METER_EXACT_BYTES {
                expected += 1;
            } else {
                expected += u64::from(small_seen.is_multiple_of(METER_SAMPLE_EVERY));
                small_seen += 1;
            }
            assert_eq!(timed[i], expected, "payload {i} of {n} B");
        }
        assert!(meter.total.nanos >= expected, "each reading counts >= 1 ns");
    }

    #[test]
    fn meter_times_the_first_small_payload() {
        let (meter, timed) = timed_after_each(&[82]);
        assert_eq!(timed, [1]);
        assert!(meter.total.nanos >= METER_SAMPLE_EVERY as u64);
        assert!(meter.total.gb_per_s() > 0.0);
    }

    #[test]
    fn meter_sampling_depends_on_the_payloads_alone() {
        let sizes = mixed_sizes();
        assert_eq!(timed_after_each(&sizes).1, timed_after_each(&sizes).1);
    }

    /// Begin or End of a 64-byte transfer `id` at `time`.
    fn transfer_edge(tool: &mut OmpDataPerfTool, endpoint: Endpoint, id: u64, time: u64) {
        let payload = [3u8; 64];
        let payload = (endpoint == Endpoint::End).then_some(&payload[..]);
        tool.on_data_op(&data_op(
            endpoint,
            id,
            DataOpType::TransferToDevice,
            time,
            payload,
        ));
    }

    #[test]
    fn a_repeated_begin_keeps_the_later_time() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        transfer_edge(&mut tool, Endpoint::Begin, 5, 100);
        transfer_edge(&mut tool, Endpoint::Begin, 5, 120);
        transfer_edge(&mut tool, Endpoint::End, 5, 150);
        // One Begin was open, not two: the duplicated End is orphaned.
        transfer_edge(&mut tool, Endpoint::End, 5, 160);
        assert_eq!(handle.trace_health().orphaned, 1);
        let trace = handle.take_trace();
        let events = trace.data_op_events_sorted();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span.start, SimTime(120));
        assert_eq!(events[0].span.end, SimTime(150));
    }

    #[test]
    fn an_end_whose_begin_was_dropped_is_orphaned_and_records_nothing() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let target = |endpoint, time| TargetCallback {
            endpoint,
            construct: TargetConstructKind::Target,
            device: DeviceId::target(0),
            target_id: 7,
            codeptr_ra: odp_model::CodePtr(0x70),
            time: SimTime(time),
        };
        let submit = |endpoint, time| SubmitCallback {
            endpoint,
            target_id: 7,
            device: DeviceId::target(0),
            requested_num_teams: 1,
            codeptr_ra: odp_model::CodePtr(0x70),
            time: SimTime(time),
        };
        // An open data op 7 is not an open construct 7 or submit 7:
        // ids match within their own kind of callback only.
        transfer_edge(&mut tool, Endpoint::Begin, 7, 10);
        tool.on_target(&target(Endpoint::End, 20));
        tool.on_submit(&submit(Endpoint::End, 30));
        transfer_edge(&mut tool, Endpoint::End, 8, 40);
        assert_eq!(handle.trace_health().orphaned, 3);
        assert_eq!(handle.hash_meter().bytes, 0, "an orphan is not hashed");
        transfer_edge(&mut tool, Endpoint::End, 7, 50);
        let trace = handle.take_trace();
        assert_eq!((trace.data_op_count(), trace.target_count()), (1, 0));
        assert_eq!(trace.data_op_events_sorted()[0].span.start, SimTime(10));
    }

    #[test]
    fn leaked_begins_never_lengthen_a_later_scan() {
        const LEAKED: u64 = 100_000;
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        // The runtime drops every End: each Begin stays open for good.
        for id in 0..LEAKED {
            transfer_edge(&mut tool, Endpoint::Begin, id, id);
            assert!(tool.open.len <= OpenTable::INLINE);
        }
        // What a callback scans is the inline array and nothing else;
        // all older opens sit in the map.
        assert_eq!(tool.open.len, OpenTable::INLINE);
        assert_eq!(tool.open.spilled.len(), LEAKED as usize - OpenTable::INLINE);
        // ... then delivers Ends nobody opened.
        for id in LEAKED..2 * LEAKED {
            transfer_edge(&mut tool, Endpoint::End, id, id);
        }
        assert_eq!(handle.trace_health().orphaned, LEAKED);
        assert_eq!(tool.open.len, OpenTable::INLINE);
        assert_eq!(tool.open.spilled.len(), LEAKED as usize - OpenTable::INLINE);
        // A leaked Begin is still matched when its End does arrive,
        // from the map (the oldest) as from the array (the newest).
        transfer_edge(&mut tool, Endpoint::End, 0, 3 * LEAKED);
        transfer_edge(&mut tool, Endpoint::End, LEAKED - 1, 3 * LEAKED);
        assert_eq!(handle.trace_health().orphaned, LEAKED);
        let starts: Vec<u64> = handle
            .take_trace()
            .data_op_events_sorted()
            .iter()
            .map(|e| e.span.start.0)
            .collect();
        assert_eq!(starts, [0, LEAKED - 1]);
    }

    #[test]
    fn a_begin_repeated_after_spilling_leaves_one_open_entry() {
        let mut table = OpenTable::default();
        let key = OpenKey::DataOp;
        table.begin(key(0), SimTime(1));
        for id in 1..=OpenTable::INLINE as u64 {
            table.begin(key(id), SimTime(1));
        }
        assert_eq!(table.spilled.len(), 1, "op 0 spilled");
        table.begin(key(0), SimTime(9));
        assert_eq!(table.end(key(0)), Some(SimTime(9)));
        assert_eq!(table.end(key(0)), None, "the spilled copy was replaced");
        // Out-of-order Ends close the entry they name.
        assert_eq!(table.end(key(3)), Some(SimTime(1)));
        assert_eq!(table.end(key(3)), None);
        assert_eq!(table.end(key(OpenTable::INLINE as u64)), Some(SimTime(1)));
    }

    /// The bounds a streaming shard publishes, read through the merge:
    /// `local` from a tool that is the only shard, `safe_below` (less
    /// one) from a twin whose second shard has retired.
    struct Published {
        alone: OmpDataPerfTool,
        paired: OmpDataPerfTool,
    }

    impl Published {
        fn new() -> Published {
            let cfg = ToolConfig {
                stream: true,
                ..Default::default()
            };
            let caps = CompilerProfile::LlvmClang.capabilities();
            let (mut alone, _) = OmpDataPerfTool::new(cfg);
            let (mut paired, handle) = OmpDataPerfTool::new(cfg);
            let retired = handle.fork_tool();
            handle.shared.watermark.retire(retired.slot);
            alone.initialize(&caps);
            paired.initialize(&caps);
            Published { alone, paired }
        }

        fn each(&mut self, mut edge: impl FnMut(&mut OmpDataPerfTool)) {
            edge(&mut self.alone);
            edge(&mut self.paired);
        }

        fn merged(&self) -> (Option<SimTime>, Option<SimTime>) {
            let merged = |tool: &OmpDataPerfTool| tool.shared.watermark.merged();
            (merged(&self.alone), merged(&self.paired))
        }
    }

    #[test]
    fn published_bounds_follow_the_open_begins() {
        // Random Begin/End streams over data ops, submits and
        // constructs: Ends that never come (leaking Begins past the
        // inline array), duplicate Ends, Ends nobody opened, and times
        // that now and then step back. After every edge the published
        // bounds must be what a multiset of open data-op and submit
        // begins plus the latest such edge yields.
        let mut widest = 0;
        for seed in 1..=24u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut below = |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut tools = Published::new();
            let mut open: std::collections::BTreeMap<(u64, u64), SimTime> = Default::default();
            let mut begins: std::collections::BTreeMap<SimTime, u32> = Default::default();
            let mut latest = SimTime::ZERO;
            let (mut next_id, mut t) = (0u64, 50u64);
            for step in 0..400 {
                t = if below(10) == 0 {
                    t.saturating_sub(below(20))
                } else {
                    t + below(4)
                };
                let time = SimTime(t);
                // 0 = data op, 1 = submit, 2 = construct.
                let kind = below(3);
                let target = |endpoint, id| TargetCallback {
                    endpoint,
                    construct: TargetConstructKind::TargetData,
                    device: DeviceId::target(0),
                    target_id: id,
                    codeptr_ra: odp_model::CodePtr(0x70),
                    time,
                };
                let submit = |endpoint, id| SubmitCallback {
                    endpoint,
                    target_id: id,
                    device: DeviceId::target(0),
                    requested_num_teams: 1,
                    codeptr_ra: odp_model::CodePtr(0x71),
                    time,
                };
                if below(100) < 55 {
                    let id = next_id;
                    next_id += 1;
                    match kind {
                        0 => tools.each(|tool| transfer_edge(tool, Endpoint::Begin, id, t)),
                        1 => tools.each(|tool| tool.on_submit(&submit(Endpoint::Begin, id))),
                        _ => tools.each(|tool| tool.on_target(&target(Endpoint::Begin, id))),
                    }
                    open.insert((kind, id), time);
                    if kind < 2 {
                        latest = latest.max(time);
                        *begins.entry(time).or_insert(0) += 1;
                    }
                } else {
                    // An open op, one already closed, or one never begun.
                    let id = match below(3) {
                        0 => {
                            let ids: Vec<u64> =
                                open.keys().filter(|k| k.0 == kind).map(|k| k.1).collect();
                            let pick = below(ids.len().max(1) as u64) as usize;
                            ids.get(pick).copied().unwrap_or(next_id + 7)
                        }
                        1 => below(next_id + 1),
                        _ => next_id + 1_000 + below(10),
                    };
                    match kind {
                        0 => tools.each(|tool| transfer_edge(tool, Endpoint::End, id, t)),
                        1 => tools.each(|tool| tool.on_submit(&submit(Endpoint::End, id))),
                        _ => tools.each(|tool| tool.on_target(&target(Endpoint::End, id))),
                    }
                    let began = open.remove(&(kind, id));
                    if kind < 2 {
                        latest = latest.max(time);
                        if let Some(began) = began {
                            let n = begins.get_mut(&began).expect("open begin");
                            *n -= 1;
                            if *n == 0 {
                                begins.remove(&began);
                            }
                        }
                    }
                }
                widest = widest.max(open.len());
                let earliest = begins.keys().next().copied();
                let local = earliest.map_or(latest, |e| SimTime(e.0.saturating_sub(1)));
                let safe_below = earliest.unwrap_or(latest);
                assert_eq!(
                    tools.merged(),
                    (
                        Some(local),
                        (safe_below.0 > 0).then(|| SimTime(safe_below.0 - 1))
                    ),
                    "seed {seed}, step {step}"
                );
            }
        }
        assert!(widest > 2 * OpenTable::INLINE, "{widest} open at most");
    }

    #[test]
    fn degraded_runtime_sets_warning_and_zero_durations() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        let caps = CompilerProfile::LlvmClang.capabilities_pre_emi();
        let reg = tool.initialize(&caps);
        assert!(reg.granted(CallbackKind::TargetDataOp));
        assert!(handle.degraded());
        assert!(handle
            .console_lines()
            .iter()
            .any(|l| l.contains("Some features may be degraded")));
        let payload = vec![2u8; 64];
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            1,
            DataOpType::TransferToDevice,
            100,
            Some(&payload),
        ));
        tool.finalize(500);
        let trace = handle.take_trace();
        let events = trace.data_op_events_sorted();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].span.duration().as_nanos(), 0, "begin-only");
        assert!(events[0].hash.is_some());
    }

    #[test]
    fn gcc_runtime_is_unusable() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        let reg = tool.initialize(&CompilerProfile::GnuGcc.capabilities());
        assert!(reg.requested.is_empty());
        assert!(handle.unusable());
        assert!(handle
            .console_lines()
            .iter()
            .any(|l| l.contains("cannot profile")));
    }

    #[test]
    fn quiet_mode_suppresses_warnings() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            quiet: true,
            ..Default::default()
        });
        tool.initialize(&CompilerProfile::GnuGcc.capabilities());
        assert!(handle.unusable());
        assert!(!handle
            .console_lines()
            .iter()
            .any(|l| l.starts_with("warning")));
    }

    #[test]
    fn collision_audit_sees_payloads() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            collision_audit: true,
            ..Default::default()
        });
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let p1 = vec![1u8; 128];
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            1,
            DataOpType::TransferToDevice,
            0,
            None,
        ));
        tool.on_data_op(&data_op(
            Endpoint::End,
            1,
            DataOpType::TransferToDevice,
            10,
            Some(&p1),
        ));
        assert_eq!(handle.collision_count(), 0);
        assert_eq!(handle.audit_checks(), 1);
    }

    #[test]
    fn streaming_tool_matches_postmortem_with_out_of_order_completion() {
        use crate::detect::{testutil::assert_live_matches, EventView};
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        assert!(handle.streaming());

        let payload = vec![9u8; 128];
        // Op 1 opens at t=0 and stays open while op 2 (same content →
        // duplicate) and a kernel complete inside it: records land in
        // completion order 2, kernel, 1 — chronological order 1, 2, kernel.
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            1,
            DataOpType::TransferToDevice,
            0,
            None,
        ));
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            2,
            DataOpType::TransferToDevice,
            50,
            None,
        ));
        tool.on_data_op(&data_op(
            Endpoint::End,
            2,
            DataOpType::TransferToDevice,
            60,
            Some(&payload),
        ));
        let submit = |endpoint, time| SubmitCallback {
            endpoint,
            target_id: 7,
            device: DeviceId::target(0),
            requested_num_teams: 1,
            codeptr_ra: odp_model::CodePtr(0x77),
            time: SimTime(time),
        };
        tool.on_submit(&submit(Endpoint::Begin, 70));
        tool.on_submit(&submit(Endpoint::End, 80));
        // The streaming engine must not have released anything past the
        // still-open op 1 (its begin pins the watermark at 0).
        let stats = handle.stream_buffer_stats().unwrap();
        assert!(stats.buffered_now >= 2, "events wait on the open op");
        tool.on_data_op(&data_op(
            Endpoint::End,
            1,
            DataOpType::TransferToDevice,
            200,
            Some(&payload),
        ));
        tool.finalize(1_000);
        let stats = handle.stream_buffer_stats().unwrap();
        assert_eq!(
            stats.reorder_inversions, 1,
            "op 1 lands behind op 2 and the kernel in its lane"
        );

        let trace = handle.take_trace();
        let mut engine = handle.take_stream_engine().expect("streaming engine");
        let mut live = engine.take_findings();
        assert!(!live.is_empty(), "duplicate must be found live");
        let view = EventView::from_log(&trace);
        let report = engine.finalize(&view);
        live.extend(engine.take_findings());
        assert_eq!(report.counts().dd, 1);
        assert_live_matches(live, &report);
    }

    /// A one-shard streaming tool and its merged watermark, which is the
    /// shard's own bound.
    fn streaming_tool() -> (OmpDataPerfTool, ToolHandle) {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        (tool, handle)
    }

    #[test]
    fn shared_begin_times_are_counted() {
        let (mut tool, handle) = streaming_tool();
        let merged = || handle.shared.watermark.merged();
        transfer_edge(&mut tool, Endpoint::Begin, 1, 5);
        transfer_edge(&mut tool, Endpoint::Begin, 2, 5);
        transfer_edge(&mut tool, Endpoint::End, 1, 20);
        assert_eq!(merged(), Some(SimTime(4)), "one of the two is still open");
        transfer_edge(&mut tool, Endpoint::End, 2, 25);
        assert_eq!(merged(), Some(SimTime(25)));
    }

    #[test]
    fn unmatched_close_is_ignored() {
        let (mut tool, handle) = streaming_tool();
        let merged = || handle.shared.watermark.merged();
        // An End nobody opened only moves the bound's clock ...
        transfer_edge(&mut tool, Endpoint::End, 9, 10);
        assert_eq!(merged(), Some(SimTime(10)));
        // ... and never closes an open op that began at the same time.
        transfer_edge(&mut tool, Endpoint::Begin, 1, 12);
        transfer_edge(&mut tool, Endpoint::End, 9, 12);
        assert_eq!(merged(), Some(SimTime(11)));
        assert_eq!(handle.trace_health().orphaned, 2);
    }

    #[test]
    fn unmatched_end_does_not_corrupt_the_watermark() {
        use crate::detect::{testutil::assert_live_matches, EventView};
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let payload = vec![4u8; 64];
        // Op 1 opens at t=100 and stays open. An *unmatched* End (op 2,
        // no Begin) arrives at the same t=100: its fallback begin time
        // coincides with op 1's open entry and must not close it.
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            1,
            DataOpType::TransferToDevice,
            100,
            None,
        ));
        tool.on_data_op(&data_op(
            Endpoint::End,
            2,
            DataOpType::TransferToDevice,
            100,
            Some(&payload),
        ));
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            3,
            DataOpType::TransferToDevice,
            150,
            None,
        ));
        tool.on_data_op(&data_op(
            Endpoint::End,
            3,
            DataOpType::TransferToDevice,
            160,
            Some(&payload),
        ));
        // Op 1 is still open: nothing may have been released past t=99.
        // The orphaned End (op 2) was quarantined, not buffered.
        let stats = handle.stream_buffer_stats().unwrap();
        assert_eq!(stats.buffered_now, 1, "op 3 must wait on op 1");
        assert_eq!(handle.trace_health().orphaned, 1, "op 2 quarantined");
        tool.on_data_op(&data_op(
            Endpoint::End,
            1,
            DataOpType::TransferToDevice,
            200,
            Some(&payload),
        ));
        tool.finalize(500);
        let trace = handle.take_trace();
        let mut engine = handle.take_stream_engine().unwrap();
        let view = EventView::from_log(&trace);
        let report = engine.finalize(&view);
        assert_live_matches(engine.take_findings(), &report);
    }

    #[test]
    fn truncated_payload_quarantines_the_hash_but_keeps_the_event() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        // The callback claims 64 bytes but delivers 32: the hash is
        // untrustworthy, the timing is real.
        let short = vec![1u8; 32];
        let mut cb = data_op(Endpoint::End, 1, DataOpType::TransferToDevice, 50, None);
        cb.bytes = 64;
        cb.payload = Some(&short);
        tool.on_data_op(&data_op(
            Endpoint::Begin,
            1,
            DataOpType::TransferToDevice,
            10,
            None,
        ));
        tool.on_data_op(&cb);
        tool.finalize(100);
        assert_eq!(handle.trace_health().truncated, 1);
        let trace = handle.take_trace();
        let events = trace.data_op_events_sorted();
        assert_eq!(events.len(), 1, "the op itself is kept");
        assert!(events[0].hash.is_none(), "the hash is quarantined");
        assert_eq!(events[0].span.duration().as_nanos(), 40);
        assert_eq!(handle.hash_meter().bytes, 0, "nothing was hashed");
    }

    #[test]
    fn stalled_watermark_force_releases_and_degrades_findings() {
        use crate::detect::EventView;
        // Shard 1 opens an op at t=0 and then wedges (never Ends, never
        // finalizes during the run). With a zero stall timeout the
        // second drain must force-release shard 0's buffered events
        // instead of waiting forever.
        let (mut t0, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            stall_timeout: Some(std::time::Duration::ZERO),
            quiet: false,
            ..Default::default()
        });
        let mut t1 = handle.fork_tool();
        let tap = handle.tap_stream_findings();
        let caps = CompilerProfile::LlvmClang.capabilities();
        t0.initialize(&caps);
        t1.initialize(&caps);
        t1.on_data_op(&data_op(
            Endpoint::Begin,
            99,
            DataOpType::TransferToDevice,
            0,
            None,
        ));
        let payload = vec![8u8; 64];
        // Three identical transfers on shard 0 → two duplicate findings
        // once released.
        for (id, t) in [(1u64, 10u64), (2, 30), (3, 50)] {
            t0.on_data_op(&data_op(
                Endpoint::Begin,
                id,
                DataOpType::TransferToDevice,
                t,
                None,
            ));
            t0.on_data_op(&data_op(
                Endpoint::End,
                id,
                DataOpType::TransferToDevice,
                t + 5,
                Some(&payload),
            ));
        }
        // First drain arms the detector (watermark progressed to 0);
        // the second sees no progress with events buffered → forced
        // release. The drain thread never wedges on the stalled shard.
        let first = tap.take();
        let second = tap.take();
        let findings: Vec<_> = first.into_iter().chain(second).collect();
        assert!(
            !findings.is_empty(),
            "forced release must surface the duplicates"
        );
        assert!(
            findings.iter().all(|f| f.confidence().is_degraded()),
            "everything decided after a forced release is degraded: {findings:?}"
        );
        let health = handle.trace_health();
        assert!(health.forced_releases > 0, "{health:?}");
        assert!(handle
            .console_lines()
            .iter()
            .any(|l| l.contains("watermark stalled")));

        // Degraded findings must never seed remediation rules.
        let mut policy = crate::remedy::RemediationPolicy::new();
        for f in &findings {
            policy.observe(f);
        }
        assert_eq!(policy.rule_count(), 0, "degraded evidence seeds nothing");

        // Finalize still terminates and reconciles against the trace.
        t1.on_data_op(&data_op(
            Endpoint::End,
            99,
            DataOpType::TransferToDevice,
            500,
            Some(&payload),
        ));
        t0.finalize(1_000);
        t1.finalize(1_000);
        let trace = handle.take_trace();
        let mut engine = handle.take_stream_engine().expect("engine");
        assert!(engine.is_degraded());
        let view = EventView::from_log(&trace);
        let streamed = engine.finalize(&view);
        assert!(streamed
            .duplicates
            .iter()
            .all(|g| g.confidence.is_degraded()));
        // Absorbing the degraded post-mortem findings also seeds nothing.
        let mut policy = crate::remedy::RemediationPolicy::new();
        policy.absorb(&streamed);
        assert_eq!(policy.rule_count(), 0);
    }

    #[test]
    fn findings_tee_delivers_the_full_stream_to_every_tap() {
        // The tee is what lets --remediate compose with
        // --stream-interval: a poller tap and a remediation tap each
        // see every finding instead of stealing from one drain-once
        // stream.
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let tap_a = handle.tap_stream_findings();
        let tap_b = handle.tap_stream_findings();

        let payload = vec![7u8; 64];
        // Three identical transfers → two duplicate findings.
        for (id, t) in [(1u64, 0u64), (2, 20), (3, 40)] {
            tool.on_data_op(&data_op(
                Endpoint::Begin,
                id,
                DataOpType::TransferToDevice,
                t,
                None,
            ));
            tool.on_data_op(&data_op(
                Endpoint::End,
                id,
                DataOpType::TransferToDevice,
                t + 10,
                Some(&payload),
            ));
        }

        let a = tap_a.take();
        assert_eq!(a.len(), 2, "tap A sees both duplicates: {a:?}");
        let b = tap_b.try_take();
        assert_eq!(b.len(), 2, "tap B sees the same stream: {b:?}");
        // Second drains are empty: each consumer has its own cursor.
        assert!(tap_a.take().is_empty());
        assert!(tap_b.take().is_empty());
    }

    #[test]
    fn a_tap_collects_what_the_poller_harvested_while_the_engine_is_held() {
        // The remediation pump (`try_take`) never waits for the engine:
        // what the poller's drain delivered to its tap must reach it
        // even while another thread holds the engine lock.
        let (mut tool, handle) = streaming_tool();
        let poller = handle.tap_stream_findings();
        let pump = handle.tap_stream_findings();
        let payload = vec![7u8; 64];
        let op = DataOpType::TransferToDevice;
        // Three identical transfers → two duplicate findings.
        for (id, t) in [(1u64, 0u64), (2, 20), (3, 40)] {
            tool.on_data_op(&data_op(Endpoint::Begin, id, op, t, None));
            tool.on_data_op(&data_op(Endpoint::End, id, op, t + 10, Some(&payload)));
        }
        let polled = poller.take();
        assert_eq!(polled.len(), 2, "{polled:?}");

        let (held, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let pumped = std::thread::scope(|scope| {
            scope.spawn(|| {
                let _engine = handle.shared.engine.lock();
                held.wait();
                release.wait();
            });
            held.wait();
            let pumped = pump.try_take();
            release.wait();
            pumped
        });
        assert_eq!(pumped, polled, "the pump got the poller's harvest");
        assert!(pump.try_take().is_empty());
    }

    #[test]
    fn a_blocked_drain_loses_and_reorders_nothing() {
        use crate::detect::{testutil::assert_live_matches, EventView};
        const N: u64 = 3 * DRAIN_BATCH as u64 + 7;
        let (mut tool, handle) = streaming_tool();
        let payload = vec![6u8; 64];
        let op = DataOpType::TransferToDevice;
        // Hold the engine lock: every callback-side try_lock fails, so
        // the shard's queue grows well past the drain batch.
        let engine_guard = handle.shared.engine.lock();
        for id in 0..N {
            tool.on_data_op(&data_op(Endpoint::Begin, id, op, id * 10, None));
            tool.on_data_op(&data_op(Endpoint::End, id, op, id * 10 + 5, Some(&payload)));
        }
        drop(engine_guard);
        assert_eq!(engine_stats(&handle).drained_events, 0);
        // The next push finds the engine free and drains everything.
        tool.on_data_op(&data_op(Endpoint::Begin, N, op, N * 10, None));
        tool.on_data_op(&data_op(Endpoint::End, N, op, N * 10 + 5, Some(&payload)));
        let stats = engine_stats(&handle);
        assert_eq!(
            (stats.drains, stats.drained_events),
            (1, N + 1),
            "{stats:?}"
        );
        assert!(queues_are_empty(&handle));
        tool.finalize(100 * N);
        let stats = engine_stats(&handle);
        assert_eq!(stats.reorder_inversions, 0, "each lane saw arrival order");
        assert_eq!(stats.buffered_now, 0, "{stats:?}");
        let trace = handle.take_trace();
        assert_eq!(trace.data_op_count(), N as usize + 1, "no event was lost");
        let mut engine = handle.take_stream_engine().expect("engine");
        let view = EventView::from_log(&trace);
        let report = engine.finalize(&view);
        assert_eq!(report.counts().dd, N as usize, "every transfer was seen");
        assert_live_matches(engine.take_findings(), &report);
    }

    /// The engine's counters, read under its lock *without* draining.
    fn engine_stats(handle: &ToolHandle) -> StreamBufferStats {
        let guard = handle.shared.engine.lock();
        guard
            .as_ref()
            .expect("streaming engine")
            .engine
            .buffer_stats()
    }

    /// Is every shard's pending queue empty?
    fn queues_are_empty(handle: &ToolHandle) -> bool {
        let shards = handle.shared.shards.lock().len();
        (0..shards).all(|ix| queued(handle, ix) == 0)
    }

    /// `n` sequential transfers of fresh content, ids and times from `base`.
    fn transfers(tool: &mut OmpDataPerfTool, base: u64, n: u64) {
        for id in base..base + n {
            let payload = id.to_le_bytes();
            let op = DataOpType::TransferToDevice;
            tool.on_data_op(&data_op(Endpoint::Begin, id, op, id * 10, None));
            tool.on_data_op(&data_op(Endpoint::End, id, op, id * 10 + 5, Some(&payload)));
        }
    }

    /// The number of events waiting in shard `ix`'s pending queue.
    fn queued(handle: &ToolHandle, ix: usize) -> usize {
        let shards = handle.shared.shards.lock();
        let shard = shards[ix].lock();
        let len = shard
            .pending
            .as_ref()
            .expect("streaming shard")
            .lock()
            .len();
        len
    }

    #[test]
    fn the_shard_ahead_drains_and_the_shard_behind_waits_for_the_cap() {
        const BATCH: u64 = DRAIN_BATCH as u64;
        const CAP: u64 = DEFER_CAP as u64;
        let (mut t0, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        let mut t1 = handle.fork_tool();
        let caps = CompilerProfile::LlvmClang.capabilities();
        t0.initialize(&caps);
        t1.initialize(&caps);
        // Shard 1 runs far ahead in virtual time; shard 0 alone holds
        // the merged watermark back.
        transfers(&mut t1, 1_000_000, 2);
        transfers(&mut t0, 0, BATCH);
        let stats = engine_stats(&handle);
        assert_eq!((stats.drains, stats.drained_events), (0, 0), "{stats:?}");
        assert_eq!(queued(&handle, 0), DRAIN_BATCH, "shard 0 leaves its batch");
        // Shard 1's queue fills its batch: that push sweeps its own
        // queue and shard 0's.
        transfers(&mut t1, 1_000_002, BATCH - 3);
        assert_eq!(engine_stats(&handle).drains, 0);
        transfers(&mut t1, 1_000_000 + BATCH - 1, 1);
        let stats = engine_stats(&handle);
        assert_eq!(
            (stats.drains, stats.drained_events),
            (1, 2 * BATCH),
            "{stats:?}"
        );
        assert!(queues_are_empty(&handle));
        // Left alone, the shard behind drains at the cap and not before.
        transfers(&mut t0, BATCH, CAP - 1);
        assert_eq!(engine_stats(&handle).drains, 1);
        assert_eq!(queued(&handle, 0), DEFER_CAP - 1);
        transfers(&mut t0, BATCH + CAP - 1, 1);
        let stats = engine_stats(&handle);
        assert_eq!(
            (stats.drains, stats.drained_events),
            (2, 2 * BATCH + CAP),
            "{stats:?}"
        );
        assert!(queues_are_empty(&handle));
        // Once the shard ahead finalizes, nothing is ahead of shard 0:
        // it drains at the batch again.
        t1.finalize(100_000_000);
        transfers(&mut t0, BATCH + CAP, BATCH - 1);
        assert_eq!(engine_stats(&handle).drains, 2);
        transfers(&mut t0, 2 * BATCH + CAP - 1, 1);
        let stats = engine_stats(&handle);
        assert_eq!(
            (stats.drains, stats.drained_events),
            (3, 3 * BATCH + CAP),
            "{stats:?}"
        );
        assert!(queues_are_empty(&handle));
    }

    /// One step of an explored drain schedule.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// `DRAIN_BATCH` transfers on one shard; a shard's last burst
        /// ends with its finalize.
        Burst(usize),
        /// A blocking observer drain (a findings tap).
        Observe,
    }

    /// Every interleaving of `bursts` bursts per shard: bare, and with
    /// one observer drain in each gap between two bursts.
    fn schedules(shards: usize, bursts: usize) -> Vec<Vec<Step>> {
        fn interleave(left: &mut [usize], prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
            if left.iter().all(|&n| n == 0) {
                out.push(prefix.clone());
            }
            for shard in 0..left.len() {
                if left[shard] > 0 {
                    left[shard] -= 1;
                    prefix.push(Step::Burst(shard));
                    interleave(left, prefix, out);
                    prefix.pop();
                    left[shard] += 1;
                }
            }
        }
        let mut bare = Vec::new();
        interleave(&mut vec![bursts; shards], &mut Vec::new(), &mut bare);
        let mut all = Vec::new();
        for schedule in bare {
            for gap in 0..schedule.len() {
                let mut observed = schedule.clone();
                if gap > 0 {
                    observed.insert(gap, Step::Observe);
                }
                all.push(observed);
            }
        }
        all
    }

    /// Drive real shards from this one thread through every schedule of
    /// [`schedules`], the last shard's clock ahead of the others' by a
    /// burst and a half (so which shard is behind depends on the
    /// schedule), and check after every step what the drain rule
    /// promises: the merged watermark never decreases, no queue exceeds
    /// [`DEFER_CAP`], and a burst leaves its shard's queue at or past
    /// [`DRAIN_BATCH`] only while that shard holds the merge back behind
    /// a live shard — decided here from the bounds the bursts publish,
    /// not from the watermark's own answer. At the end the live
    /// findings must equal the fused report's projection. Returns how
    /// many schedules ran and how many bursts left their batch queued.
    fn explore_drain_schedules(shards: usize, bursts: u64) -> (usize, usize) {
        use crate::detect::EventView;
        const BATCH: u64 = DRAIN_BATCH as u64;
        let ahead = 3 * BATCH * 10 / 2;
        let caps = CompilerProfile::LlvmClang.capabilities();
        let op = DataOpType::TransferToDevice;
        let schedules = schedules(shards, bursts as usize);
        let mut deferred = 0;
        for schedule in &schedules {
            let (t0, handle) = OmpDataPerfTool::new(ToolConfig {
                stream: true,
                ..Default::default()
            });
            let mut tools = vec![t0];
            tools.extend((1..shards).map(|_| handle.fork_tool()));
            for tool in &mut tools {
                tool.initialize(&caps);
            }
            let tap = handle.tap_stream_findings();
            let mut live = Vec::new();
            let mut done = vec![0u64; shards];
            // Each shard's published bound as the bursts move it: the
            // origin, then its latest End, then retired.
            let mut bound = vec![0u64; shards];
            let mut last_merged = None;
            for &step in schedule {
                match step {
                    Step::Observe => live.extend(tap.take()),
                    Step::Burst(shard) => {
                        let base = if shard == shards - 1 { ahead } else { 0 };
                        let first = done[shard] * BATCH;
                        for i in first..first + BATCH {
                            let (id, t) = ((shard as u64) << 32 | i, base + i * 10);
                            let payload = [(i % 7) as u8; 16];
                            let tool = &mut tools[shard];
                            tool.on_data_op(&data_op(Endpoint::Begin, id, op, t, None));
                            tool.on_data_op(&data_op(Endpoint::End, id, op, t + 5, Some(&payload)));
                        }
                        done[shard] += 1;
                        bound[shard] = base + (first + BATCH - 1) * 10 + 5;
                        let others = || (0..shards).filter(|&o| o != shard).map(|o| bound[o]);
                        let behind =
                            others().all(|b| b > bound[shard]) && others().any(|b| b != u64::MAX);
                        let left = queued(&handle, shard) >= DRAIN_BATCH;
                        assert!(
                            !left || behind,
                            "shard {shard} left its batch undrained, not behind: {schedule:?}"
                        );
                        deferred += usize::from(left);
                        if done[shard] == bursts {
                            tools[shard].finalize(u64::MAX);
                            bound[shard] = u64::MAX;
                        }
                    }
                }
                for ix in 0..shards {
                    assert!(queued(&handle, ix) <= DEFER_CAP, "{schedule:?}");
                }
                let merged = handle.shared.watermark.merged();
                assert!(merged >= last_merged, "watermark fell: {schedule:?}");
                last_merged = merged;
            }
            assert!(queues_are_empty(&handle), "{schedule:?}");
            live.extend(tap.take());
            let trace = handle.take_trace();
            let mut engine = handle.take_stream_engine().expect("engine");
            let report = engine.finalize(&EventView::from_log(&trace));
            live.extend(engine.take_findings());
            let mut projected: Vec<_> = report.stream_findings().collect();
            live.sort_unstable();
            projected.sort_unstable();
            assert!(!projected.is_empty(), "the bursts repeat content");
            assert_eq!(live, projected, "{schedule:?}");
        }
        (schedules.len(), deferred)
    }

    #[test]
    fn every_drain_schedule_of_two_shards_keeps_the_oracle() {
        // 8!/(4!·4!) = 70 interleavings, each bare or observed in 7 gaps.
        let (explored, deferred) = explore_drain_schedules(2, 4);
        assert_eq!(explored, 70 * 8);
        assert!(deferred > 0, "some shard behind must leave its batch");
    }

    #[test]
    fn every_drain_schedule_of_three_shards_keeps_the_oracle() {
        // 6!/(2!·2!·2!) = 90 interleavings, each bare or observed in 5 gaps.
        let (explored, deferred) = explore_drain_schedules(3, 2);
        assert_eq!(explored, 90 * 6);
        assert!(deferred > 0, "some shard behind must leave its batch");
    }

    #[test]
    fn observers_and_the_last_finalize_leave_nothing_queued() {
        let (mut t0, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        let mut t1 = handle.fork_tool();
        let caps = CompilerProfile::LlvmClang.capabilities();
        t0.initialize(&caps);
        t1.initialize(&caps);
        transfers(&mut t0, 0, 5);
        transfers(&mut t1, 100, 5);
        assert_eq!(engine_stats(&handle).drains, 0, "far below 512");
        // Every blocking observer drains both queues, whoever asks.
        assert_eq!(handle.stream_counts(), Some(IssueCounts::default()));
        assert!(queues_are_empty(&handle));
        assert_eq!(engine_stats(&handle).drained_events, 10);
        let tap = handle.tap_stream_findings();
        transfers(&mut t0, 5, 5);
        assert!(tap.take().is_empty());
        assert!(queues_are_empty(&handle));
        transfers(&mut t1, 105, 5);
        assert!(tap.try_take().is_empty());
        assert!(queues_are_empty(&handle));
        // A shard that finalizes first leaves its queue to the last one.
        transfers(&mut t0, 10, 5);
        transfers(&mut t1, 110, 5);
        t0.finalize(10_000);
        assert!(!queues_are_empty(&handle));
        t1.finalize(10_000);
        assert!(queues_are_empty(&handle));
        let stats = engine_stats(&handle);
        assert_eq!(stats.drained_events, 30, "{stats:?}");
        assert_eq!(stats.buffered_now, 0, "{stats:?}");
    }

    #[test]
    fn the_callback_drain_sees_the_current_clock() {
        // The End that fills a batch drains from the callback path — and
        // the watermark it snapshots already covers the edge that End
        // just closed.
        const BATCH: u64 = DRAIN_BATCH as u64;
        let (mut tool, handle) = streaming_tool();
        for batch in 0..3 {
            transfers(&mut tool, batch * BATCH, BATCH);
            let stats = engine_stats(&handle);
            assert_eq!(stats.drains, batch + 1, "{stats:?}");
            assert_eq!(stats.drained_events, (batch + 1) * BATCH, "{stats:?}");
            assert_eq!(stats.buffered_now, 0, "batch {batch}: {stats:?}");
        }
    }

    #[test]
    fn a_blocking_observer_sees_everything_decidable_now() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        let tap = handle.tap_stream_findings();
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let payload = vec![3u8; 64];
        let op = DataOpType::TransferToDevice;
        // Three transfers of one content, far below the drain mark: two
        // duplicates are decidable, and a tap decides them.
        for (id, t) in [(1u64, 0u64), (2, 20), (3, 40)] {
            tool.on_data_op(&data_op(Endpoint::Begin, id, op, t, None));
            tool.on_data_op(&data_op(Endpoint::End, id, op, t + 10, Some(&payload)));
        }
        let live = tap.take();
        assert_eq!(live.len(), 2, "{live:?}");
        // A fourth, still open, pins only what starts at or after it.
        tool.on_data_op(&data_op(Endpoint::Begin, 4, op, 60, None));
        assert!(tap.take().is_empty());
        assert_eq!(handle.stream_buffer_stats().unwrap().buffered_now, 0);
        tool.on_data_op(&data_op(Endpoint::End, 4, op, 70, Some(&payload)));
        assert_eq!(tap.take().len(), 1, "its End makes it decidable");
    }

    #[test]
    fn streaming_off_by_default() {
        let (_tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        assert!(!handle.streaming());
        assert!(handle.stream_counts().is_none());
        assert!(handle.stream_buffer_stats().is_none());
        assert!(handle.tap_stream_findings().take().is_empty());
        assert!(handle.take_stream_engine().is_none());
    }

    #[test]
    fn submit_pairs_become_kernel_records() {
        let (mut tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        tool.initialize(&CompilerProfile::LlvmClang.capabilities());
        let cb = |endpoint, time| SubmitCallback {
            endpoint,
            target_id: 9,
            device: DeviceId::target(0),
            requested_num_teams: 4,
            codeptr_ra: odp_model::CodePtr(0x99),
            time: SimTime(time),
        };
        tool.on_submit(&cb(Endpoint::Begin, 100));
        tool.on_submit(&cb(Endpoint::End, 400));
        let trace = handle.take_trace();
        let kernels = trace.kernel_events_sorted();
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].span.duration().as_nanos(), 300);
    }

    #[test]
    fn forked_shards_merge_into_one_deterministic_trace() {
        let (mut t0, handle) = OmpDataPerfTool::new(ToolConfig::default());
        let mut t1 = handle.fork_tool();
        let mut t2 = handle.fork_tool();
        assert_eq!(handle.shard_count(), 3);
        assert_eq!(t0.shard(), 0);
        assert_eq!(t1.shard(), 1);
        assert_eq!(t2.shard(), 2);
        let caps = CompilerProfile::LlvmClang.capabilities();
        t0.initialize(&caps);
        t1.initialize(&caps);
        t2.initialize(&caps);
        // Only one set of info lines despite three initializations.
        assert_eq!(
            handle
                .console_lines()
                .iter()
                .filter(|l| l.contains("OMPT interface version"))
                .count(),
            1
        );
        let payload = vec![5u8; 64];
        // All three shards record a transfer at the same virtual time.
        for (i, t) in [&mut t0, &mut t1, &mut t2].into_iter().enumerate() {
            let id = i as u64 + 1;
            t.on_data_op(&data_op(
                Endpoint::Begin,
                id,
                DataOpType::TransferToDevice,
                10,
                None,
            ));
            t.on_data_op(&data_op(
                Endpoint::End,
                id,
                DataOpType::TransferToDevice,
                20,
                Some(&payload),
            ));
        }
        t0.finalize(100);
        t1.finalize(100);
        t2.finalize(100);
        let trace = handle.take_trace();
        assert_eq!(trace.data_op_count(), 3);
        let events = trace.data_op_events_sorted();
        // Same start everywhere: ties break by shard id, deterministically.
        let ids: Vec<u64> = events.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![0, 1 << 32, 2 << 32]);
        assert_eq!(handle.hash_meter().bytes, 3 * 64);
    }

    #[test]
    fn forked_streaming_shards_feed_one_engine() {
        use crate::detect::{testutil::assert_live_matches, EventView};
        let (mut t0, handle) = OmpDataPerfTool::new(ToolConfig {
            stream: true,
            ..Default::default()
        });
        let mut t1 = handle.fork_tool();
        let caps = CompilerProfile::LlvmClang.capabilities();
        t0.initialize(&caps);
        t1.initialize(&caps);
        let payload = vec![3u8; 32];
        // Shard 0 sends content; shard 1 sends the same content to the
        // same device → a cross-shard duplicate the engine must see.
        for (t, id) in [(&mut t0, 1u64), (&mut t1, 2)] {
            t.on_data_op(&data_op(
                Endpoint::Begin,
                id,
                DataOpType::TransferToDevice,
                id * 10,
                None,
            ));
            t.on_data_op(&data_op(
                Endpoint::End,
                id,
                DataOpType::TransferToDevice,
                id * 10 + 5,
                Some(&payload),
            ));
        }
        t0.finalize(100);
        t1.finalize(100);
        let trace = handle.take_trace();
        let mut engine = handle.take_stream_engine().unwrap();
        let view = EventView::from_log(&trace);
        let report = engine.finalize(&view);
        assert_eq!(report.counts().dd, 1, "cross-shard duplicate");
        assert_live_matches(engine.take_findings(), &report);
    }
}
