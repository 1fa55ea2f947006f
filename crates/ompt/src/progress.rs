//! Stream-progress tracking for online tools.
//!
//! OMPT delivers end callbacks in *completion* order, while every
//! detection algorithm consumes events in *chronological start* order.
//! A tool that analyzes online therefore needs to know when an event's
//! position in the chronological order is settled: once no still-open
//! operation (and no operation yet to begin) can start at or before
//! time *t*, every buffered event starting at or before *t* is safe to
//! release.
//!
//! [`StreamClock`] computes that bound — the **watermark** — from the
//! begin/end callback edges the tool already receives. The runtime's
//! callback clock is monotonic, so a new operation can never begin
//! before the latest callback time; open operations pin the watermark
//! at their earliest begin time.
//!
//! # Multi-threaded runtimes: the merged watermark
//!
//! A multi-threaded runtime drives callbacks from N threads, each with
//! its own monotonic callback clock. No single [`StreamClock`] can see
//! them all without a lock on the callback fast path, so each thread
//! owns a clock and publishes its progress into one [`GlobalWatermark`]
//! slot — two relaxed-size atomics per shard, no lock anywhere:
//!
//! * `safe_below` — the smallest start time any *future* event from
//!   that thread can carry (its earliest open begin, or its current
//!   clock when idle);
//! * the thread's own tie-safe local watermark (used verbatim when only
//!   one shard exists, preserving single-threaded release semantics).
//!
//! The merged watermark is `min(safe_below) - 1` across registered
//! shards: strictly below every possible future start, so releases of
//! buffered events at or below it can never be overtaken by a
//! later-arriving event from *any* thread — even when two threads carry
//! events with identical start times (cross-thread ties break by shard
//! id, which only stays consistent if neither side is released early).
//! With a single shard the subtraction is unnecessary (same-thread ties
//! are ordered by monotonic sequence numbers) and the merge returns the
//! shard's own watermark unchanged.

use odp_model::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Tracks open operation begin times and the latest callback time, and
/// yields the reorder watermark for streaming consumers.
///
/// `open`/`close` must be called with matching begin times (the tool
/// already keeps per-id begin maps for duration pairing, so the close
/// time is at hand). Multiple operations may share a begin time.
#[derive(Clone, Debug, Default)]
pub struct StreamClock {
    /// Begin time → number of open operations that began then.
    open: BTreeMap<SimTime, u32>,
    /// Latest callback time observed (the runtime clock is monotonic).
    now: SimTime,
}

impl StreamClock {
    /// A fresh clock at time zero with nothing open.
    pub fn new() -> StreamClock {
        StreamClock::default()
    }

    /// Observe any callback edge at `t` (advances the monotonic clock).
    pub fn observe(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// An operation began at `t`.
    pub fn open(&mut self, t: SimTime) {
        self.observe(t);
        *self.open.entry(t).or_insert(0) += 1;
    }

    /// An operation that began at `begin` ended at `t`. Unmatched closes
    /// are ignored (mirrors the tool's tolerance of unmatched End
    /// callbacks).
    pub fn close(&mut self, begin: SimTime, t: SimTime) {
        self.observe(t);
        if let Some(n) = self.open.get_mut(&begin) {
            *n -= 1;
            if *n == 0 {
                self.open.remove(&begin);
            }
        }
    }

    /// Number of currently open operations.
    pub fn open_count(&self) -> usize {
        self.open.values().map(|&n| n as usize).sum()
    }

    /// The watermark: no future event can start at or before this time
    /// minus one... precisely, no event delivered after this call will
    /// have a start time strictly below the returned value, and any
    /// event starting exactly at it was recorded earlier (monotonic
    /// sequence numbers break the tie). Buffered events with
    /// `start <= watermark()` are safe to release in `(start, id)`
    /// order.
    pub fn watermark(&self) -> SimTime {
        match self.open.keys().next() {
            // An open op will eventually emit an event at its begin
            // time; nothing at or after that is settled yet. `- 1`
            // (saturating) keeps `start <= watermark` releases strictly
            // ahead of it.
            Some(&earliest) => SimTime(earliest.0.saturating_sub(1)),
            None => self.now,
        }
    }

    /// The smallest start time any *future* event observed through this
    /// clock can carry: the earliest open begin (those operations will
    /// emit events at their begin times), or the current clock when
    /// nothing is open (the monotonic callback clock forbids earlier
    /// begins, but permits one at exactly `now`). This is the
    /// per-thread contribution to [`GlobalWatermark`]: unlike
    /// [`StreamClock::watermark`], equality is *not* safe across
    /// threads, so the merge subtracts one.
    pub fn safe_below(&self) -> SimTime {
        match self.open.keys().next() {
            Some(&earliest) => earliest,
            None => self.now,
        }
    }
}

/// A registered publisher slot of a [`GlobalWatermark`] (one per
/// runtime thread / shard).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSlot(usize);

impl ShardSlot {
    /// The shard index this slot publishes for.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One shard's published progress. Padded to a cache line so two
/// threads publishing concurrently never false-share.
#[repr(align(64))]
struct Slot {
    /// The shard's [`StreamClock::safe_below`] bound.
    safe_below: AtomicU64,
    /// The shard's tie-safe [`StreamClock::watermark`].
    local: AtomicU64,
}

/// Merges per-thread [`StreamClock`] progress into one global reorder
/// watermark without any lock on the publish (callback) path.
///
/// Threads register once (at shard creation), then publish after every
/// clock edge; any thread may read [`GlobalWatermark::merged`] at any
/// time. A finished thread calls [`GlobalWatermark::retire`] so it
/// stops pinning the merge. All operations are wait-free.
pub struct GlobalWatermark {
    slots: Box<[Slot]>,
    registered: AtomicUsize,
}

impl std::fmt::Debug for GlobalWatermark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalWatermark")
            .field("registered", &self.registered.load(Ordering::Relaxed))
            .field("merged", &self.merged())
            .finish()
    }
}

impl GlobalWatermark {
    /// Default shard capacity (more than any plausible host thread
    /// count in the simulated runtime).
    pub const DEFAULT_SHARDS: usize = 64;

    /// A watermark with room for `capacity` shards.
    pub fn with_capacity(capacity: usize) -> GlobalWatermark {
        GlobalWatermark {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    // Unregistered slots must not pin the merge.
                    safe_below: AtomicU64::new(u64::MAX),
                    local: AtomicU64::new(u64::MAX),
                })
                .collect(),
            registered: AtomicUsize::new(0),
        }
    }

    /// Register the next shard. The slot starts pinned at time zero
    /// (the new thread may emit events from its clock's origin).
    /// Register every shard *before* the first event is published:
    /// once the merge has advanced, a late shard's early-time events
    /// would release out of order.
    ///
    /// # Panics
    /// When the fixed capacity is exhausted.
    pub fn register(&self) -> ShardSlot {
        let ix = self.registered.fetch_add(1, Ordering::AcqRel);
        assert!(
            ix < self.slots.len(),
            "GlobalWatermark capacity ({}) exhausted",
            self.slots.len()
        );
        self.slots[ix].safe_below.store(0, Ordering::Release);
        self.slots[ix].local.store(0, Ordering::Release);
        ShardSlot(ix)
    }

    /// Number of registered shards.
    pub fn shard_count(&self) -> usize {
        self.registered
            .load(Ordering::Acquire)
            .min(self.slots.len())
    }

    /// Publish `clock`'s progress for `slot`. Call *after* the event
    /// that closed (or observed) the edge has been queued for the
    /// consumer: the merge promises that every event at or below the
    /// merged watermark has already been handed over, and that promise
    /// is exactly "queue, then publish" in program order.
    pub fn publish(&self, slot: ShardSlot, clock: &StreamClock) {
        let s = &self.slots[slot.0];
        s.safe_below.store(clock.safe_below().0, Ordering::Release);
        s.local.store(clock.watermark().0, Ordering::Release);
    }

    /// The shard finished for good: stop pinning the merge.
    pub fn retire(&self, slot: ShardSlot) {
        let s = &self.slots[slot.0];
        s.safe_below.store(u64::MAX, Ordering::Release);
        s.local.store(u64::MAX, Ordering::Release);
    }

    /// The merged watermark: buffered events with `start <= merged()`
    /// are safe to release in `(start, id)` order, with `id` encoding
    /// `(shard, per-shard seq)` so cross-shard ties break
    /// deterministically. `None` means nothing is settled yet — some
    /// shard may still emit an event at time zero, and no watermark can
    /// be strictly below that.
    pub fn merged(&self) -> Option<SimTime> {
        let n = self.shard_count();
        if n == 1 {
            // Single shard: same-thread ties are ordered by monotonic
            // sequence numbers, so the local (tie-safe) watermark is
            // exact — identical to the single-threaded StreamClock path.
            return Some(SimTime(self.slots[0].local.load(Ordering::Acquire)));
        }
        // Scan the whole slot array, not just `registered` slots: a
        // register() whose count increment is visible before its slot
        // reset would otherwise be read as retired (u64::MAX) and let
        // the merge advance past the brand-new shard. Unregistered
        // slots hold u64::MAX and never pin.
        let mut min = u64::MAX;
        for s in self.slots.iter() {
            min = min.min(s.safe_below.load(Ordering::Acquire));
        }
        // Another shard may still emit an event starting exactly at
        // `min`; releasing at `min` could let that event sort *before*
        // an already-released same-start event with a larger shard id.
        // Strictly-below is the only safe release bound — and when some
        // shard is still pinned at time zero there is none (a saturated
        // `0 - 1 = 0` here would silently re-admit the exact race this
        // type exists to prevent).
        (min > 0).then(|| SimTime(min - 1))
    }
}

/// Detects a wedged merged watermark and authorizes timeout-based
/// forced releases.
///
/// A shard that stops delivering End callbacks (a crashed runtime
/// thread, a dropped End in a lossy transport) pins the merged
/// watermark forever: every other shard's buffered events sit behind
/// the stalled shard's earliest open begin and the drain thread spins
/// without progress. The detector watches `(merged watermark, buffered
/// event count)` snapshots from the drain loop; when the watermark has
/// not advanced for `timeout` of wall-clock time while events remain
/// buffered, [`StallDetector::check`] returns `true` and the consumer
/// may force-release its buffer. Forced releases abandon the ordering
/// guarantee the watermark provides, so consumers must tag everything
/// released this way as degraded evidence.
///
/// The timer restarts on every watermark advance, on every buffer
/// drain, and after each forced release (so repeated stalls are spaced
/// at least `timeout` apart).
#[derive(Debug)]
pub struct StallDetector {
    timeout: std::time::Duration,
    last_merged: Option<SimTime>,
    since: std::time::Instant,
    forced: u64,
}

impl StallDetector {
    /// A detector that declares a stall after `timeout` without
    /// watermark progress.
    pub fn new(timeout: std::time::Duration) -> StallDetector {
        StallDetector {
            timeout,
            last_merged: None,
            since: std::time::Instant::now(),
            forced: 0,
        }
    }

    /// Feed one drain-loop snapshot: the current merged watermark and
    /// the number of events still buffered behind it. Returns `true`
    /// when the stream is stalled — the watermark has not advanced for
    /// at least the timeout while events remain buffered — in which
    /// case the caller should force-release and report the release via
    /// [`StallDetector::force_released`].
    pub fn check(&mut self, merged: Option<SimTime>, buffered: usize) -> bool {
        if merged > self.last_merged || buffered == 0 {
            self.last_merged = self.last_merged.max(merged);
            self.since = std::time::Instant::now();
            return false;
        }
        self.since.elapsed() >= self.timeout
    }

    /// Record a forced release and restart the stall timer.
    pub fn force_released(&mut self) {
        self.forced += 1;
        self.since = std::time::Instant::now();
    }

    /// Number of forced releases recorded so far.
    pub fn forced_count(&self) -> u64 {
        self.forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_clock_follows_observations() {
        let mut c = StreamClock::new();
        assert_eq!(c.watermark(), SimTime(0));
        c.observe(SimTime(100));
        assert_eq!(c.watermark(), SimTime(100));
        c.observe(SimTime(50)); // non-monotonic observations are clamped
        assert_eq!(c.watermark(), SimTime(100));
    }

    #[test]
    fn open_ops_pin_the_watermark() {
        let mut c = StreamClock::new();
        c.open(SimTime(10));
        c.open(SimTime(30));
        c.observe(SimTime(90));
        assert_eq!(c.watermark(), SimTime(9), "held below the earliest open");
        c.close(SimTime(10), SimTime(95));
        assert_eq!(c.watermark(), SimTime(29));
        c.close(SimTime(30), SimTime(99));
        assert_eq!(c.watermark(), SimTime(99), "released to the clock");
        assert_eq!(c.open_count(), 0);
    }

    #[test]
    fn shared_begin_times_are_counted() {
        let mut c = StreamClock::new();
        c.open(SimTime(5));
        c.open(SimTime(5));
        c.close(SimTime(5), SimTime(20));
        assert_eq!(c.watermark(), SimTime(4), "one of the two is still open");
        c.close(SimTime(5), SimTime(25));
        assert_eq!(c.watermark(), SimTime(25));
    }

    #[test]
    fn unmatched_close_is_ignored() {
        let mut c = StreamClock::new();
        c.close(SimTime(5), SimTime(10));
        assert_eq!(c.watermark(), SimTime(10));
    }

    #[test]
    fn safe_below_tracks_earliest_open_then_now() {
        let mut c = StreamClock::new();
        assert_eq!(c.safe_below(), SimTime(0));
        c.observe(SimTime(40));
        assert_eq!(c.safe_below(), SimTime(40), "idle: future begins >= now");
        c.open(SimTime(50));
        c.open(SimTime(60));
        c.observe(SimTime(90));
        assert_eq!(c.safe_below(), SimTime(50), "pinned at the earliest open");
        c.close(SimTime(50), SimTime(95));
        assert_eq!(c.safe_below(), SimTime(60));
        c.close(SimTime(60), SimTime(99));
        assert_eq!(c.safe_below(), SimTime(99));
    }

    #[test]
    fn single_shard_merge_is_the_local_watermark() {
        let g = GlobalWatermark::with_capacity(4);
        let slot = g.register();
        let mut c = StreamClock::new();
        assert_eq!(g.merged(), Some(SimTime(0)), "single shard at origin");
        c.observe(SimTime(100));
        g.publish(slot, &c);
        // Idle single shard: events at exactly t=100 may release (ties
        // are same-thread, ordered by sequence number).
        assert_eq!(g.merged(), Some(SimTime(100)));
        c.open(SimTime(120));
        g.publish(slot, &c);
        assert_eq!(g.merged(), Some(SimTime(119)));
    }

    #[test]
    fn multi_shard_merge_is_strictly_below_every_future_start() {
        let g = GlobalWatermark::with_capacity(4);
        let a = g.register();
        let b = g.register();
        let mut ca = StreamClock::new();
        let mut cb = StreamClock::new();
        // Both shards still at their origin: nothing is settled — an
        // event at time zero may yet arrive from either, and no
        // watermark is strictly below zero.
        assert_eq!(g.merged(), None);
        ca.observe(SimTime(200));
        cb.observe(SimTime(100));
        g.publish(a, &ca);
        g.publish(b, &cb);
        // Shard b could still emit an event starting exactly at 100:
        // the merge stays strictly below it.
        assert_eq!(g.merged(), Some(SimTime(99)));
        cb.open(SimTime(150));
        cb.observe(SimTime(400));
        g.publish(b, &cb);
        assert_eq!(g.merged(), Some(SimTime(149)), "open op pins its shard");
        cb.close(SimTime(150), SimTime(410));
        g.publish(b, &cb);
        assert_eq!(g.merged(), Some(SimTime(199)), "now bounded by shard a");
    }

    #[test]
    fn unregistered_slots_and_retired_shards_do_not_pin() {
        let g = GlobalWatermark::with_capacity(8);
        let a = g.register();
        let b = g.register();
        let mut ca = StreamClock::new();
        ca.observe(SimTime(500));
        g.publish(a, &ca);
        // Shard b registered but never ran: it may still emit at time
        // zero, so nothing at all is settled.
        assert_eq!(g.merged(), None);
        g.retire(b);
        assert_eq!(
            g.merged(),
            Some(SimTime(499)),
            "retired shard releases the pin"
        );
        g.retire(a);
        assert!(
            g.merged() >= Some(SimTime(499)),
            "fully retired: nothing pins"
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn register_beyond_capacity_panics() {
        let g = GlobalWatermark::with_capacity(1);
        let _ = g.register();
        let _ = g.register();
    }

    #[test]
    fn stall_detector_fires_only_without_progress() {
        let mut d = StallDetector::new(std::time::Duration::ZERO);
        // Progress (watermark advance) always resets, even with a zero
        // timeout.
        assert!(!d.check(Some(SimTime(10)), 5));
        assert!(!d.check(Some(SimTime(20)), 5));
        // Same watermark, events buffered, timeout elapsed: stalled.
        assert!(d.check(Some(SimTime(20)), 5));
        d.force_released();
        assert_eq!(d.forced_count(), 1);
        // An empty buffer is never a stall — nothing is held back.
        assert!(!d.check(Some(SimTime(20)), 0));
    }

    #[test]
    fn stall_detector_waits_out_the_timeout() {
        let mut d = StallDetector::new(std::time::Duration::from_secs(3600));
        assert!(!d.check(None, 3));
        assert!(
            !d.check(None, 3),
            "no progress, but the timeout has not elapsed"
        );
        assert_eq!(d.forced_count(), 0);
    }

    #[test]
    fn concurrent_merge_is_monotonic() {
        // Per-shard `safe_below` only ever grows (opens happen at or
        // after `now`, closes move the pin forward), so the merged
        // watermark a concurrent reader observes must be monotonic —
        // the property the consumer's snapshot-then-drain protocol
        // leans on.
        use std::sync::Arc;
        let g = Arc::new(GlobalWatermark::with_capacity(4));
        let slots: Vec<ShardSlot> = (0..3).map(|_| g.register()).collect();
        std::thread::scope(|s| {
            for slot in slots {
                let g = g.clone();
                s.spawn(move || {
                    let mut c = StreamClock::new();
                    // Shrunk under miri; the atomics are still exercised
                    // across threads, just over fewer publishes.
                    let top = if cfg!(miri) { 400u64 } else { 20_000u64 };
                    for t in (0..top).step_by(2) {
                        c.open(SimTime(t));
                        g.publish(slot, &c);
                        c.close(SimTime(t), SimTime(t + 1));
                        g.publish(slot, &c);
                    }
                    g.retire(slot);
                });
            }
            let g2 = g.clone();
            s.spawn(move || {
                let mut last = None;
                let reads = if cfg!(miri) { 1_000 } else { 50_000 };
                for _ in 0..reads {
                    let m = g2.merged();
                    assert!(m >= last, "merged watermark went backwards");
                    last = m;
                }
            });
        });
    }
}
