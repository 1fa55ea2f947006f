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
//! A thread's bound — the **watermark** — follows from two facts the
//! tool already keeps: the begin times of its open operations (the
//! table it pairs Begins with Ends in) and the latest callback time it
//! has seen. The runtime's callback clock is monotonic, so a new
//! operation can never begin before the latest callback time; open
//! operations pin the watermark at their earliest begin time.
//!
//! # Multi-threaded runtimes: the merged watermark
//!
//! A multi-threaded runtime drives callbacks from N threads, each with
//! its own monotonic callback clock. No one thread can see them all
//! without a lock on the callback fast path, so each thread publishes
//! its bound into its own [`GlobalWatermark`] slot — two relaxed-size
//! atomics per shard, no lock anywhere:
//!
//! * `safe_below` — the smallest start time any *future* event from
//!   that thread can carry (its earliest open begin, or its latest
//!   callback time when idle);
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
//!
//! The same slots also say which shard pins the merge:
//! [`GlobalWatermark::holds_back`] is true for a shard strictly behind
//! every other while some other shard is still live. A collector uses
//! it to leave its drains to the shard ahead; it never changes what the
//! merge releases.

use odp_model::SimTime;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    /// The smallest start time a future event of the shard can carry.
    safe_below: AtomicU64,
    /// The shard's tie-safe watermark: no later event starts below it,
    /// and one starting exactly at it was recorded earlier (monotonic
    /// sequence numbers break the tie).
    local: AtomicU64,
}

/// Merges per-thread progress into one global reorder watermark
/// without any lock on the publish (callback) path.
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
    fn shard_count(&self) -> usize {
        self.registered
            .load(Ordering::Acquire)
            .min(self.slots.len())
    }

    /// Publish `slot`'s bound after a clock edge: `earliest_open` is the
    /// earliest begin time among the shard's open operations, `latest`
    /// the latest callback time it has seen. Call *after* the event that
    /// closed (or observed) the edge has been queued for the consumer:
    /// the merge promises that every event at or below the merged
    /// watermark has already been handed over, and that promise is
    /// exactly "queue, then publish" in program order.
    pub fn publish(&self, slot: ShardSlot, earliest_open: Option<SimTime>, latest: SimTime) {
        let s = &self.slots[slot.0];
        // An open op will eventually emit an event at its begin time;
        // nothing at or after that is settled yet. `- 1` (saturating)
        // keeps the single-shard `start <= watermark` releases strictly
        // ahead of it. Equality is *not* safe across threads, so the
        // merge subtracts one from `safe_below` itself.
        let (safe_below, local) = match earliest_open {
            Some(t) => (t, SimTime(t.0.saturating_sub(1))),
            None => (latest, latest),
        };
        s.safe_below.store(safe_below.0, Ordering::Release);
        s.local.store(local.0, Ordering::Release);
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
            // exact.
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

    /// Does `slot` alone hold the merged watermark back while some other
    /// live shard is ahead of it? True when `slot`'s `safe_below` is
    /// strictly below every other registered shard's and at least one of
    /// those is not retired. A single shard, a shard tied with another
    /// for the minimum, and a retired shard never hold back; retired and
    /// unregistered slots never count as ahead. Reads the published
    /// slots only — no lock, no clock — so a callback may ask on every
    /// push. The answer is advisory: it decides who pays for a drain,
    /// never what a drain may release.
    pub fn holds_back(&self, slot: ShardSlot) -> bool {
        let own = self.slots[slot.0].safe_below.load(Ordering::Acquire);
        let mut ahead = false;
        // A slot registered after the count was read is read as retired
        // (or not at all): at worst the caller drains when it need not.
        for (ix, s) in self.slots[..self.shard_count()].iter().enumerate() {
            if ix == slot.0 {
                continue;
            }
            match s.safe_below.load(Ordering::Acquire) {
                other if other <= own => return false,
                u64::MAX => {}
                _ => ahead = true,
            }
        }
        ahead
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
}

impl StallDetector {
    /// A detector that declares a stall after `timeout` without
    /// watermark progress.
    pub fn new(timeout: std::time::Duration) -> StallDetector {
        StallDetector {
            timeout,
            last_merged: None,
            since: std::time::Instant::now(),
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
        self.since = std::time::Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_clock_follows_observations() {
        // Nothing open: a shard's bound is its latest callback time.
        let g = GlobalWatermark::with_capacity(4);
        let slot = g.register();
        for t in [100, 250, 400] {
            g.publish(slot, None, SimTime(t));
            assert_eq!(g.merged(), Some(SimTime(t)));
        }
    }

    #[test]
    fn open_ops_pin_the_watermark() {
        let g = GlobalWatermark::with_capacity(4);
        let slot = g.register();
        g.publish(slot, Some(SimTime(10)), SimTime(90));
        assert_eq!(g.merged(), Some(SimTime(9)), "held below the earliest open");
        g.publish(slot, Some(SimTime(30)), SimTime(95));
        assert_eq!(g.merged(), Some(SimTime(29)));
        g.publish(slot, None, SimTime(99));
        assert_eq!(g.merged(), Some(SimTime(99)), "released to the clock");
    }

    #[test]
    fn safe_below_tracks_earliest_open_then_now() {
        // With a second, retired shard the merge reads this shard's
        // `safe_below`, one below.
        let g = GlobalWatermark::with_capacity(4);
        let a = g.register();
        g.retire(g.register());
        assert_eq!(g.merged(), None, "at the origin");
        g.publish(a, None, SimTime(40));
        assert_eq!(g.merged(), Some(SimTime(39)), "idle: future begins >= now");
        g.publish(a, Some(SimTime(50)), SimTime(90));
        assert_eq!(g.merged(), Some(SimTime(49)), "pinned at the earliest open");
        g.publish(a, None, SimTime(99));
        assert_eq!(g.merged(), Some(SimTime(98)));
    }

    #[test]
    fn single_shard_merge_is_the_local_watermark() {
        let g = GlobalWatermark::with_capacity(4);
        let slot = g.register();
        assert_eq!(g.merged(), Some(SimTime(0)), "single shard at origin");
        g.publish(slot, None, SimTime(100));
        // Idle single shard: events at exactly t=100 may release (ties
        // are same-thread, ordered by sequence number).
        assert_eq!(g.merged(), Some(SimTime(100)));
        g.publish(slot, Some(SimTime(120)), SimTime(130));
        assert_eq!(g.merged(), Some(SimTime(119)), "held below the open op");
        g.publish(slot, Some(SimTime(0)), SimTime(130));
        assert_eq!(g.merged(), Some(SimTime(0)), "saturates at the origin");
    }

    #[test]
    fn multi_shard_merge_is_strictly_below_every_future_start() {
        let g = GlobalWatermark::with_capacity(4);
        let a = g.register();
        let b = g.register();
        // Both shards still at their origin: nothing is settled — an
        // event at time zero may yet arrive from either, and no
        // watermark is strictly below zero.
        assert_eq!(g.merged(), None);
        g.publish(a, None, SimTime(200));
        g.publish(b, None, SimTime(100));
        // Shard b could still emit an event starting exactly at 100:
        // the merge stays strictly below it.
        assert_eq!(g.merged(), Some(SimTime(99)));
        g.publish(b, Some(SimTime(150)), SimTime(400));
        assert_eq!(g.merged(), Some(SimTime(149)), "open op pins its shard");
        g.publish(b, None, SimTime(410));
        assert_eq!(g.merged(), Some(SimTime(199)), "now bounded by shard a");
    }

    #[test]
    fn unregistered_slots_and_retired_shards_do_not_pin() {
        let g = GlobalWatermark::with_capacity(8);
        let a = g.register();
        let b = g.register();
        g.publish(a, None, SimTime(500));
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
    fn a_single_shard_never_holds_back() {
        let g = GlobalWatermark::with_capacity(4);
        let a = g.register();
        assert!(!g.holds_back(a), "at the origin");
        g.publish(a, Some(SimTime(10)), SimTime(90));
        assert!(!g.holds_back(a), "pinned by its own open op");
        g.publish(a, None, SimTime(500));
        assert!(!g.holds_back(a));
    }

    #[test]
    fn the_shard_strictly_behind_a_live_shard_holds_back() {
        let g = GlobalWatermark::with_capacity(4);
        let a = g.register();
        let b = g.register();
        let c = g.register();
        assert!(
            [a, b, c].iter().all(|&s| !g.holds_back(s)),
            "all tied at the origin"
        );
        g.publish(a, None, SimTime(100));
        g.publish(b, None, SimTime(100));
        g.publish(c, None, SimTime(300));
        assert!(
            [a, b, c].iter().all(|&s| !g.holds_back(s)),
            "a and b tie for the minimum: advancing either alone moves nothing"
        );
        g.publish(b, Some(SimTime(50)), SimTime(200));
        assert!(g.holds_back(b), "b's open op pins the merge");
        assert!(!g.holds_back(a) && !g.holds_back(c));
        g.publish(b, None, SimTime(200));
        assert!(g.holds_back(a), "b and c are both ahead of a");
        assert!(!g.holds_back(b) && !g.holds_back(c));
    }

    #[test]
    fn retired_and_unregistered_slots_never_count_as_ahead() {
        let g = GlobalWatermark::with_capacity(8);
        let a = g.register();
        let b = g.register();
        g.publish(a, None, SimTime(100));
        g.publish(b, None, SimTime(900));
        assert!(g.holds_back(a));
        g.retire(b);
        assert!(!g.holds_back(a), "b is done; six slots were never used");
        assert!(!g.holds_back(b), "a retired shard holds nothing back");
        g.retire(a);
        assert!(!g.holds_back(a) && !g.holds_back(b));
    }

    #[test]
    fn holding_back_changes_once_as_a_racing_publisher_passes() {
        // Shard a sits idle at 1000 while shard b's publisher runs from
        // 0 past it. Every bound b publishes only grows, so a reader
        // sees b hold back, then a, and never the other way round.
        use std::sync::Arc;
        let g = Arc::new(GlobalWatermark::with_capacity(4));
        let a = g.register();
        let b = g.register();
        g.publish(a, None, SimTime(1_000));
        std::thread::scope(|s| {
            let g1 = g.clone();
            s.spawn(move || {
                let step = if cfg!(miri) { 50 } else { 1 };
                for t in (0..2_000u64).step_by(step) {
                    g1.publish(b, Some(SimTime(t)), SimTime(t));
                    g1.publish(b, None, SimTime(t + 1));
                }
            });
            let g2 = g.clone();
            s.spawn(move || {
                let (mut a_seen, mut b_cleared) = (false, false);
                let reads = if cfg!(miri) { 500 } else { 50_000 };
                for _ in 0..reads {
                    let (a_back, b_back) = (g2.holds_back(a), g2.holds_back(b));
                    assert!(!(a_back && b_back), "only one shard can be strictly behind");
                    assert!(!a_seen || a_back, "a held back, then stopped");
                    assert!(
                        !b_cleared || !b_back,
                        "b stopped holding back, then resumed"
                    );
                    a_seen |= a_back;
                    b_cleared |= !b_back;
                }
            });
        });
        assert!(g.holds_back(a) && !g.holds_back(b), "b ended at 2000");
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
    }

    #[test]
    fn concurrent_merge_is_monotonic() {
        // Per-shard `safe_below` only ever grows (opens happen at or
        // after the latest edge, closes move the pin forward), so the
        // merged watermark a concurrent reader observes must be
        // monotonic — the property the consumer's snapshot-then-drain
        // protocol leans on.
        use std::sync::Arc;
        let g = Arc::new(GlobalWatermark::with_capacity(4));
        let slots: Vec<ShardSlot> = (0..3).map(|_| g.register()).collect();
        std::thread::scope(|s| {
            for slot in slots {
                let g = g.clone();
                s.spawn(move || {
                    // Shrunk under miri; the atomics are still exercised
                    // across threads, just over fewer publishes.
                    let top = if cfg!(miri) { 400u64 } else { 20_000u64 };
                    for t in (0..top).step_by(2) {
                        g.publish(slot, Some(SimTime(t)), SimTime(t));
                        g.publish(slot, None, SimTime(t + 1));
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
