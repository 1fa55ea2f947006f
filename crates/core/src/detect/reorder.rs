//! The shard-run reorder pipeline behind [`crate::detect::StreamingEngine`].
//!
//! Events reach the streaming engine in *completion* order, but every
//! detector's precondition is chronological `(start, id, family)` order.
//! The engine used to repair that with a global `BinaryHeap`: O(log n)
//! sifts per event, each comparison re-deriving the sort key from a
//! ~96-byte event — measurably the streaming hot path's bottleneck once
//! collection itself went lock-free.
//!
//! This module exploits what the heap ignored: events arrive from
//! per-shard SPSC rings, and within one shard completion order is
//! *near*-sorted by start time (a shard's operations mostly retire in
//! the order they began; only genuinely overlapping spans invert). So:
//!
//! ```text
//!   shard 0 ──append──▶ [run lane 0]  (sorted append-only run)
//!   shard 1 ──append──▶ [run lane 1]  keys: Vec<SortKey>, entries arena
//!   shard k ──append──▶ [run lane k]  head cursor, batch retirement
//!        │
//!        └─inversion──▶ [side pocket] (tiny BinaryHeap, counted)
//!
//!   release: k-way loser-tree merge over lane heads + pocket head,
//!            gated by the watermark — O(log k) per event, k = shards+1,
//!            with keys compared as plain 17-byte tuples (no event touch)
//! ```
//!
//! * **Run lanes.** One per shard (shard = the event id's high 32 bits,
//!   see `TraceLog::merge_shards`). An arriving event whose key is ≥ the
//!   lane's tail key appends to the lane — the overwhelmingly common
//!   case, one bounds check and two `Vec` pushes. Keys and entries live
//!   in parallel arenas consumed through a head cursor; when a lane
//!   drains completely the arenas are cleared in place (*batch
//!   retirement* — the allocation is reused, nothing shifts), and a
//!   long-lived backlog is compacted once the consumed prefix exceeds
//!   the live suffix, so memory stays proportional to what is buffered.
//! * **Side pocket.** A genuine intra-shard inversion (an async span
//!   completing after a later-starting one) would break the lane's run
//!   invariant, so it goes to a small heap instead, counted in
//!   [`RunMergeBuffer::inversions`] — the stat that tells you whether a
//!   workload actually is near-sorted (steady-state traces: ~0–1%).
//! * **Loser tree.** Releasing drains the global minimum across lanes +
//!   pocket while it passes the caller's gate (the watermark). A
//!   tournament loser tree over the source heads makes that O(log k)
//!   comparisons per pop with k tiny; after a batch of appends the tree
//!   is rebuilt once (`O(k)`), so a batch costs one rebuild plus one
//!   replay path per released event. Ties on identical keys break by
//!   shard id, keeping the merge deterministic even for adversarial
//!   traces with colliding event ids.
//!
//! The pipeline releases *exactly* the sorted order the heap released —
//! the streaming differential and the proptest equivalence suite
//! (`reorder_equivalence.rs`) hold it to a literal `BinaryHeap` oracle.

use odp_model::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Chronological release key: `(start, event id, family)` — the exact
/// key the trace log's hydration sorts by (family 0 = data op,
/// 1 = kernel; families tie arbitrarily, ids are unique per shard).
pub type SortKey = (SimTime, u64, u8);

/// Lane index of the side pocket inside the merge (always the last
/// tournament source).
const NO_SOURCE: u32 = u32::MAX;

/// A pocketed inversion: ordered by `(key, shard)` so the pocket's head
/// compares exactly like a lane head.
#[derive(Debug)]
struct PocketEntry<T> {
    key: SortKey,
    shard: u32,
    value: T,
}

impl<T> PartialEq for PocketEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.shard) == (other.key, other.shard)
    }
}
impl<T> Eq for PocketEntry<T> {}
impl<T> PartialOrd for PocketEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for PocketEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.shard).cmp(&(other.key, other.shard))
    }
}

/// One shard's in-order run: parallel key/entry arenas consumed through
/// `head`. The run invariant: `keys[head..]` is sorted (ascending).
#[derive(Debug)]
struct RunLane<T> {
    shard: u32,
    keys: Vec<SortKey>,
    entries: Vec<Option<T>>,
    head: usize,
}

impl<T> RunLane<T> {
    fn new(shard: u32) -> RunLane<T> {
        RunLane {
            shard,
            keys: Vec::new(),
            entries: Vec::new(),
            head: 0,
        }
    }

    #[inline]
    fn head_key(&self) -> Option<SortKey> {
        self.keys.get(self.head).copied()
    }

    /// Can `key` extend the run? (Empty lanes accept anything: the merge
    /// orders across lanes, a fresh run needs no relation to retired ones.)
    #[inline]
    fn accepts(&self, key: SortKey) -> bool {
        self.keys.last().is_none_or(|&tail| key >= tail)
    }

    #[inline]
    fn push(&mut self, key: SortKey, value: T) {
        debug_assert!(self.accepts(key), "run invariant violated");
        self.keys.push(key);
        self.entries.push(Some(value));
    }

    fn pop(&mut self) -> Option<T> {
        let value = self.entries.get_mut(self.head)?.take();
        self.head += 1;
        if self.head == self.keys.len() {
            // Batch retirement: the whole run was consumed — reset the
            // arenas in place, keeping their allocations for the next run.
            self.keys.clear();
            self.entries.clear();
            self.head = 0;
        } else if self.head > 64 && self.head * 2 > self.keys.len() {
            // A long-lived backlog: compact once the consumed prefix
            // outweighs the live suffix (amortized O(1) per event).
            self.keys.drain(..self.head);
            self.entries.drain(..self.head);
            self.head = 0;
        }
        value
    }
}

/// An exhausted source's stand-in key: compares after every real
/// `(key, shard)`, so `NO_SOURCE` loses every match by plain tuple
/// comparison — the tree never calls back into `key_of` during a match.
const MAX_KEY: (SortKey, u32) = ((SimTime(u64::MAX), u64::MAX, u8::MAX), u32::MAX);

/// Tournament loser tree over `sources` heads (lanes + pocket): slot 0
/// holds the overall winner, internal nodes 1..m hold the loser of the
/// match played there — each with its `(key, shard)` cached inline, so a
/// match is one tuple comparison (no callback into the lanes). Extracting
/// the winner replays one leaf-to-root path (`O(log k)`, exactly one
/// `key_of` call for the popped source's new head); appends invalidate
/// the tree, which is rebuilt once per release batch (`O(k)`).
#[derive(Debug, Default)]
struct LoserTree {
    /// Leaf count (power of two ≥ sources; 0 = not built).
    m: usize,
    /// Loser source at each internal node; `node[0]` = winner.
    node: Vec<u32>,
    /// The matching source's cached `(key, shard)`.
    key: Vec<(SortKey, u32)>,
    scratch: Vec<(u32, (SortKey, u32))>,
}

impl LoserTree {
    fn rebuild(&mut self, sources: usize, key_of: &impl Fn(u32) -> Option<(SortKey, u32)>) {
        let m = sources.next_power_of_two().max(1);
        self.m = m;
        self.node.clear();
        self.node.resize(m, NO_SOURCE);
        self.key.clear();
        self.key.resize(m, MAX_KEY);
        self.scratch.clear();
        self.scratch.resize(2 * m, (NO_SOURCE, MAX_KEY));
        for (i, w) in self.scratch[m..].iter_mut().enumerate() {
            if i < sources {
                if let Some(k) = key_of(i as u32) {
                    *w = (i as u32, k);
                }
            }
        }
        for j in (1..m).rev() {
            let (a, b) = (self.scratch[2 * j], self.scratch[2 * j + 1]);
            let (w, l) = if a.1 < b.1 { (a, b) } else { (b, a) };
            self.scratch[j] = w;
            self.node[j] = l.0;
            self.key[j] = l.1;
        }
        self.node[0] = self.scratch[1].0;
        self.key[0] = self.scratch[1].1;
    }

    #[inline]
    fn winner(&self) -> u32 {
        self.node[0]
    }

    /// The winner's cached `(key, shard)` (valid while the tree is clean).
    #[inline]
    fn winner_key(&self) -> (SortKey, u32) {
        self.key[0]
    }

    /// Source `s`'s head changed (popped or exhausted): replay its path.
    #[inline]
    fn replay(&mut self, s: u32, key_of: &impl Fn(u32) -> Option<(SortKey, u32)>) {
        let mut cur = match key_of(s) {
            Some(k) => (s, k),
            None => (NO_SOURCE, MAX_KEY),
        };
        let mut j = (self.m + s as usize) >> 1;
        while j >= 1 {
            if self.key[j] < cur.1 {
                std::mem::swap(&mut cur.0, &mut self.node[j]);
                std::mem::swap(&mut cur.1, &mut self.key[j]);
            }
            j >>= 1;
        }
        self.node[0] = cur.0;
        self.key[0] = cur.1;
    }
}

/// The shard-run reorder buffer: push events keyed `(start, id, family)`
/// tagged with their shard, pop them back in global sorted order through
/// a caller-supplied gate (the watermark).
///
/// Generic over the payload so the bench suite can race it against a
/// `BinaryHeap` oracle without constructing full events.
#[derive(Debug)]
pub struct RunMergeBuffer<T> {
    lanes: Vec<RunLane<T>>,
    /// Direct-mapped shard → lane table for small shard ids (the
    /// overwhelming case: shard ids are consecutive thread indices).
    lane_of_small: Vec<u32>,
    /// Fallback for adversarial shard ids beyond the direct table.
    lane_of_large: Vec<(u32, u32)>,
    pocket: BinaryHeap<Reverse<PocketEntry<T>>>,
    tree: LoserTree,
    /// Sources (lanes or pocket membership) changed since the last
    /// rebuild; the next pop rebuilds once.
    dirty: bool,
    pending: usize,
    inversions: u64,
    pocket_peak: usize,
}

/// Largest shard id served by the direct-mapped lane table.
const SMALL_SHARDS: usize = 256;

impl<T> Default for RunMergeBuffer<T> {
    fn default() -> RunMergeBuffer<T> {
        RunMergeBuffer {
            lanes: Vec::new(),
            lane_of_small: Vec::new(),
            lane_of_large: Vec::new(),
            pocket: BinaryHeap::new(),
            tree: LoserTree::default(),
            dirty: true,
            pending: 0,
            inversions: 0,
            pocket_peak: 0,
        }
    }
}

impl<T> RunMergeBuffer<T> {
    /// Buffered events not yet released.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total intra-shard inversions routed to the side pocket (the
    /// "how near-sorted was this trace really" stat).
    pub fn inversions(&self) -> u64 {
        self.inversions
    }

    /// Side-pocket high-water mark.
    pub fn pocket_peak(&self) -> usize {
        self.pocket_peak
    }

    /// Number of shard run lanes materialized so far.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Heap bytes the lane arenas and the side pocket hold (capacities:
    /// a drained lane keeps its allocation for the next run).
    pub(crate) fn heap_bytes(&self) -> usize {
        let lanes: usize = self
            .lanes
            .iter()
            .map(|l| {
                l.keys.capacity() * std::mem::size_of::<SortKey>()
                    + l.entries.capacity() * std::mem::size_of::<Option<T>>()
            })
            .sum();
        lanes + self.pocket.capacity() * std::mem::size_of::<PocketEntry<T>>()
    }

    #[inline]
    fn lane_ix(&mut self, shard: u32) -> usize {
        if (shard as usize) < SMALL_SHARDS {
            let s = shard as usize;
            if s >= self.lane_of_small.len() {
                self.lane_of_small.resize(s + 1, NO_SOURCE);
            }
            let lx = self.lane_of_small[s];
            if lx != NO_SOURCE {
                return lx as usize;
            }
            let lx = self.lanes.len() as u32;
            self.lanes.push(RunLane::new(shard));
            self.lane_of_small[s] = lx;
            self.dirty = true;
            lx as usize
        } else {
            if let Some(&(_, lx)) = self.lane_of_large.iter().find(|&&(s, _)| s == shard) {
                return lx as usize;
            }
            let lx = self.lanes.len() as u32;
            self.lanes.push(RunLane::new(shard));
            self.lane_of_large.push((shard, lx));
            self.dirty = true;
            lx as usize
        }
    }

    /// Buffer one event. `shard` is the event id's origin shard (high 32
    /// bits) — events of one shard must arrive in that shard's
    /// completion order for the near-sorted fast path to engage;
    /// anything else still works, it just rides the pocket.
    pub fn push(&mut self, shard: u32, key: SortKey, value: T) {
        let lx = self.lane_ix(shard);
        let lane = &mut self.lanes[lx];
        if lane.accepts(key) {
            // A tail append leaves every source head as it was: the
            // tournament stays valid unless this lane just went from
            // empty to occupied (a new head entered the merge).
            if lane.head_key().is_none() {
                self.dirty = true;
            }
            lane.push(key, value);
        } else {
            self.inversions += 1;
            self.pocket.push(Reverse(PocketEntry { key, shard, value }));
            self.pocket_peak = self.pocket_peak.max(self.pocket.len());
            self.dirty = true;
        }
        self.pending += 1;
    }

    /// `(key, shard)` head of tournament source `s` (lanes first, pocket
    /// last), or `None` when exhausted.
    #[inline]
    fn source_key(
        lanes: &[RunLane<T>],
        pocket: &BinaryHeap<Reverse<PocketEntry<T>>>,
        s: u32,
    ) -> Option<(SortKey, u32)> {
        let s = s as usize;
        if s < lanes.len() {
            let lane = &lanes[s];
            lane.head_key().map(|k| (k, lane.shard))
        } else {
            pocket.peek().map(|Reverse(e)| (e.key, e.shard))
        }
    }

    /// Key of the next event the merge would release, without releasing.
    pub(crate) fn peek_key(&mut self) -> Option<SortKey> {
        if self.pending == 0 {
            return None;
        }
        // Single-lane fast path: no tournament needed while the pocket
        // is empty (the common single-shard / in-order case).
        if self.lanes.len() == 1 && self.pocket.is_empty() {
            return self.lanes[0].head_key();
        }
        let (lanes, pocket) = (&self.lanes, &self.pocket);
        let key_of = |s: u32| Self::source_key(lanes, pocket, s);
        if self.dirty {
            // The pocket joins the tournament only while it holds
            // something: at power-of-two lane counts (the common shard
            // shapes) that saves a whole tree level. A pocket emptied
            // *between* rebuilds needs no flag — its source replays to
            // `MAX_KEY` and simply never wins again.
            let sources = self.lanes.len() + usize::from(!self.pocket.is_empty());
            self.tree.rebuild(sources, &key_of);
            self.dirty = false;
        }
        debug_assert_ne!(
            self.tree.winner(),
            NO_SOURCE,
            "pending > 0 but no tournament winner"
        );
        Some(self.tree.winner_key().0)
    }

    /// Release the globally smallest buffered event if its key passes
    /// `gate`. Returns `None` when empty or gated.
    pub fn pop_if(&mut self, gate: impl FnOnce(SortKey) -> bool) -> Option<T> {
        let key = self.peek_key()?;
        if !gate(key) {
            return None;
        }
        self.pending -= 1;
        if self.lanes.len() == 1 && self.pocket.is_empty() {
            return self.lanes[0].pop();
        }
        let w = self.tree.winner();
        let value = if (w as usize) < self.lanes.len() {
            self.lanes[w as usize].pop()
        } else {
            self.pocket.pop().map(|Reverse(e)| e.value)
        };
        let (lanes, pocket) = (&self.lanes, &self.pocket);
        let key_of = |s: u32| Self::source_key(lanes, pocket, s);
        self.tree.replay(w, &key_of);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(t: u64, id: u64) -> SortKey {
        (SimTime(t), id, 0)
    }

    #[test]
    fn single_lane_releases_in_order() {
        let mut buf = RunMergeBuffer::default();
        for (t, id) in [(0, 1), (10, 2), (20, 3)] {
            buf.push(0, key(t, id), id);
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.inversions(), 0);
        let mut out = Vec::new();
        while let Some(v) = buf.pop_if(|k| k.0 <= SimTime(10)) {
            out.push(v);
        }
        assert_eq!(out, vec![1, 2]);
        assert_eq!(buf.len(), 1);
        while let Some(v) = buf.pop_if(|_| true) {
            out.push(v);
        }
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn cross_shard_merge_is_globally_sorted() {
        let mut buf = RunMergeBuffer::default();
        // Shard 0: 0, 30, 60; shard 1: 10, 40; shard 7: 20, 50.
        for (shard, times) in [
            (0u32, vec![0u64, 30, 60]),
            (1, vec![10, 40]),
            (7, vec![20, 50]),
        ] {
            for t in times {
                buf.push(shard, key(t, (shard as u64) << 32 | t), t);
            }
        }
        assert_eq!(buf.lane_count(), 3);
        let mut out = Vec::new();
        while let Some(v) = buf.pop_if(|_| true) {
            out.push(v);
        }
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
        assert_eq!(buf.inversions(), 0);
    }

    #[test]
    fn intra_shard_inversion_rides_the_pocket() {
        let mut buf = RunMergeBuffer::default();
        buf.push(0, key(100, 2), 100u64);
        // Started earlier, completed later: a genuine inversion.
        buf.push(0, key(50, 1), 50);
        buf.push(0, key(150, 3), 150);
        assert_eq!(buf.inversions(), 1);
        assert_eq!(buf.pocket_peak(), 1);
        let mut out = Vec::new();
        while let Some(v) = buf.pop_if(|_| true) {
            out.push(v);
        }
        assert_eq!(out, vec![50, 100, 150], "pocket merges back in order");
    }

    #[test]
    fn interleaved_push_pop_retires_and_reuses_lanes() {
        let mut buf = RunMergeBuffer::default();
        for round in 0..100u64 {
            let t = round * 10;
            buf.push(0, key(t, round * 2), t);
            buf.push(1, key(t + 5, round * 2 + 1), t + 5);
            // Fully drain each round: lanes retire their arenas.
            let mut out = Vec::new();
            while let Some(v) = buf.pop_if(|_| true) {
                out.push(v);
            }
            assert_eq!(out, vec![t, t + 5]);
        }
        assert_eq!(buf.len(), 0);
        // A retired lane accepts keys below its old tail (fresh run).
        buf.push(0, key(3, 9999), 3);
        assert_eq!(buf.inversions(), 0);
        assert_eq!(buf.pop_if(|_| true), Some(3));
    }

    #[test]
    fn gate_holds_back_future_events() {
        let mut buf = RunMergeBuffer::default();
        buf.push(0, key(100, 1), 100u64);
        assert_eq!(buf.pop_if(|k| k.0 <= SimTime(50)), None);
        assert_eq!(buf.len(), 1, "gated events stay buffered");
        assert_eq!(buf.pop_if(|k| k.0 <= SimTime(100)), Some(100));
    }

    #[test]
    fn adversarial_reverse_order_still_sorts() {
        // Fully reversed arrival: everything after the first event
        // pockets, and the merge still emits sorted order (the pipeline
        // degrades to the old heap, it never breaks).
        let mut buf = RunMergeBuffer::default();
        for t in (0..200u64).rev() {
            buf.push(0, key(t, t), t);
        }
        assert_eq!(buf.inversions(), 199);
        let mut out = Vec::new();
        while let Some(v) = buf.pop_if(|_| true) {
            out.push(v);
        }
        let expect: Vec<u64> = (0..200).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn equal_keys_tie_break_by_shard() {
        let mut buf = RunMergeBuffer::default();
        // Same (start, id, family) from two shards (id-collision trace).
        buf.push(3, key(10, 7), 3u32);
        buf.push(1, key(10, 7), 1);
        let mut out = Vec::new();
        while let Some(v) = buf.pop_if(|_| true) {
            out.push(v);
        }
        assert_eq!(out, vec![1, 3], "deterministic shard-order tie break");
    }

    #[test]
    fn large_shard_ids_fall_back_to_the_slow_map() {
        let mut buf = RunMergeBuffer::default();
        buf.push(0xFFFF_0000, key(10, 1), 10u64);
        buf.push(0xFFFF_0001, key(0, 2), 0);
        assert_eq!(buf.lane_count(), 2);
        assert_eq!(buf.pop_if(|_| true), Some(0));
        assert_eq!(buf.pop_if(|_| true), Some(10));
    }
}
