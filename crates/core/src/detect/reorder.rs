//! The reorder stage behind [`crate::detect::StreamingEngine`].
//!
//! Events reach the streaming engine in *completion* order, but every
//! detector's precondition is chronological `(start, id, family)` order.
//! Events arrive from per-shard queues, and within one shard completion
//! order is near-sorted by start time: a shard's operations retire in
//! the order they began unless their spans overlap. So the buffer keeps
//! one sorted lane per shard and compares across shards only on release:
//!
//! ```text
//!   shard 0 ──push──▶ [lane 0]  VecDeque<(SortKey, T)>, sorted
//!   shard 1 ──push──▶ [lane 1]  key ≥ back: push_back
//!   shard k ──push──▶ [lane k]  key < back: insert in order (an inversion)
//!
//!   release: the least (head key, shard) over the lanes,
//!            while it passes the caller's gate (the watermark)
//! ```
//!
//! An inversion is an event that completed after a later-starting event
//! of its shard; [`RunMergeBuffer::inversions`] counts them, which tells
//! whether a workload really is near-sorted. Lanes are found by a linear
//! search over the shards seen so far: a run has one per recording
//! thread.
//!
//! The buffer releases *exactly* the sorted order a global heap would —
//! the streaming differential and the proptest equivalence suite
//! (`reorder_equivalence.rs`) hold it to a literal `BinaryHeap` oracle.

use odp_model::SimTime;
use std::collections::VecDeque;

/// Chronological release key: `(start, event id, family)` — the exact
/// key the trace log's hydration sorts by (family 0 = data op,
/// 1 = kernel; families tie arbitrarily, ids are unique per shard).
pub type SortKey = (SimTime, u64, u8);

/// The per-shard reorder buffer: push events keyed `(start, id, family)`
/// tagged with their shard, pop them back in global sorted order through
/// a caller-supplied gate (the watermark).
///
/// Generic over the payload so the equivalence suite can race it against
/// a `BinaryHeap` oracle without constructing full events.
#[derive(Debug)]
pub struct RunMergeBuffer<T> {
    /// `(shard, lane)` in first-seen order; each lane sorted by key.
    lanes: Vec<(u32, VecDeque<(SortKey, T)>)>,
    inversions: u64,
}

impl<T> Default for RunMergeBuffer<T> {
    fn default() -> RunMergeBuffer<T> {
        RunMergeBuffer {
            lanes: Vec::new(),
            inversions: 0,
        }
    }
}

impl<T> RunMergeBuffer<T> {
    /// Buffered events not yet released.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|(_, lane)| lane.len()).sum()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|(_, lane)| lane.is_empty())
    }

    /// Total intra-shard inversions: events pushed below their lane's
    /// back (the "how near-sorted was this trace really" stat).
    pub fn inversions(&self) -> u64 {
        self.inversions
    }

    /// Heap bytes the lanes hold (capacities: a drained lane keeps its
    /// allocation for the next run).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.lanes
            .iter()
            .map(|(_, lane)| lane.capacity() * std::mem::size_of::<(SortKey, T)>())
            .sum()
    }

    /// Buffer one event. `shard` is the event id's origin shard (high 32
    /// bits). Events of one shard arriving in start order append; any
    /// other arrival order still releases sorted, at the cost of an
    /// ordered insert.
    pub fn push(&mut self, shard: u32, key: SortKey, value: T) {
        let lx = match self.lanes.iter().position(|&(s, _)| s == shard) {
            Some(lx) => lx,
            None => {
                self.lanes.push((shard, VecDeque::new()));
                self.lanes.len() - 1
            }
        };
        let lane = &mut self.lanes[lx].1;
        if lane.back().is_none_or(|&(back, _)| key >= back) {
            lane.push_back((key, value));
        } else {
            self.inversions += 1;
            let at = lane.partition_point(|&(k, _)| k <= key);
            lane.insert(at, (key, value));
        }
    }

    /// Release the globally smallest buffered event if its key passes
    /// `gate`. Returns `None` when empty or gated. Equal keys from two
    /// shards release the lower shard first.
    pub fn pop_if(&mut self, gate: impl FnOnce(SortKey) -> bool) -> Option<T> {
        let (lx, key) = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(lx, (shard, lane))| lane.front().map(|&(k, _)| (lx, (k, *shard))))
            .min_by_key(|&(_, head)| head)?;
        if !gate(key.0) {
            return None;
        }
        self.lanes[lx].1.pop_front().map(|(_, value)| value)
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
        let mut out = Vec::new();
        while let Some(v) = buf.pop_if(|_| true) {
            out.push(v);
        }
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
        assert_eq!(buf.inversions(), 0);
    }

    #[test]
    fn intra_shard_inversion_is_inserted_in_order() {
        let mut buf = RunMergeBuffer::default();
        buf.push(0, key(100, 2), 100u64);
        // Started earlier, completed later: a genuine inversion.
        buf.push(0, key(50, 1), 50);
        buf.push(0, key(150, 3), 150);
        assert_eq!(buf.inversions(), 1);
        let mut out = Vec::new();
        while let Some(v) = buf.pop_if(|_| true) {
            out.push(v);
        }
        assert_eq!(out, vec![50, 100, 150], "the inversion releases in order");
    }

    #[test]
    fn interleaved_push_pop_retires_and_reuses_lanes() {
        let mut buf = RunMergeBuffer::default();
        for round in 0..100u64 {
            let t = round * 10;
            buf.push(0, key(t, round * 2), t);
            buf.push(1, key(t + 5, round * 2 + 1), t + 5);
            // Fully drain each round.
            let mut out = Vec::new();
            while let Some(v) = buf.pop_if(|_| true) {
                out.push(v);
            }
            assert_eq!(out, vec![t, t + 5]);
        }
        assert_eq!(buf.len(), 0);
        // An emptied lane accepts keys below its old back (fresh run).
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
        // Fully reversed arrival: everything after the first event is an
        // inversion, and the merge still emits sorted order.
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
    fn large_shard_ids_get_their_own_lanes() {
        let mut buf = RunMergeBuffer::default();
        buf.push(0xFFFF_0000, key(10, 1), 10u64);
        buf.push(0xFFFF_0001, key(0, 2), 0);
        assert_eq!(buf.inversions(), 0, "two shards, two lanes");
        assert_eq!(buf.pop_if(|_| true), Some(0));
        assert_eq!(buf.pop_if(|_| true), Some(10));
    }
}
