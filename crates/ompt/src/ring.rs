//! Lock-free single-producer / single-consumer ingest rings.
//!
//! The sharded tool gives every callback thread (producer) a
//! fixed-capacity ring into which it publishes completed events; the
//! drain path (consumer) sweeps the rings in batches without ever
//! taking the producer's shard lock. This replaces the
//! mutex-protected pending queue: on the callback fast path an event
//! handoff is one slot write plus one release store, and a draining
//! consumer never blocks a recording thread.
//!
//! # Design
//!
//! A classic Lamport ring: a power-of-two slot array indexed by two
//! monotonically increasing cursors (`tail` = producer, `head` =
//! consumer), each owned exclusively by one side and published with
//! release stores. Both handles cache the opposing cursor and refresh
//! it only when the ring looks full/empty, so the steady state touches
//! one shared cache line per side. Cursors are `usize` positions, not
//! masked indices; wraparound uses wrapping arithmetic and is covered
//! by the storm tests.
//!
//! # Safety
//!
//! This is the one module in the workspace that uses `unsafe` (the
//! crate is `deny(unsafe_code)`, not `forbid`, for exactly this file).
//! The invariant carried by every unsafe block: slot `i & mask` is
//! initialized iff `head <= i < tail`. The producer writes a slot
//! before release-storing `tail = i + 1` (making it visible), and the
//! consumer reads a slot after acquire-loading `tail` (observing the
//! write) and before release-storing `head = i + 1` (surrendering it).
//! `Producer`/`Consumer` take `&mut self`, so each cursor has exactly
//! one writer. The concurrent storm suite in
//! `crates/core/tests/ring_storm.rs` races both sides at the capacity
//! boundary under seeded schedules.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A cursor on its own cache line, so producer and consumer updates
/// never false-share.
#[repr(align(64))]
struct CachePadded(AtomicUsize);

struct Inner<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor: everything below it has been popped.
    head: CachePadded,
    /// Producer cursor: everything below it has been pushed.
    tail: CachePadded,
}

// SAFETY: the cursor protocol above gives each initialized slot exactly
// one accessor at a time; sending the halves to different threads is
// the intended use. `T: Send` is required because values cross threads.
unsafe impl<T: Send> Sync for Inner<T> {}
unsafe impl<T: Send> Send for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): plain loads are fine.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            // SAFETY: head..tail slots are initialized and no handle
            // can access them anymore.
            unsafe {
                (*self.buf[i & self.mask].get()).assume_init_drop();
            }
            i = i.wrapping_add(1);
        }
    }
}

/// Create a ring with room for at least `capacity` values (rounded up
/// to a power of two). Returns the two single-owner endpoints.
///
/// # Panics
///
/// Panics if `capacity` is 0.
pub fn spsc<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be non-zero");
    let cap = capacity.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(Inner {
        mask: cap - 1,
        buf,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            head_cache: 0,
        },
        Consumer {
            inner,
            tail_cache: 0,
        },
    )
}

/// The producing endpoint: exactly one thread at a time may push.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Last observed consumer cursor (refreshed only on apparent full).
    head_cache: usize,
}

impl<T: Send> Producer<T> {
    /// Number of slots.
    pub(crate) fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Push a value; returns it back if the ring is full (the caller
    /// spills it elsewhere — the ring never blocks).
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head_cache) == self.capacity() {
            self.head_cache = self.inner.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(self.head_cache) == self.capacity() {
                return Err(value);
            }
        }
        // SAFETY: `tail - head < capacity`, so slot `tail & mask` is
        // unoccupied and owned by the producer until the store below.
        unsafe {
            (*self.inner.buf[tail & self.inner.mask].get()).write(value);
        }
        self.inner
            .tail
            .0
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Values pushed so far (the producer cursor; wraps with `usize`).
    /// The value pushed next sits at this position — compare with
    /// [`Consumer::popped`] to order something that bypassed the ring
    /// against what went through it.
    pub fn pushed(&self) -> usize {
        self.inner.tail.0.load(Ordering::Relaxed)
    }

    /// Has the ring reached half its capacity (a one-slot ring: is it
    /// occupied)? Decided from the producer's own cursor and its cached
    /// view of the consumer's, which only ever overstates occupancy; the
    /// shared cursor is re-read just when the cached view says yes, so
    /// a producer far from the mark touches no shared cache line.
    pub fn half_full(&mut self) -> bool {
        let tail = self.inner.tail.0.load(Ordering::Relaxed);
        let mark = (self.capacity() / 2).max(1);
        if tail.wrapping_sub(self.head_cache) < mark {
            return false;
        }
        self.head_cache = self.inner.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(self.head_cache) >= mark
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("capacity", &(self.inner.mask + 1))
            .finish()
    }
}

/// The consuming endpoint: exactly one thread at a time may pop. (The
/// tool serializes successive drainers behind its engine lock; the
/// mutex handoff provides the happens-before edge between them.)
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Last observed producer cursor (refreshed on apparent empty).
    tail_cache: usize,
}

impl<T: Send> Consumer<T> {
    /// Values popped so far (the consumer cursor; wraps with `usize`):
    /// the position of the value popped next.
    pub fn popped(&self) -> usize {
        self.inner.head.0.load(Ordering::Relaxed)
    }

    /// Pop the oldest value, if any.
    pub fn pop(&mut self) -> Option<T> {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        if head == self.tail_cache {
            self.tail_cache = self.inner.tail.0.load(Ordering::Acquire);
            if head == self.tail_cache {
                return None;
            }
        }
        // SAFETY: `head < tail`, so slot `head & mask` is initialized
        // and owned by the consumer until the store below.
        let value = unsafe { (*self.inner.buf[head & self.inner.mask].get()).assume_init_read() };
        self.inner
            .head
            .0
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Hand everything currently visible to `sink`, oldest first;
    /// returns how many values that was. One acquire load and one
    /// release store amortized over the whole batch: the slots are
    /// surrendered together once `sink` has seen them all.
    pub fn pop_each(&mut self, mut sink: impl FnMut(T)) -> usize {
        /// Publishes the consumer cursor when the batch ends — also by
        /// unwinding out of `sink`, so a slot already moved out is
        /// never read a second time.
        struct Surrender<'a> {
            head: &'a AtomicUsize,
            at: usize,
        }
        impl Drop for Surrender<'_> {
            fn drop(&mut self) {
                self.head.store(self.at, Ordering::Release);
            }
        }
        let start = self.inner.head.0.load(Ordering::Relaxed);
        self.tail_cache = self.inner.tail.0.load(Ordering::Acquire);
        let mut cursor = Surrender {
            head: &self.inner.head.0,
            at: start,
        };
        while cursor.at != self.tail_cache {
            // SAFETY: as in `pop`; each slot in head..tail is
            // initialized and read exactly once: `cursor.at` moves past
            // it before `sink` runs, and `cursor` surrenders everything
            // below `at` when it drops.
            let value =
                unsafe { (*self.inner.buf[cursor.at & self.inner.mask].get()).assume_init_read() };
            cursor.at = cursor.at.wrapping_add(1);
            sink(value);
        }
        cursor.at.wrapping_sub(start)
    }

    /// Drain everything currently visible into `out`; returns how many
    /// values were appended.
    pub fn pop_all(&mut self, out: &mut Vec<T>) -> usize {
        self.pop_each(|value| out.push(value))
    }

    /// Is the ring empty as of the latest producer publication?
    pub fn is_empty(&mut self) -> bool {
        let head = self.inner.head.0.load(Ordering::Relaxed);
        self.tail_cache = self.inner.tail.0.load(Ordering::Acquire);
        head == self.tail_cache
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("capacity", &(self.inner.mask + 1))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_full_signal() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "full ring hands the value back");
        assert_eq!(rx.pop(), Some(0));
        tx.push(4).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.pop_all(&mut out), 4);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn half_full_tracks_the_consumer_through_a_stale_cache() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        for i in 0..3 {
            tx.push(i).unwrap();
            assert!(!tx.half_full(), "{} of 8", i + 1);
        }
        tx.push(3).unwrap();
        assert!(tx.half_full(), "4 of 8");
        // The consumer empties the ring behind the producer's back: the
        // cached cursor still says half, the re-read corrects it.
        assert_eq!(rx.pop_each(drop), 4);
        assert!(!tx.half_full());
        // A one-slot ring is at the mark whenever it is occupied.
        let (mut tx1, mut rx1) = spsc::<u32>(1);
        assert!(!tx1.half_full());
        tx1.push(0).unwrap();
        assert!(tx1.half_full());
        assert_eq!(rx1.pop(), Some(0));
        assert!(!tx1.half_full());
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = spsc::<usize>(8);
        let mut expect = 0usize;
        for round in 0..1000 {
            for i in 0..(round % 8) + 1 {
                tx.push(round * 10 + i).unwrap();
            }
            for i in 0..(round % 8) + 1 {
                assert_eq!(rx.pop(), Some(round * 10 + i));
            }
            expect += (round % 8) + 1;
        }
        assert!(
            expect > 3000,
            "exercised well past one index wrap of the mask"
        );
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = spsc::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx1, _rx1) = spsc::<u8>(1);
        assert_eq!(tx1.capacity(), 1);
    }

    #[test]
    fn dropping_the_ring_drops_undrained_values() {
        let marker = Arc::new(());
        {
            let (mut tx, mut rx) = spsc::<Arc<()>>(8);
            for _ in 0..5 {
                tx.push(Arc::clone(&marker)).unwrap();
            }
            assert!(rx.pop().is_some());
            assert_eq!(Arc::strong_count(&marker), 5, "4 still queued + original");
        }
        assert_eq!(Arc::strong_count(&marker), 1, "ring drop released the rest");
    }

    #[test]
    fn threaded_handoff_at_capacity_boundary() {
        // Shrunk under miri (interpreted execution): still enough to wrap
        // the 4-slot ring's index mask many times while miri checks the
        // unsafe cell accesses and Acquire/Release pairs for UB.
        const N: usize = if cfg!(miri) { 1_000 } else { 200_000 };
        let (mut tx, mut rx) = spsc::<usize>(4);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..N {
                    let mut v = i;
                    while let Err(back) = tx.push(v) {
                        v = back;
                        std::hint::spin_loop();
                    }
                }
            });
            s.spawn(move || {
                let mut next = 0usize;
                let mut batch = Vec::new();
                while next < N {
                    if rx.pop_all(&mut batch) > 0 {
                        for v in batch.drain(..) {
                            assert_eq!(v, next, "strict FIFO under racing");
                            next += 1;
                        }
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
        });
    }
}
