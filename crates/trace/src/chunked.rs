//! Chunked append-only storage.
//!
//! The monitored program must not see reallocation spikes from the tool
//! (overhead preservation, §5). `ChunkedVec` therefore grows in chunks:
//! an append is at worst one `Vec::with_capacity` of a known size, never
//! a copy of previously logged records. Chunk capacities grow
//! geometrically from `MIN_CHUNK_RECORDS` to `MAX_CHUNK_RECORDS`, so
//! a program with a handful of events allocates kilobytes (the bottom of
//! the paper's Figure-3 range) while event-heavy programs amortize to
//! large chunks. Allocated capacity is tracked exactly — a running
//! figure, raised by each chunk's real capacity where the chunk is
//! pushed — so the Figure-3 space experiment reports real bytes and
//! asking for them costs an append nothing.

/// Capacity of the first chunk.
pub(crate) const MIN_CHUNK_RECORDS: usize = 64;
/// Capacity cap for later chunks (4096 × 72 B = 288 KiB per data-op
/// chunk at steady state).
pub(crate) const MAX_CHUNK_RECORDS: usize = 4096;

/// An append-only vector that grows in geometrically sized chunks.
#[derive(Debug)]
pub struct ChunkedVec<T> {
    chunks: Vec<Vec<T>>,
    /// Cumulative start index of each chunk (for `get`).
    starts: Vec<usize>,
    len: usize,
    /// `Σ capacity × size_of::<T>()` over `chunks`, kept by `push_chunk`.
    allocated_bytes: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ChunkedVec<T> {
    /// An empty store (no chunks allocated yet).
    pub(crate) fn new() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            starts: Vec::new(),
            len: 0,
            allocated_bytes: 0,
        }
    }

    /// Number of records appended.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Is the store empty?
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a record.
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        if self.chunks.last().is_none_or(|c| c.len() == c.capacity()) {
            self.push_chunk();
        }
        // Invariant, not event data: the branch above just pushed a
        // chunk whenever `chunks` was empty or full.
        #[allow(clippy::expect_used)]
        self.chunks.last_mut().expect("chunk exists").push(value);
        self.len += 1;
    }

    /// Open the next chunk: the one allocation an append can cost, and
    /// where the running figure is kept.
    #[cold]
    fn push_chunk(&mut self) {
        let cap = match self.chunks.last() {
            None => MIN_CHUNK_RECORDS,
            Some(c) => (c.capacity() * 2).min(MAX_CHUNK_RECORDS),
        };
        let chunk = Vec::with_capacity(cap);
        self.allocated_bytes += chunk.capacity() * std::mem::size_of::<T>();
        self.starts.push(self.len);
        self.chunks.push(chunk);
    }

    /// Record at `index`.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let chunk_ix = match self.starts.binary_search(&index) {
            Ok(ix) => ix,
            Err(ins) => ins - 1,
        };
        self.chunks[chunk_ix].get(index - self.starts[chunk_ix])
    }

    /// Iterate over all records in append order.
    pub(crate) fn iter(&self) -> std::iter::Flatten<std::slice::Iter<'_, Vec<T>>> {
        self.chunks.iter().flatten()
    }

    /// Bytes of heap capacity currently allocated for records.
    #[inline]
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// [`ChunkedVec::allocated_bytes`] recomputed from the chunks — the
    /// walk the running figure replaced, kept as the tests' oracle.
    #[cfg(test)]
    pub(crate) fn recomputed_allocated_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<T>())
            .sum()
    }

    /// Bytes of heap actually occupied by records (`len × size_of::<T>()`).
    pub(crate) fn used_bytes(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }
}

impl<'a, T> IntoIterator for &'a ChunkedVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Vec<T>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_across_chunk_boundaries() {
        let mut v = ChunkedVec::new();
        let n = 3 * MAX_CHUNK_RECORDS + 17;
        for i in 0..n {
            v.push(i as u64);
        }
        assert_eq!(v.len(), n);
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(MIN_CHUNK_RECORDS), Some(&(MIN_CHUNK_RECORDS as u64)));
        assert_eq!(v.get(n - 1), Some(&((n - 1) as u64)));
        assert_eq!(v.get(n), None);
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k-push loop is too slow under miri")]
    fn iter_preserves_append_order() {
        let mut v = ChunkedVec::new();
        for i in 0..10_000u64 {
            v.push(i);
        }
        let collected: Vec<u64> = v.iter().copied().collect();
        assert_eq!(collected, (0..10_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn first_chunk_is_small() {
        // A program with a handful of events must not pay for a huge
        // chunk — the bottom of Figure 3's range is ~1 KB.
        let mut v: ChunkedVec<u64> = ChunkedVec::new();
        assert_eq!(v.allocated_bytes(), 0);
        v.push(1);
        assert_eq!(v.allocated_bytes(), MIN_CHUNK_RECORDS * 8);
        assert_eq!(v.used_bytes(), 8);
    }

    #[test]
    fn chunks_grow_geometrically_to_the_cap() {
        let mut v: ChunkedVec<u8> = ChunkedVec::new();
        // Fill enough to reach the cap: 64+128+...+4096 then 4096-sized.
        for _ in 0..(2 * 8192) {
            v.push(0);
        }
        let caps: Vec<usize> = v.chunks.iter().map(|c| c.capacity()).collect();
        assert_eq!(caps[0], MIN_CHUNK_RECORDS);
        assert_eq!(caps[1], 2 * MIN_CHUNK_RECORDS);
        assert!(caps.iter().all(|&c| c <= MAX_CHUNK_RECORDS));
        assert!(caps.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*caps.last().unwrap(), MAX_CHUNK_RECORDS);
    }

    #[test]
    #[cfg_attr(miri, ignore = "20k-push loop is too slow under miri")]
    fn get_random_access_after_growth() {
        let mut v = ChunkedVec::new();
        for i in 0..20_000u64 {
            v.push(i * 3);
        }
        for probe in [0usize, 63, 64, 191, 192, 1000, 8191, 19_999] {
            assert_eq!(v.get(probe), Some(&(probe as u64 * 3)), "index {probe}");
        }
    }

    #[test]
    fn empty_behaviour() {
        let v: ChunkedVec<u32> = ChunkedVec::new();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
        assert_eq!(v.get(0), None);
    }
}
