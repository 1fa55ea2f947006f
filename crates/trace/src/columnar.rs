//! Struct-of-arrays ("columnar") event hydration.
//!
//! The five §5 detectors sweep the whole trace once, touching only a
//! few fields per step (a hash here, a start time there). Hydrating
//! into row-oriented `Vec<DataOpEvent>` makes every step drag a full
//! ~96-byte row through the cache; hydrating into one column per field
//! lets each state machine stream over the handful of dense arrays it
//! actually reads. [`ColumnarView`] is that layout: the memoized
//! product of [`crate::TraceLog`] hydration, built in a single indexing
//! pass (per-part permutation sort + k-way shard merge) and shared by
//! the fused sweep, streaming finalize, export, and stats paths.
//!
//! Row views are *derived* from the columns on demand
//! ([`DataOpColumns::to_events`]), so row and columnar consumers can
//! never disagree: both read the same scatter of the same packed
//! records, in the same `(start, id)` order the algorithms require.

use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};

/// Column-per-field storage for data-operation events, in chronological
/// `(start, id)` order. All columns share one length; index `i` across
/// every column is the decomposition of one [`DataOpEvent`].
///
/// `Ord` compares column by column in declaration order, each column
/// slice-lexicographically: a total content order (the fleet compactor
/// sorts shard blocks by it), not a chronological one.
#[derive(Debug, Default, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DataOpColumns {
    /// Event ids (shard in the high half — see [`crate::TraceLog`]).
    pub ids: Vec<EventId>,
    /// Operation kinds.
    pub kinds: Vec<DataOpKind>,
    /// Source devices.
    pub src_devices: Vec<DeviceId>,
    /// Destination devices.
    pub dest_devices: Vec<DeviceId>,
    /// Source addresses (host address for alloc/delete).
    pub src_addrs: Vec<u64>,
    /// Destination addresses.
    pub dest_addrs: Vec<u64>,
    /// Bytes moved or allocated.
    pub bytes: Vec<u64>,
    /// Content hashes (transfers with payload only).
    pub hashes: Vec<Option<HashVal>>,
    /// Span starts.
    pub starts: Vec<SimTime>,
    /// Span ends.
    pub ends: Vec<SimTime>,
    /// Code pointers.
    pub codeptrs: Vec<CodePtr>,
}

impl DataOpColumns {
    /// Empty columns with room for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        DataOpColumns {
            ids: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            src_devices: Vec::with_capacity(n),
            dest_devices: Vec::with_capacity(n),
            src_addrs: Vec::with_capacity(n),
            dest_addrs: Vec::with_capacity(n),
            bytes: Vec::with_capacity(n),
            hashes: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            codeptrs: Vec::with_capacity(n),
        }
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Are the columns empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Scatter one event across the columns (appended at the end; the
    /// caller is responsible for feeding events in `(start, id)` order).
    pub fn push(&mut self, e: &DataOpEvent) {
        self.ids.push(e.id);
        self.kinds.push(e.kind);
        self.src_devices.push(e.src_device);
        self.dest_devices.push(e.dest_device);
        self.src_addrs.push(e.src_addr);
        self.dest_addrs.push(e.dest_addr);
        self.bytes.push(e.bytes);
        self.hashes.push(e.hash);
        self.starts.push(e.span.start);
        self.ends.push(e.span.end);
        self.codeptrs.push(e.codeptr);
    }

    /// Gather event `i` back into a row.
    #[inline]
    pub fn event(&self, i: usize) -> DataOpEvent {
        DataOpEvent {
            id: self.ids[i],
            kind: self.kinds[i],
            src_device: self.src_devices[i],
            dest_device: self.dest_devices[i],
            src_addr: self.src_addrs[i],
            dest_addr: self.dest_addrs[i],
            bytes: self.bytes[i],
            hash: self.hashes[i],
            span: TimeSpan::new(self.starts[i], self.ends[i]),
            codeptr: self.codeptrs[i],
        }
    }

    /// Gather every event into a row vector (the derived row view).
    pub fn to_events(&self) -> Vec<DataOpEvent> {
        (0..self.len()).map(|i| self.event(i)).collect()
    }

    /// Build columns from an already-sorted row slice.
    pub fn from_events(events: &[DataOpEvent]) -> Self {
        let mut cols = Self::with_capacity(events.len());
        for e in events {
            cols.push(e);
        }
        cols
    }

    /// K-way merge of `(start, id)`-sorted parts into one chronological
    /// column set, ties going to the earlier part: the order is computed
    /// from the `starts`/`ids` columns alone, then every column is moved
    /// to it. Emits the order [`merge_sorted_parts`] does; that one
    /// merges unsorted *rows* through a permutation (the live log's
    /// packed records), this one parts that are columns and sorted
    /// already (a loaded artifact's shards).
    pub(crate) fn merged(parts: &[&DataOpColumns]) -> DataOpColumns {
        let keys: Vec<_> = parts.iter().map(|p| (&p.starts[..], &p.ids[..])).collect();
        let at = merge_positions(&keys);
        DataOpColumns {
            ids: scatter(&at, |p| &parts[p].ids),
            kinds: scatter(&at, |p| &parts[p].kinds),
            src_devices: scatter(&at, |p| &parts[p].src_devices),
            dest_devices: scatter(&at, |p| &parts[p].dest_devices),
            src_addrs: scatter(&at, |p| &parts[p].src_addrs),
            dest_addrs: scatter(&at, |p| &parts[p].dest_addrs),
            bytes: scatter(&at, |p| &parts[p].bytes),
            hashes: scatter(&at, |p| &parts[p].hashes),
            starts: scatter(&at, |p| &parts[p].starts),
            ends: scatter(&at, |p| &parts[p].ends),
            codeptrs: scatter(&at, |p| &parts[p].codeptrs),
        }
    }
}

/// Column-per-field storage for target-construct events (the detector
/// paths only ever see kernel executions, but the kind column is kept
/// so caller-provided slices round-trip exactly). `Ord` is the same
/// column-by-column content order as [`DataOpColumns`]'.
#[derive(Debug, Default, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TargetColumns {
    /// Event ids.
    pub ids: Vec<EventId>,
    /// Devices the constructs targeted.
    pub devices: Vec<DeviceId>,
    /// Construct kinds.
    pub kinds: Vec<TargetKind>,
    /// Span starts.
    pub starts: Vec<SimTime>,
    /// Span ends.
    pub ends: Vec<SimTime>,
    /// Code pointers.
    pub codeptrs: Vec<CodePtr>,
}

impl TargetColumns {
    /// Empty columns with room for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        TargetColumns {
            ids: Vec::with_capacity(n),
            devices: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
            starts: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            codeptrs: Vec::with_capacity(n),
        }
    }

    /// Number of events.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Are the columns empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Scatter one event across the columns.
    pub fn push(&mut self, e: &TargetEvent) {
        self.ids.push(e.id);
        self.devices.push(e.device);
        self.kinds.push(e.kind);
        self.starts.push(e.span.start);
        self.ends.push(e.span.end);
        self.codeptrs.push(e.codeptr);
    }

    /// Gather event `i` back into a row.
    #[inline]
    pub fn event(&self, i: usize) -> TargetEvent {
        TargetEvent {
            id: self.ids[i],
            device: self.devices[i],
            kind: self.kinds[i],
            span: TimeSpan::new(self.starts[i], self.ends[i]),
            codeptr: self.codeptrs[i],
        }
    }

    /// Gather every event into a row vector.
    pub fn to_events(&self) -> Vec<TargetEvent> {
        (0..self.len()).map(|i| self.event(i)).collect()
    }

    /// Build columns from an already-sorted row slice.
    pub fn from_events(events: &[TargetEvent]) -> Self {
        let mut cols = Self::with_capacity(events.len());
        for e in events {
            cols.push(e);
        }
        cols
    }

    /// K-way merge of `(start, id)`-sorted parts; see
    /// [`DataOpColumns::merged`].
    pub(crate) fn merged(parts: &[&TargetColumns]) -> TargetColumns {
        let keys: Vec<_> = parts.iter().map(|p| (&p.starts[..], &p.ids[..])).collect();
        let at = merge_positions(&keys);
        TargetColumns {
            ids: scatter(&at, |p| &parts[p].ids),
            devices: scatter(&at, |p| &parts[p].devices),
            kinds: scatter(&at, |p| &parts[p].kinds),
            starts: scatter(&at, |p| &parts[p].starts),
            ends: scatter(&at, |p| &parts[p].ends),
            codeptrs: scatter(&at, |p| &parts[p].codeptrs),
        }
    }
}

/// The memoized columnar hydration of a trace: chronological data-op
/// columns plus kernel-execution columns — the two inputs of
/// Algorithms 1–5 — decomposed field-by-field.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ColumnarView {
    /// Data operations, `(start, id)`-ordered.
    pub ops: DataOpColumns,
    /// Kernel executions, `(start, id)`-ordered.
    pub kernels: TargetColumns,
}

impl ColumnarView {
    /// Build a view from caller-sorted row slices (the slice-input
    /// detector entry points; [`crate::TraceLog`] builds its memoized
    /// view straight from packed records instead).
    pub fn from_events(ops: &[DataOpEvent], kernels: &[TargetEvent]) -> Self {
        ColumnarView {
            ops: DataOpColumns::from_events(ops),
            kernels: TargetColumns::from_events(kernels),
        }
    }
}

/// Permutation of `rows` sorted by `key` (stable: equal keys keep
/// append order, matching the row hydration's stable sort).
pub(crate) fn sorted_perm<T, K: Ord>(rows: &[T], key: impl Fn(&T) -> K) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
    perm.sort_by_key(|&i| key(&rows[i as usize]));
    perm
}

/// K-way merge of per-part sorted permutations.
///
/// Each part supplies `(rows, perm)` where `perm` orders `rows` by
/// `key`. Emits every row across all parts in ascending
/// `(key, part index)` order — the part index tie-break reproduces the
/// stable concat-then-sort order the row hydration used, including for
/// adversarial shard sets whose event ids collide.
pub(crate) fn merge_sorted_parts<T, K: Ord + Copy>(
    parts: &[(Vec<T>, Vec<u32>)],
    key: impl Fn(&T) -> K,
    mut emit: impl FnMut(&T),
) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    if parts.len() == 1 {
        let (rows, perm) = &parts[0];
        for &i in perm {
            emit(&rows[i as usize]);
        }
        return;
    }
    // Heap of (next key, part index); cursors index into each perm.
    let mut cursors = vec![0usize; parts.len()];
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::with_capacity(parts.len());
    for (px, (rows, perm)) in parts.iter().enumerate() {
        if let Some(&first) = perm.first() {
            heap.push(Reverse((key(&rows[first as usize]), px)));
        }
    }
    while let Some(Reverse((_, px))) = heap.pop() {
        let (rows, perm) = &parts[px];
        let cur = cursors[px];
        emit(&rows[perm[cur] as usize]);
        cursors[px] = cur + 1;
        if let Some(&next) = perm.get(cur + 1) {
            heap.push(Reverse((key(&rows[next as usize]), px)));
        }
    }
}

/// Merged order of per-part `(starts, ids)` key columns, each already
/// `(start, id)`-sorted: for every part, the output positions of its
/// rows (ascending — parts are consumed front to back), the output
/// being in ascending `(start, id, part)` order — the order
/// [`merge_sorted_parts`] emits. A part keeps the floor while its next
/// key stays below every other part's head, so the heap is touched once
/// per switch of part, not once per row.
fn merge_positions(parts: &[(&[SimTime], &[EventId])]) -> Vec<Vec<usize>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let key = |part: usize, i: usize| (parts[part].0[i], parts[part].1[i], part);
    let mut heads: BinaryHeap<Reverse<(SimTime, EventId, usize)>> = (0..parts.len())
        .filter(|&p| !parts[p].1.is_empty())
        .map(|p| Reverse(key(p, 0)))
        .collect();
    let mut positions: Vec<Vec<usize>> = parts
        .iter()
        .map(|p| Vec::with_capacity(p.1.len()))
        .collect();
    let mut out = 0;
    while let Some(Reverse((_, _, part))) = heads.pop() {
        let len = parts[part].1.len();
        let lo = positions[part].len();
        let mut hi = lo + 1;
        match heads.peek() {
            // Keys of different parts differ in the part index, so the
            // comparison is never a tie.
            Some(&Reverse(bound)) => {
                while hi < len && key(part, hi) < bound {
                    hi += 1;
                }
            }
            None => hi = len,
        }
        positions[part].extend(out..out + (hi - lo));
        out += hi - lo;
        if hi < len {
            heads.push(Reverse(key(part, hi)));
        }
    }
    positions
}

/// Scatter one column to its [`merge_positions`]: `column(part)` is
/// that column of part `part`. (A scatter rather than a gather: every
/// store is independent, where a gather's per-part read cursors chain
/// each load on the previous store.)
fn scatter<'a, T: Copy + 'a>(
    positions: &[Vec<usize>],
    column: impl Fn(usize) -> &'a Vec<T>,
) -> Vec<T> {
    // Any element serves as the filler every position overwrites.
    let Some(&fill) = (0..positions.len()).find_map(|p| column(p).first()) else {
        return Vec::new();
    };
    let mut out = vec![fill; positions.iter().map(Vec::len).sum()];
    for (part, at) in positions.iter().enumerate() {
        for (&i, &v) in at.iter().zip(column(part)) {
            out[i] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: u64, start: u64) -> DataOpEvent {
        DataOpEvent {
            id: EventId(id),
            kind: DataOpKind::Transfer,
            src_device: DeviceId::HOST,
            dest_device: DeviceId::target(0),
            src_addr: 0x1000 + id,
            dest_addr: 0xd000,
            bytes: 64,
            hash: Some(HashVal(id ^ 0xabc)),
            span: TimeSpan::new(SimTime(start), SimTime(start + 10)),
            codeptr: CodePtr(0x42),
        }
    }

    #[test]
    fn rows_round_trip_through_columns() {
        let rows: Vec<DataOpEvent> = (0..17).map(|i| op(i, i * 3)).collect();
        let cols = DataOpColumns::from_events(&rows);
        assert_eq!(cols.len(), rows.len());
        assert_eq!(cols.to_events(), rows);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(&cols.event(i), r);
        }
    }

    #[test]
    fn target_rows_round_trip_through_columns() {
        let rows: Vec<TargetEvent> = (0..9)
            .map(|i| TargetEvent {
                id: EventId(i),
                device: DeviceId::target((i % 3) as u32),
                kind: if i % 2 == 0 {
                    TargetKind::Kernel
                } else {
                    TargetKind::Region
                },
                span: TimeSpan::new(SimTime(i * 5), SimTime(i * 5 + 4)),
                codeptr: CodePtr(0x100 + i),
            })
            .collect();
        let cols = TargetColumns::from_events(&rows);
        assert_eq!(cols.to_events(), rows);
    }

    #[test]
    fn merge_orders_by_key_then_part() {
        // Part 0: keys 1, 5, 5; part 1: keys 1, 5, 9. Equal keys must
        // come out part-0-first (the stable concat order).
        let parts = vec![
            (vec![(1u64, "a0"), (5, "a1"), (5, "a2")], vec![0u32, 1, 2]),
            (vec![(1u64, "b0"), (5, "b1"), (9, "b2")], vec![0u32, 1, 2]),
        ];
        let mut out = Vec::new();
        merge_sorted_parts(&parts, |t| t.0, |t| out.push(t.1));
        assert_eq!(out, vec!["a0", "b0", "a1", "a2", "b1", "b2"]);
    }

    #[test]
    fn merge_respects_permutations() {
        // Rows stored out of order; perms present them sorted.
        let parts = vec![
            (vec![(5u64, "a1"), (1, "a0")], vec![1u32, 0]),
            (vec![(9u64, "b1"), (2, "b0")], vec![1u32, 0]),
        ];
        let mut out = Vec::new();
        merge_sorted_parts(&parts, |t| t.0, |t| out.push(t.1));
        assert_eq!(out, vec!["a0", "b0", "a1", "b1"]);
    }
}
