//! Struct-of-arrays ("columnar") event hydration.
//!
//! The five §5 detectors sweep the whole trace once, touching only a
//! few fields per step (a hash here, a start time there). Hydrating
//! into row-oriented `Vec<DataOpEvent>` makes every step drag a full
//! ~96-byte row through the cache; hydrating into one column per field
//! lets each state machine stream over the handful of dense arrays it
//! actually reads. [`ColumnarView`] is that layout.
//!
//! # The one hydration pipeline
//!
//! Every §5 algorithm has one precondition — events in chronological
//! `(start, id)` order — and this module is the only place that knows
//! the rule. Every producer of a view goes through the same two steps:
//!
//! 1. **Sorted part columns.** Each part — a live shard log's packed
//!    records, a file's column sections, a caller-built
//!    [`ShardColumns`] — is decoded into columns and handed to the
//!    normaliser (`DataOpColumns::sorted` / `TargetColumns::sorted`):
//!    one pass checks the `(start, id)` order and only a part that
//!    breaks it is stably sorted. A thread appends its events as they
//!    complete and one thread's events complete in the order they
//!    start, so on every measured workload the check is all that runs;
//!    the sort exists for `nowait` completions and for hostile or
//!    foreign input.
//! 2. **Column merge.** `DataOpColumns::merged` /
//!    `TargetColumns::merged` compute the `(start, id, part)` order
//!    from the parts' `starts`/`ids` columns alone and move every column
//!    straight to it — the order a stable sort of the concatenated
//!    parts gives, ties across parts going to the earlier part.
//!
//! Row views are *derived* from the columns on demand
//! ([`DataOpColumns::to_events`]), so row and columnar consumers can
//! never disagree.

use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};
use std::borrow::Borrow;

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

    /// The normaliser: these columns stably sorted into the
    /// `(start, id)` order [`DataOpColumns::merged`] requires of every
    /// part, or `None` when they hold it already — the usual case (see
    /// the module docs), which costs one comparison per row.
    pub(crate) fn sorted(&self) -> Option<DataOpColumns> {
        let order = sort_order(&self.starts, &self.ids)?;
        Some(DataOpColumns {
            ids: gather(&order, &self.ids),
            kinds: gather(&order, &self.kinds),
            src_devices: gather(&order, &self.src_devices),
            dest_devices: gather(&order, &self.dest_devices),
            src_addrs: gather(&order, &self.src_addrs),
            dest_addrs: gather(&order, &self.dest_addrs),
            bytes: gather(&order, &self.bytes),
            hashes: gather(&order, &self.hashes),
            starts: gather(&order, &self.starts),
            ends: gather(&order, &self.ends),
            codeptrs: gather(&order, &self.codeptrs),
        })
    }

    /// K-way merge of `(start, id)`-sorted parts into one chronological
    /// column set, ties going to the earlier part — the order a stable
    /// sort of the concatenated parts gives. The order is computed from
    /// the `starts`/`ids` columns alone, then every column is moved to
    /// it; no row is materialised.
    pub(crate) fn merged(parts: &[impl Borrow<DataOpColumns>]) -> DataOpColumns {
        let parts: Vec<&DataOpColumns> = parts.iter().map(Borrow::borrow).collect();
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

    /// The normaliser for target columns; see [`DataOpColumns::sorted`].
    pub(crate) fn sorted(&self) -> Option<TargetColumns> {
        let order = sort_order(&self.starts, &self.ids)?;
        Some(TargetColumns {
            ids: gather(&order, &self.ids),
            devices: gather(&order, &self.devices),
            kinds: gather(&order, &self.kinds),
            starts: gather(&order, &self.starts),
            ends: gather(&order, &self.ends),
            codeptrs: gather(&order, &self.codeptrs),
        })
    }

    /// K-way merge of `(start, id)`-sorted parts; see
    /// [`DataOpColumns::merged`].
    pub(crate) fn merged(parts: &[impl Borrow<TargetColumns>]) -> TargetColumns {
        let parts: Vec<&TargetColumns> = parts.iter().map(Borrow::borrow).collect();
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

/// One part of a trace — a shard log, or one shard of a persisted file
/// — as columns, both tables `(start, id)`-sorted: the one intermediate
/// form between packed records / file sections and the merged
/// [`ColumnarView`]. The target columns carry every construct (with its
/// kind), not just kernels, so a persisted trace reproduces target
/// hydration and stats as well as the detector inputs.
///
/// `Ord` is a total content order — shard id, then the op columns, then
/// the target columns, each column slice-lexicographic — so blocks that
/// compare equal are identical.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardColumns {
    /// Shard id (the high half of this shard's event ids).
    pub shard: u32,
    /// Data-operation columns.
    pub ops: DataOpColumns,
    /// Target-construct columns.
    pub targets: TargetColumns,
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
    /// view through the module's hydration pipeline instead).
    pub fn from_events(ops: &[DataOpEvent], kernels: &[TargetEvent]) -> Self {
        ColumnarView {
            ops: DataOpColumns::from_events(ops),
            kernels: TargetColumns::from_events(kernels),
        }
    }
}

/// The stable permutation that puts key columns in ascending
/// `(start, id)` order (equal keys keep append order); `None` when they
/// hold it already.
fn sort_order(starts: &[SimTime], ids: &[EventId]) -> Option<Vec<usize>> {
    let key = |i: usize| (starts[i], ids[i]);
    if (1..ids.len()).all(|i| key(i - 1) <= key(i)) {
        return None;
    }
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| key(i));
    Some(order)
}

/// One column read in [`sort_order`].
fn gather<T: Copy>(order: &[usize], column: &[T]) -> Vec<T> {
    order.iter().map(|&i| column[i]).collect()
}

/// Merged order of per-part `(starts, ids)` key columns, each already
/// `(start, id)`-sorted: for every part, the output positions of its
/// rows (ascending — parts are consumed front to back), the output
/// being in ascending `(start, id, part)` order. A part keeps the floor
/// while its next key stays below every other part's head, so the heap
/// is touched once per switch of part, not once per row.
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

    /// Columns holding `op(id, start)` for each `(start, id)` key, in
    /// the given order. `src_addr` carries `tag + position`, so rows
    /// with equal keys stay distinguishable after a merge.
    fn keyed(tag: u64, keys: &[(u64, u64)]) -> DataOpColumns {
        let mut cols = DataOpColumns::default();
        for (i, &(start, id)) in keys.iter().enumerate() {
            let mut e = op(id, start);
            e.src_addr = tag + i as u64;
            cols.push(&e);
        }
        cols
    }

    #[test]
    fn merge_orders_by_key_then_part() {
        // Part a: keys 1, 5, 5; part b: keys 1, 5, 9 — the same ids, as
        // two producers claiming one shard would emit. Equal (start, id)
        // must come out earlier-part-first (the stable concat order).
        let a = keyed(0xa0, &[(1, 0), (5, 1), (5, 1)]);
        let b = keyed(0xb0, &[(1, 0), (5, 1), (9, 2)]);
        assert!(a.sorted().is_none() && b.sorted().is_none());
        let merged = DataOpColumns::merged(&[&a, &b]);
        assert_eq!(merged.src_addrs, vec![0xa0, 0xb0, 0xa1, 0xa2, 0xb1, 0xb2]);
        assert_eq!(merged.to_events().len(), 6);
        let swapped = DataOpColumns::merged(&[&b, &a]);
        assert_eq!(swapped.src_addrs, vec![0xb0, 0xa0, 0xb1, 0xa1, 0xa2, 0xb2]);
    }

    #[test]
    fn merge_respects_permutations() {
        // Parts stored out of order (completion-ordered appends): the
        // normaliser presents them sorted, stably, before the merge.
        let a = keyed(0xa0, &[(5, 1), (1, 0), (5, 1)]);
        let b = keyed(0xb0, &[(9, 1), (2, 0)]);
        let (a, b) = (a.sorted().unwrap(), b.sorted().unwrap());
        assert_eq!(
            a.src_addrs,
            vec![0xa1, 0xa0, 0xa2],
            "equal keys keep append order"
        );
        assert!(a.sorted().is_none(), "normalising is idempotent");
        let merged = DataOpColumns::merged(&[&a, &b]);
        assert_eq!(merged.src_addrs, vec![0xa1, 0xb1, 0xa0, 0xa2, 0xb0]);
        assert_eq!(
            merged.starts.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![1, 2, 5, 5, 9]
        );
        // Every column moves with its key, not just the probe column.
        for i in 0..merged.len() {
            let e = merged.event(i);
            assert_eq!(e.hash, Some(HashVal(e.id.0 ^ 0xabc)));
            assert_eq!(e.span.end.0, e.span.start.0 + 10);
        }
    }
}
