//! Struct-of-arrays ("columnar") event hydration.
//!
//! The five §5 detectors sweep the whole trace once, touching only a
//! few fields per step (a hash here, a start time there). Hydrating
//! into row-oriented `Vec<DataOpEvent>` makes every step drag a full
//! 88-byte row through the cache; hydrating into one column per field
//! lets each state machine stream over the handful of dense arrays it
//! actually reads. [`ColumnarView`] is that layout.
//!
//! # The one hydration pipeline
//!
//! Every §5 algorithm has one precondition — events in chronological
//! `(start, id)` order — and this module is the only place that knows
//! the rule. Every producer of a view goes through one merge, `merge`:
//! a streaming k-way merge that repeatedly takes the least
//! `(start, id, part)` head among its parts' cursors and moves that row
//! into the output columns — the order a stable sort of the
//! concatenated parts gives, ties going to the earlier part. A part
//! comes in one of two shapes:
//!
//! * **Records.** A live shard log's packed records, walked in append
//!   order and decoded once each, straight into the merged columns (the
//!   record cursors live in [`crate::log`]); the same pass folds every
//!   row into the log's [`TraceStats`]. A thread appends its events as
//!   they complete and one thread's events complete in the order they
//!   start, so on every measured workload every log part is already in
//!   `(start, id)` order and reaches the merge in this shape.
//! * **Columns** (`Columns`). A file's column sections, a caller-built
//!   [`ShardColumns`], or — when a log part's records break the order
//!   (a `nowait` completion, hostile input) and the record merge stops
//!   there — every log part, decoded first. The normaliser
//!   (`Table::sorted`) checks the order in one pass and stably sorts
//!   only a part that breaks it.
//!
//! Row views are *derived* from the columns on demand
//! (`DataOpColumns::to_events`), so row and columnar consumers can
//! never disagree.

use crate::stats::TraceStats;
use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};
use std::borrow::Cow;

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
    pub(crate) fn with_capacity(n: usize) -> Self {
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
    #[inline]
    pub(crate) fn push(&mut self, e: &DataOpEvent) {
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
    pub(crate) fn to_events(&self) -> Vec<DataOpEvent> {
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

    /// Append `e`, folded into `stats` when given: the one step by which
    /// [`merge`] emits a data-op row, whatever shape its part has.
    #[inline]
    pub(crate) fn emit(&mut self, e: &DataOpEvent, stats: Option<&mut TraceStats>) {
        if let Some(s) = stats {
            s.add_op(e.kind, e.src_device, e.dest_device, e.bytes, e.duration());
        }
        self.push(e);
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
    pub(crate) fn with_capacity(n: usize) -> Self {
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
    #[inline]
    pub(crate) fn push(&mut self, e: &TargetEvent) {
        self.ids.push(e.id);
        self.devices.push(e.device);
        self.kinds.push(e.kind);
        self.starts.push(e.span.start);
        self.ends.push(e.span.end);
        self.codeptrs.push(e.codeptr);
    }

    /// Gather event `i` back into a row.
    #[inline]
    pub(crate) fn event(&self, i: usize) -> TargetEvent {
        TargetEvent {
            id: self.ids[i],
            device: self.devices[i],
            kind: self.kinds[i],
            span: TimeSpan::new(self.starts[i], self.ends[i]),
            codeptr: self.codeptrs[i],
        }
    }

    /// Gather every event into a row vector.
    pub(crate) fn to_events(&self) -> Vec<TargetEvent> {
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

    /// Append `e`, a kernel folded into `stats` when given; see
    /// [`DataOpColumns::emit`].
    #[inline]
    pub(crate) fn emit(&mut self, e: &TargetEvent, stats: Option<&mut TraceStats>) {
        if let Some(s) = stats.filter(|_| e.kind == TargetKind::Kernel) {
            s.add_kernel(e.span.duration());
        }
        self.push(e);
    }
}

/// One part of a trace — a shard log, or one shard of a persisted file
/// — as columns, both tables `(start, id)`-sorted: the export form of a
/// log part and the load form of a file's shard, which the module's one
/// merge reads as a column part. The target columns carry every construct (with its
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

/// A row's place in chronological order.
pub(crate) type Key = (SimTime, EventId);

/// One `(start, id)`-ordered input of [`merge`]: it shows the key of
/// its next row and moves that row into the output columns.
pub(crate) trait Cursor {
    /// The columns rows are moved into.
    type Out;
    /// Key of the next row; `None` once every row has moved.
    fn head(&self) -> Option<Key>;
    /// Move the next row into `out`, folded into `stats` when given,
    /// and step past it. Called only while [`Cursor::head`] is `Some`.
    fn pop_into(&mut self, out: &mut Self::Out, stats: Option<&mut TraceStats>);
}

/// The one merge: every row of `parts` into `out` in ascending
/// `(start, id, part)` order — the order a stable sort of the
/// concatenated parts gives, ties going to the earlier part. Each row
/// is read once, from its part straight into `out`.
///
/// Returns whether every part held `(start, id)` order. A column part
/// always does (`Columns::new` normalises it); a record part is taken
/// on trust, and at the first row that breaks the order the merge stops
/// there and returns `false`, `out` and `stats` partial.
///
/// Each live part's head key is cached beside it and written back only
/// when that part's run ends. A part keeps the floor while its head
/// stays below the least other head, so a run costs one scan of the
/// cached heads (which yields the floor and the bound together) and
/// each row one comparison; the last part standing drains without
/// another scan.
pub(crate) fn merge<C: Cursor>(
    mut parts: Vec<C>,
    out: &mut C::Out,
    mut stats: Option<&mut TraceStats>,
) -> bool {
    // Drained parts leave, the rest keep their order. Each part's
    // `(head, index)`, `heads[i]` for `parts[i]`, orders it: equal heads
    // go to the earlier part, and no two parts tie.
    parts.retain(|p| p.head().is_some());
    let mut heads: Vec<(Key, usize)> = parts
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some((p.head()?, i)))
        .collect();
    while !heads.is_empty() {
        // The least head is the floor, the second least the bound.
        let (mut floor, mut bound) = (0, None);
        for (at, &key) in heads.iter().enumerate().skip(1) {
            if key < heads[floor] {
                bound = Some(heads[floor]);
                floor = at;
            } else if bound.is_none_or(|b| key < b) {
                bound = Some(key);
            }
        }
        let (mut head, index) = heads[floor];
        let part = &mut parts[floor];
        loop {
            part.pop_into(out, stats.as_deref_mut());
            match part.head() {
                None => {
                    parts.remove(floor);
                    heads.remove(floor);
                    break;
                }
                Some(next) if next < head => return false,
                Some(next) if bound.is_some_and(|b| (next, index) > b) => {
                    heads[floor].0 = next;
                    break;
                }
                Some(next) => head = next,
            }
        }
    }
    true
}

/// A column set [`Columns`] serves rows from.
pub(crate) trait Table: Clone {
    /// Empty columns with room for `n` rows.
    fn with_capacity(n: usize) -> Self;
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Key of row `i`.
    fn key(&self, i: usize) -> Key;
    /// Append row `i` of `from`, folded into `stats` when given.
    fn emit_row(&mut self, from: &Self, i: usize, stats: Option<&mut TraceStats>);
    /// The normaliser: these columns stably sorted into `(start, id)`
    /// order, or `None` when they hold it already — the usual case (see
    /// the module docs), which costs one comparison per row.
    fn sorted(&self) -> Option<Self>;
}

impl Table for DataOpColumns {
    fn with_capacity(n: usize) -> Self {
        DataOpColumns::with_capacity(n)
    }

    fn rows(&self) -> usize {
        self.len()
    }

    #[inline]
    fn key(&self, i: usize) -> Key {
        (self.starts[i], self.ids[i])
    }

    #[inline]
    fn emit_row(&mut self, from: &Self, i: usize, stats: Option<&mut TraceStats>) {
        self.emit(&from.event(i), stats);
    }

    fn sorted(&self) -> Option<DataOpColumns> {
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
}

impl Table for TargetColumns {
    fn with_capacity(n: usize) -> Self {
        TargetColumns::with_capacity(n)
    }

    fn rows(&self) -> usize {
        self.len()
    }

    #[inline]
    fn key(&self, i: usize) -> Key {
        (self.starts[i], self.ids[i])
    }

    #[inline]
    fn emit_row(&mut self, from: &Self, i: usize, stats: Option<&mut TraceStats>) {
        self.emit(&from.event(i), stats);
    }

    fn sorted(&self) -> Option<TargetColumns> {
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
}

/// A column part of [`merge`]: `(start, id)`-ordered columns and the
/// next row to move.
pub(crate) struct Columns<'a, T: Clone> {
    cols: Cow<'a, T>,
    at: usize,
}

impl<'a, T: Table> Columns<'a, T> {
    /// `cols` as a part: read where they lie when they hold the order,
    /// normalised on a copy when they break it.
    pub(crate) fn new(cols: Cow<'a, T>) -> Self {
        let cols = match cols.sorted() {
            Some(sorted) => Cow::Owned(sorted),
            None => cols,
        };
        Columns { cols, at: 0 }
    }
}

impl<T: Table> Cursor for Columns<'_, T> {
    type Out = T;

    #[inline]
    fn head(&self) -> Option<Key> {
        (self.at < self.cols.rows()).then(|| self.cols.key(self.at))
    }

    #[inline]
    fn pop_into(&mut self, out: &mut T, stats: Option<&mut TraceStats>) {
        out.emit_row(&self.cols, self.at, stats);
        self.at += 1;
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

    /// [`merge`] over column parts, as a file's shards are hydrated.
    fn merged(parts: &[&DataOpColumns]) -> DataOpColumns {
        let mut out = DataOpColumns::default();
        let parts = parts.iter().map(|&p| Columns::new(Cow::Borrowed(p)));
        assert!(merge(parts.collect(), &mut out, None));
        out
    }

    #[test]
    fn merge_orders_by_key_then_part() {
        // Part a: keys 1, 5, 5; part b: keys 1, 5, 9 — the same ids, as
        // two producers claiming one shard would emit. Equal (start, id)
        // must come out earlier-part-first (the stable concat order).
        let a = keyed(0xa0, &[(1, 0), (5, 1), (5, 1)]);
        let b = keyed(0xb0, &[(1, 0), (5, 1), (9, 2)]);
        assert!(a.sorted().is_none() && b.sorted().is_none());
        let merged_ab = merged(&[&a, &b]);
        assert_eq!(
            merged_ab.src_addrs,
            vec![0xa0, 0xb0, 0xa1, 0xa2, 0xb1, 0xb2]
        );
        assert_eq!(merged_ab.to_events().len(), 6);
        let swapped = merged(&[&b, &a]);
        assert_eq!(swapped.src_addrs, vec![0xb0, 0xa0, 0xb1, 0xa1, 0xa2, 0xb2]);
    }

    #[test]
    fn merge_respects_permutations() {
        // Parts stored out of order (completion-ordered appends): the
        // normaliser presents them sorted, stably, before the merge.
        let a = keyed(0xa0, &[(5, 1), (1, 0), (5, 1)]);
        let b = keyed(0xb0, &[(9, 1), (2, 0)]);
        let sorted_a = a.sorted().unwrap();
        assert_eq!(
            sorted_a.src_addrs,
            vec![0xa1, 0xa0, 0xa2],
            "equal keys keep append order"
        );
        assert!(sorted_a.sorted().is_none(), "normalising is idempotent");
        let merged_ab = merged(&[&a, &b]);
        assert_eq!(merged_ab.src_addrs, vec![0xa1, 0xb1, 0xa0, 0xa2, 0xb0]);
        assert_eq!(
            merged_ab.starts.iter().map(|t| t.0).collect::<Vec<_>>(),
            vec![1, 2, 5, 5, 9]
        );
        // Every column moves with its key, not just the probe column.
        for i in 0..merged_ab.len() {
            let e = merged_ab.event(i);
            assert_eq!(e.hash, Some(HashVal(e.id.0 ^ 0xabc)));
            assert_eq!(e.span.end.0, e.span.start.0 + 10);
        }
    }

    #[test]
    fn merge_stops_at_a_part_that_breaks_the_order() {
        // A part taken on trust, as record parts are: its second row
        // starts before its first.
        let trusted = keyed(0xa0, &[(1, 0), (9, 1), (4, 2)]);
        let parts = vec![Columns {
            cols: Cow::Borrowed(&trusted),
            at: 0,
        }];
        let mut out = DataOpColumns::default();
        assert!(!merge(parts, &mut out, None));
        assert_eq!(out.src_addrs, vec![0xa0, 0xa1], "stopped at the break");
        let parts = vec![Columns::new(Cow::Borrowed(&trusted))];
        let mut out = DataOpColumns::default();
        assert!(merge(parts, &mut out, None), "a normalised part holds");
    }

    #[test]
    fn merge_folds_every_row_into_stats_when_asked() {
        let a = keyed(0xa0, &[(1, 0), (5, 1)]);
        let b = keyed(0xb0, &[(2, 0), (3, 2), (7, 4)]);
        let mut out = DataOpColumns::default();
        let mut stats = TraceStats::default();
        let parts = vec![Columns::new(Cow::Borrowed(&a)), Columns::new(Cow::Owned(b))];
        assert!(merge(parts, &mut out, Some(&mut stats)));
        assert_eq!(out.len(), 5);
        assert_eq!((stats.transfers, stats.h2d_transfers), (5, 5));
        assert_eq!(stats.bytes_transferred, 5 * 64);
        assert_eq!(stats.transfer_time.as_nanos(), 5 * 10);
    }

    /// The order [`merge`] must give: the parts concatenated in order,
    /// then stably sorted by `(start, id)`.
    fn concat_sorted(parts: &[&DataOpColumns]) -> DataOpColumns {
        let mut rows: Vec<DataOpEvent> = parts.iter().flat_map(|p| p.to_events()).collect();
        rows.sort_by_key(|e| (e.span.start, e.id));
        DataOpColumns::from_events(&rows)
    }

    #[test]
    fn merge_edges_match_the_concat_sort() {
        let cases: Vec<(&str, Vec<DataOpColumns>)> = vec![
            (
                "three parts and more with equal keys across parts",
                vec![
                    keyed(0xa0, &[(1, 0), (5, 1), (5, 1), (7, 2)]),
                    keyed(0xb0, &[(1, 0), (5, 1), (7, 2)]),
                    keyed(0xc0, &[(1, 0), (5, 1), (5, 1), (9, 3)]),
                    keyed(0xd0, &[(5, 1), (7, 2)]),
                ],
            ),
            (
                // Part a drains after its first row, inside b's run of
                // equal keys, and the parts after it keep their ties.
                "a part drains in the middle of another part's run",
                vec![
                    keyed(0xa0, &[(5, 1)]),
                    keyed(0xb0, &[(1, 0), (5, 1), (5, 1), (6, 2)]),
                    keyed(0xc0, &[(2, 0), (5, 1), (6, 2)]),
                    keyed(0xd0, &[(3, 0), (4, 0)]),
                ],
            ),
            (
                // a's run reaches b's head exactly: a is earlier, so it
                // keeps the floor through the tie.
                "a run ends exactly at the bound, earlier part first",
                vec![
                    keyed(0xa0, &[(1, 0), (2, 0), (3, 0), (4, 0)]),
                    keyed(0xb0, &[(3, 0), (3, 1)]),
                ],
            ),
            (
                // The same keys with the parts swapped: b stops at the
                // tie and hands the floor over.
                "a run ends exactly at the bound, later part first",
                vec![
                    keyed(0xb0, &[(3, 0), (3, 1)]),
                    keyed(0xa0, &[(1, 0), (2, 0), (3, 0), (4, 0)]),
                ],
            ),
            ("one part and empty parts", {
                let empty = DataOpColumns::default();
                vec![empty.clone(), keyed(0xa0, &[(1, 0), (1, 0)]), empty]
            }),
        ];
        for (what, parts) in &cases {
            let parts: Vec<&DataOpColumns> = parts.iter().collect();
            assert_eq!(merged(&parts), concat_sorted(&parts), "{what}");
        }

        // Generated: up to five sorted parts over a few keys, so ties
        // across parts and parts that drain mid-run are common.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..2_000 {
            let parts: Vec<DataOpColumns> = (0..1 + next(5))
                .map(|p| {
                    let mut keys: Vec<(u64, u64)> =
                        (0..next(7)).map(|_| (next(6), next(3))).collect();
                    keys.sort_unstable();
                    keyed(0x100 * (p + 1), &keys)
                })
                .collect();
            let parts: Vec<&DataOpColumns> = parts.iter().collect();
            assert_eq!(merged(&parts), concat_sorted(&parts), "{parts:?}");
        }
    }

    #[test]
    fn a_trusted_part_that_breaks_mid_run_stops_the_merge() {
        // The trusted part runs 1, 2, 3 below the other part's head,
        // then steps back to 2: the merge stops there, with the rows
        // before the break out in order.
        let trusted = keyed(0xa0, &[(1, 0), (2, 0), (3, 0), (2, 5), (9, 0)]);
        let other = keyed(0xb0, &[(0, 1), (8, 1)]);
        let parts = vec![
            Columns::new(Cow::Borrowed(&other)),
            Columns {
                cols: Cow::Borrowed(&trusted),
                at: 0,
            },
        ];
        let mut out = DataOpColumns::default();
        assert!(!merge(parts, &mut out, None));
        assert_eq!(out.src_addrs, vec![0xb0, 0xa0, 0xa1, 0xa2]);
        let before_break = keyed(0xa0, &[(1, 0), (2, 0), (3, 0)]);
        let oracle = concat_sorted(&[&other, &before_break]);
        let oracle_prefix = oracle.to_events()[..out.len()].to_vec();
        assert_eq!(out.to_events(), oracle_prefix);
    }
}
