//! The trace log assembled by the tool while the program runs, and the
//! hydrated view the detectors consume afterwards.

use crate::chunked::ChunkedVec;
use crate::columnar::{
    merge, ColumnarView, Columns, Cursor, DataOpColumns, Key, ShardColumns, Table, TargetColumns,
};
use crate::intern::CodePtrTable;
use crate::record::{DataOpRecord, TargetRecord};
use crate::stats::{SpaceStats, TraceStats};
use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, SimDuration, SimTime, TargetEvent,
    TargetKind, TimeSpan,
};
use std::borrow::Cow;
use std::iter::Flatten;
use std::slice;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The tool-side event log.
///
/// Records are appended in completion order while the program runs; the
/// hydrated views returned by [`TraceLog::data_op_events_sorted`] and
/// [`TraceLog::target_events_sorted`] are sorted chronologically by event start
/// (with log order breaking ties), which is the precondition of every
/// algorithm in §5.
///
/// Hydration is memoized and **columnar-first**, and there is one of
/// it: `crate::columnar`'s one merge, the pipeline a persisted trace
/// is loaded through as well. Every part (the log itself, plus every
/// merged shard) is a cursor over its packed records, and the merge
/// decodes each record once, straight into the merged columns, folding
/// it into the [`TraceStats`] on the way. A thread's records are
/// appended as its events complete, which on every measured workload is
/// already the order they started in, so record parts are taken on
/// trust: when one breaks `(start, id)` order (a `nowait` completion),
/// the merge stops there and runs again from the start over every
/// part's records decoded into columns and stably sorted.
/// The first call to [`TraceLog::columnar`] (or any accessor that needs
/// it — data-op / kernel events, [`TraceLog::stats`],
/// [`TraceLog::to_json`]) runs that pass and caches the
/// [`ColumnarView`] with its stats; the detectors sweep those
/// cache-dense columns directly. The row slices returned by the
/// `*_sorted` accessors are *derived* from merged columns by a memoized
/// gather, so row and columnar consumers can never disagree. Appending
/// a record invalidates the caches (appends take `&mut self`, so no
/// reader can hold a stale borrow). [`TraceLog::sort_count`] exposes
/// how many hydration passes have actually run, so the memoization is
/// testable.
///
/// # Sharded collection
///
/// A multi-threaded tool appends to one *shard log per runtime thread*
/// ([`TraceLog::for_shard`]) and merges them after the run with
/// [`TraceLog::merge_shards`]. Shard logs embed their shard id in the
/// high bits of every hydrated [`odp_model::EventId`]
/// (`id = shard << 32 | per-shard seq`), so the merged hydration's
/// `(start, id)` sort is a deterministic `(timestamp, thread id,
/// per-thread order)` merge: the output is independent of how the OS
/// interleaved the recording threads. Issue findings survive the merge
/// unchanged because event ids never change — a streaming consumer that
/// observed shard-local events during the run resolves the very same
/// ids against the merged hydration.
#[derive(Debug, Default)]
pub struct TraceLog {
    data_ops: ChunkedVec<DataOpRecord>,
    targets: ChunkedVec<TargetRecord>,
    codeptrs: CodePtrTable,
    next_seq: u32,
    /// OR-ed into every hydrated event id (`shard << 32`).
    id_base: u64,
    /// Shard logs this log was merged from (empty for a plain log).
    /// Merged logs are read-only: hydration, stats, and export walk the
    /// shards; `record_*` must not be called on them.
    shards: Vec<TraceLog>,
    /// Event ids claimed by more than one shard record (shard-id
    /// collisions detected at merge; see `merge_shards`).
    duplicate_ids: u64,
    total_time: SimDuration,
    /// Memoized columnar hydration (data-op + kernel columns, both
    /// `(start, id)`-ordered) — the single indexing pass every other
    /// hydration view derives from — and the stats folded in the same
    /// pass (`total_time` aside, which [`TraceLog::stats`] reads live).
    hydration: OnceLock<(ColumnarView, TraceStats)>,
    /// Memoized row gather of the columnar data-op hydration.
    hydrated_ops: OnceLock<Vec<DataOpEvent>>,
    /// Memoized chronological hydration of all `targets`.
    hydrated_targets: OnceLock<Vec<TargetEvent>>,
    /// Memoized row gather of the columnar kernel hydration (the
    /// columnar pass filters *records*, so a log dominated by
    /// non-kernel constructs never hydrates them on this path).
    hydrated_kernels: OnceLock<Vec<TargetEvent>>,
    /// Number of hydration passes performed (observability for the
    /// memoization contract; not part of the trace).
    sort_passes: AtomicUsize,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty shard log for runtime thread `shard`. Hydrated event
    /// ids carry the shard in their high bits, so ids stay globally
    /// unique across the shard set and `(start, id)` sorting breaks
    /// same-start ties deterministically by `(shard, per-shard order)`.
    pub fn for_shard(shard: u32) -> Self {
        TraceLog {
            id_base: (shard as u64) << 32,
            ..Self::default()
        }
    }

    /// The shard id this log records for (0 for a plain log).
    pub(crate) fn shard(&self) -> u32 {
        (self.id_base >> 32) as u32
    }

    /// Merge per-thread shard logs into one read-only log whose
    /// hydration, stats, and export cover every shard. Event ids are
    /// preserved (shards already embed their shard id), so the merged
    /// chronological order — `(start, shard, per-shard seq)` — is
    /// independent of thread scheduling. A single shard is returned
    /// unchanged.
    ///
    /// Producers are not trusted to keep shard ids unique: when two
    /// shard logs claim the same shard id, their dense per-shard
    /// sequences collide and the overlapping records would previously
    /// have been silently double-counted. The merge now detects the
    /// collision and counts every duplicated `(shard, seq)` id in
    /// [`TraceLog::duplicate_id_count`], so downstream health
    /// accounting can quarantine rather than trust them.
    pub fn merge_shards(mut shards: Vec<TraceLog>) -> TraceLog {
        if shards.len() == 1 {
            if let Some(only) = shards.pop() {
                return only;
            }
        }
        let total_time = shards
            .iter()
            .map(|s| s.total_time)
            .max()
            .unwrap_or_default();
        // Shards sharing an id_base have dense seqs 0..next_seq, so the
        // ids duplicated by a colliding group are everything beyond the
        // group's widest shard: Σ next_seq − max next_seq.
        let mut by_base: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &shards {
            let entry = by_base.entry(s.id_base).or_insert((0, 0));
            entry.0 += s.next_seq as u64;
            entry.1 = entry.1.max(s.next_seq as u64);
        }
        let duplicate_ids = by_base.values().map(|(sum, max)| sum - max).sum();
        TraceLog {
            shards,
            total_time,
            duplicate_ids,
            ..Self::default()
        }
    }

    /// Event ids claimed by more than one record across the merged
    /// shard set (0 for a well-formed shard set or a plain log).
    pub fn duplicate_id_count(&self) -> u64 {
        self.duplicate_ids
    }

    /// Is this a merged (read-only) log?
    pub fn is_merged(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Record a data operation. Returns the hydrated event exactly as
    /// the memoized hydration will later produce it (same `EventId`), so
    /// online consumers — the streaming detection engine — observe the
    /// identical event without re-deriving record encoding.
    #[allow(clippy::too_many_arguments)]
    pub fn record_data_op(
        &mut self,
        kind: DataOpKind,
        src_device: DeviceId,
        dest_device: DeviceId,
        src_addr: u64,
        dest_addr: u64,
        bytes: u64,
        hash: Option<u64>,
        span: TimeSpan,
        codeptr: CodePtr,
    ) -> DataOpEvent {
        debug_assert!(self.shards.is_empty(), "merged logs are read-only");
        let seq = self.next_seq;
        self.next_seq += 1;
        let record = DataOpRecord::new(
            seq,
            kind,
            src_device,
            dest_device,
            src_addr,
            dest_addr,
            bytes,
            hash,
            span,
            codeptr,
        );
        let mut event = record.to_event();
        event.id = EventId(self.id_base | event.id.0);
        self.data_ops.push(record);
        self.invalidate_hydration();
        self.note_end(span);
        event
    }

    /// Record a target construct / kernel execution. Returns the
    /// hydrated event, with the same (wrapped) sequence id hydration
    /// assigns — see [`TraceLog::record_data_op`].
    pub fn record_target(
        &mut self,
        kind: TargetKind,
        device: DeviceId,
        span: TimeSpan,
        codeptr: CodePtr,
    ) -> TargetEvent {
        debug_assert!(self.shards.is_empty(), "merged logs are read-only");
        let seq = self.next_seq;
        self.next_seq += 1;
        let ix = self.codeptrs.intern(codeptr);
        let record = TargetRecord::new(seq, device, kind, span, ix);
        let event = record.to_event(self.id_base | record.seq() as u64, codeptr);
        self.targets.push(record);
        self.invalidate_hydration();
        self.note_end(span);
        event
    }

    /// Drop the memoized hydrations after an append. Cheap when nothing
    /// is cached (the steady state while the program runs).
    fn invalidate_hydration(&mut self) {
        self.hydration.take();
        self.hydrated_ops.take();
        self.hydrated_targets.take();
        self.hydrated_kernels.take();
    }

    fn note_end(&mut self, span: TimeSpan) {
        let end = SimDuration(span.end.as_nanos());
        if end > self.total_time {
            self.total_time = end;
        }
    }

    /// Explicitly set the monitored program's total execution time (the
    /// tool records this at finalization; used by prediction).
    pub fn set_total_time(&mut self, t: SimDuration) {
        if t > self.total_time {
            self.total_time = t;
        }
    }

    /// Total program execution time seen by the log.
    pub fn total_time(&self) -> SimDuration {
        self.total_time
    }

    /// This log and every shard it was merged from (self first). A
    /// plain log yields just itself.
    fn parts(&self) -> impl Iterator<Item = &TraceLog> {
        std::iter::once(self).chain(self.shards.iter())
    }

    /// Number of data-op records.
    pub fn data_op_count(&self) -> usize {
        self.parts().map(|p| p.data_ops.len()).sum()
    }

    /// Number of target records.
    pub fn target_count(&self) -> usize {
        self.parts().map(|p| p.targets.len()).sum()
    }

    /// Bytes currently allocated by the log — and, the log being
    /// append-only (nothing it allocates is released before it is
    /// dropped), the most it ever held: Figure 3's peak. Every store
    /// keeps its own running figure, so this reads three numbers per
    /// part and an append pays nothing for it.
    pub(crate) fn current_alloc_bytes(&self) -> usize {
        self.parts()
            .map(|p| {
                p.data_ops.allocated_bytes()
                    + p.targets.allocated_bytes()
                    + p.codeptrs.allocated_bytes()
            })
            .sum()
    }

    /// Space accounting for Figure 3.
    pub fn space_stats(&self) -> SpaceStats {
        SpaceStats {
            data_op_records: self.data_op_count(),
            target_records: self.target_count(),
            record_bytes: self
                .parts()
                .map(|p| p.data_ops.used_bytes() + p.targets.used_bytes())
                .sum(),
            peak_alloc_bytes: self.current_alloc_bytes(),
        }
    }

    /// This part's data-op records as `(start, id)`-ordered columns:
    /// its export form, and its merge form when the records break the
    /// order.
    fn op_columns(&self) -> DataOpColumns {
        let mut cols = DataOpColumns::with_capacity(self.data_ops.len());
        for r in self.data_ops.iter() {
            let mut e = r.to_event();
            e.id = EventId(self.id_base | e.id.0);
            cols.push(&e);
        }
        cols.sorted().unwrap_or(cols)
    }

    /// This part's target records that pass `keep`, as `(start, id)`-
    /// ordered columns; see [`TraceLog::op_columns`].
    fn target_columns(&self, keep: fn(&TargetRecord) -> bool) -> TargetColumns {
        let mut cols = TargetColumns::default();
        for r in self.targets.iter().filter(|r| keep(r)) {
            let cp = self.codeptrs.resolve(r.codeptr_ix);
            cols.push(&r.to_event(self.id_base | r.seq() as u64, cp));
        }
        cols.sorted().unwrap_or(cols)
    }

    /// One table of every part, `rows` long, through the one merge and
    /// folded into `stats`: as record cursors, or — when a part's
    /// records break `(start, id)` order (a `nowait` completion) — again
    /// from the start over every part's normalised columns.
    fn merged<'a, R>(
        &'a self,
        rows: usize,
        records: impl Fn(&'a TraceLog) -> R,
        columns: impl Fn(&'a TraceLog) -> R::Out,
        stats: &mut TraceStats,
    ) -> R::Out
    where
        R: Cursor,
        R::Out: Table,
    {
        let before = *stats;
        let mut out = R::Out::with_capacity(rows);
        let parts = self.parts().map(records);
        if merge(parts.collect(), &mut out, Some(&mut *stats)) {
            return out;
        }
        *stats = before;
        let mut out = R::Out::with_capacity(rows);
        let parts = self.parts().map(|p| Columns::new(Cow::Owned(columns(p))));
        merge(parts.collect(), &mut out, Some(stats));
        out
    }

    /// The memoized hydration: both column sets, merged from every part
    /// in one pass that also folds the stats.
    fn hydration(&self) -> &(ColumnarView, TraceStats) {
        self.hydration.get_or_init(|| {
            self.sort_passes.fetch_add(1, Ordering::Relaxed);
            let mut stats = TraceStats::default();
            let ops = self.merged(
                self.data_op_count(),
                OpRecords::new,
                TraceLog::op_columns,
                &mut stats,
            );
            // Counted on the packed records first, so the kernel columns
            // are sized exactly, like the data-op ones.
            let kernel_rows = self
                .parts()
                .map(|p| p.targets.iter().filter(|r| is_kernel(r)).count());
            let kernels = self.merged(
                kernel_rows.sum(),
                |p| TargetRecords::new(p, is_kernel),
                |p| p.target_columns(is_kernel),
                &mut stats,
            );
            (ColumnarView { ops, kernels }, stats)
        })
    }

    /// Borrow the memoized columnar hydration: data-op and kernel
    /// events decomposed into `(start, id)`-ordered struct-of-arrays
    /// columns — the representation the fused detector sweeps consume
    /// directly. Built in one pass per batch of appends: every part's
    /// records are decoded once, straight into the columns, in
    /// `(start, id, part)` order — byte-identical to stably sorting the
    /// concatenation, without sorting or copying an ordered part.
    pub fn columnar(&self) -> &ColumnarView {
        &self.hydration().0
    }

    /// Borrow the memoized chronological data-op events (start, then log
    /// order) — the `data_op_events` input of Algorithms 1–5. A gather
    /// from the columnar hydration, memoized; no additional sorting. On
    /// a merged log this is the deterministic `(start, shard, per-shard
    /// order)` merge of every shard's stream.
    pub fn data_op_events_sorted(&self) -> &[DataOpEvent] {
        self.hydrated_ops
            .get_or_init(|| self.columnar().ops.to_events())
    }

    /// Borrow the memoized chronological target events: every
    /// construct, not only the kernels, through the same decode and
    /// merge as [`TraceLog::columnar`].
    pub fn target_events_sorted(&self) -> &[TargetEvent] {
        self.hydrated_targets.get_or_init(|| {
            self.sort_passes.fetch_add(1, Ordering::Relaxed);
            let every = |_: &TargetRecord| true;
            self.merged(
                self.target_count(),
                |p| TargetRecords::new(p, every),
                |p| p.target_columns(every),
                &mut TraceStats::default(),
            )
            .to_events()
        })
    }

    /// Borrow the memoized kernel-execution events (input to Algorithms
    /// 4/5). A gather from the columnar hydration.
    pub fn kernel_events_sorted(&self) -> &[TargetEvent] {
        self.hydrated_kernels
            .get_or_init(|| self.columnar().kernels.to_events())
    }

    /// Export every part of this log — the log itself plus each merged
    /// shard, in merge order, empty parts skipped — as [`ShardColumns`]:
    /// the input of [`crate::persist`].
    ///
    /// These are the parts [`TraceLog::columnar`] merges, as ordered
    /// columns, in the part order its merge tie-breaks on, so merging
    /// them again reproduces the in-memory hydration exactly — including
    /// adversarial shard sets whose event ids collide. Unlike the
    /// columnar hydration, the exported target columns carry *every*
    /// target construct (with its kind column), so a persisted trace
    /// also reproduces [`TraceLog::target_events_sorted`], stats, and
    /// space accounting.
    pub(crate) fn shard_parts(&self) -> Vec<ShardColumns> {
        self.parts()
            .filter(|p| !(p.data_ops.is_empty() && p.targets.is_empty()))
            .map(|p| ShardColumns {
                shard: p.shard(),
                ops: p.op_columns(),
                targets: p.target_columns(|_| true),
            })
            .collect()
    }

    /// Number of hydration passes performed so far. Repeated calls
    /// to the event accessors must not grow this (the memoization
    /// contract); appending a record resets the caches and allows one
    /// more pass per view.
    pub fn sort_count(&self) -> usize {
        self.sort_passes.load(Ordering::Relaxed)
    }

    /// Aggregate statistics for reports: folded by the columnar
    /// hydration's pass (run by this call if nothing ran it yet), with
    /// the total time as it stands now.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            total_time: self.total_time,
            ..self.hydration().1
        }
    }

    /// Export the hydrated events as pretty JSON (reuses the memoized
    /// hydrations; no additional sorting).
    pub fn to_json(&self) -> String {
        #[derive(serde::Serialize)]
        struct Export<'a> {
            data_ops: &'a [DataOpEvent],
            targets: &'a [TargetEvent],
            total_time_ns: u64,
        }
        // Invariant, not event data: the export is built from plain
        // serializable types; serialization cannot fail.
        #[allow(clippy::expect_used)]
        serde_json::to_string_pretty(&Export {
            data_ops: self.data_op_events_sorted(),
            targets: self.target_events_sorted(),
            total_time_ns: self.total_time.as_nanos(),
        })
        .expect("trace serialization cannot fail")
    }
}

/// The filter of the detectors' target table.
fn is_kernel(r: &TargetRecord) -> bool {
    r.kind() == TargetKind::Kernel
}

/// A log's data-op records as a merge part: walked in append order,
/// each decoded once, straight into the merged columns.
struct OpRecords<'a> {
    records: Flatten<slice::Iter<'a, Vec<DataOpRecord>>>,
    next: Option<&'a DataOpRecord>,
    id_base: u64,
}

impl<'a> OpRecords<'a> {
    fn new(log: &'a TraceLog) -> Self {
        let mut records = log.data_ops.iter();
        OpRecords {
            next: records.next(),
            records,
            id_base: log.id_base,
        }
    }
}

impl Cursor for OpRecords<'_> {
    type Out = DataOpColumns;

    #[inline]
    fn head(&self) -> Option<Key> {
        let id = |r: &DataOpRecord| EventId(self.id_base | r.seq as u64);
        self.next.map(|r| (SimTime(r.start), id(r)))
    }

    #[inline]
    fn pop_into(&mut self, out: &mut DataOpColumns, stats: Option<&mut TraceStats>) {
        if let Some(r) = self.next {
            let mut e = r.to_event();
            e.id = EventId(self.id_base | e.id.0);
            out.emit(&e, stats);
        }
        self.next = self.records.next();
    }
}

/// A log's target records that pass a filter — every construct, or the
/// kernels — as a merge part; see [`OpRecords`].
struct TargetRecords<'a> {
    records: Flatten<slice::Iter<'a, Vec<TargetRecord>>>,
    next: Option<&'a TargetRecord>,
    keep: fn(&TargetRecord) -> bool,
    log: &'a TraceLog,
}

impl<'a> TargetRecords<'a> {
    fn new(log: &'a TraceLog, keep: fn(&TargetRecord) -> bool) -> Self {
        let mut cursor = TargetRecords {
            records: log.targets.iter(),
            next: None,
            keep,
            log,
        };
        cursor.advance();
        cursor
    }

    fn advance(&mut self) {
        let keep = self.keep;
        self.next = self.records.find(|r| keep(r));
    }
}

impl Cursor for TargetRecords<'_> {
    type Out = TargetColumns;

    #[inline]
    fn head(&self) -> Option<Key> {
        let id = |r: &TargetRecord| EventId(self.log.id_base | r.seq() as u64);
        self.next.map(|r| (SimTime(r.start), id(r)))
    }

    #[inline]
    fn pop_into(&mut self, out: &mut TargetColumns, stats: Option<&mut TraceStats>) {
        if let Some(r) = self.next {
            let codeptr = self.log.codeptrs.resolve(r.codeptr_ix);
            out.emit(
                &r.to_event(self.log.id_base | r.seq() as u64, codeptr),
                stats,
            );
        }
        self.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::SimTime;

    fn span(a: u64, b: u64) -> TimeSpan {
        TimeSpan::new(SimTime(a), SimTime(b))
    }

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.record_data_op(
            DataOpKind::Alloc,
            DeviceId::HOST,
            DeviceId::target(0),
            0x1000,
            0x8000,
            256,
            None,
            span(0, 10),
            CodePtr(0x400100),
        );
        log.record_data_op(
            DataOpKind::Transfer,
            DeviceId::HOST,
            DeviceId::target(0),
            0x1000,
            0x8000,
            256,
            Some(0xabcd),
            span(10, 30),
            CodePtr(0x400100),
        );
        log.record_target(
            TargetKind::Kernel,
            DeviceId::target(0),
            span(30, 90),
            CodePtr(0x400200),
        );
        log.record_data_op(
            DataOpKind::Transfer,
            DeviceId::target(0),
            DeviceId::HOST,
            0x8000,
            0x1000,
            256,
            Some(0xef01),
            span(90, 110),
            CodePtr(0x400100),
        );
        log.record_data_op(
            DataOpKind::Delete,
            DeviceId::HOST,
            DeviceId::target(0),
            0x1000,
            0x8000,
            256,
            None,
            span(110, 115),
            CodePtr(0x400100),
        );
        log
    }

    #[test]
    fn counts_and_hydration() {
        let log = sample_log();
        assert_eq!(log.data_op_count(), 4);
        assert_eq!(log.target_count(), 1);
        let ops = log.data_op_events_sorted();
        assert_eq!(ops.len(), 4);
        assert!(ops.windows(2).all(|w| w[0].span.start <= w[1].span.start));
        let kernels = log.kernel_events_sorted();
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].codeptr, CodePtr(0x400200));
    }

    #[test]
    fn stats_aggregate_correctly() {
        let log = sample_log();
        let s = log.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.h2d_transfers, 1);
        assert_eq!(s.d2h_transfers, 1);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.kernels, 1);
        assert_eq!(s.bytes_transferred, 512);
        assert_eq!(s.transfer_time, SimDuration(40));
        assert_eq!(s.kernel_time, SimDuration(60));
        assert_eq!(s.total_time, SimDuration(115));
    }

    #[test]
    fn chronological_sort_breaks_ties_by_log_order() {
        let mut log = TraceLog::new();
        for i in 0..5u64 {
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                i,
                0,
                1,
                Some(i),
                span(100, 100),
                CodePtr::NULL,
            );
        }
        let ops = log.data_op_events_sorted();
        let addrs: Vec<u64> = ops.iter().map(|e| e.src_addr).collect();
        assert_eq!(addrs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k-record append loop is too slow under miri")]
    fn space_stats_track_peak() {
        let mut log = TraceLog::new();
        for _ in 0..10_000 {
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                0,
                0,
                1,
                Some(1),
                span(0, 1),
                CodePtr::NULL,
            );
        }
        let ss = log.space_stats();
        assert_eq!(ss.data_op_records, 10_000);
        assert_eq!(ss.record_bytes, 10_000 * 72);
        assert!(ss.peak_alloc_bytes >= ss.record_bytes);
    }

    /// What space accounting was before the stores kept running
    /// figures: every chunk's capacity re-summed.
    fn recomputed_alloc_bytes(log: &TraceLog) -> usize {
        log.data_ops.recomputed_allocated_bytes()
            + log.targets.recomputed_allocated_bytes()
            + log.codeptrs.allocated_bytes()
    }

    /// Replay `steps` (`0` = a data op, else a target construct, at
    /// one of a few code pointers) into a fresh shard log, checking the
    /// running figures against the recomputed walk after every append.
    /// Returns the log and the running maximum of the recomputed sum —
    /// the peak as it used to be tracked, record by record.
    fn replay_checking_space(shard: u32, steps: &[(u8, u64)]) -> (TraceLog, usize) {
        let mut log = TraceLog::for_shard(shard);
        let mut peak = 0;
        for (i, &(what, cp)) in steps.iter().enumerate() {
            let at = span(i as u64, i as u64 + 1);
            if what == 0 {
                log.record_data_op(
                    DataOpKind::Transfer,
                    DeviceId::HOST,
                    DeviceId::target(0),
                    cp,
                    0,
                    8,
                    Some(cp),
                    at,
                    CodePtr(cp),
                );
            } else {
                log.record_target(TargetKind::Kernel, DeviceId::target(0), at, CodePtr(cp));
            }
            assert_eq!(
                log.data_ops.allocated_bytes(),
                log.data_ops.recomputed_allocated_bytes()
            );
            assert_eq!(
                log.targets.allocated_bytes(),
                log.targets.recomputed_allocated_bytes()
            );
            peak = peak.max(recomputed_alloc_bytes(&log));
            assert_eq!(log.space_stats().peak_alloc_bytes, peak, "after append {i}");
        }
        (log, peak)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 32 }))]

        #[test]
        fn running_space_figures_equal_the_recomputed_sum(
            steps in proptest::collection::vec(
                (0u8..2, 0u64..40),
                1..(if cfg!(miri) { 200 } else { 1200 }),
            ),
            shards in 2usize..5,
        ) {
            replay_checking_space(0, &steps);

            // Merged: the same appends dealt round-robin to 2-4 shards;
            // the merged peak is the sum of the shards' own.
            let mut dealt = vec![Vec::new(); shards];
            for (i, &step) in steps.iter().enumerate() {
                dealt[i % shards].push(step);
            }
            let (logs, peaks): (Vec<TraceLog>, Vec<usize>) = dealt
                .iter()
                .enumerate()
                .map(|(shard, steps)| replay_checking_space(shard as u32, steps))
                .unzip();
            let merged = TraceLog::merge_shards(logs);
            assert_eq!(merged.space_stats().peak_alloc_bytes, peaks.iter().sum::<usize>());
        }
    }

    #[test]
    fn json_export_is_valid() {
        let log = sample_log();
        let json = log.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["data_ops"].as_array().unwrap().len(), 4);
        assert_eq!(v["total_time_ns"], 115);
    }

    #[test]
    fn hydration_is_memoized_until_append() {
        let mut log = sample_log();
        assert_eq!(log.sort_count(), 0, "no hydration before first access");

        // The first event access runs the single columnar indexing
        // pass; it covers data ops AND kernels.
        let k1 = log.kernel_events_sorted();
        assert_eq!(log.sort_count(), 1);
        let k2 = log.kernel_events_sorted();
        assert_eq!(log.sort_count(), 1, "kernel hydration memoized");
        assert_eq!(k1, k2);

        // Data-op rows are a gather from the same columnar pass — no
        // second sort.
        let ops1 = log.data_op_events_sorted().len();
        let ops2 = log.data_op_events_sorted();
        assert_eq!(ops1, ops2.len());
        assert_eq!(
            log.sort_count(),
            1,
            "data ops derive from the columnar pass"
        );

        // Stats and JSON export reuse the caches (JSON additionally
        // builds the full target hydration, once).
        let _ = log.stats();
        let _ = log.stats();
        let _ = log.to_json();
        let _ = log.to_json();
        assert_eq!(log.sort_count(), 2, "export added only the target sort");

        // Appending invalidates: the next access re-runs the columnar
        // pass, once.
        log.record_data_op(
            DataOpKind::Transfer,
            DeviceId::HOST,
            DeviceId::target(0),
            0x1,
            0x2,
            8,
            Some(9),
            span(200, 210),
            CodePtr::NULL,
        );
        let ops3 = log.data_op_events_sorted();
        assert_eq!(ops3.len(), ops1 + 1);
        assert_eq!(log.sort_count(), 3);
        let _ = log.data_op_events_sorted();
        assert_eq!(log.sort_count(), 3);
    }

    #[test]
    fn columnar_hydration_matches_row_hydration() {
        let log = sample_log();
        let cols = log.columnar();
        assert_eq!(cols.ops.to_events(), log.data_op_events_sorted());
        assert_eq!(cols.kernels.to_events(), log.kernel_events_sorted());
        for (i, e) in log.data_op_events_sorted().iter().enumerate() {
            assert_eq!(&cols.ops.event(i), e, "field-for-field at {i}");
        }
    }

    /// The k-way shard merge must emit exactly the order the old
    /// concat-then-stable-sort produced — including overlapping spans,
    /// same-start ties across shards, and out-of-append-order starts
    /// within a shard (completion-ordered recording).
    #[test]
    fn kway_merge_order_matches_concat_sort() {
        let build = || {
            let mut a = TraceLog::for_shard(0);
            let mut b = TraceLog::for_shard(1);
            let mut c = TraceLog::for_shard(7);
            // Appended in completion order: starts go backwards.
            for &t in &[40u64, 10, 25, 10] {
                a.record_data_op(
                    DataOpKind::Transfer,
                    DeviceId::HOST,
                    DeviceId::target(0),
                    0x1000 + t,
                    0xd000,
                    64,
                    Some(t),
                    span(t, t + 30),
                    CodePtr(0x100),
                );
            }
            for &t in &[10u64, 10, 90] {
                b.record_data_op(
                    DataOpKind::Alloc,
                    DeviceId::HOST,
                    DeviceId::target(1),
                    0x2000 + t,
                    0xe000,
                    32,
                    None,
                    span(t, t + 5),
                    CodePtr(0x200),
                );
                b.record_target(
                    TargetKind::Kernel,
                    DeviceId::target(1),
                    span(t + 1, t + 4),
                    CodePtr(0x300),
                );
            }
            c.record_target(
                TargetKind::Kernel,
                DeviceId::target(0),
                span(10, 20),
                CodePtr(0x400),
            );
            vec![a, b, c]
        };

        // Oracle: hydrate every shard separately and stable-sort the
        // concatenation, in shard-vector order — the old row path.
        let shards = build();
        let mut naive_ops: Vec<DataOpEvent> = shards
            .iter()
            .flat_map(|s| s.data_op_events_sorted().to_vec())
            .collect();
        naive_ops.sort_by_key(|e| (e.span.start, e.id));
        let mut naive_kernels: Vec<TargetEvent> = shards
            .iter()
            .flat_map(|s| s.kernel_events_sorted().to_vec())
            .collect();
        naive_kernels.sort_by_key(|e| (e.span.start, e.id));

        let merged = TraceLog::merge_shards(build());
        assert_eq!(merged.data_op_events_sorted(), naive_ops);
        assert_eq!(merged.kernel_events_sorted(), naive_kernels);
        assert_eq!(merged.columnar().ops.to_events(), naive_ops);
    }

    /// A 3-part merged log: shard 1 appended out of `(start, id)` order
    /// (a `nowait` completion), shards 0 and 2 claiming the same shard
    /// id so whole keys tie across parts, and every part's kernel
    /// completing before the region around it. The columnar view, every
    /// target and the stats must equal the oracle: the parts' rows
    /// concatenated in merge order and stably sorted. With shard 1 in
    /// order the data ops take the record path alone; out of order they
    /// take the column fallback, as the full target table always does.
    #[test]
    fn out_of_order_and_colliding_parts_hydrate_like_the_oracle() {
        for nowait in [false, true] {
            let ctx = format!("nowait {nowait}");
            let unordered = if nowait { [25, 5, 40] } else { [5, 25, 40] };
            let (mut ops, mut targets, mut logs) = (Vec::new(), Vec::new(), Vec::new());
            for (part, (shard, starts)) in [(0, [10, 20, 30]), (1, unordered), (0, [10, 20, 35])]
                .into_iter()
                .enumerate()
            {
                let mut log = TraceLog::for_shard(shard);
                let tag = 0x1000 * part as u64;
                for (i, &t) in starts.iter().enumerate() {
                    let (kind, hash) = [
                        (DataOpKind::Alloc, None),
                        (DataOpKind::Transfer, Some(t)),
                        (DataOpKind::Delete, None),
                    ][i];
                    ops.push(log.record_data_op(
                        kind,
                        DeviceId::HOST,
                        DeviceId::target(0),
                        tag + i as u64,
                        0xd000,
                        64 << i,
                        hash,
                        span(t, t + 4 + i as u64),
                        CodePtr(0x100),
                    ));
                }
                let (dev, t) = (DeviceId::target(0), starts[0]);
                targets.push(log.record_target(
                    TargetKind::Kernel,
                    dev,
                    span(t + 1, t + 2),
                    CodePtr(0x200 + tag),
                ));
                targets.push(log.record_target(
                    TargetKind::Region,
                    dev,
                    span(t, t + 3),
                    CodePtr(0x300 + tag),
                ));
                logs.push(log);
            }
            ops.sort_by_key(|e| (e.span.start, e.id));
            targets.sort_by_key(|e| (e.span.start, e.id));
            let kernels: Vec<TargetEvent> = targets
                .iter()
                .filter(|e| e.kind == TargetKind::Kernel)
                .cloned()
                .collect();
            let mut oracle = TraceStats::default();
            for e in &ops {
                oracle.add_op(e.kind, e.src_device, e.dest_device, e.bytes, e.duration());
            }
            for k in &kernels {
                oracle.add_kernel(k.span.duration());
            }

            let log = TraceLog::merge_shards(logs);
            assert_eq!(log.duplicate_id_count(), 5, "{ctx}");
            oracle.total_time = log.total_time();
            let view = ColumnarView::from_events(&ops, &kernels);
            assert_eq!(log.columnar(), &view, "{ctx}");
            assert_eq!(log.target_events_sorted(), targets, "{ctx}");
            assert_eq!(
                serde_json::to_string(&log.stats()).unwrap(),
                serde_json::to_string(&oracle).unwrap(),
                "{ctx}"
            );
            assert_eq!(log.sort_count(), 2, "one pass per view ({ctx})");
        }
    }

    #[test]
    fn set_total_time_after_hydration_shows_in_stats() {
        let mut log = sample_log();
        assert_eq!(log.stats().total_time, SimDuration(115));
        log.set_total_time(SimDuration(10_000));
        let s = log.stats();
        assert_eq!(
            s.total_time,
            SimDuration(10_000),
            "the finalized total time reaches stats of an existing hydration"
        );
        assert_eq!((s.transfers, s.kernels), (2, 1), "the folded sums stay");
        assert_eq!(log.sort_count(), 1, "no second hydration pass");
        // A shrinking set is a no-op.
        log.set_total_time(SimDuration(5));
        assert_eq!(log.stats().total_time, SimDuration(10_000));
    }

    #[test]
    fn sorted_accessors_borrow_the_same_hydration() {
        let log = sample_log();
        let a = log.data_op_events_sorted().as_ptr();
        let b = log.data_op_events_sorted().as_ptr();
        assert_eq!(a, b, "repeated calls borrow one cached vector");
    }

    #[test]
    fn record_returns_exactly_the_hydrated_event() {
        let mut log = TraceLog::new();
        let op = log.record_data_op(
            DataOpKind::Transfer,
            DeviceId::HOST,
            DeviceId::target(1),
            0x1000,
            0x8000,
            128,
            Some(0xfeed),
            span(5, 9),
            CodePtr(0x400700),
        );
        let kernel = log.record_target(
            TargetKind::Kernel,
            DeviceId::target(1),
            span(10, 20),
            CodePtr(0x400800),
        );
        assert_eq!(log.data_op_events_sorted()[0], op);
        assert_eq!(log.kernel_events_sorted()[0], kernel);
        assert_eq!(kernel.id.0, 1, "wrapped sequence id matches hydration");
    }

    fn shard_with_ops(shard: u32, starts: &[u64]) -> TraceLog {
        let mut log = TraceLog::for_shard(shard);
        for &t in starts {
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000 + t,
                0xd000,
                64,
                Some(t),
                span(t, t + 10),
                CodePtr(0x100),
            );
        }
        log.record_target(
            TargetKind::Kernel,
            DeviceId::target(0),
            span(500, 600),
            CodePtr(0x200),
        );
        log
    }

    #[test]
    fn shard_ids_embed_the_shard_in_high_bits() {
        let mut log = TraceLog::for_shard(3);
        assert_eq!(log.shard(), 3);
        let e = log.record_data_op(
            DataOpKind::Transfer,
            DeviceId::HOST,
            DeviceId::target(0),
            0x1,
            0x2,
            8,
            Some(9),
            span(0, 1),
            CodePtr::NULL,
        );
        assert_eq!(e.id.0, (3u64 << 32), "shard 3, local seq 0");
        let k = log.record_target(
            TargetKind::Kernel,
            DeviceId::target(0),
            span(2, 3),
            CodePtr::NULL,
        );
        assert_eq!(k.id.0, (3u64 << 32) | 1);
        assert_eq!(
            log.data_op_events_sorted()[0],
            e,
            "hydration matches the return"
        );
        assert_eq!(log.kernel_events_sorted()[0], k);
    }

    #[test]
    fn merged_hydration_breaks_same_start_ties_by_shard() {
        // Both shards carry events at identical start times: the merged
        // chronological order must interleave them by (start, shard,
        // per-shard order), regardless of shard vector order... the
        // shard id is in the event id, so even reversing the vector
        // changes nothing.
        let a = shard_with_ops(0, &[10, 10, 30]);
        let b = shard_with_ops(1, &[10, 20, 30]);
        let merged = TraceLog::merge_shards(vec![a, b]);
        assert!(merged.is_merged());
        let ops = merged.data_op_events_sorted();
        let key: Vec<(u64, u64)> = ops.iter().map(|e| (e.span.start.0, e.id.0)).collect();
        let mut sorted = key.clone();
        sorted.sort();
        assert_eq!(key, sorted, "chronological with deterministic ties");
        // At t=10: shard 0's two events (seq 0, 1), then shard 1's.
        assert_eq!(ops[0].id.0, 0);
        assert_eq!(ops[1].id.0, 1);
        assert_eq!(ops[2].id.0, 1 << 32);

        let a2 = shard_with_ops(0, &[10, 10, 30]);
        let b2 = shard_with_ops(1, &[10, 20, 30]);
        let merged2 = TraceLog::merge_shards(vec![b2, a2]);
        assert_eq!(
            merged.to_json(),
            merged2.to_json(),
            "merge output independent of shard vector order"
        );
    }

    #[test]
    fn merged_counts_stats_and_space_aggregate_over_shards() {
        let a = shard_with_ops(0, &[0, 10]);
        let b = shard_with_ops(1, &[5]);
        let (sa, sb) = (a.stats(), b.stats());
        let merged = TraceLog::merge_shards(vec![a, b]);
        assert_eq!(merged.data_op_count(), 3);
        assert_eq!(merged.target_count(), 2);
        let s = merged.stats();
        assert_eq!(s.transfers, sa.transfers + sb.transfers);
        assert_eq!(s.kernels, 2);
        assert_eq!(
            s.bytes_transferred,
            sa.bytes_transferred + sb.bytes_transferred
        );
        assert_eq!(s.total_time, sa.total_time.max(sb.total_time));
        let space = merged.space_stats();
        assert_eq!(space.data_op_records, 3);
        assert_eq!(space.target_records, 2);
        assert!(space.record_bytes >= 3 * 72 + 2 * 24);
        assert_eq!(merged.kernel_events_sorted().len(), 2);
    }

    #[test]
    fn merge_counts_duplicate_ids_from_colliding_shards() {
        // Two producers mistakenly claim shard 1: their dense seqs
        // collide, so the smaller shard's records (2 ops + 1 kernel)
        // all duplicate ids the larger shard already claimed.
        let a = shard_with_ops(1, &[0, 10, 20]);
        let b = shard_with_ops(1, &[5, 15]);
        let c = shard_with_ops(2, &[7]);
        let merged = TraceLog::merge_shards(vec![a, b, c]);
        assert_eq!(merged.duplicate_id_count(), 3);

        let clean =
            TraceLog::merge_shards(vec![shard_with_ops(0, &[0, 10]), shard_with_ops(1, &[5])]);
        assert_eq!(clean.duplicate_id_count(), 0, "unique shards are clean");
    }

    #[test]
    fn merging_a_single_shard_is_the_identity() {
        let a = shard_with_ops(2, &[1, 2, 3]);
        let json = a.to_json();
        let merged = TraceLog::merge_shards(vec![a]);
        assert!(!merged.is_merged(), "single shard passes through");
        assert_eq!(merged.shard(), 2);
        assert_eq!(merged.to_json(), json);
    }

    #[test]
    fn total_time_can_be_extended_by_finalizer() {
        let mut log = sample_log();
        log.set_total_time(SimDuration(10_000));
        assert_eq!(log.total_time(), SimDuration(10_000));
        // But never shrunk.
        log.set_total_time(SimDuration(5));
        assert_eq!(log.total_time(), SimDuration(10_000));
    }
}
