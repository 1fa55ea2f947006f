//! The fused single-pass detection engine.
//!
//! The five standalone detectors (`find_duplicate_transfers`,
//! `find_round_trips`, `find_repeated_allocs`, `find_unused_allocs`,
//! `find_unused_transfers`) each re-walk the full event log and each
//! rebuild their own side structures: Algorithms 1 and 2 both build a
//! `(hash, dest_device)` reception map, Algorithms 3 and 4 both run
//! `alloc_delete_pairs` (cloning every alloc/delete event), and
//! Algorithms 4 and 5 both re-partition events by device. At
//! million-event scale that redundancy dominates analysis time.
//!
//! This engine sweeps a trace hydrated **once** into the shared
//! [`EventView`] — a thin facade over the struct-of-arrays
//! [`odp_trace::ColumnarView`] (one dense column per event field).
//! [`detect`] builds the side tables every algorithm needs (per-`(hash,
//! dest)` reception queues, alloc/delete pairing, per-device
//! partitions) in a single linear indexing pass, then runs one more
//! chronological sweep in which all five algorithms advance as
//! incremental state machines reading only the columns they need (a
//! hash here, a start time there — never a whole 88-byte row),
//! producing *index-based* findings (`IndexFindings`): no event is
//! materialized during detection. The tables are dropped once the sweep
//! is done; owned [`Findings`] (byte-identical to the standalone
//! detectors' output, group order included) are then gathered from the
//! columns by `IndexFindings::resolve`.
//!
//! Equivalence with the five independent passes is enforced by the
//! differential test suite in `crates/core/tests/fused_differential.rs`
//! (randomized traces, exact JSON equality).

use crate::detect::pairing::AllocDeletePair;
use crate::detect::{
    Confidence, DuplicateTransferGroup, Findings, RepeatedAllocGroup, RoundTrip, RoundTripGroup,
    TripList, UnusedAlloc, UnusedTransfer, UnusedTransferReason,
};
use odp_hash::fnv::FnvHashMap;
use odp_model::{DataOpEvent, DataOpKind, DeviceId, HashVal, SimTime};
use odp_trace::{ColumnarView, DataOpColumns, TargetColumns, TraceLog};

/// Index of an event in the view's data-op columns (chronological
/// order).
pub(crate) type OpIx = u32;

/// Events that name a target device at or beyond the view's `num_devices`.
///
/// Algorithms 4 and 5 exclude them: a kernel on an out-of-range device
/// neither marks allocations used nor clears transfer candidates, so a
/// non-zero count means those two algorithms ran over a subset of the
/// trace, and the caller surfaces [`OutOfRangeEvents::warning`].
/// Algorithms 1–3 key on [`DeviceId`] directly and see every event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutOfRangeEvents {
    /// Kernel executions on devices `>= num_devices`.
    pub kernels: usize,
    /// Transfers whose destination device is `>= num_devices`.
    pub transfers: usize,
    /// Allocations on devices `>= num_devices`.
    pub allocs: usize,
}

impl OutOfRangeEvents {
    /// Total dropped events.
    pub fn total(&self) -> usize {
        self.kernels + self.transfers + self.allocs
    }

    /// A console warning describing the drop, or `None` when nothing was
    /// dropped.
    pub fn warning(&self, num_devices: u32) -> Option<String> {
        if self.total() == 0 {
            return None;
        }
        Some(format!(
            "warning: {} event(s) name target devices >= the analyzed device count ({}); \
             Algorithms 4/5 exclude them ({} kernel(s), {} transfer(s), {} allocation(s))",
            self.total(),
            num_devices,
            self.kernels,
            self.transfers,
            self.allocs
        ))
    }
}

/// One reception queue key: a `(hash, dest_device)` pair. The queues are
/// the groups of the working set's `rx` ([`group_by`] output: one flat
/// member vector for every queue instead of a `Vec` per key). Shared by
/// Algorithms 1 (whole queue = duplicate group) and 2 (FIFO of pending
/// receptions), and the key of the streaming engine's duplicate table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RxSlot {
    pub(crate) hash: HashVal,
    pub(crate) dest: DeviceId,
}

/// The avalanche finalizer behind every key mix in this module: every
/// input bit influences every output bit, so structured keys
/// (sequential hash counters, small address pools) spread evenly over
/// the Bloom filter and the open-addressed tables.
#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

/// Mix of a reception-queue key `(hash, device)`. The build pass and
/// Algorithm 2 compute it once per transfer and use it for both the
/// Bloom filter bit and the [`OpenIndex`] probe position — indexing a
/// key costs no second hash. The streaming engine's duplicate table
/// probes its index by it too.
#[inline]
pub(crate) fn rx_key_mix(hash: HashVal, dev: DeviceId) -> u64 {
    avalanche(
        hash.0
            .wrapping_add((dev.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Open-addressed key → `u32` record-index table: linear probing over a
/// power-of-two table, [`OpenIndex::EMPTY`] = vacant, tombstone-free
/// (keys are never removed). The fused sweep sizes each index to ≤50%
/// load for its key count, so there it never grows; the streaming
/// engine's duplicate table, whose keys arrive one at a time, keeps it
/// at most half full with [`OpenIndex::grow`]. Keys live in the
/// caller's own records — the groups' key vectors, the pairing table,
/// the duplicate entries — so the table stores only the 4-byte index
/// and a probe touches one dense array; `is_key(ix)` tells the probe
/// whether record `ix` holds the key being looked up.
#[derive(Debug)]
pub(crate) struct OpenIndex {
    mask: usize,
    slots: Box<[u32]>,
}

/// The smallest index: 16 vacant slots.
impl Default for OpenIndex {
    fn default() -> Self {
        OpenIndex::with_capacity(0)
    }
}

impl OpenIndex {
    pub(crate) const EMPTY: u32 = u32::MAX;

    pub(crate) fn with_capacity(keys: usize) -> OpenIndex {
        let cap = (keys * 2).next_power_of_two().max(16);
        OpenIndex {
            mask: cap - 1,
            slots: vec![Self::EMPTY; cap].into_boxed_slice(),
        }
    }

    /// How many slots the table has.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Where probing for a key stops: at the slot holding the index of
    /// the record with that key, or at the vacant slot it would fill.
    #[inline]
    fn probe(&self, mix: u64, is_key: impl Fn(u32) -> bool) -> usize {
        let mut i = mix as usize & self.mask;
        while self.slots[i] != Self::EMPTY && !is_key(self.slots[i]) {
            i = (i + 1) & self.mask;
        }
        i
    }

    /// The table slot for a key, for the caller to read or fill.
    #[inline]
    pub(crate) fn slot_mut(&mut self, mix: u64, is_key: impl Fn(u32) -> bool) -> &mut u32 {
        &mut self.slots[self.probe(mix, is_key)]
    }

    #[inline]
    fn get(&self, mix: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        Some(self.slots[self.probe(mix, is_key)]).filter(|&s| s != Self::EMPTY)
    }

    /// Double the slots and re-slot records `0, 1, …` by the probe
    /// positions of their keys, which `mixes` lists in record order
    /// (reading the records in order, not in slot order, keeps the
    /// reads sequential). Every record must be indexed; the records
    /// stay where they are.
    pub(crate) fn grow(&mut self, mixes: impl Iterator<Item = u64>) {
        // At most half full, so a `u32` index below `EMPTY` names every
        // record of a table with up to 2^32 slots.
        assert!(
            self.slots.len() <= 1 << 31,
            "open index outgrew its u32 slots"
        );
        // Room at ≤50% load for as many keys as there are slots now.
        *self = OpenIndex::with_capacity(self.slots.len());
        for (ix, mix) in mixes.enumerate() {
            *self.slot_mut(mix, |_| false) = ix as u32;
        }
    }
}

/// An alloc/delete pairing by event index (the zero-copy counterpart of
/// [`AllocDeletePair`]). Shared by Algorithms 3 and 4, and kept in the
/// findings of both until resolution.
#[derive(Clone, Copy, Default)]
struct IdxPair {
    alloc: OpIx,
    delete: Option<OpIx>,
}

impl IdxPair {
    fn resolve(&self, view: &EventView<'_>) -> AllocDeletePair {
        AllocDeletePair {
            alloc: view.op(self.alloc),
            delete: self.delete.map(|d| view.op(d)),
        }
    }
}

/// The hydrated view of one trace that detection runs over.
///
/// A thin facade over a borrowed struct-of-arrays [`ColumnarView`]
/// (usually the trace log's memoized hydration), the number of target
/// devices analyzed, and the count of events naming devices beyond it.
/// The side tables the fused sweep shares across its five algorithms
/// are not part of the view: `detect` builds them, sweeps, and drops
/// them before it writes the findings' rows, so they are never alive
/// beside the report.
pub struct EventView<'a> {
    /// Columnar events, `(start, log order)`-sorted.
    cols: &'a ColumnarView,
    /// Number of target devices analyzed (Algorithms 4/5 iterate these).
    pub num_devices: u32,
    /// Events Algorithms 4/5 exclude (device `>= num_devices`).
    out_of_range: OutOfRangeEvents,
}

impl<'a> EventView<'a> {
    /// Build the view over borrowed columnar hydration (zero-copy): one
    /// pass over the device columns counts the events that name devices
    /// `>= num_devices`.
    pub fn over(cols: &'a ColumnarView, num_devices: u32) -> EventView<'a> {
        let nd = num_devices as usize;
        let beyond = |d: DeviceId| d.target_index().is_some_and(|ix| ix >= nd);
        let mut out_of_range = OutOfRangeEvents {
            kernels: cols.kernels.devices.iter().filter(|&&d| beyond(d)).count(),
            ..OutOfRangeEvents::default()
        };
        for (&kind, &dest) in cols.ops.kinds.iter().zip(&cols.ops.dest_devices) {
            match kind {
                DataOpKind::Transfer if beyond(dest) => out_of_range.transfers += 1,
                DataOpKind::Alloc if beyond(dest) => out_of_range.allocs += 1,
                _ => {}
            }
        }
        EventView {
            cols,
            num_devices,
            out_of_range,
        }
    }

    /// Events the per-device algorithms exclude because they name target
    /// devices `>= num_devices`. Non-zero counts mean Algorithms 4/5 are
    /// running over a subset of the trace — surface
    /// [`OutOfRangeEvents::warning`] rather than ignoring it.
    pub fn out_of_range(&self) -> OutOfRangeEvents {
        self.out_of_range
    }

    /// Build a view over a trace log's memoized columnar hydration
    /// (zero-copy borrow), inferring the device count from the columns.
    pub fn from_log(log: &'a TraceLog) -> EventView<'a> {
        let cols = log.columnar();
        let num_devices = crate::analysis::infer_num_devices_columnar(cols);
        EventView::over(cols, num_devices)
    }

    /// Data-op columns, `(start, log order)`-sorted.
    #[inline]
    pub fn ops(&self) -> &DataOpColumns {
        &self.cols.ops
    }

    /// Number of data-op events in the view.
    #[inline]
    pub(crate) fn op_count(&self) -> usize {
        self.ops().len()
    }

    /// Gather the event behind an index into an owned row (report
    /// boundary only — the sweeps read individual columns instead).
    #[inline]
    fn op(&self, ix: OpIx) -> DataOpEvent {
        self.ops().event(ix as usize)
    }
}

/// The fused sweep's working set: the side tables its five algorithms
/// share, built from the view's columns in one linear indexing pass
/// (per-`(hash, dest)` reception queues, alloc/delete pairing,
/// per-device partitions). [`detect`] owns it for the length of the
/// sweep only.
struct WorkingSet<'a> {
    /// Data-op columns, `(start, log order)`-sorted.
    ops: &'a DataOpColumns,
    /// Kernel-execution columns, `(start, log order)`-sorted.
    kerns: &'a TargetColumns,
    /// The reception queues: one group per `(hash, dest_device)` key in
    /// first-seen key order, each holding its chronological transfers.
    rx: Grouped<RxSlot, OpIx>,
    /// `(hash, dest_device)` → group index in `rx`.
    rx_index: OpenIndex,
    /// One-hash Bloom filter over the reception-queue keys (~8 bits per
    /// key). Algorithm 2 probes the reception index once per hashed
    /// transfer, and on real traces almost all probes miss: the filter
    /// turns each of those cache-missing map lookups into one hit in a
    /// table that fits L2. False positives only cost the map lookup
    /// they would have done anyway.
    rx_filter: Box<[u64]>,
    /// Chronological indices of hashed transfers (the only events
    /// Algorithms 1/2 look at), so the round-trip sweep skips straight
    /// over allocs, deletes, and hashless transfers.
    hashed_transfers: Vec<OpIx>,
    /// For each hashed transfer (parallel to `hashed_transfers`), the
    /// `rx` group it was enqueued into — so the sweep dequeues without a
    /// second hash lookup.
    dest_slot: Vec<u32>,
    /// For each hashed transfer (parallel to `hashed_transfers`), the
    /// [`rx_key_mix`] of its `(hash, src_device)` key — the probe
    /// Algorithm 2 makes against the Bloom filter. Precomputed in the
    /// build pass so the sweep's reject phase is a pure scan of two
    /// dense arrays (mix column + filter words), no hash loads, no
    /// mixing.
    src_mix: Vec<u64>,
    /// Alloc/delete pairings, in allocation order.
    pairs: Vec<IdxPair>,
    /// Per-target-device transfer indices (Algorithm 5 input).
    tx_by_device: Vec<Vec<OpIx>>,
    /// Per-target-device kernel indices into `kerns` (Algorithms 4/5).
    kernels_by_device: Vec<Vec<u32>>,
    /// Per-target-device pairing indices into `pairs` (Algorithm 4).
    pairs_by_device: Vec<Vec<u32>>,
}

impl<'a> WorkingSet<'a> {
    /// The single indexing pass: stream over the kind/hash/device/addr
    /// columns and build every side table the five sweeps share. Events
    /// on devices `>= num_devices` stay out of the per-device tables
    /// (the view has counted them).
    fn build(view: &EventView<'a>) -> WorkingSet<'a> {
        let ops = &view.cols.ops;
        let kerns = &view.cols.kernels;
        let nd = view.num_devices as usize;
        let in_range = |d: DeviceId| d.target_index().filter(|&ix| ix < nd);

        let mut kernels_by_device: Vec<Vec<u32>> = vec![Vec::new(); nd];
        for (kx, &d) in kerns.devices.iter().enumerate() {
            if let Some(ix) = in_range(d) {
                kernels_by_device[ix].push(kx as u32);
            }
        }

        // A cheap counting pass over two dense columns (no hashing)
        // sizes the tables up front, so the build pass never rehashes.
        let mut n_hashed_tx = 0usize;
        let mut n_allocs = 0usize;
        for (kind, hash) in ops.kinds.iter().zip(&ops.hashes) {
            if *kind == DataOpKind::Transfer && hash.is_some() {
                n_hashed_tx += 1;
            } else if *kind == DataOpKind::Alloc {
                n_allocs += 1;
            }
        }

        let filter_words = ((n_hashed_tx * 8).next_power_of_two() / 64).clamp(16, 1 << 17);
        let mut rx_filter = vec![0u64; filter_words].into_boxed_slice();
        let mut hashed_transfers: Vec<OpIx> = Vec::with_capacity(n_hashed_tx);
        let mut src_mix: Vec<u64> = Vec::with_capacity(n_hashed_tx);
        let mut pairs: Vec<IdxPair> = Vec::with_capacity(n_allocs);
        // `(device, device_addr)` → the *latest* pairing opened there: a
        // fresh allocation shadows a stale entry by overwriting the
        // slot, and a delete checks whether that pairing is still open
        // instead of removing the entry.
        let mut open = OpenIndex::with_capacity(n_allocs);
        let open_mix = |dev: DeviceId, addr: u64| {
            avalanche(addr.wrapping_add((dev.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        };
        let allocated_at = |pairs: &[IdxPair], p: u32, dev: DeviceId, addr: u64| {
            let ax = pairs[p as usize].alloc as usize;
            ops.dest_devices[ax] == dev && ops.dest_addrs[ax] == addr
        };
        let mut tx_by_device: Vec<Vec<OpIx>> = vec![Vec::new(); nd];
        let mut pairs_by_device: Vec<Vec<u32>> = vec![Vec::new(); nd];

        // Reception-queue indexing runs as its own phased sub-pass: at
        // million-event scale the queue index outgrows the cache and
        // every probe is a dependent memory miss, so burying the probes
        // inside the full per-kind loop body serializes them — the
        // instruction window fills with bookkeeping before the next
        // miss can issue. Splitting (a) a sequential collect of the
        // hashed transfers and their key mixes from (b) `group_by`'s
        // tight probe loop keeps many misses in flight at once.
        let mut dest_mix: Vec<u64> = Vec::with_capacity(n_hashed_tx);
        for (ox, &kind) in ops.kinds.iter().enumerate() {
            if kind == DataOpKind::Transfer {
                if let Some(hash) = ops.hashes[ox] {
                    let mix = rx_key_mix(hash, ops.dest_devices[ox]);
                    rx_filter[(mix as usize >> 6) & (filter_words - 1)] |= 1 << (mix % 64);
                    hashed_transfers.push(ox as OpIx);
                    dest_mix.push(mix);
                    src_mix.push(rx_key_mix(hash, ops.src_devices[ox]));
                }
            }
        }
        let (rx, dest_slot, rx_index) = group_by(
            hashed_transfers.len(),
            |tix| {
                let ox = hashed_transfers[tix] as usize;
                RxSlot {
                    // Collected above: always hashed.
                    hash: ops.hashes[ox].unwrap_or_default(),
                    dest: ops.dest_devices[ox],
                }
            },
            |tix, _| dest_mix[tix],
            |tix| hashed_transfers[tix],
            1,
        );
        drop(dest_mix);

        for (ox, &kind) in ops.kinds.iter().enumerate() {
            let ox = ox as OpIx;
            match kind {
                DataOpKind::Transfer => {
                    if let Some(ix) = in_range(ops.dest_devices[ox as usize]) {
                        tx_by_device[ix].push(ox);
                    }
                }
                DataOpKind::Alloc => {
                    let dest = ops.dest_devices[ox as usize];
                    let pair_ix = pairs.len() as u32;
                    pairs.push(IdxPair {
                        alloc: ox,
                        delete: None,
                    });
                    // A new allocation at an address shadows any stale
                    // open entry (same contract as `alloc_delete_pairs`).
                    let addr = ops.dest_addrs[ox as usize];
                    *open.slot_mut(open_mix(dest, addr), |p| {
                        allocated_at(&pairs, p, dest, addr)
                    }) = pair_ix;
                    if let Some(ix) = in_range(dest) {
                        pairs_by_device[ix].push(pair_ix);
                    }
                }
                DataOpKind::Delete => {
                    let dest = ops.dest_devices[ox as usize];
                    let addr = ops.dest_addrs[ox as usize];
                    let latest = open.get(open_mix(dest, addr), |p| {
                        allocated_at(&pairs, p, dest, addr)
                    });
                    if let Some(pix) = latest {
                        let pair = &mut pairs[pix as usize];
                        // Still open: this delete closes it. Already
                        // closed (and not re-opened since): a double
                        // free, which pairs with nothing.
                        if pair.delete.is_none() {
                            pair.delete = Some(ox);
                        }
                    }
                }
                _ => {}
            }
        }

        WorkingSet {
            ops,
            kerns,
            rx,
            rx_index,
            rx_filter,
            hashed_transfers,
            dest_slot,
            src_mix,
            pairs,
            tx_by_device,
            kernels_by_device,
            pairs_by_device,
        }
    }

    /// End of a pairing's lifetime (delete end, or program end for
    /// never-freed allocations) — `AllocDeletePair::lifetime_end`.
    fn pair_lifetime_end(&self, p: &IdxPair) -> SimTime {
        p.delete
            .map(|d| self.ops.ends[d as usize])
            .unwrap_or(SimTime(u64::MAX))
    }
}

/// Groups stored flat: every group's members in one vector, group after
/// group, and each key with the end of its members (a group starts where
/// the previous one ends) — two allocations however many groups there
/// are.
struct Grouped<K, M> {
    keys: Vec<(K, u32)>,
    members: Vec<M>,
}

impl<K, M> Grouped<K, M> {
    /// Group `g`'s members.
    #[inline]
    fn group(&self, g: usize) -> &[M] {
        let start = g
            .checked_sub(1)
            .map_or(0, |prev| self.keys[prev].1 as usize);
        &self.members[start..self.keys[g].1 as usize]
    }

    /// Every group in first-seen key order, with its members.
    fn iter(&self) -> impl Iterator<Item = (&K, &[M])> {
        self.keys
            .iter()
            .enumerate()
            .map(|(g, (key, _))| (key, self.group(g)))
    }

    /// A copy of the groups of `min_len` or more members, reserved
    /// exactly.
    fn at_least(&self, min_len: usize) -> Grouped<K, M>
    where
        K: Copy,
        M: Copy,
    {
        let kept = || self.iter().filter(|(_, members)| members.len() >= min_len);
        let mut out = Grouped {
            keys: Vec::with_capacity(kept().count()),
            members: Vec::with_capacity(kept().map(|(_, members)| members.len()).sum()),
        };
        for (key, members) in kept() {
            out.members.extend_from_slice(members);
            out.keys.push((*key, out.members.len() as u32));
        }
        out
    }
}

/// The one group-by behind Algorithms 1–3: items `0..n`, keyed by
/// `key(i)`, grouped in first-seen key order with each group's members
/// (`member(i)`) in item order. Groups of fewer than `min_len` items get
/// no room in the members vector and are dropped.
///
/// Also returns each item's group and the key → group index, both
/// numbered before the drop (so only meaningful as group indices into
/// the result when `min_len` is 1). `mix(i, key)` is the key's
/// [`OpenIndex`] probe position; an item with the same key as the one
/// before it skips the mix and the probe (keys repeat in runs: a loop
/// re-sending or re-allocating the same buffer).
///
/// Two passes, no hashing in the second: probe and count, then
/// prefix-sum the counts into starts and scatter the members, each
/// group's start advancing to its end.
fn group_by<K: Copy + PartialEq, M: Copy + Default>(
    n: usize,
    key: impl Fn(usize) -> K,
    mix: impl Fn(usize, &K) -> u64,
    member: impl Fn(usize) -> M,
    min_len: u32,
) -> (Grouped<K, M>, Vec<u32>, OpenIndex) {
    let mut keys: Vec<(K, u32)> = Vec::new();
    let mut group_of: Vec<u32> = Vec::with_capacity(n);
    let mut index = OpenIndex::with_capacity(n);
    let mut last: Option<(K, u32)> = None;
    for i in 0..n {
        let k = key(i);
        let g = match last {
            Some((prev, g)) if prev == k => g,
            _ => {
                let slot = index.slot_mut(mix(i, &k), |g| keys[g as usize].0 == k);
                if *slot == OpenIndex::EMPTY {
                    *slot = keys.len() as u32;
                    keys.push((k, 0));
                }
                *slot
            }
        };
        last = Some((k, g));
        keys[g as usize].1 += 1;
        group_of.push(g);
    }
    let mut total = 0u32;
    for (_, len) in &mut keys {
        if *len >= min_len {
            total += *len;
            *len = total - *len;
        } else {
            *len = u32::MAX;
        }
    }
    let mut members = vec![M::default(); total as usize];
    for (i, &g) in group_of.iter().enumerate() {
        let at = &mut keys[g as usize].1;
        if *at != u32::MAX {
            members[*at as usize] = member(i);
            *at += 1;
        }
    }
    if min_len > 1 {
        // `keys` had room for every group; only the survivors outlive
        // the sweep.
        keys.retain(|&(_, end)| end != u32::MAX);
        keys.shrink_to_fit();
    }
    (Grouped { keys, members }, group_of, index)
}

/// Index-based findings: what the fused sweep produces, and all that
/// resolution reads. Events are referenced by their chronological index
/// ([`OpIx`]) into the view's columns; nothing here points into the
/// sweep's working set, so it is dropped before
/// [`IndexFindings::resolve`] materializes owned [`Findings`].
struct IndexFindings {
    /// Algorithm 1: each duplicate group's `(hash, dest)` key and its
    /// chronological transfers.
    duplicates: Grouped<RxSlot, OpIx>,
    /// Algorithm 2: each round-trip group's key and its
    /// `(outbound leg, completing reception)` trips in sweep order.
    round_trips: Grouped<TripKey, (OpIx, OpIx)>,
    /// Algorithm 3: each repeated-allocation group's site and its
    /// pairings in allocation order.
    repeated_allocs: Grouped<AllocSite, IdxPair>,
    /// Algorithm 4: unused allocations.
    unused_allocs: Vec<IdxPair>,
    /// Algorithm 5: unused transfers.
    unused_transfers: Vec<(OpIx, UnusedTransferReason)>,
}

/// Algorithm 2's grouping key: ⟨hash, src, dest⟩ of the outbound leg.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TripKey {
    hash: HashVal,
    src: DeviceId,
    dest: DeviceId,
}

/// Algorithm 3's grouping key: ⟨host addr, device, size⟩.
#[derive(Clone, Copy, PartialEq, Eq)]
struct AllocSite {
    host_addr: u64,
    device: DeviceId,
    bytes: u64,
}

impl IndexFindings {
    /// Materialize owned findings — the one place events are cloned,
    /// and only the events that appear in findings.
    fn resolve(&self, view: &EventView<'_>) -> Findings {
        let trip = |&(tx, rx): &(OpIx, OpIx)| RoundTrip {
            tx: view.op(tx),
            rx: view.op(rx),
            spilled: false,
        };
        Findings {
            duplicates: self
                .duplicates
                .iter()
                .map(|(key, events)| DuplicateTransferGroup {
                    hash: key.hash,
                    dest_device: key.dest,
                    events: events.iter().map(|&ox| view.op(ox)).collect(),
                    confidence: Confidence::Confirmed,
                })
                .collect(),
            round_trips: self
                .round_trips
                .iter()
                .map(|(key, trips)| RoundTripGroup {
                    hash: key.hash,
                    src_device: key.src,
                    dest_device: key.dest,
                    // Single-trip groups dominate realistic traces;
                    // building them inline skips one heap Vec per group
                    // (the malloc otherwise costs more than the gather at
                    // million-event scale).
                    trips: match trips {
                        [one] => TripList::One([trip(one)]),
                        _ => TripList::Many(trips.iter().map(trip).collect()),
                    },
                    confidence: Confidence::Confirmed,
                })
                .collect(),
            repeated_allocs: self
                .repeated_allocs
                .iter()
                .map(|(site, pairs)| RepeatedAllocGroup {
                    host_addr: site.host_addr,
                    device: site.device,
                    bytes: site.bytes,
                    pairs: pairs.iter().map(|p| p.resolve(view)).collect(),
                    confidence: Confidence::Confirmed,
                })
                .collect(),
            unused_allocs: self
                .unused_allocs
                .iter()
                .map(|p| UnusedAlloc {
                    pair: p.resolve(view),
                    confidence: Confidence::Confirmed,
                })
                .collect(),
            unused_transfers: self
                .unused_transfers
                .iter()
                .map(|&(ox, reason)| UnusedTransfer {
                    event: view.op(ox),
                    reason,
                    confidence: Confidence::Confirmed,
                })
                .collect(),
        }
    }
}

/// Run all five detection algorithms over the working set in one fused
/// chronological sweep, returning index-based findings. The working
/// set is dropped here, before resolution writes any row, so the side
/// tables and the findings' rows are never alive at once.
///
/// The invariant every state machine below relies on: the view's
/// data-op and kernel columns are chronological (start, then log
/// order), and the per-device / per-key side tables preserve that
/// order as subsequences. Each algorithm therefore observes events in
/// exactly the order the standalone detectors do, and the outputs
/// match them byte for byte — group order, event order within groups,
/// everything. The sweeps read only the columns they need (hash,
/// device, address, time), streaming over dense arrays.
fn detect_indexed(ws: WorkingSet<'_>) -> IndexFindings {
    let round_trips = alg2_round_trips(&ws);
    let repeated_allocs = alg3_repeated_allocs(&ws);
    let mut unused_allocs = Vec::new();
    let mut unused_transfers = Vec::new();
    for dev in 0..ws.kernels_by_device.len() {
        alg4_device(&ws, dev, &mut unused_allocs);
        alg5_device(&ws, dev, &mut unused_transfers);
    }
    IndexFindings {
        // Algorithm 1: the reception queues of two or more transfers *are*
        // the duplicate groups. Copying them out lets every queue drop
        // with the working set, before resolution writes any row.
        duplicates: ws.rx.at_least(2),
        round_trips,
        repeated_allocs,
        unused_allocs,
        unused_transfers,
    }
}

/// Algorithm 2 — round trips: one chronological sweep consuming the
/// shared reception queues through per-queue cursors (the standalone
/// detector's FIFO pops, without cloning the queues). Completed trips
/// `(outbound leg, completing reception)` come out in sweep order and
/// are grouped by ⟨hash, src, dest⟩ afterwards: group order is
/// first-trip order, members are sweep order — exactly what an
/// interleaved scan-and-link would produce.
///
/// The sweep is two-phase over chunks: phase one probes the Bloom
/// filter for a whole chunk of precomputed key mixes (a pure scan with
/// no dependent loads, so the misses — the overwhelmingly common case
/// of "this data never returns" — retire at memory bandwidth), phase
/// two runs the queue machinery only for the survivors. Bloom-rejected
/// transfers have zero state effect, which is what makes the split
/// exact.
fn alg2_round_trips(ws: &WorkingSet<'_>) -> Grouped<TripKey, (OpIx, OpIx)> {
    let ops = ws.ops;
    let mut heads: Vec<u32> = vec![0; ws.rx.keys.len()];
    let mut trips: Vec<(OpIx, OpIx)> = Vec::new();
    let fmask = ws.rx_filter.len() - 1;
    let n = ws.hashed_transfers.len();
    let mut hits: Vec<(u32, u32)> = Vec::new();
    let mut chunk = 0usize;
    while chunk < n {
        let end = (chunk + 256).min(n);
        // Phase one: Bloom probes for the whole chunk.
        hits.clear();
        for tix in chunk..end {
            let mix = ws.src_mix[tix];
            if ws.rx_filter[(mix as usize >> 6) & fmask] & (1 << (mix % 64)) != 0 {
                hits.push((tix as u32, u32::MAX));
            }
        }
        // Phase two: resolve the survivors' reception queues — read-only
        // probes with no cross-iteration dependency, so their cache
        // misses overlap instead of chaining.
        for hit in &mut hits {
            let tix = hit.0 as usize;
            let ox = ws.hashed_transfers[tix];
            let Some(hash) = ops.hashes[ox as usize] else {
                continue; // hashed_transfers holds hashed events only
            };
            // A pending reception at the transfer's *source* device
            // completes a round trip.
            let key = RxSlot {
                hash,
                dest: ops.src_devices[ox as usize],
            };
            let rx_slot = ws
                .rx_index
                .get(ws.src_mix[tix], |s| ws.rx.keys[s as usize].0 == key);
            if let Some(rx_slot) = rx_slot {
                hit.1 = rx_slot;
            }
        }
        // Phase three: the stateful queue machinery, survivors only.
        for &(tix, rx_slot) in &hits {
            if rx_slot == u32::MAX {
                continue;
            }
            let queue = ws.rx.group(rx_slot as usize);
            let Some(&rx) = queue.get(heads[rx_slot as usize] as usize) else {
                continue; // queue exhausted: data never returns
            };
            trips.push((ws.hashed_transfers[tix as usize], rx));
            // Dequeue this transfer from its own destination's queue so
            // it cannot later complete a different round trip. The queue
            // was recorded at enqueue time: no second hash lookup.
            heads[ws.dest_slot[tix as usize] as usize] += 1;
        }
        chunk = end;
    }
    let key = |i: usize| {
        let ox = trips[i].0 as usize;
        TripKey {
            // Trips start at hashed transfers only.
            hash: ops.hashes[ox].unwrap_or_default(),
            src: ops.src_devices[ox],
            dest: ops.dest_devices[ox],
        }
    };
    let mix = |_, k: &TripKey| {
        rx_key_mix(k.hash, k.src) ^ (k.dest.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
    };
    group_by(trips.len(), key, mix, |i| trips[i], 1).0
}

/// Algorithm 3 — repeated allocations, over the shared pairing table
/// (allocation order), grouped by ⟨host addr, device, size⟩ in
/// first-seen key order; sites allocated only once are dropped.
fn alg3_repeated_allocs(ws: &WorkingSet<'_>) -> Grouped<AllocSite, IdxPair> {
    let ops = ws.ops;
    let key = |px: usize| {
        let ax = ws.pairs[px].alloc as usize;
        AllocSite {
            host_addr: ops.src_addrs[ax],
            device: ops.dest_devices[ax],
            bytes: ops.bytes[ax],
        }
    };
    let mix = |_, k: &AllocSite| {
        avalanche(
            k.host_addr
                .wrapping_add((k.device.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(k.bytes.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
        )
    };
    group_by(ws.pairs.len(), key, mix, |px| ws.pairs[px], 2).0
}

/// Algorithm 4 — unused allocations on one device: advance a kernel
/// cursor alongside the (allocation-ordered) pairings; an allocation
/// whose lifetime precedes the next kernel on its device can never
/// have been used.
fn alg4_device(ws: &WorkingSet<'_>, dev: usize, out: &mut Vec<IdxPair>) {
    let ops = ws.ops;
    let kerns = ws.kerns;
    let kernels = &ws.kernels_by_device[dev];
    let mut kx = 0usize;
    for &px in &ws.pairs_by_device[dev] {
        let pair = &ws.pairs[px as usize];
        let alloc_start = ops.starts[pair.alloc as usize];
        while kx < kernels.len() && kerns.ends[kernels[kx] as usize] < alloc_start {
            kx += 1;
        }
        let lifetime_end = ws.pair_lifetime_end(pair);
        if kx == kernels.len() || kerns.starts[kernels[kx] as usize] > lifetime_end {
            out.push(*pair);
        }
    }
}

/// Algorithm 5 — unused transfers on one device: a candidate map from
/// source address to the last transfer that wrote from it; kernel
/// completions clear the candidates (the kernel may have consumed the
/// data).
fn alg5_device(ws: &WorkingSet<'_>, dev: usize, out: &mut Vec<(OpIx, UnusedTransferReason)>) {
    let ops = ws.ops;
    let kerns = ws.kerns;
    let kernels = &ws.kernels_by_device[dev];
    let mut kx = 0usize;
    let mut candidates: FnvHashMap<u64, OpIx> = FnvHashMap::default();
    for &tx in &ws.tx_by_device[dev] {
        let tx_start = ops.starts[tx as usize];
        let src_addr = ops.src_addrs[tx as usize];
        while kx < kernels.len() && kerns.ends[kernels[kx] as usize] < tx_start {
            kx += 1;
            candidates.clear();
        }
        if kx == kernels.len() {
            out.push((tx, UnusedTransferReason::AfterLastKernel));
        } else if kerns.starts[kernels[kx] as usize] > tx_start {
            if let Some(&cand) = candidates.get(&src_addr) {
                out.push((cand, UnusedTransferReason::OverwrittenBeforeUse));
            }
            candidates.insert(src_addr, tx);
        } else {
            // Overlaps a running kernel (asynchronous mapping):
            // conservatively forget all candidates.
            candidates.clear();
        }
    }
}

/// Run the fused engine end to end: indexed detection plus owned
/// materialization. The one producer of [`Findings`] outside the
/// reference passes — [`Findings::detect_fused`] and the streaming
/// engine's finalize both end here.
pub(crate) fn detect(view: &EventView<'_>) -> Findings {
    detect_indexed(WorkingSet::build(view)).resolve(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::EventFactory;
    use std::collections::BTreeMap;

    #[test]
    fn fused_matches_standalone_on_mixed_trace() {
        let mut f = EventFactory::new();
        let kernels = vec![f.kernel(30, 60, 0), f.kernel(130, 160, 0)];
        let ops = vec![
            f.alloc(0, 0, 0x1000, 0xd000, 64),
            f.h2d(10, 0, 0x1000, 7, 64),
            f.h2d(20, 0, 0x1000, 7, 64), // duplicate
            f.d2h(70, 0, 0x1000, 7, 64), // round trip back to host
            f.delete(80, 0, 0x1000, 0xd000, 64),
            f.alloc(90, 0, 0x1000, 0xd000, 64), // repeated alloc
            f.h2d(100, 0, 0x1000, 9, 64),
            f.delete(170, 0, 0x1000, 0xd000, 64),
            f.h2d(180, 0, 0x2000, 11, 64), // after last kernel
        ];
        let cols = ColumnarView::from_events(&ops, &kernels);
        let view = EventView::over(&cols, 1);
        let fused = detect(&view);
        let separate = Findings::detect_separate(&ops, &kernels, 1);
        assert_eq!(
            serde_json::to_string(&fused).unwrap(),
            serde_json::to_string(&separate).unwrap()
        );
        assert_eq!(fused.counts(), separate.counts());
    }

    #[test]
    fn group_by_keeps_first_seen_order_through_colliding_probes() {
        // One constant mix for every key: each probe starts on the
        // table's last slot, collides with every key placed before it
        // and wraps around to the front.
        let keys = [7u32, 7, 3, 9, 3, 7, 11, 9, 11, 11, 5];
        let key = |i: usize| keys[i];
        let mix = |_, _: &u32| u64::MAX;
        let (grouped, group_of, index) = group_by(keys.len(), key, mix, |i| i as u32, 1);
        let order: Vec<u32> = grouped.keys.iter().map(|&(key, _)| key).collect();
        assert_eq!(order, [7, 3, 9, 11, 5], "first-seen key order");
        let members: Vec<&[u32]> = grouped.iter().map(|(_, members)| members).collect();
        let expected: [&[u32]; 5] = [&[0, 1, 5], &[2, 4], &[3, 7], &[6, 8, 9], &[10]];
        assert_eq!(members, expected, "members in item order");
        for (i, &g) in group_of.iter().enumerate() {
            assert_eq!(grouped.keys[g as usize].0, keys[i], "item {i}'s group");
            let found = index.get(u64::MAX, |s| grouped.keys[s as usize].0 == keys[i]);
            assert_eq!(found, Some(g), "item {i}'s key in the index");
        }

        // Dropping singletons during the scatter leaves what copying
        // the larger groups out afterwards leaves.
        let (pairs, _, _) = group_by(keys.len(), key, mix, |i| i as u32, 2);
        let copied = grouped.at_least(2);
        assert_eq!(pairs.keys, [(7, 3), (3, 5), (9, 7), (11, 10)]);
        assert_eq!(pairs.members, [0, 1, 5, 2, 4, 3, 7, 6, 8, 9]);
        assert_eq!((copied.keys, copied.members), (pairs.keys, pairs.members));

        let (empty, group_of, _) = group_by(0, key, mix, |i| i as u32, 1);
        assert!(empty.keys.is_empty() && empty.members.is_empty());
        assert!(group_of.is_empty());
    }

    #[test]
    fn open_index_matches_an_oracle_through_colliding_growths() {
        // Every key's probe starts in one of 8 slots, so the keys pile
        // up in long runs that each growth has to re-slot.
        let mix = |key: u64| avalanche(key) & 0b111;
        let mut index = OpenIndex::with_capacity(0);
        let mut records: Vec<u64> = Vec::new();
        let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
        let mut growths = 0;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 400;
            let slot = index.slot_mut(mix(key), |ix| records[ix as usize] == key);
            if *slot == OpenIndex::EMPTY {
                *slot = records.len() as u32;
                records.push(key);
            }
            let got = *slot;
            if records.len() * 2 > index.slots() {
                index.grow(records.iter().map(|&key| mix(key)));
                growths += 1;
            }
            let first_seen = oracle.len() as u32;
            assert_eq!(got, *oracle.entry(key).or_insert(first_seen), "key {key}");
        }
        assert!(growths >= 3, "only {growths} growths");
        let found: BTreeMap<u64, u32> = oracle
            .keys()
            .map(|&key| {
                let ix = index.get(mix(key), |ix| records[ix as usize] == key);
                (key, ix.expect("every key is found again"))
            })
            .collect();
        assert_eq!(found, oracle);
        assert_eq!(index.get(mix(400), |ix| records[ix as usize] == 400), None);
    }

    #[test]
    fn empty_view_is_clean() {
        let cols = ColumnarView::default();
        let findings = detect(&EventView::over(&cols, 1));
        assert!(findings.counts().is_clean());
    }

    #[test]
    fn view_from_log_uses_memoized_hydration() {
        use odp_model::{CodePtr, DataOpKind, DeviceId, SimTime, TargetKind, TimeSpan};
        let mut log = TraceLog::new();
        let span = |a: u64, b: u64| TimeSpan::new(SimTime(a), SimTime(b));
        for t in [0u64, 100] {
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000,
                0xd000,
                256,
                Some(0xAB),
                span(t, t + 10),
                CodePtr(0x1),
            );
            log.record_target(
                TargetKind::Kernel,
                DeviceId::target(0),
                span(t + 20, t + 40),
                CodePtr(0x2),
            );
        }
        let before = log.sort_count();
        let view = EventView::from_log(&log);
        let findings = detect(&view);
        assert_eq!(findings.counts().dd, 1);
        // Each call builds and drops its own working set: a second
        // sweep over the same view writes the same bytes.
        assert_eq!(
            serde_json::to_string(&detect(&view)).unwrap(),
            serde_json::to_string(&findings).unwrap()
        );
        // A second view re-borrows the same columnar hydration: no
        // further sorts.
        let view2 = EventView::from_log(&log);
        let _ = detect(&view2);
        assert_eq!(
            log.sort_count(),
            before + 1,
            "one columnar pass covers both event families"
        );
    }
}
