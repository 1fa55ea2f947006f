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

/// Events that name a target device at or beyond the view's `num_devices`
/// and are therefore excluded from the per-device algorithms (4 and 5).
///
/// Historically these were dropped *silently*, which skews Algorithms 4/5
/// without a trace: a kernel on an out-of-range device can neither mark
/// allocations used nor clear transfer candidates. The view now counts
/// what it drops so callers can surface a warning ([`OutOfRangeEvents::warning`]).
/// Algorithms 1–3 are unaffected (they key on [`DeviceId`] directly and
/// never index a per-device table).
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

/// One reception queue key: a `(hash, dest_device)` pair. The queue's
/// events live in the working set's CSR arrays (`rx_events`/`rx_bounds`)
/// — one flat allocation for every queue instead of a `Vec` per slot,
/// which on a trace with mostly-unique hashes would mean one heap
/// allocation per transfer. Shared by Algorithms 1 (whole queue =
/// duplicate group) and 2 (FIFO of pending receptions).
#[derive(Clone, Copy)]
struct RxSlot {
    hash: HashVal,
    dest: DeviceId,
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
/// key costs no second hash.
#[inline]
fn rx_key_mix(hash: HashVal, dev: DeviceId) -> u64 {
    avalanche(
        hash.0
            .wrapping_add((dev.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Open-addressed key → `u32` record-index table: linear probing over a
/// power-of-two table sized to ≤50% load for the caller's key count (so
/// it never grows), [`OpenIndex::EMPTY`] = vacant, tombstone-free (keys
/// are never removed). Keys live in the caller's own records — the
/// reception slots, the pairing table, the group vectors — so the table
/// stores only the 4-byte index and a probe touches one dense array;
/// `is_key(ix)` tells the probe whether record `ix` holds the key being
/// looked up.
struct OpenIndex {
    mask: usize,
    slots: Box<[u32]>,
}

impl OpenIndex {
    const EMPTY: u32 = u32::MAX;

    fn with_capacity(keys: usize) -> OpenIndex {
        let cap = (keys * 2).next_power_of_two().max(16);
        OpenIndex {
            mask: cap - 1,
            slots: vec![Self::EMPTY; cap].into_boxed_slice(),
        }
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
    fn slot_mut(&mut self, mix: u64, is_key: impl Fn(u32) -> bool) -> &mut u32 {
        &mut self.slots[self.probe(mix, is_key)]
    }

    #[inline]
    fn get(&self, mix: u64, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        Some(self.slots[self.probe(mix, is_key)]).filter(|&s| s != Self::EMPTY)
    }
}

/// An alloc/delete pairing by event index (the zero-copy counterpart of
/// [`AllocDeletePair`]). Shared by Algorithms 3 and 4, and kept in the
/// findings of both until resolution.
#[derive(Clone, Copy)]
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
/// are not part of the view: [`detect`] builds them, sweeps, and drops
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
    /// Reception queue keys in first-seen key order.
    rx_slots: Vec<RxSlot>,
    /// CSR storage for the reception queues: slot `s` holds the
    /// chronological event indices `rx_events[rx_bounds[s]..rx_bounds[s+1]]`.
    rx_events: Vec<OpIx>,
    /// Queue boundaries into `rx_events` (`rx_slots.len() + 1` entries).
    rx_bounds: Vec<u32>,
    /// `(hash, dest_device)` → index into `rx_slots`.
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
    /// `rx_slots` index it was enqueued into — precomputed so the sweep
    /// dequeues without a second hash lookup.
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

        let mut rx_slots: Vec<RxSlot> = Vec::with_capacity(n_hashed_tx.min(1 << 16));
        let mut rx_counts: Vec<u32> = Vec::with_capacity(n_hashed_tx.min(1 << 16));
        let mut rx_index = OpenIndex::with_capacity(n_hashed_tx);
        let filter_words = ((n_hashed_tx * 8).next_power_of_two() / 64).clamp(16, 1 << 17);
        let mut rx_filter = vec![0u64; filter_words].into_boxed_slice();
        let mut hashed_transfers: Vec<OpIx> = Vec::with_capacity(n_hashed_tx);
        let mut dest_slot: Vec<u32> = Vec::with_capacity(n_hashed_tx);
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
        // million-event scale the slot index outgrows the cache and
        // every probe is a dependent memory miss, so burying the probes
        // inside the full per-kind loop body serializes them — the
        // instruction window fills with bookkeeping before the next
        // miss can issue. Splitting (a) a sequential collect of the
        // hashed transfers and their key mixes from (b) a tight
        // probe-only loop keeps many misses in flight at once.
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
        for (tix, &ox) in hashed_transfers.iter().enumerate() {
            let Some(hash) = ops.hashes[ox as usize] else {
                continue; // collected above: always hashed
            };
            let dest = ops.dest_devices[ox as usize];
            // A new key appends its slot: first-seen slot order.
            let slot = rx_index.slot_mut(dest_mix[tix], |s| {
                let key = &rx_slots[s as usize];
                key.hash == hash && key.dest == dest
            });
            if *slot == OpenIndex::EMPTY {
                *slot = rx_slots.len() as u32;
                rx_slots.push(RxSlot { hash, dest });
            }
            dest_slot.push(*slot);
        }
        drop(dest_mix);
        rx_counts.resize(rx_slots.len(), 0);
        for &slot in &dest_slot {
            rx_counts[slot as usize] += 1;
        }

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

        // Second, hash-free pass: prefix-sum the queue lengths into CSR
        // bounds and scatter the hashed transfers into their queues —
        // chronological within each queue because `hashed_transfers` is.
        let mut rx_bounds: Vec<u32> = Vec::with_capacity(rx_slots.len() + 1);
        let mut acc = 0u32;
        rx_bounds.push(0);
        for &c in &rx_counts {
            acc += c;
            rx_bounds.push(acc);
        }
        let mut cursor: Vec<u32> = rx_bounds[..rx_slots.len()].to_vec();
        let mut rx_events: Vec<OpIx> = vec![0; hashed_transfers.len()];
        for (&ox, &slot) in hashed_transfers.iter().zip(&dest_slot) {
            let c = &mut cursor[slot as usize];
            rx_events[*c as usize] = ox;
            *c += 1;
        }

        WorkingSet {
            ops,
            kerns,
            rx_slots,
            rx_events,
            rx_bounds,
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

    /// Reception queue `s`: chronological hashed-transfer indices with
    /// the slot's `(hash, dest_device)` key (CSR slice).
    #[inline]
    fn rx_queue(&self, s: u32) -> &[OpIx] {
        &self.rx_events
            [self.rx_bounds[s as usize] as usize..self.rx_bounds[s as usize + 1] as usize]
    }

    /// End of a pairing's lifetime (delete end, or program end for
    /// never-freed allocations) — `AllocDeletePair::lifetime_end`.
    fn pair_lifetime_end(&self, p: &IdxPair) -> SimTime {
        p.delete
            .map(|d| self.ops.ends[d as usize])
            .unwrap_or(SimTime(u64::MAX))
    }
}

/// Index-based findings: what the fused sweep produces, and all that
/// resolution reads. Events are referenced by their chronological index
/// ([`OpIx`]) into the view's columns; nothing here points into the
/// sweep's working set, so it is dropped before
/// [`IndexFindings::resolve`] materializes owned [`Findings`].
#[derive(Default)]
struct IndexFindings {
    /// Algorithm 1: each duplicate group's `(hash, dest)` key and its
    /// chronological transfers.
    duplicates: Grouped<RxSlot, OpIx>,
    /// Algorithm 2: round-trip groups.
    round_trips: Vec<IdxRoundTripGroup>,
    /// Flat arena of `(outbound leg, completing reception, next)` trip
    /// records: every group's trips as an intrusive chain, so a trace
    /// with thousands of one-trip groups costs zero per-group heap
    /// allocations (`u32::MAX` terminates a chain).
    rt_trips: Vec<(OpIx, OpIx, u32)>,
    /// Algorithm 3: each repeated-allocation group's site and its
    /// pairings in allocation order.
    repeated_allocs: Grouped<AllocSite, IdxPair>,
    /// Algorithm 4: unused allocations.
    unused_allocs: Vec<IdxPair>,
    /// Algorithm 5: unused transfers.
    unused_transfers: Vec<(OpIx, UnusedTransferReason)>,
}

/// Groups stored flat: every group's members in one vector, group after
/// group, and each key with the end of its members (a group starts where
/// the previous one ends) — two allocations however many groups there
/// are.
struct Grouped<K, M> {
    keys: Vec<(K, u32)>,
    members: Vec<M>,
}

impl<K, M> Default for Grouped<K, M> {
    fn default() -> Self {
        Grouped {
            keys: Vec::new(),
            members: Vec::new(),
        }
    }
}

impl<K, M> Grouped<K, M> {
    /// Append a group: its key, then its members in order.
    fn push(&mut self, key: K, members: impl IntoIterator<Item = M>) {
        self.members.extend(members);
        self.keys.push((key, self.members.len() as u32));
    }

    /// Every group in push order, with its members.
    fn iter(&self) -> impl Iterator<Item = (&K, &[M])> {
        let mut start = 0;
        self.keys.iter().map(move |(key, end)| {
            let members = &self.members[start..*end as usize];
            start = *end as usize;
            (key, members)
        })
    }
}

struct IdxRoundTripGroup {
    hash: HashVal,
    src: DeviceId,
    dest: DeviceId,
    /// Chronological trip chain through [`IndexFindings::rt_trips`].
    head: u32,
    tail: u32,
    len: u32,
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
                .map(|g| RoundTripGroup {
                    hash: g.hash,
                    src_device: g.src,
                    dest_device: g.dest,
                    trips: {
                        // Single-trip groups dominate realistic traces;
                        // building them inline skips one heap Vec per
                        // group (the malloc otherwise costs more than
                        // the gather at million-event scale).
                        let gather = |t: u32| {
                            let (tx, rx, _) = self.rt_trips[t as usize];
                            RoundTrip {
                                tx: view.op(tx),
                                rx: view.op(rx),
                                spilled: false,
                            }
                        };
                        if g.len == 1 {
                            TripList::One([gather(g.head)])
                        } else {
                            let mut trips = Vec::with_capacity(g.len as usize);
                            let mut t = g.head;
                            while t != u32::MAX {
                                trips.push(gather(t));
                                t = self.rt_trips[t as usize].2;
                            }
                            TripList::Many(trips)
                        }
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
/// chronological sweep, returning index-based findings.
///
/// The invariant every state machine below relies on: the view's
/// data-op and kernel columns are chronological (start, then log
/// order), and the per-device / per-key side tables preserve that
/// order as subsequences. Each algorithm therefore observes events in
/// exactly the order the standalone detectors do, and the outputs
/// match them byte for byte — group order, event order within groups,
/// everything. The sweeps read only the columns they need (hash,
/// device, address, time), streaming over dense arrays.
fn detect_indexed(ws: &WorkingSet<'_>) -> IndexFindings {
    let mut out = IndexFindings::default();
    alg1_duplicates(ws, &mut out.duplicates);
    let trips = alg2_scan(ws);
    alg2_link_groups(ws, &trips, &mut out);
    alg3_repeated_allocs(ws, &mut out.repeated_allocs);
    for dev in 0..ws.kernels_by_device.len() {
        alg4_device(ws, dev, &mut out.unused_allocs);
        alg5_device(ws, dev, &mut out.unused_transfers);
    }
    out
}

/// Algorithm 1 — duplicate transfers. The reception queues *are* the
/// groups: first-seen key order, chronological events.
fn alg1_duplicates(ws: &WorkingSet<'_>, out: &mut Grouped<RxSlot, OpIx>) {
    let groups = || {
        (0..ws.rx_slots.len() as u32)
            .map(|sx| (ws.rx_slots[sx as usize], ws.rx_queue(sx)))
            .filter(|(_, queue)| queue.len() >= 2)
    };
    out.members
        .reserve_exact(groups().map(|(_, queue)| queue.len()).sum());
    for (key, queue) in groups() {
        out.push(key, queue.iter().copied());
    }
}

/// Algorithm 2 scan — round trips: one chronological sweep consuming
/// the shared reception queues through per-slot cursors (the
/// standalone detector's FIFO pops, without cloning the queues).
/// Returns completed trips as `(outbound leg, completing reception)`
/// in sweep order; [`alg2_link_groups`] groups them afterwards.
///
/// The sweep is two-phase over chunks: phase one probes the Bloom
/// filter for a whole chunk of precomputed key mixes (a pure scan with
/// no dependent loads, so the misses — the overwhelmingly common case
/// of "this data never returns" — retire at memory bandwidth), phase
/// two runs the queue machinery only for the survivors. Bloom-rejected
/// transfers have zero state effect, which is what makes the split
/// exact.
fn alg2_scan(ws: &WorkingSet<'_>) -> Vec<(OpIx, OpIx)> {
    let ops = ws.ops;
    let mut heads: Vec<u32> = vec![0; ws.rx_slots.len()];
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
        // Phase two: resolve the survivors' reception slots — read-only
        // probes with no cross-iteration dependency, so their cache
        // misses overlap instead of chaining.
        for hit in &mut hits {
            let tix = hit.0 as usize;
            let ox = ws.hashed_transfers[tix];
            let Some(hash) = ops.hashes[ox as usize] else {
                continue; // hashed_transfers holds hashed events only
            };
            let src = ops.src_devices[ox as usize];
            // A pending reception at the transfer's *source* device
            // completes a round trip.
            let rx_slot = ws.rx_index.get(ws.src_mix[tix], |s| {
                let key = &ws.rx_slots[s as usize];
                key.hash == hash && key.dest == src
            });
            if let Some(rx_slot) = rx_slot {
                hit.1 = rx_slot;
            }
        }
        // Phase three: the stateful queue machinery, survivors only.
        for &(tix, rx_slot) in &hits {
            if rx_slot == u32::MAX {
                continue;
            }
            let queue = ws.rx_queue(rx_slot);
            if heads[rx_slot as usize] as usize >= queue.len() {
                continue; // queue exhausted: data never returns
            }
            let rx = queue[heads[rx_slot as usize] as usize];
            let ox = ws.hashed_transfers[tix as usize];
            trips.push((ox, rx));
            // Dequeue this transfer from its own destination's queue so
            // it cannot later complete a different round trip. The slot
            // was recorded at enqueue time: no second hash lookup.
            heads[ws.dest_slot[tix as usize] as usize] += 1;
        }
        chunk = end;
    }
    trips
}

/// Build the Algorithm 2 groups from sweep-ordered trips: group
/// creation order is first-trip order, member chains are sweep order —
/// exactly what an interleaved scan-and-link would produce.
fn alg2_link_groups(ws: &WorkingSet<'_>, trips: &[(OpIx, OpIx)], out: &mut IndexFindings) {
    let ops = ws.ops;
    let mut group_ix = OpenIndex::with_capacity(trips.len());
    out.rt_trips.reserve(trips.len());
    // Phased like the working set's reception-queue indexing: (1) gather each
    // trip's grouping key from the columns (sequential-ish reads), (2) a
    // tight probe-only loop resolving group indices (keeps many table
    // misses in flight), (3) chain linking over the now-dense group and
    // trip arrays.
    let mut keyed: Vec<(HashVal, DeviceId, DeviceId, OpIx, OpIx)> = Vec::with_capacity(trips.len());
    for &(ox, rx) in trips {
        let Some(hash) = ops.hashes[ox as usize] else {
            continue; // trips reference hashed transfers only
        };
        keyed.push((
            hash,
            ops.src_devices[ox as usize],
            ops.dest_devices[ox as usize],
            ox,
            rx,
        ));
    }
    let mut gxs: Vec<u32> = Vec::with_capacity(keyed.len());
    let groups = &mut out.round_trips;
    for &(hash, src, dest, _, _) in &keyed {
        let mix = rx_key_mix(hash, src) ^ (dest.0 as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let slot = group_ix.slot_mut(mix, |g| {
            let g = &groups[g as usize];
            g.hash == hash && g.src == src && g.dest == dest
        });
        // A new key appends an empty group: first-trip group order.
        if *slot == OpenIndex::EMPTY {
            *slot = groups.len() as u32;
            groups.push(IdxRoundTripGroup {
                hash,
                src,
                dest,
                head: u32::MAX,
                tail: u32::MAX,
                len: 0,
            });
        }
        gxs.push(*slot);
    }
    for (&gx, &(_, _, _, ox, rx)) in gxs.iter().zip(&keyed) {
        let trip = out.rt_trips.len() as u32;
        out.rt_trips.push((ox, rx, u32::MAX));
        let group = &mut out.round_trips[gx as usize];
        if group.tail == u32::MAX {
            group.head = trip;
        } else {
            out.rt_trips[group.tail as usize].2 = trip;
        }
        group.tail = trip;
        group.len += 1;
    }
}

/// Algorithm 3 — repeated allocations, over the shared pairing table
/// (allocation order), grouped by ⟨host addr, device, size⟩ in
/// first-seen key order; sites allocated only once are dropped.
fn alg3_repeated_allocs(ws: &WorkingSet<'_>, out: &mut Grouped<AllocSite, IdxPair>) {
    /// A site's allocation-ordered member chain through `chain`
    /// (`u32::MAX` terminates).
    struct Site {
        key: AllocSite,
        head: u32,
        tail: u32,
        len: u32,
    }
    let ops = ws.ops;
    let mut sites: Vec<Site> = Vec::new();
    // Flat arena of `(pair index, next)` records for the sites' member
    // chains. Traces dominated by unique allocation sites (most of
    // them) would otherwise pay one heap-allocated single-element `Vec`
    // per site; the arena is one allocation total, and singleton chains
    // that never reach group size 2 just sit unreferenced in it.
    let mut chain: Vec<(u32, u32)> = Vec::with_capacity(ws.pairs.len());
    let mut index = OpenIndex::with_capacity(ws.pairs.len());
    // Allocation sites repeat in runs (the loop re-allocating the
    // same buffer is the pattern Algorithm 3 exists to catch), so a
    // one-entry cache short-circuits most of the index traffic.
    let mut last: Option<(AllocSite, u32)> = None;
    for (px, pair) in ws.pairs.iter().enumerate() {
        let ax = pair.alloc as usize;
        let key = AllocSite {
            host_addr: ops.src_addrs[ax],
            device: ops.dest_devices[ax],
            bytes: ops.bytes[ax],
        };
        let sx = match last {
            Some((k, sx)) if k == key => sx,
            _ => {
                let mix = avalanche(
                    key.host_addr
                        .wrapping_add((key.device.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add(key.bytes.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
                );
                let slot = index.slot_mut(mix, |s| sites[s as usize].key == key);
                if *slot == OpenIndex::EMPTY {
                    *slot = sites.len() as u32;
                    sites.push(Site {
                        key,
                        head: u32::MAX,
                        tail: u32::MAX,
                        len: 0,
                    });
                }
                *slot
            }
        };
        last = Some((key, sx));
        let link = chain.len() as u32;
        chain.push((px as u32, u32::MAX));
        let site = &mut sites[sx as usize];
        if site.tail == u32::MAX {
            site.head = link;
        } else {
            chain[site.tail as usize].1 = link;
        }
        site.tail = link;
        site.len += 1;
    }
    sites.retain(|s| s.len >= 2);
    out.members
        .reserve_exact(sites.iter().map(|s| s.len as usize).sum());
    for site in &sites {
        let mut link = site.head;
        out.push(
            site.key,
            std::iter::from_fn(|| {
                if link == u32::MAX {
                    return None;
                }
                let (px, next) = chain[link as usize];
                link = next;
                Some(ws.pairs[px as usize])
            }),
        );
    }
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
/// engine's finalize both end here. The sweep's working set is built
/// here and dropped before resolution writes the rows, so the side
/// tables and the findings are never alive at once.
pub(crate) fn detect(view: &EventView<'_>) -> Findings {
    let ws = WorkingSet::build(view);
    let found = detect_indexed(&ws);
    drop(ws);
    found.resolve(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::EventFactory;

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
