//! Versioned, shard-aware binary on-disk trace format.
//!
//! A persisted trace is the durable twin of [`crate::TraceLog`]'s
//! in-memory hydration: per-shard `(start, id)`-sorted columns written
//! as raw little-endian fixed-width sections, indexed by a JSON footer,
//! carrying the run's [`TraceHealth`], stats metadata, and shard ids.
//! Loading rebuilds a [`ColumnarView`] **byte-identical** to what
//! hydrating the original log would have produced — the contract the
//! `trace_persistence` property suite pins, fault-profile traces
//! included.
//!
//! # File layout (version 2)
//!
//! ```text
//! offset 0   ┌──────────────────────────────────────────────┐
//!            │ magic "ODPTRACE" (8 B)                       │
//!            │ version u32 LE · reserved u32 LE             │
//! offset 16  ├──────────────────────────────────────────────┤
//!            │ column sections, 8-byte aligned:             │
//!            │   shard 0 ops:     ids · kinds · devices ·   │
//!            │                    addrs · bytes · hashes ·  │
//!            │                    flags · spans · codeptrs  │
//!            │   shard 0 targets: ids · devices · kinds ·   │
//!            │                    spans · codeptrs          │
//!            │   shard 1 ops: …                             │
//! data end   ├──────────────────────────────────────────────┤
//!            │ footer: JSON index                           │
//!            │   {version, meta, health, shards:[{shard,    │
//!            │    ops:{rows, cols:[{name,off,len,crc}]},    │
//!            │    targets:{…}}]}                            │
//!            ├──────────────────────────────────────────────┤
//!            │ footer_len u64 LE · footer_crc u64 LE        │
//!            │ tail magic "ODPTEND\0" (8 B)                 │
//!            └──────────────────────────────────────────────┘
//! ```
//!
//! Sections are raw fixed-width little-endian arrays at 8-byte-aligned
//! offsets located purely through the footer index. Every column
//! section and the footer carry a 64-bit checksum (`crc`,
//! `footer_crc`), and the checksum is the only thing the version
//! number selects:
//!
//! - **version 2** (what [`TraceArtifact::to_bytes`] writes):
//!   [`checksum64`], defined there precisely enough for a foreign
//!   writer.
//! - **version 1** (read only): byte-wise FNV-1a-64. The layout is
//!   otherwise identical, so a version-1 file loads to an artifact `==`
//!   the one its version-2 re-encoding loads to.
//!
//! The reader verifies a file with the checksum its own header version
//! names, requires the footer to carry the same version, and refuses
//! every other version with [`PersistError::BadVersion`].
//!
//! Version 2 exists because FNV-1a is a one-byte-per-multiply
//! dependency chain (~0.75 GB/s) that was walked over every byte on
//! save, on load and again by the fleet compactor; [`checksum64`] runs
//! at memory speed (ledger `corpus_gate`, `--trace 1`: `persist.save_s`
//! 0.125 → 0.037 s, `persist.load_s` 0.116 → 0.035 s over 71 MB).
//! Borrowing the columns from the file instead of copying them into
//! `Vec`s was sized after that fix and parked: verifying plus decoding
//! one shard's 3 MB op table is 0.6 + 0.4 ms, a whole lenient load
//! ~5 ms of the ~28 ms the compactor spends per run, and the in-place
//! `&[u8]` → `&[u64]` cast needs `unsafe` in a crate that forbids it.
//!
//! # Degradation contract
//!
//! [`load_trace_lenient`] never panics and never silently drops data:
//! a section whose bounds, length, or checksum cannot be verified
//! quarantines its whole shard, and the shard's claimed event count
//! lands in [`TraceHealth::unreadable`] (an undecodable file counts as
//! one). [`load_trace`] is the strict variant for writers validating
//! their own output.

pub use crate::columnar::ShardColumns;
use crate::columnar::{merge, ColumnarView, Columns, DataOpColumns, Table, TargetColumns};
use crate::log::TraceLog;
use crate::record::{
    decode_data_op_kind, decode_target_kind, encode_data_op_kind, encode_target_kind,
    DATA_OP_RECORD_BYTES, TARGET_RECORD_BYTES,
};
use crate::stats::{SpaceStats, TraceStats};
use odp_model::{
    CodePtr, DeviceId, EventId, HashVal, SimDuration, SimTime, TargetEvent, TargetKind, TraceHealth,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Leading file magic (stable across versions).
pub(crate) const TRACE_MAGIC: [u8; 8] = *b"ODPTRACE";
/// Trailing file magic.
pub(crate) const TAIL_MAGIC: [u8; 8] = *b"ODPTEND\0";
/// Current format version: the one [`TraceArtifact::to_bytes`] writes.
/// Version 1 differs only in its checksum and is still read.
pub(crate) const TRACE_VERSION: u32 = 2;

const HEADER_BYTES: usize = 16;
/// footer_len u64 + footer_crc u64 + tail magic.
const TAIL_BYTES: usize = 24;

/// The version-2 checksum of a column section or of the footer. Not
/// cryptographic; it exists to catch the bit flips, truncations, and
/// torn writes the loader fuzz cases inject, at memory speed.
///
/// # Definition
///
/// Read `bytes` as little-endian 8-byte words `w[0], w[1], …`; the last
/// word is zero-padded if fewer than 8 bytes remain (an empty input has
/// no words). Four lanes start at the seeds below; word `w[i]` updates
/// lane `i % 4`, in order, by `step`:
///
/// ```text
/// seeds = 0x243f6a8885a308d3, 0x13198a2e03707344,
///         0xa4093822299f31d0, 0x082efa98ec4e6c89      (fraction bits of π)
/// step(lane, w) = x ^ (x >> 32)
///         where x = (lane ^ w) * 0x9e3779b97f4a7c15   (mod 2^64)
/// ```
///
/// so a 32-byte stripe advances every lane once and the four multiply
/// chains overlap. The sum is the byte length folded through the final
/// lanes with the same step:
/// `step(step(step(step(len, lane0), lane1), lane2), lane3)`.
///
/// # What it guarantees
///
/// `step` is a bijection of `lane` for a fixed `w` and of `w` for a
/// fixed `lane`: xor with a constant, multiplication by an odd constant
/// modulo 2^64, and `x ^ (x >> 32)` are each invertible. Hence **two
/// inputs of equal length that differ only inside one aligned 8-byte
/// word have different sums** — every single-bit and single-byte
/// corruption included. The lane that word feeds enters its step in
/// the same state and leaves it in a different one; that lane's later
/// steps see equal words, so its final value differs while the other
/// three are untouched; and the fold, a chain of the same bijections,
/// carries a difference in one lane to the result. The same argument
/// on the length shows that appending zero bytes inside the padded
/// last word changes the sum. Anything wider (a truncation, a change
/// across words) collides with probability ~2^-64, not zero.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const SEEDS: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    fn step(lane: u64, word: u64) -> u64 {
        let x = (lane ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }
    fn word(chunk: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(w)
    }
    let mut lanes = SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, chunk) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, word(chunk));
        }
    }
    // The sub-stripe tail: at most three whole words and a padded one.
    for (lane, chunk) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        *lane = step(*lane, word(chunk));
    }
    lanes
        .iter()
        .fold(bytes.len() as u64, |sum, &lane| step(sum, lane))
}

/// FNV-1a 64-bit: the checksum of format version 1, kept solely to
/// verify files of that version. One byte per multiply — nothing on the
/// write path may call it (`scripts/determinism_lint.sh` checks).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Which checksum a file carries — all that its format version selects.
#[derive(Clone, Copy)]
enum Checksum {
    V1,
    V2,
}

impl Checksum {
    fn of_version(version: u32) -> Result<Checksum, PersistError> {
        match version {
            1 => Ok(Checksum::V1),
            2 => Ok(Checksum::V2),
            other => Err(PersistError::BadVersion(other)),
        }
    }

    fn sum(self, bytes: &[u8]) -> u64 {
        match self {
            Checksum::V1 => fnv1a64(bytes),
            Checksum::V2 => checksum64(bytes),
        }
    }
}

/// Run-level metadata persisted alongside the columns.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Monitored program name.
    pub program: String,
    /// Finalized total execution time, ns.
    pub total_time_ns: u64,
    /// Peak heap bytes the original log allocated (Figure 3).
    pub peak_alloc_bytes: u64,
    /// Merge-time duplicate-id count ([`TraceLog::duplicate_id_count`]).
    pub duplicate_ids: u64,
}

/// A trace in its persistable form: metadata + health + per-shard
/// sorted columns. The in-memory side of the on-disk format — built
/// from a [`TraceLog`] by [`TraceArtifact::from_log`], rebuilt from
/// bytes by [`load_trace`] / [`load_trace_lenient`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceArtifact {
    /// Run metadata.
    pub meta: TraceMeta,
    /// Quarantine accounting carried over from the run (plus
    /// [`TraceHealth::unreadable`] drops added by a lenient load).
    pub health: TraceHealth,
    /// Per-shard columns, in the original log's merge order.
    pub shards: Vec<ShardColumns>,
}

/// Why a strict load refused a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Shorter than header + tail.
    TooShort,
    /// Leading or trailing magic mismatch.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Footer length out of bounds, checksum mismatch, or undecodable
    /// JSON.
    BadFooter(String),
    /// A column section failed bounds, width, or checksum verification.
    BadSection {
        /// Shard id the section belongs to.
        shard: u32,
        /// Column name from the footer index.
        column: String,
        /// What failed.
        reason: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::TooShort => write!(f, "file shorter than header + tail"),
            PersistError::BadMagic => write!(f, "not an ODPTRACE file (magic mismatch)"),
            PersistError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            PersistError::BadFooter(why) => write!(f, "unreadable footer: {why}"),
            PersistError::BadSection {
                shard,
                column,
                reason,
            } => write!(f, "shard {shard} column '{column}': {reason}"),
        }
    }
}

impl std::error::Error for PersistError {}

// ------------------------------------------------------------------
// Footer index (JSON, checksummed).
// ------------------------------------------------------------------

#[derive(Serialize, Deserialize)]
struct Footer {
    version: u32,
    meta: TraceMeta,
    health: TraceHealth,
    shards: Vec<ShardIndex>,
}

#[derive(Serialize, Deserialize)]
struct ShardIndex {
    shard: u32,
    ops: TableIndex,
    targets: TableIndex,
}

#[derive(Serialize, Deserialize)]
struct TableIndex {
    rows: u64,
    cols: Vec<ColIndex>,
}

#[derive(Serialize, Deserialize)]
struct ColIndex {
    name: String,
    off: u64,
    len: u64,
    crc: u64,
}

/// Column names + element widths of the two tables, in section order.
const OP_COLS: &[(&str, usize)] = &[
    ("ids", 8),
    ("kinds", 1),
    ("src_devices", 4),
    ("dest_devices", 4),
    ("src_addrs", 8),
    ("dest_addrs", 8),
    ("bytes", 8),
    ("hash_values", 8),
    ("hash_flags", 1),
    ("starts", 8),
    ("ends", 8),
    ("codeptrs", 8),
];
const TARGET_COLS: &[(&str, usize)] = &[
    ("ids", 8),
    ("devices", 4),
    ("kinds", 1),
    ("starts", 8),
    ("ends", 8),
    ("codeptrs", 8),
];

/// Upper bound on what one shard adds to a file besides its rows: 18
/// footer index entries of at most 105 bytes (a 12-character name and
/// three 20-digit numbers), ~130 bytes of JSON around them, and up to
/// 7 bytes of alignment padding before each of the 18 sections.
const SHARD_INDEX_BYTES: usize = 2304;

// ------------------------------------------------------------------
// Writer.
// ------------------------------------------------------------------

struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    fn with_capacity(bytes: usize) -> Self {
        let mut buf = Vec::with_capacity(bytes);
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // reserved
        SectionWriter { buf }
    }

    /// Append one 8-byte-aligned section of little-endian `N`-byte
    /// elements straight into the file buffer, checksum what was just
    /// written, and return its index entry.
    fn column<const N: usize>(
        &mut self,
        name: &str,
        vals: impl Iterator<Item = [u8; N]>,
    ) -> ColIndex {
        self.buf.resize(self.buf.len().next_multiple_of(8), 0);
        let off = self.buf.len();
        for v in vals {
            self.buf.extend_from_slice(&v);
        }
        let bytes = &self.buf[off..];
        ColIndex {
            name: name.to_string(),
            off: off as u64,
            len: bytes.len() as u64,
            crc: checksum64(bytes),
        }
    }
}

impl TraceArtifact {
    /// Snapshot a log into its persistable form. `program` and `health`
    /// come from the tool run (the log itself does not carry them);
    /// everything else — shard ids, per-shard sorted columns, stats
    /// metadata — is derived from the log so the round trip is closed.
    pub fn from_log(log: &TraceLog, program: &str, health: TraceHealth) -> TraceArtifact {
        TraceArtifact {
            meta: TraceMeta {
                program: program.to_string(),
                total_time_ns: log.total_time().as_nanos(),
                peak_alloc_bytes: log.space_stats().peak_alloc_bytes as u64,
                duplicate_ids: log.duplicate_id_count(),
            },
            health,
            shards: log.shard_parts(),
        }
    }

    /// Serialize to the binary format, version `TRACE_VERSION`.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Reserve the whole file up front, so the sections are written
        // once, in place, and appending the footer does not reallocate
        // (which would copy the file and hand the caller twice its
        // length in capacity). 4 KiB covers the header, tail, meta and
        // health; `SHARD_INDEX_BYTES` a shard's index and padding.
        let row = |spec: &[(&str, usize)]| spec.iter().map(|&(_, width)| width).sum::<usize>();
        let rows: usize = self
            .shards
            .iter()
            .map(|s| s.ops.len() * row(OP_COLS) + s.targets.len() * row(TARGET_COLS))
            .sum();
        let mut w =
            SectionWriter::with_capacity(4096 + self.shards.len() * SHARD_INDEX_BYTES + rows);
        let mut shards = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            let ops = &s.ops;
            let hash = |h: &Option<HashVal>| h.map_or(0, |v| v.0);
            let op_cols = vec![
                w.column("ids", ops.ids.iter().map(|i| i.0.to_le_bytes())),
                w.column("kinds", ops.kinds.iter().map(|&k| [encode_data_op_kind(k)])),
                w.column(
                    "src_devices",
                    ops.src_devices.iter().map(|d| d.raw().to_le_bytes()),
                ),
                w.column(
                    "dest_devices",
                    ops.dest_devices.iter().map(|d| d.raw().to_le_bytes()),
                ),
                w.column("src_addrs", ops.src_addrs.iter().map(|a| a.to_le_bytes())),
                w.column("dest_addrs", ops.dest_addrs.iter().map(|a| a.to_le_bytes())),
                w.column("bytes", ops.bytes.iter().map(|b| b.to_le_bytes())),
                w.column(
                    "hash_values",
                    ops.hashes.iter().map(|h| hash(h).to_le_bytes()),
                ),
                w.column("hash_flags", ops.hashes.iter().map(|h| [h.is_some() as u8])),
                w.column(
                    "starts",
                    ops.starts.iter().map(|t| t.as_nanos().to_le_bytes()),
                ),
                w.column("ends", ops.ends.iter().map(|t| t.as_nanos().to_le_bytes())),
                w.column("codeptrs", ops.codeptrs.iter().map(|c| c.0.to_le_bytes())),
            ];
            let t = &s.targets;
            let target_cols = vec![
                w.column("ids", t.ids.iter().map(|i| i.0.to_le_bytes())),
                w.column("devices", t.devices.iter().map(|d| d.raw().to_le_bytes())),
                w.column("kinds", t.kinds.iter().map(|&k| [encode_target_kind(k)])),
                w.column(
                    "starts",
                    t.starts.iter().map(|x| x.as_nanos().to_le_bytes()),
                ),
                w.column("ends", t.ends.iter().map(|x| x.as_nanos().to_le_bytes())),
                w.column("codeptrs", t.codeptrs.iter().map(|c| c.0.to_le_bytes())),
            ];
            shards.push(ShardIndex {
                shard: s.shard,
                ops: TableIndex {
                    rows: ops.len() as u64,
                    cols: op_cols,
                },
                targets: TableIndex {
                    rows: t.len() as u64,
                    cols: target_cols,
                },
            });
        }
        let footer = Footer {
            version: TRACE_VERSION,
            meta: self.meta.clone(),
            health: self.health,
            shards,
        };
        // Invariant, not event data: the footer is built from plain
        // serializable types; serialization cannot fail.
        #[allow(clippy::expect_used)]
        let footer_bytes = serde_json::to_string(&footer)
            .expect("footer serialization cannot fail")
            .into_bytes();
        let mut buf = w.buf;
        let crc = checksum64(&footer_bytes);
        buf.extend_from_slice(&footer_bytes);
        buf.extend_from_slice(&(footer_bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&crc.to_le_bytes());
        buf.extend_from_slice(&TAIL_MAGIC);
        buf
    }

    /// Rebuild the chronological columnar hydration — the detector
    /// input — through the merge [`TraceLog::columnar`] runs on the live
    /// log, every shard a column part: kernels filtered from the target
    /// columns, one merge by `(start, id, shard order)`. The result is
    /// field-for-field identical to hydrating the original log in
    /// memory.
    ///
    /// A loaded or log-built shard is ordered already and is read where
    /// it lies; caller-built shards that break the order (the fields are
    /// public) are normalised on a copy first.
    pub fn columnar(&self) -> ColumnarView {
        let mut ops = DataOpColumns::with_capacity(self.data_op_count());
        let parts = self
            .shards
            .iter()
            .map(|s| Columns::new(Cow::Borrowed(&s.ops)));
        merge(parts.collect(), &mut ops, None);
        let parts: Vec<TargetColumns> = self
            .shards
            .iter()
            .map(|s| {
                let t = &s.targets;
                let mut kernels = TargetColumns::default();
                for i in (0..t.len()).filter(|&i| t.kinds[i] == TargetKind::Kernel) {
                    kernels.push(&t.event(i));
                }
                kernels
            })
            .collect();
        let mut kernels = TargetColumns::with_capacity(parts.iter().map(TargetColumns::len).sum());
        let parts = parts.into_iter().map(|p| Columns::new(Cow::Owned(p)));
        merge(parts.collect(), &mut kernels, None);
        ColumnarView { ops, kernels }
    }

    /// Chronological hydration of every target construct, matching
    /// [`TraceLog::target_events_sorted`] on the original log.
    pub fn target_events_sorted(&self) -> Vec<TargetEvent> {
        let mut targets = TargetColumns::with_capacity(self.target_count());
        let parts = self
            .shards
            .iter()
            .map(|s| Columns::new(Cow::Borrowed(&s.targets)));
        merge(parts.collect(), &mut targets, None);
        targets.to_events()
    }

    /// Number of persisted data-op events.
    pub fn data_op_count(&self) -> usize {
        self.shards.iter().map(|s| s.ops.len()).sum()
    }

    /// Number of persisted target events.
    pub fn target_count(&self) -> usize {
        self.shards.iter().map(|s| s.targets.len()).sum()
    }

    /// Recompute aggregate statistics from the persisted columns —
    /// identical to [`TraceLog::stats`] on the original log (the sums
    /// run over the same event values; `total_time` comes from the
    /// persisted metadata).
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for shard in &self.shards {
            let ops = &shard.ops;
            for i in 0..ops.len() {
                s.add_op(
                    ops.kinds[i],
                    ops.src_devices[i],
                    ops.dest_devices[i],
                    ops.bytes[i],
                    ops.ends[i] - ops.starts[i],
                );
            }
            let t = &shard.targets;
            for i in (0..t.len()).filter(|&i| t.kinds[i] == TargetKind::Kernel) {
                s.add_kernel(t.ends[i] - t.starts[i]);
            }
        }
        s.total_time = SimDuration(self.meta.total_time_ns);
        s
    }

    /// Space accounting reconstructed from the persisted columns and
    /// metadata, matching [`TraceLog::space_stats`].
    pub fn space_stats(&self) -> SpaceStats {
        let data_op_records = self.data_op_count();
        let target_records = self.target_count();
        SpaceStats {
            data_op_records,
            target_records,
            record_bytes: data_op_records * DATA_OP_RECORD_BYTES
                + target_records * TARGET_RECORD_BYTES,
            peak_alloc_bytes: self.meta.peak_alloc_bytes as usize,
        }
    }
}

// ------------------------------------------------------------------
// Reader.
// ------------------------------------------------------------------

struct SectionReader<'a> {
    data: &'a [u8],
    /// First byte past the column sections (start of the footer).
    data_end: usize,
    checksum: Checksum,
}

impl<'a> SectionReader<'a> {
    /// Borrow one verified section: bounds, 8-byte alignment, exact
    /// width, checksum.
    fn section(&self, shard: u32, col: &ColIndex, rows: u64, width: usize) -> SectionResult<'a> {
        let fail = |reason: &str| {
            Err(PersistError::BadSection {
                shard,
                column: col.name.clone(),
                reason: reason.to_string(),
            })
        };
        let (off, len) = (col.off as usize, col.len as usize);
        if !col.off.is_multiple_of(8) {
            return fail("unaligned offset");
        }
        let Some(end) = off.checked_add(len) else {
            return fail("offset overflow");
        };
        if off < HEADER_BYTES || end > self.data_end {
            return fail("out of bounds");
        }
        let Some(expect) = (rows as usize).checked_mul(width) else {
            return fail("row count overflow");
        };
        if len != expect {
            return fail("length does not match row count");
        }
        let bytes = &self.data[off..end];
        if self.checksum.sum(bytes) != col.crc {
            return fail("checksum mismatch");
        }
        Ok(bytes)
    }
}

type SectionResult<'a> = Result<&'a [u8], PersistError>;

fn read_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let mut a = [0u8; 8];
            a.copy_from_slice(c);
            u64::from_le_bytes(a)
        })
        .collect()
}

fn read_i32s(bytes: &[u8]) -> Vec<i32> {
    bytes
        .chunks_exact(4)
        .map(|c| {
            let mut a = [0u8; 4];
            a.copy_from_slice(c);
            i32::from_le_bytes(a)
        })
        .collect()
}

/// Locate a table's column by name and verify the footer lists exactly
/// the expected column set.
fn table_cols<'t>(
    shard: u32,
    table: &'t TableIndex,
    spec: &[(&str, usize)],
) -> Result<Vec<&'t ColIndex>, PersistError> {
    let mut out = Vec::with_capacity(spec.len());
    for &(name, _) in spec {
        match table.cols.iter().find(|c| c.name == name) {
            Some(c) => out.push(c),
            None => {
                return Err(PersistError::BadSection {
                    shard,
                    column: name.to_string(),
                    reason: "column missing from footer index".to_string(),
                })
            }
        }
    }
    Ok(out)
}

fn decode_shard(r: &SectionReader<'_>, ix: &ShardIndex) -> Result<ShardColumns, PersistError> {
    let shard = ix.shard;

    let cols = table_cols(shard, &ix.ops, OP_COLS)?;
    let mut sections = Vec::with_capacity(cols.len());
    for (col, &(_, width)) in cols.iter().zip(OP_COLS) {
        sections.push(r.section(shard, col, ix.ops.rows, width)?);
    }
    let n = ix.ops.rows as usize;
    let hash_values = read_u64s(sections[7]);
    let hash_flags = sections[8];
    let ops = DataOpColumns {
        ids: read_u64s(sections[0]).into_iter().map(EventId).collect(),
        kinds: sections[1]
            .iter()
            .map(|&k| decode_data_op_kind(k))
            .collect(),
        src_devices: read_i32s(sections[2]).into_iter().map(DeviceId).collect(),
        dest_devices: read_i32s(sections[3]).into_iter().map(DeviceId).collect(),
        src_addrs: read_u64s(sections[4]),
        dest_addrs: read_u64s(sections[5]),
        bytes: read_u64s(sections[6]),
        hashes: (0..n)
            .map(|i| (hash_flags[i] != 0).then(|| HashVal(hash_values[i])))
            .collect(),
        starts: read_u64s(sections[9]).into_iter().map(SimTime).collect(),
        ends: read_u64s(sections[10]).into_iter().map(SimTime).collect(),
        codeptrs: read_u64s(sections[11]).into_iter().map(CodePtr).collect(),
    };

    let cols = table_cols(shard, &ix.targets, TARGET_COLS)?;
    let mut sections = Vec::with_capacity(cols.len());
    for (col, &(_, width)) in cols.iter().zip(TARGET_COLS) {
        sections.push(r.section(shard, col, ix.targets.rows, width)?);
    }
    let targets = TargetColumns {
        ids: read_u64s(sections[0]).into_iter().map(EventId).collect(),
        devices: read_i32s(sections[1]).into_iter().map(DeviceId).collect(),
        kinds: sections[2].iter().map(|&k| decode_target_kind(k)).collect(),
        starts: read_u64s(sections[3]).into_iter().map(SimTime).collect(),
        ends: read_u64s(sections[4]).into_iter().map(SimTime).collect(),
        codeptrs: read_u64s(sections[5]).into_iter().map(CodePtr).collect(),
    };

    // Sortedness is an invariant of everything downstream (the k-way
    // merge, the detectors). A hostile or foreign writer may have
    // emitted unsorted columns that still checksum — normalize with the
    // same stable sort hydration uses instead of trusting them.
    Ok(ShardColumns {
        shard,
        ops: ops.sorted().unwrap_or(ops),
        targets: targets.sorted().unwrap_or(targets),
    })
}

/// Parse the envelope (magics, version, the footer under the checksum
/// that version names, the same version in the footer) and return
/// the footer plus a section reader over the column region.
fn read_envelope(bytes: &[u8]) -> Result<(Footer, SectionReader<'_>), PersistError> {
    if bytes.len() < HEADER_BYTES + TAIL_BYTES {
        return Err(PersistError::TooShort);
    }
    if bytes[..8] != TRACE_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(v);
    let checksum = Checksum::of_version(version)?;
    let len = bytes.len();
    if bytes[len - 8..] != TAIL_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let mut w = [0u8; 8];
    w.copy_from_slice(&bytes[len - TAIL_BYTES..len - 16]);
    let footer_len = u64::from_le_bytes(w) as usize;
    w.copy_from_slice(&bytes[len - 16..len - 8]);
    let footer_crc = u64::from_le_bytes(w);
    let footer_end = len - TAIL_BYTES;
    let Some(footer_start) = footer_end.checked_sub(footer_len) else {
        return Err(PersistError::BadFooter("length out of bounds".to_string()));
    };
    if footer_start < HEADER_BYTES {
        return Err(PersistError::BadFooter("length out of bounds".to_string()));
    }
    let footer_bytes = &bytes[footer_start..footer_end];
    if checksum.sum(footer_bytes) != footer_crc {
        return Err(PersistError::BadFooter("checksum mismatch".to_string()));
    }
    let footer_str =
        std::str::from_utf8(footer_bytes).map_err(|e| PersistError::BadFooter(e.to_string()))?;
    let footer: Footer =
        serde_json::from_str(footer_str).map_err(|e| PersistError::BadFooter(e.to_string()))?;
    if footer.version != version {
        return Err(PersistError::BadVersion(footer.version));
    }
    let reader = SectionReader {
        data: bytes,
        data_end: footer_start,
        checksum,
    };
    Ok((footer, reader))
}

/// Strict load: any unverifiable byte is an error. Writers use this to
/// validate their own output; ingest paths use [`load_trace_lenient`].
pub fn load_trace(bytes: &[u8]) -> Result<TraceArtifact, PersistError> {
    let (footer, reader) = read_envelope(bytes)?;
    let mut shards = Vec::with_capacity(footer.shards.len());
    for ix in &footer.shards {
        shards.push(decode_shard(&reader, ix)?);
    }
    Ok(TraceArtifact {
        meta: footer.meta,
        health: footer.health,
        shards,
    })
}

/// Lenient load: never panics, never silently drops. An unverifiable
/// column quarantines its whole shard and adds the shard's claimed
/// event count to [`TraceHealth::unreadable`]; an undecodable envelope
/// yields an empty artifact with `unreadable = 1`. The returned
/// artifact's health is the persisted health plus those drops, so
/// `health.warning()` reports the degradation exactly like every other
/// quarantine bucket.
pub fn load_trace_lenient(bytes: &[u8]) -> TraceArtifact {
    let (footer, reader) = match read_envelope(bytes) {
        Ok(ok) => ok,
        Err(_) => {
            return TraceArtifact {
                meta: TraceMeta::default(),
                health: TraceHealth {
                    unreadable: 1,
                    ..TraceHealth::default()
                },
                shards: Vec::new(),
            }
        }
    };
    let mut health = footer.health;
    let mut shards = Vec::with_capacity(footer.shards.len());
    for ix in &footer.shards {
        match decode_shard(&reader, ix) {
            Ok(s) => shards.push(s),
            // Footer-supplied counts: a hostile writer controls them.
            Err(_) => {
                health.unreadable = health
                    .unreadable
                    .saturating_add(ix.ops.rows)
                    .saturating_add(ix.targets.rows)
            }
        }
    }
    TraceArtifact {
        meta: footer.meta,
        health,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_model::{DataOpEvent, DataOpKind, TimeSpan};

    fn span(a: u64, b: u64) -> TimeSpan {
        TimeSpan::new(SimTime(a), SimTime(b))
    }

    fn sample_merged_log() -> TraceLog {
        let mut a = TraceLog::for_shard(0);
        let mut b = TraceLog::for_shard(3);
        for &t in &[40u64, 10, 25] {
            a.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                0x1000 + t,
                0xd000,
                64,
                Some(t ^ 0xabc),
                span(t, t + 30),
                CodePtr(0x100),
            );
        }
        a.record_target(
            TargetKind::Region,
            DeviceId::target(0),
            span(5, 95),
            CodePtr(0x110),
        );
        a.record_target(
            TargetKind::Kernel,
            DeviceId::target(0),
            span(20, 60),
            CodePtr(0x120),
        );
        for &t in &[10u64, 10] {
            b.record_data_op(
                DataOpKind::Alloc,
                DeviceId::HOST,
                DeviceId::target(1),
                0x2000,
                0xe000,
                32,
                None,
                span(t, t + 5),
                CodePtr(0x200),
            );
        }
        b.record_target(
            TargetKind::Kernel,
            DeviceId::target(1),
            span(12, 18),
            CodePtr(0x210),
        );
        let mut merged = TraceLog::merge_shards(vec![a, b]);
        merged.set_total_time(SimDuration(1_000));
        merged
    }

    fn sample_health() -> TraceHealth {
        TraceHealth {
            orphaned: 2,
            truncated: 1,
            ..TraceHealth::default()
        }
    }

    /// `bytes` (a file this writer produced) with `header` as the header's
    /// version and `footer` as the footer's, every checksum recomputed
    /// with the one `header` names — so only the version checks can
    /// object to a mismatched pair, and `(1, 1)` is the file the
    /// version-1 writer produced.
    fn reencode(bytes: &[u8], header: u32, footer: u32) -> Vec<u8> {
        let checksum = Checksum::of_version(header).unwrap();
        let tail = bytes.len() - TAIL_BYTES;
        let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap()) as usize;
        let data_end = tail - footer_len;
        let text = std::str::from_utf8(&bytes[data_end..tail]).unwrap();
        let mut index: Footer = serde_json::from_str(text).unwrap();
        index.version = footer;
        for shard in &mut index.shards {
            for col in shard.ops.cols.iter_mut().chain(&mut shard.targets.cols) {
                col.crc = checksum.sum(&bytes[col.off as usize..(col.off + col.len) as usize]);
            }
        }
        let index = serde_json::to_string(&index).unwrap().into_bytes();
        let mut out = bytes[..data_end].to_vec();
        out[8..12].copy_from_slice(&header.to_le_bytes());
        out.extend_from_slice(&index);
        out.extend_from_slice(&(index.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum.sum(&index).to_le_bytes());
        out.extend_from_slice(&TAIL_MAGIC);
        out
    }

    /// The sample trace as a version-1 and as a version-2 file.
    fn sample_files() -> (TraceArtifact, [Vec<u8>; 2]) {
        let artifact = TraceArtifact::from_log(&sample_merged_log(), "t", TraceHealth::default());
        let v2 = artifact.to_bytes();
        (artifact, [reencode(&v2, 1, 1), v2])
    }

    /// Deterministic filler for the pinned checksum vectors.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b1) >> 24) as u8)
            .collect()
    }

    /// [`checksum64`] written straight from its doc comment, one word
    /// index at a time.
    fn checksum64_by_definition(bytes: &[u8]) -> u64 {
        let step = |lane: u64, w: u64| {
            let x = (lane ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^ (x >> 32)
        };
        let mut lanes = [
            0x243f_6a88_85a3_08d3u64,
            0x1319_8a2e_0370_7344,
            0xa409_3822_299f_31d0,
            0x082e_fa98_ec4e_6c89,
        ];
        for i in 0..bytes.len().div_ceil(8) {
            let w = (0..8).fold(0u64, |w, b| {
                w | u64::from(bytes.get(8 * i + b).copied().unwrap_or(0)) << (8 * b)
            });
            lanes[i % 4] = step(lanes[i % 4], w);
        }
        lanes
            .iter()
            .fold(bytes.len() as u64, |sum, &lane| step(sum, lane))
    }

    #[test]
    fn checksum_vectors_are_pinned() {
        // Version 2: the lengths around the word and stripe boundaries.
        let pinned: [(usize, u64); 9] = [
            (0, 0x76be_81c4_3835_fdd0),
            (1, 0x6fa9_5859_91c6_640a),
            (7, 0x4508_3583_62cc_9249),
            (8, 0x8f80_9e5d_287b_88c5),
            (9, 0xddc3_deb0_c856_f7ba),
            (31, 0x8049_c40d_540f_9782),
            (32, 0x98bf_102d_7eed_ec83),
            (33, 0x071c_355d_ae93_72b8),
            (64, 0x9898_c67e_154a_1160),
        ];
        for (len, sum) in pinned {
            assert_eq!(checksum64(&pattern(len)), sum, "checksum64 at {len} bytes");
        }
        for len in 0..=130 {
            let bytes = pattern(len);
            assert_eq!(checksum64(&bytes), checksum64_by_definition(&bytes));
        }
        if !cfg!(miri) {
            let mib = pattern(1 << 20);
            assert_eq!(checksum64(&mib), 0x7112_e1fb_c176_3683);
            assert_eq!(checksum64(&mib), checksum64_by_definition(&mib));
        }
        // Version 1: the published FNV-1a-64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

        /// The corruptions the loader fuzz injects all move the sum: a
        /// theorem for the first two (see [`checksum64`]), 1 - 2^-64
        /// for the others.
        #[test]
        fn checksum_moves_under_every_corruption(
            words in proptest::collection::vec(0u64..u64::MAX, 0..513),
            trim in 0usize..8,
            at in 0usize..usize::MAX,
            value in 0u64..u64::MAX,
            bit in 0u8..8,
            zeros in 1usize..65,
        ) {
            // 0..=4096 bytes, every length modulo 8.
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            bytes.truncate(bytes.len().saturating_sub(trim));
            let sum = checksum64(&bytes);
            if !bytes.is_empty() {
                // One aligned word (the last may be short) rewritten to
                // any other value.
                let start = 8 * (at % bytes.len().div_ceil(8));
                let end = bytes.len().min(start + 8);
                let mut rewritten = bytes.clone();
                rewritten[start..end].copy_from_slice(&value.to_le_bytes()[..end - start]);
                if rewritten == bytes {
                    rewritten[start] ^= 1;
                }
                proptest::prop_assert_ne!(checksum64(&rewritten), sum);

                let mut flipped = bytes.clone();
                flipped[at % bytes.len()] ^= 1 << bit;
                proptest::prop_assert_ne!(checksum64(&flipped), sum);

                proptest::prop_assert_ne!(checksum64(&bytes[..at % bytes.len()]), sum);
            }
            let mut padded = bytes.clone();
            padded.resize(bytes.len() + zeros, 0);
            proptest::prop_assert_ne!(checksum64(&padded), sum);
        }
    }

    #[test]
    fn both_versions_load_to_the_same_artifact() {
        let (artifact, [v1, v2]) = sample_files();
        assert_eq!(v1[8], 1);
        assert_eq!(v2[8], TRACE_VERSION as u8);
        assert_ne!(v1, v2);
        assert_eq!(load_trace(&v1).unwrap(), artifact);
        assert_eq!(load_trace(&v2).unwrap(), artifact);
        // One writer: whatever was read is written as the current version.
        assert_eq!(load_trace(&v1).unwrap().to_bytes(), v2);
    }

    #[test]
    fn header_and_footer_must_name_the_same_version() {
        let (_, [_, v2]) = sample_files();
        for (header, footer) in [(2, 1), (1, 2)] {
            let mixed = reencode(&v2, header, footer);
            assert_eq!(
                load_trace(&mixed),
                Err(PersistError::BadVersion(footer)),
                "header {header}, footer {footer}"
            );
            let art = load_trace_lenient(&mixed);
            assert_eq!(art.health.unreadable, 1);
            assert!(art.shards.is_empty());
        }
        // A checksum of the other version is a checksum mismatch.
        let mut relabelled = v2.clone();
        relabelled[8] = 1;
        assert!(matches!(
            load_trace(&relabelled),
            Err(PersistError::BadFooter(_))
        ));
    }

    #[test]
    fn to_bytes_reserves_for_the_footer_it_writes() {
        // A footer that outgrows the reservation reallocates, and the
        // caller (`FleetIngest::submit` keeps the `Vec`) then holds
        // twice the file's length in capacity.
        let rows = if cfg!(miri) { 300 } else { 3_000 };
        let keys: Vec<(u64, u64)> = (0..rows).map(|i| (i, i)).collect();
        for shards in 1..=16u32 {
            let artifact = TraceArtifact {
                shards: (0..shards).map(|s| keyed_shard(s, &keys)).collect(),
                ..TraceArtifact::default()
            };
            let bytes = artifact.to_bytes();
            assert!(
                bytes.capacity() < bytes.len() + bytes.len() / 8,
                "{shards} shard(s): capacity {} for {} bytes",
                bytes.capacity(),
                bytes.len()
            );
        }
    }

    #[test]
    fn round_trip_is_field_for_field_identical() {
        let log = sample_merged_log();
        let artifact = TraceArtifact::from_log(&log, "sample", sample_health());
        let bytes = artifact.to_bytes();
        let loaded = load_trace(&bytes).unwrap();
        assert_eq!(loaded, artifact);
        assert_eq!(&loaded.columnar(), log.columnar());
        assert_eq!(loaded.target_events_sorted(), log.target_events_sorted());
        assert_eq!(loaded.health, sample_health());
        assert_eq!(loaded.meta.program, "sample");
        assert_eq!(
            serde_json::to_string(&loaded.stats()).unwrap(),
            serde_json::to_string(&log.stats()).unwrap()
        );
        assert_eq!(loaded.space_stats(), log.space_stats());
        assert_eq!(
            loaded.shards.iter().map(|s| s.shard).collect::<Vec<_>>(),
            vec![0, 3]
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let log = TraceLog::new();
        let artifact = TraceArtifact::from_log(&log, "empty", TraceHealth::default());
        let loaded = load_trace(&artifact.to_bytes()).unwrap();
        assert_eq!(loaded, artifact);
        assert!(loaded.shards.is_empty());
        assert_eq!(&loaded.columnar(), log.columnar());
    }

    #[test]
    #[cfg_attr(miri, ignore = "O(len^2) truncation sweep is too slow under miri")]
    fn lenient_load_never_panics_on_truncation() {
        for bytes in sample_files().1 {
            for cut in 0..bytes.len() {
                let art = load_trace_lenient(&bytes[..cut]);
                assert!(
                    art.health.unreadable > 0,
                    "truncation at {cut}/{} must be accounted",
                    bytes.len()
                );
                assert!(art.health.warning().is_some());
            }
            // The untruncated file is clean.
            assert_eq!(load_trace_lenient(&bytes).health.unreadable, 0);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "O(len^2) bit-flip sweep is too slow under miri")]
    fn lenient_load_quarantines_bit_flips_or_preserves_data() {
        let (artifact, files) = sample_files();
        for bytes in files {
            for pos in 0..bytes.len() {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 0x40;
                let art = load_trace_lenient(&corrupt);
                // Either the flip hit slack (alignment padding) and the
                // data is intact, or the loader accounted the drop —
                // never a silent mutation, never a panic.
                if art.health.unreadable == 0 {
                    assert_eq!(art, artifact, "silent corruption at byte {pos}");
                }
            }
        }
    }

    #[test]
    fn strict_load_rejects_what_lenient_quarantines() {
        for bytes in sample_files().1 {
            assert!(load_trace(&bytes).is_ok());
            let mut corrupt = bytes.clone();
            corrupt[HEADER_BYTES + 3] ^= 0xff; // inside shard 0's id column
            assert!(load_trace(&corrupt).is_err());
            assert!(load_trace(&bytes[..bytes.len() - 1]).is_err());
        }
        assert!(load_trace(b"not a trace").is_err());
    }

    #[test]
    fn unsorted_columns_are_normalized_on_load() {
        // A foreign writer emits rows in reverse order; the loader must
        // restore the (start, id) invariant the detectors require.
        let mut ops = DataOpColumns::default();
        for t in (0..4u64).rev() {
            ops.push(&DataOpEvent {
                id: EventId(t),
                kind: DataOpKind::Transfer,
                src_device: DeviceId::HOST,
                dest_device: DeviceId::target(0),
                src_addr: t,
                dest_addr: 0,
                bytes: 1,
                hash: Some(HashVal(t)),
                span: span(t * 10, t * 10 + 5),
                codeptr: CodePtr(0x1),
            });
        }
        let artifact = TraceArtifact {
            meta: TraceMeta::default(),
            health: TraceHealth::default(),
            shards: vec![ShardColumns {
                shard: 0,
                ops,
                targets: TargetColumns::default(),
            }],
        };
        let loaded = load_trace(&artifact.to_bytes()).unwrap();
        let starts: Vec<u64> = loaded.shards[0].ops.starts.iter().map(|t| t.0).collect();
        assert_eq!(starts, vec![0, 10, 20, 30]);
    }

    #[test]
    fn version_and_magic_are_checked() {
        let log = TraceLog::new();
        let mut bytes = TraceArtifact::from_log(&log, "v", TraceHealth::default()).to_bytes();
        bytes[8] = 99; // version
        assert_eq!(load_trace(&bytes), Err(PersistError::BadVersion(99)));
        let art = load_trace_lenient(&bytes);
        assert_eq!(art.health.unreadable, 1);
        assert!(art.shards.is_empty());
    }

    /// The reference `columnar()` answers to: every shard's rows
    /// concatenated in shard order, then stably sorted by `(start, id)`.
    fn columnar_by_rows(a: &TraceArtifact) -> ColumnarView {
        let mut ops: Vec<DataOpEvent> = a.shards.iter().flat_map(|s| s.ops.to_events()).collect();
        ops.sort_by_key(|e| (e.span.start, e.id));
        let mut kernels: Vec<TargetEvent> = a
            .shards
            .iter()
            .flat_map(|s| s.targets.to_events())
            .filter(|e| e.kind == TargetKind::Kernel)
            .collect();
        kernels.sort_by_key(|e| (e.span.start, e.id));
        ColumnarView::from_events(&ops, &kernels)
    }

    /// A caller-built shard whose rows sit at the given `(start, id)`
    /// keys, in the given order. Every other field is derived from the
    /// shard and the row's position, so two rows never look alike even
    /// when their keys collide; every other target is not a kernel.
    fn keyed_shard(shard: u32, keys: &[(u64, u64)]) -> ShardColumns {
        let mut ops = DataOpColumns::default();
        let mut targets = TargetColumns::default();
        for (i, &(start, id)) in keys.iter().enumerate() {
            let tag = u64::from(shard) * 1_000 + i as u64;
            ops.push(&DataOpEvent {
                id: EventId(id),
                kind: if i % 3 == 0 {
                    DataOpKind::Alloc
                } else {
                    DataOpKind::Transfer
                },
                src_device: DeviceId::HOST,
                dest_device: DeviceId::target(shard % 2),
                src_addr: 0x1000 + tag,
                dest_addr: 0xd000 + tag,
                bytes: 8 + tag,
                hash: (i % 2 == 0).then_some(HashVal(tag)),
                span: span(start, start + 3),
                codeptr: CodePtr(0x100 + tag),
            });
            targets.push(&TargetEvent {
                id: EventId(id),
                device: DeviceId::target(shard % 2),
                kind: if i % 2 == 0 {
                    TargetKind::Kernel
                } else {
                    TargetKind::Region
                },
                span: span(start, start + 2),
                codeptr: CodePtr(0x200 + tag),
            });
        }
        ShardColumns {
            shard,
            ops,
            targets,
        }
    }

    #[test]
    fn columnar_merges_columns_like_the_row_path() {
        // Sorted shards whose keys collide across shards — the same
        // start, and (a hostile producer) the very same id.
        let sorted: Vec<ShardColumns> = (0..5u32)
            .map(|s| {
                let keys: Vec<(u64, u64)> = (0..12u64)
                    .map(|i| (10 * (i / 2) + u64::from(s % 2), i / 3))
                    .collect();
                keyed_shard(s, &keys)
            })
            .collect();
        // A caller-built shard that breaks the sort invariant, with a
        // key repeated inside the shard (stable: append order wins).
        let unsorted = keyed_shard(9, &[(30, 2), (0, 0), (30, 2), (10, 7), (10, 1), (0, 0)]);

        for shards in [1, 2, 5] {
            for with_unsorted in [false, true] {
                let mut artifact = TraceArtifact {
                    shards: sorted[..shards].to_vec(),
                    ..TraceArtifact::default()
                };
                if with_unsorted {
                    artifact.shards.insert(shards / 2, unsorted.clone());
                }
                let merged = artifact.columnar();
                assert_eq!(
                    merged,
                    columnar_by_rows(&artifact),
                    "{shards} shard(s), unsorted shard: {with_unsorted}"
                );
                assert_eq!(merged.ops.len(), artifact.data_op_count());
                assert!(merged.ops.sorted().is_none(), "ops come out ordered");
                assert!(
                    merged.kernels.sorted().is_none(),
                    "kernels come out ordered"
                );
            }
        }
        // The unsorted shard on its own, and nothing at all.
        let alone = TraceArtifact {
            shards: vec![unsorted],
            ..TraceArtifact::default()
        };
        assert_eq!(alone.columnar(), columnar_by_rows(&alone));
        assert_eq!(TraceArtifact::default().columnar(), ColumnarView::default());
    }
}
