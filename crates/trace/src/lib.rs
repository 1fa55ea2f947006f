//! # odp-trace — the tool-side event log
//!
//! OMPDataPerf's detection runs post-mortem over "a log of all OpenMP
//! target events" (§5). This crate is that log. Its design goals follow
//! the paper's §7.4 space-overhead accounting:
//!
//! * **72 bytes** per data-transfer/allocation event,
//! * **24 bytes** per target-launch event,
//! * chunked append-only storage (no reallocation spikes while the
//!   monitored program runs),
//! * peak-allocation tracking so Figure 3 is a real byte count,
//! * code-pointer interning for the 24-byte target records,
//! * hydration into the `odp-model` event types for the detectors, and
//!   JSON export for offline analysis.
//!
//! # Sharding invariants
//!
//! Multi-threaded collection gives every runtime thread its own
//! [`TraceLog`] shard (`TraceLog::for_shard`). **Event ids embed the
//! shard**: `id = shard << 32 | per-shard sequence`, so ids are unique
//! across threads without coordination, and
//! `TraceLog::merge_shards` — which orders all shard streams by
//! `(start time, shard, per-shard sequence)` — produces a merged trace
//! that is independent of how the OS scheduled the recording threads.
//! Hydration sorts by `(start, id)`; because the shard is the id's high
//! half, cross-shard ties at the same start time break
//! deterministically by shard number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Event-data paths must quarantine-and-count malformed input, never
// panic on it. The few remaining `expect`s are real invariants, each
// carrying an explicit allow + justification at the call site.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome;
pub(crate) mod chunked;
pub(crate) mod columnar;
pub mod intern;
pub(crate) mod log;
pub mod persist;
pub mod record;
pub(crate) mod stats;

pub use columnar::{ColumnarView, DataOpColumns, ShardColumns, TargetColumns};
pub use log::TraceLog;
pub use persist::{load_trace, load_trace_lenient, PersistError, TraceArtifact};
pub use record::MAX_PLAUSIBLE_DEVICES;
pub use stats::{SpaceStats, TraceStats};
