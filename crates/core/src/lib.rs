//! # ompdataperf — the paper's primary contribution
//!
//! This crate reproduces OMPDataPerf: "a compiler- and hardware-agnostic
//! dynamic analysis tool designed to identify inefficient data mapping
//! patterns, profile them, and provide actionable feedback with
//! estimations of performance uplift if the identified issues are
//! eliminated" (§1).
//!
//! The pipeline:
//!
//! 1. [`tool::OmpDataPerfTool`] attaches to an OpenMP runtime through the
//!    OMPT EMI callbacks (here: `odp-sim`'s simulated runtime), hashes
//!    every transfer payload with a configurable [`odp_hash::HashAlgoId`],
//!    and appends compact records to an [`odp_trace::TraceLog`].
//! 2. After the program finishes, [`analysis::finish_run`] — the one
//!    end-of-run protocol, streamed or post-mortem — extracts the trace
//!    from the tool's handle and runs the five detection algorithms of
//!    §5 over the chronological event log: duplicate transfers,
//!    round-trip transfers, repeated device memory allocations, unused
//!    device memory allocations, and unused data transfers
//!    ([`analysis::analyze`] does the same for a hand-built trace).
//! 3. [`predict`] converts findings into an optimization-potential
//!    estimate (predicted time savings and speedup, §7.6), deduplicating
//!    overlapping findings so no event's cost is counted twice.
//! 4. [`attrib::DebugInfo`] resolves each finding's code pointer to
//!    `file:line (function)` the way the native tool resolves DWARF
//!    through libdw.
//! 5. [`report::Report`] renders the §A.6-style console tables (and
//!    JSON).
//! 6. Optionally, [`remedy::RemediationPolicy`] closes the loop: live
//!    [`detect::StreamFinding`]s become mapping rewrites the simulated
//!    runtime applies *mid-run* (persist, downgrade, elide), with the
//!    recovered transfer bytes/time accounted per finding kind in a
//!    [`remedy::RemediationReport`].
//!
//! End-to-end, against a hand-built trace (no simulator needed):
//!
//! ```
//! use odp_model::{CodePtr, DataOpKind, DeviceId, SimTime, TargetKind, TimeSpan};
//! use odp_trace::TraceLog;
//!
//! let mut log = TraceLog::new();
//! let span = |a: u64, b: u64| TimeSpan::new(SimTime(a), SimTime(b));
//! // The same bytes (hash 0xAB) reach device 0 twice → one duplicate.
//! for t in [0u64, 1_000] {
//!     log.record_data_op(
//!         DataOpKind::Transfer,
//!         DeviceId::HOST,
//!         DeviceId::target(0),
//!         0x1000, 0xd000, 4096, Some(0xAB),
//!         span(t, t + 100),
//!         CodePtr(0x400100),
//!     );
//!     log.record_target(TargetKind::Kernel, DeviceId::target(0),
//!                       span(t + 100, t + 500), CodePtr(0x400200));
//! }
//!
//! let report = ompdataperf::analyze(&log, None);
//! assert_eq!(report.counts.dd, 1);
//! assert!(report.prediction.predicted_speedup > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod attrib;
pub(crate) mod collision;
pub mod detect;
pub mod fleet;
pub mod predict;
pub mod remedy;
pub mod report;
pub mod tool;

pub use analysis::analyze;
pub use detect::{Confidence, Findings, IssueCounts};
pub use predict::Prediction;
pub use remedy::{RemediationPolicy, RemediationReport};
pub use report::Report;
pub use tool::{OmpDataPerfTool, ToolConfig, ToolHandle};
