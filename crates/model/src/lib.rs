//! # odp-model — shared vocabulary for the OMPDataPerf reproduction
//!
//! This crate defines the domain types that every other crate in the
//! workspace speaks: device identifiers, simulated time,
//! OpenMP `map` clause semantics, the OpenMP target event model that the
//! detection algorithms of the paper consume, the five inefficiency classes
//! they report, and source-location types used for attribution.
//!
//! The event model mirrors what a tool observes through the OpenMP Tools
//! Interface (OMPT) EMI callbacks, per §5 of the paper: each event carries
//! its start/end time, source and destination device numbers, addresses,
//! byte counts, the content hash of transferred data (when applicable), and
//! the code pointer used for source attribution.
//!
//! Nothing in this crate allocates during hot paths; all types are small,
//! `Copy` where possible, and serializable for trace export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod device;
pub(crate) mod event;
pub(crate) mod finding;
pub(crate) mod health;
pub(crate) mod map;
pub(crate) mod source;
pub(crate) mod time;

pub use device::DeviceId;
pub use event::{DataOpEvent, DataOpKind, EventId, HashVal, TargetEvent, TargetKind};
pub use finding::FindingKind;
pub use health::TraceHealth;
pub use map::{MapModifier, MapStep, MapType};
pub use source::{CodePtr, SourceLoc};
pub use time::{SimDuration, SimTime, TimeSpan};
