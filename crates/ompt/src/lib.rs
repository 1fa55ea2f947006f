//! # odp-ompt — the OpenMP Tools Interface, in Rust
//!
//! OMPT (paper §2.3) is the OpenMP-runtime-integrated API through which
//! portable tools observe target events. OMPDataPerf depends on exactly
//! two callbacks: `ompt_callback_target_emi` and
//! `ompt_callback_target_data_op_emi` (§6); it additionally uses
//! `ompt_callback_target_submit_emi` to delimit kernel executions.
//!
//! This crate defines:
//!
//! * the callback payload types ([`TargetCallback`], [`DataOpCallback`],
//!   [`SubmitCallback`]) mirroring the OMPT EMI signatures, with one
//!   extension — transfers expose the payload bytes so content-hashing
//!   tools can read them the way a native tool reads the source pointer;
//! * the [`Tool`] trait that tools implement and the registration
//!   machinery ([`ToolRegistration`]) modeled on `ompt_start_tool` +
//!   `ompt_set_callback`, including per-callback availability results;
//! * `capability` — the compiler/runtime support matrix from the
//!   paper's Table 6, so that degraded-runtime behaviour (§A.6's warning)
//!   is reproducible and testable against nine compiler profiles;
//! * `progress` — the lock-free [`GlobalWatermark`] online
//!   (streaming) tools use to turn completion-ordered callbacks back
//!   into a chronological event stream: each callback shard publishes
//!   the bound its open-operation table and latest callback time allow,
//!   and the watermark merges them when a multi-threaded runtime drives
//!   callbacks from several shards at once. The merged watermark is
//!   *strictly below*: it promises only that no future event can start
//!   at or below it (`None` while any shard may still emit at t=0).
//!   A shard publishes on every clock edge: two release stores to its
//!   own cache line, so the merge is never behind any shard's clock;
//! * `advice` — the feedback extension real OMPT lacks: a
//!   [`MapAdvisor`] the runtime consults at every map-clause item so a
//!   live analysis can rewrite inefficient mappings mid-run, with
//!   per-cause [`RemediationStats`] accounting what the rewrites saved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod advice;
pub(crate) mod callback;
pub(crate) mod capability;
pub(crate) mod progress;
pub(crate) mod tool;
pub(crate) mod version;

pub use advice::{MapAdvice, MapAdvisor, RemediationStats, RemedyCounter};
pub use callback::{
    AccessRange, CallbackKind, DataOpCallback, DataOpType, Endpoint, HostAccessInfo,
    KernelAccessInfo, SubmitCallback, TargetCallback, TargetConstructKind,
};
pub use capability::{CompilerProfile, RuntimeCapabilities};
pub use progress::{GlobalWatermark, ShardSlot, StallDetector};
pub use tool::{NullTool, Tool, ToolRegistration};
pub use version::OmptVersion;
