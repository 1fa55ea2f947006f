//! `odp_static` — static analysis of OpenMP data-mapping patterns over
//! a declarative mapping IR.
//!
//! The dynamic pipeline (`odp_sim` → `ompdataperf`) observes one
//! execution; this crate predicts the same five inefficiency classes —
//! round trips, duplicate transfers, unused allocations, unused
//! transfers, repeated allocations — *without running the program*, by
//! abstract interpretation of a [`ir::MappingProgram`]:
//!
//! 1. [`ir`] — the declarative IR: variables with deterministic
//!    initializers, map clauses, kernels with read/write sets, loop
//!    structure. One description drives both sides.
//! 2. [`exec`] — the abstract executor: symbolic content tokens stand
//!    in for buffer hashes, data-dependent loops are unrolled and
//!    probed. It emits the dynamic engine's own event model
//!    (`odp_model::DataOpEvent` / `TargetEvent`) plus one
//!    [`exec::OpFacts`] per data op carrying the certainty bit.
//! 3. [`analysis`] — the fused dynamic engine (`ompdataperf::detect`)
//!    run over that abstract trace, then a certainty fold: each
//!    prediction is tagged [`analysis::Certainty::Certain`] (holds in
//!    every execution) or [`analysis::Certainty::MayDependOnData`].
//!    The §5 algorithms are not re-implemented here.
//! 4. [`lower`] — lowers the same IR onto the real simulated runtime
//!    and runs the same engine over the captured trace.
//! 5. [`mod@crosscheck`] — joins both sides by `(codeptr, device, kind)`
//!    and scores certain precision / may coverage / recall misses.
//! 6. [`plan`] — turns `Certain` predictions into machine-readable
//!    directive rewrites, applies them to the IR, and validates the
//!    rewrite by re-lowering and re-running.
//! 7. [`programs`] — declarative descriptions of the three reference
//!    workloads (babelstream, bfs, xsbench).
//!
//! The soundness contract — every `Certain` prediction is confirmed by
//! the dynamic engine on the lowered program — is pinned by unit tests,
//! a property suite, and golden fixtures.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod crosscheck;
pub mod exec;
pub mod ir;
pub mod lower;
pub mod plan;
pub mod programs;

pub use analysis::{analyze, Certainty, StaticPrediction, StaticReport};
pub use crosscheck::{crosscheck, CrossCheck, CrossRow, CrossSummary, RowStatus};
pub use exec::{abstract_run, AbsTrace, OpFacts};
pub use ir::{
    Init, KernelSpec, KernelWrite, MapClause, MappingProgram, Step, TripCount, VarDecl, VarRef,
};
pub use lower::{lower_and_run, LoweredRun};
pub use plan::{
    apply_plan, emit_plan, validate_plan, PatchEdit, PatchPlan, PlanOutcome, RewriteAction,
};
pub use programs::{by_name, Size, NAMES};
