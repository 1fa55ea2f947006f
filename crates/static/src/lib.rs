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
//! 2. `exec` — the abstract executor: it steps the same clause
//!    transition as the simulator (`odp_model::MapType::enter` /
//!    `exit`), symbolic content tokens stand in for buffer hashes,
//!    data-dependent loops are unrolled and probed. It emits the dynamic engine's own event model
//!    (`odp_model::DataOpEvent` / `TargetEvent`) plus one
//!    `exec::OpFacts` per data op carrying the certainty bit.
//! 3. [`analysis`] — the fused dynamic engine (`ompdataperf::detect`)
//!    run over that abstract trace, then a certainty fold: each
//!    prediction is tagged [`analysis::Certainty::Certain`] (holds in
//!    every execution) or [`analysis::Certainty::MayDependOnData`].
//!    The §5 algorithms are not re-implemented here.
//! 4. `lower` — *interprets* the same IR against a simulated runtime
//!    it is handed ([`lower::interpret`]), and makes an IR program an
//!    `odp_workloads::Workload` ([`lower::IrWorkload`]). This crate
//!    builds no runtime and attaches no tool: running a program under
//!    the tool is `odp_workloads::session::run`, as for every workload.
//! 5. [`mod@crosscheck`] — joins both sides by `(codeptr, device, kind)`
//!    and scores certain precision / may coverage / recall misses.
//! 6. `plan` — turns `Certain` predictions into machine-readable
//!    directive rewrites, applies them to the IR, and validates the
//!    rewrite by running both versions under the tool.
//! 7. [`programs`] — the registry of IR programs: models of babelstream,
//!    bfs and xsbench (`ir-*`), and the memory-pragma ladder
//!    `mem1`…`mem6`, the programs whose findings are known in advance.
//!
//! The soundness contract — every `Certain` prediction is confirmed by
//! the tool on the interpreted program — is pinned by unit tests, a
//! property suite, and golden fixtures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod crosscheck;
pub(crate) mod exec;
pub mod ir;
pub(crate) mod lower;
pub(crate) mod plan;
pub mod programs;

pub use analysis::{analyze, Certainty, StaticPrediction, StaticReport};
pub use crosscheck::{crosscheck, CrossCheck, CrossRow, CrossSummary, RowStatus};
pub use ir::{
    Init, KernelSpec, KernelWrite, MapClause, MappingProgram, Step, TripCount, VarDecl, VarRef,
};
pub use lower::{interpret, run_under_tool, IrWorkload};
pub use plan::{emit_plan, validate_plan, PatchEdit, PatchPlan, PlanOutcome, RewriteAction};
pub use programs::{by_name, registry};
