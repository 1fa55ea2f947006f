//! # odp-sim — the OpenMP offload runtime simulator
//!
//! Rust has no OpenMP offload runtime, so this crate *is* the substrate
//! the paper's tool attaches to (see ARCHITECTURE.md §1). It reproduces
//! the pieces of LLVM's `libomp`/`libomptarget` that OMPT-visible
//! behaviour depends on:
//!
//! * a host memory space holding real byte buffers for mapped variables;
//! * N target devices, each with its own memory space, a first-fit
//!   allocator that **reuses freed addresses** (required for the paper's
//!   discussion of Algorithm 3's false-positive mitigation), and a
//!   reference-counted **present table** stepped by `odp_model`'s `map`
//!   clause transition, which states `libomptarget`'s rules once;
//! * the `target`, `target data`, `target enter/exit data` and
//!   `target update` directives, including the implicit data-mapping
//!   rules for variables referenced by a kernel but not explicitly
//!   mapped;
//! * kernels that execute *real* compute against device buffers (so
//!   content hashes evolve honestly) while a calibrated timing model
//!   advances a deterministic virtual clock;
//! * OMPT EMI callback dispatch (begin/end pairs) to attached tools,
//!   honoring the configured compiler capability profile, with graceful
//!   degradation to the deprecated non-EMI callbacks.
//!
//! A single [`Runtime`] instance is single-threaded and fully
//! deterministic (the detection algorithms need chronologically ordered
//! logs, and the prediction-accuracy experiment needs reproducible
//! timings), and owns its host memory and devices outright.
//! Multi-threaded callback emission — the shape a real runtime presents
//! to an OMPT tool — comes from [`threads::run_on_threads`]: every OS
//! thread gets its own runtime and devices (rank-per-thread), so the
//! merged observation stays reproducible while the callback
//! interleaving is genuinely concurrent.
//!
//! Beyond observation, the runtime accepts an
//! [`odp_ompt::MapAdvisor`] (`Runtime::attach_advisor`): a live
//! analysis can rewrite inefficient map clauses mid-run — skip
//! provably redundant copies, keep mappings resident across regions,
//! elide never-used allocations — with every applied rewrite and its
//! recovered bytes/time accounted per finding kind and device
//! (`Runtime::remediation_stats`). Without an advisor, directive
//! execution is bit-for-bit identical to the unremediated runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod alloc;
pub(crate) mod config;
pub(crate) mod device;
pub(crate) mod faults;
pub(crate) mod kernel;
pub(crate) mod memory;
pub(crate) mod present;
pub(crate) mod runtime;
pub(crate) mod threads;
pub(crate) mod timing;

pub use config::RuntimeConfig;
pub use faults::{FaultConfig, FaultCounts, FaultPlan, FaultProfile};
pub use kernel::{DeviceView, Kernel, KernelCost};
pub use memory::VarId;
pub use runtime::{Map, Runtime, RuntimeStats, RuntimeWarning};
pub use threads::{merged_stats, run_on_threads, run_on_threads_advised};
pub use timing::TransferModel;

use odp_model::{MapModifier, MapType};

/// Convenience constructor for a map clause item.
pub fn map(map_type: MapType, var: VarId) -> Map {
    Map {
        var,
        map_type,
        modifier: MapModifier::NONE,
    }
}

/// Convenience constructor for `map(always, <type>: var)`.
pub fn map_always(map_type: MapType, var: VarId) -> Map {
    Map {
        var,
        map_type,
        modifier: MapModifier::ALWAYS,
    }
}
