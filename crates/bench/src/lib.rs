//! # odp-bench — the experiment-regeneration harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md
//! §4 for the experiment index). This library holds the shared pieces:
//! workload execution with and without the tool, wall-clock measurement,
//! aggregate statistics, and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod render;
pub mod runner;

pub use render::Table;
pub use runner::{
    geometric_mean, measure_wall, run_with_arbalest, run_with_tool, run_without_tool,
};

/// Parse the common bench-binary flags (`--quick`, `--json`).
pub struct BenchArgs {
    /// Restrict sweeps to small/medium sizes for CI-speed runs.
    pub quick: bool,
    /// Also emit machine-readable JSON to stdout at the end.
    pub json: bool,
}

impl BenchArgs {
    /// Parse from `std::env::args`.
    pub fn from_env() -> BenchArgs {
        let mut quick = false;
        let mut json = false;
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--quick" => quick = true,
                "--json" => json = true,
                "--help" | "-h" => {
                    println!("flags: --quick (skip Large sizes), --json");
                    std::process::exit(0);
                }
                _ => {}
            }
        }
        BenchArgs { quick, json }
    }

    /// The problem sizes this run sweeps.
    pub fn sizes(&self) -> &'static [odp_workloads::ProblemSize] {
        use odp_workloads::ProblemSize::*;
        if self.quick {
            &[Small, Medium]
        } else {
            &[Small, Medium, Large]
        }
    }
}
