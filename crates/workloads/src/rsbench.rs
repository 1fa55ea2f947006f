//! rsbench — Argonne's multipole cross-section lookup proxy (the
//! reduced-data-movement companion to xsbench).
//!
//! Same §7.5 finding as xsbench: one round trip from the input struct's
//! missing map clause (Table 1: RT = 1; clean after the fix).

use crate::xsbench::run_xs_style;
use crate::{ProblemSize, Variant, Workload};
use odp_sim::Runtime;
use ompdataperf::attrib::DebugInfo;

/// The rsbench workload.
pub(crate) struct RsBench;

struct Params {
    lookups: usize,
    poles: usize,
}

fn params(size: ProblemSize) -> Params {
    // rsbench is the *reduced data movement* reformulation of xsbench:
    // its multipole data is orders of magnitude smaller than the
    // unionized grid, so its profiling overhead stays low in Figure 2.
    match size {
        ProblemSize::Small => Params {
            lookups: 15_000,
            poles: 16 * 1024,
        },
        ProblemSize::Medium => Params {
            lookups: 80_000,
            poles: 64 * 1024,
        },
        ProblemSize::Large => Params {
            lookups: 300_000,
            poles: 128 * 1024,
        },
    }
}

impl Workload for RsBench {
    fn name(&self) -> &'static str {
        "rsbench"
    }

    fn domain(&self) -> &'static str {
        "Neutron Transport"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "-m event -s small",
            ProblemSize::Medium => "-m event -s large -l 4250000",
            ProblemSize::Large => "-m event -s large",
        }
    }

    fn supports(&self, variant: Variant) -> bool {
        matches!(variant, Variant::Original | Variant::Fixed)
    }

    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        Some((Variant::Original, Variant::Fixed))
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let p = params(size);
        run_xs_style(
            rt,
            "rsbench/simulation.c",
            0x49_0000,
            p.poles,
            p.lookups,
            variant == Variant::Fixed,
        )
    }
}
