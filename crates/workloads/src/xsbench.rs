//! xsbench — Argonne's Monte Carlo neutron-transport cross-section
//! lookup proxy (event-based mode).
//!
//! §7.5: "Both rsbench and xsbench had a single RT caused by a missing
//! map clause for the input struct, which unnecessarily copied the input
//! back from the GPU; we fixed these issues."
//!
//! The `SimulationData` aggregate is referenced by the lookup kernel
//! without an explicit map clause → implicit `tofrom` → its unmodified
//! bytes ride back to the host after the kernel: one round trip.
//! Table 1: RT = 1 (original), clean after the fix.

use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The xsbench workload.
pub(crate) struct XsBench;

struct Params {
    lookups: usize,
    grid: usize,
}

fn params(size: ProblemSize) -> Params {
    // The cross-section grids are the defining trait of xsbench: the
    // unionized energy grid is gigabytes in the paper's "-s large"
    // configuration, which is why xsbench shows the worst profiling
    // overhead in Figure 2 (1.33×) — hashing a huge one-shot transfer.
    // We keep the grids big relative to the kernel so that character
    // survives the scale-down.
    match size {
        ProblemSize::Small => Params {
            lookups: 20_000,
            grid: 512 * 1024,
        },
        ProblemSize::Medium => Params {
            lookups: 100_000,
            grid: 2 * 1024 * 1024,
        },
        ProblemSize::Large => Params {
            lookups: 400_000,
            grid: 4 * 1024 * 1024,
        },
    }
}

impl Workload for XsBench {
    fn name(&self) -> &'static str {
        "xsbench"
    }

    fn domain(&self) -> &'static str {
        "Neutron Transport"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "-m event -s small",
            ProblemSize::Medium => "-m event -g 1413",
            ProblemSize::Large => "-m event -s large",
        }
    }

    fn supports(&self, variant: Variant) -> bool {
        matches!(variant, Variant::Original | Variant::Fixed)
    }

    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        Some((Variant::Original, Variant::Fixed))
    }

    /// XSBench's event-based lookups are independent per host thread
    /// (the real program is OpenMP-threaded on the host side).
    fn supports_threads(&self) -> bool {
        true
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let p = params(size);
        run_xs_style(
            rt,
            "xsbench/Simulation.c",
            0x48_0000,
            p.grid,
            p.lookups,
            variant == Variant::Fixed,
        )
    }
}

/// Shared shape of the two cross-section benchmarks: a large read-only
/// grid, a `SimulationData` aggregate with a missing map clause, and one
/// event-based lookup kernel writing a verification array.
pub(crate) fn run_xs_style(
    rt: &mut Runtime,
    file: &str,
    base: u64,
    grid_size: usize,
    lookups: usize,
    fixed: bool,
) -> DebugInfo {
    let mut dbg = DebugInfo::new();
    let mut sf = SourceFile::new(&mut dbg, file, base);
    let cp_kernel = sf.line(71, "run_event_based_simulation");

    let grid = rt.host_alloc("energy_grid", grid_size * 8);
    // Cheap deterministic pseudo-random fill (a sin() here would cost
    // more host time than the whole offload phase at Large sizes).
    rt.host_fill_f64(grid, |i| {
        let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        0.01 + x as f64 * 1e-6
    });
    // The input aggregate (problem description, pointers, sizes).
    let sim_data = rt.host_alloc("SD", 512);
    rt.host_fill_u32(sim_data, |i| {
        (grid_size as u32).wrapping_mul(31).wrapping_add(i as u32)
    });
    let verification = rt.host_alloc("verification", lookups.min(4096) * 8);

    let sd_map = if fixed {
        // The fix: an explicit map(to:) stops the copy-back.
        map(MapType::To, sim_data)
    } else {
        // Missing map clause → implicit tofrom (the round trip).
        map(MapType::ToFrom, sim_data)
    };

    let vlen = lookups.min(4096);
    let mut lookup = |view: &mut DeviceView<'_>| {
        let g = view.read_f64(grid);
        let mut verif = vec![0.0f64; vlen];
        let mut seed = 0x9E3779B97F4A7C15u64;
        for l in 0..lookups {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ix = (seed >> 33) as usize % g.len();
            // A toy macroscopic cross-section accumulation.
            let xs = g[ix] * 0.8 + g[(ix + 7) % g.len()] * 0.2;
            verif[l % vlen] += xs;
        }
        view.write_f64(verification, &verif);
    };
    rt.target(
        0,
        cp_kernel,
        &[
            map(MapType::To, grid),
            sd_map,
            map(MapType::From, verification),
        ],
        Kernel::new(
            "xs_lookup_kernel",
            KernelCost::scaled((lookups * 16) as u64),
        )
        .reads(&[grid, sim_data])
        .writes(&[verification])
        .body(&mut lookup),
    );
    rt.host_load(verification);
    dbg
}
