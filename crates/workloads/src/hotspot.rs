//! hotspot — Rodinia's thermal simulation (structured grid stencil).
//!
//! Table 1: DD = 2, all else 0. The two duplicate transfers come from
//! defensive `target update to(power)` refreshes between pyramid steps:
//! the power density grid never changes, so each refresh re-sends bytes
//! the device already holds. No reallocation is involved (the arrays
//! stay mapped), which is why DD appears without RA.
//!
//! The synthetic variant (Table 1 "(syn)": DD 12, RT 4, RA 10) adds the
//! paper's injected issues around the stencil kernels.

use crate::inject::InjectionPlan;
use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The hotspot workload.
pub(crate) struct Hotspot;

struct Params {
    grid: usize,
    outer_steps: usize,
    inner_iters: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        // Paper inputs share pyramid_height 2 / total 4 iterations; the
        // grid dimension grows.
        ProblemSize::Small => Params {
            grid: 64,
            outer_steps: 3,
            inner_iters: 2,
        },
        ProblemSize::Medium => Params {
            grid: 128,
            outer_steps: 3,
            inner_iters: 2,
        },
        ProblemSize::Large => Params {
            grid: 256,
            outer_steps: 3,
            inner_iters: 2,
        },
    }
}

fn syn_plan(size: ProblemSize) -> InjectionPlan {
    InjectionPlan {
        dd: 10,
        rt: 4,
        ra: 10,
        ua: 0,
        ut: 0,
    }
    .at_size(size, 2)
}

impl Workload for Hotspot {
    fn name(&self) -> &'static str {
        "hotspot"
    }

    fn domain(&self) -> &'static str {
        "Thermal Simulation"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "64 64 2 4 temp_64 power_64",
            ProblemSize::Medium => "512 512 2 4 temp_512 power_512",
            ProblemSize::Large => "1024 1024 2 4 temp_1024 power_1024",
        }
    }

    fn supports(&self, variant: Variant) -> bool {
        matches!(
            variant,
            Variant::Original | Variant::Synthetic | Variant::SynFixed
        )
    }

    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        Some((Variant::Synthetic, Variant::SynFixed))
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let p = params(size);
        let n = p.grid * p.grid;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "rodinia/hotspot/hotspot_openmp.cpp", 0x42_0000);
        let cp_region = sf.line(255, "compute_tran_temp");
        let cp_update = sf.line(268, "compute_tran_temp");
        let cp_kernel = sf.line(285, "single_iteration");

        let temp = rt.host_alloc("MatrixTemp", n * 8);
        rt.host_fill_f64(temp, |i| 322.0 + (i % 64) as f64 * 0.01);
        let power = rt.host_alloc("MatrixPower", n * 8);
        rt.host_fill_f64(power, |i| 0.001 + (i % 32) as f64 * 1e-5);
        let result = rt.host_alloc("MatrixOut", n * 8);
        rt.host_fill_f64(result, |i| 1.0 + i as f64 * 1e-9);

        let region = rt.target_data_begin(
            0,
            cp_region,
            &[
                map(MapType::ToFrom, temp),
                map(MapType::To, power),
                map(MapType::To, result),
            ],
        );

        let grid = p.grid;
        let kcost = KernelCost::scaled((n * 5) as u64);
        let mut flip = false;
        for step in 0..p.outer_steps {
            if step > 0 {
                // Defensive refresh of an unchanged array before each
                // later pyramid step — one duplicate transfer each (the
                // next stencil kernel consumes it, so it is *only* a
                // DD). Present in every variant: these are hotspot's
                // inherent issues, not injected ones.
                rt.target_update_to(0, cp_update, &[power]);
            }
            for _ in 0..p.inner_iters {
                let (src, dst) = if flip { (result, temp) } else { (temp, result) };
                flip = !flip;
                let mut stencil = |view: &mut DeviceView<'_>| {
                    let t = view.read_f64(src);
                    let pw = view.read_f64(power);
                    let mut out = vec![0.0f64; n];
                    for r in 0..grid {
                        for c in 0..grid {
                            let ix = r * grid + c;
                            let up = if r > 0 { t[ix - grid] } else { t[ix] };
                            let down = if r + 1 < grid { t[ix + grid] } else { t[ix] };
                            let left = if c > 0 { t[ix - 1] } else { t[ix] };
                            let right = if c + 1 < grid { t[ix + 1] } else { t[ix] };
                            out[ix] = t[ix]
                                + 0.05 * (up + down + left + right - 4.0 * t[ix])
                                + 0.5 * pw[ix];
                        }
                    }
                    view.write_f64(dst, &out);
                };
                rt.target(
                    0,
                    cp_kernel,
                    &[
                        map(MapType::To, temp),
                        map(MapType::To, power),
                        map(MapType::To, result),
                    ],
                    Kernel::new("hotspot_stencil", kcost)
                        .reads(&[src, power])
                        .writes(&[dst])
                        .body(&mut stencil),
                );
            }
        }

        rt.target_data_end(region);

        if matches!(variant, Variant::Synthetic | Variant::SynFixed) {
            syn_plan(size).apply(rt, &mut sf, 0, variant == Variant::SynFixed);
        }
        dbg
    }
}
