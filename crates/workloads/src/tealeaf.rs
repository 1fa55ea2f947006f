//! tealeaf — UK Mini-App Consortium's heat-conduction solver (implicit
//! sparse linear solve; included in SPEChpc 2021).
//!
//! §7.5: "The majority of the DDs and all of the RAs in tealeaf were
//! caused by copies for initialization \[of\] reduction variables.
//! Unfortunately, this is usually the fastest way to initialize
//! reduction variables with current OpenMP features ... We could not
//! determine a performant way to eliminate these issues."
//!
//! Structure per CG iteration: two scalar reduction variables (`rro`,
//! `pw`) are zeroed on the host and mapped `tofrom` around their
//! reduction kernels (alloc + H2D(0.0) + kernel + D2H + delete). At
//! Medium (`iters = 2354`):
//!
//! * RA = 2·(iters−1) = 4706;
//! * DD = (2·iters − 1) + 13 = 4720 — every H2D of the 8-byte zero image
//!   lands in one group (4707) plus the 14 identical zero-initialized
//!   field arrays mapped at start-up (13);
//! * RT = 11 — every 200th iteration a defensive `update from(sd)` /
//!   `update to(sd)` halo-check pair bounces unchanged bytes
//!   (⌊2354/200⌋ = 11).
//!
//! The synthetic variant (Table 1 "(syn)": DD 17408, RT 25614, RA 4706,
//! UT 1) piles injected duplicates and round trips on top.

use crate::inject::InjectionPlan;
use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The tealeaf workload.
pub(crate) struct TeaLeaf;

struct Params {
    cells: usize,
    iters: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params {
            cells: 1024,
            iters: 589,
        },
        ProblemSize::Medium => Params {
            cells: 4096,
            iters: 2354,
        },
        ProblemSize::Large => Params {
            cells: 8192,
            iters: 4708,
        },
    }
}

fn syn_plan(size: ProblemSize) -> InjectionPlan {
    // (syn) deltas over the original counts: DD 17408-4720 = 12688,
    // RT 25614-11 = 25603, UT 1.
    InjectionPlan {
        dd: 12_688,
        rt: 25_603,
        ra: 0,
        ua: 0,
        ut: 1,
    }
    .at_size(size, 4)
}

impl Workload for TeaLeaf {
    fn name(&self) -> &'static str {
        "tealeaf"
    }

    fn domain(&self) -> &'static str {
        "High Energy Physics"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "--file tea_bm_1.in",
            ProblemSize::Medium => "--file tea_bm_2.in",
            ProblemSize::Large => "--file tea_bm_4.in",
        }
    }

    fn supports(&self, variant: Variant) -> bool {
        matches!(
            variant,
            Variant::Original | Variant::Synthetic | Variant::SynFixed
        )
    }

    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        // Synthetic → Original (not SynFixed): tealeaf's inherent
        // reduction-variable issues are unfixable (§7.5), so the
        // measured "after" still contains them while the prediction
        // assumes everything is eliminable. Together with the injected
        // round trips this reproduces the paper's Figure-4 outlier —
        // large actual speedup, substantially under-predicted (§7.6:
        // 16× vs 5.8× at Large).
        Some((Variant::Synthetic, Variant::Original))
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let p = params(size);
        let n = p.cells;
        let bytes = n * 8;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "tealeaf/c_kernels/cg.c", 0x47_0000);
        let cp_region = sf.line(34, "cg_driver");
        let cp_rro = sf.line(61, "cg_calc_rro");
        let cp_pw = sf.line(83, "cg_calc_pw");
        let cp_smooth = sf.line(105, "cg_calc_ur");
        let cp_halo = sf.line(130, "halo_update");

        // Two nonzero input fields...
        let density = rt.host_alloc("density", bytes);
        rt.host_fill_f64(density, |i| 1.0 + (i % 13) as f64 * 0.05);
        let energy = rt.host_alloc("energy", bytes);
        rt.host_fill_f64(energy, |i| 2.5 + (i % 29) as f64 * 0.01);
        // ...and fourteen identical zero-initialized work arrays → 13 DD.
        let names = [
            "u", "u0", "p_field", "r_field", "w_field", "z_field", "kx", "ky", "sd", "mi", "vec_r",
            "vec_w", "vec_z", "vec_sd",
        ];
        let fields: Vec<_> = names.iter().map(|nm| rt.host_alloc(nm, bytes)).collect();
        let sd = fields[8];

        let mut maps = vec![map(MapType::To, density), map(MapType::To, energy)];
        maps.extend(fields.iter().map(|&f| map(MapType::To, f)));
        // `u` comes home at the end.
        maps[2] = map(MapType::ToFrom, fields[0]);
        let region = rt.target_data_begin(0, cp_region, &maps);

        let rro = rt.host_alloc("rro", 8);
        let pw = rt.host_alloc("pw", 8);
        let kcost = KernelCost::scaled((n * 4) as u64);
        let redcost = KernelCost::scaled(n as u64);

        for iter in 0..p.iters {
            // Reduction 1: rro = Σ r·z — host zeroes, maps tofrom.
            rt.host_bytes_mut(rro).fill(0);
            let rro_val = 1.0e6 - iter as f64 * 0.5; // strictly decreasing
            let mut rro_body = |view: &mut DeviceView<'_>| {
                view.write_f64(rro, &[rro_val]);
            };
            rt.target(
                0,
                cp_rro,
                &[
                    map(MapType::ToFrom, rro),
                    map(MapType::To, fields[3]),
                    map(MapType::To, fields[5]),
                ],
                Kernel::new("cg_calc_rro", redcost)
                    .reads(&[fields[3], fields[5]])
                    .writes(&[rro])
                    .body(&mut rro_body),
            );
            rt.host_load(rro);

            // Reduction 2: pw = Σ p·w.
            rt.host_bytes_mut(pw).fill(0);
            let pw_val = 2.0e9 + iter as f64;
            let mut pw_body = |view: &mut DeviceView<'_>| {
                view.write_f64(pw, &[pw_val]);
            };
            rt.target(
                0,
                cp_pw,
                &[
                    map(MapType::ToFrom, pw),
                    map(MapType::To, fields[2]),
                    map(MapType::To, fields[4]),
                ],
                Kernel::new("cg_calc_pw", redcost)
                    .reads(&[fields[2], fields[4]])
                    .writes(&[pw])
                    .body(&mut pw_body),
            );
            rt.host_load(pw);

            // Main smoother: updates u, r and the halo direction sd.
            let step = iter as f64;
            let mut smooth = |view: &mut DeviceView<'_>| {
                let dens = view.read_f64(density);
                let mut u = view.read_f64(fields[0]);
                let mut r = view.read_f64(fields[3]);
                let mut sdv = view.read_f64(sd);
                for i in 0..n {
                    let coupling = dens[i] * 1e-4;
                    u[i] += coupling + step * 1e-9;
                    r[i] = r[i] * 0.999 + coupling;
                    sdv[i] = r[i] * 0.7 + step * 1e-6;
                }
                view.write_f64(fields[0], &u);
                view.write_f64(fields[3], &r);
                view.write_f64(sd, &sdv);
            };
            rt.target(
                0,
                cp_smooth,
                &[
                    map(MapType::To, density),
                    map(MapType::To, fields[0]),
                    map(MapType::To, fields[3]),
                    map(MapType::To, sd),
                ],
                Kernel::new("cg_calc_ur", kcost)
                    .reads(&[density, fields[0], fields[3]])
                    .writes(&[fields[0], fields[3], sd])
                    .body(&mut smooth),
            );

            if iter % 200 == 199 {
                // Defensive halo check: copy sd out and push the
                // identical bytes straight back — one round trip.
                rt.target_update_from(0, cp_halo, &[sd]);
                rt.host_load(sd);
                rt.target_update_to(0, cp_halo, &[sd]);
            }
        }

        rt.target_data_end(region);

        if matches!(variant, Variant::Synthetic | Variant::SynFixed) {
            syn_plan(size).apply(rt, &mut sf, 0, variant == Variant::SynFixed);
        }
        dbg
    }
}
