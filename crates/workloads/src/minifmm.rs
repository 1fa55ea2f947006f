//! minifmm — University of Bristol's fast-multipole-method proxy
//! (task-parallel particle physics).
//!
//! §7.5 groups minifmm with the programs whose only duplicates arise
//! "when data is first mapped on the device during initialization, e.g.,
//! multiple zero-initialized arrays of the same length ... not in
//! performance-critical code, so they aren't worth fixing."
//! Table 1: DD = 3 — four identical zero expansion arrays mapped at
//! start-up. The synthetic variant adds DD 72, RT 64, RA 57, UA 57,
//! UT 76 to reach the "(syn)" row (75/64/57/57/76).

use crate::inject::InjectionPlan;
use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The minifmm workload.
pub(crate) struct MiniFmm;

struct Params {
    bodies: usize,
    terms: usize,
    passes: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params {
            bodies: 512,
            terms: 256,
            passes: 2,
        },
        ProblemSize::Medium => Params {
            bodies: 2048,
            terms: 1024,
            passes: 3,
        },
        ProblemSize::Large => Params {
            bodies: 8192,
            terms: 4096,
            passes: 4,
        },
    }
}

fn syn_plan(size: ProblemSize) -> InjectionPlan {
    InjectionPlan {
        dd: 72,
        rt: 64,
        ra: 57,
        ua: 57,
        ut: 76,
    }
    .at_size(size, 2)
}

impl Workload for MiniFmm {
    fn name(&self) -> &'static str {
        "minifmm"
    }

    fn domain(&self) -> &'static str {
        "Particle Physics"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "-n 100",
            ProblemSize::Medium => "-n 1000",
            ProblemSize::Large => "-n 10000",
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
        let nb = p.bodies;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "minifmm/fmm.c", 0x46_0000);
        let cp_region = sf.line(201, "fmm_run");
        let cp_upward = sf.line(220, "upward_pass");
        let cp_dtt = sf.line(248, "dtt_pass");
        let cp_downward = sf.line(276, "downward_pass");

        // Particle state.
        let pos = rt.host_alloc("positions", nb * 8 * 3);
        rt.host_fill_f64(pos, |i| ((i * 2654435761) % 1000) as f64 * 0.001);
        let charge = rt.host_alloc("charges", nb * 8);
        rt.host_fill_f64(charge, |i| 1.0 + (i % 7) as f64 * 0.1);
        // Four zero-initialized expansion arrays of identical length: the
        // initialization duplicates (3 DD).
        let multipoles = rt.host_alloc("multipoles", p.terms * 8);
        let locals = rt.host_alloc("locals", p.terms * 8);
        let accel = rt.host_alloc("accel", p.terms * 8);
        let potentials = rt.host_alloc("potentials", p.terms * 8);

        let region = rt.target_data_begin(
            0,
            cp_region,
            &[
                map(MapType::To, pos),
                map(MapType::To, charge),
                map(MapType::To, multipoles),
                map(MapType::To, locals),
                map(MapType::ToFrom, accel),
                map(MapType::ToFrom, potentials),
            ],
        );

        let kcost = KernelCost::scaled((nb * 32) as u64);
        for pass in 0..p.passes {
            let phase = pass as f64;
            let mut upward = |view: &mut DeviceView<'_>| {
                let q = view.read_f64(charge);
                let mut m = view.read_f64(multipoles);
                for (i, mi) in m.iter_mut().enumerate() {
                    *mi += q[i % q.len()] * (1.0 + phase * 0.25);
                }
                view.write_f64(multipoles, &m);
            };
            rt.target(
                0,
                cp_upward,
                &[map(MapType::To, charge), map(MapType::To, multipoles)],
                Kernel::new("upward", kcost)
                    .reads(&[charge, pos])
                    .writes(&[multipoles])
                    .body(&mut upward),
            );

            let mut dtt = |view: &mut DeviceView<'_>| {
                let m = view.read_f64(multipoles);
                let mut l = view.read_f64(locals);
                for (i, li) in l.iter_mut().enumerate() {
                    *li += m[i] * 0.5 + 0.125 * phase;
                }
                view.write_f64(locals, &l);
            };
            rt.target(
                0,
                cp_dtt,
                &[map(MapType::To, multipoles), map(MapType::To, locals)],
                Kernel::new("dual_tree_traversal", kcost)
                    .reads(&[multipoles, pos])
                    .writes(&[locals])
                    .body(&mut dtt),
            );

            let mut downward = |view: &mut DeviceView<'_>| {
                let l = view.read_f64(locals);
                let mut a = view.read_f64(accel);
                let mut ph = view.read_f64(potentials);
                for i in 0..a.len() {
                    a[i] += l[i] * 0.1;
                    ph[i] += l[i] * 0.01 + phase * 1e-6;
                }
                view.write_f64(accel, &a);
                view.write_f64(potentials, &ph);
            };
            rt.target(
                0,
                cp_downward,
                &[
                    map(MapType::To, locals),
                    map(MapType::To, accel),
                    map(MapType::To, potentials),
                ],
                Kernel::new("downward", kcost)
                    .reads(&[locals])
                    .writes(&[accel, potentials])
                    .body(&mut downward),
            );
        }

        rt.target_data_end(region);

        if matches!(variant, Variant::Synthetic | Variant::SynFixed) {
            syn_plan(size).apply(rt, &mut sf, 0, variant == Variant::SynFixed);
        }
        dbg
    }
}
