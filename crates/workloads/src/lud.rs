//! lud — Rodinia's LU decomposition (dense linear algebra).
//!
//! The shipped OpenMP offload version maps the matrix once around the
//! whole factorization, so Table 1 reports zero issues. The synthetic
//! variant injects the paper's artificial issues (Table 1 "(syn)":
//! DD 1737, RT 1243, RA 747, UA 250, UT 252 at Medium).

use crate::inject::InjectionPlan;
use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The lud workload.
pub(crate) struct Lud;

struct Params {
    dim: usize,
    block: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params { dim: 64, block: 16 },
        ProblemSize::Medium => Params { dim: 96, block: 16 },
        ProblemSize::Large => Params {
            dim: 128,
            block: 16,
        },
    }
}

fn syn_plan(size: ProblemSize) -> InjectionPlan {
    InjectionPlan {
        dd: 1737,
        rt: 1243,
        ra: 747,
        ua: 250,
        ut: 252,
    }
    .at_size(size, 4)
}

impl Workload for Lud {
    fn name(&self) -> &'static str {
        "lud"
    }

    fn domain(&self) -> &'static str {
        "Linear Algebra"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "-s 2000",
            ProblemSize::Medium => "-s 4000",
            ProblemSize::Large => "-s 8000",
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
        let dim = p.dim;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "rodinia/lud/lud_omp.cpp", 0x43_0000);
        let cp_region = sf.line(52, "lud_omp");
        let cp_diag = sf.line(70, "lud_diagonal");
        let cp_perim = sf.line(95, "lud_perimeter");
        let cp_internal = sf.line(130, "lud_internal");

        // A diagonally dominant matrix so the factorization is stable.
        let m = rt.host_alloc("m", dim * dim * 8);
        rt.host_fill_f64(m, |i| {
            let (r, c) = (i / dim, i % dim);
            if r == c {
                dim as f64 * 2.0
            } else {
                ((r * 31 + c * 17) % 19) as f64 * 0.05
            }
        });

        let region = rt.target_data_begin(0, cp_region, &[map(MapType::ToFrom, m)]);

        let steps = dim / p.block;
        let block = p.block;
        for step in 0..steps {
            let offset = step * block;
            // Diagonal-block factorization.
            let mut diag = |view: &mut DeviceView<'_>| {
                let mut a = view.read_f64(m);
                for i in offset..offset + block {
                    for j in (i + 1)..(offset + block) {
                        let f = a[j * dim + i] / a[i * dim + i];
                        a[j * dim + i] = f;
                        for k in (i + 1)..(offset + block) {
                            a[j * dim + k] -= f * a[i * dim + k];
                        }
                    }
                }
                view.write_f64(m, &a);
            };
            rt.target(
                0,
                cp_diag,
                &[map(MapType::To, m)],
                Kernel::new(
                    "lud_diagonal",
                    KernelCost::scaled((block * block * block) as u64),
                )
                .reads(&[m])
                .writes(&[m])
                .body(&mut diag),
            );
            if step + 1 < steps {
                // Perimeter + internal updates for the trailing matrix.
                let mut trailing = |view: &mut DeviceView<'_>| {
                    let mut a = view.read_f64(m);
                    for i in offset..offset + block {
                        let pivot = a[i * dim + i];
                        for r in (offset + block)..dim {
                            let f = a[r * dim + i] / pivot;
                            a[r * dim + i] = f;
                            for c in (i + 1)..dim {
                                a[r * dim + c] -= f * a[i * dim + c];
                            }
                        }
                    }
                    view.write_f64(m, &a);
                };
                let work = (dim - offset) * (dim - offset) * block;
                rt.target(
                    0,
                    cp_perim,
                    &[map(MapType::To, m)],
                    Kernel::new("lud_perimeter", KernelCost::scaled(work as u64))
                        .reads(&[m])
                        .writes(&[m])
                        .body(&mut trailing),
                );
                rt.target(
                    0,
                    cp_internal,
                    &[map(MapType::To, m)],
                    Kernel::new("lud_internal", KernelCost::scaled(work as u64))
                        .reads(&[m])
                        .writes(&[m]),
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
