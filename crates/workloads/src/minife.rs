//! minife — Mantevo's finite-element proxy (conjugate-gradient solve).
//!
//! §7.5: "The issues detected in minife were fixable by extending the
//! lifetime of intermediate variables used on the target device and
//! result in a speedup of 1.07× for the large problem size."
//!
//! Original structure: the CG temporaries `p` and `Ap` are zeroed on the
//! host and re-mapped around *every* iteration (the short-lifetime
//! mapping the paper fixes). With `iters` iterations this yields, at
//! Medium (`iters = 200`):
//!
//! * RA = 2·(iters−1) = 398 (each temporary reallocated per iteration);
//! * DD = 402: the zero images of `x`, `x_old` and the 400 per-iteration
//!   zero images of `p`/`Ap` form one 402-reception group (401), plus
//!   `r`'s initial image duplicating `b`'s (r = b at CG start);
//! * RT = 4: every 50 iterations a defensive `update from(r)` /
//!   `update to(r)` convergence-check pair bounces unchanged bytes.
//!
//! Fixed: `p` mapped `to:` once, `Ap` mapped `alloc:` once, no update
//! pairs → DD = 3 (x/x_old/p zero group + b/r), RT = RA = 0 — exactly
//! Table 1's minife (fix) row.

use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The minife workload.
pub(crate) struct MiniFe;

struct Params {
    n: usize,
    iters: usize,
    /// Degrees of freedom of the *paper's* problem (nx·ny·nz from
    /// Table 5). Kernel costs are modeled at paper scale so the
    /// compute/communication ratio — and hence the speedup from fixing
    /// the mapping (1.07× at Large, §7.5) — matches the real program,
    /// even though the in-memory arrays are scaled down.
    paper_n: u64,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params {
            n: 2048,
            iters: 100,
            paper_n: 66 * 64 * 64,
        },
        ProblemSize::Medium => Params {
            n: 4096,
            iters: 200,
            paper_n: 132 * 128 * 128,
        },
        ProblemSize::Large => Params {
            n: 8192,
            iters: 400,
            paper_n: 264 * 256 * 256,
        },
    }
}

impl Workload for MiniFe {
    fn name(&self) -> &'static str {
        "minife"
    }

    fn domain(&self) -> &'static str {
        "Finite Element Analysis"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "-nx 66 -ny 64 -nz 64",
            ProblemSize::Medium => "-nx 132 -ny 128 -nz 128",
            ProblemSize::Large => "-nx 264 -ny 256 -nz 256",
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
        let n = p.n;
        let bytes = n * 8;
        let fixed = variant == Variant::Fixed;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "minife/cg_solve.hpp", 0x45_0000);
        let cp_region = sf.line(88, "cg_solve");
        let cp_temp = sf.line(104, "cg_solve");
        let cp_initp = sf.line(112, "cg_solve");
        let cp_matvec = sf.line(120, "matvec");
        let cp_axpy = sf.line(131, "axpy");
        let cp_check = sf.line(142, "cg_solve");

        let b = rt.host_alloc("b", bytes);
        rt.host_fill_f64(b, |i| 1.0 + ((i * 37) % 101) as f64 * 0.01);
        let r = rt.host_alloc("r", bytes);
        let b_copy = rt.host_read_f64(b);
        {
            let dst = rt.host_bytes_mut(r);
            for (chunk, v) in dst.chunks_exact_mut(8).zip(&b_copy) {
                chunk.copy_from_slice(&v.to_le_bytes());
            }
        }
        let x = rt.host_alloc("x", bytes);
        let x_old = rt.host_alloc("x_old", bytes);
        let pv = rt.host_alloc("p", bytes);
        let ap = rt.host_alloc("Ap", bytes);

        // Long-lived solver state.
        let mut maps = vec![
            map(MapType::To, b),
            map(MapType::To, r),
            map(MapType::To, x),
            map(MapType::To, x_old),
        ];
        if fixed {
            // The fix: temporaries live as long as the solve.
            maps.push(map(MapType::To, pv)); // one more zero image
            maps.push(map(MapType::Alloc, ap)); // no transfer at all
        }
        let region = rt.target_data_begin(0, cp_region, &maps);

        let kcost = KernelCost::scaled(p.paper_n);
        for iter in 0..p.iters {
            if !fixed {
                // The inefficiency: zeroed temporaries remapped per
                // iteration.
                rt.host_bytes_mut(pv).fill(0);
                rt.host_bytes_mut(ap).fill(0);
                rt.target_enter_data(0, cp_temp, &[map(MapType::To, pv), map(MapType::To, ap)]);
            }
            if !fixed && iter % 50 == 49 {
                // Defensive convergence check: copy the residual out and
                // push the identical bytes straight back.
                rt.target_update_from(0, cp_check, &[r]);
                rt.host_load(r);
                rt.target_update_to(0, cp_check, &[r]);
            }

            // p = r  (steepest-descent-style restart keeps the math
            // simple while the arrays still evolve every iteration).
            let mut init_p = |view: &mut DeviceView<'_>| {
                let rv = view.read_f64(r);
                view.write_f64(pv, &rv);
            };
            rt.target(
                0,
                cp_initp,
                &[map(MapType::To, r), map(MapType::To, pv)],
                Kernel::new("init_p", kcost)
                    .reads(&[r])
                    .writes(&[pv])
                    .body(&mut init_p),
            );

            // Ap = A·p for the 1-D Laplacian stencil.
            let mut matvec = |view: &mut DeviceView<'_>| {
                let pvv = view.read_f64(pv);
                let mut out = vec![0.0f64; n];
                for i in 0..n {
                    let left = if i > 0 { pvv[i - 1] } else { 0.0 };
                    let right = if i + 1 < n { pvv[i + 1] } else { 0.0 };
                    out[i] = 2.0 * pvv[i] - left - right;
                }
                view.write_f64(ap, &out);
            };
            rt.target(
                0,
                cp_matvec,
                &[map(MapType::To, pv), map(MapType::To, ap)],
                Kernel::new("matvec", kcost)
                    .reads(&[pv])
                    .writes(&[ap])
                    .body(&mut matvec),
            );

            // x += α p;  r -= α Ap.
            let alpha = 0.01;
            let mut axpy = |view: &mut DeviceView<'_>| {
                let pvv = view.read_f64(pv);
                let apv = view.read_f64(ap);
                let mut xv = view.read_f64(x);
                let mut rv = view.read_f64(r);
                for i in 0..n {
                    xv[i] += alpha * pvv[i];
                    rv[i] -= alpha * apv[i];
                }
                view.write_f64(x, &xv);
                view.write_f64(r, &rv);
            };
            rt.target(
                0,
                cp_axpy,
                &[
                    map(MapType::To, pv),
                    map(MapType::To, ap),
                    map(MapType::To, x),
                    map(MapType::To, r),
                ],
                Kernel::new("axpy", kcost)
                    .reads(&[pv, ap, x, r])
                    .writes(&[x, r])
                    .body(&mut axpy),
            );

            if !fixed {
                rt.target_exit_data(
                    0,
                    cp_temp,
                    &[map(MapType::Delete, pv), map(MapType::Delete, ap)],
                );
            }
        }

        // Bring the solution home.
        rt.target_update_from(0, cp_check, &[x]);
        rt.host_load(x);
        rt.target_data_end(region);
        dbg
    }
}
