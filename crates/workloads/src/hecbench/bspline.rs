//! bspline-vgh-omp — HeCBench B-spline value/gradient/hessian evaluation
//! (quantum Monte Carlo walkers; the paper's §7.7 motivating example,
//! Listing 3).
//!
//! Table 2: OMPDataPerf reports **DD, UA, UT**; Arbalest-Vec reports
//! **UUM** on `walkers_vals[0]`, `walkers_grads[0]`, `walkers_hess[0]` —
//! all three "write-only inside the kernel" (masked vector stores), i.e.
//! false positives. Table 3: 6.736 s → 5.899 s after the OMPDataPerf fix
//! (≈14 % speedup, "99 % reduction in the number of calls to copy data
//! to the device", ≈169 KB extra device memory).
//!
//! Original (Listing 3 "before"): nine small coefficient arrays are
//! mapped `alloc:` over the walker loop and refreshed with `target
//! update to` every iteration; three of them (`a`, `b`, `c`) carry
//! identical bytes every time → duplicates. Fixed (Listing 3 "after"):
//! the arrays are enlarged `4 → 4·WSIZE` entries, initialized up front,
//! and copied once.

use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime, VarId};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The bspline-vgh-omp workload.
pub(crate) struct BsplineVgh;

struct Params {
    wsize: usize,
    nknots: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params {
            wsize: 150,
            nknots: 256,
        },
        // 9 arrays × 4 doubles × 600 walkers ≈ 169 KB of extra device
        // memory in the fixed version, matching §7.7.
        ProblemSize::Medium => Params {
            wsize: 600,
            nknots: 512,
        },
        ProblemSize::Large => Params {
            wsize: 1200,
            nknots: 1024,
        },
    }
}

const COEF_NAMES: [&str; 9] = ["a", "b", "c", "da", "db", "dc", "d2a", "d2b", "d2c"];

impl Workload for BsplineVgh {
    fn name(&self) -> &'static str {
        "bspline-vgh-omp"
    }

    fn domain(&self) -> &'static str {
        "Simulation"
    }

    fn paper_input(&self, _size: ProblemSize) -> &'static str {
        "(Makefile default)"
    }

    fn supports(&self, variant: Variant) -> bool {
        matches!(variant, Variant::Original | Variant::Fixed)
    }

    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        Some((Variant::Original, Variant::Fixed))
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let p = params(size);
        let fixed = variant == Variant::Fixed;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "hecbench/bspline-vgh-omp/main.cpp", 0x54_0000);
        let cp_scratch = sf.line(35, "main");
        let cp_region = sf.line(52, "main");
        let cp_update = sf.line(63, "main");
        let cp_kernel = sf.line(88, "bspline_vgh_kernel");
        let cp_tail = sf.line(131, "main");

        // Walker outputs — written via masked vector stores (AV's FPs).
        let walkers_vals = rt.host_alloc("walkers_vals", p.wsize * 8);
        let walkers_grads = rt.host_alloc("walkers_grads", p.wsize * 8 * 3);
        let walkers_hess = rt.host_alloc("walkers_hess", p.wsize * 8 * 6);
        let knots = rt.host_alloc("spline_knots", p.nknots * 8);
        rt.host_fill_f64(knots, |i| (i as f64 * 0.11).cos());

        // Coefficient arrays: 4 doubles each in the original; 4·WSIZE in
        // the fixed version (the §7.7 "increase the size" fix).
        let coef_len = if fixed { 4 * p.wsize } else { 4 };
        let coefs: Vec<VarId> = COEF_NAMES
            .iter()
            .map(|nm| rt.host_alloc(nm, coef_len * 8))
            .collect();

        if !fixed {
            // An early staging buffer freed before any kernel → UA.
            let staging = rt.host_alloc("walker_staging", 1024);
            rt.target_enter_data(0, cp_scratch, &[map(MapType::Alloc, staging)]);
            rt.target_exit_data(0, cp_scratch, &[map(MapType::Delete, staging)]);
        }

        let mut maps = vec![
            map(MapType::From, walkers_vals),
            map(MapType::From, walkers_grads),
            map(MapType::From, walkers_hess),
            map(MapType::To, knots),
        ];
        if fixed {
            // Initialize every walker's coefficients up front, copy once.
            for (ci, &cv) in coefs.iter().enumerate() {
                rt.host_fill_f64(cv, |i| coef_value(ci, i / 4, i % 4));
                maps.push(map(MapType::To, cv));
            }
        } else {
            for &cv in &coefs {
                maps.push(map(MapType::Alloc, cv));
            }
        }
        let region = rt.target_data_begin(0, cp_region, &maps);

        let wsize = p.wsize;
        // Kernel cost at paper scale (the full spline evaluation per
        // walker): with the 9 per-walker `update to` calls costing
        // ~81 µs against a ~560 µs kernel, the fix lands at Table 3's
        // ≈1.14× — §7.7's "14 % speedup in execution time".
        let kcost = KernelCost::scaled(56_000_000);
        for w in 0..wsize {
            if !fixed {
                // Re-initialize the 4-entry arrays for this walker and
                // update them all to the device (Listing 3 "before").
                // `a`, `b`, `c` are walker-independent → identical bytes
                // every iteration → duplicates.
                for (ci, &cv) in coefs.iter().enumerate() {
                    rt.host_fill_f64(cv, |i| coef_value(ci, w, i));
                    rt.target_update_to(0, cp_update, &[cv]);
                }
            }

            let mut kernel = |view: &mut DeviceView<'_>| {
                let kv = view.read_f64(knots);
                let offset = if fixed { 4 * w } else { 0 };
                let a = view.read_f64(coefs[0]);
                let da = view.read_f64(coefs[3]);
                let d2a = view.read_f64(coefs[6]);
                let mut val = 0.0;
                let mut grad = 0.0;
                let mut hess = 0.0;
                for t in 0..4 {
                    let k = kv[(w * 7 + t * 13) % kv.len()];
                    val += a[offset + t] * k;
                    grad += da[offset + t] * k;
                    hess += d2a[offset + t] * k * k;
                }
                let mut vals = view.read_f64(walkers_vals);
                vals[w] = val;
                view.write_f64(walkers_vals, &vals);
                let mut grads = view.read_f64(walkers_grads);
                for d in 0..3 {
                    grads[w * 3 + d] = grad * (d + 1) as f64;
                }
                view.write_f64(walkers_grads, &grads);
                let mut hs = view.read_f64(walkers_hess);
                for d in 0..6 {
                    hs[w * 6 + d] = hess * (d + 1) as f64 * 0.5;
                }
                view.write_f64(walkers_hess, &hs);
            };
            let mut kmaps = vec![
                map(MapType::To, knots),
                map(MapType::To, walkers_vals),
                map(MapType::To, walkers_grads),
                map(MapType::To, walkers_hess),
            ];
            kmaps.extend(coefs.iter().map(|&c| map(MapType::To, c)));
            rt.target(
                0,
                cp_kernel,
                &kmaps,
                Kernel::new("bspline_vgh", kcost)
                    .reads(&[knots, coefs[0], coefs[3], coefs[6]])
                    .masked_writes(&[walkers_vals, walkers_grads, walkers_hess])
                    .body(&mut kernel),
            );
        }

        if !fixed {
            // A defensive refresh of `a` after the last kernel → UT.
            rt.target_update_to(0, cp_tail, &[coefs[0]]);
        }

        rt.target_data_end(region);
        rt.host_load(walkers_vals);
        dbg
    }
}

/// Deterministic per-walker coefficient initialization ("non-trivial
/// multiplications of non-constant data"). `a`, `b`, `c` (indices 0–2)
/// are walker-independent; the derivative arrays vary per walker.
fn coef_value(coef_ix: usize, walker: usize, entry: usize) -> f64 {
    let base = (coef_ix as f64 + 1.0) * 0.37 + (entry as f64 + 1.0) * 0.011;
    if coef_ix < 3 {
        base * 1.5
    } else {
        base * (1.0 + walker as f64 * 0.013)
    }
}
