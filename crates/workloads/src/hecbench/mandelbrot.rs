//! mandelbrot-omp — HeCBench Mandelbrot-set kernel.
//!
//! Table 2: OMPDataPerf reports **DD, RA, UA**; Arbalest-Vec reports
//! **UUM** — a false positive on `b[0]`, which is "write-only inside the
//! kernel" but stored through vector-masked iteration-count writes.
//! Table 3: 3.974 s → 3.950 s after fixing (≈0.6 %).

use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The mandelbrot-omp workload.
pub(crate) struct Mandelbrot;

struct Params {
    dim: usize,
    tiles: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params { dim: 64, tiles: 8 },
        ProblemSize::Medium => Params {
            dim: 128,
            tiles: 16,
        },
        ProblemSize::Large => Params {
            dim: 256,
            tiles: 32,
        },
    }
}

impl Workload for Mandelbrot {
    fn name(&self) -> &'static str {
        "mandelbrot-omp"
    }

    fn domain(&self) -> &'static str {
        "Computer Vision"
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
        let n = p.dim * p.dim;
        let fixed = variant == Variant::Fixed;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "hecbench/mandelbrot-omp/main.cpp", 0x51_0000);
        let cp_scratch = sf.line(40, "main");
        let cp_region = sf.line(55, "main");
        let cp_kernel = sf.line(78, "mandelbrot_kernel");

        // The constant view-parameters block, re-mapped per tile (DD+RA).
        let params_blk = rt.host_alloc("view_params", 64);
        rt.host_fill_u32(params_blk, |i| 0xC0FFEE ^ (i as u32 * 7));
        // Iteration-count output, written with masked stores (UUM FP).
        let b = rt.host_alloc("b", n * 4);
        // A scratch color table allocated early and freed before any
        // kernel runs — the unused allocation.
        if !fixed {
            let scratch = rt.host_alloc("color_scratch", 4096);
            rt.target_enter_data(0, cp_scratch, &[map(MapType::Alloc, scratch)]);
            rt.target_exit_data(0, cp_scratch, &[map(MapType::Delete, scratch)]);
        }

        let outer = rt.target_data_begin(0, cp_region, &[map(MapType::Alloc, b)]);
        let outer_params = if fixed {
            Some(rt.target_data_begin(0, cp_region, &[map(MapType::To, params_blk)]))
        } else {
            None
        };

        let dim = p.dim;
        let tiles = p.tiles;
        let rows_per_tile = dim / tiles.min(dim);
        // Kernel cost at paper scale (4096² pixels, ~256 average escape
        // iterations, split across the tiles): the tiny per-tile
        // constants remap is then ≈0.6 % of the work — Table 3's
        // 3.974→3.950 s.
        let kcost = KernelCost::scaled(4096u64 * 4096 * 256 / tiles as u64);
        let _ = n;
        for tile in 0..tiles {
            let region = if fixed {
                None
            } else {
                Some(rt.target_data_begin(0, cp_region, &[map(MapType::To, params_blk)]))
            };

            let row0 = tile * rows_per_tile;
            let mut kernel = |view: &mut DeviceView<'_>| {
                let mut out = view.read_u32(b);
                for r in row0..(row0 + rows_per_tile).min(dim) {
                    for c in 0..dim {
                        let x0 = -2.0 + 3.0 * c as f64 / dim as f64;
                        let y0 = -1.5 + 3.0 * r as f64 / dim as f64;
                        let (mut x, mut y) = (0.0f64, 0.0f64);
                        let mut it = 0u32;
                        while x * x + y * y <= 4.0 && it < 64 {
                            let xt = x * x - y * y + x0;
                            y = 2.0 * x * y + y0;
                            x = xt;
                            it += 1;
                        }
                        out[r * dim + c] = it;
                    }
                }
                view.write_u32(b, &out);
            };
            rt.target(
                0,
                cp_kernel,
                &[map(MapType::To, params_blk), map(MapType::To, b)],
                Kernel::new("mandelbrot_kernel", kcost)
                    .reads(&[params_blk])
                    .masked_writes(&[b])
                    .body(&mut kernel),
            );

            if let Some(r) = region {
                rt.target_data_end(r);
            }
        }

        rt.target_update_from(0, cp_kernel, &[b]);
        rt.host_load(b);
        if let Some(r) = outer_params {
            rt.target_data_end(r);
        }
        rt.target_data_end(outer);
        dbg
    }
}
