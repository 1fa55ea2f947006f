//! nw — Rodinia's Needleman-Wunsch sequence alignment (bioinformatics,
//! dynamic programming over anti-diagonals).
//!
//! The shipped mapping is clean (Table 1: all zeros); the synthetic
//! variant injects DD 8, RA 4, UA 1, UT 3 (Medium).

use crate::inject::InjectionPlan;
use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The nw workload.
pub(crate) struct Nw;

fn dim(size: ProblemSize) -> usize {
    match size {
        ProblemSize::Small => 64,
        ProblemSize::Medium => 128,
        ProblemSize::Large => 256,
    }
}

fn syn_plan(size: ProblemSize) -> InjectionPlan {
    InjectionPlan {
        dd: 8,
        rt: 0,
        ra: 4,
        ua: 1,
        ut: 3,
    }
    .at_size(size, 2)
}

impl Workload for Nw {
    fn name(&self) -> &'static str {
        "nw"
    }

    fn domain(&self) -> &'static str {
        "Bioinformatics"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "512 10 2",
            ProblemSize::Medium => "2048 10 2",
            ProblemSize::Large => "8192 10 2",
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
        let n = dim(size);
        let penalty = 10i32;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "rodinia/nw/needle.cpp", 0x44_0000);
        let cp_region = sf.line(112, "runTest");
        let cp_kernel1 = sf.line(130, "runTest");
        let cp_kernel2 = sf.line(155, "runTest");

        let input = rt.host_alloc("input_itemsets", n * n * 4);
        rt.host_fill_u32(input, |i| {
            let (r, c) = (i / n, i % n);
            if r == 0 {
                (c as i32 * -penalty) as u32
            } else if c == 0 {
                (r as i32 * -penalty) as u32
            } else {
                0
            }
        });
        let reference = rt.host_alloc("reference", n * n * 4);
        rt.host_fill_u32(reference, |i| ((i * 2654435761) % 21) as u32);

        let region = rt.target_data_begin(
            0,
            cp_region,
            &[map(MapType::ToFrom, input), map(MapType::To, reference)],
        );

        // Forward pass over anti-diagonals (upper-left triangle), then
        // the lower-right triangle — the two kernels of Rodinia's nw.
        let mut forward = |view: &mut DeviceView<'_>| {
            let refm = view.read_u32(reference);
            let mut f: Vec<i32> = view.read_u32(input).iter().map(|&x| x as i32).collect();
            for d in 1..n {
                for r in 1..=d {
                    let c = d - r + 1;
                    if c >= n || r >= n {
                        continue;
                    }
                    let ix = r * n + c;
                    let m = (f[ix - n - 1] + refm[ix] as i32)
                        .max(f[ix - 1] - penalty)
                        .max(f[ix - n] - penalty);
                    f[ix] = m;
                }
            }
            let out: Vec<u32> = f.iter().map(|&x| x as u32).collect();
            view.write_u32(input, &out);
        };
        rt.target(
            0,
            cp_kernel1,
            &[map(MapType::To, input), map(MapType::To, reference)],
            Kernel::new("nw_forward", KernelCost::scaled((n * n) as u64))
                .reads(&[input, reference])
                .writes(&[input])
                .body(&mut forward),
        );

        let mut backward = |view: &mut DeviceView<'_>| {
            let refm = view.read_u32(reference);
            let mut f: Vec<i32> = view.read_u32(input).iter().map(|&x| x as i32).collect();
            for d in (1..n - 1).rev() {
                for r in (n - d)..n {
                    let c = n - 1 - (r - (n - d));
                    if r == 0 || c == 0 || c >= n {
                        continue;
                    }
                    let ix = r * n + c;
                    let m = (f[ix - n - 1] + refm[ix] as i32)
                        .max(f[ix - 1] - penalty)
                        .max(f[ix - n] - penalty);
                    f[ix] = m;
                }
            }
            let out: Vec<u32> = f.iter().map(|&x| x as u32).collect();
            view.write_u32(input, &out);
        };
        rt.target(
            0,
            cp_kernel2,
            &[map(MapType::To, input), map(MapType::To, reference)],
            Kernel::new("nw_backward", KernelCost::scaled((n * n) as u64))
                .reads(&[input, reference])
                .writes(&[input])
                .body(&mut backward),
        );

        rt.target_data_end(region);

        if matches!(variant, Variant::Synthetic | Variant::SynFixed) {
            syn_plan(size).apply(rt, &mut sf, 0, variant == Variant::SynFixed);
        }
        dbg
    }
}
