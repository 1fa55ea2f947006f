//! accuracy-omp — HeCBench top-1 accuracy kernel (machine learning).
//!
//! Table 2: OMPDataPerf reports **DD, UA, UT**; Arbalest-Vec reports
//! nothing (every device buffer is transfer-initialized, every store is
//! plain). Table 3: 11.644 s → 11.640 s (the issues are real but cheap —
//! ≈0.03 %).

use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The accuracy-omp workload.
pub(crate) struct Accuracy;

struct Params {
    rows: usize,
    classes: usize,
    batches: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params {
            rows: 512,
            classes: 64,
            batches: 4,
        },
        ProblemSize::Medium => Params {
            rows: 2048,
            classes: 128,
            batches: 10,
        },
        ProblemSize::Large => Params {
            rows: 8192,
            classes: 256,
            batches: 20,
        },
    }
}

impl Workload for Accuracy {
    fn name(&self) -> &'static str {
        "accuracy-omp"
    }

    fn domain(&self) -> &'static str {
        "Machine Learning"
    }

    fn paper_input(&self, _size: ProblemSize) -> &'static str {
        "8192 10000 10 100"
    }

    fn supports(&self, variant: Variant) -> bool {
        matches!(variant, Variant::Original | Variant::Fixed)
    }

    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        Some((Variant::Original, Variant::Fixed))
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let p = params(size);
        let n = p.rows * p.classes;
        let fixed = variant == Variant::Fixed;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "hecbench/accuracy-omp/main.cpp", 0x52_0000);
        let cp_region = sf.line(60, "main");
        let cp_label = sf.line(72, "main");
        let cp_kernel = sf.line(90, "accuracy_kernel");
        let cp_scratch = sf.line(105, "main");

        let logits = rt.host_alloc("logits", n * 4);
        rt.host_fill_f32(logits, |i| ((i * 31 % 977) as f32) * 0.013);
        let labels = rt.host_alloc("labels", p.rows * 4);
        rt.host_fill_u32(labels, |i| ((i * 7) % p.classes) as u32);
        let correct = rt.host_alloc("count", 4);

        let region = rt.target_data_begin(
            0,
            cp_region,
            &[
                map(MapType::To, logits),
                map(MapType::To, labels),
                map(MapType::ToFrom, correct),
            ],
        );

        let rows = p.rows;
        let classes = p.classes;
        // Kernel cost at paper scale (8192×10000 logits per batch): the
        // few small redundant transfers all but vanish against it —
        // Table 3's 11.644→11.640 s (≈0.03 %).
        let kcost = KernelCost::scaled(8192 * 10_000);
        for batch in 0..p.batches {
            if !fixed && batch % 2 == 1 {
                // Defensive re-send of the unchanged label array → DD.
                rt.target_update_to(0, cp_label, &[labels]);
            }
            let mut count_correct = |view: &mut DeviceView<'_>| {
                let lg = view.read_f32(logits);
                let lb = view.read_u32(labels);
                let mut c = view.scalar_u32(correct, 0);
                for r in 0..rows {
                    let mut best = 0usize;
                    for k in 1..classes {
                        if lg[r * classes + k] > lg[r * classes + best] {
                            best = k;
                        }
                    }
                    if best as u32 == lb[r] {
                        c = c.wrapping_add(1);
                    }
                }
                view.set_scalar_u32(correct, 0, c.wrapping_add(batch as u32));
            };
            rt.target(
                0,
                cp_kernel,
                &[
                    map(MapType::To, logits),
                    map(MapType::To, labels),
                    map(MapType::To, correct),
                ],
                Kernel::new("accuracy_kernel", kcost)
                    .reads(&[logits, labels, correct])
                    .writes(&[correct])
                    .body(&mut count_correct),
            );
        }

        if !fixed {
            // A scratch histogram allocated and freed after the last
            // kernel — unused allocation — and a final defensive re-send
            // of the logits after the last kernel — unused transfer.
            let scratch = rt.host_alloc("histo_scratch", 2048);
            rt.target_enter_data(0, cp_scratch, &[map(MapType::Alloc, scratch)]);
            rt.target_exit_data(0, cp_scratch, &[map(MapType::Delete, scratch)]);
            rt.target_update_to(0, cp_scratch, &[logits]);
        }

        rt.target_data_end(region);
        rt.host_load(correct);
        dbg
    }
}
