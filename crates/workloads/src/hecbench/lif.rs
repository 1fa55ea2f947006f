//! lif-omp — HeCBench leaky-integrate-and-fire neuron model
//! (simulation).
//!
//! Table 2: OMPDataPerf reports **nothing** (the mapping is already
//! efficient); Arbalest-Vec reports **UUM** — a false positive on
//! `spikes[0]`, which is only written inside the kernel, through a
//! conditional (masked) store when the membrane potential crosses the
//! threshold. Table 3: 10.802 s, no applicable fix from either tool.

use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The lif-omp workload.
pub(crate) struct Lif;

struct Params {
    neurons: usize,
    steps: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params {
            neurons: 1024,
            steps: 20,
        },
        ProblemSize::Medium => Params {
            neurons: 4096,
            steps: 50,
        },
        ProblemSize::Large => Params {
            neurons: 16384,
            steps: 100,
        },
    }
}

impl Workload for Lif {
    fn name(&self) -> &'static str {
        "lif-omp"
    }

    fn domain(&self) -> &'static str {
        "Simulation"
    }

    fn paper_input(&self, _size: ProblemSize) -> &'static str {
        "(Makefile default)"
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, _variant: Variant) -> DebugInfo {
        let p = params(size);
        let n = p.neurons;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "hecbench/lif-omp/main.cpp", 0x53_0000);
        let cp_region = sf.line(44, "main");
        let cp_kernel = sf.line(66, "lif_kernel");

        let potential = rt.host_alloc("v_membrane", n * 4);
        rt.host_fill_f32(potential, |i| -65.0 + (i % 11) as f32 * 0.4);
        let current = rt.host_alloc("i_input", n * 4);
        rt.host_fill_f32(current, |i| 1.2 + ((i * 13) % 17) as f32 * 0.05);
        // Spike raster: written only when a neuron fires → masked store.
        let spikes = rt.host_alloc("spikes", n);

        let region = rt.target_data_begin(
            0,
            cp_region,
            &[
                map(MapType::ToFrom, potential),
                map(MapType::To, current),
                map(MapType::From, spikes),
            ],
        );

        let kcost = KernelCost::scaled((n * 4) as u64);
        for step in 0..p.steps {
            let dt = 0.1f32;
            let noise = (step as f32 * 0.37).sin() * 0.01;
            let mut lif = |view: &mut DeviceView<'_>| {
                let mut v = view.read_f32(potential);
                let i_in = view.read_f32(current);
                let mut s = view.bytes(spikes).to_vec();
                for k in 0..n {
                    // dv/dt = (-(v - v_rest) + R·I) / tau
                    v[k] += dt * (-(v[k] + 65.0) + 10.0 * i_in[k]) / 10.0 + noise;
                    if v[k] > -50.0 {
                        v[k] = -65.0;
                        s[k] = s[k].saturating_add(1); // conditional store
                    }
                }
                view.write_f32(potential, &v);
                view.bytes_mut(spikes).copy_from_slice(&s);
            };
            rt.target(
                0,
                cp_kernel,
                &[
                    map(MapType::To, potential),
                    map(MapType::To, current),
                    map(MapType::To, spikes),
                ],
                Kernel::new("lif_kernel", kcost)
                    .reads(&[potential, current])
                    .writes(&[potential])
                    .masked_writes(&[spikes])
                    .body(&mut lif),
            );
        }

        rt.target_data_end(region);
        rt.host_load(spikes);
        dbg
    }
}
