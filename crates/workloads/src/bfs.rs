//! bfs — Rodinia's breadth-first search (graph algorithms).
//!
//! §7.5: "The bfs program from the Rodinia suite exhibits 3 issue types
//! as a result of reallocating \[and\] transferring back and forth a
//! boolean to indicate when to stop launching kernels. We eliminated
//! these issues by moving the loop check into the OpenMP target region,
//! which resulted in 2.1× speedup for the small problem size."
//!
//! Original structure per frontier level: the 4-byte `h_over` flag is
//! zeroed on the host, mapped `tofrom` around the second kernel
//! (alloc + H2D(0) + kernel + D2H + delete), and checked on the host.
//! With `k` levels this yields Table 1's counts (Medium, `k = 10`):
//! DD = (k-1) + (k-2) + 1 = 18 (flag zeros to the device, flag ones back
//! to the host, plus the identical `h_graph_mask`/`h_graph_visited`
//! initial images), RT = k = 10 (every H2D(0) pairs with the final
//! D2H(0) under Algorithm 2), RA = k-1 = 9.

use crate::{ProblemSize, Variant, Workload};
use odp_model::MapType;
use odp_sim::{map, DeviceView, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::{DebugInfo, SourceFile};

/// The bfs workload.
pub(crate) struct Bfs;

struct Params {
    nodes: usize,
    levels: usize,
}

fn params(size: ProblemSize) -> Params {
    match size {
        ProblemSize::Small => Params {
            nodes: 1024,
            levels: 6,
        },
        ProblemSize::Medium => Params {
            nodes: 8192,
            levels: 10,
        },
        ProblemSize::Large => Params {
            nodes: 16384,
            levels: 12,
        },
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }

    fn domain(&self) -> &'static str {
        "Graph Algorithms"
    }

    fn paper_input(&self, size: ProblemSize) -> &'static str {
        match size {
            ProblemSize::Small => "graph4096.txt",
            ProblemSize::Medium => "graph65536.txt",
            ProblemSize::Large => "graph1MW_6.txt",
        }
    }

    fn supports(&self, variant: Variant) -> bool {
        matches!(variant, Variant::Original | Variant::Fixed)
    }

    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        Some((Variant::Original, Variant::Fixed))
    }

    /// bfs's per-iteration remapping storm is the flagship anti-pattern;
    /// running it from several host threads at once is the densest
    /// concurrency stress the collector sees.
    fn supports_threads(&self) -> bool {
        true
    }

    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let p = params(size);
        let n = p.nodes;
        let k = p.levels;
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "rodinia/bfs/bfs.cpp", 0x41_0000);
        let cp_region = sf.line(94, "BFSGraph");
        let cp_kernel1 = sf.line(121, "BFSGraph");
        let cp_kernel2 = sf.line(140, "BFSGraph");

        // Graph: a chain 0→1→…→(k-1) embedded in n nodes (the frontier
        // advances one level per iteration and dies after exactly k).
        let edges = rt.host_alloc("h_graph_edges", n * 4);
        rt.host_fill_u32(edges, |i| if i + 1 < k { (i + 1) as u32 } else { u32::MAX });
        // mask/visited start with only the source marked — identical
        // images, which is bfs's one inherent duplicate transfer.
        let mask = rt.host_alloc("h_graph_mask", n);
        rt.host_bytes_mut(mask)[0] = 1;
        let visited = rt.host_alloc("h_graph_visited", n);
        rt.host_bytes_mut(visited)[0] = 1;
        let updating = rt.host_alloc("h_updating_graph_mask", n);
        let cost = rt.host_alloc("h_cost", n * 4);
        rt.host_fill_u32(cost, |i| if i == 0 { 0 } else { u32::MAX });
        let over = rt.host_alloc("h_over", 4);

        let region = rt.target_data_begin(
            0,
            cp_region,
            &[
                map(MapType::To, edges),
                map(MapType::To, mask),
                map(MapType::To, visited),
                map(MapType::To, updating),
                map(MapType::ToFrom, cost),
            ],
        );

        let kcost = KernelCost::scaled(n as u64);
        for _level in 0..k {
            // Kernel 1: expand the frontier into `updating`.
            let mut expand = |view: &mut DeviceView<'_>| {
                let maskv = view.bytes(mask).to_vec();
                let edgev = view.read_u32(edges);
                let mut costv = view.read_u32(cost);
                let mut updatingv = view.bytes(updating).to_vec();
                for i in 0..n {
                    if maskv[i] == 1 {
                        let next = edgev[i];
                        if next != u32::MAX {
                            let next = next as usize;
                            costv[next] = costv[i].wrapping_add(1);
                            updatingv[next] = 1;
                        }
                    }
                }
                view.write_u32(cost, &costv);
                view.bytes_mut(updating).copy_from_slice(&updatingv);
                // The frontier has been consumed.
                view.bytes_mut(mask).fill(0);
            };
            rt.target(
                0,
                cp_kernel1,
                &[
                    map(MapType::To, edges),
                    map(MapType::To, mask),
                    map(MapType::To, updating),
                    map(MapType::To, cost),
                ],
                Kernel::new("bfs_kernel1", kcost)
                    .reads(&[edges, mask, cost])
                    .writes(&[cost, updating, mask])
                    .body(&mut expand),
            );

            if variant == Variant::Original {
                // The inefficiency: h_over bounced around every level.
                rt.host_store(over, 0, &0u32.to_le_bytes());
                let mut promote = make_promote(n, mask, visited, updating, over);
                rt.target(
                    0,
                    cp_kernel2,
                    &[
                        map(MapType::To, mask),
                        map(MapType::To, visited),
                        map(MapType::To, updating),
                        map(MapType::ToFrom, over),
                    ],
                    Kernel::new("bfs_kernel2", kcost)
                        .reads(&[updating])
                        .writes(&[mask, visited, updating, over])
                        .body(&mut promote),
                );
                rt.host_load(over); // while(h_over)
            } else {
                // Fixed: the stop flag lives on the device; no per-level
                // transfer or reallocation.
                let mut promote = make_promote_device_flag(n, mask, visited, updating);
                rt.target(
                    0,
                    cp_kernel2,
                    &[
                        map(MapType::To, mask),
                        map(MapType::To, visited),
                        map(MapType::To, updating),
                    ],
                    Kernel::new("bfs_kernel2_fused", kcost)
                        .reads(&[updating])
                        .writes(&[mask, visited, updating])
                        .body(&mut promote),
                );
            }
        }

        rt.target_data_end(region);
        dbg
    }
}

type PromoteBody<'a> = Box<dyn FnMut(&mut DeviceView<'_>) + 'a>;

fn make_promote(
    n: usize,
    mask: odp_sim::VarId,
    visited: odp_sim::VarId,
    updating: odp_sim::VarId,
    over: odp_sim::VarId,
) -> PromoteBody<'static> {
    Box::new(move |view: &mut DeviceView<'_>| {
        let mut any = 0u32;
        let updatingv = view.bytes(updating).to_vec();
        let mut maskv = view.bytes(mask).to_vec();
        let mut visitedv = view.bytes(visited).to_vec();
        for i in 0..n {
            if updatingv[i] == 1 {
                maskv[i] = 1;
                visitedv[i] = 1;
                any = 1;
            }
        }
        view.bytes_mut(mask).copy_from_slice(&maskv);
        view.bytes_mut(visited).copy_from_slice(&visitedv);
        view.bytes_mut(updating).fill(0);
        view.set_scalar_u32(over, 0, any);
    })
}

fn make_promote_device_flag(
    n: usize,
    mask: odp_sim::VarId,
    visited: odp_sim::VarId,
    updating: odp_sim::VarId,
) -> PromoteBody<'static> {
    Box::new(move |view: &mut DeviceView<'_>| {
        let updatingv = view.bytes(updating).to_vec();
        let mut maskv = view.bytes(mask).to_vec();
        let mut visitedv = view.bytes(visited).to_vec();
        for i in 0..n {
            if updatingv[i] == 1 {
                maskv[i] = 1;
                visitedv[i] = 1;
            }
        }
        view.bytes_mut(mask).copy_from_slice(&maskv);
        view.bytes_mut(visited).copy_from_slice(&visitedv);
        view.bytes_mut(updating).fill(0);
    })
}
