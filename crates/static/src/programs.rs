//! The IR programs: declarative descriptions, and the one registry that
//! makes each a runnable workload.
//!
//! Each constructor expresses a program's *data-mapping skeleton* — the
//! map clauses, region structure and loop shape of its canonical
//! OpenMP-offload source — so one description drives the static
//! analyzer, the interpreter (`crate::lower`), and the patch-plan
//! emitter. [`registry`] lists them as [`IrWorkload`]s, which is what
//! `odp static`, `odp run`, `odp arbalest` and `odp trace save` resolve
//! names against (after `odp_workloads::all()`; the names are disjoint).
//!
//! Three model a hand-written workload of `odp-workloads` — not the same
//! model, hence the `ir-` prefix (`odp static` also takes the bare name):
//!
//! - `babelstream`: the run loop re-opens a `target data` region with
//!   `map(to:)` on all three streams every iteration, and the dot
//!   kernel carries a per-iteration `map(from: sum)` — the fully
//!   `Certain`, fully remediable case (§7.5's re-mapping pattern; the
//!   fix is SNIPPETS.md's Mem5 split: hoist the region, split the sum
//!   map into `enter data` + deferred `exit data`).
//! - `bfs`: rodinia-style level loop with a data-dependent trip count
//!   and everything implicitly `tofrom`-mapped per kernel — the
//!   canonical `MayDependOnData` flood, plus one `Certain` cross-variable
//!   duplicate (mask and visited share a byte-identical initial image)
//!   that no directive rewrite can remove.
//! - `xsbench`: a lookup kernel with `map(tofrom:)` on read-only
//!   tables — the round-trip pattern (§7.5), fixed by `tofrom` → `to`.
//!
//! Six are the AMD HPCTrainingExamples memory-pragma ladder (SNIPPETS.md
//! snippet 3), `mem1` … `mem6`: one `daxpy` kernel in a loop under
//! six mapping styles whose transfers and allocations the README spells
//! out — the programs with *known* answers (`tests/mem_ladder.rs`).

use crate::ir::{
    Init, KernelSpec, KernelWrite, MapClause, MappingProgram, Step, TripCount, VarDecl, VarRef,
    WriteContent,
};
use crate::lower::IrWorkload;
use std::collections::BTreeMap;

/// Every IR program as a workload, at Small, Medium and Large. All are
/// single-device, which is what `RunSpec::default()`'s runtime has.
pub fn registry() -> Vec<IrWorkload> {
    let ladder = |name, rung: fn(usize, u32) -> MappingProgram| {
        IrWorkload::new(name, [rung(64, 4), rung(1024, 10), rung(16384, 50)])
    };
    let babelstreams = [
        babelstream(4, 32),
        babelstream(10, 1024),
        babelstream(50, 16384),
    ];
    vec![
        IrWorkload::new("ir-babelstream", babelstreams),
        IrWorkload::new("ir-bfs", [bfs(16, 3), bfs(64, 5), bfs(256, 8)]),
        IrWorkload::new("ir-xsbench", [xsbench(64), xsbench(2048), xsbench(32768)]),
        ladder("mem1", mem1),
        ladder("mem2", mem2),
        ladder("mem3", mem3),
        ladder("mem4", mem4),
        ladder("mem5", mem5),
        ladder("mem6", mem6),
    ]
}

/// The registered program called `name`. `odp static` predates the
/// `ir-` prefix, so it may be left off here: `bfs` is `ir-bfs`.
pub fn by_name(name: &str) -> Option<IrWorkload> {
    use odp_workloads::Workload;
    let named = |w: &IrWorkload| w.name() == name || w.name().strip_prefix("ir-") == Some(name);
    registry().into_iter().find(named)
}

/// Directive sites of `babelstream`.
pub mod babelstream_sites {
    /// The per-iteration `target data` region.
    pub(crate) const REGION: u64 = 0x100;
    /// The copy kernel.
    pub(crate) const COPY: u64 = 0x110;
    /// The mul kernel.
    pub const MUL: u64 = 0x120;
    /// The add kernel.
    pub(crate) const ADD: u64 = 0x130;
    /// The triad kernel.
    pub(crate) const TRIAD: u64 = 0x140;
    /// The dot kernel (carries `map(from: sum)`).
    pub(crate) const DOT: u64 = 0x150;
}

/// BabelStream's mapping skeleton: `runs` iterations, each re-opening a
/// `target data map(to: a, b, c)` region around the five kernels, with
/// the dot kernel's reduction result mapped `from` per iteration.
pub(crate) fn babelstream(runs: u32, elems: usize) -> MappingProgram {
    use babelstream_sites as site;
    let a = VarRef(0);
    let b = VarRef(1);
    let c = VarRef(2);
    let sum = VarRef(3);
    let kernel = |name: &str, reads: &[VarRef], writes: &[VarRef]| KernelSpec {
        name: name.into(),
        reads: reads.to_vec(),
        writes: writes.iter().map(|&v| KernelWrite::unique(v)).collect(),
    };
    MappingProgram {
        name: format!("babelstream(runs={runs}, elems={elems})"),
        num_devices: 1,
        vars: vec![
            VarDecl {
                name: "a".into(),
                bytes: elems * 8,
                init: Init::f64(0.1),
            },
            VarDecl {
                name: "b".into(),
                bytes: elems * 8,
                init: Init::f64(0.2),
            },
            VarDecl {
                name: "c".into(),
                bytes: elems * 8,
                init: Init::f64(0.0),
            },
            VarDecl {
                name: "sum".into(),
                bytes: 8,
                init: Init::f64(0.0),
            },
        ],
        steps: vec![Step::Loop {
            trip: TripCount::Static(runs),
            body: vec![Step::DataRegion {
                site: site::REGION,
                device: 0,
                maps: vec![MapClause::to(a), MapClause::to(b), MapClause::to(c)],
                body: vec![
                    Step::Target {
                        site: site::COPY,
                        device: 0,
                        maps: vec![],
                        kernel: kernel("copy", &[a], &[c]),
                    },
                    Step::Target {
                        site: site::MUL,
                        device: 0,
                        maps: vec![],
                        kernel: kernel("mul", &[c], &[b]),
                    },
                    Step::Target {
                        site: site::ADD,
                        device: 0,
                        maps: vec![],
                        kernel: kernel("add", &[a, b], &[c]),
                    },
                    Step::Target {
                        site: site::TRIAD,
                        device: 0,
                        maps: vec![],
                        kernel: kernel("triad", &[b, c], &[a]),
                    },
                    Step::Target {
                        site: site::DOT,
                        device: 0,
                        maps: vec![MapClause::from(sum)],
                        kernel: kernel("dot", &[a, b], &[sum]),
                    },
                ],
            }],
        }],
        site_labels: BTreeMap::from([
            (site::REGION, "babelstream:run_loop_region".into()),
            (site::COPY, "babelstream:copy".into()),
            (site::MUL, "babelstream:mul".into()),
            (site::ADD, "babelstream:add".into()),
            (site::TRIAD, "babelstream:triad".into()),
            (site::DOT, "babelstream:dot".into()),
        ]),
    }
}

/// Directive sites of `bfs`.
pub mod bfs_sites {
    /// The initialization kernel (first delivery of mask/visited/cost).
    pub(crate) const INIT: u64 = 0x200;
    /// Level kernel 1 (expand frontier).
    pub const K1: u64 = 0x210;
    /// Level kernel 2 (commit frontier, raise `over`).
    pub const K2: u64 = 0x220;
}

/// Rodinia-style BFS: an initialization kernel, then a data-dependent
/// level loop whose two kernels rely entirely on implicit `tofrom`
/// mapping. `levels` is the trip count one concrete input produces.
pub(crate) fn bfs(nodes: u32, levels: u32) -> MappingProgram {
    use bfs_sites as site;
    let graph = VarRef(0);
    let mask = VarRef(1);
    let updating_mask = VarRef(2);
    let visited = VarRef(3);
    let cost = VarRef(4);
    let over = VarRef(5);
    let n = nodes as usize;
    MappingProgram {
        name: format!("bfs(nodes={nodes}, levels={levels})"),
        num_devices: 1,
        vars: vec![
            VarDecl {
                name: "graph".into(),
                bytes: n * 4,
                init: Init::U32Chain { limit: nodes },
            },
            VarDecl {
                name: "mask".into(),
                bytes: n,
                init: Init::MarkFirstByte(1),
            },
            VarDecl {
                name: "updating_mask".into(),
                bytes: n,
                init: Init::Byte(0),
            },
            VarDecl {
                name: "visited".into(),
                bytes: n,
                init: Init::MarkFirstByte(1),
            },
            VarDecl {
                name: "cost".into(),
                bytes: n * 4,
                init: Init::U32FirstRest {
                    first: 0,
                    rest: u32::MAX,
                },
            },
            VarDecl {
                name: "over".into(),
                bytes: 4,
                init: Init::Byte(0),
            },
        ],
        steps: vec![
            // Deliver the initial masks and costs for a device-side
            // sanity pass. mask and visited have byte-identical images:
            // the unremediable cross-variable duplicate.
            Step::Target {
                site: site::INIT,
                device: 0,
                maps: vec![
                    MapClause::to(mask),
                    MapClause::to(visited),
                    MapClause::to(cost),
                ],
                kernel: KernelSpec {
                    name: "bfs_init_check".into(),
                    reads: vec![mask, visited, cost],
                    writes: vec![],
                },
            },
            Step::Loop {
                trip: TripCount::DataDependent { executed: levels },
                body: vec![
                    Step::HostWrite {
                        var: over,
                        content: WriteContent::Byte(0),
                    },
                    Step::Target {
                        site: site::K1,
                        device: 0,
                        maps: vec![],
                        kernel: KernelSpec {
                            name: "bfs_kernel_1".into(),
                            reads: vec![graph, mask, cost],
                            writes: vec![
                                KernelWrite::unique(updating_mask),
                                KernelWrite::unique(cost),
                                KernelWrite::byte(mask, 0),
                            ],
                        },
                    },
                    Step::Target {
                        site: site::K2,
                        device: 0,
                        maps: vec![],
                        kernel: KernelSpec {
                            name: "bfs_kernel_2".into(),
                            reads: vec![updating_mask],
                            writes: vec![
                                KernelWrite::unique(mask),
                                KernelWrite::unique(visited),
                                KernelWrite {
                                    var: over,
                                    content: WriteContent::U32(1),
                                    fires: crate::ir::Fires::OnAllButLastIteration,
                                },
                                KernelWrite::byte(updating_mask, 0),
                            ],
                        },
                    },
                ],
            },
        ],
        site_labels: BTreeMap::from([
            (site::INIT, "bfs:init_check".into()),
            (site::K1, "bfs:kernel_1".into()),
            (site::K2, "bfs:kernel_2".into()),
        ]),
    }
}

/// Directive sites of `xsbench`.
pub mod xsbench_sites {
    /// The cross-section lookup kernel.
    pub(crate) const LOOKUP: u64 = 0x300;
}

/// XSBench's lookup skeleton: one kernel with `map(tofrom:)` on its
/// read-only energy and nuclide grids — each makes an unmodified round
/// trip (§7.5's rsbench/xsbench pattern).
pub(crate) fn xsbench(gridpoints: usize) -> MappingProgram {
    use xsbench_sites as site;
    let energy_grid = VarRef(0);
    let nuclide_grid = VarRef(1);
    let results = VarRef(2);
    MappingProgram {
        name: format!("xsbench(gridpoints={gridpoints})"),
        num_devices: 1,
        vars: vec![
            VarDecl {
                name: "energy_grid".into(),
                bytes: gridpoints * 4,
                init: Init::U32Affine { base: 7, step: 3 },
            },
            VarDecl {
                name: "nuclide_grid".into(),
                bytes: gridpoints * 8,
                init: Init::f64(0.5),
            },
            VarDecl {
                name: "results".into(),
                bytes: gridpoints * 8,
                init: Init::f64(0.0),
            },
        ],
        steps: vec![Step::Target {
            site: site::LOOKUP,
            device: 0,
            maps: vec![
                MapClause::tofrom(energy_grid),
                MapClause::tofrom(nuclide_grid),
                MapClause::tofrom(results),
            ],
            kernel: KernelSpec {
                name: "xs_lookup".into(),
                reads: vec![energy_grid, nuclide_grid],
                writes: vec![KernelWrite::unique(results)],
            },
        }],
        site_labels: BTreeMap::from([(site::LOOKUP, "xsbench:lookup_kernel".into())]),
    }
}

/// Directive sites of the memory-pragma ladder (`mem1` … `mem6`).
pub mod mem_sites {
    /// `target enter data`, after `new`.
    pub(crate) const ENTER: u64 = 0x400;
    /// `target update to`, before the computational loop.
    pub(crate) const UPDATE_TO: u64 = 0x410;
    /// The `daxpy` kernel's `target` line.
    pub const DAXPY: u64 = 0x420;
    /// `target update from`, after the computational loop.
    pub(crate) const UPDATE_FROM: u64 = 0x430;
    /// `target exit data`, before `delete`.
    pub(crate) const EXIT: u64 = 0x440;
}

const X: VarRef = VarRef(0);
const Y: VarRef = VarRef(1);
const Z: VarRef = VarRef(2);

/// One rung: `before`, then `iters` launches of `daxpy` (reads `x`, `y`,
/// writes `z`) under `maps`, then `after`. The kernel's image is the
/// same every launch — `z = a·x + y` does not depend on the iteration —
/// so repeated copy-backs are duplicates, as they are in the original.
fn rung(
    rung: u32,
    n: usize,
    iters: u32,
    before: Vec<Step>,
    maps: Vec<MapClause>,
    after: Vec<Step>,
) -> MappingProgram {
    use mem_sites as site;
    let var = |name: &str, v: f64| VarDecl {
        name: name.into(),
        bytes: n * 8,
        init: Init::f64(v),
    };
    let mut steps = before;
    steps.push(Step::Loop {
        trip: TripCount::Static(iters),
        body: vec![Step::Target {
            site: site::DAXPY,
            device: 0,
            maps,
            kernel: KernelSpec {
                name: "daxpy".into(),
                reads: vec![X, Y],
                writes: vec![KernelWrite::u32(Z, 0x4010_0000)],
            },
        }],
    });
    steps.extend(after);
    let label = |what: &str| format!("mem{rung}:{what}");
    MappingProgram {
        name: format!("mem{rung}(n={n}, iters={iters})"),
        num_devices: 1,
        vars: vec![var("x", 1.0), var("y", 2.0), var("z", 0.0)],
        steps,
        site_labels: BTreeMap::from([
            (site::ENTER, label("enter_data")),
            (site::UPDATE_TO, label("update_to")),
            (site::DAXPY, label("daxpy")),
            (site::UPDATE_FROM, label("update_from")),
            (site::EXIT, label("exit_data")),
        ]),
    }
}

fn enter_data(maps: Vec<MapClause>) -> Step {
    Step::EnterData {
        site: mem_sites::ENTER,
        device: 0,
        maps,
    }
}

fn exit_data(maps: Vec<MapClause>) -> Step {
    Step::ExitData {
        site: mem_sites::EXIT,
        device: 0,
        maps,
    }
}

fn update_from_z() -> Step {
    Step::UpdateFrom {
        site: mem_sites::UPDATE_FROM,
        device: 0,
        vars: vec![Z],
    }
}

fn all_three(clause: fn(VarRef) -> MapClause) -> Vec<MapClause> {
    vec![clause(X), clause(Y), clause(Z)]
}

/// Mem1: `map(to: x, y) map(from: z)` on the computational loop's own
/// pragma line — every launch allocates, sends, fetches and frees.
pub(crate) fn mem1(n: usize, iters: u32) -> MappingProgram {
    let maps = vec![MapClause::to(X), MapClause::to(Y), MapClause::from(Z)];
    rung(1, n, iters, vec![], maps, vec![])
}

/// The `always` maps Mem2 and Mem4 keep on the computational loop.
fn always_maps() -> Vec<MapClause> {
    vec![
        MapClause::to(X).always(),
        MapClause::to(Y).always(),
        MapClause::from(Z).always(),
    ]
}

/// Mem2: `enter data map(alloc:)` after `new`, `exit data map(delete:)`
/// before `delete`, `map(always to/from)` on the loop — the allocations
/// are gone, the copies stay.
pub(crate) fn mem2(n: usize, iters: u32) -> MappingProgram {
    let before = vec![enter_data(all_three(MapClause::alloc))];
    let after = vec![exit_data(all_three(MapClause::delete))];
    rung(2, n, iters, before, always_maps(), after)
}

/// Mem3: `alloc` + `target update to` before the loop, no map on it,
/// `target update from` after — each array moves once.
pub(crate) fn mem3(n: usize, iters: u32) -> MappingProgram {
    let before = vec![
        enter_data(all_three(MapClause::alloc)),
        Step::UpdateTo {
            site: mem_sites::UPDATE_TO,
            device: 0,
            vars: vec![X, Y],
        },
    ];
    let after = vec![update_from_z(), exit_data(all_three(MapClause::delete))];
    rung(3, n, iters, before, vec![], after)
}

/// Mem4: Mem2 with `map(release:)` for `map(delete:)` — reference
/// counting instead of a forced free; the transfers are Mem2's.
pub(crate) fn mem4(n: usize, iters: u32) -> MappingProgram {
    let before = vec![enter_data(all_three(MapClause::alloc))];
    let after = vec![exit_data(all_three(MapClause::release))];
    rung(4, n, iters, before, always_maps(), after)
}

/// `enter data map(to: x, y) map(alloc: z)`, Mem5's and Mem6's opening.
fn enter_to_xy_alloc_z() -> Step {
    enter_data(vec![
        MapClause::to(X),
        MapClause::to(Y),
        MapClause::alloc(Z),
    ])
}

/// Mem5: `enter data map(to: x, y) map(alloc: z)` / `exit data
/// map(from: z) map(delete: x, y)` around the loop; the loop's own
/// `map(to/from)` finds the data present and copies nothing.
pub(crate) fn mem5(n: usize, iters: u32) -> MappingProgram {
    let maps = vec![MapClause::to(X), MapClause::to(Y), MapClause::from(Z)];
    let after = vec![exit_data(vec![
        MapClause::from(Z),
        MapClause::delete(X),
        MapClause::delete(Y),
    ])];
    rung(5, n, iters, vec![enter_to_xy_alloc_z()], maps, after)
}

/// Mem6: Mem5's `enter data`, no map on the loop, one `target update
/// from(z)` at the end, then `delete`.
pub(crate) fn mem6(n: usize, iters: u32) -> MappingProgram {
    let after = vec![update_from_z(), exit_data(all_three(MapClause::delete))];
    rung(6, n, iters, vec![enter_to_xy_alloc_z()], vec![], after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::plan::{apply_plan, emit_plan};
    use odp_workloads::{ProblemSize, Workload};

    /// What `odp run <name>` relies on: a valid single-device program at
    /// every size, whose own plan applies (`--variant fixed`).
    #[test]
    fn all_programs_validate_at_all_sizes() {
        for w in registry() {
            for size in ProblemSize::ALL {
                let p = w.program(size);
                let at = format!("{} {size:?}", w.name());
                p.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(p.num_devices, 1, "{at}: the default runtime has one device");
                apply_plan(p, &emit_plan(p, &analyze(p)))
                    .unwrap_or_else(|e| panic!("{at}: its own plan does not apply: {e}"));
            }
        }
    }

    #[test]
    fn names_are_unique_across_both_registries() {
        let mut names: Vec<&str> = odp_workloads::all().iter().map(|w| w.name()).collect();
        names.extend(registry().iter().map(|w| w.name()));
        let listed = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), listed, "{names:?}");
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("minifmm").is_none());
        let name = |w: Option<IrWorkload>| w.map(|w| w.name());
        assert_eq!(name(by_name("mem4")), Some("mem4"));
        assert_eq!(name(by_name("bfs")), Some("ir-bfs"));
        assert_eq!(name(by_name("ir-bfs")), Some("ir-bfs"));
    }
}
