//! Interpretation: execute a [`MappingProgram`] against a simulated
//! runtime somebody else built.
//!
//! [`interpret`] allocates and initialises the program's host variables
//! on the runtime it is handed and walks the steps; it attaches no tool,
//! finishes nothing and detects nothing. Putting the program *under the
//! tool* is `odp_workloads::session::run` over an [`IrWorkload`] — the
//! driver every workload goes through, so an IR program runs streamed,
//! threaded, remediated, under faults, into an `.odpt` and under
//! Arbalest from one description. [`run_under_tool`] is that call as
//! the cross-check and the plan validator make it.
//!
//! Content fidelity: deterministic initializers are materialized
//! byte-exactly (`crate::ir::Init::materialize`), and
//! [`crate::ir::WriteContent::Unique`] kernel writes fill the device
//! buffer with splitmix64-derived blocks keyed by a global write
//! serial, so every unique write produces an image distinct from every
//! other buffer image in the program — mirroring the abstract
//! executor's token inequalities in the dynamic content hashes.

use crate::analysis::analyze;
use crate::ir::{walk, Fires, MapClause, MappingProgram, Step, TripCount, WriteContent};
use crate::plan::{apply_plan, emit_plan};
use odp_model::{CodePtr, MapModifier};
use odp_sim::{Kernel, KernelCost, Map, Runtime, RuntimeConfig, VarId};
use odp_workloads::session::{self, RunOutcome, RunSpec};
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::attrib::DebugInfo;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A globally-distinct buffer image for unique-content write `serial`.
fn unique_image(serial: u64, bytes: usize) -> Vec<u8> {
    let seed = splitmix64(serial);
    let mut out = vec![0u8; bytes];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let block = splitmix64(seed ^ (i as u64)).to_le_bytes();
        chunk.copy_from_slice(&block[..chunk.len()]);
    }
    out
}

struct Lowerer<'p> {
    p: &'p MappingProgram,
    rt: &'p mut Runtime,
    vars: Vec<VarId>,
    /// Global unique-write serial (one sequence for the whole run, so
    /// every unique image differs from every other).
    uniq: u64,
    /// Innermost data-dependent loop "is last iteration" flags.
    dd_last: Vec<bool>,
}

impl Lowerer<'_> {
    fn lower_maps(&self, maps: &[MapClause]) -> Vec<Map> {
        maps.iter()
            .map(|m| Map {
                var: self.vars[m.var.0],
                map_type: m.map_type,
                modifier: if m.always {
                    MapModifier::ALWAYS
                } else {
                    MapModifier::NONE
                },
            })
            .collect()
    }

    fn content_image(&mut self, content: WriteContent, bytes: usize) -> Vec<u8> {
        match content {
            WriteContent::Unique => {
                self.uniq += 1;
                unique_image(self.uniq, bytes)
            }
            WriteContent::Byte(v) => vec![v; bytes],
            WriteContent::U32(v) => {
                let mut out = vec![0u8; bytes];
                for chunk in out.chunks_exact_mut(4) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                out
            }
        }
    }

    fn steps(&mut self, steps: &[Step]) {
        for s in steps {
            self.step(s);
        }
    }

    fn step(&mut self, s: &Step) {
        match s {
            Step::DataRegion {
                site,
                device,
                maps,
                body,
            } => {
                let lowered = self.lower_maps(maps);
                let handle = self.rt.target_data_begin(*device, CodePtr(*site), &lowered);
                self.steps(body);
                self.rt.target_data_end(handle);
            }
            Step::EnterData { site, device, maps } => {
                let lowered = self.lower_maps(maps);
                self.rt.target_enter_data(*device, CodePtr(*site), &lowered);
            }
            Step::ExitData { site, device, maps } => {
                let lowered = self.lower_maps(maps);
                self.rt.target_exit_data(*device, CodePtr(*site), &lowered);
            }
            Step::UpdateTo { site, device, vars } => {
                let ids: Vec<VarId> = vars.iter().map(|v| self.vars[v.0]).collect();
                self.rt.target_update_to(*device, CodePtr(*site), &ids);
            }
            Step::UpdateFrom { site, device, vars } => {
                let ids: Vec<VarId> = vars.iter().map(|v| self.vars[v.0]).collect();
                self.rt.target_update_from(*device, CodePtr(*site), &ids);
            }
            Step::Target {
                site,
                device,
                maps,
                kernel,
            } => {
                let lowered = self.lower_maps(maps);
                let reads: Vec<VarId> = kernel.reads.iter().map(|v| self.vars[v.0]).collect();
                let writes: Vec<VarId> = kernel.writes.iter().map(|w| self.vars[w.var.0]).collect();
                let is_last = self.dd_last.last().copied().unwrap_or(false);
                let fills: Vec<(VarId, Vec<u8>)> = kernel
                    .writes
                    .iter()
                    .filter(|w| w.fires == Fires::Always || !is_last)
                    .map(|w| {
                        let bytes = self.p.vars[w.var.0].bytes;
                        (self.vars[w.var.0], self.content_image(w.content, bytes))
                    })
                    .collect();
                let mut body = |view: &mut odp_sim::DeviceView<'_>| {
                    for (var, img) in &fills {
                        let buf = view.bytes_mut(*var);
                        let n = buf.len().min(img.len());
                        buf[..n].copy_from_slice(&img[..n]);
                    }
                };
                self.rt.target(
                    *device,
                    CodePtr(*site),
                    &lowered,
                    Kernel::new(&kernel.name, KernelCost::fixed(1000))
                        .reads(&reads)
                        .writes(&writes)
                        .body(&mut body),
                );
            }
            Step::HostWrite { var, content } => {
                let bytes = self.p.vars[var.0].bytes;
                let img = self.content_image(*content, bytes);
                self.rt
                    .host_bytes_mut(self.vars[var.0])
                    .copy_from_slice(&img);
            }
            Step::Loop { trip, body } => {
                let (iters, dd) = match trip {
                    TripCount::Static(n) => (*n, false),
                    TripCount::DataDependent { executed } => (*executed, true),
                };
                for i in 0..iters {
                    if dd {
                        self.dd_last.push(i + 1 == iters);
                    }
                    self.steps(body);
                    if dd {
                        self.dd_last.pop();
                    }
                }
            }
        }
    }
}

/// Allocate and initialise `p`'s host variables on `rt`, then execute
/// its steps in program order. Returns the runtime's id of each of
/// [`MappingProgram::vars`], so a caller can read what the host ends up
/// holding.
///
/// # Panics
/// When a step names a device `rt` does not have.
pub fn interpret(p: &MappingProgram, rt: &mut Runtime) -> Vec<VarId> {
    let vars: Vec<VarId> = p
        .vars
        .iter()
        .map(|v| {
            let id = rt.host_alloc(&v.name, v.bytes);
            rt.host_bytes_mut(id)
                .copy_from_slice(&v.init.materialize(v.bytes));
            id
        })
        .collect();
    let mut lowerer = Lowerer {
        p,
        rt,
        vars,
        uniq: 0,
        dd_last: Vec::new(),
    };
    lowerer.steps(&p.steps);
    lowerer.vars
}

/// An IR program as a [`Workload`]: what `odp run`, `odp arbalest`,
/// `odp trace save` and the cross-check all hand to the run driver.
pub struct IrWorkload {
    name: &'static str,
    sizes: [MappingProgram; 3],
}

impl IrWorkload {
    /// `sizes` (Small, Medium, Large), registered as `name`.
    pub(crate) fn new(name: &'static str, sizes: [MappingProgram; 3]) -> IrWorkload {
        IrWorkload { name, sizes }
    }

    /// The program at `size`, as written ([`Variant::Original`]).
    pub fn program(&self, size: ProblemSize) -> &MappingProgram {
        &self.sizes[size.index()]
    }
}

impl Workload for IrWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn domain(&self) -> &'static str {
        "mapping IR"
    }

    fn paper_input(&self, _size: ProblemSize) -> &'static str {
        "n/a (not one of the paper's inputs)"
    }

    /// `Fixed` is the program after its own patch plan.
    fn supports(&self, variant: Variant) -> bool {
        matches!(variant, Variant::Original | Variant::Fixed)
    }

    /// Interpretation is deterministic per thread.
    fn supports_threads(&self) -> bool {
        true
    }

    /// # Panics
    /// Under `Fixed`, when the program's own plan does not apply to it:
    /// an emitter bug, which the registry's tests rule out.
    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo {
        let fixed;
        let mut p = self.program(size);
        if variant == Variant::Fixed {
            fixed = apply_plan(p, &emit_plan(p, &analyze(p)))
                .unwrap_or_else(|why| panic!("{}: its own plan does not apply: {why}", p.name));
            p = &fixed;
        }
        interpret(p, rt);
        // The "-g" build: each directive resolves to its site label, at
        // its position in program order.
        let mut debug_info = DebugInfo::new();
        let sites = walk(&p.steps).filter_map(Step::site);
        for (line, site) in (1..).zip(sites) {
            debug_info.register(CodePtr(site), self.name, line, &p.site_label(site));
        }
        debug_info
    }
}

/// Run `p` under the tool, post-mortem on one thread, on a runtime with
/// as many devices as `p` targets.
pub fn run_under_tool(p: &MappingProgram) -> RunOutcome {
    let spec = RunSpec {
        runtime: RuntimeConfig::default().with_devices(p.num_devices),
        ..RunSpec::default()
    };
    let every_size = std::array::from_fn(|_| p.clone());
    session::run(&IrWorkload::new("mapping-ir", every_size), &spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Init, KernelSpec, KernelWrite, VarDecl, VarRef};
    use ompdataperf::fleet::{site_findings, FindingKind, SiteFinding};
    use std::collections::BTreeMap;

    #[test]
    fn unique_images_are_distinct() {
        let a = unique_image(1, 64);
        let b = unique_image(2, 64);
        let c = unique_image(1, 64);
        assert_ne!(a, b);
        assert_eq!(a, c, "same serial reproduces the same image");
    }

    fn one_var(steps: Vec<Step>) -> MappingProgram {
        MappingProgram {
            name: "t".into(),
            num_devices: 1,
            vars: vec![VarDecl {
                name: "a".into(),
                bytes: 64,
                init: Init::f64(1.5),
            }],
            steps,
            site_labels: BTreeMap::from([(0x10, "t:k".into())]),
        }
    }

    fn target_tofrom_a(writes: Vec<KernelWrite>) -> Step {
        Step::Target {
            site: 0x10,
            device: 0,
            maps: vec![MapClause::tofrom(VarRef(0))],
            kernel: KernelSpec {
                name: "k".into(),
                reads: vec![VarRef(0)],
                writes,
            },
        }
    }

    #[test]
    fn lowered_loop_produces_dynamic_dd_and_ra() {
        // The same shape analysis.rs pins statically: 3 iterations of
        // target map(tofrom: a) with a read-only kernel.
        let p = one_var(vec![Step::Loop {
            trip: TripCount::Static(3),
            body: vec![target_tofrom_a(vec![])],
        }]);
        p.validate().expect("valid");
        let run = run_under_tool(&p);
        assert!(run.warnings.is_empty(), "{:?}", run.warnings);
        let sites = site_findings(&run.report.findings);
        let count = |kind| {
            let at = |s: &&SiteFinding| (s.codeptr, s.device, s.kind) == (0x10, 0, kind);
            sites.iter().find(at).expect("finding").count
        };
        assert_eq!(count(FindingKind::DuplicateTransfer), 2);
        assert_eq!(count(FindingKind::RepeatedAlloc), 2);
        // The driver got the program's debug info: rows name the site.
        let rendered = run.report.render();
        assert!(rendered.contains("mapping-ir:1 (t:k)"), "{rendered}");
    }

    #[test]
    fn kernel_unique_write_defeats_round_trip() {
        let p = one_var(vec![target_tofrom_a(vec![KernelWrite::unique(VarRef(0))])]);
        let run = run_under_tool(&p);
        let sites = site_findings(&run.report.findings);
        assert!(sites.iter().all(|s| s.kind != FindingKind::RoundTrip));
        assert_eq!(run.report.counts.rt, 0);
    }

    #[test]
    fn interpret_returns_the_host_variables_in_declaration_order() {
        let p = crate::programs::xsbench(8);
        let mut rt = Runtime::with_defaults();
        let vars = interpret(&p, &mut rt);
        let names: Vec<&str> = vars.iter().map(|&v| rt.var_name(v)).collect();
        assert_eq!(names, ["energy_grid", "nuclide_grid", "results"]);
        assert!(rt.warnings().is_empty());
    }
}
