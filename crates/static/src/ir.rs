//! The declarative mapping IR: one description of a program's offload
//! structure that drives *both* the static analyzer and the dynamic
//! simulated runtime.
//!
//! A [`MappingProgram`] is the data-mapping skeleton of an OpenMP
//! offload application: variables with deterministic initial images,
//! and a tree of steps — `target data` regions, `enter`/`exit data`,
//! `target update`, `target` kernels, host writes, and loops. Loops
//! carry their iteration structure explicitly: a compile-time-known
//! [`TripCount::Static`] count (babelstream's run loop) or a
//! [`TripCount::DataDependent`] count (bfs's frontier loop), which is
//! exactly the distinction the analyzer's `Certain` vs
//! `MayDependOnData` tagging rests on.
//!
//! Every directive carries a `site` — the code pointer its events are
//! attributed to, the join key of the static-vs-dynamic cross-check.

use odp_model::MapType;
use std::collections::BTreeMap;

/// Index of a variable in [`MappingProgram::vars`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct VarRef(pub usize);

/// Deterministic initial image of a variable's host buffer.
///
/// Two initializers produce byte-identical buffers iff their normalized
/// forms and lengths are equal — the property the analyzer's content
/// tokens rely on, so every variant here must describe its bytes
/// exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Init {
    /// Every byte is `v`.
    Byte(u8),
    /// Repeating little-endian f64 (stored as bits so `Init` is `Eq`).
    F64Bits(u64),
    /// Byte 0 is `mark`, the rest are zero (bfs's mask/visited images).
    MarkFirstByte(u8),
    /// Little-endian u32s: element 0 is `first`, the rest are `rest`
    /// (bfs's cost array: source 0, everyone else u32::MAX).
    U32FirstRest {
        /// Element 0.
        first: u32,
        /// Every other element.
        rest: u32,
    },
    /// Little-endian u32s: element i is `i + 1` while `i + 1 < limit`,
    /// else `u32::MAX` (bfs's chain-shaped edge list).
    U32Chain {
        /// Number of nodes.
        limit: u32,
    },
    /// Little-endian u32s: element i is `base + step * i` (xsbench's
    /// grid and aggregated simulation data).
    U32Affine {
        /// Element 0.
        base: u32,
        /// Per-element increment.
        step: u32,
    },
}

impl Init {
    /// An f64 fill (convenience constructor over [`Init::F64Bits`]).
    pub(crate) fn f64(v: f64) -> Init {
        Init::F64Bits(v.to_bits())
    }

    /// Canonical form: variants that describe the same byte pattern map
    /// to one representative, so token equality is exactly byte
    /// equality for the patterns workloads use.
    pub(crate) fn normalize(self) -> Init {
        match self {
            Init::F64Bits(0) => Init::Byte(0),
            Init::MarkFirstByte(0) => Init::Byte(0),
            Init::U32FirstRest { first, rest } if first == rest => Init::U32Affine {
                base: first,
                step: 0,
            }
            .normalize(),
            Init::U32Affine { base, step: 0 } => {
                let b = base.to_le_bytes();
                if b.iter().all(|&x| x == b[0]) {
                    Init::Byte(b[0])
                } else {
                    Init::U32Affine { base, step: 0 }
                }
            }
            other => other,
        }
    }

    /// Materialize the image for a buffer of `bytes` bytes.
    pub(crate) fn materialize(self, bytes: usize) -> Vec<u8> {
        let mut buf = vec![0u8; bytes];
        match self {
            Init::Byte(v) => buf.fill(v),
            Init::F64Bits(bits) => {
                for chunk in buf.chunks_exact_mut(8) {
                    chunk.copy_from_slice(&bits.to_le_bytes());
                }
            }
            Init::MarkFirstByte(mark) => {
                if !buf.is_empty() {
                    buf[0] = mark;
                }
            }
            Init::U32FirstRest { first, rest } => {
                for (i, chunk) in buf.chunks_exact_mut(4).enumerate() {
                    let v = if i == 0 { first } else { rest };
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            Init::U32Chain { limit } => {
                for (i, chunk) in buf.chunks_exact_mut(4).enumerate() {
                    let next = i as u32 + 1;
                    let v = if next < limit { next } else { u32::MAX };
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
            Init::U32Affine { base, step } => {
                for (i, chunk) in buf.chunks_exact_mut(4).enumerate() {
                    let v = base.wrapping_add(step.wrapping_mul(i as u32));
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        buf
    }
}

/// A variable declaration: name, size, deterministic initial image.
#[derive(Clone, Debug)]
pub struct VarDecl {
    /// Source-level name (reports, patch plans).
    pub name: String,
    /// Buffer size in bytes.
    pub bytes: usize,
    /// Initial host image.
    pub init: Init,
}

/// One map clause: `map([always,] <type>: var)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapClause {
    /// The mapped variable.
    pub var: VarRef,
    /// The map type keyword.
    pub map_type: MapType,
    /// The `always` modifier.
    pub always: bool,
}

impl MapClause {
    /// `map(to: var)`.
    pub(crate) fn to(var: VarRef) -> MapClause {
        MapClause {
            var,
            map_type: MapType::To,
            always: false,
        }
    }

    /// `map(from: var)`.
    pub(crate) fn from(var: VarRef) -> MapClause {
        MapClause {
            var,
            map_type: MapType::From,
            always: false,
        }
    }

    /// `map(tofrom: var)`.
    pub(crate) fn tofrom(var: VarRef) -> MapClause {
        MapClause {
            var,
            map_type: MapType::ToFrom,
            always: false,
        }
    }

    /// `map(alloc: var)`.
    pub(crate) fn alloc(var: VarRef) -> MapClause {
        MapClause {
            var,
            map_type: MapType::Alloc,
            always: false,
        }
    }

    /// `map(release: var)`.
    pub(crate) fn release(var: VarRef) -> MapClause {
        MapClause {
            var,
            map_type: MapType::Release,
            always: false,
        }
    }

    /// `map(delete: var)`.
    pub(crate) fn delete(var: VarRef) -> MapClause {
        MapClause {
            var,
            map_type: MapType::Delete,
            always: false,
        }
    }

    /// Add the `always` modifier.
    pub(crate) fn always(mut self) -> MapClause {
        self.always = true;
        self
    }
}

/// What a kernel write stores into a variable's device buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteContent {
    /// Content unique to this (kernel execution, variable) — real
    /// compute whose result differs from every other buffer image in
    /// the program (babelstream's triad output, bfs's next frontier).
    Unique,
    /// Every byte set to `v` (clearing a mask).
    Byte(u8),
    /// Every u32 element set to `v` (bfs raising its `over` flag).
    U32(u32),
}

/// When a kernel write fires, relative to the enclosing data-dependent
/// loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fires {
    /// On every execution.
    Always,
    /// On every execution except the innermost data-dependent loop's
    /// final iteration — the canonical convergence flag: bfs's `over`
    /// is raised while the frontier is non-empty and stays clear on the
    /// last level.
    OnAllButLastIteration,
}

/// One variable a kernel writes.
#[derive(Clone, Copy, Debug)]
pub struct KernelWrite {
    /// Written variable.
    pub var: VarRef,
    /// Stored content.
    pub content: WriteContent,
    /// Firing condition.
    pub fires: Fires,
}

impl KernelWrite {
    /// An unconditional write of unique content.
    pub(crate) fn unique(var: VarRef) -> KernelWrite {
        KernelWrite {
            var,
            content: WriteContent::Unique,
            fires: Fires::Always,
        }
    }

    /// An unconditional byte fill.
    pub(crate) fn byte(var: VarRef, v: u8) -> KernelWrite {
        KernelWrite {
            var,
            content: WriteContent::Byte(v),
            fires: Fires::Always,
        }
    }

    /// An unconditional u32 fill.
    pub(crate) fn u32(var: VarRef, v: u32) -> KernelWrite {
        KernelWrite {
            var,
            content: WriteContent::U32(v),
            fires: Fires::Always,
        }
    }
}

/// A kernel: name, reads, writes. Read/write *order* is part of the
/// specification — it determines the OpenMP implicit-map order for
/// referenced-but-unmapped variables, which both the lowering and the
/// analyzer must reproduce identically.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Kernel name.
    pub name: String,
    /// Variables read (first in implicit-map order).
    pub reads: Vec<VarRef>,
    /// Variables written, with content and firing condition.
    pub writes: Vec<KernelWrite>,
}

impl KernelSpec {
    /// All referenced variables — reads then writes, deduplicated,
    /// order preserved (mirrors `odp_sim::Kernel::referenced_vars`).
    pub(crate) fn referenced(&self) -> Vec<VarRef> {
        let mut out = Vec::with_capacity(self.reads.len() + self.writes.len());
        for v in self
            .reads
            .iter()
            .copied()
            .chain(self.writes.iter().map(|w| w.var))
        {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// Loop iteration structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripCount {
    /// Compile-time-known count: the analyzer unrolls it exactly and
    /// its predictions stay `Certain`.
    Static(u32),
    /// Runtime-data-dependent count (bfs's frontier loop). `executed`
    /// is the count one concrete execution performs — used only by the
    /// lowering; the analyzer sees just "some count ≥ 1" and tags
    /// everything the loop touches `MayDependOnData`. Must be ≥ 1
    /// (do-while semantics, as in bfs).
    DataDependent {
        /// Iterations the lowered execution runs.
        executed: u32,
    },
}

/// One step of the program, in program order.
#[derive(Clone, Debug)]
pub enum Step {
    /// `#pragma omp target data map(...)` — a structured region: maps
    /// enter in clause order, the body runs, maps exit in reverse.
    DataRegion {
        /// Code pointer of the directive.
        site: u64,
        /// Target device.
        device: u32,
        /// Map clauses.
        maps: Vec<MapClause>,
        /// Enclosed steps.
        body: Vec<Step>,
    },
    /// `#pragma omp target enter data map(...)`.
    EnterData {
        /// Code pointer of the directive.
        site: u64,
        /// Target device.
        device: u32,
        /// Map clauses.
        maps: Vec<MapClause>,
    },
    /// `#pragma omp target exit data map(...)`.
    ExitData {
        /// Code pointer of the directive.
        site: u64,
        /// Target device.
        device: u32,
        /// Map clauses.
        maps: Vec<MapClause>,
    },
    /// `#pragma omp target update to(...)`.
    UpdateTo {
        /// Code pointer of the directive.
        site: u64,
        /// Target device.
        device: u32,
        /// Updated variables.
        vars: Vec<VarRef>,
    },
    /// `#pragma omp target update from(...)`.
    UpdateFrom {
        /// Code pointer of the directive.
        site: u64,
        /// Target device.
        device: u32,
        /// Updated variables.
        vars: Vec<VarRef>,
    },
    /// `#pragma omp target map(...)` — map, run the kernel, unwind.
    /// Referenced-but-unmapped variables map implicitly `tofrom`.
    Target {
        /// Code pointer of the directive.
        site: u64,
        /// Target device.
        device: u32,
        /// Explicit map clauses.
        maps: Vec<MapClause>,
        /// The kernel.
        kernel: KernelSpec,
    },
    /// Host code overwrites a variable's host buffer.
    HostWrite {
        /// Written variable.
        var: VarRef,
        /// New content (deterministic fills only — host code with
        /// data-dependent output is modeled as a kernel).
        content: WriteContent,
    },
    /// A counted loop around `body`.
    Loop {
        /// Iteration structure.
        trip: TripCount,
        /// Loop body.
        body: Vec<Step>,
    },
}

impl Step {
    /// Code pointer of the directive; `None` for host writes and loops.
    pub(crate) fn site(&self) -> Option<u64> {
        match self {
            Step::DataRegion { site, .. }
            | Step::EnterData { site, .. }
            | Step::ExitData { site, .. }
            | Step::UpdateTo { site, .. }
            | Step::UpdateFrom { site, .. }
            | Step::Target { site, .. } => Some(*site),
            Step::HostWrite { .. } | Step::Loop { .. } => None,
        }
    }

    /// Target device of the directive; `None` for host writes and loops.
    pub(crate) fn device(&self) -> Option<u32> {
        match self {
            Step::DataRegion { device, .. }
            | Step::EnterData { device, .. }
            | Step::ExitData { device, .. }
            | Step::UpdateTo { device, .. }
            | Step::UpdateFrom { device, .. }
            | Step::Target { device, .. } => Some(*device),
            Step::HostWrite { .. } | Step::Loop { .. } => None,
        }
    }

    /// The steps a region or loop encloses; empty for everything else.
    pub(crate) fn body(&self) -> &[Step] {
        match self {
            Step::DataRegion { body, .. } | Step::Loop { body, .. } => body,
            _ => &[],
        }
    }
}

/// Every step of the tree under `steps`, pre-order (a region or loop
/// before its body, siblings in program order).
pub fn walk(steps: &[Step]) -> impl Iterator<Item = &Step> {
    let mut stack = vec![steps.iter()];
    std::iter::from_fn(move || loop {
        match stack.last_mut()?.next() {
            Some(step) => {
                stack.push(step.body().iter());
                return Some(step);
            }
            None => {
                stack.pop();
            }
        }
    })
}

/// A whole program: variables, step tree, site labels.
#[derive(Clone, Debug)]
pub struct MappingProgram {
    /// Program name (reports).
    pub name: String,
    /// Devices the program targets (device numbers `0..num_devices`).
    pub num_devices: u32,
    /// Variable declarations; [`VarRef`] indexes this.
    pub vars: Vec<VarDecl>,
    /// Top-level steps in program order.
    pub steps: Vec<Step>,
    /// Human-readable labels per site (pseudo source locations).
    pub site_labels: BTreeMap<u64, String>,
}

impl MappingProgram {
    /// Label for a site, falling back to hex.
    pub(crate) fn site_label(&self, site: u64) -> String {
        self.site_labels
            .get(&site)
            .cloned()
            .unwrap_or_else(|| format!("{site:#x}"))
    }

    /// Variable name for a reference.
    pub(crate) fn var_name(&self, v: VarRef) -> &str {
        &self.vars[v.0].name
    }

    /// Structural validation: references in range, devices in range,
    /// trip counts ≥ 1, `OnAllButLastIteration` only under a
    /// data-dependent loop, unique directive sites.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(
            p: &MappingProgram,
            steps: &[Step],
            in_data_dependent: bool,
            seen_sites: &mut BTreeMap<u64, u32>,
        ) -> Result<(), String> {
            let check_var = |v: VarRef| -> Result<(), String> {
                if v.0 >= p.vars.len() {
                    return Err(format!("variable reference {} out of range", v.0));
                }
                Ok(())
            };
            let check_dev = |d: u32| -> Result<(), String> {
                if d >= p.num_devices {
                    return Err(format!(
                        "device {d} out of range (num_devices {})",
                        p.num_devices
                    ));
                }
                Ok(())
            };
            for step in steps {
                match step {
                    Step::DataRegion {
                        site,
                        device,
                        maps,
                        body,
                    } => {
                        check_dev(*device)?;
                        *seen_sites.entry(*site).or_insert(0) += 1;
                        for m in maps {
                            check_var(m.var)?;
                        }
                        walk(p, body, in_data_dependent, seen_sites)?;
                    }
                    Step::EnterData { site, device, maps }
                    | Step::ExitData { site, device, maps } => {
                        check_dev(*device)?;
                        *seen_sites.entry(*site).or_insert(0) += 1;
                        for m in maps {
                            check_var(m.var)?;
                        }
                    }
                    Step::UpdateTo { site, device, vars }
                    | Step::UpdateFrom { site, device, vars } => {
                        check_dev(*device)?;
                        *seen_sites.entry(*site).or_insert(0) += 1;
                        for &v in vars {
                            check_var(v)?;
                        }
                    }
                    Step::Target {
                        site,
                        device,
                        maps,
                        kernel,
                    } => {
                        check_dev(*device)?;
                        *seen_sites.entry(*site).or_insert(0) += 1;
                        for m in maps {
                            check_var(m.var)?;
                        }
                        for &v in &kernel.reads {
                            check_var(v)?;
                        }
                        for w in &kernel.writes {
                            check_var(w.var)?;
                            if w.fires == Fires::OnAllButLastIteration && !in_data_dependent {
                                return Err(format!(
                                    "kernel '{}': OnAllButLastIteration outside a data-dependent loop",
                                    kernel.name
                                ));
                            }
                        }
                    }
                    Step::HostWrite { var, .. } => check_var(*var)?,
                    Step::Loop { trip, body } => {
                        let dd = match trip {
                            TripCount::Static(n) => {
                                if *n == 0 {
                                    return Err("static loop with zero iterations".into());
                                }
                                in_data_dependent
                            }
                            TripCount::DataDependent { executed } => {
                                if *executed == 0 {
                                    return Err(
                                        "data-dependent loop must execute at least once".into()
                                    );
                                }
                                true
                            }
                        };
                        walk(p, body, dd, seen_sites)?;
                    }
                }
            }
            Ok(())
        }
        let mut seen = BTreeMap::new();
        walk(self, &self.steps, false, &mut seen)?;
        if let Some((site, n)) = seen.iter().find(|(_, &n)| n > 1) {
            return Err(format!(
                "site {site:#x} used by {n} directives; sites must be unique"
            ));
        }
        Ok(())
    }
}

/// Render a clause list the way it would appear in source:
/// `map(to: a) map(tofrom: b)`.
pub(crate) fn render_maps(p: &MappingProgram, maps: &[MapClause]) -> String {
    maps.iter()
        .map(|m| render_map(p, m))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Render one clause: `map(always, tofrom: x)`.
pub(crate) fn render_map(p: &MappingProgram, m: &MapClause) -> String {
    if m.always {
        format!(
            "map(always, {}: {})",
            m.map_type.keyword(),
            p.var_name(m.var)
        )
    } else {
        format!("map({}: {})", m.map_type.keyword(), p.var_name(m.var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_normalization_is_byte_exact() {
        // Each normalization pair must materialize identical bytes.
        let cases = [
            (Init::F64Bits(0), 32),
            (Init::MarkFirstByte(0), 16),
            (Init::U32FirstRest { first: 5, rest: 5 }, 16),
            (Init::U32Affine { base: 0, step: 0 }, 16),
        ];
        for (init, len) in cases {
            assert_eq!(
                init.materialize(len),
                init.normalize().materialize(len),
                "{init:?}"
            );
        }
        assert_eq!(Init::F64Bits(0).normalize(), Init::Byte(0));
        assert_eq!(Init::MarkFirstByte(0).normalize(), Init::Byte(0));
        assert_eq!(
            Init::U32Affine { base: 0, step: 0 }.normalize(),
            Init::Byte(0)
        );
        // 0x01010101 as u32 fill is a uniform byte fill.
        assert_eq!(
            Init::U32Affine {
                base: 0x0101_0101,
                step: 0
            }
            .normalize(),
            Init::Byte(1)
        );
        // Distinct normalized patterns materialize distinct bytes.
        assert_ne!(
            Init::MarkFirstByte(1).materialize(16),
            Init::Byte(1).materialize(16)
        );
    }

    #[test]
    fn materialize_shapes() {
        assert_eq!(Init::Byte(7).materialize(3), vec![7, 7, 7]);
        assert_eq!(Init::MarkFirstByte(1).materialize(4), vec![1, 0, 0, 0]);
        assert_eq!(
            Init::U32FirstRest {
                first: 0,
                rest: u32::MAX
            }
            .materialize(8),
            vec![0, 0, 0, 0, 255, 255, 255, 255]
        );
        assert_eq!(
            Init::U32Chain { limit: 2 }.materialize(8),
            vec![1, 0, 0, 0, 255, 255, 255, 255]
        );
        assert_eq!(
            Init::U32Affine { base: 3, step: 2 }.materialize(8),
            vec![3, 0, 0, 0, 5, 0, 0, 0]
        );
        assert_eq!(Init::f64(1.0).materialize(8), 1.0f64.to_le_bytes().to_vec());
    }

    #[test]
    fn walk_is_pre_order_over_regions_and_loops() {
        let update = |site| Step::UpdateTo {
            site,
            device: 1,
            vars: vec![],
        };
        let steps = vec![
            Step::DataRegion {
                site: 1,
                device: 0,
                maps: vec![],
                body: vec![
                    Step::Loop {
                        trip: TripCount::Static(2),
                        body: vec![update(2)],
                    },
                    update(3),
                ],
            },
            Step::HostWrite {
                var: VarRef(0),
                content: WriteContent::Byte(0),
            },
            update(4),
        ];
        let visited: Vec<_> = walk(&steps).map(|s| (s.site(), s.device())).collect();
        assert_eq!(
            visited,
            vec![
                (Some(1), Some(0)),
                (None, None), // the loop
                (Some(2), Some(1)),
                (Some(3), Some(1)),
                (None, None), // the host write
                (Some(4), Some(1)),
            ]
        );
        assert_eq!(walk(&[]).count(), 0);
    }

    #[test]
    fn validate_catches_structural_errors() {
        let mut p = MappingProgram {
            name: "t".into(),
            num_devices: 1,
            vars: vec![VarDecl {
                name: "x".into(),
                bytes: 8,
                init: Init::Byte(0),
            }],
            steps: vec![Step::Loop {
                trip: TripCount::Static(0),
                body: vec![],
            }],
            site_labels: BTreeMap::new(),
        };
        assert!(p.validate().is_err(), "zero-trip loop");
        p.steps = vec![Step::Target {
            site: 1,
            device: 0,
            maps: vec![],
            kernel: KernelSpec {
                name: "k".into(),
                reads: vec![],
                writes: vec![KernelWrite {
                    var: VarRef(0),
                    content: WriteContent::Byte(1),
                    fires: Fires::OnAllButLastIteration,
                }],
            },
        }];
        assert!(p.validate().is_err(), "AllButLast outside loop");
        p.steps = vec![Step::EnterData {
            site: 1,
            device: 3,
            maps: vec![MapClause::to(VarRef(0))],
        }];
        assert!(p.validate().is_err(), "device out of range");
        p.steps = vec![
            Step::EnterData {
                site: 1,
                device: 0,
                maps: vec![MapClause::to(VarRef(0))],
            },
            Step::ExitData {
                site: 1,
                device: 0,
                maps: vec![MapClause::release(VarRef(0))],
            },
        ];
        assert!(p.validate().is_err(), "duplicate sites");
        p.steps = vec![
            Step::EnterData {
                site: 1,
                device: 0,
                maps: vec![MapClause::to(VarRef(0))],
            },
            Step::ExitData {
                site: 2,
                device: 0,
                maps: vec![MapClause::release(VarRef(0))],
            },
        ];
        assert!(p.validate().is_ok());
    }
}
