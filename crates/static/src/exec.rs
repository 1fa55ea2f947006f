//! Abstract execution of a [`MappingProgram`]: `odp_sim::Runtime`'s
//! directive execution over content tokens.
//!
//! The executor walks the step tree exactly the way the runtime
//! executes the lowered program — reference-counted present tables per
//! device, enter/exit clause ordering, implicit `tofrom` maps — and
//! steps the same clause transition (`odp_model::MapType::enter` /
//! `exit`); around it, it keeps only tokens, taint and event emission.
//! *Content tokens* stand in for byte buffers: a token names a
//! provably-known byte pattern (`Pat::Init`) or a unique kernel
//! result (`Pat::Uniq`). Token equality implies byte equality in any
//! concrete execution, which is what keeps `Certain` predictions sound.
//!
//! Data-dependent loops are unrolled a fixed number of times with every
//! emitted event tagged uncertain, then *probed*: the loop body is
//! re-run from the pre-loop state for 1 and for 4 iterations, and any
//! variable or present-table entry on which the three final states
//! disagree is tainted — its post-loop value depends on the iteration
//! count, so nothing downstream may claim certainty from it.
//!
//! The output is a trace in the dynamic engine's own event model
//! ([`DataOpEvent`] / [`TargetEvent`], laid out the way
//! `odp_sim::Runtime` dispatches them), so the §5 detectors run over it
//! unchanged. What the abstraction decides is only *what the events
//! carry*: an event's id is its stream position `p`, its span is
//! `[2p+1, 2p+2]` (the directives the IR models are synchronous, so
//! stream order is timestamp order and no two events overlap), its
//! content hash is the interned token, and its addresses are injective
//! in the variable. What the event model has no column for — the
//! variable, the token, the certainty bit — rides beside each data op
//! as an `OpFacts` record.

use crate::ir::{Fires, Init, MapClause, MappingProgram, Step, TripCount, VarRef, WriteContent};
use odp_model::{
    CodePtr, DataOpEvent, DataOpKind, DeviceId, EventId, HashVal, SimTime, TargetEvent, TargetKind,
    TimeSpan,
};
use std::collections::{BTreeMap, BTreeSet};

/// How many iterations a data-dependent loop is symbolically unrolled.
/// Three is the smallest count that exhibits "repeats every iteration"
/// patterns (two duplicates, not one coincidence).
pub(crate) const DATA_DEPENDENT_UNROLL: u32 = 3;

/// A content pattern: the analyzer's stand-in for a buffer image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Pat {
    /// A deterministic initial-image pattern (normalized).
    Init(Init),
    /// The result of one specific kernel (or host) write — unequal to
    /// every other token by construction.
    Uniq(u64),
}

/// A content token: pattern plus buffer length. Equal tokens are
/// provably byte-identical buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Tok {
    /// The byte pattern.
    pub pat: Pat,
    /// Buffer length in bytes.
    pub len: u64,
}

/// What the analyzer knows about one data op beyond the event itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OpFacts {
    /// The variable moved/allocated.
    pub var: usize,
    /// Content carried (transfers only).
    pub tok: Option<Tok>,
    /// True when the event provably occurs with exactly this content in
    /// every execution of the program.
    pub certain: bool,
}

/// The event stream of one symbolic execution, in program
/// (= chronological) order.
#[derive(Clone, Debug, Default)]
pub(crate) struct AbsTrace {
    /// Data operations, ascending by id.
    pub ops: Vec<DataOpEvent>,
    /// Kernel executions, ascending by id (one id sequence with `ops`).
    pub kernels: Vec<TargetEvent>,
    /// `facts[i]` describes `ops[i]`.
    pub facts: Vec<OpFacts>,
    /// The runtime warnings (release/delete/update of absent data)
    /// encountered during symbolic execution.
    pub warnings: u32,
}

impl AbsTrace {
    /// Index into `ops`/`facts` of the data op with event id `id`.
    pub(crate) fn op_index(&self, id: EventId) -> Option<usize> {
        self.ops.binary_search_by_key(&id, |e| e.id).ok()
    }

    /// The facts of the data op with event id `id`.
    pub(crate) fn facts_of(&self, id: EventId) -> Option<&OpFacts> {
        self.facts.get(self.op_index(id)?)
    }
}

#[derive(Clone, PartialEq, Eq)]
struct VarContent {
    tok: Tok,
    /// Content depends on a data-dependent iteration count.
    tainted: bool,
}

#[derive(Clone, PartialEq, Eq)]
struct Entry {
    refcount: u32,
    tok: Tok,
    tainted: bool,
}

#[derive(Clone)]
struct State {
    host: Vec<VarContent>,
    dev: Vec<BTreeMap<usize, Entry>>,
    /// (device, var) pairs whose *residency* (presence/refcount) is
    /// iteration-count-dependent: every occurrence decision that reads
    /// the present table for them is uncertain. Monotone.
    res_taint: BTreeSet<(u32, usize)>,
    uniq: u64,
}

#[derive(Clone, Copy)]
struct LoopFrame {
    data_dependent: bool,
    is_last: bool,
}

struct Exec<'p> {
    p: &'p MappingProgram,
    st: State,
    trace: AbsTrace,
    /// Interned content tokens: equal tokens ⇔ equal [`HashVal`]s.
    hashes: BTreeMap<Tok, u64>,
    emit: bool,
    may_depth: u32,
    loop_stack: Vec<LoopFrame>,
}

/// Symbolically execute `p`, producing the event stream the detection
/// engine runs over. `p` must have passed [`MappingProgram::validate`].
pub(crate) fn abstract_run(p: &MappingProgram) -> AbsTrace {
    let host = p
        .vars
        .iter()
        .map(|v| VarContent {
            tok: Tok {
                pat: Pat::Init(v.init.normalize()),
                len: v.bytes as u64,
            },
            tainted: false,
        })
        .collect();
    let mut e = Exec {
        p,
        st: State {
            host,
            dev: vec![BTreeMap::new(); p.num_devices as usize],
            res_taint: BTreeSet::new(),
            uniq: 0,
        },
        trace: AbsTrace::default(),
        hashes: BTreeMap::new(),
        emit: true,
        may_depth: 0,
        loop_stack: Vec::new(),
    };
    e.steps(&p.steps);
    e.trace
}

impl<'p> Exec<'p> {
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
                for m in maps {
                    self.map_enter(*device, *m, *site);
                }
                self.steps(body);
                for m in maps.iter().rev() {
                    self.map_exit(*device, *m, *site);
                }
            }
            Step::EnterData { site, device, maps } => {
                for m in maps {
                    self.map_enter(*device, *m, *site);
                }
            }
            Step::ExitData { site, device, maps } => {
                // `target exit data` applies clauses in source order
                // (only structured regions unwind in reverse).
                for m in maps {
                    self.map_exit(*device, *m, *site);
                }
            }
            Step::UpdateTo { site, device, vars } => {
                for &v in vars {
                    if self.st.dev[*device as usize].contains_key(&v.0) {
                        self.h2d(*device, v, *site);
                    } else {
                        self.trace.warnings += 1;
                    }
                }
            }
            Step::UpdateFrom { site, device, vars } => {
                for &v in vars {
                    if self.st.dev[*device as usize].contains_key(&v.0) {
                        self.d2h(*device, v, *site);
                    } else {
                        self.trace.warnings += 1;
                    }
                }
            }
            Step::Target {
                site,
                device,
                maps,
                kernel,
            } => {
                let mut effective: Vec<MapClause> = maps.clone();
                for v in kernel.referenced() {
                    if !effective.iter().any(|m| m.var == v) {
                        effective.push(MapClause::tofrom(v));
                    }
                }
                for m in &effective {
                    self.map_enter(*device, *m, *site);
                }
                if self.emit {
                    let (id, span) = self.next_slot();
                    self.trace.kernels.push(TargetEvent {
                        id,
                        device: DeviceId::target(*device),
                        kind: TargetKind::Kernel,
                        span,
                        codeptr: CodePtr(*site),
                    });
                }
                let is_last = self.innermost_dd_is_last();
                for w in &kernel.writes {
                    if w.fires == Fires::OnAllButLastIteration && is_last {
                        continue;
                    }
                    let len = self.p.vars[w.var.0].bytes as u64;
                    let tok = self.content_tok(w.content, len);
                    // The effective map guarantees presence; content is
                    // now exactly the written token.
                    if let Some(e) = self.st.dev[*device as usize].get_mut(&w.var.0) {
                        e.tok = tok;
                        e.tainted = false;
                    }
                }
                for m in effective.iter().rev() {
                    self.map_exit(*device, *m, *site);
                }
            }
            Step::HostWrite { var, content } => {
                let len = self.p.vars[var.0].bytes as u64;
                let tok = self.content_tok(*content, len);
                self.st.host[var.0] = VarContent {
                    tok,
                    tainted: false,
                };
            }
            Step::Loop {
                trip: TripCount::Static(n),
                body,
            } => {
                for _ in 0..*n {
                    self.loop_stack.push(LoopFrame {
                        data_dependent: false,
                        is_last: false,
                    });
                    self.steps(body);
                    self.loop_stack.pop();
                }
            }
            Step::Loop {
                trip: TripCount::DataDependent { .. },
                body,
            } => {
                self.data_dependent(body);
            }
        }
    }

    fn data_dependent(&mut self, body: &[Step]) {
        let pre = self.st.clone();
        self.may_depth += 1;
        for i in 0..DATA_DEPENDENT_UNROLL {
            self.loop_stack.push(LoopFrame {
                data_dependent: true,
                is_last: i + 1 == DATA_DEPENDENT_UNROLL,
            });
            self.steps(body);
            self.loop_stack.pop();
        }
        self.may_depth -= 1;
        // Probe: the same loop run for 1 and 4 iterations from the same
        // pre-state. State the three runs agree on is iteration-count
        // independent and keeps its certainty; the rest is tainted.
        let one = self.probe(&pre, body, 1);
        let four = self.probe(&pre, body, 4);
        self.taint_divergent(&one, &four);
    }

    fn probe(&self, pre: &State, body: &[Step], iters: u32) -> State {
        let mut sub = Exec {
            p: self.p,
            st: pre.clone(),
            trace: AbsTrace::default(),
            hashes: BTreeMap::new(),
            emit: false,
            may_depth: self.may_depth + 1,
            loop_stack: self.loop_stack.clone(),
        };
        for i in 0..iters {
            sub.loop_stack.push(LoopFrame {
                data_dependent: true,
                is_last: i + 1 == iters,
            });
            sub.steps(body);
            sub.loop_stack.pop();
        }
        sub.st
    }

    fn taint_divergent(&mut self, one: &State, four: &State) {
        for v in 0..self.p.vars.len() {
            if one.host[v] != self.st.host[v] || four.host[v] != self.st.host[v] {
                self.st.host[v].tainted = true;
            }
        }
        for d in 0..self.p.num_devices {
            for v in 0..self.p.vars.len() {
                let b = self.st.dev[d as usize].get(&v);
                if one.dev[d as usize].get(&v) != b || four.dev[d as usize].get(&v) != b {
                    self.st.res_taint.insert((d, v));
                    if let Some(e) = self.st.dev[d as usize].get_mut(&v) {
                        e.tainted = true;
                    }
                }
            }
        }
        // Taints discovered by the probes themselves (nested loops)
        // propagate too.
        let extra: Vec<_> = one
            .res_taint
            .iter()
            .chain(four.res_taint.iter())
            .copied()
            .collect();
        self.st.res_taint.extend(extra);
    }

    fn innermost_dd_is_last(&self) -> bool {
        self.loop_stack
            .iter()
            .rev()
            .find(|f| f.data_dependent)
            .map(|f| f.is_last)
            .unwrap_or(false)
    }

    fn content_tok(&mut self, content: WriteContent, len: u64) -> Tok {
        let pat = match content {
            WriteContent::Unique => {
                self.st.uniq += 1;
                Pat::Uniq(self.st.uniq)
            }
            WriteContent::Byte(v) => Pat::Init(Init::Byte(v)),
            WriteContent::U32(v) => Pat::Init(Init::U32Affine { base: v, step: 0 }.normalize()),
        };
        Tok { pat, len }
    }

    // -- the runtime's primitives over tokens ------------------------

    fn base_certain(&self, device: u32, var: VarRef) -> bool {
        self.may_depth == 0 && !self.st.res_taint.contains(&(device, var.0))
    }

    fn h2d(&mut self, device: u32, var: VarRef, codeptr: u64) {
        let host = self.st.host[var.0].clone();
        let certain = self.base_certain(device, var) && !host.tainted;
        if let Some(e) = self.st.dev[device as usize].get_mut(&var.0) {
            e.tok = host.tok;
            e.tainted = host.tainted;
        }
        let facts = OpFacts {
            var: var.0,
            tok: Some(host.tok),
            certain,
        };
        let (src, dest) = (DeviceId::HOST, DeviceId::target(device));
        self.push_op(DataOpKind::Transfer, src, dest, codeptr, facts);
    }

    fn d2h(&mut self, device: u32, var: VarRef, codeptr: u64) {
        let (tok, tainted) = match self.st.dev[device as usize].get(&var.0) {
            Some(e) => (e.tok, e.tainted),
            None => return,
        };
        let res = self.st.res_taint.contains(&(device, var.0));
        self.st.host[var.0] = VarContent {
            tok,
            tainted: tainted || res,
        };
        let facts = OpFacts {
            var: var.0,
            tok: Some(tok),
            certain: self.may_depth == 0 && !res && !tainted,
        };
        let (src, dest) = (DeviceId::target(device), DeviceId::HOST);
        self.push_op(DataOpKind::Transfer, src, dest, codeptr, facts);
    }

    /// An alloc or delete: the host side is the source operand.
    fn alloc_op(&mut self, kind: DataOpKind, device: u32, var: VarRef, codeptr: u64) {
        let facts = OpFacts {
            var: var.0,
            tok: None,
            certain: self.base_certain(device, var),
        };
        let (src, dest) = (DeviceId::HOST, DeviceId::target(device));
        self.push_op(kind, src, dest, codeptr, facts);
    }

    /// Id and span of the next event: stream position `p`, `[2p+1, 2p+2]`.
    fn next_slot(&self) -> (EventId, TimeSpan) {
        let p = (self.trace.ops.len() + self.trace.kernels.len()) as u64;
        let span = TimeSpan::new(SimTime(2 * p + 1), SimTime(2 * p + 2));
        (EventId(p), span)
    }

    fn push_op(
        &mut self,
        kind: DataOpKind,
        src_device: DeviceId,
        dest_device: DeviceId,
        codeptr: u64,
        facts: OpFacts,
    ) {
        if !self.emit {
            return;
        }
        // Addresses only have to be injective in the variable (per
        // side): detection compares them, nothing else.
        let host_addr = (facts.var as u64 + 1) << 32;
        let addr = |d: DeviceId| host_addr | u64::from(d.is_target()) << 63;
        let fresh = self.hashes.len() as u64;
        let hash = facts
            .tok
            .map(|t| HashVal(*self.hashes.entry(t).or_insert(fresh)));
        let (id, span) = self.next_slot();
        self.trace.ops.push(DataOpEvent {
            id,
            kind,
            src_device,
            dest_device,
            src_addr: addr(src_device),
            dest_addr: addr(dest_device),
            bytes: self.p.vars[facts.var].bytes as u64,
            hash,
            span,
            codeptr: CodePtr(codeptr),
        });
        self.trace.facts.push(facts);
    }

    /// Write a clause's resulting reference count back: `None` removes
    /// the entry, and a new entry holds a zero-filled allocation.
    fn set_refcount(&mut self, device: u32, var: VarRef, refcount: Option<u32>) {
        let table = &mut self.st.dev[device as usize];
        let Some(refcount) = refcount else {
            table.remove(&var.0);
            return;
        };
        let pat = Pat::Init(Init::Byte(0));
        let tok = Tok {
            pat,
            len: self.p.vars[var.0].bytes as u64,
        };
        let fresh = Entry {
            refcount,
            tok,
            tainted: false,
        };
        table.entry(var.0).or_insert(fresh).refcount = refcount;
    }

    fn map_enter(&mut self, device: u32, m: MapClause, codeptr: u64) {
        let present = self.st.dev[device as usize].get(&m.var.0);
        let step = m.map_type.enter(present.map(|e| e.refcount), m.always);
        if step.absent {
            self.trace.warnings += 1;
            return;
        }
        if step.alloc {
            self.alloc_op(DataOpKind::Alloc, device, m.var, codeptr);
        }
        self.set_refcount(device, m.var, step.refcount);
        if step.to {
            self.h2d(device, m.var, codeptr);
        }
    }

    fn map_exit(&mut self, device: u32, m: MapClause, codeptr: u64) {
        let present = self.st.dev[device as usize].get(&m.var.0);
        let step = m.map_type.exit(present.map(|e| e.refcount), m.always);
        if step.absent {
            self.trace.warnings += 1;
            return;
        }
        if step.from {
            self.d2h(device, m.var, codeptr);
        }
        self.set_refcount(device, m.var, step.refcount);
        if step.free {
            self.alloc_op(DataOpKind::Delete, device, m.var, codeptr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelSpec, KernelWrite, VarDecl};
    use odp_model::MapType;
    use odp_ompt::{
        CallbackKind, DataOpCallback, DataOpType, Endpoint, RuntimeCapabilities, Tool,
        ToolRegistration,
    };
    use std::sync::{Arc, Mutex};

    fn prog(steps: Vec<Step>) -> MappingProgram {
        MappingProgram {
            name: "t".into(),
            num_devices: 1,
            vars: vec![
                VarDecl {
                    name: "x".into(),
                    bytes: 16,
                    init: Init::Byte(1),
                },
                VarDecl {
                    name: "y".into(),
                    bytes: 16,
                    init: Init::Byte(2),
                },
            ],
            steps,
            site_labels: BTreeMap::new(),
        }
    }

    /// One data op as the tests read it: the event's shape and its facts.
    struct Op {
        kind: &'static str,
        var: usize,
        codeptr: u64,
        tok: Option<Tok>,
        certain: bool,
    }

    fn ops(t: &AbsTrace) -> Vec<Op> {
        assert_eq!(t.ops.len(), t.facts.len());
        t.ops
            .iter()
            .zip(&t.facts)
            .map(|(e, f)| Op {
                kind: match e.kind {
                    DataOpKind::Transfer if e.is_host_to_device() => "h2d",
                    DataOpKind::Transfer => "d2h",
                    kind => kind.name(),
                },
                var: f.var,
                codeptr: e.codeptr.0,
                tok: f.tok,
                certain: f.certain,
            })
            .collect()
    }

    #[test]
    fn region_alloc_copy_unwind() {
        let p = prog(vec![Step::DataRegion {
            site: 1,
            device: 0,
            maps: vec![MapClause::tofrom(VarRef(0))],
            body: vec![],
        }]);
        p.validate().expect("valid");
        let t = abstract_run(&p);
        let o = ops(&t);
        let kinds: Vec<_> = o.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["alloc", "h2d", "d2h", "delete"]);
        assert!(o.iter().all(|e| e.certain));
        // Content unchanged on device: D2H carries the same token H2D sent.
        assert_eq!(o[1].tok, o[2].tok);
    }

    #[test]
    fn events_are_laid_out_as_the_runtime_dispatches_them() {
        let p = prog(vec![Step::Target {
            site: 7,
            device: 0,
            maps: vec![MapClause::tofrom(VarRef(1))],
            kernel: KernelSpec {
                name: "k".into(),
                reads: vec![VarRef(1)],
                writes: vec![],
            },
        }]);
        let t = abstract_run(&p);
        let [alloc, h2d, d2h, delete] = &t.ops[..] else {
            panic!("alloc, H2D, D2H, delete: {:?}", t.ops);
        };
        let kernel = &t.kernels[0];
        // One id sequence in stream order; spans follow it without overlap.
        let ids = [alloc.id, h2d.id, kernel.id, d2h.id, delete.id];
        assert_eq!(ids, [0, 1, 2, 3, 4].map(EventId));
        assert!(h2d.span.end < kernel.span.start && kernel.span.end < d2h.span.start);
        // Host side is the source operand, except on the way back.
        for e in [alloc, h2d, delete] {
            assert_eq!(
                (e.src_device, e.dest_device),
                (DeviceId::HOST, DeviceId::target(0))
            );
            assert_eq!((e.src_addr, e.dest_addr), (alloc.src_addr, alloc.dest_addr));
        }
        assert_eq!(
            (d2h.src_device, d2h.dest_device),
            (DeviceId::target(0), DeviceId::HOST)
        );
        assert_eq!((d2h.src_addr, d2h.dest_addr), (h2d.dest_addr, h2d.src_addr));
        // Equal tokens intern to equal hashes; allocs carry none.
        assert!(h2d.hash.is_some() && h2d.hash == d2h.hash);
        assert_eq!((alloc.hash, delete.hash), (None, None));
        assert_eq!(t.facts_of(d2h.id).map(|f| f.var), Some(1));
        assert!(t.facts_of(kernel.id).is_none());
        assert!(t
            .ops
            .iter()
            .all(|e| e.bytes == 16 && e.codeptr == CodePtr(7)));
    }

    #[test]
    fn nested_region_retains_without_transfers() {
        let p = prog(vec![Step::DataRegion {
            site: 1,
            device: 0,
            maps: vec![MapClause::to(VarRef(0))],
            body: vec![Step::DataRegion {
                site: 2,
                device: 0,
                maps: vec![MapClause::tofrom(VarRef(0))],
                body: vec![],
            }],
        }]);
        let t = abstract_run(&p);
        let o = ops(&t);
        // Outer: alloc+H2D ... inner: nothing (retain/release) ... outer: delete.
        assert_eq!(o.len(), 3);
        assert_eq!(o[2].kind, "delete");
    }

    #[test]
    fn kernel_write_changes_token() {
        let p = prog(vec![Step::Target {
            site: 1,
            device: 0,
            maps: vec![],
            kernel: KernelSpec {
                name: "k".into(),
                reads: vec![VarRef(0)],
                writes: vec![KernelWrite::unique(VarRef(0))],
            },
        }]);
        let t = abstract_run(&p);
        let o = ops(&t);
        // implicit tofrom: alloc, H2D, (kernel), D2H, delete.
        assert_eq!(o.len(), 4);
        assert_ne!(o[1].tok, o[2].tok, "kernel result is a fresh token");
        assert!(matches!(o[2].tok.unwrap().pat, Pat::Uniq(_)));
    }

    #[test]
    fn data_dependent_loop_events_are_uncertain() {
        let p = prog(vec![Step::Loop {
            trip: TripCount::DataDependent { executed: 2 },
            body: vec![Step::Target {
                site: 1,
                device: 0,
                maps: vec![MapClause::tofrom(VarRef(0))],
                kernel: KernelSpec {
                    name: "k".into(),
                    reads: vec![VarRef(0)],
                    writes: vec![],
                },
            }],
        }]);
        let t = abstract_run(&p);
        assert!(!ops(&t).is_empty());
        assert!(ops(&t).iter().all(|e| !e.certain));
    }

    #[test]
    fn loop_stable_state_stays_certain_after_loop() {
        // The loop only reads x; the post-loop D2H of x is still certain.
        let p = prog(vec![Step::DataRegion {
            site: 1,
            device: 0,
            maps: vec![MapClause::tofrom(VarRef(0))],
            body: vec![Step::Loop {
                trip: TripCount::DataDependent { executed: 2 },
                body: vec![Step::Target {
                    site: 2,
                    device: 0,
                    maps: vec![],
                    kernel: KernelSpec {
                        name: "k".into(),
                        reads: vec![VarRef(0)],
                        writes: vec![KernelWrite::unique(VarRef(1))],
                    },
                }],
            }],
        }]);
        let t = abstract_run(&p);
        let o = ops(&t);
        let d2h_x: Vec<_> = o.iter().filter(|e| e.kind == "d2h" && e.var == 0).collect();
        assert_eq!(d2h_x.len(), 1);
        assert!(d2h_x[0].certain, "x untouched by the loop stays certain");
    }

    #[test]
    fn loop_written_state_is_tainted_after_loop() {
        // The loop kernel-writes x with unique content; the post-loop
        // D2H of x depends on the iteration count.
        let p = prog(vec![Step::DataRegion {
            site: 1,
            device: 0,
            maps: vec![MapClause::tofrom(VarRef(0))],
            body: vec![Step::Loop {
                trip: TripCount::DataDependent { executed: 2 },
                body: vec![Step::Target {
                    site: 2,
                    device: 0,
                    maps: vec![],
                    kernel: KernelSpec {
                        name: "k".into(),
                        reads: vec![],
                        writes: vec![KernelWrite::unique(VarRef(0))],
                    },
                }],
            }],
        }]);
        let t = abstract_run(&p);
        let o = ops(&t);
        let d2h_x: Vec<_> = o
            .iter()
            .filter(|e| e.kind == "d2h" && e.var == 0 && e.codeptr == 1)
            .collect();
        assert_eq!(d2h_x.len(), 1);
        assert!(!d2h_x[0].certain, "loop-written content is tainted");
    }

    #[test]
    fn all_but_last_write_leaves_pre_loop_content_possible() {
        // x is written Byte(9) on all but the last iteration; with one
        // iteration the write never fires, so post-loop content is
        // iteration-count dependent → tainted.
        let p = prog(vec![
            Step::Loop {
                trip: TripCount::DataDependent { executed: 3 },
                body: vec![Step::Target {
                    site: 2,
                    device: 0,
                    maps: vec![MapClause::tofrom(VarRef(0))],
                    kernel: KernelSpec {
                        name: "k".into(),
                        reads: vec![],
                        writes: vec![KernelWrite {
                            var: VarRef(0),
                            content: WriteContent::Byte(9),
                            fires: Fires::OnAllButLastIteration,
                        }],
                    },
                }],
            },
            Step::UpdateTo {
                site: 3,
                device: 0,
                vars: vec![VarRef(0)],
            },
        ]);
        let t = abstract_run(&p);
        // The UpdateTo targets absent data (region closed) → warning,
        // but host content must be tainted either way.
        let o = ops(&t);
        let last_h2d = o.iter().rfind(|e| e.kind == "h2d").unwrap();
        assert!(!last_h2d.certain);
    }

    #[test]
    fn release_of_absent_data_warns_and_emits_nothing() {
        let p = prog(vec![Step::ExitData {
            site: 1,
            device: 0,
            maps: vec![MapClause::release(VarRef(0))],
        }]);
        let t = abstract_run(&p);
        assert_eq!(t.warnings, 1);
        assert!(ops(&t).is_empty());
    }

    /// Letter `k` of the 64-step alphabet over variable 0 on device 0:
    /// `enter data`, `exit data`, a data region, and `target` with and
    /// without a kernel write, each for all 6 map types × `always`; then
    /// an implicit-`tofrom` `target` with and without a write, `update
    /// to` and `update from`.
    fn letter(k: usize, site: u64) -> Step {
        const TYPES: [MapType; 6] = [
            MapType::To,
            MapType::From,
            MapType::ToFrom,
            MapType::Alloc,
            MapType::Release,
            MapType::Delete,
        ];
        let x = VarRef(0);
        let kernel = |write: bool| KernelSpec {
            name: "k".into(),
            reads: vec![x],
            writes: if write {
                vec![KernelWrite::unique(x)]
            } else {
                vec![]
            },
        };
        let device = 0;
        if k >= 60 {
            return match k {
                60 | 61 => Step::Target {
                    site,
                    device,
                    maps: vec![],
                    kernel: kernel(k == 61),
                },
                62 => Step::UpdateTo {
                    site,
                    device,
                    vars: vec![x],
                },
                _ => Step::UpdateFrom {
                    site,
                    device,
                    vars: vec![x],
                },
            };
        }
        let m = MapClause {
            var: x,
            map_type: TYPES[k % 6],
            always: k % 12 >= 6,
        };
        match k / 12 {
            0 => Step::EnterData {
                site,
                device,
                maps: vec![m],
            },
            1 => Step::ExitData {
                site,
                device,
                maps: vec![m],
            },
            2 => Step::DataRegion {
                site,
                device,
                maps: vec![m],
                body: vec![],
            },
            kind => Step::Target {
                site,
                device,
                maps: vec![m],
                kernel: kernel(kind == 4),
            },
        }
    }

    /// Records the kind and site of every data op the runtime reports.
    struct DataOps(Arc<Mutex<Vec<(&'static str, u64)>>>);

    impl Tool for DataOps {
        fn initialize(&mut self, caps: &RuntimeCapabilities) -> ToolRegistration {
            ToolRegistration::negotiate(&[CallbackKind::TargetDataOpEmi], caps)
        }

        fn on_data_op(&mut self, cb: &DataOpCallback<'_>) {
            use DataOpType as T;
            if cb.endpoint != Endpoint::End {
                return;
            }
            let kind = match cb.optype {
                T::Alloc => "alloc",
                T::TransferToDevice => "h2d",
                T::TransferFromDevice => "d2h",
                T::Delete => "delete",
                T::Associate | T::Disassociate => "associate",
            };
            self.0.lock().unwrap().push((kind, cb.codeptr_ra.0));
        }
    }

    /// Every program of one variable on one device up to three steps
    /// long, over the 64-step alphabet of [`letter`]: the abstract
    /// executor and the simulated runtime running the same program
    /// emit the same data ops at the same sites, in the same order, and
    /// record the same number of warnings.
    #[test]
    fn abstract_run_agrees_with_the_runtime_on_every_short_program() {
        let mut programs = 0u32;
        for len in 1..=3u32 {
            for word in 0..64usize.pow(len) {
                let steps = (0..len)
                    .map(|i| letter(word / 64usize.pow(i) % 64, u64::from(i) + 1))
                    .collect();
                let p = prog(steps);
                p.validate().expect("valid");
                let t = abstract_run(&p);
                let abstract_ops: Vec<(&str, u64)> =
                    ops(&t).iter().map(|o| (o.kind, o.codeptr)).collect();

                let seen = Arc::default();
                let mut rt = odp_sim::Runtime::with_defaults();
                rt.attach_tool(Box::new(DataOps(Arc::clone(&seen))));
                crate::lower::interpret(&p, &mut rt);
                let runtime_ops = seen.lock().unwrap().clone();
                assert_eq!(
                    (abstract_ops, t.warnings as usize),
                    (runtime_ops, rt.warnings().len()),
                    "{:?}",
                    p.steps
                );
                programs += 1;
            }
        }
        assert_eq!(programs, 64 + 64 * 64 + 64 * 64 * 64);
    }
}
