//! Property suite for the static analyzer's soundness contract: on
//! randomly generated mapping programs, every prediction the analyzer
//! tags `Certain` must be confirmed by the tool on the interpreted
//! execution (through `session::run`, the one run driver) — at the
//! same `(codeptr, device, kind)` key, with at least the proven
//! instance count — and where no control flow depends on data,
//! prediction and observation are equal.
//!
//! The generator deliberately restricts variable initializers and
//! kernel write contents to byte-fill patterns and unique images: for
//! those, abstract token equality coincides exactly with concrete byte
//! equality, which is the precondition the certainty bits rely on.
//! Structure is unrestricted within the IR's validity rules — nested
//! data regions, static and data-dependent loops, enter/exit pairs
//! (including deliberately unmatched ones that provoke runtime
//! warnings), updates, host writes, and multi-device programs.

use odp_model::MapType;
use odp_static::crosscheck::join;
use odp_static::ir::{
    walk, Fires, Init, KernelSpec, KernelWrite, MapClause, MappingProgram, Step, TripCount,
    VarDecl, VarRef, WriteContent,
};
use odp_static::{analyze, run_under_tool};
use ompdataperf::fleet::site_findings;
use proptest::prelude::*;
use std::collections::BTreeMap;

struct Gen {
    rng: TestRng,
    nvars: usize,
    ndev: u32,
    next_site: u64,
}

impl Gen {
    fn below(&mut self, bound: u64) -> u64 {
        self.rng.below(bound)
    }

    fn var(&mut self) -> VarRef {
        VarRef(self.below(self.nvars as u64) as usize)
    }

    fn device(&mut self) -> u32 {
        self.below(self.ndev as u64) as u32
    }

    fn site(&mut self) -> u64 {
        self.next_site += 1;
        self.next_site
    }

    fn clause(&mut self) -> MapClause {
        let var = self.var();
        let map_type = match self.below(7) {
            0..=2 => MapType::To,
            3 | 4 => MapType::ToFrom,
            5 => MapType::From,
            _ => MapType::Alloc,
        };
        MapClause {
            var,
            map_type,
            always: self.below(10) == 0,
        }
    }

    fn exit_clause(&mut self) -> MapClause {
        let var = self.var();
        let map_type = match self.below(5) {
            0 | 1 => MapType::From,
            2 | 3 => MapType::Release,
            _ => MapType::Delete,
        };
        MapClause {
            var,
            map_type,
            always: false,
        }
    }

    fn clauses(&mut self, min: u64, max: u64, exit: bool) -> Vec<MapClause> {
        let n = min + self.below(max - min + 1);
        (0..n)
            .map(|_| {
                if exit {
                    self.exit_clause()
                } else {
                    self.clause()
                }
            })
            .collect()
    }

    fn write(&mut self) -> KernelWrite {
        let var = self.var();
        let content = if self.below(3) < 2 {
            WriteContent::Unique
        } else {
            WriteContent::Byte(self.below(4) as u8)
        };
        KernelWrite {
            var,
            content,
            fires: Fires::Always,
        }
    }

    fn kernel(&mut self) -> KernelSpec {
        let reads = (0..self.below(3)).map(|_| self.var()).collect();
        let writes = (0..self.below(3)).map(|_| self.write()).collect();
        KernelSpec {
            name: "k".into(),
            reads,
            writes,
        }
    }

    fn vars_list(&mut self) -> Vec<VarRef> {
        (0..1 + self.below(2)).map(|_| self.var()).collect()
    }

    fn step(&mut self, depth: u32) -> Step {
        let branch = if depth == 0 { 6 } else { 8 };
        match self.below(branch) {
            0 | 1 => Step::Target {
                site: self.site(),
                device: self.device(),
                maps: self.clauses(0, 2, false),
                kernel: self.kernel(),
            },
            2 => Step::EnterData {
                site: self.site(),
                device: self.device(),
                maps: self.clauses(1, 2, false),
            },
            3 => Step::ExitData {
                site: self.site(),
                device: self.device(),
                maps: self.clauses(1, 2, true),
            },
            4 => {
                if self.below(2) == 0 {
                    Step::UpdateTo {
                        site: self.site(),
                        device: self.device(),
                        vars: self.vars_list(),
                    }
                } else {
                    Step::UpdateFrom {
                        site: self.site(),
                        device: self.device(),
                        vars: self.vars_list(),
                    }
                }
            }
            5 => Step::HostWrite {
                var: self.var(),
                content: WriteContent::Byte(self.below(4) as u8),
            },
            6 => Step::DataRegion {
                site: self.site(),
                device: self.device(),
                maps: self.clauses(1, 3, false),
                body: self.steps(depth - 1, 1, 3),
            },
            _ => {
                let trip = if self.below(3) < 2 {
                    TripCount::Static(1 + self.below(4) as u32)
                } else {
                    TripCount::DataDependent {
                        executed: 1 + self.below(5) as u32,
                    }
                };
                Step::Loop {
                    trip,
                    body: self.steps(depth - 1, 1, 3),
                }
            }
        }
    }

    fn steps(&mut self, depth: u32, min: u64, max: u64) -> Vec<Step> {
        let n = min + self.below(max - min + 1);
        (0..n).map(|_| self.step(depth)).collect()
    }
}

fn gen_program(seed: u64) -> MappingProgram {
    let mut rng = TestRng::seeded(seed);
    let nvars = 1 + rng.below(3) as usize;
    let ndev = 1 + rng.below(2) as u32;
    let mut g = Gen {
        rng,
        nvars,
        ndev,
        next_site: 0,
    };
    let vars = (0..nvars)
        .map(|i| VarDecl {
            name: format!("v{i}"),
            bytes: 8 + g.below(57) as usize,
            init: Init::Byte(g.below(4) as u8),
        })
        .collect();
    let steps = g.steps(2, 1, 5);
    MappingProgram {
        name: format!("prop(seed={seed})"),
        num_devices: ndev,
        vars,
        steps,
        site_labels: BTreeMap::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The soundness contract: no `Certain` prediction is refuted by
    /// the dynamic engine on the lowered program.
    #[test]
    fn certain_predictions_are_dynamically_confirmed(seed in 0u64..u64::MAX) {
        let p = gen_program(seed);
        p.validate().expect("generated programs are valid by construction");
        let report = analyze(&p);
        let sites = site_findings(&run_under_tool(&p).report.findings);
        let check = join(&p, &report, &sites);
        prop_assert!(
            check.summary.certain_precision_is_total(),
            "seed {}: refuted Certain prediction(s):\n{}\nstatic: {:#?}",
            seed,
            check.render(&p),
            report,
        );
    }

    /// Exactness where nothing depends on data: without a
    /// data-dependent loop the abstract execution *is* the execution,
    /// so the static rows equal the dynamic sites — instance counts and
    /// wasted bytes included — and every instance is certain. This is
    /// the direct check that the symbolic present table and
    /// `sim::Runtime`'s agree; both sides detect through one engine, so
    /// a difference can only come from the abstraction.
    #[test]
    fn without_data_dependent_loops_static_equals_dynamic(seed in 0u64..u64::MAX) {
        let p = gen_program(seed);
        let data_dependent = |s: &Step| {
            matches!(s, Step::Loop { trip: TripCount::DataDependent { .. }, .. })
        };
        if !walk(&p.steps).any(data_dependent) {
            let report = analyze(&p);
            let predicted: Vec<_> = report
                .rows
                .iter()
                .map(|r| (r.codeptr, r.device, r.kind, r.count, r.bytes))
                .collect();
            let observed: Vec<_> = site_findings(&run_under_tool(&p).report.findings)
                .iter()
                .map(|s| (s.codeptr, s.device, s.kind, s.count, s.bytes))
                .collect();
            prop_assert_eq!(&predicted, &observed, "seed {}", seed);
            prop_assert!(
                report.rows.iter().all(|r| r.certain_count == r.count),
                "seed {}: uncertain instance without data-dependent control flow: {:#?}",
                seed,
                report.rows,
            );
        }
    }

    /// The analyzer and the abstract executor never panic, and a
    /// statically-warning-free program lowers onto the runtime without
    /// warnings either (the symbolic present-table mirrors the real one).
    #[test]
    fn warning_free_static_means_warning_free_dynamic(seed in 0u64..u64::MAX) {
        let p = gen_program(seed);
        let report = analyze(&p);
        let run = run_under_tool(&p);
        if report.warnings == 0 {
            prop_assert!(
                run.warnings.is_empty(),
                "seed {seed}: static saw no warnings but runtime reported {:?}",
                run.warnings,
            );
        }
    }
}
