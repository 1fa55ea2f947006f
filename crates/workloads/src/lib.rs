//! # odp-workloads — the paper's evaluation programs
//!
//! Each benchmark from §7.2 is re-implemented against the simulated
//! OpenMP offload runtime with the *data-mapping structure* of the real
//! program — including every inefficiency the paper reports in Table 1 —
//! and real (scaled-down) numerics inside kernels so transfer payloads
//! evolve honestly.
//!
//! Three variants exist per program (where the paper evaluates them):
//!
//! * [`Variant::Original`] — the shipped mapping structure, with its
//!   inefficiencies;
//! * [`Variant::Fixed`] — the paper's §7.5 fixes applied;
//! * [`Variant::Synthetic`] — the paper's injected artificial issues
//!   (Table 1's "(syn)" rows).
//!
//! Table 5's input strings are preserved verbatim for reporting; the
//! internal problem scales are reduced so the whole suite runs in
//! seconds on a laptop.
//!
//! Running one of them under the tool goes through [`session::run`]:
//! a [`session::RunSpec`] (size, variant, threads, tool and runtime
//! configuration, [`adaptive::Remedy`]) in, a [`session::RunOutcome`]
//! (report, trace, health, remediation accounting, stats) out. It is
//! the only place that forks tool shards, builds runtimes and attaches
//! advisors; [`capture`] snapshots such a run for the corpus tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod adaptive;
pub(crate) mod babelstream;
pub(crate) mod bfs;
pub mod capture;
pub(crate) mod hecbench;
pub(crate) mod hotspot;
pub(crate) mod inject;
pub(crate) mod lud;
pub(crate) mod minife;
pub(crate) mod minifmm;
pub(crate) mod nw;
pub(crate) mod rsbench;
pub mod session;
pub(crate) mod tealeaf;
pub mod threaded;
pub(crate) mod xsbench;

#[cfg(test)]
mod tests_variants;

use odp_sim::Runtime;
use ompdataperf::attrib::DebugInfo;

/// Problem size selector (Table 5 columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemSize {
    /// The paper's Small input.
    Small,
    /// The paper's Medium input (Table 1 counts are for this size).
    Medium,
    /// The paper's Large input.
    Large,
}

impl ProblemSize {
    /// All sizes.
    pub const ALL: [ProblemSize; 3] = [ProblemSize::Small, ProblemSize::Medium, ProblemSize::Large];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProblemSize::Small => "Small",
            ProblemSize::Medium => "Medium",
            ProblemSize::Large => "Large",
        }
    }

    /// Index 0/1/2.
    pub fn index(self) -> usize {
        match self {
            ProblemSize::Small => 0,
            ProblemSize::Medium => 1,
            ProblemSize::Large => 2,
        }
    }
}

/// Program variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The shipped program.
    Original,
    /// With the paper's fixes applied (§7.5).
    Fixed,
    /// With the paper's synthetic issues injected (Table 1 "(syn)").
    Synthetic,
    /// The synthetic program with its injected issues repaired (same
    /// kernels, efficient mappings) — the "after" side of Figure 4 for
    /// programs whose only issues were injected.
    SynFixed,
}

impl Variant {
    /// Display suffix as used in Table 1.
    pub fn suffix(self) -> &'static str {
        match self {
            Variant::Original => "",
            Variant::Fixed => " (fix)",
            Variant::Synthetic => " (syn)",
            Variant::SynFixed => " (syn-fix)",
        }
    }
}

/// A benchmark program.
pub trait Workload: Send + Sync {
    /// Program name (Table 1/5 row).
    fn name(&self) -> &'static str;

    /// Application domain (Table 5).
    fn domain(&self) -> &'static str;

    /// The paper's input string for `size` (Table 5, verbatim).
    fn paper_input(&self, size: ProblemSize) -> &'static str;

    /// Does the paper evaluate this variant for this program?
    fn supports(&self, variant: Variant) -> bool {
        variant == Variant::Original
    }

    /// Can this program run its offload pattern from several host
    /// threads at once (`--threads N`)? Threaded workloads must be
    /// deterministic per thread: each host thread drives its own data
    /// environment with the same directive structure, which is how the
    /// multi-threaded collection path gets exercised end to end.
    fn supports_threads(&self) -> bool {
        false
    }

    /// The (before, after) variant pair this program contributes to the
    /// predicted-vs-actual speedup experiment (Figure 4), if any.
    fn fig4_pair(&self) -> Option<(Variant, Variant)> {
        None
    }

    /// Execute the program against `rt`, returning its debug info
    /// (the "-g" compilation) for source attribution.
    fn run(&self, rt: &mut Runtime, size: ProblemSize, variant: Variant) -> DebugInfo;
}

/// The ten benchmarks of §7.2, Table 1 order.
pub fn paper_benchmarks() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(babelstream::BabelStream),
        Box::new(bfs::Bfs),
        Box::new(hotspot::Hotspot),
        Box::new(lud::Lud),
        Box::new(minife::MiniFe),
        Box::new(minifmm::MiniFmm),
        Box::new(nw::Nw),
        Box::new(rsbench::RsBench),
        Box::new(tealeaf::TeaLeaf),
        Box::new(xsbench::XsBench),
    ]
}

/// The five HeCBench programs of §7.7, Table 2 order.
pub fn hecbench_programs() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(hecbench::resize::Resize),
        Box::new(hecbench::mandelbrot::Mandelbrot),
        Box::new(hecbench::accuracy::Accuracy),
        Box::new(hecbench::lif::Lif),
        Box::new(hecbench::bspline::BsplineVgh),
    ]
}

/// Every workload.
pub fn all() -> Vec<Box<dyn Workload>> {
    let mut v = paper_benchmarks();
    v.extend(hecbench_programs());
    v
}

/// Find a workload by (case-insensitive) name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_paper_benchmarks_in_table_order() {
        let names: Vec<_> = paper_benchmarks().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "babelstream",
                "bfs",
                "hotspot",
                "lud",
                "minife",
                "minifmm",
                "nw",
                "rsbench",
                "tealeaf",
                "xsbench"
            ]
        );
    }

    #[test]
    fn five_hecbench_programs() {
        let names: Vec<_> = hecbench_programs().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "resize-omp",
                "mandelbrot-omp",
                "accuracy-omp",
                "lif-omp",
                "bspline-vgh-omp"
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("bfs").is_some());
        assert!(by_name("BFS").is_some());
        assert!(by_name("bspline-vgh-omp").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn every_workload_has_three_paper_inputs() {
        for w in all() {
            for s in ProblemSize::ALL {
                assert!(!w.paper_input(s).is_empty(), "{} {:?}", w.name(), s);
            }
        }
    }

    #[test]
    fn variant_support_matches_table1() {
        let fixed: Vec<_> = all()
            .iter()
            .filter(|w| w.supports(Variant::Fixed))
            .map(|w| w.name().to_string())
            .collect();
        assert!(fixed.contains(&"bfs".to_string()));
        assert!(fixed.contains(&"minife".to_string()));
        assert!(fixed.contains(&"rsbench".to_string()));
        assert!(fixed.contains(&"xsbench".to_string()));
        let syn: Vec<_> = all()
            .iter()
            .filter(|w| w.supports(Variant::Synthetic))
            .map(|w| w.name().to_string())
            .collect();
        for expect in ["babelstream", "hotspot", "lud", "minifmm", "nw", "tealeaf"] {
            assert!(syn.contains(&expect.to_string()), "{expect} missing (syn)");
        }
    }
}
