//! Synthetic-issue injectors (§7.5: "For the benchmarks that were already
//! well optimized, we injected artificial issues meant to mimic common
//! inefficiencies ... that a programmer may stumble into around key
//! kernels").
//!
//! Each injector produces *exactly* `n` issues of its category and — by
//! construction — zero issues of the other four, so Table 1's "(syn)"
//! rows compose additively. Passing `fixed = true` runs the same kernel
//! scaffolding with efficient mappings (zero issues): that is the
//! "after" side of the Figure 4 speedup measurement for synthetic
//! programs, where fixing an issue removes the redundant data management
//! but keeps the computation.

use crate::ProblemSize;
use odp_model::MapType;
use odp_sim::{map, Kernel, KernelCost, Runtime};
use ompdataperf::attrib::SourceFile;

/// Tiny kernel cost for injection scaffolding.
fn tick() -> KernelCost {
    KernelCost::fixed(2_000)
}

/// Inject exactly `n` duplicate data transfers (DD), or the repaired
/// equivalent when `fixed`.
pub(crate) fn duplicates(
    rt: &mut Runtime,
    sf: &mut SourceFile<'_>,
    dev: u32,
    n: usize,
    salt: u8,
    fixed: bool,
) {
    let v = rt.host_alloc("syn_dup", 512);
    rt.host_bytes_mut(v).fill(salt ^ 0x5D);
    let cp_region = sf.line(900, "inject_duplicates");
    let cp_kernel = sf.line(901, "inject_duplicates");
    let region = rt.target_data_begin(dev, cp_region, &[map(MapType::To, v)]);
    // Head kernel consumes the region-entry transfer (else Algorithm 5
    // would see it overwritten by the first `always` copy → spurious UT).
    rt.target(
        dev,
        cp_kernel,
        &[map(MapType::To, v)],
        Kernel::new("syn_dup_head", tick()).reads(&[v]),
    );
    for _ in 0..n {
        // `map(always, to: v)` re-transfers unchanged content; the fixed
        // program drops the modifier and reuses the present copy.
        let m = if fixed {
            map(MapType::To, v)
        } else {
            odp_sim::map_always(MapType::To, v)
        };
        rt.target(
            dev,
            cp_kernel,
            &[m],
            Kernel::new("syn_dup_kernel", tick()).reads(&[v]),
        );
    }
    rt.target_data_end(region);
}

/// Inject exactly `n` round-trip transfers (RT), or the repaired
/// equivalent when `fixed`.
pub(crate) fn round_trips(
    rt: &mut Runtime,
    sf: &mut SourceFile<'_>,
    dev: u32,
    n: usize,
    salt: u8,
    fixed: bool,
) {
    let v = rt.host_alloc("syn_rt", 256);
    rt.host_bytes_mut(v).fill(salt ^ 0xA7);
    let cp_region = sf.line(910, "inject_round_trips");
    let cp_kernel = sf.line(911, "inject_round_trips");
    let cp_from = sf.line(912, "inject_round_trips");
    let cp_to = sf.line(913, "inject_round_trips");
    // `to:` only — a `tofrom` region-end copy would re-deliver the last
    // `update from` content to the host and register as a duplicate.
    let region = rt.target_data_begin(dev, cp_region, &[map(MapType::To, v)]);
    for _ in 0..n {
        // Kernel mutates v on the device → fresh content this iteration.
        rt.target(
            dev,
            cp_kernel,
            &[map(MapType::To, v)],
            Kernel::new("syn_rt_kernel", tick())
                .reads(&[v])
                .writes(&[v]),
        );
        if !fixed {
            rt.target_update_from(dev, cp_from, &[v]); // D2H of content h_i
            rt.target_update_to(dev, cp_to, &[v]); // H2D of identical h_i → RT
        }
    }
    // Final kernel so the trailing `update to` is consumed (no UT).
    rt.target(
        dev,
        cp_kernel,
        &[map(MapType::To, v)],
        Kernel::new("syn_rt_tail", tick()).reads(&[v]),
    );
    rt.target_data_end(region);
}

/// Inject exactly `n` repeated device memory allocations (RA), or the
/// repaired equivalent when `fixed`.
pub(crate) fn reallocs(rt: &mut Runtime, sf: &mut SourceFile<'_>, dev: u32, n: usize, fixed: bool) {
    let v = rt.host_alloc("syn_ra", 1024);
    let cp_enter = sf.line(920, "inject_reallocs");
    let cp_kernel = sf.line(921, "inject_reallocs");
    let cp_exit = sf.line(922, "inject_reallocs");
    if fixed {
        rt.target_enter_data(dev, cp_enter, &[map(MapType::Alloc, v)]);
    }
    for _ in 0..n + 1 {
        if !fixed {
            rt.target_enter_data(dev, cp_enter, &[map(MapType::Alloc, v)]);
        }
        rt.target(
            dev,
            cp_kernel,
            &[map(MapType::To, v)],
            Kernel::new("syn_ra_kernel", tick()).writes(&[v]),
        );
        if !fixed {
            rt.target_exit_data(dev, cp_exit, &[map(MapType::Delete, v)]);
        }
    }
    if fixed {
        rt.target_exit_data(dev, cp_exit, &[map(MapType::Delete, v)]);
    }
}

/// Inject exactly `n` unused device memory allocations (UA), or nothing
/// but the anchor kernels when `fixed`.
pub(crate) fn unused_allocs(
    rt: &mut Runtime,
    sf: &mut SourceFile<'_>,
    dev: u32,
    n: usize,
    fixed: bool,
) {
    let cp_kernel = sf.line(930, "inject_unused_allocs");
    let cp_enter = sf.line(931, "inject_unused_allocs");
    let cp_exit = sf.line(932, "inject_unused_allocs");
    // Two distinct anchors with distinct content: a shared anchor would
    // be reallocated (RA) and identical contents would hash equal (DD).
    let head = rt.host_alloc("syn_ua_head_anchor", 64);
    rt.host_bytes_mut(head).fill(0x11);
    let tail = rt.host_alloc("syn_ua_tail_anchor", 64);
    rt.host_bytes_mut(tail).fill(0x22);
    // Leading kernel so the allocations sit strictly between kernels.
    rt.target(
        dev,
        cp_kernel,
        &[map(MapType::To, head)],
        Kernel::new("syn_ua_head", tick()).reads(&[head]),
    );
    if !fixed {
        for i in 0..n {
            let v = rt.host_alloc(&format!("syn_ua_{i}"), 128);
            rt.target_enter_data(dev, cp_enter, &[map(MapType::Alloc, v)]);
            rt.target_exit_data(dev, cp_exit, &[map(MapType::Delete, v)]);
        }
    }
    rt.target(
        dev,
        cp_kernel,
        &[map(MapType::To, tail)],
        Kernel::new("syn_ua_tail", tick()).reads(&[tail]),
    );
}

/// Inject exactly `n` unused data transfers (UT), or the repaired
/// single-transfer equivalent when `fixed`.
pub(crate) fn unused_transfers(
    rt: &mut Runtime,
    sf: &mut SourceFile<'_>,
    dev: u32,
    n: usize,
    salt: u8,
    fixed: bool,
) {
    let v = rt.host_alloc("syn_ut", 256);
    let cp_region = sf.line(940, "inject_unused_transfers");
    let cp_to = sf.line(941, "inject_unused_transfers");
    let cp_kernel = sf.line(942, "inject_unused_transfers");
    let region = rt.target_data_begin(dev, cp_region, &[map(MapType::Alloc, v)]);
    let mut stamp = salt as u32;
    for _ in 0..n {
        if !fixed {
            stamp = stamp.wrapping_mul(0x9E37_79B9).wrapping_add(1);
            let s1 = stamp;
            rt.host_fill_u32(v, |i| s1.wrapping_add(i as u32));
            rt.target_update_to(dev, cp_to, &[v]); // overwritten before use → UT
        }
        stamp = stamp.wrapping_mul(0x85EB_CA6B).wrapping_add(3);
        let s2 = stamp;
        rt.host_fill_u32(v, |i| s2.wrapping_add(i as u32) ^ 0xDEAD);
        rt.target_update_to(dev, cp_to, &[v]); // consumed by the kernel
        rt.target(
            dev,
            cp_kernel,
            &[map(MapType::To, v)],
            Kernel::new("syn_ut_kernel", tick()).reads(&[v]),
        );
    }
    rt.target_data_end(region);
}

/// A bundle of per-category injection counts (a Table 1 "(syn)" delta).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct InjectionPlan {
    /// Duplicate transfers to inject.
    pub dd: usize,
    /// Round trips to inject.
    pub rt: usize,
    /// Repeated allocations to inject.
    pub ra: usize,
    /// Unused allocations to inject.
    pub ua: usize,
    /// Unused transfers to inject.
    pub ut: usize,
}

impl InjectionPlan {
    /// This Medium-size plan at `size`, scaled the way the paper's
    /// injections scale with the program's key-kernel count: Small
    /// divides every count by `small_divisor`, Large doubles it. A
    /// count rounds up, so one that is not zero stays so.
    pub(crate) fn at_size(self, size: ProblemSize, small_divisor: usize) -> InjectionPlan {
        let (num, den) = match size {
            ProblemSize::Small => (1, small_divisor),
            ProblemSize::Medium => (1, 1),
            ProblemSize::Large => (2, 1),
        };
        let s = |v: usize| (v * num).div_ceil(den).max(usize::from(v > 0));
        InjectionPlan {
            dd: s(self.dd),
            rt: s(self.rt),
            ra: s(self.ra),
            ua: s(self.ua),
            ut: s(self.ut),
        }
    }

    /// Run every injector in a deterministic order.
    pub(crate) fn apply(self, rt: &mut Runtime, sf: &mut SourceFile<'_>, dev: u32, fixed: bool) {
        if self.dd > 0 {
            duplicates(rt, sf, dev, self.dd, 0x31, fixed);
        }
        if self.rt > 0 {
            round_trips(rt, sf, dev, self.rt, 0x47, fixed);
        }
        if self.ra > 0 {
            reallocs(rt, sf, dev, self.ra, fixed);
        }
        if self.ua > 0 {
            unused_allocs(rt, sf, dev, self.ua, fixed);
        }
        if self.ut > 0 {
            unused_transfers(rt, sf, dev, self.ut, 0x63, fixed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompdataperf::attrib::DebugInfo;
    use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};

    fn counts_after(f: impl FnOnce(&mut Runtime, &mut SourceFile<'_>)) -> ompdataperf::IssueCounts {
        let mut rt = Runtime::with_defaults();
        let (tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
        rt.attach_tool(Box::new(tool));
        let mut dbg = DebugInfo::new();
        let mut sf = SourceFile::new(&mut dbg, "inject_test.c", 0x9000_0000);
        f(&mut rt, &mut sf);
        rt.finish();
        let trace = handle.take_trace();
        ompdataperf::analyze(&trace, None).counts
    }

    #[test]
    fn duplicates_are_pure() {
        let c = counts_after(|rt, sf| duplicates(rt, sf, 0, 7, 1, false));
        assert_eq!(
            c,
            ompdataperf::IssueCounts {
                dd: 7,
                ..Default::default()
            }
        );
    }

    #[test]
    fn round_trips_are_pure() {
        let c = counts_after(|rt, sf| round_trips(rt, sf, 0, 5, 2, false));
        assert_eq!(
            c,
            ompdataperf::IssueCounts {
                rt: 5,
                ..Default::default()
            }
        );
    }

    #[test]
    fn reallocs_are_pure() {
        let c = counts_after(|rt, sf| reallocs(rt, sf, 0, 9, false));
        assert_eq!(
            c,
            ompdataperf::IssueCounts {
                ra: 9,
                ..Default::default()
            }
        );
    }

    #[test]
    fn unused_allocs_are_pure() {
        let c = counts_after(|rt, sf| unused_allocs(rt, sf, 0, 4, false));
        assert_eq!(
            c,
            ompdataperf::IssueCounts {
                ua: 4,
                ..Default::default()
            }
        );
    }

    #[test]
    fn unused_transfers_are_pure() {
        let c = counts_after(|rt, sf| unused_transfers(rt, sf, 0, 6, 3, false));
        assert_eq!(
            c,
            ompdataperf::IssueCounts {
                ut: 6,
                ..Default::default()
            }
        );
    }

    #[test]
    fn injectors_compose_additively() {
        let plan = InjectionPlan {
            dd: 3,
            rt: 2,
            ra: 4,
            ua: 1,
            ut: 5,
        };
        let c = counts_after(|rt, sf| plan.apply(rt, sf, 0, false));
        assert_eq!(
            c,
            ompdataperf::IssueCounts {
                dd: 3,
                rt: 2,
                ra: 4,
                ua: 1,
                ut: 5,
            }
        );
    }

    #[test]
    fn fixed_mode_is_issue_free() {
        let plan = InjectionPlan {
            dd: 3,
            rt: 2,
            ra: 4,
            ua: 1,
            ut: 5,
        };
        let c = counts_after(|rt, sf| plan.apply(rt, sf, 0, true));
        assert!(c.is_clean(), "{c:?}");
    }

    #[test]
    fn plan_scaling() {
        let m = InjectionPlan {
            dd: 10,
            rt: 4,
            ra: 0,
            ua: 1,
            ut: 3,
        };
        let s = m.at_size(ProblemSize::Small, 2);
        assert_eq!(s.dd, 5);
        assert_eq!(s.rt, 2);
        assert_eq!(s.ra, 0, "zero stays zero");
        assert_eq!(s.ua, 1);
        assert_eq!(s.ut, 2);
        assert_eq!(m.at_size(ProblemSize::Small, 4).dd, 3);
        assert_eq!(m.at_size(ProblemSize::Medium, 2).rt, 4);
        let l = m.at_size(ProblemSize::Large, 2);
        assert_eq!(l.dd, 20);
    }
}
