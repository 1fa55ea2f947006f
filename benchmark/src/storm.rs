//! The seeded synthetic map-storm program.
//!
//! A program written against the public `odp_sim::Runtime` API only:
//! [`THREADS`] host threads (via `odp_sim::run_on_threads`), each
//! issuing a seeded stream of `target` / `target data` / `target
//! enter`·`exit data` / `target update` regions over its own
//! [`ARRAYS_PER_THREAD`] distinct [`ARRAY_BYTES`]-byte arrays on its
//! own pair of devices. Payloads are tiny on purpose: hashing does
//! almost nothing here, so the per-event machinery (callback, ring,
//! reorder, hydration, index, sweeps, section building) is what the
//! storm workloads time.
//!
//! `run_on_threads` gives every thread a private runtime whose host
//! heap and device allocators start at the same addresses, and the
//! collector merges the threads into one trace. Thread `t` therefore
//! pads its host heap by `t` thread-footprints and drives devices
//! `2t` and `2t + 1` only — otherwise the merged trace would alias
//! unrelated arrays and the alloc/delete pairing would pair across
//! threads, which no real program's trace does.
//!
//! The seed drives the generator only (array choice, content stamps,
//! region-kind draw); the tool and the simulator receive nothing but
//! the generated program.

use odp_model::{CodePtr, MapType};
use odp_ompt::{NullTool, Tool};
use odp_sim::{map, run_on_threads, Kernel, KernelCost, Runtime, RuntimeConfig, VarId};
use ompdataperf::attrib::DebugInfo;

/// Host threads (= tool shards) the storm runs on.
pub const THREADS: u32 = 2;
/// Devices each thread drives.
pub const DEVICES_PER_THREAD: u32 = 2;
/// Distinct arrays per thread.
pub const ARRAYS_PER_THREAD: usize = 2048;
/// Bytes per array.
pub const ARRAY_BYTES: usize = 256;
/// Arrays `0..RESIDENT` of each thread stay mapped for the whole run
/// (entered in the prologue, migrated between the thread's devices,
/// exited in the epilogue); the rest are mapped per region.
const RESIDENT: usize = 1024;
/// Regions per thread of the full-size storm (`storm_*` workloads).
pub const FULL_REGIONS: usize = 184_000;

const CODE_BASE: u64 = 0x51_0000;
/// Call sites per region kind: each kind's regions are spread over
/// this many code pointers, so reports and fleet rollups see tens of
/// sites, not one.
const SITES_PER_KIND: u64 = 8;
const KERNEL_COST_NS: u64 = 2_000;
/// The two call sites after the last region kind's.
const PROLOGUE_SITE: u8 = (MIX.len() as u64 * SITES_PER_KIND) as u8;
const EPILOGUE_SITE: u8 = PROLOGUE_SITE + 1;

/// What one generated region does. The generator tracks every array's
/// state, so each kind is clean or inefficient *by construction*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `target` writing a resident array: no data motion.
    Kernel,
    /// Host writes the array, then `target update to`.
    UpdateToFresh,
    /// `target update from` after a kernel wrote the array.
    UpdateFrom,
    /// `target map(tofrom:)` of 1–3 unmapped arrays, fresh in, written.
    TargetFresh,
    /// `target data map(tofrom:)` around a writing `target`.
    DataRegion,
    /// `exit data map(from:)` on one device, `enter data map(to:)` on
    /// the thread's other device (two regions).
    Migrate,
    /// `target update to` of content the device already holds.
    StaleUpdateTo,
    /// `target update from` of content the host already holds.
    StaleUpdateFrom,
    /// `target map(tofrom:)` whose kernel only reads: the copy-back
    /// returns what was sent.
    TargetReadOnly,
    /// `target data map(alloc:)` with no kernel inside.
    UnusedAlloc,
    /// Two `target update to` of fresh content back to back (two
    /// regions): the first is overwritten before any kernel runs.
    OverwrittenUpdate,
}

/// The frozen region mix (weights sum to 100). Tuned once so that all
/// five finding kinds occur and 20–30 % of the events land in a
/// finding; see README.md before changing it — every pinned count and
/// every recorded baseline depends on it.
const MIX: [(Kind, u32); 11] = [
    (Kind::Kernel, 26),
    (Kind::UpdateToFresh, 22),
    (Kind::UpdateFrom, 18),
    (Kind::TargetFresh, 8),
    (Kind::DataRegion, 6),
    (Kind::Migrate, 4),
    (Kind::StaleUpdateTo, 4),
    (Kind::StaleUpdateFrom, 3),
    (Kind::TargetReadOnly, 3),
    (Kind::UnusedAlloc, 3),
    (Kind::OverwrittenUpdate, 3),
];

/// One directive of the generated program (what the interpreter
/// executes; several may make up one drawn [`Kind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Stamp fresh content into the host copy (no directive).
    HostWrite {
        arr: u16,
        stamp: u64,
    },
    /// `target` over present arrays; the kernel writes `arr`.
    Kernel {
        site: u8,
        dev: u8,
        arr: u16,
    },
    UpdateTo {
        site: u8,
        dev: u8,
        arr: u16,
    },
    UpdateFrom {
        site: u8,
        dev: u8,
        arr: u16,
    },
    /// `target map(tofrom: arrs[..n])`; the kernel writes or only reads.
    Target {
        site: u8,
        dev: u8,
        arrs: [u16; 3],
        n: u8,
        writes: bool,
    },
    /// `target data map(tofrom: arr)` around a writing `target`, or
    /// `target data map(alloc: arr)` around nothing.
    DataRegion {
        site: u8,
        dev: u8,
        arr: u16,
        alloc_only: bool,
    },
    Enter {
        site: u8,
        dev: u8,
        arr: u16,
    },
    Exit {
        site: u8,
        dev: u8,
        arr: u16,
    },
}

/// How a resident array's device copy relates to its host copy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sync {
    /// Both hold the same bytes (after any transfer either way).
    Same,
    /// A kernel wrote the device copy since the last transfer.
    DeviceNewer,
}

#[derive(Clone, Copy)]
struct Resident {
    /// Thread-local device (0 or 1) the array is mapped on.
    dev: u8,
    sync: Sync,
}

/// SplitMix64: the benchmark's only random source.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct ThreadProgram {
    content_seed: u64,
    ops: Vec<Op>,
}

/// A generated storm program: per-thread directive lists plus the
/// debug info of its call sites.
pub struct StormProgram {
    threads: Vec<ThreadProgram>,
    site_shift: u64,
    debug_info: DebugInfo,
}

fn site_codeptr(site: u8, site_shift: u64) -> CodePtr {
    CodePtr(CODE_BASE + (u64::from(site) + site_shift) * 0x10)
}

fn kind_site(kind: Kind, rng: &mut SplitMix64) -> u8 {
    let ix = MIX
        .iter()
        .position(|&(k, _)| k == kind)
        .expect("every kind is in MIX") as u64;
    (ix * SITES_PER_KIND + rng.next_u64() % SITES_PER_KIND) as u8
}

fn draw_kind(rng: &mut SplitMix64) -> Kind {
    let mut roll = (rng.next_u64() % 100) as u32;
    for &(kind, weight) in &MIX {
        if roll < weight {
            return kind;
        }
        roll -= weight;
    }
    unreachable!("MIX weights sum to 100")
}

fn generate_thread(seed: u64, thread: u32, regions: usize) -> ThreadProgram {
    let mut rng = SplitMix64(seed ^ (u64::from(thread) + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let content_seed = rng.next_u64();
    let mut resident: Vec<Resident> = (0..RESIDENT)
        .map(|i| Resident {
            dev: (i % DEVICES_PER_THREAD as usize) as u8,
            sync: Sync::Same,
        })
        .collect();
    let transient =
        |rng: &mut SplitMix64| (RESIDENT + rng.below(ARRAYS_PER_THREAD - RESIDENT)) as u16;

    let mut ops = Vec::with_capacity(regions + regions / 2);
    let mut done = 0usize;
    while done < regions {
        let kind = draw_kind(&mut rng);
        let r = rng.below(RESIDENT);
        let arr = r as u16;
        let state = resident[r];
        let dev = state.dev;
        // A kind whose precondition the drawn array does not meet
        // degrades to the clean region that establishes it, so the
        // draw never fails and never emits an unintended inefficiency.
        let kind = match kind {
            Kind::UpdateFrom | Kind::Migrate if state.sync == Sync::Same => Kind::Kernel,
            Kind::StaleUpdateTo | Kind::StaleUpdateFrom if state.sync == Sync::DeviceNewer => {
                Kind::UpdateFrom
            }
            k => k,
        };
        let site = kind_site(kind, &mut rng);
        match kind {
            Kind::Kernel => {
                ops.push(Op::Kernel { site, dev, arr });
                resident[r].sync = Sync::DeviceNewer;
                done += 1;
            }
            Kind::UpdateToFresh => {
                ops.push(Op::HostWrite {
                    arr,
                    stamp: rng.next_u64(),
                });
                ops.push(Op::UpdateTo { site, dev, arr });
                resident[r].sync = Sync::Same;
                done += 1;
            }
            Kind::UpdateFrom | Kind::StaleUpdateFrom => {
                ops.push(Op::UpdateFrom { site, dev, arr });
                resident[r].sync = Sync::Same;
                done += 1;
            }
            Kind::StaleUpdateTo => {
                ops.push(Op::UpdateTo { site, dev, arr });
                done += 1;
            }
            Kind::OverwrittenUpdate => {
                for _ in 0..2 {
                    ops.push(Op::HostWrite {
                        arr,
                        stamp: rng.next_u64(),
                    });
                    ops.push(Op::UpdateTo { site, dev, arr });
                }
                resident[r].sync = Sync::Same;
                done += 2;
            }
            Kind::Migrate => {
                let other = (dev + 1) % DEVICES_PER_THREAD as u8;
                ops.push(Op::Exit { site, dev, arr });
                ops.push(Op::Enter {
                    site,
                    dev: other,
                    arr,
                });
                resident[r] = Resident {
                    dev: other,
                    sync: Sync::Same,
                };
                done += 2;
            }
            Kind::TargetFresh | Kind::TargetReadOnly => {
                let n = 1 + rng.below(3);
                let mut arrs = [0u16; 3];
                // Consecutive transient arrays: distinct by construction.
                let first = RESIDENT + rng.below(ARRAYS_PER_THREAD - RESIDENT - 3);
                for (i, slot) in arrs.iter_mut().enumerate().take(n) {
                    *slot = (first + i) as u16;
                    ops.push(Op::HostWrite {
                        arr: *slot,
                        stamp: rng.next_u64(),
                    });
                }
                ops.push(Op::Target {
                    site,
                    dev: rng.below(DEVICES_PER_THREAD as usize) as u8,
                    arrs,
                    n: n as u8,
                    writes: kind == Kind::TargetFresh,
                });
                done += 1;
            }
            Kind::DataRegion | Kind::UnusedAlloc => {
                let arr = transient(&mut rng);
                let alloc_only = kind == Kind::UnusedAlloc;
                if !alloc_only {
                    ops.push(Op::HostWrite {
                        arr,
                        stamp: rng.next_u64(),
                    });
                }
                ops.push(Op::DataRegion {
                    site,
                    dev: rng.below(DEVICES_PER_THREAD as usize) as u8,
                    arr,
                    alloc_only,
                });
                done += 1;
            }
        }
    }
    ThreadProgram { content_seed, ops }
}

impl StormProgram {
    /// Generate the program for `seed`: `regions_per_thread` regions on
    /// each of [`THREADS`] threads. `site_shift` slides every call site
    /// by that many sites — the corpus gate uses it to make the
    /// reference and the new corpus overlap only partly.
    pub fn generate(seed: u64, regions_per_thread: usize, site_shift: u64) -> StormProgram {
        let threads = (0..THREADS)
            .map(|t| generate_thread(seed, t, regions_per_thread))
            .collect();
        let mut debug_info = DebugInfo::new();
        for (k, &(kind, _)) in MIX.iter().enumerate() {
            for s in 0..SITES_PER_KIND {
                let site = (k as u64 * SITES_PER_KIND + s) as u8;
                debug_info.register(
                    site_codeptr(site, site_shift),
                    "benchmark/storm.c",
                    100 * (k as u32 + 1) + s as u32,
                    &format!("{kind:?}"),
                );
            }
        }
        for (site, function) in [(PROLOGUE_SITE, "prologue"), (EPILOGUE_SITE, "epilogue")] {
            let codeptr = site_codeptr(site, site_shift);
            debug_info.register(codeptr, "benchmark/storm.c", u32::from(site), function);
        }
        StormProgram {
            threads,
            site_shift,
            debug_info,
        }
    }

    /// The program's "-g" debug info (one entry per call site).
    pub fn debug_info(&self) -> &DebugInfo {
        &self.debug_info
    }

    /// Run the program with one tool per thread attached.
    ///
    /// # Panics
    /// When `tools.len() != THREADS`.
    pub fn run(&self, tools: Vec<Box<dyn Tool>>) {
        let cfg = RuntimeConfig::default().with_devices(THREADS * DEVICES_PER_THREAD);
        run_on_threads(THREADS, &cfg, tools, |t, rt| {
            self.run_thread(t, rt);
        });
    }

    /// Run the program with no tool observing it (every thread gets the
    /// `NullTool`, which registers no callbacks).
    pub fn run_untooled(&self) {
        self.run(
            (0..THREADS)
                .map(|_| Box::new(NullTool) as Box<dyn Tool>)
                .collect(),
        );
    }

    fn run_thread(&self, thread: u32, rt: &mut Runtime) {
        let program = &self.threads[thread as usize];
        let cp = |site: u8| site_codeptr(site, self.site_shift);
        let dev = |d: u8| thread * DEVICES_PER_THREAD + u32::from(d);
        let cost = KernelCost::fixed(KERNEL_COST_NS);

        if thread > 0 {
            rt.host_alloc("pad", thread as usize * ARRAYS_PER_THREAD * ARRAY_BYTES);
        }
        let mut content = SplitMix64(program.content_seed);
        let vars: Vec<VarId> = (0..ARRAYS_PER_THREAD)
            .map(|i| {
                let v = rt.host_alloc(&format!("a{i}"), ARRAY_BYTES);
                for chunk in rt.host_bytes_mut(v).chunks_exact_mut(8) {
                    chunk.copy_from_slice(&content.next_u64().to_le_bytes());
                }
                v
            })
            .collect();
        let var = |arr: u16| vars[arr as usize];

        // Prologue: one `enter data` per device maps the resident set.
        for d in 0..DEVICES_PER_THREAD as u8 {
            let maps: Vec<_> = (0..RESIDENT)
                .filter(|i| (i % DEVICES_PER_THREAD as usize) as u8 == d)
                .map(|i| map(MapType::To, vars[i]))
                .collect();
            rt.target_enter_data(dev(d), cp(PROLOGUE_SITE), &maps);
        }

        let mut home: Vec<u8> = (0..RESIDENT)
            .map(|i| (i % DEVICES_PER_THREAD as usize) as u8)
            .collect();
        for &op in &program.ops {
            match op {
                Op::HostWrite { arr, stamp } => {
                    rt.host_bytes_mut(var(arr))[..8].copy_from_slice(&stamp.to_le_bytes());
                }
                Op::Kernel { site, dev: d, arr } => {
                    let v = var(arr);
                    rt.target(
                        dev(d),
                        cp(site),
                        &[map(MapType::ToFrom, v)],
                        Kernel::new("storm_write", cost).writes(&[v]),
                    );
                }
                Op::UpdateTo { site, dev: d, arr } => {
                    rt.target_update_to(dev(d), cp(site), &[var(arr)]);
                }
                Op::UpdateFrom { site, dev: d, arr } => {
                    rt.target_update_from(dev(d), cp(site), &[var(arr)]);
                }
                Op::Target {
                    site,
                    dev: d,
                    arrs,
                    n,
                    writes,
                } => {
                    let vs: Vec<VarId> = arrs[..n as usize].iter().map(|&a| var(a)).collect();
                    let maps: Vec<_> = vs.iter().map(|&v| map(MapType::ToFrom, v)).collect();
                    let kernel = if writes {
                        Kernel::new("storm_write", cost).writes(&vs)
                    } else {
                        Kernel::new("storm_read", cost).reads(&vs)
                    };
                    rt.target(dev(d), cp(site), &maps, kernel);
                }
                Op::DataRegion {
                    site,
                    dev: d,
                    arr,
                    alloc_only,
                } => {
                    let v = var(arr);
                    let map_type = if alloc_only {
                        MapType::Alloc
                    } else {
                        MapType::ToFrom
                    };
                    let region = rt.target_data_begin(dev(d), cp(site), &[map(map_type, v)]);
                    if !alloc_only {
                        rt.target(
                            dev(d),
                            cp(site),
                            &[map(MapType::ToFrom, v)],
                            Kernel::new("storm_write", cost).writes(&[v]),
                        );
                    }
                    rt.target_data_end(region);
                }
                Op::Enter { site, dev: d, arr } => {
                    rt.target_enter_data(dev(d), cp(site), &[map(MapType::To, var(arr))]);
                    home[arr as usize] = d;
                }
                Op::Exit { site, dev: d, arr } => {
                    rt.target_exit_data(dev(d), cp(site), &[map(MapType::From, var(arr))]);
                }
            }
        }

        // Epilogue: one `exit data` per device releases what lives there.
        for d in 0..DEVICES_PER_THREAD as u8 {
            let maps: Vec<_> = (0..RESIDENT)
                .filter(|&i| home[i] == d)
                .map(|i| map(MapType::From, vars[i]))
                .collect();
            rt.target_exit_data(dev(d), cp(EPILOGUE_SITE), &maps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::capture;

    const SMALL: usize = 3_000;

    #[test]
    fn mix_weights_sum_to_100() {
        assert_eq!(MIX.iter().map(|&(_, w)| w).sum::<u32>(), 100);
    }

    #[test]
    fn same_seed_same_odpt_bytes_other_seed_other_bytes() {
        let a = capture(7, SMALL, 0).to_bytes();
        assert_eq!(
            a,
            capture(7, SMALL, 0).to_bytes(),
            "OS scheduling must not show"
        );
        assert_ne!(a, capture(8, SMALL, 0).to_bytes());
        // Sliding the call sites changes code pointers and nothing else.
        let (base, shifted) = (capture(7, SMALL, 0), capture(7, SMALL, 4));
        assert_ne!(a, shifted.to_bytes());
        assert_eq!(base.data_op_count(), shifted.data_op_count());
        assert_eq!(
            base.stats().bytes_transferred,
            shifted.stats().bytes_transferred
        );
    }

    #[test]
    fn a_small_storm_has_all_five_finding_kinds_and_a_clean_trace() {
        let artifact = capture(1, SMALL, 0);
        assert!(artifact.health.is_clean(), "{:?}", artifact.health);
        let cols = artifact.columnar();
        let view = ompdataperf::detect::EventView::over(
            &cols,
            ompdataperf::analysis::infer_num_devices_columnar(&cols),
        );
        assert_eq!(view.num_devices, THREADS * DEVICES_PER_THREAD);
        let c = ompdataperf::Findings::detect_fused(&view).counts();
        assert!(
            c.dd > 0 && c.rt > 0 && c.ra > 0 && c.ua > 0 && c.ut > 0,
            "{c:?}"
        );
    }
}
