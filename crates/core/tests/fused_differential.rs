//! Differential tests: the fused single-pass engine must produce
//! **byte-identical** findings to the five standalone reference
//! detectors — group order, event order within groups, reasons, issue
//! counts — on randomized chronological traces.
//!
//! The trace generator (seeded xorshift64*, fully deterministic) is
//! shared with the streaming suite — see `common/mod.rs`.

mod common;

use common::{random_trace, shard_partition};
use common::{random_trace_in, Pools};
use odp_model::{DataOpEvent, TargetEvent};
use odp_trace::ColumnarView;
use ompdataperf::detect::{EventView, Findings};

/// Exact equality through the canonical JSON rendering: covers every
/// field of every finding and the order of everything — the fused sweep
/// over columns against the row reference passes.
fn assert_identical(ops: &[DataOpEvent], kernels: &[TargetEvent], num_devices: u32, ctx: &str) {
    let cols = ColumnarView::from_events(ops, kernels);
    let view = EventView::over(&cols, num_devices);
    let fused = Findings::detect_fused(&view);
    let separate = Findings::detect_separate(ops, kernels, num_devices);
    assert_eq!(
        fused.counts(),
        separate.counts(),
        "issue counts diverge ({ctx})"
    );
    assert_eq!(
        serde_json::to_string_pretty(&fused).unwrap(),
        serde_json::to_string_pretty(&separate).unwrap(),
        "findings diverge ({ctx})"
    );
}

#[test]
fn fused_equals_separate_on_random_traces() {
    for seed in 1..=40u64 {
        let (ops, kernels) = random_trace(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 300, 2);
        assert_identical(&ops, &kernels, 2, &format!("seed {seed}"));
    }
}

#[test]
fn fused_equals_separate_on_large_trace() {
    let (ops, kernels) = random_trace(0xDEAD_BEEF, 20_000, 3);
    assert_identical(&ops, &kernels, 3, "large trace");
}

#[test]
fn fused_equals_separate_on_wide_key_pools() {
    // Thousands of addresses and hashes: the regime of a large run, where
    // most allocation sites, reception keys and round-trip groups are
    // singletons and the sweep's key tables hold thousands of keys. Every
    // grouped kind still has groups of two or more.
    for (seed, devices) in [(0x51DE_u64, 2u32), (0xB16_F00D, 3)] {
        let (ops, kernels) = random_trace_in(seed, 20_000, devices, Pools::WIDE);
        let counts = Findings::detect_separate(&ops, &kernels, devices).counts();
        assert!(
            counts.dd > 0 && counts.rt > 0 && counts.ra > 0,
            "{counts:?}"
        );
        assert_identical(&ops, &kernels, devices, &format!("wide seed {seed}"));
    }
}

#[test]
fn fused_equals_separate_with_single_device_pool() {
    // One device + tiny hash pool: maximal duplicate / round-trip churn.
    for seed in [3u64, 17, 99] {
        let (ops, kernels) = random_trace(seed, 500, 1);
        assert_identical(&ops, &kernels, 1, &format!("dense seed {seed}"));
    }
}

#[test]
fn fused_equals_separate_on_kernel_free_trace() {
    // No kernels at all: Algorithm 4 flags every allocation, Algorithm 5
    // every device-bound transfer.
    let (ops, _) = random_trace(0x5EED, 400, 2);
    assert_identical(&ops, &[], 2, "kernel-free");
}

#[test]
fn fused_equals_separate_on_empty_trace() {
    assert_identical(&[], &[], 1, "empty");
}

#[test]
fn fused_equals_separate_on_sharded_thread_traces() {
    // Multi-threaded collection re-encodes event ids as (shard <<
    // 32 | per-shard seq) and merges streams by (start, id). Both
    // engines must agree on that id space exactly as they do on the
    // contiguous one — across different thread counts and partition
    // seeds (the randomized interleaving of recording threads).
    for seed in [5u64, 29, 4242] {
        for shards in [2usize, 4, 7] {
            let (ops, kernels) = random_trace(seed.wrapping_mul(0xB5), 400, 2);
            let st = shard_partition(&ops, &kernels, shards, seed);
            assert_eq!(st.ops.len(), ops.len(), "partition loses nothing");
            assert_identical(
                &st.ops,
                &st.kernels,
                2,
                &format!("sharded seed {seed}, {shards} threads"),
            );
        }
    }
}

#[test]
fn device_count_overflow_is_handled_identically() {
    // Events naming devices beyond num_devices: both paths must ignore
    // them in the per-device algorithms the same way — and the view must
    // *count* what it excluded instead of dropping it silently, so
    // callers can surface the skew as a warning.
    let (ops, kernels) = random_trace(0xABCD, 300, 4);
    assert_identical(&ops, &kernels, 2, "undercounted devices");

    let cols = ColumnarView::from_events(&ops, &kernels);
    let view = EventView::over(&cols, 2);
    let dropped = view.out_of_range();
    assert!(
        dropped.total() > 0,
        "a 4-device trace analyzed as 2 devices must drop something"
    );
    assert!(dropped.kernels > 0 && dropped.transfers > 0 && dropped.allocs > 0);
    let warning = dropped.warning(2).expect("non-zero drops must warn");
    assert!(warning.contains("Algorithms 4/5"), "{warning}");

    // A correctly sized view drops nothing and stays silent.
    let full = EventView::over(&cols, 4);
    assert_eq!(full.out_of_range().total(), 0);
    assert!(full.out_of_range().warning(4).is_none());
}
