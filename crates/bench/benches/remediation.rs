//! Criterion micro-benchmark: the cost and the payoff of online
//! remediation.
//!
//! * `remediation_overhead/consult` — the raw policy lookup the runtime
//!   pays per map-clause item (with an empty table and with 1k learned
//!   rules); this is the only cost a remediated run adds to regions
//!   that need no rewrite.
//! * `remediation_overhead/run` — a synthetic iterative offload pattern
//!   (the Listing 1 shape: re-map, kernel, unmap) driven end to end at
//!   10k/100k-event scale, baseline vs. adaptive; the adaptive run
//!   reports its recovered bytes so the payoff is visible next to the
//!   consult cost.
//! * `remediation_overhead/shared_consult` — the same consult served
//!   through a `SharedRemediator` per-thread advisor handle (policy
//!   behind a mutex + the per-consult findings pump), the cost every
//!   map clause pays in a threaded `--remediate` run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use odp_model::MapType;
use odp_ompt::MapAdvisor as _;
use odp_sim::{map, Kernel, KernelCost, Runtime, RuntimeConfig};
use ompdataperf::remedy::{RemediationPolicy, SharedRemediator};
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use std::hint::black_box;

/// Drive `iters` iterations of the re-map/kernel/unmap anti-pattern;
/// returns (bytes actually transferred, bytes recovered). Each
/// iteration emits ~5 data-op events + 1 kernel, so 2k iterations ≈ 10k
/// events and 20k iterations ≈ 100k events.
fn drive(iters: usize, remediate: bool) -> (u64, u64) {
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
        stream: remediate,
        ..Default::default()
    });
    let mut rt = Runtime::new(RuntimeConfig::default());
    rt.attach_tool(Box::new(tool));
    if remediate {
        let (remediator, _policy) = SharedRemediator::new(handle.clone());
        rt.attach_advisor(Box::new(remediator.fork_advisor()));
    }
    let a = rt.host_alloc("a", 4096);
    rt.host_fill_u32(a, |i| i as u32);
    for _ in 0..iters {
        let region = rt.target_data_begin(0, odp_model::CodePtr(0x100), &[map(MapType::To, a)]);
        rt.target(
            0,
            odp_model::CodePtr(0x200),
            &[map(MapType::To, a)],
            Kernel::new("k", KernelCost::fixed(500)).reads(&[a]),
        );
        rt.target_data_end(region);
    }
    let stats = rt.finish();
    let recovered = rt.remediation_stats().totals().transfer_bytes_avoided;
    drop(handle.take_trace());
    (stats.bytes_transferred, recovered)
}

fn bench_remediation(c: &mut Criterion) {
    let mut group = c.benchmark_group("remediation_overhead");

    // Policy consult cost per map-clause item.
    for rules in [0usize, 1_000] {
        let mut policy = RemediationPolicy::new();
        for i in 0..rules {
            use odp_model::CodePtr;
            use ompdataperf::detect::StreamFinding;
            policy.observe(&StreamFinding::RepeatedAlloc {
                host_addr: 0x1000 + (i as u64) * 64,
                device: odp_model::DeviceId::target(0),
                bytes: 64,
                codeptr: CodePtr(0x1),
                alloc: i as u64,
                occurrence: 2,
                confidence: ompdataperf::Confidence::Confirmed,
            });
        }
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("consult", format!("rules_{rules}")), |b| {
            let mut addr = 0u64;
            b.iter(|| {
                addr = addr.wrapping_add(64) & 0xFFFF;
                black_box(policy.advise(0, 0x1000 + addr))
            })
        });
    }

    // The threaded shape: one policy behind a per-thread advisor
    // handle. Measures the mutex + pump overhead on top of the raw
    // lookup above.
    {
        let mut policy = RemediationPolicy::new();
        for i in 0..1_000u64 {
            use odp_model::CodePtr;
            use ompdataperf::detect::StreamFinding;
            policy.observe(&StreamFinding::RepeatedAlloc {
                host_addr: 0x1000 + i * 64,
                device: odp_model::DeviceId::target(0),
                bytes: 64,
                codeptr: CodePtr(0x1),
                alloc: i,
                occurrence: 2,
                confidence: ompdataperf::Confidence::Confirmed,
            });
        }
        let (remediator, _cell) = SharedRemediator::seeded(policy);
        let mut advisor = remediator.fork_advisor();
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new("shared_consult", "rules_1000"), |b| {
            let mut addr = 0u64;
            b.iter(|| {
                addr = addr.wrapping_add(64) & 0xFFFF;
                black_box(advisor.advise_enter(
                    0,
                    odp_model::CodePtr(0x1),
                    0x1000 + addr,
                    64,
                    MapType::To,
                ))
            })
        });
    }

    // End-to-end: baseline vs adaptive at 10k/100k-event scale.
    for (label, iters) in [("10k_events", 2_000usize), ("100k_events", 20_000)] {
        group.throughput(Throughput::Elements(iters as u64));
        group.bench_function(BenchmarkId::new("run_baseline", label), |b| {
            b.iter(|| black_box(drive(iters, false)))
        });
        group.bench_function(BenchmarkId::new("run_adaptive", label), |b| {
            b.iter(|| black_box(drive(iters, true)))
        });
        let (baseline_bytes, _) = drive(iters, false);
        let (actual, recovered) = drive(iters, true);
        println!(
            "remediation_overhead/{label}: baseline {baseline_bytes} B, \
             adaptive {actual} B moved + {recovered} B recovered"
        );
        assert!(recovered > 0, "the adaptive run must recover bytes");
        assert!(actual < baseline_bytes);
    }

    group.finish();
}

criterion_group!(benches, bench_remediation);
criterion_main!(benches);
