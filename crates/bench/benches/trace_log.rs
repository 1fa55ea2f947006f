//! Criterion micro-benchmark: trace-record append cost — the tool's
//! per-event hot path (must stay tiny to preserve the 5 % overhead).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use odp_model::{CodePtr, DataOpKind, DeviceId, SimTime, TargetKind, TimeSpan};
use odp_trace::TraceLog;
use std::hint::black_box;

fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_append");
    group.throughput(Throughput::Elements(1));

    group.bench_function("data_op_record_72B", |b| {
        let mut log = TraceLog::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                DeviceId::target(0),
                black_box(0x1000),
                0xd000,
                4096,
                Some(black_box(0xabcdef)),
                TimeSpan::new(SimTime(t), SimTime(t + 5)),
                CodePtr(0x42),
            );
        });
    });

    group.bench_function("target_record_24B", |b| {
        let mut log = TraceLog::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 10;
            log.record_target(
                TargetKind::Kernel,
                DeviceId::target(0),
                TimeSpan::new(SimTime(t), SimTime(t + 5)),
                CodePtr(black_box(0x43)),
            );
        });
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(800)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_append
);
criterion_main!(benches);
