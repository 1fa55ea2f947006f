//! Figures 2–5 and the hash-overhead ablation.

use super::{geometric_mean, measure_wall, run_without_tool, timed_run, PaperArgs, Table};
use crate::{workload, CmdResult, Out};
use odp_hash::throughput::{calibrate_iters, measure};
use odp_hash::HashAlgoId;
use odp_sim::TransferModel;
use odp_workloads::session::{self, RunSpec};
use odp_workloads::ProblemSize;
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use serde_json::json;
use std::num::NonZeroUsize;
use std::time::Duration;

/// Figure 2 — runtime overhead of profiling with OMPDataPerf, expressed
/// as slowdown over an untooled run, per benchmark and problem size.
///
/// Paper: worst case 1.33× (xsbench Large), seven of ten benchmarks
/// under 1.07×, geometric mean 1.05×. "Programs with more runtime
/// dominated by host/device communication activity tended to incur
/// greater overhead."
pub(super) fn fig2(args: &PaperArgs, out: Out<'_>) -> CmdResult {
    // Samples per side of a cell: enough that the baseline's add up to
    // `CELL_BUDGET`, at least `MIN_REPS` and at most `MAX_REPS`, so a
    // 10–30 µs cell takes its median over many samples instead of a few
    // timer-bound ones.
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 200;
    const CELL_BUDGET: Duration = Duration::from_millis(2);
    let mut table = Table::new(&[
        "program",
        "size",
        "baseline",
        "baseline min-max",
        "tooled",
        "tooled min-max",
        "slowdown",
    ]);
    let mut slowdowns = Vec::new();
    let mut records = Vec::new();
    let mut overlapping = 0;
    let mut below = 0;

    for w in odp_workloads::paper_benchmarks() {
        for &size in args.sizes() {
            // Interleave baseline/tooled samples, the tooled one first
            // on odd reps, so clock-speed drift, page-cache warming,
            // allocator state and which side runs first cancel out
            // instead of biasing one side.
            let run_baseline = || timed_run(w.as_ref(), size, None);
            let run_tooled = || {
                let (tool, _handle) = OmpDataPerfTool::new(ToolConfig::default());
                timed_run(w.as_ref(), size, Some(tool))
            };
            let warm = run_baseline();
            let _ = run_tooled();
            let reps = CELL_BUDGET.as_nanos().div_ceil(warm.as_nanos().max(1));
            let reps = (reps.min(MAX_REPS as u128) as usize).max(MIN_REPS);
            let mut base_samples = Vec::with_capacity(reps);
            let mut tool_samples = Vec::with_capacity(reps);
            for rep in 0..reps {
                if rep % 2 == 1 {
                    tool_samples.push(run_tooled());
                    base_samples.push(run_baseline());
                } else {
                    base_samples.push(run_baseline());
                    tool_samples.push(run_tooled());
                }
            }
            base_samples.sort();
            tool_samples.sort();
            let baseline = base_samples[reps / 2];
            let tooled = tool_samples[reps / 2];
            let slowdown = tooled.as_secs_f64() / baseline.as_secs_f64().max(1e-9);
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            let base_range = [ms(base_samples[0]), ms(base_samples[reps - 1])];
            let tool_range = [ms(tool_samples[0]), ms(tool_samples[reps - 1])];
            // Overlapping ranges: the cell's slowdown is within its noise.
            let overlap = tool_range[0] <= base_range[1] && base_range[0] <= tool_range[1];
            overlapping += usize::from(overlap);
            // Every tooled sample faster than every baseline one: no tool
            // can do that, so the cell measures something else and stays
            // out of the geomean.
            let faster = tool_range[1] < base_range[0];
            below += usize::from(faster);
            if !faster {
                slowdowns.push(slowdown);
            }
            let marker = match (overlap, faster) {
                (true, _) => " ~",
                (_, true) => " !",
                _ => "",
            };
            let span = |[lo, hi]: [f64; 2]| format!("{lo:.3}-{hi:.3} ms");
            table.row(vec![
                w.name().to_string(),
                size.name().to_string(),
                format!("{:.3} ms", ms(baseline)),
                span(base_range),
                format!("{:.3} ms", ms(tooled)),
                span(tool_range),
                format!("{slowdown:.3}x{marker}"),
            ]);
            records.push(json!({
                "program": w.name(),
                "size": size.name(),
                "baseline_ms": ms(baseline),
                "tooled_ms": ms(tooled),
                "samples": reps,
                "slowdown": slowdown,
                "baseline_range_ms": base_range,
                "tooled_range_ms": tool_range,
                "overlap": overlap,
                "below_baseline": faster,
            }));
        }
    }

    let cells = records.len();
    let gmean = geometric_mean(&slowdowns);
    let worst = slowdowns.iter().cloned().fold(0.0, f64::max);
    writeln!(
        out,
        "Figure 2: runtime overhead when analyzing with OMPDataPerf (lower is better)\n\n\
         {}\n\
         ~ : the cell's baseline and tooled samples' ranges overlap \
         ({overlapping} of {cells} cells; {MIN_REPS}-{MAX_REPS} samples a side, \
         ~{} ms of baseline); that slowdown is within the noise\n\
         ! : every tooled sample ran faster than every baseline one \
         ({below} of {cells} cells); left out of the geomean\n\
         geometric-mean slowdown : {gmean:.3}x   (paper: 1.05x; {below} cell(s) left out)\n\
         worst-case slowdown     : {worst:.3}x   (paper: 1.33x, xsbench Large)",
        table.render(),
        CELL_BUDGET.as_millis(),
    )?;
    args.emit_json(
        out,
        json!({
            "experiment": "fig2_overhead",
            "geomean": gmean,
            "left_out": below,
            "worst": worst,
            "points": records,
        }),
    )
}

/// Figure 3 — peak tool space overhead per benchmark and problem size.
///
/// Paper: 72 B per data-transfer event, 24 B per target-launch event;
/// per-application peaks between ~1 KB and a few MB; tealeaf accumulates
/// fastest (~1 MB/s); geometric-mean accumulation ~43 KB/s.
pub(super) fn fig3(args: &PaperArgs, out: Out<'_>) -> CmdResult {
    let mut table = Table::new(&[
        "program",
        "size",
        "data ops",
        "targets",
        "record bytes",
        "peak bytes",
        "rate",
    ]);
    let mut rates = Vec::new();
    let mut records = Vec::new();

    for w in odp_workloads::paper_benchmarks() {
        for &size in args.sizes() {
            let spec = RunSpec {
                size,
                ..RunSpec::default()
            };
            let run = session::run(w.as_ref(), &spec);
            let space = run.report.space;
            let rate = space.rate_bytes_per_sec(run.stats.total_time);
            if rate > 0.0 {
                rates.push(rate);
            }
            table.row(vec![
                w.name().to_string(),
                size.name().to_string(),
                space.data_op_records.to_string(),
                space.target_records.to_string(),
                space.record_bytes.to_string(),
                space.peak_alloc_bytes.to_string(),
                format!("{:.1} KB/s", rate / 1e3),
            ]);
            records.push(json!({
                "program": w.name(),
                "size": size.name(),
                "data_op_records": space.data_op_records,
                "target_records": space.target_records,
                "record_bytes": space.record_bytes,
                "peak_alloc_bytes": space.peak_alloc_bytes,
                "rate_bytes_per_sec": rate,
            }));
        }
    }

    writeln!(
        out,
        "Figure 3: peak space overhead when analyzing with OMPDataPerf (lower is better)\n\
         (72 B per data-op record, 24 B per target record, chunked storage)\n\n\
         {}\n\
         geometric-mean accumulation rate : {:.1} KB/s of program time (paper: ~43 KB/s)",
        table.render(),
        geometric_mean(&rates) / 1e3
    )?;
    args.emit_json(
        out,
        json!({ "experiment": "fig3_space", "points": records }),
    )
}

/// Figure 4 — predicted vs actual speedup for every program and size.
///
/// Paper: average relative error 14 %, MSE 0.17, excluding the tealeaf-
/// Large outlier (16× actual vs 5.8× predicted, yet 90 % accuracy on the
/// predicted time *savings*).
pub(super) fn fig4(args: &PaperArgs, out: Out<'_>) -> CmdResult {
    let mut table = Table::new(&[
        "program",
        "size",
        "before",
        "after",
        "predicted",
        "actual",
        "rel err",
    ]);
    let mut errs = Vec::new();
    let mut sq_errs = Vec::new();
    let mut outliers: Vec<String> = Vec::new();
    let mut records = Vec::new();

    for w in odp_workloads::all() {
        let Some((before_v, after_v)) = w.fig4_pair() else {
            continue;
        };
        for &size in args.sizes() {
            let spec = RunSpec {
                size,
                variant: before_v,
                ..RunSpec::default()
            };
            let run = session::run(w.as_ref(), &spec);
            let t_before = run.stats.total_time;
            let predicted = run.report.prediction.predicted_speedup;
            let t_after = run_without_tool(w.as_ref(), size, after_v);
            let actual = t_before.as_nanos() as f64 / t_after.as_nanos().max(1) as f64;
            let rel = (predicted - actual).abs() / actual;

            // §7.6 excludes large-speedup outliers from the error stats:
            // "When calculating large speedups, small errors in predicted
            // execution time can cause disproportionate errors."
            let outlier = actual > 4.0 && rel > 0.5;
            if outlier {
                let saved_pred = run.report.prediction.time_saved.as_nanos() as f64;
                let saved_actual = (t_before - t_after).as_nanos() as f64;
                let savings_acc = 100.0 * (1.0 - (saved_pred - saved_actual).abs() / saved_actual);
                outliers.push(format!(
                    "{} {} excluded as outlier: actual {actual:.1}x vs predicted \
                     {predicted:.1}x; time-savings accuracy {savings_acc:.0}%",
                    w.name(),
                    size.name()
                ));
            } else {
                errs.push(rel);
                sq_errs.push((predicted - actual) * (predicted - actual));
            }

            table.row(vec![
                w.name().to_string(),
                size.name().to_string(),
                format!("{}", t_before),
                format!("{}", t_after),
                format!("{predicted:.2}x"),
                format!("{actual:.2}x"),
                format!("{:.1}%", rel * 100.0),
            ]);
            records.push(json!({
                "program": w.name(),
                "size": size.name(),
                "predicted": predicted,
                "actual": actual,
                "rel_err": rel,
                "outlier": outlier,
            }));
        }
    }

    let mean_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    let mse = sq_errs.iter().sum::<f64>() / sq_errs.len().max(1) as f64;
    writeln!(
        out,
        "Figure 4: Predicted Speedup vs Actual Speedup\n\n\
         {}\n\
         average relative error : {:.1}%   (paper: 14%)\n\
         mean squared error     : {mse:.3}    (paper: 0.17)",
        table.render(),
        mean_err * 100.0
    )?;
    for o in &outliers {
        writeln!(out, "note: {o}")?;
    }
    args.emit_json(
        out,
        json!({
            "experiment": "fig4_prediction",
            "mean_rel_err": mean_err,
            "mse": mse,
            "points": records,
        }),
    )
}

/// Figure 5 — sequential hash throughput vs data size for the top hash
/// of each family, against the host↔device transfer throughput curve.
///
/// Paper claims to reproduce: (1) hash throughput rises, peaks while the
/// buffer fits in cache, and drops past LLC capacity; (2) the transfer
/// curve has high startup cost and needs much larger volumes to reach
/// peak; (3) even past LLC, hashing stays a healthy multiple of transfer
/// throughput (2.4–3.0× in the paper), so content hashing keeps up.
pub(super) fn fig5(args: &PaperArgs, out: Out<'_>) -> CmdResult {
    let max_pow = if args.quick { 24 } else { 28 };

    let mut headers: Vec<&str> = vec!["Data Size (B)"];
    headers.extend(HashAlgoId::FIGURE5.iter().map(|a| a.name()));
    headers.push("Data Transfer");
    let mut table = Table::new(&headers);

    let transfer = TransferModel::pcie_gen4_h2d();
    let mut records = Vec::new();
    let mut big_sizes = 0usize;
    let mut hash_wins = 0usize;

    for size in (1..=max_pow).map(|p| 1usize << p) {
        let data: Vec<u8> = (0..size)
            .map(|i| (i.wrapping_mul(131) % 251) as u8)
            .collect();
        let mut row = vec![format!("2^{}", size.trailing_zeros())];
        let mut best_hash_rate: f64 = 0.0;
        for algo in HashAlgoId::FIGURE5 {
            let iters = calibrate_iters(size, 30_000_000);
            let rate = measure(algo, &data, iters).gb_per_s();
            best_hash_rate = best_hash_rate.max(rate);
            row.push(format!("{rate:.1}"));
            records.push(json!({
                "size": size,
                "hash": algo.name(),
                "gb_per_s": rate,
            }));
        }
        let xfer = transfer.effective_gb_per_s(size as u64);
        row.push(format!("{xfer:.2}"));
        records.push(json!({ "size": size, "hash": "transfer", "gb_per_s": xfer }));
        table.row(row);

        // §B.1: "The top-performing hash functions demonstrated higher
        // effective throughput than host/device data transfers." The
        // paper measured both curves on one physical machine (EPYC 7543
        // vs its own PCIe link); here the hash curve is this host's CPU
        // while the transfer curve models an A100-class link, so the
        // crossover point shifts with the hardware executing the tests.
        if size >= 1 << 16 {
            big_sizes += 1;
            if best_hash_rate >= xfer {
                hash_wins += 1;
            }
        }
    }

    writeln!(
        out,
        "Figure 5: average sequential throughput vs data size (GB/s, higher is better)\n\n\
         {}\n\
         expected shape: hash curves peak in cache and dip past the LLC; the \
         transfer curve is startup-dominated below ~1 MiB and saturates at \
         ~{} GB/s.\n\
         hash-beats-modeled-transfer at {hash_wins}/{big_sizes} sizes ≥ 64 KiB \
         (the paper's EPYC 7543 beat its own link everywhere; a slower test \
         CPU against the same modeled A100 link shifts the crossover)",
        table.render(),
        transfer.bytes_per_ns
    )?;
    args.emit_json(
        out,
        json!({ "experiment": "fig5_throughput", "points": records }),
    )
}

/// Ablation — how the content-hash choice drives tool overhead.
///
/// Appendix B motivates hash selection by throughput: "users might ...
/// experience significant runtime overhead" with a slow hash. The tool
/// meters its own hashing (the Table-4 "effective hash rate" meter), so
/// this ablation reports the nanoseconds each algorithm spends inside
/// the profiler on the same workload — bytes exact, time measured around
/// every payload of 4 KiB or more and sampled one in 16 below that
/// (`ompdataperf::tool::HashMeter`) — plus the implied overhead against
/// the untooled wall-clock runtime.
pub(super) fn ablate_hash(_: &PaperArgs, out: Out<'_>) -> CmdResult {
    const REPS: NonZeroUsize = NonZeroUsize::MIN.saturating_add(2);
    let hashes = [
        HashAlgoId::T1ha0_avx2,
        HashAlgoId::XXH3_64bits,
        HashAlgoId::XXH64,
        HashAlgoId::XXH32,
        HashAlgoId::CityHash32,
    ];
    let programs = ["babelstream", "xsbench", "bspline-vgh-omp"];

    let mut headers: Vec<&str> = vec!["program", "baseline", "bytes hashed"];
    headers.extend(hashes.iter().map(|h| h.name()));
    let mut table = Table::new(&headers);

    for name in programs {
        let w = workload(name)?;
        let baseline = measure_wall(REPS, || timed_run(w.as_ref(), ProblemSize::Medium, None));
        let mut row = vec![
            name.to_string(),
            format!("{:.2} ms", baseline.as_secs_f64() * 1e3),
        ];
        let mut bytes_cell = String::new();
        let mut cells = Vec::new();
        for algo in hashes {
            // Median hashing time over REPS runs, from the tool's own
            // meter. The event stream is deterministic, so every run
            // hashes the same bytes and times the same payloads.
            let mut metered: Vec<(u64, u64)> = (0..REPS.get())
                .map(|_| {
                    let (tool, handle) = OmpDataPerfTool::new(ToolConfig {
                        hash_algo: algo,
                        ..Default::default()
                    });
                    timed_run(w.as_ref(), ProblemSize::Medium, Some(tool));
                    let m = handle.hash_meter();
                    (m.nanos, m.bytes)
                })
                .collect();
            metered.sort_unstable();
            let (hash_ns, bytes) = metered[REPS.get() / 2];
            bytes_cell = format!("{:.1} MB", bytes as f64 / 1e6);
            let implied = 1.0 + hash_ns as f64 / baseline.as_nanos() as f64;
            cells.push(format!("{:.2} ms ({implied:.3}x)", hash_ns as f64 / 1e6));
        }
        row.push(bytes_cell);
        row.extend(cells);
        table.row(row);
    }

    Ok(writeln!(
        out,
        "Ablation: time spent hashing inside the profiler, per algorithm\n\
         (cells: hashing wall time and the implied overhead vs the baseline)\n\n\
         {}\n\
         expected: hashing time grows as the hash slows (t1ha0_avx2/XXH3 → \
         XXH64 → XXH32 → CityHash32), which is why §B.1 selects the default \
         by measured throughput.",
        table.render()
    )?)
}
