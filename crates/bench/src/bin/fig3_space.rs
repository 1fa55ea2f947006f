//! Figure 3 — peak tool space overhead per benchmark and problem size.
//!
//! Paper: 72 B per data-transfer event, 24 B per target-launch event;
//! per-application peaks between ~1 KB and a few MB; tealeaf accumulates
//! fastest (~1 MB/s); geometric-mean accumulation ~43 KB/s.
//!
//! ```sh
//! cargo run --release -p odp-bench --bin fig3_space [-- --quick --json]
//! ```

use odp_bench::{geometric_mean, run_with_tool, BenchArgs, Table};
use odp_workloads::Variant;
use ompdataperf::tool::ToolConfig;
use serde_json::json;

fn main() {
    let args = BenchArgs::from_env();
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
            let run = run_with_tool(w.as_ref(), size, Variant::Original, ToolConfig::default());
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

    println!("Figure 3: peak space overhead when analyzing with OMPDataPerf (lower is better)");
    println!("(72 B per data-op record, 24 B per target record, chunked storage)\n");
    println!("{}", table.render());
    println!(
        "geometric-mean accumulation rate : {:.1} KB/s of program time (paper: ~43 KB/s)",
        geometric_mean(&rates) / 1e3
    );

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "experiment": "fig3_space",
                "points": records,
            }))
            .unwrap_or_else(|e| panic!("serialize experiment json: {e}"))
        );
    }
}
