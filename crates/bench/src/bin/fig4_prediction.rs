//! Figure 4 — predicted vs actual speedup for every program and size.
//!
//! Paper: average relative error 14 %, MSE 0.17, excluding the tealeaf-
//! Large outlier (16× actual vs 5.8× predicted, yet 90 % accuracy on the
//! predicted time *savings*).
//!
//! ```sh
//! cargo run --release -p odp-bench --bin fig4_prediction [-- --quick --json]
//! ```

use odp_bench::{run_with_tool, run_without_tool, BenchArgs, Table};
use ompdataperf::tool::ToolConfig;
use serde_json::json;

fn main() {
    let args = BenchArgs::from_env();
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
            let run = run_with_tool(w.as_ref(), size, before_v, ToolConfig::default());
            let t_before = run.stats.total_time;
            let predicted = run.report.prediction.predicted_speedup;
            let (t_after, _) = run_without_tool(w.as_ref(), size, after_v);
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

    println!("Figure 4: Predicted Speedup vs Actual Speedup\n");
    println!("{}", table.render());
    let mean_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    let mse = sq_errs.iter().sum::<f64>() / sq_errs.len().max(1) as f64;
    println!(
        "average relative error : {:.1}%   (paper: 14%)",
        mean_err * 100.0
    );
    println!("mean squared error     : {mse:.3}    (paper: 0.17)");
    for o in &outliers {
        println!("note: {o}");
    }

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json!({
                "experiment": "fig4_prediction",
                "mean_rel_err": mean_err,
                "mse": mse,
                "points": records,
            }))
            .unwrap_or_else(|e| panic!("serialize experiment json: {e}"))
        );
    }
}
