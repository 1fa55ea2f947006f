//! `--aa`: the A/A check. Runs the full set — every workload, untraced
//! and traced, each in its own process — twice back to back on the
//! default seed, and fails if any end-to-end metric differs between the
//! sets by more than its own bound or any exact count differs at all.

use crate::check::DEFAULT_SEED;
use crate::harness::EXACT_COUNTS;
use crate::spec::Spec;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// metric name → value, of one child run.
type Metrics = BTreeMap<String, f64>;

fn child(workload: &str, seconds: u64, traced: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &DEFAULT_SEED.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {last}\n{}",
            u8::from(traced),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let result: Value = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{workload}: no metrics in `{last}`"))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// One full set: workload → (end-to-end metrics, per-layer metrics).
fn set(spec: &Spec, seconds: u64) -> Result<BTreeMap<String, (Metrics, Metrics)>, String> {
    spec.workloads
        .iter()
        .map(|(w, _)| {
            eprintln!("  {w} ...");
            Ok((
                w.clone(),
                (child(w, seconds, false)?, child(w, seconds, true)?),
            ))
        })
        .collect()
}

pub fn run(spec: &Spec, seconds: u64) -> Result<ExitCode, String> {
    eprintln!("A/A set 1");
    let first = set(spec, seconds)?;
    eprintln!("A/A set 2");
    let second = set(spec, seconds)?;

    let mut failures = 0;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (workload, (e2e_a, layer_a)) in &first {
        let (e2e_b, layer_b) = &second[workload];
        for m in &spec.end_to_end {
            let (a, b) = (e2e_a[&m.name], e2e_b[&m.name]);
            let bound = m.bound.unwrap_or(0.0);
            let diff = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff > bound {
                failures += 1;
                "FAIL"
            } else {
                ""
            };
            println!(
                "{workload:<18} {:<22} {a:>14.6} {b:>14.6} {:>8.2}% {:>6.0}% {verdict}",
                m.name,
                diff * 100.0,
                bound * 100.0
            );
        }
        for name in EXACT_COUNTS {
            let (a, b) = (layer_a[name], layer_b[name]);
            if a != b {
                failures += 1;
                println!("{workload:<18} {name:<22} {a:>14} {b:>14}   count differs FAIL");
            }
        }
    }
    println!(
        "A/A: {failures} failure(s); every exact count {}",
        if failures == 0 {
            "repeats"
        } else {
            "was compared"
        }
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
