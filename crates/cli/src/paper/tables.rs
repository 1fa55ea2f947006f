//! Tables 1–6.

use super::{run_without_tool, timed_run, PaperArgs, Table};
use crate::{arbalest, error, fail, CmdResult, Out, Scale};
use odp_arbalest::AnomalyKind;
use odp_hash::throughput::Throughput;
use odp_hash::HashAlgoId;
use odp_model::DataOpKind;
use odp_ompt::{CallbackKind, CompilerProfile, ToolRegistration};
use odp_workloads::session::{self, RunSpec};
use odp_workloads::{ProblemSize, Variant, Workload};
use ompdataperf::detect::IssueCounts;
use ompdataperf::tool::{OmpDataPerfTool, ToolConfig};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// The original program at the Medium size.
const MEDIUM: Scale = Scale {
    size: ProblemSize::Medium,
    variant: Variant::Original,
};

/// The Table 1 / Table 2 issue counts of `w` at the Medium size.
fn medium_counts(w: &dyn Workload, variant: Variant) -> IssueCounts {
    let spec = RunSpec {
        size: ProblemSize::Medium,
        variant,
        ..RunSpec::default()
    };
    session::run(w, &spec).report.counts
}

/// Table 1 — issues detected by OMPDataPerf per benchmark, including the
/// synthetic-issue and fixed rows.
pub(super) fn table1(_: &PaperArgs, out: Out<'_>) -> CmdResult {
    // The fixed rows the paper prints; other programs have fixed
    // variants too (Figure 4 uses them).
    const KEY_FIXES: [&str; 4] = ["bfs", "minife", "rsbench", "xsbench"];
    for (title, variant) in [
        (
            "Table 1: Issues Detected by OMPDataPerf (Medium problem size)",
            Variant::Original,
        ),
        (
            "Applications With Injected Synthetic Issues:",
            Variant::Synthetic,
        ),
        ("Applications With Key Issues Fixed:", Variant::Fixed),
    ] {
        let mut table = Table::new(&["Program Name", "DD", "RT", "RA", "UA", "UT"]);
        for w in odp_workloads::paper_benchmarks() {
            if !w.supports(variant) || (variant == Variant::Fixed && !KEY_FIXES.contains(&w.name()))
            {
                continue;
            }
            let c = medium_counts(w.as_ref(), variant);
            table.row(vec![
                format!("{}{}", w.name(), variant.suffix()),
                c.dd.to_string(),
                c.rt.to_string(),
                c.ra.to_string(),
                c.ua.to_string(),
                c.ut.to_string(),
            ]);
        }
        writeln!(out, "{title}\n\n{}", table.render())?;
    }
    Ok(())
}

/// Table 2 — issues detected by OMPDataPerf and Arbalest-Vec on the five
/// HeCBench programs (§7.7).
pub(super) fn table2(_: &PaperArgs, out: Out<'_>) -> CmdResult {
    let mut table = Table::new(&["Program Name", "OMPDataPerf", "Arbalest-Vec"]);
    for w in odp_workloads::hecbench_programs() {
        let c = medium_counts(w.as_ref(), Variant::Original);
        let cats: Vec<&str> = [
            (c.dd, "DD"),
            (c.rt, "RT"),
            (c.ra, "RA"),
            (c.ua, "UA"),
            (c.ut, "UT"),
        ]
        .iter()
        .filter(|(count, _)| *count > 0)
        .map(|(_, kind)| *kind)
        .collect();
        let odp = if cats.is_empty() {
            "N/A".to_string()
        } else {
            cats.join(", ")
        };
        let (av, _) = arbalest::check(w.as_ref(), MEDIUM, 1);
        table.row(vec![w.name().to_string(), odp, av.summary()]);
    }
    Ok(writeln!(
        out,
        "Table 2: Issues Detected by OMPDataPerf and Arbalest-Vec\n\n\
         {}\n\
         Arbalest-Vec's UUM reports point at write-only kernel outputs \
         (masked vector stores) — false positives per the paper's manual \
         inspection (§7.7).",
        table.render()
    )?)
}

/// Paper-reported before/after seconds for the ratio comparison.
fn paper_ratio(name: &str) -> Option<f64> {
    match name {
        "resize-omp" => Some(11.604 / 11.065),
        "mandelbrot-omp" => Some(3.974 / 3.950),
        "accuracy-omp" => Some(11.644 / 11.640),
        "bspline-vgh-omp" => Some(6.736 / 5.899),
        _ => None,
    }
}

/// Table 3 — runtime before and after fixing the issues each tool
/// reported on the HeCBench programs (§7.7).
///
/// Paper (absolute seconds on an A100 node; our substrate is a simulator,
/// so the *ratios* are the reproduction target):
/// resize 11.604→11.065 s, mandelbrot 3.974→3.950 s,
/// accuracy 11.644→11.640 s, lif 10.802 s (N/A), bspline 6.736→5.899 s.
pub(super) fn table3(_: &PaperArgs, out: Out<'_>) -> CmdResult {
    let mut table = Table::new(&[
        "Program Name",
        "Before",
        "OMPDP",
        "AV",
        "speedup",
        "paper speedup",
    ]);
    for w in odp_workloads::hecbench_programs() {
        let name = w.name();
        let before = run_without_tool(w.as_ref(), ProblemSize::Medium, Variant::Original);

        // The OMPDataPerf column: runtime after applying its suggested
        // fixes, where any were reported.
        let (odp_cell, speedup) = if w.supports(Variant::Fixed) {
            let after = run_without_tool(w.as_ref(), ProblemSize::Medium, Variant::Fixed);
            let ratio = before.as_nanos() as f64 / after.as_nanos().max(1) as f64;
            (format!("{after}"), format!("{ratio:.3}x"))
        } else {
            ("N/A".to_string(), "-".to_string())
        };

        // The Arbalest-Vec column: its reports on these programs are
        // either absent (N/A) or false positives (FP) — nothing to fix.
        let (av_report, _) = arbalest::check(w.as_ref(), MEDIUM, 1);
        let av_cell = if av_report.count(AnomalyKind::Uum) > 0 {
            "FP"
        } else {
            "N/A"
        };
        let paper = paper_ratio(name)
            .map(|r| format!("{r:.3}x"))
            .unwrap_or_else(|| "-".to_string());

        table.row(vec![
            name.to_string(),
            format!("{before}"),
            odp_cell,
            av_cell.to_string(),
            speedup,
            paper,
        ]);
    }
    Ok(writeln!(
        out,
        "Table 3: Runtime Measurements Before and After Fixing the Identified Issues\n\
         (simulated seconds; compare the speedup ratios with the paper's)\n\n\
         {}\n\
         FP = Arbalest-Vec's reports were false positives; N/A = no issues \
         reported. The bspline-vgh fix trades ~169 KB of device memory for \
         a ~14% speedup and a 99% reduction in copy calls (§7.7).",
        table.render()
    )?)
}

/// Representative transfer payloads of a Medium-size run of `w`: sizes
/// are what matter for hash rate, so each transfer of the trace gets
/// deterministic bytes of its length, seeded per event.
fn collect_payloads(w: &dyn Workload) -> Vec<Vec<u8>> {
    let (tool, handle) = OmpDataPerfTool::new(ToolConfig::default());
    timed_run(w, ProblemSize::Medium, Some(tool));
    let trace = handle.take_trace();
    trace
        .data_op_events_sorted()
        .iter()
        .filter(|e| e.kind == DataOpKind::Transfer)
        .map(|e| {
            let mut v = vec![0u8; e.bytes as usize];
            let seed = e.hash.map(|h| h.0).unwrap_or(e.src_addr);
            for (i, b) in v.iter_mut().enumerate() {
                *b = (seed as usize).wrapping_add(i.wrapping_mul(131)) as u8;
            }
            v
        })
        .collect()
}

/// Table 4 — effective hash rate (GB/s) of all 19 evaluated hash
/// functions over each benchmark's transfer payloads (Medium size).
///
/// The paper measured ~32 GB/s average for t1ha0_avx2 (fastest) down to
/// ~4 GB/s for CityHash32 on an EPYC 7543; absolute numbers here depend
/// on the host CPU — the *ordering* (64-bit mum/lane hashes ≫ 32-bit
/// hashes) is the reproduction target.
pub(super) fn table4(args: &PaperArgs, out: Out<'_>) -> CmdResult {
    let mut headers: Vec<&str> = vec!["Program Name"];
    headers.extend(HashAlgoId::ALL.iter().map(|a| a.name()));
    let mut table = Table::new(&headers);
    let mut averages = vec![Throughput::default(); HashAlgoId::ALL.len()];
    let mut records = Vec::new();

    for w in odp_workloads::paper_benchmarks() {
        let name = w.name();
        let payloads = collect_payloads(w.as_ref());
        let mut row = vec![name.to_string()];
        // Hash the whole corpus, repeated to get a stable timing.
        let corpus_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let reps = (64 * 1024 * 1024 / corpus_bytes.max(1)).clamp(1, 64) as usize;
        for (ai, algo) in HashAlgoId::ALL.iter().enumerate() {
            let start = Instant::now();
            for _ in 0..reps {
                for p in &payloads {
                    black_box(algo.hash(black_box(p)));
                }
            }
            let t = Throughput {
                bytes: corpus_bytes * reps as u64,
                nanos: start.elapsed().as_nanos().max(1) as u64,
            };
            averages[ai].merge(t);
            row.push(format!("{:.1}", t.gb_per_s()));
            records.push(json!({
                "program": name,
                "hash": algo.name(),
                "gb_per_s": t.gb_per_s(),
            }));
        }
        table.row(row);
    }
    let mut avg_row = vec!["AVERAGE".to_string()];
    avg_row.extend(averages.iter().map(|t| format!("{:.1}", t.gb_per_s())));
    table.row(avg_row);

    // The selection criterion of §B.1.
    let (best_ix, best) = averages
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.gb_per_s().total_cmp(&b.1.gb_per_s()))
        .ok_or_else(|| error("no hash averages measured"))?;
    writeln!(
        out,
        "Table 4: Hash Rate in GB/s for Medium Problem Sizes\n\n\
         {}\n\
         fastest average: {} at {:.1} GB/s (paper: t1ha0_avx2 at 32 GB/s on EPYC 7543)",
        table.render(),
        HashAlgoId::ALL[best_ix].name(),
        best.gb_per_s()
    )?;
    args.emit_json(
        out,
        json!({ "experiment": "table4_hashrate", "points": records }),
    )
}

/// Table 5 — the evaluated programs and the paper's input strings.
pub(super) fn table5(_: &PaperArgs, out: Out<'_>) -> CmdResult {
    let mut inputs = Table::new(&["Application", "Domain", "Small", "Medium", "Large"]);
    for w in odp_workloads::paper_benchmarks() {
        inputs.row(vec![
            w.name().to_string(),
            w.domain().to_string(),
            w.paper_input(ProblemSize::Small).to_string(),
            w.paper_input(ProblemSize::Medium).to_string(),
            w.paper_input(ProblemSize::Large).to_string(),
        ]);
    }
    Ok(writeln!(
        out,
        "Table 5: Programs and Inputs Used for Evaluating OMPDataPerf\n\n{}",
        inputs.render()
    )?)
}

/// Table 6 — compiler and runtime support of OMPT target features, with
/// behavioural verification: for each profile, negotiate the tool's
/// required callbacks against a runtime of that profile and confirm the
/// grant matches the table.
pub(super) fn table6(_: &PaperArgs, out: Out<'_>) -> CmdResult {
    let cell = |v: Option<&str>| v.unwrap_or("-").to_string();
    let mut table = Table::new(&[
        "Compiler",
        "Runtime",
        "Tool Init",
        "Target CBs*",
        "Tracing",
        "Target EMI",
        "Map EMI†",
        "OMPDataPerf‡",
    ]);

    for profile in CompilerProfile::ALL {
        let row = profile.support_matrix_row();
        let caps = profile.capabilities();
        let supported = caps.meets_ompdataperf_requirements();
        table.row(vec![
            row.compiler.to_string(),
            row.runtime_name.to_string(),
            cell(row.tool_init),
            cell(row.target_callbacks),
            cell(row.tracing),
            cell(row.target_emi),
            cell(row.target_map_emi),
            if supported { "yes" } else { "no" }.to_string(),
        ]);

        let reg = ToolRegistration::negotiate(
            &[CallbackKind::TargetEmi, CallbackKind::TargetDataOpEmi],
            &caps,
        );
        if reg.fully_granted() != supported {
            return fail(format!(
                "{profile:?}: negotiation disagrees with the capability matrix"
            ));
        }
    }

    Ok(writeln!(
        out,
        "Table 6: Compiler and Runtime Support of OMPT Target Features\n\n\
         {}\n\
         *  deprecated in OpenMP 6.0, no longer required for compliance\n\
         †  optional for OMPT compliance (only NVHPC implements it)\n\
         ‡  runtime satisfies OMPDataPerf's required callbacks (§6)\n\n\
         all rows behaviourally verified against tool negotiation",
        table.render()
    )?)
}
