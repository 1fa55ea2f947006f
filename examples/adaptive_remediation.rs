//! Adaptive remediation: detect → rewrite → recovered time, live.
//!
//! ```sh
//! cargo run --example adaptive_remediation
//! ```
//!
//! babelstream re-maps its initialization array every test run — the
//! intentional duplicate-transfer + repeated-allocation pattern of
//! Table 1. This example runs it three ways and prints what each moved:
//!
//! 1. **baseline** — the plain instrumented run;
//! 2. **adaptive** — one run with the detect→fix loop closed: the
//!    streaming engine's findings feed a `RemediationPolicy` mid-run,
//!    so every iteration after the first duplicate executes a rewritten
//!    mapping (the re-send is dropped, the present-table entry reused);
//! 3. **seeded re-run** — a second run whose policy was built from the
//!    baseline findings: the remediated kinds disappear entirely.

use odp_workloads::adaptive::Remedy;
use odp_workloads::session::{run, RunSpec};
use ompdataperf::remedy::RemediationPolicy;

fn main() {
    let w = odp_workloads::by_name("babelstream").unwrap();
    // Small, original variant, one thread; only the remedy differs.
    let run_as = |remedy| {
        run(
            &*w,
            &RunSpec {
                remedy,
                ..RunSpec::default()
            },
        )
    };

    // 1. Baseline: diagnose only.
    let baseline = run_as(Remedy::Off);
    println!("baseline :");
    println!(
        "  issues DD={} RA={} | {} transfers, {} B, transfer time {}",
        baseline.report.counts.dd,
        baseline.report.counts.ra,
        baseline.stats.transfers,
        baseline.stats.bytes_transferred,
        baseline.stats.transfer_time,
    );

    // 2. Adaptive: one run, findings rewrite the mappings mid-flight.
    let adaptive = run_as(Remedy::Adaptive);
    println!("\nadaptive (one live run):");
    println!(
        "  issues DD={} RA={} | {} transfers, {} B, transfer time {}",
        adaptive.report.counts.dd,
        adaptive.report.counts.ra,
        adaptive.stats.transfers,
        adaptive.stats.bytes_transferred,
        adaptive.stats.transfer_time,
    );
    if let Some(remediation) = &adaptive.remediation {
        print!("{}", remediation.render());
    }

    // 3. Seeded re-run: the policy knows everything from directive one.
    let policy = RemediationPolicy::from_findings(&baseline.report.findings);
    let seeded = run_as(Remedy::Seeded(policy));
    println!("\nseeded re-run:");
    println!(
        "  issues DD={} RA={} | {} transfers, {} B, transfer time {}",
        seeded.report.counts.dd,
        seeded.report.counts.ra,
        seeded.stats.transfers,
        seeded.stats.bytes_transferred,
        seeded.stats.transfer_time,
    );

    let saved = baseline.stats.transfer_time.as_nanos() as f64;
    let now = seeded.stats.transfer_time.as_nanos() as f64;
    println!(
        "\ntransfer time {} -> {} ({:.1}% recovered)",
        baseline.stats.transfer_time,
        seeded.stats.transfer_time,
        100.0 * (saved - now) / saved.max(1.0)
    );
}
