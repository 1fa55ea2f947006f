//! The live findings stream of every program, pinned.
//!
//! `--stream` runs the five §5 machines behind the collector's rings,
//! watermark and reorder lanes. What comes out of that path — the live
//! findings in the order the engine emitted them, and the engine's
//! batch and window counters — is pinned per program, so a change to
//! how events reach the engine must reproduce it unmodified.

use odp_static::registry;
use odp_workloads::session::{run_observed, RunSpec};
use odp_workloads::Workload;
use ompdataperf::detect::StreamFinding;
use ompdataperf::tool::ToolConfig;
use std::cell::RefCell;

/// One streamed run of `w` (one thread, Small). The digest is
/// `checksum64` over the live findings in emission order — a tap's
/// takes, then what no tap had drained when the program exited — and
/// the engine's `drains, drained_events, frontier_peak,
/// reorder_inversions`. `buffered_peak` rides beside it in the clear:
/// it is the one counter that depends on how fresh the published
/// watermark is when a drain releases.
fn live_transcript(w: &dyn Workload) -> (u64, usize) {
    let spec = RunSpec {
        tool: ToolConfig {
            stream: true,
            ..ToolConfig::default()
        },
        ..RunSpec::default()
    };
    let taken: RefCell<Vec<StreamFinding>> = RefCell::new(Vec::new());
    let outcome = run_observed(w, &spec, |handle| {
        let tap = handle.tap_stream_findings();
        let taken = &taken;
        move || taken.borrow_mut().extend(tap.take())
    });
    let live = outcome.live.expect("a streamed run settles its engine");
    let mut text = String::new();
    for finding in taken.into_inner().iter().chain(&live.undrained) {
        text.push_str(&format!("{finding:?}\n"));
    }
    let s = live.stats;
    text.push_str(&format!(
        "{} {} {} {}",
        s.drains, s.drained_events, s.frontier_peak, s.reorder_inversions
    ));
    (
        odp_trace::persist::checksum64(text.as_bytes()),
        s.buffered_peak,
    )
}

#[test]
fn live_stream_transcript_is_pinned() {
    const EXPECTED: [(&str, u64, usize); 24] = [
        ("babelstream", 0x76e0_9f30_bb02_c850, 0),
        ("bfs", 0xee83_87d3_4ed4_d2d3, 0),
        ("hotspot", 0x805b_d719_dae4_510d, 0),
        ("lud", 0x045c_50f6_8d06_4d97, 0),
        ("minife", 0x81e7_be87_c1ca_370d, 0),
        ("minifmm", 0x812d_f1c6_cca9_c9d0, 0),
        ("nw", 0xffc5_7edd_5d10_b9af, 0),
        ("rsbench", 0xbf30_9f8a_df04_b740, 0),
        ("tealeaf", 0x646c_f692_19a1_1bac, 0),
        ("xsbench", 0xbf30_9f8a_df04_b740, 0),
        ("resize-omp", 0x633b_82cb_94a4_9970, 0),
        ("mandelbrot-omp", 0x2e8a_a684_a022_5956, 0),
        ("accuracy-omp", 0xeb33_bf72_b2f3_b301, 0),
        ("lif-omp", 0xc932_1abf_5665_f6e9, 0),
        ("bspline-vgh-omp", 0x31ba_6e6e_0d93_096d, 0),
        ("ir-babelstream", 0x4142_7fa2_e172_6546, 0),
        ("ir-bfs", 0x3251_767b_2a63_3b03, 0),
        ("ir-xsbench", 0xc0f3_b2bd_06f4_1a12, 0),
        ("mem1", 0xe2d4_ca9c_dc62_2af3, 0),
        ("mem2", 0x6221_1a2a_7107_2562, 0),
        ("mem3", 0x2c45_05ab_5f68_db05, 0),
        ("mem4", 0x6221_1a2a_7107_2562, 0),
        ("mem5", 0x2c45_05ab_5f68_db05, 0),
        ("mem6", 0x2c45_05ab_5f68_db05, 0),
    ];
    let mut programs = odp_workloads::all();
    programs.extend(
        registry()
            .into_iter()
            .map(|p| Box::new(p) as Box<dyn Workload>),
    );
    let got: Vec<(&str, u64, usize)> = programs
        .iter()
        .map(|w| {
            let (digest, buffered_peak) = live_transcript(&**w);
            (w.name(), digest, buffered_peak)
        })
        .collect();
    assert_eq!(
        got, EXPECTED,
        "(program, live digest, buffered_peak); got:\n{got:#x?}"
    );
}
