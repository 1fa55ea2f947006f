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
/// the engine's `drains, drained_events, reorder_inversions`.
/// `buffered_peak` rides beside it in the clear: it is the one counter
/// that depends on how fresh the published watermark is when a drain
/// releases.
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
        "{} {} {}",
        s.drains, s.drained_events, s.reorder_inversions
    ));
    (
        odp_trace::persist::checksum64(text.as_bytes()),
        s.buffered_peak,
    )
}

#[test]
fn live_stream_transcript_is_pinned() {
    const EXPECTED: [(&str, u64, usize); 24] = [
        ("babelstream", 0x9ab5_f560_657f_340f, 0),
        ("bfs", 0x86bc_610c_04fa_8a16, 0),
        ("hotspot", 0x07c9_521b_7d50_ee62, 0),
        ("lud", 0xabfe_86a4_b3db_49bc, 0),
        ("minife", 0xeaa7_25c9_edf4_5894, 0),
        ("minifmm", 0xbbc3_e9c0_ac9d_da21, 0),
        ("nw", 0x3ab0_fa4a_38f4_4cd1, 0),
        ("rsbench", 0x94e5_219f_890c_e56d, 0),
        ("tealeaf", 0x07d7_dbfc_d14b_053c, 0),
        ("xsbench", 0x94e5_219f_890c_e56d, 0),
        ("resize-omp", 0x7d89_6c5c_276a_6516, 0),
        ("mandelbrot-omp", 0xa82e_2731_0785_7305, 0),
        ("accuracy-omp", 0xd309_603e_9fc5_4bc2, 0),
        ("lif-omp", 0xbdd2_7245_9d8c_a0bb, 0),
        ("bspline-vgh-omp", 0xfbd0_7f27_592d_a22d, 0),
        ("ir-babelstream", 0x096d_a6d8_bf66_939f, 0),
        ("ir-bfs", 0xdecc_c036_6064_bd9f, 0),
        ("ir-xsbench", 0x2155_6656_bddc_17fc, 0),
        ("mem1", 0x61be_6c84_c19f_33b4, 0),
        ("mem2", 0x9a32_e883_b760_b9bc, 0),
        ("mem3", 0x2155_6656_bddc_17fc, 0),
        ("mem4", 0x9a32_e883_b760_b9bc, 0),
        ("mem5", 0x2155_6656_bddc_17fc, 0),
        ("mem6", 0x2155_6656_bddc_17fc, 0),
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
