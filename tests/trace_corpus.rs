//! Golden-corpus regression suite for the persistent trace layer.
//!
//! Three checked-in fixtures under `tests/fixtures/` pin the corpus
//! pipeline end to end:
//!
//! - `corpus_babelstream_base.json` / `corpus_babelstream_remediated.json`
//!   — the babelstream pair (baseline vs. live-remediated capture).
//!   The differ must classify their sites *exactly*: both inefficiency
//!   sites persist (remediation shrinks them from 99 occurrences to the
//!   irreducible first occurrence; it cannot move the source line), and
//!   nothing is new or fixed.
//! - `reference_corpus.json` — babelstream + bfs + xsbench, the corpus
//!   CI regenerates and diffs against (the regression gate). Diffing the
//!   babelstream-only base *against* it must trip the gate with exactly
//!   the six bfs/xsbench sites as new.
//! - `babelstream_small.odpt` / `babelstream_small_v2.odpt` — one
//!   binary trace in format version 1 (what PR 9–21 wrote; must keep
//!   loading) and version 2 (what `odp trace save --trace-dir` writes
//!   now). Both load strictly to the same artifact, the version-2 file
//!   byte-identically, and any corruption of either degrades the
//!   lenient load into `TraceHealth::unreadable` instead of a panic.
//!
//! Every corpus is regenerated in-process through the same
//! `capture_artifact` + `FleetIngest` path the `odp` CLI uses, so a
//! byte-level mismatch against a fixture means the pipeline's output
//! drifted — exactly what this suite exists to catch. Simulated time is
//! fully deterministic, which is what makes byte-pinning viable.

use odp_trace::persist::{load_trace, load_trace_lenient};
use odp_trace::TraceArtifact;
use odp_workloads::capture::capture_artifact;
use odp_workloads::{by_name, ProblemSize, Variant};
use ompdataperf::analysis::infer_num_devices_columnar;
use ompdataperf::detect::{EventView, Findings};
use ompdataperf::fleet::{diff_corpora, Corpus, FindingKind, FleetIngest};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn fixture_text(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name))
        .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"))
}

fn fixture_corpus(name: &str) -> Corpus {
    Corpus::from_json(&fixture_text(name)).unwrap_or_else(|e| panic!("bad fixture {name}: {e}"))
}

/// Capture `names` exactly like `odp trace save --runs <names>` does.
fn capture_corpus(names: &[&str], remediate: bool) -> Corpus {
    let ingest = FleetIngest::new();
    for name in names {
        let w = by_name(name).expect("workload exists");
        let artifact = capture_artifact(&*w, ProblemSize::Small, Variant::Original, remediate);
        ingest.submit(name, artifact.to_bytes());
    }
    ingest.compact()
}

fn site(e: &ompdataperf::fleet::FleetEntry) -> (u64, i32, FindingKind) {
    (e.codeptr, e.device, e.kind)
}

// ---------------------------------------------------------------------
// Byte-reproducibility of the checked-in fixtures
// ---------------------------------------------------------------------

#[test]
fn golden_corpora_regenerate_byte_identically() {
    assert_eq!(
        capture_corpus(&["babelstream"], false).to_json(),
        fixture_text("corpus_babelstream_base.json"),
        "baseline babelstream corpus drifted from the checked-in fixture"
    );
    assert_eq!(
        capture_corpus(&["babelstream"], true).to_json(),
        fixture_text("corpus_babelstream_remediated.json"),
        "remediated babelstream corpus drifted from the checked-in fixture"
    );
    assert_eq!(
        capture_corpus(&["babelstream", "bfs", "xsbench"], false).to_json(),
        fixture_text("reference_corpus.json"),
        "CI reference corpus drifted from the checked-in fixture"
    );
}

// ---------------------------------------------------------------------
// Pinned diff classification
// ---------------------------------------------------------------------

#[test]
fn babelstream_pair_diff_is_pinned() {
    let base = fixture_corpus("corpus_babelstream_base.json");
    let remediated = fixture_corpus("corpus_babelstream_remediated.json");
    let d = diff_corpora(&base, &remediated);

    assert!(!d.is_regression(), "remediation must never trip the gate");
    assert!(
        d.new.is_empty(),
        "remediation introduced sites: {:?}",
        d.new
    );
    assert!(
        d.fixed.is_empty(),
        "sites cannot move; both persist shrunken"
    );
    let persisting: Vec<_> = d.persisting.iter().map(site).collect();
    assert_eq!(
        persisting,
        vec![
            (0x400010, 0, FindingKind::DuplicateTransfer),
            (0x400010, 0, FindingKind::RepeatedAlloc),
        ]
    );
    // The remediation's effect is pinned through the entry totals: 99
    // duplicate receptions (3 244 032 bytes) collapse to the single
    // irreducible first occurrence (32 768 bytes).
    assert_eq!(base.runs[0].counts.dd, 99);
    assert_eq!(base.runs[0].counts.ra, 99);
    for entry in &d.persisting {
        assert_eq!(entry.count, 1, "remediated occurrence count");
        assert_eq!(entry.bytes, 32_768, "remediated byte total");
    }
}

#[test]
fn new_sites_trip_the_regression_gate() {
    let base = fixture_corpus("corpus_babelstream_base.json");
    let reference = fixture_corpus("reference_corpus.json");
    let d = diff_corpora(&base, &reference);

    assert!(d.is_regression(), "six new sites must trip the gate");
    assert!(d.fixed.is_empty());
    assert_eq!(d.persisting.len(), 2, "babelstream's own sites persist");
    let new: Vec<_> = d.new.iter().map(site).collect();
    assert_eq!(
        new,
        vec![
            (0x410000, 0, FindingKind::DuplicateTransfer),
            (0x410020, -1, FindingKind::DuplicateTransfer),
            (0x410020, 0, FindingKind::DuplicateTransfer),
            (0x410020, 0, FindingKind::RoundTrip),
            (0x410020, 0, FindingKind::RepeatedAlloc),
            (0x480000, 0, FindingKind::RoundTrip),
        ],
        "the bfs/xsbench sites absent from the baseline must all be new"
    );
    // And the reverse direction reports the same sites as fixed.
    let reverse = diff_corpora(&reference, &base);
    assert!(!reverse.is_regression());
    assert_eq!(
        reverse.fixed.iter().map(site).collect::<Vec<_>>(),
        new,
        "fixed must be the mirror image of new"
    );
    // The rendered report names every class for human consumption.
    let text = d.render();
    assert!(text.contains("new:") && text.contains("persisting:"));
    assert!(text.contains("0x480000"));
}

#[test]
fn diff_json_round_trips_the_sets() {
    let base = fixture_corpus("corpus_babelstream_base.json");
    let reference = fixture_corpus("reference_corpus.json");
    let d = diff_corpora(&base, &reference);
    let json = d.to_json();
    for needle in ["\"new\"", "\"fixed\"", "\"persisting\"", "RoundTrip"] {
        assert!(json.contains(needle), "diff JSON missing {needle}");
    }
}

// ---------------------------------------------------------------------
// The binary trace fixture
// ---------------------------------------------------------------------

/// The binary fixtures: format version 1, then version 2.
const BINARY_FIXTURES: [&str; 2] = ["babelstream_small.odpt", "babelstream_small_v2.odpt"];

#[test]
fn binary_fixture_loads_strictly_and_matches_the_corpus() {
    let [v1, v2] = BINARY_FIXTURES.map(|name| std::fs::read(fixture_path(name)).expect("fixture"));
    assert_eq!((v1[8], v2[8]), (1, 2), "header versions");
    let artifact = load_trace(&v2).expect("checked-in trace must verify");
    assert_eq!(
        load_trace(&v1).expect("a version-1 trace must keep loading"),
        artifact,
        "the two versions differ only in their checksums"
    );
    assert_eq!(artifact.meta.program, "babelstream");
    assert!(artifact.health.is_clean());
    assert!(artifact.data_op_count() > 0);
    // Re-serialization is byte-identical: the format has one canonical
    // encoding per artifact, in the current version.
    assert_eq!(artifact.to_bytes(), v2);

    // Detection over the loaded columns reproduces the corpus counts.
    let cols = artifact.columnar();
    let view = EventView::over(&cols, infer_num_devices_columnar(&cols));
    let counts = Findings::detect_fused(&view).counts();
    let base = fixture_corpus("corpus_babelstream_base.json");
    assert_eq!(counts, base.runs[0].counts);

    // A fresh capture writes the identical file.
    let w = by_name("babelstream").expect("workload");
    let recaptured = capture_artifact(&*w, ProblemSize::Small, Variant::Original, false);
    assert_eq!(recaptured.to_bytes(), v2, "binary fixture drifted");
}

#[test]
fn corrupted_fixture_degrades_never_panics() {
    for name in BINARY_FIXTURES {
        let bytes = std::fs::read(fixture_path(name)).expect("fixture");
        let original = load_trace(&bytes).expect("fixture verifies");

        // Truncations at the header, mid-columns, footer, and tail.
        for cut in [
            0,
            15,
            100,
            bytes.len() / 2,
            bytes.len() - 25,
            bytes.len() - 1,
        ] {
            let loaded = load_trace_lenient(&bytes[..cut]);
            assert!(
                loaded.health.unreadable > 0,
                "{name}: truncation at {cut} must be accounted as unreadable"
            );
            assert!(load_trace(&bytes[..cut]).is_err());
        }

        // Deterministic bit flips across the regions of the file.
        for pos in (0..bytes.len()).step_by(997) {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x40;
            let loaded = load_trace_lenient(&mutated);
            assert!(
                loaded == original || loaded.health.unreadable > 0,
                "{name}: flip at {pos} neither decoded identically nor degraded"
            );
        }
    }

    // An empty and a garbage file decode to the empty degraded artifact.
    for junk in [&b""[..], b"ODPTRACE but not really"] {
        let loaded = load_trace_lenient(junk);
        assert_eq!(loaded.health.unreadable, 1);
        assert_eq!(loaded.data_op_count(), 0);
        assert_eq!(
            loaded,
            TraceArtifact {
                health: loaded.health,
                ..TraceArtifact::default()
            }
        );
    }
}
