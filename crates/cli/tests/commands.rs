//! The `odp` subcommands, run in-process: `odp_cli::dispatch` writes
//! to a buffer instead of stdout, so `cargo test` exercises what CI's
//! smoke step only launches.

use odp_cli::paper::EXPERIMENTS;
use odp_cli::{dispatch, exit_code, Stop};
use serde_json::Value;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

/// Run `odp <line>`; the captured stdout and how the command ended.
fn odp(line: &str) -> (String, Result<(), Stop>) {
    let mut out = Vec::new();
    let result = dispatch(&argv(line), &mut out);
    (String::from_utf8(out).expect("utf-8 output"), result)
}

/// Stdout of a command that must succeed.
fn ok(line: &str) -> String {
    let (out, result) = odp(line);
    assert!(result.is_ok(), "odp {line}: {result:?}");
    out
}

/// The stderr message of a command that must fail.
fn failure(line: &str) -> String {
    match odp(line) {
        (_, Err(Stop::Fail(msg))) => msg,
        (out, other) => panic!("odp {line} should fail, got {other:?}\n{out}"),
    }
}

fn json(line: &str) -> Value {
    serde_json::from_str(&ok(line)).unwrap_or_else(|e| panic!("odp {line}: bad JSON: {e}"))
}

fn counts(report: &Value) -> [u64; 5] {
    ["dd", "rt", "ra", "ua", "ut"].map(|kind| {
        report["counts"][kind]
            .as_u64()
            .unwrap_or_else(|| panic!("no counts.{kind}"))
    })
}

#[test]
fn run_json_reports_the_table1_bfs_row_streamed_or_not() {
    // tests/table1_issue_counts.rs::bfs_original.
    const BFS_MEDIUM: [u64; 5] = [18, 10, 9, 0, 0];
    let post = json("run bfs --size m --json");
    assert_eq!(post["program"], "bfs");
    assert_eq!(counts(&post), BFS_MEDIUM);
    assert_eq!(
        counts(&json("run bfs --size m --json --stream")),
        BFS_MEDIUM
    );
}

#[test]
fn a_sharded_streamed_run_prints_the_postmortem_document() {
    assert_eq!(
        ok("run bfs --size s --stream --threads 4 --json"),
        ok("run bfs --size s --threads 4 --json")
    );
}

#[test]
fn run_text_mode_prints_live_lines_then_the_report() {
    let text = ok("run bfs --size s --stream");
    let live = text.find("stream: duplicate transfer").expect("live lines");
    let info = text
        .find("info: streaming detection emitted")
        .expect("info");
    let summary = text.find("=== Summary ===").expect("report");
    assert!(live < info && info < summary, "{text}");
    let quiet = ok("run bfs --size s --stream -q");
    assert!(!quiet.contains("stream:"), "{quiet}");
}

#[test]
fn run_remediate_reports_recovered_bytes() {
    let doc = json("run babelstream --remediate --json");
    assert!(doc["remediation"]["recovered_transfer_bytes"].as_u64() > Some(0));
    assert!(doc["report"]["counts"]["dd"].as_u64() > Some(0));
    let text = ok("run babelstream --remediate");
    assert!(text.contains("=== OpenMP Adaptive Mapping Remediation ==="));
    assert!(text.contains("recovered bytes"));
}

#[test]
fn run_stream_interval_polls_while_the_program_runs() {
    // Timing decides who prints a finding (poller or the end-of-run
    // residue), never whether it is printed, and the report is last.
    let text = ok("run bfs --size s --threads 2 --stream-interval 1");
    assert!(text.contains("stream: "), "{text}");
    let last_live = text.rfind("stream: ").expect("live lines");
    assert!(last_live < text.find("=== Summary ===").expect("report"));
    // --json keeps stdout one document.
    json("run bfs --size s --stream-interval 1 --json");
}

#[test]
fn run_rejects_what_it_cannot_do() {
    assert!(failure("run bfs --frobnicate").contains("Usage: odp run"));
    assert!(failure("run").contains("no program given"));
    assert!(failure("run nonesuch").contains("available: babelstream"));
    assert!(failure("run bfs --hash nope").contains("unknown hash"));
    assert!(failure("run hotspot --threads 2").contains("no threaded variant"));
    assert!(failure("run lud --variant fixed").contains("variant"));
    // The streaming knob needs a flag that turns streaming on.
    assert!(failure("run bfs --stall-timeout 50").contains("--stall-timeout needs --stream"));
    ok("run bfs --stall-timeout 500 --remediate -q");
    // There is no round-trip window left to cap.
    assert!(failure("run bfs --stream-cap 64").contains("unknown option --stream-cap"));
    // A seed alone seeds nothing.
    assert!(failure("run bfs --fault-seed 7").contains("--fault-seed needs --fault-profile"));
    ok("run bfs --fault-profile lossy --fault-seed 7 -q");
    ok("run bfs --fault-profile none --fault-seed 7 -q");
}

#[test]
fn arbalest_reports_and_takes_only_its_own_flags() {
    let text = ok("arbalest bfs");
    assert!(text.starts_with("=== Arbalest-Vec Data Mapping Correctness Report ==="));
    assert!(text.contains("program        : bfs"));
    assert!(ok("arbalest bfs --threads 4 --size s -q").contains("native runtime"));
    // It used to share the profiler's parser and ignore what it did not
    // read — including an invalid hash name.
    for line in [
        "arbalest bfs --json",
        "arbalest bfs --stream",
        "arbalest bfs --remediate",
        "arbalest bfs --hash nope",
    ] {
        assert!(failure(line).contains("Usage: odp arbalest"), "{line}");
    }
    assert!(failure("arbalest hotspot --threads 2").contains("no threaded variant"));
}

#[test]
fn trace_save_load_diff_round_trip_in_a_temp_dir() {
    let dir = std::env::temp_dir().join(format!("odp-cli-test-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp dir").to_string();
    let saved = ok(&format!(
        "trace save --out {dir}/corpus.json --runs babelstream,bfs --size s --trace-dir {dir}"
    ));
    assert!(saved.contains(&format!("wrote {dir}/bfs.odpt")));
    assert!(saved.contains("2 run(s)"));
    // Everything `save` says goes through its output — a degraded run's
    // health warning included — and clean runs say nothing but what
    // they wrote.
    assert_eq!(saved.lines().count(), 3, "{saved}");
    assert!(saved.lines().all(|l| l.starts_with("wrote ")), "{saved}");
    let loaded = ok(&format!("trace load {dir}/babelstream.odpt"));
    assert!(loaded.contains("format version 2"), "{loaded}");
    assert!(loaded.contains("program 'babelstream'"));
    assert!(loaded.contains("health: clean"));
    // A corpus never regresses against itself.
    ok(&format!("trace diff {dir}/corpus.json {dir}/corpus.json"));
    let diff = json(&format!(
        "trace diff {dir}/corpus.json {dir}/corpus.json --json"
    ));
    assert_eq!(diff["new"].as_array().map(Vec::len), Some(0));
    // The gate: the checked-in reference has sites this corpus lacks.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/reference_corpus.json"
    );
    let gate = failure(&format!("trace diff {dir}/corpus.json {fixture}"));
    assert!(gate.starts_with("regression: "), "{gate}");

    // `load` names the version it read and, for a file it cannot
    // verify, why — then degrades instead of failing.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/babelstream_small.odpt"
    );
    let v1 = ok(&format!("trace load {fixture}"));
    assert!(v1.contains("format version 1") && v1.contains("health: clean"));
    let mut bytes = std::fs::read(fixture).expect("fixture");
    let mut v9 = bytes.clone();
    v9[8] = 9;
    let refused: [(&[u8], &str); 3] = [
        (&v9, "unsupported trace format version 9"),
        (&bytes[..bytes.len() - 1], "not an ODPTRACE file"),
        (
            b"ODPTRACE but not really",
            "file shorter than header + tail",
        ),
    ];
    for (content, why) in refused {
        let path = format!("{dir}/refused.odpt");
        std::fs::write(&path, content).expect("write");
        let loaded = ok(&format!("trace load {path}"));
        assert!(loaded.contains(why), "{loaded}");
        assert!(!loaded.contains("odpt: format version"), "{loaded}");
        assert!(loaded.contains("program '', 0 shard(s)"), "{loaded}");
        assert!(loaded.contains("unreadable 1"), "{loaded}");
    }
    // A file whose envelope verifies but one section does not.
    bytes[16] ^= 0x40;
    let path = format!("{dir}/torn.odpt");
    std::fs::write(&path, &bytes).expect("write");
    let torn = ok(&format!("trace load {path}"));
    assert!(torn.contains("format version 1"), "{torn}");
    assert!(torn.contains("shard 0 column 'ids': checksum mismatch"));
    assert!(torn.contains("program 'babelstream', 0 shard(s)"), "{torn}");
    std::fs::remove_dir_all(&dir).expect("clean up");

    assert!(failure("trace save --out x.json --runs bfs --json").contains("unknown save option"));
    assert!(failure("trace frobnicate").contains("Usage:"));
    assert!(failure("trace load").contains("exactly one file"));
}

#[test]
fn static_analyze_predicts_and_takes_only_its_own_flags() {
    let text = ok("static analyze babelstream");
    assert!(text.contains("[certain] DD dev 0 @ babelstream"), "{text}");
    let doc = json("static analyze babelstream --size m --json");
    assert!(doc.is_object());
    // The gate is "no more findings than before", not "strictly fewer":
    // bfs's one Certain row has no safe rewrite, and that is not a failure.
    let validated = |out: &str| -> [u64; 2] {
        let tail = &out[out.rfind("validated: ").expect("validation line")..];
        let mut totals = tail.split_whitespace().filter_map(|w| w.parse().ok());
        [(); 2].map(|()| totals.next().expect("before and after totals"))
    };
    let bfs = ok("static plan bfs");
    assert!(bfs.contains("unremediable: "), "{bfs}");
    let [before, after] = validated(&bfs);
    assert!(before > 0 && after == before, "{before} → {after}");
    let [before, after] = validated(&ok("static plan babelstream"));
    assert!(before > 0 && after == 0, "{before} → {after}");
    assert!(failure("static analyze babelstream --variant fixed").contains("unknown static option"));
    assert!(failure("static analyze hotspot").contains("unknown workload"));
    assert!(failure("static frobnicate bfs").contains("analyze|crosscheck|plan"));
}

/// An IR program is a workload: every command that takes a program
/// takes `ir-*` and `mem*`, resolved by the one `cli::workload`.
#[test]
fn an_ir_program_runs_wherever_a_workload_does() {
    // crosscheck's 9 DD + 12 RA, now as a streamed `odp run` document.
    let streamed = json("run ir-babelstream --size s --stream --json");
    assert_eq!(streamed["program"], "ir-babelstream");
    assert_eq!(counts(&streamed), [9, 0, 12, 0, 0]);
    assert_eq!(
        ok("run ir-babelstream --size s --stream --json"),
        ok("run ir-babelstream --size s --json")
    );
    // Report rows resolve through the program's site labels.
    let text = ok("run mem1");
    assert!(text.contains("(mem1:daxpy)"), "{text}");
    assert!(text.contains("issues: DD=9 RT=0 RA=9 UA=0 UT=0"), "{text}");
    let threaded = ok("run mem1 --threads 2");
    assert!(threaded.contains("issues: DD="), "{threaded}");
    let fixed = ok("run mem1 --variant fixed");
    assert!(
        fixed.contains("issues: DD=0 RT=0 RA=0 UA=0 UT=0"),
        "{fixed}"
    );
    assert!(failure("run mem1 --variant synthetic").contains("variant"));
    assert!(ok("arbalest mem5 --size s").contains("program        : mem5"));

    // The hand-written babelstream and its IR model, in one corpus.
    let dir = std::env::temp_dir().join(format!("odp-cli-ir-test-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp dir").to_string();
    let saved = ok(&format!(
        "trace save --out {dir}/both.json --runs babelstream,ir-babelstream --trace-dir {dir}"
    ));
    assert!(saved.contains(&format!("wrote {dir}/ir-babelstream.odpt")));
    assert!(saved.contains("2 run(s)"), "{saved}");
    ok(&format!("trace diff {dir}/both.json {dir}/both.json"));
    std::fs::remove_dir_all(&dir).expect("clean up");

    let plan = ok("static plan mem1");
    assert!(plan.contains("[SplitMapToEnterExit] at mem1:daxpy (z)"));
    assert!(plan.ends_with("validated: 18 dynamic finding(s) before, 0 after\n"));
    let check = json("static crosscheck mem2 --json");
    assert_eq!(check["program"], "mem2(n=64, iters=4)");
    assert_eq!(check["summary"]["certain_confirmed"], 2);
    assert_eq!(check["summary"]["dynamic_only"], 0);
    // `odp static` predates the ir- prefix: both spellings are one program.
    assert_eq!(ok("static analyze ir-bfs"), ok("static analyze bfs"));
}

/// Derived types write their own JSON text; `serde::JsonOut::value`
/// writes a parsed tree. Every document `odp` prints, parsed and written
/// again, must come back byte for byte — or the two writers have drifted.
#[test]
fn every_json_document_is_a_fixpoint_of_the_value_writer() {
    fn assert_fixpoint(what: &str, text: &str) {
        // A pretty document ends at its first column-0 `}` (`static plan`
        // prints its validation line after it).
        let doc = &text[..text.find("\n}").map_or(text.len(), |at| at + 2)];
        let tree: Value =
            serde_json::from_str(doc).unwrap_or_else(|e| panic!("{what}: bad JSON: {e}"));
        let again = serde_json::to_string_pretty(&tree).expect("a tree always serializes");
        assert!(again == doc, "{what}: the Value writer differs");
    }
    let listing = failure("run nonesuch");
    let names = &listing[listing.find("available: ").expect("program list") + 11..];
    let names: Vec<&str> = names.trim_end().split(", ").collect();
    assert_eq!(names.len(), 24, "{names:?}");
    for name in names {
        let line = format!("run {name} --size s --json");
        assert_fixpoint(&line, &ok(&line));
    }
    // `run.rs` composes this one from two pretty documents.
    let remediated = ok("run babelstream --size s --remediate --json");
    let doc: Value = serde_json::from_str(&remediated).expect("--remediate --json");
    let pretty = |v: &Value| serde_json::to_string_pretty(v).expect("a tree always serializes");
    assert!(
        remediated
            == format!(
                "{{\"report\":{},\"remediation\":{}}}\n",
                pretty(&doc["report"]),
                pretty(&doc["remediation"])
            ),
        "--remediate --json: the Value writer differs"
    );
    let dir = std::env::temp_dir().join(format!("odp-cli-fixpoint-{}", std::process::id()));
    let dir = dir.to_str().expect("utf-8 temp dir").to_string();
    ok(&format!(
        "trace save --out {dir}/corpus.json --runs babelstream,mem1 --size s --trace-dir {dir}"
    ));
    for line in [
        "run bfs --size s --stream --json".to_string(),
        "run babelstream --size s --threads 4 --stream --json".to_string(),
        "static analyze mem1 --json".to_string(),
        "static crosscheck babelstream --json".to_string(),
        "static plan mem1 --json".to_string(),
        format!("trace diff {dir}/corpus.json {dir}/corpus.json --json"),
    ] {
        assert_fixpoint(&line, &ok(&line));
    }
    let corpus = std::fs::read_to_string(format!("{dir}/corpus.json")).expect("corpus");
    assert_fixpoint("trace save", &corpus);
    ok(&format!(
        "run bfs --size s --trace-out {dir}/chrome.json -q"
    ));
    let chrome = std::fs::read_to_string(format!("{dir}/chrome.json")).expect("chrome trace");
    assert_fixpoint("--trace-out", &chrome);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// Help and error texts list what the registries hold, not a copy.
#[test]
fn program_lists_derive_from_the_registries() {
    let hand_written = "babelstream, bfs, hotspot";
    let ir = "ir-babelstream, ir-bfs, ir-xsbench, mem1, mem2, mem3, mem4, mem5, mem6";
    for listing in [
        ok("run --help"),
        failure("run nonesuch"),
        failure("arbalest nonesuch"),
        failure("trace save --out x.json --runs nonesuch"),
    ] {
        assert!(listing.contains(hand_written), "{listing}");
        assert!(listing.contains(ir), "{listing}");
    }
    for listing in [
        ok("static --help"),
        failure("static plan"),
        failure("static analyze hotspot"),
    ] {
        assert!(listing.contains(ir), "{listing}");
        assert!(!listing.contains(hand_written), "{listing}");
    }
    let unthreaded = failure("run hotspot --threads 2");
    assert!(
        unthreaded.contains("xsbench, ir-babelstream"),
        "{unthreaded}"
    );
}

#[test]
fn paper_help_lists_exactly_the_registry() {
    let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut unique = registry.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), registry.len(), "{registry:?}");

    let help = ok("paper --help");
    let listed: Vec<&str> = help
        .lines()
        .skip_while(|l| *l != "Experiments:")
        .skip(1)
        .take_while(|l| *l != "Options:")
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed.split_last(), Some((&"all", &registry[..])), "{help}");
}

#[test]
fn paper_tables_are_reproducible_with_their_titles_pinned() {
    for (line, title) in [
        (
            "paper table2",
            "Table 2: Issues Detected by OMPDataPerf and Arbalest-Vec",
        ),
        (
            "paper table3 --quick",
            "Table 3: Runtime Measurements Before and After Fixing the Identified Issues",
        ),
        (
            "paper table6",
            "Table 6: Compiler and Runtime Support of OMPT Target Features",
        ),
    ] {
        let text = ok(line);
        assert_eq!(text.lines().next(), Some(title), "{line}");
        assert_eq!(ok(line), text, "{line} differs between two runs");
    }
}

#[test]
fn paper_rejects_what_it_cannot_do() {
    for (line, message) in [
        ("paper", "no experiment given"),
        ("paper nosuch", "unknown experiment 'nosuch'"),
        ("paper fig3 --quik", "unknown option --quik"),
        ("paper table6 table2", "unexpected argument table2"),
    ] {
        let stderr = failure(line);
        assert!(stderr.contains(message), "{line}: {stderr}");
        for e in EXPERIMENTS {
            assert!(stderr.contains(e.name), "{line} must list {}", e.name);
        }
    }
    // `--json` where there is no JSON form is an error, not a no-op.
    for e in EXPERIMENTS.iter().filter(|e| !e.json) {
        let stderr = failure(&format!("paper {} --json", e.name));
        assert!(stderr.contains("has no --json form"), "{stderr}");
    }
    assert!(failure("paper all --json").contains("has no --json form"));
}

#[test]
fn help_lists_each_commands_own_flags_only() {
    let top = ok("--help");
    for command in [
        "odp run",
        "odp arbalest",
        "odp trace",
        "odp static",
        "odp paper",
    ] {
        assert!(top.contains(command), "{command}");
    }
    assert_eq!(ok(""), top, "no arguments prints the overview");
    assert!(ok("--version").starts_with("odp "));
    assert!(failure("frobnicate").contains("unknown command"));

    let run = ok("run --help");
    assert!(run.contains("--remediate") && run.contains("--fault-profile"));
    assert!(!run.contains("--runs") && !run.contains("--trace-dir"));
    let arbalest = ok("arbalest --help");
    assert!(arbalest.contains("--threads") && !arbalest.contains("--stream"));
    let trace = ok("trace --help");
    assert!(trace.contains("--trace-dir") && !trace.contains("--hash"));
    let statics = ok("static --help");
    assert!(statics.contains("crosscheck") && !statics.contains("--variant"));
    let paper = ok("paper --help");
    assert!(paper.contains("--quick") && !paper.contains("--size"));
}

/// `odp … | head -n`: the reader leaves after `lines` lines (0: the
/// pipe is already closed). The command stops with the I/O error, which
/// `exit_code` reports as success without a message.
#[test]
fn a_closed_pipe_is_an_io_stop_not_a_panic() {
    struct Head {
        lines: usize,
    }
    impl std::io::Write for Head {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.lines == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let newlines = buf.iter().filter(|b| **b == b'\n').count();
            self.lines = self.lines.saturating_sub(newlines);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    for (lines, line) in [
        (0, "run bfs"),
        (0, "run bfs --stream-interval 1"),
        (0, "arbalest bfs"),
        (0, "static analyze bfs"),
        (0, "paper table6"),
        (1, "paper table1"),
        (1, "paper all --quick"),
        (0, "--help"),
    ] {
        let result = dispatch(&argv(line), &mut Head { lines });
        match &result {
            Err(Stop::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe, "{line}"),
            other => panic!("odp {line}: expected an I/O stop, got {other:?}"),
        }
        assert_eq!(exit_code(result), std::process::ExitCode::SUCCESS, "{line}");
    }
}
