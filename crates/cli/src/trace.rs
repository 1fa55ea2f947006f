//! `odp trace` — corpus tooling for the persistent trace backend.
//!
//! `save` captures one instrumented run per named workload, feeds the
//! serialized traces through the fleet ingest compactor, and writes the
//! corpus JSON (optionally keeping the binary `.odpt` trace per run).
//! `load` hydrates one binary trace and summarizes it, naming the format
//! version it read — a corrupt file says why it was refused and then
//! degrades to a health warning, never a failure. `diff`
//! compares two corpora and fails when new findings appear: the CI
//! regression gate.

use crate::{error, fail, value, workload, CmdResult, Out, Scale, Stop};
use odp_trace::persist::{load_trace, load_trace_lenient, PersistError};
use odp_workloads::capture::capture_artifact;
use ompdataperf::fleet::{diff_corpora, Corpus, FleetIngest};

const USAGE: &str = "\
Usage:
    odp trace save --out <corpus.json> --runs <w1,w2,...> [options]
    odp trace load <file.odpt>
    odp trace diff <base.json> <new.json> [--json]

SAVE OPTIONS:
    --out PATH        corpus JSON output path (required)
    --runs LIST       comma-separated workload names (required)
    --size s|m|l      problem size (default s)
    --variant NAME    original | fixed | synthetic (default original)
    --remediate       capture remediated executions (live rewrite loop)
    --trace-dir DIR   also write each run's binary trace as DIR/<run>.odpt

DIFF:
    fails (exit 1) when the new corpus contains finding sites absent
    from the baseline (new regressions); prints new/fixed/persisting
    either as text or, with --json, as a machine-readable document.";

/// `odp trace save|load|diff ...`.
pub(crate) fn execute(args: &[String], out: Out<'_>) -> CmdResult {
    match args.split_first() {
        Some((verb, rest)) => match verb.as_str() {
            "-h" | "--help" => Err(Stop::Exit(USAGE.to_string())),
            "save" => save(rest, out),
            "load" => load(rest, out),
            "diff" => diff(rest, out),
            other => fail(format!("unknown trace command '{other}'\n\n{USAGE}")),
        },
        None => fail(format!("trace needs save|load|diff\n\n{USAGE}")),
    }
}

fn save(args: &[String], out: Out<'_>) -> CmdResult {
    let mut corpus_path: Option<&String> = None;
    let mut runs: Vec<&str> = Vec::new();
    let mut scale = Scale::default();
    let mut remediate = false;
    let mut trace_dir: Option<&String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => corpus_path = Some(value(&mut it, "--out needs a path")?),
            "--runs" => {
                let list = value(&mut it, "--runs needs a comma-separated list")?;
                runs.extend(list.split(',').map(str::trim).filter(|s| !s.is_empty()));
            }
            flag @ ("--size" | "--variant") => scale.set(flag, it.next())?,
            "--remediate" => remediate = true,
            "--trace-dir" => trace_dir = Some(value(&mut it, "--trace-dir needs a directory")?),
            other => return fail(format!("unknown save option {other}")),
        }
    }
    let Some(corpus_path) = corpus_path else {
        return fail("save needs --out");
    };
    if runs.is_empty() {
        return fail("save needs --runs");
    }
    // The corpus files captures by run id: a repeated name would merge
    // two runs into one and invent findings.
    for (i, run_id) in runs.iter().enumerate() {
        if runs[..i].contains(run_id) {
            return fail(format!("--runs names {run_id} twice"));
        }
    }

    let ingest = FleetIngest::new();
    for run_id in runs {
        let w = workload(run_id)?;
        let artifact = capture_artifact(&*w, scale.size, scale.variant, remediate);
        if let Some(warning) = artifact.health.warning() {
            writeln!(out, "{run_id}: {warning}")?;
        }
        let bytes = artifact.to_bytes();
        if let Some(dir) = trace_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                return fail(format!("cannot create {dir}: {e}"));
            }
            let path = format!("{dir}/{run_id}.odpt");
            if let Err(e) = std::fs::write(&path, &bytes) {
                return fail(format!("cannot write {path}: {e}"));
            }
            writeln!(out, "wrote {path} ({} bytes)", bytes.len())?;
        }
        ingest.submit(run_id, bytes);
    }
    let corpus = ingest.compact();
    if let Err(e) = std::fs::write(corpus_path, corpus.to_json()) {
        return fail(format!("cannot write {corpus_path}: {e}"));
    }
    writeln!(
        out,
        "wrote {corpus_path}: {} run(s), {} fleet finding site(s)",
        corpus.runs.len(),
        corpus.fleet.entries.len()
    )?;
    Ok(())
}

fn load(args: &[String], out: Out<'_>) -> CmdResult {
    let [path] = args else {
        return fail("load needs exactly one file");
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(format!("cannot read {path}: {e}")),
    };
    // The strict loader says what is wrong; the lenient one salvages
    // what still verifies.
    let strict = load_trace(&bytes);
    // Unless the envelope was refused, the header's version (a
    // little-endian u32 at offset 8) is the one the file was read as.
    if let (Ok(_) | Err(PersistError::BadSection { .. }), Some(&[a, b, c, d])) =
        (&strict, bytes.get(8..12))
    {
        let version = u32::from_le_bytes([a, b, c, d]);
        writeln!(out, "{path}: format version {version}")?;
    }
    let artifact = match strict {
        Ok(artifact) => artifact,
        Err(why) => {
            writeln!(out, "{path}: {why}")?;
            load_trace_lenient(&bytes)
        }
    };
    let stats = artifact.stats();
    writeln!(
        out,
        "{path}: program '{}', {} shard(s), {} data op(s), {} target event(s)",
        artifact.meta.program,
        artifact.shards.len(),
        artifact.data_op_count(),
        artifact.target_count(),
    )?;
    writeln!(
        out,
        "  transfers {} ({} bytes), allocs {}, kernels {}, total time {} ns",
        stats.transfers,
        stats.bytes_transferred,
        stats.allocs,
        stats.kernels,
        stats.total_time.as_nanos(),
    )?;
    match artifact.health.warning() {
        Some(w) => writeln!(out, "  {w}")?,
        None => writeln!(out, "  health: clean")?,
    }
    Ok(())
}

fn diff(args: &[String], out: Out<'_>) -> CmdResult {
    let (base_path, new_path, json) = match args {
        [b, n] => (b, n, false),
        [b, n, flag] if flag == "--json" => (b, n, true),
        _ => return fail("diff needs <base.json> <new.json> [--json]"),
    };
    let load = |path: &String| -> Result<Corpus, Stop> {
        let text =
            std::fs::read_to_string(path).map_err(|e| error(format!("cannot read {path}: {e}")))?;
        Corpus::from_json(&text).map_err(|e| error(format!("cannot parse {path}: {e}")))
    };
    let diff = diff_corpora(&load(base_path)?, &load(new_path)?);
    if json {
        writeln!(out, "{}", diff.to_json())?;
    } else {
        write!(out, "{}", diff.render())?;
    }
    if diff.is_regression() {
        return Err(Stop::Fail(format!(
            "regression: {} new finding site(s) vs {base_path}",
            diff.new.len()
        )));
    }
    Ok(())
}
