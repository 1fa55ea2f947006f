//! Concurrency and determinism suite for the fleet ingest service.
//!
//! Many producers submit serialized shard streams from real OS threads,
//! in seeded-shuffled arrival orders; the compacted corpus — run
//! reports, fleet rollup, and the exact JSON bytes — must be identical
//! whatever the schedule. CI runs this suite twice (free-running and
//! `RUST_TEST_THREADS=1`) so the internal threads — the producers here
//! and the compactor's own workers — race under both harness regimes.
//!
//! Also pinned here: duplicate submissions are *accounted* (never
//! silently merged), blocks that collide on every id are ordered by
//! their content, parallel compaction equals compacting one run at a
//! time, a corrupt or hostile submission degrades its run's health
//! without poisoning the process or sibling runs, and the rollup counts
//! per-site run occurrences across runs.

mod common;

use common::Rng;
use odp_model::{CodePtr, DataOpKind, DeviceId, SimTime, TargetKind, TimeSpan, TraceHealth};
use odp_trace::persist::{checksum64, load_trace_lenient};
use odp_trace::{TraceArtifact, TraceLog};
use ompdataperf::fleet::{diff_corpora, rollup, Corpus, FindingKind, FleetIngest};
use proptest::prelude::*;
use serde_json::Value;

fn span(a: u64, b: u64) -> TimeSpan {
    TimeSpan::new(SimTime(a), SimTime(b))
}

/// Build one shard's trace log from a seeded generator. Small pools of
/// hashes, addresses, and code pointers force cross-shard duplicate
/// receptions and repeated allocations so compaction has real findings
/// to aggregate.
fn shard_log(seed: u64, shard: u32, ops: u64) -> TraceLog {
    let mut log = TraceLog::for_shard(shard);
    let mut rng = Rng::new(seed ^ (u64::from(shard) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut t = u64::from(shard); // skewed clocks across shards
    for i in 0..ops {
        t += 1 + rng.below(20);
        let dev = DeviceId::target(rng.below(2) as u32);
        let cp = CodePtr(0x400_000 + rng.below(4) * 0x10);
        let _ = match rng.below(8) {
            0 | 1 => log.record_data_op(
                DataOpKind::Alloc,
                DeviceId::HOST,
                dev,
                0x1000 + rng.below(3) * 0x100,
                0xd000,
                64 << rng.below(3),
                None,
                span(t, t + 2),
                cp,
            ),
            2 => log.record_data_op(
                DataOpKind::Transfer,
                dev,
                DeviceId::HOST,
                0xd000,
                0x1000 + rng.below(3) * 0x100,
                64,
                Some(rng.below(4)),
                span(t, t + 5),
                cp,
            ),
            _ => log.record_data_op(
                DataOpKind::Transfer,
                DeviceId::HOST,
                dev,
                0x1000 + rng.below(3) * 0x100,
                0xd000,
                64,
                Some(rng.below(4)),
                span(t, t + 5),
                cp,
            ),
        };
        if i % 3 == 0 {
            log.record_target(TargetKind::Kernel, dev, span(t + 6, t + 9), CodePtr(0x77));
        }
    }
    log
}

/// `(run_id, serialized shard)` pairs for `runs` runs × `shards` shards.
fn submissions(seed: u64, runs: usize, shards: u32, ops: u64) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for r in 0..runs {
        for s in 0..shards {
            let log = shard_log(seed ^ (r as u64) << 32, s, ops);
            let artifact =
                TraceArtifact::from_log(&log, &format!("prog-{r}"), TraceHealth::default());
            out.push((format!("run-{r}"), artifact.to_bytes()));
        }
    }
    out
}

/// Submit every pair from `threads` OS threads in a seeded-shuffled
/// order, compact, and return the corpus JSON.
fn corpus_json(pairs: &[(String, Vec<u8>)], threads: usize, order_seed: u64) -> String {
    let mut idx: Vec<usize> = (0..pairs.len()).collect();
    let mut rng = Rng::new(order_seed);
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let ingest = FleetIngest::new();
    let per = idx.len().div_ceil(threads).max(1);
    std::thread::scope(|sc| {
        for chunk in idx.chunks(per) {
            let ingest = &ingest;
            sc.spawn(move || {
                for &i in chunk {
                    ingest.submit(&pairs[i].0, pairs[i].1.clone());
                }
            });
        }
    });
    ingest.compact().to_json()
}

// ---------------------------------------------------------------------
// Pinned coverage
// ---------------------------------------------------------------------

#[test]
fn eight_writers_compact_identically_to_one() {
    let pairs = submissions(7, 3, 4, 60);
    let serial = corpus_json(&pairs, 1, 0);
    for (threads, order_seed) in [(2, 11), (4, 23), (8, 37), (8, 41)] {
        assert_eq!(
            corpus_json(&pairs, threads, order_seed),
            serial,
            "{threads} writers (order seed {order_seed}) diverged from serial ingest"
        );
    }
    // The corpus is real, not vacuously empty.
    let corpus = Corpus::from_json(&serial).expect("parse");
    assert_eq!(corpus.runs.len(), 3);
    assert!(
        corpus.fleet.entries.iter().any(|e| e.runs > 1),
        "seeded runs share sites; the rollup must count them across runs"
    );
    assert!(!corpus.fleet.entries.is_empty());
}

#[test]
fn duplicate_submissions_are_accounted_not_merged() {
    let log = shard_log(99, 0, 20);
    let events = (log.data_op_count() + log.target_count()) as u64;
    let bytes = TraceArtifact::from_log(&log, "dup", TraceHealth::default()).to_bytes();

    let ingest = FleetIngest::new();
    ingest.submit("run", bytes.clone());
    ingest.submit("run", bytes);
    let corpus = ingest.compact();
    assert_eq!(
        corpus.runs[0].health.duplicate_ids, events,
        "every id claimed twice must be counted exactly once as a duplicate"
    );
    assert!(corpus.runs[0].health.warning().is_some());
}

#[test]
fn corrupt_submission_degrades_its_run_only() {
    let good = TraceArtifact::from_log(&shard_log(5, 0, 30), "ok", TraceHealth::default());

    let ingest = FleetIngest::new();
    ingest.submit("healthy", good.to_bytes());
    ingest.submit("poisoned", good.to_bytes());
    ingest.submit("poisoned", b"definitely not a trace file".to_vec());
    let corpus = ingest.compact();

    let healthy = corpus
        .runs
        .iter()
        .find(|r| r.run_id == "healthy")
        .expect("run");
    let poisoned = corpus
        .runs
        .iter()
        .find(|r| r.run_id == "poisoned")
        .expect("run");
    assert!(healthy.health.is_clean(), "sibling run must stay clean");
    assert_eq!(
        poisoned.health.unreadable, 1,
        "garbage must surface as unreadable"
    );
    // The good shard in the poisoned run still contributes findings.
    assert_eq!(poisoned.counts, healthy.counts);
}

/// The run-at-a-time reference for [`FleetIngest::compact`]: every run
/// compacted alone (one run is one worker, on the calling thread), the
/// reports rolled up afterwards.
fn one_run_at_a_time(pairs: &[(String, Vec<u8>)]) -> Corpus {
    let mut run_ids: Vec<&String> = pairs.iter().map(|(run, _)| run).collect();
    run_ids.sort();
    run_ids.dedup();
    let runs: Vec<_> = run_ids
        .into_iter()
        .flat_map(|run_id| {
            let ingest = FleetIngest::new();
            for (_, bytes) in pairs.iter().filter(|(run, _)| run == run_id) {
                ingest.submit(run_id, bytes.clone());
            }
            ingest.compact().runs
        })
        .collect();
    let fleet = rollup(&runs);
    Corpus { runs, fleet }
}

#[test]
fn colliding_blocks_are_ordered_by_content_not_arrival() {
    // Two producers claim the same shard and the very same event ids;
    // their blocks differ in exactly one non-id cell. The merge breaks
    // every (start, id) tie by block order, so the corpus depends on
    // which block sorts first — which must be a property of the bytes.
    let original = TraceArtifact::from_log(&shard_log(21, 0, 40), "twin", TraceHealth::default());
    let events = (original.data_op_count() + original.target_count()) as u64;
    let tweaks: [fn(&mut TraceArtifact); 3] = [
        |a| a.shards[0].ops.bytes[7] += 64,
        |a| a.shards[0].ops.hashes[3] = Some(odp_model::HashVal(0xdead)),
        |a| a.shards[0].targets.codeptrs[2] = CodePtr(0x99),
    ];
    for (i, tweak) in tweaks.into_iter().enumerate() {
        let mut twin = original.clone();
        tweak(&mut twin);
        assert_ne!(twin, original, "tweak {i} must change the block");
        let (a, b) = (original.to_bytes(), twin.to_bytes());

        let in_order = |first: &[u8], second: &[u8]| {
            let ingest = FleetIngest::new();
            ingest.submit("run", first.to_vec());
            ingest.submit("run", second.to_vec());
            ingest.compact()
        };
        let forward = in_order(&a, &b);
        assert_eq!(forward.to_json(), in_order(&b, &a).to_json(), "tweak {i}");
        assert_eq!(forward.runs[0].health.duplicate_ids, events, "tweak {i}");

        let pairs = [("run".to_string(), a), ("run".to_string(), b)];
        for threads in [1, 2, 8] {
            for order_seed in 0..4 {
                assert_eq!(
                    corpus_json(&pairs, threads, order_seed),
                    forward.to_json(),
                    "tweak {i}, {threads} producer(s), order seed {order_seed}"
                );
            }
        }
    }
}

#[test]
fn parallel_compaction_equals_one_run_at_a_time() {
    assert_eq!(FleetIngest::new().compact(), Corpus::default());
    // One run; as many runs as a small box has cores; more runs than
    // any CI box has workers to give them.
    for runs in [1, 2, 11] {
        let pairs = submissions(31, runs, 3, 40);
        let reference = one_run_at_a_time(&pairs);
        assert_eq!(reference.runs.len(), runs);
        assert!(!reference.fleet.entries.is_empty());
        for (threads, order_seed) in [(1, 0), (4, 5)] {
            assert_eq!(
                corpus_json(&pairs, threads, order_seed),
                reference.to_json(),
                "{runs} run(s), {threads} producer(s)"
            );
        }
    }
}

#[test]
fn corrupt_submission_among_many_runs_degrades_its_run_only() {
    let mut pairs = submissions(43, 9, 2, 30);
    let clean = one_run_at_a_time(&pairs);
    pairs.push(("run-4".to_string(), b"definitely not a trace file".to_vec()));
    let corpus = Corpus::from_json(&corpus_json(&pairs, 4, 9)).expect("parse");
    assert_eq!(corpus.runs.len(), 9);
    for (got, want) in corpus.runs.iter().zip(&clean.runs) {
        if got.run_id == "run-4" {
            assert_eq!(got.health.unreadable, 1);
            assert_eq!((got.counts, &got.findings), (want.counts, &want.findings));
        } else {
            assert_eq!(got, want, "sibling run {} must be untouched", got.run_id);
        }
    }
    assert_eq!(corpus.fleet, clean.fleet);
}

/// Set every `rows` count and every `health` counter of a footer to
/// `u64::MAX`.
fn maximize_footer_counts(v: &mut Value, in_health: bool) {
    match v {
        Value::Object(fields) => {
            for (key, field) in fields {
                if (key == "rows" || in_health) && matches!(field, Value::UInt(_)) {
                    *field = Value::UInt(u64::MAX);
                } else {
                    maximize_footer_counts(field, key == "health");
                }
            }
        }
        Value::Array(items) => {
            for item in items {
                maximize_footer_counts(item, false);
            }
        }
        _ => {}
    }
}

/// Rewrite a valid `.odpt` file's footer (see the layout in
/// `odp_trace::persist`) with `maximize_footer_counts` and re-checksum
/// it, so only the section checks can tell it is lying.
fn with_hostile_footer(bytes: &[u8]) -> Vec<u8> {
    let tail = bytes.len() - 24;
    let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().expect("8 bytes"));
    let footer_start = tail - footer_len as usize;
    let text = std::str::from_utf8(&bytes[footer_start..tail]).expect("footer is JSON text");
    let mut footer: Value = serde_json::from_str(text).expect("footer parses");
    maximize_footer_counts(&mut footer, false);
    let footer = serde_json::to_string(&footer).expect("footer renders");

    let mut out = bytes[..footer_start].to_vec();
    out.extend_from_slice(footer.as_bytes());
    out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum64(footer.as_bytes()).to_le_bytes());
    out.extend_from_slice(&bytes[bytes.len() - 8..]);
    out
}

#[test]
fn hostile_footer_counts_saturate_instead_of_overflowing() {
    let good = TraceArtifact::from_log(&shard_log(5, 0, 30), "ok", TraceHealth::default());
    let hostile = with_hostile_footer(&good.to_bytes());

    // The footer checksums, so the envelope is accepted; the claimed
    // row counts match no section, so every shard is quarantined and
    // its claimed u64::MAX events are added to an already-full bucket.
    let loaded = load_trace_lenient(&hostile);
    assert!(loaded.shards.is_empty());
    assert_eq!(loaded.health.unreadable, u64::MAX);
    assert!(loaded.health.warning().is_some());

    let ingest = FleetIngest::new();
    ingest.submit("healthy", good.to_bytes());
    ingest.submit("hostile", good.to_bytes());
    ingest.submit("hostile", hostile.clone());
    ingest.submit("hostile", hostile);
    let corpus = ingest.compact();
    let run = |id: &str| corpus.runs.iter().find(|r| r.run_id == id).expect("run");
    assert!(run("healthy").health.is_clean());
    assert_eq!(run("hostile").health.unreadable, u64::MAX);
    assert_eq!(run("hostile").health.total_quarantined(), u64::MAX);
    assert!(run("hostile").health.warning().is_some());
    assert_eq!(run("hostile").counts, run("healthy").counts);
}

#[test]
fn rollup_keys_sites_stably_across_runs() {
    // Two runs with the identical trace: every fleet entry spans both
    // runs with doubled totals, and diffing the corpus against itself
    // reports everything persisting.
    let pairs = submissions(13, 2, 2, 40);
    let solo = {
        let ingest = FleetIngest::new();
        for (run, bytes) in &pairs[..2] {
            ingest.submit(run, bytes.clone());
        }
        ingest.compact()
    };
    let both = Corpus::from_json(&corpus_json(&pairs, 2, 3)).expect("parse");
    for entry in &both.fleet.entries {
        assert!(entry.runs >= 1 && entry.runs <= 2);
        assert!(matches!(
            entry.kind,
            FindingKind::DuplicateTransfer
                | FindingKind::RoundTrip
                | FindingKind::RepeatedAlloc
                | FindingKind::UnusedAlloc
                | FindingKind::UnusedTransfer
        ));
    }
    let d = diff_corpora(&both, &both);
    assert!(!d.is_regression());
    assert_eq!(d.persisting.len(), both.fleet.entries.len());
    assert!(d.new.is_empty() && d.fixed.is_empty());
    // Sanity: the one-run corpus is a subset of the two-run fleet.
    for e in &solo.fleet.entries {
        assert!(
            both.fleet
                .entries
                .iter()
                .any(|b| (b.codeptr, b.device, b.kind) == (e.codeptr, e.device, e.kind)),
            "run-0 site vanished from the two-run rollup"
        );
    }
}

// ---------------------------------------------------------------------
// Property: scheduling independence over the generator space
// ---------------------------------------------------------------------

proptest! {
    // Each case spins up to 3 ingest rounds with real threads; keep the
    // count CI-sized. The vendored proptest stand-in seeds its RNG from
    // the test name, so every run draws the same cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corpus_is_schedule_independent(
        seed in 0u64..u64::MAX,
        runs in 1usize..4,
        shards in 1u32..5,
        ops in 1u64..50,
        threads in 2usize..9,
        order_seed in 0u64..u64::MAX,
    ) {
        let pairs = submissions(seed, runs, shards, ops);
        let serial = corpus_json(&pairs, 1, 0);
        let threaded = corpus_json(&pairs, threads, order_seed);
        prop_assert_eq!(&threaded, &serial, "threaded ingest diverged from serial");
        let corpus = Corpus::from_json(&serial).expect("parse");
        prop_assert_eq!(corpus.runs.len(), runs);
        prop_assert_eq!(corpus.to_json(), serial);
    }
}
