#!/usr/bin/env sh
# Determinism lint: the report/export/persist layers must never iterate
# a std HashMap/HashSet — iteration order is randomized per process
# (SipHash keyed by RandomState), so any output derived from it is
# nondeterministic across runs. Those layers use BTreeMap/BTreeSet or
# insertion-ordered Vecs instead.
#
# The gate is intentionally blunt: it forbids *naming* std's HashMap or
# HashSet anywhere in the gated paths, because a lookup-only map today
# becomes an iterated map in a refactor tomorrow. Lookup-only uses that
# genuinely need O(1) maps live outside these paths (e.g. the trace
# interner's ptr->id table, which resolves through an insertion-ordered
# Vec and never exposes map order). Fixed-hasher wrappers such as
# `FnvHashMap` (deterministic order for a fixed insertion sequence) are
# allowed and deliberately not matched.
#
# More gates, at the end, keep the wall clock out of the collector's
# callbacks except where the hash meter reads it and out of the
# watermark merge that decides who drains, the version-1 byte-wise
# checksum off the `.odpt` write path, a second run driver out of
# `odp-static`, `Value` trees off the output paths, and per-launch
# buffer copies and locks out of the simulator.
set -eu
cd "$(dirname "$0")/.."

# Paths whose output must be byte-deterministic: finding reports and
# exports, the detectors (a finding group's position is its position in
# the report), the savings estimate and the end-to-end analysis feeding them,
# fleet aggregation, trace persistence/export/stats, and the
# whole static-analysis crate (golden fixtures are pinned byte-for-byte).
GATED_PATHS="
crates/core/src/report
crates/core/src/detect
crates/core/src/fleet
crates/core/src/remedy
crates/core/src/predict
crates/core/src/analysis.rs
crates/trace/src/persist.rs
crates/trace/src/chrome.rs
crates/trace/src/stats.rs
crates/trace/src/log.rs
crates/static/src
"

fail=0
for path in $GATED_PATHS; do
    if [ ! -e "$path" ]; then
        echo "determinism_lint: gated path missing: $path" >&2
        fail=1
        continue
    fi
    # Match the bare std type names only: a non-identifier character (or
    # line start) before HashMap/HashSet, so FnvHashMap and friends pass.
    # Also flag RandomState, the source of the per-process randomness.
    if hits=$(grep -rnE '(^|[^A-Za-z0-9_])(HashMap|HashSet|RandomState)' "$path"); then
        echo "determinism_lint: std hash collections in deterministic-output path:" >&2
        echo "$hits" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "determinism_lint: FAILED — use BTreeMap/BTreeSet (or an" >&2
    echo "insertion-ordered Vec) in report/export/persist code paths." >&2
    exit 1
fi
echo "determinism_lint: OK — no std HashMap/HashSet in gated paths"

# The collector's callbacks read the wall clock in one place only: the
# hash meter (`ShardMeter::hash`), which decides from payload sizes
# alone whether to. A second `Instant::now` in tool.rs is a clock pair
# on every callback — several times what the callback's hash costs.
TOOL=crates/core/src/tool.rs
if ! awk '
    /fn hash\(&mut self, algo: HashAlgoId/ { metering = 1 }
    metering && /^    }$/ { metering = 0 }
    /Instant::now/ && !/^[[:space:]]*\/\// {
        reads++
        if (!metering) { print FILENAME ":" FNR ": " $0; stray = 1 }
    }
    END { exit (stray || reads != 1) }
' "$TOOL" >&2; then
    echo "determinism_lint: FAILED — $TOOL must read Instant::now exactly" >&2
    echo "once, inside ShardMeter::hash." >&2
    exit 1
fi
echo "determinism_lint: OK — one wall-clock read in $TOOL, in the hash meter"

# Who drains the live queues follows from the clocks the shards publish
# into `GlobalWatermark`, never from the wall clock: its impl names no
# `Instant`. The `StallDetector` in the same file keeps its timer.
PROGRESS=crates/ompt/src/progress.rs
if hits=$(awk '
    /^impl GlobalWatermark \{/ { merge = 1 }
    merge && /^\}/ { merge = 0 }
    merge && /Instant/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }
' "$PROGRESS") && [ -n "$hits" ]; then
    echo "determinism_lint: FAILED — impl GlobalWatermark reads the wall clock:" >&2
    echo "$hits" >&2
    echo "decide from the published slots only." >&2
    exit 1
fi
if ! grep -q '^impl GlobalWatermark {' "$PROGRESS"; then
    echo "determinism_lint: FAILED — impl GlobalWatermark not found in $PROGRESS" >&2
    exit 1
fi
echo "determinism_lint: OK — impl GlobalWatermark in $PROGRESS names no Instant"

# `.odpt` format version 1's checksum (`fnv1a64`, one byte per multiply,
# ~0.75 GB/s) stays only to verify version-1 files: one call site
# outside the tests, the version-1 arm of `Checksum::sum`. A second one
# puts the byte loop back on a path every saved or loaded byte walks.
PERSIST=crates/trace/src/persist.rs
calls=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /fnv1a64\(/ && !/fn fnv1a64\(/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }
' "$PERSIST")
if [ "$calls" -ne 1 ]; then
    echo "determinism_lint: FAILED — $PERSIST calls fnv1a64( at $calls site(s)" >&2
    echo "outside its tests; exactly one is allowed, the version-1 verify arm." >&2
    exit 1
fi
echo "determinism_lint: OK — fnv1a64 has one call site in $PERSIST, the version-1 verifier"

# `odp-static` interprets an IR program against a runtime it is handed
# and runs it under the tool through `odp_workloads::session::run`, the
# one run driver. Building a runtime or attaching a tool here is a
# second driver growing back: no streaming, threads, remediation, faults
# or `finish_run` for whatever goes through it.
STATIC=crates/static/src
if hits=$(for f in "$STATIC"/*.rs; do
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /attach_tool\(|OmpDataPerfTool::new\(|Runtime::new\(/ && !/^[[:space:]]*\/\// {
            print FILENAME ":" FNR ": " $0
        }
    ' "$f"
done) && [ -n "$hits" ]; then
    echo "determinism_lint: FAILED — $STATIC builds its own runtime or tool:" >&2
    echo "$hits" >&2
    echo "run the program through odp_workloads::session::run instead." >&2
    exit 1
fi
echo "determinism_lint: OK — $STATIC builds no runtime and attaches no tool"

# Serialization writes JSON text in one pass (`Serialize::write_json`);
# `to_value` is that text parsed back into a tree. On an output path it
# writes everything twice and parses it once in between. `json!`
# interpolation calls it inside the macro and is not matched.
if hits=$(find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live && /\.to_value\(\)|serde_json::to_value\(/ && !/^[[:space:]]*\/\// {
        print FILENAME ":" FNR ": " $0
    }
') && [ -n "$hits" ]; then
    echo "determinism_lint: FAILED — a Value tree on an output path:" >&2
    echo "$hits" >&2
    echo "serialize with serde_json::to_string(_pretty) directly." >&2
    exit 1
fi
echo "determinism_lint: OK — no .to_value() or serde_json::to_value( outside tests in crates/*/src"

# A kernel launch borrows its device buffers by move
# (`DeviceMemory::lend` / `restore`). `split_off(0)` takes a buffer by
# allocating a replacement of the same capacity: per referenced
# variable per launch, the allocator churn that once doubled a small
# program's tooled run time.
SIM=crates/sim/src
if hits=$(grep -rn 'split_off(0)' "$SIM"); then
    echo "determinism_lint: FAILED — split_off(0) in $SIM:" >&2
    echo "$hits" >&2
    echo "move the buffer out with std::mem::take (DeviceMemory::lend) instead." >&2
    exit 1
fi
echo "determinism_lint: OK — no split_off(0) in $SIM"

# A runtime owns its host memory and devices outright; the threads of a
# threaded run share only the advisor they consult and the fault plan's
# totals (atomics). A lock in the simulator is a shared data environment
# growing back: its interleaving is the OS scheduler's, not the program's.
if hits=$(find "$SIM" -name '*.rs' | sort | xargs awk '
    FNR == 1 { live = 1 }
    /^#\[cfg\(test\)\]/ { live = 0 }
    live && /Mutex|parking_lot/ && !/^[[:space:]]*\/\// {
        print FILENAME ":" FNR ": " $0
    }
') && [ -n "$hits" ]; then
    echo "determinism_lint: FAILED — a lock in $SIM:" >&2
    echo "$hits" >&2
    echo "give each runtime its own state; share only through the advisor." >&2
    exit 1
fi
echo "determinism_lint: OK — no Mutex or parking_lot outside tests in $SIM"
