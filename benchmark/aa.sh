#!/bin/sh
# A/A check: runs the full set (every workload, untraced and traced, each
# in its own process) twice back to back and fails if any end-to-end
# metric differs between the sets by more than its own bound, or any
# exact count differs at all. Extra arguments go to the harness, e.g.
#   benchmark/aa.sh --seconds 10
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --aa "$@"
