#!/usr/bin/env bash
# The benchmark in one command: build offline (release), then run.
#
#   benchmark/run.sh                      every workload, untraced then traced;
#                                         tables on stdout, benchmark/out/results.json
#   benchmark/run.sh --repeat 2           the same twice, plus the A/A self-check
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#                                         one run of one workload; the last line of
#                                         stdout is the JSON object BENCHMARK.json
#                                         describes (this is what the driver calls)
#
# The build goes to $CARGO_TARGET_DIR if set, else to benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
