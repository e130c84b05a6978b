#!/usr/bin/env bash
# Builds the release claire-cli and this benchmark (the `benchmark` target
# of claire-bench) from the checkout, then runs the benchmark with the
# given arguments, for example:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload flow-cold \
#       --seed 1 --seconds 20 --trace 0
#   bash crates/bench/src/bin/benchmark/run.sh run --seed 1
#   bash crates/bench/src/bin/benchmark/run.sh trace --seed 1
#   bash crates/bench/src/bin/benchmark/run.sh compare <dir A> <dir B>
#
# Builds land in $CARGO_TARGET_DIR (default: the workspace's target
# directory), results under its benchmark/results directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/cli" ]]; then
  echo "run.sh: $root is not a CLAIRE checkout; nothing to build" >&2
  exit 1
fi
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Two builds, so that claire-cli is built with exactly the features it
# gets when built alone.
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" -p claire-cli
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" \
  -p claire-bench --bin benchmark

cd "$root"
exec "$target/release/benchmark" --cli "$target/release/claire-cli" --root "$root" "$@"
