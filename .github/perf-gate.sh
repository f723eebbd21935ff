#!/usr/bin/env bash
# The perf gate: explorer-bench on a parent commit against the working
# tree, on the same host, then the `perf` comparator over both sides'
# results (docs/perf.md, "The perf gate").
#
#   .github/perf-gate.sh <parent-rev>
#
# The parent is checked out in a git worktree, and each side builds
# into its own target directory under target/perf-gate/. Five pairs
# run per workload, pair i at --seed i, the parent first in odd pairs
# and the change first in even ones: every workload for 10 s untraced,
# plus traced cold-explore and warm-replay runs for the per-layer
# gates. Exits 0 when the gate passes, 2 when it fails, 1 on an error.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 <parent-rev>" >&2; exit 1; }
root=$(git rev-parse --show-toplevel)
out="$root/target/perf-gate"
rm -rf "$out"
mkdir -p "$out"
git -C "$root" worktree prune
git -C "$root" worktree add --detach "$out/parent-src" "$1"
trap 'git -C "$root" worktree remove --force "$out/parent-src"' EXIT

build() { # <side> <source root>
  CARGO_TARGET_DIR="$out/$1" cargo build --offline --release -q \
    --manifest-path "$2/explorer-bench/Cargo.toml"
}
build parent "$out/parent-src"
build change "$root"

bench() { # <side> <seed> <workload> <trace>
  local line
  line=$(CARGO_TARGET_DIR="$out/$1" "$out/$1/release/explorer-bench" \
    --workload "$3" --seed "$2" --seconds 10 --trace "$4" | tail -n 1)
  echo "$1 $3 seed $2 trace $4: $line"
}

for seed in 1 2 3 4 5; do
  sides="parent change"
  [ $((seed % 2)) -eq 0 ] && sides="change parent"
  for run in "cold-explore 0" "cold-explore 1" "design-sweep 0" "warm-replay 0" "warm-replay 1"; do
    for side in $sides; do
      bench "$side" "$seed" $run
    done
  done
done

cd "$root"
cargo run --release -q -p asip-bench --bin perf -- \
  "$out/parent/explorer-bench" "$out/change/explorer-bench"
