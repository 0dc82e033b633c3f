#!/usr/bin/env bash
# Prints "<seed> <sha256>" for the stdout of
#
#   hsrbench -quick -run all,fairness,ccmix -jobs 2 -seed <seed>
#
# for each seed given, in the format of perfbench/testdata/paper-suite.sha256.
# The paper-suite workload checks its in-process rendering against these
# digests, so they pin the benchmark to what the CLI prints. Run from the
# repository root:
#
#   bash perfbench/record_digests.sh 0 1 2 >> perfbench/testdata/paper-suite.sha256
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$(pwd)/$out"
mkdir -p "$out"
go build -o "$out/hsrbench" ./cmd/hsrbench
for seed in "$@"; do
	sum=$("$out/hsrbench" -quick -run all,fairness,ccmix -jobs 2 -seed "$seed" 2>/dev/null | sha256sum)
	echo "$seed ${sum%% *}"
done
