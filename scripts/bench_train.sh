#!/usr/bin/env sh
# bench_train.sh — run the training-hot-path and decision-plane
# microbenchmarks and emit a machine-readable BENCH_train.json
# (ns/op, B/op, allocs/op per benchmark).
#
# Usage:
#   scripts/bench_train.sh [out.json]       # default out: BENCH_train.json
#   BENCHTIME=1x scripts/bench_train.sh     # quick CI run
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_train.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' \
    -bench '^(BenchmarkSVMFit|BenchmarkTANFit|BenchmarkNaiveFit|BenchmarkFeatselSelect|BenchmarkFeatselRank|BenchmarkPipelineIngest|BenchmarkDecide|BenchmarkDecideBatch|BenchmarkFuseSample|BenchmarkFuseBatch)$' \
    -benchmem -benchtime "${BENCHTIME:-2s}" -count 1 \
    ./internal/ml/svm ./internal/ml/bayes ./internal/featsel ./internal/serve ./internal/core ./internal/fuse \
    | tee "$tmp"

awk '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bop = ""; aop = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bop = $(i - 1)
        if ($i == "allocs/op") aop = $(i - 1)
    }
    if (ns == "") next
    if (bop == "") bop = "null"
    if (aop == "") aop = "null"
    lines[n++] = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bop, aop)
}
END {
    print "{"
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    print "  ]"
    print "}"
}
' "$tmp" > "$out"
echo "wrote $out"
