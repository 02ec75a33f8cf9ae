#!/usr/bin/env sh
# bench_serve.sh — run the serving-path microbenchmarks and emit a
# machine-readable BENCH_serve.json.
#
# Rows: BenchmarkPipelineIngest and the BenchmarkFleetIngest legs
# (unsharded / sharded / sharded-site at 1k/10k/100k sites): ns/op, B/op,
# allocs/op of steady-state ingest per tier-sample; and the network path per five-scrape frame —
# BenchmarkLoopbackFrames (Sender → loopback TCP → FrameServer → Ingest →
# two shards) and internal/wire's BenchmarkDecodeFrame. End-to-end fleet
# ingest, with and without fusion, is the bench module's fleet-direct and
# fleet-fuse workloads (go run -C bench . --workload fleet-direct).
#
# Usage:
#   scripts/bench_serve.sh [out.json]       # default out: BENCH_serve.json
#   BENCHTIME=1x scripts/bench_serve.sh /tmp/b.json   # quick CI run
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_serve.json}"
tmp="$(mktemp)"
rows="$(mktemp)"
trap 'rm -f "$tmp" "$rows"' EXIT

go test -run '^$' \
    -bench '^(BenchmarkPipelineIngest|BenchmarkFleetIngest|BenchmarkLoopbackFrames|BenchmarkDecodeFrame)$' \
    -benchmem -benchtime "${BENCHTIME:-2000000x}" -count 1 \
    ./internal/serve ./internal/wire \
    | tee "$tmp"

awk '
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
    printf "{\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}\n", name, ns, bop, aop
}
' "$tmp" >> "$rows"

awk '
{ lines[n++] = "    " $0 }
END {
    print "{"
    print "  \"benchmarks\": ["
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    print "  ]"
    print "}"
}
' "$rows" > "$out"
echo "wrote $out"
