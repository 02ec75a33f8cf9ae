#!/usr/bin/env sh
# bench_serve.sh — run the serving-path benchmarks and the capstress
# fleet-scale ingest legs, and emit a machine-readable BENCH_serve.json.
#
# Two kinds of rows land in the file:
#   - go-test microbenchmarks (BenchmarkPipelineIngest, BenchmarkFleetIngest
#     legs: unsharded / sharded / sharded-ref / sharded-site / sharded-batch
#     at 1k/10k/100k sites): ns/op, B/op, allocs/op of steady-state ingest
#     per tier-sample; and the network path per five-scrape frame —
#     BenchmarkLoopbackFrames (Sender → loopback TCP → FrameServer → Ingest
#     → two shards) and internal/wire's BenchmarkDecodeFrame.
#   - capstress -sites scale rows: end-to-end sites/sec, samples/sec,
#     sampled p50/p99 per-site scrape latency, allocs/op, decision counts.
#     The SECONDS pair stays inside one 30-second window (pure steady-state
#     ingest, zero decisions); the DECIDE_SECONDS pair crosses a window
#     boundary so the rows also amortize the per-window decision path,
#     which costs the same Predict call in both pipelines.
#
# Usage:
#   scripts/bench_serve.sh [out.json]       # default out: BENCH_serve.json
#   BENCHTIME=1x SITES=2000 SECONDS=12 DECIDE_SECONDS=0 scripts/bench_serve.sh /tmp/b.json   # quick CI run
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_serve.json}"
sites="${SITES:-100000}"
seconds="${SECONDS:-20}"
decide_seconds="${DECIDE_SECONDS:-40}"
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

# Steady-state fleet ingest: the whole run fits inside one 30-second
# window, so the rows measure the per-sample path alone. The -fuse leg
# prices the counter-fusion stage on the same stream.
go run ./cmd/capstress -sites "$sites" -seconds "$seconds" >> "$rows"
go run ./cmd/capstress -sites "$sites" -seconds "$seconds" -shards 8 >> "$rows"
go run ./cmd/capstress -sites "$sites" -seconds "$seconds" -shards 8 -fuse >> "$rows"

# Decision-inclusive legs: long enough to close a window per site, so the
# shared per-window Predict cost is amortized into both rows.
if [ "$decide_seconds" -gt 0 ]; then
    go run ./cmd/capstress -sites "$sites" -seconds "$decide_seconds" -leg unsharded-decide >> "$rows"
    go run ./cmd/capstress -sites "$sites" -seconds "$decide_seconds" -shards 8 -leg sharded-decide >> "$rows"
fi

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
