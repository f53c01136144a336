#!/bin/sh
# Benchmark baseline: run the hot-path and telemetry benchmarks and write the
# parsed results as BENCH_<date>.json (via cmd/benchjson), so perf regressions
# show up as a reviewable diff against the committed baseline.
#
# Environment overrides:
#   BENCH_DATE      date stamp for the output name and document (default: today, UTC)
#   BENCH_OUT       output file (default: BENCH_${BENCH_DATE}.json)
#   BENCH_PATTERN   -bench regexp (default: hot paths + their telemetry variants)
#   BENCH_TIME      -benchtime (default 0.5s; CI smoke uses 1x)
set -eu
cd "$(dirname "$0")/.."

DATE="${BENCH_DATE:-$(date -u +%Y%m%d)}"
OUT="${BENCH_OUT:-BENCH_${DATE}.json}"
PATTERN="${BENCH_PATTERN:-^(BenchmarkProbeExchange|BenchmarkSingleTrace)(Telemetry)?$|^BenchmarkSingleTraceMetrics$|^BenchmarkTraceInternet2Cold$|^BenchmarkCampaign(Progress|Scaling|10k|ISP|Faulted)?$|^BenchmarkAccuracy$|^BenchmarkDaemonThroughput$}"
TIME="${BENCH_TIME:-0.5s}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "== go test -bench (repo hot paths, pattern $PATTERN)"
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" . | tee "$tmp"

echo "== go test -bench (internal/telemetry)"
go test -run '^$' -bench . -benchmem -benchtime "$TIME" ./internal/telemetry/ | tee -a "$tmp"

go run ./cmd/benchjson -date "$DATE" < "$tmp" > "$OUT"
echo "benchmark baseline written to $OUT"
