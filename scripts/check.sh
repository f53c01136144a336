#!/bin/sh
# Full verification gate: formatting, build, vet, the project's own static
# analysis suite (tracenetlint), race-enabled tests with runtime invariants
# compiled in, and a short fuzz smoke over the wire decoders, ground-truth
# scoring, fault plans, topology files, campaign specs, tracenetd spools and
# campaign checkpoints.
# Everything here must stay green; the chaos tests (internal/netsim/chaos_test.go)
# are deterministic, so a failure is reproducible with the same seed.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l . 2>/dev/null)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# One way to trace a target list: collect.Run, the path tracenet and tracenetd
# run. A core.Session built outside internal/collect is a second path that no
# command ships. The adversarial ensemble is the one exception until a
# campaign's defence quarantines as one session does (ROADMAP: "Campaign
# defence quarantines per target").
echo "== core.NewSession only in internal/collect"
sessions=$(grep -rl --include='*.go' 'core\.NewSession' . | grep -v '_test\.go$' |
    grep -v -e '^\./internal/collect/' -e '^\./internal/experiments/adversarial\.go$' || true)
if [ -n "$sessions" ]; then
    echo "core.NewSession outside internal/collect; trace target lists with collect.Run:" >&2
    echo "$sessions" >&2
    exit 1
fi

# perfbench is its own Go module (replace tracenet => ../), so the root
# "./..." patterns above never compile it. Vet and unit-test it here so an
# API change in collect, core or daemon that breaks the benchmark harness
# fails this gate instead of the next benchmark run.
echo "== perfbench module: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "== go run ./cmd/tracenetlint ./..."
go run ./cmd/tracenetlint ./...

# Allocation-budget gate: recompile the hot probe-path packages with escape
# analysis (-m=2) and fail on any heap escape not recorded in
# internal/lint/allocbudget/budgets.txt. A deliberate new allocation is
# admitted by regenerating the file (tracenetlint -allocbudget-write) so the
# diff shows up in review.
echo "== go run ./cmd/tracenetlint -allocbudget"
go run ./cmd/tracenetlint -allocbudget

echo "== go test -race -tags invariants ./..."
go test -race -tags invariants ./...

# The campaign engine's determinism contract is its core guarantee: the
# campaign contract harness (TestCampaignContract, in ./cmd/tracenet/) runs
# collect.Run's worker pool, the CLI, and tracenetd's scheduler, drain and
# restart on one set of campaigns. The observability plane reads live
# Progress state while campaign workers mutate it, every tracenet CLI run
# goes through the worker pool while its -serve handlers read that state,
# and the daemon's tenant registry and scheduler are hammered from
# concurrent HTTP submissions (the tenant-budget invariant test); exercise
# all of them explicitly under the race detector even when the full suite
# above is trimmed.
echo "== go test -race ./internal/collect/ ./internal/obs/ ./internal/daemon/ ./cmd/tracenetd/ ./cmd/tracenet/ (campaign engine + observability plane + daemon + CLI)"
go test -race -count=1 ./internal/collect/ ./internal/obs/ ./internal/daemon/ ./cmd/tracenetd/ ./cmd/tracenet/

# The campaign contract harness checks every way tracenet runs a campaign —
# collect.Run at several worker counts, a cut and its resume, the CLI with
# flags and -spec, tracenetd's submit, drain and restart, a resume under
# another spec — against one oracle per row, pinned in
# cmd/tracenet/testdata/contract.golden. The full suite above already runs
# it; the explicit invocation makes a broken contract its own gate failure.
echo "== campaign contract harness"
go test -count=1 -run '^TestCampaignContract$' ./cmd/tracenet/

# The ground-truth accuracy floors (internal/experiments/accuracy.go) are the
# regression gate for collector accuracy: the seeded ensemble must stay at or
# above the committed per-regime precision/recall floors. The full suite above
# already runs this; the explicit invocation makes a floor violation stand out
# as its own gate failure.
echo "== ground-truth accuracy floors"
go test -count=1 -run '^TestAccuracyFloors$' ./internal/experiments/

# The adversarial floors (internal/experiments/adversarial.go) gate the
# byzantine regimes: undefended precision must actually collapse where the
# threat model says it does, and -defend must recover it to the committed
# per-regime floors.
echo "== adversarial accuracy floors"
go test -count=1 -run '^TestAdversarialFloors$' ./internal/experiments/

# Routes are built per destination subnet on first use and shared by every
# network on a topology, so a campaign's memory grows with the subnets it
# reaches. On a 16,384-leaf topology (85,265 routers, 16,424 subnets) a dense
# router x subnet table would need about 16.8 GB; netsim.New plus a
# 64-target campaign must stay under the heap bound in the test.
echo "== 16,384-leaf campaign heap bound"
go test -count=1 -run '^TestSixteenThousandLeafCampaignHeap$' ./internal/netsim/

# End-to-end eval smoke: a clean deterministic topology must score perfectly.
echo "== tracenet -eval smoke (chain topology, must be exact)"
go run ./cmd/tracenet -topo chain -eval | grep "subnet precision 1.000"

# No test runs the examples, and several print library renderings (such as
# core.Result.String) that change with the library; each must still run.
echo "== examples smoke"
for d in examples/*/; do
    go run "./$d" >/dev/null
done

echo "== bench smoke (1 iteration per benchmark) + baseline diff (gating on exact counts)"
bench_tmp="$(mktemp)"
go test -run '^$' -bench '^(BenchmarkProbeExchange|BenchmarkSingleTrace)(Telemetry)?$|^BenchmarkCampaign(Progress|ISP|Faulted)?$|^BenchmarkAccuracy$|^BenchmarkDaemonThroughput$' -benchmem -benchtime 1x . | tee "$bench_tmp"
go test -run '^$' -bench . -benchmem -benchtime 1x ./internal/telemetry/ | tee -a "$bench_tmp"
# Diff the smoke run against the newest committed baseline. Exact counts
# gate: a rise in a benchmark's wire-probes, probes/trace or
# spool-files/campaign fails here, since they move only when the collector's
# or the daemon's behaviour does. The rest
# of the report is advisory: 1x timing numbers are noise, and allocs/op at
# one iteration includes warm-up, so an allocation regression shows here
# before the hard allocbudget gate pins down which function caused it.
bench_baseline="$(ls BENCH_*.json | sort | tail -1)"
echo "== benchjson -compare $bench_baseline (gating on wire-probes, probes/trace and spool-files/campaign)"
go run ./cmd/benchjson -compare "$bench_baseline" < "$bench_tmp"
rm -f "$bench_tmp"

echo "== fuzz smoke (wire decoders + groundtruth scoring + fault plans + topology files + campaign specs + tracenetd spools + checkpoints, 5s per target)"
for target in FuzzUnmarshalIPv4 FuzzUnmarshalICMP FuzzUnmarshalUDP FuzzUnmarshalTCP; do
    go test ./internal/wire/ -run '^$' -fuzz "^${target}\$" -fuzztime 5s
done
go test ./internal/groundtruth/ -run '^$' -fuzz '^FuzzScoreInvariants$' -fuzztime 5s
go test ./internal/netsim/ -run '^$' -fuzz '^FuzzReadFaultPlan$' -fuzztime 5s
go test ./internal/daemon/ -run '^$' -fuzz '^FuzzReadSpec$' -fuzztime 5s
# Each FuzzStart input is a one-campaign spool: a record and a checkpoint,
# which minimize as slowly as FuzzReadCheckpoint's inputs below.
go test ./internal/daemon/ -run '^$' -fuzz '^FuzzStart$' -fuzztime 5s -fuzzminimizetime 100x
# Minimizing one of the multi-kilobyte seed checkpoints or topology files
# would otherwise take the whole smoke (a 5 s run executed 20 inputs); 100
# tries per new input leaves ~14k inputs/s for fuzzing.
go test ./internal/netsim/ -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 5s -fuzzminimizetime 100x
go test ./internal/collect/ -run '^$' -fuzz '^FuzzReadCheckpoint$' -fuzztime 5s -fuzzminimizetime 100x

# govulncheck: known-vulnerability scan over the module and its (stdlib-only)
# dependency graph, pinned so CI and local runs agree on the checker version.
# It needs the binary installed and a reachable vulnerability database, so
# offline environments must opt out *explicitly* with
# TRACENET_SKIP_GOVULNCHECK=1 — a missing binary fails the gate rather than
# silently passing as it used to.
GOVULNCHECK_VERSION="v1.1.4"
echo "== govulncheck ($GOVULNCHECK_VERSION)"
if [ "${TRACENET_SKIP_GOVULNCHECK:-0}" = "1" ]; then
    echo "skipped: TRACENET_SKIP_GOVULNCHECK=1"
elif command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "govulncheck is not installed; install the pinned version with" >&2
    echo "    go install golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION" >&2
    echo "or skip explicitly in offline environments with TRACENET_SKIP_GOVULNCHECK=1" >&2
    exit 1
fi

echo "All checks passed."
