package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tracenet/internal/experiments"
)

func TestRunDefaultScenario(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1, subnets: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"tracenet to 10.0.5.2", "reached=true",
		"subnet 10.0.2.0/29", "collected subnets (4)", "probes sent"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "degraded subnets") {
		t.Errorf("fault-free run reports degraded subnets:\n%s", out)
	}
}

func TestRunExplicitDestination(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{topo: "chain", proto: "udp", maxTTL: 30, seed: 1,
		dests: []string{"10.9.255.2"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "reached=true") {
		t.Fatalf("chain trace failed:\n%s", b.String())
	}
}

// TestRunErrors: bad input fails the run with an error naming it. A
// flag-built spec passes the checks a -spec file does, so a negative
// -maxttl or -parallel and a repeated destination (which would write a
// checkpoint no resume accepts) are refused before anything is traced. A
// -maxttl of 0 is refused too: the flag defaults to 30, so it was typed.
func TestRunErrors(t *testing.T) {
	checkpoint := filepath.Join(t.TempDir(), "cp.json")
	for name, tc := range map[string]struct {
		mutate func(*options)
		want   string // substring of the error
	}{
		"bad protocol":       {func(o *options) { o.proto = "bogus" }, "protocol"},
		"bad topology":       {func(o *options) { o.topo = "no-such-topo" }, "no-such-topo"},
		"bad vantage":        {func(o *options) { o.vantage = "nobody" }, "nobody"},
		"bad destination":    {func(o *options) { o.dests = []string{"not-an-ip"} }, "not-an-ip"},
		"missing fault plan": {func(o *options) { o.faults = filepath.Join(t.TempDir(), "missing.json") }, "missing.json"},
		"negative -maxttl":   {func(o *options) { o.maxTTL = -5 }, "max_ttl must be non-negative"},
		"zero -maxttl":       {func(o *options) { o.maxTTL = 0 }, "-maxttl must be at least 1"},
		"negative -parallel": {func(o *options) { o.parallel = -3 }, "parallel must be non-negative"},
		"repeated destination": {func(o *options) {
			o.campaignOut, o.dests = checkpoint, []string{"10.0.5.2", "10.0.5.2"}
		}, `duplicate target "10.0.5.2"`},
	} {
		o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1}
		tc.mutate(&o)
		var b strings.Builder
		if err := run(&b, o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}
	if _, err := os.Stat(checkpoint); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run wrote a checkpoint: %v", err)
	}
}

func TestRunChaosSeed(t *testing.T) {
	var b strings.Builder
	if err := run(&b, options{topo: "internet2", proto: "icmp", maxTTL: 30, seed: 1,
		chaos: 7, backoff: true, breaker: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"resilience:", "faults injected:"} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunFaultPlanFile(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(plan, []byte(`{"seed": 3, "faults": [
		{"kind": "corrupt", "prob": 0.4}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
		faults: plan}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "faults injected:") {
		t.Fatalf("fault plan run lacks fault stats:\n%s", b.String())
	}
}

func TestRunAdversarialPlanDefended(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "byzantine.json")
	if err := os.WriteFile(plan, []byte(`{"seed": 3, "faults": [
		{"kind": "liar", "prob": 0.4},
		{"kind": "alias-confuse"},
		{"kind": "hidden-hop", "router": "R3"},
		{"kind": "echo", "prob": 0.3}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	collect := func() string {
		var b strings.Builder
		if err := run(&b, options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
			faults: plan, defend: true, subnets: true}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := collect()
	for _, want := range []string{"faults injected:", "byzantine replies:", "defense: cross-check probes"} {
		if !strings.Contains(out, want) {
			t.Errorf("adversarial output lacks %q:\n%s", want, out)
		}
	}
	// Same seed, same plan: the defended run must be byte-identical.
	if again := collect(); again != out {
		t.Errorf("same-seed defended runs differ:\n--- first\n%s\n--- second\n%s", out, again)
	}
}

func TestRunRejectsUnknownFaultKind(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "bogus.json")
	if err := os.WriteFile(plan, []byte(`{"seed": 1, "faults": [{"kind": "gremlin"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run(&b, options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1, faults: plan})
	if err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
		t.Fatalf("unknown fault kind not rejected: %v", err)
	}
}

// telemetryOpts returns a faultless figure-3 run writing every telemetry
// artifact into dir.
func telemetryOpts(dir string) options {
	return options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
		metricsOut: filepath.Join(dir, "metrics.prom"),
		traceOut:   filepath.Join(dir, "trace.json"),
	}
}

func TestRunTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := telemetryOpts(dir)
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"metrics written to", "trace written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	metrics, err := os.ReadFile(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE tracenet_probe_sent_total counter",
		`tracenet_probe_sent_total{proto="icmp"}`,
		"tracenet_netsim_clock_ticks",
		`tracenet_session_probes_total{phase="trace"}`,
		`tracenet_probe_reply_ttl_bucket{proto="icmp",le="64"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics lack %q:\n%s", want, metrics)
		}
	}

	trace, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(trace, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev["name"].(string)] = true
	}
	for _, want := range []string{"trace", "hop", "position", "explore", "probe"} {
		if !seen[want] {
			t.Errorf("trace lacks %q spans; saw %v", want, seen)
		}
	}
}

func TestRunTelemetryJSONMetrics(t *testing.T) {
	dir := t.TempDir()
	o := telemetryOpts(dir)
	o.metricsOut = filepath.Join(dir, "metrics.json")
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("JSON metrics do not parse: %v", err)
	}
	if snap.Counters[`tracenet_probe_sent_total{proto="icmp"}`] == 0 {
		t.Errorf("JSON metrics lack probe counter:\n%s", data)
	}
}

// TestRunTelemetryDeterministic is the acceptance check for the determinism
// contract: two runs with the same seed and flags produce byte-identical
// metrics and trace artifacts.
func TestRunTelemetryDeterministic(t *testing.T) {
	artifacts := func(dir string) (metrics, trace []byte) {
		t.Helper()
		o := telemetryOpts(dir)
		var b strings.Builder
		if err := run(&b, o); err != nil {
			t.Fatal(err)
		}
		metrics, err := os.ReadFile(o.metricsOut)
		if err != nil {
			t.Fatal(err)
		}
		trace, err = os.ReadFile(o.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		return metrics, trace
	}
	m1, t1 := artifacts(t.TempDir())
	m2, t2 := artifacts(t.TempDir())
	if !bytes.Equal(m1, m2) {
		t.Errorf("same-seed metrics differ:\n--- run 1\n%s\n--- run 2\n%s", m1, m2)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("same-seed traces differ")
	}
}

// TestRunFaultedDumpsFlightRecorder exercises the incident path end to end: a
// chaotic run with the breaker armed must leave post-mortem dumps in the
// -flight-recorder file.
func TestRunFaultedDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	o := options{topo: "internet2", proto: "icmp", maxTTL: 30, seed: 1,
		chaos: 7, backoff: true, breaker: true,
		flightOut: filepath.Join(dir, "flight.txt"),
	}
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "flight recorder:") {
		t.Errorf("no flight recorder summary line:\n%s", b.String())
	}
	dump, err := os.ReadFile(o.flightOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "flight recorder dump #1") {
		t.Fatalf("faulted run produced no flight-recorder dump:\n%s", dump)
	}
	if !strings.Contains(string(dump), "icmp ") {
		t.Errorf("dump holds no probe history:\n%s", dump)
	}
}

func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
		cpuProfile: filepath.Join(dir, "cpu.pprof"),
		memProfile: filepath.Join(dir, "mem.pprof"),
	}
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.cpuProfile, o.memProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunCampaignMode(t *testing.T) {
	var b strings.Builder
	o := options{topo: "random", proto: "icmp", maxTTL: 30, seed: 3, parallel: 4}
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"tracenet over random topology",
		"campaign:", "merged subnet map", "wire probes", "cache hits"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunCampaignTargetsFile(t *testing.T) {
	dir := t.TempDir()
	tf := filepath.Join(dir, "targets.txt")
	if err := os.WriteFile(tf, []byte("# figure3 leaves\n10.0.5.2\n\n10.0.4.2 # inline comment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1, targets: tf, parallel: 2}
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "campaign: 2 targets (done 2") {
		t.Fatalf("targets file not honoured:\n%s", out)
	}
	for _, want := range []string{"10.0.5.2", "10.0.4.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks target %q:\n%s", want, out)
		}
	}
}

func TestRunCampaignCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "campaign.json")
	var b strings.Builder
	o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1, parallel: 2, campaignOut: cp}
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "campaign checkpoint written to") {
		t.Fatalf("no checkpoint confirmation:\n%s", b.String())
	}
	traced := b.String()

	b.Reset()
	o = options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1, parallel: 2, campaignResume: cp}
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "resuming campaign from") {
		t.Fatalf("no resume banner:\n%s", out)
	}
	if !strings.Contains(out, "wire probes 0") {
		t.Errorf("fully-resumed campaign probed anyway:\n%s", out)
	}
	// The hop listing and the report render from the journaled path exactly
	// as from the trace; only the run accounting after them differs.
	collected := func(s string) string {
		s = s[strings.Index(s, "tracenet to "):]
		return s[:strings.Index(s, "\nwire probes")]
	}
	if got, want := collected(out), collected(traced); got != want {
		t.Errorf("resumed run renders:\n%s\ntraced run rendered:\n%s", got, want)
	}
}

// TestRunWireProbesAreTableProbes pins the one collection path: the wire
// probes tracenet prints for Internet2 and GEANT are the "probes spent" of
// the paper's Tables 1 and 2, which the experiments harness collects through
// the same campaign.
func TestRunWireProbesAreTableProbes(t *testing.T) {
	wire := regexp.MustCompile(`(?m)^wire probes (\d+)`)
	for _, tc := range []struct {
		topo  string
		table func(int64) (*experiments.ResearchResult, error)
		want  uint64
	}{
		{"internet2", experiments.Table1Internet2, 3135},
		{"geant", experiments.Table2GEANT, 4734},
	} {
		res, err := tc.table(7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes != tc.want {
			t.Errorf("%s: table probes spent %d, want %d", tc.topo, res.Probes, tc.want)
		}
		var b strings.Builder
		if err := run(&b, options{topo: tc.topo, maxTTL: 30, seed: 7}); err != nil {
			t.Fatal(err)
		}
		m := wire.FindStringSubmatch(b.String())
		if m == nil {
			t.Fatalf("%s: no wire probes line:\n%s", tc.topo, b.String())
		}
		if got := strconv.FormatUint(res.Probes, 10); m[1] != got {
			t.Errorf("%s: tracenet sent %s wire probes, the table spent %s", tc.topo, m[1], got)
		}
	}
}

func TestRunCampaignErrors(t *testing.T) {
	var b strings.Builder
	o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
		targets: filepath.Join(t.TempDir(), "missing.txt")}
	if err := run(&b, o); err == nil {
		t.Error("missing targets file accepted")
	}
	tf := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(tf, []byte("not-an-ip\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o = options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1, targets: tf}
	if err := run(&b, o); err == nil {
		t.Error("bad targets file accepted")
	}
}

func TestRunEvalCleanChainPerfect(t *testing.T) {
	dir := t.TempDir()
	evalRun := func(out string) string {
		t.Helper()
		var b strings.Builder
		o := options{topo: "chain", proto: "icmp", maxTTL: 30, seed: 1,
			eval: true, evalOut: out, dests: []string{"10.9.255.2"}}
		if err := run(&b, o); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	out1 := evalRun(filepath.Join(dir, "eval1.json"))
	for _, want := range []string{
		"ground-truth eval: 9 true subnets, 9 collected",
		"subnet precision 1.000 (9/9 exact), recall 1.000 (9/9 matched exactly)",
		"address precision 1.000 (18/18), recall 1.000 (18/18)",
		"verdicts: exact 9",
	} {
		if !strings.Contains(out1, want) {
			t.Errorf("eval output lacks %q:\n%s", want, out1)
		}
	}

	// Rerun with identical flags: console output and JSON artifact must be
	// byte-identical.
	out2 := evalRun(filepath.Join(dir, "eval2.json"))
	if norm := strings.ReplaceAll(out2, "eval2.json", "eval1.json"); norm != out1 {
		t.Errorf("eval output differs across reruns:\n--- 1\n%s--- 2\n%s", out1, out2)
	}
	js1, err := os.ReadFile(filepath.Join(dir, "eval1.json"))
	if err != nil {
		t.Fatal(err)
	}
	js2, err := os.ReadFile(filepath.Join(dir, "eval2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js1, js2) {
		t.Errorf("eval JSON artifacts differ across reruns:\n--- 1\n%s--- 2\n%s", js1, js2)
	}

	var doc struct {
		SubnetPrecision float64        `json:"subnet_precision"`
		SubnetRecall    float64        `json:"subnet_recall"`
		Verdicts        map[string]int `json:"verdicts"`
	}
	if err := json.Unmarshal(js1, &doc); err != nil {
		t.Fatalf("eval artifact does not parse: %v\n%s", err, js1)
	}
	if doc.SubnetPrecision != 1 || doc.SubnetRecall != 1 || doc.Verdicts["exact"] != 9 {
		t.Errorf("eval artifact scores = %+v", doc)
	}
}

func TestRunEvalCampaign(t *testing.T) {
	var b strings.Builder
	o := options{topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1,
		parallel: 2, eval: true,
		dests: []string{"10.0.3.1", "10.0.4.1", "10.0.5.2"}}
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Figure 3's LAN is a /24 with only four assigned addresses, so the
	// minimal covering /29 is the best any collector can infer: 5 exact plus
	// one subset, with perfect address-level accuracy.
	for _, want := range []string{
		"ground-truth eval: 6 true subnets, 6 collected",
		"verdicts: exact 5 subset 1",
		"address precision 1.000 (14/14), recall 1.000 (14/14)",
		"10.0.2.0/29        subset    true 10.0.2.0/24 members 4/4 k=+5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign eval output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunEvalCoreAndTelemetry(t *testing.T) {
	dir := t.TempDir()
	mf := filepath.Join(dir, "metrics.txt")
	var b strings.Builder
	o := options{topo: "chain", proto: "icmp", maxTTL: 30, seed: 1,
		evalCore: true, metricsOut: mf, dests: []string{"10.9.255.2"}}
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	// Core universe excludes the two host /30s: 7 true subnets; the two
	// collected host subnets become phantoms.
	out := b.String()
	if !strings.Contains(out, "ground-truth eval: 7 true subnets, 9 collected") {
		t.Errorf("core eval universe wrong:\n%s", out)
	}
	if !strings.Contains(out, "phantom 2") {
		t.Errorf("host subnets not scored as phantoms in core mode:\n%s", out)
	}
	metrics, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tracenet_eval_subnets_total{verdict="exact"} 7`,
		`tracenet_eval_subnets_total{verdict="phantom"} 2`,
		"tracenet_eval_subnet_recall_ppm 1000000",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics exposition lacks %q:\n%s", want, metrics)
		}
	}
}

// TestRunSpecFile: -spec runs a tracenetd campaign spec locally, producing
// output byte-identical to the equivalent flag invocation — one submission
// file drives both the daemon and a one-shot CLI run.
func TestRunSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(path, []byte(
		`{"tenant": "alice", "topology": "random", "seed": 42, "parallel": 2, "eval": true, "priority": 7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromSpec strings.Builder
	if err := run(&fromSpec, options{spec: path, topo: "figure3", proto: "icmp", maxTTL: 30, seed: 1}); err != nil {
		t.Fatal(err)
	}
	var fromFlags strings.Builder
	if err := run(&fromFlags, options{topo: "random", proto: "icmp", maxTTL: 30, seed: 42,
		parallel: 2, eval: true}); err != nil {
		t.Fatal(err)
	}
	if fromSpec.String() != fromFlags.String() {
		t.Errorf("-spec output differs from equivalent flags:\n--- spec\n%s\n--- flags\n%s",
			fromSpec.String(), fromFlags.String())
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tenant": "alice", "topology": "/etc/passwd"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, options{spec: bad, proto: "icmp", maxTTL: 30}); err == nil {
		t.Error("spec with a file topology accepted")
	}
}

// TestRunSpecFileReplacesCampaignFlags pins the -spec rule: the spec file is
// the whole campaign. Campaign flags given beside it are ignored rather than
// overlaid field by field, and the spec's unset fields take the Spec
// defaults, which equal the flag defaults.
func TestRunSpecFileReplacesCampaignFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := os.WriteFile(path, []byte(`{"tenant": "alice", "topology": "random", "seed": 42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var alone strings.Builder
	if err := run(&alone, options{spec: path}); err != nil {
		t.Fatal(err)
	}
	var beside strings.Builder
	if err := run(&beside, options{spec: path, topo: "chain", seed: 9, vantage: "nobody", proto: "udp",
		maxTTL: 3, parallel: 4, campaignBudget: 5, defend: true, chaos: 7, backoff: true, breaker: true,
		campaignNoCache: true, eval: true, dests: []string{"10.9.255.2"}}); err != nil {
		t.Fatal(err)
	}
	if beside.String() != alone.String() {
		t.Errorf("campaign flags beside -spec changed the run:\n--- spec alone\n%s\n--- spec with flags\n%s",
			alone.String(), beside.String())
	}
	var defaults strings.Builder
	if err := run(&defaults, options{topo: "random", proto: "icmp", maxTTL: 30, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if defaults.String() != alone.String() {
		t.Errorf("unset spec fields do not take the flag defaults:\n--- spec\n%s\n--- flags\n%s",
			alone.String(), defaults.String())
	}
}
